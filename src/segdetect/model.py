"""Toy segmentation network: conv3x3(3->16) - ReLU - conv3x3(16->16) - ReLU - conv1x1(16->C).

Inputs are raw 0-255 images; normalization to (x - mean) / scale happens inside
the model so attacks can work on the raw pixel scale.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensorio
from .autodiff import conv2d_bwd, conv2d_fwd, relu_bwd, relu_fwd, softmax, softmax_ce
from .errors import InputError, TrainingError

HIDDEN = 16


@dataclass
class TrainConfig:
    epochs: int = 30
    lr: float = 0.05
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise InputError("learning rate must be >= 0")
        if self.epochs < 1:
            raise InputError("epochs must be >= 1")


@dataclass
class ModelParams:
    kernels: list          # [(3,3,3,16), (3,3,16,16), (1,1,16,C)]
    biases: list
    num_classes: int
    seed: int
    mean: float = 127.5
    scale: float = 127.5


def init_model(num_classes, seed=0, mean=127.5, scale=127.5):
    """He-initialized hidden layers; zero-initialized classification head."""
    rng = np.random.default_rng(seed)
    shapes = [(3, 3, 3, HIDDEN), (3, 3, HIDDEN, HIDDEN), (1, 1, HIDDEN, num_classes)]
    kernels, biases = [], []
    for i, shp in enumerate(shapes):
        fan_in = shp[0] * shp[1] * shp[2]
        if i < len(shapes) - 1:
            k = rng.normal(0.0, np.sqrt(2.0 / fan_in), shp)
        else:
            k = np.zeros(shp)
        kernels.append(k.astype(np.float32))
        biases.append(np.zeros(shp[3], np.float32))
    return ModelParams(kernels=kernels, biases=biases, num_classes=num_classes,
                       seed=seed, mean=mean, scale=scale)


def _check_image(image):
    if image.ndim != 3 or image.shape[2] != 3:
        raise InputError(f"image must be HxWx3, got {image.shape}")
    if not np.all(np.isfinite(image)):
        raise InputError("image contains non-finite values")


def _forward(model, image, dtype=np.float32):
    """Returns (logits, nodes) keeping the per-layer backward contexts; the
    pass runs in `dtype`."""
    z = ((image.astype(dtype) - model.mean) / model.scale).astype(dtype)
    nodes = []
    a = z
    for i, (k, b) in enumerate(zip(model.kernels, model.biases)):
        a, cn = conv2d_fwd(a, k, b)
        nodes.append(("conv", cn))
        if i < len(model.kernels) - 1:
            a, rn = relu_fwd(a)
            nodes.append(("relu", rn))
    return a, nodes


def _backward(model, nodes, grad_logits, want_params=False):
    """Walks the cached nodes in reverse; returns input grad and optionally
    per-layer parameter grads (in layer order)."""
    g = grad_logits
    kgrads, bgrads = [], []
    for kind, node in reversed(nodes):
        if kind == "relu":
            g = relu_bwd(node, g)
        else:
            g, gk, gb = conv2d_bwd(node, g)
            if want_params:
                kgrads.append(gk)
                bgrads.append(gb)
    # chain rule through (x - mean) / scale
    g = (g / np.float32(model.scale)).astype(np.float32)
    if want_params:
        return g, kgrads[::-1], bgrads[::-1]
    return g


def predict(model, image):
    """Per-pixel softmax probabilities, H x W x C."""
    _check_image(image)
    logits, _ = _forward(model, image)
    return softmax(logits)


def predicted_labels(model, image):
    return np.argmax(predict(model, image), axis=2)


def loss_input_grad(model, image, target, pixel_weights):
    """Weighted mean cross-entropy and its gradient w.r.t. raw pixels."""
    _check_image(image)
    logits, nodes = _forward(model, image)
    loss, _probs, grad_logits = softmax_ce(logits, target, pixel_weights)
    grad = _backward(model, nodes, grad_logits)
    return loss, grad


def _param_grads(model, image, target, pixel_weights):
    logits, nodes = _forward(model, image)
    loss, _probs, grad_logits = softmax_ce(logits, target, pixel_weights)
    _, kgrads, bgrads = _backward(model, nodes, grad_logits, want_params=True)
    return loss, kgrads, bgrads


def loss_value_f64(model, image, target, pixel_weights):
    """Float64 evaluation of the loss through the same forward pass, used as
    the reference for finite-difference gradient checks (float32 losses are
    too coarse for central differences at h = 0.1)."""
    logits, _ = _forward(model, image, np.float64)
    p = softmax(logits, dtype=np.float64)
    ce = -np.log(np.take_along_axis(p, target[:, :, None], axis=2)[:, :, 0])
    return float(np.sum(pixel_weights * ce) / target.size)


def train(dataset, cfg):
    """Mini-batch SGD over (image, labels) pairs; deterministic for fixed seed."""
    if not dataset:
        raise InputError("training dataset is empty")
    num_classes = int(max(lab.max() for _, lab in dataset)) + 1
    model = init_model(num_classes, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    n = len(dataset)
    ones = np.ones(dataset[0][1].shape, np.float32)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            ksum = [np.zeros_like(k) for k in model.kernels]
            bsum = [np.zeros_like(b) for b in model.biases]
            for idx in batch:
                image, labels = dataset[idx]
                loss, kgrads, bgrads = _param_grads(model, image, labels, ones)
                if not np.isfinite(loss):
                    raise TrainingError(f"training diverged at epoch {epoch}")
                for acc, g in zip(ksum, kgrads):
                    acc += g
                for acc, g in zip(bsum, bgrads):
                    acc += g
            lr = np.float32(cfg.lr / len(batch))
            for k, g in zip(model.kernels, ksum):
                k -= lr * g
            for b, g in zip(model.biases, bsum):
                b -= lr * g
    return model


@dataclass
class CheckReport:
    passed: bool
    frac_within: float
    median_rel_err: float
    quantiles: dict = field(default_factory=dict)


def grad_check(model, image, target, pixel_weights=None, n_samples=200, h=0.1,
               seed=0, frac_tol=0.95, rel_tol=1e-2, median_tol=1e-3):
    """Central-difference check of loss_input_grad on randomly sampled pixels."""
    if pixel_weights is None:
        pixel_weights = np.ones(target.shape, np.float32)
    _, grad = loss_input_grad(model, image, target, pixel_weights)
    rng = np.random.default_rng(seed)
    flat = rng.choice(image.size, size=min(n_samples, image.size), replace=False)
    coords = np.unravel_index(flat, image.shape)
    rel_errs = []
    for i, j, c in zip(*coords):
        xp = image.astype(np.float64).copy()
        xp[i, j, c] += h
        lp = loss_value_f64(model, xp, target, pixel_weights)
        xp[i, j, c] -= 2 * h
        lm = loss_value_f64(model, xp, target, pixel_weights)
        fd = (lp - lm) / (2 * h)
        denom = max(abs(fd), abs(float(grad[i, j, c])), 1e-12)
        rel_errs.append(abs(fd - float(grad[i, j, c])) / denom)
    rel_errs = np.array(rel_errs)
    frac = float(np.mean(rel_errs < rel_tol))
    med = float(np.median(rel_errs))
    quantiles = {q: float(np.quantile(rel_errs, q)) for q in (0.5, 0.9, 0.99)}
    return CheckReport(passed=frac >= frac_tol and med < median_tol,
                       frac_within=frac, median_rel_err=med, quantiles=quantiles)


def save_model(model, tensor_path, sidecar_path):
    """Checkpoint: tensor container with kernels and biases interleaved, plus
    a JSON sidecar describing architecture and normalization."""
    arrays = []
    for k, b in zip(model.kernels, model.biases):
        arrays.append(k)
        arrays.append(b)
    tensorio.save_tensors(tensor_path, arrays)
    meta = {
        "architecture": [list(k.shape) for k in model.kernels],
        "num_classes": model.num_classes,
        "seed": model.seed,
        "mean": model.mean,
        "scale": model.scale,
    }
    tensorio.write_json(sidecar_path, meta)


def load_model(tensor_path, sidecar_path):
    meta = tensorio.read_json(sidecar_path)
    arrays = tensorio.load_tensors(tensor_path)
    kernels = arrays[0::2]
    biases = arrays[1::2]
    return ModelParams(kernels=kernels, biases=biases,
                       num_classes=meta["num_classes"], seed=meta["seed"],
                       mean=meta["mean"], scale=meta["scale"])
