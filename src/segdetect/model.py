"""Toy segmentation network: conv3x3(3->16) - ReLU - conv3x3(16->16) - ReLU - conv1x1(16->C).

Inputs are raw 0-255 images; normalization to (x - MEAN) / SCALE happens inside
the model so attacks can work on the raw pixel scale.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensorio, workers
from .autodiff import (conv2d_bwd, conv2d_fwd, conv2d_input_grad, relu_bwd, relu_fwd, softmax,
                       softmax_ce)
from .errors import FINITE_NON_NEGATIVE, InputError, TrainingError, at_least, check_fields, ruled

HIDDEN = 16
MEAN = SCALE = 127.5    # every model's input normalization


@dataclass
class TrainConfig:
    epochs: int = ruled(30, at_least(1))
    lr: float = ruled(0.05, FINITE_NON_NEGATIVE)
    batch_size: int = ruled(8, at_least(1))
    seed: int = ruled(0, at_least(0))

    def __post_init__(self):
        check_fields(self, "train")


@dataclass
class ModelParams:
    kernels: list          # [(3,3,3,16), (3,3,16,16), (1,1,16,C)]
    biases: list

    @property
    def num_classes(self):
        """C, the head's output channels."""
        return self.kernels[-1].shape[3]


def init_model(num_classes, seed=0):
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
    return ModelParams(kernels, biases)


def _check_image(image):
    if image.ndim != 3 or image.shape[2] != 3:
        raise InputError(f"image must be HxWx3, got {image.shape}")
    if not np.all(np.isfinite(image)):
        raise InputError("image contains non-finite values")


def _forward(model, image, dtype=np.float32):
    """Returns (logits, nodes): H x W x C logits and the per-layer backward
    contexts. The pass runs in `dtype`, on channels-first planes."""
    z = ((image.astype(dtype) - MEAN) / SCALE).astype(dtype)
    nodes = []
    a = z.transpose(2, 0, 1)
    for i, (k, b) in enumerate(zip(model.kernels, model.biases)):
        a, cn = conv2d_fwd(a, k, b)
        nodes.append(("conv", cn))
        if i < len(model.kernels) - 1:
            a, rn = relu_fwd(a)
            nodes.append(("relu", rn))
    return a.transpose(1, 2, 0), nodes


def _backward(model, nodes, grad_logits, want_params=False):
    """Walks the cached nodes in reverse from the H x W x C grad_logits.
    Returns the H x W x C input grad, or with want_params the per-layer
    parameter grads (in layer order) and no input grad: training never reads
    it, so the first conv does not compute it."""
    g = grad_logits.transpose(2, 0, 1)
    kgrads, bgrads = [], []
    for n, (kind, node) in reversed(list(enumerate(nodes))):
        if kind == "relu":
            g = relu_bwd(node, g)
        elif want_params:
            g, gk, gb = conv2d_bwd(node, g, want_input=n > 0)
            kgrads.append(gk)
            bgrads.append(gb)
        else:
            g = conv2d_input_grad(node, g)
    if want_params:
        return kgrads[::-1], bgrads[::-1]
    # chain rule through (x - MEAN) / SCALE, back to H x W x C
    return np.ascontiguousarray((g / np.float32(SCALE)).transpose(1, 2, 0), np.float32)


def predict(model, image):
    """Per-pixel softmax probabilities, H x W x C."""
    _check_image(image)
    logits, _ = _forward(model, image)
    return softmax(logits)


def predicted_labels(model, image):
    return np.argmax(predict(model, image), axis=2)


def predict_and_grad(model, image, objective):
    """One forward pass for both the prediction and a loss gradient:
    objective(probs) -> (target, pixel_weights) picks the weighted mean
    cross-entropy from the softmax probabilities. Returns (probs, loss, its
    gradient w.r.t. raw pixels)."""
    _check_image(image)
    logits, nodes = _forward(model, image)
    probs = softmax(logits)
    target, pixel_weights = objective(probs)
    loss, _, grad_logits = softmax_ce(logits, target, pixel_weights, probs)
    return probs, loss, _backward(model, nodes, grad_logits)


def loss_input_grad(model, image, target, pixel_weights):
    """Weighted mean cross-entropy and its gradient w.r.t. raw pixels."""
    _, loss, grad = predict_and_grad(model, image, lambda probs: (target, pixel_weights))
    return loss, grad


def _param_grads(model, image, target, pixel_weights):
    logits, nodes = _forward(model, image)
    loss, _probs, grad_logits = softmax_ce(logits, target, pixel_weights)
    kgrads, bgrads = _backward(model, nodes, grad_logits, want_params=True)
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
    """Mini-batch SGD over (image, labels) pairs; deterministic for fixed seed.
    Each batch is shared among one process per CPU (workers.forked_map), and
    the per-sample losses and gradients are each `sum`med over its results in
    batch order, so the model does not depend on the CPU count. A loss lies in
    [0, -log(float32 tiny)], so a batch's summed loss is finite exactly when
    every sample's is."""
    if not dataset:
        raise InputError("training dataset is empty")
    num_classes = int(max(lab.max() for _, lab in dataset)) + 1
    model = init_model(num_classes, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    n = len(dataset)
    ones = np.ones(dataset[0][1].shape, np.float32)

    def grads(params, i):
        loss, kgrads, bgrads = _param_grads(ModelParams(*params), *dataset[i], ones)
        return loss, *kgrads, *bgrads

    with workers.forked_map(grads, min(cfg.batch_size, n)) as run:
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                loss, *gsum = map(sum, zip(*run((model.kernels, model.biases), batch)))
                if not np.isfinite(loss):
                    raise TrainingError(f"training diverged at epoch {epoch}")
                lr = np.float32(cfg.lr / len(batch))
                for p, g in zip(model.kernels + model.biases, gsum):
                    p -= lr * g
    return model


@dataclass
class CheckReport:
    passed: bool
    frac_within: float
    median_rel_err: float
    h: float
    n_samples: int
    radius: int             # receptive-field radius r, see grad_check
    quantiles: dict = field(default_factory=dict)


def receptive_radius(model):
    """How far a change to one input pixel reaches in the logits: the sum of
    the convs' half-widths (ReLU is per-pixel)."""
    return sum(k.shape[0] // 2 for k in model.kernels)


def _span(p, n, d):
    """Indices within d of p on an axis of length n."""
    return slice(max(p - d, 0), min(p + d + 1, n))


def _box(p, n, d):
    """2d + 1 consecutive indices (all n, if fewer) holding every index within
    d of p on an axis of length n: centred on p, shifted inside at the ends."""
    start = min(max(p - d, 0), max(n - 2 * d - 1, 0))
    return slice(start, min(start + 2 * d + 1, n))


def _window_fd(model, x64, target, pixel_weights, i, j, c, h, r):
    """Central difference of the loss along input (i, j, c), evaluated on a
    crop of x64 holding every pixel within 2r of (i, j), with weight only
    within r of it; grad_check says why it equals the whole image's."""
    height, width = target.shape
    near = (_span(i, height, r), _span(j, width, r))
    weights = np.zeros_like(pixel_weights)
    weights[near] = pixel_weights[near]
    box = (_box(i, height, 2 * r), _box(j, width, 2 * r))
    crop, crop_target, crop_weights = x64[box].copy(), target[box], weights[box]
    ci, cj = i - box[0].start, j - box[1].start
    crop[ci, cj, c] += h
    lp = loss_value_f64(model, crop, crop_target, crop_weights)
    crop[ci, cj, c] -= 2 * h
    lm = loss_value_f64(model, crop, crop_target, crop_weights)
    # loss_value_f64 averages over the crop's pixels, the loss over the image's
    return (lp - lm) * (crop_target.size / target.size) / (2 * h)


def grad_check(model, image, target, pixel_weights=None, n_samples=200, h=0.1,
               seed=0, frac_tol=0.95, rel_tol=1e-2, median_tol=1e-3):
    """Central-difference check of loss_input_grad on randomly sampled pixels.

    Each difference runs two float64 forward passes over a crop, not the
    image. Let r = receptive_radius(model). Every layer is a same-padded conv
    or per-pixel, so moving input (i, j) changes only the logits within r of
    (i, j), and those read only inputs within 2r of (i, j). The crop is the
    (4r + 1)-pixel square centred on (i, j), shifted inside the image where
    it would cross the border, so it holds all of those inputs; where it
    meets the image border, the conv's zero padding is the model's own. The
    logits within r of (i, j) are therefore the same in crop and image, and
    no other logit of either moves with (i, j). The pixel weights are zeroed
    outside r of (i, j), so the crop's loss difference sums just the moving
    terms, without the cancellation error of the rest; rescaled from crop to
    image pixels, it is the image's. Every crop has the same shape, so the
    check does the same work whichever pixels it samples.
    """
    if pixel_weights is None:
        pixel_weights = np.ones(target.shape, np.float32)
    _, grad = loss_input_grad(model, image, target, pixel_weights)
    rng = np.random.default_rng(seed)
    flat = rng.choice(image.size, size=min(n_samples, image.size), replace=False)
    r = receptive_radius(model)
    x64 = image.astype(np.float64)
    rel_errs = []
    for i, j, c in zip(*np.unravel_index(flat, image.shape)):
        fd = _window_fd(model, x64, target, pixel_weights, i, j, c, h, r)
        denom = max(abs(fd), abs(float(grad[i, j, c])), 1e-12)
        rel_errs.append(abs(fd - float(grad[i, j, c])) / denom)
    rel_errs = np.array(rel_errs)
    frac = float(np.mean(rel_errs < rel_tol))
    med = float(np.median(rel_errs))
    quantiles = {q: float(np.quantile(rel_errs, q)) for q in (0.5, 0.9, 0.99)}
    return CheckReport(passed=frac >= frac_tol and med < median_tol,
                       frac_within=frac, median_rel_err=med, h=h,
                       n_samples=len(flat), radius=r, quantiles=quantiles)


def save_model(model, path):
    """Checkpoint: one tensor file, the kernels and biases interleaved."""
    tensorio.save_tensors(path, [a for kb in zip(model.kernels, model.biases) for a in kb])


def load_model(path):
    arrays = tensorio.load_tensors(path)
    return ModelParams(arrays[0::2], arrays[1::2])
