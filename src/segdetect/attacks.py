"""Gradient-sign attacks against the segmentation model.

Five families: single-step FGSM (untargeted / least-likely targeted), the
iterative variants, a universal stationary-mask perturbation, the
nearest-neighbor class-deletion attack, and a translation-only patch attack.

All attacks work on the raw 0-255 pixel scale. Clean images are whole-valued,
and emitted adversarial images are quantized back to whole values (truncating
the perturbation toward zero) so the l-inf budget holds bit-exactly.
"""

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import AttackError, InputError
from .model import loss_input_grad, predict, predicted_labels


@dataclass
class AttackConfig:
    eps: float = 8.0
    alpha: float = 1.0
    n_iter: int = 1
    targeted: bool = False

    def __post_init__(self):
        if self.eps <= 0 or self.alpha <= 0 or self.n_iter < 1:
            raise InputError("eps and alpha must be positive, n_iter >= 1")


@dataclass
class SsmmConfig:
    eps: float = 0.1 * 255
    alpha: float = 0.01 * 255
    n_iter: int = 60
    tau: float = 0.75

    def __post_init__(self):
        if not 0 < self.tau < 1:
            raise InputError("tau must lie in (0, 1)")


@dataclass
class DnnmConfig:
    hidden_class: int = 1
    omega: float = 0.9
    eps: float = 0.1 * 255
    alpha: float = 0.01 * 255
    n_iter: int = 60

    def __post_init__(self):
        if not 0 <= self.omega <= 1:
            raise InputError("omega must lie in [0, 1]")


@dataclass
class PatchConfig:
    height: int = 48
    width: int = 48
    n_iter: int = 100
    placements: int = 8
    alpha: float = 2.0
    seed: int = 0


@dataclass
class UniversalPerturbation:
    noise: np.ndarray             # H x W x 3 float32, |noise| <= eps
    config: dict
    iterations_run: int


@dataclass
class PerturbedSample:
    image: np.ndarray
    clean_id: str
    attack: str
    config: dict = field(default_factory=dict)
    target: Optional[np.ndarray] = None


def iteration_count(eps):
    """Iteration rule for the iterative sign attacks: min(eps + 4, floor(1.25 eps))."""
    if eps < 1 or int(eps) != eps:
        raise InputError("eps must be a positive integer for the iteration rule")
    eps = int(eps)
    return min(eps + 4, (5 * eps) // 4)


def least_likely_target(probs):
    """Per-pixel least likely class; ties go to the smallest class id."""
    return np.argmin(probs, axis=2).astype(np.int32)


def _quantize(clean, adv):
    """Truncate the perturbation toward zero so x_adv stays whole-valued and
    strictly inside the budget, then clamp to the pixel range."""
    delta = np.trunc(adv.astype(np.float64) - clean.astype(np.float64))
    return np.clip(clean.astype(np.float64) + delta, 0, 255).astype(np.float32)


def _echo(cfg, kind):
    """The config as recorded beside an attack's outputs."""
    return dict(asdict(cfg), kind=kind)


def sign_tag(kind, spec):
    """Tag of a sign attack spec or config: `<kind>_e<eps>`, or
    `<kind>_ll_e<eps>` when it targets the least likely class."""
    return f"{kind}{'_ll' if spec.get('targeted') else ''}_e{spec['eps']:g}"


def _sign_descent(grad_fn, x0, step, project, n_iter):
    """Projected sign descent: n_iter times x <- project(x + step * sign(grad_fn(x))).

    A positive step ascends the loss, a negative one descends it. Every attack
    family is a recipe over this loop: what it differentiates (target, pixel
    weights, per-image or averaged gradient), the step and the projection."""
    x = x0
    for _ in range(n_iter):
        grad = grad_fn(x)
        if not np.all(np.isfinite(grad)):
            raise AttackError("non-finite loss gradient")
        x = project(x + np.float32(step) * np.sign(grad, dtype=np.float32))
    return x


def _eps_box(x, eps):
    """Projection onto the eps-ball around x, within the pixel range."""
    lo = np.maximum(x - eps, 0.0)
    hi = np.minimum(x + eps, 255.0)
    return lambda adv: np.clip(adv, lo, hi)


def _sign_attack(model, sample, cfg, kind, alpha, n_iter):
    """Per-image sign attack in the eps-box; the targeted variant descends
    toward the least likely class of the clean prediction."""
    x = sample.image.astype(np.float32)
    target = least_likely_target(predict(model, x)) if cfg.targeted else None
    labels, step = (sample.labels, alpha) if target is None else (target, -alpha)
    ones = np.ones(sample.labels.shape, np.float32)
    adv = _sign_descent(lambda a: loss_input_grad(model, a, labels, ones)[1], x, step,
                        _eps_box(x, cfg.eps), n_iter)
    echo = _echo(cfg, kind)
    return PerturbedSample(image=_quantize(x, adv), clean_id=sample.id,
                           attack=sign_tag(kind, echo), config=echo, target=target)


def fgsm(model, sample, cfg):
    """Single-step sign attack: one step of size eps (cfg.alpha and
    cfg.n_iter are not used)."""
    return _sign_attack(model, sample, cfg, "fgsm", cfg.eps, 1)


def ifgsm(model, sample, cfg):
    """Iterative sign attack with per-step clipping to the eps-ball around the
    clean image (and to [0, 255]). The targeted variant uses the least likely
    class of the clean prediction, fixed across iterations."""
    return _sign_attack(model, sample, cfg, "ifgsm", cfg.alpha, cfg.n_iter)


def ssmm_train(model, train_samples, targets, cfg):
    """Universal noise driving predictions toward fixed target label maps.

    Each iteration averages the input gradients of the masked target loss over
    the training samples, steps by -alpha * sign and clips the noise to the
    eps-ball. Pixels already predicted as their target with confidence above
    tau contribute zero loss (the 1/|I| normalizer is kept)."""
    if not train_samples:
        raise InputError("ssmm needs a non-empty training set")
    shape = train_samples[0].image.shape
    for s in train_samples:
        if s.image.shape != shape:
            raise InputError("all ssmm training samples must share one image shape")

    def mean_grad(xi):
        gsum = np.zeros(shape, np.float32)
        for s, tgt in zip(train_samples, targets):
            xadv = np.clip(s.image + xi, 0, 255).astype(np.float32)
            probs = predict(model, xadv)
            pred = np.argmax(probs, axis=2)
            ii, jj = np.indices(tgt.shape)
            conf = probs[ii, jj, tgt]
            weights = np.where((pred == tgt) & (conf > cfg.tau), 0.0, 1.0).astype(np.float32)
            gsum += loss_input_grad(model, xadv, tgt, weights)[1]
        return gsum / len(train_samples)

    eps = np.float32(cfg.eps)
    xi = _sign_descent(mean_grad, np.zeros(shape, np.float32), -cfg.alpha,
                       lambda xi: np.clip(xi, -eps, eps), cfg.n_iter)
    return UniversalPerturbation(noise=xi, config=_echo(cfg, "ssmm"), iterations_run=cfg.n_iter)


def pick_ssmm_target(candidates, rng):
    """Shared stationary target: the label map of one randomly chosen image.

    A single universal noise cannot chase per-image targets, so all training
    samples share one randomly picked target segmentation."""
    if not candidates:
        raise InputError("no target candidates")
    return candidates[int(rng.integers(len(candidates)))].labels


def apply_universal(sample, perturbation):
    xi = perturbation.noise if isinstance(perturbation, UniversalPerturbation) else perturbation
    if xi.shape != sample.image.shape:
        raise InputError(f"noise shape {xi.shape} does not match image {sample.image.shape}")
    adv = np.clip(sample.image + xi, 0, 255)
    cfg = perturbation.config if isinstance(perturbation, UniversalPerturbation) else {}
    return PerturbedSample(image=_quantize(sample.image, adv), clean_id=sample.id,
                           attack="ssmm", config=cfg)


def dnnm_target(pred, hidden_class, omega):
    """Retargets pixels of the hidden class to the prediction of the spatially
    nearest complement pixel (exact squared Euclidean distance, lexicographic
    tie-break); complement pixels keep their own prediction.

    Returns (target labels, pixel weights) with weight omega on the hidden
    region and 1 - omega elsewhere."""
    mask_o = pred == hidden_class
    target = pred.astype(np.int32).copy()
    weights = np.full(pred.shape, 1.0 - omega, np.float32)
    if not mask_o.any():
        return target, weights
    comp = np.argwhere(~mask_o)       # row-major, i.e. lexicographic order
    if comp.size == 0:
        raise AttackError("entire image predicted as the hidden class")
    own = np.argwhere(mask_o)
    d2 = ((own[:, 0, None] - comp[None, :, 0]) ** 2
          + (own[:, 1, None] - comp[None, :, 1]) ** 2)
    nearest = comp[np.argmin(d2, axis=1)]   # first minimum = smallest (i', j')
    target[own[:, 0], own[:, 1]] = pred[nearest[:, 0], nearest[:, 1]]
    weights[mask_o] = omega
    return target, weights


def dnnm_attack(model, sample, cfg):
    """Iterative minimization of the omega-weighted loss toward the
    class-deletion target computed once from the clean prediction."""
    x = sample.image.astype(np.float32)
    pred = predicted_labels(model, x)
    target, weights = dnnm_target(pred, cfg.hidden_class, cfg.omega)
    adv = _sign_descent(lambda a: loss_input_grad(model, a, target, weights)[1], x,
                        -cfg.alpha, _eps_box(x, cfg.eps), cfg.n_iter)
    return PerturbedSample(image=_quantize(x, adv), clean_id=sample.id, attack="dnnm",
                           config=_echo(cfg, "dnnm"), target=target)


def patch_attack(model, train_samples, cfg):
    """Translation-only patch optimization: iterative sign-gradient ascent on
    the untargeted mean cross-entropy, averaged each iteration over random
    placements across the training samples. Returns the patch; use apply_patch
    to paste it."""
    h, w = train_samples[0].image.shape[:2]
    if cfg.height > h or cfg.width > w:
        raise InputError(f"patch {cfg.height}x{cfg.width} larger than image {h}x{w}")
    rng = np.random.default_rng(cfg.seed)

    def mean_grad(patch):
        gsum = np.zeros_like(patch)
        for _ in range(cfg.placements):
            s = train_samples[int(rng.integers(len(train_samples)))]
            top = int(rng.integers(0, h - cfg.height + 1))
            left = int(rng.integers(0, w - cfg.width + 1))
            patched = s.image.astype(np.float32).copy()
            patched[top:top + cfg.height, left:left + cfg.width] = patch
            ones = np.ones(s.labels.shape, np.float32)
            grad = loss_input_grad(model, patched, s.labels, ones)[1]
            gsum += grad[top:top + cfg.height, left:left + cfg.width]
        return gsum / cfg.placements

    gray = np.full((cfg.height, cfg.width, 3), 127.5, np.float32)
    return _sign_descent(mean_grad, gray, cfg.alpha, lambda p: np.clip(p, 0, 255), cfg.n_iter)


def apply_patch(sample, patch, cfg, top=None, left=None, rng=None):
    """Paste the patch; pixels outside the window stay bit-identical."""
    h, w = sample.image.shape[:2]
    ph, pw = patch.shape[:2]
    if top is None or left is None:
        if rng is None:
            rng = np.random.default_rng(0)
        top = int(rng.integers(0, h - ph + 1))
        left = int(rng.integers(0, w - pw + 1))
    adv = sample.image.astype(np.float32).copy()
    adv[top:top + ph, left:left + pw] = np.clip(np.rint(patch), 0, 255)
    echo = dict(_echo(cfg, "patch") if cfg is not None else {}, top=top, left=left)
    return PerturbedSample(image=adv, clean_id=sample.id, attack="patch", config=echo)


def target_agreement(pred, target):
    """Fraction of pixels predicted as their target label."""
    return float(np.mean(pred == target))
