"""Gradient-sign attacks against the segmentation model.

Five families: single-step FGSM (untargeted / least-likely targeted), the
iterative variants, a universal stationary-mask perturbation, the
nearest-neighbor class-deletion attack, and a translation-only patch attack.

All attacks work on the raw 0-255 pixel scale. Clean images are whole-valued,
and emitted adversarial images are quantized back to whole values (truncating
the perturbation toward zero) so the l-inf budget holds bit-exactly.
"""

from dataclasses import dataclass

import numpy as np

from . import workers
from .errors import (FINITE_POSITIVE, IN_OPEN_UNIT, IN_UNIT, AttackError, Config, InputError,
                     at_least, check, ruled)
from .model import loss_input_grad, predict_and_grad
from .model import predict, predicted_labels  # noqa: F401 - bindings the benchmark's tracer wraps


DNNM_BLOCK = 1024   # hidden pixels per dnnm_target distance block


@dataclass
class AttackConfig(Config, section="fgsm/ifgsm"):
    eps: float = ruled(8.0, FINITE_POSITIVE)
    alpha: float = ruled(1.0, FINITE_POSITIVE)
    n_iter: int = ruled(1, at_least(1))
    targeted: bool = False


@dataclass
class SsmmConfig(Config, section="ssmm"):
    eps: float = ruled(0.1 * 255, FINITE_POSITIVE)
    alpha: float = ruled(0.01 * 255, FINITE_POSITIVE)
    n_iter: int = ruled(60, at_least(0))
    tau: float = ruled(0.75, IN_OPEN_UNIT)


@dataclass
class DnnmConfig(Config, section="dnnm"):
    hidden_class: int = ruled(1, at_least(1))
    omega: float = ruled(0.9, IN_UNIT)
    eps: float = ruled(0.1 * 255, FINITE_POSITIVE)
    alpha: float = ruled(0.01 * 255, FINITE_POSITIVE)
    n_iter: int = ruled(60, at_least(0))


@dataclass
class PatchConfig(Config, section="patch"):
    height: int = ruled(48, at_least(1))
    width: int = ruled(48, at_least(1))
    n_iter: int = ruled(100, at_least(0))
    placements: int = ruled(8, at_least(1))
    alpha: float = ruled(2.0, FINITE_POSITIVE)
    seed: int = ruled(0, at_least(0))


def iteration_count(eps):
    """Iteration rule for the iterative sign attacks: min(eps + 4, floor(1.25 eps))."""
    check("fgsm/ifgsm", [("eps", eps, (lambda v: 1 <= v < np.inf and int(v) == v,
                                       "a whole number >= 1 for the iteration rule"))])
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


def _first_forward_grad(model, objective):
    """Gradient function for _sign_descent whose (target, pixel weights) are
    objective(probs) of its first call's forward, i.e. of the clean image,
    and stay fixed: one forward per gradient, with no separate predict."""
    fixed = []

    def grad(x):
        if fixed:
            return loss_input_grad(model, x, *fixed)[1]

        def first(probs):
            fixed.extend(objective(probs))
            return fixed
        return predict_and_grad(model, x, first)[2]
    return grad


def _sign_attack(model, sample, cfg, alpha, n_iter):
    """Per-image sign attack in the eps-box; the targeted variant descends
    toward the least likely class of the clean prediction."""
    x = sample.image.astype(np.float32)
    ones = np.ones(sample.labels.shape, np.float32)
    if cfg.targeted:
        grad, step = _first_forward_grad(model, lambda p: (least_likely_target(p), ones)), -alpha
    else:
        grad, step = (lambda a: loss_input_grad(model, a, sample.labels, ones)[1]), alpha
    return _quantize(x, _sign_descent(grad, x, step, _eps_box(x, cfg.eps), n_iter))


def fgsm(model, sample, cfg):
    """Single-step sign attack: one step of size eps (cfg.alpha and
    cfg.n_iter are not used)."""
    return _sign_attack(model, sample, cfg, cfg.eps, 1)


def ifgsm(model, sample, cfg):
    """Iterative sign attack with per-step clipping to the eps-ball around the
    clean image (and to [0, 255]). The targeted variant uses the least likely
    class of the clean prediction, fixed across iterations."""
    return _sign_attack(model, sample, cfg, cfg.alpha, cfg.n_iter)


def ssmm_train(model, train_samples, target, cfg):
    """Universal noise (H x W x 3 float32, |noise| <= eps) driving
    predictions toward one fixed target label map.

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

    def masked_grad(xi, i):
        """Gradient of sample i's target loss, without the pixels already
        predicted as their target with confidence above tau."""
        def masked(probs):
            pred = np.argmax(probs, axis=2)
            conf = np.take_along_axis(probs, target[:, :, None], axis=2)[:, :, 0]
            done = (pred == target) & (conf > cfg.tau)
            return target, np.where(done, 0.0, 1.0).astype(np.float32)
        xadv = np.clip(train_samples[i].image + xi, 0, 255).astype(np.float32)
        return predict_and_grad(model, xadv, masked)[2]

    n, eps = len(train_samples), np.float32(cfg.eps)
    with workers.forked_map(masked_grad, n) as run:
        return _sign_descent(lambda xi: sum(run(xi, range(n))) / n, np.zeros(shape, np.float32),
                             -cfg.alpha, lambda xi: np.clip(xi, -eps, eps), cfg.n_iter)


def pick_ssmm_target(candidates, rng):
    """Shared stationary target: the label map of one randomly chosen image.

    A single universal noise cannot chase per-image targets, so all training
    samples share one randomly picked target segmentation."""
    if not candidates:
        raise InputError("no target candidates")
    return candidates[int(rng.integers(len(candidates)))].labels


def apply_universal(image, noise):
    """The image plus the universal noise, quantized like every attack's."""
    if noise.shape != image.shape:
        raise InputError(f"noise shape {noise.shape} does not match image {image.shape}")
    return _quantize(image, np.clip(image + noise, 0, 255))


def dnnm_target(pred, hidden_class, omega):
    """Retargets pixels of the hidden class to the prediction of the spatially
    nearest complement pixel (exact squared Euclidean distance, lexicographic
    tie-break); complement pixels keep their own prediction.

    Only complement pixels with a hidden 4-neighbour are searched. If q is a
    nearest complement pixel of hidden p, q's 4-neighbour one step toward p
    lies in the image and strictly closer to p, so it is hidden: every
    minimizer is in the searched set, and its row-major order keeps the tie
    rule. Hidden pixels go in blocks of DNNM_BLOCK, so the distance
    temporary is O(DNNM_BLOCK x boundary).

    Returns (target labels, pixel weights) with weight omega on the hidden
    region and 1 - omega elsewhere."""
    mask_o = pred == hidden_class
    target = pred.astype(np.int32).copy()
    weights = np.full(pred.shape, 1.0 - omega, np.float32)
    if not mask_o.any():
        return target, weights
    touches = np.zeros_like(mask_o)
    touches[1:] |= mask_o[:-1]
    touches[:-1] |= mask_o[1:]
    touches[:, 1:] |= mask_o[:, :-1]
    touches[:, :-1] |= mask_o[:, 1:]
    comp = np.argwhere(touches & ~mask_o)      # row-major, i.e. lexicographic order
    if comp.size == 0:
        raise AttackError("entire image predicted as the hidden class")
    own = np.argwhere(mask_o)
    for start in range(0, len(own), DNNM_BLOCK):
        blk = own[start:start + DNNM_BLOCK]
        d2 = ((blk[:, 0, None] - comp[None, :, 0]) ** 2
              + (blk[:, 1, None] - comp[None, :, 1]) ** 2)
        nearest = comp[np.argmin(d2, axis=1)]   # first minimum = smallest (i', j')
        target[blk[:, 0], blk[:, 1]] = pred[nearest[:, 0], nearest[:, 1]]
    weights[mask_o] = omega
    return target, weights


def dnnm_attack(model, sample, cfg):
    """Iterative minimization of the omega-weighted loss toward the
    class-deletion target computed once from the clean prediction."""
    x = sample.image.astype(np.float32)
    grad = _first_forward_grad(
        model, lambda p: dnnm_target(np.argmax(p, axis=2), cfg.hidden_class, cfg.omega))
    return _quantize(x, _sign_descent(grad, x, -cfg.alpha, _eps_box(x, cfg.eps), cfg.n_iter))


def check_patch_fits(cfg, h, w):
    """Raises InputError unless patch config `cfg` fits an h x w image."""
    check("patch", [("height", cfg.height, (lambda v: v <= h, f"<= the image height {h}")),
                    ("width", cfg.width, (lambda v: v <= w, f"<= the image width {w}"))])


def patch_attack(model, train_samples, cfg):
    """Translation-only patch optimization: iterative sign-gradient ascent on
    the untargeted mean cross-entropy, averaged each iteration over random
    placements across the training samples. Returns the patch; use apply_patch
    to paste it."""
    h, w = train_samples[0].image.shape[:2]
    check_patch_fits(cfg, h, w)
    rng = np.random.default_rng(cfg.seed)

    def placed_grad(patch, placement):
        i, top, left = placement
        s = train_samples[i]
        patched = s.image.astype(np.float32).copy()
        patched[top:top + cfg.height, left:left + cfg.width] = patch
        ones = np.ones(s.labels.shape, np.float32)
        grad = loss_input_grad(model, patched, s.labels, ones)[1]
        return grad[top:top + cfg.height, left:left + cfg.width]

    def placements():
        return [(int(rng.integers(len(train_samples))), int(rng.integers(0, h - cfg.height + 1)),
                 int(rng.integers(0, w - cfg.width + 1))) for _ in range(cfg.placements)]

    gray = np.full((cfg.height, cfg.width, 3), 127.5, np.float32)
    with workers.forked_map(placed_grad, cfg.placements) as run:
        return _sign_descent(lambda p: sum(run(p, placements())) / cfg.placements, gray,
                             cfg.alpha, lambda p: np.clip(p, 0, 255), cfg.n_iter)


def apply_patch(image, patch, top, left):
    """The image with the patch pasted at (top, left); pixels outside the
    window stay bit-identical."""
    ph, pw = patch.shape[:2]
    adv = image.astype(np.float32).copy()
    adv[top:top + ph, left:left + pw] = np.clip(np.rint(patch), 0, 255)
    return adv


def target_agreement(pred, target):
    """Fraction of pixels predicted as their target label."""
    return float(np.mean(pred == target))
