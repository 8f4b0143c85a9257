"""Minimal reverse-mode differentiation over a fixed operator set.

Each forward op returns its output together with a context node caching the
activations its backward pass needs. Callers compose graphs explicitly and
call the backward ops in reverse order; there is no generic tape because the
segmentation model is a fixed feed-forward chain.

Tensors are float32, images H x W x C (channels last). The forward ops also
run in float64 when given float64 input, for the gradient check's reference.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, InternalError


@dataclass
class ConvNode:
    """Cached state of one conv2d_fwd call."""

    cols: np.ndarray        # (H*W, k*k*Cin) im2col view of the padded input
    kernel: np.ndarray      # (k, k, Cin, Cout)
    input_shape: tuple


@dataclass
class ReluNode:
    mask: np.ndarray        # bool, True where input > 0


def _im2col(x, k, dtype):
    h, w, cin = x.shape
    pad = k // 2
    xp = np.pad(x.astype(dtype, copy=False), ((pad, pad), (pad, pad), (0, 0)))
    cols = np.empty((h * w, k * k * cin), dtype)
    idx = 0
    for u in range(k):
        for v in range(k):
            cols[:, idx:idx + cin] = xp[u:u + h, v:v + w, :].reshape(h * w, cin)
            idx += cin
    return cols


def conv2d_fwd(x, kernel, bias):
    """Same-size 2-D convolution with zero padding.

    x: (H, W, Cin), kernel: (k, k, Cin, Cout), bias: (Cout,).
    Returns (out, node) with out of shape (H, W, Cout).
    """
    if x.ndim != 3 or kernel.ndim != 4:
        raise ConfigError(f"conv2d expects HWC input and kkIO kernel, got {x.shape} / {kernel.shape}")
    h, w, cin = x.shape
    k, k2, kcin, cout = kernel.shape
    if k != k2 or k % 2 == 0:
        raise ConfigError(f"kernel must be square with odd size, got {kernel.shape}")
    if kcin != cin or bias.shape != (cout,):
        raise ConfigError(f"channel mismatch: input {cin}, kernel {kcin}, bias {bias.shape}")
    dtype = np.promote_types(x.dtype, np.float32)
    cols = _im2col(x, k, dtype)
    out = cols @ kernel.reshape(k * k * cin, cout).astype(dtype) + bias.astype(dtype)
    node = ConvNode(cols=cols, kernel=kernel, input_shape=x.shape)
    return out.reshape(h, w, cout), node


def conv2d_bwd(node, grad_out):
    """Adjoint of conv2d_fwd: returns (grad_input, grad_kernel, grad_bias)."""
    h, w, cin = node.input_shape
    k = node.kernel.shape[0]
    cout = node.kernel.shape[3]
    if grad_out.shape != (h, w, cout):
        raise InternalError(f"grad_out shape {grad_out.shape} does not match cached ({h}, {w}, {cout})")
    go = grad_out.reshape(h * w, cout).astype(np.float32, copy=False)
    grad_bias = go.sum(axis=0)
    grad_kernel = (node.cols.T @ go).reshape(k, k, cin, cout)
    gcols = go @ node.kernel.reshape(k * k * cin, cout).astype(np.float32).T
    pad = k // 2
    gxp = np.zeros((h + 2 * pad, w + 2 * pad, cin), np.float32)
    idx = 0
    for u in range(k):
        for v in range(k):
            gxp[u:u + h, v:v + w, :] += gcols[:, idx:idx + cin].reshape(h, w, cin)
            idx += cin
    grad_input = gxp[pad:pad + h, pad:pad + w, :].copy()
    return grad_input, grad_kernel, grad_bias


def relu_fwd(x):
    return np.maximum(x, 0), ReluNode(mask=x > 0)


def relu_bwd(node, grad_out):
    # subgradient at exactly 0 is 0
    return np.where(node.mask, grad_out, 0).astype(np.float32, copy=False)


def softmax(logits, dtype=np.float32):
    """Per-pixel softmax over the last axis, max-subtracted for stability."""
    z = logits.astype(dtype, copy=False)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_ce(logits, target, pixel_weights):
    """Weighted mean per-pixel cross-entropy and its exact adjoint.

    loss = (1/|I|) sum_ij w_ij * CE(softmax(logits_ij), target_ij)
    Returns (loss, probs, grad_logits).
    """
    h, w, c = logits.shape
    if target.shape != (h, w) or pixel_weights.shape != (h, w):
        raise InputError(f"target/weights shape mismatch: {target.shape}, {pixel_weights.shape} vs ({h}, {w})")
    if np.any(pixel_weights < 0):
        raise InputError("pixel_weights must be non-negative")
    if target.min() < 0 or target.max() >= c:
        raise InputError(f"target ids must lie in [0, {c})")
    probs = softmax(logits)
    npix = h * w
    ii, jj = np.indices((h, w))
    p_true = probs[ii, jj, target]
    wgt = pixel_weights.astype(np.float32, copy=False)
    loss = float(np.sum(wgt * -np.log(np.maximum(p_true, np.finfo(np.float32).tiny))) / npix)
    grad = probs.copy()
    grad[ii, jj, target] -= 1.0
    grad *= (wgt / npix)[:, :, None]
    return loss, probs, grad
