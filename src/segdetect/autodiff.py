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

    xpad: np.ndarray        # _padded(input): rows of the zero-padded width W + 2p
    kernel: np.ndarray      # (k, k, Cin, Cout)
    input_shape: tuple


@dataclass
class ReluNode:
    mask: np.ndarray        # bool, True where input > 0


def _padded(x, pad, dtype):
    """x zero-padded by `pad` on every side and flattened to (rows * (W + 2 pad), C),
    with one spare zero row so the last tap's window stays in bounds. With pad
    0 (a 1x1 kernel) it is x itself, reshaped."""
    h, w, c = x.shape
    if pad == 0:
        return x.astype(dtype, copy=False).reshape(h * w, c)
    xp = np.zeros((h + 2 * pad + 1, w + 2 * pad, c), dtype)
    xp[pad:pad + h, pad:pad + w] = x
    return xp.reshape(-1, c)


def _window(flat, u, v, h, wp):
    """Rows of flat seen by tap (u, v) at every output position of the
    (h, wp) padded-width grid: a contiguous slice, no copy."""
    start = u * wp + v
    return flat[start:start + h * wp]


def _shifted_gemm(flat, kernel, h, wp):
    """sum over the k*k taps of window(u, v) @ kernel[u, v]: the convolution of
    a _padded input, on the (h * wp, Cout) padded-width grid."""
    k = kernel.shape[0]
    out = _window(flat, 0, 0, h, wp) @ kernel[0, 0]
    tap = np.empty_like(out)
    for u in range(k):
        for v in range(k):
            if u or v:
                out += np.matmul(_window(flat, u, v, h, wp), kernel[u, v], out=tap)
    return out


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
    wp = w + k - 1
    xpad = _padded(x, k // 2, dtype)
    out = _shifted_gemm(xpad, kernel.astype(dtype, copy=False), h, wp)
    out = out.reshape(h, wp, cout)[:, :w] + bias.astype(dtype)
    return out, ConvNode(xpad=xpad, kernel=kernel, input_shape=x.shape)


def _padded_grad(node, grad_out):
    """grad_out, checked against the node's shapes, as float32 _padded by the
    kernel's half-width."""
    h, w, _ = node.input_shape
    k, cout = node.kernel.shape[0], node.kernel.shape[3]
    if grad_out.shape != (h, w, cout):
        raise InternalError(f"grad_out shape {grad_out.shape} does not match cached ({h}, {w}, {cout})")
    return _padded(grad_out.astype(np.float32, copy=False), k // 2, np.float32)


def _input_adjoint(node, gpad):
    """The shifted-GEMM convolution of the _padded grad_out with the flipped,
    transposed kernel: the gradient w.r.t. the conv's input."""
    h, w, cin = node.input_shape
    wp = w + node.kernel.shape[0] - 1
    adjoint = node.kernel[::-1, ::-1].transpose(0, 1, 3, 2).astype(np.float32, copy=False)
    return _shifted_gemm(gpad, adjoint, h, wp).reshape(h, wp, cin)[:, :w]


def conv2d_input_grad(node, grad_out):
    """The grad_input of conv2d_bwd alone, without the parameter grads: what
    a gradient w.r.t. the image needs."""
    return _input_adjoint(node, _padded_grad(node, grad_out))


def conv2d_bwd(node, grad_out, want_input=True):
    """Adjoint of conv2d_fwd: returns (grad_input, grad_kernel, grad_bias),
    with None for grad_input when want_input is false.

    grad_input is conv2d_input_grad's; grad_kernel[u, v] is window(u, v).T @
    grad_out, with grad_out on the padded-width grid (zeros in its spare
    columns)."""
    h, w, cin = node.input_shape
    k, cout = node.kernel.shape[0], node.kernel.shape[3]
    pad, wp = k // 2, w + k - 1
    gpad = _padded_grad(node, grad_out)
    grad_bias = grad_out.astype(np.float32, copy=False).reshape(h * w, cout).sum(axis=0)
    go_grid = _window(gpad, pad, pad, h, wp)
    grad_kernel = np.empty((k, k, cin, cout), np.promote_types(node.xpad.dtype, np.float32))
    for u in range(k):
        for v in range(k):
            np.matmul(_window(node.xpad, u, v, h, wp).T, go_grid, out=grad_kernel[u, v])
    return _input_adjoint(node, gpad) if want_input else None, grad_kernel, grad_bias


def relu_fwd(x):
    return np.maximum(x, 0), ReluNode(mask=x > 0)


def relu_bwd(node, grad_out):
    # subgradient at exactly 0 is 0. Adding +0 turns the -0.0 of a negative
    # gradient times False into 0.0, so for finite gradients this equals
    # np.where(mask, grad_out, 0) bit for bit, at a tenth of its cost.
    return grad_out.astype(np.float32, copy=False) * node.mask + np.float32(0)


def softmax(logits, dtype=np.float32):
    """Per-pixel softmax over the last axis, max-subtracted for stability."""
    z = logits.astype(dtype, copy=False)
    # the same maximum as z.max(axis=-1), which is slow over a short last axis
    zmax = np.maximum.reduce([z[..., c] for c in range(z.shape[-1])])
    e = np.exp(z - zmax[..., None])
    # sums the classes in order: the bits of e.sum(axis=-1) below 8 classes
    # (numpy sums 8 or more pairwise), without its slow short-axis reduction
    esum = np.add.reduce([e[..., c] for c in range(e.shape[-1])])
    return e / esum[..., None]


def softmax_ce(logits, target, pixel_weights, probs=None):
    """Weighted mean per-pixel cross-entropy and its exact adjoint.

    loss = (1/|I|) sum_ij w_ij * CE(softmax(logits_ij), target_ij)
    Pass probs when the caller already holds softmax(logits).
    Returns (loss, probs, grad_logits).
    """
    h, w, c = logits.shape
    if target.shape != (h, w) or pixel_weights.shape != (h, w):
        raise InputError(f"target/weights shape mismatch: {target.shape}, {pixel_weights.shape} vs ({h}, {w})")
    if np.any(pixel_weights < 0):
        raise InputError("pixel_weights must be non-negative")
    if target.min() < 0 or target.max() >= c:
        raise InputError(f"target ids must lie in [0, {c})")
    if probs is None:
        probs = softmax(logits)
    npix = h * w
    idx = target[:, :, None]
    p_true = np.take_along_axis(probs, idx, axis=2)
    wgt = pixel_weights.astype(np.float32, copy=False)
    tiny = np.finfo(np.float32).tiny
    loss = float(np.sum(wgt * -np.log(np.maximum(p_true[:, :, 0], tiny))) / npix)
    grad = probs.copy()
    np.put_along_axis(grad, idx, p_true - 1.0, axis=2)
    grad *= (wgt / npix)[:, :, None]
    return loss, probs, grad
