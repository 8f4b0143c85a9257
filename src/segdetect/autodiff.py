"""Minimal reverse-mode differentiation over a fixed operator set.

Each forward op returns its output together with a context node caching the
activations its backward pass needs. Callers compose graphs explicitly and
call the backward ops in reverse order; there is no generic tape because the
segmentation model is a fixed feed-forward chain.

Tensors are float32. Activations are channels-first, C planes of H x W, so
each conv tap is one (Cout x Cin) @ (Cin x pixels) GEMM along the long,
contiguous pixel axis; kernels stay (k, k, Cin, Cout). The forward ops also
run in float64 when given float64 input, for the gradient check's reference.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, InternalError


# Every tap's GEMM spans a multiple of this many pixels. The spare pixels
# after the padded-width grid are zeros, and their outputs are dropped; the
# span keeps the grid's last pixels out of the BLAS kernels' short tails,
# which in float64 round differently from the full blocks.
_SPAN_MULTIPLE = 8

# OpenBLAS multiplies a GEMM of at most a million multiply-adds (M * N * K)
# with its unpacked small-matrix kernels, which with AVX-512 run a 16 x 16
# channel tap about twice as fast per pixel as its packed ones, to the same
# bits. So each tap's GEMM runs over blocks of pixels within that size.
_BLOCK_MACS = 10 ** 6


@dataclass
class ConvNode:
    """Cached state of one conv2d_fwd call."""

    xpad: np.ndarray        # (Cin, pixels): _padded(input); for a 1x1 kernel,
    #                         a view of its channels-last (H * W, Cin) copy
    kernel: np.ndarray      # (k, k, Cin, Cout)
    input_shape: tuple      # (Cin, H, W)


@dataclass
class ReluNode:
    mask: np.ndarray        # bool, True where input > 0


def _span(h, wp):
    """The pixels a tap's GEMM runs over: the (h, wp) grid, rounded up."""
    return -(-h * wp // _SPAN_MULTIPLE) * _SPAN_MULTIPLE


def _padded(x, pad, dtype):
    """x (C, H, W) with each plane zero-padded by `pad` on every side and
    flattened to rows of W + 2 pad: (C, length), with spare zeros after the
    last row so that every tap's window of _span pixels stays in bounds."""
    c, h, w = x.shape
    wp = w + 2 * pad
    flat = np.zeros((c, 2 * pad * (wp + 1) + _span(h, wp)), dtype)
    grid = flat[:, :(h + 2 * pad) * wp].reshape(c, h + 2 * pad, wp)
    grid[:, pad:pad + h, pad:pad + w] = x
    return flat


def _shifted_gemm(flat, kernel, h, wp):
    """sum over the k*k taps of kernel[u, v] @ window(u, v), for kernel
    (k, k, Cout, Cin): the convolution of a _padded input, as (Cout, h, wp)
    planes on the padded-width grid. Tap (u, v)'s window is the _span
    pixels of each plane from u * wp + v on, a slice. The taps run block by
    block along the pixel axis, each GEMM within _BLOCK_MACS."""
    k, _, cout, cin = kernel.shape
    n = _span(h, wp)
    size = max(_BLOCK_MACS // (cout * cin) // _SPAN_MULTIPLE, 1) * _SPAN_MULTIPLE
    out = np.empty((cout, n), np.promote_types(flat.dtype, kernel.dtype))
    tap = np.empty((cout, min(size, n)), out.dtype)
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        acc, part = out[:, lo:hi], tap[:, :hi - lo]
        np.matmul(kernel[0, 0], flat[:, lo:hi], out=acc)
        for u in range(k):
            for v in range(k):
                if u or v:
                    start = u * wp + v
                    acc += np.matmul(kernel[u, v], flat[:, start + lo:start + hi], out=part)
    return out[:, :h * wp].reshape(-1, h, wp)


def conv2d_fwd(x, kernel, bias):
    """Same-size 2-D convolution with zero padding.

    x: (Cin, H, W), kernel: (k, k, Cin, Cout), bias: (Cout,).
    Returns (out, node) with out of shape (Cout, H, W).

    A 1x1 kernel multiplies channels-last pixels, (H*W x Cin) @ (Cin x Cout),
    and returns its planes as a view of that product: the head's logits are
    read channels-last, and in float64 this GEMM rounds as the channels-last
    model did.
    """
    if x.ndim != 3 or kernel.ndim != 4:
        raise ConfigError(f"conv2d expects CHW input and kkIO kernel, got {x.shape} / {kernel.shape}")
    cin, h, w = x.shape
    k, k2, kcin, cout = kernel.shape
    if k != k2 or k % 2 == 0:
        raise ConfigError(f"kernel must be square with odd size, got {kernel.shape}")
    if kcin != cin or bias.shape != (cout,):
        raise ConfigError(f"channel mismatch: input {cin}, kernel {kcin}, bias {bias.shape}")
    dtype = np.promote_types(x.dtype, np.float32)
    kernel_d, bias_d = kernel.astype(dtype, copy=False), bias.astype(dtype)
    if k == 1:
        pixels = np.ascontiguousarray(x.transpose(1, 2, 0), dtype).reshape(h * w, cin)
        out = (pixels @ kernel_d[0, 0] + bias_d).reshape(h, w, cout).transpose(2, 0, 1)
        return out, ConvNode(xpad=pixels.T, kernel=kernel, input_shape=x.shape)
    xpad = _padded(x, k // 2, dtype)
    out = _shifted_gemm(xpad, kernel_d.transpose(0, 1, 3, 2), h, w + k - 1)
    out = out[:, :, :w] + bias_d[:, None, None]
    return out, ConvNode(xpad=xpad, kernel=kernel, input_shape=x.shape)


def _checked_grad(node, grad_out):
    """grad_out as float32, checked against the node's shapes."""
    _, h, w = node.input_shape
    cout = node.kernel.shape[3]
    if grad_out.shape != (cout, h, w):
        raise InternalError(f"grad_out shape {grad_out.shape} does not match cached ({cout}, {h}, {w})")
    return grad_out.astype(np.float32, copy=False)


def _input_adjoint(node, grad_out):
    """The shifted-GEMM convolution of the _padded grad_out with the flipped
    kernel: the gradient w.r.t. the conv's input, as (Cin, H, W) planes."""
    _, h, w = node.input_shape
    k = node.kernel.shape[0]
    gpad = _padded(grad_out, k // 2, np.float32)
    adjoint = node.kernel[::-1, ::-1].astype(np.float32, copy=False)
    return _shifted_gemm(gpad, adjoint, h, w + k - 1)[:, :, :w]


def conv2d_input_grad(node, grad_out):
    """The grad_input of conv2d_bwd alone, without the parameter grads: what
    a gradient w.r.t. the image needs."""
    return _input_adjoint(node, _checked_grad(node, grad_out))


def conv2d_bwd(node, grad_out, want_input=True):
    """Adjoint of conv2d_fwd: returns (grad_input, grad_kernel, grad_bias),
    with None for grad_input when want_input is false.

    grad_input is conv2d_input_grad's. grad_kernel[u, v] is the input's
    window(u, v) (see _shifted_gemm) @ grad_out, with grad_out as
    channels-last rows of the padded-width grid (zeros in its spare
    columns); grad_bias sums its pixels in order. On these operands both
    round as the channels-last model did."""
    cin, h, w = node.input_shape
    k, cout = node.kernel.shape[0], node.kernel.shape[3]
    wp = w + k - 1
    grad_out = _checked_grad(node, grad_out)
    grid = np.zeros((h, wp, cout), np.float32)
    grid[:, :w] = grad_out.transpose(1, 2, 0)
    grad_bias = grid[:, :w].sum(axis=(0, 1))
    grid = grid.reshape(h * wp, cout)
    grad_kernel = np.empty((k, k, cin, cout), np.promote_types(node.xpad.dtype, np.float32))
    for u in range(k):
        for v in range(k):
            start = u * wp + v
            np.matmul(node.xpad[:, start:start + h * wp], grid, out=grad_kernel[u, v])
    return _input_adjoint(node, grad_out) if want_input else None, grad_kernel, grad_bias


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
