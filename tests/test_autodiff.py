import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdetect import autodiff
from segdetect.errors import InputError


def chw(a):
    """An H x W x C array as the conv ops' C x H x W planes."""
    return np.ascontiguousarray(a.transpose(2, 0, 1))


def hwc(a):
    """C x H x W planes as H x W x C, the oracles' layout."""
    return a.transpose(1, 2, 0)


def naive_conv2d(x, kernel, bias):
    """Direct float64 evaluation of the convolution sum (oracle)."""
    h, w, cin = x.shape
    k = kernel.shape[0]
    cout = kernel.shape[3]
    half = k // 2
    out = np.zeros((h, w, cout))
    for i in range(h):
        for j in range(w):
            for o in range(cout):
                acc = float(bias[o])
                for u in range(k):
                    for v in range(k):
                        ii, jj = i + u - half, j + v - half
                        if 0 <= ii < h and 0 <= jj < w:
                            for c in range(cin):
                                acc += float(x[ii, jj, c]) * float(kernel[u, v, c, o])
                out[i, j, o] = acc
    return out


def naive_conv2d_adjoint(x, kernel, go):
    """Float64 sums of the conv adjoint: (grad_input, grad_kernel), each with
    the sum of its terms' absolute values (the scale of its rounding error)."""
    h, w, cin = x.shape
    k = kernel.shape[0]
    half = k // 2
    x, kernel, go = (a.astype(np.float64) for a in (x, kernel, go))
    gx, gx_abs = np.zeros(x.shape), np.zeros(x.shape)
    gk, gk_abs = np.zeros(kernel.shape), np.zeros(kernel.shape)
    for i in range(h):
        for j in range(w):
            for u in range(k):
                for v in range(k):
                    ii, jj = i + u - half, j + v - half
                    if 0 <= ii < h and 0 <= jj < w:
                        # out[i, j] reads x[ii, jj] through kernel[u, v]
                        gx[ii, jj] += kernel[u, v] @ go[i, j]
                        gx_abs[ii, jj] += np.abs(kernel[u, v]) @ np.abs(go[i, j])
                        gk[u, v] += np.outer(x[ii, jj], go[i, j])
                        gk_abs[u, v] += np.outer(np.abs(x[ii, jj]), np.abs(go[i, j]))
    return (gx, gx_abs), (gk, gk_abs)


# (H, W, Cin, k, input dtype): the padded-width windows at every kernel size,
# non-square and single-row/column images, one input channel, float64 input.
CONV_CASES = {
    "k3": (6, 7, 3, 3, np.float32),
    "k1": (5, 4, 3, 1, np.float32),
    "k5": (7, 6, 2, 5, np.float32),
    "h1": (1, 6, 2, 3, np.float32),
    "w1": (6, 1, 2, 3, np.float32),
    "h1w1_k5": (1, 1, 2, 5, np.float32),
    "cin1": (5, 6, 1, 3, np.float32),
    "f64_k3": (6, 7, 3, 3, np.float64),
    "f64_k1": (4, 5, 2, 1, np.float64),
}


class TestConv2d:
    def test_identity_1x1(self):
        x = np.random.default_rng(0).normal(size=(4, 5, 1)).astype(np.float32)
        k = np.ones((1, 1, 1, 1), np.float32)
        out, _ = autodiff.conv2d_fwd(chw(x), k, np.zeros(1, np.float32))
        np.testing.assert_array_equal(hwc(out), x)

    def test_zero_input_gives_bias(self):
        x = np.zeros((3, 3, 2), np.float32)
        k = np.ones((3, 3, 2, 4), np.float32)
        b = np.array([1, 2, 3, 4], np.float32)
        out, _ = autodiff.conv2d_fwd(chw(x), k, b)
        assert np.all(hwc(out) == b)

    def test_all_ones_3x3(self):
        # hand evaluation: center sees all 9 taps, corner sees 4
        x = np.ones((3, 3, 1), np.float32)
        k = np.ones((3, 3, 1, 1), np.float32)
        out, _ = autodiff.conv2d_fwd(chw(x), k, np.zeros(1, np.float32))
        out = hwc(out)
        assert out[1, 1, 0] == 9.0
        assert out[0, 0, 0] == 4.0
        assert out[0, 1, 0] == 6.0

    @pytest.mark.parametrize("h,w,cin,k,dtype", CONV_CASES.values(), ids=CONV_CASES)
    def test_matches_naive_oracle(self, h, w, cin, k, dtype):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(h, w, cin)).astype(dtype)
        kern = rng.normal(size=(k, k, cin, 2)).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        out, _ = autodiff.conv2d_fwd(chw(x), kern, b)
        out = hwc(out)
        assert out.shape == (h, w, 2) and out.dtype == dtype
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(out, naive_conv2d(x, kern, b), rtol=tol, atol=tol)

    def test_dim_mismatch_raises(self):
        x = np.zeros((3, 3, 2), np.float32)
        k = np.zeros((3, 3, 4, 1), np.float32)
        with pytest.raises(InputError):
            autodiff.conv2d_fwd(chw(x), k, np.zeros(1, np.float32))
        with pytest.raises(InputError):
            autodiff.conv2d_fwd(chw(x), np.zeros((2, 2, 2, 1), np.float32), np.zeros(1, np.float32))


class TestConv2dBackward:
    def test_identity_kernel_grad_passthrough(self):
        x = np.random.default_rng(2).normal(size=(4, 4, 1)).astype(np.float32)
        k = np.ones((1, 1, 1, 1), np.float32)
        _, node = autodiff.conv2d_fwd(chw(x), k, np.zeros(1, np.float32))
        go = np.random.default_rng(3).normal(size=(4, 4, 1)).astype(np.float32)
        gx, _, _ = autodiff.conv2d_bwd(node, chw(go))
        np.testing.assert_array_equal(hwc(gx), go)

    def test_grad_bias_is_sum(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 5, 2)).astype(np.float32)
        k = rng.normal(size=(3, 3, 2, 3)).astype(np.float32)
        _, node = autodiff.conv2d_fwd(chw(x), k, np.zeros(3, np.float32))
        go = rng.normal(size=(5, 5, 3)).astype(np.float32)
        _, _, gb = autodiff.conv2d_bwd(node, chw(go))
        np.testing.assert_allclose(gb, go.sum(axis=(0, 1)), rtol=1e-5)

    @pytest.mark.parametrize("h,w,cin,k", [(6, 7, 3, 3), (5, 4, 3, 1), (7, 6, 2, 5),
                                           (1, 6, 2, 3), (6, 1, 2, 3), (5, 6, 1, 3)])
    def test_adjoint_matches_float64_sums(self, h, w, cin, k):
        rng = np.random.default_rng(7)
        cout = 3
        x = rng.normal(size=(h, w, cin)).astype(np.float32)
        kern = rng.normal(size=(k, k, cin, cout)).astype(np.float32)
        go = rng.normal(size=(h, w, cout)).astype(np.float32)
        _, node = autodiff.conv2d_fwd(chw(x), kern, np.zeros(cout, np.float32))
        gx, gk, _ = autodiff.conv2d_bwd(node, chw(go))
        gx = hwc(gx)
        (gx_ref, gx_abs), (gk_ref, gk_abs) = naive_conv2d_adjoint(x, kern, go)
        # a float32 sum of n rounded products errs by at most (n + 1) eps
        # times the sum of their absolute values, in any summation order;
        # grad_kernel sums over the padded-width grid, (W + k - 1) per row
        eps = float(np.finfo(np.float32).eps)
        for got, ref, scale, n in ((gx, gx_ref, gx_abs, k * k * cout),
                                   (gk, gk_ref, gk_abs, h * (w + k - 1))):
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= (n + 1) * eps * scale)

    def test_without_input_grad(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(6, 7, 3)).astype(np.float32)
        k = rng.normal(size=(3, 3, 3, 4)).astype(np.float32)
        go = rng.normal(size=(6, 7, 4)).astype(np.float32)
        _, node = autodiff.conv2d_fwd(chw(x), k, np.zeros(4, np.float32))
        _, gk, gb = autodiff.conv2d_bwd(node, chw(go))
        gx_skipped, gk_skipped, gb_skipped = autodiff.conv2d_bwd(node, chw(go), want_input=False)
        assert gx_skipped is None
        assert gk_skipped.tobytes() == gk.tobytes() and gb_skipped.tobytes() == gb.tobytes()

    def test_finite_difference_oracle(self):
        # scalar objective: sum(out * go); central differences at h = 0.1
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 255, (5, 5, 2)).astype(np.float32)
        k = rng.normal(0, 0.1, (3, 3, 2, 2)).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        go = rng.normal(size=(5, 5, 2)).astype(np.float32)
        _, node = autodiff.conv2d_fwd(chw(x), k, b)
        gx, gk, gb = autodiff.conv2d_bwd(node, chw(go))
        gx = hwc(gx)
        h = 0.1

        def objective(xv, kv, bv):
            return float(np.sum(naive_conv2d(xv, kv, bv) * go))

        for arr, grad in ((x, gx), (k, gk), (b, gb)):
            flat = arr.reshape(-1)
            idxs = rng.choice(flat.size, size=min(20, flat.size), replace=False)
            for idx in idxs:
                orig = flat[idx]
                flat[idx] = orig + h
                lp = objective(x, k, b)
                flat[idx] = orig - h
                lm = objective(x, k, b)
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                g = float(grad.reshape(-1)[idx])
                denom = max(abs(fd), abs(g), 1e-8)
                assert abs(fd - g) / denom < 1e-2


class TestRelu:
    def test_all_negative(self):
        x = -np.ones((2, 2, 1), np.float32)
        out, node = autodiff.relu_fwd(x)
        assert np.all(out == 0)
        g = autodiff.relu_bwd(node, np.full_like(x, 3.0))
        assert np.all(g == 0)

    def test_all_positive_identity(self):
        x = np.full((2, 2, 1), 2.5, np.float32)
        out, node = autodiff.relu_fwd(x)
        np.testing.assert_array_equal(out, x)
        go = np.full_like(x, 7.0)
        np.testing.assert_array_equal(autodiff.relu_bwd(node, go), go)

    def test_equals_where_reference_bitwise(self):
        # a masked-off negative gradient must give +0.0, not -0.0
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 5, 4)).astype(np.float32)
        x[0, 0] = 0.0
        go = rng.normal(size=x.shape).astype(np.float32)
        _, node = autodiff.relu_fwd(x)
        g = autodiff.relu_bwd(node, go)
        assert g.dtype == np.float32
        assert g.tobytes() == np.where(x > 0, go, np.float32(0)).tobytes()
        assert not np.signbit(g[x <= 0]).any()

    def test_subgradient_zero_at_zero(self):
        x = np.array([-1.0, 0.0, 2.0], np.float32)
        out, node = autodiff.relu_fwd(x)
        np.testing.assert_array_equal(out, [0, 0, 2])
        g = autodiff.relu_bwd(node, np.array([5.0, 5.0, 5.0], np.float32))
        np.testing.assert_array_equal(g, [0, 0, 5])


class TestSoftmaxCE:
    def test_uniform_logits(self):
        logits = np.zeros((2, 3, 4), np.float32)
        target = np.random.default_rng(0).integers(0, 4, (2, 3)).astype(np.int32)
        loss, probs, _ = autodiff.softmax_ce(logits, target, np.ones((2, 3), np.float32))
        assert loss == pytest.approx(np.log(4), rel=1e-6)
        np.testing.assert_allclose(probs, 0.25, atol=1e-7)

    def test_zero_weights(self):
        logits = np.random.default_rng(1).normal(size=(3, 3, 4)).astype(np.float32)
        target = np.zeros((3, 3), np.int32)
        loss, _, grad = autodiff.softmax_ce(logits, target, np.zeros((3, 3), np.float32))
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_single_pixel_adjoint(self):
        # 1 pixel, C=2, logits (0, 0), target 0 -> grad (0.5-1, 0.5)
        logits = np.zeros((1, 1, 2), np.float32)
        target = np.zeros((1, 1), np.int32)
        _, _, grad = autodiff.softmax_ce(logits, target, np.ones((1, 1), np.float32))
        np.testing.assert_allclose(grad[0, 0], [-0.5, 0.5], atol=1e-7)

    def test_given_probs_same_bits(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 6, 4)).astype(np.float32)
        target = rng.integers(0, 4, (5, 6)).astype(np.int32)
        weights = rng.uniform(0, 2, (5, 6)).astype(np.float32)
        loss, probs, grad = autodiff.softmax_ce(logits, target, weights)
        given = autodiff.softmax(logits)
        loss2, probs2, grad2 = autodiff.softmax_ce(logits, target, weights, given)
        assert loss2 == loss and probs2 is given
        assert probs2.tobytes() == probs.tobytes() and grad2.tobytes() == grad.tobytes()

    def test_target_out_of_range(self):
        logits = np.zeros((1, 1, 2), np.float32)
        with pytest.raises(InputError):
            autodiff.softmax_ce(logits, np.array([[2]], np.int32), np.ones((1, 1), np.float32))

    def test_negative_weights_rejected(self):
        logits = np.zeros((1, 1, 2), np.float32)
        with pytest.raises(InputError):
            autodiff.softmax_ce(logits, np.zeros((1, 1), np.int32),
                                np.full((1, 1), -1.0, np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_equals_reference_bitwise(self, dtype):
        rng = np.random.default_rng(9)
        for c in range(1, 8):
            logits = rng.normal(0, 5, (5, 6, c)).astype(np.float32)
            z = logits.astype(dtype)
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            ref = e / e.sum(axis=-1, keepdims=True)
            assert autodiff.softmax(logits, dtype).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_many_classes_within_rounding(self, dtype):
        # from 8 classes numpy sums pairwise, softmax in order: only rounding differs
        rng = np.random.default_rng(10)
        for c in range(8, 13):
            logits = rng.normal(0, 5, (5, 6, c)).astype(np.float32)
            probs = autodiff.softmax(logits, dtype)
            tol = c * np.finfo(dtype).eps
            assert probs.dtype == dtype
            np.testing.assert_allclose(probs.astype(np.float64).sum(axis=-1), 1.0, rtol=0, atol=tol)
            z = logits.astype(dtype)
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            np.testing.assert_allclose(probs, e / e.sum(axis=-1, keepdims=True), rtol=tol, atol=0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_probs_normalized(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 5, (4, 4, 5)).astype(np.float32)
        target = rng.integers(0, 5, (4, 4)).astype(np.int32)
        _, probs, _ = autodiff.softmax_ce(logits, target, np.ones((4, 4), np.float32))
        assert probs.min() >= 0 and probs.max() <= 1
        np.testing.assert_allclose(probs.sum(axis=2), 1.0, atol=1e-6)


def test_backward_linearity():
    # backward of a sum of losses equals the sum of backwards
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 4, 2)).astype(np.float32)
    k = rng.normal(size=(3, 3, 2, 3)).astype(np.float32)
    b = np.zeros(3, np.float32)
    _, node = autodiff.conv2d_fwd(chw(x), k, b)
    g1 = chw(rng.normal(size=(4, 4, 3)).astype(np.float32))
    g2 = chw(rng.normal(size=(4, 4, 3)).astype(np.float32))
    gx1, gk1, gb1 = autodiff.conv2d_bwd(node, g1)
    gx2, gk2, gb2 = autodiff.conv2d_bwd(node, g2)
    gxs, gks, gbs = autodiff.conv2d_bwd(node, g1 + g2)
    np.testing.assert_allclose(gxs, gx1 + gx2, atol=1e-4)
    np.testing.assert_allclose(gks, gk1 + gk2, atol=1e-4)
    np.testing.assert_allclose(gbs, gb1 + gb2, atol=1e-4)
