import os
import resource
import signal

import numpy as np
import pytest

from segdetect import model as seg_model
from segdetect import workers
from segdetect.errors import InputError, TrainingError


def tiny_dataset(n=6, size=16, seed=0):
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(n):
        img = rng.integers(0, 256, (size, size, 3)).astype(np.float32)
        lab = rng.integers(0, 3, (size, size)).astype(np.int32)
        data.append((img, lab))
    return data


def params_equal(a, b):
    return (all(x.tobytes() == y.tobytes() for x, y in zip(a.kernels, b.kernels))
            and all(x.tobytes() == y.tobytes() for x, y in zip(a.biases, b.biases)))


class TestForward:
    def test_untrained_model_uniform_probs(self):
        # zero-initialized head means all logits are zero -> uniform softmax
        m = seg_model.init_model(4, seed=0)
        img = np.random.default_rng(0).integers(0, 256, (8, 8, 3)).astype(np.float32)
        probs = seg_model.predict(m, img)
        np.testing.assert_allclose(probs, 0.25, atol=1e-6)

    def test_bad_image_shape_raises(self):
        m = seg_model.init_model(4)
        with pytest.raises(InputError):
            seg_model.predict(m, np.zeros((8, 8), np.float32))
        with pytest.raises(InputError):
            seg_model.predict(m, np.zeros((8, 8, 4), np.float32))

    def test_nonfinite_image_raises(self):
        m = seg_model.init_model(4)
        img = np.zeros((8, 8, 3), np.float32)
        img[0, 0, 0] = np.nan
        with pytest.raises(InputError):
            seg_model.predict(m, img)

    def test_loss_positive(self):
        data = tiny_dataset(1)
        m = seg_model.init_model(3, seed=1)
        img, lab = data[0]
        loss, _ = seg_model.loss_input_grad(m, img, lab, np.ones(lab.shape, np.float32))
        assert loss > 0


class TestGradients:
    def test_zero_weights_zero_grad(self):
        data = tiny_dataset(1)
        m = seg_model.init_model(3, seed=2)
        img, lab = data[0]
        loss, grad = seg_model.loss_input_grad(m, img, lab, np.zeros(lab.shape, np.float32))
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_weight_doubling_doubles_grad(self):
        data = tiny_dataset(1, seed=3)
        m = seg_model.init_model(3, seed=3)
        img, lab = data[0]
        w1 = np.ones(lab.shape, np.float32)
        l1, g1 = seg_model.loss_input_grad(m, img, lab, w1)
        l2, g2 = seg_model.loss_input_grad(m, img, lab, 2 * w1)
        assert l2 == pytest.approx(2 * l1, rel=1e-5)
        np.testing.assert_allclose(g2, 2 * g1, rtol=1e-4, atol=1e-8)

    def test_grad_check_trained_model(self):
        data = tiny_dataset(8, seed=4)
        m = seg_model.train(data, seg_model.TrainConfig(epochs=5, seed=4))
        img, lab = data[0]
        report = seg_model.grad_check(m, img, lab, n_samples=60, seed=1)
        assert report.passed, (report.frac_within, report.median_rel_err)

    def test_grad_check_detects_corrupted_backward(self, monkeypatch):
        # fault injection: scale the conv backward input grad and expect failure
        data = tiny_dataset(8, seed=4)
        m = seg_model.train(data, seg_model.TrainConfig(epochs=5, seed=4))
        img, lab = data[0]
        real_grad = seg_model.conv2d_input_grad

        def broken(node, go):
            return real_grad(node, go) * 1.5

        monkeypatch.setattr(seg_model, "conv2d_input_grad", broken)
        report = seg_model.grad_check(m, img, lab, n_samples=60, seed=1)
        assert not report.passed

    def test_f64_loss_matches_f32(self):
        data = tiny_dataset(1, seed=5)
        m = seg_model.train(tiny_dataset(8, seed=5), seg_model.TrainConfig(epochs=3, seed=5))
        img, lab = data[0]
        ones = np.ones(lab.shape, np.float32)
        l32, _ = seg_model.loss_input_grad(m, img, lab, ones)
        l64 = seg_model.loss_value_f64(m, img, lab, ones)
        assert l32 == pytest.approx(l64, rel=1e-4)



@pytest.fixture(scope="module")
def trained_tiny():
    data = tiny_dataset(8, seed=4)
    m = seg_model.train(data, seg_model.TrainConfig(epochs=5, seed=4))
    return m, data[0][0], data[0][1]


def wide_middle_model(num_classes=3, seed=0):
    """Random weights with a 5x5 middle conv: receptive radius 1 + 2 + 0 = 3."""
    rng = np.random.default_rng(seed)
    shapes = [(3, 3, 3, 16), (5, 5, 16, 16), (1, 1, 16, num_classes)]
    kernels = [rng.normal(0.0, np.sqrt(2.0 / (s[0] * s[1] * s[2])), s).astype(np.float32)
               for s in shapes]
    biases = [rng.normal(0.0, 0.1, s[3]).astype(np.float32) for s in shapes]
    return seg_model.ModelParams(kernels, biases)


def full_image_fd(m, image, target, weights, i, j, c, h):
    """The reference: central difference of the whole image's float64 loss."""
    x = image.astype(np.float64)
    x[i, j, c] += h
    lp = seg_model.loss_value_f64(m, x, target, weights)
    x[i, j, c] -= 2 * h
    lm = seg_model.loss_value_f64(m, x, target, weights)
    return (lp - lm) / (2 * h)


class TestWindowedGradCheck:
    @pytest.mark.parametrize("kind,rows_kept", [("trained", 16), ("wide_middle", 17),
                                                ("wide_middle", 10)])
    def test_window_fd_equals_full_image_fd(self, kind, rows_kept, trained_tiny):
        # 10 rows are fewer than a crop's 4r + 1 = 13: the crop spans them all
        if kind == "trained":
            m, img, lab = trained_tiny
            expect_r = 2
        else:
            m = wide_middle_model()
            img, lab = tiny_dataset(1, size=17, seed=9)[0]
            img, lab = img[:rows_kept], lab[:rows_kept]
            expect_r = 3
        r = seg_model.receptive_radius(m)
        assert r == expect_r
        hh, ww = lab.shape
        weights = np.random.default_rng(1).uniform(0.5, 2.0, lab.shape).astype(np.float32)
        x64 = img.astype(np.float64)
        # corners, edges, interior, and pixels whose crop the border shifts
        rows = [0, 1, r, 2 * r, hh // 2, hh - 2 * r - 1, hh - 2, hh - 1]
        cols = [0, r - 1, 2 * r + 1, ww // 2, ww - r, ww - 1]
        for i in rows:
            for j in cols:
                for c in range(3):
                    win = seg_model._window_fd(m, x64, lab, weights, i, j, c, 0.1, r)
                    full = full_image_fd(m, img, lab, weights, i, j, c, 0.1)
                    assert abs(win - full) <= 1e-12, (i, j, c, win, full)

    def test_two_crop_evaluations_per_sample(self, trained_tiny, monkeypatch):
        m, img, lab = trained_tiny
        real = seg_model.loss_value_f64
        shapes = []

        def recording(model, image, target, pixel_weights):
            shapes.append(image.shape)
            return real(model, image, target, pixel_weights)

        monkeypatch.setattr(seg_model, "loss_value_f64", recording)
        report = seg_model.grad_check(m, img, lab, n_samples=40, seed=1)
        r = seg_model.receptive_radius(m)
        assert (report.n_samples, report.radius, report.h) == (40, r, 0.1)
        # one crop shape whichever pixels are sampled, border ones included
        assert shapes == [(4 * r + 1, 4 * r + 1, 3)] * (2 * 40)

    def test_border_fault_fails(self, trained_tiny, monkeypatch):
        # the input gradient is wrong only within r of the image border
        m, img, lab = trained_tiny
        r = seg_model.receptive_radius(m)
        real_grad = seg_model.conv2d_input_grad

        def border_broken(node, go):
            gx = real_grad(node, go)
            if gx.shape[0] == 3:
                ring = np.ones(gx.shape[1:], bool)
                ring[r:-r, r:-r] = False
                gx = np.where(ring, 1.5 * gx, gx)
            return gx

        monkeypatch.setattr(seg_model, "conv2d_input_grad", border_broken)
        report = seg_model.grad_check(m, img, lab, n_samples=300, seed=2)
        assert not report.passed

    def test_param_grads_equal_full_backward(self, trained_tiny):
        # training skips the first conv's input gradient; the parameter
        # gradients must not move by a bit
        m, img, lab = trained_tiny
        ones = np.ones(lab.shape, np.float32)
        loss, kgrads, bgrads = seg_model._param_grads(m, img, lab, ones)
        logits, nodes = seg_model._forward(m, img)
        _, _, g = seg_model.softmax_ce(logits, lab, ones)
        g = g.transpose(2, 0, 1)
        ref_k, ref_b = [], []
        for kind, node in reversed(nodes):
            if kind == "relu":
                g = seg_model.relu_bwd(node, g)
            else:
                g, gk, gb = seg_model.conv2d_bwd(node, g)
                ref_k.insert(0, gk)
                ref_b.insert(0, gb)
        assert g is not None
        assert [a.tobytes() for a in kgrads] == [a.tobytes() for a in ref_k]
        assert [a.tobytes() for a in bgrads] == [a.tobytes() for a in ref_b]


class TestInputOnlyBackward:
    """The attack gradients skip the parameter grads; their bits must not move."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_grad_equals_full_backward_per_layer(self, trained_tiny, dtype):
        m, img, _ = trained_tiny
        _, nodes = seg_model._forward(m, img, dtype)
        convs = [node for kind, node in nodes if kind == "conv"]
        assert [n.kernel.shape[0] for n in convs] == [3, 3, 1]
        rng = np.random.default_rng(3)
        for node in convs:
            go = rng.normal(size=(node.kernel.shape[3],) + node.input_shape[1:])
            go = go.astype(np.float32)
            gx, _, _ = seg_model.conv2d_bwd(node, go)
            got = seg_model.conv2d_input_grad(node, go)
            assert got.dtype == gx.dtype and got.shape == gx.shape
            assert got.tobytes() == gx.tobytes()

    def test_loss_input_grad_equals_full_backward(self, trained_tiny):
        m, img, lab = trained_tiny
        weights = np.random.default_rng(1).uniform(0.5, 2.0, lab.shape).astype(np.float32)
        logits, nodes = seg_model._forward(m, img)
        ref_loss, _, g = seg_model.softmax_ce(logits, lab, weights)
        g = g.transpose(2, 0, 1)
        for kind, node in reversed(nodes):
            g = seg_model.relu_bwd(node, g) if kind == "relu" else seg_model.conv2d_bwd(node, g)[0]
        ref = (g.transpose(1, 2, 0) / np.float32(seg_model.SCALE)).astype(np.float32)
        loss, grad = seg_model.loss_input_grad(m, img, lab, weights)
        assert loss == ref_loss
        assert grad.dtype == np.float32 and grad.tobytes() == ref.tobytes()

    def test_predict_and_grad_probs_equal_predict(self, trained_tiny):
        m, img, lab = trained_tiny
        seen = []

        def objective(probs):
            seen.append(probs)
            return lab, np.ones(lab.shape, np.float32)

        probs, loss, grad = seg_model.predict_and_grad(m, img, objective)
        assert len(seen) == 1 and seen[0] is probs
        assert probs.tobytes() == seg_model.predict(m, img).tobytes()
        ref_loss, ref_grad = seg_model.loss_input_grad(m, img, lab, np.ones(lab.shape, np.float32))
        assert loss == ref_loss and grad.tobytes() == ref_grad.tobytes()



# The model as it ran channels-last, before its activations became
# channels-first planes: the reference for the bits of every public pass.
def cl_padded(x, pad, dtype):
    h, w, c = x.shape
    if pad == 0:
        return x.astype(dtype, copy=False).reshape(h * w, c)
    xp = np.zeros((h + 2 * pad + 1, w + 2 * pad, c), dtype)
    xp[pad:pad + h, pad:pad + w] = x
    return xp.reshape(-1, c)


def cl_window(flat, u, v, h, wp):
    start = u * wp + v
    return flat[start:start + h * wp]


def cl_shifted_gemm(flat, kernel, h, wp):
    k = kernel.shape[0]
    out = cl_window(flat, 0, 0, h, wp) @ kernel[0, 0]
    tap = np.empty_like(out)
    for u in range(k):
        for v in range(k):
            if u or v:
                out += np.matmul(cl_window(flat, u, v, h, wp), kernel[u, v], out=tap)
    return out


def cl_conv_fwd(x, kernel, bias):
    h, w, _ = x.shape
    k, cout = kernel.shape[0], kernel.shape[3]
    dtype = np.promote_types(x.dtype, np.float32)
    xpad = cl_padded(x, k // 2, dtype)
    out = cl_shifted_gemm(xpad, kernel.astype(dtype, copy=False), h, w + k - 1)
    return out.reshape(h, w + k - 1, cout)[:, :w] + bias.astype(dtype), (xpad, kernel, x.shape)


def cl_conv_bwd(node, grad_out, want_input, want_params):
    xpad, kernel, (h, w, cin) = node
    k, cout = kernel.shape[0], kernel.shape[3]
    pad, wp = k // 2, w + k - 1
    gpad = cl_padded(grad_out.astype(np.float32, copy=False), pad, np.float32)
    gx = gk = gb = None
    if want_input:
        adjoint = kernel[::-1, ::-1].transpose(0, 1, 3, 2).astype(np.float32, copy=False)
        gx = cl_shifted_gemm(gpad, adjoint, h, wp).reshape(h, wp, cin)[:, :w]
    if want_params:
        gb = grad_out.astype(np.float32, copy=False).reshape(h * w, cout).sum(axis=0)
        go_grid = cl_window(gpad, pad, pad, h, wp)
        gk = np.empty((k, k, cin, cout), np.promote_types(xpad.dtype, np.float32))
        for u in range(k):
            for v in range(k):
                np.matmul(cl_window(xpad, u, v, h, wp).T, go_grid, out=gk[u, v])
    return gx, gk, gb


def cl_forward(m, image, dtype=np.float32):
    """(logits, [conv node, relu mask, conv node, relu mask, conv node])."""
    a = ((image.astype(dtype) - seg_model.MEAN) / seg_model.SCALE).astype(dtype)
    nodes = []
    for i, (k, b) in enumerate(zip(m.kernels, m.biases)):
        a, node = cl_conv_fwd(a, k, b)
        nodes.append(node)
        if i < len(m.kernels) - 1:
            nodes.append(a > 0)
            a = np.maximum(a, 0)
    return a, nodes


def cl_backward(m, nodes, g, want_params=False):
    kgrads, bgrads = [], []
    for n, node in reversed(list(enumerate(nodes))):
        if n % 2:
            g = g.astype(np.float32, copy=False) * node + np.float32(0)
        else:
            g, gk, gb = cl_conv_bwd(node, g, want_input=not want_params or n > 0,
                                    want_params=want_params)
            kgrads.insert(0, gk)
            bgrads.insert(0, gb)
    if want_params:
        return kgrads, bgrads
    return (g / np.float32(seg_model.SCALE)).astype(np.float32)


def cl_predict_and_grad(m, image, objective):
    logits, nodes = cl_forward(m, image)
    probs = seg_model.softmax(logits)
    target, pixel_weights = objective(probs)
    loss, _, grad_logits = seg_model.softmax_ce(logits, target, pixel_weights, probs)
    return probs, loss, cl_backward(m, nodes, grad_logits)


def cl_loss_input_grad(m, image, target, pixel_weights):
    _, loss, grad = cl_predict_and_grad(m, image, lambda probs: (target, pixel_weights))
    return loss, grad


def cl_param_grads(m, image, target, pixel_weights):
    logits, nodes = cl_forward(m, image)
    loss, _, grad_logits = seg_model.softmax_ce(logits, target, pixel_weights)
    return (loss, *cl_backward(m, nodes, grad_logits, want_params=True))


def cl_loss_value_f64(m, image, target, pixel_weights):
    logits, _ = cl_forward(m, image, np.float64)
    p = seg_model.softmax(logits, dtype=np.float64)
    ce = -np.log(np.take_along_axis(p, target[:, :, None], axis=2)[:, :, 0])
    return float(np.sum(pixel_weights * ce) / target.size)


def flat(result):
    """A pass's results, its lists of per-layer grads unpacked."""
    return [a for r in result for a in (r if isinstance(r, list) else [r])]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestChannelsLastBits:
    """Every public pass returns the bytes the channels-last model returned."""

    # the image's dtype; loss_value_f64 and the gradient check run float64
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("size", [(64, 64), (96, 96), (37, 50), (50, 96)],
                             ids=["64x64", "96x96", "37x50", "50x96"])
    def test_passes_equal_channels_last_model(self, trained_tiny, size, dtype, monkeypatch):
        m = trained_tiny[0]
        rng = np.random.default_rng(size[0] * size[1])
        img = rng.uniform(0, 255, size + (3,)).astype(dtype)
        lab = rng.integers(0, m.num_classes, size).astype(np.int32)
        weights = rng.uniform(0.5, 2.0, size).astype(np.float32)

        def objective(probs):
            return np.argmin(probs, axis=2).astype(np.int32), probs.max(axis=2)

        assert same_bits(seg_model.predict(m, img),
                         seg_model.softmax(cl_forward(m, img)[0]))
        for got, want in ((seg_model.predict_and_grad(m, img, objective),
                           cl_predict_and_grad(m, img, objective)),
                          (seg_model.loss_input_grad(m, img, lab, weights),
                           cl_loss_input_grad(m, img, lab, weights)),
                          (seg_model._param_grads(m, img, lab, weights),
                           cl_param_grads(m, img, lab, weights))):
            got, want = flat(got), flat(want)
            assert len(got) == len(want) and all(map(same_bits, got, want))
        x64 = img.astype(np.float64)
        assert same_bits(seg_model._forward(m, x64, np.float64)[0],
                         cl_forward(m, x64, np.float64)[0])
        assert seg_model.loss_value_f64(m, x64, lab, weights) == \
            cl_loss_value_f64(m, x64, lab, weights)
        report = seg_model.grad_check(m, img, lab, weights, n_samples=100, seed=3)
        monkeypatch.setattr(seg_model, "loss_input_grad", cl_loss_input_grad)
        monkeypatch.setattr(seg_model, "loss_value_f64", cl_loss_value_f64)
        assert report == seg_model.grad_check(m, img, lab, weights, n_samples=100, seed=3)


def on_glibc():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def pass_inputs(size, seed=0):
    rng = np.random.default_rng(seed)
    m = seg_model.init_model(4, seed=seed)
    img = rng.integers(0, 256, (size, size, 3)).astype(np.float32)
    lab = rng.integers(0, 4, (size, size)).astype(np.int32)
    return m, img, lab, np.ones((size, size), np.float32)


def steady_faults(call, who, warm=5, calls=20):
    """Minor page faults of `calls` calls after `warm` warm-up calls."""
    for _ in range(warm):
        call()
    before = resource.getrusage(who).ru_minflt
    for _ in range(calls):
        call()
    return resource.getrusage(who).ru_minflt - before


FAULTS_PER_CALL = 5   # a glibc that trims each pass's freed heap takes 400-1,400


@pytest.mark.skipif(not on_glibc(), reason="the kept heap is a glibc malloc setting "
                    "(mallopt M_TOP_PAD); other C libraries keep their own trim policy")
class TestSteadyStatePassesTakeNoFaults:
    """Freed pass temporaries stay mapped, so the next pass reuses them."""

    @pytest.mark.parametrize("name,size", [("_param_grads", 64), ("loss_input_grad", 96),
                                           ("predict", 96)])
    def test_calling_thread(self, name, size):
        m, img, lab, wgt = pass_inputs(size)
        fn = getattr(seg_model, name)
        call = (lambda: fn(m, img)) if name == "predict" else (lambda: fn(m, img, lab, wgt))
        assert steady_faults(call, resource.RUSAGE_SELF) <= 20 * FAULTS_PER_CALL

    def test_forked_worker(self, forks):
        m, img, lab, wgt = pass_inputs(96)

        def faults(_, i):
            return os.getpid(), steady_faults(
                lambda: seg_model.loss_input_grad(m, img, lab, wgt), resource.RUSAGE_SELF)

        forked = forks(2)
        with workers.forked_map(faults, 2) as run:
            (caller, _), (worker, worker_faults) = run(None, range(2))
        assert caller == os.getpid() != worker and forked == [worker]
        assert worker_faults <= 20 * FAULTS_PER_CALL


class TestTraining:
    def test_lr_zero_leaves_params_unchanged(self):
        data = tiny_dataset(6, seed=6)
        cfg = seg_model.TrainConfig(epochs=2, lr=0.0, seed=6)
        trained = seg_model.train(data, cfg)
        fresh = seg_model.init_model(trained.num_classes, seed=6)
        assert params_equal(trained, fresh)

    def test_seed_determinism_bit_exact(self):
        data = tiny_dataset(6, seed=7)
        cfg = seg_model.TrainConfig(epochs=3, seed=7)
        m1 = seg_model.train(data, cfg)
        m2 = seg_model.train(data, cfg)
        assert params_equal(m1, m2)

    def test_training_reduces_loss(self):
        data = tiny_dataset(8, seed=8)
        untrained = seg_model.init_model(3, seed=8)
        trained = seg_model.train(data, seg_model.TrainConfig(epochs=8, seed=8))
        ones = np.ones(data[0][1].shape, np.float32)

        def mean_loss(m):
            return np.mean([seg_model.loss_input_grad(m, img, lab, ones)[0]
                            for img, lab in data])

        assert mean_loss(trained) < mean_loss(untrained)

    def test_empty_dataset_raises(self):
        with pytest.raises(InputError):
            seg_model.train([], seg_model.TrainConfig())

    def test_invalid_config_raises(self):
        for key, value, rule in [("lr", -0.1, "finite and >= 0"), ("epochs", 0, ">= 1"),
                                 ("batch_size", 0, ">= 1"), ("batch_size", -1, ">= 1"),
                                 ("seed", -1, ">= 0")]:
            with pytest.raises(InputError) as exc:
                seg_model.TrainConfig(**{key: value})
            assert str(exc.value) == f"train key {key}: must be {rule}, got {value!r}"


def serial_train(dataset, cfg):
    """The reference: one process sums each batch's per-sample gradients in
    batch order."""
    num_classes = int(max(lab.max() for _, lab in dataset)) + 1
    model = seg_model.init_model(num_classes, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    ones = np.ones(dataset[0][1].shape, np.float32)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        for start in range(0, len(dataset), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            ksum = [np.zeros_like(k) for k in model.kernels]
            bsum = [np.zeros_like(b) for b in model.biases]
            for idx in batch:
                loss, kgrads, bgrads = seg_model._param_grads(model, *dataset[idx], ones)
                if not np.isfinite(loss):
                    raise TrainingError(f"training diverged at epoch {epoch}")
                for acc, g in zip(ksum + bsum, kgrads + bgrads):
                    acc += g
            lr = np.float32(cfg.lr / len(batch))
            for p, g in zip(model.kernels + model.biases, ksum + bsum):
                p -= lr * g
    return model


class TestForkedTraining:
    """Training computes each batch on one process per CPU, summed in batch order."""

    @pytest.mark.parametrize("batch_size", [1, 2, 8])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_bit_identical_to_serial_loop(self, forks, cpus, batch_size):
        data = tiny_dataset(11, seed=9)     # every batch size leaves a ragged last batch
        cfg = seg_model.TrainConfig(epochs=2, lr=0.2, batch_size=batch_size, seed=9)
        pids = forks(cpus)
        assert params_equal(seg_model.train(data, cfg), serial_train(data, cfg))
        assert len(pids) == min(cpus, batch_size) - 1

    def test_divergence_message_of_serial_loop(self, forks):
        data = tiny_dataset(6, seed=10)
        cfg = seg_model.TrainConfig(epochs=6, lr=1e20, batch_size=4, seed=10)
        pids = forks(2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError) as serial:
                serial_train(data, cfg)
            with pytest.raises(TrainingError) as forked:
                seg_model.train(data, cfg)
        assert str(forked.value) == str(serial.value) == "training diverged at epoch 1"
        assert len(pids) == 1

    def test_worker_error_reaches_caller(self, forks, monkeypatch):
        parent, real = os.getpid(), seg_model._param_grads

        def param_grads(*args):
            if os.getpid() != parent:
                raise ValueError("in a worker")
            return real(*args)

        monkeypatch.setattr(seg_model, "_param_grads", param_grads)
        pids = forks(2)
        with pytest.raises(ValueError, match="in a worker"):
            seg_model.train(tiny_dataset(4), seg_model.TrainConfig(epochs=1, batch_size=2))
        assert len(pids) == 1

    def test_killed_worker_raises(self, forks, monkeypatch):
        parent, real = os.getpid(), seg_model._param_grads

        def param_grads(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(seg_model, "_param_grads", param_grads)
        pids = forks(2)
        with pytest.raises(ChildProcessError):
            seg_model.train(tiny_dataset(4), seg_model.TrainConfig(epochs=1, batch_size=2))
        assert len(pids) == 1


def test_save_load_roundtrip(tmp_path, small_model):
    path = tmp_path / "m.ten"
    seg_model.save_model(small_model, path)
    back = seg_model.load_model(path)
    assert os.listdir(tmp_path) == ["m.ten"]
    assert back.num_classes == small_model.num_classes
    assert params_equal(back, small_model)
    img = np.random.default_rng(0).integers(0, 256, (16, 16, 3)).astype(np.float32)
    np.testing.assert_array_equal(seg_model.predict(back, img),
                                  seg_model.predict(small_model, img))
