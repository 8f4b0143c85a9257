import numpy as np
import pytest

from segdetect import model as seg_model
from segdetect.errors import InputError


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
        real_bwd = seg_model.conv2d_bwd

        def broken(node, go):
            gx, gk, gb = real_bwd(node, go)
            return gx * 1.5, gk, gb

        monkeypatch.setattr(seg_model, "conv2d_bwd", broken)
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
    return seg_model.ModelParams(kernels=kernels, biases=biases,
                                 num_classes=num_classes, seed=seed)


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
        real_bwd = seg_model.conv2d_bwd

        def border_broken(node, go):
            gx, gk, gb = real_bwd(node, go)
            if gx.shape[2] == 3:
                ring = np.ones(gx.shape[:2], bool)
                ring[r:-r, r:-r] = False
                gx = np.where(ring[:, :, None], 1.5 * gx, gx)
            return gx, gk, gb

        monkeypatch.setattr(seg_model, "conv2d_bwd", border_broken)
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
        with pytest.raises(InputError):
            seg_model.TrainConfig(lr=-0.1)
        with pytest.raises(InputError):
            seg_model.TrainConfig(epochs=0)


def test_save_load_roundtrip(tmp_path, small_model):
    tpath = tmp_path / "m.ten"
    spath = tmp_path / "m.json"
    seg_model.save_model(small_model, tpath, spath)
    back = seg_model.load_model(tpath, spath)
    assert back.num_classes == small_model.num_classes
    assert back.mean == small_model.mean and back.scale == small_model.scale
    assert params_equal(back, small_model)
    img = np.random.default_rng(0).integers(0, 256, (16, 16, 3)).astype(np.float32)
    np.testing.assert_array_equal(seg_model.predict(back, img),
                                  seg_model.predict(small_model, img))
