import tracemalloc

import numpy as np
import pytest

from segdetect import attacks, model as seg_model
from segdetect.errors import AttackError, InputError


def budget_ok(clean, adv, eps):
    delta = adv.astype(np.float64) - clean.astype(np.float64)
    return (np.max(np.abs(delta)) <= eps
            and np.all(adv == np.rint(adv))
            and adv.min() >= 0 and adv.max() <= 255)


class TestIterationCount:
    @pytest.mark.parametrize("eps,expected", [(4, 5), (8, 10), (16, 20), (2, 2), (1, 1)])
    def test_rule(self, eps, expected):
        assert attacks.iteration_count(eps) == expected

    def test_non_integer_raises(self):
        with pytest.raises(InputError):
            attacks.iteration_count(2.5)
        with pytest.raises(InputError):
            attacks.iteration_count(0)
        for eps in (float("nan"), float("inf")):
            with pytest.raises(InputError):
                attacks.iteration_count(eps)


# The ids ending in "change<n>" are the names pytest gave these cases by list
# position before they had ids; every later case takes a descriptive id.
@pytest.mark.parametrize("config,key,value,rule", [
    pytest.param(attacks.SsmmConfig, "eps", 0, "finite and > 0", id="SsmmConfig-change0"),
    pytest.param(attacks.SsmmConfig, "alpha", -1, "finite and > 0", id="SsmmConfig-change1"),
    pytest.param(attacks.SsmmConfig, "n_iter", -1, ">= 0", id="SsmmConfig-change2"),
    pytest.param(attacks.DnnmConfig, "eps", -2, "finite and > 0", id="DnnmConfig-change3"),
    pytest.param(attacks.DnnmConfig, "alpha", 0, "finite and > 0", id="DnnmConfig-change4"),
    pytest.param(attacks.DnnmConfig, "n_iter", -1, ">= 0", id="DnnmConfig-change5"),
    pytest.param(attacks.PatchConfig, "height", 0, ">= 1", id="PatchConfig-change6"),
    pytest.param(attacks.PatchConfig, "width", -1, ">= 1", id="PatchConfig-change7"),
    pytest.param(attacks.PatchConfig, "placements", 0, ">= 1", id="PatchConfig-change8"),
    pytest.param(attacks.PatchConfig, "n_iter", -1, ">= 0", id="PatchConfig-change9"),
    pytest.param(attacks.PatchConfig, "alpha", 0, "finite and > 0", id="PatchConfig-change10"),
    pytest.param(attacks.AttackConfig, "eps", np.nan, "finite and > 0", id="AttackConfig-change11"),
    pytest.param(attacks.AttackConfig, "alpha", np.nan, "finite and > 0",
                 id="AttackConfig-change12"),
    pytest.param(attacks.SsmmConfig, "eps", np.nan, "finite and > 0", id="SsmmConfig-change13"),
    pytest.param(attacks.SsmmConfig, "alpha", np.nan, "finite and > 0", id="SsmmConfig-change14"),
    pytest.param(attacks.DnnmConfig, "eps", np.nan, "finite and > 0", id="DnnmConfig-change15"),
    pytest.param(attacks.DnnmConfig, "alpha", np.nan, "finite and > 0", id="DnnmConfig-change16"),
    pytest.param(attacks.PatchConfig, "alpha", np.nan, "finite and > 0", id="PatchConfig-change17"),
    pytest.param(attacks.AttackConfig, "eps", np.inf, "finite and > 0", id="AttackConfig-change18"),
    pytest.param(attacks.AttackConfig, "alpha", np.inf, "finite and > 0",
                 id="AttackConfig-change19"),
    pytest.param(attacks.SsmmConfig, "eps", np.inf, "finite and > 0", id="SsmmConfig-change20"),
    pytest.param(attacks.SsmmConfig, "alpha", np.inf, "finite and > 0", id="SsmmConfig-change21"),
    pytest.param(attacks.DnnmConfig, "eps", np.inf, "finite and > 0", id="DnnmConfig-change22"),
    pytest.param(attacks.DnnmConfig, "alpha", np.inf, "finite and > 0", id="DnnmConfig-change23"),
    pytest.param(attacks.PatchConfig, "alpha", np.inf, "finite and > 0", id="PatchConfig-change24"),
    pytest.param(attacks.PatchConfig, "seed", -1, ">= 0", id="PatchConfig-change25"),
    pytest.param(attacks.AttackConfig, "n_iter", 0, ">= 1", id="ifgsm-n_iter-0"),
    pytest.param(attacks.AttackConfig, "eps", True, "finite and > 0", id="ifgsm-eps-true"),
    pytest.param(attacks.SsmmConfig, "tau", 1, "in (0, 1)", id="ssmm-tau-1"),
    pytest.param(attacks.DnnmConfig, "omega", 1.5, "in [0, 1]", id="dnnm-omega-1.5"),
    pytest.param(attacks.DnnmConfig, "hidden_class", 0, ">= 1", id="dnnm-hidden_class-0"),
    pytest.param(attacks.PatchConfig, "seed", False, ">= 0", id="patch-seed-false"),
])
def test_bad_config_raises(config, key, value, rule):
    """A value against its field's rule fails, naming the kind, the key and the value."""
    section = {attacks.AttackConfig: "fgsm/ifgsm", attacks.SsmmConfig: "ssmm",
               attacks.DnnmConfig: "dnnm", attacks.PatchConfig: "patch"}[config]
    with pytest.raises(InputError) as exc:
        config(**{key: value})
    assert str(exc.value) == f"{section} key {key}: must be {rule}, got {value!r}"


class TestLeastLikelyTarget:
    def test_simple(self):
        probs = np.array([[[0.5, 0.1, 0.4]]], np.float64)
        assert attacks.least_likely_target(probs)[0, 0] == 1

    def test_tie_goes_to_smallest_id(self):
        probs = np.array([[[0.4, 0.3, 0.3]]], np.float64)
        assert attacks.least_likely_target(probs)[0, 0] == 1

    def test_matches_bruteforce(self, rng):
        probs = rng.uniform(size=(6, 6, 5))
        probs /= probs.sum(axis=2, keepdims=True)
        got = attacks.least_likely_target(probs)
        for i in range(6):
            for j in range(6):
                assert got[i, j] == min(range(5), key=lambda c: probs[i, j, c])


@pytest.fixture(scope="module")
def attack_setup(small_dataset, small_model):
    _, train, val = small_dataset
    return small_model, train, val


class TestFgsm:
    def test_zero_gradient_leaves_image_unchanged(self, small_dataset):
        # untrained model has a zero head, so the loss gradient is exactly zero
        cfg_d, _, val = small_dataset
        m = seg_model.init_model(cfg_d.num_classes, seed=0)
        out = attacks.fgsm(m, val[0], attacks.AttackConfig(eps=8))
        assert out.dtype == np.float32 and out.tobytes() == val[0].image.tobytes()

    @pytest.mark.parametrize("eps", [4, 8, 16])
    @pytest.mark.parametrize("targeted", [False, True])
    def test_budget_and_tag(self, attack_setup, eps, targeted):
        m, _, val = attack_setup
        out = attacks.fgsm(m, val[0], attacks.AttackConfig(eps=eps, targeted=targeted))
        assert out.dtype == np.float32 and budget_ok(val[0].image, out, eps)

    def test_untargeted_raises_mean_loss(self, attack_setup):
        m, _, val = attack_setup
        ups = downs = 0
        for s in val[:50]:
            ones = np.ones(s.labels.shape, np.float32)
            l0, _ = seg_model.loss_input_grad(m, s.image, s.labels, ones)
            out = attacks.fgsm(m, s, attacks.AttackConfig(eps=8))
            l1, _ = seg_model.loss_input_grad(m, out, s.labels, ones)
            if l1 > l0 + 1e-3:
                ups += 1
            elif l1 < l0 - 1e-3:
                downs += 1
        assert ups > downs

    def test_targeted_lowers_target_loss(self, attack_setup):
        m, _, val = attack_setup
        ups = downs = 0
        for s in val[:50]:
            ones = np.ones(s.labels.shape, np.float32)
            target = attacks.least_likely_target(seg_model.predict(m, s.image))
            l0, _ = seg_model.loss_input_grad(m, s.image, target, ones)
            out = attacks.fgsm(m, s, attacks.AttackConfig(eps=8, targeted=True))
            l1, _ = seg_model.loss_input_grad(m, out, target, ones)
            if l1 < l0 - 1e-3:
                downs += 1
            elif l1 > l0 + 1e-3:
                ups += 1
        assert downs > ups


class TestIfgsm:
    def test_one_step_full_alpha_matches_fgsm(self, attack_setup):
        m, _, val = attack_setup
        for targeted in (False, True):
            a = attacks.fgsm(m, val[1], attacks.AttackConfig(eps=8, targeted=targeted))
            b = attacks.ifgsm(m, val[1], attacks.AttackConfig(eps=8, alpha=8, n_iter=1,
                                                              targeted=targeted))
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("eps", [4, 8])
    def test_budget(self, attack_setup, eps):
        m, _, val = attack_setup
        cfg = attacks.AttackConfig(eps=eps, alpha=1, n_iter=attacks.iteration_count(eps),
                                   targeted=True)
        out = attacks.ifgsm(m, val[2], cfg)
        assert out.dtype == np.float32 and budget_ok(val[2].image, out, eps)

    def test_iterative_at_least_as_strong(self, attack_setup):
        m, _, val = attack_setup
        eps = 8
        fg = it = 0.0
        for s in val[:20]:
            a = attacks.fgsm(m, s, attacks.AttackConfig(eps=eps))
            b = attacks.ifgsm(m, s, attacks.AttackConfig(
                eps=eps, alpha=1, n_iter=attacks.iteration_count(eps)))
            fg += np.mean(seg_model.predicted_labels(m, a) != s.labels)
            it += np.mean(seg_model.predicted_labels(m, b) != s.labels)
        assert it >= fg - 1e-9


class TestSsmm:
    def test_zero_iterations_zero_noise(self, attack_setup):
        m, train, _ = attack_setup
        cfg = attacks.SsmmConfig(n_iter=0)
        target = train[0].labels
        noise = attacks.ssmm_train(m, train[:3], target, cfg)
        assert noise.dtype == np.float32 and noise.shape == train[0].image.shape
        assert np.all(noise == 0)

    def test_noise_within_budget(self, attack_setup):
        m, train, _ = attack_setup
        cfg = attacks.SsmmConfig(n_iter=3)
        target = train[0].labels
        noise = attacks.ssmm_train(m, train[:4], target, cfg)
        assert np.max(np.abs(noise)) <= cfg.eps + 1e-6

    def test_apply_universal_zero_noise_identity(self, attack_setup):
        _, _, val = attack_setup
        out = attacks.apply_universal(val[0].image, np.zeros(val[0].image.shape, np.float32))
        assert out.dtype == np.float32 and out.tobytes() == val[0].image.tobytes()

    def test_apply_universal_budget(self, attack_setup):
        m, train, val = attack_setup
        cfg = attacks.SsmmConfig(n_iter=2)
        target = train[0].labels
        noise = attacks.ssmm_train(m, train[:3], target, cfg)
        out = attacks.apply_universal(val[0].image, noise)
        assert budget_ok(val[0].image, out, cfg.eps)

    def test_shape_mismatch_raises(self, attack_setup):
        _, _, val = attack_setup
        with pytest.raises(InputError):
            attacks.apply_universal(val[0].image, np.zeros((8, 8, 3), np.float32))

    def test_pick_target_is_member_label_map(self, small_dataset):
        _, train, _ = small_dataset
        rng = np.random.default_rng(0)
        tgt = attacks.pick_ssmm_target(train, rng)
        assert any(tgt.tobytes() == s.labels.tobytes() for s in train)


def bruteforce_dnnm_target(pred, hidden_class):
    h, w = pred.shape
    target = pred.copy()
    for i in range(h):
        for j in range(w):
            if pred[i, j] != hidden_class:
                continue
            best = None
            for ii in range(h):
                for jj in range(w):
                    if pred[ii, jj] == hidden_class:
                        continue
                    d = (i - ii) ** 2 + (j - jj) ** 2
                    key = (d, ii, jj)
                    if best is None or key < best:
                        best = key
            target[i, j] = pred[best[1], best[2]]
    return target


def _region_map(name, h=13, w=16):
    """Region-shaped and tie-heavy prediction maps; class 1 is hidden."""
    ii, jj = np.indices((h, w))
    other = np.array([0, 2, 3])     # complement classes
    maps = {
        "disk": np.where((ii - 6) ** 2 + (jj - 8) ** 2 <= 20, 1, other[(2 * ii + jj) % 3]),
        "two_disks": np.where(((ii - 3) ** 2 + (jj - 3) ** 2 <= 6)
                              | ((ii - 9) ** 2 + (jj - 12) ** 2 <= 9), 1, other[(ii + jj) % 3]),
        "row_stripes": np.where(ii // 2 % 2 == 0, 1, other[ii % 3]),
        "col_stripes": np.where(jj % 3 == 1, 1, other[jj % 4 // 2]),
        "checkerboard": np.where((ii + jj) % 2 == 0, 1, other[(ii // 2 + jj // 3) % 3]),
        "block_checkerboard": np.where((ii // 3 + jj // 3) % 2 == 0, 1, 0),
        "corner": np.where((ii < 8) & (jj < 10), 1, other[(ii + 2 * jj) % 3]),
        "left_half": np.where(jj < w // 2, 1, other[ii % 3]),
        "frame": np.where((ii == 0) | (jj == 0) | (ii == h - 1) | (jj == w - 1), 1, 0),
        "all_but_center": np.where((ii == h // 2) & (jj == w // 2), 2, 1),
        "all_but_corner": np.where((ii == h - 1) & (jj == 0), 0, 1),
    }
    return maps[name].astype(np.int32)


class TestDnnmTarget:
    @pytest.mark.parametrize("block", [3, attacks.DNNM_BLOCK])
    @pytest.mark.parametrize("name", ["disk", "two_disks", "row_stripes", "col_stripes",
                                      "checkerboard", "block_checkerboard", "corner",
                                      "left_half", "frame", "all_but_center", "all_but_corner"])
    def test_region_maps_match_bruteforce(self, name, block, monkeypatch):
        monkeypatch.setattr(attacks, "DNNM_BLOCK", block)
        pred = _region_map(name)
        got, weights = attacks.dnnm_target(pred, 1, 0.9)
        np.testing.assert_array_equal(got, bruteforce_dnnm_target(pred, 1))
        np.testing.assert_array_equal(weights, np.where(pred == 1, np.float32(0.9),
                                                        np.float32(1 - 0.9)))

    def test_large_disk_memory_bounded(self):
        # a dense |hidden| x |complement| int64 matrix would need ~7.8 GB here
        n = 256
        ii, jj = np.indices((n, n))
        pred = np.where((ii - 128) ** 2 + (jj - 128) ** 2 < 85 ** 2, 1,
                        (ii // 16 + jj // 16) % 3 // 2 * 2).astype(np.int32)
        tracemalloc.start()
        try:
            target, _ = attacks.dnnm_target(pred, 1, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        # spot-check hidden pixels against a full search of the complement
        comp = np.argwhere(pred != 1)
        rng = np.random.default_rng(0)
        for i, j in np.argwhere(pred == 1)[rng.choice(int((pred == 1).sum()), 25)]:
            d2 = (comp[:, 0] - i) ** 2 + (comp[:, 1] - j) ** 2
            ni, nj = comp[np.argmin(d2)]
            assert target[i, j] == pred[ni, nj]

    def test_no_hidden_pixels_identity(self):
        pred = np.zeros((4, 4), np.int32)
        target, weights = attacks.dnnm_target(pred, 1, 0.9)
        np.testing.assert_array_equal(target, pred)
        np.testing.assert_allclose(weights, 0.1, atol=1e-7)

    def test_center_pixel_3x3(self):
        pred = np.array([[0, 2, 0],
                         [0, 1, 0],
                         [0, 0, 0]], np.int32)
        target, weights = attacks.dnnm_target(pred, 1, 0.9)
        # four complement pixels at distance 1; lexicographic first is (0, 1)
        assert target[1, 1] == pred[0, 1] == 2
        assert weights[1, 1] == pytest.approx(0.9)
        assert weights[0, 0] == pytest.approx(0.1)

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(50):
            pred = rng.integers(0, 3, (16, 16)).astype(np.int32)
            if np.all(pred == 1):
                continue
            got, _ = attacks.dnnm_target(pred, 1, 0.9)
            np.testing.assert_array_equal(got, bruteforce_dnnm_target(pred, 1))

    def test_all_hidden_raises(self):
        pred = np.ones((4, 4), np.int32)
        with pytest.raises(AttackError):
            attacks.dnnm_target(pred, 1, 0.9)


class TestDnnmAttack:
    def test_budget_and_tag(self, attack_setup):
        m, _, val = attack_setup
        cfg = attacks.DnnmConfig(n_iter=5)
        out = attacks.dnnm_attack(m, val[3], cfg)
        assert out.dtype == np.float32 and budget_ok(val[3].image, out, cfg.eps)

    def test_target_has_no_hidden_class(self, attack_setup):
        m, _, val = attack_setup
        for s in val[:10]:
            pred = seg_model.predicted_labels(m, s.image)
            if not (pred == 1).any():
                continue
            target, _ = attacks.dnnm_target(pred, 1, 0.9)
            assert not (target == 1).any()


class TestPatch:
    def test_zero_iterations_gray_patch(self, attack_setup):
        m, train, _ = attack_setup
        cfg = attacks.PatchConfig(height=8, width=8, n_iter=0)
        patch = attacks.patch_attack(m, train[:4], cfg)
        assert np.all(patch == 127.5)

    def test_apply_changes_only_window(self, attack_setup):
        _, _, val = attack_setup
        patch = np.full((8, 8, 3), 200.0, np.float32)
        out = attacks.apply_patch(val[0].image, patch, 3, 5)
        clean = val[0].image.astype(np.float32)
        assert out.dtype == np.float32 and np.all(out[3:11, 5:13] == 200.0)
        mask = np.ones(clean.shape, bool)
        mask[3:11, 5:13] = False
        assert out[mask].tobytes() == clean[mask].tobytes()

    def test_patch_too_large_raises(self, attack_setup):
        m, train, _ = attack_setup
        with pytest.raises(InputError):
            attacks.patch_attack(m, train[:2], attacks.PatchConfig(height=100, width=100))

    def test_patch_values_in_range(self, attack_setup):
        m, train, _ = attack_setup
        cfg = attacks.PatchConfig(height=8, width=8, n_iter=3, placements=2)
        patch = attacks.patch_attack(m, train[:4], cfg)
        assert patch.min() >= 0 and patch.max() <= 255


def two_pass_descent(m, x, objective, step, eps, n_iter):
    """The iterative attacks as two model passes: the objective from a separate
    predict of the clean image, then loss_input_grad at every step."""
    target, weights = objective(seg_model.predict(m, x))
    lo, hi = np.maximum(x - eps, 0.0), np.minimum(x + eps, 255.0)
    adv = x
    for _ in range(n_iter):
        grad = seg_model.loss_input_grad(m, adv, target, weights)[1]
        adv = np.clip(adv + np.float32(step) * np.sign(grad, dtype=np.float32), lo, hi)
    return attacks._quantize(x, adv)


class TestOneForwardPerGradient:
    """Attacks that read their objective from the forward of the gradient they
    weight write the images of the two-pass reference, bit for bit."""

    def test_dnnm_equals_two_pass(self, attack_setup):
        m, _, val = attack_setup
        cfg = attacks.DnnmConfig(hidden_class=1, n_iter=3)
        for s in val[:3]:
            x = s.image.astype(np.float32)
            ref = two_pass_descent(m, x, lambda p: attacks.dnnm_target(
                np.argmax(p, axis=2), cfg.hidden_class, cfg.omega), -cfg.alpha, cfg.eps, 3)
            got = attacks.dnnm_attack(m, s, cfg)
            assert got.dtype == np.float32 and got.tobytes() == ref.tobytes()

    def test_targeted_ifgsm_equals_two_pass(self, attack_setup):
        m, _, val = attack_setup
        cfg = attacks.AttackConfig(eps=4, alpha=1, n_iter=3, targeted=True)
        for s in val[:3]:
            x = s.image.astype(np.float32)
            ones = np.ones(s.labels.shape, np.float32)
            ref = two_pass_descent(m, x, lambda p: (attacks.least_likely_target(p), ones),
                                   -cfg.alpha, cfg.eps, 3)
            got = attacks.ifgsm(m, s, cfg)
            assert got.dtype == np.float32 and got.tobytes() == ref.tobytes()

    def test_ssmm_equals_two_pass(self, attack_setup):
        m, train, _ = attack_setup
        cfg = attacks.SsmmConfig(n_iter=3)
        subset = train[:4]
        target = train[5].labels
        xi = np.zeros(subset[0].image.shape, np.float32)
        eps = np.float32(cfg.eps)
        for _ in range(cfg.n_iter):
            gsum = np.zeros(xi.shape, np.float32)
            for s in subset:
                xadv = np.clip(s.image + xi, 0, 255).astype(np.float32)
                probs = seg_model.predict(m, xadv)
                conf = np.take_along_axis(probs, target[:, :, None], axis=2)[:, :, 0]
                done = (np.argmax(probs, axis=2) == target) & (conf > cfg.tau)
                weights = np.where(done, 0.0, 1.0).astype(np.float32)
                gsum += seg_model.loss_input_grad(m, xadv, target, weights)[1]
            step = np.float32(-cfg.alpha) * np.sign(gsum / len(subset), dtype=np.float32)
            xi = np.clip(xi + step, -eps, eps)
        got = attacks.ssmm_train(m, subset, target, cfg)
        assert got.dtype == np.float32 and got.tobytes() == xi.tobytes()


def test_target_agreement():
    pred = np.array([[0, 1], [1, 1]])
    target = np.array([[0, 1], [0, 1]])
    assert attacks.target_agreement(pred, target) == pytest.approx(0.75)
