import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdetect import detectors
from segdetect.errors import InputError, TrainingError
from segdetect.uncertainty import FeatureVector, feature_matrix


def make_features(x, label="clean"):
    return [FeatureVector(values=np.asarray(row, np.float64),
                          image_id=f"im_{i:04d}", label=label)
            for i, row in enumerate(np.atleast_2d(x))]


def gaussian_features(n=60, d=5, seed=0, shift=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) + shift
    return make_features(x)


class TestStandardizer:
    def test_mean_zero_std_one(self, rng):
        x = rng.normal(3.0, 2.0, (40, 4))
        std = detectors.Standardizer.fit(x)
        z = std.transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_dropped(self, rng):
        x = rng.normal(size=(30, 3))
        x[:, 1] = 7.0
        std = detectors.Standardizer.fit(x)
        assert std.transform(x).shape == (30, 2)

    def test_length_mismatch_raises(self, rng):
        std = detectors.Standardizer.fit(rng.normal(size=(10, 4)))
        with pytest.raises(InputError):
            std.transform(np.zeros((2, 3)))


class TestEntropyDetector:
    def test_score_mapping(self):
        # C = 4: p = 1 - E / ln4
        feats = make_features(np.zeros((2, 7)))
        m = detectors.train_entropy(feats)
        lnc = np.log(4)
        f = FeatureVector(values=np.array([0.5 * lnc, 0, 0, 0.25, 0.25, 0.25, 0.25]))
        assert detectors.score_many(m, [f])[0] == pytest.approx(0.5, abs=1e-12)
        f0 = FeatureVector(values=np.array([0.0, 0, 0, 1, 0, 0, 0]))
        assert detectors.score_many(m, [f0])[0] == 1.0
        fmax = FeatureVector(values=np.array([lnc, 0, 0, 0.25, 0.25, 0.25, 0.25]))
        assert detectors.score_many(m, [fmax])[0] == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_entropy(self):
        m = detectors.train_entropy(make_features(np.zeros((2, 7))))
        scores = detectors.score_many(m, [FeatureVector(
            values=np.array([e, 0, 0, 0.25, 0.25, 0.25, 0.25]))
            for e in np.linspace(0, np.log(4), 10)])
        assert all(a >= b for a, b in zip(scores, scores[1:]))


class TestLassoDetector:
    def test_huge_lambda_zeroes_weights(self):
        clean = gaussian_features(seed=1)
        adv = gaussian_features(seed=2, shift=3.0)
        m = detectors.train_lasso(clean, adv, lam=1e6)
        assert np.all(m.params["w"] == 0)
        assert m.params["iterations"] == 0 and m.params["kkt_residual"] == 0.0

    def test_separable_perfect_at_half(self):
        clean = gaussian_features(n=40, seed=3)
        adv = gaussian_features(n=40, seed=4, shift=10.0)
        m = detectors.train_lasso(clean, adv, lam=1e-4)
        for p in detectors.score_many(m, clean):
            assert detectors.classify(p, 0.5) == "clean"
        for p in detectors.score_many(m, adv):
            assert detectors.classify(p, 0.5) == "perturbed"

    def test_lambda_zero_stationarity(self):
        # overlapping classes so the unregularized optimum is finite; at
        # convergence the logistic gradient must vanish
        clean = gaussian_features(n=80, seed=5)
        adv = gaussian_features(n=80, seed=6, shift=0.5)
        m = detectors.train_lasso(clean, adv, lam=0.0, tol=1e-12)
        std = m.standardizer
        from segdetect.uncertainty import feature_matrix
        x = np.vstack([std.transform(feature_matrix(clean)),
                       std.transform(feature_matrix(adv))])
        y = np.concatenate([np.ones(80), np.zeros(80)])
        p = 1.0 / (1.0 + np.exp(-(x @ m.params["w"] + m.params["b"])))
        grad = x.T @ (p - y) / len(y)
        assert np.max(np.abs(grad)) < 1e-6
        assert abs(np.mean(p - y)) < 1e-6

    def test_duplicated_column_scores_stable(self):
        rng = np.random.default_rng(7)
        base_c = rng.normal(size=(50, 4))
        base_a = rng.normal(size=(50, 4)) + 2.0
        clean, adv = make_features(base_c), make_features(base_a, "adv")
        dup_c = make_features(np.hstack([base_c, base_c[:, :1]]))
        dup_a = make_features(np.hstack([base_a, base_a[:, :1]]), "adv")
        m1 = detectors.train_lasso(clean, adv, lam=0.01)
        m2 = detectors.train_lasso(dup_c, dup_a, lam=0.01)
        s1 = detectors.score_many(m1, clean)
        s2 = detectors.score_many(m2, dup_c)
        np.testing.assert_allclose(s1, s2, atol=1e-4)

    def test_shuffle_invariance(self):
        clean = gaussian_features(n=50, seed=8)
        adv = gaussian_features(n=50, seed=9, shift=1.0)
        rng = np.random.default_rng(10)
        perm = rng.permutation(50)
        m1 = detectors.train_lasso(clean, adv, lam=0.01)
        m2 = detectors.train_lasso([clean[i] for i in perm],
                                   [adv[i] for i in perm], lam=0.01)
        np.testing.assert_allclose(detectors.score_many(m1, clean),
                                   detectors.score_many(m2, clean), atol=1e-4)

    def test_records_iterations_run(self):
        clean = gaussian_features(n=40, seed=3)
        adv = gaussian_features(n=40, seed=4, shift=3.0)
        with pytest.raises(TrainingError, match="KKT residual .* after 2 iterations"):
            detectors.train_lasso(clean, adv, lam=0.01, max_iter=2)
        easy = detectors.train_lasso(clean, adv, lam=0.5)
        assert 1 <= easy.params["iterations"] < detectors.hyperparameters("lasso")["max_iter"]
        assert easy.params["kkt_residual"] < 1e-9

    @pytest.mark.parametrize("key,value", [
        ("lam", -1.0), ("lam", float("nan")), ("lam", float("inf")),
        ("tol", 0.0), ("tol", -1e-9), ("tol", float("inf")), ("tol", True), ("max_iter", 0),
        ("max_iter", True)])
    def test_bad_hyperparameter_raises(self, key, value):
        with pytest.raises(InputError, match=f"lasso key {key}"):
            detectors.train_lasso(gaussian_features(), gaussian_features(shift=3.0),
                                  **{key: value})

    def test_missing_side_raises(self):
        with pytest.raises(InputError):
            detectors.train_lasso(gaussian_features(), [])


@pytest.mark.parametrize("kind,key,value,rule", [
    ("ellipse", "shrinkage", -1.0, "finite and >= 0"),
    ("ellipse", "shrinkage", float("nan"), "finite and >= 0"),
    ("ellipse", "shrinkage", float("inf"), "finite and >= 0"),
    ("ocsvm", "gamma", -1.0, "None or finite and > 0"),
    ("ocsvm", "gamma", 0.0, "None or finite and > 0"),
    ("ocsvm", "gamma", float("nan"), "None or finite and > 0"),
    ("ocsvm", "gamma", "x", "None or finite and > 0"),
    ("ocsvm", "gamma", True, "None or finite and > 0"),
    ("ocsvm", "tol", 0.0, "finite and > 0"),
    ("ocsvm", "tol", -1e-6, "finite and > 0"),
    ("ocsvm", "tol", float("inf"), "finite and > 0"),
    ("ocsvm", "max_updates", 0, ">= 1"),
    ("ocsvm", "max_updates", True, ">= 1"),
    ("ellipse", "shrinkage", True, "finite and >= 0"),
])
def test_bad_novelty_hyperparameter_raises(kind, key, value, rule):
    """A value that would train a detector of meaningless scores fails, naming the key."""
    with pytest.raises(InputError) as exc:
        detectors.train_detector(kind, gaussian_features(), **{key: value})
    assert str(exc.value) == f"{kind} key {key}: must be {rule}, got {value!r}"


def lasso_kkt_residual(model, clean, adv):
    """The KKT residual of a lasso model, in plain numpy from its weights."""
    std = model.standardizer
    x = np.vstack([std.transform(feature_matrix(clean)), std.transform(feature_matrix(adv))])
    y = np.concatenate([np.ones(len(clean)), np.zeros(len(adv))])
    w, b, lam = model.params["w"], model.params["b"], model.params["lambda"]
    t = x @ w + b
    r = np.exp(-np.logaddexp(0.0, -t)) - y     # sigmoid(t) - y
    gw, gb = x.T @ r / len(y), np.mean(r)
    nz = w != 0
    return max(abs(gb), *np.abs(gw[nz] + lam * np.sign(w[nz])),
               *np.maximum(np.abs(gw[~nz]) - lam, 0.0))


def a7_instance():
    rng = np.random.default_rng(6)
    train = make_features(rng.normal(size=(100, 5)))
    rng.normal(size=(50, 5))    # A7's held-out draw
    return train, make_features(rng.normal(size=(80, 5)) + 8.0, "adv"), 1e-4


def duplicated_column_instance():
    rng = np.random.default_rng(7)
    base_c = rng.normal(size=(50, 4))
    base_a = rng.normal(size=(50, 4)) + 2.0
    return (make_features(np.hstack([base_c, base_c[:, :1]])),
            make_features(np.hstack([base_a, base_a[:, :1]]), "adv"), 0.01)


class TestLassoCertificate:
    """Every fit stops on its KKT certificate, checked here independently."""

    @pytest.mark.parametrize("case", [
        a7_instance,
        lambda: (gaussian_features(n=40, seed=3), gaussian_features(n=40, seed=4, shift=10.0),
                 1e-4),
        lambda: (gaussian_features(n=80, seed=5), gaussian_features(n=80, seed=6, shift=0.5), 0.0),
        duplicated_column_instance,
        lambda: (gaussian_features(seed=1), gaussian_features(seed=2, shift=3.0), 1e6),
    ], ids=["a7", "separable_shift10", "lambda0_overlap", "duplicated_column", "lambda1e6"])
    def test_certified(self, case):
        clean, adv, lam = case()
        m = detectors.train_lasso(clean, adv, lam=lam)
        assert m.params["kkt_residual"] < 1e-9
        assert lasso_kkt_residual(m, clean, adv) < 1e-9
        assert m.params["iterations"] <= 20

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(20, 80), d=st.integers(1, 8), shift=st.floats(0, 10),
           lam=st.sampled_from([0.0, 1e-4, 1e-2, 1.0]), seed=st.integers(0, 10_000))
    def test_random_problems_certify(self, n, d, shift, lam, seed):
        clean = gaussian_features(n=n, d=d, seed=seed)
        adv = gaussian_features(n=n, d=d, seed=seed + 1, shift=shift)
        m = detectors.train_lasso(clean, adv, lam=lam)
        assert lasso_kkt_residual(m, clean, adv) < 1e-9

    @pytest.mark.parametrize("lam", [1e-8, 0.01])
    def test_features_1e12_deviations_apart_certify(self, lam):
        # a near-constant clean feature standardizes this far out; the absolute
        # tol of 1e-9 then lies below the gradient's rounding
        rng = np.random.default_rng(0)
        clean = make_features(rng.normal(size=(30, 1)))
        adv = make_features(-1e12 * (1.0 + rng.uniform(size=(30, 1))), "adv")
        m = detectors.train_lasso(clean, adv, lam=lam)
        z = m.standardizer.transform(np.vstack([feature_matrix(clean), feature_matrix(adv)]))
        assert m.params["kkt_residual"] < 60 * np.finfo(float).eps * np.abs(z).max()
        assert detectors.score_many(m, clean).min() > 0.99
        assert detectors.score_many(m, adv).max() < 0.01

    def test_matches_accelerated_proximal_gradient(self):
        # one feature, nearly separable, intercept near 7: the shape of the
        # benchmark's fits, which proximal gradient methods reach only slowly
        rng = np.random.default_rng(3)
        clean = make_features(rng.normal(size=(40, 1)))
        adv = make_features(12.0 + 3.0 * rng.normal(size=(40, 1)), "adv")
        m = detectors.train_lasso(clean, adv, lam=0.01)
        z = m.standardizer.transform(np.vstack([feature_matrix(clean), feature_matrix(adv)]))
        x1 = np.hstack([z, np.ones((80, 1))])
        y = np.concatenate([np.ones(40), np.zeros(40)])
        # FISTA with gradient restart, intercept unpenalised, step 1/L exactly
        step = 4 * len(y) / np.linalg.norm(x1, 2) ** 2
        theta, v, tk = np.zeros(2), np.zeros(2), 1.0
        for _ in range(100_000):
            nxt = v - step * (x1.T @ (np.exp(-np.logaddexp(0.0, -(x1 @ v))) - y) / len(y))
            nxt[0] = np.sign(nxt[0]) * max(abs(nxt[0]) - step * 0.01, 0.0)
            if np.max(np.abs(nxt - v)) < 1e-11 * step:
                theta = nxt
                break
            tk = 1.0 if (v - nxt) @ (nxt - theta) > 0 else tk
            tn = (1 + np.sqrt(1 + 4 * tk * tk)) / 2
            v, theta, tk = nxt + (tk - 1) / tn * (nxt - theta), nxt, tn
        else:
            pytest.fail("reference did not converge")
        assert 6.0 < theta[1] < 8.0
        np.testing.assert_allclose([*m.params["w"], m.params["b"]], theta, atol=1e-5)


def model_kkt(g, h, theta, lam, z, skip=()):
    """Largest violation of the optimality of z for the Newton step's model
    g.(z - theta) + (z - theta).H(z - theta)/2 + lam |z[:-1]|_1."""
    grad = g + h @ (z - theta)
    out = [abs(grad[-1])]
    for j in range(len(z) - 1):
        if j not in skip:
            out.append(abs(grad[j] + lam * np.sign(z[j])) if z[j] else max(abs(grad[j]) - lam, 0))
    return max(out)


class TestNewtonStep:
    def test_solves_the_model(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(6, 5))
            h, g, theta = a.T @ a / 6, rng.normal(size=5), rng.normal(size=5)
            z = detectors._newton_step(g, h, theta, 0.3, 1e-13)
            assert model_kkt(g, h, theta, 0.3, z) < 1e-9

    def test_every_curvature_zero(self):
        # every p(1-p) underflowed to 0: each coordinate's model is linear, so
        # a weight with |gradient| <= lam goes to 0 and the rest stay put
        g, theta = np.array([0.5, -2.0, 0.3]), np.array([1.0, -1.0, 4.0])
        z = detectors._newton_step(g, np.zeros((3, 3)), theta, 1.0, 1e-12)
        assert z.tolist() == [0.0, -1.0, 4.0]

    def test_zero_column(self):
        # a feature that is 0 on every training row: its H row and column are
        # 0 and its linear model is unbounded, so it stays; the other
        # coordinates still solve their model, thresholded by lam / H_jj
        h = np.array([[0.0, 0.0, 0.0], [0.0, 4.0, 0.5], [0.0, 0.5, 1.0]])
        g, theta = np.array([3.0, -1.5, 0.2]), np.zeros(3)
        z = detectors._newton_step(g, h, theta, 1.0, 1e-14)
        assert z[0] == 0.0 and z[1] > 0
        assert model_kkt(g, h, theta, 1.0, z, skip=(0,)) < 1e-9


class TestOcsvmDetector:
    def test_dual_constraints(self):
        m = detectors.train_ocsvm(gaussian_features(n=60, seed=11), nu=0.1)
        alpha = m.params["alpha"]
        n = len(alpha)
        box = 1.0 / (0.1 * n)
        assert abs(alpha.sum() - 1.0) < 1e-6
        assert np.all(alpha >= -1e-12) and np.all(alpha <= box + 1e-12)

    def test_center_scores_high_outlier_low(self):
        feats = gaussian_features(n=80, d=4, seed=12)
        m = detectors.train_ocsvm(feats, nu=0.1)
        center = FeatureVector(values=np.zeros(4))
        far = FeatureVector(values=np.full(4, 10.0))
        assert detectors.score_many(m, [center])[0] >= 0.5
        assert detectors.score_many(m, [far])[0] <= 0.05

    def test_shuffle_invariance(self):
        feats = gaussian_features(n=50, d=4, seed=13)
        perm = np.random.default_rng(14).permutation(50)
        m1 = detectors.train_ocsvm(feats, nu=0.2)
        m2 = detectors.train_ocsvm([feats[i] for i in perm], nu=0.2)
        probe = gaussian_features(n=20, d=4, seed=15)
        np.testing.assert_allclose(detectors.score_many(m1, probe),
                                   detectors.score_many(m2, probe), atol=1e-3)

    def test_bad_nu_raises(self):
        with pytest.raises(InputError):
            detectors.train_ocsvm(gaussian_features(), nu=1.5)

    def test_too_few_samples_raises(self):
        with pytest.raises(InputError):
            detectors.train_ocsvm(gaussian_features(n=5))


class TestEllipseDetector:
    def test_train_mean_scores_one(self):
        feats = gaussian_features(n=60, d=3, seed=16)
        m = detectors.train_ellipse(feats)
        # the training mean has Mahalanobis distance ~0: every training point
        # is at least as far out, so the survival probability is 1
        mean_vals = np.mean([f.values for f in feats], axis=0)
        assert detectors.score_many(m, [FeatureVector(values=mean_vals)])[0] == 1.0

    def test_far_point_scores_zero(self):
        feats = gaussian_features(n=60, d=3, seed=17)
        m = detectors.train_ellipse(feats)
        assert detectors.score_many(m, [FeatureVector(values=np.full(3, 50.0))])[0] == 0.0

    def test_mahalanobis_2x2_oracle(self):
        # diagonal covariance: distance reduces to scaled Euclidean; check a
        # hand-invertible 2x2 precision
        m = detectors.DetectorModel(
            kind="ellipse",
            params={"mu": np.array([1.0, 2.0]),
                    "precision": np.array([[4.0, 0.0], [0.0, 0.25]]),
                    "train_m": np.array([0.0])},
            standardizer=None)
        d = detectors.mahalanobis(m, np.array([[2.0, 4.0]]))[0]
        assert d == pytest.approx(np.sqrt(4 * 1 + 0.25 * 4), abs=1e-8)

    def test_shuffle_invariance(self):
        feats = gaussian_features(n=50, d=4, seed=18)
        perm = np.random.default_rng(19).permutation(50)
        m1 = detectors.train_ellipse(feats)
        m2 = detectors.train_ellipse([feats[i] for i in perm])
        probe = gaussian_features(n=20, d=4, seed=20)
        np.testing.assert_allclose(detectors.score_many(m1, probe),
                                   detectors.score_many(m2, probe), atol=1e-4)

    def test_too_few_samples_raises(self):
        with pytest.raises(InputError):
            detectors.train_ellipse(gaussian_features(n=4, d=5))


class TestClassify:
    def test_boundary_counts_as_clean(self):
        assert detectors.classify(0.5, 0.5) == "clean"

    def test_kappa_zero_never_perturbed(self):
        assert detectors.classify(0.0, 0.0) == "clean"

    def test_below_threshold_perturbed(self):
        assert detectors.classify(0.3, 0.5) == "perturbed"

    def test_out_of_range_raises(self):
        with pytest.raises(InputError):
            detectors.classify(1.5, 0.5)
        with pytest.raises(InputError):
            detectors.classify(0.5, -0.1)


def train_kind(kind):
    """A `kind` model trained through the registry, and its clean features."""
    clean = gaussian_features(n=50, d=4, seed=21)
    adv = gaussian_features(n=50, d=4, seed=22, shift=2.0)
    if kind == "entropy":
        clean = make_features(np.abs(np.random.default_rng(23).normal(size=(50, 7))))
    return detectors.train_detector(kind, clean, adv), clean


@pytest.mark.parametrize("kind", detectors.DETECTORS)
def test_serialization_roundtrip(tmp_path, kind):
    m, clean = train_kind(kind)
    path = tmp_path / f"{kind}.json"
    detectors.save_detector(m, path)
    back = detectors.load_detector(path)
    assert back.kind == kind
    probe = clean[:10]
    np.testing.assert_allclose(detectors.score_many(back, probe),
                               detectors.score_many(m, probe), atol=1e-12)


@pytest.mark.parametrize("kind", detectors.DETECTORS)
def test_unknown_hyperparameter_names_kind(kind):
    with pytest.raises(InputError, match=kind):
        detectors.train_detector(kind, gaussian_features(), gaussian_features(), foo=1)


def test_unknown_kind_raises():
    with pytest.raises(InputError, match="unknown detector kind"):
        detectors.train_detector("knn", gaussian_features())
    with pytest.raises(InputError, match="unknown detector kind"):
        detectors.score_many(detectors.DetectorModel(kind="knn", params={}),
                             [FeatureVector(values=np.zeros(3))])


def test_only_lasso_is_supervised():
    assert [k for k in detectors.DETECTORS if detectors.is_supervised(k)] == ["lasso"]
