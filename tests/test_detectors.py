import numpy as np
import pytest

from segdetect import detectors
from segdetect.errors import InputError
from segdetect.uncertainty import FeatureVector


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
        assert detectors.score(m, f) == pytest.approx(0.5, abs=1e-12)
        f0 = FeatureVector(values=np.array([0.0, 0, 0, 1, 0, 0, 0]))
        assert detectors.score(m, f0) == 1.0
        fmax = FeatureVector(values=np.array([lnc, 0, 0, 0.25, 0.25, 0.25, 0.25]))
        assert detectors.score(m, fmax) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_entropy(self):
        m = detectors.train_entropy(make_features(np.zeros((2, 7))))
        scores = [detectors.score(m, FeatureVector(
            values=np.array([e, 0, 0, 0.25, 0.25, 0.25, 0.25])))
            for e in np.linspace(0, np.log(4), 10)]
        assert all(a >= b for a, b in zip(scores, scores[1:]))


class TestLassoDetector:
    def test_huge_lambda_zeroes_weights(self):
        clean = gaussian_features(seed=1)
        adv = gaussian_features(seed=2, shift=3.0)
        m = detectors.train_lasso(clean, adv, lam=1e6)
        assert np.all(m.params["w"] == 0)

    def test_separable_perfect_at_half(self):
        clean = gaussian_features(n=40, seed=3)
        adv = gaussian_features(n=40, seed=4, shift=10.0)
        m = detectors.train_lasso(clean, adv, lam=1e-4)
        for f in clean:
            assert detectors.classify(detectors.score(m, f), 0.5) == "clean"
        for f in adv:
            assert detectors.classify(detectors.score(m, f), 0.5) == "perturbed"

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
        assert detectors.train_lasso(clean, adv, max_iter=5).params["iterations"] == 5
        easy = detectors.train_lasso(clean, adv, lam=0.5, max_iter=10_000)
        assert easy.params["iterations"] < 10_000

    def test_missing_side_raises(self):
        with pytest.raises(InputError):
            detectors.train_lasso(gaussian_features(), [])


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
        assert detectors.score(m, center) >= 0.5
        assert detectors.score(m, far) <= 0.05

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
        assert detectors.score(m, FeatureVector(values=mean_vals)) == 1.0

    def test_far_point_scores_zero(self):
        feats = gaussian_features(n=60, d=3, seed=17)
        m = detectors.train_ellipse(feats)
        assert detectors.score(m, FeatureVector(values=np.full(3, 50.0))) == 0.0

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
def test_score_is_one_row_of_score_many(kind):
    m, clean = train_kind(kind)
    for f in clean[:10]:
        assert detectors.score(m, f) == detectors.score_many(m, [f])[0]


@pytest.mark.parametrize("kind", detectors.DETECTORS)
def test_unknown_hyperparameter_names_kind(kind):
    with pytest.raises(InputError, match=kind):
        detectors.train_detector(kind, gaussian_features(), gaussian_features(), foo=1)


def test_unknown_kind_raises():
    with pytest.raises(InputError, match="unknown detector kind"):
        detectors.train_detector("knn", gaussian_features())
    with pytest.raises(InputError, match="unknown detector kind"):
        detectors.score(detectors.DetectorModel(kind="knn", params={}), np.zeros(3))


def test_only_lasso_is_supervised():
    assert [k for k in detectors.DETECTORS if detectors.is_supervised(k)] == ["lasso"]
