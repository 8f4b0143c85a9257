from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdetect import detectors, metrics
from segdetect.errors import InputError
from segdetect.uncertainty import FeatureVector


def scoreset(clean, adv):
    return metrics.ScoreSet(clean=np.asarray(clean, float), adv=np.asarray(adv, float))


class TestApsr:
    def test_identical_zero(self):
        lab = np.arange(16).reshape(4, 4) % 3
        assert metrics.apsr(lab, lab) == 0.0

    def test_all_different_one(self):
        lab = np.zeros((4, 4), int)
        assert metrics.apsr(lab + 1, lab) == 1.0

    def test_quarter(self):
        gt = np.zeros((2, 2), int)
        pred = np.array([[1, 0], [0, 0]])
        assert metrics.apsr(pred, gt) == 0.25

    def test_shape_mismatch_raises(self):
        with pytest.raises(InputError):
            metrics.apsr(np.zeros((2, 2)), np.zeros((3, 3)))


class TestAdaStar:
    def test_perfect_separation(self):
        ada, kappa = metrics.ada_star(scoreset([0.9, 0.8], [0.1, 0.2]))
        assert ada == 1.0
        # smallest kappa on the grid strictly above 0.2 and <= 0.8
        assert 0.2 < kappa <= 0.8

    def test_inseparable_half(self):
        # identical score lists: best is predicting one class everywhere
        ada, kappa = metrics.ada_star(scoreset([0.5, 0.5], [0.5, 0.5]))
        assert ada == 0.5
        assert kappa == 0.0   # smallest kappa attaining the maximum

    def test_known_mixture(self):
        # clean {0.9, 0.6, 0.2}, adv {0.5, 0.1}: at kappa just above 0.5
        # correct = 2 clean + 2 adv = 4/5
        ada, _ = metrics.ada_star(scoreset([0.9, 0.6, 0.2], [0.5, 0.1]))
        assert ada == pytest.approx(0.8)

    def test_at_least_majority_class(self):
        rng = np.random.default_rng(0)
        ss = scoreset(rng.uniform(size=30), rng.uniform(size=10))
        ada, _ = metrics.ada_star(ss)
        assert ada >= 30 / 40

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_bruteforce_grid(self, seed):
        rng = np.random.default_rng(seed)
        ss = scoreset(rng.uniform(size=12), rng.uniform(size=9))
        ada, kappa = metrics.ada_star(ss)
        best, best_k = -1.0, None
        for k in metrics.KAPPA_GRID:
            acc = (np.sum(ss.clean >= k) + np.sum(ss.adv < k)) / 21
            if acc > best:
                best, best_k = acc, k
        assert ada == pytest.approx(best, abs=1e-12)
        assert kappa == pytest.approx(best_k, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(InputError):
            metrics.ada_star(scoreset([], []))


class TestAuroc:
    def test_perfect(self):
        assert metrics.auroc(scoreset([0.9, 0.8], [0.1, 0.2])) == 1.0

    def test_inverted(self):
        assert metrics.auroc(scoreset([0.1, 0.2], [0.8, 0.9])) == 0.0

    def test_hand_computed(self):
        # pairs: (0.9 > 0.6), (0.9 > 0.1), (0.4 < 0.6), (0.4 > 0.1) -> 3/4
        assert metrics.auroc(scoreset([0.9, 0.4], [0.6, 0.1])) == 0.75

    def test_all_ties_half(self):
        assert metrics.auroc(scoreset([0.5, 0.5], [0.5, 0.5, 0.5])) == 0.5

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_bruteforce_pairs(self, seed):
        rng = np.random.default_rng(seed)
        clean = rng.integers(0, 10, size=15) / 10.0
        adv = rng.integers(0, 10, size=11) / 10.0
        ss = scoreset(clean, adv)
        wins = sum(1.0 if c > a else 0.5 if c == a else 0.0
                   for c in clean for a in adv)
        assert metrics.auroc(ss) == pytest.approx(wins / (15 * 11), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        clean = rng.uniform(0.1, 0.9, 20)
        adv = rng.uniform(0.1, 0.9, 20)
        a1 = metrics.auroc(scoreset(clean, adv))
        a2 = metrics.auroc(scoreset(clean ** 3, adv ** 3))
        assert a1 == pytest.approx(a2, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(InputError):
            metrics.auroc(scoreset([0.5], []))


@pytest.mark.parametrize("clean,adv", [([0.2, np.nan, 0.9], [0.1, 0.5]), ([0.2], [np.nan]),
                                       ([1.5], [0.5]), ([0.5], [-0.1])],
                         ids=["nan-clean", "nan-adv", "above-1", "below-0"])
def test_score_set_rejects_a_score_outside_the_unit_interval(clean, adv):
    with pytest.raises(InputError, match=r"^scores must lie in \[0, 1\]$"):
        scoreset(clean, adv)


class TestTprAtFpr:
    def test_perfect_separation(self):
        clean = np.linspace(0.5, 1.0, 40)
        adv = np.linspace(0.0, 0.4, 40)
        assert metrics.tpr_at_fpr(scoreset(clean, adv)) == 1.0

    def test_realized_fpr_within_cap(self):
        rng = np.random.default_rng(2)
        clean = rng.uniform(size=100)
        adv = rng.uniform(size=60)
        ss = scoreset(clean, adv)
        k = int(np.floor(0.05 * 100))
        kappa = np.sort(clean)[k]
        fpr = np.mean(clean < kappa)
        assert fpr <= 0.05
        assert metrics.tpr_at_fpr(ss) == pytest.approx(np.mean(adv < kappa))

    def test_too_few_clean_raises(self):
        with pytest.raises(InputError):
            metrics.tpr_at_fpr(scoreset(np.linspace(0, 1, 10), [0.5]))

    def test_no_overlap_zero(self):
        clean = np.linspace(0.0, 0.4, 40)
        adv = np.linspace(0.5, 1.0, 40)
        assert metrics.tpr_at_fpr(scoreset(clean, adv)) == 0.0


class TestScoreSet:
    def test_out_of_range_raises(self):
        with pytest.raises(InputError):
            scoreset([1.2], [0.5])


class TestMakeFolds:
    def test_partition(self):
        ids = [f"im_{i}" for i in range(23)]
        folds = metrics.make_folds(ids, 5, seed=0)
        flat = [i for f in folds for i in f]
        assert sorted(flat) == sorted(ids)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [4, 4, 5, 5, 5]

    def test_determinism(self):
        ids = [f"im_{i}" for i in range(40)]
        assert metrics.make_folds(ids, 5, 3) == metrics.make_folds(ids, 5, 3)
        assert metrics.make_folds(ids, 5, 3) != metrics.make_folds(ids, 5, 4)

    def test_too_few_ids_raises(self):
        with pytest.raises(InputError):
            metrics.make_folds(["a", "b"], 5, 0)


def entropy_features(n, lnc, level, seed, label="clean", attack=""):
    rng = np.random.default_rng(seed)
    feats = []
    for i in range(n):
        e = float(np.clip(rng.normal(level, 0.05 * lnc), 0, lnc))
        vals = np.array([e, 0.0, 0.0, 0.25, 0.25, 0.25, 0.25])
        feats.append(FeatureVector(values=vals, image_id=f"val_{i:04d}",
                                   label=label, attack=attack))
    return feats


class TestCrossValidate:
    def test_entropy_separation(self):
        lnc = np.log(4)
        clean = entropy_features(100, lnc, 0.2 * lnc, seed=0)
        adv = entropy_features(100, lnc, 0.8 * lnc, seed=1, label="adv", attack="atk")
        rows = metrics.cross_validate(clean, {"atk": adv}, "entropy", {}, [], folds=5, seed=0)
        assert len(rows) == 1
        row = rows[0]
        assert row.detector == "entropy" and row.attack == "atk"
        assert row.ada_mean > 0.95
        assert row.auroc_mean > 0.99
        assert row.tpr_mean > 0.9

    def test_determinism(self):
        lnc = np.log(4)
        clean = entropy_features(60, lnc, 0.3 * lnc, seed=2)
        adv = entropy_features(60, lnc, 0.6 * lnc, seed=3, label="adv", attack="a")
        r1 = metrics.cross_validate(clean, {"a": adv}, "entropy", {}, [], folds=3, seed=1)
        r2 = metrics.cross_validate(clean, {"a": adv}, "entropy", {}, [], folds=3, seed=1)
        assert r1 == r2

    def test_lasso_requires_train_attack(self):
        lnc = np.log(4)
        clean = entropy_features(60, lnc, 0.3 * lnc, seed=4)
        adv = entropy_features(60, lnc, 0.6 * lnc, seed=5, label="adv", attack="a")
        with pytest.raises(InputError, match="training attack 'missing' has no features"):
            metrics.cross_validate(clean, {"a": adv}, "lasso", {}, ["missing"], folds=3, seed=0)


def parent_ada_star(scores):
    """ada_star as a loop over the kappa grid, as it was before it compared
    the whole grid at once."""
    total = len(scores.clean) + len(scores.adv)
    best_ada, best_kappa = -1.0, 0.0
    for kappa in metrics.KAPPA_GRID:
        correct = int(np.sum(scores.clean >= kappa)) + int(np.sum(scores.adv < kappa))
        ada = correct / total
        if ada > best_ada:
            best_ada, best_kappa = ada, float(kappa)
    return best_ada, best_kappa


def parent_cross_validate(clean_features, adv_by_attack, kind, hyperparams, train_attack,
                          folds, seed):
    """cross_validate as it was before its caller named the training attacks:
    every kind gets `train_attack`'s features (only a supervised one reads
    them), and each attack keeps four lists of per-fold values."""
    ids = [f.image_id for f in clean_features]
    per_attack = {tag: {"ada": [], "kappa": [], "auroc": [], "tpr": []} for tag in adv_by_attack}
    for test_ids in metrics.make_folds(ids, folds, seed):
        test_set = set(test_ids)
        train_ids = set(ids) - test_set
        clean_train = [f for f in clean_features if f.image_id in train_ids]
        clean_test = [f for f in clean_features if f.image_id in test_set]
        adv_train = [f for f in adv_by_attack.get(train_attack, []) if f.image_id in train_ids]
        model = detectors.train_detector(kind, clean_train, adv_train, **hyperparams)
        clean_scores = detectors.score_many(model, clean_test)
        for tag, adv_features in adv_by_attack.items():
            adv_test = [f for f in adv_features if f.image_id in test_set]
            ss = metrics.ScoreSet(clean=clean_scores, adv=detectors.score_many(model, adv_test))
            ada, kappa = parent_ada_star(ss)
            per_attack[tag]["ada"].append(ada)
            per_attack[tag]["kappa"].append(kappa)
            per_attack[tag]["auroc"].append(metrics.auroc(ss))
            per_attack[tag]["tpr"].append(metrics.tpr_at_fpr(ss))
    rows = []
    for tag in sorted(per_attack):
        st = per_attack[tag]
        rows.append(metrics.EvalRow(
            detector=kind, attack=tag,
            ada_mean=float(np.mean(st["ada"])), ada_std=float(np.std(st["ada"])),
            kappa_mean=float(np.mean(st["kappa"])),
            auroc_mean=float(np.mean(st["auroc"])), auroc_std=float(np.std(st["auroc"])),
            tpr_mean=float(np.mean(st["tpr"])), tpr_std=float(np.std(st["tpr"]))))
    return rows


def tied_features(n, shift, seed, attack=""):
    """n 4-class feature vectors (entropy, variation ratio, margin, class
    means), drawn from 12 vectors, so that many images share one score."""
    rng = np.random.default_rng(seed)
    pool = rng.normal([0.6, 0.3, 0.4, 0.4, 0.2, 0.2, 0.2], 0.3, (12, 7)) + shift
    values = pool[rng.integers(0, len(pool), n)]
    return [FeatureVector(values=np.abs(v), image_id=f"val_{i:04d}",
                          label="adv" if attack else "clean", attack=attack)
            for i, v in enumerate(values)]


def tied_and_floored_sets():
    """160 clean images (8 folds of 20) and four attacks: the supervised kinds
    train on "train"; "copy" repeats the clean vectors (every score ties), and
    "far" lies beyond every clean one (entropy, ocsvm and ellipse score 0)."""
    clean = tied_features(160, 0.0, seed=0)
    adv = {"train": tied_features(160, 0.5, seed=1, attack="train"),
           "near": tied_features(160, 0.25, seed=2, attack="near"),
           "copy": [FeatureVector(values=f.values, image_id=f.image_id, label="adv",
                                  attack="copy") for f in clean],
           "far": tied_features(160, 40.0, seed=3, attack="far")}
    return clean, adv


# from 8 folds on numpy sums a list pairwise, so the fold means and stds
# also pin the order in which cross_validate sums its folds
@pytest.mark.parametrize("folds", [2, 5, 8])
@pytest.mark.parametrize("kind", sorted(detectors.DETECTORS))
def test_cross_validate_equals_parent_bitwise(kind, folds):
    clean, adv = tied_and_floored_sets()
    train = ["train"] if detectors.is_supervised(kind) else []
    model = detectors.train_detector(kind, clean, adv["train"])
    scores = detectors.score_many(model, clean + adv["near"] + adv["far"])
    assert len(np.unique(scores)) < len(scores) / 2
    assert kind == "lasso" or np.all(detectors.score_many(model, adv["far"]) == 0)
    rows = metrics.cross_validate(clean, adv, kind, {}, train, folds, seed=3)
    expected = parent_cross_validate(clean, adv, kind, {}, "train", folds, seed=3)
    assert [(r.detector, r.attack) for r in rows] == [(r.detector, r.attack) for r in expected]
    for row, ref in zip(rows, expected):
        assert np.array(astuple(row)[2:]).tobytes() == np.array(astuple(ref)[2:]).tobytes(), row


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n_clean=st.integers(0, 30), n_adv=st.integers(0, 30))
def test_ada_star_equals_parent_loop(seed, n_clean, n_adv):
    # scores on a grid coarser and finer than kappa's, with zeros and ones
    rng = np.random.default_rng(seed)
    step = rng.choice([1 / 2, 1 / 39, 1 / 78, 1 / 1000])
    clean, adv = (np.round(rng.uniform(size=n) / step) * step for n in (n_clean, n_adv))
    ss = scoreset(np.minimum(clean, 1.0), np.minimum(adv, 1.0))
    if n_clean + n_adv == 0:
        return
    assert metrics.ada_star(ss) == parent_ada_star(ss)


def test_report_csv_sorted_and_formatted(tmp_path):
    rows = [
        metrics.EvalRow("ocsvm", "b", 0.5, 0.9, 0.01, 0.5, 0.95, 0.02, 0.8, 0.1),
        metrics.EvalRow("entropy", "a", 0.25, 1.0, 0.0, 0.3, 1.0, 0.0, 1.0, 0.0),
    ]
    report = metrics.EvalReport(rows=rows)
    path = tmp_path / "r.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("detector,attack,apsr_mean")
    assert lines[1].startswith("entropy,a,0.25,1,0,")
    assert lines[2].startswith("ocsvm,b,0.5,0.9,")
    report.write_csv(path)
    assert path.read_text().splitlines() == lines
