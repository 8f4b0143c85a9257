"""Attack-strength and detection metrics plus the k-fold evaluation harness.

APSR: fraction of pixels whose argmax prediction differs from ground truth.
ADA*: best averaged detection accuracy over a 40-point kappa grid.
AUROC: probability a random clean score exceeds a random perturbed one.
TPR5%: true positive rate at a threshold capping the clean FPR at 5%.

cross_validate trains one detector kind on the attacks its caller names (its
training attacks in pipeline._units) and scores it against every attack.
"""

import csv
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import detectors, tensorio
from .errors import InputError

KAPPA_GRID = np.arange(40) / 39.0
MIN_CLEAN_SCORES = 20   # the least a 5% FPR threshold can be read from


@dataclass
class ScoreSet:
    clean: np.ndarray
    adv: np.ndarray

    def __post_init__(self):
        self.clean = np.asarray(self.clean, dtype=np.float64)
        self.adv = np.asarray(self.adv, dtype=np.float64)
        for arr in (self.clean, self.adv):
            if arr.size and not (arr.min() >= 0 and arr.max() <= 1):   # NaN fails both
                raise InputError("scores must lie in [0, 1]")


def apsr(pred, gt):
    """Attack pixel success rate."""
    if pred.shape != gt.shape:
        raise InputError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    return float(np.mean(pred != gt))


def ada_star(scores):
    """Max averaged detection accuracy over kappa in {i/39}; returns
    (ADA*, smallest kappa attaining it)."""
    total = len(scores.clean) + len(scores.adv)
    if total == 0:
        raise InputError("empty score set")
    grid = KAPPA_GRID[:, None]
    correct = np.sum(scores.clean >= grid, axis=1) + np.sum(scores.adv < grid, axis=1)
    best = int(np.argmax(correct))      # the first maximum: the smallest kappa
    return int(correct[best]) / total, float(KAPPA_GRID[best])


def auroc(scores):
    """Rank-based AUROC with ties counted as 1/2 (Mann-Whitney)."""
    if len(scores.clean) == 0 or len(scores.adv) == 0:
        raise InputError("both score lists must be non-empty")
    adv_sorted = np.sort(scores.adv)
    below = np.searchsorted(adv_sorted, scores.clean, side="left")
    ties = np.searchsorted(adv_sorted, scores.clean, side="right") - below
    wins = below.sum() + 0.5 * ties.sum()
    return float(wins / (len(scores.clean) * len(scores.adv)))


def tpr_at_fpr(scores, fpr_cap=0.05):
    """TPR on perturbed scores at the largest threshold whose clean FPR does
    not exceed fpr_cap (empirical clean quantile, not the kappa grid)."""
    n_clean = len(scores.clean)
    if n_clean < MIN_CLEAN_SCORES:
        raise InputError(f"need at least {MIN_CLEAN_SCORES} clean scores for a 5% FPR")
    sorted_clean = np.sort(scores.clean)
    k = int(np.floor(fpr_cap * n_clean))
    kappa = sorted_clean[k]
    return float(np.mean(scores.adv < kappa))


@dataclass
class EvalRow:
    detector: str
    attack: str
    apsr_mean: float = np.nan
    ada_mean: float = np.nan
    ada_std: float = np.nan
    kappa_mean: float = np.nan
    auroc_mean: float = np.nan
    auroc_std: float = np.nan
    tpr_mean: float = np.nan
    tpr_std: float = np.nan


@dataclass
class EvalReport:
    rows: list = field(default_factory=list)

    _FIELDS = [f.name for f in fields(EvalRow)]

    def _table(self):
        return [astuple(r) for r in sorted(self.rows, key=lambda r: (r.detector, r.attack))]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self._FIELDS)
            for vals in self._table():
                writer.writerow([*vals[:2], *(f"{v:.12g}" for v in vals[2:])])

    def write_json(self, path):
        tensorio.write_json(path, [dict(zip(self._FIELDS, vals)) for vals in self._table()])


def make_folds(ids, folds, seed):
    """Seeded disjoint partition of image ids into `folds` groups."""
    ids = sorted(ids)
    if len(ids) < folds:
        raise InputError(f"{len(ids)} ids cannot fill {folds} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    return [[ids[i] for i in order[f::folds]] for f in range(folds)]


def cross_validate(clean_features, adv_by_attack, kind, hyperparams, train_attacks, folds,
                   seed):
    """K-fold evaluation partitioned by image id (a clean image and its
    attacked versions never straddle train/test): each fold trains on its
    training ids' clean features and their features under `train_attacks`.
    Returns one EvalRow per attack, sorted by tag: fold means and stds, no APSR."""
    for tag in train_attacks:
        if tag not in adv_by_attack:
            raise InputError(f"training attack {tag!r} has no features")
    ids = [f.image_id for f in clean_features]
    tags = sorted(adv_by_attack)
    # attack x (ada, kappa, auroc, tpr) x fold: the fold axis is contiguous, so
    # each mean and std sums its folds as numpy sums a list (pairwise from 8 on)
    table = np.empty((len(tags), 4, folds))
    for k, test_ids in enumerate(make_folds(ids, folds, seed)):
        test, train = set(test_ids), set(ids) - set(test_ids)
        model = detectors.train_detector(
            kind, [f for f in clean_features if f.image_id in train],
            [f for tag in train_attacks for f in adv_by_attack[tag] if f.image_id in train],
            **hyperparams)
        clean_scores = detectors.score_many(
            model, [f for f in clean_features if f.image_id in test])
        for i, tag in enumerate(tags):
            ss = ScoreSet(clean_scores, detectors.score_many(
                model, [f for f in adv_by_attack[tag] if f.image_id in test]))
            table[i, :, k] = (*ada_star(ss), auroc(ss), tpr_at_fpr(ss))
    mean, std = table.mean(axis=2), table.std(axis=2)
    return [EvalRow(kind, tag, ada_mean=float(m[0]), ada_std=float(s[0]), kappa_mean=float(m[1]),
                    auroc_mean=float(m[2]), auroc_std=float(s[2]), tpr_mean=float(m[3]),
                    tpr_std=float(s[3]))
            for tag, m, s in zip(tags, mean, std)]
