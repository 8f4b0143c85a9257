"""Attack-strength and detection metrics plus the 5-fold evaluation harness.

APSR: fraction of pixels whose argmax prediction differs from ground truth.
ADA*: best averaged detection accuracy over a 40-point kappa grid.
AUROC: probability a random clean score exceeds a random perturbed one.
TPR5%: true positive rate at a threshold capping the clean FPR at 5%.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import detectors, tensorio
from .errors import InputError

KAPPA_GRID = np.arange(40) / 39.0


@dataclass
class ScoreSet:
    clean: np.ndarray
    adv: np.ndarray
    detector: str = ""
    attack: str = ""

    def __post_init__(self):
        self.clean = np.asarray(self.clean, dtype=np.float64)
        self.adv = np.asarray(self.adv, dtype=np.float64)
        for arr in (self.clean, self.adv):
            if arr.size and (arr.min() < 0 or arr.max() > 1):
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
    best_ada, best_kappa = -1.0, 0.0
    for kappa in KAPPA_GRID:
        correct = int(np.sum(scores.clean >= kappa)) + int(np.sum(scores.adv < kappa))
        ada = correct / total
        if ada > best_ada:
            best_ada, best_kappa = ada, float(kappa)
    return best_ada, best_kappa


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
    if n_clean < 20:
        raise InputError("need at least 20 clean scores for a 5% FPR")
    sorted_clean = np.sort(scores.clean)
    k = int(np.floor(fpr_cap * n_clean))
    kappa = sorted_clean[k]
    return float(np.mean(scores.adv < kappa))


@dataclass
class EvalRow:
    detector: str
    attack: str
    apsr_mean: float
    ada_mean: float
    ada_std: float
    kappa_mean: float
    auroc_mean: float
    auroc_std: float
    tpr_mean: float
    tpr_std: float


@dataclass
class EvalReport:
    rows: list = field(default_factory=list)

    _FIELDS = ["detector", "attack", "apsr_mean", "ada_mean", "ada_std",
               "kappa_mean", "auroc_mean", "auroc_std", "tpr_mean", "tpr_std"]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self._FIELDS)
            for row in sorted(self.rows, key=lambda r: (r.detector, r.attack)):
                vals = [getattr(row, f) for f in self._FIELDS]
                writer.writerow(vals[:2] + [f"{v:.12g}" for v in vals[2:]])

    def write_json(self, path):
        doc = [{f: getattr(r, f) for f in self._FIELDS}
               for r in sorted(self.rows, key=lambda r: (r.detector, r.attack))]
        tensorio.write_json(path, doc)


def make_folds(ids, folds, seed):
    """Seeded disjoint partition of image ids into `folds` groups."""
    ids = sorted(ids)
    if len(ids) < folds:
        raise InputError(f"{len(ids)} ids cannot fill {folds} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    return [[ids[i] for i in order[f::folds]] for f in range(folds)]


@dataclass
class DetectorSpec:
    kind: str
    train_attack: str = "ifgsm_ll_e2"   # lasso only
    hyperparams: dict = field(default_factory=dict)


def cross_validate(clean_features, adv_by_attack, spec, apsr_by_attack=None,
                   folds=5, seed=0):
    """K-fold evaluation partitioned by image id (a clean image and its
    attacked versions never straddle train/test). Returns one EvalRow per
    attack with mean and std over folds."""
    ids = [f.image_id for f in clean_features]
    fold_ids = make_folds(ids, folds, seed)
    apsr_by_attack = apsr_by_attack or {}
    if (detectors.is_supervised(spec.kind, spec.hyperparams)
            and spec.train_attack not in adv_by_attack):
        raise InputError(f"training attack {spec.train_attack!r} has no features")
    per_attack = {tag: {"ada": [], "kappa": [], "auroc": [], "tpr": []}
                  for tag in adv_by_attack}
    for test_ids in fold_ids:
        test_set = set(test_ids)
        train_ids = set(ids) - test_set
        clean_train = [f for f in clean_features if f.image_id in train_ids]
        clean_test = [f for f in clean_features if f.image_id in test_set]
        adv_train = [f for f in adv_by_attack.get(spec.train_attack, [])
                     if f.image_id in train_ids]
        model = detectors.train_detector(spec.kind, clean_train, adv_train, **spec.hyperparams)
        clean_scores = detectors.score_many(model, clean_test)
        for tag, adv_features in adv_by_attack.items():
            adv_test = [f for f in adv_features if f.image_id in test_set]
            adv_scores = detectors.score_many(model, adv_test)
            ss = ScoreSet(clean=clean_scores, adv=adv_scores,
                          detector=spec.kind, attack=tag)
            ada, kappa = ada_star(ss)
            per_attack[tag]["ada"].append(ada)
            per_attack[tag]["kappa"].append(kappa)
            per_attack[tag]["auroc"].append(auroc(ss))
            per_attack[tag]["tpr"].append(tpr_at_fpr(ss))
    rows = []
    for tag in sorted(per_attack):
        st = per_attack[tag]
        rows.append(EvalRow(
            detector=spec.kind, attack=tag,
            apsr_mean=float(apsr_by_attack.get(tag, float("nan"))),
            ada_mean=float(np.mean(st["ada"])), ada_std=float(np.std(st["ada"])),
            kappa_mean=float(np.mean(st["kappa"])),
            auroc_mean=float(np.mean(st["auroc"])), auroc_std=float(np.std(st["auroc"])),
            tpr_mean=float(np.mean(st["tpr"])), tpr_std=float(np.std(st["tpr"])),
        ))
    return EvalReport(rows=rows)
