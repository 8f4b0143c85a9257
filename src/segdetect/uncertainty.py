"""Pixel-wise dispersion measures and the |C|+3 image-level feature vector.

Per pixel: entropy (natural log), variation ratio 1 - max prob, and the
probability margin (variation ratio plus the runner-up probability). Per
image: the spatial means of the three maps plus per-class mean probabilities.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class DispersionMaps:
    entropy: np.ndarray
    variation_ratio: np.ndarray
    margin: np.ndarray


@dataclass
class FeatureVector:
    values: np.ndarray       # (E, V, M, P0, ..., P{C-1})
    image_id: str = ""
    label: str = "clean"     # "clean" or "adv"
    attack: str = ""
    apsr: float = np.nan   # the image's pixel error rate; not a feature

    @property
    def num_classes(self):
        return len(self.values) - 3


def _check_probs(probs):
    if probs.ndim != 3:
        raise InputError(f"probability map must be HxWxC, got shape {probs.shape}")
    sums = probs.sum(axis=2)
    if np.max(np.abs(sums - 1.0)) > 1e-4:
        raise InputError("probability rows do not sum to 1 within 1e-4")


def dispersion_maps(probs):
    _check_probs(probs)
    p = probs.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    entropy = -plogp.sum(axis=2)
    part = np.partition(p, p.shape[2] - 2, axis=2)
    top = part[:, :, -1]
    second = part[:, :, -2]
    variation = 1.0 - top
    margin = variation + second
    return DispersionMaps(entropy=entropy, variation_ratio=variation, margin=margin)


def feature_vector(probs, image_id="", label="clean", attack=""):
    maps = dispersion_maps(probs)
    class_means = probs.astype(np.float64).mean(axis=(0, 1))
    values = np.concatenate([
        [maps.entropy.mean(), maps.variation_ratio.mean(), maps.margin.mean()],
        class_means,
    ])
    return FeatureVector(values=values, image_id=image_id, label=label, attack=attack)


def feature_matrix(features):
    return np.array([f.values for f in features])


def _header(num_classes):
    return ["id", "label", "attack", "apsr", "E", "V", "M"] + [f"P{y}" for y in range(num_classes)]


def write_features(path, features):
    """CSV of the _header columns, rows ordered by id, every float exact."""
    if not features:
        raise InputError("no features to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(features[0].num_classes))
        for f in sorted(features, key=lambda f: f.image_id):
            writer.writerow([f.image_id, f.label, f.attack]
                            + [repr(float(v)) for v in (f.apsr, *f.values)])


def read_features(path):
    """Reads a write_features CSV; raises InputError on any other header."""
    features = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != _header(len(header) - 7):
            raise InputError(f"{path}: not a feature CSV with an apsr column; "
                             "re-extract it with --force or use a fresh --out")
        for row in reader:
            features.append(FeatureVector(values=np.array([float(v) for v in row[4:]]),
                                          image_id=row[0], label=row[1], attack=row[2],
                                          apsr=float(row[3])))
    return features
