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


def _classes(p):
    """The class slices of an H x W x C map, in class order."""
    return [p[..., c] for c in range(p.shape[2])]


def _check_probs(probs):
    if probs.ndim != 3:
        raise InputError(f"probability map must be HxWxC, got shape {probs.shape}")
    if not (np.min(probs) >= 0 and np.max(probs) <= 1):    # NaN fails both
        raise InputError("probabilities must lie in [0, 1]")
    # the classes summed in order, as probs.sum(axis=2) sums below 8 classes,
    # without its slow reduction over the short class axis
    sums = np.add.reduce(_classes(probs))
    if np.max(np.abs(sums - 1.0)) > 1e-4:
        raise InputError("probability rows do not sum to 1 within 1e-4")


def _dispersion(p):
    """dispersion_maps of a checked float64 map. The entropy sums the classes
    in order, and the top two probabilities are a running maximum and
    runner-up: below 8 classes the bits of a sum over the class axis and of
    np.partition, at a fraction of their cost."""
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = [np.where(pc > 0, pc * np.log(pc), 0.0) for pc in _classes(p)]
    entropy = -np.add.reduce(plogp)
    p0, p1, *rest = _classes(p)
    top, second = np.maximum(p0, p1), np.minimum(p0, p1)
    for pc in rest:
        second = np.maximum(second, np.minimum(top, pc))
        top = np.maximum(top, pc)
    variation = 1.0 - top
    margin = variation + second
    return DispersionMaps(entropy=entropy, variation_ratio=variation, margin=margin)


def dispersion_maps(probs):
    _check_probs(probs)
    return _dispersion(probs.astype(np.float64))


def feature_vector(probs, image_id="", label="clean", attack=""):
    _check_probs(probs)
    p = probs.astype(np.float64)
    maps = _dispersion(p)
    values = np.concatenate([
        [maps.entropy.mean(), maps.variation_ratio.mean(), maps.margin.mean()],
        p.mean(axis=(0, 1)),
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
