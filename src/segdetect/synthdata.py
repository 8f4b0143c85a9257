"""Deterministic synthetic segmentation scenes: colored shapes on a noisy background.

Class 0 is background; shape classes cycle through circle, rectangle, triangle.
Images are whole-valued (8-bit scale) so that attack budgets on the 0-255 axis
can be checked exactly. Scenes are drawn in memory only; the pipeline's
gen-data unit writes them and reads them back.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import FINITE_NON_NEGATIVE, Config, at_least, check, ruled

# Muted palette on purpose: class colors close enough that the trained model
# keeps small margins, so sign-gradient attacks have measurable effect.
DEFAULT_PALETTE = [
    (120, 120, 120),  # background
    (160, 110, 110),  # circle
    (110, 160, 110),  # rectangle
    (110, 110, 160),  # triangle
]


def check_hidden_class(section, hidden_class, num_classes):
    """Raises InputError unless hidden_class is below num_classes."""
    check(section, [("hidden_class", hidden_class,
                     (lambda v: v < num_classes, f"< num_classes = {num_classes}"))])


def _numbers(values, kind=numbers.Real):
    """Whether every value is a finite number of `kind`, and not a bool."""
    return all(isinstance(v, kind) and not isinstance(v, bool) and np.isfinite(v) for v in values)


@dataclass
class DatasetConfig(Config, section="dataset"):
    height: int = ruled(64, at_least(32))
    width: int = ruled(64, at_least(32))
    num_classes: int = ruled(4, at_least(3))   # background, a hideable class, its complement
    shapes_per_image: list = field(default_factory=lambda: [3, 5])
    palette: list = field(default_factory=lambda: [list(c) for c in DEFAULT_PALETTE])
    noise_std: float = ruled(25.0, FINITE_NON_NEGATIVE)
    seed: int = ruled(0, at_least(0))
    train_size: int = ruled(200, at_least(1))
    val_size: int = ruled(100, at_least(1))
    hidden_class: int = ruled(1, at_least(1))   # the class the deletion attack targets

    def __post_init__(self):
        super().__post_init__()
        self._check_across()

    def _check_across(self):
        """The rules that span fields or look inside a list."""
        n = self.num_classes
        check("dataset", [
            ("palette", self.palette, (lambda p: len(p) >= n and all(
                isinstance(c, (list, tuple)) and len(c) == 3 and _numbers(c) for c in p),
                f"{n} or more colors, each three finite numbers")),
            ("shapes_per_image", self.shapes_per_image, (lambda s: len(s) == 2 and _numbers(
                s, numbers.Integral) and 0 <= s[0] <= s[1], "[lo, hi] integers, 0 <= lo <= hi"))])
        check_hidden_class("dataset", self.hidden_class, n)


@dataclass
class SegSample:
    image: np.ndarray    # H x W x 3 float32, whole values in [0, 255]
    labels: np.ndarray   # H x W int32 class ids
    id: str = ""


def _paint_circle(rng, img, lab, cls, color, h, w):
    r = int(rng.integers(max(4, min(h, w) // 12), min(h, w) // 4))
    cy = int(rng.integers(r, h - r))
    cx = int(rng.integers(r, w - r))
    yy, xx = np.ogrid[:h, :w]
    mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    img[mask] = color
    lab[mask] = cls


def _paint_rectangle(rng, img, lab, cls, color, h, w):
    rh = int(rng.integers(h // 8, h // 3))
    rw = int(rng.integers(w // 8, w // 3))
    top = int(rng.integers(0, h - rh))
    left = int(rng.integers(0, w - rw))
    img[top:top + rh, left:left + rw] = color
    lab[top:top + rh, left:left + rw] = cls


def _paint_triangle(rng, img, lab, cls, color, h, w):
    size = int(rng.integers(min(h, w) // 6, min(h, w) // 3))
    cy = int(rng.integers(size, h - size))
    cx = int(rng.integers(size, w - size))
    pts = np.array([
        (cy - size, cx),
        (cy + size, cx - size),
        (cy + size, cx + size),
    ], np.float64)
    yy, xx = np.mgrid[:h, :w]
    mask = np.ones((h, w), bool)
    for a in range(3):
        p, q = pts[a], pts[(a + 1) % 3]
        # half-plane test: keep pixels on the interior side of edge p->q
        cross = (q[0] - p[0]) * (xx - p[1]) - (q[1] - p[1]) * (yy - p[0])
        mask &= cross >= 0
    img[mask] = color
    lab[mask] = cls


_PAINTERS = [_paint_circle, _paint_rectangle, _paint_triangle]


def shape_kind(cls):
    """Painter index for a shape class id (1-based over the shape classes)."""
    return (cls - 1) % len(_PAINTERS)


def generate_scene(rng, cfg, sample_id=""):
    """Draw shapes back-to-front, then add Gaussian pixel noise and quantize."""
    h, w = cfg.height, cfg.width
    img = np.empty((h, w, 3), np.float64)
    img[:] = cfg.palette[0]
    lab = np.zeros((h, w), np.int32)
    lo, hi = cfg.shapes_per_image
    n_shapes = int(rng.integers(lo, hi + 1)) if hi > lo else lo
    for _ in range(n_shapes):
        cls = int(rng.integers(1, cfg.num_classes))
        _PAINTERS[shape_kind(cls)](rng, img, lab, cls, cfg.palette[cls], h, w)
    if cfg.noise_std > 0:
        img += rng.normal(0.0, cfg.noise_std, img.shape)
    img = np.clip(np.rint(img), 0, 255).astype(np.float32)
    return SegSample(image=img, labels=lab, id=sample_id)


def generate_samples(cfg, split):
    """In-memory generation of one split with per-sample derived seeds."""
    split_idx = {"train": 0, "val": 1}[split]
    size = cfg.train_size if split == "train" else cfg.val_size
    samples = []
    for i in range(size):
        rng = np.random.default_rng([cfg.seed, split_idx, i])
        samples.append(generate_scene(rng, cfg, sample_id=f"{split}_{i:04d}"))
    return samples


def generate_dataset(cfg):
    """(train samples, val samples) of `cfg`, drawn in memory."""
    return generate_samples(cfg, "train"), generate_samples(cfg, "val")
