"""Deterministic synthetic segmentation scenes: colored shapes on a noisy background.

Class 0 is background; shape classes cycle through circle, rectangle, triangle.
Images are whole-valued (8-bit scale) so that attack budgets on the 0-255 axis
can be checked exactly. Scenes are drawn in memory only; the pipeline's
gen-data unit writes them and reads them back.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

# Muted palette on purpose: class colors close enough that the trained model
# keeps small margins, so sign-gradient attacks have measurable effect.
DEFAULT_PALETTE = [
    (120, 120, 120),  # background
    (160, 110, 110),  # circle
    (110, 160, 110),  # rectangle
    (110, 110, 160),  # triangle
]


def check_hidden_class(hidden_class, num_classes):
    """Raises InputError unless hidden_class names a shape class (not the background)."""
    if not 1 <= hidden_class < num_classes:
        raise InputError(f"hidden_class must be in [1, {num_classes - 1}], got {hidden_class}")


@dataclass
class DatasetConfig:
    height: int = 64
    width: int = 64
    num_classes: int = 4
    shapes_per_image: list = field(default_factory=lambda: [3, 5])
    palette: list = field(default_factory=lambda: [list(c) for c in DEFAULT_PALETTE])
    noise_std: float = 25.0
    seed: int = 0
    train_size: int = 200
    val_size: int = 100
    hidden_class: int = 1   # the class the deletion attack targets

    def __post_init__(self):
        if self.num_classes < 3:
            raise InputError("need at least 3 classes (background + a hideable class + complement)")
        if self.height < 32 or self.width < 32:
            raise InputError("images must be at least 32x32")
        if len(self.palette) < self.num_classes:
            raise InputError("palette must cover every class")
        for color in self.palette:
            if not (isinstance(color, (list, tuple)) and len(color) == 3 and all(
                    isinstance(v, numbers.Real) and not isinstance(v, bool) and np.isfinite(v)
                    for v in color)):
                raise InputError(f"palette entries must be three finite numbers, got {color}")
        check_hidden_class(self.hidden_class, self.num_classes)
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
                   for n in self.shapes_per_image):
            raise InputError(f"shapes_per_image entries must be integers, "
                             f"got {self.shapes_per_image}")
        if len(self.shapes_per_image) != 2 or not (
                0 <= self.shapes_per_image[0] <= self.shapes_per_image[1]):
            raise InputError(f"shapes_per_image must be [lo, hi] with 0 <= lo <= hi, "
                             f"got {self.shapes_per_image}")
        if not 0 <= self.noise_std < np.inf:     # NaN fails too
            raise InputError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.train_size < 1 or self.val_size < 1:
            raise InputError("train_size and val_size must be >= 1")
        if self.seed < 0:
            raise InputError(f"dataset seed must be >= 0, got {self.seed}")


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
