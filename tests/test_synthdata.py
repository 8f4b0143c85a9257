import dataclasses
import hashlib
import json

import numpy as np
import pytest

from segdetect import synthdata
from segdetect.errors import InputError


class TestConfig:
    def test_defaults_valid(self):
        cfg = synthdata.DatasetConfig()
        assert cfg.num_classes == 4 and cfg.height == 64

    def test_too_few_classes_raises(self):
        with pytest.raises(InputError):
            synthdata.DatasetConfig(num_classes=2)

    def test_tiny_images_raise(self):
        with pytest.raises(InputError):
            synthdata.DatasetConfig(height=16)

    def test_short_palette_raises(self):
        with pytest.raises(InputError):
            synthdata.DatasetConfig(palette=[[0, 0, 0], [1, 1, 1]])

    def test_dict_roundtrip(self):
        cfg = synthdata.DatasetConfig(noise_std=5.0, seed=3)
        back = synthdata.DatasetConfig(**json.loads(json.dumps(dataclasses.asdict(cfg))))
        assert back == cfg


class TestScene:
    def test_zero_shapes_pure_background(self):
        cfg = synthdata.DatasetConfig(shapes_per_image=(0, 0), noise_std=0.0)
        s = synthdata.generate_scene(np.random.default_rng(0), cfg)
        assert np.all(s.labels == 0)
        assert np.all(s.image == np.array(cfg.palette[0], np.float32))

    def test_noise_free_image_matches_palette(self):
        cfg = synthdata.DatasetConfig(noise_std=0.0)
        s = synthdata.generate_scene(np.random.default_rng(1), cfg)
        palette = np.array(cfg.palette, np.float32)
        np.testing.assert_array_equal(s.image, palette[s.labels])

    def test_images_whole_valued_and_in_range(self):
        cfg = synthdata.DatasetConfig()
        s = synthdata.generate_scene(np.random.default_rng(2), cfg)
        assert s.image.dtype == np.float32
        assert np.all(s.image == np.rint(s.image))
        assert s.image.min() >= 0 and s.image.max() <= 255

    def test_labels_in_range(self):
        cfg = synthdata.DatasetConfig()
        s = synthdata.generate_scene(np.random.default_rng(3), cfg)
        assert s.labels.dtype == np.int32
        assert s.labels.min() >= 0 and s.labels.max() < cfg.num_classes

    def test_scene_determinism(self):
        cfg = synthdata.DatasetConfig()
        a = synthdata.generate_scene(np.random.default_rng(4), cfg)
        b = synthdata.generate_scene(np.random.default_rng(4), cfg)
        assert a.image.tobytes() == b.image.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()


def split_digest(samples):
    d = hashlib.sha256()
    for s in samples:
        d.update(s.image.tobytes())
        d.update(s.labels.tobytes())
    return d.hexdigest()


class TestSceneSizes:
    @pytest.mark.parametrize("height,width,digest", [
        (64, 64, "174bfaaaf92a8094f00b07c8a2f734ab90d4c0c2cc43a2bdf3244b2a15676f50"),
        (48, 96, "66461518aacb54d0a4e33c9204d3030a47fc179d99df4d76a2a5590181d0e6da"),
        (32, 40, "6e1ec5a2094fa28fef6e697d7ab010d8d3c7ff61c92af670a0e8a8a6f9822223")],
        ids=["64x64", "48x96", "32x40"])
    def test_square_and_wide_scene_bytes_are_pinned(self, height, width, digest):
        cfg = synthdata.DatasetConfig(height=height, width=width, train_size=30, val_size=1,
                                      seed=3)
        assert split_digest(synthdata.generate_samples(cfg, "train")) == digest

    @pytest.mark.parametrize("height,width", [(64, 40), (96, 60), (128, 32)])
    def test_tall_scenes_draw_every_shape(self, height, width):
        # circles and triangles are sized by the shorter side, so they fit across
        cfg = synthdata.DatasetConfig(height=height, width=width)
        train, val = synthdata.generate_dataset(cfg)
        counts = np.zeros(cfg.num_classes, int)
        for s in train + val:
            assert s.image.shape == (height, width, 3) and s.labels.shape == (height, width)
            counts[np.unique(s.labels)] += 1
        assert np.all(counts >= 10), counts


class TestSplits:
    def test_split_sizes_and_ids(self, small_dataset):
        cfg, train, val = small_dataset
        assert len(train) == cfg.train_size and len(val) == cfg.val_size
        train_ids = {s.id for s in train}
        val_ids = {s.id for s in val}
        assert len(train_ids) == len(train) and len(val_ids) == len(val)
        assert not train_ids & val_ids

    def test_regeneration_byte_identical(self, small_dataset):
        cfg, train, _ = small_dataset
        again = synthdata.generate_samples(cfg, "train")
        for a, b in zip(train, again):
            assert a.id == b.id
            assert a.image.tobytes() == b.image.tobytes()
            assert a.labels.tobytes() == b.labels.tobytes()

    def test_every_class_appears_often(self):
        cfg = synthdata.DatasetConfig(train_size=200)
        train = synthdata.generate_samples(cfg, "train")
        counts = np.zeros(cfg.num_classes, int)
        for s in train:
            for c in np.unique(s.labels):
                counts[c] += 1
        assert np.all(counts >= 10), counts

