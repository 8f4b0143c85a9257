import dataclasses
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


def test_dataset_disk_roundtrip(tmp_path):
    cfg = synthdata.DatasetConfig(train_size=4, val_size=3, seed=11)
    train, val, manifest = synthdata.generate_dataset(cfg, tmp_path)
    assert manifest["train_ids"] == [s.id for s in train]
    t2, v2, cfg2 = synthdata.load_dataset(tmp_path)
    assert cfg2 == cfg
    for a, b in zip(train + val, t2 + v2):
        assert a.id == b.id
        assert a.image.tobytes() == b.image.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
