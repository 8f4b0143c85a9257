import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdetect import uncertainty
from segdetect.errors import InputError


def probs_image(rows):
    """1 x N x C probability map from a list of per-pixel distributions."""
    return np.array([rows], np.float64)


class TestDispersionMaps:
    def test_one_hot(self):
        maps = uncertainty.dispersion_maps(probs_image([[1.0, 0.0, 0.0]]))
        assert maps.entropy[0, 0] == 0.0
        assert maps.variation_ratio[0, 0] == 0.0
        assert maps.margin[0, 0] == 0.0

    def test_uniform(self):
        c = 4
        maps = uncertainty.dispersion_maps(probs_image([[1.0 / c] * c]))
        assert maps.entropy[0, 0] == pytest.approx(np.log(c), rel=1e-9)
        assert maps.variation_ratio[0, 0] == pytest.approx(1 - 1.0 / c, rel=1e-9)
        assert maps.margin[0, 0] == pytest.approx(1.0, rel=1e-9)

    def test_hand_computed_three_class(self):
        # p = (0.5, 0.3, 0.2): H = 1.02965..., V = 0.5, M = 0.5 + 0.3 = 0.8
        maps = uncertainty.dispersion_maps(probs_image([[0.5, 0.3, 0.2]]))
        expect_h = -(0.5 * np.log(0.5) + 0.3 * np.log(0.3) + 0.2 * np.log(0.2))
        assert maps.entropy[0, 0] == pytest.approx(expect_h, abs=1e-12)
        assert maps.entropy[0, 0] == pytest.approx(1.02965, abs=1e-5)
        assert maps.variation_ratio[0, 0] == pytest.approx(0.5)
        assert maps.margin[0, 0] == pytest.approx(0.8)

    def test_unnormalized_raises(self):
        with pytest.raises(InputError):
            uncertainty.dispersion_maps(probs_image([[0.5, 0.3, 0.3]]))

    def test_wrong_ndim_raises(self):
        with pytest.raises(InputError):
            uncertainty.dispersion_maps(np.ones((4, 4)))

    @pytest.mark.parametrize("row", [[np.nan, 0.5, 0.5], [1.5, -0.5, 0.0]],
                             ids=["nan", "summing-to-1"])
    def test_entry_outside_the_unit_interval_raises(self, row):
        """NaN compares false, and [1.5, -0.5, 0] sums to 1: each fails the range check."""
        for compute in (uncertainty.dispersion_maps, uncertainty.feature_vector):
            with pytest.raises(InputError, match=r"^probabilities must lie in \[0, 1\]$"):
                compute(probs_image([[0.2, 0.3, 0.5], row]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), c=st.integers(2, 6))
    def test_bounds(self, seed, c):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.01, 1, (5, 5, c))
        p /= p.sum(axis=2, keepdims=True)
        maps = uncertainty.dispersion_maps(p)
        assert np.all(maps.entropy >= -1e-12) and np.all(maps.entropy <= np.log(c) + 1e-9)
        assert np.all(maps.variation_ratio >= 0) and np.all(maps.variation_ratio <= 1 - 1.0 / c + 1e-9)
        assert np.all(maps.margin >= maps.variation_ratio - 1e-12)
        assert np.all(maps.margin <= 1 + 1e-12)

    def test_channel_permutation_invariance(self, rng):
        p = rng.uniform(0.01, 1, (4, 4, 5))
        p /= p.sum(axis=2, keepdims=True)
        perm = rng.permutation(5)
        a = uncertainty.dispersion_maps(p)
        b = uncertainty.dispersion_maps(p[:, :, perm])
        np.testing.assert_allclose(a.entropy, b.entropy, atol=1e-12)
        np.testing.assert_allclose(a.variation_ratio, b.variation_ratio, atol=1e-12)
        np.testing.assert_allclose(a.margin, b.margin, atol=1e-12)



def partition_features(probs):
    """The features as computed over the class axis with np.partition for
    the top two: the reference for the bits of the per-class loops."""
    p = probs.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    entropy = -plogp.sum(axis=2)
    part = np.partition(p, p.shape[2] - 2, axis=2)
    variation = 1.0 - part[:, :, -1]
    margin = variation + part[:, :, -2]
    values = np.concatenate([[entropy.mean(), variation.mean(), margin.mean()],
                             p.mean(axis=(0, 1))])
    return (entropy, variation, margin), values


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c", range(2, 8))
def test_features_equal_partition_reference_bitwise(c, dtype):
    rng = np.random.default_rng(c)
    z = rng.normal(0, 4, (20, 23, c))
    z[8:10, :, 1] = z[8:10, :, 0]       # ties inside softmax rows
    z[10:12, :, :2] = z[10:12].max(axis=2, keepdims=True)   # ... for the top two
    p = np.exp(z - z.max(axis=2, keepdims=True))
    p = (p / p.sum(axis=2, keepdims=True)).astype(dtype)
    p[:4] = 0.0                         # one-hot rows: exact zeros
    p[:2, :, c - 1] = 1.0
    p[2:4, :, 0] = 1.0
    p[4:6, :, :2] = 0.5                 # the top two tie
    p[4:6, :, 2:] = 0.0
    p[6:8] = dtype(1.0 / c)             # every class ties
    (entropy, variation, margin), values = partition_features(p)
    maps = uncertainty.dispersion_maps(p)
    assert maps.entropy.tobytes() == entropy.tobytes()
    assert maps.variation_ratio.tobytes() == variation.tobytes()
    assert maps.margin.tobytes() == margin.tobytes()
    assert uncertainty.feature_vector(p).values.tobytes() == values.tobytes()


class TestFeatureVector:
    def test_length_is_classes_plus_three(self):
        p = np.full((4, 4, 5), 0.2)
        f = uncertainty.feature_vector(p)
        assert len(f.values) == 8 and f.num_classes == 5

    def test_two_pixel_hand_computed(self):
        # pixels (1,0) and (0.5,0.5) over C = 2:
        # E = (0 + ln2)/2 = 0.346574, V = (0+0.5)/2, M = (0+1)/2,
        # P0 = 0.75, P1 = 0.25
        p = probs_image([[1.0, 0.0], [0.5, 0.5]])
        f = uncertainty.feature_vector(p)
        np.testing.assert_allclose(
            f.values, [np.log(2) / 2, 0.25, 0.5, 0.75, 0.25], atol=1e-12)
        assert f.values[0] == pytest.approx(0.34657, abs=1e-5)

    def test_class_means_sum_to_one(self, rng):
        p = rng.uniform(0.01, 1, (6, 6, 4))
        p /= p.sum(axis=2, keepdims=True)
        f = uncertainty.feature_vector(p)
        assert f.values[3:].sum() == pytest.approx(1.0, abs=1e-9)

    def test_spatial_permutation_invariance(self, rng):
        p = rng.uniform(0.01, 1, (5, 5, 3))
        p /= p.sum(axis=2, keepdims=True)
        flat = p.reshape(-1, 3)
        shuffled = flat[rng.permutation(len(flat))].reshape(5, 5, 3)
        a = uncertainty.feature_vector(p)
        b = uncertainty.feature_vector(shuffled)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)


class TestFeaturesCsv:
    def test_roundtrip(self, tmp_path, rng):
        feats = []
        for i in range(5):
            p = rng.uniform(0.01, 1, (4, 4, 4))
            p /= p.sum(axis=2, keepdims=True)
            feats.append(uncertainty.feature_vector(
                p, image_id=f"val_{i:04d}", label="adv" if i % 2 else "clean",
                attack="fgsm_e8" if i % 2 else ""))
            feats[-1].apsr = rng.uniform()
        path = tmp_path / "f.csv"
        uncertainty.write_features(path, feats[::-1])
        back = uncertainty.read_features(path)
        assert [f.image_id for f in back] == sorted(f.image_id for f in feats)
        by_id = {f.image_id: f for f in feats}
        for f in back:
            orig = by_id[f.image_id]
            assert f.label == orig.label and f.attack == orig.attack
            assert f.apsr == orig.apsr
            np.testing.assert_array_equal(f.values, orig.values)

    def test_matrix_of_read_back_csv_keeps_feature_width(self, tmp_path):
        p = np.full((2, 2, 3), 1 / 3)
        f = uncertainty.feature_vector(p, image_id="a")
        f.apsr = 0.5
        uncertainty.write_features(tmp_path / "f.csv", [f])
        back = uncertainty.read_features(tmp_path / "f.csv")
        assert uncertainty.feature_matrix(back).shape == (1, 3 + 3)
        assert back[0].apsr == 0.5

    def test_old_header_raises(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,label,attack,E,V,M,P0,P1,P2\na,clean,,0.1,0.2,0.3,0.4,0.3,0.3\n")
        with pytest.raises(InputError, match="f.csv.*apsr.*--force"):
            uncertainty.read_features(path)

    def test_header(self, tmp_path):
        p = np.full((2, 2, 3), 1 / 3)
        uncertainty.write_features(tmp_path / "f.csv",
                                   [uncertainty.feature_vector(p, image_id="a")])
        header = (tmp_path / "f.csv").read_text().splitlines()[0]
        assert header == "id,label,attack,apsr,E,V,M,P0,P1,P2"

    def test_empty_raises(self, tmp_path):
        with pytest.raises(InputError):
            uncertainty.write_features(tmp_path / "f.csv", [])
