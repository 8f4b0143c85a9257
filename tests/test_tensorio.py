import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdetect import tensorio
from segdetect.errors import InputError


@pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.int32])
def test_roundtrip_bit_exact(tmp_path, dtype):
    rng = np.random.default_rng(0)
    arr = (rng.uniform(-100, 100, (5, 4, 3)) if dtype == np.float32
           else rng.integers(0, 200, (5, 4, 3))).astype(dtype)
    path = tmp_path / "t.ten"
    tensorio.save_tensor(path, arr)
    back = tensorio.load_tensor(path)
    assert back.dtype == arr.dtype
    assert back.tobytes() == arr.tobytes()


@settings(max_examples=50, deadline=None)
@given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_roundtrip_random_shapes(shape, seed):
    arr = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
    buf = io.BytesIO()
    tensorio.write_record(buf, arr)
    buf.seek(0)
    back = tensorio.read_record(buf)
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_multi_record_file(tmp_path):
    arrays = [np.arange(6, dtype=np.float32).reshape(2, 3),
              np.array([1, 2, 3], np.int32),
              np.zeros((2, 2), np.uint8)]
    path = tmp_path / "multi.ten"
    tensorio.save_tensors(path, arrays)
    back = tensorio.load_tensors(path)
    assert len(back) == 3
    for a, b in zip(arrays, back):
        assert b.dtype == a.dtype and b.tobytes() == a.tobytes()


def test_bad_magic_raises():
    buf = io.BytesIO(b"XXXX" + b"\x00" * 16)
    with pytest.raises(InputError):
        tensorio.read_record(buf)


def test_truncated_payload_raises(tmp_path):
    path = tmp_path / "trunc.ten"
    tensorio.save_tensor(path, np.ones((4, 4), np.float32))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(InputError):
        tensorio.load_tensor(path)


def test_truncated_header_raises():
    buf = io.BytesIO()
    tensorio.write_record(buf, np.ones((3, 5), np.float32))
    header = 4 + 4 + 4 * 2      # magic, version/dtype/ndim/pad, two extents
    for cut in range(1, header):
        with pytest.raises(InputError, match="truncated tensor header"):
            tensorio.read_record(io.BytesIO(buf.getvalue()[:cut]))
    with pytest.raises(InputError, match="truncated tensor payload"):
        tensorio.read_record(io.BytesIO(buf.getvalue()[:header]))


def test_record_layout_is_pinned(tmp_path):
    path = tmp_path / "t.ten"
    tensorio.save_tensor(path, np.arange(6, dtype=np.int32).reshape(2, 3))
    assert path.read_bytes() == (b"SEGT\x01\x02\x02\x00" + (2).to_bytes(4, "little")
                                 + (3).to_bytes(4, "little")
                                 + b"".join(i.to_bytes(4, "little") for i in range(6)))


def test_load_tensor_takes_exactly_one_record(tmp_path):
    """A file with no record, or with more than one, is not one tensor."""
    path = tmp_path / "t.ten"
    for arrays in ([], [np.zeros(2, np.float32), np.ones(3, np.uint8)]):
        tensorio.save_tensors(path, arrays)
        with pytest.raises(InputError, match=f"expected one tensor record, found {len(arrays)}"):
            tensorio.load_tensor(path)



@pytest.mark.parametrize("arr", [np.float32(2.5), np.arange(12, dtype=np.int32).reshape(3, 4).T],
                         ids=["zero-dim", "transposed"])
def test_roundtrip_keeps_shape_and_values(tmp_path, arr):
    path = tmp_path / "t.ten"
    tensorio.save_tensor(path, arr)
    back = tensorio.load_tensor(path)
    assert back.shape == np.shape(arr) and np.array_equal(back, arr)
