"""Binary tensor container: little-endian, row-major, multi-record files.

Layout of one record:
    magic "SEGT" | version byte (1) | dtype byte | ndim byte | pad byte |
    ndim x uint32 extents | payload

dtype codes: 0 = float32, 1 = uint8, 2 = int32.
"""

import json
import struct

import numpy as np

from .errors import InputError

MAGIC = b"SEGT"
VERSION = 1

_DTYPE_BY_CODE = {0: np.dtype("<f4"), 1: np.dtype("u1"), 2: np.dtype("<i4")}
_CODE_BY_KIND = {("f", 4): 0, ("u", 1): 1, ("i", 4): 2}


def _dtype_code(arr):
    key = (arr.dtype.kind, arr.dtype.itemsize)
    if key not in _CODE_BY_KIND:
        raise InputError(f"unsupported dtype {arr.dtype}")
    return _CODE_BY_KIND[key]


def write_record(fh, arr):
    """Append one tensor record to an open binary file object."""
    arr = np.ascontiguousarray(arr)
    code = _dtype_code(arr)
    fh.write(MAGIC)
    fh.write(struct.pack("<BBBB", VERSION, code, arr.ndim, 0))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.astype(_DTYPE_BY_CODE[code], copy=False).tobytes())


def read_record(fh):
    """Read one tensor record; returns None at end of file."""
    magic = fh.read(4)
    if magic == b"":
        return None
    if magic != MAGIC:
        raise InputError(f"bad magic {magic!r}")
    version, code, ndim, _pad = struct.unpack("<BBBB", fh.read(4))
    if version != VERSION:
        raise InputError(f"unsupported container version {version}")
    if code not in _DTYPE_BY_CODE:
        raise InputError(f"unknown dtype code {code}")
    shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
    dtype = _DTYPE_BY_CODE[code]
    n = int(np.prod(shape, dtype=np.int64)) if ndim else 1
    payload = fh.read(n * dtype.itemsize)
    if len(payload) != n * dtype.itemsize:
        raise InputError("truncated tensor payload")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def save_tensor(path, arr):
    with open(path, "wb") as fh:
        write_record(fh, arr)


def load_tensor(path):
    with open(path, "rb") as fh:
        arr = read_record(fh)
    if arr is None:
        raise InputError(f"empty tensor file {path}")
    return arr


def save_tensors(path, arrays):
    """Write a sequence of tensors back-to-back into one file."""
    with open(path, "wb") as fh:
        for arr in arrays:
            write_record(fh, arr)


def load_tensors(path):
    arrays = []
    with open(path, "rb") as fh:
        while True:
            arr = read_record(fh)
            if arr is None:
                return arrays
            arrays.append(arr)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, doc):
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
