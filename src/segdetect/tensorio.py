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


def write_record(fh, arr):
    """Append one tensor record to an open binary file object."""
    arr = np.asarray(arr)   # tobytes writes row-major whatever the layout
    code = _CODE_BY_KIND.get((arr.dtype.kind, arr.dtype.itemsize))
    if code is None:
        raise InputError(f"unsupported dtype {arr.dtype}")
    fh.write(MAGIC + struct.pack(f"<4B{arr.ndim}I", VERSION, code, arr.ndim, 0, *arr.shape))
    fh.write(arr.astype(_DTYPE_BY_CODE[code], copy=False).tobytes())


def _read(fh, n, what):
    """The next n bytes of fh; raises InputError naming `what` on fewer."""
    data = fh.read(n)
    if len(data) != n:
        raise InputError(f"truncated tensor {what}")
    return data


def read_record(fh):
    """Read one tensor record; returns None at end of file."""
    head = fh.read(8)   # magic, version, dtype, ndim, pad
    if not head:
        return None
    head += _read(fh, 8 - len(head), "header")     # a short head is a truncated one
    magic, version, code, ndim = struct.unpack("<4s3Bx", head)
    if magic != MAGIC:
        raise InputError(f"bad magic {magic!r}")
    if version != VERSION:
        raise InputError(f"unsupported container version {version}")
    if code not in _DTYPE_BY_CODE:
        raise InputError(f"unknown dtype code {code}")
    shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim, "header"))
    dtype = _DTYPE_BY_CODE[code]
    payload = _read(fh, int(np.prod(shape, dtype=np.int64)) * dtype.itemsize, "payload")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def save_tensors(path, arrays):
    """Write a sequence of tensors back-to-back into one file."""
    with open(path, "wb") as fh:
        for arr in arrays:
            write_record(fh, arr)


def load_tensors(path):
    """Every tensor of the file, in order."""
    arrays = []
    with open(path, "rb") as fh:
        while (arr := read_record(fh)) is not None:
            arrays.append(arr)
    return arrays


def save_tensor(path, arr):
    save_tensors(path, [arr])


def load_tensor(path):
    """The tensor of a one-record file; raises InputError on any other file."""
    arrays = load_tensors(path)
    if len(arrays) != 1:
        raise InputError(f"{path}: expected one tensor record, found {len(arrays)}")
    return arrays[0]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, doc):
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
