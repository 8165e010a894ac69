"""The SGAT tensor file format.

The package computes in float64 throughout (`tape.value_of` coerces
arrays); checkpoints and quantizer assets are stored as SGAT files, whose
payload is float32. The ops themselves, forward and backward, live in
`tape`.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import ValidationError

SGAT_MAGIC = b"SGAT"


# ---------------------------------------------------------------------------
# SGAT binary tensor format: 4-byte magic, little-endian u32 header length,
# JSON header {"dtype": "f32", "shape": [...]}, raw little-endian row-major
# float32 payload.
# ---------------------------------------------------------------------------


def write_sgat(path, arr: np.ndarray) -> None:
    arr32 = np.ascontiguousarray(arr, dtype="<f4")
    header = json.dumps({"dtype": "f32", "shape": list(arr32.shape)}, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(SGAT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(arr32.tobytes())


def read_sgat(path) -> np.ndarray:
    """Read one SGAT tensor; any malformed file raises ValidationError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SGAT_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}")
        raw = fh.read(4)
        if len(raw) != 4:
            raise ValidationError(f"{path}: truncated header")
        (hlen,) = struct.unpack("<I", raw)
        raw = fh.read(hlen)
        if len(raw) != hlen:
            raise ValidationError(f"{path}: truncated header")
        try:
            header = json.loads(raw)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValidationError(f"{path}: garbled header ({exc})") from exc
        if not isinstance(header, dict):
            raise ValidationError(f"{path}: header is not a JSON object")
        if header.get("dtype") != "f32":
            raise ValidationError(f"{path}: unsupported dtype {header.get('dtype')!r}")
        shape = header.get("shape")
        if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
            raise ValidationError(f"{path}: header shape {shape!r} is not a list of sizes")
        shape = tuple(shape)
        count = math.prod(shape)  # exact: np.prod wraps around in int64
        size = os.fstat(fh.fileno()).st_size - fh.tell()  # checked before a read that size allocates
        if size != 4 * count:
            kind = "truncated payload" if size < 4 * count else "trailing bytes after the payload"
            raise ValidationError(f"{path}: {kind}: {size} bytes, header declares {4 * count}")
        payload = fh.read(size)
        if len(payload) != size:
            raise ValidationError(f"{path}: truncated payload")
    data = np.frombuffer(payload, dtype="<f4", count=count)
    try:
        return data.reshape(shape).astype(np.float64)
    except ValueError as exc:  # an empty shape numpy cannot hold, such as [0, 2**70]
        raise ValidationError(f"{path}: header shape {list(shape)} is not representable ({exc})") from exc
