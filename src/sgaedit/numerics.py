"""Dense array primitives for the transformer stack.

All functions are pure and operate on float64 numpy arrays (the package
computes in 64-bit throughout; the on-disk tensor format is 32-bit). Masks
are additive: 0 keeps an entry, -inf removes it before the softmax.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import DegenerateRowError, ShapeError, ValidationError

SGAT_MAGIC = b"SGAT"


def as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def validate_mask(mask: np.ndarray) -> np.ndarray:
    """Check that an additive attention mask uses only 0 and -inf."""
    mask = as_array(mask)
    if not np.all((mask == 0.0) | np.isneginf(mask)):
        raise ValidationError("attention mask entries must be 0 or -inf")
    return mask


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax of `scores + mask`, stabilized by row-max subtraction.

    Masked entries come out exactly 0. A row with every entry masked is an
    error rather than a silent uniform fallback: such rows indicate a broken
    sparsity plan upstream.
    """
    scores = as_array(scores)
    mask = validate_mask(mask)
    if scores.shape != mask.shape:
        raise ShapeError(f"scores {scores.shape} vs mask {mask.shape}")
    shifted = scores + mask
    rowmax = shifted.max(axis=-1, keepdims=True)
    dead = np.isneginf(rowmax)
    if dead.any():
        row = int(np.argmax(dead.ravel()))
        raise DegenerateRowError(f"softmax row {row} is fully masked")
    expd = np.exp(shifted - rowmax)
    return expd / expd.sum(axis=-1, keepdims=True)


def peg(grid_features: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Residual depth-wise 5x5 convolution over an H x W x d feature grid.

    Output = input + conv(input), zero padding 2, one 5x5 filter per channel.
    Injects relative position information without a fixed positional table.
    """
    x = as_array(grid_features)
    ker = as_array(kernel)
    if x.ndim != 3:
        raise ShapeError(f"expected H x W x d features, got {x.shape}")
    if ker.shape != (5, 5, x.shape[2]):
        raise ShapeError(f"kernel must be 5 x 5 x {x.shape[2]}, got {ker.shape}")
    return x + depthwise_conv5(x, ker)


def depthwise_conv5(x: np.ndarray, ker: np.ndarray) -> np.ndarray:
    """5x5 per-channel correlation with zero padding 2 (no residual)."""
    h, w, d = x.shape
    padded = np.zeros((h + 4, w + 4, d), dtype=np.float64)
    padded[2 : 2 + h, 2 : 2 + w] = x
    acc = np.zeros_like(x, dtype=np.float64)
    for u in range(5):
        for v in range(5):
            acc += padded[u : u + h, v : v + w] * ker[u, v]
    return acc


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Per-row normalization: (x - mean) / sqrt(var + eps) * gain + bias."""
    x, gain, bias = as_array(x), as_array(gain), as_array(bias)
    if x.shape[-1] != gain.shape[-1] or x.shape[-1] != bias.shape[-1]:
        raise ShapeError(f"gain/bias width must match x width {x.shape[-1]}")
    # sums over the width, not `mean`: the same arithmetic without numpy's Python-level wrapper
    width = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) / width
    var = np.square(centered).sum(axis=-1, keepdims=True) / width
    return centered / np.sqrt(var + eps) * gain + bias


GELU_C = np.sqrt(2.0 / np.pi)


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(sqrt(2 / pi) * (x + 0.044715 x^3)), the inner term of `gelu`.

    The cube is two multiplies: `x**3` goes through `np.power`, which is
    many times slower on large arrays.
    """
    return np.tanh(GELU_C * (x + 0.044715 * (x * x * x)))


def gelu(x: np.ndarray) -> np.ndarray:
    """Smooth tanh-form GELU: 0.5 x (1 + gelu_tanh(x))."""
    x = as_array(x)
    return 0.5 * x * (1.0 + gelu_tanh(x))


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
        if not isinstance(shape, list) or not all(isinstance(s, int) and s >= 0 for s in shape):
            raise ValidationError(f"{path}: header shape {shape!r} is not a list of sizes")
        shape = tuple(shape)
        count = int(np.prod(shape)) if shape else 1
        payload = fh.read(4 * count)
        if len(payload) != 4 * count:
            raise ValidationError(f"{path}: truncated payload")
    data = np.frombuffer(payload, dtype="<f4", count=count)
    return data.reshape(shape).astype(np.float64)
