"""Patch encoding, codebook fitting, quantization, and mask handling.

The encoder is a per-patch linear projection, so a token's feature depends
only on the pixels of its own patch. That makes the no-leakage guarantee
for masked regions exact: re-encoding with arbitrary noise inside the
masked area can never change an unmasked token. The test suite checks
this by re-encoding under noise, and shows with a deliberately global
encoder double that the check catches a leak.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ShapeError, ValidationError
from .images import with_channels
from .rng import substream


@dataclass
class TokenGrid:
    """2D grid of codebook indices; index == vocab is the MASK sentinel."""

    tokens: np.ndarray  # h x w int64
    vocab: int

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        if self.tokens.ndim != 2:
            raise ShapeError(f"tokens must be 2D, got {self.tokens.shape}")
        if self.vocab < 2:
            raise ValidationError("vocabulary must have at least 2 entries")
        if self.tokens.min() < 0 or self.tokens.max() > self.vocab:
            raise ValidationError("token outside 0..vocab (vocab == MASK)")

    @property
    def h(self) -> int:
        return self.tokens.shape[0]

    @property
    def w(self) -> int:
        return self.tokens.shape[1]

    def flat(self) -> np.ndarray:
        """Row-major flattening; the canonical sequence order everywhere."""
        return self.tokens.reshape(-1)

    def masked_positions(self) -> np.ndarray:
        return self.tokens == self.vocab

    def to_json(self) -> str:
        serialized = np.where(self.tokens == self.vocab, -1, self.tokens)
        return json.dumps(
            {"h": self.h, "w": self.w, "vocab": self.vocab, "tokens": serialized.reshape(-1).tolist()},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "TokenGrid":
        obj = json.loads(text)
        tokens = np.asarray(obj["tokens"], dtype=np.int64).reshape(obj["h"], obj["w"])
        vocab = int(obj["vocab"])
        return TokenGrid(np.where(tokens == -1, vocab, tokens), vocab)


@dataclass
class Codebook:
    """Dictionary of d-dimensional vectors used for quantization."""

    entries: np.ndarray  # size x d

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2 or self.entries.shape[0] < 2:
            raise ValidationError("codebook needs at least 2 entries")
        if not np.all(np.isfinite(self.entries)):
            raise ValidationError("codebook entries must be finite")

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


def encode_patches(image: np.ndarray, patch: int, projection: np.ndarray) -> np.ndarray:
    """Linear per-patch encoder: flattened patch pixels @ projection.

    image: H x W (x C) in [0, 1]; projection: (patch * patch * C) x d.
    Returns (H/patch) x (W/patch) x d features. Each feature reads only its
    own patch.
    """
    img = with_channels(image)
    h, w, c = img.shape
    if patch < 1 or h % patch or w % patch:
        raise ShapeError(f"patch {patch} does not divide image dims {h}x{w}")
    projection = np.asarray(projection, dtype=np.float64)
    if projection.ndim != 2 or projection.shape[0] != patch * patch * c:
        raise ShapeError(f"projection must be {patch * patch * c} x d, got {projection.shape}")
    hf, wf = h // patch, w // patch
    patches = img.reshape(hf, patch, wf, patch, c).transpose(0, 2, 1, 3, 4).reshape(hf, wf, patch * patch * c)
    return patches @ projection


def random_projection(patch: int, channels: int, d: int, seed: int, name: str = "projection") -> np.ndarray:
    """Seeded Gaussian patch projection, scaled to keep features O(1)."""
    rng = substream(seed, name)
    n_in = patch * patch * channels
    return rng.normal(scale=1.0 / np.sqrt(n_in), size=(n_in, d))


def _pairwise_sq_dists(x: np.ndarray, centers: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Exact squared distances sum((x - c)^2), chunked over rows of x."""
    out = np.empty((x.shape[0], centers.shape[0]), dtype=np.float64)
    for start in range(0, x.shape[0], chunk):
        stop = min(start + chunk, x.shape[0])
        diff = x[start:stop, None, :] - centers[None, :, :]
        out[start:stop] = np.square(diff).sum(axis=2)
    return out


def fit_codebook(features: np.ndarray, size: int, iterations: int = 50, seed: int = 0) -> Codebook:
    """k-means codebook with k-means++ seeding and lowest-index tie-breaks.

    Assignment energy (sum of squared distances to the nearest centroid) is
    non-increasing over Lloyd iterations; empty clusters keep their previous
    centroid.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be n x d, got {x.shape}")
    distinct = np.unique(x, axis=0).shape[0]
    if distinct < size:
        raise InsufficientDataError(f"{distinct} distinct vectors < codebook size {size}")

    rng = substream(seed, "codebook")
    centers = np.empty((size, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(x.shape[0])]
    best = np.square(x - centers[0]).sum(axis=1)
    for i in range(1, size):
        total = best.sum()
        if total <= 0.0:  # unreachable while distinct >= size
            raise InsufficientDataError("ran out of distinct seeding candidates")
        u = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(best), u, side="right").clip(0, x.shape[0] - 1))
        centers[i] = x[idx]
        best = np.minimum(best, np.square(x - centers[i]).sum(axis=1))

    for _ in range(iterations):
        assign = _pairwise_sq_dists(x, centers).argmin(axis=1)
        for c in range(size):
            members = x[assign == c]
            if members.shape[0]:
                centers[c] = members.mean(axis=0)
    return Codebook(centers)


def quantize(features: np.ndarray, codebook: Codebook) -> TokenGrid:
    """Map each feature to its nearest codebook entry (lowest index on ties)."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 3:
        raise ShapeError(f"features must be H x W x d, got {f.shape}")
    if f.shape[2] != codebook.dim:
        raise ShapeError(f"feature dim {f.shape[2]} != codebook dim {codebook.dim}")
    flat = f.reshape(-1, codebook.dim)
    tokens = _pairwise_sq_dists(flat, codebook.entries).argmin(axis=1)
    return TokenGrid(tokens.reshape(f.shape[0], f.shape[1]), codebook.size)


def apply_mask(tokens: TokenGrid, mask: np.ndarray) -> TokenGrid:
    """Replace masked positions with the MASK sentinel."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != tokens.tokens.shape:
        raise ShapeError(f"mask shape {mask.shape} != grid shape {tokens.tokens.shape}")
    if tokens.masked_positions().any():
        raise ValidationError("grid already contains MASK tokens")
    out = np.where(mask, tokens.vocab, tokens.tokens)
    return TokenGrid(out, tokens.vocab)
