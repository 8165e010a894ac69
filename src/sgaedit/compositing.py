"""Output assembly: token decoding and masked pyramid blending.

Quantization round-trips are lossy, so generated pixels are kept only
inside the mask while everything else comes from the original image,
with Laplacian-pyramid blending (Burt & Adelson's multiresolution spline)
to soften the seam.

An edit's kept candidates go through as one token stack `[C, h, w]`:
`tokens_to_image` decodes all of them with one pixel table into one image
stack `[C, H, W(, ch)]`, and `laplacian_blend` blends that stack over the
one original `[H, W(, ch)]` in one call, taking each candidate's pixels
inside the mask and the original's outside. The stack costs C full-size
images in and C out; the blend's pyramids cover only the window
`blend_window` around the mask, where a blend can differ from the original.
"""

from __future__ import annotations

import numpy as np

from .errors import IncompleteGridError, ShapeError, VocabularyError
from .quantizer import Codebook

# Separable binomial smoothing kernel (Burt-Adelson).
_KERNEL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def _pass(x: np.ndarray, axis: int, up: bool = False, down: bool = False) -> np.ndarray:
    """One 5-tap pass along axis 0 or 1 with edge replication. `up` first
    repeats each pixel twice along the axis; `down` keeps every second
    output. Both only pick which pixels the taps read and which outputs are
    made, so each output is the same sum as on the repeated or full result."""
    n = x.shape[axis] * (2 if up else 1)
    index = np.clip(np.arange(-2, n + 2), 0, n - 1) // (2 if up else 1)
    padded = x[index] if axis == 0 else x[:, index]
    step = 2 if down else 1
    taps = (padded[i : i + n : step] if axis == 0 else padded[:, i : i + n : step] for i in range(5))
    out = _KERNEL5[0] * next(taps)
    for k, tap in zip(_KERNEL5[1:], taps):
        out += k * tap
    return out


def _blur(img: np.ndarray) -> np.ndarray:
    """Separable 5-tap blur over the first two axes with edge replication
    (constants stay constant); any further axes ride along."""
    return _pass(_pass(img, 0), 1)


def _down(img: np.ndarray) -> np.ndarray:
    """`_blur(img)[::2, ::2]`, computing only the kept pixels."""
    return _pass(_pass(img, 0, down=True), 1, down=True)


def _up(img: np.ndarray) -> np.ndarray:
    """`_blur` of img with each pixel repeated 2 x 2."""
    return _pass(_pass(img, 0, up=True), 1, up=True)


def _check_levels(h: int, w: int, levels: int) -> None:
    """A pyramid of `levels` levels halves the image `levels - 1` times."""
    if levels < 1:
        raise ShapeError("levels must be >= 1")
    if h % (2 ** (levels - 1)) or w % (2 ** (levels - 1)):
        raise ShapeError(f"dims {h}x{w} not divisible by 2^{levels - 1}")


def _blend_levels(h: int, w: int) -> int:
    """The pyramid depth `laplacian_blend` uses for an h x w image: the
    deepest of 1 to 4 levels whose 2**levels divides both sides, else 1."""
    levels = 1
    while levels < 4 and h % 2 ** (levels + 1) == 0 and w % 2 ** (levels + 1) == 0:
        levels += 1
    return levels


def build_pyramid(img: np.ndarray, levels: int) -> list:
    """Laplacian decomposition into a list of `levels` levels (1 = just
    the image): the band-pass levels, finest first, then the
    lowest-resolution residual.

    The first two axes are the image's rows and columns; channel or
    candidate axes after them are carried through every level.
    """
    img = np.asarray(img, dtype=np.float64)
    _check_levels(img.shape[0], img.shape[1], levels)
    pyramid = []
    for _ in range(levels - 1):
        smaller = _down(img)
        pyramid.append(img - _up(smaller))
        img = smaller
    return pyramid + [img]


def collapse(pyramid: list) -> np.ndarray:
    """The image a `build_pyramid` list of levels decomposes."""
    out = pyramid[-1]
    for band in reversed(pyramid[:-1]):
        out = _up(out) + band
    return out


def blend_window(mask: np.ndarray, levels: int) -> tuple[slice, slice] | None:
    """The rows and columns `laplacian_blend` computes: the bounding box of
    the mask's nonzero pixels grown by `2**(levels + 2)` px, with corners on
    multiples of `2**levels` and clipped to the image. None for an empty mask.
    """
    mask = np.asarray(mask)
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    step, margin = 2**levels, 2 ** (levels + 2)

    def span(lo: int, hi: int, size: int) -> slice:
        return slice(max(0, (lo - margin) // step * step), min(size, -(-(hi + 1 + margin) // step) * step))

    return span(int(rows[0]), int(rows[-1]), mask.shape[0]), span(int(cols[0]), int(cols[-1]), mask.shape[1])


def laplacian_blend(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Blend each image of the stack `a` over the one image `b` through
    Laplacian pyramids with a blurred soft mask; return the blended stack.

    `a` is `[C, H, W(, ch)]` and `b` is `[H, W(, ch)]`. Each candidate is
    `a[c]` where `mask > 0` and `b` elsewhere, so `a` outside the mask is
    never read. The pyramids' depth `levels` is worked out from the image
    size: the deepest of 1 to 4 levels whose 2**levels divides both sides,
    so 4 at 64, 256 or 512 px, and 1 for an odd side, which is a direct
    alpha blend under the blurred mask. Output is clamped to [0, 1].

    It is computed as `b` plus the collapse of the weighted pyramid of
    `a - b` (0 outside the mask), over the window `blend_window(mask,
    levels)` only; every pixel outside it is `b`'s (clamped), bit-exactly.
    In exact arithmetic that is the full-image blend of the pyramids of
    `a` and `b` at every pixel:

    - The blend is linear and `collapse(build_pyramid(b)) == b`, so it is
      `b` plus the collapse of the weighted pyramid of `a - b`, and
      `a - b` is 0 outside the mask, where the candidate is `b`.
    - Reach. Level k's pixels sit every 2**k px. Its weights (the mask
      blurred, then blurred and halved k times, each blur reaching 2
      pixels of its level) are 0 beyond `2 + 2 + 4 + ... + 2**k = 2**(k+1)`
      px from the mask. Collapsing level k repeats and blurs once per level
      below it, which spreads a further `3 * 2**k - 3` px. The coarsest
      level, k = levels - 1, reaches farthest: `5 * 2**(levels - 1) - 3`
      px, 37 px at 4 levels (one-pixel masks measure 35 px at worst). No
      intermediate of `a - b`'s pyramid, weights or collapse reaches
      farther than `2**(levels + 1) + 2**(levels - 1)` px.
    - The window's margin of `2**(levels + 2)` px is wider than that reach
      plus one coarsest pixel. So near the window's edge, where the blur
      replicates edge pixels, `a - b` and all its blurs are 0 in the crop
      as in the full image, and the crop computes the same values. Corners
      on multiples of `2**levels` keep each level's subsampling grid the
      full image's.

    In floating point the result differs from the full-image blend by
    rounding only (at most a few ulps). Memory: the C inputs and the C
    outputs are full-size; the pyramids, for all C at once, window-size.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != b.ndim + 1 or a.shape[1:] != b.shape:
        raise ShapeError(f"candidate stack dims {a.shape} do not match image dims {b.shape}")
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != b.shape[:2]:
        raise ShapeError(f"mask dims {mask.shape} != image dims {b.shape[:2]}")
    levels = _blend_levels(b.shape[0], b.shape[1])

    window = blend_window(mask, levels)
    if window is None:
        return np.repeat(np.clip(b, 0.0, 1.0)[None], a.shape[0], axis=0)
    rows, cols = window
    # the candidate axis rides after the spatial axes, where the pyramid
    # carries it; `where` makes a new array, which the levels are weighted in
    b_win = b[rows, cols][:, :, None]
    inside = (mask[rows, cols] > 0).reshape(b_win.shape[:2] + (1,) * (b_win.ndim - 2))
    pyr = build_pyramid(np.where(inside, np.moveaxis(a[:, rows, cols], 0, 2) - b_win, 0.0), levels)
    weights = [_blur(mask[rows, cols])]
    for _ in range(levels - 1):
        weights.append(_down(weights[-1]))
    for level, w in zip(pyr, weights):
        level *= w.reshape(w.shape + (1,) * (level.ndim - 2))
    blended = np.clip(b_win + collapse(pyr), 0.0, 1.0)
    out = np.repeat(np.clip(b, 0.0, 1.0)[None], a.shape[0], axis=0)
    out[:, rows, cols] = np.moveaxis(blended, 2, 0)
    return out


def tokens_to_image(tokens: np.ndarray, codebook: Codebook, projection: np.ndarray, patch: int) -> np.ndarray:
    """Nearest-codebook patch reconstruction via the projection pseudo-inverse.

    `tokens` is an int array `[C, h, w]` of codebook indices; the result is
    their images as one stack `[C, H, W(, ch)]`. Each codebook vector is
    mapped back to pixel space with the minimum-norm least-squares inverse
    of the patch projection and clipped to [0, 1], once per call: the grids
    gather their patches from that table.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 3 or tokens.size == 0 or not np.issubdtype(tokens.dtype, np.integer):
        raise ShapeError(f"tokens must be a non-empty int array [C, h, w], got {tokens.dtype} {tokens.shape}")
    if np.any(tokens == codebook.size):
        raise IncompleteGridError("grid still contains MASK tokens")
    if tokens.min() < 0 or tokens.max() >= codebook.size:
        raise VocabularyError(f"token outside the codebook's {codebook.size} entries")
    projection = np.asarray(projection, dtype=np.float64)
    n_in = projection.shape[0]
    channels = n_in // (patch * patch)
    if patch * patch * channels != n_in:
        raise ShapeError(f"projection rows {n_in} not a multiple of patch^2")
    table = np.clip(codebook.entries @ np.linalg.pinv(projection), 0.0, 1.0)  # vocab x (patch*patch*channels)
    pixel_rows = table.reshape(-1, patch, patch * channels)  # token -> its patch's rows of pixels
    c, h, w = tokens.shape
    # gathered straight into [c, h, patch row, w, patch columns x channels], the image's row-major order
    img = pixel_rows[tokens[:, :, None, :], np.arange(patch)[None, None, :, None]]
    img = img.reshape(c, h * patch, w * patch, channels)
    return img[..., 0] if channels == 1 else img
