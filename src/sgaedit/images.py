"""PGM/PPM image I/O and small synthetic image generators.

Images are float64 arrays in [0, 1]: H x W for grayscale, H x W x 3 for
color. Class maps (semantic labels) are int arrays stored as raw gray
levels in PGM files.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, ValidationError


def _read_header(path, data: bytes) -> tuple[int, int, int, int]:
    """Parse the width, height and maxval after the 2-byte magic, whitespace-
    and comment-separated; return (width, height, maxval, body offset)."""
    values: list[int] = []
    i = 2
    while len(values) < 3:
        if i >= len(data):
            raise ValidationError(f"{path}: truncated netpbm header")
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            if not data[i:j].isdigit():
                raise ValidationError(f"{path}: header token {data[i:j]!r} is not a non-negative integer")
            values.append(int(data[i:j]))
            i = j
    w, h, maxval = values
    if w < 1 or h < 1:
        raise ValidationError(f"{path}: image size {w}x{h} is empty")
    return w, h, maxval, i + 1  # single whitespace after the last header token


def _body(path, data: bytes, offset: int, count: int) -> np.ndarray:
    """The `count` sample bytes after the header, checked for length."""
    if len(data) - offset < count:
        raise ValidationError(f"{path}: truncated image body ({max(len(data) - offset, 0)} of {count} bytes)")
    return np.frombuffer(data, dtype=np.uint8, count=count, offset=offset)


def read_pnm(path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file into a [0, 1] float array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P5", b"P6"):
        raise ValidationError(f"{path}: not a binary PGM/PPM file")
    channels = 1 if data[:2] == b"P5" else 3
    w, h, maxval, offset = _read_header(path, data)
    if maxval <= 0 or maxval > 255:
        raise ValidationError(f"{path}: only 8-bit images supported (maxval {maxval})")
    count = w * h * channels
    raw = _body(path, data, offset, count)
    if raw.max() > maxval:
        raise ValidationError(f"{path}: sample {raw.max()} above the header's maxval {maxval}")
    img = raw.astype(np.float64) / maxval
    return img.reshape(h, w) if channels == 1 else img.reshape(h, w, 3)


def write_pnm(path, img: np.ndarray) -> None:
    """Write a [0, 1] float array as binary PGM (2D) or PPM (H x W x 3)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        magic = b"P5"
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
    else:
        raise ShapeError(f"cannot write image of shape {img.shape}")
    h, w = img.shape[:2]
    bytes_ = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(bytes_.tobytes())


def read_class_map(path) -> np.ndarray:
    """Read a PGM whose raw byte values are class indices."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise ValidationError(f"{path}: class maps must be PGM (P5)")
    w, h, maxval, offset = _read_header(path, data)
    if maxval > 255:
        raise ValidationError(f"{path}: only 8-bit class maps supported")
    raw = _body(path, data, offset, w * h)
    return raw.reshape(h, w).astype(np.int64)


def write_class_map(path, classes: np.ndarray) -> None:
    classes = np.asarray(classes)
    if classes.ndim != 2 or classes.min() < 0 or classes.max() > 255:
        raise ShapeError("class map must be 2D with values in 0..255")
    h, w = classes.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(classes.astype(np.uint8).tobytes())


def with_channels(img: np.ndarray) -> np.ndarray:
    """View any image as H x W x C."""
    img = np.asarray(img, dtype=np.float64)
    return img[:, :, None] if img.ndim == 2 else img


def one_hot_map(classes: np.ndarray, n_classes: int) -> np.ndarray:
    """Class-index grid -> H x W x n_classes one-hot image."""
    classes = np.asarray(classes, dtype=np.int64)
    if classes.min() < 0 or classes.max() >= n_classes:
        raise ValidationError(f"class indices must be in [0, {n_classes})")
    out = np.zeros((*classes.shape, n_classes), dtype=np.float64)
    h, w = classes.shape
    out[np.arange(h)[:, None], np.arange(w)[None, :], classes] = 1.0
    return out


def downsample_box(img: np.ndarray, factor: int) -> np.ndarray:
    """Box-filter downsampling by an integer factor (channels preserved)."""
    img = with_channels(img)
    h, w, c = img.shape
    if factor < 1 or h % factor or w % factor:
        raise ShapeError(f"factor {factor} does not divide image dims {h}x{w}")
    out = img.reshape(h // factor, factor, w // factor, factor, c).mean(axis=(1, 3))
    return out[:, :, 0] if out.shape[2] == 1 else out


def downsample_nearest(grid: np.ndarray, factor: int) -> np.ndarray:
    """Subsample an integer grid by taking the top-left element of each cell."""
    grid = np.asarray(grid)
    h, w = grid.shape
    if factor < 1 or h % factor or w % factor:
        raise ShapeError(f"factor {factor} does not divide grid dims {h}x{w}")
    return grid[::factor, ::factor].copy()


def downsample_mask_any(mask: np.ndarray, factor: int) -> np.ndarray:
    """A low-res cell is masked iff any covered high-res cell is masked."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    if factor < 1 or h % factor or w % factor:
        raise ShapeError(f"factor {factor} does not divide mask dims {h}x{w}")
    return mask.reshape(h // factor, factor, w // factor, factor).any(axis=(1, 3))


def synthetic_image(height: int, width: int, channels: int, rng) -> np.ndarray:
    """Smooth random field: a seeded mixture of low-frequency cosines."""
    ys = np.arange(height)[:, None] / max(height, 1)
    xs = np.arange(width)[None, :] / max(width, 1)
    chans = []
    for _ in range(channels):
        field = np.zeros((height, width), dtype=np.float64)
        for _ in range(6):
            fy, fx = rng.uniform(0.5, 4.0, size=2)
            py, px = rng.uniform(0.0, 2 * np.pi, size=2)
            amp = rng.uniform(0.2, 1.0)
            field += amp * np.cos(2 * np.pi * fy * ys + py) * np.cos(2 * np.pi * fx * xs + px)
        field -= field.min()
        if field.max() > 0:
            field /= field.max()
        chans.append(field)
    img = np.stack(chans, axis=2)
    return img[:, :, 0] if channels == 1 else img


def synthetic_class_map(height: int, width: int, n_classes: int, rng) -> np.ndarray:
    """Random smooth field quantized into class bands."""
    field = synthetic_image(height, width, 1, rng)
    return np.minimum((field * n_classes).astype(np.int64), n_classes - 1)
