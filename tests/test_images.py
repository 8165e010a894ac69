import numpy as np
import pytest

from sgaedit import images
from sgaedit.errors import ValidationError
from sgaedit.rng import substream


def test_pgm_round_trip(tmp_path):
    rng = substream(0, "pgm")
    img = np.round(rng.random((6, 9)) * 255) / 255
    path = tmp_path / "a.pgm"
    images.write_pnm(path, img)
    back = images.read_pnm(path)
    assert back.shape == (6, 9)
    assert np.abs(back - img).max() <= 1 / 255 + 1e-12


def test_ppm_round_trip(tmp_path):
    rng = substream(1, "ppm")
    img = np.round(rng.random((4, 5, 3)) * 255) / 255
    path = tmp_path / "a.ppm"
    images.write_pnm(path, img)
    back = images.read_pnm(path)
    assert back.shape == (4, 5, 3)
    assert np.abs(back - img).max() <= 1 / 255 + 1e-12


def test_pnm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    body = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + body)
    img = images.read_pnm(path)
    assert img.shape == (2, 3)
    assert img[0, 1] == pytest.approx(1 / 255)


@pytest.mark.parametrize("reader", [images.read_pnm, images.read_class_map])
def test_truncated_body_rejected(tmp_path, reader):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + bytes(5))
    with pytest.raises(ValidationError, match="truncated"):
        reader(path)


@pytest.mark.parametrize("magic,channels", [(b"P5", 1), (b"P6", 3)], ids=["pgm", "ppm"])
def test_sample_above_maxval_rejected(tmp_path, magic, channels):
    """A sample above the header's maxval would read above 1.0: the file is
    malformed. One at maxval reads 1.0; class maps read raw bytes."""
    path = tmp_path / "over.pnm"
    path.write_bytes(magic + b"\n3 2\n100\n" + bytes([0, 100] * 3 * channels))
    assert images.read_pnm(path).max() == 1.0
    path.write_bytes(magic + b"\n3 2\n100\n" + bytes([0, 100] * 3 * channels)[:-1] + bytes([255]))
    with pytest.raises(ValidationError) as info:
        images.read_pnm(path)
    assert str(info.value) == f"{path}: sample 255 above the header's maxval 100"
    if channels == 1:
        assert images.read_class_map(path).max() == 255


@pytest.mark.parametrize("reader", [images.read_pnm, images.read_class_map])
@pytest.mark.parametrize(
    "header",
    [b"P5\nabc 4\n255\n", b"P5\n4 4.0\n255\n", b"P5\n-4 4\n255\n", b"P5\n4 0\n255\n", b"P5\n0 0\n255\n"],
    ids=["not-int", "float", "negative-width", "zero-height", "empty"],
)
def test_malformed_header_size_rejected(tmp_path, reader, header):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(ValidationError, match="header token|is empty"):
        reader(path)


def test_class_map_round_trip(tmp_path):
    cmap = np.array([[0, 1, 2], [3, 2, 1]])
    path = tmp_path / "m.pgm"
    images.write_class_map(path, cmap)
    assert np.array_equal(images.read_class_map(path), cmap)


def test_one_hot_map():
    oh = images.one_hot_map(np.array([[0, 2]]), 3)
    assert oh.shape == (1, 2, 3)
    assert oh[0, 0].tolist() == [1.0, 0.0, 0.0]
    assert oh[0, 1].tolist() == [0.0, 0.0, 1.0]
    with pytest.raises(ValidationError):
        images.one_hot_map(np.array([[3]]), 3)


def test_downsamples():
    grid = np.arange(16).reshape(4, 4)
    assert np.array_equal(images.downsample_nearest(grid, 2), [[0, 2], [8, 10]])
    img = grid.astype(float)
    assert np.allclose(images.downsample_box(img, 2), [[2.5, 4.5], [10.5, 12.5]])
    mask = np.zeros((4, 4), bool)
    mask[1, 1] = True
    assert np.array_equal(images.downsample_mask_any(mask, 2), [[True, False], [False, False]])


def test_synthetic_generators_ranges():
    rng = substream(2, "synth")
    img = images.synthetic_image(16, 24, 3, rng)
    assert img.shape == (16, 24, 3)
    assert img.min() >= 0.0 and img.max() <= 1.0
    cmap = images.synthetic_class_map(16, 24, 5, rng)
    assert cmap.min() >= 0 and cmap.max() < 5
