"""Grayscale raster container, binary PGM I/O, and block-level pixel helpers."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

# The width, height and maxval tokens after the magic, each after whitespace and '#' comments up to a line
# end. Every part can match empty, so a match never fails or backtracks; it loops per comment, not per byte.
_HEADER = re.compile(rb"\s*(?:#[^\r\n]*\s*)*([^\s#]*)" * 3)


class PgmFormatError(ValueError):
    """Byte stream that does not parse as a binary 8-bit PGM (P5)."""


@dataclass(frozen=True)
class BlockRect:
    """Axis-aligned square pixel region; (x, y) is the top-left corner."""

    x: int
    y: int
    size: int


class GrayImage:
    """8-bit single-channel raster, immutable after construction."""

    def __init__(self, pixels) -> None:
        arr = np.array(pixels, order="C")  # so any run of rows is one block of memory, as flat_windows needs
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D pixel array, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("image must contain at least one pixel")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError("pixel values must be integers in [0, 255]")
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("pixel values must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        self.pixels = arr

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, GrayImage) and np.array_equal(self.pixels, other.pixels)

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"


def load_pgm(data: bytes) -> GrayImage:
    """Parse a binary PGM (magic P5, maxval 255) from bytes or any bytes-like object."""
    data = data if isinstance(data, bytes) else memoryview(data).tobytes()  # an int is no byte count here
    if data[:2] != b"P5":
        raise PgmFormatError(f"bad magic: expected b'P5', got {data[:2]!r}")
    header, values = _HEADER.match(data, 2), []
    for field, token in zip(("width", "height", "maxval"), header.groups()):
        if not token.isdigit():
            raise PgmFormatError(f"invalid {field}: {token!r}")
        try:
            values.append(int(token))
        except ValueError:  # more digits than sys.get_int_max_str_digits() lets int() convert
            raise PgmFormatError(f"invalid {field}: {len(token)} digits") from None
    width, height, maxval = values
    if width < 1:
        raise PgmFormatError(f"invalid width: {width}")
    if height < 1:
        raise PgmFormatError(f"invalid height: {height}")
    if maxval != 255:
        raise PgmFormatError(f"unsupported maxval {maxval} (only 255)")
    pos = header.end()
    if not data[pos : pos + 1].isspace():
        raise PgmFormatError("missing whitespace between maxval and payload")
    pos += 1
    expected = width * height
    payload = data[pos : pos + expected]
    if len(payload) < expected:
        raise PgmFormatError(f"truncated payload: expected {expected} bytes, got {len(payload)}")
    return GrayImage(np.frombuffer(payload, dtype=np.uint8).reshape(height, width))


def save_pgm(image: GrayImage) -> bytes:
    """Serialize as binary PGM; single-space header separators, newline before payload."""
    return b"P5 %d %d 255\n" % (image.width, image.height) + image.pixels.tobytes()


def pad_to_multiple(image: GrayImage, m: int) -> GrayImage:
    """Grow each axis to the next multiple of m by replicating edge pixels."""
    if m < 1:
        raise ValueError("padding multiple must be >= 1")
    new_h = -(-image.height // m) * m
    new_w = -(-image.width // m) * m
    if (new_h, new_w) == (image.height, image.width):
        return image
    padded = np.pad(image.pixels, ((0, new_h - image.height), (0, new_w - image.width)), mode="edge")
    return GrayImage(padded)


def _raster(image) -> np.ndarray:
    """Accept a GrayImage or a bare 2-D array."""
    return image.pixels if isinstance(image, GrayImage) else np.asarray(image)


def _check_rect(arr: np.ndarray, rect: BlockRect) -> None:
    h, w = arr.shape
    if rect.size < 1 or rect.x < 0 or rect.y < 0 or rect.x + rect.size > w or rect.y + rect.size > h:
        raise ValueError(f"{rect} out of bounds for {w}x{h} raster")


def downsample_mean2(image, rect: BlockRect) -> np.ndarray:
    """Mean-filter the rect by 2x2 groups, halving its side length.

    Output pixel (i, j) is the mean of the 2x2 pixel group whose corner is
    (rect.x + 2j, rect.y + 2i); values stay real.
    """
    arr = _raster(image)
    _check_rect(arr, rect)
    if rect.size % 2:
        raise ValueError(f"rect size {rect.size} must be even")
    a = arr[rect.y : rect.y + rect.size, rect.x : rect.x + rect.size].astype(np.float64)
    return (a[0::2, 0::2] + a[0::2, 1::2] + a[1::2, 0::2] + a[1::2, 1::2]) * 0.25


def box_sums(image, dtype=np.float64) -> np.ndarray:
    """2x2 box sums, (y, x) over rows y..y+1 and columns x..x+1, added as downsample_mean2 adds.

    The sums are added in `dtype`; uint16 holds any sum of four 8-bit pixels
    exactly, in a quarter of float64's memory.
    """
    arr = np.asarray(_raster(image))
    # added in place, so there is no converted copy of the raster and no temporary
    sums = np.add(arr[:-1, :-1], arr[:-1, 1:], dtype=dtype)
    sums += arr[1:, :-1]
    sums += arr[1:, 1:]
    return sums


def parity_sums(raster: np.ndarray, py: int, px: int) -> np.ndarray:
    """The half-size raster of the 2x2 sums on rows py, py + 2, ... and columns px, px + 2, ... (py and
    px 0 or 1) of each raster in the last two axes: (i, j) is box_sums(raster)[py + 2i, px + 2j], added
    in the same order, so equal bit for bit. The sums of a 2k x 2k domain at an origin (dx, dy) of this
    parity are its k x k window at (dx // 2, dy // 2)."""
    h, w = raster.shape[-2:]
    q = raster[..., py : py + (h - py) // 2 * 2, px : px + (w - px) // 2 * 2]
    sums = q[..., 0::2, 0::2] + q[..., 0::2, 1::2]
    sums += q[..., 1::2, 0::2]
    sums += q[..., 1::2, 1::2]
    return sums


def flat_windows(a: np.ndarray, k: int, step: int = 1) -> np.ndarray:
    """The k x k samples, every step-th row and column, of each window of the C-contiguous 2-D array `a`, as a view
    indexed by the window's flat origin y * w + x, so a gather takes one index array; an origin past its row's last
    wraps rows. The view skips sliding_window_view's checks, which cost more than a small gather."""
    (h, w), span, size = a.shape, step * (k - 1) + 1, a.itemsize
    return np.ndarray(((h - span) * w + w - span + 1, k, k), a.dtype, a, 0, (size, step * a.strides[0], step * size))


def pixel_planes(a: np.ndarray, k: int, step: int = 1) -> list[np.ndarray]:
    """The flattened C-contiguous 2-D array `a` from each sample (i, j) of a k x k block on, row by row, the samples
    every step-th row and column, so that a block's flat origin y * w + x picks that sample in each."""
    flat, w = a.ravel(), a.shape[1]
    return [flat[step * (i * w + j) :] for i in range(k) for j in range(k)]


def gather_planes(a: np.ndarray, at: np.ndarray, k: int, step: int = 1) -> np.ndarray:
    """The k x k blocks, every step-th row and column, of the C-contiguous 2-D array `a` at flat origins `at`, as
    (k * k, n) planes, a take per sample. Each origin lies in the plane, so "clip" only spares take's copy of out."""
    out = np.empty((k * k, len(at)), a.dtype)
    for plane, row in zip(pixel_planes(a, k, step), out):
        plane.take(at, out=row, mode="clip")
    return out
