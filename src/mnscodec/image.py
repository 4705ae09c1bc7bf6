"""Grayscale raster container, binary PGM I/O, and block-level pixel helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_WHITESPACE = b" \t\n\r\x0b\x0c"
_COMMENT = 0x23  # '#'


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
        arr = np.array(pixels)
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


def _skip_separators(data: bytes, pos: int) -> int:
    # PGM headers allow '#' comments wherever whitespace may appear
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == _COMMENT:
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    return pos


def _read_header_int(data: bytes, pos: int, field: str) -> tuple[int, int]:
    pos = _skip_separators(data, pos)
    start = pos
    while pos < len(data) and data[pos] not in _WHITESPACE and data[pos] != _COMMENT:
        pos += 1
    token = data[start:pos]
    if not token.isdigit():
        raise PgmFormatError(f"invalid {field}: {token!r}")
    return int(token), pos


def load_pgm(data: bytes) -> GrayImage:
    """Parse a binary PGM (magic P5, maxval 255) byte string."""
    if data[:2] != b"P5":
        raise PgmFormatError(f"bad magic: expected b'P5', got {bytes(data[:2])!r}")
    width, pos = _read_header_int(data, 2, "width")
    height, pos = _read_header_int(data, pos, "height")
    maxval, pos = _read_header_int(data, pos, "maxval")
    if width < 1:
        raise PgmFormatError(f"invalid width: {width}")
    if height < 1:
        raise PgmFormatError(f"invalid height: {height}")
    if maxval != 255:
        raise PgmFormatError(f"unsupported maxval {maxval} (only 255)")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
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
    """Accept a GrayImage or a bare 2-D array (decoder iterates on float rasters)."""
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


def domain_means(sums: np.ndarray, x, y, k: int) -> np.ndarray:
    """2x2 means of the 2k x 2k domains at origins x, y, index arrays of one shape, as a float64 (..., k, k)
    array: the stride-2 samples of each (2k-1)-window of the box_sums raster `sums`, quartered exactly."""
    d = sliding_window_view(sums, (2 * k - 1, 2 * k - 1))[y, x, ::2, ::2]  # a fresh copy
    return np.multiply(d, 0.25, out=d if d.dtype == np.float64 else None)


def co_domain_origins(x, y, k, img_w: int, img_h: int) -> tuple[np.ndarray, np.ndarray]:
    """Origins (x, y) of the 2k x 2k domains centered on the k x k ranges at x, y, each shifted per axis
    by the least amount that keeps it in bounds; k may be one side."""
    if np.any(k % 2):
        raise ValueError("range size must be even")
    if np.any(2 * k > min(img_w, img_h)):
        raise ValueError(f"no {2 * np.max(k)}x{2 * np.max(k)} domain fits a {img_w}x{img_h} image")
    # np.clip would cost the encoder's many small calls a few µs each
    return np.minimum(np.maximum(x - k // 2, 0), img_w - 2 * k), np.minimum(np.maximum(y - k // 2, 0), img_h - 2 * k)
