"""8-bit grayscale rasters: PGM/PPM codec, grayscale conversion, cropping, histograms.

The 256-bin histogram here is the paper's definition of the detectors' feature
and the reference they are tested against (see :func:`traysight.tray_grid.slot_means`).
Images are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GrayImage",
    "Rect",
    "PnmError",
    "PnmHeaderError",
    "PnmMaxvalError",
    "PnmDataError",
    "to_gray",
    "crop",
    "histogram",
    "decode_pnm",
    "encode_p5",
    "encode_p6",
    "load_gray_image",
    "save_gray_image",
    "save_color_image",
]

class PnmError(ValueError):
    """Malformed portable-anymap (P5/P6) data."""


class PnmHeaderError(PnmError):
    """Header is not a valid binary PGM/PPM header."""


class PnmMaxvalError(PnmError):
    """Header maxval is not 255."""


class PnmDataError(PnmError):
    """Pixel payload is shorter than the header promises."""


@dataclass(frozen=True, eq=False, repr=False)
class GrayImage:
    """Single-channel 8-bit image; ``pixels`` is a read-only (height, width) array."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image must be a non-empty 2-D array, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"pixel values must be integers, got dtype {arr.dtype}")
        if arr.dtype != np.uint8 and (int(arr.min()) < 0 or int(arr.max()) > 255):
            raise ValueError("pixel values must lie in [0, 255]")
        arr = arr.astype(np.uint8, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __repr__(self):
        return f"GrayImage({self.width}x{self.height})"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned pixel rectangle; x/y is the top-left corner."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ValueError(f"rect origin must be non-negative, got ({self.x}, {self.y})")
        if self.w < 1 or self.h < 1:
            raise ValueError(f"rect size must be at least 1x1, got {self.w}x{self.h}")


def to_gray(r: int, g: int, b: int) -> int:
    """BT.601 luma of an RGB triple (channels in [0, 255]), rounded half-up."""
    luma = 0.299 * r + 0.587 * g + 0.114 * b
    return min(255, int(math.floor(luma + 0.5)))


def crop(img: GrayImage, r: Rect) -> GrayImage:
    """Copy out the sub-image covered by ``r``; ``r`` must lie fully inside ``img``."""
    if r.x + r.w > img.width or r.y + r.h > img.height:
        raise ValueError(f"{r} does not fit inside a {img.width}x{img.height} image")
    return GrayImage(img.pixels[r.y : r.y + r.h, r.x : r.x + r.w])


def histogram(img: GrayImage) -> np.ndarray:
    """256 int64 intensity counts, index = intensity value; bins sum to width*height."""
    return np.bincount(img.pixels.ravel(), minlength=256).astype(np.int64)


_SPACE = b" \t\n\r\x0b\x0c"
# Whitespace and '#'-to-end-of-line comments, then a header integer's digits. In
# bytes mode \s is exactly _SPACE and \d is [0-9].
_HEADER_INT = re.compile(rb"(?:\s|#[^\r\n]*)*(\d*)")


def _read_header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    match = _HEADER_INT.match(data, pos)
    start, pos = match.span(1)
    if start == pos:
        raise PnmHeaderError(f"expected integer {what} at byte offset {start}")
    return int(data[start:pos]), pos


def decode_pnm(data: bytes) -> GrayImage:
    """Decode binary PGM (P5) or PPM (P6) bytes; P6 is converted via :func:`to_gray`."""
    magic = bytes(data[:2])
    if magic not in (b"P5", b"P6"):
        raise PnmHeaderError(f"not a binary PGM/PPM (magic {magic!r})")
    width, pos = _read_header_int(data, 2, "width")
    height, pos = _read_header_int(data, pos, "height")
    maxval, pos = _read_header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PnmHeaderError(f"bad image dimensions {width}x{height}")
    if maxval != 255:
        raise PnmMaxvalError(f"unsupported maxval {maxval} (only 255 is accepted)")
    if pos >= len(data) or data[pos] not in _SPACE:
        raise PnmHeaderError("missing whitespace separator after maxval")
    pos += 1
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    have = len(data) - pos
    if have < need:
        raise PnmDataError(f"pixel data truncated: need {need} bytes, have {have}")
    raw = np.frombuffer(data, np.uint8, need, pos)
    if channels == 1:
        return GrayImage(raw.reshape(height, width))
    rgb = raw.reshape(height, width, 3).astype(np.float64)
    # Same expression as to_gray so scalar and vector paths agree bit-for-bit.
    luma = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
    gray = np.minimum(np.floor(luma + 0.5), 255.0).astype(np.uint8)
    return GrayImage(gray)


def encode_p5(img: GrayImage) -> bytes:
    """Canonical binary PGM bytes: ``P5\\n<w> <h>\\n255\\n`` + raw pixel payload."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def encode_p6(rgb: np.ndarray) -> bytes:
    """Binary PPM bytes from a (height, width, 3) uint8 array."""
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a (height, width, 3) array, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got dtype {arr.dtype}")
    header = f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    return header + arr.tobytes()


def load_gray_image(path) -> GrayImage:
    """Load a binary PGM/PPM file as grayscale."""
    return decode_pnm(Path(path).read_bytes())


def save_gray_image(img: GrayImage, path) -> None:
    """Write ``img`` as a binary PGM file."""
    Path(path).write_bytes(encode_p5(img))


def save_color_image(rgb: np.ndarray, path) -> None:
    """Write a (height, width, 3) uint8 array as a binary PPM file."""
    Path(path).write_bytes(encode_p6(rgb))
