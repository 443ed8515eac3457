"""8-bit grayscale rasters: PGM/PPM codec, grayscale conversion, cropping, histograms.

The 256-bin histogram here is the paper's definition of the detectors' feature
and the reference they are tested against (see :func:`traysight.tray_grid.slot_sums`).
Images are immutable after construction and safe to share between workers:
``GrayImage`` copies its pixels unless they are C-contiguous ``uint8`` over a
``bytes`` object, which nothing can change, so ``decode_pnm`` of ``bytes`` and
``load_gray_image`` alias the file bytes instead of copying them.

``load_gray_image`` is the one image file read, the CLI's too: it takes a
regular file or a pipe and refuses anything else, such as a device or a
directory, with a ``ValueError`` before a byte is read. Both savers write the
header and then the pixel buffer, never a joined copy of the frame.
"""

from __future__ import annotations

import re
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GrayImage",
    "Rect",
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


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Single-channel 8-bit image; ``pixels`` is a read-only (height, width) array.

    Construction copies the pixels, except a C-contiguous ``uint8`` array whose
    ``.base`` chain ends in a ``bytes`` object: that memory is immutable and numpy
    refuses to make it writeable, so the image keeps a view of it. Arrays over a
    ``bytearray`` or a ``memoryview`` are copied.
    """

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image must be a non-empty 2-D array, got shape {arr.shape}")
        uint8 = arr.dtype == np.uint8  # the dtype proves the range; no scan
        if not uint8 and not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"pixel values must be integers, got dtype {arr.dtype}")
        if not uint8 and (int(arr.min()) < 0 or int(arr.max()) > 255):
            raise ValueError("pixel values must lie in [0, 255]")
        if uint8 and arr.flags.c_contiguous and _over_bytes(arr):
            # Share the immutable memory through an array object the caller does not hold.
            arr = arr.view()
        else:
            arr = arr.astype(np.uint8)
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


def _over_bytes(arr: np.ndarray) -> bool:
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    return type(base) is bytes


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
    """BT.601 luma of an RGB triple of integers in [0, 255], rounded half-up."""
    for name, value in zip("rgb", (r, g, b)):
        if not isinstance(value, (int, np.integer)) or not 0 <= value <= 255:
            raise ValueError(f"channel {name} must be an integer in [0, 255], got {value!r}")
    return int(_luma(r, g, b))


def _luma(r, g, b):
    # Python ints or uint8 arrays: uint8 times a Python float is float64, so both take the same IEEE steps.
    return np.minimum(np.floor(0.299 * r + 0.587 * g + 0.114 * b + 0.5), 255.0)


def crop(img: GrayImage, r: Rect) -> GrayImage:
    """Copy out the sub-image covered by ``r``; ``r`` must lie fully inside ``img``."""
    if r.x + r.w > img.width or r.y + r.h > img.height:
        raise ValueError(f"{r} does not fit inside a {img.width}x{img.height} image")
    return GrayImage(img.pixels[r.y : r.y + r.h, r.x : r.x + r.w])


def histogram(img: GrayImage) -> np.ndarray:
    """256 int64 intensity counts, index = intensity value; bins sum to width*height."""
    return np.bincount(img.pixels.ravel(), minlength=256).astype(np.int64)


_SPACE = b" \t\n\r\x0b\x0c"
# _HEADER reads width, height and maxval in one match: three times whitespace and
# '#'-to-end-of-line comments, then one integer's digits. In bytes mode \s is
# exactly _SPACE and \d is [0-9]. Every piece may match empty, so the match never
# backtracks and each group spans what a token-by-token read would take.
_HEADER = re.compile(rb"(?:\s|#[^\r\n]*)*(\d*)" * 3)


def decode_pnm(data: bytes) -> GrayImage:
    """Decode binary PGM (P5) or PPM (P6) bytes; P6 is converted by :func:`to_gray`'s rule."""
    magic = bytes(data[:2])
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"not a binary PGM/PPM (magic {magic!r})")
    header = _HEADER.match(data, 2)
    width, height, maxval = header.groups()
    if not maxval:  # an empty group leaves every later one empty
        first = (width, height, maxval).index(b"")
        what = ("width", "height", "maxval")[first]
        raise ValueError(f"expected integer {what} at byte offset {header.start(first + 1)}")
    width, height, maxval = int(width), int(height), int(maxval)
    pos = header.end()
    if width < 1 or height < 1:
        raise ValueError(f"bad image dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval} (only 255 is accepted)")
    if pos >= len(data) or data[pos] not in _SPACE:
        raise ValueError("missing whitespace separator after maxval")
    pos += 1
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    have = len(data) - pos
    if have < need:
        raise ValueError(f"pixel data truncated: need {need} bytes, have {have}")
    raw = np.frombuffer(data, np.uint8, need, pos)
    gray = raw if channels == 1 else _luma(raw[0::3], raw[1::3], raw[2::3]).astype(np.uint8)
    return GrayImage(gray.reshape(height, width))


def _pnm_parts(magic: str, pixels) -> tuple[bytes, memoryview]:
    # The header and the C-contiguous payload, unjoined. P5 pixels come checked from a GrayImage.
    arr = np.asarray(pixels)
    if magic == "P6" and (arr.ndim != 3 or arr.shape[2] != 3 or arr.shape[0] < 1 or arr.shape[1] < 1):
        raise ValueError(f"expected a (height, width, 3) array, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got dtype {arr.dtype}")
    header = f"{magic}\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    return header, np.ascontiguousarray(arr).data


def encode_p5(img: GrayImage) -> bytes:
    """Canonical binary PGM bytes: ``P5\\n<w> <h>\\n255\\n`` + raw pixel payload."""
    return b"".join(_pnm_parts("P5", img.pixels))


def encode_p6(rgb: np.ndarray) -> bytes:
    """Binary PPM bytes from a (height, width, 3) uint8 array."""
    return b"".join(_pnm_parts("P6", rgb))


def _read(path) -> bytes:
    # A device such as /dev/zero, a camera or a terminal could feed the read until memory runs out.
    if stat.S_IFMT(Path(path).stat().st_mode) not in (stat.S_IFREG, stat.S_IFIFO):
        raise ValueError(f"{path}: not a regular file or a pipe")
    return Path(path).read_bytes()


def load_gray_image(path) -> GrayImage:
    """Load a binary PGM/PPM regular file or pipe as grayscale; anything else is a ``ValueError``."""
    return decode_pnm(_read(path))


def save_gray_image(img: GrayImage, path) -> None:
    """Write ``img`` as a binary PGM file, without a joined copy."""
    parts = _pnm_parts("P5", img.pixels)
    with Path(path).open("wb") as f:
        f.writelines(parts)


def save_color_image(rgb: np.ndarray, path) -> None:
    """Write a (height, width, 3) uint8 array as a binary PPM file, without a joined copy."""
    parts = _pnm_parts("P6", rgb)
    with Path(path).open("wb") as f:
        f.writelines(parts)
