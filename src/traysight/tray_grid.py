"""Tray geometry: key=value layout configs, slot-index to pixel-rectangle math, slot means.

Slot indices run left to right within a row, rows top to bottom; that
order fixes the occupancy bitstring everywhere else in the package. The
feature path is ``slot_sums``: exact per-slot pixel sums, which ``slot_means``
and the presence verdict divide by the slot area. It reads one view of the slot
rows' bands: a one-slot layout (the socket ROI) sums it in one reduction, a grid
band by band. The occupancy map and synthetic trays write through ``slot_grid``.
``LAYOUT_KEYS`` is ``TrayLayout``'s dataclass field order, so it pairs with
``TrayLayout.fields()`` wherever a layout is written out or read back by position.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .imaging import GrayImage, Rect

__all__ = [
    "LAYOUT_KEYS",
    "TrayLayout",
    "parse_key_values",
    "parse_layout",
    "slot_grid",
    "slot_means",
    "slot_rect",
    "slot_sums",
]


@dataclasses.dataclass(frozen=True)
class TrayLayout:
    """Grid of equally pitched slot rectangles anchored at (origin_x, origin_y)."""

    rows: int
    cols: int
    origin_x: int
    origin_y: int
    pitch_x: int
    pitch_y: int
    slot_w: int
    slot_h: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"rows and cols must be at least 1, got {self.rows}x{self.cols}")
        if self.origin_x < 0 or self.origin_y < 0:
            raise ValueError(f"origin must be non-negative, got ({self.origin_x}, {self.origin_y})")
        if self.pitch_x < 1 or self.pitch_y < 1:
            raise ValueError(f"pitch must be at least 1, got ({self.pitch_x}, {self.pitch_y})")
        if self.slot_w < 1 or self.slot_h < 1:
            raise ValueError(f"slot size must be at least 1x1, got {self.slot_w}x{self.slot_h}")
        if self.slot_w > self.pitch_x:
            raise ValueError(f"slots would overlap: slot_w {self.slot_w} > pitch_x {self.pitch_x}")
        if self.slot_h > self.pitch_y:
            raise ValueError(f"slots would overlap: slot_h {self.slot_h} > pitch_y {self.pitch_y}")

    @property
    def slot_count(self) -> int:
        return self.rows * self.cols

    def fields(self) -> tuple[int, ...]:
        """The eight integers in field order, which LAYOUT_KEYS names (the calibration fingerprint)."""
        return dataclasses.astuple(self)


LAYOUT_KEYS = tuple(field.name for field in dataclasses.fields(TrayLayout))


def parse_key_values(text: str, types: dict[str, type], kind: str) -> dict:
    """Parse the ``key = value`` dialect ('#' comments, LF or CRLF); exactly ``types``' keys, each converted."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"line {lineno}: missing key before '='")
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    unknown = sorted(set(entries) - set(types))
    if unknown:
        raise ValueError(f"unknown {kind} key(s): {', '.join(unknown)}")
    missing = [key for key in types if key not in entries]
    if missing:
        raise ValueError(f"missing {kind} key(s): {', '.join(missing)}")
    values = {}
    for key, convert in types.items():
        try:
            values[key] = convert(entries[key])
        except ValueError:
            noun = "an integer" if convert is int else "a number"
            raise ValueError(f"{kind} key {key!r} must be {noun}, got {entries[key]!r}") from None
    return values


def parse_layout(text: str) -> TrayLayout:
    """Parse a layout config; all eight keys are required, unknown keys rejected."""
    return TrayLayout(**parse_key_values(text, dict.fromkeys(LAYOUT_KEYS, int), "layout"))


def slot_rect(layout: TrayLayout, index: int) -> Rect:
    """Pixel rectangle of the 0-based slot ``index`` (row-major scan order)."""
    if not 0 <= index < layout.slot_count:
        raise ValueError(f"slot index {index} out of range 0..{layout.slot_count - 1}")
    row, col = divmod(index, layout.cols)
    return Rect(
        layout.origin_x + col * layout.pitch_x,
        layout.origin_y + row * layout.pitch_y,
        layout.slot_w,
        layout.slot_h,
    )


def _origin(array: np.ndarray, layout: TrayLayout) -> int:
    """Byte offset of the first slot in ``array``; raises ValueError unless the layout fits.

    The bottom-right slot's fit check bounds every address a slot view holds.
    """
    height, width = array.shape[:2]
    right = layout.origin_x + (layout.cols - 1) * layout.pitch_x + layout.slot_w
    bottom = layout.origin_y + (layout.rows - 1) * layout.pitch_y + layout.slot_h
    if right > width or bottom > height:
        last = slot_rect(layout, layout.slot_count - 1)
        raise ValueError(f"{last} does not fit inside a {width}x{height} image")
    dy, dx = array.strides[:2]
    return layout.origin_y * dy + layout.origin_x * dx


def _view(array: np.ndarray, offset: int, shape: tuple, strides: tuple) -> np.ndarray:
    # Not the stride_tricks helpers: repeated use of their __array_interface__ grew
    # peak RSS ~1.5 MB (numpy 2.4).
    return np.ndarray(shape=shape, dtype=array.dtype, buffer=array, offset=offset, strides=strides)


def slot_grid(array: np.ndarray, layout: TrayLayout) -> np.ndarray:
    """Zero-copy ``(rows, cols, slot_h, slot_w, ...)`` view of every slot of ``array``.

    ``array`` is (height, width, ...); the view is writeable only if ``array`` is.
    Raises ValueError unless ``array`` is contiguous and the layout fits.
    """
    dy, dx = array.strides[:2]
    return _view(
        array,
        _origin(array, layout),
        (layout.rows, layout.cols, layout.slot_h, layout.slot_w) + array.shape[2:],
        (layout.pitch_y * dy, layout.pitch_x * dx, dy, dx) + array.strides[2:],
    )


def _accumulator(pixels: int) -> type:
    """The smallest of uint16/uint32/uint64 that holds the sum of ``pixels`` pixels of 255.

    ``np.min_scalar_type`` gives the same type at several times the cost. Past
    uint64 it gives ``object``; no layout that large fits an image, so uint64 stands in.
    """
    top = 255 * pixels
    if top < 2**16:
        return np.uint16
    if top < 2**32:
        return np.uint32
    return np.uint64


def slot_sums(image: GrayImage, layout: TrayLayout) -> np.ndarray:
    """Every slot's exact pixel sum, in slot-index order, as a 1-D unsigned array.

    Both plans read one ``(rows, slot_h, span)`` view: each slot row's ``slot_h`` image rows
    across the grid's whole width. A one-slot layout (a socket ROI) sums it in one reduction.
    A grid sums each band's rows, then each slot's ``slot_w`` columns of those band sums, which
    keeps numpy's inner loops long; that second stage is an einsum, as ``sum(axis=2)`` over a
    few columns runs numpy's slow short-axis reduction. Each stage accumulates in the smallest
    of uint16/uint32/uint64 that holds 255 times its pixel count, so no sum can wrap. Raises
    ValueError unless the layout fits.
    """
    pixels = image.pixels
    dy, dx = pixels.strides
    span = (layout.cols - 1) * layout.pitch_x + layout.slot_w
    rows = _view(
        pixels, _origin(pixels, layout), (layout.rows, layout.slot_h, span), (layout.pitch_y * dy, dy, dx)
    )
    total = _accumulator(layout.slot_h * layout.slot_w)
    if layout.slot_count == 1:
        return rows.sum(axis=(1, 2), dtype=total)
    bands = rows.sum(axis=1, dtype=_accumulator(layout.slot_h))
    band_y, band_x = bands.strides
    cells = _view(
        bands, 0, (layout.rows, layout.cols, layout.slot_w), (band_y, layout.pitch_x * band_x, band_x)
    )
    return np.einsum("rcw->rc", cells, dtype=total).ravel()


def slot_means(image: GrayImage, layout: TrayLayout) -> list[float]:
    """Every slot's mean intensity, in slot-index order: its pixel sum over slot_w*slot_h.

    The sums come from ``slot_sums``; dividing them as ``mean_intensity`` does keeps
    each mean bit-identical to the histogram oracle. Raises ValueError unless the layout fits.
    """
    area = layout.slot_w * layout.slot_h
    return [total / area for total in slot_sums(image, layout).tolist()]
