"""Tray geometry: key=value layout configs, slot-index to pixel-rectangle math, slot means.

Slot indices run left to right within a row, rows top to bottom; that
order fixes the occupancy bitstring everywhere else in the package. Slot
means, the occupancy map and synthetic trays all go through ``slot_grid``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

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
]

LAYOUT_KEYS = (
    "rows",
    "cols",
    "origin_x",
    "origin_y",
    "pitch_x",
    "pitch_y",
    "slot_w",
    "slot_h",
)


@dataclass(frozen=True)
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
        """The eight layout integers in LAYOUT_KEYS order (the calibration fingerprint)."""
        return astuple(self)


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


def slot_grid(array: np.ndarray, layout: TrayLayout) -> np.ndarray:
    """Zero-copy ``(rows, cols, slot_h, slot_w, ...)`` view of every slot of ``array``.

    ``array`` is (height, width, ...); the view is writeable only if ``array`` is.
    Raises ValueError unless ``array`` is contiguous and the layout fits.
    """
    height, width = array.shape[:2]
    last = slot_rect(layout, layout.slot_count - 1)
    if last.x + last.w > width or last.y + last.h > height:
        raise ValueError(f"{last} does not fit inside a {width}x{height} image")
    # The bottom-right slot's fit check bounds every address the view holds. Not
    # as_strided: repeated use of its __array_interface__ grew peak RSS ~1.5 MB (numpy 2.4).
    dy, dx = array.strides[:2]
    return np.ndarray(
        shape=(layout.rows, layout.cols, layout.slot_h, layout.slot_w) + array.shape[2:],
        dtype=array.dtype,
        buffer=array,
        offset=layout.origin_y * dy + layout.origin_x * dx,
        strides=(layout.pitch_y * dy, layout.pitch_x * dx, dy, dx) + array.strides[2:],
    )


def slot_means(image: GrayImage, layout: TrayLayout) -> list[float]:
    """Every slot's mean intensity, in slot-index order: its pixel sum over slot_w*slot_h.

    The int64 sums come from ``slot_grid``; dividing them as ``mean_intensity`` does keeps
    each mean bit-identical to the histogram oracle. Raises ValueError unless the layout fits.
    """
    slots = slot_grid(image.pixels, layout)
    area = layout.slot_w * layout.slot_h
    return [total / area for total in slots.sum(axis=(2, 3), dtype=np.int64).ravel().tolist()]
