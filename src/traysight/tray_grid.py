"""Tray geometry: key=value layout configs, slot-index to pixel-rectangle math, slot means.

Slot indices run left to right within a row, rows top to bottom; that
order fixes the occupancy bitstring everywhere else in the package.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .imaging import GrayImage, Rect

__all__ = [
    "LAYOUT_KEYS",
    "TrayLayout",
    "layout_from_entries",
    "parse_key_values",
    "parse_layout",
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


def parse_key_values(text: str) -> dict[str, str]:
    """Parse the line-oriented ``key = value`` dialect ('#' comments, LF or CRLF)."""
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
    return entries


def parse_layout(text: str) -> TrayLayout:
    """Parse a layout config; all eight keys are required, unknown keys rejected."""
    entries = parse_key_values(text)
    unknown = sorted(set(entries) - set(LAYOUT_KEYS))
    if unknown:
        raise ValueError(f"unknown layout key(s): {', '.join(unknown)}")
    return layout_from_entries(entries)


def layout_from_entries(entries: dict[str, str]) -> TrayLayout:
    """Build a TrayLayout from parsed ``key = value`` entries; keys besides LAYOUT_KEYS are ignored."""
    missing = [key for key in LAYOUT_KEYS if key not in entries]
    if missing:
        raise ValueError(f"missing layout key(s): {', '.join(missing)}")
    values = {}
    for key in LAYOUT_KEYS:
        try:
            values[key] = int(entries[key])
        except ValueError:
            raise ValueError(f"layout key {key!r} must be an integer, got {entries[key]!r}") from None
    return TrayLayout(**values)


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


def slot_means(image: GrayImage, layout: TrayLayout) -> list[float]:
    """Every slot's mean intensity, in slot-index order: its pixel sum over slot_w*slot_h.

    One int64 reduction over a zero-copy view of the slot grid gives the sums. Each
    mean is then the same Python int division that ``mean_intensity(histogram(crop(...)))``
    performs, so the two are bit-identical. Raises ValueError unless the layout fits.
    """
    last = slot_rect(layout, layout.slot_count - 1)
    if last.x + last.w > image.width or last.y + last.h > image.height:
        raise ValueError(f"{last} does not fit inside a {image.width}x{image.height} image")
    # (rows, cols, slot_h, slot_w) view of the slots; the last slot is the
    # bottom-right one, so the fit check bounds every address it reads. Not
    # as_strided: it goes through __array_interface__, whose repeated use grew
    # peak RSS by about 1.5 MB under numpy 2.4.
    pixels = image.pixels
    dy, dx = pixels.strides
    slots = np.ndarray(
        shape=(layout.rows, layout.cols, layout.slot_h, layout.slot_w),
        dtype=pixels.dtype,
        buffer=pixels,
        offset=layout.origin_y * dy + layout.origin_x * dx,
        strides=(layout.pitch_y * dy, layout.pitch_x * dx, dy, dx),
    )
    area = layout.slot_w * layout.slot_h
    return [total / area for total in slots.sum(axis=(2, 3), dtype=np.int64).ravel().tolist()]
