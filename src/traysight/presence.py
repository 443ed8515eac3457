"""Slot occupancy: per-slot with/without calibration and nearest-reference classification.

Calibration records one mean-intensity pair per slot. An unknown tray is
classified slot by slot: occupied iff its reading is strictly closer to the
with-module reference than to the empty reference (ties count as empty, the
fail-safe verdict). Readings far from both references only raise a warning
flag, never change the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._fmt import format_decimal, format_store, parse_store, store_fields
from .imaging import GrayImage
from .tray_grid import TrayLayout, slot_means

__all__ = [
    "SlotReference",
    "PresenceReferenceSet",
    "OccupancyResult",
    "calibrate_presence",
    "classify_slot",
    "inspect_tray",
    "save_presence_refs",
    "load_presence_refs",
]

_STORE_MAGIC = "TRAYSIGHT-PRESENCE"
_STORE_VERSION = 1
DEFAULT_OUTLIER_K = 4.0  # flag readings further than 4 reference separations from both


@dataclass(frozen=True)
class SlotReference:
    """Calibrated mean intensities of one slot, with and without a module."""

    value_with: float
    value_without: float


@dataclass(frozen=True)
class PresenceReferenceSet:
    """One SlotReference per slot plus the layout it was calibrated against."""

    layout: TrayLayout
    slot_refs: tuple[SlotReference, ...]

    def __post_init__(self):
        object.__setattr__(self, "slot_refs", tuple(self.slot_refs))
        if len(self.slot_refs) != self.layout.slot_count:
            raise ValueError(
                f"slot-count mismatch: layout expects {self.layout.slot_count} slots, "
                f"got {len(self.slot_refs)}"
            )
        for i, ref in enumerate(self.slot_refs):
            for name, value in (("with", ref.value_with), ("without", ref.value_without)):
                if not math.isfinite(value) or not 0 <= value <= 255:
                    raise ValueError(f"slot {i}: {name} reference {value!r} outside [0, 255]")
            if ref.value_with == ref.value_without:
                row, col = divmod(i, self.layout.cols)
                raise ValueError(
                    f"degenerate calibration: slot {i} (row {row + 1}, col {col + 1}) has "
                    f"identical with/without references ({ref.value_with!r}); "
                    "the classes cannot be separated"
                )


@dataclass(frozen=True)
class OccupancyResult:
    """Per-slot 1/0 bits in slot-index order, plus per-slot outlier flags."""

    bits: tuple[int, ...]
    warnings: tuple[bool, ...]

    @property
    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)


def calibrate_presence(
    with_image: GrayImage, without_image: GrayImage, layout: TrayLayout
) -> PresenceReferenceSet:
    """Sample every slot of a fully loaded and a fully empty tray image.

    Raises ValueError if the layout exceeds either image or if any slot's two
    references coincide (the classifier could not separate the classes there).
    """
    pairs = zip(slot_means(with_image, layout), slot_means(without_image, layout))
    return PresenceReferenceSet(layout, tuple(SlotReference(w, o) for w, o in pairs))


def classify_slot(value_unknown: float, value_with: float, value_without: float) -> bool:
    """Nearest-reference rule: occupied iff strictly closer to the with reference.

    Ties classify as empty; a skipped pick is cheaper than sending the nozzle
    to an empty pocket.
    """
    for name, value in (
        ("value_unknown", value_unknown),
        ("value_with", value_with),
        ("value_without", value_without),
    ):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    return abs(value_unknown - value_with) < abs(value_unknown - value_without)


def inspect_tray(
    image: GrayImage,
    layout: TrayLayout,
    refs: PresenceReferenceSet,
    outlier_k: float = DEFAULT_OUTLIER_K,
) -> OccupancyResult:
    """Classify every slot of ``image`` against calibrated references.

    A slot is flagged (not reclassified) when its reading sits further than
    outlier_k times the reference separation from both references, e.g. after
    lighting drift.
    """
    if outlier_k <= 0 or not math.isfinite(outlier_k):
        raise ValueError(f"outlier_k must be finite and positive, got {outlier_k!r}")
    if refs.layout != layout:
        raise ValueError(
            "reference set was calibrated against a different layout: "
            f"{refs.layout.fields()} vs {layout.fields()}"
        )
    bits = []
    flags = []
    for value, ref in zip(slot_means(image, layout), refs.slot_refs):
        to_with = abs(value - ref.value_with)
        to_without = abs(value - ref.value_without)
        bits.append(int(to_with < to_without))  # classify_slot's rule: a tie is empty
        flags.append(min(to_with, to_without) > outlier_k * abs(ref.value_with - ref.value_without))
    return OccupancyResult(tuple(bits), tuple(flags))


def save_presence_refs(refs: PresenceReferenceSet) -> str:
    """Serialize to the versioned ASCII store; exact round trip via load."""
    layout = "layout " + " ".join(str(v) for v in refs.layout.fields())
    slots = (
        f"slot {i} with {format_decimal(ref.value_with)} "
        f"without {format_decimal(ref.value_without)}"
        for i, ref in enumerate(refs.slot_refs)
    )
    return format_store(_STORE_MAGIC, _STORE_VERSION, [layout, *slots])


def load_presence_refs(text: str) -> PresenceReferenceSet:
    """Parse the store format written by save_presence_refs, re-validating invariants."""
    records = parse_store(text, _STORE_MAGIC, _STORE_VERSION, "presence reference")
    if not records:
        raise ValueError("missing layout line")
    try:
        layout = TrayLayout(*(int(p) for p in store_fields(records[0], "layout", 8)))
    except ValueError as exc:
        raise ValueError(f"malformed layout line: {exc}") from None
    refs = []
    for i, line in enumerate(records[1:]):
        parts = line.split()
        if len(parts) != 6 or parts[0] != "slot" or parts[2] != "with" or parts[4] != "without":
            raise ValueError(f"malformed slot line: {line!r}")
        if parts[1] != str(i):
            raise ValueError(f"slot lines must be ascending without gaps: expected {i}, got {parts[1]!r}")
        try:
            refs.append(SlotReference(float(parts[3]), float(parts[5])))
        except ValueError:
            raise ValueError(f"malformed slot line: {line!r}") from None
    return PresenceReferenceSet(layout, tuple(refs))
