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

import numpy as np

from ._fmt import format_decimal, format_store, parse_store, store_fields
from .imaging import GrayImage
from .tray_grid import LAYOUT_KEYS, TrayLayout, slot_means, slot_sums

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
DEFAULT_OUTLIER_K = 4.0  # at 4, no slot whose references are >= 51 apart can ever be flagged
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


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
        refs = tuple(self.slot_refs)
        object.__setattr__(self, "slot_refs", refs)
        if len(refs) != self.layout.slot_count:
            raise ValueError(
                f"slot-count mismatch: layout expects {self.layout.slot_count} slots, got {len(refs)}"
            )
        for i, ref in enumerate(refs):
            w, o = ref.value_with, ref.value_without
            # NaN and ±inf fail the range tests too.
            if not 0 <= w <= 255:
                raise ValueError(f"slot {i}: with reference {w!r} outside [0, 255]")
            if not 0 <= o <= 255:
                raise ValueError(f"slot {i}: without reference {o!r} outside [0, 255]")
            if w == o:
                row, col = divmod(i, self.layout.cols)
                raise ValueError(
                    f"degenerate calibration: slot {i} (row {row + 1}, col {col + 1}) has "
                    f"identical with/without references ({w!r}); the classes cannot be separated"
                )
        with_ = np.array([ref.value_with for ref in refs])
        without = np.array([ref.value_without for ref in refs])
        # The arrays the verdict reads; not fields, so repr, eq, hash and the store ignore them.
        object.__setattr__(self, "_columns", (with_, without, np.abs(with_ - without)))


@dataclass(frozen=True)
class OccupancyResult:
    """One tray's verdict in slot-index order.

    ``bitstring`` holds one character per slot, "1" occupied and "0" empty: the
    verdict record's field. ``outliers`` holds the ascending indices of the slots
    whose reading sits further than outlier_k reference separations from both
    references; the flag never changes a bit.
    """

    bitstring: str
    outliers: tuple[int, ...]

    @property
    def bits(self) -> tuple[int, ...]:
        """The bitstring as 1/0 ints."""
        return tuple(self.bitstring.encode("ascii").translate(_BIT_VALUES))


def calibrate_presence(
    with_image: GrayImage, without_image: GrayImage, layout: TrayLayout
) -> PresenceReferenceSet:
    """Sample every slot of a fully loaded and a fully empty tray image.

    Raises ValueError if the layout exceeds either image or if any slot's two
    references coincide (the classifier could not separate the classes there).
    """
    pairs = zip(slot_means(with_image, layout), slot_means(without_image, layout))
    return PresenceReferenceSet(layout, (SlotReference(w, o) for w, o in pairs))


def _nearest_reference(value, with_, without):
    """The nearest-reference rule, elementwise: the occupied bits (strict ``<``,
    so a tie is empty) and each reading's distance to the nearer reference."""
    to_with = abs(value - with_)
    to_without = abs(value - without)
    # dtype=float also takes the Python ints beyond int64 that classify_slot accepts.
    return to_with < to_without, np.minimum(to_with, to_without, dtype=float)


def _evidence(image, layout, refs):
    """Every slot's reading, occupied bit and distance to the nearer reference, as arrays."""
    if refs.layout != layout:
        raise ValueError(
            "reference set was calibrated against a different layout: "
            f"{refs.layout.fields()} vs {layout.fields()}"
        )
    # Sums are integers below 2**53, so each quotient is the correctly rounded one of slot_means.
    value = slot_sums(image, layout) / (layout.slot_w * layout.slot_h)
    with_, without, _ = refs._columns
    return (value, *_nearest_reference(value, with_, without))


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
    return bool(_nearest_reference(value_unknown, value_with, value_without)[0])


def inspect_tray(
    image: GrayImage,
    layout: TrayLayout,
    refs: PresenceReferenceSet,
    outlier_k: float = DEFAULT_OUTLIER_K,
) -> OccupancyResult:
    """Classify every slot of ``image`` against calibrated references.

    A slot is flagged (not reclassified) when its reading sits further than
    outlier_k times the reference separation from both references. A reading lies
    in [0, 255], so at k = 4 no slot whose references are >= 51 apart ever is.
    """
    if outlier_k <= 0 or not math.isfinite(outlier_k):
        raise ValueError(f"outlier_k must be finite and positive, got {outlier_k!r}")
    # References lie in [0, 255], so no separation exceeds 255 and no threshold overflows.
    if not math.isfinite(outlier_k * 255):
        raise ValueError(f"outlier_k times a separation of 255 must be finite, got {outlier_k!r}")
    _, occupied, nearer = _evidence(image, layout, refs)
    flags = nearer > outlier_k * refs._columns[2]
    # A bool array's bytes are 0 and 1, one per slot.
    bitstring = occupied.tobytes().translate(_BIT_CHARS).decode("ascii")
    return OccupancyResult(bitstring, tuple(flags.nonzero()[0].tolist()))


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
        layout = TrayLayout(*(int(p) for p in store_fields(records[0], "layout", len(LAYOUT_KEYS))))
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
    return PresenceReferenceSet(layout, refs)
