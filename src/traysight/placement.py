"""Socket placement verification via a z-score tolerance band.

Calibration reads the socket ROI's mean intensity from repeated correct
placements and records the mean and Bessel-corrected standard deviation of
those per-image means. A new observation passes iff its deviation from the
calibrated mean is at most z*std (inclusive), with a small epsilon floor so
a zero-variance calibration does not reject everything. A reading lies in
[0, 255], so a band of at least max(mean, 255 - mean) could never reject;
such a model is refused.

The band for a single observation is z*std, not z*std/sqrt(n). The latter
is the half-width of the calibration mean's confidence interval, which would
shrink toward zero as calibration grows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

from ._fmt import format_decimal, format_store, parse_store, store_fields
from .imaging import GrayImage, Rect
from .stats import sample_mean, sample_std
from .tray_grid import TrayLayout, slot_means

__all__ = [
    "UndersampledWarning",
    "PlacementModel",
    "PlacementVerdict",
    "calibrate_placement",
    "verify_value",
    "verify_placement",
    "save_placement_model",
    "load_placement_model",
]

_STORE_MAGIC = "TRAYSIGHT-PLACEMENT"
_STORE_VERSION = 1
_RECORDS = (("roi", 4), ("n", 1), ("mean", 1), ("std", 1), ("z", 1), ("eps_floor", 1))  # key, value count

DEFAULT_Z = 1.96  # 95% two-sided under normality
DEFAULT_EPS_FLOOR = 0.5  # intensity levels; guards zero-variance calibrations
DEFAULT_MIN_N = 30


class UndersampledWarning(UserWarning):
    """Calibration succeeded but used fewer samples than requested."""


@dataclass(frozen=True)
class PlacementModel:
    """Tolerance model for one socket ROI."""

    roi: Rect
    n: int
    mean_value: float
    std_value: float
    z: float = DEFAULT_Z
    eps_floor: float = DEFAULT_EPS_FLOOR

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"model needs at least 2 calibration samples, got {self.n}")
        if not 0 <= self.mean_value <= 255:  # NaN and ±inf fail it too
            raise ValueError(f"mean_value {self.mean_value!r} outside [0, 255]")
        if not math.isfinite(self.std_value) or self.std_value < 0:
            raise ValueError(f"std_value must be finite and non-negative, got {self.std_value!r}")
        if not math.isfinite(self.z) or self.z <= 0:
            raise ValueError(f"z must be finite and positive, got {self.z!r}")
        if not math.isfinite(self.eps_floor) or self.eps_floor < 0:
            raise ValueError(f"eps_floor must be finite and non-negative, got {self.eps_floor!r}")
        # A reading lies in [0, 255], so a band reaching both ends would accept every frame.
        if self.threshold >= max(self.mean_value, 255 - self.mean_value):
            raise ValueError(
                f"tolerance band {self.threshold!r} around mean {self.mean_value!r} covers [0, 255]; "
                "the model could never reject"
            )
        object.__setattr__(self, "_layout", _roi_layout(self.roi))  # verify_placement's layout; not a field

    @property
    def threshold(self) -> float:
        """Acceptance bound applied to |value - mean_value|."""
        return max(self.z * self.std_value, self.eps_floor)


@dataclass(frozen=True)
class PlacementVerdict:
    """Outcome of checking one observation against a model."""

    correct: bool
    value: float
    deviation: float
    threshold: float


def calibrate_placement(
    samples: Iterable[GrayImage],
    roi: Rect,
    z: float = DEFAULT_Z,
    min_n: int = DEFAULT_MIN_N,
) -> PlacementModel:
    """Build a PlacementModel from repeated correct-placement images, each read once in turn.

    Fewer than 2 samples is a hard error; 2 <= n < min_n succeeds but emits
    an UndersampledWarning.
    """
    layout = _roi_layout(roi)
    values = [slot_means(image, layout)[0] for image in samples]
    n = len(values)
    model = PlacementModel(roi=roi, n=n, mean_value=sample_mean(values), std_value=sample_std(values), z=z)
    if n < min_n:
        warnings.warn(
            f"under-sampled calibration: n={n} < min_n={min_n}",
            UndersampledWarning,
            stacklevel=2,
        )
    return model


def verify_value(value: float, model: PlacementModel) -> PlacementVerdict:
    """Apply the tolerance rule to an already-computed mean intensity."""
    if not math.isfinite(value):
        raise ValueError(f"observed value must be finite, got {value!r}")
    deviation = abs(value - model.mean_value)
    threshold = model.threshold
    return PlacementVerdict(
        correct=deviation <= threshold,
        value=value,
        deviation=deviation,
        threshold=threshold,
    )


def verify_placement(image: GrayImage, model: PlacementModel) -> PlacementVerdict:
    """Verdict the socket image: mean intensity over the model ROI vs the tolerance band."""
    return verify_value(slot_means(image, model._layout)[0], model)


def _roi_layout(roi: Rect) -> TrayLayout:
    # The ROI is a one-slot layout, so both detectors share one feature path.
    return TrayLayout(1, 1, roi.x, roi.y, roi.w, roi.h, roi.w, roi.h)


def save_placement_model(model: PlacementModel) -> str:
    """Serialize to the versioned ASCII store; exact round trip via load."""
    roi = model.roi
    records = [
        f"roi {roi.x} {roi.y} {roi.w} {roi.h}",
        f"n {model.n}",
        f"mean {format_decimal(model.mean_value)}",
        f"std {format_decimal(model.std_value)}",
        f"z {format_decimal(model.z)}",
        f"eps_floor {format_decimal(model.eps_floor)}",
    ]
    return format_store(_STORE_MAGIC, _STORE_VERSION, records)


def load_placement_model(text: str) -> PlacementModel:
    """Parse the store format written by save_placement_model, re-validating invariants."""
    records = parse_store(text, _STORE_MAGIC, _STORE_VERSION, "placement model")
    if len(records) != len(_RECORDS):
        raise ValueError(f"placement store must have {1 + len(_RECORDS)} lines, got {1 + len(records)}")
    try:
        fields = [store_fields(line, key, count) for (key, count), line in zip(_RECORDS, records)]
        roi = Rect(*(int(p) for p in fields[0]))
        n = int(fields[1][0])
        mean, std, z, eps_floor = (float(values[0]) for values in fields[2:])
    except ValueError as exc:
        raise ValueError(f"malformed placement store: {exc}") from None
    return PlacementModel(roi=roi, n=n, mean_value=mean, std_value=std, z=z, eps_floor=eps_floor)
