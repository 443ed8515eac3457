"""Calibrate-then-classify machine vision for pick-and-place module testing.

Two detectors built on the same scalar: the mean intensity of a region's
256-bin histogram, computed as its integer pixel sum over its pixel count
(``tray_grid.slot_sums``). Tray slots are classified occupied/empty by nearest
calibrated reference; socket placements pass/fail a z-score tolerance
band around the calibrated mean.
"""

from .evaluation import ConfusionMatrix, Metrics, metrics, tally
from .imaging import (
    GrayImage,
    Rect,
    crop,
    histogram,
    load_gray_image,
    save_gray_image,
    to_gray,
)
from .placement import (
    PlacementModel,
    PlacementVerdict,
    UndersampledWarning,
    calibrate_placement,
    load_placement_model,
    save_placement_model,
    verify_placement,
    verify_value,
)
from .presence import (
    OccupancyResult,
    PresenceReferenceSet,
    SlotReference,
    calibrate_presence,
    classify_slot,
    inspect_tray,
    load_presence_refs,
    save_presence_refs,
)
from .stats import ci_halfwidth, mean_intensity, sample_mean, sample_std
from .synthgen import SceneSpec, generate_socket_series, generate_tray
from .tray_grid import TrayLayout, parse_layout, slot_means, slot_rect

__version__ = "0.1.0"

__all__ = [
    "ConfusionMatrix",
    "GrayImage",
    "Metrics",
    "OccupancyResult",
    "PlacementModel",
    "PlacementVerdict",
    "PresenceReferenceSet",
    "Rect",
    "SceneSpec",
    "SlotReference",
    "TrayLayout",
    "UndersampledWarning",
    "calibrate_placement",
    "calibrate_presence",
    "ci_halfwidth",
    "classify_slot",
    "crop",
    "generate_socket_series",
    "generate_tray",
    "histogram",
    "inspect_tray",
    "load_gray_image",
    "load_placement_model",
    "load_presence_refs",
    "mean_intensity",
    "metrics",
    "parse_layout",
    "sample_mean",
    "sample_std",
    "save_gray_image",
    "save_placement_model",
    "save_presence_refs",
    "slot_means",
    "slot_rect",
    "tally",
    "to_gray",
    "verify_placement",
    "verify_value",
]
