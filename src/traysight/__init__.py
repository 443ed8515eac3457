"""Calibrate-then-classify machine vision for pick-and-place module testing.

Two detectors built on the same scalar: the mean intensity of a region's
256-bin histogram, computed as its integer pixel sum over its pixel count
(``tray_grid.slot_sums``). Tray slots are classified occupied/empty by nearest
calibrated reference; socket placements pass/fail a z-score tolerance
band around the calibrated mean.

The names below load their module on first use (PEP 562). A CLI call imports
``presence`` and ``placement`` (its parser shows their defaults) and the modules
they use, but ``evaluation`` and ``synthgen`` only for the subcommands that run them.
"""

import os
from importlib import import_module

# traysight makes no BLAS call, but OpenBLAS starts a thread per CPU when numpy
# loads, and those threads spin while numpy imports. If the caller has not chosen
# a thread count, import numpy with one thread (nothing loads if it already is),
# then restore the caller's environment for child processes and any BLAS library
# loaded later.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

_EXPORTS = {
    "evaluation": ("ConfusionMatrix", "Metrics", "metrics", "tally"),
    "imaging": (
        "GrayImage", "Rect", "crop", "histogram", "load_gray_image", "save_gray_image", "to_gray",
    ),
    "placement": (
        "PlacementModel", "PlacementVerdict", "UndersampledWarning", "calibrate_placement",
        "load_placement_model", "save_placement_model", "verify_placement", "verify_value",
    ),
    "presence": (
        "OccupancyResult", "PresenceReferenceSet", "SlotReference", "calibrate_presence",
        "classify_slot", "inspect_tray", "load_presence_refs", "save_presence_refs",
    ),
    "stats": ("mean_intensity", "sample_mean", "sample_std"),
    "synthgen": ("SceneSpec", "generate_tray"),
    "tray_grid": ("TrayLayout", "parse_layout", "slot_means", "slot_rect"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return set(globals()) | set(__all__)  # dir() sorts it
