"""Seeded synthetic tray images with ground truth.

Stands in for the physical rig: slot interiors draw from a Gaussian around
the with-module or empty class mean, the rest of the frame around a
background mean, everything rounded and clamped to [0, 255]. The same spec
(including seed) always yields the same bytes. A socket frame is drawn as a
1x1 tray whose one slot is the socket ROI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import GrayImage
from .tray_grid import LAYOUT_KEYS, TrayLayout, parse_key_values, slot_grid

__all__ = [
    "SceneSpec",
    "generate_tray",
    "parse_scene",
]

_SCENE_TYPES = {**dict.fromkeys(LAYOUT_KEYS, int), "occupancy": str,
                **dict.fromkeys(("mu_with", "mu_without", "sigma", "background"), float),
                "seed": int}


@dataclass(frozen=True)
class SceneSpec:
    """Everything needed to regenerate one tray image and its ground truth."""

    layout: TrayLayout
    occupancy: tuple[bool, ...]
    mu_with: float
    mu_without: float
    sigma: float
    background: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "occupancy", tuple(bool(b) for b in self.occupancy))
        if len(self.occupancy) != self.layout.slot_count:
            raise ValueError(
                f"occupancy has {len(self.occupancy)} entries, "
                f"layout expects {self.layout.slot_count}"
            )
        for name in ("mu_with", "mu_without", "background"):
            value = getattr(self, name)
            if not 0 <= value <= 255:  # NaN and ±inf fail it too
                raise ValueError(f"{name} must lie in [0, 255], got {value!r}")
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError(f"sigma must be finite and non-negative, got {self.sigma!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def generate_tray(spec: SceneSpec) -> tuple[GrayImage, tuple[bool, ...]]:
    """Render the scene; returns the image and the planted occupancy."""
    layout = spec.layout
    width = layout.origin_x + layout.cols * layout.pitch_x
    height = layout.origin_y + layout.rows * layout.pitch_y
    rng = np.random.default_rng(spec.seed)
    canvas = rng.normal(spec.background, spec.sigma, size=(height, width))
    slots = slot_grid(canvas, layout)
    mu = np.where(spec.occupancy, spec.mu_with, spec.mu_without).reshape(slots.shape[:2] + (1, 1))
    # A C-order draw takes the slots in index order, so a per-slot loop draws the same bytes.
    slots[...] = rng.normal(mu, spec.sigma, size=slots.shape)
    return GrayImage(np.clip(np.rint(canvas), 0, 255).astype(np.uint8)), spec.occupancy


def parse_scene(text: str) -> SceneSpec:
    """Parse a scene manifest; all keys required, unknown keys rejected."""
    values = parse_key_values(text, _SCENE_TYPES, "scene")
    layout = TrayLayout(*(values.pop(key) for key in LAYOUT_KEYS))
    bits = values.pop("occupancy")
    if set(bits) - {"0", "1"}:
        raise ValueError(f"occupancy must be a string of 0/1, got {bits!r}")
    return SceneSpec(layout=layout, occupancy=(c == "1" for c in bits), **values)
