"""Seeded synthetic tray and socket images with ground truth.

Stands in for the physical rig: slot interiors draw from a Gaussian around
the with-module or empty class mean, the rest of the frame around a
background mean, everything rounded and clamped to [0, 255]. The same spec
(including seed) always yields the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fmt import format_decimal
from .imaging import GrayImage, Rect
from .tray_grid import LAYOUT_KEYS, TrayLayout, layout_from_entries, parse_key_values, slot_rect

__all__ = [
    "SceneSpec",
    "generate_tray",
    "generate_socket_series",
    "parse_scene",
    "format_scene",
]

_SCENE_FLOAT_KEYS = ("mu_with", "mu_without", "sigma", "background")
_SCENE_KEYS = LAYOUT_KEYS + ("occupancy",) + _SCENE_FLOAT_KEYS + ("seed",)


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
        for name, value in (
            ("mu_with", self.mu_with),
            ("mu_without", self.mu_without),
            ("background", self.background),
        ):
            if not math.isfinite(value) or not 0 <= value <= 255:
                raise ValueError(f"{name} must lie in [0, 255], got {value!r}")
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError(f"sigma must be finite and non-negative, got {self.sigma!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def _quantize(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values), 0, 255).astype(np.uint8)


def generate_tray(spec: SceneSpec) -> tuple[GrayImage, tuple[bool, ...]]:
    """Render the scene; returns the image and the planted occupancy."""
    layout = spec.layout
    width = layout.origin_x + layout.cols * layout.pitch_x
    height = layout.origin_y + layout.rows * layout.pitch_y
    rng = np.random.default_rng(spec.seed)
    canvas = rng.normal(spec.background, spec.sigma, size=(height, width))
    for i, occupied in enumerate(spec.occupancy):
        r = slot_rect(layout, i)
        mu = spec.mu_with if occupied else spec.mu_without
        canvas[r.y : r.y + r.h, r.x : r.x + r.w] = rng.normal(mu, spec.sigma, size=(r.h, r.w))
    return GrayImage(_quantize(canvas)), spec.occupancy


def generate_socket_series(
    roi: Rect, mu: float, sigma: float, count: int, seed: int
) -> list[GrayImage]:
    """``count`` socket images whose ROI pixels draw from Normal(mu, sigma).

    Pixels outside the ROI are zero, which keeps ROI-only dependence visible
    in tests. Deterministic per seed.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not math.isfinite(mu) or not 0 <= mu <= 255:
        raise ValueError(f"mu must lie in [0, 255], got {mu!r}")
    if not math.isfinite(sigma) or sigma < 0:
        raise ValueError(f"sigma must be finite and non-negative, got {sigma!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    width = roi.x + roi.w
    height = roi.y + roi.h
    rng = np.random.default_rng(seed)
    images = []
    for _ in range(count):
        canvas = np.zeros((height, width))
        canvas[roi.y : roi.y + roi.h, roi.x : roi.x + roi.w] = rng.normal(
            mu, sigma, size=(roi.h, roi.w)
        )
        images.append(GrayImage(_quantize(canvas)))
    return images


def format_scene(spec: SceneSpec) -> str:
    """Scene manifest in the layout config's key=value dialect."""
    lines = [f"{key} = {value}" for key, value in zip(LAYOUT_KEYS, spec.layout.fields())]
    lines.append("occupancy = " + "".join("1" if b else "0" for b in spec.occupancy))
    for key in _SCENE_FLOAT_KEYS:
        lines.append(f"{key} = {format_decimal(getattr(spec, key))}")
    lines.append(f"seed = {spec.seed}")
    return "\n".join(lines) + "\n"


def parse_scene(text: str) -> SceneSpec:
    """Parse a scene manifest; all keys required, unknown keys rejected."""
    entries = parse_key_values(text)
    unknown = sorted(set(entries) - set(_SCENE_KEYS))
    if unknown:
        raise ValueError(f"unknown scene key(s): {', '.join(unknown)}")
    missing = [key for key in _SCENE_KEYS if key not in entries]
    if missing:
        raise ValueError(f"missing scene key(s): {', '.join(missing)}")
    layout = layout_from_entries(entries)
    bits = entries["occupancy"]
    if set(bits) - {"0", "1"}:
        raise ValueError(f"occupancy must be a string of 0/1, got {bits!r}")
    floats = {}
    for key in _SCENE_FLOAT_KEYS:
        try:
            floats[key] = float(entries[key])
        except ValueError:
            raise ValueError(f"scene key {key!r} must be a number, got {entries[key]!r}") from None
    try:
        seed = int(entries["seed"])
    except ValueError:
        raise ValueError(f"scene key 'seed' must be an integer, got {entries['seed']!r}") from None
    return SceneSpec(
        layout=layout,
        occupancy=tuple(c == "1" for c in bits),
        seed=seed,
        **floats,
    )
