"""Seeded benchmark scenes, rendered with ``traysight.synthgen`` only.

Run as a script to render one workload's inputs into a directory:

    python3 bench/scenes.py WORKLOAD SEED OUT_DIR [--toy]

``run.py`` does this in a child process, so that the float64 canvases of
generation never count toward the peak RSS of the process it measures.
The same workload, seed and size always give the same files.
"""

from __future__ import annotations

import json
import sys
import zlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Layout fields, in LAYOUT_KEYS order: rows cols origin_x origin_y pitch_x pitch_y slot_w slot_h.
# Tray scenes draw a pool of distinct trays; socket scenes a set of calibration
# frames and a pool of frames to verify. Each socket frame is a 1x1 "tray"
# whose single slot is the socket ROI, so the frame is much larger than the ROI.
SCENES = {
    # The paper's 4x5 tray, 275x181 px.
    "paper_line": {"kind": "tray", "layout": [4, 5, 5, 1, 54, 45, 44, 36], "pool": 32, "map": False},
    # 2500 slots on 1225x1221 px; the CLI leg also renders the occupancy map.
    "dense_tray": {"kind": "tray", "layout": [50, 50, 25, 21, 24, 24, 20, 20], "pool": 8, "map": True},
    # One 40x40 ROI in a 340x240 frame.
    "socket_verify": {"kind": "socket", "layout": [1, 1, 150, 100, 190, 140, 40, 40], "pool": 64, "calib": 60},
}

# Toy sizes for the self-test: same kinds and code paths, a few pixels each.
TOY = {
    "paper_line": {"layout": [2, 3, 2, 2, 14, 12, 10, 8], "pool": 4},
    "dense_tray": {"layout": [6, 6, 3, 3, 12, 12, 9, 9], "pool": 3},
    "socket_verify": {"layout": [1, 1, 20, 15, 45, 35, 20, 20], "pool": 8, "calib": 30},
}

# Class means sit 100 levels apart, far beyond the per-slot mean's noise
# (sigma / sqrt(slot pixels) <= 3), so every planted bit is recoverable.
TRAY = {"mu_with": 170.0, "mu_without": 70.0, "sigma": 25.0, "background": 110.0, "p_occupied": 0.7}

# Calibration frames spread their lighting evenly over +-calib_spread, which
# sets the model's std near 2.3 and the accept band near +-4.6. Frames planted
# OK jitter by at most ok_jitter and NG frames shift by 15..40 levels, so the
# planted label is the only correct verdict for every frame.
SOCKET = {
    "mu_ok": 140.0,
    "sigma": 10.0,
    "background": 60.0,
    "calib_spread": 4.0,
    "ok_jitter": 0.5,
    "ng_shift": [15.0, 40.0],
    "ng_share": 0.25,
}


def scene(workload: str, toy: bool) -> dict:
    """The parameters of one workload's scene, at full or toy size."""
    params = dict(SCENES[workload])
    if toy:
        params.update(TOY[workload])
    params.update(TRAY if params["kind"] == "tray" else SOCKET)
    return params


def render(workload: str, seed: int, out: Path, toy: bool = False) -> dict:
    """Write the workload's images and ``manifest.json`` into ``out``; return the manifest."""
    import numpy as np

    from traysight import imaging, synthgen, tray_grid

    params = scene(workload, toy)
    layout = tray_grid.TrayLayout(*params["layout"])
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    out.mkdir(parents=True, exist_ok=True)

    def draw(name: str, occupancy, mu_with: float, mu_without: float) -> None:
        spec = synthgen.SceneSpec(
            layout, occupancy, mu_with, mu_without, params["sigma"], params["background"],
            int(rng.integers(0, 2**63)),
        )
        image, _ = synthgen.generate_tray(spec)
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        imaging.save_gray_image(image, out / name)

    n = layout.slot_count
    names = [f"pool/{i:03d}.pgm" for i in range(params["pool"])]
    manifest = {"workload": workload, "seed": seed, "toy": toy, "scene": params, "pool": names}
    if params["kind"] == "tray":
        mu = (params["mu_with"], params["mu_without"])
        draw("with.pgm", [True] * n, *mu)
        draw("without.pgm", [False] * n, *mu)
        truth = []
        for name in names:
            bits = rng.random(n) < params["p_occupied"]
            draw(name, bits, *mu)
            truth.append("".join("1" if b else "0" for b in bits))
        lines = [f"{k} = {v}" for k, v in zip(tray_grid.LAYOUT_KEYS, layout.fields())]
        (out / "layout.cfg").write_text("\n".join(lines) + "\n", encoding="ascii")
    else:
        mu_ok, spread = params["mu_ok"], params["calib_spread"]
        offsets = rng.permutation(np.linspace(-spread, spread, params["calib"]))
        for i, offset in enumerate(offsets):
            draw(f"calib/{i:03d}.pgm", [True], mu_ok + offset, mu_ok + offset)
        low, high = params["ng_shift"]
        draw("ng_ref.pgm", [True], mu_ok + high, mu_ok + high)
        truth = []
        ng = set(rng.permutation(len(names))[: round(params["ng_share"] * len(names))].tolist())
        for i, name in enumerate(names):
            ok = i not in ng
            if ok:
                mu = mu_ok + rng.uniform(-params["ok_jitter"], params["ok_jitter"])
            else:
                mu = mu_ok + rng.choice([-1.0, 1.0]) * rng.uniform(low, high)
            draw(name, [True], mu, mu)
            truth.append(bool(ok))
        manifest["calib"] = [f"calib/{i:03d}.pgm" for i in range(params["calib"])]
        roi = tray_grid.slot_rect(layout, 0)
        manifest["roi"] = [roi.x, roi.y, roi.w, roi.h]
    manifest["truth"] = truth
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="ascii")
    return manifest


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    render(workload, seed, out_dir, toy="--toy" in sys.argv[4:])
