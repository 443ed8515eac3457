"""Time one cold set-up in a fresh interpreter and print its seconds.

Set-up is what a line does before its first verdict: import traysight,
decode the calibration images, calibrate, save the store and load it back.
Input generation is not part of it.

    python3 bench/setup_child.py SCENE_DIR STORE_OUT

The store text goes to STORE_OUT so the caller can check it.
"""

import json
import sys
import time
from pathlib import Path


def main(scene_dir: Path, store_out: Path) -> float:
    manifest = json.loads((scene_dir / "manifest.json").read_text(encoding="ascii"))
    start = time.perf_counter()
    from traysight import imaging, placement, presence, tray_grid

    if manifest["scene"]["kind"] == "tray":
        layout = tray_grid.parse_layout((scene_dir / "layout.cfg").read_text(encoding="ascii"))
        with_image = imaging.decode_pnm((scene_dir / "with.pgm").read_bytes())
        without_image = imaging.decode_pnm((scene_dir / "without.pgm").read_bytes())
        refs = presence.calibrate_presence(with_image, without_image, layout)
        store_out.write_text(presence.save_presence_refs(refs), encoding="ascii")
        presence.load_presence_refs(store_out.read_text(encoding="ascii"))
    else:
        samples = [imaging.decode_pnm((scene_dir / name).read_bytes()) for name in manifest["calib"]]
        model = placement.calibrate_placement(samples, imaging.Rect(*manifest["roi"]))
        store_out.write_text(placement.save_placement_model(model), encoding="ascii")
        placement.load_placement_model(store_out.read_text(encoding="ascii"))
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(Path(sys.argv[1]), Path(sys.argv[2]))))
