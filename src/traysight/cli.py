"""Command-line frontend.

Exit codes: 0 success/OK verdict, 1 NG verdict, 2 operational error.
Standard output carries only verdict/metric records; everything else
(warnings, tray maps, diagnostics) goes to the error stream, so stdout
stays machine-parseable.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import evaluation, imaging, placement, presence, synthgen, tray_grid

OCCUPIED_COLOR = (0, 200, 0)
EMPTY_COLOR = (200, 0, 0)
BACKGROUND_COLOR = (90, 90, 90)


def _read_text(path) -> str:
    return Path(path).read_text(encoding="ascii")


def _parse_roi(text: str) -> imaging.Rect:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--roi must be x,y,w,h, got {text!r}")
    try:
        x, y, w, h = (int(p.strip()) for p in parts)
    except ValueError:
        raise ValueError(f"--roi components must be integers, got {text!r}") from None
    return imaging.Rect(x, y, w, h)


def _expand_samples(args_paths) -> list[Path]:
    paths: list[Path] = []
    for raw in args_paths:
        p = Path(raw)
        if p.is_dir():
            found = sorted(q for q in p.iterdir() if q.suffix.lower() in (".pgm", ".ppm"))
            if not found:
                raise ValueError(f"no .pgm/.ppm sample images in directory {p}")
            paths.extend(found)
        else:
            paths.append(p)
    return paths


def _render_map(image, layout, result) -> np.ndarray:
    # np.full fills one 3-byte pixel at a time; copying a filled row is ~50x faster.
    rgb = np.empty((image.height, image.width, 3), dtype=np.uint8)
    rgb[0] = BACKGROUND_COLOR
    rgb[1:] = rgb[0]
    occupied = np.reshape(result.bits, (layout.rows, layout.cols, 1, 1, 1))
    tray_grid.slot_grid(rgb, layout)[...] = np.where(occupied, OCCUPIED_COLOR, EMPTY_COLOR)
    return rgb


def cmd_calibrate_presence(args) -> int:
    layout = tray_grid.parse_layout(_read_text(args.layout))
    with_image = imaging.load_gray_image(args.with_path)
    without_image = imaging.load_gray_image(args.without_path)
    refs = presence.calibrate_presence(with_image, without_image, layout)
    Path(args.out).write_text(presence.save_presence_refs(refs), encoding="ascii")
    return 0


def cmd_inspect(args) -> int:
    refs = presence.load_presence_refs(_read_text(args.refs))
    layout = tray_grid.parse_layout(_read_text(args.layout)) if args.layout else refs.layout
    image = imaging.load_gray_image(args.image)
    result = presence.inspect_tray(image, layout, refs, outlier_k=args.outlier_k)
    if args.map:
        imaging.save_color_image(_render_map(image, layout, result), args.map)
    print(f"PRESENCE {args.tray_id} {result.bitstring}")
    for i, flagged in enumerate(result.warnings):
        if flagged:
            print(f"WARN slot {i} outlier", file=sys.stderr)
    for row in range(layout.rows):
        cells = result.bits[row * layout.cols : (row + 1) * layout.cols]
        print("".join("#" if bit else "." for bit in cells), file=sys.stderr)
    return 0


def cmd_calibrate_placement(args) -> int:
    roi = _parse_roi(args.roi)
    samples = [imaging.load_gray_image(p) for p in _expand_samples(args.samples)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = placement.calibrate_placement(samples, roi, z=args.z, min_n=args.min_n)
    for notice in caught:
        if issubclass(notice.category, placement.UndersampledWarning):
            print(f"WARN under-sampled n={model.n}", file=sys.stderr)
    Path(args.out).write_text(placement.save_placement_model(model), encoding="ascii")
    return 0


def cmd_verify(args) -> int:
    model = placement.load_placement_model(_read_text(args.model))
    image = imaging.load_gray_image(args.image)
    verdict = placement.verify_placement(image, model)
    if verdict.correct:
        print(f"PLACEMENT {args.id} OK")
        return 0
    print(
        f"PLACEMENT {args.id} NG value={verdict.value:.6f} "
        f"mean={model.mean_value:.6f} threshold={verdict.threshold:.6f}"
    )
    return 1


def cmd_evaluate(args) -> int:
    predicted = evaluation.parse_labels(_read_text(args.pred))
    actual = evaluation.parse_labels(_read_text(args.truth))
    cm = evaluation.tally(*evaluation.join_labels(predicted, actual))
    result = evaluation.metrics(cm)
    print(f"TP {cm.tp} FN {cm.fn} FP {cm.fp} TN {cm.tn}")
    print(
        f"accuracy {evaluation.format_metric(result.accuracy)} "
        f"precision {evaluation.format_metric(result.precision)} "
        f"recall {evaluation.format_metric(result.recall)}"
    )
    return 0


def cmd_synth(args) -> int:
    spec = synthgen.parse_scene(_read_text(args.scene))
    if args.require_separable and spec.mu_with == spec.mu_without:
        raise ValueError("scene is not separable: mu_with equals mu_without")
    image, truth = synthgen.generate_tray(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    imaging.save_gray_image(image, out_dir / "tray.pgm")
    labels = evaluation.format_labels((str(i), bit) for i, bit in enumerate(truth))
    (out_dir / "truth.txt").write_text(labels, encoding="ascii")
    print(f"wrote {out_dir / 'tray.pgm'} and {out_dir / 'truth.txt'}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traysight",
        description="Histogram-based tray occupancy and socket placement inspection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate-presence", help="build per-slot with/without references")
    p.add_argument("--with", dest="with_path", required=True, metavar="IMG",
                   help="tray image with every slot occupied")
    p.add_argument("--without", dest="without_path", required=True, metavar="IMG",
                   help="tray image with every slot empty")
    p.add_argument("--layout", required=True, metavar="CFG")
    p.add_argument("--out", required=True, metavar="REFS")
    p.set_defaults(func=cmd_calibrate_presence)

    p = sub.add_parser("inspect", help="classify every slot of a tray image")
    p.add_argument("--image", required=True, metavar="IMG")
    p.add_argument("--layout", metavar="CFG",
                   help="must match the layout stored in REFS (default: that layout)")
    p.add_argument("--refs", required=True, metavar="REFS")
    p.add_argument("--tray-id", required=True, metavar="ID")
    p.add_argument("--map", metavar="PPM", help="write a color occupancy map (P6)")
    p.add_argument("--outlier-k", type=float, default=presence.DEFAULT_OUTLIER_K, metavar="K",
                   help="flag readings further than K reference separations from both references")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("calibrate-placement", help="build the socket tolerance model")
    p.add_argument("--samples", required=True, nargs="+", metavar="PATH",
                   help="sample images, or directories of .pgm/.ppm files")
    p.add_argument("--roi", required=True, metavar="X,Y,W,H")
    p.add_argument("--z", type=float, default=placement.DEFAULT_Z)
    p.add_argument("--min-n", type=int, default=placement.DEFAULT_MIN_N)
    p.add_argument("--out", required=True, metavar="MODEL")
    p.set_defaults(func=cmd_calibrate_placement)

    p = sub.add_parser("verify", help="check one socket image against the model")
    p.add_argument("--image", required=True, metavar="IMG")
    p.add_argument("--model", required=True, metavar="MODEL")
    p.add_argument("--id", required=True, metavar="ID")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evaluate", help="confusion matrix and metrics from label files")
    p.add_argument("--pred", required=True, metavar="FILE")
    p.add_argument("--truth", required=True, metavar="FILE")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="render a synthetic tray scene with ground truth")
    p.add_argument("--scene", required=True, metavar="MANIFEST")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.add_argument("--require-separable", action="store_true",
                   help="fail if the scene's class means coincide")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
