"""Command-line frontend.

Exit codes: 0 success/OK verdict, 1 NG verdict, 2 operational error, which
includes a failed write to stdout or stderr; every write to a stdout closed
at start fails. Standard output carries only verdict/metric records;
everything else (warnings, tray maps, diagnostics) goes to the error stream,
or nowhere when that is closed, so stdout stays machine-parseable.

Run as a process (``main()`` with no argument), the CLI freezes the objects it
created at import with ``gc.freeze()``, so the interpreter's exit skips
sweeping them; ``main(argv)`` called in process leaves the caller's garbage
collector alone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import sys
import warnings
from pathlib import Path

import numpy as np

# presence and placement supply the parser's defaults; evaluate and synth
# import the modules only they use.
from . import imaging, placement, presence, tray_grid

OCCUPIED_COLOR = (0, 200, 0)
EMPTY_COLOR = (200, 0, 0)
BACKGROUND_COLOR = (90, 90, 90)
_GRID_CHARS = str.maketrans("01", ".#")  # the tray grid printed to stderr


def _read_text(path) -> str:
    return imaging._read(path).decode("ascii")


def _parse_roi(text: str) -> imaging.Rect:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--roi must be x,y,w,h, got {text!r}")
    try:
        x, y, w, h = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"--roi components must be integers, got {text!r}")
    return imaging.Rect(x, y, w, h)


def _check_record_id(value: str, flag: str) -> None:
    # The id is one field of a stdout record; whitespace would split it or forge a record.
    if value.split() != [value]:
        raise ValueError(f"{flag} must be non-empty and contain no whitespace, got {value!r}")


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
    palette = np.array([EMPTY_COLOR, OCCUPIED_COLOR], dtype=np.uint8)
    slots = tray_grid.slot_grid(rgb, layout)
    # Paint each slot's top row, then copy it down the slot, as for the background.
    bits = np.frombuffer(result.bitstring.encode("ascii"), np.uint8) - ord("0")
    slots[:, :, 0] = palette.take(bits.reshape(layout.rows, layout.cols, 1), axis=0)
    slots[:, :, 1:] = slots[:, :, :1]
    return rgb


def cmd_calibrate_presence(args) -> int:
    layout = tray_grid.parse_layout(_read_text(args.layout))
    with_image = imaging.load_gray_image(args.with_path)
    without_image = imaging.load_gray_image(args.without_path)
    refs = presence.calibrate_presence(with_image, without_image, layout)
    Path(args.out).write_text(presence.save_presence_refs(refs), encoding="ascii")
    return 0


def _emit(record, notes, code) -> int:
    print(record)
    for line in notes:
        print(line, file=sys.stderr)
    return code


def _load_tray(args):
    refs = presence.load_presence_refs(_read_text(args.refs))
    layout = tray_grid.parse_layout(_read_text(args.layout)) if args.layout else refs.layout
    return refs, layout, args.outlier_k


def _inspect_frame(tray, tray_id, image_path, map_path=None):
    # One frame against a _load_tray result: the record, its stderr lines and its exit code.
    _check_record_id(tray_id, "--tray-id")
    refs, layout, outlier_k = tray
    image = imaging.load_gray_image(image_path)
    result = presence.inspect_tray(image, layout, refs, outlier_k=outlier_k)
    if map_path:  # written before the record is returned, so a failed write leaves no record
        imaging.save_color_image(_render_map(image, layout, result), map_path)
    cells = result.bitstring.translate(_GRID_CHARS)
    notes = [f"WARN slot {i} outlier" for i in result.outliers]
    notes += [cells[start : start + layout.cols] for start in range(0, len(cells), layout.cols)]
    return f"PRESENCE {tray_id} {result.bitstring}", notes, 0


def cmd_inspect(args) -> int:
    return _emit(*_inspect_frame(_load_tray(args), args.tray_id, args.image, args.map))


def cmd_calibrate_placement(args) -> int:
    roi = _parse_roi(args.roi)
    # One frame at a time; the paths are expanded at once, so a directory's errors come first.
    samples = (imaging.load_gray_image(p) for p in _expand_samples(args.samples))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = placement.calibrate_placement(samples, roi, z=args.z, min_n=args.min_n)
    for notice in caught:
        if issubclass(notice.category, placement.UndersampledWarning):
            print(f"WARN under-sampled n={model.n}", file=sys.stderr)
    Path(args.out).write_text(placement.save_placement_model(model), encoding="ascii")
    return 0


def _load_model(args):
    return placement.load_placement_model(_read_text(args.model))


def _verify_frame(model, ident, image_path):
    # One frame against a _load_model result, as _inspect_frame.
    _check_record_id(ident, "--id")
    verdict = placement.verify_placement(imaging.load_gray_image(image_path), model)
    if verdict.correct:
        return f"PLACEMENT {ident} OK", [], 0
    return (
        f"PLACEMENT {ident} NG value={verdict.value:.6f} "
        f"mean={model.mean_value:.6f} threshold={verdict.threshold:.6f}"
    ), [], 1


def cmd_verify(args) -> int:
    return _emit(*_verify_frame(_load_model(args), args.id, args.image))


def cmd_evaluate(args) -> int:
    from . import evaluation

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
    from . import evaluation, synthgen

    spec = synthgen.parse_scene(_read_text(args.scene))
    if args.require_separable and spec.mu_with == spec.mu_without:
        raise ValueError("scene is not separable: mu_with equals mu_without")
    image, truth = synthgen.generate_tray(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    imaging.save_gray_image(image, out_dir / "tray.pgm")
    labels = evaluation.format_labels((i, bit) for i, bit in enumerate(truth))
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
    p.add_argument("--refs", required=True)
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
    p.add_argument("--model", required=True)
    p.add_argument("--id", required=True)
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


def _parse_args(argv) -> argparse.Namespace:
    # argparse ignores a failed write of its help or usage text and exits as if it had
    # succeeded. Collect that text and write it here, where a failed write is exit 2.
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return build_parser().parse_args(argv)
    except SystemExit:
        for text, stream in ((out.getvalue(), sys.stdout), (err.getvalue(), sys.stderr)):
            if text:
                stream.write(text)
                stream.flush()
        raise


def _flush_or_silence(stream) -> None:
    # After a failed write, point a process stream's fd at devnull, so the
    # interpreter's exit flush cannot fail again (exit 120). Others are left alone.
    try:
        stream.flush()
    except OSError:
        if stream is sys.__stdout__ or stream is sys.__stderr__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)


class _ClosedStdout(io.TextIOBase):
    """Stands in for a stdout closed at start, so that printing a record fails."""

    def write(self, text):
        raise OSError("stdout is closed")


def main(argv=None) -> int:
    if argv is None:
        # This process ends when main returns, so its exit need not sweep the import-time objects.
        gc.freeze()
    # CPython sets a stream closed at start to None. print() would then drop every
    # record silently, and print(file=None) would send diagnostics to stdout.
    if sys.stdout is None:
        sys.stdout = _ClosedStdout()
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w")
    try:
        args = _parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a failed record write is an operational error too
        return code
    except (OSError, ValueError) as exc:
        message = f"error: {exc}"
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        message = f"error: out of memory{detail}"
    _flush_or_silence(sys.stdout)  # deliver any record already printed before anything else
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:
        _flush_or_silence(sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
