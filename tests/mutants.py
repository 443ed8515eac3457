"""Mutation check: every mutant of ``src/`` must fail a test named for it.

    python tests/mutants.py [--root DIR] [NAME ...]

For each mutant (all, or each NAME), the script copies ``src/``, ``tests/`` and
``pyproject.toml`` of DIR (default: this checkout) into a new temporary
directory, so that pytest's ``pythonpath`` and ``helpers.SRC`` point at the copy.
It replaces the mutant's ``old`` text, which must occur exactly once in its
module, with ``new``, and runs the mutant's node IDs (under ``tests/``) in one
pytest process, one mutant at a time. It prints each mutant as killed (a named
test failed), survived, or error (the text was not found, or pytest could not
collect the named tests), and exits 1 unless every mutant was killed. pytest
does not collect this file.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
G = "test_golden_cli.py::test_case_matches_its_golden_digest"
A = "test_acceptance.py::test_criterion_"
REFS = "test_presence.py::TestReferenceSetInvariants::test_"
MEAN = "test_stats.py::TestMeanIntensity::test_"
INSPECT = "_inspect_frame(_load_tray(args), args.tray_id, args.image"
PER_FRAME = "test_cli.py::TestPerFrameJudges::test_each_frame_gives_its_single_shot_output"

# (name, module under src/traysight, old text, new text, the node IDs under tests/ that kill it,
# separated by spaces; "[case]" is that golden CLI case)
MUTANTS = [
    # Verdict rules and the feature
    ("tie-occupied", "presence.py", "to_with < to_without,", "to_with <= to_without,", "[tie-constant]"),
    ("evidence-tie-occupied", "presence.py", "    return (value, *_nearest_reference(value, with_, without))\n",
     "    occupied, nearer = _nearest_reference(value, without, with_)\n    return value, ~occupied, nearer\n",
     "[tie-constant] test_presence.py::TestInspectTray::test_matches_per_slot_reference_rule"),
    ("outlier-ge", "presence.py", "nearer > outlier_k", "nearer >= outlier_k", "[outlier-k-1]"),
    ("band-open", "placement.py", "deviation <= ", "deviation < ", "[socket-zero-variance]"),
    ("band-uint16", "tray_grid.py", "_accumulator(layout.slot_h))", "np.uint16)", "[acc-grid-h258]"),
    ("sums-uint16", "tray_grid.py", "= _accumulator(layout.slot_h * layout.slot_w)", "= np.uint16",
     "[acc-roi-h258]"),
    ("mean-by-reciprocal", "tray_grid.py", "[total / area for", "[total * (1 / area) for",
     "test_presence.py::TestCalibrate::test_matches_crop_and_average_oracle"),
    ("verdict-mean-by-reciprocal", "presence.py", "layout) / (layout.slot_w * layout.slot_h)",
     "layout) * (1 / (layout.slot_w * layout.slot_h))",
     "test_presence.py::TestInspectTray::test_matches_per_slot_reference_rule"),
    ("p6-luma-rint", "imaging.py", "np.floor(0.299 * r + 0.587 * g + 0.114 * b + 0.5)",
     "np.rint(0.299 * r + 0.587 * g + 0.114 * b)", "[p6-4x5]"),
    ("bins-from-one", "stats.py", "np.arange(256, dtype", "np.arange(1, 257, dtype",
     f"{A}2_statistics_oracle_equivalence"),
    ("std-over-n", "stats.py", "/ (len(xs) - 1)", "/ len(xs)", f"{A}2_statistics_oracle_equivalence"),
    ("float-bins", "stats.py", "if not np.issubdtype(bins.dtype, np.integer):", "if False:",
     f"{MEAN}non_integer_counts_rejected"),
    ("bound-x2", "stats.py", "> _MAX_COUNT", "> 2 * _MAX_COUNT", f"{MEAN}overflowing_counts_rejected"),
    ("bound-inclusive", "stats.py", "> _MAX_COUNT", ">= _MAX_COUNT", f"{MEAN}largest_safe_counts_exact"),
    ("mean-no-astype", "stats.py", "counts = bins.astype(np.int64)", "counts = bins",
     f"{MEAN}uint64_counts_summed_exactly"),
    ("precision-over-fn", "evaluation.py", "(cm.tp + cm.fp) if", "(cm.tp + cm.fn) if",
     f"{A}1_reference_metrics_reproduction"),
    ("tally-fn-fp-swapped", "evaluation.py", "fn=cells[0, 1], fp=cells[1, 0]", "fn=cells[1, 0], fp=cells[0, 1]",
     "test_evaluation.py::TestTally::test_matches_counting_oracle"),
    ("metric-digits", "evaluation.py", "value:.4f", "value:.3f", f"{A}1_reference_metrics_reproduction"),
    # Model invariants and input checks
    ("reference-checks-swapped", "presence.py", "            if not 0 <= w",
     '            if not 0 <= o <= 255:\n                raise ValueError(f"slot {i}: without reference '
     '{o!r} outside [0, 255]")\n            if not 0 <= w', f"{REFS}both_out_of_range_reports_with"),
    ("degenerate", "presence.py", "if w == o:", "if False:", "[calibrate-identical]"),
    ("with-below-255", "presence.py", "0 <= w <= 255", "0 <= w < 255", f"{REFS}range_ends_accepted"),
    ("without-below-255", "presence.py", "0 <= o <= 255", "0 <= o < 255", f"{REFS}range_ends_accepted"),
    ("with-nan", "presence.py", "if not 0 <= w <= 255:", "if w < 0 or w > 255:", f"{REFS}nan_with_rejected"),
    ("without-nan", "presence.py", "if not 0 <= o <= 255:", "if o < 0 or o > 255:",
     f"{REFS}non_finite_without_rejected"),
    ("refs-keep-list", "presence.py", '        object.__setattr__(self, "slot_refs", refs)\n', "",
     f"{REFS}list_built_set_is_hashable_and_equals_its_tuple_twin"),
    ("scene-keep-list", "synthgen.py",
     '        object.__setattr__(self, "occupancy", tuple(bool(b) for b in self.occupancy))\n', "",
     "test_synthgen.py::TestSceneSpecValidation::test_int_occupancy_stored_as_a_tuple_of_bools"),
    ("tally-unmapped", "evaluation.py", "zip(map(bool, predicted), map(bool, actual))", "zip(predicted, actual)",
     "test_evaluation.py::TestTally::test_truthy_label_counts_as_true"),
    ("lazy-name-unbound", "__init__.py", "    globals()[name] = value\n", "",
     "test_package.py::TestLazyNames::test_a_name_is_bound_after_its_first_read"),
    ("slot-count", "presence.py", "if len(refs) != self.layout", "if False", f"{REFS}wrong_length_message"),
    ("slot-order", "presence.py", "if parts[1] != str(i):", "if False:",
     "test_presence.py::TestReferenceStore::test_out_of_order_slots"),
    ("layout-unchecked", "presence.py", "refs.layout != layout:", "False:", "[inspect-layout-mismatch]"),
    ("band-reaching", "placement.py", "self.threshold >= max(", "self.threshold > max(",
     "test_placement.py::TestModelInvariants::test_rejects_eps_floor_at_reach"),
    ("band-min-reach", "placement.py", "self.threshold >= max(", "self.threshold >= min(",
     f"{A}6_boundary_exactness"),
    ("placement-lines", "placement.py", "if len(records) != len(_RECORDS):", "if False:",
     "test_placement.py::TestModelStore::test_missing_line"),
    ("one-sample-std", "stats.py", "if len(xs) < 2:", "if len(xs) < 1:", "[socket-one-sample]"),
    ("touching-slots", "tray_grid.py", "slot_w > self.pitch_x:", "slot_w >= self.pitch_x:", "[slot-1x1]"),
    ("gray-no-view", "imaging.py", "arr = arr.view()", "pass",
     "test_imaging.py::TestGrayImage::test_shares_bytes_through_its_own_array"),
    ("rect-origin", "imaging.py", "if self.x < 0 or self.y < 0:", "if False:",
     "test_imaging.py::TestRect::test_rejects_negative_origin"),
    ("maxval", "imaging.py", "if maxval != 255:", "if False:", "[image-maxval-65535]"),
    ("layout-key-missing", "tray_grid.py", "    if missing:\n", "    if False:\n",
     "test_tray_grid.py::TestParseLayout::test_missing_key"),
    ("layout-key-duplicate", "tray_grid.py", "if key in entries:", "if False:",
     "test_tray_grid.py::TestParseLayout::test_duplicate_key"),
    ("label-id-duplicate", "evaluation.py", "if ident in labels:", "if False:", "[evaluate-duplicate-id]"),
    ("label-ids-unjoined", "evaluation.py", "if missing or extra:", "if False:", "[evaluate-mismatched-ids]"),
    ("synth-sigma", "synthgen.py", "or self.sigma < 0:", "or False:", "[synth-sigma-negative]"),
    ("synth-reworded", "synthgen.py", "must lie in", "must be in", "[synth-mu-with-above-255]"),
    ("pnm-maxval-254", "imaging.py", '\\n255\\n".encode', '\\n254\\n".encode', "[grid-00]"),
    # Stores
    ("decimal-unpadded", "_fmt.py", "{frac.ljust(6, '0')}", "{frac}", "[socket-40x40]"),
    ("store-version", "_fmt.py", "header[1] != str(version):", "False:", "test_stores.py::test_envelope"),
    ("store-kind", "_fmt.py", "not a {kind} store", "not a store", "test_stores.py::test_envelope"),
    ("presence-magic", "presence.py", '"TRAYSIGHT-PRESENCE"', '"TRAYSIGHT-PRESENCES"', "[grid-00]"),
    ("placement-magic", "placement.py", '"TRAYSIGHT-PLACEMENT"', '"TRAYSIGHT-PLACEMENTS"', "[socket-40x40]"),
    # CLI records, streams and exit codes
    ("calibrate-prints", "cli.py", "    refs = presence.calibrate_presence(",
     "    print(args.out)\n    refs = presence.calibrate_presence(", "[grid-00]"),
    ("presence-record", "cli.py", 'f"PRESENCE {tray_id} {', 'f"PRESENCE {tray_id}  {', "[grid-00]"),
    ("bits-swapped", "presence.py", 'b"\\x00\\x01", b"01"', 'b"\\x00\\x01", b"10"', "[grid-00]"),
    ("grid-chars-swapped", "cli.py", '"01", ".#"', '"01", "#."', "[grid-00]"),
    ("grid-rows-by-rows", "cli.py", "len(cells), layout.cols", "len(cells), layout.rows", "[p6-4x5]"),
    ("notes-on-stdout", "cli.py", "print(line, file=sys.stderr)", "print(line)", "[outlier-k-1]"),
    ("frame-drops-notes", "cli.py", "result.bitstring}\", notes, 0", "result.bitstring}\", [], 0",
     f"{PER_FRAME} [grid-00]"),
    ("map-palette", "cli.py", "[EMPTY_COLOR, OCCUPIED_COLOR]", "[OCCUPIED_COLOR, EMPTY_COLOR]", "[grid-00]"),
    ("map-background", "cli.py", "= (90, 90, 90)", "= (90, 90, 91)", "[grid-00]"),
    ("map-after-record", "cli.py", f"    return _emit(*{INSPECT}, args.map))\n",
     f"    code = _emit(*{INSPECT}))\n    {INSPECT}, args.map)\n    return code\n", "[inspect-map-unwritable]"),
    ("map-needs-layout", "cli.py", "args.image, args.map))", "args.image, args.layout and args.map))",
     "[inspect-layout-given-and-stored]"),
    ("layout-flag-ignored", "cli.py", "parse_layout(_read_text(args.layout)) if args.layout else refs.layout",
     "refs.layout", "[inspect-layout-mismatch]"),
    ("undersampled-at-min-n", "placement.py", "if n < min_n:", "if n <= min_n:", "[socket-40x40]"),
    ("undersampled-text", "cli.py", "under-sampled n={model.n}", "under-sampled n={model.n - 1}",
     "[socket-undersampled]"),
    ("min-n-ignored", "cli.py", "min_n=args.min_n", "min_n=placement.DEFAULT_MIN_N", "[socket-min-n-z]"),
    ("listed-sample-twice", "cli.py", "paths.append(p)", "paths += [p, p]", "[socket-file-list]"),
    ("roi-three-parts", "cli.py", "if len(parts) != 4:", "if len(parts) < 3:", "[socket-roi-three-parts]"),
    ("placement-ok-record", "cli.py", '{ident} OK"', '{ident} ok"', "[socket-40x40]"),
    ("ng-exit-0", "cli.py", "file=sys.stderr)\n    return code\n", "file=sys.stderr)\n    return 0\n", "[socket-40x40]"),
    ("frame-ng-rc-0", "cli.py", "), [], 1\n", "), [], 0\n", f"{PER_FRAME} [socket-40x40]"),
    ("ng-threshold-digits", "cli.py", "{verdict.threshold:.6f}", "{verdict.threshold:.5f}", "[socket-40x40]"),
    ("evaluate-fields", "cli.py", "FN {cm.fn} FP {cm.fp}", "FP {cm.fp} FN {cm.fn}", "[evaluate-random]"),
    ("read-any-mode", "imaging.py",
     "if stat.S_IFMT(Path(path).stat().st_mode) not in (stat.S_IFREG, stat.S_IFIFO):", "if False:",
     "test_cli.py::TestInputKinds::test_directory_exit_2[inspect---image]"),
    ("read-no-fifo", "imaging.py", "(stat.S_IFREG, stat.S_IFIFO)", "(stat.S_IFREG,)",
     "test_cli.py::TestInputKinds::test_piped_image_gives_the_file_record"),
    ("load-unguarded", "imaging.py", "return decode_pnm(_read(path))", "return decode_pnm(Path(path).read_bytes())",
     "test_imaging.py::TestPnmCodec::test_reads_a_pipe_but_not_a_directory"),
    ("gray-save-joined", "imaging.py", 'parts = _pnm_parts("P5", img.pixels)', "parts = [encode_p5(img)]",
     "test_imaging.py::TestPnmCodec::test_save_writes_without_a_joined_copy[P5]"),
    ("os-error-uncaught", "cli.py", "(OSError, ValueError)", "ValueError", "[image-missing]"),
    ("value-error-uncaught", "cli.py", "(OSError, ValueError)", "OSError", "[layout-unknown-key]"),
    ("record-id-whitespace", "cli.py", "if value.split() != [value]:", "if not value:",
     "test_cli.py::TestMalformedInputFiles::test_bad_record_id_exit_2_naming_the_flag"),
    ("silenced-fd-leaked", "cli.py", "            os.close(devnull)\n", "",
     "test_cli.py::test_failed_flushes_in_process_leave_the_open_fds_unchanged"),
    ("record-unflushed", "cli.py", "        sys.stdout.flush()  #", "        #",
     "test_cli.py::TestStreamFailures::test_exit_code_and_streams[inspect-full-pipe-buffered]"),
]


def run(mutant, root: Path) -> str:
    """Apply one mutant to a copy of ``root`` and run its killers: 'killed', 'survived' or 'error: ...'."""
    _, module, old, new, killers = mutant
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "pyproject.toml", copy)
        path = copy / "src" / "traysight" / module
        text = path.read_text()
        if text.count(old) != 1:
            return f"error: the old text occurs {text.count(old)} times in {module}"
        path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        nodes = [f"tests/{G}{node}" if node[0] == "[" else f"tests/{node}" for node in killers.split()]
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *nodes]
        proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=1800)
    if proc.returncode == 1:
        return "killed by " + re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M).group(1)
    if proc.returncode == 0:
        return "survived"
    return f"error: pytest exit code {proc.returncode}\n{proc.stdout[-1500:]}{proc.stderr[-1500:]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutation check.")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ and tests/ are used")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {mutant[0] for mutant in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    outcomes = []
    for mutant in MUTANTS:
        if mutant[0] in args.names or not args.names:
            outcomes.append(run(mutant, args.root.resolve()))
            print(f"{mutant[0]}: {outcomes[-1]}", flush=True)
    killed = sum(outcome.startswith("killed") for outcome in outcomes)
    print(f"{killed} of {len(outcomes)} mutants killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
