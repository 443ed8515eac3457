"""Mutation check: every mutant of ``src/`` must fail a test named for it.

    python tests/mutants.py [--root DIR] [NAME ...]

For each mutant (all, or each NAME), the script copies ``src/``, ``tests/`` and
``pyproject.toml`` of DIR (default: this checkout) into a new temporary
directory, so that pytest's ``pythonpath`` and ``helpers.SRC`` point at the copy.
It replaces the mutant's ``old`` text, which must occur exactly once in its
module, with ``new``, and runs the mutant's node IDs (under ``tests/``) in one
pytest process, one mutant at a time. It first runs every named node once,
unmutated, and gives each mutant four times that run's duration. It prints each
mutant as killed (a named test failed), killed by timeout, survived, or error
(the text was not found, or pytest could not collect the named tests), and exits
1 unless every mutant was killed. ``run`` is the copy-apply-pytest step that
``mutant_search.py`` shares, and ``EQUIVALENT`` lists the generated mutants that
no test can tell apart from the code. pytest does not collect this file.
"""

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
G = "test_golden_cli.py::test_case_matches_its_golden_digest"
A = "test_acceptance.py::test_criterion_"
REFS = "test_presence.py::TestReferenceSetInvariants::test_"
MEAN = "test_stats.py::TestMeanIntensity::test_"
LP = "test_tray_grid.py::TestParseLayout::test_"
LI = "test_tray_grid.py::TestLayoutInvariants::test_"
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
    ("band-uint16", "tray_grid.py", "np.uint16 if 255 * layout.slot_h < 2**16 else np.uint64)", "np.uint16)",
     "[acc-grid-h258]"),
    ("sums-uint16", "tray_grid.py", "axis=(1, 2), dtype=np.uint64)", "axis=(1, 2), dtype=np.uint16)",
     "[acc-roi-h258] test_tray_grid.py::TestSlotMeans::test_sums_are_exact_unsigned_integers"),
    ("cell-sums-uint32", "tray_grid.py", "cells, dtype=np.uint64)", "cells, dtype=np.uint32)",
     "test_tray_grid.py::TestSlotMeans::test_sums_are_exact_unsigned_integers"),
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
    ("shape-unchecked", "stats.py", "if bins.shape != (256,):", "if False:", f"{MEAN}wrong_shape_rejected"),
    ("max-count-float", "stats.py", ".max // int(", ".max / int(", f"{MEAN}overflowing_counts_rejected"),
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
    ("without-from-minus-1", "presence.py", "if not 0 <= o <= 255:", "if not -1 <= o <= 255:",
     f"{REFS}without_outside_range_rejected"),
    ("without-to-256", "presence.py", "if not 0 <= o <= 255:", "if not 0 <= o <= 256:",
     f"{REFS}without_outside_range_rejected"),
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
    ("blas-cap-any-unset", "__init__.py", "any(v in os.environ", "any(v not in os.environ",
     "test_package.py::TestBlasThreadCap::test_numpy_loads_with_one_thread"),
    ("dir-only-bound", "__init__.py", "set(globals()) | set(__all__)", "set(globals()) & set(__all__)",
     "test_package.py::TestLazyNames::test_dir_lists_every_name"),
    ("lazy-name-unbound", "__init__.py", "    globals()[name] = value\n", "",
     "test_package.py::TestLazyNames::test_a_name_is_bound_after_its_first_read"),
    ("slot-count", "presence.py", "if len(refs) != self.layout", "if False", f"{REFS}wrong_length_message"),
    ("slot-keyword-and", "presence.py", 'parts[0] != "slot" or parts[2]', 'parts[0] != "slot" and parts[2]',
     "test_presence.py::TestReferenceStore::test_malformed_slot_line"),
    ("without-keyword-and", "presence.py", 'parts[2] != "with" or parts[4]', 'parts[2] != "with" and parts[4]',
     "test_presence.py::TestReferenceStore::test_malformed_slot_line"),
    ("slot-order-message", "presence.py", "got {parts[1]!r}", "got {parts[0]!r}",
     "test_presence.py::TestReferenceStore::test_out_of_order_slots"),
    ("outlier-k-times-256", "presence.py", "outlier_k * 255 <=", "outlier_k * 256 <=",
     "test_presence.py::TestInspectTray::test_largest_outlier_k_accepted"),
    ("outlier-k-times-254", "presence.py", "outlier_k * 255 <=", "outlier_k * 254 <=",
     "test_presence.py::TestInspectTray::test_outlier_k_threshold_overflow"),
    ("slot-order", "presence.py", "if parts[1] != str(i):", "if False:",
     "test_presence.py::TestReferenceStore::test_out_of_order_slots"),
    ("layout-unchecked", "presence.py", "refs.layout != layout:", "False:", "[inspect-layout-mismatch]"),
    ("min-n-29", "placement.py", "DEFAULT_MIN_N = 30", "DEFAULT_MIN_N = 29",
     "test_placement.py::TestCalibrate::test_default_min_n_and_the_warnings_caller"),
    ("warning-stacklevel-1", "placement.py", "stacklevel=2,", "stacklevel=1,",
     "test_placement.py::TestCalibrate::test_default_min_n_and_the_warnings_caller"),
    ("mean-from-minus-1", "placement.py", "if not 0 <= self.mean_value <= 255:", "if not -1 <= self.mean_value <= 255:",
     "test_placement.py::TestModelInvariants::test_rejects_out_of_range_mean"),
    ("mean-below-255", "placement.py", "self.mean_value <= 255:", "self.mean_value < 255:",
     "test_placement.py::TestModelInvariants::test_accepts_range_ends_and_a_band_inside_reach"),
    ("eps-floor-unchecked", "placement.py", "if not 0 <= self.eps_floor <= sys.float_info.max:", "if False:",
     "test_placement.py::TestModelInvariants::test_rejects_bad_eps_floor"),
    ("reach-from-254", "placement.py", "255 - self.mean_value)", "254 - self.mean_value)",
     "test_placement.py::TestModelInvariants::test_accepts_range_ends_and_a_band_inside_reach"),
    ("store-lines-miscounted", "placement.py", "got {1 + len(records)}", "got {len(records)}",
     "test_placement.py::TestModelStore::test_missing_line"),
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
    ("gray-zero-width", "imaging.py", "arr.shape[0] < 1 or arr.shape[1] < 1:", "arr.shape[0] < 1:",
     "test_imaging.py::TestGrayImage::test_rejects_bad_shapes"),
    ("rect-y-origin", "imaging.py", "self.x < 0 or self.y < 0:", "self.x < 0:",
     "test_imaging.py::TestRect::test_rejects_negative_origin"),
    ("channel-from-minus-1", "imaging.py", "not 0 <= value <= 255", "not -1 <= value <= 255",
     "test_imaging.py::TestToGray::test_rejects_red_out_of_range"),
    ("crop-x-unchecked", "imaging.py", "r.x + r.w > img.width or ", "",
     "test_imaging.py::TestCrop::test_out_of_bounds_in_one_axis"),
    ("crop-y-unchecked", "imaging.py", " or r.y + r.h > img.height", "",
     "test_imaging.py::TestCrop::test_out_of_bounds_in_one_axis"),
    ("p6-empty-accepted", "imaging.py", " or arr.shape[0] < 1 or arr.shape[1] < 1)", ")",
     "test_imaging.py::TestPnmCodec::test_encode_p6_validates_input"),
    ("p6-one-row-rejected", "imaging.py", "arr.shape[0] < 1 or arr.shape[1] < 1)",
     "arr.shape[0] <= 1 or arr.shape[1] < 1)",
     "test_imaging.py::TestPnmCodec::test_encode_p6_one_pixel"),
    ("rect-origin", "imaging.py", "if self.x < 0 or self.y < 0:", "if False:",
     "test_imaging.py::TestRect::test_rejects_negative_origin"),
    ("maxval", "imaging.py", "if maxval != 255:", "if False:", "[image-maxval-65535]"),
    ("cols-unchecked", "tray_grid.py", "self.rows < 1 or self.cols < 1:", "self.rows < 1:", f"{LI}rejects_zero_rows"),
    ("origin-y-unchecked", "tray_grid.py", "self.origin_x < 0 or self.origin_y < 0:", "self.origin_x < 0:",
     f"{LI}rejects_negative_origin"),
    ("pitch-unchecked", "tray_grid.py", "if self.pitch_x < 1 or self.pitch_y < 1:", "if False:",
     f"{LI}rejects_zero_pitch"),
    ("pitch-y-from-0", "tray_grid.py", "self.pitch_y < 1:", "self.pitch_y < 0:", f"{LI}rejects_zero_pitch"),
    ("slot-size-unchecked", "tray_grid.py", "if self.slot_w < 1 or self.slot_h < 1:", "if False:",
     f"{LI}rejects_empty_slot"),
    ("slot-h-from-0", "tray_grid.py", "self.slot_h < 1:", "self.slot_h < 0:", f"{LI}rejects_empty_slot"),
    ("lines-from-0", "tray_grid.py", "start=1)", "start=0)", f"{LP}error_names_its_line"),
    ("empty-key-accepted", "tray_grid.py", "        if not key:\n", "        if False:\n", f"{LP}empty_key"),
    ("noun-swapped", "tray_grid.py", "if convert is int else", "if convert is not int else", f"{LP}non_integer_value"),
    ("slot-range-message", "tray_grid.py", "0..{layout.slot_count - 1}", "0..{layout.slot_count}",
     "test_tray_grid.py::TestSlotRect::test_out_of_range"),
    ("layout-key-missing", "tray_grid.py", "    if missing:\n", "    if False:\n",
     "test_tray_grid.py::TestParseLayout::test_missing_key"),
    ("layout-key-duplicate", "tray_grid.py", "if key in entries:", "if False:",
     "test_tray_grid.py::TestParseLayout::test_duplicate_key"),
    ("label-id-duplicate", "evaluation.py", "if ident in labels:", "if False:", "[evaluate-duplicate-id]"),
    ("missing-ids-six", "evaluation.py", "missing[:5]", "missing[:6]",
     "test_evaluation.py::TestLabelFiles::test_join_names_five_ids_per_side"),
    ("extra-ids-four", "evaluation.py", "extra[:5]", "extra[:4]",
     "test_evaluation.py::TestLabelFiles::test_join_names_five_ids_per_side"),
    ("label-ids-unjoined", "evaluation.py", "if missing or extra:", "if False:", "[evaluate-mismatched-ids]"),
    ("synth-sigma", "synthgen.py", "not 0 <= self.sigma <=", "not self.sigma <=", "[synth-sigma-negative]"),
    ("synth-reworded", "synthgen.py", "must lie in", "must be in", "[synth-mu-with-above-255]"),
    ("pnm-maxval-254", "imaging.py", '\\n255\\n".encode', '\\n254\\n".encode', "[grid-00]"),
    # Stores
    ("decimal-exponent-padded", "_fmt.py", 'if "e" in text:', 'if "e" in text and "E" in text:',
     "test_stores.py::test_format_decimal"),
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
    ("synth-silent", "cli.py", """print(f"wrote {out_dir / 'tray.pgm'} and {out_dir / 'truth.txt'}", file=sys.stderr)""",
     "pass", "test_cli.py::TestSynth::test_writes_image_and_truth"),
    ("os-error-uncaught", "cli.py", "(OSError, ValueError)", "ValueError", "[image-missing]"),
    ("value-error-uncaught", "cli.py", "(OSError, ValueError)", "OSError", "[layout-unknown-key]"),
    ("record-id-whitespace", "cli.py", "if value.split() != [value]:", "if not value:",
     "test_cli.py::TestMalformedInputFiles::test_bad_record_id_exit_2_naming_the_flag"),
    ("silenced-fd-leaked", "cli.py", "            os.close(devnull)\n", "",
     "test_cli.py::test_failed_flushes_in_process_leave_the_open_fds_unchanged"),
    ("record-unflushed", "cli.py", "        sys.stdout.flush()  #", "        #",
     "test_cli.py::TestStreamFailures::test_exit_code_and_streams[inspect-full-pipe-buffered]"),
    # Guards, result types, errors and texts that only removing them showed unpinned
    ("fmt-all-dropped", "_fmt.py", '__all__ = ["format_decimal", "format_store", "parse_store", "store_fields"]\n',
     "", "test_package.py::test_module_star_import_binds_its_all[_fmt]"),
    ("decimal-unconverted", "_fmt.py", "repr(float(value))", "repr(value)", "test_stores.py::test_format_decimal"),
    ("blank-store-line-indexed", "_fmt.py", "if not parts or parts[0] != key:", "if parts[0] != key:",
     "test_placement.py::TestModelStore::test_blank_line"),
    ("std-nan-accepted", "placement.py", "if not 0 <= self.std_value <= sys.float_info.max:",
     "if self.std_value < 0:", "test_placement.py::TestModelInvariants::test_rejects_nan_std"),
    ("z-nan-accepted", "placement.py", "if not 0 < self.z <= sys.float_info.max:", "if self.z <= 0:",
     "test_placement.py::TestModelInvariants::test_rejects_nan_z"),
    ("layout-error-chained", "presence.py", 'line: {exc}") from None', 'line: {exc}")',
     "test_presence.py::TestReferenceStore::test_malformed_layout_line"),
    ("luma-unconverted", "imaging.py", "return int(_luma(r, g, b))", "return _luma(r, g, b)",
     "test_imaging.py::TestToGray::test_known_weighting"),
    ("magic-unconverted", "imaging.py", "magic = bytes(data[:2])", "magic = data[:2]",
     "test_imaging.py::TestPnmCodec::test_bad_magic"),
    ("p6-any-channels", "imaging.py", "arr.ndim != 3 or arr.shape[2] != 3 or", "arr.ndim != 3 or",
     "test_imaging.py::TestPnmCodec::test_encode_p6_validates_input"),
    ("p6-list-unconverted", "imaging.py", "arr = np.asarray(pixels)", "arr = pixels",
     "test_imaging.py::TestPnmCodec::test_encode_p6_validates_input"),
    ("p6-strided-payload", "imaging.py", "np.ascontiguousarray(arr).data", "arr.data",
     "test_imaging.py::TestPnmCodec::test_encode_p6_of_a_strided_view"),
    ("model-error-chained", "placement.py", 'store: {exc}") from None', 'store: {exc}")',
     "test_placement.py::TestModelStore::test_wrong_key_order"),
    ("with-keyword-unchecked", "presence.py", 'parts[2] != "with" or ', "",
     "test_presence.py::TestReferenceStore::test_malformed_slot_line"),
    ("slot-error-chained", "presence.py", 'line: {line!r}") from None', 'line: {line!r}")',
     "test_presence.py::TestReferenceStore::test_malformed_slot_line"),
    ("mean-total-unconverted", "stats.py", "total = int(counts.sum())", "total = counts.sum()",
     f"{MEAN}single_bin_mass"),
    ("samples-unconverted", "stats.py", "xs = [float(v) for v in values]", "xs = list(values)",
     "test_stats.py::TestSampleMean::test_float32_samples_summed_in_double"),
    ("blank-layout-line-kept", "tray_grid.py", 'line = raw.split("#", 1)[0].strip()', 'line = raw.split("#", 1)[0]',
     f"{LP}comments_blank_lines_and_spacing"),
    ("unknown-keys-unsorted", "tray_grid.py", "unknown = sorted(set(entries) - set(types))",
     "unknown = set(entries) - set(types)", f"{LP}unknown_keys_sorted"),
    ("value-error-chained", "tray_grid.py", 'got {entries[key]!r}") from None', 'got {entries[key]!r}")',
     f"{LP}non_integer_value"),
    ("all-unsorted", "__init__.py", "__all__ = sorted(_OWNER)", "__all__ = _OWNER",
     "test_package.py::TestLazyNames::test_all_is_a_sorted_list"),
    ("refs-mutable", "presence.py", "@dataclass(frozen=True)\nclass SlotReference", "@dataclass\nclass SlotReference",
     "test_package.py::test_value_types_are_frozen[SlotReference]"),
    ("gray-value-eq", "imaging.py", "@dataclass(frozen=True, eq=False)", "@dataclass(frozen=True)",
     "test_imaging.py::TestGrayImage::test_equality_is_identity"),
    ("verdict-numpy-bool", "presence.py", "return bool(_nearest_reference(", "return (_nearest_reference(",
     "test_presence.py::TestClassifySlot::test_numpy_scalars_give_a_bool"),
    ("command-optional", "cli.py", 'dest="command", required=True)', 'dest="command")',
     "test_cli.py::test_no_command_is_a_usage_error"),
    ("command-unnamed", "cli.py", 'add_subparsers(dest="command", ', "add_subparsers(",
     "test_cli.py::test_no_command_is_a_usage_error"),
    ("separable-always-checked", "cli.py", "if args.require_separable and spec.mu_with == spec.mu_without:",
     "if args.require_separable:", "test_cli.py::TestSynth::test_require_separable_passes_a_separable_scene"),
    ("synth-out-dir-flat", "cli.py", "mkdir(parents=True, exist_ok=True)", "mkdir(exist_ok=True)",
     "test_cli.py::TestSynth::test_deterministic_output"),
    ("refs-locale-encoding", "cli.py", 'save_presence_refs(refs), encoding="ascii")', "save_presence_refs(refs))",
     "test_cli.py::test_no_command_opens_a_text_file_in_the_locales_encoding"),
    ("help-dropped", "cli.py", 'help="tray image with every slot occupied"', "help=None",
     "test_cli.py::test_help_shows_each_description_and_metavar[calibrate-presence]"),
    ("metavar-dropped", "cli.py", '"--out-dir", required=True, metavar="DIR"', '"--out-dir", required=True',
     "test_cli.py::test_help_shows_each_description_and_metavar[synth]"),
    # Ints beyond float range and non-integer seeds
    ("classify-int-overflow", "presence.py", "if not abs(value) <=", "if not abs(float(value)) <=",
     "test_presence.py::TestClassifySlot::test_non_finite_rejected"),
    ("outlier-k-int-overflow", "presence.py", "if not 0 < outlier_k <=", "if not 0 < float(outlier_k) <=",
     "test_presence.py::TestInspectTray::test_invalid_outlier_k"),
    ("verify-int-overflow", "placement.py", "if not abs(value) <=", "if not abs(float(value)) <=",
     "test_placement.py::TestVerify::test_non_finite_value_rejected"),
    ("samples-overflow-uncaught", "stats.py", "except OverflowError:", "except ZeroDivisionError:",
     "test_stats.py::TestSampleMean::test_non_finite_rejected"),
    ("seed-any-number", "synthgen.py", "isinstance(self.seed, (int, np.integer)) and ", "",
     "test_synthgen.py::TestSceneSpecValidation::test_seed_range"),
]

# (module under src/traysight, old text, new text, why no test can tell them apart): mutant_search.py
# does not run a generated mutant whose text equals this replacement.
EQUIVALENT = [
    ("_fmt.py", "got {len(parts) - 1}", "got {abs(len(parts) - 1)}", "parts is non-empty there, so the count is >= 0"),
    ("cli.py", "rgb[1:] = rgb[0]", "rgb[0:] = rgb[0]", "row 0 already holds the background; copying it onto itself"),
    ("cli.py", 'np.frombuffer(result.bitstring.encode("ascii"), np.uint8) - ord("0")',
     'abs(np.frombuffer(result.bitstring.encode("ascii"), np.uint8) - ord("0"))', "uint8 bits 0 and 1 are their abs"),
    ("cli.py", "slots[:, :, 1:] = slots[:, :, :1]", "slots[:, :, 0:] = slots[:, :, :1]",
     "a slot's top row already holds its colour; copying it onto itself"),
    ("cli.py", "[EMPTY_COLOR, OCCUPIED_COLOR], dtype=np.uint8)", "[EMPTY_COLOR, OCCUPIED_COLOR])",
     "an int64 palette casts to the same uint8 pixels, at eight times the bytes"),
    ("cli.py", "print(message, file=sys.stderr, flush=True)", "print(message, file=sys.stderr)",
     "the process's stderr is line-buffered (Python 3.9+), so the newline flushes it"),
    ("imaging.py", "if not uint8 and not np.issubdtype(", "if not np.issubdtype(",
     "uint8 is an integer dtype; the test spares every decoded frame the issubdtype call"),
    ("imaging.py", "if not uint8 and (int(arr.min())", "if (int(arr.min())",
     "uint8 pixels always lie in [0, 255]; the test spares every decoded frame two scans"),
    ("imaging.py", "(int(arr.min()) < 0", "(arr.min() < 0",
     "the numpy scalar compares the same; int() keeps that off numpy's scalar promotion rules (NEP 50)"),
    ("imaging.py", "int(arr.max()) > 255", "arr.max() > 255",
     "the numpy scalar compares the same; int() keeps that off numpy's scalar promotion rules (NEP 50)"),
    ("imaging.py", "have = len(data) - pos", "have = abs(len(data) - pos)",
     "pos <= len(data) past the separator check"),
    ("placement.py", "max(self.mean_value, 255 - self.mean_value)", "max(self.mean_value, abs(255 - self.mean_value))",
     "the mean lies in [0, 255] there"),
    ("placement.py", "slot_means(image, layout)[0] for", "slot_means(image, layout)[-1] for",
     "a one-slot layout has one mean"),
    ("placement.py", "slot_means(image, model._layout)[0]", "slot_means(image, model._layout)[-1]",
     "a one-slot layout has one mean"),
    ("placement.py", "deviation = abs(value - model.mean_value)", "deviation = abs(abs(value - model.mean_value))",
     "abs of an abs"),
    ("placement.py", "n = int(fields[1][0])", "n = int(fields[1][-1])", "store_fields gives the one value asked for"),
    ("placement.py", "float(values[0]) for", "float(values[-1]) for", "store_fields gives the one value asked for"),
    ("presence.py", "with_ = np.array([ref.value_with for ref in refs])", "with_ = [ref.value_with for ref in refs]",
     "numpy would convert the list again in every verdict; the other column is an array, so results match"),
    ("presence.py", "without = np.array([ref.value_without for ref in refs])",
     "without = [ref.value_without for ref in refs]",
     "numpy would convert the list again in every verdict; the other column is an array, so results match"),
    ("presence.py", "np.abs(with_ - without)", "np.abs(abs(with_ - without))", "abs of an abs"),
    ("presence.py", "to_with = abs(value - with_)", "to_with = abs(abs(value - with_))", "abs of an abs"),
    ("presence.py", "to_without = abs(value - without)", "to_without = abs(abs(value - without))", "abs of an abs"),
    ("presence.py", "flags.nonzero()[0]", "flags.nonzero()[-1]", "a 1-D array's nonzero() is a 1-tuple"),
    ("stats.py", "sum((x - mean) ** 2", "sum((abs(x - mean)) ** 2", "a square drops the sign"),
    ("stats.py", "/ (len(xs) - 1))", "/ (abs(len(xs) - 1)))", "there are at least 2 samples there"),
    ("stats.py", "np.arange(256, dtype=np.int64)", "np.arange(256)",
     "numpy's default integer is int64 here and with numpy 2; the dtype keeps it on numpy 1 under Windows"),
    ("stats.py", "// int(_INTENSITIES.sum())", "// _INTENSITIES.sum()",
     "an int64 bound compares the same; int() keeps that off numpy's scalar promotion rules (NEP 50)"),
    ("stats.py", "top = int(bins.max())", "top = bins.max()",
     "a numpy scalar compares the same; int() keeps that off numpy's scalar promotion rules (NEP 50)"),
    ("tray_grid.py", 'raw.split("#", 1)[0]', 'raw.split("#", 2)[0]', "only the text before the first '#' is kept"),
    ("tray_grid.py", "right = layout.origin_x + (layout.cols - 1)", "right = layout.origin_x + (abs(layout.cols - 1))",
     "cols >= 1"),
    ("tray_grid.py", "bottom = layout.origin_y + (layout.rows - 1)",
     "bottom = layout.origin_y + (abs(layout.rows - 1))", "rows >= 1"),
    ("tray_grid.py", "last = slot_rect(layout, layout.slot_count - 1)",
     "last = slot_rect(layout, abs(layout.slot_count - 1))", "slot_count >= 1"),
    ("tray_grid.py", "span = (layout.cols - 1)", "span = (abs(layout.cols - 1))", "cols >= 1"),
    ("tray_grid.py", "0..{layout.slot_count - 1}", "0..{abs(layout.slot_count - 1)}", "slot_count >= 1"),
    ("tray_grid.py", "rows.sum(axis=(1, 2), dtype=np.uint64)", "rows.sum(axis=(1, 2))",
     "numpy sums uint8 in its default unsigned integer, uint64 here; the dtype keeps it on numpy 1 under Windows"),
    # The band rule: uint64 bands give the same exact sums at more cost (ROADMAP Baseline).
    ("tray_grid.py", "rows.sum(axis=1, dtype=np.uint16 if 255 * layout.slot_h < 2**16 else np.uint64)",
     "rows.sum(axis=1)", "numpy's default sums uint8 in uint64 here: uint64 bands"),
    ("tray_grid.py", "255 * layout.slot_h < 2**16", "255 * layout.slot_h <= 2**16", "255 * slot_h is never 2**16"),
    ("tray_grid.py", "255 * layout.slot_h < 2**16", "256 * layout.slot_h < 2**16", "uint64 bands from slot_h 256"),
    ("tray_grid.py", "255 * layout.slot_h < 2**16", "255 * layout.slot_h < 2**15", "uint64 bands from slot_h 129"),
    ("tray_grid.py", "255 * layout.slot_h < 2**16", "255 * layout.slot_h < 2*16", "uint64 bands always"),
    ("tray_grid.py", "255 * layout.slot_h < 2**16", "255 * layout.slot_h < 1**16", "uint64 bands always"),
    ("presence.py", "outlier_k * 255 <= sys.float_info.max", "outlier_k * 255 < sys.float_info.max",
     "no float or int k makes k * 255 exactly the largest float: it rounds below it or to inf"),
]


def run(root: Path, nodes, timeout, module=None, text=None, deselect=()) -> str:
    """Run pytest on ``nodes`` (paths under the copy) in a copy of ``root``, with ``module`` holding ``text``.

    Returns 'killed by NODE', 'killed by timeout' (past ``timeout`` seconds), 'survived' or
    'error: ...'; with no ``module`` the copy is unmutated.
    """
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "pyproject.toml", copy)
        if module is not None:
            (copy / "src" / "traysight" / module).write_text(text)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                *(f"--deselect={node}" for node in deselect), *nodes]
        # A session of its own, so that a timeout also ends the CLI children a test started.
        proc = subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "killed by timeout"
    if proc.returncode == 1:
        return "killed by " + re.search(r"^(?:FAILED|ERROR) (\S+)", stdout, re.M).group(1)
    if proc.returncode == 0:
        return "survived"
    return f"error: pytest exit code {proc.returncode}\n{stdout[-1500:]}{stderr[-1500:]}"


def timed_bound(root: Path, nodes, deselect=()) -> float:
    """Four times one unmutated run of ``nodes``, in seconds; exits if that run does not pass."""
    start = time.perf_counter()
    outcome = run(root, nodes, None, deselect=deselect)
    if outcome != "survived":
        sys.exit(f"the unmutated tests do not pass: {outcome}")
    return 4 * (time.perf_counter() - start)


def nodes_of(killers: str) -> list:
    return [f"tests/{G}{node}" if node[0] == "[" else f"tests/{node}" for node in killers.split()]


def run_mutant(mutant, root: Path, timeout) -> str:
    """Apply one hand mutant to a copy of ``root`` and run its killers."""
    _, module, old, new, killers = mutant
    text = (root / "src" / "traysight" / module).read_text()
    if text.count(old) != 1:
        return f"error: the old text occurs {text.count(old)} times in {module}"
    return run(root, nodes_of(killers), timeout, module, text.replace(old, new))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutation check.")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ and tests/ are used")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {mutant[0] for mutant in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    chosen = [mutant for mutant in MUTANTS if mutant[0] in args.names or not args.names]
    root = args.root.resolve()
    timeout = timed_bound(root, sorted({node for mutant in chosen for node in nodes_of(mutant[4])}))
    outcomes = []
    for mutant in chosen:
        outcomes.append(run_mutant(mutant, root, timeout))
        print(f"{mutant[0]}: {outcomes[-1]}", flush=True)
    killed = sum(outcome.startswith("killed") for outcome in outcomes)
    print(f"{killed} of {len(outcomes)} mutants killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
