"""End-to-end CLI behavior: verdict lines, exit codes, stdout purity.

New tests take their input files from the ``inputs`` fixture and call the CLI
in process through ``helpers.run``; ``run_cli`` starts it in a new process.
"""

import contextlib
import dataclasses
import gc
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SRC, run, run_python
from traysight import synthgen
from traysight.cli import main
from traysight.imaging import GrayImage, Rect, decode_pnm, save_gray_image
from traysight.placement import PlacementModel, save_placement_model
from traysight.synthgen import SceneSpec, generate_tray, parse_scene
from traysight.tray_grid import TrayLayout

LAYOUT = TrayLayout(4, 5, 2, 2, 12, 12, 10, 10)
LAYOUT_TEXT = (
    "rows = 4\ncols = 5\norigin_x = 2\norigin_y = 2\n"
    "pitch_x = 12\npitch_y = 12\nslot_w = 10\nslot_h = 10\n"
)
SCENE_TEXT = LAYOUT_TEXT + (
    "occupancy = 10101010101010101010\n"
    "mu_with = 130\nmu_without = 50\nsigma = 2\nbackground = 85\nseed = 33\n"
)
SCENE = parse_scene(SCENE_TEXT)
ROI = Rect(1, 1, 8, 8)  # the socket samples' ROI


def flags(options):
    """``{"--flag": value}`` as argv words."""
    return [str(word) for option in options.items() for word in option]


def write_tray(path, occupancy, seed):
    save_gray_image(generate_tray(dataclasses.replace(SCENE, occupancy=occupancy, seed=seed))[0], path)
    return path


def write_samples(sample_dir, count):
    """``count`` socket frames in a new ``sample_dir``, drawn as the bench draws them:
    a 1x1 tray whose one occupied slot is ``ROI``."""
    layout = TrayLayout(1, 1, ROI.x, ROI.y, ROI.w, ROI.h, ROI.w, ROI.h)
    sample_dir.mkdir()
    for i in range(count):
        image, _ = generate_tray(SceneSpec(layout, (True,), 118.0, 118.0, 2.0, 60.0, seed=21 + i))
        save_gray_image(image, sample_dir / f"s{i:04d}.pgm")
    return sample_dir


def write_model(path, roi):
    path.write_text(save_placement_model(PlacementModel(roi=roi, n=30, mean_value=118.0, std_value=2.0)))
    return path


def write_socket(path, value):
    save_gray_image(GrayImage(np.full((6, 6), value, dtype=np.uint8)), path)
    return path


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Every file the subcommands read, written once; ``out`` takes writes that no test reads."""
    root = tmp_path_factory.mktemp("inputs")
    files = types.SimpleNamespace(
        layout=root / "layout.cfg",
        loaded=write_tray(root / "with.pgm", (True,) * 20, seed=10),
        empty=write_tray(root / "without.pgm", (False,) * 20, seed=11),
        refs=root / "refs.txt",
        tray=write_tray(root / "tray.pgm", (True, False) * 10, seed=12),
        samples=write_samples(root / "samples", 30),
        model=write_model(root / "model.txt", ROI),
        socket=write_socket(root / "socket.pgm", 120),
        socket_model=write_model(root / "socket_model.txt", Rect(0, 0, 6, 6)),
        labels=root / "labels.txt",
        scene=root / "scene.cfg",
        out=root / "out",
    )
    files.layout.write_text(LAYOUT_TEXT)
    files.labels.write_text("".join(f"{i} {i % 2}\n" for i in range(20)))
    files.scene.write_text(SCENE_TEXT)
    files.out.mkdir()
    code, _, _ = run("calibrate-presence", "--with", files.loaded, "--without", files.empty,
                     "--layout", files.layout, "--out", files.refs)
    assert code == 0
    return files


@pytest.fixture(scope="module")
def working_options(inputs):
    """Per subcommand, the options of a working call; it writes into ``inputs.out``."""
    return {
        "calibrate-presence": {
            "--with": inputs.loaded, "--without": inputs.empty,
            "--layout": inputs.layout, "--out": inputs.out / "refs.txt",
        },
        "inspect": {"--image": inputs.tray, "--refs": inputs.refs, "--tray-id": "T"},
        "calibrate-placement": {
            "--samples": inputs.samples, "--roi": "1,1,8,8", "--out": inputs.out / "model.txt",
        },
        "verify": {"--image": inputs.samples / "s0000.pgm", "--model": inputs.model, "--id": "S"},
        "evaluate": {"--pred": inputs.labels, "--truth": inputs.labels},
        "synth": {"--scene": inputs.scene, "--out-dir": inputs.out / "synth"},
    }


class TestCalibratePresence:
    def test_writes_reference_store(self, inputs, tmp_path):
        refs_path = tmp_path / "refs.txt"
        code, out, _ = run("calibrate-presence", "--with", inputs.loaded, "--without", inputs.empty,
                           "--layout", inputs.layout, "--out", refs_path)
        assert code == 0
        assert out == ""
        assert refs_path.read_text().startswith("TRAYSIGHT-PRESENCE 1\n")

    def test_identical_images_exit_2(self, inputs, tmp_path):
        code, _, err = run("calibrate-presence", "--with", inputs.loaded, "--without", inputs.loaded,
                           "--layout", inputs.layout, "--out", tmp_path / "refs.txt")
        assert code == 2
        assert "degenerate calibration" in err

    def test_bad_layout_exit_2(self, inputs, tmp_path):
        layout_path = tmp_path / "layout.cfg"
        layout_path.write_text(LAYOUT_TEXT.replace("rows = 4\n", ""))
        code, _, err = run("calibrate-presence", "--with", inputs.loaded, "--without", inputs.loaded,
                           "--layout", layout_path, "--out", tmp_path / "refs.txt")
        assert code == 2
        assert "rows" in err


class TestInspect:
    def test_planted_occupancy_verdict_line(self, inputs, tmp_path):
        occupancy = tuple(c == "1" for c in "11101111011111111111")
        tray_path = write_tray(tmp_path / "tray.pgm", occupancy, seed=12)
        code, out, err = run("inspect", "--image", tray_path, "--layout", inputs.layout,
                             "--refs", inputs.refs, "--tray-id", "T1")
        assert code == 0
        assert out == "PRESENCE T1 11101111011111111111\n"
        # ASCII map on the diagnostics stream, one row per tray row
        map_lines = [line for line in err.splitlines() if set(line) <= {"#", "."}]
        assert map_lines == ["###.#", "###.#", "#####", "#####"]

    def test_all_occupied(self, inputs, tmp_path):
        tray_path = write_tray(tmp_path / "tray.pgm", (True,) * 20, seed=13)
        code, out, _ = run("inspect", "--image", tray_path, "--layout", inputs.layout,
                           "--refs", inputs.refs, "--tray-id", "T9")
        assert code == 0
        assert out == "PRESENCE T9 " + "1" * 20 + "\n"

    def test_outlier_warning_on_stderr(self, inputs, tmp_path):
        bright = GrayImage(np.full((LAYOUT.origin_y + 4 * 12, LAYOUT.origin_x + 5 * 12), 255,
                                   dtype=np.uint8))
        tray_path = tmp_path / "bright.pgm"
        save_gray_image(bright, tray_path)
        code, out, err = run("inspect", "--image", tray_path, "--layout", inputs.layout,
                             "--refs", inputs.refs, "--tray-id", "T1", "--outlier-k", "1.0")
        assert code == 0
        assert "WARN slot 0 outlier" in err
        assert out.startswith("PRESENCE T1 ")

    def test_map_rendering(self, inputs, tmp_path):
        map_path = tmp_path / "map.ppm"
        code, _, _ = run("inspect", "--image", inputs.tray, "--layout", inputs.layout,
                         "--refs", inputs.refs, "--tray-id", "T1", "--map", map_path)
        assert code == 0
        data = map_path.read_bytes()
        assert data.startswith(b"P6\n")
        # decode as raw RGB: header "P6\n<w> <h>\n255\n"
        header_end = data.index(b"255\n") + 4
        w, h = (int(t) for t in data[3 : data.index(b"\n255")].split())
        rgb = np.frombuffer(data[header_end:], dtype=np.uint8).reshape(h, w, 3)
        assert tuple(rgb[0, 0]) == (90, 90, 90)  # background
        assert tuple(rgb[7, 7]) == (0, 200, 0)  # slot 0 occupied
        assert tuple(rgb[7, 19]) == (200, 0, 0)  # slot 1 empty

    def test_unwritable_map_exit_2_before_any_record(self, inputs, tmp_path):
        code, out, err = run("inspect", "--image", inputs.tray, "--layout", inputs.layout,
                             "--refs", inputs.refs, "--tray-id", "T1",
                             "--map", tmp_path / "missing" / "map.ppm")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    def test_layout_defaults_to_the_refs_layout(self, inputs, tmp_path):
        occupancy = tuple(c == "1" for c in "10101111011111100111")
        tray_path = write_tray(tmp_path / "tray.pgm", occupancy, seed=16)
        runs = []
        for name, layout_args in (("given", ["--layout", inputs.layout]), ("stored", [])):
            map_path = tmp_path / f"{name}.ppm"
            result = run("inspect", "--image", tray_path, *layout_args, "--refs", inputs.refs,
                         "--tray-id", "T1", "--map", map_path)
            runs.append((*result, map_path.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][1] == "PRESENCE T1 10101111011111100111\n"

    def test_mismatched_layout_one_error_line(self, inputs, tmp_path):
        other_layout = tmp_path / "other.cfg"
        other_layout.write_text(LAYOUT_TEXT.replace("pitch_x = 12", "pitch_x = 11"))
        code, out, err = run("inspect", "--image", inputs.tray, "--layout", other_layout,
                             "--refs", inputs.refs, "--tray-id", "T1")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "different layout" in err


class TestMalformedInputFiles:
    """Whatever any input file holds, or a bad record id, its subcommand exits 2 with one error line."""

    CASES = [
        ("inspect", "--refs"),
        ("inspect", "--image"),
        ("inspect", "--layout"),
        ("verify", "--model"),
        ("verify", "--image"),
        ("calibrate-presence", "--layout"),
        ("calibrate-presence", "--with"),
        ("calibrate-presence", "--without"),
        ("calibrate-placement", "--samples"),
        ("evaluate", "--pred"),
        ("evaluate", "--truth"),
        ("synth", "--scene"),
    ]
    IMAGE_FLAGS = {"--image", "--with", "--without", "--samples"}

    @pytest.fixture(scope="class")
    def options(self, working_options, inputs):
        # Every flag in CASES, each naming one file, which a cut can shorten.
        return {
            **working_options,
            "inspect": {**working_options["inspect"], "--layout": inputs.layout},
            "calibrate-placement": {
                **working_options["calibrate-placement"], "--samples": inputs.samples / "s0000.pgm",
            },
        }

    @pytest.mark.parametrize("command, flag", CASES)
    @settings(deadline=None)
    @given(
        contents=st.binary() | st.text().map(str.encode),
        cut=st.none() | st.floats(0, 1, exclude_max=True),
    )
    def test_exit_2_with_one_error_line(self, inputs, options, command, flag, contents, cut):
        if flag in self.IMAGE_FLAGS and cut is not None:
            # A valid image cut short anywhere, header or pixel payload.
            valid = options[command][flag].read_bytes()
            contents = valid[: int(cut * len(valid))]
        bad = inputs.out / "arbitrary"
        bad.write_bytes(contents)
        argv = flags({**options[command], flag: bad})
        if flag == "--samples":
            # With one valid sample beside it, exit 2 must come from the malformed file.
            argv.insert(argv.index(str(bad)) + 1, str(inputs.samples / "s0001.pgm"))
        code, out, err = run(command, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "need at least 2 samples" not in err

    # A record id is one stdout field: whitespace would split it or forge a record.
    @pytest.mark.parametrize("command, flag", [("inspect", "--tray-id"), ("verify", "--id")])
    @pytest.mark.parametrize("ident", ["", "A B", "A\tB", "A\nPRESENCE B 1"])
    def test_bad_record_id_exit_2_naming_the_flag(self, options, command, flag, ident):
        code, out, err = run(command, *flags({**options[command], flag: ident}))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {flag} ")


def run_cli(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, close_stderr=False, unbuffered=False,
            close_stdout=False):
    """Run ``python -m traysight.cli`` in a new process, the way users start it.

    PYTHONUNBUFFERED is removed from the child's environment unless asked for.
    A host or CI job that sets it writes every record at once, which hides the
    failures that only show in the interpreter's buffered flush at exit (such
    as exit code 120 on a closed stdout). With ``close_stderr`` the child starts
    with fd 2 closed, as after ``2>&-``, and with ``close_stdout`` with fd 1
    closed, as after ``>&-``. ``stdout`` and ``stderr`` go to ``subprocess.run``.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "traysight.cli", *map(str, argv)]
    closes = " >&-" * close_stdout + " 2>&-" * close_stderr
    if closes:
        command = ["/bin/sh", "-c", f'exec "$@"{closes}', "sh", *command]
    return subprocess.run(command, stdout=stdout, stderr=stderr, env=env, timeout=120)


@contextlib.contextmanager
def stream_target(kind):
    """A child's output stream: a pipe that is read, a pipe whose reader is gone, or /dev/full."""
    if kind == "pipe":
        yield subprocess.PIPE
    elif kind == "reader-closed":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            yield write_end
        finally:
            os.close(write_end)
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "wb") as full:
            yield full


RECORD = re.compile(
    r"PRESENCE \S+ [01]+|PLACEMENT \S+ (OK|NG .+)|TP \d+ FN \d+ FP \d+ TN \d+"
    r"|accuracy \S+ precision \S+ recall \S+"
)


class TestStreamFailures:
    """A failed write to stdout or stderr exits 2, and diagnostics never reach stdout."""

    # name: (exit code with a working stdout, record lines)
    CASES = {"inspect": (0, 1), "inspect-missing-refs": (2, 0), "verify": (0, 1), "evaluate": (0, 2)}

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("stderr", ["pipe", "closed"])
    @pytest.mark.parametrize("stdout", ["pipe", "reader-closed", "full"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_code_and_streams(self, inputs, working_options, case, stdout, stderr, unbuffered):
        command = case.removesuffix("-missing-refs")
        options = dict(working_options[command])
        if command != case:
            options["--refs"] = inputs.out / "none.txt"
        code, records = self.CASES[case]
        with stream_target(stdout) as target:
            proc = run_cli([command, *flags(options)], stdout=target, close_stderr=stderr == "closed",
                           unbuffered=unbuffered)
        writes_fail = stdout != "pipe" and records > 0
        assert proc.returncode == (2 if writes_fail else code)
        if stdout == "pipe":
            lines = proc.stdout.decode().splitlines()
            assert len(lines) == records
            assert all(RECORD.fullmatch(line) for line in lines)
        errors = [line for line in proc.stderr.decode().splitlines() if line.startswith("error:")]
        if stderr == "pipe":
            assert len(errors) == (proc.returncode == 2)
            assert "Exception ignored" not in proc.stderr.decode()
        else:
            assert proc.stderr == b""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, stdout, stderr, code", [
        (["--help"], "pipe", "pipe", 0),
        (["--help"], "full", "pipe", 2),
        (["--help"], "reader-closed", "pipe", 2),
        (["inspect"], "pipe", "pipe", 2),
        (["inspect"], "pipe", "full", 2),
    ], ids=["help", "help-stdout-full", "help-reader-closed", "usage-error", "usage-error-stderr-full"])
    def test_help_and_usage_errors(self, argv, stdout, stderr, code, unbuffered):
        """argparse's own output keeps the exit codes: a failed write of it is exit 2 too."""
        with stream_target(stdout) as out, stream_target(stderr) as err:
            proc = run_cli(argv, stdout=out, stderr=err, unbuffered=unbuffered)
        assert proc.returncode == code
        if stdout == "pipe":
            assert proc.stdout.startswith(b"usage: traysight") == (code == 0)
        if stderr == "pipe":
            text = proc.stderr.decode()
            errors = [line for line in text.splitlines() if line.startswith("error:")]
            assert len(errors) == (stdout != "pipe")
            assert "Exception ignored" not in text
            assert "Traceback" not in text


class TestClosedStdout:
    """Started with stdout closed (``>&-``), a command that prints records exits 2
    with one error line; a command that prints none still does its work."""

    WRITTEN = {
        "calibrate-presence": "refs.txt", "calibrate-placement": "model.txt", "synth": "synth/truth.txt",
    }

    @pytest.mark.parametrize("command, code", [
        ("calibrate-presence", 0), ("inspect", 2), ("calibrate-placement", 0),
        ("verify", 2), ("evaluate", 2), ("synth", 0),
    ])
    def test_exit_code_and_error_line(self, inputs, working_options, command, code):
        proc = run_cli([command, *flags(working_options[command])], close_stdout=True)
        assert proc.returncode == code
        errors = [line for line in proc.stderr.decode().splitlines() if line.startswith("error:")]
        assert errors == (["error: stdout is closed"] if code == 2 else [])
        assert "Traceback" not in proc.stderr.decode()
        if command in self.WRITTEN:
            assert (inputs.out / self.WRITTEN[command]).exists()


def test_record_commands_import_neither_synthgen_nor_evaluation(working_options):
    """``inspect`` and ``verify`` as the console script runs them load no module they do not use,
    and freeze the objects made at import."""
    commands = [[command, *flags(working_options[command])] for command in ("inspect", "verify")]
    script = (
        "import gc, json, sys\n"
        "from traysight.cli import main\n"
        "codes = []\n"
        f"for argv in {commands!r}:\n"
        "    sys.argv = ['traysight', *argv]\n"
        "    codes.append(main())\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('traysight'))\n"
        "print(json.dumps([codes, loaded, gc.get_freeze_count()]))\n"
    )
    codes, loaded, frozen = run_python(script)
    assert codes == [0, 0]
    assert frozen > 0
    assert "traysight.presence" in loaded and "traysight.placement" in loaded
    assert "traysight.synthgen" not in loaded
    assert "traysight.evaluation" not in loaded


@pytest.mark.parametrize("tray_id, code", [("T", 0), ("A B", 2)])
def test_main_with_argv_leaves_the_callers_gc_alone(working_options, tray_id, code):
    """A freeze is process-wide, so an in-process call must not make the caller's objects uncollectable."""
    before = (gc.get_freeze_count(), gc.isenabled())
    assert main(["inspect", *flags({**working_options["inspect"], "--tray-id": tray_id})]) == code
    assert (gc.get_freeze_count(), gc.isenabled()) == before


class TestCalibratePlacement:
    def test_full_calibration(self, inputs, tmp_path):
        model_path = tmp_path / "model.txt"
        code, _, err = run("calibrate-placement", "--samples", inputs.samples, "--roi", "1,1,8,8",
                           "--out", model_path)
        assert code == 0
        assert "WARN" not in err
        assert model_path.read_text().startswith("TRAYSIGHT-PLACEMENT 1\n")

    def test_under_sampled_warns(self, inputs, tmp_path):
        code, _, err = run("calibrate-placement", "--samples", *sorted(inputs.samples.iterdir())[:10],
                           "--roi", "1,1,8,8", "--out", tmp_path / "model.txt")
        assert code == 0
        assert "WARN under-sampled n=10" in err

    def test_single_sample_exit_2(self, inputs, tmp_path):
        code, _, err = run("calibrate-placement", "--samples", inputs.samples / "s0000.pgm",
                           "--roi", "1,1,8,8", "--out", tmp_path / "model.txt")
        assert code == 2
        assert "at least 2" in err

    def test_explicit_file_list(self, inputs, tmp_path):
        code, _, err = run("calibrate-placement", "--samples", *sorted(inputs.samples.iterdir())[:3],
                           "--roi", "1,1,8,8", "--min-n", "3", "--out", tmp_path / "model.txt")
        assert code == 0
        assert "WARN" not in err

    def test_bad_roi_exit_2(self, inputs, tmp_path):
        code, _, err = run("calibrate-placement", "--samples", inputs.samples, "--roi", "1,1,8",
                           "--out", tmp_path / "model.txt")
        assert code == 2
        assert "--roi" in err


class TestVerify:
    def test_ok_verdict(self, inputs):
        # deviation 2.0 <= 3.92
        code, out, _ = run("verify", "--image", inputs.socket, "--model", inputs.socket_model, "--id", "S1")
        assert code == 0
        assert out == "PLACEMENT S1 OK\n"

    def test_ng_verdict(self, inputs, tmp_path):
        image_path = write_socket(tmp_path / "socket.pgm", 125)  # deviation 7.0 > 3.92
        code, out, _ = run("verify", "--image", image_path, "--model", inputs.socket_model, "--id", "S2")
        assert code == 1
        assert out == (
            "PLACEMENT S2 NG value=125.000000 mean=118.000000 threshold=3.920000\n"
        )

    def test_missing_model_exit_2(self, inputs, tmp_path):
        code, out, _ = run("verify", "--image", inputs.socket, "--model", tmp_path / "none.txt", "--id", "S3")
        assert code == 2
        assert out == ""


class TestEvaluate:
    def test_reference_counts(self, tmp_path):
        pairs = [(1, 1)] * 4334 + [(0, 1)] * 2 + [(1, 0)] * 13 + [(0, 0)] * 13641
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("".join(f"ob{i} {predicted}\n" for i, (predicted, _) in enumerate(pairs)))
        truth.write_text("".join(f"ob{i} {actual}\n" for i, (_, actual) in enumerate(pairs)))
        code, out, _ = run("evaluate", "--pred", pred, "--truth", truth)
        assert code == 0
        assert out == (
            "TP 4334 FN 2 FP 13 TN 13641\n"
            "accuracy 0.9992 precision 0.9970 recall 0.9995\n"
        )

    def test_identical_files_accuracy_one(self, inputs):
        code, out, _ = run("evaluate", "--pred", inputs.labels, "--truth", inputs.labels)
        assert code == 0
        assert "accuracy 1.0000" in out

    def test_mismatched_ids_exit_2(self, tmp_path):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("a 1\n")
        truth.write_text("b 1\n")
        code, _, err = run("evaluate", "--pred", pred, "--truth", truth)
        assert code == 2
        assert "do not match" in err


class TestSynth:
    @pytest.fixture
    def equal_means(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(SCENE_TEXT.replace("mu_without = 50", "mu_without = 130"))
        return path

    def test_writes_image_and_truth(self, inputs, tmp_path):
        code, out, _ = run("synth", "--scene", inputs.scene, "--out-dir", tmp_path)
        assert code == 0
        assert out == ""
        img = decode_pnm((tmp_path / "tray.pgm").read_bytes())
        assert (img.width, img.height) == (2 + 5 * 12, 2 + 4 * 12)
        truth_lines = (tmp_path / "truth.txt").read_text().splitlines()
        assert len(truth_lines) == 20
        assert truth_lines[0] == "0 1"
        assert truth_lines[1] == "1 0"

    def test_deterministic_output(self, inputs, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run("synth", "--scene", inputs.scene, "--out-dir", out_a)[0] == 0
        assert run("synth", "--scene", inputs.scene, "--out-dir", out_b)[0] == 0
        assert (out_a / "tray.pgm").read_bytes() == (out_b / "tray.pgm").read_bytes()
        assert (out_a / "truth.txt").read_text() == (out_b / "truth.txt").read_text()

    def test_require_separable(self, equal_means, tmp_path):
        code, _, err = run("synth", "--scene", equal_means, "--out-dir", tmp_path / "out",
                           "--require-separable")
        assert code == 2
        assert "not separable" in err

    def test_equal_means_allowed_without_flag(self, equal_means, tmp_path):
        assert run("synth", "--scene", equal_means, "--out-dir", tmp_path / "out")[0] == 0

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 74.5 GiB"), "error: out of memory: Unable to allocate 74.5 GiB"),
            (MemoryError(), "error: out of memory"),
        ],
    )
    def test_memory_error_exit_2(self, inputs, tmp_path, monkeypatch, exc, line):
        def exhausted(spec):
            raise exc

        monkeypatch.setattr(synthgen, "generate_tray", exhausted)
        code, out, err = run("synth", "--scene", inputs.scene, "--out-dir", tmp_path / "out")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [line]


class TestOptionInventory:
    """Each subcommand's flags, read from its --help; a new or dropped knob shows up here."""

    INVENTORY = {
        "calibrate-presence": ({"--with", "--without", "--layout", "--out"}, {"-h"}),
        "inspect": ({"--image", "--refs", "--tray-id"}, {"-h", "--layout", "--map", "--outlier-k"}),
        "calibrate-placement": ({"--samples", "--roi", "--out"}, {"-h", "--z", "--min-n"}),
        "verify": ({"--image", "--model", "--id"}, {"-h"}),
        "evaluate": ({"--pred", "--truth"}, {"-h"}),
        "synth": ({"--scene", "--out-dir"}, {"-h", "--require-separable"}),
    }

    @staticmethod
    def usage(capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--help"])
        assert exit_info.value.code == 0
        # The usage paragraph: optional flags in [brackets], required ones bare.
        return capsys.readouterr().out.split("\n\n")[0]

    def test_subcommands(self, capsys):
        usage = self.usage(capsys, [])
        assert set(re.search(r"\{([^}]*)\}", usage).group(1).split(",")) == set(self.INVENTORY)
        assert re.findall(r"\[(-[\w-]+)", usage) == ["-h"]

    @pytest.mark.parametrize("command", sorted(INVENTORY))
    def test_flags_and_required(self, capsys, command):
        usage = self.usage(capsys, [command])
        required, optional = self.INVENTORY[command]
        assert set(re.findall(r"\[(-[\w-]+)", usage)) == optional
        assert set(re.findall(r"(?<![\w\[-])(--[\w-]+)", usage)) == required
