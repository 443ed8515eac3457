"""End-to-end CLI behavior: verdict lines, exit codes, stdout purity."""

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traysight import synthgen
from traysight.cli import main
from traysight.imaging import GrayImage, Rect, decode_pnm, save_gray_image
from traysight.placement import PlacementModel, save_placement_model
from traysight.synthgen import SceneSpec, format_scene, generate_tray
from traysight.tray_grid import TrayLayout

SRC = Path(__file__).resolve().parents[1] / "src"
LAYOUT = TrayLayout(4, 5, 2, 2, 12, 12, 10, 10)
LAYOUT_TEXT = (
    "rows = 4\ncols = 5\norigin_x = 2\norigin_y = 2\n"
    "pitch_x = 12\npitch_y = 12\nslot_w = 10\nslot_h = 10\n"
)


def write_layout(tmp_path):
    path = tmp_path / "layout.cfg"
    path.write_text(LAYOUT_TEXT)
    return path


def write_tray(tmp_path, name, occupancy, seed, sigma=2.0):
    spec = SceneSpec(LAYOUT, occupancy, 130.0, 50.0, sigma, 85.0, seed)
    image, _ = generate_tray(spec)
    path = tmp_path / name
    save_gray_image(image, path)
    return path


def write_socket_samples(sample_dir, roi, count):
    """``count`` socket frames in a new ``sample_dir``, drawn as the bench draws them:
    a 1x1 tray whose one occupied slot is ``roi``."""
    layout = TrayLayout(1, 1, roi.x, roi.y, roi.w, roi.h, roi.w, roi.h)
    sample_dir.mkdir()
    for i in range(count):
        image, _ = generate_tray(SceneSpec(layout, (True,), 118.0, 118.0, 2.0, 60.0, seed=21 + i))
        save_gray_image(image, sample_dir / f"s{i:04d}.pgm")
    return sample_dir


def calibrate_presence_files(tmp_path):
    layout_path = write_layout(tmp_path)
    with_path = write_tray(tmp_path, "with.pgm", (True,) * 20, seed=10)
    without_path = write_tray(tmp_path, "without.pgm", (False,) * 20, seed=11)
    refs_path = tmp_path / "refs.txt"
    code = main([
        "calibrate-presence",
        "--with", str(with_path),
        "--without", str(without_path),
        "--layout", str(layout_path),
        "--out", str(refs_path),
    ])
    assert code == 0
    return layout_path, refs_path


class TestCalibratePresence:
    def test_writes_reference_store(self, tmp_path, capsys):
        _, refs_path = calibrate_presence_files(tmp_path)
        out = capsys.readouterr()
        assert out.out == ""
        assert refs_path.read_text().startswith("TRAYSIGHT-PRESENCE 1\n")

    def test_identical_images_exit_2(self, tmp_path, capsys):
        layout_path = write_layout(tmp_path)
        img_path = write_tray(tmp_path, "same.pgm", (True,) * 20, seed=10)
        code = main([
            "calibrate-presence",
            "--with", str(img_path),
            "--without", str(img_path),
            "--layout", str(layout_path),
            "--out", str(tmp_path / "refs.txt"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "degenerate calibration" in err

    def test_bad_layout_exit_2(self, tmp_path, capsys):
        layout_path = tmp_path / "layout.cfg"
        layout_path.write_text(LAYOUT_TEXT.replace("rows = 4\n", ""))
        img_path = write_tray(tmp_path, "with.pgm", (True,) * 20, seed=10)
        code = main([
            "calibrate-presence",
            "--with", str(img_path),
            "--without", str(img_path),
            "--layout", str(layout_path),
            "--out", str(tmp_path / "refs.txt"),
        ])
        assert code == 2
        assert "rows" in capsys.readouterr().err


class TestInspect:
    def test_planted_occupancy_verdict_line(self, tmp_path, capsys):
        layout_path, refs_path = calibrate_presence_files(tmp_path)
        occupancy = tuple(c == "1" for c in "11101111011111111111")
        tray_path = write_tray(tmp_path, "tray.pgm", occupancy, seed=12)
        capsys.readouterr()
        code = main([
            "inspect",
            "--image", str(tray_path),
            "--layout", str(layout_path),
            "--refs", str(refs_path),
            "--tray-id", "T1",
        ])
        out = capsys.readouterr()
        assert code == 0
        assert out.out == "PRESENCE T1 11101111011111111111\n"
        # ASCII map on the diagnostics stream, one row per tray row
        map_lines = [line for line in out.err.splitlines() if set(line) <= {"#", "."}]
        assert map_lines == ["###.#", "###.#", "#####", "#####"]

    def test_all_occupied(self, tmp_path, capsys):
        layout_path, refs_path = calibrate_presence_files(tmp_path)
        tray_path = write_tray(tmp_path, "tray.pgm", (True,) * 20, seed=13)
        capsys.readouterr()
        code = main([
            "inspect",
            "--image", str(tray_path),
            "--layout", str(layout_path),
            "--refs", str(refs_path),
            "--tray-id", "T9",
        ])
        assert code == 0
        assert capsys.readouterr().out == "PRESENCE T9 " + "1" * 20 + "\n"

    def test_refs_layout_mismatch_exit_2(self, tmp_path, capsys):
        layout_path, refs_path = calibrate_presence_files(tmp_path)
        other_layout = tmp_path / "other.cfg"
        other_layout.write_text(LAYOUT_TEXT.replace("rows = 4", "rows = 3"))
        tray_path = write_tray(tmp_path, "tray.pgm", (True,) * 20, seed=14)
        capsys.readouterr()
        code = main([
            "inspect",
            "--image", str(tray_path),
            "--layout", str(other_layout),
            "--refs", str(refs_path),
            "--tray-id", "T1",
        ])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""  # stdout stays machine-clean on errors

    def test_outlier_warning_on_stderr(self, tmp_path, capsys):
        layout_path, refs_path = calibrate_presence_files(tmp_path)
        bright = GrayImage(np.full((LAYOUT.origin_y + 4 * 12, LAYOUT.origin_x + 5 * 12), 255,
                                   dtype=np.uint8))
        tray_path = tmp_path / "bright.pgm"
        save_gray_image(bright, tray_path)
        capsys.readouterr()
        code = main([
            "inspect",
            "--image", str(tray_path),
            "--layout", str(layout_path),
            "--refs", str(refs_path),
            "--tray-id", "T1",
            "--outlier-k", "1.0",
        ])
        out = capsys.readouterr()
        assert code == 0
        assert "WARN slot 0 outlier" in out.err
        assert out.out.startswith("PRESENCE T1 ")

    def test_map_rendering(self, tmp_path, capsys):
        layout_path, refs_path = calibrate_presence_files(tmp_path)
        occupancy = (True, False) + (True,) * 18
        tray_path = write_tray(tmp_path, "tray.pgm", occupancy, seed=15)
        map_path = tmp_path / "map.ppm"
        capsys.readouterr()
        code = main([
            "inspect",
            "--image", str(tray_path),
            "--layout", str(layout_path),
            "--refs", str(refs_path),
            "--tray-id", "T1",
            "--map", str(map_path),
        ])
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

    def test_unwritable_map_exit_2_before_any_record(self, tmp_path, capsys):
        layout_path, refs_path = calibrate_presence_files(tmp_path)
        tray_path = write_tray(tmp_path, "tray.pgm", (True,) * 20, seed=15)
        capsys.readouterr()
        code = main([
            "inspect",
            "--image", str(tray_path),
            "--layout", str(layout_path),
            "--refs", str(refs_path),
            "--tray-id", "T1",
            "--map", str(tmp_path / "missing" / "map.ppm"),
        ])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert out.err.startswith("error: ")

    def test_layout_defaults_to_the_refs_layout(self, tmp_path, capsys):
        layout_path, refs_path = calibrate_presence_files(tmp_path)
        occupancy = tuple(c == "1" for c in "10101111011111100111")
        tray_path = write_tray(tmp_path, "tray.pgm", occupancy, seed=16)
        capsys.readouterr()
        runs = []
        for name, layout_args in (("given", ["--layout", str(layout_path)]), ("stored", [])):
            map_path = tmp_path / f"{name}.ppm"
            code = main([
                "inspect",
                "--image", str(tray_path),
                *layout_args,
                "--refs", str(refs_path),
                "--tray-id", "T1",
                "--map", str(map_path),
            ])
            out = capsys.readouterr()
            runs.append((code, out.out, out.err, map_path.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][1] == "PRESENCE T1 10101111011111100111\n"

    def test_mismatched_layout_one_error_line(self, tmp_path, capsys):
        _, refs_path = calibrate_presence_files(tmp_path)
        other_layout = tmp_path / "other.cfg"
        other_layout.write_text(LAYOUT_TEXT.replace("pitch_x = 12", "pitch_x = 11"))
        tray_path = write_tray(tmp_path, "tray.pgm", (True,) * 20, seed=14)
        capsys.readouterr()
        code = main([
            "inspect",
            "--image", str(tray_path),
            "--layout", str(other_layout),
            "--refs", str(refs_path),
            "--tray-id", "T1",
        ])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert out.err.startswith("error: ")
        assert "different layout" in out.err


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
    def argvs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("inputs")
        layout_path, refs_path = calibrate_presence_files(tmp_path)
        model_path = tmp_path / "model.txt"
        model_path.write_text(save_placement_model(
            PlacementModel(roi=Rect(0, 0, 6, 6), n=30, mean_value=118.0, std_value=2.0)
        ))
        socket_path = tmp_path / "socket.pgm"
        save_gray_image(GrayImage(np.full((6, 6), 120, dtype=np.uint8)), socket_path)
        labels = "".join(f"{i} {i % 2}\n" for i in range(20))
        (tmp_path / "pred.txt").write_text(labels)
        (tmp_path / "truth.txt").write_text(labels)
        scene_path = tmp_path / "scene.cfg"
        scene_path.write_text(format_scene(SceneSpec(LAYOUT, (True, False) * 10, 130.0, 50.0, 2.0, 85.0, 33)))
        return {
            "inspect": {
                "--image": write_tray(tmp_path, "tray.pgm", (True, False) * 10, seed=12),
                "--layout": layout_path,
                "--refs": refs_path,
                "--tray-id": "T",
            },
            "verify": {"--model": model_path, "--image": socket_path, "--id": "S"},
            "calibrate-presence": {
                "--layout": layout_path,
                "--with": tmp_path / "with.pgm",
                "--without": tmp_path / "without.pgm",
                "--out": tmp_path / "refs.txt",
            },
            "calibrate-placement": {
                "--samples": socket_path,
                "--roi": "0,0,6,6",
                "--out": tmp_path / "placement.txt",
            },
            "evaluate": {"--pred": tmp_path / "pred.txt", "--truth": tmp_path / "truth.txt"},
            "synth": {"--scene": scene_path, "--out-dir": tmp_path / "synth"},
        }

    @pytest.mark.parametrize("command, flag", CASES)
    @settings(deadline=None)
    @given(
        contents=st.binary() | st.text().map(str.encode),
        cut=st.none() | st.floats(0, 1, exclude_max=True),
    )
    def test_exit_2_with_one_error_line(self, argvs, command, flag, contents, cut):
        options = dict(argvs[command])
        bad = options[flag].with_name("arbitrary")
        if flag in self.IMAGE_FLAGS and cut is not None:
            # A valid image cut short anywhere, header or pixel payload.
            valid = options[flag].read_bytes()
            contents = valid[: int(cut * len(valid))]
        bad.write_bytes(contents)
        options[flag] = bad
        argv = [command]
        for name, value in options.items():
            argv += [name, str(value)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")

    # A record id is one stdout field: whitespace would split it or forge a record.
    @pytest.mark.parametrize("command, flag", [("inspect", "--tray-id"), ("verify", "--id")])
    @pytest.mark.parametrize("ident", ["", "A B", "A\tB", "A\nPRESENCE B 1"])
    def test_bad_record_id_exit_2_naming_the_flag(self, argvs, command, flag, ident):
        argv = [command]
        for name, value in dict(argvs[command], **{flag: ident}).items():
            argv += [name, str(value)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith(f"error: {flag} ")


def run_cli(argv, stdout=subprocess.PIPE, close_stderr=False, unbuffered=False, close_stdout=False):
    """Run ``python -m traysight.cli`` in a new process, the way users start it.

    PYTHONUNBUFFERED is removed from the child's environment unless asked for.
    A host or CI job that sets it writes every record at once, which hides the
    failures that only show in the interpreter's buffered flush at exit (such
    as exit code 120 on a closed stdout). With ``close_stderr`` the child starts
    with fd 2 closed, as after ``2>&-``, and with ``close_stdout`` with fd 1
    closed, as after ``>&-``.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "traysight.cli", *map(str, argv)]
    closes = " >&-" * close_stdout + " 2>&-" * close_stderr
    if closes:
        command = ["/bin/sh", "-c", f'exec "$@"{closes}', "sh", *command]
    return subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120)


@contextlib.contextmanager
def stdout_target(kind):
    """A child's stdout: a pipe that is read, a pipe whose reader is gone, or /dev/full."""
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

    @pytest.fixture(scope="class")
    def argvs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("streams")
        _, refs_path = calibrate_presence_files(tmp_path)
        tray = write_tray(tmp_path, "tray.pgm", (True, False) * 10, seed=12)
        model_path = tmp_path / "model.txt"
        model_path.write_text(save_placement_model(
            PlacementModel(roi=Rect(0, 0, 6, 6), n=30, mean_value=118.0, std_value=2.0)
        ))
        socket_path = tmp_path / "socket.pgm"
        save_gray_image(GrayImage(np.full((6, 6), 120, dtype=np.uint8)), socket_path)
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"{i} {i % 2}\n" for i in range(20)))
        # name: (argv, exit code with a working stdout, record lines)
        return {
            "inspect": (["inspect", "--image", tray, "--refs", refs_path, "--tray-id", "T"], 0, 1),
            "inspect-missing-refs": (
                ["inspect", "--image", tray, "--refs", tmp_path / "none.txt", "--tray-id", "T"], 2, 0
            ),
            "verify": (["verify", "--image", socket_path, "--model", model_path, "--id", "S"], 0, 1),
            "evaluate": (["evaluate", "--pred", labels, "--truth", labels], 0, 2),
        }

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("stderr", ["pipe", "closed"])
    @pytest.mark.parametrize("stdout", ["pipe", "reader-closed", "full"])
    @pytest.mark.parametrize("case", ["inspect", "inspect-missing-refs", "verify", "evaluate"])
    def test_exit_code_and_streams(self, argvs, case, stdout, stderr, unbuffered):
        argv, code, records = argvs[case]
        with stdout_target(stdout) as target:
            proc = run_cli(argv, stdout=target, close_stderr=stderr == "closed", unbuffered=unbuffered)
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


@pytest.fixture(scope="module")
def subcommand_argvs(tmp_path_factory):
    """Per subcommand: a working argv and the file it writes (None for none)."""
    tmp_path = tmp_path_factory.mktemp("subcommands")
    layout_path, refs_path = calibrate_presence_files(tmp_path)
    tray = write_tray(tmp_path, "tray.pgm", (True, False) * 10, seed=12)
    roi = Rect(1, 1, 8, 8)
    samples = write_socket_samples(tmp_path / "samples", roi, 30)
    model_path = tmp_path / "model.txt"
    model_path.write_text(save_placement_model(
        PlacementModel(roi=roi, n=30, mean_value=118.0, std_value=2.0)
    ))
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{i} {i % 2}\n" for i in range(20)))
    scene = tmp_path / "scene.cfg"
    scene.write_text(format_scene(SceneSpec(LAYOUT, (True, False) * 10, 130.0, 50.0, 2.0, 85.0, 33)))
    (tmp_path / "out").mkdir()
    out = {name: tmp_path / "out" / name for name in ("refs.txt", "model.txt", "synth")}
    return {
        "calibrate-presence": ([
            "calibrate-presence", "--with", tmp_path / "with.pgm", "--without", tmp_path / "without.pgm",
            "--layout", layout_path, "--out", out["refs.txt"],
        ], out["refs.txt"]),
        "inspect": (["inspect", "--image", tray, "--refs", refs_path, "--tray-id", "T"], None),
        "calibrate-placement": ([
            "calibrate-placement", "--samples", samples, "--roi", "1,1,8,8", "--out", out["model.txt"],
        ], out["model.txt"]),
        "verify": (["verify", "--image", samples / "s0000.pgm", "--model", model_path, "--id", "S"], None),
        "evaluate": (["evaluate", "--pred", labels, "--truth", labels], None),
        "synth": (["synth", "--scene", scene, "--out-dir", out["synth"]], out["synth"] / "truth.txt"),
    }


class TestClosedStdout:
    """Started with stdout closed (``>&-``), a command that prints records exits 2
    with one error line; a command that prints none still does its work."""

    @pytest.mark.parametrize("command, code", [
        ("calibrate-presence", 0), ("inspect", 2), ("calibrate-placement", 0),
        ("verify", 2), ("evaluate", 2), ("synth", 0),
    ])
    def test_exit_code_and_error_line(self, subcommand_argvs, command, code):
        argv, written = subcommand_argvs[command]
        proc = run_cli(argv, close_stdout=True)
        assert proc.returncode == code
        errors = [line for line in proc.stderr.decode().splitlines() if line.startswith("error:")]
        assert errors == (["error: stdout is closed"] if code == 2 else [])
        assert "Traceback" not in proc.stderr.decode()
        if written is not None:
            assert written.exists()


def test_record_commands_import_neither_synthgen_nor_evaluation(subcommand_argvs):
    """``inspect`` and ``verify`` as the console script runs them load no module they do not use,
    and freeze the objects made at import."""
    argvs = [[str(a) for a in subcommand_argvs[command][0]] for command in ("inspect", "verify")]
    script = (
        "import gc, json, sys\n"
        "from traysight.cli import main\n"
        "codes = []\n"
        f"for argv in {argvs!r}:\n"
        "    sys.argv = ['traysight', *argv]\n"
        "    codes.append(main())\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('traysight'))\n"
        "print(json.dumps([codes, loaded, gc.get_freeze_count()]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    codes, loaded, frozen = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert frozen > 0
    assert "traysight.presence" in loaded and "traysight.placement" in loaded
    assert "traysight.synthgen" not in loaded
    assert "traysight.evaluation" not in loaded


@pytest.mark.parametrize("tray_id, code", [("T", 0), ("A B", 2)])
def test_main_with_argv_leaves_the_callers_gc_alone(subcommand_argvs, tray_id, code):
    """A freeze is process-wide, so an in-process call must not make the caller's objects uncollectable."""
    argv = [str(a) for a in subcommand_argvs["inspect"][0][:-1]] + [tray_id]
    before = (gc.get_freeze_count(), gc.isenabled())
    assert main(argv) == code
    assert (gc.get_freeze_count(), gc.isenabled()) == before


class TestCalibratePlacement:
    ROI = Rect(1, 1, 8, 8)

    def write_samples(self, tmp_path, count):
        return write_socket_samples(tmp_path / "samples", self.ROI, count)

    def test_full_calibration(self, tmp_path, capsys):
        sample_dir = self.write_samples(tmp_path, 30)
        model_path = tmp_path / "model.txt"
        code = main([
            "calibrate-placement",
            "--samples", str(sample_dir),
            "--roi", "1,1,8,8",
            "--out", str(model_path),
        ])
        out = capsys.readouterr()
        assert code == 0
        assert "WARN" not in out.err
        assert model_path.read_text().startswith("TRAYSIGHT-PLACEMENT 1\n")

    def test_under_sampled_warns(self, tmp_path, capsys):
        sample_dir = self.write_samples(tmp_path, 10)
        code = main([
            "calibrate-placement",
            "--samples", str(sample_dir),
            "--roi", "1,1,8,8",
            "--out", str(tmp_path / "model.txt"),
        ])
        out = capsys.readouterr()
        assert code == 0
        assert "WARN under-sampled n=10" in out.err

    def test_single_sample_exit_2(self, tmp_path, capsys):
        sample_dir = self.write_samples(tmp_path, 1)
        code = main([
            "calibrate-placement",
            "--samples", str(sample_dir),
            "--roi", "1,1,8,8",
            "--out", str(tmp_path / "model.txt"),
        ])
        assert code == 2
        assert "at least 2" in capsys.readouterr().err

    def test_explicit_file_list(self, tmp_path, capsys):
        sample_dir = self.write_samples(tmp_path, 3)
        files = sorted(str(p) for p in sample_dir.iterdir())
        code = main([
            "calibrate-placement",
            "--samples", *files,
            "--roi", "1,1,8,8",
            "--min-n", "3",
            "--out", str(tmp_path / "model.txt"),
        ])
        out = capsys.readouterr()
        assert code == 0
        assert "WARN" not in out.err

    def test_bad_roi_exit_2(self, tmp_path, capsys):
        sample_dir = self.write_samples(tmp_path, 2)
        code = main([
            "calibrate-placement",
            "--samples", str(sample_dir),
            "--roi", "1,1,8",
            "--out", str(tmp_path / "model.txt"),
        ])
        assert code == 2
        assert "--roi" in capsys.readouterr().err


class TestVerify:
    def write_model(self, tmp_path):
        model = PlacementModel(roi=Rect(0, 0, 6, 6), n=30, mean_value=118.0, std_value=2.0)
        path = tmp_path / "model.txt"
        path.write_text(save_placement_model(model))
        return path

    def write_socket(self, tmp_path, value):
        img = GrayImage(np.full((6, 6), value, dtype=np.uint8))
        path = tmp_path / f"socket_{value}.pgm"
        save_gray_image(img, path)
        return path

    def test_ok_verdict(self, tmp_path, capsys):
        model_path = self.write_model(tmp_path)
        image_path = self.write_socket(tmp_path, 120)  # deviation 2.0 <= 3.92
        code = main(["verify", "--image", str(image_path), "--model", str(model_path), "--id", "S1"])
        out = capsys.readouterr()
        assert code == 0
        assert out.out == "PLACEMENT S1 OK\n"

    def test_ng_verdict(self, tmp_path, capsys):
        model_path = self.write_model(tmp_path)
        image_path = self.write_socket(tmp_path, 125)  # deviation 7.0 > 3.92
        code = main(["verify", "--image", str(image_path), "--model", str(model_path), "--id", "S2"])
        out = capsys.readouterr()
        assert code == 1
        assert out.out == (
            "PLACEMENT S2 NG value=125.000000 mean=118.000000 threshold=3.920000\n"
        )

    def test_missing_model_exit_2(self, tmp_path, capsys):
        image_path = self.write_socket(tmp_path, 120)
        code = main(["verify", "--image", str(image_path), "--model", str(tmp_path / "none.txt"),
                     "--id", "S3"])
        assert code == 2
        assert capsys.readouterr().out == ""


class TestEvaluate:
    def test_reference_counts(self, tmp_path, capsys):
        pred_lines = []
        truth_lines = []
        idx = 0

        def add(n, predicted, actual):
            nonlocal idx
            for _ in range(n):
                pred_lines.append(f"ob{idx} {predicted}")
                truth_lines.append(f"ob{idx} {actual}")
                idx += 1

        add(4334, 1, 1)
        add(2, 0, 1)
        add(13, 1, 0)
        add(13641, 0, 0)
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("\n".join(pred_lines) + "\n")
        truth.write_text("\n".join(truth_lines) + "\n")
        code = main(["evaluate", "--pred", str(pred), "--truth", str(truth)])
        out = capsys.readouterr()
        assert code == 0
        assert out.out == (
            "TP 4334 FN 2 FP 13 TN 13641\n"
            "accuracy 0.9992 precision 0.9970 recall 0.9995\n"
        )

    def test_identical_files_accuracy_one(self, tmp_path, capsys):
        labels = "a 1\nb 0\nc 1\n"
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text(labels)
        truth.write_text(labels)
        code = main(["evaluate", "--pred", str(pred), "--truth", str(truth)])
        out = capsys.readouterr()
        assert code == 0
        assert "accuracy 1.0000" in out.out

    def test_mismatched_ids_exit_2(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("a 1\n")
        truth.write_text("b 1\n")
        code = main(["evaluate", "--pred", str(pred), "--truth", str(truth)])
        assert code == 2
        assert "do not match" in capsys.readouterr().err


class TestSynth:
    def write_scene(self, tmp_path, **overrides):
        spec = SceneSpec(LAYOUT, (True, False) * 10, 130.0, 50.0, 2.0, 85.0, 33)
        text = format_scene(spec)
        for key, value in overrides.items():
            old = next(line for line in text.splitlines() if line.startswith(f"{key} "))
            text = text.replace(old, f"{key} = {value}")
        path = tmp_path / "scene.cfg"
        path.write_text(text)
        return path

    def test_writes_image_and_truth(self, tmp_path, capsys):
        scene = self.write_scene(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["synth", "--scene", str(scene), "--out-dir", str(out_dir)])
        assert code == 0
        assert capsys.readouterr().out == ""
        img = decode_pnm((out_dir / "tray.pgm").read_bytes())
        assert (img.width, img.height) == (2 + 5 * 12, 2 + 4 * 12)
        truth_lines = (out_dir / "truth.txt").read_text().splitlines()
        assert len(truth_lines) == 20
        assert truth_lines[0] == "0 1"
        assert truth_lines[1] == "1 0"

    def test_deterministic_output(self, tmp_path):
        scene = self.write_scene(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["synth", "--scene", str(scene), "--out-dir", str(out_a)]) == 0
        assert main(["synth", "--scene", str(scene), "--out-dir", str(out_b)]) == 0
        assert (out_a / "tray.pgm").read_bytes() == (out_b / "tray.pgm").read_bytes()
        assert (out_a / "truth.txt").read_text() == (out_b / "truth.txt").read_text()

    def test_require_separable(self, tmp_path, capsys):
        scene = self.write_scene(tmp_path, mu_without="130.000000")
        code = main(["synth", "--scene", str(scene), "--out-dir", str(tmp_path / "out"),
                     "--require-separable"])
        assert code == 2
        assert "not separable" in capsys.readouterr().err

    def test_equal_means_allowed_without_flag(self, tmp_path):
        scene = self.write_scene(tmp_path, mu_without="130.000000")
        assert main(["synth", "--scene", str(scene), "--out-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 74.5 GiB"), "error: out of memory: Unable to allocate 74.5 GiB"),
            (MemoryError(), "error: out of memory"),
        ],
    )
    def test_memory_error_exit_2(self, tmp_path, capsys, monkeypatch, exc, line):
        def exhausted(spec):
            raise exc

        monkeypatch.setattr(synthgen, "generate_tray", exhausted)
        scene = self.write_scene(tmp_path)
        code = main(["synth", "--scene", str(scene), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [line]


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
