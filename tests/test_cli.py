"""What a golden digest cannot check about the CLI; a new output check is a golden case.

Kept here: process start and exit, closed and failing streams, fuzzed input
files, devices, pipes and symlinks as inputs, record ids, lazy imports, ``gc``, ``synth``
and the option inventory. Tests take their input files from the ``inputs``
fixture and call the CLI in process through ``helpers.run``; ``run_cli``
starts it in a new process.
"""

import contextlib
import dataclasses
import errno
import gc
import os
import re
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SRC, limit_memory, run, run_python
from traysight import cli, synthgen
from traysight.cli import main
from traysight.imaging import GrayImage, Rect, decode_pnm, save_gray_image
from traysight.placement import PlacementModel, save_placement_model
from traysight.synthgen import SceneSpec, generate_tray, parse_scene
from traysight.tray_grid import TrayLayout

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
        model=root / "model.txt",
        labels=root / "labels.txt",
        scene=root / "scene.cfg",
        out=root / "out",
    )
    files.layout.write_text(LAYOUT_TEXT)
    files.labels.write_text("".join(f"{i} {i % 2}\n" for i in range(20)))
    files.scene.write_text(SCENE_TEXT)
    files.model.write_text(save_placement_model(PlacementModel(ROI, n=30, mean_value=118.0, std_value=2.0)))
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
            close_stdout=False, **run_options):
    """Run ``python -m traysight.cli`` in a new process, the way users start it.

    PYTHONUNBUFFERED is removed from the child's environment unless asked for.
    A host or CI job that sets it writes every record at once, which hides the
    failures that only show in the interpreter's buffered flush at exit (such
    as exit code 120 on a closed stdout). With ``close_stderr`` the child starts
    with fd 2 closed, as after ``2>&-``, and with ``close_stdout`` with fd 1
    closed, as after ``>&-``. ``stdout``, ``stderr`` and ``run_options`` (such as
    ``input`` or a ``timeout`` other than 120 s) go to ``subprocess.run``.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "traysight.cli", *map(str, argv)]
    closes = " >&-" * close_stdout + " 2>&-" * close_stderr
    if closes:
        command = ["/bin/sh", "-c", f'exec "$@"{closes}', "sh", *command]
    run_options.setdefault("timeout", 120)
    return subprocess.run(command, stdout=stdout, stderr=stderr, env=env, **run_options)


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


class TestInputKinds:
    """Every input path must name a regular file or a pipe: a device or a directory
    exits 2 with one error line before a byte is read, and a pipe reads as its file.
    A sample named through a symlink counts as its target and errors name it as given."""

    @pytest.mark.parametrize("command, flag", [
        case for case in TestMalformedInputFiles.CASES if case[1] != "--samples"  # a directory lists samples
    ])
    def test_directory_exit_2(self, inputs, working_options, command, flag):
        code, out, err = run(command, *flags({**working_options[command], flag: inputs.out}))
        assert (code, out, err) == (2, "", f"error: {inputs.out}: not a regular file or a pipe\n")

    # Never in process: there, reading /dev/zero would not stop.
    @pytest.mark.parametrize("command, flag", [("inspect", "--image"), ("verify", "--model")])
    def test_endless_device_exit_2_at_once(self, working_options, command, flag):
        if not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero on this system")
        options = {**working_options[command], flag: "/dev/zero"}
        proc = run_cli([command, *flags(options)], preexec_fn=limit_memory, timeout=5)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: /dev/zero: not a regular file or a pipe\n"

    def test_terminal_stdin_exit_2_at_once(self, working_options):
        leader, terminal = os.openpty()
        try:
            proc = run_cli(["inspect", *flags({**working_options["inspect"], "--image": "/dev/stdin"})],
                           stdin=terminal, preexec_fn=limit_memory, timeout=5)
        finally:
            os.close(leader)
            os.close(terminal)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: /dev/stdin: not a regular file or a pipe\n"

    def test_sample_named_again_through_a_symlink_exit_2(self, inputs, tmp_path):
        alias = tmp_path / "alias.pgm"
        alias.symlink_to(inputs.samples / "s0007.pgm")
        code, out, err = run("calibrate-placement", "--samples", inputs.samples, alias,
                             "--roi", "1,1,8,8", "--out", tmp_path / "model.txt")
        assert (code, out, err) == (2, "", f"error: sample {alias} is listed more than once\n")
        assert not (tmp_path / "model.txt").exists()

    @pytest.mark.parametrize("target, code", [("alias.pgm", errno.ELOOP), ("missing.pgm", errno.ENOENT)],
                             ids=["loop", "dangling"])
    def test_unreadable_symlinked_sample_is_named_as_given(self, inputs, tmp_path, target, code):
        alias = tmp_path / "alias.pgm"
        alias.symlink_to(target)
        result = run("calibrate-placement", "--samples", inputs.samples, alias,
                     "--roi", "1,1,8,8", "--out", tmp_path / "model.txt")
        assert result == (2, "", f"error: [Errno {code}] {os.strerror(code)}: '{alias}'\n")

    def test_piped_image_gives_the_file_record(self, inputs, working_options):
        options = working_options["inspect"]
        proc = run_cli(["inspect", *flags({**options, "--image": "/dev/stdin"})],
                       input=inputs.tray.read_bytes())
        code, out, err = run("inspect", *flags(options))
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, out, err)


@pytest.mark.skipif(not (os.path.isdir("/proc/self/fd") and os.path.exists("/dev/full")),
                    reason="no /proc/self/fd or /dev/full")
def test_failed_flushes_in_process_leave_the_open_fds_unchanged(working_options):
    """A long-lived caller of ``main(argv)`` whose stdout keeps failing gains no descriptor per call."""
    script = (
        "import json, os\n"
        "from traysight.cli import main\n"
        "saved, full = os.dup(1), os.open('/dev/full', os.O_WRONLY)\n"
        "codes, fds = [], []\n"
        "for _ in range(4):\n"
        "    os.dup2(full, 1)  # each failed call points fd 1 at devnull\n"
        f"    codes.append(main({['verify', *flags(working_options['verify'])]!r}))\n"
        "    fds.append(len(os.listdir('/proc/self/fd')))\n"
        "os.dup2(saved, 1)\n"
        "print(json.dumps([codes, fds]))\n"
    )
    # A buffered stdout, so that the second flush fails too and fd 1 is silenced.
    codes, fds = run_python(script, PYTHONUNBUFFERED="")
    assert codes == [2] * 4
    assert fds == fds[:1] * 4


def judged(judge, model, ident, image):
    """What ``main`` makes of one per-frame call: (exit code, stdout, stderr)."""
    try:
        record, notes, code = judge(model, ident, image)
    except (OSError, ValueError) as exc:
        return 2, "", f"error: {exc}\n"
    return code, record + "\n", "".join(line + "\n" for line in notes)


class TestPerFrameJudges:
    """A record command is a loader, run once per store, and a per-frame judge. Judged one by
    one against one loaded store, each frame gives its own single-shot stdout, stderr and exit
    code, so N frames judged in one process are N single-shot calls."""

    # command: (loader, judge, id flag, exit code per frame)
    JUDGES = {
        "inspect": (cli._load_tray, cli._inspect_frame, "--tray-id", [0, 0, 2, 2, 2]),
        "verify": (cli._load_model, cli._verify_frame, "--id", [0, 1, 2, 2]),
    }

    @pytest.fixture(scope="class")
    def frames(self, inputs):
        """Per command, (id, image) pairs: OK, outlier or NG, unreadable, bad id and, for inspect, missing."""
        unreadable = inputs.out / "unreadable.pgm"
        unreadable.write_bytes(b"P5\n9 9\n255\n\x00")
        pixels = decode_pnm(inputs.tray.read_bytes()).pixels.copy()
        pixels[2:12, 38:48] = 250  # slot 3, far from both references
        outlier = inputs.out / "outlier.pgm"
        save_gray_image(GrayImage(pixels), outlier)
        roi_layout = TrayLayout(1, 1, ROI.x, ROI.y, ROI.w, ROI.h, ROI.w, ROI.h)
        ng = inputs.out / "ng.pgm"
        save_gray_image(generate_tray(SceneSpec(roi_layout, (True,), 150.0, 150.0, 2.0, 60.0, seed=5))[0], ng)
        return {
            "inspect": [("T1", inputs.tray), ("T2", outlier), ("T3", unreadable), ("T 4", inputs.tray),
                        ("T5", inputs.out / "none.pgm")],
            "verify": [("S1", inputs.samples / "s0000.pgm"), ("S2", ng), ("S3", unreadable), ("S 4", ng)],
        }

    @pytest.mark.parametrize("command", list(JUDGES))
    def test_each_frame_gives_its_single_shot_output(self, working_options, frames, command):
        load, judge, id_flag, codes = self.JUDGES[command]
        options = dict(working_options[command])
        if command == "inspect":
            options["--outlier-k"] = 0.05  # 4 levels from both references flags a slot
        # The loader reads the store options; the call's own --image and id are not read.
        model = load(cli.build_parser().parse_args([command, *flags(options)]))
        outputs = []
        for ident, image in frames[command]:
            outputs.append(judged(judge, model, ident, image))
            assert outputs[-1] == run(command, *flags({**options, "--image": image, id_flag: ident}))
        assert [code for code, _, _ in outputs] == codes
        if command == "inspect":
            assert outputs[0][2] == "#.#.#\n.#.#.\n#.#.#\n.#.#.\n"
            assert outputs[1][2].startswith("WARN slot 3 outlier\n#.##")


def test_calibrate_placement_holds_one_sample_frame_at_a_time(tmp_path):
    """Ten sample frames of 202,400 px each: the traced peak stays below three frames,
    where a list of every decoded frame would hold ten."""
    height, width = 440, 460
    sample_dir = tmp_path / "samples"
    sample_dir.mkdir()
    for i in range(10):
        save_gray_image(GrayImage(np.full((height, width), 100 + i, dtype=np.uint8)), sample_dir / f"s{i}.pgm")
    argv = ["calibrate-placement", "--samples", sample_dir, "--roi", "1,1,8,8", "--out", tmp_path / "model.txt"]
    run(*argv)  # a first call's one-time allocations (lazy imports, compiled patterns) are not frames
    tracemalloc.start()
    try:
        code, _, err = run(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert peak < 3 * height * width


def test_no_command_opens_a_text_file_in_the_locales_encoding(working_options):
    # PEP 597: each text file opened without an explicit encoding warns, here as an error.
    argvs = [[command, *flags(options)] for command, options in working_options.items()]
    script = (
        "import json, warnings\nfrom traysight.cli import main\n"
        "warnings.simplefilter('error', EncodingWarning)\n"
        f"print(json.dumps([main(argv) for argv in {argvs!r}]))"
    )
    assert run_python(script, PYTHONWARNDEFAULTENCODING="1") == [0] * len(argvs)


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


class TestSynth:
    @pytest.fixture
    def equal_means(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(SCENE_TEXT.replace("mu_without = 50", "mu_without = 130"))
        return path

    def test_writes_image_and_truth(self, inputs, tmp_path):
        code, out, err = run("synth", "--scene", inputs.scene, "--out-dir", tmp_path)
        assert code == 0
        assert out == ""
        assert err == f"wrote {tmp_path / 'tray.pgm'} and {tmp_path / 'truth.txt'}\n"
        img = decode_pnm((tmp_path / "tray.pgm").read_bytes())
        assert (img.width, img.height) == (2 + 5 * 12, 2 + 4 * 12)
        truth_lines = (tmp_path / "truth.txt").read_text().splitlines()
        assert len(truth_lines) == 20
        assert truth_lines[0] == "0 1"
        assert truth_lines[1] == "1 0"

    def test_deterministic_output(self, inputs, tmp_path):
        out_a = tmp_path / "a" / "out"  # missing parents are made
        out_b = tmp_path / "b" / "out"
        assert run("synth", "--scene", inputs.scene, "--out-dir", out_a)[0] == 0
        assert run("synth", "--scene", inputs.scene, "--out-dir", out_b)[0] == 0
        assert (out_a / "tray.pgm").read_bytes() == (out_b / "tray.pgm").read_bytes()
        assert (out_a / "truth.txt").read_text() == (out_b / "truth.txt").read_text()

    def test_require_separable(self, equal_means, tmp_path):
        code, _, err = run("synth", "--scene", equal_means, "--out-dir", tmp_path / "out",
                           "--require-separable")
        assert code == 2
        assert "not separable" in err

    def test_require_separable_passes_a_separable_scene(self, inputs, tmp_path):
        assert run("synth", "--scene", inputs.scene, "--out-dir", tmp_path, "--require-separable")[0] == 0

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


def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith("traysight: error: the following arguments are required: command\n")


HELP_TEXTS = {
    "traysight": ["Histogram-based tray occupancy and socket placement inspection.",
                  "build per-slot with/without references", "classify every slot of a tray image",
                  "build the socket tolerance model", "check one socket image against the model",
                  "confusion matrix and metrics from label files", "render a synthetic tray scene with ground truth"],
    "calibrate-presence": ["--with IMG", "tray image with every slot occupied", "--without IMG",
                           "tray image with every slot empty", "--layout CFG", "--out REFS"],
    "inspect": ["--image IMG", "--layout CFG", "must match the layout stored in REFS (default: that layout)",
                "--refs REFS", "--tray-id ID", "--map PPM", "write a color occupancy map (P6)", "--outlier-k K",
                "flag readings further than K reference separations from both references"],
    "calibrate-placement": ["--samples PATH", "sample images, or directories of .pgm/.ppm files",
                            "--roi X,Y,W,H", "--out MODEL"],
    "verify": ["--image IMG", "--model MODEL", "--id ID"],
    "evaluate": ["--pred FILE", "--truth FILE"],
    "synth": ["--scene MANIFEST", "--out-dir DIR", "fail if the scene's class means coincide"],
}


@pytest.mark.parametrize("command", sorted(HELP_TEXTS))
def test_help_shows_each_description_and_metavar(capsys, monkeypatch, command):
    # Wide enough that argparse breaks no line; whitespace is collapsed all the same.
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit):
        main(["--help"] if command == "traysight" else [command, "--help"])
    shown = " ".join(capsys.readouterr().out.split())
    assert [text for text in HELP_TEXTS[command] if text not in shown] == []
