"""Benchmark of traysight: verdict latency, CLI call cost and set-up time.

    python3 bench/run.py --workload dense_tray --seed 1 --seconds 30 --trace 0

Workloads (README.md in this directory says why each was chosen); each is a
closed loop with one client in one process:

  paper_line     the paper's 4x5 tray; per-call costs dominate
  dense_tray     2500 slots; the per-slot feature loop dominates
  socket_verify  one small ROI per large frame; decode and validation dominate

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
workload with spans around every call into traysight and prints the
per-layer metrics instead. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. Every verdict and every
store is checked against the histogram oracle and the planted truth, outside
the timed region; any mismatch makes the exit code 1.

The package need not be installed: everything imports it from src/, and the
CLI leg runs ``python -m traysight.cli`` with PYTHONPATH set to src/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    from traysight import cli, evaluation, imaging, placement, presence, stats, tray_grid
except ImportError as exc:
    sys.exit(f"error: cannot import traysight from {SRC}: {exc}")

import scenes
from tracing import NULL, Tracer

HELD_OUT_SEED = 7919  # never used while tuning a change; re-check a claimed gain on it
MIN_VERDICTS = 200  # the p95 needs ten samples beyond it
TRACED_MAX = 5000  # traced verdicts per run; bounds the span file

# Span name -> (per-layer metric for its median self time, unit, may raise).
# Each span also gives "<span>.calls", and "<span>.errors" where it may raise.
SPAN_METRICS = {
    "verdict": ("verdict.self_us", "us", False),
    "imaging.decode_pnm": ("imaging.decode_pnm_ms", "ms", True),
    "presence.inspect_tray": ("presence.inspect_tray_ms", "ms", True),
    "presence.calibrate_presence": ("presence.calibrate_presence_ms", "ms", False),
    "presence.save_presence_refs": ("presence.save_presence_refs_ms", "ms", False),
    "presence.load_presence_refs": ("presence.load_presence_refs_ms", "ms", True),
    "tray_grid.slot_rect": ("tray_grid.slot_rect_us", "us", False),
    "imaging.crop": ("imaging.crop_us", "us", False),
    "imaging.histogram": ("imaging.histogram_us", "us", False),
    "stats.mean_intensity": ("stats.mean_intensity_us", "us", False),
    "placement.verify_placement": ("placement.verify_placement_us", "us", True),
    "placement.calibrate_placement": ("placement.calibrate_placement_ms", "ms", False),
    "placement.load_placement_model": ("placement.load_placement_model_us", "us", True),
    "cli.main": ("cli.main_ms", "ms", False),
}
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


class Gate:
    """Counts checked operations and mismatches; remembers the first few mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


def region_mean(tr, image, rect) -> float:
    """The paper's feature by its public reference functions: crop -> histogram -> mean."""
    sub = tr.call("imaging.crop", imaging.crop, image, rect)
    hist = tr.call("imaging.histogram", imaging.histogram, sub)
    return tr.call("stats.mean_intensity", stats.mean_intensity, hist)


class Presence:
    """Tray occupancy: per-slot references from a full and an empty tray."""

    name = "presence"

    def __init__(self, work: Path, layout, with_path: Path, without_path: Path, render_map: bool):
        self.work, self.layout, self.render_map = work, layout, render_map
        self.calib_paths = (with_path, without_path)
        self.store_path = work / "presence.store"
        self.layout_path = work / "presence-layout.cfg"
        lines = [f"{k} = {v}" for k, v in zip(tray_grid.LAYOUT_KEYS, layout.fields())]
        self.layout_path.write_text("\n".join(lines) + "\n", encoding="ascii")

    def calibrate(self, tr, images):
        return tr.call("presence.calibrate_presence", presence.calibrate_presence, *images, self.layout)

    def save(self, tr, model) -> str:
        return tr.call("presence.save_presence_refs", presence.save_presence_refs, model)

    def load(self, tr, text: str):
        return tr.call("presence.load_presence_refs", presence.load_presence_refs, text)

    def verdict(self, tr, image, model, ident: str) -> str:
        result = tr.call("presence.inspect_tray", presence.inspect_tray, image, self.layout, model)
        return f"PRESENCE {ident} {result.bitstring}"

    def _values(self, tr, image) -> list[float]:
        rects = [tr.call("tray_grid.slot_rect", tray_grid.slot_rect, self.layout, i) for i in range(self.layout.slot_count)]
        return [region_mean(tr, image, r) for r in rects]

    def oracle_model(self, tr, images):
        pairs = zip(*(self._values(tr, image) for image in images))
        return presence.PresenceReferenceSet(self.layout, tuple(presence.SlotReference(w, wo) for w, wo in pairs))

    def oracle(self, tr, image, model) -> tuple[str, int]:
        """Expected record template (one ``{}`` for the id) and CLI exit code."""
        bits = "".join(
            "1" if presence.classify_slot(v, ref.value_with, ref.value_without) else "0"
            for v, ref in zip(self._values(tr, image), model.slot_refs)
        )
        return "PRESENCE {} " + bits, 0

    @staticmethod
    def labels(record: str) -> list[bool]:
        return [c == "1" for c in record.rsplit(" ", 1)[-1]]

    def cli_argv(self, image_path: Path, ident: str, render_map: bool) -> list[str]:
        argv = ["inspect", "--image", str(image_path), "--layout", str(self.layout_path),
                "--refs", str(self.store_path), "--tray-id", ident]
        return argv + ["--map", str(self.map_path)] if render_map else argv

    @property
    def map_path(self) -> Path:
        return self.work / "map.ppm"

    def expected_map(self, image, template: str) -> bytes:
        rgb = np.full((image.height, image.width, 3), cli.BACKGROUND_COLOR, dtype=np.uint8)
        for i, bit in enumerate(template.rsplit(" ", 1)[1]):
            r = tray_grid.slot_rect(self.layout, i)
            rgb[r.y : r.y + r.h, r.x : r.x + r.w] = cli.OCCUPIED_COLOR if bit == "1" else cli.EMPTY_COLOR
        return f"P6\n{image.width} {image.height}\n255\n".encode("ascii") + rgb.tobytes()


class Placement:
    """Socket placement: a z-band around the ROI mean of correct placements."""

    name = "placement"
    render_map = False

    def __init__(self, work: Path, roi, calib_paths: list[Path]):
        self.work, self.roi, self.calib_paths = work, roi, calib_paths
        self.store_path = work / "placement.store"

    def calibrate(self, tr, images):
        return tr.call("placement.calibrate_placement", placement.calibrate_placement, images, self.roi,
                       min_n=len(images))

    def save(self, tr, model) -> str:
        return placement.save_placement_model(model)

    def load(self, tr, text: str):
        return tr.call("placement.load_placement_model", placement.load_placement_model, text)

    @staticmethod
    def _record(ident: str, verdict, model) -> str:
        if verdict.correct:
            return f"PLACEMENT {ident} OK"
        return (f"PLACEMENT {ident} NG value={verdict.value:.6f} "
                f"mean={model.mean_value:.6f} threshold={verdict.threshold:.6f}")

    def verdict(self, tr, image, model, ident: str) -> str:
        return self._record(ident, tr.call("placement.verify_placement", placement.verify_placement, image, model), model)

    def oracle_model(self, tr, images):
        values = [region_mean(tr, image, self.roi) for image in images]
        return placement.PlacementModel(self.roi, len(values), stats.sample_mean(values), stats.sample_std(values))

    def oracle(self, tr, image, model) -> tuple[str, int]:
        verdict = placement.verify_value(region_mean(tr, image, self.roi), model)
        return self._record("{}", verdict, model), 0 if verdict.correct else 1

    @staticmethod
    def labels(record: str) -> list[bool]:
        parts = record.split()
        return [parts[2] == "OK"] if len(parts) > 2 else []

    def cli_argv(self, image_path: Path, ident: str, render_map: bool) -> list[str]:
        return ["verify", "--image", str(image_path), "--model", str(self.store_path), "--id", ident]


class Scene:
    """A workload's generated inputs, its detector, and the other detector as a cross probe.

    Every traced run must report every per-layer metric, so each workload also
    runs the detector it does not serve once over its own images: placement on
    slot 0 of each tray, presence on each socket frame.
    """

    def __init__(self, work: Path, manifest: dict):
        params = manifest["scene"]
        self.pool_paths = [work / name for name in manifest["pool"]]
        self.pool_bytes = [p.read_bytes() for p in self.pool_paths]
        self.pool_images = [imaging.decode_pnm(data) for data in self.pool_bytes]
        layout = tray_grid.TrayLayout(*params["layout"])
        if params["kind"] == "tray":
            self.det = Presence(work, layout, work / "with.pgm", work / "without.pgm", params["map"])
            self.cross = Placement(work, tray_grid.slot_rect(layout, 0), self.pool_paths)
            self.truth = [[c == "1" for c in bits] for bits in manifest["truth"]]
        else:
            calib = [work / name for name in manifest["calib"]]
            self.det = Placement(work, imaging.Rect(*manifest["roi"]), calib)
            self.cross = Presence(work, layout, calib[0], work / "ng_ref.pgm", False)
            self.truth = [[ok] for ok in manifest["truth"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=child_env(), capture_output=True, text=True,
                          timeout=120, cwd=ROOT)


def prepare(tr, gate: Gate, det, store_text: str | None = None):
    """Calibrate (unless given the store text), check the store, and load the model."""
    if store_text is None:
        images = [tr.call("imaging.decode_pnm", imaging.decode_pnm, p.read_bytes()) for p in det.calib_paths]
        store_text = det.save(tr, det.calibrate(tr, images))
        det.store_path.write_text(store_text, encoding="ascii")
    model = det.load(tr, store_text)
    oracle_model = det.oracle_model(NULL, [imaging.decode_pnm(p.read_bytes()) for p in det.calib_paths])
    gate.check(model == oracle_model, f"{det.name} store disagrees with the histogram oracle")
    gate.check(det.save(NULL, det.load(NULL, store_text)) == store_text, f"{det.name} store round trip")
    return model, oracle_model


class Expected:
    """The oracle's record for each pool item, and the check of every verdict against it.

    A verdict passes when its record equals the oracle's and the oracle's labels
    equal the planted truth. Without a planted truth (the cross probe) only the
    oracle is checked.
    """

    def __init__(self, gate: Gate, det, tr, oracle_model, images, truth=None):
        self.gate, self.det, self.truth = gate, det, truth
        oracle = [det.oracle(tr, image, oracle_model) for image in images]
        self.templates = [template for template, _ in oracle]
        self.exit_codes = [rc for _, rc in oracle]
        self.passed = [0] * len(oracle)
        self.item_ok = [True] * len(oracle)
        if truth is not None:
            self.item_cm = [evaluation.tally(det.labels(t), want) for t, want in zip(self.templates, truth)]
            self.item_ok = [cm.fn == 0 and cm.fp == 0 for cm in self.item_cm]
            self.failed_cm = evaluation.ConfusionMatrix(0, 0, 0, 0)

    def check(self, i: int, ident: str, record: str | None, what: str) -> bool:
        if record == self.templates[i].format(ident) and self.item_ok[i]:
            self.gate.attempted += 1
            self.passed[i] += 1
            return True
        want = self.templates[i].format(ident)
        problem = f"want {want!r:.100}" if record != want else "the planted truth differs"
        self.gate.check(False, f"{what} {ident}: got {record!r:.100}, {problem}")
        labels = self.det.labels(record) if record else []
        if self.truth is not None and len(labels) == len(self.truth[i]):
            self.failed_cm += evaluation.tally(labels, self.truth[i])
        return False

    def confusion(self):
        """Planted-truth tally over every checked verdict."""
        cm = self.failed_cm
        for item, n in zip(self.item_cm, self.passed):
            cm += evaluation.ConfusionMatrix(item.tp * n, item.fn * n, item.fp * n, item.tn * n)
        return cm


class VerdictLoop:
    """Closed loop, one client: encoded bytes -> decode -> detector -> record.

    Verdict k runs under ``tracers[k % len(tracers)]`` and its latency goes to
    that tracer's list, so traced and untraced verdicts share one environment.
    Only decode -> record is timed. The client checks each record before it
    sends the next, so the loop's throughput includes that check. One untimed
    pass over the pool comes first, so that lazy set-up and caches are warm.
    """

    def __init__(self, tracers, det, model, scene: Scene, expected: Expected):
        self.tracers, self.det, self.model, self.expected = tracers, det, model, expected
        self.pool = scene.pool_bytes
        self.latencies = [array("d") for _ in tracers]
        self.k = 0
        self.elapsed = 0.0
        for i, data in enumerate(self.pool):
            expected.check(i, f"W{i}", det.verdict(NULL, imaging.decode_pnm(data), model, f"W{i}"), "warm-up")

    def run(self, budget: float, at_least: int = 1, limit: int | None = None) -> None:
        start = time.perf_counter()
        deadline = start + budget
        first = self.k
        while (self.k - first < at_least or time.perf_counter() < deadline) and self.k != limit:
            k = self.k
            i = k % len(self.pool)
            ident = f"V{k}"
            tr = self.tracers[k % len(self.tracers)]
            tr.trace_id = ident
            t0 = time.perf_counter()
            try:
                with tr.span("verdict"):
                    image = tr.call("imaging.decode_pnm", imaging.decode_pnm, self.pool[i])
                    record = self.det.verdict(tr, image, self.model, ident)
            except ValueError:
                record = None
            self.latencies[k % len(self.tracers)].append(time.perf_counter() - t0)
            self.expected.check(i, ident, record, "verdict")
            self.k += 1
        self.elapsed += time.perf_counter() - start


class CliLeg:
    """One ``python -m traysight.cli`` process per verdict, with wall and CPU seconds per call."""

    def __init__(self, scene: Scene, expected: Expected):
        self.scene, self.expected = scene, expected
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def run(self, budget: float) -> None:
        """Calls until ``budget`` seconds have passed, and at least one."""
        det, scene, expected = self.scene.det, self.scene, self.expected
        deadline = time.perf_counter() + budget
        while True:
            k = len(self.walls)
            i = k % len(scene.pool_paths)
            ident = f"C{k}"
            if det.render_map:
                det.map_path.unlink(missing_ok=True)
            argv = ["-m", "traysight.cli", *det.cli_argv(scene.pool_paths[i], ident, det.render_map)]
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            proc = run_child(argv)
            self.walls.append(time.perf_counter() - t0)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            self.cpus.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
            ok = proc.returncode == expected.exit_codes[i]
            if ok and det.render_map:
                ok = det.map_path.read_bytes() == det.expected_map(scene.pool_images[i], expected.templates[i])
            expected.check(i, ident, cli_record(proc.stdout, ok, proc.returncode),
                           f"cli (stderr {proc.stderr[-200:]!r})")
            if time.perf_counter() >= deadline:
                return


def cli_record(stdout: str, ok: bool, rc: int) -> str:
    """The one record line a CLI call printed, or a description of what went wrong."""
    if not ok:
        return f"exit code {rc} or map wrong; stdout {stdout!r}"
    return stdout[:-1] if stdout.endswith("\n") else f"unterminated {stdout!r}"


def cli_main_probe(tr, det, scene: Scene, expected: Expected, ident: str, render_map: bool, span: str | None):
    """``cli.main(argv)`` in process, its stdout checked like a CLI child's."""
    argv = det.cli_argv(scene.pool_paths[0], ident, render_map)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = tr.call(span, cli.main, argv) if span else cli.main(argv)
    expected.check(0, ident, cli_record(out.getvalue(), rc == expected.exit_codes[0], rc), "cli.main")


def cold_setup(work: Path, rep: int) -> tuple[float, bytes]:
    """One set-up in a fresh interpreter: its seconds and the store it wrote."""
    out = work / f"setup-{rep}.store"
    proc = run_child([str(BENCH / "setup_child.py"), str(work), str(out)])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr}")
    return float(proc.stdout), out.read_bytes()


def rounds(seconds: float, reps: int):
    """Yield each round's index and deadline. Interleaving every kind of
    measurement in rounds spread over the run lets each see the same share
    of whatever else the machine is doing."""
    start = time.perf_counter()
    for r in range(reps):
        yield r, start + (r + 1) * seconds / reps


def e2e_run(args, gate: Gate, scene: Scene, work: Path, reps: int, min_n: int):
    det = scene.det
    _, store = cold_setup(work, 0)  # also warms the bytecode cache
    det.store_path.write_bytes(store)
    model, oracle_model = prepare(NULL, gate, det, store.decode("ascii"))
    expected = Expected(gate, det, NULL, oracle_model, scene.pool_images, scene.truth)
    loop = VerdictLoop((NULL,), det, model, scene, expected)
    leg = CliLeg(scene, expected)
    setup = []
    for r, deadline in rounds(args.seconds, reps):
        seconds, again = cold_setup(work, r + 1)
        setup.append(seconds)
        gate.check(again == store, f"set-up rep {r + 1} wrote a different store")
        loop.run(args.seconds * 2 / 3 / reps)
        leg.run(deadline - time.perf_counter())
    loop.run(0, at_least=min_n - loop.k)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat_ms = [x * 1e3 for x in loop.latencies[0]]
    walls_ms = [x * 1e3 for x in leg.walls]
    rows = [
        ("verdict_ms_p50", statistics.median(lat_ms), "ms", quartiles(lat_ms), len(lat_ms)),
        ("verdict_ms_p95", statistics.quantiles(lat_ms, n=20)[18], "ms", None, len(lat_ms)),
        ("verdicts_per_s", len(lat_ms) / loop.elapsed, "1/s", None, len(lat_ms)),
        ("cli_ms_p50", statistics.median(walls_ms), "ms", quartiles(walls_ms), len(walls_ms)),
        ("setup_s", statistics.median(setup), "s", quartiles(setup), len(setup)),
        ("peak_rss_mb", peak_rss_mb, "MB", None, 1),
        ("failed_frac", gate.failed / gate.attempted, "1", None, gate.attempted),
    ]
    for name, value, unit, q, n in rows:
        spread = f"  q1 {q[0]:.4g}  q3 {q[2]:.4g}" if q else ""
        print(f"{name:16s} {value:12.6g} {unit:4s}{spread}  n={n}")
    cm = expected.confusion()
    m = evaluation.metrics(cm)
    print(f"planted truth: TP {cm.tp} FN {cm.fn} FP {cm.fp} TN {cm.tn}  accuracy "
          f"{evaluation.format_metric(m.accuracy)} precision {evaluation.format_metric(m.precision)} "
          f"recall {evaluation.format_metric(m.recall)}")
    return {name: {"value": value, "unit": unit} for name, value, unit, _, _ in rows if name != "failed_frac"}


def traced_run(args, gate: Gate, scene: Scene, work: Path, reps: int, min_n: int):
    tr = Tracer()
    det, cross = scene.det, scene.cross
    models, expected = {}, {}
    for d, truth in ((det, scene.truth), (cross, None)):
        tr.trace_id = "setup"
        models[d.name], oracle_model = prepare(tr, gate, d)
        tr.trace_id = "probe"
        expected[d.name] = Expected(gate, d, tr, oracle_model, scene.pool_images, truth)
    for i, image in enumerate(scene.pool_images):
        tr.trace_id = ident = f"X{i}"
        expected[cross.name].check(i, ident, cross.verdict(tr, image, models[cross.name], ident), "cross probe")
    main = expected[det.name]
    loop = VerdictLoop((NULL, tr), det, models[det.name], scene, main)
    leg = CliLeg(scene, main)
    samples: dict[str, list[float]] = {"cli.import": [], "cli.interpreter": [], "map": [], "nomap": []}
    import_probe = "import time; t = time.perf_counter(); import traysight.cli; print(repr(time.perf_counter() - t))"
    pres = det if isinstance(det, Presence) else cross
    for r, deadline in rounds(args.seconds, reps):
        samples["cli.import"].append(float(run_child(["-c", import_probe]).stdout))
        t0 = time.perf_counter()
        run_child(["-c", "pass"])
        samples["cli.interpreter"].append(time.perf_counter() - t0)
        tr.trace_id = f"M{r}"
        cli_main_probe(tr, det, scene, main, f"M{r}", det.render_map, "cli.main")
        for with_map in (True, False):
            t0 = time.perf_counter()
            cli_main_probe(NULL, pres, scene, expected[pres.name], f"P{r}", with_map, None)
            samples["map" if with_map else "nomap"].append(time.perf_counter() - t0)
        loop.run(args.seconds / 2 / reps, limit=2 * TRACED_MAX)
        leg.run(deadline - time.perf_counter())
    loop.run(0, at_least=min_n - loop.k)

    spans_path = work.parent / f"spans-{args.workload}.jsonl"
    tr.write(spans_path)
    print(f"spans: {len(tr.spans)} written to {spans_path.relative_to(ROOT)}")
    metrics = {}
    self_times, errors = tr.self_times(), tr.errors()
    for span, (name, unit, may_raise) in SPAN_METRICS.items():
        values = self_times.get(span, [])
        metrics[name] = {"value": statistics.median(values) * SCALE[unit] if values else 0.0, "unit": unit}
        metrics[f"{span}.calls"] = {"value": len(values), "unit": "count"}
        if may_raise:
            metrics[f"{span}.errors"] = {"value": errors.get(span, 0), "unit": "count"}
    for span in ("cli.import", "cli.interpreter"):
        metrics[f"{span}_ms"] = {"value": statistics.median(samples[span]) * 1e3, "unit": "ms"}
        metrics[f"{span}.calls"] = {"value": len(samples[span]), "unit": "count"}
    metrics["cli.map_ms"] = {
        "value": (statistics.median(samples["map"]) - statistics.median(samples["nomap"])) * 1e3, "unit": "ms"}
    metrics["cli.process_cpu_ms"] = {"value": statistics.median(leg.cpus) * 1e3, "unit": "ms"}
    metrics["cli.process_cpu.calls"] = {"value": len(leg.cpus), "unit": "count"}
    # Each traced verdict follows an untraced one; pairing them cancels drift.
    plain, traced = loop.latencies
    metrics["trace.overhead_us"] = {"value": statistics.median(t - u for u, t in zip(plain, traced)) * 1e6, "unit": "us"}
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:12.6g} {metric['unit']}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenes.SCENES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny scenes and few repetitions, for the self-test")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="flip one planted label, to show that the correctness gate fails the run")
    args = parser.parse_args()

    reps, min_n = (2, 5) if args.toy else (7, MIN_VERDICTS if args.trace == 0 else 20)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    load_start = os.getloadavg()[0]
    try:
        proc = run_child([str(BENCH / "scenes.py"), args.workload, str(args.seed), str(work)]
                         + (["--toy"] if args.toy else []))
        if proc.returncode != 0:
            raise RuntimeError(f"scene generation failed: {proc.stderr}")
        manifest = json.loads((work / "manifest.json").read_text(encoding="ascii"))
        print(f"workload {args.workload}  seed {args.seed}  held-out seed {HELD_OUT_SEED}  toy {args.toy}")
        print("scene " + json.dumps(manifest["scene"], sort_keys=True))
        print(f"python {platform.python_version()}  numpy {np.__version__}  nproc {len(os.sched_getaffinity(0))}  "
              f"loadavg1 start {load_start:.2f}")
        scene = Scene(work, manifest)
        if args.corrupt_expected:
            truth = scene.truth[0]
            truth[0] = not truth[0]
        gate = Gate()
        run = traced_run if args.trace else e2e_run
        metrics = run(args, gate, scene, work, reps, min_n)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"loadavg1 end {os.getloadavg()[0]:.2f}")
    print(f"failed {gate.failed} of {gate.attempted} checked operations")
    for note in gate.notes:
        print(f"  mismatch: {note}")
    correct = gate.failed == 0
    print(json.dumps({"correct": correct, "attempted": gate.attempted, "failed": gate.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
