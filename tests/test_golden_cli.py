"""Golden CLI corpus: everything the subcommands write, pinned by one sha256 per case.

Each case writes its input files, runs one or more subcommands in process
through ``helpers.run`` and hashes, step by step, the argv, the exit code, stdout
and stderr (the case's directory masked as ``<tmp>``), then every file the
steps wrote: the presence and placement stores and the ``--map`` images.
``golden_cli.json`` holds the digests.

Input bytes come from sha256 in counter mode, not from numpy's random
generators, whose streams may change between numpy versions; numpy only
arranges the bytes. ``synth`` output is numpy's random stream, so only its
errors are here.

The JSON is data this check compares against. Regenerate it only for an
intended behaviour change, and list each changed case in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_cli.py

rewrites the file and prints the name of every case whose digest changed.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from helpers import run

GOLDEN = Path(__file__).with_name("golden_cli.json")
LAYOUT_KEYS = ("rows", "cols", "origin_x", "origin_y", "pitch_x", "pitch_y", "slot_w", "slot_h")


def sha_bytes(label: str, n: int) -> bytes:
    """``n`` bytes of sha256 in counter mode over ``label``."""
    blocks = (hashlib.sha256(f"{label}#{i}".encode()).digest() for i in range(-(-n // 32)))
    return b"".join(blocks)[:n]


def draw(label: str, shape, low: int, high: int) -> np.ndarray:
    """int64 values in [low, high], one per big-endian pair of sha256 bytes."""
    count = int(np.prod(shape))
    words = np.frombuffer(sha_bytes(label, 2 * count), ">u2").astype(np.int64)
    return (low + words % (high - low + 1)).reshape(shape)


def pnm(pixels: np.ndarray) -> bytes:
    """P5 bytes of a (h, w) array, P6 of a (h, w, 3) one, values clipped to [0, 255]."""
    magic = "P5" if pixels.ndim == 2 else "P6"
    height, width = pixels.shape[:2]
    payload = np.clip(pixels, 0, 255).astype(np.uint8).tobytes()
    return f"{magic}\n{width} {height}\n255\n".encode() + payload


def layout_text(layout) -> bytes:
    return "".join(f"{key} = {value}\n" for key, value in zip(LAYOUT_KEYS, layout)).encode()


def slot_boxes(layout):
    """(y, x) slices of every slot, in slot-index order."""
    rows, cols, ox, oy, px, py, sw, sh = layout
    return [
        (slice(oy + r * py, oy + r * py + sh), slice(ox + c * px, ox + c * px + sw))
        for r in range(rows) for c in range(cols)
    ]


def canvas(layout, overhang=(0, 0)) -> tuple[int, int]:
    """(height, width) of the smallest image holding the layout, plus ``overhang`` (x, y)."""
    rows, cols, ox, oy, px, py, sw, sh = layout
    return oy + (rows - 1) * py + sh + overhang[1], ox + (cols - 1) * px + sw + overhang[0]


def tray(label, layout, means, *, background=110, amp=12, overhang=(0, 0), color=False) -> bytes:
    """A tray image: each slot at its value in ``means``, the rest at ``background``,
    every pixel plus noise in [-amp, amp]; P6 with ``color``, each channel noised again."""
    shape = canvas(layout, overhang)
    pixels = background + draw(label, shape, -amp, amp)
    for (ys, xs), mean in zip(slot_boxes(layout), means):
        pixels[ys, xs] += mean - background
    if color:
        pixels = pixels[..., None] + draw(f"{label}/rgb", shape + (3,), -amp, amp)
    return pnm(pixels)


def constant_tray(layout, values, background=110) -> bytes:
    """A noiseless tray: each slot at its value in ``values``."""
    pixels = np.full(canvas(layout), background)
    for (ys, xs), value in zip(slot_boxes(layout), values):
        pixels[ys, xs] = value
    return pnm(pixels)


CASES = {}


def case(name, files, *steps):
    """Register a case: input files (path under the case directory -> bytes) and argvs.
    An argv token starting with ``in/`` or ``out/`` names a path in the case directory."""
    assert name not in CASES, name
    CASES[name] = (files, steps)


CALIBRATE = ["calibrate-presence", "--with", "in/with.pnm", "--without", "in/without.pnm",
             "--layout", "in/layout.cfg", "--out", "out/refs.txt"]


def calibrate_and_inspect(name, files, inspect=()):
    """calibrate-presence on in/with and in/without, then inspect in/tray with a --map."""
    case(name, files, CALIBRATE, ["inspect", "--image", "in/tray.pnm", "--refs", "out/refs.txt",
                                  "--tray-id", name, "--map", "out/map.ppm", *inspect])


def presence(name, layout, bits, *, mu=(170, 70), shift=0, inspect=(), **image):
    """A noisy full tray, empty tray and a tray planted with ``bits``, shifted by ``shift`` levels."""
    mu_with, mu_without = mu
    n = len(bits)
    calibrate_and_inspect(name, {
        "in/layout.cfg": layout_text(layout),
        "in/with.pnm": tray(f"{name}/with", layout, [mu_with] * n, **image),
        "in/without.pnm": tray(f"{name}/without", layout, [mu_without] * n, **image),
        "in/tray.pnm": tray(f"{name}/tray", layout,
                            [(mu_with if b else mu_without) + shift for b in bits], **image),
    }, inspect)


def bits_for(name, layout) -> list[int]:
    return draw(f"{name}/bits", (layout[0] * layout[1],), 0, 1).tolist()


# Random grids: slots 1-12 px, gaps 0-3 px, up to 5x6 slots, either class brighter,
# noise up to +-24 levels, P5 and P6; every other tray shifted by up to 3/4 of
# the class gap, which can flip or flag slots.
for i in range(12):
    name = f"grid-{i:02d}"
    v = draw(name, (14,), 0, 65535).tolist()
    sw, sh = 1 + v[0] % 12, 1 + v[1] % 12
    layout = (1 + v[2] % 5, 1 + v[3] % 6, v[4] % 4, v[5] % 4, sw + v[6] % 4, sh + v[7] % 4, sw, sh)
    amp = v[8] % 25
    gap = 2 * amp + 1 + v[9] % 60  # no slot's references can coincide
    low = v[10] % (256 - gap)
    mu = (low + gap, low) if v[11] % 2 else (low, low + gap)
    inspect = ["--layout", "in/layout.cfg"] if i % 4 == 1 else []
    if i % 3:
        inspect += ["--outlier-k", ("0.25", "0.5", "1", "2")[i % 4]]
    shift = i % 2 * (v[12] % (3 * gap // 2 + 1) - 3 * gap // 4)
    presence(name, layout, bits_for(name, layout), mu=mu, amp=amp, shift=shift,
             overhang=(v[13] % 3, v[13] // 3 % 3), color=i % 5 == 4, inspect=inspect)

# Accumulator limits: 255 * 257 = 65535 is the largest uint16 sum, so slot_h or
# slot_w of 257 fills a uint16 accumulator and 258 would wrap one. Every pixel of
# an occupied slot clips to 255, so its sums are the largest possible.
for name, layout in [
    ("acc-roi-h256", (1, 1, 0, 0, 1, 256, 1, 256)),
    ("acc-roi-h257", (1, 1, 0, 0, 1, 257, 1, 257)),
    ("acc-roi-h258", (1, 1, 1, 0, 1, 258, 1, 258)),
    ("acc-roi-w258", (1, 1, 0, 2, 258, 1, 258, 1)),
    ("acc-grid-h257", (2, 2, 0, 0, 3, 257, 2, 257)),
    ("acc-grid-h258", (2, 2, 1, 1, 3, 259, 2, 258)),
    ("acc-grid-h300", (2, 1, 0, 0, 2, 300, 1, 300)),
    ("acc-grid-w300", (2, 2, 0, 0, 301, 2, 300, 1)),
    ("acc-grid-257x257", (2, 2, 0, 0, 258, 257, 257, 257)),
]:
    presence(name, layout, bits_for(name, layout), mu=(263, 0), amp=8)

for name, layout, image in [
    ("p6-4x5", (4, 5, 5, 1, 54, 45, 44, 36), {"color": True}),
    ("slot-1x1", (3, 4, 0, 0, 1, 1, 1, 1), {"amp": 30}),
]:
    presence(name, layout, bits_for(name, layout), **image)
presence("roi-1x1", (1, 1, 2, 3, 1, 1, 1, 1), [1], amp=0, overhang=(2, 1))

# Ties: a reading exactly midway between its references is empty (strict <).
TIE = (2, 2, 1, 1, 5, 5, 4, 4)
for name, (w, o), values in [
    ("tie-constant", (100, 50), (75, 76, 74, 75)),
    ("tie-constant-dark-with", (50, 100), (75, 74, 76, 75)),
]:
    calibrate_and_inspect(name, {
        "in/layout.cfg": layout_text(TIE),
        "in/with.pnm": constant_tray(TIE, [w] * 4),
        "in/without.pnm": constant_tray(TIE, [o] * 4),
        "in/tray.pnm": constant_tray(TIE, values),
    })


def dyadic_tie():
    # 8x8 slots make every reading a multiple of 1/64, so the midpoint is exact.
    # without = with - 2k and tray = with - k per pixel puts a tray slot on the tie;
    # one pixel one level up or down moves it 1/64 off.
    layout = (4, 5, 2, 1, 10, 9, 8, 8)
    shape = canvas(layout)
    with_ = 150 + draw("tie-dyadic/with", shape, -20, 20)
    k = draw("tie-dyadic/k", shape, 30, 50)
    nudge = draw("tie-dyadic/nudge", (20,), -1, 1).tolist()
    tray_ = with_ - k
    for (ys, xs), step in zip(slot_boxes(layout), nudge):
        tray_[ys.start, xs.start] += step
    calibrate_and_inspect("tie-dyadic", {
        "in/layout.cfg": layout_text(layout),
        "in/with.pnm": pnm(with_),
        "in/without.pnm": pnm(with_ - 2 * k),
        "in/tray.pnm": pnm(tray_),
    })


dyadic_tie()

# The outlier flag needs the nearer reference strictly further than k * |w - o|.
# References 100 and 96 are 4 apart, so each power-of-two k puts readings exactly
# on the boundary (not flagged) and one level past it (flagged), on both sides.
BOUNDARY = (1, 6, 0, 0, 3, 3, 2, 2)


def outlier_case(name, k, values):
    calibrate_and_inspect(name, {
        "in/layout.cfg": layout_text(BOUNDARY),
        "in/with.pnm": constant_tray(BOUNDARY, [100] * 6),
        "in/without.pnm": constant_tray(BOUNDARY, [96] * 6),
        "in/tray.pnm": constant_tray(BOUNDARY, values),
    }, [] if k is None else [f"--outlier-k={k}"])  # "=" lets argparse take "-inf" as a value


for k in ("0.25", "1", "4", "8"):
    edge = int(4 * float(k))
    outlier_case(f"outlier-k-{k}", k, (100 + edge, 101 + edge, 96 - edge, 95 - edge, 98, 100))
outlier_case("outlier-k-default", None, (116, 117, 80, 79, 98, 100))
for k in ("0.01", "1e-300", "1e300", "1e308", "0", "-1", "nan", "inf", "-inf"):
    outlier_case(f"outlier-k-{k}", k, (101, 102, 95, 94, 98, 255))

# Inputs that must fail with exit 2 and one error line. A repeated flag's last value wins.
GOOD = (2, 3, 1, 2, 7, 6, 5, 4)
GOOD_FILES = {
    "in/layout.cfg": layout_text(GOOD),
    "in/with.pnm": tray("good/with", GOOD, [170] * 6),
    "in/without.pnm": tray("good/without", GOOD, [70] * 6),
    "in/tray.pnm": tray("good/tray", GOOD, [170, 70, 70, 170, 170, 70]),
}
TRAY = GOOD_FILES["in/tray.pnm"]
for name, files, inspect in [
    ("image-truncated-payload", {"in/tray.pnm": TRAY[:-10]}, []),
    ("image-truncated-header", {"in/tray.pnm": TRAY[:6]}, []),
    ("image-too-small", {"in/tray.pnm": tray("small", GOOD[:2] + (0, 0) + GOOD[4:], [170] * 6)}, []),
    ("image-too-small-with", {"in/with.pnm": pnm(np.full((5, 40), 170))}, []),
    ("image-maxval-65535", {"in/tray.pnm": TRAY.replace(b"\n255\n", b"\n65535\n", 1)}, []),
    ("image-ascii-pgm", {"in/tray.pnm": b"P2\n1 1\n255\n7\n"}, []),
    ("image-missing", {}, ["--image", "in/none.pgm"]),
    ("calibrate-identical", {"in/without.pnm": GOOD_FILES["in/with.pnm"]}, []),
    ("layout-unknown-key", {"in/layout.cfg": layout_text(GOOD) + b"shine = 3\n"}, []),
    ("inspect-layout-mismatch", {"in/other.cfg": layout_text((3,) + GOOD[1:])}, ["--layout", "in/other.cfg"]),
    ("inspect-refs-corrupt", {"in/refs.txt": b"TRAYSIGHT-PRESENCE 1\nlayout 1 2\n"}, ["--refs", "in/refs.txt"]),
    ("inspect-empty-id", {}, ["--tray-id", ""]),
    ("inspect-map-unwritable", {}, ["--map", "out/missing/map.ppm"]),
]:
    calibrate_and_inspect(name, {**GOOD_FILES, **files}, inspect)
# Without --layout, inspect takes the refs' layout: the same records and map as with it.
case("inspect-layout-given-and-stored", GOOD_FILES, CALIBRATE, *(
    ["inspect", "--image", "in/tray.pnm", *given, "--refs", "out/refs.txt", "--tray-id", "T",
     "--map", f"out/{name}.ppm"]
    for name, given in [("given", ["--layout", "in/layout.cfg"]), ("stored", [])]))


# Socket placement: each frame is a 1x1 tray whose slot is the ROI.
def placement(name, roi, samples, verify, *, amp=4, overhang=(5, 3), color=False, calibrate=(),
              listed=False, roi_arg=None, replace=()):
    """calibrate-placement on frames at the ``samples`` ROI means, then verify one frame per
    ``verify`` mean. ``roi_arg`` overrides the --roi text, ``replace`` maps input paths to bytes."""
    x, y, w, h = roi
    layout = (1, 1, x, y, w, h, w, h)
    suffix = "ppm" if color else "pgm"

    def frame(label, mean):
        return tray(label, layout, [mean], background=60, amp=amp, overhang=overhang, color=color)

    files = {f"in/samples/s{i:02d}.{suffix}": frame(f"{name}/s{i}", m) for i, m in enumerate(samples)}
    sources = sorted(files) if listed else ["in/samples"]
    files |= {f"in/v{i}.{suffix}": frame(f"{name}/v{i}", m) for i, m in enumerate(verify)}
    files.update(replace)
    case(
        name, files,
        ["calibrate-placement", "--samples", *sources, "--roi", roi_arg or f"{x},{y},{w},{h}",
         "--out", "out/model.txt", *calibrate],
        *(["verify", "--image", f"in/v{i}.{suffix}", "--model", "out/model.txt", "--id", f"{name}-{i}"]
          for i in range(len(verify))),
    )


def jitter(label, n, center, spread):
    return (center + draw(label, (n,), -spread, spread)).tolist()


ROI4 = (1, 1, 4, 4)
placement("socket-40x40", (12, 9, 40, 40), jitter("socket-40x40", 30, 140, 3), (140, 143, 150, 125))
placement("socket-roi-1x1-origin", (0, 0, 1, 1), jitter("socket-1x1a", 30, 118, 2), (118, 121, 100))
placement("socket-roi-1x1-inside", (5, 3, 1, 1), jitter("socket-1x1b", 30, 118, 2), (117, 130), amp=0)
placement("socket-roi-257x1", (1, 0, 257, 1), jitter("socket-257", 30, 250, 3), (251, 240), amp=8)
placement("socket-roi-1x300", (0, 2, 1, 300), jitter("socket-300", 30, 250, 3), (249, 230), amp=8)
placement("socket-undersampled", (2, 2, 8, 8), jitter("socket-under", 5, 118, 3), (118, 130))
placement("socket-min-n-z", (2, 2, 8, 8), jitter("socket-min-n", 5, 118, 3), (118, 123, 130),
          calibrate=["--min-n", "3", "--z", "3"])
placement("socket-p6", (3, 4, 6, 5), jitter("socket-p6", 30, 140, 3), (140, 160), color=True)
placement("socket-file-list", ROI4, jitter("socket-list", 6, 90, 5), (92, 60), listed=True)
placement("socket-one-sample", ROI4, [118], (118,))
placement("socket-roi-three-parts", ROI4, [118] * 3, (), roi_arg="1,1,4")
placement("socket-roi-not-integers", ROI4, [118] * 3, (), roi_arg="1,1,4,x")
placement("socket-roi-outside", ROI4, [118] * 3, (), roi_arg="1,1,40,4")
placement("socket-roi-zero-width", ROI4, [118] * 3, (), roi_arg="1,1,0,4")
placement("socket-verify-too-small", (4, 4, 8, 8), [118] * 3, (118,),
          replace={"in/v0.pgm": pnm(np.full((6, 6), 118))})
placement("socket-verify-truncated", ROI4, [118, 119, 120], (118,),
          replace={"in/v0.pgm": tray("cut", (1, 1, *ROI4, 4, 4), [118])[:-1]})
placement("socket-sample-truncated", ROI4, [118, 119, 120], (),
          replace={"in/samples/s01.pgm": b"P5\n9 8\n255\n\x00"})
case("socket-verify-id-space", {"in/socket.pgm": pnm(np.full((4, 4), 118)),
                                "in/model.txt": b"TRAYSIGHT-PLACEMENT 1\nroi 0 0 4 4\nn 30\nmean 118.0\n"
                                                b"std 2.0\nz 1.96\neps_floor 0.5\n"},
     ["verify", "--image", "in/socket.pgm", "--model", "in/model.txt", "--id", "A B"],
     ["verify", "--image", "in/socket.pgm", "--model", "in/model.txt", "--id", "A"])
# A band that covers [0, 255] could never reject: calibrate writes no such model, verify loads none.
placement("socket-band-covers-range", ROI4, [117, 118, 119], (), amp=0, calibrate=["--z", "1e308"])
case("socket-verify-band-covers-range",
     {"in/socket.pgm": pnm(np.zeros((4, 4))),
      "in/model.txt": b"TRAYSIGHT-PLACEMENT 1\nroi 0 0 4 4\nn 30\nmean 118.0\nstd 2.0\nz 1e308\neps_floor 0.5\n"},
     ["verify", "--image", "in/socket.pgm", "--model", "in/model.txt", "--id", "S"])


def zero_variance():
    # Constant samples give std 0, so the band is the 0.5 floor, inclusive:
    # a 1x2 ROI reading 118.5 passes, 119 fails. A directory's samples are
    # its .pgm/.ppm files in any letter case; other files are skipped.
    frames = {f"in/samples/s{i:02d}.PGM": pnm(np.full((3, 4), 118)) for i in range(30)}
    frames["in/samples/notes.txt"] = b"not an image\n"
    values = {"in/v0.pgm": (118, 119), "in/v1.pgm": (119, 119), "in/v2.pgm": (117, 118)}
    for path, pair in values.items():
        pixels = np.full((3, 4), 118)
        pixels[1, 1:3] = pair
        frames[path] = pnm(pixels)
    case("socket-zero-variance", frames,
         ["calibrate-placement", "--samples", "in/samples", "--roi", "1,1,2,1", "--out", "out/model.txt"],
         *(["verify", "--image", path, "--model", "out/model.txt", "--id", path[3:5]] for path in values))


zero_variance()
case("socket-empty-directory", {"in/samples/notes.txt": b"x\n"},
     ["calibrate-placement", "--samples", "in/samples", "--roi", "0,0,1,1", "--out", "out/model.txt"])
# A sample listed twice, by name, through its directory or under another spelling, is an error.
for name, sources in [
    ("socket-sample-twice", ["in/samples/s00.pgm", "in/samples/s00.pgm"]),
    ("socket-directory-and-its-sample", ["in/samples", "in/samples/s01.pgm"]),
    ("socket-sample-twice-spelt-apart", ["in/samples/s00.pgm", "in/samples/../samples/s00.pgm"]),
]:
    case(name, {f"in/samples/s{i:02d}.pgm": pnm(np.full((4, 4), 117 + i)) for i in range(3)},
         ["calibrate-placement", "--samples", *sources, "--roi", "0,0,4,4", "--out", "out/model.txt"])

# evaluate: label files in their own order; undefined metrics; malformed files.
ids = [f"m{i}" for i in range(40)]
truth = draw("evaluate/truth", (40,), 0, 1).tolist()
pred = draw("evaluate/pred", (40,), 0, 1).tolist()


def labels(pairs) -> bytes:
    return "".join(f"{ident} {bit}\n" for ident, bit in pairs).encode()


def evaluate(name, pred_bytes, truth_bytes):
    case(name, {"in/pred.txt": pred_bytes, "in/truth.txt": truth_bytes},
         ["evaluate", "--pred", "in/pred.txt", "--truth", "in/truth.txt"])


evaluate("evaluate-random", labels(zip(ids[::-1], pred[::-1])), labels(zip(ids, truth)))
evaluate("evaluate-no-positives", labels((i, 0) for i in ids), labels(zip(ids, truth)))
evaluate("evaluate-mismatched-ids", labels(zip(ids[1:], pred)), labels(zip(ids, truth)))
evaluate("evaluate-duplicate-id", labels(zip(ids, truth)) + b"m3 1\n", labels(zip(ids, truth)))
evaluate("evaluate-bad-label", labels(zip(ids, truth)).replace(b"m7 1", b"m7 2").replace(b"m7 0", b"m7 2"),
         labels(zip(ids, truth)))
evaluate("evaluate-empty", b"", b"\n")

# synth: the scene checks only; a valid scene's image is numpy's random stream.
SCENE = {"rows": 1, "cols": 2, "origin_x": 0, "origin_y": 0, "pitch_x": 4, "pitch_y": 4,
         "slot_w": 3, "slot_h": 3, "occupancy": "10", "mu_with": 120, "mu_without": 40,
         "sigma": 2, "background": 70, "seed": 7}
for name, override in [
    ("synth-mu-with-above-255", {"mu_with": "255.5"}),
    ("synth-background-negative", {"background": "-0.5"}),
    ("synth-mu-without-nan", {"mu_without": "nan"}),
    ("synth-sigma-negative", {"sigma": "-1"}),
    ("synth-sigma-nan", {"sigma": "nan"}),
    ("synth-sigma-inf", {"sigma": "inf"}),
    ("synth-seed-2-pow-64", {"seed": str(2**64)}),
    ("synth-seed-negative", {"seed": "-1"}),
    ("synth-occupancy-length", {"occupancy": "101"}),
    ("synth-not-separable", {"mu_without": "120"}),
]:
    text = "".join(f"{key} = {value}\n" for key, value in {**SCENE, **override}.items())
    case(name, {"in/scene.cfg": text.encode()},
         ["synth", "--scene", "in/scene.cfg", "--out-dir", "out/synth", "--require-separable"])


def run_case(name: str, root: Path) -> tuple[str, str]:
    """Run one case in the empty directory ``root``; return its digest and a readable transcript."""
    files, steps = CASES[name]
    for path, data in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_bytes(data)
    (root / "out").mkdir()
    digest = hashlib.sha256()
    transcript = []

    def feed(data: bytes) -> None:
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)

    for argv in steps:
        resolved = [str(root / arg) if arg.startswith(("in/", "out/")) else arg for arg in argv]
        code, out, err = run(*resolved)
        streams = [s.replace(str(root), "<tmp>") for s in (out, err)]
        for field in (" ".join(argv), str(code), *streams):
            feed(field.encode())
        transcript.append(f"$ {' '.join(argv)}\n-> {code}\nstdout:\n{streams[0]}stderr:\n{streams[1]}")
    for path in sorted((root / "out").rglob("*")):
        if path.is_file():
            feed(path.relative_to(root).as_posix().encode())
            feed(path.read_bytes())
            transcript.append(f"wrote {path.relative_to(root).as_posix()} ({path.stat().st_size} bytes)")
    return digest.hexdigest(), "\n".join(transcript)


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("name", sorted(set(CASES) | set(load_golden())))
def test_case_matches_its_golden_digest(name, tmp_path):
    assert name in CASES, f"{name} is in {GOLDEN.name} but no longer a case"
    digest, transcript = run_case(name, tmp_path)
    assert digest == load_golden().get(name), f"{name} changed:\n{transcript}"


if __name__ == "__main__":
    old = load_golden()
    new = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as root:
            new[name] = run_case(name, Path(root))[0]
    for name in sorted(set(old) | set(new)):
        if old.get(name) != new.get(name):
            print(name, "removed" if name not in new else "added" if name not in old else "changed")
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
