"""Helpers that more than one test module uses."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from traysight.cli import main
from traysight.imaging import GrayImage, crop, histogram
from traysight.stats import mean_intensity
from traysight.tray_grid import slot_rect

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def constant_image(value, width=8, height=8):
    return GrayImage(np.full((height, width), value, dtype=np.uint8))


def paper_means(image, layout):
    """The paper's feature, slot by slot: crop -> histogram -> mean."""
    return [
        mean_intensity(histogram(crop(image, slot_rect(layout, i))))
        for i in range(layout.slot_count)
    ]


def run(*argv):
    """Call ``main`` in process; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def run_python(script, **env):
    """Run ``script`` in a fresh interpreter with no BLAS thread variable set
    except ``env``, and return the JSON value its last line prints."""
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    child_env.update(env, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def limit_memory():
    """Cap a child's address space at 1 GiB, the paper's rig: reading a device until
    memory runs out must never start. Pass as ``preexec_fn``."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def rejects(match, *calls, error=ValueError):
    """A test that each of ``calls`` raises ``error`` with a message matching ``match``,
    and shows no chained traceback ("During handling of the above exception ...").

    Assigned to a ``test_*`` name in a module or class body, each such line is one
    row of that owner's rejection table, and the name is the test's ID.
    """

    def test(*_):  # *_ takes the instance when the row sits in a class
        for call in calls:
            with pytest.raises(error, match=match) as info:
                call()
            assert info.value.__context__ is None or info.value.__suppress_context__

    return test
