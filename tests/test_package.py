"""The package import: its BLAS thread cap, its lazily loaded names and its untouched GC;
and the source text each mutant of ``tests/mutants.py`` replaces."""

import importlib
import os
import pkgutil
from pathlib import Path

import pytest

from helpers import SRC, run_python
from mutants import MUTANTS
import traysight

LINUX_TASKS = Path("/proc/self/task")


needs_proc = pytest.mark.skipif(not LINUX_TASKS.is_dir(), reason="no /proc/self/task")
TASKS = "len(os.listdir('/proc/self/task'))"


class TestBlasThreadCap:
    def test_environment_unchanged_for_the_process_and_its_children(self):
        result = run_python(
            "import json, os, subprocess, sys\n"
            "before = dict(os.environ)\n"
            "import traysight\n"
            "child = subprocess.run([sys.executable, '-c', 'import json, os; print(json.dumps(dict(os.environ)))'],\n"
            "                       capture_output=True, text=True).stdout\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('traysight'))\n"
            "print(json.dumps([before == dict(os.environ), json.loads(child) == before, loaded]))\n"
        )
        # The child inherits the C-level environment, so a leaked putenv shows there too.
        assert result == [True, True, ["traysight"]]

    @needs_proc
    def test_numpy_loads_with_one_thread(self):
        assert run_python(f"import json, os\nimport traysight\nprint(json.dumps({TASKS}))") == 1

    @needs_proc
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs at least 2 CPUs")
    def test_callers_thread_count_is_kept(self):
        result = run_python(
            f"import json, os\nimport traysight.imaging\n"
            f"print(json.dumps([{TASKS}, os.environ['OPENBLAS_NUM_THREADS']]))",
            OPENBLAS_NUM_THREADS="2",
        )
        assert result == [2, "2"]

    @needs_proc
    def test_numpy_imported_first_is_left_alone(self):
        before, after, leaked = run_python(
            f"import json, os\nimport numpy\nbefore = {TASKS}\nimport traysight.cli\n"
            f"print(json.dumps([before, {TASKS}, 'OPENBLAS_NUM_THREADS' in os.environ]))"
        )
        assert after == before
        assert not leaked


def test_importing_the_package_and_the_cli_freezes_nothing():
    assert run_python(
        "import gc, json\nimport traysight\nfrozen = [gc.get_freeze_count()]\n"
        "import traysight.cli\nprint(json.dumps(frozen + [gc.get_freeze_count()]))"
    ) == [0, 0]


class TestLazyNames:
    @pytest.mark.parametrize("name", traysight.__all__)
    def test_each_name_is_its_modules_object(self, name):
        value = getattr(traysight, name)
        assert value.__module__.startswith("traysight.")
        assert getattr(importlib.import_module(value.__module__), name) is value

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from traysight import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(traysight.__all__)
        assert all(namespace[name] is getattr(traysight, name) for name in traysight.__all__)

    def test_a_name_is_bound_after_its_first_read(self):
        assert traysight.GrayImage is traysight.imaging.GrayImage
        assert "GrayImage" in vars(traysight)

    def test_dir_lists_every_name(self):
        assert set(traysight.__all__) <= set(dir(traysight))

    def test_unknown_name_raises_attribute_error(self):
        for removed in ("ci_halfwidth", "generate_socket_series"):
            with pytest.raises(AttributeError, match=f"no attribute '{removed}'"):
                getattr(traysight, removed)
        assert not hasattr(traysight, "no_such_name")


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(traysight.__path__)))
def test_module_star_import_binds_its_all(module):
    # A name left in a module's __all__ after its removal fails here; the package's
    # own __all__ is TestLazyNames::test_star_import_binds_every_name.
    exec(f"from traysight.{module} import *", {})


def test_each_mutants_old_text_occurs_once_in_its_module():
    for name, module, old, _, _ in MUTANTS:
        assert (SRC / "traysight" / module).read_text().count(old) == 1, name
