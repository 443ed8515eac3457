"""The package import: its BLAS thread cap, its lazily loaded names and its untouched GC;
the source text each mutant and equivalent of ``tests/mutants.py`` replaces; and the
one-point mutants ``tests/mutant_search.py`` enumerates."""

import collections
import importlib
import os
import pkgutil
from pathlib import Path

import pytest

from helpers import SRC, run_python
from mutant_search import enumerate_mutants
from mutants import EQUIVALENT, MUTANTS
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
        assert run_python(f"import json, os\nimport traysight.imaging\nprint(json.dumps({TASKS}))") == 1

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
        # In a new process, so that no earlier read has bound a name yet.
        listed = run_python("import json, traysight\nprint(json.dumps(dir(traysight)))")
        assert set(traysight.__all__) | {"__version__"} <= set(listed)

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
    listed = [(name, module, old) for name, module, old, _, _ in MUTANTS]
    for name, module, old in listed + [(reason, module, old) for module, old, _, reason in EQUIVALENT]:
        assert (SRC / "traysight" / module).read_text().count(old) == 1, name


ENUMERATED = (
    '"""Docstring: 1 < 2 - 3."""\n'
    "from __future__ import annotations\n"
    "LIMIT = 7\n"
    "\n"
    "\n"
    "def clamp(a: 1 < 2, b=2) -> 3 + 4:\n"
    '    """Docstring: a - b."""\n'
    "    n: 5 * 6 = 7  # 8 + 9\n"
    "    if a < b or a == 0:\n"
    "        a += 1\n"
    "    return abs(a - b) * n\n"
)


def test_enumerated_mutants_splice_one_span_each():
    mutants, invalid = enumerate_mutants(ENUMERATED, "fixed.py")
    assert invalid == 0
    # Docstrings, annotations and the comment yield nothing; a literal operand is not negated.
    assert collections.Counter(m.operator for m in mutants) == {
        "relational": 2, "arithmetic": 3, "logical": 1, "abs-insert": 1, "abs-remove": 1,
        "negate-insert": 2, "const+1": 5, "const-1": 5, "delete": 4,
    }
    data = ENUMERATED.encode()
    assert sorted(data[m.start : m.end] for m in mutants if m.operator == "relational") == [b"<", b"=="]
    for m in mutants:
        compile(m.text, m.id, "exec")
        text = m.text.encode()
        assert text[: m.start] == data[: m.start], m.id
        assert text[len(text) - (len(data) - m.end):] == data[m.end:], m.id
        assert data.count(b"\n", 0, m.start) + 1 == m.line
    assert [m.id for m in enumerate_mutants(ENUMERATED, "fixed.py")[0]] == [m.id for m in mutants]
    assert len({m.id for m in mutants}) == len(mutants)
