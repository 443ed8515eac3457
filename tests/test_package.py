"""The package import: its BLAS thread cap, its lazily loaded names and its untouched GC;
its frozen value types; the source text each mutant and equivalent of ``tests/mutants.py``
replaces; and the one-point mutants ``tests/mutant_search.py`` enumerates."""

import collections
import dataclasses
import importlib
import os
import pkgutil
from pathlib import Path

import pytest

from helpers import SRC, run_python
from mutant_search import REMOVAL, enumerate_mutants
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

    def test_all_is_a_sorted_list(self):
        assert traysight.__all__ == sorted(traysight.__all__)

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
    # Exactly __all__: a name left in it after its removal fails here, and so does a
    # module that exports its imports. The package's own __all__ is
    # TestLazyNames::test_star_import_binds_every_name; the CLI module declares none.
    namespace = {}
    exec(f"from traysight.{module} import *", namespace)
    if module != "cli":
        assert set(namespace) - {"__builtins__"} == set(importlib.import_module(f"traysight.{module}").__all__)


VALUES = [
    traysight.GrayImage([[0]]),
    traysight.Rect(0, 0, 1, 1),
    traysight.TrayLayout(1, 1, 0, 0, 1, 1, 1, 1),
    traysight.SlotReference(1.0, 0.0),
    traysight.PresenceReferenceSet(traysight.TrayLayout(1, 1, 0, 0, 1, 1, 1, 1), [traysight.SlotReference(1.0, 0.0)]),
    traysight.OccupancyResult("1", ()),
    traysight.PlacementModel(traysight.Rect(0, 0, 1, 1), 2, 100.0, 1.0),
    traysight.PlacementVerdict(True, 100.0, 0.0, 1.96),
    traysight.ConfusionMatrix(1, 0, 0, 1),
    traysight.SceneSpec(traysight.TrayLayout(1, 1, 0, 0, 1, 1, 1, 1), (True,), 200.0, 50.0, 0.0, 90.0, 0),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_value_types_are_frozen(value):
    name = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, getattr(value, name))


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
    "class Pair:\n"
    "    low: int = 0\n"
    "    high = tuple(range(2))\n"
    "\n"
    "\n"
    "def clamp(a: 1 < 2, b=2) -> 3 + 4:\n"
    '    """Docstring: a - b."""\n'
    "    n: 5 * 6 = 7  # 8 + 9\n"
    "    if a < b or a == 0:\n"
    "        a += 1\n"
    "    if n is None:\n"
    "        raise ValueError(str(a).strip()) from None\n"
    "    return abs(a - b) * round(n, ndigits=2)\n"
)


def test_enumerated_mutants_splice_one_span_each():
    mutants, invalid = enumerate_mutants(ENUMERATED, "fixed.py")
    assert invalid == []
    # Docstrings, annotations, the comment, the import, the class and its annotated field
    # yield nothing; a literal operand is not negated.
    assert collections.Counter(m.operator for m in mutants) == {
        "relational": 3, "arithmetic": 3, "logical": 1, "abs-insert": 1, "abs-remove": 1,
        "negate-insert": 2, "const+1": 8, "const-1": 8, "delete": 6,
        "kw-remove": 1, "unwrap": 2, "method-remove": 1, "from-none-remove": 1, "operand-drop": 2,
        "toplevel-delete": 2,
    }
    data = ENUMERATED.encode()
    assert sorted(data[m.start : m.end] for m in mutants if m.operator == "relational") == [b"<", b"==", b"is"]
    removals = collections.defaultdict(list)
    for m in mutants:
        if m.operator in REMOVAL:
            text = m.text.encode()
            removals[m.operator].append((data[m.start : m.end], text[m.start : len(text) - (len(data) - m.end)]))
    assert removals == {
        "kw-remove": [(b", ndigits=2", b"")],
        "unwrap": [(b"tuple(range(2))", b"range(2)"), (b"str(a)", b"a")],
        "method-remove": [(b"str(a).strip()", b"str(a)")],
        "from-none-remove": [(b" from None", b"")],
        "operand-drop": [(b"a < b or ", b""), (b" or a == 0", b"")],
        "toplevel-delete": [(b"LIMIT = 7", b"pass"), (b"high = tuple(range(2))", b"pass")],
    }
    for m in mutants:
        compile(m.text, m.id, "exec")
        text = m.text.encode()
        assert text[: m.start] == data[: m.start], m.id
        assert text[len(text) - (len(data) - m.end):] == data[m.end:], m.id
        assert data.count(b"\n", 0, m.start) + 1 == m.line
    assert [m.id for m in enumerate_mutants(ENUMERATED, "fixed.py")[0]] == [m.id for m in mutants]
    assert len({m.id for m in mutants}) == len(mutants)
