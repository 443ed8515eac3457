"""Mutant search: run the tests on every one-point mutant of ``src/traysight/*.py``.

    python tests/mutant_search.py [--root DIR] [MODULE ...]

The script parses each module of DIR (default: this checkout), or each MODULE
(``presence.py``), with ``ast`` and enumerates one-point mutants from the
sufficient operator set of Offutt, Lee, Rothermel, Untch & Zapf (1996, ACM
TOSEM):

- ``relational``: ``<``<->``<=``, ``>``<->``>=``, ``==``<->``!=``, ``in``<->``not in``,
  ``is``<->``is not``;
- ``arithmetic``: ``+``<->``-``, ``*``<->``/``, ``//``->``/``, ``%``->``//``, ``**``->``*``,
  ``<<``<->``>>``, ``&``<->``|``, ``^``->``|``, ``@``->``*``, in expressions and in
  augmented assignments;
- ``logical``: ``and``<->``or``;
- ``abs-insert`` around each subtraction and ``abs-remove`` of each ``abs(x)``;
- ``negate-insert``: ``-(x)`` for the right operand of each arithmetic expression,
  unless it is a literal;
- ``const+1`` and ``const-1`` for each integer literal;
- ``delete``: each statement inside a function becomes ``pass``.

Docstrings and annotations yield no mutant. Each mutant is spliced into the
module's own text at its node's offsets, so every other byte is unchanged; one
that does not compile is dropped and counted as invalid. A mutant whose text
equals that of an ``EQUIVALENT`` entry of ``mutants.py`` is not run. Every
other mutant runs on a temporary copy of DIR (``mutants.run``) with ``pytest -x``
over the mutated module's own test file, then ``test_golden_cli.py`` and
``test_acceptance.py``, then the rest, ``min(2, os.cpu_count())`` at a time. A
mutant is killed when pytest fails, and killed by timeout past four times one
unmutated run. The script prints each survivor as ``module:line``, its operator
and a unified diff, then the counts, and exits 1 if any mutant survived. Neither
pytest nor CI runs it: a full sweep takes one to two hours on two CPUs.
"""

import argparse
import ast
import difflib
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from mutants import EQUIVALENT, ROOT, run, timed_bound  # noqa: E402

# The copy's src/ is mutated, so the text check of the checked lists would fail for a reason
# other than behaviour.
TEXT_CHECK = "tests/test_package.py::test_each_mutants_old_text_occurs_once_in_its_module"
OWN_TESTS = {"__init__.py": "test_package.py", "_fmt.py": "test_stores.py"}
FIRST_TESTS = ("test_golden_cli.py", "test_acceptance.py")

COMPARE_SWAPS = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "==",
                 ast.In: "not in", ast.NotIn: "in", ast.Is: "is not", ast.IsNot: "is"}
COMPARE_TEXT = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
                ast.In: "in", ast.NotIn: r"not\s+in", ast.Is: "is", ast.IsNot: r"is\s+not"}
BINOP_TEXT = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%",
              ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&", ast.BitOr: "|",
              ast.BitXor: "^", ast.MatMult: "@"}
BINOP_SWAPS = {ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*", ast.FloorDiv: "/", ast.Mod: "//",
               ast.Pow: "*", ast.LShift: ">>", ast.RShift: "<<", ast.BitAnd: "|", ast.BitOr: "&",
               ast.BitXor: "|", ast.MatMult: "*"}
ARITHMETIC = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod)


class Mutant(NamedTuple):
    id: str
    module: str
    line: int
    operator: str
    start: int  # the byte span of the module's text that the replacement takes
    end: int
    text: str  # the whole mutated module


def _skipped(tree):
    """The nodes whose subtrees yield no mutant: docstrings and annotations."""
    skipped = []
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            skipped.append(body[0])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skipped.append(node.returns)
        elif isinstance(node, ast.arg):
            skipped.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            skipped.append(node.annotation)
    return {id(sub) for top in skipped if top is not None for sub in ast.walk(top)}


def _in_functions(tree):
    """Every statement inside a function body, at any depth."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside |= {id(sub) for stmt in node.body for sub in ast.walk(stmt) if isinstance(sub, ast.stmt)}
    return inside


def enumerate_mutants(source: str, module: str = "<source>") -> tuple[list, int]:
    """The one-point mutants of ``source`` in a fixed order, and how many did not compile."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    tree = ast.parse(source)
    skipped, functions = _skipped(tree), _in_functions(tree)
    sites = []  # (start byte, end byte, operator, replacement bytes)

    def offset(line, col):
        return starts[line - 1] + col

    def span(node):
        return offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset)

    def operator_between(left, right, pattern):
        """The span of the operator matching ``pattern`` between two operands, outside comments."""
        begin, end = span(left)[1], span(right)[0]
        gap = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), data[begin:end])
        found = [m for m in re.finditer(rb"(?<![\w<>=!*/])(?:" + pattern.encode() + rb")(?![\w<>=*/])", gap)]
        return (begin + found[0].start(), begin + found[0].end()) if len(found) == 1 else None

    def add(bounds, operator, replacement):
        if bounds is not None:
            sites.append((*bounds, operator, replacement.encode()))

    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                add(operator_between(left, right, COMPARE_TEXT[type(op)]), "relational", COMPARE_SWAPS[type(op)])
        elif isinstance(node, ast.BinOp):
            text = re.escape(BINOP_TEXT[type(node.op)])
            add(operator_between(node.left, node.right, text), "arithmetic", BINOP_SWAPS[type(node.op)])
            if isinstance(node.op, ast.Sub):
                start, end = span(node)
                add((start, end), "abs-insert", f"abs({data[start:end].decode()})")
            if isinstance(node.op, ARITHMETIC) and not isinstance(node.right, ast.Constant):
                start, end = span(node.right)
                add((start, end), "negate-insert", f"-({data[start:end].decode()})")
        elif isinstance(node, ast.AugAssign):
            begin, end = span(node.target)[1], span(node.value)[0]
            op = BINOP_TEXT[type(node.op)] + "="
            at = data.find(op.encode(), begin, end)
            add((at, at + len(op)) if at >= 0 else None, "arithmetic", BINOP_SWAPS[type(node.op)] + "=")
        elif isinstance(node, ast.BoolOp):
            word = "and" if isinstance(node.op, ast.And) else "or"
            for left, right in zip(node.values, node.values[1:]):
                add(operator_between(left, right, word), "logical", "or" if word == "and" else "and")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "abs" \
                and len(node.args) == 1 and not node.keywords:
            start, end = span(node.args[0])
            add(span(node), "abs-remove", data[start:end].decode())
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            start, end = span(node)
            try:
                held = ast.literal_eval(data[start:end].decode())
            except (ValueError, SyntaxError):
                held = None
            if type(held) is not int or held != node.value:
                continue  # a position that does not hold the literal (older f-string offsets)
            add((start, end), "const+1", str(node.value + 1))
            add((start, end), "const-1", str(node.value - 1))
        if isinstance(node, ast.stmt) and id(node) in functions and not isinstance(node, ast.Pass):
            add(span(node), "delete", "pass")

    mutants, invalid = [], 0
    for start, end, operator, replacement in sorted(sites, key=lambda site: site[:3]):
        text = (data[:start] + replacement + data[end:]).decode()
        try:
            compile(text, module, "exec")
        except SyntaxError:
            invalid += 1
            continue
        line = data.count(b"\n", 0, start) + 1
        col = start - starts[line - 1]
        end_line = data.count(b"\n", 0, end) + 1
        ident = f"{module}:{line}:{col}-{end_line}:{end - starts[end_line - 1]}:{operator}"
        mutants.append(Mutant(ident, module, line, operator, start, end, text))
    return mutants, invalid


def ordered_tests(root: Path, module: str) -> list:
    """The test files under ``root/tests``, the mutated module's own first, then the golden and acceptance tests."""
    own = OWN_TESTS.get(module, f"test_{module}")
    names = sorted(path.name for path in (root / "tests").glob("test_*.py"))
    first = [name for name in (own, *FIRST_TESTS) if name in names]
    return [f"tests/{name}" for name in dict.fromkeys(first + names)]


def is_equivalent(mutant: Mutant, original: str) -> bool:
    return any(module == mutant.module and original.count(old) == 1 and original.replace(old, new) == mutant.text
               for module, old, new, _ in EQUIVALENT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Enumerate and run one-point mutants of src/traysight.")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ and tests/ are used")
    parser.add_argument("modules", nargs="*", help="modules under src/traysight to mutate (default: all)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    package = root / "src" / "traysight"
    available = sorted(path.name for path in package.glob("*.py"))
    unknown = set(args.modules) - set(available)
    if unknown:
        parser.error(f"unknown module(s): {', '.join(sorted(unknown))}")
    counts = dict.fromkeys(("generated", "invalid", "killed", "timed out", "listed equivalent", "survived"), 0)
    originals, jobs = {}, []
    for module in args.modules or available:
        originals[module] = (package / module).read_text()
        mutants, invalid = enumerate_mutants(originals[module], module)
        counts["generated"] += len(mutants) + invalid
        counts["invalid"] += invalid
        for mutant in mutants:
            if is_equivalent(mutant, originals[module]):
                counts["listed equivalent"] += 1
            else:
                jobs.append(mutant)
    timeout = timed_bound(root, ordered_tests(root, "stats.py"), [TEXT_CHECK])
    print(f"{len(jobs)} mutants to run, {timeout:.0f} s bound each", flush=True)

    def outcome(mutant):
        nodes = ordered_tests(root, mutant.module)
        return mutant, run(root, nodes, timeout, mutant.module, mutant.text, [TEXT_CHECK])

    with ThreadPoolExecutor(min(2, os.cpu_count() or 1)) as pool:
        for done, (mutant, result) in enumerate(pool.map(outcome, jobs), 1):
            if result == "killed by timeout":
                counts["timed out"] += 1
            elif result != "survived":
                counts["killed"] += 1
            else:
                counts["survived"] += 1
                diff = difflib.unified_diff(originals[mutant.module].splitlines(True), mutant.text.splitlines(True),
                                            f"a/{mutant.module}", f"b/{mutant.module}", n=1)
                print(f"SURVIVED {mutant.module}:{mutant.line} {mutant.operator}\n{''.join(diff)}", flush=True)
            if done % 50 == 0:
                print(f"{done} of {len(jobs)} run", flush=True)
    print(", ".join(f"{value} {name}" for name, value in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
