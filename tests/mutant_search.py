"""Mutant search: run the tests on every one-point mutant of ``src/traysight/*.py``.

    python tests/mutant_search.py [--root DIR] [MODULE ...]

The script parses each module of DIR (default: this checkout), or each MODULE
(``presence.py``), with ``ast`` and enumerates one-point mutants of two families.
The replacement family is the sufficient operator set of Offutt, Lee, Rothermel,
Untch & Zapf (1996, ACM TOSEM), plus statement deletion inside functions:

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

The removal family deletes code, which shows what nothing needs (Deng, Offutt &
Li 2013, ICST):

- ``kw-remove``: one keyword argument of a call, with its comma;
- ``unwrap``: ``f(x)`` becomes ``x`` for a one-argument call of ``tuple``, ``list``,
  ``set``, ``dict``, ``sorted``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
  ``np.array``, ``np.asarray`` or ``np.ascontiguousarray``;
- ``method-remove``: ``x.m()`` becomes ``x`` for a method call without arguments;
- ``from-none-remove``: ``raise E from None`` becomes ``raise E``;
- ``operand-drop``: one operand of an ``and`` or ``or``, with its operator;
- ``toplevel-delete``: each statement outside a function becomes ``pass``, except
  imports, ``def``, ``class`` and annotated class fields.

Docstrings and annotations yield no mutant. Each mutant is spliced into the
module's own text at its node's offsets, so every other byte is unchanged; one
that does not compile is dropped and counted as invalid. A mutant whose text
equals that of an ``EQUIVALENT`` entry of ``mutants.py`` is not run. Every
other mutant runs on a temporary copy of DIR (``mutants.run``) with ``pytest -x``
over the mutated module's own test file (for ``cli.py``, the golden corpus and then
``test_cli.py``'s parser tests), then ``test_golden_cli.py`` and ``test_acceptance.py``,
then the rest, ``min(2, os.cpu_count())`` at a time. A mutant is killed when pytest fails, and
killed by timeout past four times one unmutated run. The script prints each
survivor and each timed-out mutant as ``module:line``, its operator and a unified
diff, then the counts of each family and their totals, and exits 1 if any mutant
survived. Neither pytest nor CI runs it: a full sweep takes about 50 minutes on
two CPUs, 35 of them the nine modules other than ``cli.py``.
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
# The golden corpus kills most cli.py mutants in about a second; test_cli.py takes over ten.
OWN_TESTS = {"__init__.py": "test_package.py", "_fmt.py": "test_stores.py", "cli.py": "test_golden_cli.py"}
FIRST_TESTS = ("test_golden_cli.py", "test_acceptance.py")
# The parser tests of test_cli.py kill most of cli.py's keyword removals in a few seconds, so they run
# right after the golden corpus, and the rest of test_cli.py after the acceptance tests.
PARSER_TESTS = ("TestOptionInventory", "test_help_shows_each_description_and_metavar",
                "test_no_command_is_a_usage_error")

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
UNWRAPPED = {"tuple", "list", "set", "dict", "sorted", "bool", "int", "float", "str", "bytes",
             "np.array", "np.asarray", "np.ascontiguousarray"}
REMOVAL = ("kw-remove", "unwrap", "method-remove", "from-none-remove", "operand-drop", "toplevel-delete")
KEPT_AT_TOP = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Pass)


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


def _class_fields(tree):
    """The annotated fields of every class body."""
    return {id(stmt) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for stmt in node.body if isinstance(stmt, ast.AnnAssign)}


def _dotted(node) -> str:
    return f"{_dotted(node.value)}.{node.attr}" if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def family(operator: str) -> str:
    return "removal" if operator in REMOVAL else "replacement"


def enumerate_mutants(source: str, module: str = "<source>") -> tuple[list, list]:
    """The one-point mutants of ``source`` in a fixed order, and the operators of those that did not compile."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    tree = ast.parse(source)
    skipped, functions, fields = _skipped(tree), _in_functions(tree), _class_fields(tree)
    sites = []  # (start byte, end byte, operator, replacement bytes)

    def offset(line, col):
        return starts[line - 1] + col

    def span(node):
        return offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset)

    def text(node):
        start, end = span(node)
        return data[start:end].decode()

    def held(node):
        """Whether the node's span holds the node (older f-string offsets may not)."""
        try:
            return ast.dump(ast.parse(f"({text(node)})", mode="eval").body) == ast.dump(node)
        except SyntaxError:
            return False

    def operator_between(left, right, pattern):
        """The span of the operator matching ``pattern`` between two operands, outside comments."""
        begin, end = span(left)[1], span(right)[0]
        gap = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), data[begin:end])
        found = [m for m in re.finditer(rb"(?<![\w<>=!*/])(?:" + pattern.encode() + rb")(?![\w<>=*/])", gap)]
        return (begin + found[0].start(), begin + found[0].end()) if len(found) == 1 else None

    def add(bounds, operator, replacement):
        if bounds is not None:
            sites.append((*bounds, operator, replacement.encode()))

    def outer(node, within):
        """The node's span widened over the parentheses around it, inside the span ``within``."""
        start, end = span(node)
        while True:
            left, right = data[:start].rstrip(), data[end:].lstrip()
            opened, closed = len(left) - 1, len(data) - len(right)
            if not (left.endswith(b"(") and right.startswith(b")") and within[0] <= opened and closed < within[1]):
                return start, end
            start, end = opened, closed + 1

    def drop(spans, i, operator):
        """Remove ``spans[i]`` with the separator after it, or before it if it is last."""
        start, end = spans[i]
        if i + 1 < len(spans):
            add((start, spans[i + 1][0]), operator, "")
        elif i:
            add((spans[i - 1][1], end), operator, "")
        else:
            add((start, end + len(re.match(rb"\s*,?", data[end:]).group())), operator, "")

    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                add(operator_between(left, right, COMPARE_TEXT[type(op)]), "relational", COMPARE_SWAPS[type(op)])
        elif isinstance(node, ast.BinOp):
            pattern = re.escape(BINOP_TEXT[type(node.op)])
            add(operator_between(node.left, node.right, pattern), "arithmetic", BINOP_SWAPS[type(node.op)])
            if isinstance(node.op, ast.Sub):
                add(span(node), "abs-insert", f"abs({text(node)})")
            if isinstance(node.op, ARITHMETIC) and not isinstance(node.right, ast.Constant):
                add(span(node.right), "negate-insert", f"-({text(node.right)})")
        elif isinstance(node, ast.AugAssign):
            begin, end = span(node.target)[1], span(node.value)[0]
            op = BINOP_TEXT[type(node.op)] + "="
            at = data.find(op.encode(), begin, end)
            add((at, at + len(op)) if at >= 0 else None, "arithmetic", BINOP_SWAPS[type(node.op)] + "=")
        elif isinstance(node, ast.BoolOp) and held(node):
            word = "and" if isinstance(node.op, ast.And) else "or"
            for left, right in zip(node.values, node.values[1:]):
                add(operator_between(left, right, word), "logical", "or" if word == "and" else "and")
            operands = [outer(value, span(node)) for value in node.values]
            for i in range(len(operands)):
                drop(operands, i, "operand-drop")
        elif isinstance(node, ast.Call) and held(node):
            name = _dotted(node.func)
            if name == "abs" and len(node.args) == 1 and not node.keywords:
                add(span(node), "abs-remove", text(node.args[0]))
            if name in UNWRAPPED and len(node.args) == 1 and not node.keywords \
                    and not isinstance(node.args[0], ast.Starred):
                add(span(node), "unwrap", text(node.args[0]))
            if isinstance(node.func, ast.Attribute) and not node.args and not node.keywords:
                add(span(node), "method-remove", text(node.func.value))
            arguments = sorted(node.args + node.keywords, key=span)
            spans = [span(argument) for argument in arguments]
            for i, argument in enumerate(arguments):
                if isinstance(argument, ast.keyword) and argument.arg is not None:
                    drop(spans, i, "kw-remove")
        elif isinstance(node, ast.Constant) and type(node.value) is int and held(node):
            add(span(node), "const+1", str(node.value + 1))
            add(span(node), "const-1", str(node.value - 1))
        elif isinstance(node, ast.Raise) and isinstance(node.cause, ast.Constant) and node.cause.value is None:
            add((span(node.exc)[1], span(node)[1]), "from-none-remove", "")
        if isinstance(node, ast.stmt) and not isinstance(node, ast.Pass):
            if id(node) in functions:
                add(span(node), "delete", "pass")
            elif not isinstance(node, KEPT_AT_TOP) and id(node) not in fields:
                add(span(node), "toplevel-delete", "pass")

    mutants, invalid = [], []
    for start, end, operator, replacement in sorted(sites, key=lambda site: site[:3]):
        mutated = (data[:start] + replacement + data[end:]).decode()
        try:
            compile(mutated, module, "exec")
        except SyntaxError:
            invalid.append(operator)
            continue
        line = data.count(b"\n", 0, start) + 1
        col = start - starts[line - 1]
        end_line = data.count(b"\n", 0, end) + 1
        ident = f"{module}:{line}:{col}-{end_line}:{end - starts[end_line - 1]}:{operator}"
        mutants.append(Mutant(ident, module, line, operator, start, end, mutated))
    return mutants, invalid


def top_level_tests(path: Path) -> list:
    """The node IDs of a test file's top-level test classes, functions and assigned tests, in file order."""
    names = []
    for node in ast.parse(path.read_text()).body:
        targets = [node] if isinstance(node, (ast.ClassDef, ast.FunctionDef)) else getattr(node, "targets", [])
        names += [getattr(target, "name", getattr(target, "id", "")) for target in targets]
    return [f"tests/{path.name}::{name}" for name in names if name.startswith(("Test", "test_"))]


def ordered_tests(root: Path, module: str) -> list:
    """The tests under ``root/tests``: the mutated module's own file first, then the golden and acceptance tests.

    For ``cli.py``, test_cli.py's parser tests come right after the golden corpus, and its other
    tests after the acceptance tests, each as a node ID: pytest runs a file's nodes in the order of
    its arguments only when no argument names the whole file.
    """
    own = OWN_TESTS.get(module, f"test_{module}")
    names = sorted(path.name for path in (root / "tests").glob("test_*.py"))
    first = [name for name in (own, *FIRST_TESTS) if name in names]
    files = [f"tests/{name}" for name in dict.fromkeys(first + names)]
    if module != "cli.py":
        return files
    cli_tests = top_level_tests(root / "tests" / "test_cli.py")
    parser = [f"tests/test_cli.py::{name}" for name in PARSER_TESTS]
    ordered = [files[0], *parser]
    for path in files[1:]:
        ordered += [node for node in cli_tests if node not in parser] if path == "tests/test_cli.py" else [path]
    return ordered


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
    names = ("generated", "invalid", "killed", "timed out", "listed equivalent", "survived")
    counts = {group: dict.fromkeys(names, 0) for group in ("replacement", "removal")}
    originals, jobs = {}, []
    for module in args.modules or available:
        originals[module] = (package / module).read_text()
        mutants, invalid = enumerate_mutants(originals[module], module)
        for operator in [m.operator for m in mutants] + invalid:
            counts[family(operator)]["generated"] += 1
        for operator in invalid:
            counts[family(operator)]["invalid"] += 1
        for mutant in mutants:
            if is_equivalent(mutant, originals[module]):
                counts[family(mutant.operator)]["listed equivalent"] += 1
            else:
                jobs.append(mutant)
    timeout = timed_bound(root, ordered_tests(root, "stats.py"), [TEXT_CHECK])
    print(f"{len(jobs)} mutants to run, {timeout:.0f} s bound each", flush=True)

    def outcome(mutant):
        nodes = ordered_tests(root, mutant.module)
        return mutant, run(root, nodes, timeout, mutant.module, mutant.text, [TEXT_CHECK])

    with ThreadPoolExecutor(min(2, os.cpu_count() or 1)) as pool:
        for done, (mutant, result) in enumerate(pool.map(outcome, jobs), 1):
            name = {"killed by timeout": "timed out", "survived": "survived"}.get(result, "killed")
            counts[family(mutant.operator)][name] += 1
            if name != "killed":
                diff = difflib.unified_diff(originals[mutant.module].splitlines(True), mutant.text.splitlines(True),
                                            f"a/{mutant.module}", f"b/{mutant.module}", n=1)
                print(f"{name.upper()} {mutant.module}:{mutant.line} {mutant.operator}\n{''.join(diff)}", flush=True)
            if done % 50 == 0:
                print(f"{done} of {len(jobs)} run", flush=True)
    total = {name: sum(group[name] for group in counts.values()) for name in names}
    for group, tally in [*counts.items(), ("total", total)]:
        print(f"{group}: " + ", ".join(f"{value} {name}" for name, value in tally.items()))
    return 1 if total["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
