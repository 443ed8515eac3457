"""Text formats shared by the calibration stores.

A store (the presence references, the placement model) is a ``<MAGIC> <version>``
header line, then one ``<key> <value>...`` record per line, ending in one
newline. Loading ignores trailing blank lines and accepts CRLF line endings.
Decimals are written by :func:`format_decimal`, so save→load is exact.
"""

from __future__ import annotations

__all__ = ["format_decimal", "format_store", "parse_store", "store_fields"]


def format_decimal(value: float) -> str:
    """Shortest exact decimal for ``value``, padded to at least six fractional digits.

    ``float(format_decimal(v)) == v`` holds for every finite v; stores rely on it
    for exact round trips.
    """
    text = repr(float(value))
    if "e" in text:
        return text
    head, _, frac = text.partition(".")
    return f"{head}.{frac.ljust(6, '0')}"


def format_store(magic: str, version: int, records: list[str]) -> str:
    """The ``<magic> <version>`` header line, then one record per line, then a final newline."""
    return "\n".join([f"{magic} {version}", *records]) + "\n"


def parse_store(text: str, magic: str, version: int, kind: str) -> list[str]:
    """The record lines after the header, trailing blank lines dropped; errors name the ``kind``."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError(f"empty {kind} store")
    header = lines[0].split()
    if len(header) != 2 or header[0] != magic:
        raise ValueError(f"not a {kind} store (got {lines[0]!r})")
    if header[1] != str(version):
        raise ValueError(f"unsupported {kind} store version {header[1]!r}")
    return lines[1:]


def store_fields(line: str, key: str, count: int) -> list[str]:
    """The ``count`` values of a ``<key> <value>...`` record; ValueError if key or count differ."""
    parts = line.split()
    if not parts or parts[0] != key:
        raise ValueError(f"expected '{key} ...' line, got {line!r}")
    if len(parts) != count + 1:
        raise ValueError(f"'{key}' line must carry {count} value(s), got {len(parts) - 1}")
    return parts[1:]
