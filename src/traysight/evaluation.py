"""Actual-vs-predicted tallying and accuracy/precision/recall.

Positive means module-present (occupancy task) or placement-correct
(socket task). Metrics with a vanishing denominator are reported as None,
never silently coerced to 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "ConfusionMatrix",
    "Metrics",
    "tally",
    "metrics",
    "format_metric",
    "parse_labels",
    "format_labels",
    "join_labels",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    """TP/FN/FP/TN tallies; addable component-wise for parallel merging."""

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        for name, count in (("tp", self.tp), ("fn", self.fn), ("fp", self.fp), ("tn", self.tn)):
            if count < 0:
                raise ValueError(f"{name} must be non-negative, got {count}")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if not isinstance(other, ConfusionMatrix):
            return NotImplemented
        return ConfusionMatrix(
            self.tp + other.tp, self.fn + other.fn, self.fp + other.fp, self.tn + other.tn
        )


class Metrics(NamedTuple):
    accuracy: float
    precision: float | None
    recall: float | None


def tally(predicted: Sequence[bool], actual: Sequence[bool]) -> ConfusionMatrix:
    """Count TP/FN/FP/TN over paired predicted/actual labels."""
    if len(predicted) != len(actual):
        raise ValueError(f"length mismatch: {len(predicted)} predictions vs {len(actual)} actuals")
    if len(predicted) == 0:
        raise ValueError("cannot tally empty label sequences")
    tp = fn = fp = tn = 0
    for p, a in zip(predicted, actual):
        if a:
            if p:
                tp += 1
            else:
                fn += 1
        else:
            if p:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Accuracy, precision, recall; undefined components come back as None."""
    if cm.total == 0:
        raise ValueError("confusion matrix is empty")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else None
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else None
    return Metrics(accuracy, precision, recall)


def format_metric(value: float | None) -> str:
    """Display form: four decimals, or 'undefined' for a vanished denominator."""
    return "undefined" if value is None else f"{value:.4f}"


def parse_labels(text: str) -> dict[str, bool]:
    """Parse a ground-truth/predictions file: one '<id> <0|1>' record per line."""
    labels: dict[str, bool] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<id> <0|1>', got {raw!r}")
        ident, bit = parts
        if bit not in ("0", "1"):
            raise ValueError(f"line {lineno}: label must be 0 or 1, got {bit!r}")
        if ident in labels:
            raise ValueError(f"line {lineno}: duplicate id {ident!r}")
        labels[ident] = bit == "1"
    return labels


def format_labels(labels: Mapping[str, bool] | Iterable[tuple[str, bool]]) -> str:
    """Inverse of parse_labels (modulo blank lines)."""
    items = labels.items() if isinstance(labels, Mapping) else labels
    return "".join(f"{ident} {int(bool(bit))}\n" for ident, bit in items)


def join_labels(
    predicted: Mapping[str, bool], actual: Mapping[str, bool]
) -> tuple[list[bool], list[bool]]:
    """Align two label maps on id (actual's order); unmatched ids are an error."""
    missing = sorted(set(actual) - set(predicted))
    extra = sorted(set(predicted) - set(actual))
    if missing or extra:
        problems = []
        if missing:
            problems.append(f"ids only in actual: {', '.join(missing[:5])}")
        if extra:
            problems.append(f"ids only in predicted: {', '.join(extra[:5])}")
        raise ValueError("label files do not match: " + "; ".join(problems))
    ids = list(actual)
    return [predicted[i] for i in ids], [actual[i] for i in ids]
