"""Scoring against gold labels, grounding checks, timing aggregation, reports.

Binary metrics use a configurable positive class (default YES, with
{NO, UNKNOWN} as the negative side); accuracy is reported both as
tri-class exact match (the default) and under the binary projection.
The counterfactual rate is an automated substring-grounding proxy for a
manual review of wrong answers, and is labeled as such in reports.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

from .corpus import (
    AdmissionNote,
    Catalog,
    CriterionLabel,
    GoldSet,
    ParsedAnswer,
    Verdict,
    canonical_text,
)

QUESTION_LABELS = ("YES", "NO", "UNKNOWN")
CRITERION_LABELS = ("MET", "NOT_MET")


class Grounding(str, Enum):
    GROUNDED = "GROUNDED"
    UNGROUNDED = "UNGROUNDED"
    NO_EVIDENCE = "NO_EVIDENCE"


# The label string of each member, looked up in a dict instead of read from
# the member's ``value`` property, which costs ten times as much.  A str
# equal to a member's value finds the same entry.
LABEL_OF = {member: member.value
            for labels in (Verdict, CriterionLabel, Grounding) for member in labels}


@dataclass
class ConfusionCounts:
    """Gold x predicted counts over a fixed label set."""

    labels: tuple[str, ...]
    counts: dict[str, dict[str, int]]

    @classmethod
    def tally(cls, labels: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "ConfusionCounts":
        labels = tuple(labels)
        counts = {gold: {pred: 0 for pred in labels} for gold in labels}
        for (gold, pred), count in Counter(pairs).items():
            counts[gold][pred] += count
        return cls(labels, counts)

    @property
    def total(self) -> int:
        return sum(sum(row.values()) for row in self.counts.values())

    @property
    def diagonal(self) -> int:
        return sum(self.counts[label][label] for label in self.labels)

    def to_dict(self) -> dict:
        return {gold: dict(row) for gold, row in self.counts.items()}


@dataclass(frozen=True)
class CounterfactualReport:
    """Automated grounding proxy: assertive wrong answers with no support."""

    rate: float               # counterfactuals / all scored items
    rate_among_errors: float  # counterfactuals / wrong answers
    count: int
    error_count: int
    total: int

    def to_dict(self) -> dict:
        return {
            "method": "automated grounding proxy",
            "rate": self.rate,
            "rate_among_errors": self.rate_among_errors,
            "count": self.count,
            "error_count": self.error_count,
            "total": self.total,
        }


@dataclass(frozen=True)
class TimingStats:
    """Per-unit elapsed-time summary of one answer stream, in seconds."""

    count: int
    mean: float
    p50: float
    p90: float
    max: float

    def to_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean, "p50": self.p50,
                "p90": self.p90, "max": self.max}


@dataclass
class MetricReport:
    """Scores of one answer stream against gold, with per-group breakdowns."""

    precision: float
    recall: float
    f1: float
    accuracy: float  # tri-class exact match; the default reported accuracy
    accuracy_binary: float
    counts: ConfusionCounts
    answered_count: int
    unanswered_count: int
    positive_class: str
    breakdowns: dict[str, "MetricReport"] = field(default_factory=dict)
    counterfactual: CounterfactualReport | None = None

    def to_dict(self) -> dict:
        record = {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "accuracy": self.accuracy,
            "accuracy_triclass": self.accuracy,
            "accuracy_binary": self.accuracy_binary,
            "answered_count": self.answered_count,
            "unanswered_count": self.unanswered_count,
            "positive_class": self.positive_class,
            "confusion": self.counts.to_dict(),
        }
        if self.breakdowns:
            record["breakdowns"] = {
                group: sub.to_dict() for group, sub in self.breakdowns.items()
            }
        if self.counterfactual is not None:
            record["counterfactual"] = self.counterfactual.to_dict()
        return record


def _binary_scores(
    counts: ConfusionCounts, positive: str
) -> tuple[float, float, float, float]:
    """Precision, recall, F1 and accuracy with ``positive`` against the rest."""
    rows = counts.counts
    tp = rows[positive][positive]
    fp = sum(row[positive] for row in rows.values()) - tp
    fn = sum(rows[positive].values()) - tp
    total = counts.total
    tn = total - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    accuracy = (tp + tn) / total if total else 0.0
    return precision, recall, f1, accuracy


def _build_report(
    pairs: list[tuple[str, str]],
    labels: tuple[str, ...],
    positive: str,
    unanswered: int,
) -> MetricReport:
    counts = ConfusionCounts.tally(labels, pairs)
    precision, recall, f1, accuracy_binary = _binary_scores(counts, positive)
    accuracy = counts.diagonal / len(pairs) if pairs else 0.0
    return MetricReport(
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        accuracy_binary=accuracy_binary,
        counts=counts,
        answered_count=len(pairs),
        unanswered_count=unanswered,
        positive_class=positive,
    )


def _verdict_of(prediction) -> str:
    if isinstance(prediction, ParsedAnswer):
        prediction = prediction.value
    if isinstance(prediction, Verdict):
        return LABEL_OF[prediction]
    return str(prediction)


def score_questions(
    predictions: Mapping[tuple[str, str], object],
    gold: GoldSet,
    catalog: Catalog,
    *,
    positive_class: Verdict = Verdict.YES,
) -> MetricReport:
    """Score question-level predictions; break down by (category, task type).

    Gold keys without a prediction are counted as unanswered and excluded
    from the metrics; a prediction without a gold key is an error.
    """
    pairs: list[tuple[str, str]] = []
    grouped: dict[str, list[tuple[str, str]]] = {}  # "category/task type" -> pairs
    group_of: dict[str, list[tuple[str, str]]] = {}  # question id -> its group's pairs
    for key in sorted(predictions):
        note_id, question_id = key
        gold_label = gold.question_labels.get(key)
        if gold_label is None:
            raise KeyError(f"prediction ({note_id}, {question_id}) has no gold label")
        group = group_of.get(question_id)
        if group is None:
            question = catalog.questions.get(question_id)
            if question is None:
                raise KeyError(f"question {question_id!r} not in catalog")
            group = group_of[question_id] = grouped.setdefault(
                f"{question.category.value}/{question.task_type.value}", [])
        pair = (LABEL_OF[gold_label], _verdict_of(predictions[key]))
        pairs.append(pair)
        group.append(pair)
    unanswered = len(gold.question_labels) - len(pairs)
    report = _build_report(pairs, QUESTION_LABELS, positive_class.value, unanswered)
    report.breakdowns = {
        group: _build_report(group_pairs, QUESTION_LABELS, positive_class.value, 0)
        for group, group_pairs in sorted(grouped.items())
    }
    return report


def score_criteria(
    verdicts: Mapping[tuple[str, str], object],
    gold: GoldSet,
) -> MetricReport:
    """Score criterion-level verdicts with MET as the positive class.

    A verdict is a CriterionVerdict (or any object with ``met``), a bool,
    or a CriterionLabel.
    """
    met_label, not_met_label = CRITERION_LABELS
    pairs: list[tuple[str, str]] = []
    for key in sorted(verdicts):
        note_id, criterion_id = key
        gold_label = gold.criterion_labels.get(key)
        if gold_label is None:
            raise KeyError(f"verdict ({note_id}, {criterion_id}) has no gold label")
        value = verdicts[key]
        if isinstance(value, bool):
            met = value
        elif isinstance(value, CriterionLabel):
            met = value is CriterionLabel.MET
        else:
            met = value.met
        pairs.append((LABEL_OF[gold_label], met_label if met else not_met_label))
    unanswered = len(gold.criterion_labels) - len(pairs)
    return _build_report(pairs, CRITERION_LABELS, CriterionLabel.MET.value, unanswered)


# -- grounding ----------------------------------------------------------------

_NON_WORD_RE = re.compile(r"[^\w\s]", re.UNICODE)
_WS_RE = re.compile(r"\s+")


def _normalize(text: str) -> str:
    return _WS_RE.sub(" ", _NON_WORD_RE.sub(" ", text.casefold())).strip()


def normalize_notes(notes: Iterable[AdmissionNote]) -> dict[str, str]:
    """Each note's canonical text, normalized for grounding, by note id.

    Normalizing a note costs far more than checking one quote, so callers
    that check many answers normalize each note once and pass its text to
    grounding_check.
    """
    return {note.note_id: _normalize(canonical_text(note)) for note in notes}


def grounding_check(
    answer: ParsedAnswer, note: AdmissionNote, normalized_note: str | None = None
) -> Grounding:
    """GROUNDED iff every evidence quote occurs in the note after normalization.

    ``normalized_note`` is the note's text from normalize_notes, computed
    here when not given.
    """
    if not answer.evidence:
        return Grounding.NO_EVIDENCE
    if normalized_note is None:
        normalized_note = _normalize(canonical_text(note))
    for quote in answer.evidence:
        if _normalize(quote) not in normalized_note:
            return Grounding.UNGROUNDED
    return Grounding.GROUNDED


def counterfactual_rate(
    predictions: Mapping[tuple[str, str], ParsedAnswer],
    gold: GoldSet,
    notes: Mapping[str, AdmissionNote] | Iterable[AdmissionNote],
    *,
    note_texts: Mapping[str, str] | None = None,
) -> CounterfactualReport:
    """Fraction of answers that assert YES/NO wrongly without grounded evidence.

    A wrong answer whose evidence does occur in the note is an inference
    error, not a fabrication, and never counts here.  ``note_texts`` are the
    notes' normalize_notes texts, computed here when not given.
    """
    if not isinstance(notes, Mapping):
        notes = {note.note_id: note for note in notes}
    if note_texts is None:
        note_texts = normalize_notes(notes.values())
    count = 0
    errors = 0
    for key in sorted(predictions):
        note_id, question_id = key
        if key not in gold.question_labels:
            raise KeyError(f"prediction ({note_id}, {question_id}) has no gold label")
        note = notes.get(note_id)
        if note is None:
            raise KeyError(f"note {note_id!r} not in corpus")
        answer = predictions[key]
        wrong = answer.value is not gold.question_labels[key]
        if wrong:
            errors += 1
            if answer.value in (Verdict.YES, Verdict.NO):
                if grounding_check(answer, note, note_texts[note_id]) is Grounding.UNGROUNDED:
                    count += 1
    total = len(predictions)
    return CounterfactualReport(
        rate=count / total if total else 0.0,
        rate_among_errors=count / errors if errors else 0.0,
        count=count,
        error_count=errors,
        total=total,
    )


# -- timing -------------------------------------------------------------------

def _nearest_rank(sorted_values: list[float], quantile: float) -> float:
    rank = max(1, math.ceil(quantile * len(sorted_values)))
    return sorted_values[rank - 1]


def timing_stats(records: Iterable[tuple[str, float]]) -> dict[str, TimingStats]:
    """Per-label timing summary: exact mean, nearest-rank percentiles."""
    grouped: dict[str, list[float]] = {}
    for label, seconds in records:
        if seconds < 0:
            raise ValueError(f"negative duration {seconds} for {label!r}")
        grouped.setdefault(label, []).append(seconds)
    stats: dict[str, TimingStats] = {}
    for label in sorted(grouped):
        values = sorted(grouped[label])
        stats[label] = TimingStats(
            count=len(values),
            mean=sum(values) / len(values),
            p50=_nearest_rank(values, 0.50),
            p90=_nearest_rank(values, 0.90),
            max=values[-1],
        )
    return stats


# -- report rendering ---------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (int, float)):
        return f"{value:.3f}"
    return str(value)


def _overall_table(level: Mapping[str, Mapping], title: str) -> list[str]:
    lines = [f"## {title}", "",
             "| Pathway/Role | Precision | Recall | F1 | Accuracy |",
             "| --- | --- | --- | --- | --- |"]
    for label in sorted(level):
        report = level[label]
        accuracy = report.get("accuracy", report.get("accuracy_triclass", 0.0))
        lines.append(
            f"| {label} | {_fmt(report.get('precision', 0.0))} "
            f"| {_fmt(report.get('recall', 0.0))} "
            f"| {_fmt(report.get('f1', 0.0))} "
            f"| {_fmt(accuracy)} |"
        )
    lines.append("")
    return lines


def _breakdown_table(level: Mapping[str, Mapping]) -> list[str]:
    groups: list[str] = []
    for report in level.values():
        for group in report.get("breakdowns", {}):
            if group not in groups:
                groups.append(group)
    if not groups:
        return []
    labels = sorted(level)
    lines = ["## Precision across clinical categories and task types", "",
             "| Category / Task Type | n | " + " | ".join(labels) + " |",
             "| --- | --- | " + " | ".join("---" for _ in labels) + " |"]
    for group in sorted(groups):
        cells = []
        group_n = 0
        for label in labels:
            sub = level[label].get("breakdowns", {}).get(group)
            if sub is None:
                cells.append("-")
            else:
                cells.append(_fmt(sub.get("precision", 0.0)))
                group_n = max(group_n, sub.get("answered_count", 0))
        lines.append(f"| {group} | {group_n} | " + " | ".join(cells) + " |")
    lines.append("")
    return lines


def _counterfactual_section(level: Mapping[str, Mapping]) -> list[str]:
    rows = []
    for label in sorted(level):
        counterfactual = level[label].get("counterfactual")
        if counterfactual:
            rows.append(
                f"| {label} | {counterfactual.get('rate', 0.0) * 100:.2f}% "
                f"| {counterfactual.get('rate_among_errors', 0.0) * 100:.2f}% "
                f"| {counterfactual.get('count', 0)} |"
            )
    if not rows:
        return []
    return ["## Counterfactual inference (automated grounding proxy)", "",
            "Rates come from automated evidence-substring grounding, a proxy for "
            "manual review of deviating outputs.", "",
            "| Pathway/Role | Rate (all items) | Rate (among errors) | Count |",
            "| --- | --- | --- | --- |", *rows, ""]


def _timing_section(timing: Mapping[str, Mapping]) -> list[str]:
    if not timing:
        return []
    lines = ["## Processing time", "",
             "| Pathway/Role | Count | Mean (s) | p50 (s) | p90 (s) | Max (s) |",
             "| --- | --- | --- | --- | --- | --- |"]
    for label in sorted(timing):
        stats = timing[label]
        lines.append(
            f"| {label} | {stats.get('count', 0)} | {_fmt(stats.get('mean', 0.0))} "
            f"| {_fmt(stats.get('p50', 0.0))} | {_fmt(stats.get('p90', 0.0))} "
            f"| {_fmt(stats.get('max', 0.0))} |"
        )
    lines.append("")
    return lines


def render_report(metrics: Mapping) -> str:
    """Render a metrics document (metrics.json content) to Markdown."""
    lines: list[str] = ["# Screening evaluation report", ""]
    question_level = metrics.get("question_level", {})
    if question_level:
        lines += _overall_table(question_level, "Question level overall performance")
        lines += _breakdown_table(question_level)
        lines += _counterfactual_section(question_level)
    criterion_level = metrics.get("criterion_level", {})
    if criterion_level:
        lines += _overall_table(criterion_level, "Criterion level overall performance")
    lines += _timing_section(metrics.get("timing", {}))
    return "\n".join(lines).rstrip() + "\n"
