"""Domain model and loaders: admission notes, eligibility catalog, gold labels.

All loaders are pure and reentrant; loaded values are treated as immutable
so they can be shared freely across worker threads.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import (
    CatalogError,
    DanglingReferenceError,
    DuplicateIdError,
    RuleParseError,
    SchemaError,
)

if TYPE_CHECKING:
    from .rules import ParsedRule

log = logging.getLogger(__name__)

# Tags, mock fixture keys and vote keys join ids with this separator, so no
# note, question or criterion id may contain it.
ID_SEPARATOR = "|"

# Fixed rendering order; prompts and grounding checks depend on it.
SECTION_ORDER = ("chief_complaint", "present_illness", "past_history")


class Verdict(str, Enum):
    """Tri-valued answer to an eligibility question."""

    YES = "YES"
    NO = "NO"
    UNKNOWN = "UNKNOWN"


class CriterionLabel(str, Enum):
    """Gold outcome for a criterion on one note."""

    MET = "MET"
    NOT_MET = "NOT_MET"


class Category(str, Enum):
    """Clinical domain of a question."""

    DIAGNOSIS = "Diagnosis"
    ETIOLOGY_AND_PATHOLOGY = "EtiologyAndPathology"
    SYMPTOM_AND_EVENT = "SymptomAndEvent"
    INTERVENTION = "Intervention"


class TaskType(str, Enum):
    """Reasoning complexity of a question."""

    CLASSIFICATION = "Classification"
    DIRECT_MATCH = "DirectMatch"


class CriterionKind(str, Enum):
    INCLUSION = "inclusion"
    EXCLUSION = "exclusion"


# -- domain records -----------------------------------------------------------

@dataclass(frozen=True)
class AdmissionNote:
    """One patient narrative, split into named sections."""

    note_id: str
    sections: dict[str, str]
    extra_text: str | None = None

    def to_dict(self) -> dict:
        record: dict = {"note_id": self.note_id, "sections": dict(self.sections)}
        if self.extra_text is not None:
            record["extra_text"] = self.extra_text
        return record


@dataclass(frozen=True)
class QuestionSpec:
    question_id: str
    text: str
    category: Category
    task_type: TaskType

    def to_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "text": self.text,
            "category": self.category.value,
            "task_type": self.task_type.value,
        }


@dataclass(frozen=True)
class CriterionSpec:
    criterion_id: str
    trial_ids: tuple[str, ...]
    kind: CriterionKind
    text: str
    rule_text: str
    question_ids: tuple[str, ...]
    # Set by conversion when the refiner's rule did not parse; the rule is
    # left empty and must be authored by hand before screening can use it.
    needs_human_rule: bool = False

    def to_dict(self) -> dict:
        record = {
            "criterion_id": self.criterion_id,
            "trial_ids": list(self.trial_ids),
            "kind": self.kind.value,
            "text": self.text,
            "rule": self.rule_text,
            "question_ids": list(self.question_ids),
        }
        if self.needs_human_rule:
            record["needs_human_rule"] = True
        return record

    @cached_property
    def parsed_rule(self) -> "ParsedRule":
        """The rule, parsed on first use; validate_catalog does so at load."""
        from .rules import ParsedRule  # deferred: rules imports this module

        return ParsedRule.parse(self.rule_text)


@dataclass(frozen=True)
class TrialSpec:
    trial_id: str
    criterion_ids: tuple[str, ...]
    registry_code: str | None = None


@dataclass(frozen=True)
class Catalog:
    """Cross-reference-validated question/criterion/trial catalog."""

    questions: dict[str, QuestionSpec]
    criteria: dict[str, CriterionSpec]
    trials: dict[str, TrialSpec]

    def counts(self) -> tuple[int, int, int]:
        return (len(self.questions), len(self.criteria), len(self.trials))


@dataclass
class GoldSet:
    """Expert labels keyed by (note_id, question_id) / (note_id, criterion_id)."""

    question_labels: dict[tuple[str, str], Verdict] = field(default_factory=dict)
    criterion_labels: dict[tuple[str, str], CriterionLabel] = field(default_factory=dict)


# -- admission notes ----------------------------------------------------------

def _require(record: Mapping, key: str, kind: type, line: int):
    value = record.get(key)
    if not isinstance(value, kind):
        raise SchemaError(f"expected {kind.__name__} for {key!r}", line=line, field=key)
    return value


def _check_id(kind: str, record_id: str, line: int | None = None) -> None:
    if ID_SEPARATOR in record_id:
        raise SchemaError(
            f"{kind} {record_id!r} must not contain {ID_SEPARATOR!r}",
            line=line, field=kind,
        )


def _parse_note(record: Mapping, line: int) -> AdmissionNote:
    if not isinstance(record, Mapping):
        raise SchemaError("expected a JSON object", line=line)
    note_id = _require(record, "note_id", str, line)
    if not note_id:
        raise SchemaError("note_id must be non-empty", line=line, field="note_id")
    _check_id("note_id", note_id, line)
    raw_sections = _require(record, "sections", dict, line)
    sections: dict[str, str] = {}
    for name, text in raw_sections.items():
        if name not in SECTION_ORDER:
            raise SchemaError(f"unknown section {name!r}", line=line, field="sections")
        if not isinstance(text, str):
            raise SchemaError("section text must be a string", line=line, field=name)
        sections[name] = text
    extra_text = record.get("extra_text")
    if extra_text is not None and not isinstance(extra_text, str):
        raise SchemaError("extra_text must be a string", line=line, field="extra_text")
    unknown = set(record) - {"note_id", "sections", "extra_text"}
    if unknown:
        raise SchemaError(f"unexpected keys {sorted(unknown)}", line=line)
    if not any(text.strip() for text in sections.values()):
        raise SchemaError("at least one section must be non-empty", line=line, field="sections")
    return AdmissionNote(note_id=note_id, sections=sections, extra_text=extra_text)


def load_notes(path: str | Path) -> list[AdmissionNote]:
    """Load admission notes from a JSONL file, preserving file order."""
    notes: list[AdmissionNote] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc.msg}", line=line_no) from exc
            note = _parse_note(record, line_no)
            if note.note_id in seen:
                raise DuplicateIdError("note", note.note_id)
            seen.add(note.note_id)
            notes.append(note)
    return notes


def canonical_text(note: AdmissionNote) -> str:
    """Render a note deterministically: fixed section order, stable bytes.

    The same rendering feeds both prompting and evidence grounding, so it
    must be byte-identical across runs for equal notes.
    """
    parts: list[str] = []
    for name in SECTION_ORDER:
        text = note.sections.get(name)
        if text:
            parts.append(f"{name.replace('_', ' ').upper()}:\n{text}\n")
    if note.extra_text:
        parts.append(f"EXTRA TEXT:\n{note.extra_text}\n")
    return "".join(parts)


# -- catalog ------------------------------------------------------------------

def _load_json(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(document, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level")
    return document


def _enum_value(enum_cls, raw, what: str):
    try:
        return enum_cls(raw)
    except ValueError:
        allowed = [member.value for member in enum_cls]
        raise SchemaError(f"{what} must be one of {allowed}, got {raw!r}", field=what)


def load_questions(path: str | Path) -> dict[str, QuestionSpec]:
    document = _load_json(path)
    questions: dict[str, QuestionSpec] = {}
    for record in document.get("questions", []):
        question = QuestionSpec(
            question_id=record["question_id"],
            text=record["text"],
            category=_enum_value(Category, record["category"], "category"),
            task_type=_enum_value(TaskType, record["task_type"], "task_type"),
        )
        if not question.question_id or not question.text:
            raise SchemaError("question_id and text must be non-empty", field="question_id")
        _check_id("question_id", question.question_id)
        if (
            question.category is Category.SYMPTOM_AND_EVENT
            and question.task_type is not TaskType.CLASSIFICATION
        ):
            raise SchemaError(
                f"question {question.question_id!r}: SymptomAndEvent questions "
                "must be task_type Classification",
                field="task_type",
            )
        if question.question_id in questions:
            raise DuplicateIdError("question", question.question_id)
        questions[question.question_id] = question
    return questions


def load_criteria(path: str | Path) -> dict[str, CriterionSpec]:
    document = _load_json(path)
    criteria: dict[str, CriterionSpec] = {}
    for record in document.get("criteria", []):
        criterion = CriterionSpec(
            criterion_id=record["criterion_id"],
            trial_ids=tuple(record.get("trial_ids", [])),
            kind=_enum_value(CriterionKind, record["kind"], "kind"),
            text=record["text"],
            rule_text=record.get("rule", ""),
            question_ids=tuple(record.get("question_ids", [])),
            needs_human_rule=bool(record.get("needs_human_rule", False)),
        )
        _check_id("criterion_id", criterion.criterion_id)
        if criterion.criterion_id in criteria:
            raise DuplicateIdError("criterion", criterion.criterion_id)
        criteria[criterion.criterion_id] = criterion
    return criteria


def load_trials(path: str | Path) -> dict[str, TrialSpec]:
    document = _load_json(path)
    trials: dict[str, TrialSpec] = {}
    for record in document.get("trials", []):
        trial = TrialSpec(
            trial_id=record["trial_id"],
            registry_code=record.get("registry_code"),
            criterion_ids=tuple(record["criterion_ids"]),
        )
        if not trial.criterion_ids:
            raise SchemaError(
                f"trial {trial.trial_id!r} lists no criteria", field="criterion_ids"
            )
        if trial.trial_id in trials:
            raise DuplicateIdError("trial", trial.trial_id)
        trials[trial.trial_id] = trial
    return trials


def validate_catalog(catalog: Catalog) -> None:
    """Check every cross-reference; name the offending id on failure."""
    for criterion in catalog.criteria.values():
        where = f"criterion {criterion.criterion_id!r}"
        for question_id in criterion.question_ids:
            if question_id not in catalog.questions:
                raise DanglingReferenceError(question_id, where)
        if not criterion.rule_text:
            if criterion.needs_human_rule:
                continue
            raise CatalogError(
                f"{where} has an empty rule and is not flagged needs_human_rule"
            )
        try:
            rule = criterion.parsed_rule
        except RuleParseError as exc:
            raise exc.with_criterion(criterion.criterion_id) from exc
        for question_id in rule.question_ids:
            if question_id not in criterion.question_ids:
                raise DanglingReferenceError(question_id, f"{where} rule")
            if question_id not in catalog.questions:
                raise DanglingReferenceError(question_id, f"{where} rule")
    for trial in catalog.trials.values():
        for criterion_id in trial.criterion_ids:
            if criterion_id not in catalog.criteria:
                raise DanglingReferenceError(criterion_id, f"trial {trial.trial_id!r}")


def load_catalog(
    questions_path: str | Path,
    criteria_path: str | Path,
    trials_path: str | Path,
) -> Catalog:
    """Load and cross-validate the three catalog files."""
    catalog = Catalog(
        questions=load_questions(questions_path),
        criteria=load_criteria(criteria_path),
        trials=load_trials(trials_path),
    )
    validate_catalog(catalog)
    n_questions, n_criteria, n_trials = catalog.counts()
    log.info(
        "catalog loaded: %d questions, %d criteria, %d trials",
        n_questions, n_criteria, n_trials,
    )
    return catalog


def load_catalog_dir(directory: str | Path) -> Catalog:
    directory = Path(directory)
    return load_catalog(
        directory / "questions.json",
        directory / "criteria.json",
        directory / "trials.json",
    )


def write_questions(path: str | Path, questions: Iterable[QuestionSpec]) -> None:
    document = {"questions": [question.to_dict() for question in questions]}
    Path(path).write_text(json.dumps(document, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def write_criteria(path: str | Path, criteria: Iterable[CriterionSpec]) -> None:
    document = {"criteria": [criterion.to_dict() for criterion in criteria]}
    Path(path).write_text(json.dumps(document, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


# -- gold labels --------------------------------------------------------------

_QUESTION_LABELS = {member.value for member in Verdict}
_CRITERION_LABELS = {member.value for member in CriterionLabel}


def load_gold(path: str | Path) -> GoldSet:
    """Load gold labels from JSONL; each record labels a question or a criterion."""
    gold = GoldSet()
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc.msg}", line=line_no) from exc
            note_id = _require(record, "note_id", str, line_no)
            question_id = record.get("question_id")
            criterion_id = record.get("criterion_id")
            label = _require(record, "label", str, line_no)
            if (question_id is None) == (criterion_id is None):
                raise SchemaError(
                    "exactly one of question_id/criterion_id is required", line=line_no
                )
            if question_id is not None:
                if label not in _QUESTION_LABELS:
                    raise SchemaError(
                        f"question label must be one of {sorted(_QUESTION_LABELS)}",
                        line=line_no, field="label",
                    )
                key = (note_id, question_id)
                if key in gold.question_labels:
                    raise DuplicateIdError("gold question label", key)
                gold.question_labels[key] = Verdict(label)
            else:
                if label not in _CRITERION_LABELS:
                    raise SchemaError(
                        f"criterion label must be one of {sorted(_CRITERION_LABELS)}",
                        line=line_no, field="label",
                    )
                key = (note_id, criterion_id)
                if key in gold.criterion_labels:
                    raise DuplicateIdError("gold criterion label", key)
                gold.criterion_labels[key] = CriterionLabel(label)
    return gold


def validate_gold(gold: GoldSet, notes: Iterable[AdmissionNote], catalog: Catalog) -> None:
    """Every gold key must resolve against the corpus and the catalog."""
    note_ids = {note.note_id for note in notes}
    for note_id, question_id in gold.question_labels:
        if note_id not in note_ids:
            raise DanglingReferenceError(note_id, "gold question label")
        if question_id not in catalog.questions:
            raise DanglingReferenceError(question_id, "gold question label")
    for note_id, criterion_id in gold.criterion_labels:
        if note_id not in note_ids:
            raise DanglingReferenceError(note_id, "gold criterion label")
        if criterion_id not in catalog.criteria:
            raise DanglingReferenceError(criterion_id, "gold criterion label")
