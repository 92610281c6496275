"""Domain model and loaders: admission notes, eligibility catalog, gold labels.

All loaders are pure and reentrant; loaded values are treated as immutable
so they can be shared freely across worker threads.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from io import BytesIO
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

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


# Each member by its value: a dict lookup, much cheaper than calling the enum.
VERDICT_BY_VALUE = {member.value: member for member in Verdict}
CRITERION_LABEL_BY_VALUE = {member.value: member for member in CriterionLabel}


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
class ParsedAnswer:
    """One tri-valued answer with its rationale, quotes and provenance."""

    value: Verdict
    rationale: str
    evidence: tuple[str, ...]
    provenance: str
    parse_fallback: bool = False

    def to_dict(self) -> dict:
        return {
            "value": self.value.value,
            "rationale": self.rationale,
            "evidence": list(self.evidence),
            "provenance": self.provenance,
            "parse_fallback": self.parse_fallback,
        }


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

    @cached_property
    def text(self) -> str:
        """This note's canonical text (see canonical_text), rendered on first use."""
        parts: list[str] = []
        for name in SECTION_ORDER:
            text = self.sections.get(name)
            if text:
                parts.append(f"{name.replace('_', ' ').upper()}:\n{text}\n")
        if self.extra_text:
            parts.append(f"EXTRA TEXT:\n{self.extra_text}\n")
        return "".join(parts)


@dataclass(frozen=True)
class QuestionSpec:
    """One decomposed eligibility question from the catalog."""

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
    """One eligibility criterion: its text, rule and the questions it reads."""

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
    """One trial and the criteria it is screened on."""

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


# -- reading input ------------------------------------------------------------
#
# Bad input is rejected here, with a SchemaError naming the file (``where``,
# with the record index for catalog JSON), the JSONL ``line`` and the field.

def _require(record: Mapping, key: str, kind: type, where: str,
             line: int | None = None, default=None):
    """``record[key]``, or ``default`` when it is absent, if that is a ``kind``."""
    value = record.get(key, default)
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: expected {kind.__name__} for {key!r}",
                          line=line, field=key)
    return value


def _optional(record: Mapping, key: str, kind: type, where: str,
              line: int | None = None):
    """Like _require, but a missing or null ``key`` gives None."""
    if record.get(key) is None:
        return None
    return _require(record, key, kind, where, line)


def _require_strs(record: Mapping, key: str, where: str, line: int | None = None,
                  default=None) -> tuple[str, ...]:
    """``record[key]`` (or ``default``) as a tuple, if it is a list of strings."""
    values = _require(record, key, list, where, line, default)
    if not all(isinstance(value, str) for value in values):
        raise SchemaError(f"{where}: expected a list of str for {key!r}",
                          line=line, field=key)
    return tuple(values)


def _require_id(record: Mapping, key: str, where: str, line: int | None = None) -> str:
    """``record[key]``: a non-empty string without ID_SEPARATOR."""
    record_id = _require(record, key, str, where, line)
    if not record_id or ID_SEPARATOR in record_id:
        raise SchemaError(f"{where}: {key} {record_id!r} must be non-empty and must "
                          f"not contain {ID_SEPARATOR!r}", line=line, field=key)
    return record_id


def _json_value(path: str | Path, line: int | None, data: bytes):
    """``data``, a file or one JSONL line of it, parsed as JSON."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text at byte {exc.start}", line=line) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc.msg}", line=line or exc.lineno) from exc


def _json_object(path: str | Path, value, line: int | None = None) -> dict:
    """``value`` if it is a JSON object."""
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected a JSON object", line=line)
    return value


def load_json(path: str | Path) -> dict:
    """A JSON file's top-level object."""
    return _json_object(path, _json_value(path, None, Path(path).read_bytes()))


# JSONL lines are split on b"\n" only, so a U+2028 left unescaped by
# ``ensure_ascii=False`` cannot split one.  A line is blank when bytes.strip()
# empties it, that is when it holds only ASCII whitespace; json.loads allows
# only JSON's own whitespace around a value.
_BLANK = " \t\n\r\x0b\x0c"
_JSON_SPACE = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()


def jsonl_values(data: bytes,
                 decode_line: Callable[[int, bytes], object]) -> Iterator[tuple[int, object]]:
    """Each non-blank line's JSON value, with its line number, from the bytes
    of a JSONL file, one line at a time.

    The data is decoded from UTF-8 once, and each line by one raw_decode
    while the line holds one JSON value from its start, followed by JSON
    whitespace only: the value is then the one json.loads gives.  From the
    first line that does not, or from the start when the data is not UTF-8,
    each non-blank line, with its ``b"\n"``, is handed to
    ``decode_line(line_no, line)``, which returns its value or raises the
    caller's error for that line.
    """
    fallback_from = None  # the first line handed to decode_line
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        lines, fallback_from = [], 1
    for line_no, line in enumerate(lines, start=1):
        if not line.strip(_BLANK):
            continue
        try:
            value, end = _DECODER.raw_decode(line)
            if end != len(line) and _JSON_SPACE.match(line, end).end() != len(line):
                raise ValueError("data after the value")
        except (ValueError, RecursionError):  # for decode_line to accept or raise
            fallback_from = line_no
            break
        yield line_no, value
    if fallback_from is not None:
        rest = islice(BytesIO(data), fallback_from - 1, None)
        for line_no, line in enumerate(rest, start=fallback_from):
            if line.strip():
                yield line_no, decode_line(line_no, line)


def _jsonl_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Each non-blank line's object, with its line number."""
    for line_no, value in jsonl_values(Path(path).read_bytes(), partial(_json_value, path)):
        yield line_no, _json_object(path, value, line_no)


def _catalog_records(path: str | Path, key: str) -> Iterator[tuple[str, dict]]:
    """Each object in the file's ``key`` list, with a ``where`` naming it."""
    for index, record in enumerate(_require(load_json(path), key, list, str(path),
                                            default=[])):
        where = f"{path}: {key}[{index}]"
        if not isinstance(record, dict):
            raise SchemaError(f"{where}: expected a JSON object")
        yield where, record


# -- admission notes ----------------------------------------------------------

def _parse_note(record: Mapping, where: str, line: int) -> AdmissionNote:
    note_id = _require_id(record, "note_id", where, line)
    raw_sections = _require(record, "sections", dict, where, line)
    sections: dict[str, str] = {}
    for name, text in raw_sections.items():
        if name not in SECTION_ORDER:
            raise SchemaError(f"{where}: unknown section {name!r}", line=line,
                              field="sections")
        if not isinstance(text, str):
            raise SchemaError(f"{where}: section text must be a string", line=line,
                              field=name)
        sections[name] = text
    extra_text = _optional(record, "extra_text", str, where, line)
    unknown = set(record) - {"note_id", "sections", "extra_text"}
    if unknown:
        raise SchemaError(f"{where}: unexpected keys {sorted(unknown)}", line=line)
    if not any(text.strip() for text in sections.values()):
        raise SchemaError(f"{where}: at least one section must be non-empty", line=line,
                          field="sections")
    return AdmissionNote(note_id=note_id, sections=sections, extra_text=extra_text)


def load_notes(path: str | Path) -> list[AdmissionNote]:
    """Load admission notes from a JSONL file, preserving file order."""
    notes: list[AdmissionNote] = []
    seen: set[str] = set()
    for line_no, record in _jsonl_records(path):
        note = _parse_note(record, str(path), line_no)
        if note.note_id in seen:
            raise DuplicateIdError("note", note.note_id)
        seen.add(note.note_id)
        notes.append(note)
    return notes


def canonical_text(note: AdmissionNote) -> str:
    """Render a note deterministically: fixed section order, stable bytes.

    The same rendering feeds both prompting and evidence grounding, so it
    must be byte-identical across runs for equal notes.  It is rendered once
    per note and cached on the note (``AdmissionNote.text``), like a
    criterion's ``parsed_rule``: each of a note's prompts reuses it, which
    relies on notes being treated as immutable.
    """
    return note.text


# -- catalog ------------------------------------------------------------------

def _enum_value(enum_cls, record: Mapping, key: str, where: str):
    raw = record.get(key)
    try:
        return enum_cls(raw)
    except ValueError:
        allowed = [member.value for member in enum_cls]
        raise SchemaError(f"{where}: {key} must be one of {allowed}, got {raw!r}",
                          field=key) from None


def load_questions(path: str | Path) -> dict[str, QuestionSpec]:
    questions: dict[str, QuestionSpec] = {}
    for where, record in _catalog_records(path, "questions"):
        question = QuestionSpec(
            question_id=_require_id(record, "question_id", where),
            text=_require(record, "text", str, where),
            category=_enum_value(Category, record, "category", where),
            task_type=_enum_value(TaskType, record, "task_type", where),
        )
        if not question.text:
            raise SchemaError(f"{where}: text must be non-empty", field="text")
        if (
            question.category is Category.SYMPTOM_AND_EVENT
            and question.task_type is not TaskType.CLASSIFICATION
        ):
            raise SchemaError(
                f"{where}: question {question.question_id!r}: SymptomAndEvent "
                "questions must be task_type Classification",
                field="task_type",
            )
        if question.question_id in questions:
            raise DuplicateIdError("question", question.question_id)
        questions[question.question_id] = question
    return questions


def load_criteria(path: str | Path) -> dict[str, CriterionSpec]:
    criteria: dict[str, CriterionSpec] = {}
    for where, record in _catalog_records(path, "criteria"):
        criterion = CriterionSpec(
            criterion_id=_require_id(record, "criterion_id", where),
            trial_ids=_require_strs(record, "trial_ids", where, default=[]),
            kind=_enum_value(CriterionKind, record, "kind", where),
            text=_require(record, "text", str, where),
            rule_text=_optional(record, "rule", str, where) or "",
            question_ids=_require_strs(record, "question_ids", where, default=[]),
            needs_human_rule=_require(record, "needs_human_rule", bool, where,
                                      default=False),
        )
        if criterion.criterion_id in criteria:
            raise DuplicateIdError("criterion", criterion.criterion_id)
        criteria[criterion.criterion_id] = criterion
    return criteria


def load_trials(path: str | Path) -> dict[str, TrialSpec]:
    trials: dict[str, TrialSpec] = {}
    for where, record in _catalog_records(path, "trials"):
        trial = TrialSpec(
            trial_id=_require(record, "trial_id", str, where),
            registry_code=_optional(record, "registry_code", str, where),
            criterion_ids=_require_strs(record, "criterion_ids", where),
        )
        if not trial.criterion_ids:
            raise SchemaError(
                f"{where}: trial {trial.trial_id!r} lists no criteria", field="criterion_ids"
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


def load_gold(path: str | Path) -> GoldSet:
    """Load gold labels from JSONL; each record labels a question or a criterion."""
    gold = GoldSet()
    where = str(path)
    for line_no, record in _jsonl_records(path):
        note_id = _require(record, "note_id", str, where, line_no)
        question_id = _optional(record, "question_id", str, where, line_no)
        criterion_id = _optional(record, "criterion_id", str, where, line_no)
        label = _require(record, "label", str, where, line_no)
        if (question_id is None) == (criterion_id is None):
            raise SchemaError(
                f"{where}: exactly one of question_id/criterion_id is required", line=line_no
            )
        if question_id is not None:
            verdict = VERDICT_BY_VALUE.get(label)
            if verdict is None:
                raise SchemaError(
                    f"{where}: question label must be one of {sorted(VERDICT_BY_VALUE)}",
                    line=line_no, field="label",
                )
            key = (note_id, question_id)
            if key in gold.question_labels:
                raise DuplicateIdError("gold question label", key)
            gold.question_labels[key] = verdict
        else:
            criterion_label = CRITERION_LABEL_BY_VALUE.get(label)
            if criterion_label is None:
                raise SchemaError(
                    f"{where}: criterion label must be one of "
                    f"{sorted(CRITERION_LABEL_BY_VALUE)}", line=line_no, field="label",
                )
            key = (note_id, criterion_id)
            if key in gold.criterion_labels:
                raise DuplicateIdError("gold criterion label", key)
            gold.criterion_labels[key] = criterion_label
    return gold


def validate_gold(
    gold: GoldSet,
    catalog: Catalog,
    *,
    notes: Iterable[AdmissionNote] | None = None,
    results: Iterable[tuple[str, str]] = (),
) -> None:
    """Every gold label, and every result's ``(note_id, question_id)``, must name
    a question or criterion in the catalog and, when ``notes`` are given, a
    note among them; DanglingReferenceError names the first id that does not."""
    note_ids = None if notes is None else {note.note_id for note in notes}

    def check(note_id: str, ref_id: str, known: Mapping, where: str) -> None:
        if note_ids is not None and note_id not in note_ids:
            raise DanglingReferenceError(note_id, where)
        if ref_id not in known:
            raise DanglingReferenceError(ref_id, where)

    for note_id, question_id in gold.question_labels:
        check(note_id, question_id, catalog.questions, "gold question label")
    for note_id, criterion_id in gold.criterion_labels:
        check(note_id, criterion_id, catalog.criteria, "gold criterion label")
    for note_id, question_id in results:
        check(note_id, question_id, catalog.questions, "result record")
