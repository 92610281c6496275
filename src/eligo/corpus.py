"""Domain model and loaders: admission notes, eligibility catalog, gold labels.

All loaders are pure and reentrant; loaded values are treated as immutable
so they can be shared freely across worker threads.
"""

import gc
import json
import logging
import re
import sys
from contextlib import contextmanager
from enum import Enum
from functools import cached_property, partial
from io import BytesIO
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    CatalogError,
    ConfigError,
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
#
# Every record is a NamedTuple, so none can be assigned to.  One that caches a
# derived value subclasses its fields' NamedTuple, to have a ``__dict__`` for
# the cache, and refuses assignment.  One whose default is a new dict each time
# subclasses it with ``__slots__ = ()`` and a ``__new__`` that makes the dict.

def refuse_assignment(self, name: str, value) -> None:
    """``__setattr__`` of an immutable record that has a ``__dict__``."""
    raise AttributeError(f"cannot assign to field {name!r}")


class ParsedAnswer(NamedTuple):
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


class _NoteFields(NamedTuple):
    note_id: str
    sections: dict[str, str]
    extra_text: str | None = None


class AdmissionNote(_NoteFields):
    """One patient narrative, split into named sections."""

    __setattr__ = refuse_assignment

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


class QuestionSpec(NamedTuple):
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


class _CriterionFields(NamedTuple):
    criterion_id: str
    trial_ids: tuple[str, ...]
    kind: CriterionKind
    text: str
    rule_text: str
    question_ids: tuple[str, ...]
    # Set by conversion when the refiner's rule did not parse; the rule is
    # left empty and must be authored by hand before screening can use it.
    needs_human_rule: bool = False


class CriterionSpec(_CriterionFields):
    """One eligibility criterion: its text, rule and the questions it reads."""

    __setattr__ = refuse_assignment

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


class TrialSpec(NamedTuple):
    """One trial and the criteria it is screened on."""

    trial_id: str
    criterion_ids: tuple[str, ...]
    registry_code: str | None = None


class Catalog(NamedTuple):
    """Cross-reference-validated question/criterion/trial catalog."""

    questions: dict[str, QuestionSpec]
    criteria: dict[str, CriterionSpec]
    trials: dict[str, TrialSpec]

    def counts(self) -> tuple[int, int, int]:
        return (len(self.questions), len(self.criteria), len(self.trials))


class _GoldFields(NamedTuple):
    question_labels: dict[tuple[str, str], Verdict]
    criterion_labels: dict[tuple[str, str], CriterionLabel]


class GoldSet(_GoldFields):
    """Expert labels keyed by (note_id, question_id) / (note_id, criterion_id)."""

    __slots__ = ()

    def __new__(cls, question_labels: dict[tuple[str, str], Verdict] | None = None,
                criterion_labels: dict[tuple[str, str], CriterionLabel] | None = None):
        return super().__new__(cls, {} if question_labels is None else question_labels,
                               {} if criterion_labels is None else criterion_labels)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; restore its state, also on error."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# -- reading input ------------------------------------------------------------
#
# Bad input is rejected here, with a SchemaError naming the file (``where``,
# with the record index for catalog JSON), the JSONL ``line`` and the field.

def _require(record: Mapping, key: str, kind: type, where: str,
             line: int | None = None, default=None):
    """``record[key]``, or ``default`` when it is absent, if that is a ``kind``;
    a bool is not an int."""
    value = record.get(key, default)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(f"{where}: expected {kind.__name__} for {key!r}",
                          line=line, field=key)
    return value


def _optional(record: Mapping, key: str, kind: type, where: str,
              line: int | None = None):
    """Like _require, but a missing or null ``key`` gives None."""
    if record.get(key) is None:
        return None
    return _require(record, key, kind, where, line)


def _require_strs(record: Mapping, key: str, where: str, default=None) -> tuple[str, ...]:
    """``record[key]`` (or ``default``) as a tuple, if it is a list of
    distinct strings."""
    values = _require(record, key, list, where, default=default)
    if not all(isinstance(value, str) for value in values):
        raise SchemaError(f"{where}: expected a list of str for {key!r}", field=key)
    if len(set(values)) < len(values):
        repeated = next(value for index, value in enumerate(values)
                        if value in values[:index])
        raise SchemaError(f"{where}: {key} lists {repeated!r} twice", field=key)
    return tuple(values)


def _require_id(record: Mapping, key: str, where: str, line: int | None = None) -> str:
    """``record[key]``: a non-empty string without ID_SEPARATOR."""
    record_id = _require(record, key, str, where, line)
    if not record_id or ID_SEPARATOR in record_id:
        raise SchemaError(f"{where}: {key} {record_id!r} must be non-empty and must "
                          f"not contain {ID_SEPARATOR!r}", line=line, field=key)
    return record_id


# The JSON values that a config field takes, by the type of its default: a
# bool is not an integer or a number, a tuple is a list of strings, and a
# required field and a field whose default is None take a string.
_JSON_KINDS = {str: (str, "a string"), bool: (bool, "a boolean"),
               int: (int, "an integer"), float: ((int, float), "a number"),
               tuple: (list, "a list of strings")}


def config_from_dict(cls, record: Mapping, what: str, **nested: Callable):
    """The NamedTuple ``cls`` (a run, backend or backends config, named by
    ``what``) built from a JSON object whose keys are its fields, then validated.

    Each value must be of the JSON kind its field's default gives; a field
    whose default is None also takes null.  A field in ``nested`` takes an
    object, or a list of objects when its default is a tuple, and its
    function builds each object.  Every error is a ConfigError naming the
    key, as is a ValueError from ``validate``; one from a nested object also
    names where that object is, as in "(in 'backends'[1])".
    """
    if not isinstance(record, Mapping):
        raise ConfigError(f"a {what} config must be a JSON object")
    unknown = set(record).difference(cls._fields)
    if unknown:
        raise ConfigError(f"unknown {what} config keys {sorted(unknown)}")
    values = dict(record)
    for name in cls._fields:
        default = cls._field_defaults.get(name, "")
        if name not in record:
            if name in cls._field_defaults:
                continue
            raise ConfigError(f"invalid {what} config: {name!r} is required")
        value = record[name]
        if value is None and default is None:
            continue
        build = nested.get(name)
        if build is None:
            kind, label = _JSON_KINDS[str if default is None else type(default)]
        else:
            kind, label = (list, "a list of objects") if type(default) is tuple \
                else (dict, "an object")
        item = str if build is None else dict  # what a list value holds
        if (not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
                or (kind is list and not all(isinstance(entry, item) for entry in value))):
            nullable = " or null" if default is None else ""
            raise ConfigError(f"invalid {what} config: {name!r} must be "
                              f"{label}{nullable}, got {value!r}")
        if kind is list:
            values[name] = tuple(value) if build is None else tuple(
                _build_nested(build, entry, f"{name!r}[{index}]")
                for index, entry in enumerate(value))
        elif build is not None:
            values[name] = _build_nested(build, value, repr(name))
    config = cls(**values)
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(f"invalid {what} config: {exc}") from exc
    return config


def _build_nested(build: Callable, record: Mapping, where: str):
    try:
        return build(record)
    except ConfigError as exc:
        raise ConfigError(f"{exc} (in {where})") from exc


class _NotJson(ValueError):
    """A value that Python's json module decodes but JSON does not have."""


def _refuse_constant(name: str):
    raise _NotJson(f"{name} is not a JSON number")


# The decoder of every input.  It refuses NaN, Infinity and -Infinity, which
# the json module accepts.  A \u escape of half a surrogate pair decodes to a
# string that cannot be written as UTF-8; json_value refuses a value that
# holds one, after this pattern has found a surrogate escape in its text.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def json_value(path: str | Path, line: int | None, data: bytes):
    """``data``, a file, a JSONL line or a backend reply, parsed as UTF-8 JSON;
    SchemaError naming ``path`` and ``line`` when it is not."""
    try:
        text = data.decode("utf-8")
        if text.startswith("\ufeff"):  # json.loads's check, which decode lacks
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                                       text, 0)
        value = _DECODER.decode(text)
        if _SURROGATE_ESCAPE.search(text):  # UnicodeEncodeError for half a pair
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        return value
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text at byte {exc.start}", line=line) from exc
    except UnicodeEncodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: unpaired surrogate escape",
                          line=line) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc.msg}", line=line or exc.lineno) from exc
    except _NotJson as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}", line=line) from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise SchemaError(f"{path}: invalid JSON: integer longer than "
                          f"{sys.get_int_max_str_digits()} digits", line=line) from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: invalid JSON: nested too deeply", line=line) from exc


def _json_object(where: str | Path, value, line: int | None = None,
                 keys: Iterable[str] | None = None) -> dict:
    """``value`` if it is a JSON object, with no key outside ``keys`` when they
    are given: a misspelt key is an error, not a field left at its default."""
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected a JSON object", line=line)
    unknown = keys is not None and value.keys() - keys
    if unknown:
        raise SchemaError(f"{where}: unexpected keys {sorted(unknown)}", line=line)
    return value


def load_json(path: str | Path, keys: Iterable[str] | None = None) -> dict:
    """A JSON file's top-level object, with no key outside ``keys`` when they
    are given."""
    return _json_object(path, json_value(path, None, Path(path).read_bytes()), keys=keys)


# JSONL lines are split on b"\n" only, so a U+2028 left unescaped by
# ``ensure_ascii=False`` cannot split one.  A line is blank when bytes.strip()
# empties it, that is when it holds only ASCII whitespace; json.loads allows
# only JSON's own whitespace around a value.
_BLANK = " \t\n\r\x0b\x0c"
_JSON_SPACE = re.compile(r"[ \t\n\r]*")


def jsonl_values(data: bytes,
                 decode_line: Callable[[int, bytes], object]) -> Iterator[tuple[int, object]]:
    """Each non-blank line's JSON value, with its line number, from the bytes
    of a JSONL file, one line at a time.

    The data is decoded from UTF-8 once, and each line by one raw_decode
    while the line holds one JSON value from its start, followed by JSON
    whitespace only, and comes before the first line with a surrogate
    escape: the value is then the one json_value gives.  From the first line
    that does not, or from the start when the data is not UTF-8, each
    non-blank line, with its ``b"\n"``, is handed to
    ``decode_line(line_no, line)``, which returns its value or raises the
    caller's error for that line.
    """
    fallback_from = None  # the first line handed to decode_line
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        text, fallback_from = "", 1
    escape = _SURROGATE_ESCAPE.search(text)
    if escape is not None:  # decode_line finds whether it is half of a pair
        text = text[:text.rfind("\n", 0, escape.start()) + 1]
        fallback_from = text.count("\n") + 1
    for line_no, line in enumerate(text.split("\n"), start=1):
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


def _jsonl_records(path: str | Path,
                   keys: Iterable[str] | None = None) -> Iterator[tuple[int, dict]]:
    """Each non-blank line's object, with its line number (see _json_object)."""
    for line_no, value in jsonl_values(Path(path).read_bytes(), partial(json_value, path)):
        yield line_no, _json_object(path, value, line_no, keys)


def _catalog_records(path: str | Path, key: str,
                     keys: Iterable[str]) -> Iterator[tuple[str, dict]]:
    """Each object in the list under ``key``, the file's only key, with a
    ``where`` naming it (see _json_object)."""
    document = load_json(path, (key,))
    for index, record in enumerate(_require(document, key, list, str(path), default=[])):
        where = f"{path}: {key}[{index}]"
        yield where, _json_object(where, record, keys=keys)


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
    if not any(text.strip() for text in sections.values()):
        raise SchemaError(f"{where}: at least one section must be non-empty", line=line,
                          field="sections")
    return AdmissionNote(note_id=note_id, sections=sections, extra_text=extra_text)


def load_notes(path: str | Path) -> list[AdmissionNote]:
    """Load admission notes from a JSONL file, preserving file order."""
    notes: list[AdmissionNote] = []
    seen: set[str] = set()
    for line_no, record in _jsonl_records(path, _NoteFields._fields):
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
    for where, record in _catalog_records(path, "questions", QuestionSpec._fields):
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
    keys = ("criterion_id", "trial_ids", "kind", "text", "rule", "question_ids",
            "needs_human_rule")
    for where, record in _catalog_records(path, "criteria", keys):
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
    for where, record in _catalog_records(path, "trials", TrialSpec._fields):
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
    for trial in catalog.trials.values():
        for criterion_id in trial.criterion_ids:
            if criterion_id not in catalog.criteria:
                raise DanglingReferenceError(criterion_id, f"trial {trial.trial_id!r}")


def _check_trial_ids(catalog: Catalog) -> None:
    """A criterion that lists ``trial_ids`` lists exactly the trials whose
    ``criterion_ids`` name it; an empty list says nothing.  Convert checks
    a criterion without its trials, so only a whole catalog is held to this."""
    naming: dict[str, list[str]] = {}  # criterion id -> the trials that name it
    for trial in catalog.trials.values():
        for criterion_id in trial.criterion_ids:
            naming.setdefault(criterion_id, []).append(trial.trial_id)
    for criterion in catalog.criteria.values():
        if not criterion.trial_ids:
            continue
        where = f"criterion {criterion.criterion_id!r}"
        named_by = naming.get(criterion.criterion_id, [])
        for trial_id in criterion.trial_ids:
            if trial_id not in catalog.trials:
                raise DanglingReferenceError(trial_id, f"{where} trial_ids")
            if trial_id not in named_by:
                raise CatalogError(f"{where} lists trial {trial_id!r} in trial_ids, "
                                   "but that trial's criterion_ids do not name it")
        for trial_id in named_by:
            if trial_id not in criterion.trial_ids:
                raise CatalogError(f"trial {trial_id!r} names {where} in criterion_ids, "
                                   "but that criterion's trial_ids do not list it")


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
    _check_trial_ids(catalog)
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


# -- gold labels --------------------------------------------------------------


def load_gold(path: str | Path) -> GoldSet:
    """Load gold labels from JSONL; each record labels a question or a criterion."""
    gold = GoldSet()
    where = str(path)
    keys = ("note_id", "question_id", "criterion_id", "label")
    for line_no, record in _jsonl_records(path, keys):
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
