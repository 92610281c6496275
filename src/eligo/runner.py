"""Run orchestration: screen, evaluate, convert, report.

Screening appends one JSONL record per completed (note, question, pathway)
unit, so an interrupted run resumes by skipping keys already on disk.
Each (note, question) pair runs its units in label order: the roles, then
their vote, then the debate.  One engine loop on the calling thread does
all of the work but the backend calls: it renders each unit's requests,
hands them to the gateway with a callback per request, and parses, votes
and appends as the replies come back.  A batch answered on the calling
thread goes straight on; a reply from a sender thread is posted to the
loop.  At most ``workers`` pairs are runnable at a time, meaning they
have a request queued or on the wire; a pair whose requests all wait out a
retry backoff is parked and does not count, so another pair starts in its
place.  Completion order across pairs is nondeterministic; downstream
consumers (and the determinism check) sort by key via canonicalization.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from pathlib import Path
from threading import get_ident
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, TypeVar

from . import __version__
from .corpus import (
    VERDICT_BY_VALUE,
    AdmissionNote,
    Catalog,
    ParsedAnswer,
    QuestionSpec,
    Verdict,
    _optional,
    _require,
    _require_strs,
    jsonl_values,
    load_catalog_dir,
    load_gold,
    load_json,
    load_notes,
    validate_gold,
)
from .errors import (
    ConfigError,
    EligoError,
    GatewayError,
    MissingVerdictError,
    SchemaError,
)
from .rules import TrialStatus, trial_verdict, verdicts_for_note

if TYPE_CHECKING:
    from .gateway import BackendConfig, Gateway, Unit

# A module that not every command runs is imported where it is used, so that
# evaluate loads no gateway or pathway and screen no evaluation: the gateway
# and pathways in RunConfig, cmd_screen and cmd_convert, evaluation in
# cmd_evaluate and cmd_report.  So are the standard modules of one command:
# csv for evaluate, and datetime, queue and hashlib (which loads OpenSSL,
# which is slow) for screen.

log = logging.getLogger(__name__)
T = TypeVar("T")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_PARTIAL = 4

VOTE_LABEL = "A-vote"
DEBATE_LABEL = "B"

# Volatile per-record fields excluded from determinism comparisons.
VOLATILE_FIELDS = ("elapsed_s",)

_STR_ONLY = frozenset({str})

# One compact, key-sorted encoder for every JSONL line; output is the same as
# json.dumps(record, ensure_ascii=False, sort_keys=True).  Lines formatted
# field by field encode each string with _encode_str, as this encoder does.
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)
_encode_str = json.encoder.encode_basestring


@dataclass
class RunConfig:
    """One screening run: backend, inputs, output directory and pathways."""

    backend: BackendConfig
    notes_path: str
    catalog_dir: str
    out_dir: str
    pathway: str = "both"  # "A" | "B" | "both"
    roles: tuple[str, ...] = ("crc", "jd", "ie")
    vote: bool = True
    gold_path: str | None = None
    seed: str | None = None  # fixture selection label for the mock backend
    prompts_dir: str | None = None
    workers: int = 8

    def validate(self) -> None:
        from .pathway_a import ROLE_IDS

        if self.pathway not in ("A", "B", "both"):
            raise ConfigError(f"pathway must be A, B or both, got {self.pathway!r}")
        for role in self.roles:
            if role.upper() not in ROLE_IDS:
                raise ConfigError(f"unknown role {role!r}; expected crc, jd, ie")
        if len(set(role.upper() for role in self.roles)) != len(self.roles):
            raise ConfigError("duplicate roles in config")
        if self.pathway in ("A", "both"):
            if not self.roles:
                raise ConfigError("pathway A requires at least one role")
            if self.vote and len(self.roles) != len(ROLE_IDS):
                raise ConfigError("vote=true requires all three roles (crc, jd, ie)")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        try:
            self.backend.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_dict(cls, record: Mapping) -> "RunConfig":
        from .gateway import backend_config_from_dict

        if not isinstance(record, Mapping):
            raise ConfigError("run config must be a JSON object")
        where = "run config"
        try:
            config = cls(
                backend=backend_config_from_dict(_require(record, "backend", dict, where)),
                notes_path=_require(record, "notes", str, where),
                catalog_dir=_require(record, "catalog", str, where),
                out_dir=_require(record, "out", str, where),
                pathway=_require(record, "pathway", str, where, default="both"),
                roles=_require_strs(record, "roles", where, default=["crc", "jd", "ie"]),
                vote=_require(record, "vote", bool, where, default=True),
                gold_path=_optional(record, "gold", str, where),
                seed=_optional(record, "seed", str, where),
                prompts_dir=_optional(record, "prompts", str, where),
                workers=_require(record, "workers", int, where, default=8),
            )
        except SchemaError as exc:
            raise ConfigError(str(exc)) from exc
        config.validate()
        return config

    def digest(self) -> str:
        payload = {
            "backend": {
                "kind": self.backend.kind,
                "model_name": self.backend.model_name,
                "base_url": self.backend.base_url,
            },
            "pathway": self.pathway,
            "roles": list(self.roles),
            "vote": self.vote,
            "notes": self.notes_path,
            "catalog": self.catalog_dir,
            "seed": self.seed,
        }
        import hashlib

        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def role_labels(self) -> list[str]:
        if self.pathway == "B":
            return []
        return [f"A-{role.upper()}" for role in self.roles]

    def unit_labels(self) -> list[str]:
        labels = self.role_labels()
        if self.pathway in ("A", "both") and self.vote:
            labels.append(VOTE_LABEL)
        if self.pathway in ("B", "both"):
            labels.append(DEBATE_LABEL)
        return labels


@dataclass
class ResultRecord:
    """One answered (note, question, unit label), as a results.jsonl line."""

    note_id: str
    question_id: str
    pathway: str  # unit label, e.g. "A-CRC", "A-vote", "B"
    answer: ParsedAnswer
    elapsed_s: float
    transcript: str | None = None

    def to_dict(self) -> dict:
        record = {
            "note_id": self.note_id,
            "question_id": self.question_id,
            "pathway": self.pathway,
            **self.answer.to_dict(),
            "elapsed_s": self.elapsed_s,
        }
        if self.transcript is not None:
            record["transcript"] = self.transcript
        return record

    @classmethod
    def from_dict(cls, record: Mapping) -> "ResultRecord":
        """The record of a result line; KeyError, TypeError, ValueError or
        OverflowError when a field is missing, mistyped, or holds a value
        that would not be written back as it was read.

        The ids, ``rationale`` and ``provenance`` are strings, ``evidence``
        is a list of strings and ``transcript`` a string or null;
        ``elapsed_s`` is a non-negative int or float (not a bool), finite in
        milliseconds, and ``parse_fallback`` a bool.  An absent optional
        field takes the value an empty answer would have written.
        """
        note_id, question_id, pathway = (record["note_id"], record["question_id"],
                                         record["pathway"])
        if not (type(note_id) is str and type(question_id) is str
                and type(pathway) is str):
            raise TypeError("result ids must be strings")
        value = VERDICT_BY_VALUE[record["value"]]
        rationale = record.get("rationale", "")
        provenance = record.get("provenance", "")
        if type(rationale) is not str or type(provenance) is not str:
            raise TypeError("rationale and provenance must be strings")
        evidence = record.get("evidence", [])
        if type(evidence) is not list or not _STR_ONLY.issuperset(map(type, evidence)):
            raise TypeError("evidence must be a list of strings")
        parse_fallback = record.get("parse_fallback", False)
        if type(parse_fallback) is not bool:
            raise TypeError("parse_fallback must be a bool")
        transcript = record.get("transcript")
        if transcript is not None and type(transcript) is not str:
            raise TypeError("transcript must be a string or null")
        elapsed_s = record.get("elapsed_s", 0.0)
        if type(elapsed_s) is not float:
            if type(elapsed_s) is not int:
                raise TypeError("elapsed_s must be a number")
            elapsed_s = float(elapsed_s)
        # A vote keeps the largest of its members' times in milliseconds, so
        # the value must stay finite once multiplied by 1000.  NaN compares false.
        if not 0.0 <= elapsed_s * 1000.0 < math.inf:
            raise ValueError(f"elapsed_s {elapsed_s} is not finite in milliseconds")
        answer = ParsedAnswer(value, rationale, tuple(evidence), provenance, parse_fallback)
        return cls(note_id, question_id, pathway, answer, elapsed_s, transcript)

    def to_line(self) -> str:
        """``_JSONL_ENCODER.encode(self.to_dict())``, formatted field by field.

        Fields go in sorted key order and strings through _encode_str.  A
        finite float ``elapsed_s`` is written by ``float.__repr__``, as the
        encoder writes it; any other value leaves the line to the encoder.
        """
        answer = self.answer
        elapsed_s = self.elapsed_s
        if type(elapsed_s) is not float or not math.isfinite(elapsed_s):
            return _JSONL_ENCODER.encode(self.to_dict())
        transcript = ("" if self.transcript is None
                      else ', "transcript": ' + _encode_str(self.transcript))
        return (f'{{"elapsed_s": {float.__repr__(elapsed_s)}, '
                f'"evidence": [{", ".join(map(_encode_str, answer.evidence))}], '
                f'"note_id": {_encode_str(self.note_id)}, '
                f'"parse_fallback": {"true" if answer.parse_fallback else "false"}, '
                f'"pathway": {_encode_str(self.pathway)}, '
                f'"provenance": {_encode_str(answer.provenance)}, '
                f'"question_id": {_encode_str(self.question_id)}, '
                f'"rationale": {_encode_str(answer.rationale)}{transcript}, '
                f'"value": {_encode_str(answer.value.value)}}}')

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.note_id, self.question_id, self.pathway)


class _JsonlWriter:
    """Appends lines to a JSONL file, each one a record encoded by the caller.

    The file is opened on the first append and kept open until close(), so
    a run that appends nothing creates no file.  Each line is flushed to the
    OS before append returns, so a process that dies loses at most the
    record it was writing.  Not thread-safe: the engine thread is the only
    writer.
    """

    def __init__(self, path: Path):
        self.path = path
        self._handle = None

    def append(self, line: str) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


_UNREADABLE = (ValueError, KeyError, TypeError, OverflowError)


def _decode_result(path: str | Path, line_no: int, line: bytes):
    """One ``results.jsonl`` line's JSON value; SchemaError when it is not
    UTF-8 JSON."""
    try:
        return json.loads(line.decode("utf-8"))
    except _UNREADABLE as exc:
        raise SchemaError(f"{path}: unreadable result record", line=line_no) from exc


def _parse_result(path: str | Path, line_no: int, value) -> ResultRecord:
    """The record of one ``results.jsonl`` line's JSON value; SchemaError when
    it is not one."""
    try:
        return ResultRecord.from_dict(value)
    except _UNREADABLE as exc:
        raise SchemaError(f"{path}: unreadable result record", line=line_no) from exc


def read_results(path: str | Path) -> list[ResultRecord]:
    """Load result records from a completed (or partial but clean) run."""
    return [_parse_result(path, line_no, value) for line_no, value
            in jsonl_values(Path(path).read_bytes(), partial(_decode_result, path))]


def _read_appended_jsonl(
    path: Path, decode_line: Callable[[int, bytes], object],
    parse: Callable[[int, object], T],
) -> list[tuple[int, T]]:
    """Read a JSONL file that an interrupted run may have appended to.

    Returns ``(line_no, parse(line_no, value))`` for the JSON value of each
    non-blank line, read by jsonl_values with ``decode_line``.  A final line
    that ``decode_line`` or ``parse`` rejects with SchemaError (naming the
    line) is torn (half-written) and is truncated away so later appends land
    on a clean file; on any earlier line the error propagates.  Lines are
    split on b"\n", so a crash that cut a multi-byte character, or a U+2028
    that ``ensure_ascii=False`` left unescaped, cannot split a line.
    """
    if not path.exists():
        return []
    raw = path.read_bytes()
    rows: list[tuple[int, T]] = []
    try:
        for line_no, value in jsonl_values(raw, decode_line):
            rows.append((line_no, parse(line_no, value)))
    except SchemaError as exc:
        # The last non-blank line starts after the newline before the last
        # byte that is not whitespace.
        last_start = raw.rfind(b"\n", 0, len(raw.rstrip())) + 1
        if exc.line != raw.count(b"\n", 0, last_start) + 1:
            raise
        log.warning("truncating torn final line of %s", path)
        path.write_bytes(raw[:last_start])
        return rows
    if raw and not raw.endswith(b"\n"):
        # The crash fell between a record and its newline: end the line.
        with open(path, "ab") as handle:
            handle.write(b"\n")
    return rows


def _read_resume_state(path: Path) -> list[ResultRecord]:
    """Like read_results, but repairs a torn (half-written) final line."""
    rows = _read_appended_jsonl(path, partial(_decode_result, path),
                                partial(_parse_result, path))
    return [record for _, record in rows]


def _drop_orphan_transcripts(path: Path, answered: set[tuple[str, str]]) -> None:
    """Keep one transcript per debate whose B result is on disk.

    A crash between the transcript append and the result append leaves a
    transcript without a result, and the resumed run would append a second
    one.  A later duplicate replaces an earlier one.  Unreadable lines, a
    torn final one included, are dropped: an older release appended the
    next record onto a torn line.  The file is replaced atomically, and only
    when it changes.
    """
    def decode(line_no: int, line: bytes):
        try:
            return json.loads(line.decode("utf-8"))
        except ValueError:
            return None  # transcript_key drops it

    def transcript_key(line_no: int, record) -> tuple[str, str] | None:
        try:
            return (record["note_id"], record["question_id"])
        except (KeyError, TypeError):
            log.warning("dropping unreadable line %d of %s", line_no, path)
            return None

    rows = _read_appended_jsonl(path, decode, transcript_key)
    kept = {key: line_no for line_no, key in rows if key in answered}
    if len(kept) == len(rows):
        return
    lines = path.read_bytes().split(b"\n")
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_bytes(b"".join(lines[line_no - 1] + b"\n" for line_no in kept.values()))
    os.replace(scratch, path)


def canonicalize_records(records: Iterable[Mapping]) -> str:
    """Strip volatile fields, sort by key, render stable JSONL text."""
    cleaned = []
    for record in records:
        kept = {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}
        cleaned.append(kept)
    cleaned.sort(key=lambda r: (r.get("note_id", ""), r.get("question_id", ""),
                                r.get("pathway", "")))
    return "".join(_JSONL_ENCODER.encode(r) + "\n" for r in cleaned)


def canonicalize_results_file(path: str | Path) -> str:
    return canonicalize_records(record.to_dict() for record in read_results(path))


# -- screening ----------------------------------------------------------------

def _utc_now() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


@dataclass(eq=False)
class _Pair:
    """One (note, question) pair on its way through its units in label order."""

    note: AdmissionNote
    question: QuestionSpec
    labels: Iterator[str]
    on_park: Callable[[bool], None]  # a request of the batch was (un)parked
    records: dict[str, ResultRecord] = field(default_factory=dict)  # by label
    label: str = ""  # the current unit's label
    unit: Unit | None = None  # the current unit, if it calls the backend
    started: float = 0.0  # when the current unit started
    replies: list[str | None] | None = None  # the batch's replies, in batch order
    errors: dict[int, Exception] = field(default_factory=dict)  # its failures, by index
    waiting: int = 0  # requests of the batch not yet answered
    parked: int = 0  # of those, the ones waiting out a retry backoff


def cmd_screen(config: RunConfig, gateway: Gateway | None = None) -> int:
    """Answer every (note, question) unit, resumably, then roll up verdicts.

    A pre-built gateway may be injected (tests use this to script failures);
    by default one is constructed from the configured backend.  A unit whose
    call fails with a GatewayError is counted as failed.  Any other error
    ends its pair; it is raised once the other pairs are done, with the
    output files and the gateway closed.
    """
    from queue import SimpleQueue

    from .gateway import Gateway
    from .pathway_a import ROLE_IDS, RoleAnswer, load_roles, majority_vote, role_unit
    from .pathway_b import debate_unit, load_debate_templates

    try:
        config.validate()
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG

    started_at = _utc_now()
    out_dir = Path(config.out_dir)
    results_path = out_dir / "results.jsonl"
    debates_path = out_dir / "debates.jsonl"
    labels = config.unit_labels()
    owns_gateway = gateway is None
    try:
        notes = load_notes(config.notes_path)
        catalog = load_catalog_dir(config.catalog_dir)
        roles = load_roles(config.prompts_dir)
        debate_templates = load_debate_templates(config.prompts_dir)
        existing = {record.key: record for record in _read_resume_state(results_path)}
        if DEBATE_LABEL in labels:
            _drop_orphan_transcripts(debates_path, {
                (note_id, question_id)
                for note_id, question_id, label in existing if label == DEBATE_LABEL
            })
        out_dir.mkdir(parents=True, exist_ok=True)
        if owns_gateway:  # loads the mock fixtures; opens nothing yet
            gateway = Gateway(config.backend, seed=config.seed)
    except (EligoError, OSError) as exc:
        log.error("input error: %s", exc)
        return EXIT_INPUT

    # Writers open on their first append: after the resume repairs above,
    # and never for a file this run adds nothing to.
    writer = _JsonlWriter(results_path)
    debate_writer = _JsonlWriter(debates_path)
    questions = list(catalog.questions.values())
    total_units = len(notes) * len(questions) * len(labels)

    new_records: list[ResultRecord] = []
    failed = 0
    skipped = 0
    unexpected: Exception | None = None
    # (pair, change in its parked requests), or (pair, 0) for an answer that
    # came on a sender thread.
    events: SimpleQueue[tuple[_Pair, int]] = SimpleQueue()
    running: set[_Pair] = set()  # pairs waiting on the gateway
    parked: set[_Pair] = set()  # of those, the ones whose requests are all parked
    engine = get_ident()

    def new_pair(note: AdmissionNote, question: QuestionSpec) -> _Pair:
        pair = _Pair(note, question, iter(labels),
                     on_park=lambda is_parked: events.put((pair, 1 if is_parked else -1)))
        return pair

    def answered(pair: _Pair, index: int, reply: str | None,
                 error: Exception | None) -> None:
        """Fill one slot of the pair's batch; the gateway calls this once per
        request, on this thread when it answers on the call."""
        if error is None:
            pair.replies[index] = reply
        else:
            pair.errors[index] = error
        if get_ident() == engine:
            pair.waiting -= 1
        else:
            events.put((pair, 0))

    pending = (new_pair(note, question) for note in notes for question in questions)

    def save(pair: _Pair, record: ResultRecord) -> None:
        writer.append(record.to_line())
        new_records.append(record)
        pair.records[record.pathway] = record

    def vote(pair: _Pair) -> ResultRecord | None:
        """The pair's vote over its role records, or None when one is missing."""
        members = [
            RoleAnswer(answer=record.answer, role_id=role_label.removeprefix("A-"),
                       elapsed_ms=record.elapsed_s * 1000.0)
            for role_label, record in pair.records.items()
        ]
        if len(members) != len(ROLE_IDS):
            return None
        return ResultRecord(
            pair.note.note_id, pair.question.question_id, VOTE_LABEL,
            answer=majority_vote(*members),
            elapsed_s=max(member.elapsed_ms for member in members) / 1000.0,
        )

    def finish(pair: _Pair, result) -> ResultRecord:
        """The record of the pair's current unit, from the unit's result."""
        note_id, question_id = pair.note.note_id, pair.question.question_id
        if pair.label != DEBATE_LABEL:
            return ResultRecord(note_id, question_id, pair.label, answer=result.answer,
                                elapsed_s=result.elapsed_ms / 1000.0)
        outcome, transcript = result
        debate_writer.append(_JSONL_ENCODER.encode({"note_id": note_id,
                                                    "question_id": question_id,
                                                    **transcript.to_dict()}))
        return ResultRecord(note_id, question_id, DEBATE_LABEL, answer=outcome,
                            elapsed_s=time.monotonic() - pair.started,
                            transcript=f"debates.jsonl:{note_id}|{question_id}")

    def advance(pair: _Pair) -> None:
        """Run the pair's units in label order until one waits on the gateway.

        The current unit is sent the replies of its batch once every request
        of the batch is answered.  A batch fails with its first error in
        batch order: a GatewayError fails the unit, and any other error
        propagates.
        """
        nonlocal failed, skipped
        while True:
            if pair.unit is not None:
                if pair.errors:
                    error = pair.errors[min(pair.errors)]
                    if not isinstance(error, GatewayError):
                        raise error
                    log.error("unit %s|%s|%s failed: %s", pair.note.note_id,
                              pair.question.question_id, pair.label, error)
                    failed += 1
                    pair.errors.clear()
                    pair.unit.close()
                    pair.unit = None
                    continue
                try:
                    requests = pair.unit.send(pair.replies)
                except StopIteration as stop:
                    pair.unit = None
                    save(pair, finish(pair, stop.value))
                    continue
                pair.replies = [None] * len(requests)
                pair.waiting = len(requests)
                for index, request in enumerate(requests):
                    gateway.call(request, partial(answered, pair, index),
                                 on_park=pair.on_park)
                if pair.waiting:
                    return
                continue  # answered on the call
            label = next(pair.labels, None)
            if label is None:
                return
            record = existing.get((pair.note.note_id, pair.question.question_id, label))
            if record is not None:
                skipped += 1
                pair.records[label] = record
            elif label == VOTE_LABEL:
                record = vote(pair)
                if record is None:
                    failed += 1
                else:
                    save(pair, record)
            else:
                if label == DEBATE_LABEL:
                    pair.unit = debate_unit(pair.question, pair.note, debate_templates)
                else:
                    pair.unit = role_unit(pair.question, pair.note,
                                          roles[label.removeprefix("A-")])
                pair.label, pair.started, pair.replies = label, time.monotonic(), None

    def run(pair: _Pair) -> None:
        """Advance the pair; an unexpected error ends it, to be raised later."""
        nonlocal unexpected
        try:
            advance(pair)
        except Exception as exc:
            if unexpected is None:
                unexpected = exc
            # A reply still on its way then finds nothing left to run.
            pair.unit, pair.labels = None, iter(())
            return
        if pair.waiting:
            running.add(pair)

    try:
        while True:
            # Admit pairs while fewer than ``workers`` are runnable.
            while len(running) - len(parked) < config.workers:
                pair = next(pending, None)
                if pair is None:
                    break
                run(pair)
            if not running:
                break
            pair, change = events.get()
            if change:
                pair.parked += change
            else:
                pair.waiting -= 1
            if pair.waiting and pair.parked == pair.waiting:
                parked.add(pair)
            else:
                parked.discard(pair)
            if not change and not pair.waiting:
                running.discard(pair)
                run(pair)
        if unexpected is not None:
            raise unexpected
    finally:
        writer.close()
        debate_writer.close()
        if owns_gateway:
            gateway.close()

    _write_verdicts(out_dir / "verdicts.jsonl", notes, catalog,
                    list(existing.values()) + new_records)

    manifest = {
        "schema": "eligo-manifest-v1",
        "config_digest": config.digest(),
        "engine_version": __version__,
        "backend": f"{config.backend.kind}:{config.backend.model_name}",
        "started_at": started_at,
        "finished_at": _utc_now(),
        "counts": {
            "notes": len(notes),
            "questions": len(questions),
            "unit_labels": labels,
            "total_units": total_units,
            "answered": len(new_records),
            "failed": failed,
            "skipped": skipped,
        },
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return EXIT_PARTIAL if failed else EXIT_OK


AnswersByNote = dict[str, dict[str, ParsedAnswer]]  # note id -> question id -> answer


def _answers_by_label(records: Iterable[ResultRecord]) -> dict[str, AnswersByNote]:
    """Group answers by label, then note, in one pass; later records win."""
    grouped: dict[str, AnswersByNote] = {}
    for record in records:
        grouped.setdefault(record.pathway, {}).setdefault(record.note_id, {})[
            record.question_id
        ] = record.answer
    return grouped


def _values(answers: Mapping[str, ParsedAnswer]) -> dict[str, Verdict]:
    """One note's answer values by question id, as the rules read them."""
    return {question_id: answer.value for question_id, answer in answers.items()}


def _write_verdicts(path: Path, notes, catalog: Catalog,
                    records: list[ResultRecord]) -> None:
    """Derive criterion and trial verdicts per answer stream; rewrite wholesale."""
    by_label = _answers_by_label(records)

    scorable = [criterion for criterion in catalog.criteria.values()
                if criterion.rule_text]
    skipped_criteria = [criterion.criterion_id for criterion in
                        catalog.criteria.values() if not criterion.rule_text]
    if skipped_criteria:
        log.warning("criteria without rules skipped in verdicts: %s", skipped_criteria)

    # Each line is formatted from pre-encoded pieces in the sorted key order
    # of _JSONL_ENCODER, so it equals the encoding of the record dict.
    encode = _JSONL_ENCODER.encode
    criterion_ids = {criterion.criterion_id: encode(criterion.criterion_id)
                     for criterion in scorable}
    criterion_heads = {criterion_id: '{"criterion_id": ' + encoded + ', "met": '
                       for criterion_id, encoded in criterion_ids.items()}
    statuses = {status: encode(status.value) for status in TrialStatus}
    trial_tails = {trial.trial_id: ', "trial_id": ' + encode(trial.trial_id) + "}"
                   for trial in catalog.trials.values()}
    lines: list[str] = []
    for label in sorted(by_label):
        answers_by_note = by_label[label]
        label_tail = ', "pathway": ' + encode(label)
        for note in notes:
            note_field = ', "note_id": ' + encode(note.note_id)
            criterion_middle = note_field + label_tail + ', "stable": '
            trial_middle = note_field + label_tail + ', "status": '
            verdicts = verdicts_for_note(scorable,
                                         _values(answers_by_note.get(note.note_id, {})))
            by_id = {verdict.criterion_id: verdict for verdict in verdicts}
            for verdict in verdicts:
                lines.append(criterion_heads[verdict.criterion_id]
                             + ("true" if verdict.met else "false") + criterion_middle
                             + ("true" if verdict.stable else "false") + "}")
            for trial in catalog.trials.values():
                try:
                    rollup = trial_verdict(trial, by_id)
                except MissingVerdictError as exc:
                    log.warning("trial %s skipped for %s: %s",
                                trial.trial_id, note.note_id, exc)
                    continue
                # A failing criterion has a verdict, so it is in scorable.
                failing = ", ".join([criterion_ids[criterion_id]
                                     for criterion_id in rollup.failing])
                lines.append('{"failing": [' + failing + "]" + trial_middle
                             + statuses[rollup.status] + trial_tails[trial.trial_id])
    temp = path.with_suffix(".tmp")
    temp.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    temp.replace(path)


# -- evaluation ---------------------------------------------------------------

def cmd_evaluate(
    results_path: str | Path,
    gold_path: str | Path,
    catalog_dir: str | Path,
    out_dir: str | Path,
    *,
    notes_path: str | Path | None = None,
    positive_class: str = "YES",
) -> int:
    """Score a results file against gold; write metrics.json, report.md, CSV."""
    import csv

    from .evaluation import (
        LABEL_OF,
        counterfactual_rate,
        grounding_check,
        normalize_notes,
        render_report,
        score_criteria,
        score_questions,
        timing_stats,
    )

    try:
        catalog = load_catalog_dir(catalog_dir)
        gold = load_gold(gold_path)
        records = read_results(results_path)
        notes = load_notes(notes_path) if notes_path else None
        validate_gold(gold, catalog, notes=notes,
                      results=((record.note_id, record.question_id) for record in records))
    except (EligoError, OSError) as exc:
        log.error("input error: %s", exc)
        return EXIT_INPUT

    try:
        positive = Verdict(positive_class)
    except ValueError:
        log.error("positive class must be YES, NO or UNKNOWN, got %r", positive_class)
        return EXIT_INPUT

    notes_by_id = {note.note_id: note for note in notes} if notes is not None else None
    note_texts = normalize_notes(notes) if notes is not None else None
    question_level: dict[str, dict] = {}
    criterion_level: dict[str, dict] = {}
    scorable = [criterion for criterion in catalog.criteria.values()
                if criterion.rule_text]
    for label, answers_by_note in sorted(_answers_by_label(records).items()):
        scored = {(note_id, question_id): answer
                  for note_id, answers in answers_by_note.items()
                  for question_id, answer in answers.items()
                  if (note_id, question_id) in gold.question_labels}
        report = score_questions(scored, gold, catalog, positive_class=positive)
        if notes_by_id is not None:
            report.counterfactual = counterfactual_rate(
                scored, gold, notes_by_id, note_texts=note_texts
            )
        document = report.to_dict()
        document["unscored_count"] = (sum(map(len, answers_by_note.values()))
                                      - len(scored))
        question_level[label] = document

        if gold.criterion_labels:
            verdicts = {}
            for note_id, answers in sorted(answers_by_note.items()):
                labelled = [criterion for criterion in scorable
                            if (note_id, criterion.criterion_id) in gold.criterion_labels]
                for verdict in verdicts_for_note(labelled, _values(answers)):
                    verdicts[(note_id, verdict.criterion_id)] = verdict
            criterion_level[label] = score_criteria(verdicts, gold).to_dict()

    metrics = {
        "schema": "eligo-metrics-v1",
        "question_level": question_level,
        "criterion_level": criterion_level,
        "timing": {label: stats.to_dict() for label, stats in timing_stats(
            (record.pathway, record.elapsed_s) for record in records).items()},
    }

    rows = []
    for record in sorted(records, key=attrgetter("note_id", "question_id", "pathway")):
        note_id = record.note_id
        gold_label = gold.question_labels.get((note_id, record.question_id))
        grounding = ""
        if notes_by_id is not None:
            grounding = LABEL_OF[grounding_check(record.answer, notes_by_id[note_id],
                                                 note_texts[note_id])]
        rows.append((note_id, record.question_id,
                     LABEL_OF[gold_label] if gold_label else "",
                     LABEL_OF[record.answer.value], grounding,
                     f"{record.elapsed_s:.6f}", record.pathway))

    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.json").write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        (out_dir / "report.md").write_text(render_report(metrics), encoding="utf-8")
        with open(out_dir / "per_question.csv", "w", encoding="utf-8",
                  newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("note_id", "question_id", "gold", "predicted", "grounding",
                             "elapsed_s", "pathway"))
            writer.writerows(rows)
    except OSError as exc:
        log.error("cannot write %s: %s", exc.filename or out_dir, exc.strerror or exc)
        return EXIT_INPUT
    return EXIT_OK


# -- conversion ---------------------------------------------------------------

def cmd_convert(
    criteria_path: str | Path,
    backends_path: str | Path,
    out_dir: str | Path,
    *,
    prompts_dir: str | Path | None = None,
) -> int:
    """Convert every criterion; write questions.json, criteria.json, report."""
    from .gateway import Gateway, backend_config_from_dict

    where = str(backends_path)
    try:
        backend_doc = load_json(backends_path)
        drafters = [Gateway(backend_config_from_dict(entry))
                    for entry in _require(backend_doc, "backends", list, where)]
        if not drafters:
            raise ConfigError(f"{where} lists no drafting backends")
        refiner = Gateway(backend_config_from_dict(
            _require(backend_doc, "refiner", dict, where)))
    except (EligoError, OSError) as exc:
        log.error("backend config error: %s", exc)
        return EXIT_CONFIG

    try:
        return _convert_all(criteria_path, out_dir, drafters, refiner, prompts_dir)
    finally:
        for gateway in (*drafters, refiner):
            gateway.close()


def _convert_all(
    criteria_path: str | Path,
    out_dir: str | Path,
    drafters: list[Gateway],
    refiner: Gateway,
    prompts_dir: str | Path | None,
) -> int:
    from .conversion import convert_criterion
    from .corpus import load_criteria, write_criteria, write_questions

    try:
        criteria = load_criteria(criteria_path)
    except (EligoError, OSError) as exc:
        log.error("input error: %s", exc)
        return EXIT_INPUT

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_questions = []
    updated_criteria = []
    report_lines = ["# Conversion report", ""]
    failures = 0
    for criterion in criteria.values():
        try:
            merged, updated, warnings = convert_criterion(
                criterion, drafters, refiner, prompts_dir=prompts_dir
            )
        except (EligoError, ValueError) as exc:  # ValueError: no backend drafted a question
            failures += 1
            updated_criteria.append(criterion)
            report_lines.append(f"## {criterion.criterion_id}: FAILED")
            report_lines.append(f"- {exc}")
            report_lines.append("")
            continue
        all_questions.extend(merged.questions)
        updated_criteria.append(updated)
        report_lines.append(
            f"## {criterion.criterion_id}: {len(merged.questions)} questions"
        )
        report_lines.append(f"- rule: {merged.rule_text or '(needs human authoring)'}")
        for warning in warnings:
            report_lines.append(f"- warning: {warning}")
        report_lines.append("")

    write_questions(out_dir / "questions.json", all_questions)
    write_criteria(out_dir / "criteria.json", updated_criteria)
    (out_dir / "conversion_report.md").write_text(
        "\n".join(report_lines).rstrip() + "\n", encoding="utf-8"
    )
    return EXIT_PARTIAL if failures else EXIT_OK


# -- report -------------------------------------------------------------------

def _check_report(report: Mapping, where: str) -> None:
    """Check the fields of one label's report that render_report formats."""
    _require(report, "answered_count", int, where, default=0)
    breakdowns = _require(report, "breakdowns", dict, where, default={})
    for group in breakdowns:
        _check_report(_require(breakdowns, group, dict, f"{where}: breakdowns"),
                      f"{where}: breakdowns: {group}")
    counterfactual = _optional(report, "counterfactual", dict, where)
    if counterfactual is not None:
        where = f"{where}: counterfactual"
        for key in ("rate", "rate_among_errors"):
            rate = counterfactual.get(key, 0.0)
            if isinstance(rate, bool) or not isinstance(rate, (int, float)):
                raise SchemaError(f"{where}: expected a number for {key!r}", field=key)
        _require(counterfactual, "count", int, where, default=0)


def cmd_report(metrics_path: str | Path, out_path: str | Path | None = None) -> int:
    """Render an existing metrics.json to Markdown without recomputation."""
    from .evaluation import render_report

    where = str(metrics_path)
    try:
        metrics = load_json(metrics_path)
        # Each level maps labels to report objects; the renderer reads both,
        # and the fields of the scoring levels' reports.
        for level in ("question_level", "criterion_level", "timing"):
            reports = _require(metrics, level, dict, where, default={})
            for label in reports:
                report = _require(reports, label, dict, f"{where}: {level}")
                if level != "timing":
                    _check_report(report, f"{where}: {level}: {label}")
    except (EligoError, OSError) as exc:
        log.error("cannot read metrics: %s", exc)
        return EXIT_INPUT
    rendered = render_report(metrics)
    if out_path is not None:
        try:
            Path(out_path).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            log.error("cannot write %s: %s", out_path, exc.strerror or exc)
            return EXIT_INPUT
    print(rendered, end="")
    return EXIT_OK
