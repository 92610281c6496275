"""Run orchestration: screen, evaluate, convert, report.

Screening appends one JSONL record per completed (note, question, pathway)
unit, so an interrupted run resumes by skipping keys already on disk.
Each (note, question) pair runs its units in label order: the roles, then
their vote, then the debate.  One engine loop on the calling thread does
all of the work but the backend calls: it renders each unit's requests,
submits them to the gateway, and parses, votes and appends as the replies
come back.  At most ``workers`` pairs are runnable at a time, meaning they
have a request queued or on the wire; a pair whose requests all wait out a
retry backoff is parked and does not count, so another pair starts in its
place.  Completion order across pairs is nondeterministic; downstream
consumers (and the determinism check) sort by key via canonicalization.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from queue import SimpleQueue
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from . import __version__
from .corpus import (
    AdmissionNote,
    Catalog,
    QuestionSpec,
    Verdict,
    load_catalog_dir,
    load_gold,
    load_notes,
)
from .errors import (
    ConfigError,
    EligoError,
    GatewayError,
    MissingVerdictError,
    SchemaError,
)
from .evaluation import (
    counterfactual_rate,
    grounding_check,
    normalize_notes,
    render_report,
    score_criteria,
    score_questions,
    timing_stats,
)
from .gateway import BackendConfig, Gateway, ParsedAnswer, Unit, backend_config_from_dict
from .pathway_a import ROLE_IDS, RoleAnswer, load_roles, majority_vote, role_unit
from .pathway_b import debate_unit, load_debate_templates
from .rules import trial_verdict, verdicts_for_note

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

# One compact, key-sorted encoder for every JSONL line; output is the same as
# json.dumps(record, ensure_ascii=False, sort_keys=True).
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


@dataclass
class RunConfig:
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
        try:
            backend = backend_config_from_dict(record["backend"])
            config = cls(
                backend=backend,
                notes_path=record["notes"],
                catalog_dir=record["catalog"],
                out_dir=record["out"],
                pathway=record.get("pathway", "both"),
                roles=tuple(record.get("roles", ["crc", "jd", "ie"])),
                vote=bool(record.get("vote", True)),
                gold_path=record.get("gold"),
                seed=record.get("seed"),
                prompts_dir=record.get("prompts"),
                workers=int(record.get("workers", 8)),
            )
        except KeyError as exc:
            raise ConfigError(f"run config is missing key {exc.args[0]!r}") from exc
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
        answer = ParsedAnswer(
            value=Verdict(record["value"]),
            rationale=record.get("rationale", ""),
            evidence=tuple(record.get("evidence", [])),
            provenance=record.get("provenance", ""),
            parse_fallback=bool(record.get("parse_fallback", False)),
        )
        return cls(
            note_id=record["note_id"],
            question_id=record["question_id"],
            pathway=record["pathway"],
            answer=answer,
            elapsed_s=float(record.get("elapsed_s", 0.0)),
            transcript=record.get("transcript"),
        )

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.note_id, self.question_id, self.pathway)


class _JsonlWriter:
    """Appends records to a JSONL file, one complete line each.

    The file is opened on the first append and kept open until close(), so
    a run that appends nothing creates no file.  Each line is flushed to the
    OS before append returns, so a process that dies loses at most the
    record it was writing.  Not thread-safe: the engine thread is the only
    writer.
    """

    def __init__(self, path: Path):
        self.path = path
        self._handle = None

    def append(self, record: dict) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(_JSONL_ENCODER.encode(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _parse_result(path: str | Path, line_no: int, line: bytes) -> ResultRecord:
    """Parse one ``results.jsonl`` line; SchemaError names a line that is not a
    UTF-8 JSON record."""
    try:
        return ResultRecord.from_dict(json.loads(line.decode("utf-8")))
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: unreadable result record", line=line_no) from exc


def read_results(path: str | Path) -> list[ResultRecord]:
    """Load result records from a completed (or partial but clean) run."""
    with open(path, "rb") as handle:
        return [_parse_result(path, line_no, line)
                for line_no, line in enumerate(handle, start=1) if line.strip()]


def _read_appended_jsonl(
    path: Path, parse: Callable[[int, bytes], T]
) -> list[tuple[bytes, T]]:
    """Read a JSONL file that an interrupted run may have appended to.

    Returns ``(line, parse(line_no, line))`` for each non-blank line.  A
    final line that ``parse`` rejects with SchemaError is torn (half-written)
    and is truncated away so later appends land on a clean file; on any
    earlier line the error propagates.  Lines are bytes split on b"\n", so
    a crash that cut a multi-byte character, or a U+2028 that
    ``ensure_ascii=False`` left unescaped, cannot split a line.
    """
    if not path.exists():
        return []
    raw = path.read_bytes()
    lines = [(line_no, line) for line_no, line in enumerate(raw.split(b"\n"), start=1)
             if line.strip()]
    rows: list[tuple[bytes, T]] = []
    for line_no, line in lines:
        try:
            rows.append((line, parse(line_no, line)))
        except SchemaError:
            if line_no != lines[-1][0]:
                raise
            log.warning("truncating torn final line of %s", path)
            path.write_bytes(raw[:raw.rindex(line)])
            return rows
    if raw and not raw.endswith(b"\n"):
        # The crash fell between a record and its newline: end the line.
        with open(path, "ab") as handle:
            handle.write(b"\n")
    return rows


def _read_resume_state(path: Path) -> list[ResultRecord]:
    """Like read_results, but repairs a torn (half-written) final line."""
    rows = _read_appended_jsonl(path, partial(_parse_result, path))
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
    def transcript_key(line_no: int, line: bytes) -> tuple[str, str] | None:
        try:
            record = json.loads(line.decode("utf-8"))
            return (record["note_id"], record["question_id"])
        except (ValueError, KeyError, TypeError):
            log.warning("dropping unreadable line %d of %s", line_no, path)
            return None

    rows = _read_appended_jsonl(path, transcript_key)
    kept = {key: line for line, key in rows if key in answered}
    if len(kept) == len(rows):
        return
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_bytes(b"".join(line + b"\n" for line in kept.values()))
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
    return datetime.now(timezone.utc).isoformat()


@dataclass(eq=False)
class _Pair:
    """One (note, question) pair on its way through its units in label order."""

    note: AdmissionNote
    question: QuestionSpec
    labels: Iterator[str]
    on_reply: Callable[[Future], None]  # a request of the batch was answered
    on_park: Callable[[bool], None]  # a request of the batch was (un)parked
    records: dict[str, ResultRecord] = field(default_factory=dict)  # by label
    label: str = ""  # the current unit's label
    unit: Unit | None = None  # the current unit, if it calls the backend
    started: float = 0.0  # when the current unit started
    batch: list[Future] = field(default_factory=list)  # what the unit waits on
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
    try:
        config.validate()
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG

    try:
        notes = load_notes(config.notes_path)
        catalog = load_catalog_dir(config.catalog_dir)
    except (EligoError, OSError) as exc:
        log.error("input error: %s", exc)
        return EXIT_INPUT

    started_at = _utc_now()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.jsonl"
    debates_path = out_dir / "debates.jsonl"

    labels = config.unit_labels()
    try:
        existing = {record.key: record for record in _read_resume_state(results_path)}
    except (EligoError, OSError) as exc:
        log.error("cannot resume: %s", exc)
        return EXIT_INPUT
    if DEBATE_LABEL in labels:
        _drop_orphan_transcripts(debates_path, {
            (note_id, question_id)
            for note_id, question_id, label in existing if label == DEBATE_LABEL
        })

    roles = load_roles(config.prompts_dir)
    debate_templates = load_debate_templates(config.prompts_dir)
    # Writers open on their first append: after the resume repairs above,
    # and never for a file this run adds nothing to.
    writer = _JsonlWriter(results_path)
    debate_writer = _JsonlWriter(debates_path)
    owns_gateway = gateway is None
    if owns_gateway:
        gateway = Gateway(config.backend, seed=config.seed)
    questions = list(catalog.questions.values())
    total_units = len(notes) * len(questions) * len(labels)

    new_records: list[ResultRecord] = []
    failed = 0
    skipped = 0
    unexpected: Exception | None = None
    # (pair, change in its parked requests), or (pair, 0) for an answer.
    events: SimpleQueue[tuple[_Pair, int]] = SimpleQueue()
    running: set[_Pair] = set()  # pairs waiting on the gateway
    parked: set[_Pair] = set()  # of those, the ones whose requests are all parked

    def new_pair(note: AdmissionNote, question: QuestionSpec) -> _Pair:
        pair = _Pair(note, question, iter(labels),
                     on_reply=lambda _future: events.put((pair, 0)),
                     on_park=lambda is_parked: events.put((pair, 1 if is_parked else -1)))
        return pair

    pending = (new_pair(note, question) for note in notes for question in questions)

    def save(pair: _Pair, record: ResultRecord) -> None:
        writer.append(record.to_dict())
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
        debate_writer.append({"note_id": note_id, "question_id": question_id,
                              **transcript.to_dict()})
        return ResultRecord(note_id, question_id, DEBATE_LABEL, answer=outcome,
                            elapsed_s=time.monotonic() - pair.started,
                            transcript=f"debates.jsonl:{note_id}|{question_id}")

    def advance(pair: _Pair, batch: list[Future] | None = None) -> None:
        """Run the pair's units in label order until one waits on the gateway.

        ``batch`` is the answered batch the current unit waits on.  A batch
        fails with its first error in batch order: a GatewayError fails the
        unit, and any other error propagates.
        """
        nonlocal failed, skipped
        while True:
            if pair.unit is not None:
                replies = None
                if batch is not None:
                    try:
                        replies = [future.result() for future in batch]
                    except GatewayError as exc:
                        log.error("unit %s|%s|%s failed: %s", pair.note.note_id,
                                  pair.question.question_id, pair.label, exc)
                        failed += 1
                        pair.unit.close()
                        pair.unit = batch = None
                        continue
                try:
                    requests = pair.unit.send(replies)
                except StopIteration as stop:
                    pair.unit = batch = None
                    save(pair, finish(pair, stop.value))
                    continue
                batch = [gateway.submit(request, on_park=pair.on_park)
                         for request in requests]
                if all(future.done() for future in batch):
                    continue  # answered on submit
                pair.batch, pair.waiting = batch, len(batch)
                for future in batch:
                    future.add_done_callback(pair.on_reply)
                return
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
                pair.label, pair.started = label, time.monotonic()

    def run(pair: _Pair, batch: list[Future] | None = None) -> None:
        """Advance the pair; an unexpected error ends it, to be raised later."""
        nonlocal unexpected
        try:
            advance(pair, batch)
        except Exception as exc:
            if unexpected is None:
                unexpected = exc
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
                batch, pair.batch = pair.batch, []
                run(pair, batch)
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


AnswersByNote = dict[str, dict[str, Verdict]]  # note id -> question id -> answer


def _answers_by_label(records: Iterable[ResultRecord]) -> dict[str, AnswersByNote]:
    """Group answer values by label, then note, in one pass; later records win."""
    grouped: dict[str, AnswersByNote] = {}
    for record in records:
        grouped.setdefault(record.pathway, {}).setdefault(record.note_id, {})[
            record.question_id
        ] = record.answer.value
    return grouped


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

    lines: list[str] = []
    for label in sorted(by_label):
        answers_by_note = by_label[label]
        for note in notes:
            verdicts = verdicts_for_note(scorable, answers_by_note.get(note.note_id, {}))
            for verdict in verdicts:
                lines.append(_JSONL_ENCODER.encode({
                    "note_id": note.note_id,
                    "criterion_id": verdict.criterion_id,
                    "met": verdict.met,
                    "stable": verdict.stable,
                    "pathway": label,
                }))
            for trial in catalog.trials.values():
                try:
                    rollup = trial_verdict(trial, verdicts)
                except MissingVerdictError as exc:
                    log.warning("trial %s skipped for %s: %s",
                                trial.trial_id, note.note_id, exc)
                    continue
                lines.append(_JSONL_ENCODER.encode({
                    "note_id": note.note_id,
                    "trial_id": trial.trial_id,
                    "status": rollup.status.value,
                    "failing": list(rollup.failing),
                    "pathway": label,
                }))
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
    try:
        catalog = load_catalog_dir(catalog_dir)
        gold = load_gold(gold_path)
        records = read_results(results_path)
        notes = load_notes(notes_path) if notes_path else None
    except (EligoError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        log.error("input error: %s", exc)
        return EXIT_INPUT

    for record in records:
        if record.question_id not in catalog.questions:
            log.error("results reference unknown question id %r", record.question_id)
            return EXIT_INPUT
    for _, question_id in gold.question_labels:
        if question_id not in catalog.questions:
            log.error("gold references unknown question id %r", question_id)
            return EXIT_INPUT
    for _, criterion_id in gold.criterion_labels:
        if criterion_id not in catalog.criteria:
            log.error("gold references unknown criterion id %r", criterion_id)
            return EXIT_INPUT
    if notes is not None:
        known_notes = {note.note_id for note in notes}
        for record in records:
            if record.note_id not in known_notes:
                log.error("results reference unknown note id %r", record.note_id)
                return EXIT_INPUT
        for note_id, _ in list(gold.question_labels) + list(gold.criterion_labels):
            if note_id not in known_notes:
                log.error("gold references unknown note id %r", note_id)
                return EXIT_INPUT

    notes_by_id = {note.note_id: note for note in notes} if notes is not None else None

    by_label: dict[str, dict[tuple[str, str], ParsedAnswer]] = {}
    timing_records: list[tuple[str, float]] = []
    for record in records:
        by_label.setdefault(record.pathway, {})[
            (record.note_id, record.question_id)
        ] = record.answer
        timing_records.append((record.pathway, record.elapsed_s))
    answers_by_label = _answers_by_label(records)

    try:
        positive = Verdict(positive_class)
    except ValueError:
        log.error("positive class must be YES, NO or UNKNOWN, got %r", positive_class)
        return EXIT_INPUT

    note_texts = normalize_notes(notes) if notes is not None else None
    question_level: dict[str, dict] = {}
    criterion_level: dict[str, dict] = {}
    scorable = [criterion for criterion in catalog.criteria.values()
                if criterion.rule_text]
    try:
        for label, predictions in sorted(by_label.items()):
            scored = {key: answer for key, answer in predictions.items()
                      if key in gold.question_labels}
            report = score_questions(scored, gold, catalog, positive_class=positive)
            if notes_by_id is not None:
                report.counterfactual = counterfactual_rate(
                    scored, gold, notes_by_id, note_texts=note_texts
                )
            document = report.to_dict()
            document["unscored_count"] = len(predictions) - len(scored)
            question_level[label] = document

            if gold.criterion_labels:
                verdicts = {}
                for note_id, answers in sorted(answers_by_label[label].items()):
                    labelled = [criterion for criterion in scorable
                                if (note_id, criterion.criterion_id) in gold.criterion_labels]
                    for verdict in verdicts_for_note(labelled, answers):
                        verdicts[(note_id, verdict.criterion_id)] = verdict
                criterion_level[label] = score_criteria(verdicts, gold).to_dict()
    except KeyError as exc:
        log.error("scoring error: %s", exc)
        return EXIT_INPUT

    metrics = {
        "schema": "eligo-metrics-v1",
        "question_level": question_level,
        "criterion_level": criterion_level,
        "timing": {label: stats.to_dict()
                   for label, stats in timing_stats(timing_records).items()},
    }

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / "report.md").write_text(render_report(metrics), encoding="utf-8")

    with open(out_dir / "per_question.csv", "w", encoding="utf-8", newline="") as handle:
        fields = ["note_id", "question_id", "gold", "predicted", "grounding",
                  "elapsed_s", "pathway"]
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for record in sorted(records, key=lambda r: r.key):
            gold_label = gold.question_labels.get((record.note_id, record.question_id))
            grounding = ""
            if notes_by_id is not None:
                note = notes_by_id.get(record.note_id)
                if note is not None:
                    grounding = grounding_check(
                        record.answer, note, note_texts[record.note_id]
                    ).value
            writer.writerow({
                "note_id": record.note_id,
                "question_id": record.question_id,
                "gold": gold_label.value if gold_label else "",
                "predicted": record.answer.value.value,
                "grounding": grounding,
                "elapsed_s": f"{record.elapsed_s:.6f}",
                "pathway": record.pathway,
            })
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
    try:
        with open(backends_path, "r", encoding="utf-8") as handle:
            backend_doc = json.load(handle)
        drafters = [Gateway(backend_config_from_dict(entry))
                    for entry in backend_doc["backends"]]
        if not drafters:
            raise ConfigError("backends.json lists no drafting backends")
        refiner = Gateway(backend_config_from_dict(backend_doc["refiner"]))
    except (ConfigError, KeyError, json.JSONDecodeError, OSError) as exc:
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
    from .errors import ConversionError, RefinementParseError

    try:
        criteria = load_criteria(criteria_path)
    except (EligoError, OSError, KeyError) as exc:
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
        except (ConversionError, RefinementParseError, ValueError, EligoError) as exc:
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

def cmd_report(metrics_path: str | Path, out_path: str | Path | None = None) -> int:
    """Render an existing metrics.json to Markdown without recomputation."""
    try:
        with open(metrics_path, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        log.error("cannot read metrics: %s", exc)
        return EXIT_INPUT
    rendered = render_report(metrics)
    if out_path is not None:
        Path(out_path).write_text(rendered, encoding="utf-8")
    print(rendered, end="")
    return EXIT_OK
