"""Run orchestration: screen, evaluate, convert, report.

Screening runs every (note, question, pathway) unit and keeps each backend
reply in ``calls.jsonl`` under a key made from what was sent, so a rerun
sends only the calls whose inputs are new.  Each (note, question) pair is
one generator that runs its units in label order: the roles, then their
vote, then the debate.  ``gateway.run_units`` drives every pair from one
loop on the calling thread, which does all of the work but the backend
calls: rendering, parsing and voting.  At most ``workers`` pairs are
runnable at a time (see run_units).  Each pair returns what it answered,
and run_units returns the pairs in order, so the outputs are written in pair
order whatever order the pairs end in.  Conversion runs one unit per
criterion on the same driver, and writes in input order too.
"""

import json
import logging
import math
import os
import sys
import threading
import time
from contextlib import suppress
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, TextIO

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
    collector_paused,
    config_from_dict,
    json_value,
    jsonl_values,
    load_catalog_dir,
    load_gold,
    load_json,
    load_notes,
    validate_gold,
)
from .errors import (
    CatalogError,
    ConfigError,
    EligoError,
    GatewayError,
    SchemaError,
)
from .rules import (IDENTIFIER_RE, TrialStatus, answers_view, trial_verdict,
                    verdicts_for_note)

if TYPE_CHECKING:
    from .gateway import BackendConfig, ChatRequest, Done, Gateway, Unit
    from .pathway_a import RoleAnswer

# A module that not every command runs is imported where it is used, so that
# evaluate loads no gateway or pathway and screen no evaluation: the gateway
# and pathways in RunConfig, cmd_screen and cmd_convert, evaluation in
# cmd_evaluate and cmd_report.  So are the standard modules of one command:
# csv for evaluate, and datetime and hashlib (which loads OpenSSL, which is
# slow) for screen.

log = logging.getLogger(__name__)

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
# Each answer value as a line holds it, without a call to the enum's value.
_ENCODED_VERDICTS = {member: _encode_str(member.value) for member in Verdict}


class RunConfig(NamedTuple):
    """One screening run, as run.json gives it: backend, inputs, output
    directory, pathways, prompt overrides and how many pairs run at once."""

    backend: "BackendConfig"
    notes: str
    catalog: str
    out: str
    pathway: str = "both"  # "A" | "B" | "both"
    roles: tuple[str, ...] = ("crc", "jd", "ie")
    vote: bool = True
    prompts: str | None = None  # template override directory
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
            raise ConfigError(f"invalid backend config: {exc}") from exc

    @classmethod
    def from_dict(cls, record: Mapping) -> "RunConfig":
        from .gateway import backend_config_from_dict

        return config_from_dict(cls, record, "run", backend=backend_config_from_dict)

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


class BackendsConfig(NamedTuple):
    """The backends of a conversion, as backends.json gives them: the
    drafters, and the refiner that merges their drafts."""

    refiner: "BackendConfig"
    backends: tuple["BackendConfig", ...] = ()

    def validate(self) -> None:
        if not self.backends:
            raise ValueError("'backends' lists no drafting backend")
        names = [cfg.model_name for cfg in self.backends]
        for index, name in enumerate(names):
            if name in names[:index]:  # tags, fixtures and rule proposals are keyed on it
                raise ValueError(f"two drafting backends are named {name!r}")

    @classmethod
    def from_dict(cls, record: Mapping) -> "BackendsConfig":
        from .gateway import backend_config_from_dict

        return config_from_dict(cls, record, "backends", backends=backend_config_from_dict,
                                refiner=backend_config_from_dict)


class ResultRecord(NamedTuple):
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
        ``elapsed_s`` a finite, non-negative int or float (not a bool) in
        seconds, and ``parse_fallback`` a bool.  An absent optional
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
        answer = ParsedAnswer(value, rationale, tuple(evidence), provenance, parse_fallback)
        return cls(note_id, question_id, pathway, answer, _seconds(record), transcript)

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
                f'"value": {_ENCODED_VERDICTS[answer.value]}}}')

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.note_id, self.question_id, self.pathway)


class _StoredReply(str):
    """A reply as calls.jsonl holds it, read from the file or just written:
    ``elapsed_s`` is the seconds its call took, as the line records them,
    and ``sent`` is true when this run sent the call."""

    elapsed_s = 0.0
    sent = False


class _ReplyStore:
    """``gateway`` behind the replies kept in calls.jsonl (``calls``).

    A reply's key is the SHA-256 of the backend's kind, model and base_url,
    the request's tag and its ``inputs``, each text led by its length.  A
    request whose key ``replies`` holds is answered from it on the calling
    thread; any other goes to ``gateway``, and its reply is appended as one
    flushed line before its callback gets it.  Either way the callback gets
    a _StoredReply.  A failed append sets ``failed`` and fails the call."""

    def __init__(self, gateway: "Gateway", backend: "BackendConfig", calls: "TextIO",
                 replies: Mapping[str, _StoredReply]):
        from hashlib import sha256  # hashlib loads OpenSSL, which is slow

        self._sha256, self.gateway, self.calls, self.replies = sha256, gateway, calls, replies
        self._backend = "".join([f"{len(text)}:{text}" for text in
                                 (backend.kind, backend.model_name, backend.base_url or "")])
        self.failed = False
        self._lock = threading.Lock()  # appends come from sender threads too

    def call(self, request: "ChatRequest", done: "Done", *,
             on_park: "Callable[[bool], None] | None" = None) -> None:
        tag = request.tag
        key = self._sha256(f"{self._backend}{len(tag)}:{tag}{request.inputs}".encode()).hexdigest()
        if (stored := self.replies.get(key)) is not None:
            return done(stored, None)
        started = time.monotonic()

        def keep(reply: str | None, error: Exception | None) -> None:
            if error is None:
                elapsed_s = time.monotonic() - started
                line = (f'{{"elapsed_s": {float.__repr__(elapsed_s)}, '
                        f'"key": "{key}", "reply": {_encode_str(reply)}, '
                        f'"tag": {_encode_str(tag)}}}\n')
                try:
                    with self._lock:
                        self.calls.write(line)
                        self.calls.flush()
                except OSError as exc:
                    self.failed, reply, error = True, None, exc
                else:
                    reply = _StoredReply(reply)
                    reply.elapsed_s, reply.sent = elapsed_s, True
            done(reply, error)

        self.gateway.call(request, keep, on_park=on_park)


def write_output(path: str | Path, data: str) -> int:
    """Replace ``path`` with ``data``, in UTF-8, through ``<name>.tmp``;
    EXIT_OK, or EXIT_INPUT after one error naming ``path``, not the scratch
    file that an OSError names, and with the scratch file removed."""
    scratch = Path(f"{path}.tmp")
    try:
        scratch.write_bytes(data.encode("utf-8"))
        os.replace(scratch, path)
    except OSError as exc:
        with suppress(OSError):
            scratch.unlink()
        return _cannot_write(path, exc)
    return EXIT_OK


def write_stdout(text: str) -> int:
    """Write ``text`` to stdout and flush it; EXIT_OK, or EXIT_INPUT after one
    error naming ``<stdout>`` (a full device, say)."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        return _cannot_write("<stdout>", exc)
    return EXIT_OK


def _cannot_write(path: str | Path, exc: OSError) -> int:
    log.error("cannot write %s: %s", path, exc.strerror or exc)
    return EXIT_INPUT


_UNREADABLE = (ValueError, KeyError, TypeError, OverflowError)


def read_results(path: str | Path) -> list[ResultRecord]:
    """Load result records from a run; SchemaError naming the first line
    that is not one."""
    records = []
    for line_no, value in jsonl_values(Path(path).read_bytes(), partial(json_value, path)):
        try:
            records.append(ResultRecord.from_dict(value))
        except _UNREADABLE as exc:
            raise SchemaError(f"{path}: unreadable result record", line=line_no) from exc
    return records


def _unique_keys(path: str | Path, records: list[ResultRecord]) -> list[ResultRecord]:
    """``records``, unless two of them share a (note, question, label) key:
    then a SchemaError naming ``path`` and the first key read twice.  A run
    writes each key once, so a repeat is an edit or a concatenation, and
    scoring one of its answers would drop the other unseen."""
    if len({record.key for record in records}) < len(records):
        seen = set()
        for record in records:
            if record.key in seen:
                raise SchemaError(f"{path}: result key {record.key!r} appears twice")
            seen.add(record.key)
    return records


def _seconds(record: Mapping) -> float:
    """``record``'s finite, non-negative ``elapsed_s`` (0.0 when absent)."""
    elapsed_s = record.get("elapsed_s", 0.0)
    if type(elapsed_s) is not float:
        if type(elapsed_s) is not int:
            raise TypeError("elapsed_s must be a number")
        elapsed_s = float(elapsed_s)
    if not 0.0 <= elapsed_s < math.inf:  # NaN compares false
        raise ValueError(f"elapsed_s {elapsed_s} is not finite and non-negative")
    return elapsed_s


def _read_resume_state(path: Path) -> dict[str, _StoredReply]:
    """The replies that ``calls.jsonl`` holds, by key, from a file that an
    interruption may have cut short.

    A call record holds strings ``key``, ``tag`` and ``reply``, and
    ``elapsed_s`` as a result record does.  A final line that is not one
    (SchemaError naming the line) is torn (half-written) and is truncated
    away so later appends land on a clean file; on any earlier line the
    error propagates, and so does a key that two lines hold.  Lines are split
    on b"\n", so a crash that cut a multi-byte character, or a U+2028 that
    ``ensure_ascii=False`` left unescaped, cannot split a line.
    """
    if not path.exists():
        return {}
    raw = path.read_bytes()
    replies: dict[str, _StoredReply] = {}
    try:
        for line_no, value in jsonl_values(raw, partial(json_value, path)):
            try:
                key, tag, reply = value["key"], value["tag"], value["reply"]
                if not type(key) is type(tag) is type(reply) is str:
                    raise TypeError("key, tag and reply must be strings")
                stored = _StoredReply(reply)
                stored.elapsed_s = _seconds(value)
            except _UNREADABLE as exc:
                raise SchemaError(f"{path}: unreadable call record", line=line_no) from exc
            if key in replies:  # an error without a line, so never a torn line
                raise SchemaError(f"{path}: call key {key!r} appears twice")
            replies[key] = stored
    except SchemaError as exc:
        # The last non-blank line starts after the newline before the last
        # byte that is not whitespace.
        last_start = raw.rfind(b"\n", 0, len(raw.rstrip())) + 1
        if exc.line != raw.count(b"\n", 0, last_start) + 1:
            raise
        log.warning("truncating torn final line of %s", path)
        os.truncate(path, last_start)
        return replies
    if raw and not raw.endswith(b"\n"):
        # The crash fell between a line and its newline: end the line.
        with open(path, "ab") as handle:
            handle.write(b"\n")
    return replies


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
    return canonicalize_records(record.to_dict()
                                for record in _unique_keys(path, read_results(path)))


# -- screening ----------------------------------------------------------------

def _utc_now() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def cmd_screen(config: RunConfig, gateway: "Gateway | None" = None) -> int:
    """Answer every (note, question) unit through the reply store; roll up verdicts.

    A pre-built gateway may be injected (tests use this to script failures);
    by default one is constructed from the configured backend.  Every unit
    is timed by the call times that ``calls.jsonl`` records, whether this
    run sent the calls or read them, and results.jsonl and debates.jsonl
    are written in pair order (notes, then questions, then labels), so a
    replay writes the same bytes on any backend.  A unit whose call fails
    with a GatewayError writes no record and is counted as failed.  Any
    other error ends its pair and is raised once the other pairs are done,
    with ``calls.jsonl`` and the gateway closed; a failed append exits
    EXIT_INPUT.  A run without pathway B removes the ``debates.jsonl`` of an
    earlier run.
    """
    from .gateway import Gateway, run_units
    from .pathway_a import load_roles, majority_vote, role_unit
    from .pathway_b import DEBATE_TEMPLATES, debate_unit
    from .prompting import load_prompts

    try:
        config.validate()
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG

    started_at = _utc_now()
    out_dir = Path(config.out)
    calls_path = out_dir / "calls.jsonl"
    labels = config.unit_labels()
    owns_gateway = gateway is None
    with collector_paused():  # the inputs live until the end (see README)
        try:
            notes = load_notes(config.notes)
            catalog = load_catalog_dir(config.catalog)
            roles = load_roles(config.prompts)
            debate_templates = load_prompts(DEBATE_TEMPLATES, config.prompts)
            stored = _read_resume_state(calls_path)
            out_dir.mkdir(parents=True, exist_ok=True)
            if owns_gateway:  # loads the mock fixtures; opens nothing yet
                gateway = Gateway(config.backend)
        except (EligoError, OSError) as exc:
            log.error("input error: %s", exc)
            return EXIT_INPUT

    questions = list(catalog.questions.values())
    role_by_label = {label: roles[label.removeprefix("A-")]
                     for label in config.role_labels()}
    total_units = len(notes) * len(questions) * len(labels)

    def screen_pair(note: AdmissionNote, question: QuestionSpec) -> "Unit[list[tuple]]":
        """Run the pair's units in label order; return, for each unit that
        answered, its record, whether it sent a call, and its debates.jsonl
        line ("" but for the debate).

        A unit takes the sum over its batches of each batch's slowest call
        time, as calls.jsonl records it.  The vote is formed from the pair's
        role answers, takes the slowest of their times, and counts as
        sending when one of them did.  A pair started after an append has
        failed sends nothing.
        """
        answered: list[tuple[ResultRecord, bool, str]] = []
        if store.failed:
            return answered
        note_id, question_id = note.note_id, question.question_id
        members: list[RoleAnswer] = []  # the vote's
        missing: list[str] = []  # the labels of the roles that failed
        slowest = 0.0  # the vote's time: the largest of its members'
        members_sent = False
        for label in labels:
            role = role_by_label.get(label)
            if label == VOTE_LABEL:
                if missing:
                    log.error("unit %s|%s|%s failed: missing %s", note_id, question_id,
                              VOTE_LABEL, ", ".join(missing))
                else:
                    answered.append((ResultRecord(note_id, question_id, VOTE_LABEL,
                                                  majority_vote(*members), slowest),
                                     members_sent, ""))
                continue
            unit = (debate_unit(question, note, debate_templates) if role is None
                    else role_unit(question, note, role))
            elapsed_s, sent, replies = 0.0, False, None
            try:
                while True:
                    # An error thrown in here ends the unit without reaching
                    # it, as the role and debate units catch none.
                    replies = yield unit.send(replies)
                    elapsed_s += max([reply.elapsed_s for reply in replies], default=0.0)
                    sent = sent or any([reply.sent for reply in replies])
            except StopIteration as stop:
                result = stop.value
            except GatewayError as error:
                log.error("unit %s|%s|%s failed: %s", note_id, question_id, label, error)
                missing.append(label)
                continue
            if role is not None:
                members.append(result)
                slowest = max(slowest, elapsed_s)
                members_sent = members_sent or sent
                answered.append((ResultRecord(note_id, question_id, label, result.answer,
                                              elapsed_s), sent, ""))
                continue
            outcome, transcript = result
            line = _JSONL_ENCODER.encode({"note_id": note_id, "question_id": question_id,
                                          **transcript.to_dict()}) + "\n"
            answered.append((ResultRecord(note_id, question_id, DEBATE_LABEL, outcome, elapsed_s,
                                          f"debates.jsonl:{note_id}|{question_id}"), sent, line))
        return answered

    try:
        with open(calls_path, "a", encoding="utf-8") as calls:
            store = _ReplyStore(gateway, config.backend, calls, stored)
            pairs = run_units((screen_pair(note, question)
                               for note in notes for question in questions), store, config.workers)
    except OSError as exc:  # only calls.jsonl raises one
        return _cannot_write(calls_path, exc)
    finally:
        if owns_gateway:
            gateway.close()

    records = [record for answered in pairs for record, _, _ in answered]
    skipped = sum([not sent for answered in pairs for _, sent, _ in answered])
    failed = total_units - len(records)
    outputs = {"results.jsonl": "".join([record.to_line() + "\n" for record in records])}
    if DEBATE_LABEL in labels:
        outputs["debates.jsonl"] = "".join([line for answered in pairs for _, _, line in answered])
    for name, text in outputs.items():
        if status := write_output(out_dir / name, text):
            return status
    if DEBATE_LABEL not in labels:  # an earlier run's transcripts have no results now
        try:
            (out_dir / "debates.jsonl").unlink(missing_ok=True)
        except OSError as exc:
            return _cannot_write(out_dir / "debates.jsonl", exc)
    if status := _write_verdicts(out_dir / "verdicts.jsonl", notes, catalog, records):
        return status

    manifest = {
        "schema": "eligo-manifest-v1",
        "engine_version": __version__,
        "backend": f"{config.backend.kind}:{config.backend.model_name}",
        "started_at": started_at,
        "finished_at": _utc_now(),
        "counts": {
            "notes": len(notes),
            "questions": len(questions),
            "unit_labels": labels,
            "total_units": total_units,
            "answered": len(records) - skipped,
            "failed": failed,
            "skipped": skipped,
        },
    }
    return (write_output(out_dir / "manifest.json",
                         json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            or (EXIT_PARTIAL if failed else EXIT_OK))


AnswersByNote = dict[str, dict[str, ParsedAnswer]]  # note id -> question id -> answer


def _answers_by_label(records: Iterable[ResultRecord]) -> dict[str, AnswersByNote]:
    """Group answers by label, then note, in one pass; later records win."""
    grouped: dict[str, AnswersByNote] = {}
    for record in records:
        grouped.setdefault(record.pathway, {}).setdefault(record.note_id, {})[
            record.question_id
        ] = record.answer
    return grouped


def _values(answers: Mapping[str, ParsedAnswer]) -> Mapping[str, Verdict]:
    """One note's answer values by question id, as the rules read them."""
    return answers_view({question_id: answer.value
                         for question_id, answer in answers.items()})


def _write_verdicts(path: Path, notes, catalog: Catalog,
                    records: list[ResultRecord]) -> int:
    """Derive criterion and trial verdicts per answer stream; write_output them."""
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
    # Every criterion with a rule gets a verdict for every note, so the trials
    # that cannot roll up are the ones that name a criterion without one.
    trials = []
    for trial in catalog.trials.values():
        unruled = sorted(set(trial.criterion_ids).difference(criterion_ids))
        if unruled:
            log.warning("trial %s skipped in verdicts: no rule for %s", trial.trial_id, unruled)
        else:
            trials.append(trial)
    statuses = {status: encode(status.value) for status in TrialStatus}
    trial_tails = {trial.trial_id: ', "trial_id": ' + encode(trial.trial_id) + "}"
                   for trial in trials}
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
            for trial in trials:
                rollup = trial_verdict(trial, by_id)
                # A failing criterion has a verdict, so it is in scorable.
                failing = ", ".join([criterion_ids[criterion_id]
                                     for criterion_id in rollup.failing])
                lines.append('{"failing": [' + failing + "]" + trial_middle
                             + statuses[rollup.status] + trial_tails[trial.trial_id])
    return write_output(path, "\n".join(lines) + ("\n" if lines else ""))


# -- evaluation ---------------------------------------------------------------

@collector_paused()  # what it builds lives until it returns, and has few cycles
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
    import io

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
        records = _unique_keys(results_path, read_results(results_path))
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
    rows, groundings = [], {}  # label -> (note id, question id) -> grounding
    for record in records:
        note_id = record.note_id
        gold_label = gold.question_labels.get((note_id, record.question_id))
        grounding = ""
        if notes_by_id is not None:
            grounding = grounding_check(record.answer, notes_by_id[note_id],
                                        note_texts[note_id])
            groundings.setdefault(record.pathway, {})[note_id, record.question_id] = grounding
            grounding = LABEL_OF[grounding]
        rows.append((note_id, record.question_id,
                     LABEL_OF[gold_label] if gold_label else "",
                     LABEL_OF[record.answer.value], grounding,
                     f"{record.elapsed_s:.6f}", record.pathway))
    rows.sort(key=itemgetter(0, 1, 6))  # by note, question and label

    question_level: dict[str, dict] = {}
    criterion_level: dict[str, dict] = {}
    scorable = [criterion for criterion in catalog.criteria.values()
                if criterion.rule_text]
    # Each note's gold-labelled criteria, found once for every label.
    labelled = {note_id: [criterion for criterion in scorable
                          if (note_id, criterion.criterion_id) in gold.criterion_labels]
                for note_id in {note_id for note_id, _ in gold.criterion_labels}}
    for label, answers_by_note in sorted(_answers_by_label(records).items()):
        scored = {(note_id, question_id): answer
                  for note_id, answers in answers_by_note.items()
                  for question_id, answer in answers.items()
                  if (note_id, question_id) in gold.question_labels}
        report = score_questions(scored, gold, catalog, positive_class=positive)
        if notes_by_id is not None:
            report = report._replace(counterfactual=counterfactual_rate(
                scored, gold, notes_by_id, groundings=groundings[label]))
        document = report.to_dict()
        document["unscored_count"] = (sum(map(len, answers_by_note.values()))
                                      - len(scored))
        question_level[label] = document

        if gold.criterion_labels:
            verdicts = {}
            for note_id, answers in sorted(answers_by_note.items()):
                for verdict in verdicts_for_note(labelled.get(note_id, ()),
                                                 _values(answers)):
                    verdicts[(note_id, verdict.criterion_id)] = verdict
            criterion_level[label] = score_criteria(verdicts, gold).to_dict()

    metrics = {
        "schema": "eligo-metrics-v1",
        "question_level": question_level,
        "criterion_level": criterion_level,
        "timing": {label: stats._asdict() for label, stats in timing_stats(
            (record.pathway, record.elapsed_s) for record in records).items()},
    }

    table = io.StringIO()
    csv.writer(table).writerows([("note_id", "question_id", "gold", "predicted",
                                  "grounding", "elapsed_s", "pathway"), *rows])
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _cannot_write(out_dir, exc)
    for name, text in (("metrics.json", json.dumps(metrics, indent=2, sort_keys=True) + "\n"),
                       ("report.md", render_report(metrics)),
                       ("per_question.csv", table.getvalue())):
        if status := write_output(out_dir / name, text):
            return status
    return EXIT_OK


# -- conversion ---------------------------------------------------------------

def cmd_convert(
    criteria_path: str | Path,
    backends_path: str | Path,
    out_dir: str | Path,
    *,
    prompts_dir: str | Path | None = None,
) -> int:
    """Convert every criterion; write questions.json, criteria.json, report.

    Each criterion is one unit on ``run_units``, so criteria overlap, and
    the outputs are written in criterion order whatever order they end in.
    The templates are read once, before the first backend call.
    """
    from .conversion import CONVERSION_TEMPLATES, Router, convert_criterion
    from .corpus import load_criteria
    from .gateway import Gateway, run_units
    from .prompting import load_prompts

    try:
        config = BackendsConfig.from_dict(load_json(backends_path))
        drafters = [Gateway(cfg) for cfg in config.backends]
        refiner = Gateway(config.refiner)
    except (EligoError, OSError) as exc:
        log.error("backend config error: %s", exc)
        return EXIT_CONFIG

    names = [cfg.model_name for cfg in config.backends]
    # A unit has one request on each drafter, or one on the refiner: this
    # many keep every backend at its bound while some units refine.
    runnable = max(cfg.max_inflight for cfg in config.backends) + config.refiner.max_inflight
    out_dir = Path(out_dir)
    try:
        criteria = list(load_criteria(criteria_path).values())
        for criterion in criteria:  # its question ids must be rule identifiers
            if not IDENTIFIER_RE.fullmatch(criterion.criterion_id):
                raise CatalogError(f"criterion id {criterion.criterion_id!r} cannot start "
                                   "a question id in a rule: use letters, digits, "
                                   "'_', '.' and '-', not starting with '.' or '-'")
        templates = load_prompts(CONVERSION_TEMPLATES, prompts_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        outcomes = run_units((convert_criterion(criterion, names, templates)
                              for criterion in criteria), Router(drafters, refiner), runnable)
    except (EligoError, OSError) as exc:
        log.error("input error: %s", exc)
        return EXIT_INPUT
    finally:
        for gateway in (*drafters, refiner):
            gateway.close()

    all_questions = []
    updated_criteria = []
    report_lines = ["# Conversion report", ""]
    failures = 0
    for criterion, outcome in zip(criteria, outcomes):
        if isinstance(outcome, Exception):
            failures += 1
            updated_criteria.append(criterion)
            report_lines += [f"## {criterion.criterion_id}: FAILED", f"- {outcome}", ""]
            continue
        all_questions.extend(outcome.questions)
        updated_criteria.append(outcome.criterion)
        report_lines += [f"## {criterion.criterion_id}: {len(outcome.questions)} questions",
                         f"- rule: {outcome.criterion.rule_text or '(needs human authoring)'}",
                         *(f"- warning: {warning}" for warning in outcome.warnings), ""]

    documents = {"questions": [question.to_dict() for question in all_questions],
                 "criteria": [criterion.to_dict() for criterion in updated_criteria]}
    outputs = [(f"{key}.json", json.dumps({key: items}, indent=2, ensure_ascii=False) + "\n")
               for key, items in documents.items()]
    outputs.append(("conversion_report.md", "\n".join(report_lines).rstrip() + "\n"))
    for name, text in outputs:
        if status := write_output(out_dir / name, text):
            return status
    return EXIT_PARTIAL if failures else EXIT_OK


# -- report -------------------------------------------------------------------

def _check_numbers(record: Mapping, keys: tuple[str, ...], where: str) -> None:
    """Each of ``keys`` that ``record`` holds is a finite int or float, which
    render_report can format as a float; a bool is not a number."""
    for key in keys:
        value = record.get(key, 0.0)
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int past any float
            finite = False
        if not finite:
            raise SchemaError(f"{where}: expected a number for {key!r}", field=key)


def _check_report(report: Mapping, where: str) -> None:
    """Check the fields of one label's report that render_report formats."""
    _check_numbers(report, ("precision", "recall", "f1", "accuracy", "accuracy_triclass"),
                   where)
    _require(report, "answered_count", int, where, default=0)
    breakdowns = _require(report, "breakdowns", dict, where, default={})
    for group in breakdowns:
        _check_report(_require(breakdowns, group, dict, f"{where}: breakdowns"),
                      f"{where}: breakdowns: {group}")
    counterfactual = _optional(report, "counterfactual", dict, where)
    if counterfactual is not None:
        where = f"{where}: counterfactual"
        _check_numbers(counterfactual, ("rate", "rate_among_errors"), where)
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
                at = f"{where}: {level}: {label}"
                if level != "timing":
                    _check_report(report, at)
                    continue
                _check_numbers(report, ("mean", "p50", "p90", "max"), at)
                if _require(report, "count", int, at, default=0) < 0:
                    raise SchemaError(f"{at}: expected a non-negative int for 'count'",
                                      field="count")
    except (EligoError, OSError) as exc:
        log.error("cannot read metrics: %s", exc)
        return EXIT_INPUT
    rendered = render_report(metrics)
    if out_path is not None and (status := write_output(out_path, rendered)):
        return status
    return write_stdout(rendered)
