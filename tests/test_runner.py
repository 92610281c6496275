import concurrent.futures
import errno
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eligo.evaluation
import eligo.gateway
import eligo.pathway_a
import eligo.pathway_b
import eligo.prompting
import eligo.rules
import eligo.runner
from eligo.cli import main as cli_main
from eligo.corpus import (
    AdmissionNote,
    Catalog,
    Category,
    CriterionKind,
    CriterionSpec,
    QuestionSpec,
    TaskType,
    TrialSpec,
    Verdict,
    load_catalog_dir,
    load_notes,
)
from eligo.errors import BackendError, ConfigError
from eligo.gateway import (
    BackendConfig,
    ChatRequest,
    Gateway,
    ParsedAnswer,
    backend_config_from_dict,
    mock_resolve,
)
from eligo.pathway_a import load_roles
from eligo.prompting import question_request
from eligo.rules import trial_verdict, verdicts_for_note
from eligo.runner import (
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PARTIAL,
    BackendsConfig,
    ResultRecord,
    RunConfig,
    _JSONL_ENCODER,
    _ReplyStore,
    _read_resume_state,
    _write_verdicts,
    canonicalize_records,
    canonicalize_results_file,
    cmd_convert,
    cmd_evaluate,
    cmd_report,
    cmd_screen,
    read_results,
)

from conftest import build_mini_fixtures, make_mock_gateway
from test_rules import reference_eval_rule, reference_sensitivity


class _FlakyTransport:
    """Mock transport that refuses specific tags; everything else succeeds."""

    def __init__(self, fixtures, broken_substring):
        self.fixtures = fixtures
        self.broken_substring = broken_substring
        self.calls = 0

    def send(self, req):
        self.calls += 1
        if self.broken_substring in req.tag:
            raise BackendError("backend refused the request", status=400,
                               body_excerpt="scripted failure")
        return mock_resolve(req, self.fixtures)


def flaky_gateway(broken_substring):
    return make_mock_gateway(
        transport=_FlakyTransport(build_mini_fixtures(), broken_substring))


class _FileWatchingTransport:
    """Mock transport that reads a file as each call starts."""

    def __init__(self, fixtures, path):
        self.fixtures = fixtures
        self.path = path
        self.snapshots = []

    def send(self, req):
        path = self.path
        self.snapshots.append(path.read_text() if path.exists() else "")
        return mock_resolve(req, self.fixtures)


class _ScriptedTransport:
    """Mock transport that logs each attempt and answer, and fails on cue.

    ``refuse`` maps a tag to the error its first attempt raises; ``latency``
    maps a tag to the seconds each of its attempts takes.
    """

    def __init__(self, refuse=None, latency=None):
        self.fixtures = build_mini_fixtures()
        self.refuse = dict(refuse or {})
        self.latency = latency or {}
        self.log = []  # ("sent" | "answered", tag), in order
        self._lock = threading.Lock()

    def send(self, req):
        with self._lock:
            self.log.append(("sent", req.tag))
            error = self.refuse.pop(req.tag, None)
        time.sleep(self.latency.get(req.tag, 0.0))
        if error is not None:
            raise error
        with self._lock:
            self.log.append(("answered", req.tag))
        return mock_resolve(req, self.fixtures)

    def sent(self):
        return [tag for kind, tag in self.log if kind == "sent"]


def scripted_gateway(transport, *, max_inflight, backoff_s=0.0):
    cfg = BackendConfig(kind="mock", max_inflight=max_inflight, backoff_s=backoff_s)
    return Gateway(cfg, transport=transport)


# A results line without its answer, and valid JSON that is not an object.
BAD_RESULT_LINES = [
    '{"note_id": "n1", "question_id": "m1"}',
    "[1, 2]",
    '{"note_id": "n1", "question_id": ["m1"], "pathway": "B", "value": "NO"}',
    '{"note_id": "n1", "question_id": "m1", "pathway": "B", "value": "NO", "evidence": [1]}',
    '{"note_id": "n1", "question_id": "m1", "pathway": "B", "value": "NO", "elapsed_s": -1}',
    '{"note_id": "n1", "question_id": "m1", "pathway": "B", "value": "NO", "elapsed_s": "1"}',
    # One value per field that would not be written back as it was read:
    # a number past the largest float decodes to Infinity.
    '{"note_id": "n1", "question_id": "m1", "pathway": "B", "value": "NO", "elapsed_s": 1e400}',
    '{"note_id": "n1", "question_id": "m1", "pathway": "B", "value": "NO", '
    '"parse_fallback": "false"}',
    '{"note_id": "n1", "question_id": "m1", "pathway": "B", "value": "NO", "rationale": 5}',
    '{"note_id": "n1", "question_id": "m1", "pathway": "B", "value": "NO", "provenance": null}',
    '{"note_id": "n1", "question_id": "m1", "pathway": "B", "value": "NO", "transcript": 5}',
    '{"note_id": "n1", "question_id": "m1", "pathway": "B", "value": "NO", "evidence": "q"}',
]

# A results file in UTF-16: it starts with the bytes ff fe.
UTF16_RESULTS = (json.dumps({"note_id": "n1", "question_id": "m1", "pathway": "B",
                             "value": "NO"}) + "\n").encode("utf-16")


# SHA-256 of the outputs of test_outputs_match_pinned_digests.  They were
# computed before the evaluate path was optimized; a change that alters an
# output byte must say why and update them.
PINNED_DIGESTS = {
    "metrics.json": "c143c669492ca53d4ec14cd50fe346c0f291abd3385e5af924984e3977e378a5",
    "report.md": "aedf69b5ac9d54dc6dfe63f25ce591f17e71b60e9f4b3b37653e9e891ec6b4cc",
    "per_question.csv": "257617c0a0c22891e10bfa5625dffbae02eaf14f67b1f1af77d406658bf974ad",
    "verdicts.jsonl": "ed05024c8482325f1f9bf776a283a48fc4001c9608e1b0488c9ea18bcdeecab4",
}

# SHA-256 of the screen outputs of test_screen_outputs_match_pinned_digests:
# the canonical results.jsonl and the sorted lines of verdicts.jsonl and
# debates.jsonl, per pathway.  They were computed before the gateway
# completed calls through callbacks.
PINNED_SCREEN_DIGESTS = {
    "A": {
        "results.jsonl": "ec17453fd15b9a274ecf9b0f8f788992fee6c4f242cc16d5edb06706c8ebc4f9",
        "verdicts.jsonl": "e27dbf9daf9d8184ecd4b4ec6d96b981c67439951d287a83e2a1cf2fc4090a4c",
        # No debates: the digest of no lines.
        "debates.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "B": {
        "results.jsonl": "8366e9de7f5184ad3db09ef177ffa0e0455af3b4947b98cabfa3c84d8a27f563",
        "verdicts.jsonl": "f4289f2060c4b011f59cba0f20c5e4f43a5cc0d6f44c5ab0078b8ace95c7af05",
        "debates.jsonl": "d778507ebb0ebc5a1039ddd8f2409f788a66c0fd4e4cb71612087da73dcb1bf5",
    },
    "both": {
        "results.jsonl": "be8a2ad264349db58b614469340fa68162ac37de274d1c011314beb7a7c1477a",
        "verdicts.jsonl": "17cfe5b36b015970ae5944cccf82de204f9f833eab366f3a9c9ed73b0e62d528",
        "debates.jsonl": "d778507ebb0ebc5a1039ddd8f2409f788a66c0fd4e4cb71612087da73dcb1bf5",
    },
}


def assert_one_error_naming(caplog, path):
    """The command logged one one-line error that names ``path``."""
    errors = [record.getMessage() for record in caplog.records
              if record.levelname == "ERROR"]
    assert len(errors) == 1
    assert errors[0].startswith(f"cannot write {path}: ")
    assert "\n" not in errors[0]


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def canonical_outputs(out):
    """The canonical results.jsonl and the sorted lines of verdicts.jsonl and
    debates.jsonl (none when a file is absent) of a screen into ``out``."""
    texts = {"results.jsonl": canonicalize_results_file(out / "results.jsonl")}
    for name in ("verdicts.jsonl", "debates.jsonl"):
        path = out / name
        lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
        texts[name] = "".join(line + "\n" for line in sorted(lines))
    return texts


def rewrite_calls(out, edit):
    """Rewrite ``out``'s calls.jsonl with each line's record passed through
    ``edit``, which returns the record to keep or None to drop it."""
    path = out / "calls.jsonl"
    kept = [edit(record) for record in read_jsonl(path)]
    path.write_text("".join(json.dumps(record, ensure_ascii=False) + "\n"
                            for record in kept if record is not None), encoding="utf-8")


def count_template_loads(monkeypatch) -> list[str]:
    """The names ``prompting.load_template`` is called with from now on."""
    loads = []
    load = eligo.prompting.load_template

    def counting_load(name, prompts_dir=None):
        loads.append(name)
        return load(name, prompts_dir)

    monkeypatch.setattr(eligo.prompting, "load_template", counting_load)
    return loads


def run_config(workspace, **overrides):
    raw = dict(workspace["run_config"])
    raw.update(overrides)
    return RunConfig.from_dict(raw)


class TestRunConfig:
    def test_vote_requires_all_roles(self, mini_workspace):
        with pytest.raises(ConfigError):
            run_config(mini_workspace, roles=["crc"], vote=True)

    def test_unknown_pathway(self, mini_workspace):
        with pytest.raises(ConfigError):
            run_config(mini_workspace, pathway="C")

    def test_unknown_role(self, mini_workspace):
        with pytest.raises(ConfigError):
            run_config(mini_workspace, roles=["crc", "rn", "ie"], vote=False)

    def test_missing_key(self, mini_workspace):
        raw = dict(mini_workspace["run_config"])
        del raw["notes"]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)


class TestCmdScreen:
    def test_full_run_record_counts(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        records = read_jsonl(mini_workspace["out"] / "results.jsonl")
        # 2 notes x 3 questions x (3 roles + vote + debate)
        assert len(records) == 30
        labels = {record["pathway"] for record in records}
        assert labels == {"A-CRC", "A-JD", "A-IE", "A-vote", "B"}
        manifest = json.loads((mini_workspace["out"] / "manifest.json").read_text())
        counts = manifest["counts"]
        assert counts["answered"] == 30
        assert counts["failed"] == 0
        assert counts["skipped"] == 0
        assert counts["answered"] + counts["failed"] + counts["skipped"] == \
            counts["total_units"]

    def test_pathway_a_with_vote_record_arithmetic(self, mini_workspace):
        config = run_config(mini_workspace, pathway="A",
                            out=str(mini_workspace["root"] / "out_a"))
        assert cmd_screen(config) == EXIT_OK
        records = read_jsonl(mini_workspace["root"] / "out_a" / "results.jsonl")
        votes = [record for record in records if record["pathway"] == "A-vote"]
        roles = [record for record in records if record["pathway"].startswith("A-")
                 and record["pathway"] != "A-vote"]
        assert len(votes) == 2 * 3
        assert len(roles) == 2 * 3 * 3

    def test_invalid_config_exits_2_before_output(self, mini_workspace):
        raw = mini_workspace["run_config"]
        config = RunConfig(
            backend=BackendConfig(kind="mock"),
            notes=raw["notes"], catalog=raw["catalog"], out=raw["out"],
            pathway="A", roles=("crc",), vote=True,
        )
        assert cmd_screen(config) == EXIT_CONFIG
        assert not (mini_workspace["out"] / "results.jsonl").exists()

    def test_missing_notes_exits_3(self, mini_workspace):
        config = run_config(mini_workspace, notes=str(mini_workspace["root"] / "nope.jsonl"))
        assert cmd_screen(config) == EXIT_INPUT

    def test_two_runs_identical_after_canonicalization(self, mini_workspace):
        first = run_config(mini_workspace, out=str(mini_workspace["root"] / "out1"))
        second = run_config(mini_workspace, out=str(mini_workspace["root"] / "out2"))
        assert cmd_screen(first) == EXIT_OK
        assert cmd_screen(second) == EXIT_OK
        canonical_first = canonicalize_results_file(
            mini_workspace["root"] / "out1" / "results.jsonl")
        canonical_second = canonicalize_results_file(
            mini_workspace["root"] / "out2" / "results.jsonl")
        assert canonical_first == canonical_second

    def test_resume_sends_exactly_the_missing_call(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        out = mini_workspace["out"]
        baseline = canonical_outputs(out)
        calls_path = out / "calls.jsonl"
        lines = calls_path.read_text().splitlines()
        calls_path.write_text("\n".join(lines[:-1]) + "\n")
        gateway = make_mock_gateway(build_mini_fixtures())
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        assert gateway.transport.calls == 1
        assert calls_path.read_text().splitlines()[:-1] == lines[:-1]
        assert json.loads(calls_path.read_text().splitlines()[-1])["key"] == \
            json.loads(lines[-1])["key"]
        assert canonical_outputs(out) == baseline

    def test_resume_skips_everything_on_complete_run(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        calls = (mini_workspace["out"] / "calls.jsonl").read_bytes()
        assert len(calls.splitlines()) == 35  # 18 roles and 17 debate calls
        gateway = make_mock_gateway(build_mini_fixtures())
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        assert gateway.transport.calls == 0
        assert (mini_workspace["out"] / "calls.jsonl").read_bytes() == calls
        manifest = json.loads((mini_workspace["out"] / "manifest.json").read_text())
        counts = manifest["counts"]
        assert counts["answered"] == 0
        assert counts["skipped"] == 30
        assert counts["answered"] + counts["failed"] + counts["skipped"] == \
            counts["total_units"]

    def test_torn_final_line_tolerated(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        out = mini_workspace["out"]
        baseline = canonical_outputs(out)
        calls_path = out / "calls.jsonl"
        content = calls_path.read_text()
        calls_path.write_text(content + '{"elapsed_s": 0.1, "key": "')
        gateway = make_mock_gateway(build_mini_fixtures())
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        assert gateway.transport.calls == 0
        assert calls_path.read_text() == content
        assert canonical_outputs(out) == baseline

    @pytest.mark.parametrize("kept", [0, 1, 17, 34])
    def test_a_cut_calls_file_resumes_with_exactly_the_missing_calls(self, mini_workspace,
                                                                     kept):
        # A run killed after ``kept`` replies, halfway through writing the next.
        config = run_config(mini_workspace)
        fresh_out = mini_workspace["root"] / "fresh"
        assert cmd_screen(run_config(mini_workspace, out=str(fresh_out))) == EXIT_OK
        lines = (fresh_out / "calls.jsonl").read_bytes().splitlines(keepends=True)
        out = mini_workspace["out"]
        out.mkdir()
        (out / "calls.jsonl").write_bytes(b"".join(lines[:kept])
                                          + lines[kept][:len(lines[kept]) // 2])
        gateway = make_mock_gateway(build_mini_fixtures())
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        assert gateway.transport.calls == len(lines) - kept
        assert canonical_outputs(out) == canonical_outputs(fresh_out)
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        assert counts["answered"] + counts["failed"] + counts["skipped"] == 30

    def test_an_edited_question_and_note_are_asked_again(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        questions_path = mini_workspace["catalog"] / "questions.json"
        questions = json.loads(questions_path.read_text())
        assert questions["questions"][0]["question_id"] == "m1"
        questions["questions"][0]["text"] += " Count a {{note}} as stated."
        questions_path.write_text(json.dumps(questions))
        notes = read_jsonl(mini_workspace["notes"])
        assert notes[0]["note_id"] == "n1"
        sections = notes[0]["sections"]
        name = next(name for name, text in sections.items() if text)
        sections[name] += " Seen again |2| days later."
        mini_workspace["notes"].write_text("".join(json.dumps(note) + "\n" for note in notes))
        gateway = make_mock_gateway(build_mini_fixtures())
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        # Exactly the calls of (n1, m1), (n1, m2), (n1, m3) and (n2, m1): three
        # roles and a two-call debate each.
        assert gateway.transport.calls == 4 * 5
        fresh_out = mini_workspace["root"] / "fresh"
        assert cmd_screen(run_config(mini_workspace, out=str(fresh_out))) == EXIT_OK
        assert canonical_outputs(mini_workspace["out"]) == canonical_outputs(fresh_out)
        counts = json.loads((mini_workspace["out"] / "manifest.json").read_text())["counts"]
        assert (counts["answered"], counts["skipped"]) == (4 * 5, 30 - 4 * 5)

    def test_verdicts_cover_labels_and_trials(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        verdicts = read_jsonl(mini_workspace["out"] / "verdicts.jsonl")
        criterion_records = [v for v in verdicts if "criterion_id" in v]
        trial_records = [v for v in verdicts if "trial_id" in v]
        # 5 labels x 2 notes x 2 criteria, 5 labels x 2 notes x 1 trial
        assert len(criterion_records) == 20
        assert len(trial_records) == 10
        vote_n2 = {v["criterion_id"]: v for v in criterion_records
                   if v["pathway"] == "A-vote" and v["note_id"] == "n2"}
        assert vote_n2["mc1"]["met"] is True
        assert vote_n2["mc2"]["met"] is False
        statuses = {(v["pathway"], v["note_id"]): v["status"] for v in trial_records}
        assert statuses[("A-vote", "n2")] == "ELIGIBLE"
        assert statuses[("A-vote", "n1")] == "INELIGIBLE"

    def test_trial_without_rollup_warned_once(self, mini_workspace, caplog):
        criteria_path = mini_workspace["catalog"] / "criteria.json"
        criteria = json.loads(criteria_path.read_text())
        criteria["criteria"][0].update(rule="", needs_human_rule=True)  # mc1
        criteria_path.write_text(json.dumps(criteria))
        with caplog.at_level(logging.WARNING, logger="eligo.runner"):
            assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        assert [record.getMessage() for record in caplog.records
                if "mt1" in record.getMessage()] == \
            ["trial mt1 skipped in verdicts: no rule for ['mc1']"]
        verdicts = read_jsonl(mini_workspace["out"] / "verdicts.jsonl")
        # 5 labels x 2 notes x mc2, and no trial record.
        assert sorted({v.get("criterion_id") for v in verdicts}) == ["mc2"]
        assert len(verdicts) == 10

    def test_failed_units_exit_4_and_reconcile(self, mini_workspace, caplog):
        config = run_config(mini_workspace)
        # Both notes fail the JD role on question m2, which also blocks the
        # two dependent vote units.
        with caplog.at_level(logging.ERROR, logger="eligo.runner"):
            assert cmd_screen(config, gateway=flaky_gateway("m2|roleJD")) == EXIT_PARTIAL
        # One error line per failed unit: the two roles and the two votes.
        failures = sorted(record.getMessage() for record in caplog.records
                          if record.levelname == "ERROR")
        assert len(failures) == 4
        assert failures[0].startswith("unit n1|m2|A-JD failed: ")
        assert failures[1] == "unit n1|m2|A-vote failed: missing A-JD"
        assert failures[2].startswith("unit n2|m2|A-JD failed: ")
        assert failures[3] == "unit n2|m2|A-vote failed: missing A-JD"
        manifest = json.loads((mini_workspace["out"] / "manifest.json").read_text())
        counts = manifest["counts"]
        assert counts["failed"] == 4
        assert counts["answered"] == 26
        assert counts["answered"] + counts["failed"] + counts["skipped"] == \
            counts["total_units"]
        records = read_jsonl(mini_workspace["out"] / "results.jsonl")
        assert len(records) == 26  # partial results retained

    def test_resume_recovers_after_backend_fixed(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config, gateway=flaky_gateway("m2|roleJD")) == EXIT_PARTIAL
        # Backend healed: the resumed run answers only the 4 missing units.
        assert cmd_screen(config) == EXIT_OK
        manifest = json.loads((mini_workspace["out"] / "manifest.json").read_text())
        counts = manifest["counts"]
        assert counts["answered"] == 4
        assert counts["skipped"] == 26
        baseline = run_config(mini_workspace,
                              out=str(mini_workspace["root"] / "out_clean"))
        assert cmd_screen(baseline) == EXIT_OK
        assert canonicalize_results_file(mini_workspace["out"] / "results.jsonl") == \
            canonicalize_results_file(
                mini_workspace["root"] / "out_clean" / "results.jsonl")

    def test_all_units_failing_against_dead_backend(self, mini_workspace):
        raw = dict(mini_workspace["run_config"])
        raw["backend"] = {"kind": "http", "base_url": "http://127.0.0.1:9",
                          "model_name": "dead", "retry_limit": 0,
                          "backoff_s": 0.0, "timeout_ms": 300}
        config = RunConfig.from_dict(raw)
        assert cmd_screen(config) == EXIT_PARTIAL
        manifest = json.loads((mini_workspace["out"] / "manifest.json").read_text())
        counts = manifest["counts"]
        assert counts["failed"] == counts["total_units"] == 30
        assert counts["answered"] == 0

    def test_screen_over_http_backend(self, mini_workspace):
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                payload = json.dumps({"choices": [{"message": {
                    "role": "assistant", "content": '"Yes". Backed by the note.',
                }}]}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.01}, daemon=True)
        thread.start()
        try:
            raw = dict(mini_workspace["run_config"])
            raw["backend"] = {
                "kind": "http",
                "base_url": f"http://127.0.0.1:{server.server_address[1]}",
                "model_name": "intranet-model", "backoff_s": 0.0,
            }
            assert cmd_screen(RunConfig.from_dict(raw)) == EXIT_OK
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        records = read_jsonl(mini_workspace["out"] / "results.jsonl")
        assert len(records) == 30
        assert all(record["value"] == "YES" for record in records)

    def test_screen_respects_gateway_inflight_bound(self, mini_workspace):
        gateway = make_mock_gateway(build_mini_fixtures(), latency_s=0.002,
                                    max_inflight=2)
        config = run_config(mini_workspace, workers=16)
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        assert gateway.transport.peak_inflight <= 2

    def test_debate_transcripts_persisted(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        debates = read_jsonl(mini_workspace["out"] / "debates.jsonl")
        assert len(debates) == 6
        by_key = {(d["note_id"], d["question_id"]): d for d in debates}
        assert by_key[("n2", "m1")]["calls_used"] == 2
        assert by_key[("n2", "m2")]["calls_used"] == 3
        assert by_key[("n2", "m3")]["calls_used"] == 6
        assert all(d["rounds_used"] <= 2 for d in debates)
        results = read_results(mini_workspace["out"] / "results.jsonl")
        debate_record = next(r for r in results
                             if r.pathway == "B" and r.note_id == "n2"
                             and r.question_id == "m3")
        assert debate_record.transcript == "debates.jsonl:n2|m3"

    def test_resume_drops_orphan_transcript(self, mini_workspace):
        # A crash between the transcript append and the result append leaves
        # a transcript with no B result; resuming must not add a second one.
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        out = mini_workspace["out"]
        results_path = out / "results.jsonl"
        debates_path = out / "debates.jsonl"
        baseline = canonicalize_results_file(results_path)
        transcripts = {(d["note_id"], d["question_id"]): d
                       for d in read_jsonl(debates_path)}
        kept = [record for record in read_jsonl(results_path)
                if (record["note_id"], record["question_id"], record["pathway"])
                != ("n2", "m3", "B")]
        results_path.write_text("".join(json.dumps(record) + "\n" for record in kept))
        with open(debates_path, "a", encoding="utf-8") as handle:
            handle.write('{"note_id": "n1", "question_id": "m1", "rou')
        assert cmd_screen(config) == EXIT_OK
        debates = read_jsonl(debates_path)
        assert len(debates) == len(transcripts)
        assert {(d["note_id"], d["question_id"]): d for d in debates} == transcripts
        assert canonicalize_results_file(results_path) == baseline

    def test_prewritten_orphan_transcript_replaced(self, mini_workspace):
        out = mini_workspace["out"]
        out.mkdir()
        orphan = {"note_id": "n2", "question_id": "m2", "calls_used": 99}
        (out / "debates.jsonl").write_text(json.dumps(orphan) + "\n")
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        debates = read_jsonl(out / "debates.jsonl")
        keys = [(d["note_id"], d["question_id"]) for d in debates]
        assert len(keys) == len(set(keys)) == 6
        assert next(d for d in debates
                    if (d["note_id"], d["question_id"]) == ("n2", "m2"))["calls_used"] == 3

    def test_transcript_fused_with_a_torn_line_is_written_again(self, mini_workspace):
        # An earlier resume appended a complete transcript onto a torn line,
        # leaving an unreadable line mid-file; resuming must not crash on it.
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        out = mini_workspace["out"]
        debates_path = out / "debates.jsonl"
        transcripts = {(d["note_id"], d["question_id"]): d
                       for d in read_jsonl(debates_path)}
        lines = debates_path.read_text().splitlines()
        debates_path.write_text('{"note_id": "n1", "question_id": "m1", "rou'
                                + "\n".join(lines) + "\n")
        assert cmd_screen(config) == EXIT_OK
        # The rerun writes the file whole, so the transcript fused with the
        # torn line is back.
        debates = read_jsonl(debates_path)
        assert len(debates) == len(transcripts)
        assert {(d["note_id"], d["question_id"]): d for d in debates} == transcripts

    @pytest.mark.parametrize("line", [
        '{"note_id": ["n1"], "question_id": "m1"}',
        '{"note_id": "n1", "question_id": {"id": "m1"}}',
    ])
    def test_transcript_with_unhashable_ids_is_overwritten_on_resume(self, mini_workspace, line):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        debates_path = mini_workspace["out"] / "debates.jsonl"
        transcripts = sorted(debates_path.read_text().splitlines())
        with open(debates_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        assert cmd_screen(config) == EXIT_OK
        assert sorted(debates_path.read_text().splitlines()) == transcripts

    def test_pathway_a_run_removes_an_earlier_runs_debates_file(self, mini_workspace):
        # The transcripts would outlive the B results that point at them.
        out = mini_workspace["out"]
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        assert (out / "debates.jsonl").exists()
        assert cmd_screen(run_config(mini_workspace, pathway="A")) == EXIT_OK
        assert "B" not in {record["pathway"] for record in read_jsonl(out / "results.jsonl")}
        assert not (out / "debates.jsonl").exists()

    def test_a_debates_file_that_cannot_be_removed_exits_3_naming_it(self, mini_workspace,
                                                                     caplog):
        out = mini_workspace["out"]
        (out / "debates.jsonl" / "inside").mkdir(parents=True)
        assert cmd_screen(run_config(mini_workspace, pathway="A")) == EXIT_INPUT
        assert_one_error_naming(caplog, out / "debates.jsonl")

    def test_resume_keeps_replies_with_unicode_line_separators(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        out = mini_workspace["out"]
        odd = "\u2028second\u2029third\u0085fourth"

        def edit(record):
            if record["tag"] == "n1|m1|roleCRC":
                record["reply"] += odd
            return record

        rewrite_calls(out, edit)  # ensure_ascii=False leaves the separators as they are
        before = (out / "calls.jsonl").read_bytes()
        assert "\u2028".encode() in before
        gateway = make_mock_gateway(build_mini_fixtures())
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        assert gateway.transport.calls == 0
        assert (out / "calls.jsonl").read_bytes() == before
        (crc,) = [record for record in read_jsonl(out / "results.jsonl")
                  if record["provenance"] == "n1|m1|roleCRC"]
        assert crc["rationale"].endswith("\nsecond\nthird\nfourth")  # parse_answer's lines

    def test_call_missing_final_newline_completed(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        out = mini_workspace["out"]
        baseline = canonical_outputs(out)
        calls_path = out / "calls.jsonl"
        lines = calls_path.read_text().splitlines()
        calls_path.write_text("\n".join(lines[:-2]) + "\n" + lines[-2])
        gateway = make_mock_gateway(build_mini_fixtures())
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        assert gateway.transport.calls == 1
        assert calls_path.read_text().splitlines()[:-1] == lines[:-1]
        assert canonical_outputs(out) == baseline

    def test_unreadable_call_mid_file_is_input_error(self, mini_workspace, caplog):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        calls_path = mini_workspace["out"] / "calls.jsonl"
        lines = calls_path.read_text().splitlines()
        lines[3] = json.dumps(dict(json.loads(lines[3]), reply=None))
        calls_path.write_text("\n".join(lines) + "\n")
        gateway = make_mock_gateway(build_mini_fixtures())
        assert cmd_screen(config, gateway=gateway) == EXIT_INPUT
        assert f"line 4: {calls_path}: unreadable call record" in caplog.text
        assert gateway.transport.calls == 0

    def test_a_calls_key_read_twice_exits_3_naming_file_and_key(self, mini_workspace,
                                                                caplog):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        calls_path = mini_workspace["out"] / "calls.jsonl"
        first = read_jsonl(calls_path)[0]
        # A valid final line whose key an earlier line holds: not a torn line.
        with open(calls_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(first, reply="other")) + "\n")
        before = calls_path.read_bytes()
        gateway = make_mock_gateway(build_mini_fixtures())
        assert cmd_screen(config, gateway=gateway) == EXIT_INPUT
        assert f"{calls_path}: call key {first['key']!r} appears twice" in caplog.text
        assert gateway.transport.calls == 0
        assert calls_path.read_bytes() == before

    def test_template_loads_independent_of_cohort_size(self, mini_workspace,
                                                        tmp_path, monkeypatch):
        loads = count_template_loads(monkeypatch)

        def screen_loads(notes_path, out_dir):
            loads.clear()
            config = run_config(mini_workspace, notes=str(notes_path), out=str(out_dir))
            assert cmd_screen(config) == EXIT_OK
            return sorted(loads)

        one_note = tmp_path / "one_note.jsonl"
        one_note.write_text(mini_workspace["notes"].read_text().splitlines()[0] + "\n")
        small = screen_loads(one_note, tmp_path / "small")
        # 2 notes x 3 questions x (3 roles + a 2- to 6-call debate).
        full = screen_loads(mini_workspace["notes"], tmp_path / "full")
        assert small == full == sorted(["role_crc", "role_jd", "role_ie", "stance_pos",
                                        "stance_neg", "judge_r1", "judge_final"])

    def test_each_reply_flushed_before_the_next_call(self, mini_workspace):
        # One loop and one call per role unit: call k starts after k replies.
        calls_path = mini_workspace["out"] / "calls.jsonl"
        gateway = make_mock_gateway(
            transport=_FileWatchingTransport(build_mini_fixtures(), calls_path))
        config = run_config(mini_workspace, pathway="A", vote=False, workers=1)
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        snapshots = gateway.transport.snapshots
        assert len(snapshots) == 2 * 3 * 3
        for persisted, text in enumerate(snapshots):
            *lines, tail = text.split("\n")
            assert tail == ""
            assert len([json.loads(line) for line in lines]) == persisted

    def test_transcript_missing_final_newline_ended_before_appends(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        out = mini_workspace["out"]
        results_path = out / "results.jsonl"
        debates_path = out / "debates.jsonl"
        transcripts = {(d["note_id"], d["question_id"]): d
                       for d in read_jsonl(debates_path)}
        # The crash fell after the last transcript and before its newline;
        # (n2, m3) has neither a result nor a transcript, so it reruns.
        debates_path.write_text("\n".join(
            json.dumps(d) for key, d in transcripts.items() if key != ("n2", "m3")))
        kept = [record for record in read_jsonl(results_path)
                if (record["note_id"], record["question_id"], record["pathway"])
                != ("n2", "m3", "B")]
        results_path.write_text("".join(json.dumps(record) + "\n" for record in kept))
        assert cmd_screen(config) == EXIT_OK
        debates = read_jsonl(debates_path)
        assert {(d["note_id"], d["question_id"]): d for d in debates} == transcripts
        assert len(debates) == len(transcripts)

    def test_pathway_a_screen_writes_no_debates_file(self, mini_workspace):
        assert cmd_screen(run_config(mini_workspace, pathway="A")) == EXIT_OK
        assert (mini_workspace["out"] / "results.jsonl").exists()
        assert not (mini_workspace["out"] / "debates.jsonl").exists()

    def test_resume_rewrites_transcripts_whole(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        out = mini_workspace["out"]
        results_path = out / "results.jsonl"
        debates_path = out / "debates.jsonl"
        transcripts = {(d["note_id"], d["question_id"]): d
                       for d in read_jsonl(debates_path)}
        rerun = {("n1", "m1"), ("n2", "m3")}
        kept = [record for record in read_jsonl(results_path)
                if record["pathway"] != "B"
                or (record["note_id"], record["question_id"]) not in rerun]
        results_path.write_text("".join(json.dumps(record) + "\n" for record in kept))
        gateway = make_mock_gateway(build_mini_fixtures())
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        # Every debate is replayed from calls.jsonl and its transcript
        # written once.
        assert gateway.transport.calls == 0
        debates = read_jsonl(debates_path)
        assert len(debates) == len(transcripts)
        assert {(d["note_id"], d["question_id"]): d for d in debates} == transcripts

    def test_unexpected_unit_error_raises_after_closing_files_and_gateway(
            self, mini_workspace, monkeypatch):
        opened = []

        def tracking_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            opened.append(handle)
            return handle

        closed_gateways = []

        class BuggyGateway(Gateway):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                send = self.transport.send

                def buggy_send(req):
                    if req.tag == "n2|m2|roleJD":
                        raise RuntimeError("bug in a unit")
                    return send(req)

                self.transport.send = buggy_send

            def close(self):
                closed_gateways.append(self)
                super().close()

        monkeypatch.setattr(eligo.runner, "open", tracking_open, raising=False)
        monkeypatch.setattr(eligo.gateway, "Gateway", BuggyGateway)
        with pytest.raises(RuntimeError, match="bug in a unit"):
            cmd_screen(run_config(mini_workspace))
        assert len(closed_gateways) == 1
        out = mini_workspace["out"]
        assert {Path(handle.name) for handle in opened} == {out / "calls.jsonl"}
        assert all(handle.closed for handle in opened)
        # The other loops still ran every other pair, and their replies are
        # kept; only the rest of the failing pair (JD, IE and a three-call
        # debate) was lost.  No result is written.
        assert len(read_jsonl(out / "calls.jsonl")) == 35 - 5
        assert not (out / "results.jsonl").exists()

    def test_a_failed_append_exits_3_naming_the_file(self, mini_workspace, caplog,
                                                     monkeypatch):
        class FullDisk:
            """A handle whose flush, and so its close, finds the disk full."""

            def __init__(self, handle):
                self.handle = handle
                self.write = handle.write

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.close()

            def flush(self):
                raise OSError(errno.ENOSPC, "No space left on device")

            def close(self):
                self.handle.close()
                self.flush()

        opened = []

        def full_disk_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            opened.append(handle)
            return FullDisk(handle) if Path(handle.name).name == "calls.jsonl" else handle

        closed_gateways = []
        sent = []  # the tag of every request the mock answers

        class ClosingGateway(Gateway):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                send = self.transport.send

                def recording_send(req):
                    sent.append(req.tag)
                    return send(req)

                self.transport.send = recording_send

            def close(self):
                closed_gateways.append(self)
                super().close()

        monkeypatch.setattr(eligo.runner, "open", full_disk_open, raising=False)
        monkeypatch.setattr(eligo.gateway, "Gateway", ClosingGateway)
        out = mini_workspace["out"]
        assert cmd_screen(run_config(mini_workspace)) == EXIT_INPUT
        assert_one_error_naming(caplog, out / "calls.jsonl")
        assert caplog.text.count("No space left on device") == 1
        assert out / "calls.jsonl" in {Path(handle.name) for handle in opened}
        assert all(handle.closed for handle in opened)
        assert len(closed_gateways) == 1
        # No pair starts after the failed append: the one call is the first pair's.
        assert sent == ["n1|m1|roleCRC"]
        for output in ("results.jsonl", "debates.jsonl", "verdicts.jsonl", "manifest.json"):
            assert not (out / output).exists()

    @pytest.mark.parametrize("name", ["results.jsonl", "debates.jsonl", "verdicts.jsonl",
                                      "manifest.json"])
    def test_an_output_that_cannot_be_written_exits_3_naming_it(self, mini_workspace,
                                                                caplog, name):
        out = mini_workspace["out"]
        (out / name).mkdir(parents=True)
        assert cmd_screen(run_config(mini_workspace)) == EXIT_INPUT
        assert_one_error_naming(caplog, out / name)
        assert not list(out.glob("*.tmp"))
        # The replies are on disk, so a rerun replays every unit from them.
        (out / name).rmdir()
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["counts"]["skipped"] == 30

    @pytest.mark.parametrize("workers", [4, 2])
    def test_unit_loops_keep_workers_calls_in_flight(self, mini_workspace, workers):
        gateway = make_mock_gateway(build_mini_fixtures(), latency_s=0.02,
                                    max_inflight=4)
        config = run_config(mini_workspace, pathway="A", workers=workers)
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        assert gateway.transport.peak_inflight == workers

    def test_vote_formed_before_the_next_pair_starts(self, mini_workspace, monkeypatch):
        # One runnable pair: the first pair's vote is formed, as the
        # transport's log shows, before the second pair sends its first call.
        transport = _ScriptedTransport()
        vote = eligo.pathway_a.majority_vote

        def logged_vote(*members):
            pair = "|".join(members[0].answer.provenance.split("|")[:2])
            with transport._lock:
                transport.log.append(("vote", pair))
            return vote(*members)

        monkeypatch.setattr(eligo.pathway_a, "majority_vote", logged_vote)
        config = run_config(mini_workspace, pathway="A", workers=1)
        assert cmd_screen(config, gateway=scripted_gateway(transport, max_inflight=3)) == EXIT_OK
        log = transport.log
        assert log.index(("vote", "n1|m1")) < log.index(("sent", "n1|m2|roleCRC"))

    def resume_without(self, workspace, tag):
        """Screen, drop the stored reply to ``tag``, and resume: the calls
        sent and the manifest's counts."""
        config = run_config(workspace)
        assert cmd_screen(config) == EXIT_OK
        out = workspace["out"]
        baseline = canonical_outputs(out)
        rewrite_calls(out, lambda record: None if record["tag"] == tag else record)
        gateway = make_mock_gateway(build_mini_fixtures())
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        assert canonical_outputs(out) == baseline
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        assert counts["answered"] + counts["skipped"] == 30
        return gateway.transport.calls, counts["answered"]

    def test_resume_rebuilds_missing_vote_from_role_records(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        out = mini_workspace["out"]
        baseline = canonical_outputs(out)
        results_path = out / "results.jsonl"
        results_path.write_text("".join(
            json.dumps(record) + "\n" for record in read_jsonl(results_path)
            if (record["note_id"], record["question_id"], record["pathway"])
            != ("n2", "m2", "A-vote")))
        gateway = make_mock_gateway(build_mini_fixtures())
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        assert gateway.transport.calls == 0
        assert canonical_outputs(out) == baseline

    def test_resume_answers_only_missing_role(self, mini_workspace):
        # The role is asked again, and its vote counts as answered with it.
        assert self.resume_without(mini_workspace, "n2|m2|roleJD") == (1, 2)

    def test_resume_answers_only_missing_debate_call(self, mini_workspace):
        assert self.resume_without(mini_workspace, "n2|m3|judge|final") == (1, 1)

    def test_resumed_vote_takes_its_slowest_members_time(self, mini_workspace):
        # 1e306 s is finite, so the replayed role and its vote write it as
        # their own time.
        config = run_config(mini_workspace, pathway="A")
        assert cmd_screen(config) == EXIT_OK

        def slow(record):
            if record["tag"] == "n2|m2|roleJD":
                record["elapsed_s"] = 1e306
            return record

        rewrite_calls(mini_workspace["out"], slow)
        gateway = make_mock_gateway(build_mini_fixtures())
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        assert gateway.transport.calls == 0
        times = {record["pathway"]: record["elapsed_s"]
                 for record in read_jsonl(mini_workspace["out"] / "results.jsonl")
                 if (record["note_id"], record["question_id"]) == ("n2", "m2")}
        assert times["A-JD"] == times["A-vote"] == 1e306

    def test_replayed_debate_takes_each_batchs_slowest_stored_time(self, mini_workspace):
        # The (n2, m3) debate sends its stances, the judge, the stances again
        # and the final judge: four batches.
        config = run_config(mini_workspace, pathway="B")
        assert cmd_screen(config) == EXIT_OK
        seconds = {"proponent|r1": 1.0, "opponent|r1": 2.0, "judge|r1": 4.0,
                   "proponent|r2": 16.0, "opponent|r2": 8.0, "judge|final": 32.0}

        def timed(record):
            note_id, question_id, stage = record["tag"].split("|", 2)
            if (note_id, question_id) == ("n2", "m3"):
                record["elapsed_s"] = seconds[stage]
            return record

        rewrite_calls(mini_workspace["out"], timed)
        assert cmd_screen(config) == EXIT_OK
        (debate,) = [record for record in read_jsonl(mini_workspace["out"] / "results.jsonl")
                     if (record["note_id"], record["question_id"]) == ("n2", "m3")]
        assert debate["elapsed_s"] == 2.0 + 4.0 + 16.0 + 32.0

    # A mock with latency answers on sender threads, so its pairs end in any order.
    @pytest.mark.parametrize("backend", [{}, {"mock_latency_s": 0.003, "max_inflight": 4}],
                             ids=["on_the_call", "waiting"])
    def test_a_replay_writes_the_same_results_and_metrics_bytes(self, mini_workspace, backend):
        out = mini_workspace["out"]
        config = run_config(mini_workspace,
                            backend={**mini_workspace["run_config"]["backend"], **backend})

        def screen_and_evaluate(name, gateway=None):
            assert cmd_screen(config, gateway=gateway) == EXIT_OK
            eval_dir = mini_workspace["root"] / name
            assert cmd_evaluate(out / "results.jsonl", mini_workspace["gold"],
                                mini_workspace["catalog"], eval_dir,
                                notes_path=mini_workspace["notes"]) == EXIT_OK
            return [path.read_bytes() for path in (out / "results.jsonl", out / "debates.jsonl",
                                                   eval_dir / "metrics.json")]

        sent = screen_and_evaluate("eval_sent")
        gateway = make_mock_gateway(build_mini_fixtures())
        assert screen_and_evaluate("eval_replayed", gateway) == sent
        assert gateway.transport.calls == 0

    def test_outputs_do_not_depend_on_completion_order(self, mini_workspace, monkeypatch):
        # As for convert: every pair is on the wire at once, and a later
        # pair's calls are answered sooner than an earlier pair's.
        out = mini_workspace["out"]

        def outputs():
            results = [json.loads(line) for line in
                       (out / "results.jsonl").read_text(encoding="utf-8").splitlines()]
            for record in results:
                del record["elapsed_s"]
            return results, (out / "debates.jsonl").read_bytes()

        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        plain = outputs()
        finished = []
        send = eligo.gateway.MockTransport.send

        def later_pairs_first(transport, req):
            note_id, question_id = req.tag.split("|")[:2]
            pair = 3 * int(note_id.removeprefix("n")) + int(question_id.removeprefix("m"))
            time.sleep(0.005 * (9 - pair))  # 0 ms for (n2, m3), 25 ms for (n1, m1)
            reply = send(transport, req)
            finished.append(req.tag)
            return reply

        monkeypatch.setattr(eligo.gateway.MockTransport, "send", later_pairs_first)
        for path in out.iterdir():
            path.unlink()
        gateway = make_mock_gateway(build_mini_fixtures(), latency_s=0.001, max_inflight=12)
        assert cmd_screen(run_config(mini_workspace), gateway=gateway) == EXIT_OK
        assert finished.index("n2|m3|roleIE") < finished.index("n1|m1|roleCRC")
        assert outputs() == plain

    def test_a_sent_units_time_is_read_from_its_calls(self, mini_workspace):
        # A role takes its call's time; a debate, the sum over its batches
        # of each batch's slowest call, as calls.jsonl records them.
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        out = mini_workspace["out"]
        calls = {record["tag"]: record["elapsed_s"] for record in read_jsonl(out / "calls.jsonl")}
        batches = [("proponent|r1", "opponent|r1"), ("judge|r1",),
                   ("proponent|r2", "opponent|r2"), ("judge|final",)]
        batches_used = {2: 1, 3: 2, 6: 4}  # by the calls the debate used
        calls_used = {(d["note_id"], d["question_id"]): d["calls_used"]
                      for d in read_jsonl(out / "debates.jsonl")}
        assert set(calls_used.values()) == {2, 3, 6}
        for record in read_jsonl(out / "results.jsonl"):
            pair, label = (record["note_id"], record["question_id"]), record["pathway"]
            if label == "A-vote":
                continue
            if label == "B":
                expected = 0.0
                for batch in batches[:batches_used[calls_used[pair]]]:
                    expected += max(calls["|".join((*pair, stage))] for stage in batch)
            else:
                expected = calls["|".join((*pair, "role" + label.removeprefix("A-")))]
            assert record["elapsed_s"] == expected

    def test_screened_vote_takes_its_slowest_members_time(self, mini_workspace):
        config = run_config(mini_workspace, pathway="A")
        assert cmd_screen(config) == EXIT_OK
        times: dict = {}
        for record in read_jsonl(mini_workspace["out"] / "results.jsonl"):
            times.setdefault((record["note_id"], record["question_id"]), {})[
                record["pathway"]] = record["elapsed_s"]
        for by_label in times.values():
            vote = by_label.pop("A-vote")
            assert vote == max(by_label.values())

    def test_parked_pair_lets_the_next_pair_on_the_wire(self, mini_workspace):
        # One runnable pair and one slot: while the first pair waits out the
        # backoff of its refused request, the second pair's goes on the wire.
        transport = _ScriptedTransport(
            refuse={"n1|m1|roleCRC": BackendError("rate limited", status=429)})
        gateway = scripted_gateway(transport, max_inflight=1, backoff_s=0.3)
        config = run_config(mini_workspace, pathway="A", workers=1)
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        sent = transport.sent()
        assert sent[:2] == ["n1|m1|roleCRC", "n1|m2|roleCRC"]
        assert sent.count("n1|m1|roleCRC") == 2
        manifest = json.loads((mini_workspace["out"] / "manifest.json").read_text())
        assert manifest["counts"]["answered"] == 2 * 3 * 4
        baseline = run_config(mini_workspace, pathway="A",
                              out=str(mini_workspace["root"] / "out_clean"))
        assert cmd_screen(baseline) == EXIT_OK
        assert canonicalize_results_file(mini_workspace["out"] / "results.jsonl") == \
            canonicalize_results_file(mini_workspace["root"] / "out_clean" / "results.jsonl")

    def test_failed_stance_fails_only_its_debate_once_its_sibling_answers(
            self, mini_workspace):
        transport = _ScriptedTransport(
            refuse={"n1|m2|opponent|r1": BackendError("bad request", status=400)},
            latency={"n1|m2|proponent|r1": 0.05})
        gateway = scripted_gateway(transport, max_inflight=2)
        config = run_config(mini_workspace, pathway="B", workers=1)
        assert cmd_screen(config, gateway=gateway) == EXIT_PARTIAL
        counts = json.loads((mini_workspace["out"] / "manifest.json").read_text())["counts"]
        assert (counts["answered"], counts["failed"]) == (5, 1)
        debates = read_jsonl(mini_workspace["out"] / "debates.jsonl")
        assert len(debates) == 5
        assert ("n1", "m2") not in {(d["note_id"], d["question_id"]) for d in debates}
        # The proponent is answered before the next pair's first request.
        log = transport.log
        assert log.index(("answered", "n1|m2|proponent|r1")) < \
            log.index(("sent", "n1|m3|proponent|r1"))

    @pytest.mark.parametrize("pathway", ["A", "B", "both"])
    def test_screen_outputs_match_pinned_digests(self, mini_workspace, pathway):
        out = mini_workspace["out"]
        assert cmd_screen(run_config(mini_workspace, pathway=pathway)) == EXIT_OK
        texts = {"results.jsonl": canonicalize_results_file(out / "results.jsonl")}
        for name in ("verdicts.jsonl", "debates.jsonl"):
            path = out / name
            lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
            texts[name] = "".join(line + "\n" for line in sorted(lines))
        digests = {name: hashlib.sha256(text.encode()).hexdigest()
                   for name, text in texts.items()}
        assert digests == PINNED_SCREEN_DIGESTS[pathway]

    def test_screen_without_latency_needs_no_future_and_no_thread(self, mini_workspace,
                                                                 monkeypatch):
        futures = []
        init = concurrent.futures.Future.__init__

        def counting_init(future):
            futures.append(future)
            init(future)

        senders = set()
        send = eligo.gateway.MockTransport.send

        def recording_send(transport, req):
            senders.add(threading.current_thread().name)
            return send(transport, req)

        monkeypatch.setattr(concurrent.futures.Future, "__init__", counting_init)
        monkeypatch.setattr(eligo.gateway.MockTransport, "send", recording_send)
        threads = set(threading.enumerate())
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        # The single-unit entry points run on the same loop.
        note = load_notes(mini_workspace["notes"])[0]
        question = next(iter(load_catalog_dir(mini_workspace["catalog"]).questions.values()))
        gateway = make_mock_gateway(build_mini_fixtures())
        role = eligo.pathway_a.answer_with_role(question, note, load_roles()["CRC"], gateway)
        outcome, _ = eligo.pathway_b.run_debate(question, note, gateway)
        screened = {record.key: record.answer for record
                    in read_results(mini_workspace["out"] / "results.jsonl")}
        key = (note.note_id, question.question_id)
        assert (role.answer, outcome) == (screened[(*key, "A-CRC")], screened[(*key, "B")])
        assert futures == []
        assert senders == {threading.current_thread().name}
        assert set(threading.enumerate()) <= threads
        counts = json.loads((mini_workspace["out"] / "manifest.json").read_text())["counts"]
        assert (counts["answered"], counts["failed"]) == (30, 0)

    def test_inline_and_sender_replies_mix_under_fast_thread_switching(
            self, mini_workspace):
        # The mock without latency answers on the engine's thread; a refused
        # first attempt is retried by a sender, so one batch can be answered
        # on both.  A lost update of the batch's count would hang the run or
        # let a unit go on without its replies.
        class RefuseFirstAttempts(_ScriptedTransport):
            waits = False

            def __init__(self):
                super().__init__()
                self.seen = set()

            def send(self, req):
                with self._lock:
                    first = req.tag not in self.seen
                    self.seen.add(req.tag)
                if first and ("JD" in req.tag or "opponent" in req.tag):
                    self.refuse[req.tag] = BackendError("rate limited", status=429)
                return super().send(req)

        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        baseline = canonicalize_results_file(mini_workspace["out"] / "results.jsonl")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(5):
                transport = RefuseFirstAttempts()
                gateway = scripted_gateway(transport, max_inflight=2)
                out = mini_workspace["root"] / f"out{attempt}"
                config = run_config(mini_workspace, out=str(out), workers=4)
                assert cmd_screen(config, gateway=gateway) == EXIT_OK
                gateway.close()
                assert canonicalize_results_file(out / "results.jsonl") == baseline
                answered = [tag for kind, tag in transport.log if kind == "answered"]
                assert len(answered) == len(set(answered)) == len(transport.seen)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("first, second, raised", [
        (RuntimeError("bug in a stance"), BackendError("bad request", status=400), True),
        (BackendError("bad request", status=400), RuntimeError("bug in a stance"), False),
    ])
    def test_batch_fails_with_its_first_error_in_batch_order(
            self, mini_workspace, first, second, raised):
        # The opponent's error comes first in time, the proponent's first
        # in the batch; the proponent's decides.
        transport = _ScriptedTransport(
            refuse={"n1|m2|proponent|r1": first, "n1|m2|opponent|r1": second},
            latency={"n1|m2|proponent|r1": 0.05})
        gateway = scripted_gateway(transport, max_inflight=2)
        config = run_config(mini_workspace, pathway="B", workers=1)
        if raised:
            with pytest.raises(RuntimeError, match="bug in a stance"):
                cmd_screen(config, gateway=gateway)
        else:
            assert cmd_screen(config, gateway=gateway) == EXIT_PARTIAL
            manifest = json.loads((mini_workspace["out"] / "manifest.json").read_text())
            assert (manifest["counts"]["answered"], manifest["counts"]["failed"]) == (5, 1)
        # The other pairs ran to the end either way, and their replies are kept.
        pairs = {tuple(call["tag"].split("|")[:2])
                 for call in read_jsonl(mini_workspace["out"] / "calls.jsonl")}
        assert len(pairs) == 5
        assert ("n1", "m2") not in pairs
        gateway.close()

    def test_screen_and_convert_leave_no_thread_behind(self, mini_workspace, tmp_path,
                                                      monkeypatch):
        senders = set()
        send = eligo.gateway.MockTransport.send

        def recording_send(transport, req):
            senders.add(threading.current_thread().name)
            return send(transport, req)

        monkeypatch.setattr(eligo.gateway.MockTransport, "send", recording_send)
        before = threading.active_count()
        raw = dict(mini_workspace["run_config"])
        raw["backend"] = dict(raw["backend"], mock_latency_s=0.001)
        assert cmd_screen(RunConfig.from_dict(raw)) == EXIT_OK
        assert threading.active_count() == before
        criteria_path, backends_path = TestCmdConvert().build_inputs(tmp_path)
        backends = json.loads(backends_path.read_text())
        for entry in (*backends["backends"], backends["refiner"]):
            entry["mock_latency_s"] = 0.001
        backends_path.write_text(json.dumps(backends))
        assert cmd_convert(criteria_path, backends_path, tmp_path / "out") == EXIT_OK
        assert threading.active_count() == before
        assert senders == {"eligo-sender"}

    def test_screen_without_sender_threads_fails_and_counts_every_unit(
            self, mini_workspace, caplog, monkeypatch):
        start = threading.Thread.start

        def refuse_senders(thread):
            if thread.name == "eligo-sender":
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", refuse_senders)
        raw = dict(mini_workspace["run_config"])
        raw["backend"] = dict(raw["backend"], mock_latency_s=0.001)
        codes = []
        # On its own thread, so that a gateway left waiting for senders
        # fails the test instead of hanging it.
        screen = threading.Thread(
            target=lambda: codes.append(cmd_screen(RunConfig.from_dict(raw))), daemon=True)
        with caplog.at_level(logging.WARNING):
            screen.start()
            screen.join(timeout=10.0)
        assert codes == [EXIT_PARTIAL]
        counts = json.loads((mini_workspace["out"] / "manifest.json").read_text())["counts"]
        assert counts["failed"] == counts["total_units"] == 30
        assert not [record for record in caplog.records if record.exc_info]
        assert "unit n1|m1|A-CRC failed: no sender thread could start: " \
            "can't start new thread" in caplog.messages


class TestCanonicalize:
    def test_strips_volatile_and_sorts(self):
        records = [
            {"note_id": "b", "question_id": "q", "pathway": "B", "value": "NO",
             "elapsed_s": 1.23},
            {"note_id": "a", "question_id": "q", "pathway": "B", "value": "YES",
             "elapsed_s": 9.99},
        ]
        canonical = canonicalize_records(records)
        lines = canonical.splitlines()
        assert json.loads(lines[0])["note_id"] == "a"
        assert "elapsed_s" not in canonical


class TestCmdEvaluate:
    def evaluate(self, workspace, **kwargs):
        out_dir = workspace["root"] / "eval"
        status = cmd_evaluate(
            workspace["out"] / "results.jsonl",
            workspace["gold"],
            workspace["catalog"],
            out_dir,
            **kwargs,
        )
        return status, out_dir

    def test_criterion_verdicts_match_screen_verdicts(self, mini_workspace, monkeypatch):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        written = {(v["pathway"], v["note_id"], v["criterion_id"]): (v["met"], v["stable"])
                   for v in read_jsonl(mini_workspace["out"] / "verdicts.jsonl")
                   if "criterion_id" in v}
        scored = []
        score_criteria = eligo.evaluation.score_criteria

        def capture(verdicts, gold):
            scored.append(dict(verdicts))
            return score_criteria(verdicts, gold)

        monkeypatch.setattr(eligo.evaluation, "score_criteria", capture)
        status, _ = self.evaluate(mini_workspace)
        assert status == EXIT_OK
        # Labels are scored in sorted order; gold labels all 2 x 2 criteria.
        labels = sorted({label for label, _, _ in written})
        assert len(scored) == len(labels)
        for label, verdicts in zip(labels, scored):
            assert len(verdicts) == 4
            for (note_id, criterion_id), verdict in verdicts.items():
                assert written[(label, note_id, criterion_id)] == \
                    (verdict.met, verdict.stable)

    def test_rules_parsed_once_per_criterion(self, mini_workspace, monkeypatch):
        calls = []
        parse_rule = eligo.rules.parse_rule

        def counting_parse(text):
            calls.append(text)
            return parse_rule(text)

        monkeypatch.setattr(eligo.rules, "parse_rule", counting_parse)
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        # 2 criteria; re-parsing per note and label would make it 2 + 2 x 2 x 5.
        assert sorted(calls) == ["m1 IS YES AND m3 IS YES", "m2 IS YES"]
        calls.clear()
        status, _ = self.evaluate(mini_workspace, notes_path=mini_workspace["notes"])
        assert status == EXIT_OK
        assert sorted(calls) == ["m1 IS YES AND m3 IS YES", "m2 IS YES"]

    def test_each_note_normalized_once(self, mini_workspace, monkeypatch):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        calls = []
        canonical_text = eligo.evaluation.canonical_text

        def counting_canonical_text(note):
            calls.append(note.note_id)
            return canonical_text(note)

        monkeypatch.setattr(eligo.evaluation, "canonical_text", counting_canonical_text)
        status, _ = self.evaluate(mini_workspace, notes_path=mini_workspace["notes"])
        assert status == EXIT_OK
        # Once per note, not once per grounded answer in per_question.csv and
        # again in the counterfactual rate.
        assert sorted(calls) == ["n1", "n2"]

    def test_each_distinct_quote_normalized_once(self, mini_workspace, monkeypatch):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        notes = load_notes(mini_workspace["notes"])
        note_texts = {eligo.evaluation.canonical_text(note) for note in notes}
        quotes = {quote for record in read_results(mini_workspace["out"] / "results.jsonl")
                  for quote in record.answer.evidence}
        assert len(quotes) == 4
        calls = []
        normalize = eligo.evaluation._normalize

        def counting_normalize(text):
            calls.append(text)
            return normalize(text)

        eligo.evaluation._normalize_quote.cache_clear()
        monkeypatch.setattr(eligo.evaluation, "_normalize", counting_normalize)
        status, _ = self.evaluate(mini_workspace, notes_path=mini_workspace["notes"])
        eligo.evaluation._normalize_quote.cache_clear()
        assert status == EXIT_OK
        # Not once per grounded answer, per label and again in the
        # counterfactual rate.
        quote_calls = [text for text in calls if text not in note_texts]
        assert sorted(quote_calls) == sorted(quotes)

    def test_each_record_grounded_once(self, mini_workspace, monkeypatch):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        records = read_results(mini_workspace["out"] / "results.jsonl")
        calls = []
        grounding_check = eligo.evaluation.grounding_check

        def counting_grounding_check(answer, *args):
            calls.append(answer)
            return grounding_check(answer, *args)

        monkeypatch.setattr(eligo.evaluation, "grounding_check", counting_grounding_check)
        status, out_dir = self.evaluate(mini_workspace, notes_path=mini_workspace["notes"])
        assert status == EXIT_OK
        # Not again for the wrong YES/NO answers in the counterfactual rate.
        assert len(calls) == len(records)
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert sum(level["counterfactual"]["error_count"]
                   for level in metrics["question_level"].values()) > 0

    def test_later_evaluation_matches_a_fresh_process(self, mini_workspace):
        # Quotes normalized for one set of notes must not decide grounding
        # in another: evaluate, swap the two notes' texts, and evaluate again
        # in this process and in a fresh one.
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        status, first_dir = self.evaluate(mini_workspace, notes_path=mini_workspace["notes"])
        assert status == EXIT_OK
        records = [json.loads(line) for line in
                   mini_workspace["notes"].read_text(encoding="utf-8").splitlines()]
        swapped = mini_workspace["root"] / "swapped_notes.jsonl"
        swapped.write_text("".join(
            json.dumps({**other, "note_id": record["note_id"]}) + "\n"
            for record, other in zip(records, reversed(records))), encoding="utf-8")
        args = ["evaluate", "--results", str(mini_workspace["out"] / "results.jsonl"),
                "--gold", str(mini_workspace["gold"]),
                "--catalog", str(mini_workspace["catalog"]), "--notes", str(swapped)]
        here, fresh = mini_workspace["root"] / "here", mini_workspace["root"] / "fresh"
        assert cli_main([*args, "--out", str(here)]) == EXIT_OK
        src = os.path.dirname(os.path.dirname(eligo.__file__))
        subprocess.run([sys.executable, "-c",
                        "import sys; from eligo.cli import main; sys.exit(main(sys.argv[1:]))",
                        *args, "--out", str(fresh)],
                       env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
        names = ("metrics.json", "report.md", "per_question.csv")
        outputs = {name: (here / name).read_bytes() for name in names}
        assert outputs == {name: (fresh / name).read_bytes() for name in names}
        # The swap moves every quote away from the note it came from.
        assert outputs["per_question.csv"] != (first_dir / "per_question.csv").read_bytes()

    def test_end_to_end_metrics(self, mini_workspace):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        status, out_dir = self.evaluate(mini_workspace,
                                        notes_path=mini_workspace["notes"])
        assert status == EXIT_OK
        metrics = json.loads((out_dir / "metrics.json").read_text())
        vote = metrics["question_level"]["A-vote"]
        assert vote["precision"] == 1.0
        assert vote["recall"] == 1.0
        assert vote["accuracy"] == 1.0
        assert vote["counterfactual"]["rate"] == 0.0
        criterion_vote = metrics["criterion_level"]["A-vote"]
        assert criterion_vote["accuracy"] == 1.0
        assert set(metrics["timing"]) == {"A-CRC", "A-JD", "A-IE", "A-vote", "B"}
        report = (out_dir / "report.md").read_text()
        assert "| A-vote | 1.000 | 1.000 | 1.000 | 1.000 |" in report
        csv_text = (out_dir / "per_question.csv").read_text()
        assert csv_text.splitlines()[0] == \
            "note_id,question_id,gold,predicted,grounding,elapsed_s,pathway"
        assert len(csv_text.splitlines()) == 31  # header + 30 records

    def test_breakdown_partition_on_real_run(self, mini_workspace):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        status, out_dir = self.evaluate(mini_workspace)
        assert status == EXIT_OK
        metrics = json.loads((out_dir / "metrics.json").read_text())
        for label, report in metrics["question_level"].items():
            total = sum(sub["answered_count"]
                        for sub in report.get("breakdowns", {}).values())
            assert total == report["answered_count"], label

    def test_unknown_question_id_exits_3(self, mini_workspace, caplog):
        bogus = mini_workspace["root"] / "bogus.jsonl"
        bogus.write_text(json.dumps({
            "note_id": "n1", "question_id": "zz9", "pathway": "B",
            "value": "YES", "rationale": "", "evidence": [],
            "parse_fallback": False, "elapsed_s": 0.1, "provenance": "x",
        }) + "\n")
        status = cmd_evaluate(bogus, mini_workspace["gold"],
                              mini_workspace["catalog"],
                              mini_workspace["root"] / "eval")
        assert status == EXIT_INPUT
        assert "zz9" in caplog.text

    @pytest.mark.parametrize("name", ["metrics.json", "report.md", "per_question.csv"])
    def test_an_output_that_cannot_be_written_exits_3_naming_it(self, mini_workspace,
                                                                caplog, name):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        (mini_workspace["root"] / "eval" / name).mkdir(parents=True)
        status, out_dir = self.evaluate(mini_workspace)
        assert status == EXIT_INPUT
        assert_one_error_naming(caplog, out_dir / name)
        assert not list(out_dir.glob("*.tmp"))

    def test_unreadable_results_exits_3(self, mini_workspace):
        status = cmd_evaluate(mini_workspace["root"] / "missing.jsonl",
                              mini_workspace["gold"], mini_workspace["catalog"],
                              mini_workspace["root"] / "eval")
        assert status == EXIT_INPUT

    @pytest.mark.parametrize("bad_line", BAD_RESULT_LINES)
    def test_result_line_not_a_record_exits_3_naming_it(self, mini_workspace, caplog,
                                                         bad_line):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        results_path = mini_workspace["out"] / "results.jsonl"
        lines = results_path.read_text().splitlines()
        lines[4] = bad_line
        results_path.write_text("\n".join(lines) + "\n")
        status, _ = self.evaluate(mini_workspace)
        assert status == EXIT_INPUT
        assert f"line 5: {results_path}: unreadable result record" in caplog.text

    def test_non_utf8_results_exits_3_naming_the_line(self, mini_workspace, caplog):
        results_path = mini_workspace["root"] / "utf16.jsonl"
        results_path.write_bytes(UTF16_RESULTS)
        status = cmd_evaluate(results_path, mini_workspace["gold"],
                              mini_workspace["catalog"], mini_workspace["root"] / "eval")
        assert status == EXIT_INPUT
        assert f"line 1: {results_path}: not UTF-8 text at byte 0" in caplog.text

    def test_metrics_are_strict_json_when_durations_sum_past_float_range(
            self, mini_workspace):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        results_path = mini_workspace["out"] / "results.jsonl"
        # Each label's 1,500 durations, each finite, sum past the largest
        # float.  Each copy answers its own notes, as keys are unique.
        records = read_jsonl(results_path)
        results_path.write_text("".join(
            json.dumps({**record, "note_id": f"{record['note_id']}-{copy}",
                        "elapsed_s": 1.7e305}) + "\n"
            for copy in range(250) for record in records))
        status, out_dir = self.evaluate(mini_workspace)
        assert status == EXIT_OK

        def refuse(constant):
            raise ValueError(f"{constant} is not strict JSON")

        metrics = json.loads((out_dir / "metrics.json").read_text(),
                             parse_constant=refuse)
        for stats in metrics["timing"].values():
            assert stats["mean"] == pytest.approx(1.7e305)

    def test_invalid_positive_class_exits_3(self, mini_workspace):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        status = cmd_evaluate(mini_workspace["out"] / "results.jsonl",
                              mini_workspace["gold"], mini_workspace["catalog"],
                              mini_workspace["root"] / "eval",
                              positive_class="MAYBE")
        assert status == EXIT_INPUT

    def test_ten_item_fixture_end_to_end(self, tmp_path):
        # The same hand-counted fixture as the unit-level scoring tests,
        # driven through the evaluate command.
        from test_evaluation import TEN_ITEM_CATEGORIES, TEN_ITEM_GOLD, \
            TEN_ITEM_PREDICTIONS

        catalog_dir = tmp_path / "catalog"
        catalog_dir.mkdir()
        questions = []
        for index, (category, task_type) in enumerate(TEN_ITEM_CATEGORIES, start=1):
            questions.append({
                "question_id": f"t{index}", "text": f"question {index}",
                "category": category.value, "task_type": task_type.value,
            })
        (catalog_dir / "questions.json").write_text(json.dumps({"questions": questions}))
        (catalog_dir / "criteria.json").write_text(json.dumps({"criteria": []}))
        (catalog_dir / "trials.json").write_text(json.dumps({"trials": []}))
        gold_path = tmp_path / "gold.jsonl"
        gold_path.write_text("\n".join(
            json.dumps({"note_id": note_id, "question_id": question_id,
                        "label": label.value})
            for (note_id, question_id), label in TEN_ITEM_GOLD.items()
        ) + "\n")
        results_path = tmp_path / "results.jsonl"
        results_path.write_text("\n".join(
            json.dumps({"note_id": note_id, "question_id": question_id,
                        "pathway": "A-CRC", "value": value.value, "rationale": "",
                        "evidence": [], "parse_fallback": False, "elapsed_s": 0.1,
                        "provenance": f"{note_id}|{question_id}|roleCRC"})
            for (note_id, question_id), value in TEN_ITEM_PREDICTIONS.items()
        ) + "\n")
        assert cmd_evaluate(results_path, gold_path, catalog_dir,
                            tmp_path / "eval") == EXIT_OK
        metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        report = metrics["question_level"]["A-CRC"]
        assert report["precision"] == pytest.approx(5 / 6, abs=1e-9)
        assert report["recall"] == pytest.approx(5 / 6, abs=1e-9)
        assert report["accuracy"] == 0.8
        rendered = (tmp_path / "eval" / "report.md").read_text()
        assert "| A-CRC | 0.833 | 0.833 | 0.833 | 0.800 |" in rendered

    def test_gold_with_unknown_ids_exits_3(self, mini_workspace, caplog):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        bad_gold = mini_workspace["root"] / "bad_gold.jsonl"
        bad_gold.write_text(json.dumps(
            {"note_id": "n1", "question_id": "ghost-question", "label": "YES"}
        ) + "\n")
        status = cmd_evaluate(mini_workspace["out"] / "results.jsonl", bad_gold,
                              mini_workspace["catalog"],
                              mini_workspace["root"] / "eval")
        assert status == EXIT_INPUT
        assert "ghost-question" in caplog.text

    def test_outputs_match_pinned_digests(self, mini_workspace):
        # The evaluate outputs, and the screen's verdicts, byte for byte.
        # elapsed_s is the one volatile field; it is set to a fixed value.
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        results_path = mini_workspace["out"] / "results.jsonl"
        records = read_jsonl(results_path)
        for record in records:
            record["elapsed_s"] = 0.125
        results_path.write_text("".join(json.dumps(record) + "\n" for record in records))
        out_dir = mini_workspace["root"] / "eval"
        assert cli_main(["evaluate", "--results", str(results_path),
                         "--gold", str(mini_workspace["gold"]),
                         "--catalog", str(mini_workspace["catalog"]),
                         "--out", str(out_dir),
                         "--notes", str(mini_workspace["notes"])]) == EXIT_OK
        outputs = {name: out_dir / name
                   for name in ("metrics.json", "report.md", "per_question.csv")}
        outputs["verdicts.jsonl"] = mini_workspace["out"] / "verdicts.jsonl"
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for name, path in outputs.items()}
        assert digests == PINNED_DIGESTS


# Rules that the mini catalog does not have: one reads m1 twice, so its
# stability needs the split search, and one tests answers with IS UNKNOWN.
SPLIT_CRITERIA = [
    {"criterion_id": "mc1", "trial_ids": ["mt1"], "kind": "inclusion",
     "text": "Cirrhosis, or neither cirrhosis nor ascites.",
     "rule": "m1 IS YES OR (m1 IS NO AND m3 IS NO)", "question_ids": ["m1", "m3"]},
    {"criterion_id": "mc2", "trial_ids": ["mt1"], "kind": "exclusion",
     "text": "Transplant history unclear.",
     "rule": "m2 IS UNKNOWN OR (ANY(m1, m3) IS UNKNOWN AND m2 IS NOT NO)",
     "question_ids": ["m1", "m2", "m3"]},
]


def reference_decide(rule, answers):
    """A criterion's (met, stable) as the evaluators before the one-pass
    kernel gave them."""
    return (reference_eval_rule(rule.expr, answers),
            reference_sensitivity(rule, answers).status is eligo.rules.Stability.STABLE)


class TestSplitFallbackEndToEnd:
    """Screen and evaluate write the same files with the one-pass kernel as
    with the evaluators it replaced, on rules that take the split search."""

    def outputs(self, workspace, name):
        out = workspace["out"]
        assert cmd_screen(run_config(workspace)) == EXIT_OK
        eval_dir = workspace["root"] / name
        assert cmd_evaluate(out / "results.jsonl", workspace["gold"], workspace["catalog"],
                            eval_dir, notes_path=workspace["notes"]) == EXIT_OK
        return {"verdicts.jsonl": (out / "verdicts.jsonl").read_bytes(),
                "metrics.json": (eval_dir / "metrics.json").read_bytes()}

    def test_outputs_equal_the_reference_evaluator(self, mini_workspace, monkeypatch):
        (mini_workspace["catalog"] / "criteria.json").write_text(
            json.dumps({"criteria": SPLIT_CRITERIA}), encoding="utf-8")
        rules = {c.criterion_id: c.parsed_rule
                 for c in load_catalog_dir(mini_workspace["catalog"]).criteria.values()}
        assert rules["mc1"].read_once is False
        assert rules["mc2"].read_once is True
        splits = []
        settle = eligo.rules._settle

        def counting_settle(expr, answers):
            splits.append(expr)
            return settle(expr, answers)

        monkeypatch.setattr(eligo.rules, "_settle", counting_settle)
        kernel = self.outputs(mini_workspace, "eval")
        assert splits
        # A second screen replays every unit from calls.jsonl and rewrites
        # the verdicts, now through the reference evaluator, from the same
        # answers and the same call times.
        monkeypatch.setattr(eligo.rules, "_decide", reference_decide)
        reference = self.outputs(mini_workspace, "eval_reference")
        for outputs in (kernel, reference):
            assert set(json.loads(outputs["metrics.json"])["timing"]) == \
                {"A-CRC", "A-JD", "A-IE", "A-vote", "B"}
        assert kernel == reference
        # On n1 the vote leaves m1 UNKNOWN and m3 is NO: both completions of
        # m1 meet mc1, which only the split search finds.
        verdicts = {(v["pathway"], v["note_id"], v.get("criterion_id")): v
                    for v in map(json.loads, kernel["verdicts.jsonl"].splitlines())}
        mc1 = verdicts[("A-vote", "n1", "mc1")]
        assert (mc1["met"], mc1["stable"]) == (False, True)


class TestCmdReport:
    def test_renders_summary_row_to_three_decimals(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        metrics_path.write_text(json.dumps({
            "question_level": {"Pathway B": {
                "precision": 0.892, "recall": 0.793, "f1": 0.809, "accuracy": 0.972,
            }},
        }))
        assert cmd_report(metrics_path) == EXIT_OK
        captured = capsys.readouterr()
        assert "| Pathway B | 0.892 | 0.793 | 0.809 | 0.972 |" in captured.out

    def test_writes_file_when_asked(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        metrics_path.write_text(json.dumps({"question_level": {}}))
        out_path = tmp_path / "report.md"
        assert cmd_report(metrics_path, out_path) == EXIT_OK
        assert out_path.exists()

    def test_missing_file_exits_3(self, tmp_path):
        assert cmd_report(tmp_path / "absent.json") == EXIT_INPUT

    @pytest.mark.parametrize("metrics, message", [
        ({"question_level": {"A-CRC": 1}}, "question_level: expected dict for 'A-CRC'"),
        ({"criterion_level": {"B": [0.5]}}, "criterion_level: expected dict for 'B'"),
        ({"timing": {"A-vote": None}}, "timing: expected dict for 'A-vote'"),
        ({"question_level": [], "timing": {}}, "expected dict for 'question_level'"),
        ({"question_level": {"A": {"breakdowns": {"g": 1}}}},
         "question_level: A: breakdowns: expected dict for 'g'"),
        ({"question_level": {"A": {"breakdowns": []}}},
         "question_level: A: expected dict for 'breakdowns'"),
        ({"question_level": {"A": {"breakdowns": {"g": {"answered_count": "7"}}}}},
         "question_level: A: breakdowns: g: expected int for 'answered_count'"),
        ({"criterion_level": {"A": {"answered_count": 1.5}}},
         "criterion_level: A: expected int for 'answered_count'"),
        ({"question_level": {"A": {"counterfactual": {"rate": "x"}}}},
         "question_level: A: counterfactual: expected a number for 'rate'"),
        ({"question_level": {"A": {"counterfactual": {"rate_among_errors": True}}}},
         "question_level: A: counterfactual: expected a number for 'rate_among_errors'"),
        ({"question_level": {"A": {"counterfactual": {"count": 0.5}}}},
         "question_level: A: counterfactual: expected int for 'count'"),
        ({"question_level": {"A": {"counterfactual": 5}}},
         "question_level: A: expected dict for 'counterfactual'"),
        ({"question_level": {"A": {"precision": 10**400}}},
         "question_level: A: expected a number for 'precision'"),
        ('{"question_level": {"A": {"counterfactual": {"rate": 1e999}}}}',
         "question_level: A: counterfactual: expected a number for 'rate'"),
        ({"question_level": {"A": {"breakdowns": {"g": {"recall": "0.5"}}}}},
         "question_level: A: breakdowns: g: expected a number for 'recall'"),
        ({"timing": {"A-vote": {"mean": 10**400}}},
         "timing: A-vote: expected a number for 'mean'"),
        ({"timing": {"A": {"count": [1, 2]}}}, "timing: A: expected int for 'count'"),
        ({"timing": {"A": {"count": True}}}, "timing: A: expected int for 'count'"),
        ({"timing": {"A": {"count": 2.0}}}, "timing: A: expected int for 'count'"),
        ({"timing": {"A": {"count": -1}}},
         "timing: A: expected a non-negative int for 'count'"),
    ])
    def test_malformed_level_exits_3_naming_the_key(self, tmp_path, capsys, caplog,
                                                     metrics, message):
        metrics_path = tmp_path / "metrics.json"
        metrics_path.write_text(metrics if isinstance(metrics, str) else json.dumps(metrics))
        assert cli_main(["report", "--metrics", str(metrics_path)]) == EXIT_INPUT
        assert f"cannot read metrics: {metrics_path}: {message}" in caplog.text
        assert capsys.readouterr().out == ""


class TestCmdConvert:
    def build_inputs(self, root):
        criteria_path = root / "criteria_in.json"
        criteria_path.write_text(json.dumps({"criteria": [{
            "criterion_id": "C1", "trial_ids": ["T1"], "kind": "inclusion",
            "text": "Has the patient been diagnosed with primary liver cancer?",
            "rule": "", "question_ids": [], "needs_human_rule": True,
        }]}))
        draft_reply = ("Q: Has the patient been diagnosed with a malignant liver tumor?\n"
                       "Q: Is the pathological type of the liver tumor hepatocellular carcinoma?\n"
                       "Q: Has the patient been diagnosed with mixed hepatocellular carcinoma?\n"
                       "Q: Is there any mention that the liver tumor metastasized from another site?\n"
                       "RULE: Q1 IS YES AND (Q2 IS YES OR Q3 IS YES) AND Q4 IS NOT YES")
        fixtures_path = root / "convert_fixtures.json"
        fixtures_path.write_text(json.dumps({"fixtures": {
            "convert|C1|assistant-1": draft_reply,
            "refine|C1": draft_reply,
        }}))
        backends_path = root / "backends.json"
        backends_path.write_text(json.dumps({
            "backends": [{"kind": "mock", "model_name": "assistant-1",
                          "fixtures_path": str(fixtures_path)}],
            "refiner": {"kind": "mock", "model_name": "refiner",
                        "fixtures_path": str(fixtures_path)},
        }))
        return criteria_path, backends_path

    def test_liver_conversion_writes_catalog(self, tmp_path):
        criteria_path, backends_path = self.build_inputs(tmp_path)
        out_dir = tmp_path / "catalog_out"
        assert cmd_convert(criteria_path, backends_path, out_dir) == EXIT_OK
        questions = json.loads((out_dir / "questions.json").read_text())["questions"]
        assert len(questions) == 4
        criteria = json.loads((out_dir / "criteria.json").read_text())["criteria"]
        assert criteria[0]["rule"].startswith("C1.q1 IS YES")
        assert criteria[0]["question_ids"] == ["C1.q1", "C1.q2", "C1.q3", "C1.q4"]
        assert (out_dir / "conversion_report.md").exists()

    def test_refiner_rule_nested_too_deeply_is_rejected_in_the_report(self, tmp_path):
        criteria_path, backends_path = self.build_inputs(tmp_path)
        fixtures_path = tmp_path / "convert_fixtures.json"
        fixtures = json.loads(fixtures_path.read_text())
        fixtures["fixtures"]["refine|C1"] = ("Q: Is there a liver tumor?\nRULE: "
                                            + "(" * 400 + "Q1 IS YES" + ")" * 400)
        fixtures_path.write_text(json.dumps(fixtures))
        out_dir = tmp_path / "catalog_out"
        assert cmd_convert(criteria_path, backends_path, out_dir) == EXIT_OK
        report = (out_dir / "conversion_report.md").read_text()
        assert ("refiner rule rejected (position 101: rule nested deeper than 100 levels)"
                in report)
        criteria = json.loads((out_dir / "criteria.json").read_text())["criteria"]
        assert criteria[0]["rule"] == ""

    def test_gateways_closed(self, tmp_path, monkeypatch):
        closed = []
        monkeypatch.setattr(Gateway, "close", lambda self: closed.append(self))
        criteria_path, backends_path = self.build_inputs(tmp_path)
        assert cmd_convert(criteria_path, backends_path, tmp_path / "out") == EXIT_OK
        assert sorted(gateway.cfg.model_name for gateway in closed) == \
            ["assistant-1", "refiner"]

    def test_bad_backends_exits_2(self, tmp_path):
        criteria_path, _ = self.build_inputs(tmp_path)
        bad = tmp_path / "bad_backends.json"
        bad.write_text(json.dumps({"backends": []}))
        assert cmd_convert(criteria_path, bad, tmp_path / "out") == EXIT_CONFIG

    def test_conversion_output_bytes_reproducible(self, tmp_path):
        criteria_path, backends_path = self.build_inputs(tmp_path)
        assert cmd_convert(criteria_path, backends_path, tmp_path / "a") == EXIT_OK
        assert cmd_convert(criteria_path, backends_path, tmp_path / "b") == EXIT_OK
        for name in ("questions.json", "criteria.json", "conversion_report.md"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    OUTPUTS = ("questions.json", "criteria.json", "conversion_report.md")

    @staticmethod
    def build_catalog(root, count, *, drafters=("d1", "d2"), latency_s=0.0,
                      max_inflight=3):
        """``count`` criteria, each with a fixture for every drafter and the
        refiner; the drafters propose different rules."""
        root.mkdir(parents=True, exist_ok=True)
        criteria, fixtures = [], {}
        for index in range(1, count + 1):
            cid = f"C{index}"
            criteria.append({"criterion_id": cid, "trial_ids": ["T1"], "kind": "inclusion",
                             "text": f"Does the patient have condition {index}?",
                             "rule": "", "question_ids": [], "needs_human_rule": True})
            for rank, name in enumerate(drafters):
                fixtures[f"convert|{cid}|{name}"] = "\n".join(
                    [f"Q: Is condition {index}-{k} present?" for k in range(rank + 2)]
                    + [f"RULE: Q1 IS YES OR Q{rank + 2} IS NO"])
            fixtures[f"refine|{cid}"] = (f"Q: Is condition {index}-0 present?\n"
                                         f"Q: Is condition {index}-1 present?\n"
                                         "RULE: Q1 IS YES AND Q2 IS NOT NO")
        (root / "criteria.json").write_text(json.dumps({"criteria": criteria}))
        (root / "fixtures.json").write_text(json.dumps({"fixtures": fixtures}))

        def backend(name):
            return {"kind": "mock", "model_name": name, "mock_latency_s": latency_s,
                    "max_inflight": max_inflight, "fixtures_path": str(root / "fixtures.json")}

        (root / "backends.json").write_text(json.dumps(
            {"backends": [backend(name) for name in drafters], "refiner": backend("refiner")}))
        return root / "criteria.json", root / "backends.json"

    @staticmethod
    def convert_keeping_gateways(monkeypatch, *args, **kwargs):
        """cmd_convert's exit code, and its gateways by model name."""
        gateways = {}
        close = Gateway.close

        def recording_close(gateway):
            gateways[gateway.cfg.model_name] = gateway
            close(gateway)

        monkeypatch.setattr(Gateway, "close", recording_close)
        return cmd_convert(*args, **kwargs), gateways

    def test_template_loads_independent_of_criteria_count(self, tmp_path, monkeypatch):
        loads = count_template_loads(monkeypatch)
        for count in (1, 3):
            loads.clear()
            root = tmp_path / f"c{count}"
            criteria_path, backends_path = self.build_catalog(root, count)
            assert cmd_convert(criteria_path, backends_path, root / "out") == EXIT_OK
            assert sorted(loads) == ["convert", "refine"]

    def test_duplicate_drafter_names_exit_2(self, tmp_path, caplog):
        criteria_path, backends_path = self.build_catalog(tmp_path, 1, drafters=("m", "m"))
        assert cmd_convert(criteria_path, backends_path, tmp_path / "out") == EXIT_CONFIG
        assert ("backend config error: invalid backends config: "
                "two drafting backends are named 'm'") in caplog.text
        assert not (tmp_path / "out").exists()

    def test_unwritable_out_exits_3_naming_it(self, tmp_path, caplog):
        criteria_path, backends_path = self.build_catalog(tmp_path, 1)
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        assert cmd_convert(criteria_path, backends_path, out) == EXIT_INPUT
        assert str(out) in caplog.text
        assert out.read_text() == "a file, not a directory"

    def test_an_output_that_cannot_be_written_exits_3(self, tmp_path, caplog):
        criteria_path, backends_path = self.build_catalog(tmp_path, 1)
        out = tmp_path / "out"
        (out / "criteria.json").mkdir(parents=True)
        assert cmd_convert(criteria_path, backends_path, out) == EXIT_INPUT
        assert f"cannot write {out / 'criteria.json'}" in caplog.text

    def test_criteria_overlap_within_each_backends_bound(self, tmp_path, monkeypatch):
        criteria_path, backends_path = self.build_catalog(
            tmp_path, 6, drafters=("d1", "d2", "d3"), latency_s=0.02, max_inflight=2)
        code, gateways = self.convert_keeping_gateways(
            monkeypatch, criteria_path, backends_path, tmp_path / "out")
        assert code == EXIT_OK
        assert sorted(gateways) == ["d1", "d2", "d3", "refiner"]
        assert gateways["refiner"].transport.peak_inflight >= 2
        for gateway in gateways.values():
            assert gateway.transport.calls == 6
            assert gateway.transport.peak_inflight <= gateway.cfg.max_inflight

    def test_outputs_do_not_depend_on_completion_order(self, tmp_path, monkeypatch):
        count = 6
        criteria_path, backends_path = self.build_catalog(tmp_path / "plain", count)
        assert cmd_convert(criteria_path, backends_path, tmp_path / "plain" / "out") == EXIT_OK
        criteria_path, backends_path = self.build_catalog(
            tmp_path / "scripted", count, latency_s=0.001, max_inflight=count)
        finished = []
        send = eligo.gateway.MockTransport.send

        def later_criteria_first(transport, req):
            index = int(req.tag.split("|")[1].removeprefix("C"))
            time.sleep(0.01 * (count - index))
            reply = send(transport, req)
            finished.append(req.tag)
            return reply

        monkeypatch.setattr(eligo.gateway.MockTransport, "send", later_criteria_first)
        out = tmp_path / "scripted" / "out"
        assert cmd_convert(criteria_path, backends_path, out) == EXIT_OK
        assert finished.index(f"refine|C{count}") < finished.index("refine|C1")
        for name in self.OUTPUTS:
            assert (out / name).read_bytes() == \
                (tmp_path / "plain" / "out" / name).read_bytes()

    def test_a_criterion_whose_drafters_all_fail_is_failed_alone(self, tmp_path, monkeypatch):
        criteria_path, backends_path = self.build_catalog(tmp_path, 4, latency_s=0.001)
        send = eligo.gateway.MockTransport.send

        def refuse(transport, req):
            # Every drafter fails C2; only d1 fails C3.
            if req.tag.startswith("convert|C2|") or req.tag == "convert|C3|d1":
                raise BackendError("backend refused the request", status=400)
            return send(transport, req)

        monkeypatch.setattr(eligo.gateway.MockTransport, "send", refuse)
        out = tmp_path / "out"
        code, gateways = self.convert_keeping_gateways(
            monkeypatch, criteria_path, backends_path, out)
        assert code == EXIT_PARTIAL
        report = (out / "conversion_report.md").read_text()
        assert ("## C2: FAILED\n- all backends failed: d1: backend refused the request "
                "(status 400); d2: backend refused the request (status 400)\n") in report
        assert "## C3: 2 questions\n" in report
        assert "- warning: d1: backend failed: backend refused the request" in report
        criteria = json.loads((out / "criteria.json").read_text())["criteria"]
        assert [(c["criterion_id"], c["question_ids"]) for c in criteria] == [
            ("C1", ["C1.q1", "C1.q2"]), ("C2", []), ("C3", ["C3.q1", "C3.q2"]),
            ("C4", ["C4.q1", "C4.q2"])]
        questions = json.loads((out / "questions.json").read_text())["questions"]
        assert len(questions) == 6
        assert gateways["refiner"].transport.calls == 3  # C2 is never refined

    def test_a_criterion_no_drafter_proposed_a_question_for_says_so(self, tmp_path):
        criteria_path, backends_path = self.build_catalog(tmp_path, 3)
        fixtures_path = tmp_path / "fixtures.json"
        fixtures = json.loads(fixtures_path.read_text())["fixtures"]
        fixtures_path.write_text(json.dumps({"fixtures": {
            tag: reply for tag, reply in fixtures.items() if "|C2" not in tag}}))
        out = tmp_path / "out"
        assert cmd_convert(criteria_path, backends_path, out) == EXIT_PARTIAL
        report = (out / "conversion_report.md").read_text()
        assert "## C2: FAILED\n- no drafter proposed a question\n" in report
        assert "merge_question_sets" not in report
        assert "## C1: 2 questions\n" in report and "## C3: 2 questions\n" in report

    def test_a_digit_led_criterion_id_converts(self, tmp_path):
        criteria_path, backends_path = self.build_catalog(tmp_path, 1)
        for path in (criteria_path, tmp_path / "fixtures.json"):
            path.write_text(path.read_text().replace("C1", "1"))
        out = tmp_path / "out"
        assert cmd_convert(criteria_path, backends_path, out) == EXIT_OK
        (criterion,) = json.loads((out / "criteria.json").read_text())["criteria"]
        assert criterion["rule"] == "1.q1 IS YES AND 1.q2 IS NOT NO"
        assert criterion["question_ids"] == ["1.q1", "1.q2"]
        (out / "trials.json").write_text(json.dumps(
            {"trials": [{"trial_id": "T1", "criterion_ids": ["1"]}]}))
        assert load_catalog_dir(out).criteria["1"].parsed_rule.question_ids == \
            ("1.q1", "1.q2")

    @pytest.mark.parametrize("criterion_id", ["inc 2", ".c2", "-c2", "c2!"])
    def test_a_criterion_id_no_rule_can_name_exits_3_before_any_call(
            self, tmp_path, monkeypatch, caplog, criterion_id):
        criteria_path, backends_path = self.build_catalog(tmp_path, 2)
        criteria_path.write_text(criteria_path.read_text().replace('"C2"',
                                                                   json.dumps(criterion_id)))
        code, gateways = self.convert_keeping_gateways(
            monkeypatch, criteria_path, backends_path, tmp_path / "out")
        assert code == EXIT_INPUT
        assert f"input error: criterion id {criterion_id!r} cannot start" in caplog.text
        assert [gateway.transport.calls for gateway in gateways.values()] == [0, 0, 0]
        assert not (tmp_path / "out").exists()

    # SHA-256 of the outputs of test_outputs_match_pinned_digests.  They were
    # computed before a converted criterion became one value; a change that
    # alters an output byte must say why and update them.
    PINNED_DIGESTS = {
        "questions.json": "7fbcf56c8767dcc58e859bbaa96e3da8ab6600019a0c1d0f440074261371b2bb",
        "criteria.json": "44f9ac76f1e6dab18b5c826b3cd7aa77b72fae4664103e4ee8d010af65c3d4d9",
        "conversion_report.md": "89066a125f026e582b185be088bf59ae69d4a6086e5810643c403f8869da7450",
    }

    def test_outputs_match_pinned_digests(self, tmp_path):
        """Three converted criteria, one no drafter proposed a question for
        (FAILED), and one whose refiner rule does not parse (needs human
        authoring) after a draft with an unknown label and a stray line."""
        criteria_path, _ = self.build_catalog(tmp_path, 3)
        doc = json.loads(criteria_path.read_text())
        for index in (4, 5):
            doc["criteria"].append({
                "criterion_id": f"C{index}", "trial_ids": ["T1"], "kind": "exclusion",
                "text": f"Does the patient have condition {index}?", "rule": "",
                "question_ids": [], "needs_human_rule": True})
        criteria_path.write_text(json.dumps(doc))
        fixtures_path = tmp_path / "fixtures.json"
        fixtures = json.loads(fixtures_path.read_text())["fixtures"]
        fixtures["convert|C5|d1"] = ("Q: Is the tumor resectable? [Organ/Shape]\n"
                                     "The note is ambiguous here.\n"
                                     "Q: Was the tumor biopsied? [Intervention/DirectMatch]\n"
                                     "RULE: Q1 IS YES")
        fixtures["refine|C5"] = ("Q: Is the tumor resectable?\n"
                                 "Q: Was the tumor biopsied? [Intervention/DirectMatch]\n"
                                 "RULE: Q1 FROBNICATES Q2")
        fixtures_path.write_text(json.dumps({"fixtures": fixtures}))
        out = tmp_path / "out"
        assert cmd_convert(criteria_path, tmp_path / "backends.json", out) == EXIT_PARTIAL
        report = (out / "conversion_report.md").read_text()
        assert "## C4: FAILED\n" in report
        assert "## C5: 2 questions\n- rule: (needs human authoring)\n" in report
        assert "unknown label '[Organ/Shape]' ignored" in report
        assert "unrecognized line skipped: The note is ambiguous here." in report
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.OUTPUTS}
        assert digests == self.PINNED_DIGESTS


class TestCli:
    def test_screen_and_report_via_cli(self, mini_workspace, capsys):
        assert cli_main(["screen", "--config", str(mini_workspace["run_json"])]) == 0
        assert (mini_workspace["out"] / "results.jsonl").exists()
        assert cli_main([
            "evaluate",
            "--results", str(mini_workspace["out"] / "results.jsonl"),
            "--gold", str(mini_workspace["gold"]),
            "--catalog", str(mini_workspace["catalog"]),
            "--out", str(mini_workspace["root"] / "eval"),
            "--notes", str(mini_workspace["notes"]),
        ]) == 0
        assert cli_main([
            "report", "--metrics", str(mini_workspace["root"] / "eval" / "metrics.json"),
        ]) == 0
        assert "Question level overall performance" in capsys.readouterr().out

    def test_evaluate_out_that_is_a_file_exits_3_naming_it(self, mini_workspace, caplog):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        out = mini_workspace["root"] / "taken"
        out.write_text("not a directory")
        assert cli_main(["evaluate",
                         "--results", str(mini_workspace["out"] / "results.jsonl"),
                         "--gold", str(mini_workspace["gold"]),
                         "--catalog", str(mini_workspace["catalog"]),
                         "--out", str(out)]) == EXIT_INPUT
        assert_one_error_naming(caplog, out)
        assert out.read_text() == "not a directory"

    def test_report_out_in_missing_directory_exits_3_naming_it(self, tmp_path, caplog,
                                                               capsys):
        metrics_path = tmp_path / "metrics.json"
        metrics_path.write_text(json.dumps({"question_level": {}}))
        out = tmp_path / "missing" / "r.md"
        assert cli_main(["report", "--metrics", str(metrics_path),
                         "--out", str(out)]) == EXIT_INPUT
        assert_one_error_naming(caplog, out)
        assert capsys.readouterr().out == ""

    def test_canonicalize_out_in_missing_directory_exits_3_naming_it(
            self, mini_workspace, caplog):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        out = mini_workspace["root"] / "missing" / "x.jsonl"
        assert cli_main(["canonicalize",
                         "--results", str(mini_workspace["out"] / "results.jsonl"),
                         "--out", str(out)]) == EXIT_INPUT
        assert_one_error_naming(caplog, out)

    @pytest.mark.parametrize("bad_line", BAD_RESULT_LINES)
    def test_cli_canonicalize_bad_line_exits_3_naming_it(self, tmp_path, caplog,
                                                          bad_line):
        results_path = tmp_path / "results.jsonl"
        record = {"note_id": "n1", "question_id": "m1", "pathway": "B", "value": "NO"}
        results_path.write_text(json.dumps(record) + "\n" + bad_line + "\n")
        assert cli_main(["canonicalize", "--results", str(results_path)]) == EXIT_INPUT
        assert f"line 2: {results_path}: unreadable result record" in caplog.text

    def test_cli_canonicalize_reads_a_time_finite_in_seconds(self, tmp_path, capsys):
        line = ('{"elapsed_s": 1e+306, "evidence": [], "note_id": "n1", '
                '"parse_fallback": false, "pathway": "B", "provenance": "", '
                '"question_id": "m1", "rationale": "", "value": "NO"}')
        record = ResultRecord.from_dict(json.loads(line))
        assert record.elapsed_s == 1e306
        assert record.to_line() == line
        results_path = tmp_path / "results.jsonl"
        results_path.write_text(line + "\n")
        assert cli_main(["canonicalize", "--results", str(results_path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {
            key: value for key, value in json.loads(line).items() if key != "elapsed_s"}

    def test_cli_canonicalize_non_utf8_exits_3_naming_the_line(self, tmp_path, caplog):
        results_path = tmp_path / "results.jsonl"
        results_path.write_bytes(UTF16_RESULTS)
        assert UTF16_RESULTS.startswith(b"\xff\xfe")
        assert cli_main(["canonicalize", "--results", str(results_path)]) == EXIT_INPUT
        assert f"line 1: {results_path}: not UTF-8 text at byte 0" in caplog.text

    @pytest.mark.parametrize("command", ["canonicalize", "report"])
    @pytest.mark.parametrize("room", [0, 1 << 20], ids=["write-fails", "flush-fails"])
    def test_stdout_on_a_full_device_exits_3(self, mini_workspace, caplog, monkeypatch,
                                             command, room):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        if command == "canonicalize":
            argv = ["canonicalize", "--results", str(mini_workspace["out"] / "results.jsonl")]
        else:
            assert cli_main(["evaluate",
                             "--results", str(mini_workspace["out"] / "results.jsonl"),
                             "--gold", str(mini_workspace["gold"]),
                             "--catalog", str(mini_workspace["catalog"]),
                             "--out", str(mini_workspace["root"] / "eval")]) == EXIT_OK
            argv = ["report", "--metrics", str(mini_workspace["root"] / "eval" / "metrics.json")]
        caplog.clear()
        monkeypatch.setattr(sys, "stdout", FullDevice(room))
        assert cli_main(argv) == EXIT_INPUT
        assert_one_error_naming(caplog, "<stdout>")
        assert "No space left on device" in caplog.text

    def test_cli_canonicalize(self, mini_workspace, capsys):
        assert cli_main(["screen", "--config", str(mini_workspace["run_json"])]) == 0
        assert cli_main([
            "canonicalize",
            "--results", str(mini_workspace["out"] / "results.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        assert "elapsed_s" not in out
        assert len(out.splitlines()) == 30


class FullDevice(io.TextIOBase):
    """A stdout on a device with no space left, as /dev/full: text waits in a
    buffer of ``room`` characters, and a write past it or a flush of it fails
    with ENOSPC and drops it."""

    def __init__(self, room):
        self.room = room
        self.buffered = ""

    def writable(self):
        return True

    def write(self, text):
        self.buffered += text
        if len(self.buffered) > self.room:
            self.flush()
        return len(text)

    def flush(self):
        text, self.buffered = self.buffered, ""
        if text:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def edit_json(edit):
    """Rewrite a JSON file with ``edit`` applied to its document."""
    def apply(path):
        document = json.loads(path.read_text())
        edit(document)
        path.write_text(json.dumps(document))
    return apply


def replace_line(line_no, raw):
    """Rewrite a JSONL file with line ``line_no`` replaced by the bytes ``raw``."""
    def apply(path):
        lines = path.read_bytes().splitlines()
        lines[line_no - 1] = raw
        path.write_bytes(b"\n".join(lines) + b"\n")
    return apply


# (command, file in the mini workspace, how to break it, what the error says)
BAD_INPUTS = {
    "screen-criterion-without-text": (
        "screen", "catalog/criteria.json",
        edit_json(lambda doc: doc["criteria"][0].pop("text")),
        "{path}: criteria[0]: expected str for 'text' (field 'text')"),
    "screen-question-record-is-a-list": (
        "screen", "catalog/questions.json",
        edit_json(lambda doc: doc["questions"].__setitem__(1, ["m2"])),
        "{path}: questions[1]: expected a JSON object"),
    "screen-trial-without-criterion-ids": (
        "screen", "catalog/trials.json",
        edit_json(lambda doc: doc["trials"][0].pop("criterion_ids")),
        "{path}: trials[0]: expected list for 'criterion_ids' (field 'criterion_ids')"),
    "screen-notes-not-utf8": (
        "screen", "notes.jsonl",
        replace_line(2, '{"note_id": "n2", "sections": {"chief_complaint": "café"}}'
                        .encode("latin-1")),
        "line 2: {path}: not UTF-8 text at byte 54"),
    "evaluate-gold-line-is-a-list": (
        "evaluate", "gold.jsonl", replace_line(3, b"[1, 2]"),
        "line 3: {path}: expected a JSON object"),
    "evaluate-criterion-without-kind": (
        "evaluate", "catalog/criteria.json",
        edit_json(lambda doc: doc["criteria"][1].pop("kind")),
        "{path}: criteria[1]: kind must be one of ['inclusion', 'exclusion'], "
        "got None (field 'kind')"),
    "convert-criterion-without-text": (
        "convert", "catalog/criteria.json",
        edit_json(lambda doc: doc["criteria"][1].pop("text")),
        "{path}: criteria[1]: expected str for 'text' (field 'text')"),
    "screen-question-unknown-key": (
        "screen", "catalog/questions.json",
        edit_json(lambda doc: doc["questions"][2].update(note="x")),
        "{path}: questions[2]: unexpected keys ['note']"),
    "screen-criterion-misspelt-trial-ids": (
        "screen", "catalog/criteria.json",
        edit_json(lambda doc: doc["criteria"][1].update(trial_id_s=["mt1"])),
        "{path}: criteria[1]: unexpected keys ['trial_id_s']"),
    "screen-trials-file-misspelt-key": (
        "screen", "catalog/trials.json",
        edit_json(lambda doc: doc.update(trial=doc.pop("trials"))),
        "{path}: unexpected keys ['trial']"),
    "screen-trial-misspelt-registry-code": (
        "screen", "catalog/trials.json",
        edit_json(lambda doc: doc["trials"][0].update(registry_cod="NCT1")),
        "{path}: trials[0]: unexpected keys ['registry_cod']"),
    "evaluate-gold-line-misspelt-criterion-id": (
        "evaluate", "gold.jsonl",
        replace_line(2, b'{"note_id": "n1", "question_id": "m1", "label": "YES", '
                        b'"criterion": "mc1"}'),
        "line 2: {path}: unexpected keys ['criterion']"),
    "screen-fixtures-file-unknown-keys": (
        "screen", "fixtures.json",
        edit_json(lambda doc: doc.update(fixture={}, bad=1)),
        "{path}: unexpected keys ['bad', 'fixture']"),
    "evaluate-criterion-rule-nested-too-deeply": (
        "evaluate", "catalog/criteria.json",
        edit_json(lambda doc: doc["criteria"][1].update(
            rule="(" * 400 + "m2 IS YES" + ")" * 400)),
        "criterion 'mc2', position 101: rule nested deeper than 100 levels"),
    "convert-criterion-unknown-key": (
        "convert", "catalog/criteria.json",
        edit_json(lambda doc: doc["criteria"][0].update(rules="m2 IS YES", note="x")),
        "{path}: criteria[0]: unexpected keys ['note', 'rules']"),
    "screen-duplicate-question-id": (
        "screen", "catalog/questions.json",
        edit_json(lambda doc: doc["questions"][2].update(question_id="m1")),
        "duplicate question id 'm1'"),
    "convert-duplicate-criterion-id": (
        "convert", "catalog/criteria.json",
        edit_json(lambda doc: doc["criteria"][1].update(criterion_id="mc1")),
        "duplicate criterion id 'mc1'"),
    "screen-duplicate-trial-id": (
        "screen", "catalog/trials.json",
        edit_json(lambda doc: doc["trials"].append(doc["trials"][0])),
        "duplicate trial id 'mt1'"),
    "screen-trial-lists-a-criterion-id-twice": (
        "screen", "catalog/trials.json",
        edit_json(lambda doc: doc["trials"][0]["criterion_ids"].append("mc1")),
        "{path}: trials[0]: criterion_ids lists 'mc1' twice (field 'criterion_ids')"),
    "evaluate-criterion-lists-a-trial-id-twice": (
        "evaluate", "catalog/criteria.json",
        edit_json(lambda doc: doc["criteria"][1]["trial_ids"].append("mt1")),
        "{path}: criteria[1]: trial_ids lists 'mt1' twice (field 'trial_ids')"),
    "convert-criterion-lists-a-question-id-twice": (
        "convert", "catalog/criteria.json",
        edit_json(lambda doc: doc["criteria"][0]["question_ids"].insert(0, "m3")),
        "{path}: criteria[0]: question_ids lists 'm3' twice (field 'question_ids')"),
    "evaluate-duplicate-gold-question-label": (
        "evaluate", "gold.jsonl",
        replace_line(1, b'{"note_id": "n1", "question_id": "m2", "label": "NO"}'),
        "duplicate gold question label id ('n1', 'm2')"),
    "evaluate-duplicate-gold-criterion-label": (
        "evaluate", "gold.jsonl",
        replace_line(1, b'{"note_id": "n2", "criterion_id": "mc2", "label": "MET"}'),
        "duplicate gold criterion label id ('n2', 'mc2')"),
    "screen-blank-question-text": (
        "screen", "catalog/questions.json",
        edit_json(lambda doc: doc["questions"][1].update(text="")),
        "{path}: questions[1]: text must be non-empty (field 'text')"),
    "screen-section-text-a-number": (
        "screen", "notes.jsonl",
        replace_line(2, b'{"note_id": "n2", "sections": {"chief_complaint": 5}}'),
        "line 2: {path}: section text must be a string (field 'chief_complaint')"),
    "screen-rule-starts-with-a-keyword": (
        "screen", "catalog/criteria.json",
        edit_json(lambda doc: doc["criteria"][0].update(rule="AND m1 IS YES")),
        "criterion 'mc1', position 1: unexpected 'AND', "
        "expected question id, '(', NOT, ANY or ALL"),
    "evaluate-rule-names-an-unlisted-question": (
        "evaluate", "catalog/criteria.json",
        edit_json(lambda doc: doc["criteria"][0].update(rule="m1 IS YES AND m2 IS YES")),
        "unknown id 'm2' referenced by criterion 'mc1' rule"),
    "screen-fixtures-not-a-map": (
        "screen", "fixtures.json", edit_json(lambda doc: doc.update(fixtures=["canned"])),
        "{path}: expected {{'fixtures': {{tag: text}}}}"),
    "screen-fixture-text-a-number": (
        "screen", "fixtures.json", edit_json(lambda doc: doc["fixtures"].update(x=1)),
        "{path}: expected {{'fixtures': {{tag: text}}}}"),
}


class TestBadInput:
    @staticmethod
    def argv(command, workspace):
        root = workspace["root"]
        if command == "screen":
            return ["screen", "--config", str(workspace["run_json"])]
        if command == "evaluate":
            (root / "results.jsonl").write_text("")
            return ["evaluate", "--results", str(root / "results.jsonl"),
                    "--gold", str(workspace["gold"]), "--catalog", str(workspace["catalog"]),
                    "--out", str(root / "eval")]
        (root / "backends.json").write_text(json.dumps(
            {"backends": [{"kind": "mock"}], "refiner": {"kind": "mock"}}))
        return ["convert", "--criteria", str(workspace["catalog"] / "criteria.json"),
                "--backends", str(root / "backends.json"), "--out", str(root / "converted")]

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exits_3_naming_file_record_and_field(self, mini_workspace, caplog, case):
        command, name, corrupt, message = BAD_INPUTS[case]
        path = mini_workspace["root"] / name
        corrupt(path)
        assert cli_main(self.argv(command, mini_workspace)) == EXIT_INPUT
        assert message.format(path=path) in caplog.text
        assert not (mini_workspace["out"] / "results.jsonl").exists()

    def test_a_result_key_read_twice_exits_3_naming_file_and_key(self, mini_workspace,
                                                                  caplog):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        results_path = mini_workspace["out"] / "results.jsonl"
        first = read_jsonl(results_path)[0]
        key = (first["note_id"], first["question_id"], first["pathway"])
        with open(results_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(first, value="NO" if first["value"] == "YES"
                                         else "YES")) + "\n")
        before = results_path.read_bytes()
        message = f"{results_path}: result key {key!r} appears twice"
        for argv in (["canonicalize", "--results", str(results_path)],
                     ["evaluate", "--results", str(results_path),
                      "--gold", str(mini_workspace["gold"]),
                      "--catalog", str(mini_workspace["catalog"]),
                      "--out", str(mini_workspace["root"] / "eval")]):
            caplog.clear()
            assert cli_main(argv) == EXIT_INPUT
            assert message in caplog.text
        assert results_path.read_bytes() == before
        assert not (mini_workspace["root"] / "eval").exists()

    def test_gold_note_unknown_under_notes_exits_3(self, mini_workspace, caplog):
        assert cmd_screen(run_config(mini_workspace)) == EXIT_OK
        with open(mini_workspace["gold"], "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"note_id": "ghost-note", "question_id": "m1",
                                     "label": "YES"}) + "\n")
        args = (mini_workspace["out"] / "results.jsonl", mini_workspace["gold"],
                mini_workspace["catalog"], mini_workspace["root"] / "eval")
        assert cmd_evaluate(*args, notes_path=mini_workspace["notes"]) == EXIT_INPUT
        assert "unknown id 'ghost-note' referenced by gold question label" in caplog.text
        assert cmd_evaluate(*args) == EXIT_OK  # notes are only checked when given

    @pytest.mark.parametrize("command", ["screen", "evaluate"])
    def test_trial_ids_naming_an_unknown_trial_exits_3(self, mini_workspace, caplog,
                                                       command):
        criteria_path = mini_workspace["catalog"] / "criteria.json"
        doc = json.loads(criteria_path.read_text())
        doc["criteria"][0]["trial_ids"] = ["NO-SUCH-TRIAL"]
        criteria_path.write_text(json.dumps(doc))
        assert cli_main(self.argv(command, mini_workspace)) == EXIT_INPUT
        assert ("input error: unknown id 'NO-SUCH-TRIAL' referenced by criterion 'mc1' "
                "trial_ids") in caplog.text

    def test_bad_mock_fixtures_exits_3(self, mini_workspace, caplog):
        mini_workspace["fixtures"].write_text("[]")
        assert cmd_screen(run_config(mini_workspace)) == EXIT_INPUT
        assert f"{mini_workspace['fixtures']}: expected a JSON object" in caplog.text


# (config file, how to break it, what the error says)
BAD_CONFIGS = {
    "workers-not-a-number": ("run.json", lambda doc: {**doc, "workers": "abc"},
                             "invalid run config: 'workers' must be an integer, got 'abc'"),
    "workers-null": ("run.json", lambda doc: {**doc, "workers": None},
                     "invalid run config: 'workers' must be an integer, got None"),
    "workers-a-bool": ("run.json", lambda doc: {**doc, "workers": True},
                       "invalid run config: 'workers' must be an integer, got True"),
    "backend-fixtures-path-a-number": (
        "run.json", lambda doc: {**doc, "backend": {**doc["backend"], "fixtures_path": 5}},
        "invalid backend config: 'fixtures_path' must be a string or null, got 5 "
        "(in 'backend')"),
    "backend-max-inflight-a-bool": (
        "run.json", lambda doc: {**doc, "backend": {**doc["backend"], "max_inflight": True}},
        "invalid backend config: 'max_inflight' must be an integer, got True"),
    "backend-max-inflight-a-float": (
        "run.json", lambda doc: {**doc, "backend": {**doc["backend"], "max_inflight": 2.5}},
        "invalid backend config: 'max_inflight' must be an integer, got 2.5"),
    "backend-kind-null": (
        "backends.json", lambda doc: {**doc, "refiner": {"kind": None}},
        "invalid backend config: 'kind' must be a string, got None (in 'refiner')"),
    "backends-entry-kind-null": (
        "backends.json", lambda doc: {**doc, "backends": [*doc["backends"], {"kind": None}]},
        "invalid backend config: 'kind' must be a string, got None (in 'backends'[1])"),
    "run-config-a-list": ("run.json", lambda doc: [doc], "expected a JSON object"),
    "roles-a-string": ("run.json", lambda doc: {**doc, "roles": "crc"},
                       "invalid run config: 'roles' must be a list of strings, got 'crc'"),
    "backend-latency-a-string": (
        "run.json", lambda doc: {**doc, "backend": {**doc["backend"],
                                                   "mock_latency_s": "x"}},
        "invalid backend config: 'mock_latency_s' must be a number, got 'x'"),
    "backends-a-list": ("backends.json", lambda doc: [doc], "expected a JSON object"),
    "backends-misspelt-refiner": ("backends.json", lambda doc: {**doc, "refinr": {}},
                                  "unknown backends config keys ['refinr']"),
    "backends-an-object": (
        "backends.json", lambda doc: {**doc, "backends": {"kind": "mock"}},
        "invalid backends config: 'backends' must be a list of objects, got {'kind': 'mock'}"),
    "backends-not-all-objects": (
        "backends.json", lambda doc: {**doc, "backends": [*doc["backends"], "mock"]},
        "invalid backends config: 'backends' must be a list of objects"),
    "backends-empty": ("backends.json", lambda doc: {**doc, "backends": []},
                       "invalid backends config: 'backends' lists no drafting backend"),
    "refiner-missing": ("backends.json", lambda doc: {"backends": doc["backends"]},
                        "invalid backends config: 'refiner' is required"),
    "seed-a-list": ("run.json", lambda doc: {**doc, "seed": ["a", 1]},
                    "unknown run config keys ['seed']"),
    "misspelt-keys": ("run.json", lambda doc: {**doc, "pathwya": "B", "worker": 4},
                      "unknown run config keys ['pathwya', 'worker']"),
    "gold-key": ("run.json", lambda doc: {**doc, "gold": "gold.jsonl"},
                 "unknown run config keys ['gold']"),
    "backend-kind-unknown": (
        "run.json", lambda doc: {**doc, "backend": {**doc["backend"], "kind": "grpc"}},
        "invalid backend config: unknown backend kind 'grpc'"),
    "backend-retry-limit-negative": (
        "backends.json", lambda doc: {**doc, "refiner": {"kind": "mock", "retry_limit": -1}},
        "invalid backend config: retry_limit must be >= 0"),
    "mock-backend-base-url": (
        "run.json", lambda doc: {**doc, "backend": {**doc["backend"],
                                                   "base_url": "http://127.0.0.1:8080"}},
        "invalid backend config: 'base_url' is not read by mock backends"),
    "mock-backend-api-key": (
        "backends.json", lambda doc: {**doc, "refiner": {"kind": "mock", "api_key": "k"}},
        "invalid backend config: 'api_key' is not read by mock backends"),
    "http-backend-fixtures-path": (
        "run.json", lambda doc: {**doc, "backend": {"kind": "http",
                                                   "base_url": "http://127.0.0.1:8080",
                                                   "fixtures_path": "fixtures.json"}},
        "invalid backend config: 'fixtures_path' is not read by http backends"),
    "http-backend-mock-latency": (
        "backends.json", lambda doc: {**doc, "backends": [
            {"kind": "http", "base_url": "http://127.0.0.1:8080", "mock_latency_s": 0.5}]},
        "invalid backend config: 'mock_latency_s' is not read by http backends"),
    "roles-duplicated": ("run.json", lambda doc: {**doc, "roles": ["crc", "jd", "CRC"]},
                         "config error: duplicate roles in config"),
    "pathway-a-without-roles": (
        "run.json", lambda doc: {**doc, "pathway": "A", "roles": []},
        "config error: pathway A requires at least one role"),
    "backend-backoff-negative": (
        "run.json", lambda doc: {**doc, "backend": {**doc["backend"], "backoff_s": -0.5}},
        "invalid backend config: backoff_s and mock_latency_s must be >= 0"),
    "backend-mock-latency-negative": (
        "backends.json", lambda doc: {**doc, "refiner": {"kind": "mock",
                                                         "mock_latency_s": -1}},
        "invalid backend config: backoff_s and mock_latency_s must be >= 0"),
    # Past threading.TIMEOUT_MAX, the longest wait a socket or a sleep takes.
    "backend-timeout-past-the-platform-limit": (
        "run.json", lambda doc: {**doc, "backend": {**doc["backend"], "timeout_ms": 10**30}},
        "invalid backend config: timeout_ms must be at most "),
    "backend-backoff-past-the-platform-limit": (
        "run.json", lambda doc: {**doc, "backend": {**doc["backend"], "backoff_s": 1e10}},
        "invalid backend config: backoff_s must be at most "),
    "backend-mock-latency-past-the-platform-limit": (
        "backends.json", lambda doc: {**doc, "refiner": {"kind": "mock",
                                                         "mock_latency_s": 1e10}},
        "invalid backend config: mock_latency_s must be at most "),
    "backend-api-key-with-its-newline": (
        "run.json", lambda doc: {**doc, "backend": {"kind": "http",
                                                   "base_url": "http://127.0.0.1:8080",
                                                   "api_key": "sk-abc\n"}},
        "invalid backend config: api_key must be visible ASCII"),
    "backend-api-key-with-a-space": (
        "backends.json", lambda doc: {**doc, "refiner": {
            "kind": "http", "base_url": "http://127.0.0.1:8080", "api_key": "sk abc"}},
        "invalid backend config: api_key must be visible ASCII"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_2_with_config_error(mini_workspace, caplog, case):
    name, edit, message = BAD_CONFIGS[case]
    root = mini_workspace["root"]
    backends = {"backends": [{"kind": "mock"}], "refiner": {"kind": "mock"}}
    (root / "backends.json").write_text(json.dumps(backends))
    path = root / name
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    if name == "run.json":
        argv = ["screen", "--config", str(path)]
    else:
        argv = ["convert", "--criteria", str(mini_workspace["catalog"] / "criteria.json"),
                "--backends", str(path), "--out", str(root / "converted")]
    assert cli_main(argv) == EXIT_CONFIG
    assert "config error" in caplog.text
    assert message in caplog.text


def test_a_number_past_the_largest_float_is_a_config_error(mini_workspace, caplog):
    """1e999 decodes to Infinity, which no sleep takes."""
    path = mini_workspace["run_json"]
    doc = json.loads(path.read_text())
    doc["backend"]["mock_latency_s"] = 123.25
    path.write_text(json.dumps(doc).replace("123.25", "1e999"))
    assert cli_main(["screen", "--config", str(path)]) == EXIT_CONFIG
    assert "invalid backend config: mock_latency_s must be at most " in caplog.text
    assert not (mini_workspace["out"] / "results.jsonl").exists()


# A JSON value of the wrong type for a config field, by the type of its
# default (a string for a required field or one whose default is None).
WRONG_JSON = {str: 5, bool: "true", int: 2.5, float: "x", tuple: "crc", dict: ["mock"]}


def wrong_type_cases():
    for cls, what in ((RunConfig, "run"), (BackendConfig, "backend")):
        for name in cls._fields:
            default = cls._field_defaults.get(name, "")
            kind = dict if name == "backend" else str if default is None else type(default)
            yield pytest.param(what, name, WRONG_JSON[kind], id=f"{what}-{name}")
    yield pytest.param("run", "roles", ["crc", 1], id="run-roles-not-all-strings")


@pytest.mark.parametrize("what, name, value", wrong_type_cases())
def test_every_config_field_is_type_checked(mini_workspace, caplog, what, name, value):
    path = mini_workspace["root"] / "run.json"
    doc = json.loads(path.read_text())
    (doc if what == "run" else doc["backend"])[name] = value
    path.write_text(json.dumps(doc))
    assert cli_main(["screen", "--config", str(path)]) == EXIT_CONFIG
    assert f"config error: invalid {what} config: {name!r} must be " in caplog.text
    assert not (mini_workspace["out"] / "results.jsonl").exists()


def test_readme_config_examples_parse():
    """The README's run.json and backends.json blocks and its http backend
    line are valid configs, so a key removed or renamed on one side only
    fails here."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    run_json = re.search(r"### Screen\n.*?```json\n(.*?)```", readme, re.S)
    backends_json = re.search(r"`backends.json`:\n\n```json\n(.*?)```", readme, re.S)
    http = re.search(r"For a live backend use\n`(\{.*?\})`", readme, re.S)
    assert RunConfig.from_dict(json.loads(run_json.group(1))).backend.kind == "mock"
    assert BackendsConfig.from_dict(json.loads(backends_json.group(1))).refiner.model_name \
        == "refiner"
    assert backend_config_from_dict(json.loads(http.group(1))).kind == "http"


# Text JSON must escape, or that ensure_ascii=False leaves as it is.
ODD_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029é漢\U0001f600'),
                             st.characters()), max_size=12)


@given(
    ids=st.tuples(ODD_TEXT, ODD_TEXT, ODD_TEXT),
    answer=st.builds(ParsedAnswer, st.sampled_from(Verdict), ODD_TEXT,
                     st.lists(ODD_TEXT, max_size=3).map(tuple), ODD_TEXT, st.booleans()),
    elapsed_s=st.one_of(st.sampled_from([0.0, 7.4e-05, 1e16, 0.1, 123.456]),
                        st.floats(min_value=0.0, allow_infinity=False)),
    transcript=st.one_of(st.none(), ODD_TEXT),
)
@settings(max_examples=120, deadline=None)
def test_result_lines_equal_the_encoding_of_their_records(ids, answer, elapsed_s,
                                                          transcript):
    record = ResultRecord(*ids, answer=answer, elapsed_s=elapsed_s, transcript=transcript)
    assert record.to_line() == _JSONL_ENCODER.encode(record.to_dict())


@pytest.mark.parametrize("elapsed_s", [0, 2, float("inf"), float("nan")])
def test_result_line_of_an_int_or_non_finite_elapsed_time(elapsed_s):
    record = ResultRecord("n", "q", "B", ParsedAnswer(Verdict.YES, "r", ("e",), "p"),
                          elapsed_s=elapsed_s)
    assert record.to_line() == _JSONL_ENCODER.encode(record.to_dict())


def test_verdict_lines_equal_json_dumps_of_their_records(tmp_path):
    # Ids that JSON must escape or that ensure_ascii=False leaves as they are.
    odd = ['quote"d', "back\\slash", "née 漢", "line\u2028sep"]
    questions = {q: QuestionSpec(q, q, Category.DIAGNOSIS, TaskType.DIRECT_MATCH)
                 for q in ("Q1", "Q2")}
    criteria = {
        odd[0]: CriterionSpec(odd[0], (), CriterionKind.INCLUSION, "t", "Q1 IS YES", ("Q1",)),
        odd[1]: CriterionSpec(odd[1], (), CriterionKind.INCLUSION, "t", "Q2 IS YES", ("Q2",)),
        odd[2]: CriterionSpec(odd[2], (), CriterionKind.EXCLUSION, "t",
                              "Q1 IS NO OR Q2 IS NO", ("Q1", "Q2")),
    }
    trials = {odd[3]: TrialSpec(odd[3], tuple(criteria)), "té": TrialSpec("té", (odd[2],))}
    catalog = Catalog(questions, criteria, trials)
    notes = [AdmissionNote(note_id, {}) for note_id in (odd[1], odd[3], "plain")]
    records = [
        ResultRecord(note_id, question_id, label,
                     ParsedAnswer(value, "r", (), "p"), 0.0)
        for label, values in ((odd[2], (Verdict.YES, Verdict.UNKNOWN)),
                              ("B", (Verdict.NO, Verdict.NO)))
        for note_id, value in zip((odd[1], odd[3]), values)
        for question_id in ("Q1", "Q2")
    ]
    path = tmp_path / "verdicts.jsonl"
    _write_verdicts(path, notes, catalog, records)

    expected = []
    for label in sorted({record.pathway for record in records}):
        for note in notes:
            answers = {record.question_id: record.answer.value for record in records
                       if record.pathway == label and record.note_id == note.note_id}
            verdicts = verdicts_for_note(criteria.values(), answers)
            expected += [{"note_id": note.note_id, "criterion_id": verdict.criterion_id,
                          "met": verdict.met, "stable": verdict.stable, "pathway": label}
                         for verdict in verdicts]
            for trial in trials.values():
                rollup = trial_verdict(trial, verdicts)
                expected.append({"note_id": note.note_id, "trial_id": trial.trial_id,
                                 "status": rollup.status.value,
                                 "failing": list(rollup.failing), "pathway": label})
    assert {record["status"] for record in expected if "status" in record} == \
        {"ELIGIBLE", "INELIGIBLE", "UNDETERMINED"}
    assert max(len(record.get("failing", ())) for record in expected) >= 2
    written = path.read_bytes().decode("utf-8").split("\n")
    assert written == [json.dumps(record, ensure_ascii=False, sort_keys=True)
                       for record in expected] + [""]


BAD_BASE_URLS = {
    "port-not-a-number": "http://127.0.0.1:abc",
    "no-scheme": "127.0.0.1:8080",
    "no-host": "http://:8080/v1",
    # A request line takes a path of visible ASCII only.
    "non-ascii-path": "http://127.0.0.1:8000/ü",
    "space-in-path": "http://127.0.0.1:8000/a b",
    "control-character-in-path": "http://127.0.0.1:8000/a\x01b",
}


@pytest.mark.parametrize("case", sorted(BAD_BASE_URLS))
def test_bad_base_url_exits_2_with_config_error(mini_workspace, caplog, case):
    path = mini_workspace["root"] / "run.json"
    doc = json.loads(path.read_text())
    doc["backend"] = {"kind": "http", "base_url": BAD_BASE_URLS[case]}
    path.write_text(json.dumps(doc))
    assert cli_main(["screen", "--config", str(path)]) == EXIT_CONFIG
    assert "config error: invalid backend config: base_url" in caplog.text
    assert not (mini_workspace["out"] / "results.jsonl").exists()


@pytest.mark.parametrize("target", ["convert", "refine", "role_crc", "role_jd", "judge_r1"])
@pytest.mark.parametrize("content, message", [
    pytest.param("{{question}} {{note}} {{mystery}}".encode(), "placeholder {{mystery}}",
                 id="placeholder"),
    pytest.param(b"\xff\xfe not text {{question}}", "not UTF-8", id="not-utf8"),
    pytest.param(b" \n\t\n", "blank template", id="blank"),
])
def test_bad_prompt_override_exits_3_before_any_unit(mini_workspace, caplog, tmp_path,
                                                     monkeypatch, target, content, message):
    """A bad override of any template a command reads stops it with exit 3,
    naming the file, before any unit sends a request."""
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    (prompts / f"{target}.txt").write_bytes(content)
    if target in ("convert", "refine"):
        criteria_path, backends_path = TestCmdConvert.build_catalog(tmp_path / "catalog", 2)
        code, gateways = TestCmdConvert.convert_keeping_gateways(
            monkeypatch, criteria_path, backends_path, tmp_path / "out", prompts_dir=prompts)
        transports = [gateway.transport for gateway in gateways.values()]
        assert len(transports) == 3
    else:
        gateway = make_mock_gateway(build_mini_fixtures())
        code = cmd_screen(run_config(mini_workspace, prompts=str(prompts)), gateway=gateway)
        transports = [gateway.transport]
        assert not (mini_workspace["out"] / "results.jsonl").exists()
    assert code == EXIT_INPUT
    assert f"{prompts / target}.txt: {message}" in caplog.text
    assert [transport.calls for transport in transports] == [0] * len(transports)


@pytest.mark.parametrize("target, content, missing", [
    ("role_crc", "You are a coordinator. Answer: {{question}}", "{{note}}"),
    ("stance_pos", "Argue yes. {{question}}\n{{note}}", "{{judge_notes}}"),
    ("refine", "{{criterion}}\n{{drafts}}", "{{draft_rules}}"),
], ids=["role", "stance", "refine"])
def test_prompt_override_missing_a_placeholder_exits_3_before_any_unit(
        mini_workspace, caplog, tmp_path, monkeypatch, target, content, missing):
    """An override that leaves out a placeholder its packaged template fills
    is a bad override too: the request would lack what it stands for."""
    test_bad_prompt_override_exits_3_before_any_unit(
        mini_workspace, caplog, tmp_path, monkeypatch, target, content.encode(),
        f"placeholder {missing} of the {target!r} template is missing")


@pytest.mark.parametrize("command", ["screen", "convert"])
@pytest.mark.parametrize("kind", ["missing", "file", "empty"])
def test_prompts_not_a_directory_exits_3_before_any_unit(mini_workspace, caplog, tmp_path,
                                                         monkeypatch, command, kind):
    """A prompts path that is missing, a regular file or empty stops either
    command with exit 3, naming the path, before any request is sent."""
    (tmp_path / "prompts.txt").write_text("not a directory")
    prompts = {"missing": str(tmp_path / "no-such-dir"),
               "file": str(tmp_path / "prompts.txt"), "empty": ""}[kind]
    sent = []
    monkeypatch.setattr(eligo.gateway.MockTransport, "send",
                        lambda transport, req: sent.append(req))
    if command == "convert":
        criteria_path, backends_path = TestCmdConvert.build_catalog(tmp_path / "catalog", 2)
        argv = ["convert", "--criteria", str(criteria_path), "--backends", str(backends_path),
                "--out", str(tmp_path / "out"), "--prompts", prompts]
    else:
        path = mini_workspace["root"] / "run.json"
        path.write_text(json.dumps(dict(mini_workspace["run_config"], prompts=prompts)))
        argv = ["screen", "--config", str(path)]
    assert cli_main(argv) == EXIT_INPUT
    assert f"prompts directory {prompts!r} is not a directory" in caplog.text
    assert sent == []


# Texts built from the name of the value ``{{a}}``, the separators that a
# key's pieces could be joined with and placeholders, so that pieces that run
# into each other would collide.
KEY_TEXTS = st.lists(st.sampled_from(["a", "a", "é", "0", "1", ":", "|", "\n", "{", "}",
                                      "{{note}}", "{{question}}", "{{a}}"]),
                     max_size=4).map("".join)


@st.composite
def key_inputs(draw):
    """What a reply key is made from: a backend, a template, a note, a
    question, a stage and, when the template has ``{{a}}``, its value."""
    literals = [draw(KEY_TEXTS) for _ in range(4)]
    return {
        "backend": draw(st.builds(lambda kind, model, url: BackendConfig(kind, model, url),
                                  st.sampled_from(["mock", "http"]), KEY_TEXTS,
                                  st.sampled_from([None, "http://h", "http://h:1/v"]))),
        "template": (f"{literals[0]}{{{{question}}}}{literals[1]}{{{{note}}}}{literals[2]}"
                     + draw(st.sampled_from(["", "{{a}}"])) + literals[3]),
        "sections": draw(st.fixed_dictionaries(
            {"chief_complaint": KEY_TEXTS, "past_history": KEY_TEXTS})),
        "ids": draw(st.tuples(st.sampled_from(["n1", "n2"]), st.sampled_from(["q1", "q2"]),
                              st.sampled_from(["roleCRC", "judge|r1"]))),
        "question": draw(KEY_TEXTS),
        "value": draw(KEY_TEXTS),
    }


class _AnsweringGateway:
    """A gateway that answers every request at once with ``reply``."""

    def __init__(self, reply=""):
        self.reply = reply

    def call(self, request, done, *, on_park=None):
        done(self.reply, None)


def keyed_request(inputs):
    note_id, question_id, stage = inputs["ids"]
    values = {"a": inputs["value"]} if "{{a}}" in inputs["template"] else {}
    note = AdmissionNote(note_id, inputs["sections"])
    question = QuestionSpec(question_id, inputs["question"], Category.DIAGNOSIS,
                            TaskType.DIRECT_MATCH)
    request = question_request(inputs["template"], question, note, stage, **values)
    backend = inputs["backend"]
    calls = io.StringIO()
    _ReplyStore(_AnsweringGateway(), backend, calls, {}).call(request, lambda *outcome: None)
    identity = ((backend.kind, backend.model_name, backend.base_url), request.tag,
                inputs["template"], note.text, question.text, values)
    return json.loads(calls.getvalue())["key"], request, identity


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_reply_keys_are_equal_exactly_when_backend_tag_and_inputs_are(data):
    """Equal keys mean the same backend, tag and prompt inputs, and so the
    same prompt.  Different inputs that happen to render the same prompt get
    different keys: that costs a call, and never mixes up two answers.

    The second inputs are the first ones, with one part drawn afresh, or
    with the question and the value cut at another place of the two joined."""
    first = data.draw(key_inputs())
    change = data.draw(st.just("cut") | st.sampled_from([None, *first]))
    if change == "cut":
        first["template"] += "{{a}}"  # so that the value is an input too
    second = dict(first)
    if change == "cut":
        joined = first["question"] + first["value"]
        cut = data.draw(st.integers(0, len(joined)))
        second["question"], second["value"] = joined[:cut], joined[cut:]
    elif change is not None:
        second[change] = data.draw(key_inputs())[change]
    key_a, request_a, identity_a = keyed_request(first)
    key_b, request_b, identity_b = keyed_request(second)
    assert (key_a == key_b) == (identity_a == identity_b)
    if key_a == key_b:
        assert (request_a.prompt, request_a.tag) == (request_b.prompt, request_b.tag)


def test_reply_store_lines_keep_their_format(tmp_path, monkeypatch):
    # Keys and lines as an earlier out/ holds them, so that it still resumes
    # with no call; each call takes the time between two clock readings.
    clock = iter([10.0, 10.25, 20.0, 20.5])
    monkeypatch.setattr(eligo.runner.time, "monotonic", lambda: next(clock))
    note = AdmissionNote("n1", {"chief_complaint": "chest pain", "past_history": "\u00e9"})
    question = QuestionSpec("q1", "Chest pain?", Category.DIAGNOSIS, TaskType.DIRECT_MATCH)
    requests = [question_request("Role {{question}} {{note}}", question, note, "roleCRC"),
                question_request("Judge {{question}} {{note}} {{arg_pos}} {{arg_neg}}",
                                 question, note, "judge|r1", arg_pos='yes "p"', arg_neg="no\n")]
    backend = BackendConfig("http", "m", "http://h:1/v")
    path = tmp_path / "calls.jsonl"
    replies = []
    with open(path, "w", encoding="utf-8") as calls:
        store = _ReplyStore(_AnsweringGateway('ANSWER: YES\n"\u00e9"\u2028'), backend, calls, {})
        for request in requests:
            store.call(request, lambda reply, error: replies.append(reply))
    reply = b'"reply": "ANSWER: YES\\n\\"\xc3\xa9\\"\xe2\x80\xa8"'
    assert path.read_bytes().splitlines(keepends=True) == [
        b'{"elapsed_s": 0.25, '
        b'"key": "d972caa1a3499b57ab09448dc4d13d9f82f70aab85112282b1206f0c12189f7e", '
        + reply + b', "tag": "n1|q1|roleCRC"}\n',
        b'{"elapsed_s": 0.5, '
        b'"key": "9b783c9fd75beb8ebfd125d3b0d47fd249c78ffdc4f5baf2548a75ea14fecaa3", '
        + reply + b', "tag": "n1|q1|judge|r1"}\n',
    ]
    # A sent reply and the same reply read back carry the time the line records.
    stored = _read_resume_state(path)
    with open(path, "a", encoding="utf-8") as calls:
        store = _ReplyStore(_AnsweringGateway(), backend, calls, stored)
        for request in requests:
            store.call(request, lambda reply, error: replies.append(reply))
    assert [(reply.elapsed_s, reply.sent) for reply in replies] == \
        [(0.25, True), (0.5, True), (0.25, False), (0.5, False)]
    assert len(set(replies)) == 1


def test_reply_store_appends_whole_lines_from_many_threads(tmp_path):
    # A reply longer than the file's buffer is written in more than one
    # system call, between which another thread's append could land.
    path = tmp_path / "calls.jsonl"
    with open(path, "w", encoding="utf-8") as calls:
        store = _ReplyStore(_AnsweringGateway("x" * 20_000), BackendConfig("mock", "m"),
                            calls, {})

        def append(thread):
            for index in range(50):
                store.call(ChatRequest("", f"t{thread}|{index}"), lambda *outcome: None)

        threads = [threading.Thread(target=append, args=(thread,)) for thread in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(_read_resume_state(path)) == 8 * 50
