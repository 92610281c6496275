import concurrent.futures
import hashlib
import json
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
)
from eligo.errors import BackendError, ConfigError
from eligo.gateway import BackendConfig, Gateway, ParsedAnswer, mock_resolve
from eligo.rules import trial_verdict, verdicts_for_note
from eligo.runner import (
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PARTIAL,
    ResultRecord,
    RunConfig,
    _JSONL_ENCODER,
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
    gateway = make_mock_gateway({})
    gateway.transport = _FlakyTransport(build_mini_fixtures(), broken_substring)
    return gateway


class _ResultsWatchingTransport:
    """Mock transport that reads results.jsonl as each call starts."""

    def __init__(self, fixtures, results_path):
        self.fixtures = fixtures
        self.results_path = results_path
        self.snapshots = []

    def send(self, req):
        path = self.results_path
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
    # One value per field that would not be written back as it was read.
    '{"note_id": "n1", "question_id": "m1", "pathway": "B", "value": "NO", "elapsed_s": NaN}',
    # Finite in seconds, but a vote's elapsed_ms would overflow to Infinity.
    '{"note_id": "n1", "question_id": "m1", "pathway": "B", "value": "NO", "elapsed_s": 1e306}',
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

    def test_digest_stable(self, mini_workspace):
        assert run_config(mini_workspace).digest() == \
            run_config(mini_workspace).digest()


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
        raw = dict(mini_workspace["run_config"])
        raw["roles"] = ["crc"]
        config = RunConfig(
            backend=BackendConfig(kind="mock"),
            notes_path=raw["notes"], catalog_dir=raw["catalog"], out_dir=raw["out"],
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

    def test_resume_appends_exactly_missing_record(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        results_path = mini_workspace["out"] / "results.jsonl"
        baseline = canonicalize_results_file(results_path)
        lines = results_path.read_text().splitlines()
        results_path.write_text("\n".join(lines[:-1]) + "\n")
        assert cmd_screen(config) == EXIT_OK
        resumed_lines = results_path.read_text().splitlines()
        assert len(resumed_lines) == len(lines)
        assert canonicalize_results_file(results_path) == baseline

    def test_resume_skips_everything_on_complete_run(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        assert cmd_screen(config) == EXIT_OK
        manifest = json.loads((mini_workspace["out"] / "manifest.json").read_text())
        counts = manifest["counts"]
        assert counts["answered"] == 0
        assert counts["skipped"] == 30
        assert counts["answered"] + counts["failed"] + counts["skipped"] == \
            counts["total_units"]

    def test_torn_final_line_tolerated(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        results_path = mini_workspace["out"] / "results.jsonl"
        baseline = canonicalize_results_file(results_path)
        content = results_path.read_text()
        results_path.write_text(content + '{"note_id": "n1", "ques')
        assert cmd_screen(config) == EXIT_OK
        assert canonicalize_results_file(results_path) == baseline

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

    def test_failed_units_exit_4_and_reconcile(self, mini_workspace):
        config = run_config(mini_workspace)
        # Both notes fail the JD role on question m2, which also blocks the
        # two dependent vote units.
        assert cmd_screen(config, gateway=flaky_gateway("m2|roleJD")) == EXIT_PARTIAL
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
        thread = threading.Thread(target=server.serve_forever, daemon=True)
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

    def test_transcript_appended_onto_torn_line_dropped(self, mini_workspace):
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
        merged = json.loads(lines[0])
        assert cmd_screen(config) == EXIT_OK
        # The transcript fused with the torn line is lost; its result stays.
        del transcripts[(merged["note_id"], merged["question_id"])]
        debates = read_jsonl(debates_path)
        assert {(d["note_id"], d["question_id"]): d for d in debates} == transcripts

    def test_pathway_a_resume_leaves_debates_file_alone(self, mini_workspace):
        out = mini_workspace["out"]
        out.mkdir()
        garbage = '{"note_id": "n1"\nnot json\n'
        (out / "debates.jsonl").write_text(garbage)
        assert cmd_screen(run_config(mini_workspace, pathway="A")) == EXIT_OK
        assert (out / "debates.jsonl").read_text() == garbage

    def test_resume_keeps_records_with_unicode_line_separators(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        results_path = mini_workspace["out"] / "results.jsonl"
        records = read_jsonl(results_path)
        records[0]["rationale"] += "\u2028second\u2029third\u0085fourth"
        results_path.write_text("".join(json.dumps(record, ensure_ascii=False) + "\n"
                                        for record in records), encoding="utf-8")
        before = results_path.read_bytes()
        assert cmd_screen(config) == EXIT_OK
        manifest = json.loads((mini_workspace["out"] / "manifest.json").read_text())
        assert manifest["counts"]["answered"] == 0
        assert results_path.read_bytes() == before

    def test_record_missing_final_newline_completed(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        results_path = mini_workspace["out"] / "results.jsonl"
        baseline = canonicalize_results_file(results_path)
        lines = results_path.read_text().splitlines()
        results_path.write_text("\n".join(lines[:-2]) + "\n" + lines[-2])
        assert cmd_screen(config) == EXIT_OK
        assert len(read_jsonl(results_path)) == len(lines)
        assert canonicalize_results_file(results_path) == baseline

    def test_unreadable_result_mid_file_is_input_error(self, mini_workspace):
        config = run_config(mini_workspace)
        assert cmd_screen(config) == EXIT_OK
        results_path = mini_workspace["out"] / "results.jsonl"
        lines = results_path.read_text().splitlines()
        lines[3] = lines[3][:20]
        results_path.write_text("\n".join(lines) + "\n")
        assert cmd_screen(config) == EXIT_INPUT

    def test_template_loads_independent_of_cohort_size(self, mini_workspace,
                                                        tmp_path, monkeypatch):
        loads = []
        for module in (eligo.pathway_a, eligo.pathway_b):
            def counting_load(name, prompts_dir=None, _load=module.load_template):
                loads.append(name)
                return _load(name, prompts_dir)
            monkeypatch.setattr(module, "load_template", counting_load)

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

    def test_each_record_flushed_before_the_next_unit(self, mini_workspace):
        # One loop and one call per role unit: call k starts after k records.
        results_path = mini_workspace["out"] / "results.jsonl"
        gateway = make_mock_gateway({})
        gateway.transport = _ResultsWatchingTransport(build_mini_fixtures(), results_path)
        config = run_config(mini_workspace, pathway="A", vote=False, workers=1)
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        snapshots = gateway.transport.snapshots
        assert len(snapshots) == 2 * 3 * 3
        for persisted, text in enumerate(snapshots):
            *lines, tail = text.split("\n")
            assert tail == ""
            assert len([json.loads(line) for line in lines]) == persisted

    def test_pathway_a_screen_writes_no_debates_file(self, mini_workspace):
        assert cmd_screen(run_config(mini_workspace, pathway="A")) == EXIT_OK
        assert (mini_workspace["out"] / "results.jsonl").exists()
        assert not (mini_workspace["out"] / "debates.jsonl").exists()

    def test_resume_appends_transcripts_to_repaired_file(self, mini_workspace):
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
        assert cmd_screen(config) == EXIT_OK
        # The repair rewrote the file without the two orphans; the rerun
        # debates then appended theirs to the new file.
        debates = read_jsonl(debates_path)
        assert len(debates) == len(transcripts)
        assert {(d["note_id"], d["question_id"]) for d in debates[-2:]} == rerun
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
                mock = self.transport

                class Transport:
                    def send(self, req):
                        if req.tag == "n2|m2|roleJD":
                            raise RuntimeError("bug in a unit")
                        return mock.send(req)

                self.transport = Transport()

            def close(self):
                closed_gateways.append(self)
                super().close()

        monkeypatch.setattr(eligo.runner, "open", tracking_open, raising=False)
        monkeypatch.setattr(eligo.gateway, "Gateway", BuggyGateway)
        with pytest.raises(RuntimeError, match="bug in a unit"):
            cmd_screen(run_config(mini_workspace))
        assert len(closed_gateways) == 1
        out = mini_workspace["out"]
        assert {Path(handle.name) for handle in opened} == \
            {out / "results.jsonl", out / "debates.jsonl"}
        assert all(handle.closed for handle in opened)
        # The other loops still ran every other pair; only the rest of the
        # failing pair (JD, IE, vote, debate) was lost.
        assert len(read_jsonl(out / "results.jsonl")) == 2 * 3 * 5 - 4
        assert len(read_jsonl(out / "debates.jsonl")) == 2 * 3 - 1

    @pytest.mark.parametrize("workers", [4, 2])
    def test_unit_loops_keep_workers_calls_in_flight(self, mini_workspace, workers):
        gateway = make_mock_gateway(build_mini_fixtures(), latency_s=0.02,
                                    max_inflight=4)
        config = run_config(mini_workspace, pathway="A", workers=workers)
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        assert gateway.transport.peak_inflight == workers

    def test_vote_appended_before_the_next_pair_starts(self, mini_workspace):
        # One loop, one call per role: call 3 is the second pair's first role.
        results_path = mini_workspace["out"] / "results.jsonl"
        gateway = make_mock_gateway({})
        gateway.transport = _ResultsWatchingTransport(build_mini_fixtures(), results_path)
        config = run_config(mini_workspace, pathway="A", workers=1)
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        first_pair = [json.loads(line)
                      for line in gateway.transport.snapshots[3].splitlines()]
        assert [record["pathway"] for record in first_pair] == \
            ["A-CRC", "A-JD", "A-IE", "A-vote"]
        assert len({(record["note_id"], record["question_id"])
                    for record in first_pair}) == 1

    def resume_without(self, workspace, pathway):
        """Screen, drop the (n2, m2) record of one label, and resume."""
        config = run_config(workspace)
        assert cmd_screen(config) == EXIT_OK
        results_path = workspace["out"] / "results.jsonl"
        baseline = canonicalize_results_file(results_path)
        kept = [record for record in read_jsonl(results_path)
                if (record["note_id"], record["question_id"], record["pathway"])
                != ("n2", "m2", pathway)]
        results_path.write_text("".join(json.dumps(record) + "\n" for record in kept))
        gateway = make_mock_gateway(build_mini_fixtures())
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
        assert canonicalize_results_file(results_path) == baseline
        manifest = json.loads((workspace["out"] / "manifest.json").read_text())
        assert manifest["counts"]["answered"] == 1
        assert manifest["counts"]["skipped"] == 29
        return gateway.transport.calls

    def test_resume_rebuilds_missing_vote_from_role_records(self, mini_workspace):
        assert self.resume_without(mini_workspace, "A-vote") == 0

    def test_resume_answers_only_missing_role(self, mini_workspace):
        assert self.resume_without(mini_workspace, "A-JD") == 1

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
        # The other pairs ran to the end either way.
        debates = read_jsonl(mini_workspace["out"] / "debates.jsonl")
        assert len(debates) == 5
        assert ("n1", "m2") not in {(d["note_id"], d["question_id"]) for d in debates}
        gateway.close()

    def test_screen_and_convert_leave_no_thread_behind(self, mini_workspace, tmp_path,
                                                      monkeypatch):
        senders = set()
        send = eligo.gateway.MockTransport.send

        def recording_send(transport, req):
            senders.add(threading.current_thread().name)
            return send(transport, req)

        monkeypatch.setattr(eligo.gateway.MockTransport, "send", recording_send)
        # Senders of gateways that earlier tests left open exit when idle.
        deadline = time.monotonic() + 5.0
        while (any(thread.name == "eligo-sender" for thread in threading.enumerate())
               and time.monotonic() < deadline):
            time.sleep(0.01)
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
        assert f"line 1: {results_path}: unreadable result record" in caplog.text

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
    ])
    def test_malformed_level_exits_3_naming_the_key(self, tmp_path, capsys, caplog,
                                                     metrics, message):
        metrics_path = tmp_path / "metrics.json"
        metrics_path.write_text(json.dumps(metrics))
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

    def test_cli_overrides(self, mini_workspace):
        assert cli_main([
            "screen", "--config", str(mini_workspace["run_json"]),
            "--pathway", "A", "--roles", "crc", "--vote", "off",
        ]) == 0
        records = read_jsonl(mini_workspace["out"] / "results.jsonl")
        assert {record["pathway"] for record in records} == {"A-CRC"}
        assert len(records) == 6

    def test_cli_vote_requires_roles(self, mini_workspace):
        status = cli_main([
            "screen", "--config", str(mini_workspace["run_json"]),
            "--roles", "crc", "--vote", "on",
        ])
        assert status == EXIT_CONFIG

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

    def test_cli_canonicalize_non_utf8_exits_3_naming_the_line(self, tmp_path, caplog):
        results_path = tmp_path / "results.jsonl"
        results_path.write_bytes(UTF16_RESULTS)
        assert UTF16_RESULTS.startswith(b"\xff\xfe")
        assert cli_main(["canonicalize", "--results", str(results_path)]) == EXIT_INPUT
        assert f"line 1: {results_path}: unreadable result record" in caplog.text

    def test_cli_canonicalize(self, mini_workspace, capsys):
        assert cli_main(["screen", "--config", str(mini_workspace["run_json"])]) == 0
        assert cli_main([
            "canonicalize",
            "--results", str(mini_workspace["out"] / "results.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        assert "elapsed_s" not in out
        assert len(out.splitlines()) == 30


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

    def test_bad_mock_fixtures_exits_3(self, mini_workspace, caplog):
        mini_workspace["fixtures"].write_text("[]")
        assert cmd_screen(run_config(mini_workspace)) == EXIT_INPUT
        assert f"{mini_workspace['fixtures']}: expected a JSON object" in caplog.text


# (config file, how to break it, what the error says)
BAD_CONFIGS = {
    "workers-not-a-number": ("run.json", lambda doc: {**doc, "workers": "abc"},
                             "expected int for 'workers'"),
    "workers-null": ("run.json", lambda doc: {**doc, "workers": None},
                     "expected int for 'workers'"),
    "run-config-a-list": ("run.json", lambda doc: [doc], "expected a JSON object"),
    "roles-a-string": ("run.json", lambda doc: {**doc, "roles": "crc"},
                       "expected list for 'roles'"),
    "backend-latency-a-string": (
        "run.json", lambda doc: {**doc, "backend": {**doc["backend"],
                                                   "mock_latency_s": "x"}},
        "invalid backend config"),
    "backends-a-list": ("backends.json", lambda doc: [doc], "expected a JSON object"),
    "seed-a-list": ("run.json", lambda doc: {**doc, "seed": ["a", 1]},
                    "expected str for 'seed'"),
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


@pytest.mark.parametrize("content, message", [
    ("{{question}} {{note}} {{mystery}}".encode(), "placeholder {{mystery}}"),
    (b"\xff\xfe not text {{question}}", "not UTF-8"),
])
def test_bad_prompt_override_exits_3_before_any_unit(mini_workspace, caplog,
                                                      tmp_path, content, message):
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    (prompts / "role_crc.txt").write_bytes(content)
    gateway = make_mock_gateway(build_mini_fixtures())
    sent = []
    call = gateway.call

    def recording(request, done, **kwargs):
        sent.append(request)
        return call(request, done, **kwargs)

    gateway.call = recording
    config = run_config(mini_workspace, prompts=str(prompts))
    assert cmd_screen(config, gateway=gateway) == EXIT_INPUT
    assert f"{prompts / 'role_crc.txt'}: " in caplog.text
    assert message in caplog.text
    assert sent == []
    assert not (mini_workspace["out"] / "results.jsonl").exists()
