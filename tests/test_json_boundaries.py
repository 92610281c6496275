"""Every place eligo reads JSON treats undecodable JSON as bad input.

Each reader is fed a value nested 100,000 deep, an integer of 5,000
digits, NaN, Infinity and a string of half a surrogate pair.  Python's
json module raises RecursionError and ValueError for the first two and
accepts the rest, which are not JSON: a NaN backoff would stall the retry
timer, and the string cannot be written as UTF-8.  ``corpus.json_value``
refuses all five with the SchemaError of any other bad input, so no
command ends with a traceback.  Each layer then keeps its own policy: a
config exits 2, an input file exits 3 naming the file and, for JSONL, the
line, a resumed run truncates a torn final line of calls.jsonl, and a
backend reply fails its unit.
"""

import json
import logging

import pytest

from eligo.cli import main as cli_main
from eligo.runner import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, EXIT_PARTIAL, cmd_screen

from test_gateway import _http_server, _ok_payload, http_backend  # noqa: F401 (fixtures)
from conftest import build_mini_fixtures, make_mock_gateway
from test_runner import read_jsonl, replace_line, run_config

BAD_VALUES = {"nested": b"[" * 100_000 + b"]" * 100_000, "long-integer": b"1" * 5_000,
              "nan": b"NaN", "infinity": b"Infinity", "lone-surrogate": b'"\\ud800"'}
# What the error says of each, after "invalid JSON: ".
REASONS = {"nested": "nested too deeply", "long-integer": "integer longer than 4300 digits",
           "nan": "NaN is not a JSON number", "infinity": "Infinity is not a JSON number",
           "lone-surrogate": "unpaired surrogate escape"}


def into_document(bad):
    """Rewrite a JSON object file with a first key that holds ``bad``."""
    def apply(path):
        text = path.read_bytes().lstrip()
        assert text.startswith(b"{")
        path.write_bytes(b'{"bad": ' + bad + b", " + text[1:])
    return apply


# (command, file in the mini workspace, its JSONL line or None, exit status)
BOUNDARIES = {
    "run.json": ("screen", "run.json", None, EXIT_CONFIG),
    "backends.json": ("convert", "backends.json", None, EXIT_CONFIG),
    "questions.json": ("screen", "catalog/questions.json", None, EXIT_INPUT),
    "criteria.json": ("evaluate", "catalog/criteria.json", None, EXIT_INPUT),
    "trials.json": ("screen", "catalog/trials.json", None, EXIT_INPUT),
    "criteria to convert": ("convert", "catalog/criteria.json", None, EXIT_INPUT),
    "fixtures.json": ("screen", "fixtures.json", None, EXIT_INPUT),
    "notes.jsonl": ("screen", "notes.jsonl", 2, EXIT_INPUT),
    "gold.jsonl": ("evaluate", "gold.jsonl", 3, EXIT_INPUT),
    "results.jsonl (evaluate)": ("evaluate", "out/results.jsonl", 5, EXIT_INPUT),
    "results.jsonl (canonicalize)": ("canonicalize", "out/results.jsonl", 5, EXIT_INPUT),
    "metrics.json": ("report", "eval/metrics.json", None, EXIT_INPUT),
}


def argv(command, workspace):
    root = workspace["root"]
    results = str(workspace["out"] / "results.jsonl")
    if command == "screen":
        return ["screen", "--config", str(workspace["run_json"])]
    if command == "evaluate":
        return ["evaluate", "--results", results, "--gold", str(workspace["gold"]),
                "--catalog", str(workspace["catalog"]), "--out", str(root / "eval")]
    if command == "canonicalize":
        return ["canonicalize", "--results", results]
    if command == "report":
        return ["report", "--metrics", str(root / "eval" / "metrics.json")]
    return ["convert", "--criteria", str(workspace["catalog"] / "criteria.json"),
            "--backends", str(root / "backends.json"), "--out", str(root / "converted")]


@pytest.mark.parametrize("bad_name", sorted(BAD_VALUES))
@pytest.mark.parametrize("case", list(BOUNDARIES))
def test_bad_json_is_bad_input(mini_workspace, caplog, case, bad_name):
    command, name, line, status = BOUNDARIES[case]
    root = mini_workspace["root"]
    (root / "backends.json").write_text(json.dumps(
        {"backends": [{"kind": "mock"}], "refiner": {"kind": "mock"}}))
    if name.startswith(("out/", "eval/")):
        assert cli_main(argv("screen", mini_workspace)) == EXIT_OK
        assert cli_main(argv("evaluate", mini_workspace)) == EXIT_OK
    path = root / name
    bad = BAD_VALUES[bad_name]
    (into_document(bad) if line is None else replace_line(line, bad))(path)
    caplog.clear()
    assert cli_main(argv(command, mini_workspace)) == status
    where = f"{path}: invalid JSON: {REASONS[bad_name]}"
    if line is not None:
        where = f"line {line}: {where}"
    assert where in caplog.text
    assert "set_int_max_str_digits" not in caplog.text


@pytest.mark.parametrize("bad_name", sorted(BAD_VALUES))
def test_final_calls_line_is_truncated_on_resume(mini_workspace, caplog, bad_name):
    config = run_config(mini_workspace)
    assert cmd_screen(config) == EXIT_OK
    calls_path = mini_workspace["out"] / "calls.jsonl"
    lines = calls_path.read_bytes().splitlines()
    calls_path.write_bytes(b"\n".join(lines[:-1] + [BAD_VALUES[bad_name]]) + b"\n")
    gateway = make_mock_gateway(build_mini_fixtures())
    with caplog.at_level(logging.WARNING):
        assert cmd_screen(config, gateway=gateway) == EXIT_OK
    assert "truncating torn final line" in caplog.text
    assert gateway.transport.calls == 1  # its call is sent again
    assert len(read_jsonl(calls_path)) == len(lines)


@pytest.mark.parametrize("bad_name", sorted(BAD_VALUES))
def test_middle_calls_line_exits_3_on_resume(mini_workspace, caplog, bad_name):
    config = run_config(mini_workspace)
    assert cmd_screen(config) == EXIT_OK
    calls_path = mini_workspace["out"] / "calls.jsonl"
    replace_line(5, BAD_VALUES[bad_name])(calls_path)
    assert cmd_screen(config) == EXIT_INPUT
    assert f"line 5: {calls_path}: invalid JSON: {REASONS[bad_name]}" in caplog.text


@pytest.mark.parametrize("bad_name", sorted(BAD_VALUES))
def test_bad_transcript_line_is_overwritten_on_resume(mini_workspace, bad_name):
    # A rerun reads nothing from debates.jsonl: it writes the file whole.
    config = run_config(mini_workspace, pathway="B")
    assert cmd_screen(config) == EXIT_OK
    debates_path = mini_workspace["out"] / "debates.jsonl"
    transcripts = sorted(debates_path.read_text().splitlines())
    replace_line(2, BAD_VALUES[bad_name])(debates_path)
    assert cmd_screen(config) == EXIT_OK
    assert sorted(debates_path.read_text().splitlines()) == transcripts


@pytest.mark.parametrize("bad_name", sorted(BAD_VALUES))
def test_backend_reply_fails_its_unit(mini_workspace, http_backend, caplog, bad_name):
    base_url, handler = http_backend
    good = (200, _ok_payload('"Yes". Backed by the note.'))
    bad = (200, '{"choices": ' + BAD_VALUES[bad_name].decode() + "}")
    handler.script = [good] * 4 + [bad, good]
    config = run_config(mini_workspace, pathway="A", vote=False, backend={
        "kind": "http", "base_url": base_url, "model_name": "m", "backoff_s": 0.0})
    assert cmd_screen(config) == EXIT_PARTIAL
    counts = json.loads((mini_workspace["out"] / "manifest.json").read_text())["counts"]
    assert counts["failed"] == 1
    assert counts["answered"] + counts["failed"] + counts["skipped"] == counts["total_units"]
    assert "malformed completion payload (status 200)" in caplog.text
    assert (mini_workspace["out"] / "verdicts.jsonl").exists()
