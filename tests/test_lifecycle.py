"""The process lifecycle: eligo and CPython's cyclic garbage collector.

``eligo.cli.run`` freezes the heap before the process exits, ``evaluate``
runs and ``screen`` loads its inputs with the collector paused, and
``run_units`` leaves no reference cycle behind a unit.  In-process callers
keep the collector state they had.
"""

import ast
import gc
import json
import os
import subprocess
import sys
import time
import tomllib
from contextlib import contextmanager
from pathlib import Path

import pytest

import eligo
import eligo.cli
import eligo.evaluation
import eligo.gateway
import eligo.runner
from eligo import errors
from eligo.cli import main as cli_main
from eligo.corpus import collector_paused
from eligo.gateway import BackendConfig, ChatRequest, Gateway, run_units
from eligo.runner import (
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    RunConfig,
    canonicalize_results_file,
    cmd_evaluate,
    cmd_screen,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = os.path.dirname(os.path.dirname(eligo.__file__))


def collector_state():
    return gc.isenabled(), gc.get_freeze_count()


@contextmanager
def collector(enabled):
    """Run the block with the collector on or off, then turn it back on."""
    if not enabled:
        gc.disable()
    try:
        yield
    finally:
        gc.enable()


# -- collector_paused ---------------------------------------------------------

class TestCollectorPaused:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_pauses_then_restores_the_state_it_found(self, enabled):
        with collector(enabled):
            with collector_paused():
                assert not gc.isenabled()
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_state_on_error(self, enabled):
        with collector(enabled):
            with pytest.raises(RuntimeError, match="inside"):
                with collector_paused():
                    raise RuntimeError("inside")
            assert gc.isenabled() is enabled

    def test_is_a_decorator_that_pauses_each_call(self):
        seen = []

        @collector_paused()
        def work(value):
            seen.append(gc.isenabled())
            return value * 2

        assert work.__name__ == "work"
        assert work(2) == 4 and work(3) == 6
        assert seen == [False, False]
        assert gc.isenabled()


# -- run_units leaves no cycles -----------------------------------------------

class _Replies:
    """Transport that answers every tag but the refused ones, which fail with
    a BackendError; it waits for ``latency_s`` when that is set."""

    def __init__(self, refused=(), latency_s=0.0):
        self.refused = set(refused)
        self.latency_s = latency_s
        self.waits = latency_s > 0

    def send(self, req):
        if self.latency_s:
            time.sleep(self.latency_s)
        if req.tag in self.refused:
            raise errors.BackendError("refused", status=400)
        return f"reply to {req.tag}"


def two_batch_unit(index, *, raises=False):
    first = yield [ChatRequest("x", f"u{index}a"), ChatRequest("x", f"u{index}b")]
    if raises:
        raise RuntimeError("bug in a unit")
    try:
        second = yield [ChatRequest("x", f"u{index}c")]
    except errors.GatewayError as error:
        second = [str(error)]
    return first + second


def cyclic_garbage_after(units, transport):
    """What ``gc.collect`` finds once ``units`` have run with the collector
    paused, and the outcome of the run."""
    gateway = Gateway(BackendConfig(kind="mock", max_inflight=3), transport=transport)
    gc.collect()
    with collector_paused():
        try:
            outcome = run_units(units, gateway, 8)
        except RuntimeError as error:
            outcome = str(error)
        gateway.close()
        return gc.collect(), outcome


class TestNoCyclesPerUnit:
    def test_units_that_return(self):
        found, results = cyclic_garbage_after(
            [two_batch_unit(index) for index in range(100)], _Replies())
        assert found == 0
        assert results[99] == ["reply to u99a", "reply to u99b", "reply to u99c"]

    def test_a_unit_that_raises(self):
        found, outcome = cyclic_garbage_after(
            [two_batch_unit(index, raises=index == 50) for index in range(100)], _Replies())
        assert found == 0
        assert outcome == "bug in a unit"

    @pytest.mark.parametrize("latency_s", [0.0, 0.001], ids=["on-the-call", "on-senders"])
    def test_a_request_that_fails_with_a_gateway_error(self, latency_s):
        found, results = cyclic_garbage_after(
            [two_batch_unit(index) for index in range(100)],
            _Replies({"u50c"}, latency_s=latency_s))
        assert found == 0
        assert results[50] == ["reply to u50a", "reply to u50b", "refused (status 400)"]


# -- in-process callers keep their collector state ---------------------------

def evaluate_args(workspace, results=None):
    return ["evaluate", "--results", str(results or workspace["out"] / "results.jsonl"),
            "--gold", str(workspace["gold"]), "--catalog", str(workspace["catalog"]),
            "--out", str(workspace["root"] / "eval"), "--notes", str(workspace["notes"])]


def one_role_vote_config(workspace):
    """A run.json that votes with one role: a config error."""
    path = workspace["root"] / "one-role-vote.json"
    path.write_text(json.dumps(dict(workspace["run_config"], roles=["crc"], vote=True)))
    return str(path)


def call_main(argv):
    return lambda workspace: cli_main(argv(workspace))


def call_evaluate(workspace, results=None):
    args = evaluate_args(workspace, results)
    return cmd_evaluate(args[2], args[4], args[6], args[8], notes_path=args[10])


def call_screen(workspace, **overrides):
    return cmd_screen(RunConfig.from_dict(dict(workspace["run_config"], **overrides)))


def call_screen_without_workers(workspace):
    return cmd_screen(RunConfig.from_dict(workspace["run_config"])._replace(workers=0))


# (name, call, its exit code or exception, (module, name) to break or None);
# a call whose name holds "evaluate" reads the results of a screen run first.
CALLS = [
    ("main-screen-ok", call_main(lambda ws: ["screen", "--config", str(ws["run_json"])]),
     EXIT_OK, None),
    ("main-screen-exit-2", call_main(lambda ws: ["screen", "--config",
                                                 one_role_vote_config(ws)]),
     EXIT_CONFIG, None),
    ("main-usage-exit-2", call_main(lambda ws: ["screen"]), SystemExit, None),
    ("main-evaluate-ok", call_main(evaluate_args), EXIT_OK, None),
    ("main-evaluate-exit-3", call_main(
        lambda ws: evaluate_args(ws, ws["root"] / "missing.jsonl")), EXIT_INPUT, None),
    ("main-evaluate-raises", call_main(evaluate_args), RuntimeError,
     (eligo.runner, "read_results")),
    ("evaluate-ok", call_evaluate, EXIT_OK, None),
    ("evaluate-exit-3", lambda ws: call_evaluate(ws, ws["root"] / "missing.jsonl"),
     EXIT_INPUT, None),
    ("evaluate-raises", call_evaluate, RuntimeError, (eligo.evaluation, "score_criteria")),
    ("screen-ok", call_screen, EXIT_OK, None),
    ("screen-exit-2", call_screen_without_workers, EXIT_CONFIG, None),
    ("screen-exit-3", lambda ws: call_screen(ws, notes=str(ws["root"] / "missing.jsonl")),
     EXIT_INPUT, None),
    ("screen-raises-loading", call_screen, RuntimeError, (eligo.runner, "load_catalog_dir")),
    ("screen-raises-running", call_screen, RuntimeError, (eligo.runner, "_write_verdicts")),
]


def broken(*args, **kwargs):
    raise RuntimeError("broken on purpose")


class TestCallersKeepTheirCollectorState:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("name, call, expected, breaks", CALLS,
                             ids=[case[0] for case in CALLS])
    def test_state_is_unchanged(self, mini_workspace, monkeypatch, enabled,
                                name, call, expected, breaks):
        if "evaluate" in name:
            assert call_screen(mini_workspace) == EXIT_OK
        if breaks is not None:
            monkeypatch.setattr(*breaks, broken)
        with collector(enabled):
            before = collector_state()
            if isinstance(expected, int):
                assert call(mini_workspace) == expected
            else:
                with pytest.raises(expected):
                    call(mini_workspace)
            assert collector_state() == before

    def test_evaluate_runs_paused_and_screen_pauses_only_to_load(self, mini_workspace,
                                                               monkeypatch):
        seen = {}

        def recording(module, name):
            function = getattr(module, name)

            def record(*args, **kwargs):
                seen.setdefault(name, gc.isenabled())
                return function(*args, **kwargs)
            monkeypatch.setattr(module, name, record)

        for module, name in [(eligo.runner, "load_notes"), (eligo.runner, "_write_verdicts"),
                             (eligo.gateway.MockTransport, "send"),
                             (eligo.evaluation, "score_questions")]:
            recording(module, name)
        assert call_screen(mini_workspace) == EXIT_OK
        assert call_evaluate(mini_workspace) == EXIT_OK
        assert seen == {"load_notes": False, "send": True, "_write_verdicts": True,
                        "score_questions": False}
        assert gc.isenabled()


class TestParserIsBuiltOnce:
    def test_two_calls_share_one_parser_and_the_second_leaves_no_cycle(
            self, mini_workspace, monkeypatch):
        assert call_screen(mini_workspace) == EXIT_OK
        parsers = []
        parse_args = eligo.cli.argparse.ArgumentParser.parse_args

        def recording(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)
        monkeypatch.setattr(eligo.cli.argparse.ArgumentParser, "parse_args", recording)
        argv = ["canonicalize", "--results", str(mini_workspace["out"] / "results.jsonl"),
                "--out", str(mini_workspace["root"] / "canonical.jsonl")]
        found = []
        for _ in range(2):
            gc.collect()
            with collector(False):
                assert cli_main(argv) == EXIT_OK
                found.append(gc.collect())
        assert len(parsers) == 2 and parsers[0] is parsers[1]
        assert found[1] == 0


# -- the console entry point --------------------------------------------------

class TestRun:
    def test_run_exits_with_mains_status_after_freezing(self, monkeypatch):
        if gc.get_freeze_count():
            pytest.skip("objects were frozen before this test")
        monkeypatch.setattr(eligo.cli, "main", lambda: EXIT_INPUT)
        try:
            with pytest.raises(SystemExit) as exit_info:
                eligo.cli.run()
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert exit_info.value.code == EXIT_INPUT

    def test_an_exception_from_main_propagates_unfrozen(self, monkeypatch):
        def failing_main():
            raise RuntimeError("main broke")

        monkeypatch.setattr(eligo.cli, "main", failing_main)
        before = collector_state()
        with pytest.raises(RuntimeError, match="main broke"):
            eligo.cli.run()
        assert collector_state() == before

    def test_the_installed_script_is_what_python_m_runs(self):
        scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))[
            "project"]["scripts"]
        module, _, function = scripts["eligo"].partition(":")
        assert module == "eligo.cli"
        tree = ast.parse(Path(eligo.cli.__file__).read_text(encoding="utf-8"))
        [guard] = [node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert ast.unparse(guard.body) == f"{function}()"
        assert callable(getattr(eligo.cli, function))


# -- python -m eligo.cli against in-process runs ------------------------------

def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "eligo.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=60)


class TestPythonDashM:
    def test_screen_and_evaluate_write_what_in_process_runs_write(self, mini_workspace):
        root = mini_workspace["root"]
        config = dict(mini_workspace["run_config"], out=str(root / "fresh"))
        (root / "fresh.json").write_text(json.dumps(config), encoding="utf-8")
        assert cli_main(["screen", "--config", str(mini_workspace["run_json"])]) == EXIT_OK
        screened = run_module("screen", "--config", str(root / "fresh.json"))
        assert screened.returncode == EXIT_OK
        assert "INFO eligo.corpus: catalog loaded: 3 questions" in screened.stderr
        here, fresh = mini_workspace["out"], root / "fresh"
        assert (canonicalize_results_file(here / "results.jsonl")
                == canonicalize_results_file(fresh / "results.jsonl"))
        for name in ("verdicts.jsonl", "debates.jsonl"):
            assert (here / name).read_bytes() == (fresh / name).read_bytes()

        args = evaluate_args(mini_workspace)[:-4]
        assert cli_main([*args, "--out", str(root / "eval-here"),
                         "--notes", str(mini_workspace["notes"])]) == EXIT_OK
        evaluated = run_module(*args, "--out", str(root / "eval-fresh"),
                               "--notes", str(mini_workspace["notes"]))
        assert evaluated.returncode == EXIT_OK
        assert "INFO eligo.corpus: catalog loaded" in evaluated.stderr
        for name in ("metrics.json", "report.md", "per_question.csv"):
            assert ((root / "eval-here" / name).read_bytes()
                    == (root / "eval-fresh" / name).read_bytes())

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    def test_stdout_on_a_full_device_exits_3(self, mini_workspace):
        assert cli_main(["screen", "--config", str(mini_workspace["run_json"])]) == EXIT_OK
        assert cli_main(evaluate_args(mini_workspace)) == EXIT_OK
        metrics = mini_workspace["root"] / "eval" / "metrics.json"
        for argv in (["canonicalize", "--results", str(mini_workspace["out"] / "results.jsonl")],
                     ["report", "--metrics", str(metrics)]):
            with open("/dev/full", "w") as full:
                done = subprocess.run([sys.executable, "-m", "eligo.cli", *argv],
                                      env=dict(os.environ, PYTHONPATH=SRC), stdout=full,
                                      stderr=subprocess.PIPE, text=True, timeout=60)
            assert done.returncode == EXIT_INPUT
            assert done.stderr == ("ERROR eligo.runner: cannot write <stdout>: "
                                   "No space left on device\n")

    def test_exit_2_and_3_with_their_errors_on_stderr(self, mini_workspace):
        bad_config = run_module("screen", "--config", one_role_vote_config(mini_workspace))
        assert bad_config.returncode == EXIT_CONFIG
        assert "ERROR eligo: config error: " in bad_config.stderr
        missing = mini_workspace["root"] / "missing.jsonl"
        bad_input = run_module(*evaluate_args(mini_workspace, missing))
        assert bad_input.returncode == EXIT_INPUT
        assert "ERROR eligo.runner: input error: " in bad_input.stderr
        assert str(missing) in bad_input.stderr
        usage = run_module("evaluate")
        assert usage.returncode == 2
        assert "the following arguments are required" in usage.stderr
