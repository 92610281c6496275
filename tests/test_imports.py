"""Each command imports only the modules it runs.

eligo's start-up is a fixed cost of every command, and evaluate never sends
a request, so it must not load the gateway, the pathways or the prompts.
No command loads ``dataclasses`` (or ``inspect``, which it imports): its
classes generate their methods when they are defined.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eligo

import test_runner

SRC = os.path.dirname(os.path.dirname(eligo.__file__))

# Runs the CLI on argv, then prints its exit code and the loaded modules.
RUN_CLI = ("import json, sys\n"
           "from eligo.cli import main\n"
           "code = main(sys.argv[1:])\n"
           "print(json.dumps([code, sorted(sys.modules)]))")

NOT_FOR_EVALUATE = {"eligo.gateway", "eligo.pathway_a", "eligo.pathway_b",
                    "eligo.prompting", "concurrent.futures"}
NOT_FOR_ANY_COMMAND = {"dataclasses", "inspect"}

# The names ``eligo`` exports, by the module each was imported from before
# they loaded on first access.
EXPORTED = {
    "corpus": ["AdmissionNote", "Catalog", "CriterionSpec", "GoldSet", "QuestionSpec",
               "TrialSpec", "Verdict", "canonical_text", "load_catalog_dir", "load_gold",
               "load_notes"],
    "gateway": ["BackendConfig", "ChatRequest", "Gateway", "ParsedAnswer", "parse_answer"],
    "pathway_a": ["answer_with_role", "load_roles", "majority_vote"],
    "pathway_b": ["run_debate"],
    "rules": ["criterion_verdict", "eval_rule", "parse_rule", "print_rule", "sensitivity",
              "trial_verdict", "verdicts_for_note"],
    "evaluation": ["counterfactual_rate", "grounding_check", "score_criteria",
                   "score_questions", "timing_stats"],
}


def run_in_subprocess(code: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                          capture_output=True, text=True).stdout


def run_cli(*argv: str) -> tuple[int, set[str]]:
    code, modules = json.loads(run_in_subprocess(RUN_CLI, *argv).splitlines()[-1])
    return code, set(modules)


def test_screen_loads_no_evaluation(mini_workspace):
    code, modules = run_cli("screen", "--config", str(mini_workspace["run_json"]))
    assert code == 0
    assert {"eligo.gateway", "eligo.pathway_a", "eligo.pathway_b"} <= modules
    assert "eligo.evaluation" not in modules
    assert "concurrent.futures" not in modules
    assert not modules & NOT_FOR_ANY_COMMAND


def test_convert_loads_no_futures(tmp_path):
    criteria_path, backends_path = test_runner.TestCmdConvert.build_catalog(
        tmp_path, 2, latency_s=0.001)
    code, modules = run_cli("convert", "--criteria", str(criteria_path),
                            "--backends", str(backends_path), "--out", str(tmp_path / "out"))
    assert code == 0
    assert "eligo.conversion" in modules
    assert not modules & {"eligo.pathway_a", "eligo.pathway_b", "eligo.evaluation"}
    assert "concurrent.futures" not in modules
    assert not modules & NOT_FOR_ANY_COMMAND


def test_evaluate_loads_no_gateway_pathway_or_prompts(mini_workspace):
    code, _ = run_cli("screen", "--config", str(mini_workspace["run_json"]))
    assert code == 0
    code, modules = run_cli(
        "evaluate", "--results", str(mini_workspace["out"] / "results.jsonl"),
        "--gold", str(mini_workspace["gold"]), "--catalog", str(mini_workspace["catalog"]),
        "--notes", str(mini_workspace["notes"]),
        "--out", str(mini_workspace["root"] / "eval"))
    assert code == 0
    assert (mini_workspace["root"] / "eval" / "metrics.json").exists()
    assert "eligo.evaluation" in modules
    assert not modules & NOT_FOR_EVALUATE
    assert not modules & NOT_FOR_ANY_COMMAND


def imported_packages(path):
    """(line, top-level package) of each module that ``path`` imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            yield node.lineno, name.split(".")[0]


@pytest.mark.parametrize("path", sorted(Path(eligo.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    for line, package in imported_packages(path):
        assert package != "dataclasses", f"{path.name}:{line} imports dataclasses"


@pytest.mark.parametrize("module", ["pathway_a", "pathway_b", "prompting"])
def test_units_are_timed_only_by_the_runner(module):
    # The runner's reply store times every call, and a unit takes the times
    # of its calls, a role as a debate, so a unit module keeps no second clock.
    path = Path(eligo.__file__).parent / f"{module}.py"
    lines = [line for line, package in imported_packages(path) if package == "time"]
    assert not lines, f"{path.name} imports time on lines {lines}"


def test_the_runner_reads_its_clock_only_in_the_reply_store():
    # A unit's time is read from the calls.jsonl lines that the store times,
    # so a replay writes the times of the run that sent the calls.
    tree = ast.parse((Path(eligo.__file__).parent / "runner.py").read_text(encoding="utf-8"))
    (store,) = [node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "_ReplyStore"]
    in_store = {id(node) for node in ast.walk(store)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "monotonic"
             or isinstance(node, ast.ImportFrom) and node.module == "time"]
    outside = [node.lineno for node in reads if id(node) not in in_store]
    assert reads and not outside, f"runner.py reads the clock on lines {outside}"


def test_no_screen_unit_writes_into_the_runners_state():
    # Each pair returns what it answered, so no closure of cmd_screen's is
    # rebound by a unit.
    tree = ast.parse((Path(eligo.__file__).parent / "runner.py").read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Nonlocal)]
    assert not lines, f"runner.py has nonlocal statements on lines {lines}"


def json_decoder_lines(path):
    """The lines of ``path`` that use ``json.load``, ``json.loads`` or
    ``JSONDecoder``, or import one of them from ``json``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            used = node.attr == "JSONDecoder" or (
                node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name) and node.value.id == "json")
        elif isinstance(node, ast.Name):
            used = node.id == "JSONDecoder"
        elif isinstance(node, ast.ImportFrom):
            used = (node.module or "").split(".")[0] == "json" and any(
                alias.name in ("load", "loads", "JSONDecoder") for alias in node.names)
        else:
            continue
        if used:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(Path(eligo.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_only_corpus_decodes_json(path):
    # corpus.json_value is the one decoder, so bad input fails one way.
    lines = json_decoder_lines(path)
    if path.stem == "corpus":
        assert lines
    else:
        assert not lines, f"{path.name} decodes JSON on lines {lines}"


def test_the_gateway_sends_at_one_site():
    # Gateway._attempt is the one send, on the calling thread and on the
    # senders alike, so whatever watches the wire hooks one routine.
    tree = ast.parse((Path(eligo.__file__).parent / "gateway.py").read_text(encoding="utf-8"))
    sends = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "send" and "transport" in ast.unparse(node.func.value)]
    [attempt] = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_attempt"]
    assert len(sends) == 1, f"gateway.py sends on lines {sends}"
    assert attempt.lineno <= sends[0] <= attempt.end_lineno


def test_import_eligo_loads_no_submodule():
    loaded = run_in_subprocess(
        "import sys, eligo; print(sorted(m for m in sys.modules if m.startswith('eligo')))")
    assert loaded.strip() == "['eligo']"


@pytest.mark.parametrize("module, name", [(module, name) for module, names
                                          in EXPORTED.items() for name in names])
def test_exported_name_still_imports(module, name):
    namespace = {}
    exec(f"from eligo import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"eligo.{module}"), name)


def test_every_exported_name_is_listed():
    assert sorted(eligo.__all__) == sorted(name for names in EXPORTED.values()
                                           for name in names)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        eligo.no_such_name  # noqa: B018
