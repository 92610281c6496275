"""Each command imports only the modules it runs.

eligo's start-up is a fixed cost of every command, and evaluate never sends
a request, so it must not load the gateway, the pathways or the prompts.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import eligo

SRC = os.path.dirname(os.path.dirname(eligo.__file__))

# Runs the CLI on argv, then prints its exit code and the loaded modules.
RUN_CLI = ("import json, sys\n"
           "from eligo.cli import main\n"
           "code = main(sys.argv[1:])\n"
           "print(json.dumps([code, sorted(sys.modules)]))")

NOT_FOR_EVALUATE = {"eligo.gateway", "eligo.pathway_a", "eligo.pathway_b",
                    "eligo.prompting", "concurrent.futures"}

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
