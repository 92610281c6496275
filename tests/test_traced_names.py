"""The functions the benchmark's tracer wraps must exist under those names.

``perfbench/tracer.py`` skips a name it cannot find, so a renamed function
would silently read 0 in its per-layer metric instead of failing.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_layers() -> dict[str, list[str]]:
    """``LAYERS`` from the tracer's source, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACER}")


TRACED = [(layer, name) for layer, names in traced_layers().items() for name in names]


@pytest.mark.parametrize("layer, name", TRACED,
                         ids=[f"{layer}.{name}" for layer, name in TRACED])
def test_traced_name_resolves(layer, name):
    target = importlib.import_module(f"eligo.{layer}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)


# The traced names that a mock screen (pathway both) and an evaluate of its
# results never call: the tracer's metrics for them read 0 on those commands.
NEVER_CALLED = {"gateway.Gateway.complete", "gateway.HttpTransport.send",
                "pathway_a.answer_with_role", "pathway_b.run_debate", "rules.sensitivity"}


def test_screen_and_evaluate_call_every_traced_name_but_the_known_few(
        mini_workspace, monkeypatch):
    """Each name in ``LAYERS``, and each module-level alias of it, is wrapped
    with a call counter as ``tracer.install`` wraps it.  A change that stops
    calling another traced name blinds that layer's metric, and fails here."""
    calls = dict.fromkeys((f"{layer}.{name}" for layer, name in TRACED), 0)

    def counted(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)
        return wrapper

    modules = {layer: importlib.import_module(f"eligo.{layer}") for layer, _ in TRACED}
    loaded = [module for module_name, module in list(sys.modules.items())
              if module_name == "eligo" or module_name.startswith("eligo.")]
    for layer, name in TRACED:
        module, key = modules[layer], f"{layer}.{name}"
        if "." in name:
            class_name, method = name.split(".")
            cls = getattr(module, class_name)
            monkeypatch.setattr(cls, method, counted(key, vars(cls)[method]))
            continue
        original = getattr(module, name)
        wrapped = counted(key, original)
        for holder in loaded:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, attr, wrapped)

    main = modules["cli"].main
    assert main(["screen", "--config", str(mini_workspace["run_json"])]) == 0
    assert main([
        "evaluate", "--results", str(mini_workspace["out"] / "results.jsonl"),
        "--gold", str(mini_workspace["gold"]), "--catalog", str(mini_workspace["catalog"]),
        "--out", str(mini_workspace["root"] / "eval"), "--notes", str(mini_workspace["notes"]),
    ]) == 0
    assert {key for key, count in calls.items() if count == 0} == NEVER_CALLED
