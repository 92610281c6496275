"""The functions the benchmark's tracer wraps must exist under those names.

``perfbench/tracer.py`` skips a name it cannot find, so a renamed function
would silently read 0 in its per-layer metric instead of failing.
"""

import ast
import importlib
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
