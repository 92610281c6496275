"""Traced ``eligo`` CLI: wraps each layer's public functions in spans.

Run as ``python3 perfbench/tracer.py SPANS.json <eligo arguments...>``.  It
imports eligo from ``src/``, replaces the functions listed in ``LAYERS``
(every module-level alias of each, so ``from .rules import x`` copies are
covered too) with wrappers that record a span, runs ``eligo.cli.main`` and
writes the spans to SPANS.json when the command returns.

A span is ``[id, parent, unit, name, start, end, info]``.  ``parent`` is the
span that was open in the calling context, carried into worker threads by
patching the ``ThreadPoolExecutor`` the runner and pathway B use; ``unit`` is
the id of the enclosing unit-level span (one role answer, vote or debate),
so every span of one unit shares it.  ``info`` holds a count the layer
metrics need (parse fallback, debate calls used), -2 when the call raised
and -1 otherwise.

:func:`layer_metrics` turns a span file into the per-layer metrics.  Names
missing from a later version of eligo are skipped, and their time then
shows as self time of the caller.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import math
import statistics
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# layer -> functions (``Class.method`` for methods) wrapped in that layer.
LAYERS = {
    "cli": ["main"],
    "runner": ["cmd_screen", "cmd_evaluate", "_write_verdicts", "read_results",
               "_read_resume_state"],
    "corpus": ["load_notes", "load_catalog_dir", "load_gold"],
    "prompting": ["load_template", "render"],
    "gateway": ["Gateway.complete", "MockTransport.send", "HttpTransport.send",
                "parse_answer"],
    "pathway_a": ["load_roles", "answer_with_role", "majority_vote"],
    "pathway_b": ["run_debate"],
    "rules": ["parse_rule", "criterion_verdict", "sensitivity", "trial_verdict"],
    "evaluation": ["score_questions", "score_criteria", "counterfactual_rate",
                   "grounding_check", "timing_stats", "render_report"],
}
UNIT_ROOTS = {"pathway_a.answer_with_role", "pathway_a.majority_vote",
              "pathway_b.run_debate"}
POOL_MODULES = ("runner", "pathway_b")

_current = contextvars.ContextVar("perfbench_span", default=None)


NONE, ERROR = -1, -2


def _info(name: str, result) -> int:
    if name == "gateway.parse_answer":
        return int(bool(getattr(result, "parse_fallback", False)))
    if name == "pathway_b.run_debate":
        calls = getattr(result[1], "calls_used", None)
        return calls if isinstance(calls, int) else NONE
    return NONE


class Recorder:
    """Span store: one set of typed columns per thread.

    Columns of machine numbers instead of a tuple per span keep the
    collector from walking hundreds of thousands of objects mid-run, which
    made the traced run markedly slower than the untraced one.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[tuple] = []
        self._lock = threading.Lock()

    def _columns(self) -> tuple:
        columns = getattr(self._local, "columns", None)
        if columns is None:
            columns = tuple(array(code) for code in "qqqHddq")
            with self._lock:
                self._buffers.append(columns)
            self._local.columns = columns
        return columns

    def spans(self) -> list[tuple]:
        """Every span as ``(id, parent, unit, name, start, end, info)``."""
        rows = []
        for ids, parents, units, names, starts, ends, infos in self._buffers:
            rows.extend(zip(ids, parents, units, (self.names[n] for n in names),
                            starts, ends, infos))
        return rows

    def wrap(self, name: str, fn):
        ids, columns = self._ids, self._columns
        name_index = len(self.names)
        self.names.append(name)
        unit_root = name in UNIT_ROOTS

        def wrapper(*args, **kwargs):
            parent = _current.get()
            span_id = next(ids)
            unit = span_id if unit_root else (parent[1] if parent else 0)
            token = _current.set((span_id, unit))
            info = ERROR
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                info = _info(name, result)
                return result
            finally:
                end = time.perf_counter()
                _current.reset(token)
                c_id, c_parent, c_unit, c_name, c_start, c_end, c_info = columns()
                c_id.append(span_id)
                c_parent.append(parent[0] if parent else 0)
                c_unit.append(unit)
                c_name.append(name_index)
                c_start.append(start)
                c_end.append(end)
                c_info.append(info)

        wrapper.__wrapped__ = fn
        return wrapper


class _ContextPool(ThreadPoolExecutor):
    """Runs each task in a copy of the submitter's context, so spans nest."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def install(recorder: Recorder) -> list[str]:
    """Wrap every listed function; return the names that were not found."""
    missing = []
    modules = {layer: importlib.import_module(f"eligo.{layer}") for layer in LAYERS}
    loaded = [module for key, module in sys.modules.items()
              if key == "eligo" or key.startswith("eligo.")]
    for layer, names in LAYERS.items():
        for name in names:
            span_name = f"{layer}.{name.split('.')[-1]}"
            if "." in name:
                class_name, method = name.split(".")
                cls = getattr(modules[layer], class_name, None)
                if cls is None or method not in vars(cls):
                    missing.append(span_name)
                    continue
                setattr(cls, method, recorder.wrap(span_name, vars(cls)[method]))
                continue
            original = getattr(modules[layer], name, None)
            if original is None:
                missing.append(span_name)
                continue
            wrapped = recorder.wrap(span_name, original)
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    for layer in POOL_MODULES:
        if hasattr(modules[layer], "ThreadPoolExecutor"):
            modules[layer].ThreadPoolExecutor = _ContextPool
    return missing


def run(spans_path: str, argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import eligo.cli

    recorder = Recorder()
    missing = install(recorder)
    code = eligo.cli.main(argv)
    dump_started = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"missing": missing, "spans": recorder.spans()}, handle)
    # Lets the caller take the dump out of the traced wall time.
    with open(spans_path + ".dump_s", "w", encoding="utf-8") as handle:
        handle.write(repr(time.perf_counter() - dump_started))
    return code


# -- analysis -------------------------------------------------------------------

def _self_times(spans: list) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[4], span[5]))
    result = {}
    for span_id, _parent, _unit, _name, start, end, _info in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans_path: str) -> dict[str, float]:
    with open(spans_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document["missing"]:
        print(f"tracer: not in this eligo, so not traced: {document['missing']}",
              file=sys.stderr)
    spans = document["spans"]
    self_times = _self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)

    def total(name: str) -> float:
        return sum(s[5] - s[4] for s in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    metrics: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span in spans:
        metrics[span[3].split(".")[0] + ".self_s"] += self_times[span[0]]

    sends = by_name.get("gateway.send", [])
    send_by_parent: dict[int, float] = {}
    for span in sends:
        send_by_parent[span[1]] = send_by_parent.get(span[1], 0.0) + span[5] - span[4]
    completes = by_name.get("gateway.complete", [])
    parses = by_name.get("gateway.parse_answer", [])
    debates = by_name.get("pathway_b.run_debate", [])
    debate_ms = [(s[5] - s[4]) * 1000.0 for s in debates]
    debate_calls = [s[6] for s in debates if s[6] >= 0]
    sensitivity_ms = [(s[5] - s[4]) * 1000.0 for s in by_name.get("rules.sensitivity", ())]

    metrics.update({
        "runner.read_results_s": total("runner.read_results")
        + total("runner._read_resume_state"),
        "runner.write_verdicts_s": total("runner._write_verdicts"),
        "rules.parse_rule_calls": count("rules.parse_rule"),
        "rules.parse_rule_s": total("rules.parse_rule"),
        "rules.criterion_verdict_s": total("rules.criterion_verdict"),
        "rules.sensitivity_s": total("rules.sensitivity"),
        "rules.sensitivity_worst_ms": max(sensitivity_ms, default=0.0),
        "rules.trial_verdict_s": total("rules.trial_verdict"),
        "gateway.complete_calls": len(completes),
        "gateway.queue_wait_s": sum((s[5] - s[4]) - send_by_parent.get(s[0], 0.0)
                                    for s in completes),
        "gateway.send_s": total("gateway.send"),
        "gateway.retries": len(sends) - len(completes),
        "gateway.parse_answer_s": total("gateway.parse_answer"),
        "gateway.parse_fallback_share": (sum(1 for s in parses if s[6] == 1)
                                         / len(parses)) if parses else 0.0,
        "prompting.render_s": total("prompting.render"),
        "prompting.load_template_calls": count("prompting.load_template"),
        "pathway_a.answer_with_role_s": total("pathway_a.answer_with_role"),
        "pathway_a.majority_vote_s": total("pathway_a.majority_vote"),
        "pathway_b.debate_p50_ms": statistics.median(debate_ms) if debate_ms else 0.0,
        "pathway_b.debate_p99_ms": _nearest_rank(debate_ms, 0.99),
        "pathway_b.calls_per_debate": (sum(debate_calls) / len(debate_calls)
                                       if debate_calls else 0.0),
        "corpus.load_s": total("corpus.load_notes") + total("corpus.load_catalog_dir")
        + total("corpus.load_gold"),
        "evaluation.score_s": total("evaluation.score_questions")
        + total("evaluation.score_criteria") + total("evaluation.counterfactual_rate")
        + total("evaluation.timing_stats"),
        "evaluation.grounding_check_s": total("evaluation.grounding_check"),
        "evaluation.render_report_s": total("evaluation.render_report"),
    })
    return metrics


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
