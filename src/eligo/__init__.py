"""Eligibility pre-screening engine: question answering over admission notes
via role-based chain-of-thought or preset-stance debate, with rule-based
criterion aggregation and an evaluation harness.

The names below load on first access: ``from eligo import Gateway`` imports
``eligo.gateway`` then, and ``import eligo`` alone imports no submodule, so a
command loads only the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each exported name, by the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "corpus": ("AdmissionNote", "Catalog", "CriterionSpec", "GoldSet", "ParsedAnswer",
               "QuestionSpec", "TrialSpec", "Verdict", "canonical_text",
               "load_catalog_dir", "load_gold", "load_notes"),
    "gateway": ("BackendConfig", "ChatRequest", "Gateway", "parse_answer"),
    "pathway_a": ("answer_with_role", "load_roles", "majority_vote"),
    "pathway_b": ("run_debate",),
    "rules": ("criterion_verdict", "eval_rule", "parse_rule", "print_rule", "sensitivity",
              "trial_verdict", "verdicts_for_note"),
    "evaluation": ("counterfactual_rate", "grounding_check", "score_criteria",
                   "score_questions", "timing_stats"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
