"""Eligibility pre-screening engine: question answering over admission notes
via role-based chain-of-thought or preset-stance debate, with rule-based
criterion aggregation and an evaluation harness."""

__version__ = "0.1.0"

from .corpus import (  # noqa: E402,F401
    AdmissionNote,
    Catalog,
    CriterionSpec,
    GoldSet,
    QuestionSpec,
    TrialSpec,
    Verdict,
    canonical_text,
    load_catalog_dir,
    load_gold,
    load_notes,
)
from .gateway import (  # noqa: F401
    BackendConfig,
    ChatRequest,
    Gateway,
    ParsedAnswer,
    parse_answer,
)
from .pathway_a import answer_with_role, load_roles, majority_vote  # noqa: F401
from .pathway_b import run_debate  # noqa: F401
from .rules import (  # noqa: F401
    criterion_verdict,
    eval_rule,
    parse_rule,
    print_rule,
    sensitivity,
    trial_verdict,
    verdicts_for_note,
)
from .evaluation import (  # noqa: F401
    counterfactual_rate,
    grounding_check,
    score_criteria,
    score_questions,
    timing_stats,
)
