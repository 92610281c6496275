"""Criteria conversion: decompose criteria into questions, merge drafts.

Any chat backend can draft; one refiner backend reconciles the drafts into
the final question set and restates the aggregation rule.  Rules the
refiner gets wrong are left empty and flagged for human authoring rather
than failing the whole conversion.

Converting a criterion is a unit for ``gateway.run_units``: a batch of one
draft request per drafter, then the refine request, which a :class:`Router`
sends to their backends.  The units render the texts of the templates in
``CONVERSION_TEMPLATES``, which the caller reads once through
:func:`prompting.load_prompts`.
"""

import logging
import re
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence

from .corpus import (
    Catalog,
    Category,
    CriterionSpec,
    QuestionSpec,
    Record,
    TaskType,
    validate_catalog,
)
from .errors import (CatalogError, ConversionError, EligoError, GatewayError,
                     RefinementParseError, RuleParseError)
from .gateway import ChatRequest, Done, Gateway, Unit, user_request
from .prompting import render
from .rules import parse_rule, print_rule, referenced_ids, rename_questions

log = logging.getLogger(__name__)

_Q_LINE_RE = re.compile(r"^\s*Q\s*\d*\s*[:.]\s*(.+?)\s*$")
_RULE_LINE_RE = re.compile(r"^\s*RULE\s*[:.]\s*(.+?)\s*$", re.IGNORECASE)
_LABEL_RE = re.compile(r"\s*\[([A-Za-z]+)\s*/\s*([A-Za-z]+)\]\s*$")

DEFAULT_CATEGORY = Category.DIAGNOSIS
DEFAULT_TASK_TYPE = TaskType.CLASSIFICATION

CONVERSION_TEMPLATES = ("convert", "refine")


class QuestionDraft(NamedTuple):
    text: str
    source_backend: str
    criterion_id: str
    suggested_category: Category = DEFAULT_CATEGORY
    suggested_task_type: TaskType = DEFAULT_TASK_TYPE


class DraftSet(Record):
    """Drafts gathered from one or more backends, with parse warnings."""

    __slots__ = ("drafts", "rule_proposals", "warnings")

    def __init__(self, drafts: list[QuestionDraft] | None = None,
                 rule_proposals: dict[str, str] | None = None,
                 warnings: list[str] | None = None):
        self.drafts = [] if drafts is None else drafts
        # The rule each backend proposed, by backend.
        self.rule_proposals = {} if rule_proposals is None else rule_proposals
        self.warnings = [] if warnings is None else warnings


class MergeResult(Record):
    __slots__ = ("questions", "rule_text", "needs_human_rule", "warnings")

    def __init__(self, questions: list[QuestionSpec], rule_text: str,
                 needs_human_rule: bool, warnings: list[str] | None = None):
        self.questions = questions
        self.rule_text = rule_text
        self.needs_human_rule = needs_human_rule
        self.warnings = [] if warnings is None else warnings


def normalize_question_text(text: str) -> str:
    """Dedup key: lowercase, collapse whitespace, strip terminal punctuation."""
    collapsed = re.sub(r"\s+", " ", text).strip().lower()
    return collapsed.rstrip(".?!;:")


def build_conversion_prompt(criterion: CriterionSpec, template: str, *,
                            tag: str | None = None) -> ChatRequest:
    """Prompt a backend to decompose one criterion into Q:/RULE: lines, from
    the ``convert`` template's text."""
    if not criterion.text.strip():
        raise CatalogError(f"criterion {criterion.criterion_id!r} has empty text")
    prompt = render(template, criterion=criterion.text)
    return user_request(prompt, tag=tag or f"convert|{criterion.criterion_id}")


def _parse_draft_lines(text: str, source: str, criterion_id: str, out: DraftSet) -> int:
    """Collect Q:/RULE: lines from one completion; count drafts added."""
    added = 0
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        rule_match = _RULE_LINE_RE.match(line)
        if rule_match:
            out.rule_proposals[source] = rule_match.group(1)
            continue
        q_match = _Q_LINE_RE.match(line)
        if q_match:
            question_text, category, task_type = _split_label(q_match.group(1), out, source)
            if question_text:
                out.drafts.append(
                    QuestionDraft(
                        text=question_text,
                        source_backend=source,
                        criterion_id=criterion_id,
                        suggested_category=category,
                        suggested_task_type=task_type,
                    )
                )
                added += 1
            else:
                out.warnings.append(f"{source}: empty question line skipped")
            continue
        out.warnings.append(f"{source}: unrecognized line skipped: {line[:60]}")
    return added


def _split_label(text: str, out: DraftSet, source: str) -> tuple[str, Category, TaskType]:
    match = _LABEL_RE.search(text)
    category, task_type = DEFAULT_CATEGORY, DEFAULT_TASK_TYPE
    if match:
        try:
            category = Category(match.group(1))
            task_type = TaskType(match.group(2))
            text = text[: match.start()].strip()
        except ValueError:
            out.warnings.append(f"{source}: unknown label {match.group(0).strip()!r} ignored")
            text = text[: match.start()].strip()
    return text, category, task_type


def generate_questions(criterion: CriterionSpec, drafters: Sequence[str],
                       template: str) -> Unit[DraftSet]:
    """The unit that asks every drafter, by model name, to draft questions
    for one criterion from the ``convert`` template's text.

    The drafts are asked in one batch, so each drafter bounds its own
    in-flight load, and collected in drafter order so output stays
    deterministic.  A failed drafter's reply is its GatewayError (see
    :class:`Router`) and becomes a warning; only all of them failing raises
    ConversionError with the per-drafter causes attached.
    """
    if not drafters:
        raise ValueError("generate_questions needs at least one backend")
    replies = yield [
        build_conversion_prompt(criterion, template,
                                tag=f"convert|{criterion.criterion_id}|{name}")
        for name in drafters
    ]
    result = DraftSet()
    failures: list[tuple[str, Exception]] = []
    for name, reply in zip(drafters, replies):
        if isinstance(reply, GatewayError):
            failures.append((name, reply))
            result.warnings.append(f"{name}: backend failed: {reply}")
        elif _parse_draft_lines(reply, name, criterion.criterion_id, result) == 0:
            result.warnings.append(f"{name}: completion contained no Q: lines")
    if len(failures) == len(drafters):
        raise ConversionError(failures)
    return result


def _dedup(drafts: Sequence[QuestionDraft]) -> list[QuestionDraft]:
    seen: set[str] = set()
    unique: list[QuestionDraft] = []
    for draft in drafts:
        key = normalize_question_text(draft.text)
        if key not in seen:
            seen.add(key)
            unique.append(draft)
    return unique


def merge_question_sets(
    drafts: Sequence[QuestionDraft],
    criterion: CriterionSpec,
    template: str,
    *,
    rule_proposals: dict[str, str] | None = None,
) -> Unit[MergeResult]:
    """The unit that collapses duplicates, lets the refiner reconcile them
    in one request rendered from the ``refine`` template's text, and emits
    validated specs.

    Final questions get ids "<criterion_id>.q<k>"; the refiner's rule is
    parsed over its Q1..Qn numbering and rewritten onto those ids.  An
    unparsable rule keeps the questions and flags the criterion for human
    rule authoring.
    """
    if not drafts:
        raise ValueError("no drafter proposed a question")
    unique = _dedup(drafts)
    drafts_block = "\n".join(
        f"Q: {draft.text} [{draft.suggested_category.value}/{draft.suggested_task_type.value}]"
        for draft in unique
    )
    proposals = rule_proposals or {}
    rules_block = "\n".join(
        f"{label}: {rule}" for label, rule in sorted(proposals.items())
    ) or "(none)"
    prompt = render(template, criterion=criterion.text, drafts=drafts_block,
                    draft_rules=rules_block)
    (reply,) = yield [user_request(prompt, tag=f"refine|{criterion.criterion_id}")]

    refined = DraftSet()
    _parse_draft_lines(reply, "refiner", criterion.criterion_id, refined)
    final_drafts = _dedup(refined.drafts)
    if not final_drafts:
        raise RefinementParseError(
            f"refiner returned no questions for criterion {criterion.criterion_id!r}"
        )
    warnings = list(refined.warnings)

    questions = [
        QuestionSpec(
            question_id=f"{criterion.criterion_id}.q{index}",
            text=draft.text,
            category=draft.suggested_category,
            task_type=draft.suggested_task_type,
        )
        for index, draft in enumerate(final_drafts, start=1)
    ]
    id_map = {f"Q{index}": spec.question_id for index, spec in enumerate(questions, start=1)}

    rule_text = ""
    needs_human_rule = True
    proposed = refined.rule_proposals.get("refiner", "")
    if proposed:
        try:
            expr = parse_rule(proposed)
            unknown = {q for q in referenced_ids(expr) if q not in id_map}
            if unknown:
                raise RuleParseError(
                    f"rule references unnumbered questions {sorted(unknown)}", 1
                )
            rule_text = print_rule(rename_questions(expr, id_map))
            needs_human_rule = False
        except RuleParseError as exc:
            warnings.append(
                f"refiner rule rejected ({exc}); rule left empty for human authoring"
            )
    else:
        warnings.append("refiner proposed no rule; rule left empty for human authoring")

    merged_criterion = criterion._replace(
        rule_text=rule_text, question_ids=tuple(spec.question_id for spec in questions),
        needs_human_rule=needs_human_rule)
    validate_catalog(
        Catalog(
            questions={spec.question_id: spec for spec in questions},
            criteria={merged_criterion.criterion_id: merged_criterion},
            trials={},
        )
    )
    return MergeResult(
        questions=questions,
        rule_text=rule_text,
        needs_human_rule=needs_human_rule,
        warnings=warnings,
    )


def convert_criterion(
    criterion: CriterionSpec,
    drafters: Sequence[str],
    templates: Mapping[str, str],
) -> Unit[tuple[MergeResult, CriterionSpec, list[str]] | EligoError | ValueError]:
    """The unit that converts one criterion: it returns the merge, the
    updated criterion and the warnings, or the error that failed it
    (ValueError: no drafter proposed a question), which ends no other.
    ``templates`` maps each of ``CONVERSION_TEMPLATES`` to its text."""
    try:
        draft_set = yield from generate_questions(criterion, drafters, templates["convert"])
        merged = yield from merge_question_sets(draft_set.drafts, criterion,
                                                templates["refine"],
                                                rule_proposals=draft_set.rule_proposals)
    except (EligoError, ValueError) as exc:
        return exc
    updated = criterion._replace(
        rule_text=merged.rule_text,
        question_ids=tuple(spec.question_id for spec in merged.questions),
        needs_human_rule=merged.needs_human_rule)
    return merged, updated, draft_set.warnings + merged.warnings


class Router:
    """The gateway that conversion units run on: it sends
    ``convert|<criterion id>|<model name>`` to the drafter of that (unique)
    model name, and ``refine|<criterion id>`` to the refiner.  A drafter's
    GatewayError is passed on as its reply, so one failed drafter is only a
    warning."""

    def __init__(self, drafters: Sequence[Gateway], refiner: Gateway):
        self.drafters = {drafter.cfg.model_name: drafter for drafter in drafters}
        self.refiner = refiner

    def call(self, req: ChatRequest, done: Done, *,
             on_park: Callable[[bool], None] | None = None) -> None:
        if req.tag.startswith("refine|"):
            self.refiner.call(req, done, on_park=on_park)
        else:  # a criterion id holds no "|", so the rest of the tag is the name
            name = req.tag.split("|", 2)[2]
            self.drafters[name].call(req, partial(_failure_as_reply, done), on_park=on_park)


def _failure_as_reply(done: Done, reply: str | None, error: Exception | None) -> None:
    if isinstance(error, GatewayError):
        reply, error = error, None
    done(reply, error)
