"""Criteria conversion: decompose criteria into questions, merge drafts.

Any chat backend can draft; one refiner backend reconciles the drafts into
the final question set and restates the aggregation rule.  Rules the
refiner gets wrong are left empty and flagged for human authoring rather
than failing the whole conversion.

Converting a criterion is a unit for ``gateway.run_units``: a batch of one
draft request per drafter, then the refine request, which a :class:`Router`
sends to their backends.  The unit returns one :class:`MergeResult`: the
questions, the criterion updated to ask them, and the warnings.  The units
render the texts of the templates in ``CONVERSION_TEMPLATES``, which the
caller reads once through :func:`prompting.load_prompts`.
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
    TaskType,
    validate_catalog,
)
from .errors import (CatalogError, ConversionError, EligoError, GatewayError,
                     RefinementParseError, RuleParseError)
from .gateway import ChatRequest, Done, Gateway, Unit
from .prompting import render
from .rules import parse_rule, print_rule, referenced_ids, rename_questions

log = logging.getLogger(__name__)

_Q_LINE_RE = re.compile(r"^\s*Q\s*\d*\s*[:.]\s*(.*?)\s*$")
_RULE_LINE_RE = re.compile(r"^\s*RULE\s*[:.]\s*(.+?)\s*$", re.IGNORECASE)
_LABEL_RE = re.compile(r"\s*\[([A-Za-z]+)\s*/\s*([A-Za-z]+)\]\s*$")

DEFAULT_CATEGORY = Category.DIAGNOSIS
DEFAULT_TASK_TYPE = TaskType.CLASSIFICATION

CONVERSION_TEMPLATES = ("convert", "refine")


class QuestionDraft(NamedTuple):
    text: str
    suggested_category: Category = DEFAULT_CATEGORY
    suggested_task_type: TaskType = DEFAULT_TASK_TYPE


class DraftSet(NamedTuple):
    """Drafts gathered from the drafters, the rule each proposed (by drafter
    name), and parse warnings."""

    drafts: list[QuestionDraft]
    rule_proposals: dict[str, str]
    warnings: list[str]


class MergeResult(NamedTuple):
    """A converted criterion: its questions, the criterion updated to ask
    them, and the warnings met on the way."""

    questions: list[QuestionSpec]
    criterion: CriterionSpec
    warnings: list[str]


def normalize_question_text(text: str) -> str:
    """Dedup key: lowercase, collapse whitespace, strip terminal punctuation."""
    collapsed = re.sub(r"\s+", " ", text).strip().lower()
    return collapsed.rstrip(".?!;:")


def build_conversion_prompt(criterion: CriterionSpec, template: str,
                            drafter: str) -> ChatRequest:
    """Prompt the drafter of that model name to decompose one criterion into
    Q:/RULE: lines, from the ``convert`` template's text; its tag is
    ``convert|<criterion id>|<drafter>``, which :class:`Router` routes."""
    if not criterion.text.strip():
        raise CatalogError(f"criterion {criterion.criterion_id!r} has empty text")
    prompt = render(template, criterion=criterion.text)
    return ChatRequest(prompt, f"convert|{criterion.criterion_id}|{drafter}")


def _parse_draft_lines(text: str,
                       source: str) -> tuple[list[QuestionDraft | None], str, list[str]]:
    """The drafts of the Q: lines of one completion in order, None for a line
    skipped as empty; its last RULE: line's rule ("" if none); and warnings
    for the lines skipped."""
    drafts: list[QuestionDraft | None] = []
    rule = ""
    warnings: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        rule_match = _RULE_LINE_RE.match(line)
        if rule_match:
            rule = rule_match.group(1)
            continue
        q_match = _Q_LINE_RE.match(line)
        if q_match:
            draft, unknown_label = _split_label(q_match.group(1))
            if unknown_label:
                warnings.append(f"{source}: unknown label {unknown_label!r} ignored")
            if draft.text:
                drafts.append(draft)
            else:
                drafts.append(None)
                warnings.append(f"{source}: empty question line skipped")
            continue
        warnings.append(f"{source}: unrecognized line skipped: {line[:60]}")
    return drafts, rule, warnings


def _split_label(text: str) -> tuple[QuestionDraft, str]:
    """The draft of a question line with an optional ``[Category/TaskType]``
    suffix, and that suffix if it names an unknown label ("" if not): such a
    label is ignored whole."""
    match = _LABEL_RE.search(text)
    if not match:
        return QuestionDraft(text), ""
    question = text[: match.start()].strip()
    try:
        return QuestionDraft(question, Category(match.group(1)), TaskType(match.group(2))), ""
    except ValueError:
        return QuestionDraft(question), match.group(0).strip()


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
    replies = yield [build_conversion_prompt(criterion, template, name) for name in drafters]
    drafts: list[QuestionDraft] = []
    rule_proposals: dict[str, str] = {}
    warnings: list[str] = []
    failures: list[tuple[str, Exception]] = []
    for name, reply in zip(drafters, replies):
        if isinstance(reply, GatewayError):
            failures.append((name, reply))
            warnings.append(f"{name}: backend failed: {reply}")
            continue
        lines, rule, skipped = _parse_draft_lines(reply, name)
        found = [draft for draft in lines if draft is not None]
        drafts += found
        if rule:
            rule_proposals[name] = rule
        warnings += skipped
        if not found:
            warnings.append(f"{name}: completion contained no Q: lines")
    if len(failures) == len(drafters):
        raise ConversionError(failures)
    return DraftSet(drafts, rule_proposals, warnings)


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
    in one request rendered from the ``refine`` template's text, and returns
    the validated questions with the criterion updated to ask them.

    The refiner's distinct questions get ids "<criterion_id>.q<k>" in the
    order they first appear.  Its rule names its Q: lines Q1..Qn in the
    order it wrote them, and is rewritten onto those ids: a repeated question
    names the id of its first occurrence, and a line skipped as empty keeps
    its number but has no id.  An unparsable rule keeps the questions and
    flags the criterion for human rule authoring.  No drafts raise
    CatalogError.
    """
    if not drafts:
        raise CatalogError("no drafter proposed a question")
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
    (reply,) = yield [ChatRequest(prompt, f"refine|{criterion.criterion_id}")]

    refined, proposed, warnings = _parse_draft_lines(reply, "refiner")
    questions: list[QuestionSpec] = []
    id_by_text: dict[str, str] = {}  # normalized text -> its first occurrence's id
    id_map: dict[str, str] = {}  # Q<k> -> question id
    for number, draft in enumerate(refined, start=1):
        if draft is None:
            continue
        key = normalize_question_text(draft.text)
        if key not in id_by_text:
            id_by_text[key] = f"{criterion.criterion_id}.q{len(questions) + 1}"
            questions.append(QuestionSpec(id_by_text[key], draft.text,
                                          draft.suggested_category, draft.suggested_task_type))
        id_map[f"Q{number}"] = id_by_text[key]
    if not questions:
        raise RefinementParseError(
            f"refiner returned no questions for criterion {criterion.criterion_id!r}"
        )

    rule_text = ""
    if proposed:
        try:
            expr = parse_rule(proposed)
            unknown = {q for q in referenced_ids(expr) if q not in id_map}
            if unknown:
                raise RuleParseError(
                    f"rule references {sorted(unknown)}, which name no refined question", 1
                )
            rule_text = print_rule(rename_questions(expr, id_map))
        except RuleParseError as exc:
            warnings.append(
                f"refiner rule rejected ({exc}); rule left empty for human authoring"
            )
    else:
        warnings.append("refiner proposed no rule; rule left empty for human authoring")

    updated = criterion._replace(rule_text=rule_text, question_ids=tuple(id_by_text.values()),
                                 needs_human_rule=not rule_text)
    validate_catalog(
        Catalog(
            questions={spec.question_id: spec for spec in questions},
            criteria={updated.criterion_id: updated},
            trials={},
        )
    )
    return MergeResult(questions, updated, warnings)


def convert_criterion(
    criterion: CriterionSpec,
    drafters: Sequence[str],
    templates: Mapping[str, str],
) -> Unit[MergeResult | EligoError]:
    """The unit that converts one criterion: it returns the merge, whose
    warnings are the drafting and merging ones together, or the EligoError
    that failed it, which ends no other criterion.  ``templates`` maps each
    of ``CONVERSION_TEMPLATES`` to its text."""
    try:
        drafted = yield from generate_questions(criterion, drafters, templates["convert"])
        merged = yield from merge_question_sets(drafted.drafts, criterion,
                                                templates["refine"],
                                                rule_proposals=drafted.rule_proposals)
    except EligoError as exc:
        return exc
    return merged._replace(warnings=drafted.warnings + merged.warnings)


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
