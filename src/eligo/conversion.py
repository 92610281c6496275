"""Criteria conversion: decompose criteria into questions, merge drafts.

Any chat backend can draft; one refiner backend reconciles the drafts into
the final question set and restates the aggregation rule.  Rules the
refiner gets wrong are left empty and flagged for human authoring rather
than failing the whole conversion.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import (
    Catalog,
    Category,
    CriterionSpec,
    QuestionSpec,
    TaskType,
    validate_catalog,
)
from .errors import CatalogError, ConversionError, GatewayError, RefinementParseError, RuleParseError
from .gateway import ChatRequest, Gateway, user_request
from .prompting import load_template, render
from .rules import parse_rule, print_rule, referenced_ids, rename_questions

log = logging.getLogger(__name__)

_Q_LINE_RE = re.compile(r"^\s*Q\s*\d*\s*[:.]\s*(.+?)\s*$")
_RULE_LINE_RE = re.compile(r"^\s*RULE\s*[:.]\s*(.+?)\s*$", re.IGNORECASE)
_LABEL_RE = re.compile(r"\s*\[([A-Za-z]+)\s*/\s*([A-Za-z]+)\]\s*$")

DEFAULT_CATEGORY = Category.DIAGNOSIS
DEFAULT_TASK_TYPE = TaskType.CLASSIFICATION


@dataclass(frozen=True)
class QuestionDraft:
    text: str
    source_backend: str
    criterion_id: str
    suggested_category: Category = DEFAULT_CATEGORY
    suggested_task_type: TaskType = DEFAULT_TASK_TYPE


@dataclass
class DraftSet:
    """Drafts gathered from one or more backends, with parse warnings."""

    drafts: list[QuestionDraft] = field(default_factory=list)
    rule_proposals: dict[str, str] = field(default_factory=dict)  # backend -> rule
    warnings: list[str] = field(default_factory=list)


@dataclass
class MergeResult:
    questions: list[QuestionSpec]
    rule_text: str
    needs_human_rule: bool
    warnings: list[str] = field(default_factory=list)


def normalize_question_text(text: str) -> str:
    """Dedup key: lowercase, collapse whitespace, strip terminal punctuation."""
    collapsed = re.sub(r"\s+", " ", text).strip().lower()
    return collapsed.rstrip(".?!;:")


def build_conversion_prompt(
    criterion: CriterionSpec,
    *,
    tag: str | None = None,
    prompts_dir: str | Path | None = None,
) -> ChatRequest:
    """Prompt a backend to decompose one criterion into Q:/RULE: lines."""
    if not criterion.text.strip():
        raise CatalogError(f"criterion {criterion.criterion_id!r} has empty text")
    prompt = render(load_template("convert", prompts_dir), criterion=criterion.text)
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


def generate_questions(
    criterion: CriterionSpec,
    backends: Sequence[Gateway],
    *,
    prompts_dir: str | Path | None = None,
) -> DraftSet:
    """Ask every backend to draft questions for one criterion.

    Backends are queried concurrently (each bounds its own in-flight load);
    drafts are collected in backend order so output stays deterministic.
    Individual backend failures become warnings; only all of them failing
    raises ConversionError with the per-backend causes attached.
    """
    if not backends:
        raise ValueError("generate_questions needs at least one backend")
    requests = [
        build_conversion_prompt(
            criterion,
            tag=f"convert|{criterion.criterion_id}|{backend.cfg.model_name}",
            prompts_dir=prompts_dir,
        )
        for backend in backends
    ]
    futures = [backend.submit(request) for backend, request in zip(backends, requests)]
    wait(futures)
    result = DraftSet()
    failures: list[tuple[str, Exception]] = []
    for backend, future in zip(backends, futures):
        label = backend.cfg.model_name
        try:
            reply = future.result()
        except GatewayError as exc:
            failures.append((label, exc))
            result.warnings.append(f"{label}: backend failed: {exc}")
            continue
        if _parse_draft_lines(reply, label, criterion.criterion_id, result) == 0:
            result.warnings.append(f"{label}: completion contained no Q: lines")
    if len(failures) == len(backends):
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
    refiner: Gateway,
    criterion: CriterionSpec,
    *,
    rule_proposals: dict[str, str] | None = None,
    prompts_dir: str | Path | None = None,
) -> MergeResult:
    """Collapse duplicates, let the refiner reconcile, emit validated specs.

    Final questions get ids "<criterion_id>.q<k>"; the refiner's rule is
    parsed over its Q1..Qn numbering and rewritten onto those ids.  An
    unparsable rule keeps the questions and flags the criterion for human
    rule authoring.
    """
    if not drafts:
        raise ValueError("merge_question_sets needs at least one draft")
    unique = _dedup(drafts)
    drafts_block = "\n".join(
        f"Q: {draft.text} [{draft.suggested_category.value}/{draft.suggested_task_type.value}]"
        for draft in unique
    )
    proposals = rule_proposals or {}
    rules_block = "\n".join(
        f"{label}: {rule}" for label, rule in sorted(proposals.items())
    ) or "(none)"
    prompt = render(
        load_template("refine", prompts_dir),
        criterion=criterion.text,
        drafts=drafts_block,
        draft_rules=rules_block,
    )
    reply = refiner.complete(user_request(prompt, tag=f"refine|{criterion.criterion_id}"))

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

    merged_criterion = CriterionSpec(
        criterion_id=criterion.criterion_id,
        trial_ids=criterion.trial_ids,
        kind=criterion.kind,
        text=criterion.text,
        rule_text=rule_text,
        question_ids=tuple(spec.question_id for spec in questions),
        needs_human_rule=needs_human_rule,
    )
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
    backends: Sequence[Gateway],
    refiner: Gateway,
    *,
    prompts_dir: str | Path | None = None,
) -> tuple[MergeResult, CriterionSpec, list[str]]:
    """Full conversion of one criterion; returns the updated criterion too."""
    draft_set = generate_questions(criterion, backends, prompts_dir=prompts_dir)
    merged = merge_question_sets(
        draft_set.drafts,
        refiner,
        criterion,
        rule_proposals=draft_set.rule_proposals,
        prompts_dir=prompts_dir,
    )
    updated = CriterionSpec(
        criterion_id=criterion.criterion_id,
        trial_ids=criterion.trial_ids,
        kind=criterion.kind,
        text=criterion.text,
        rule_text=merged.rule_text,
        question_ids=tuple(spec.question_id for spec in merged.questions),
        needs_human_rule=merged.needs_human_rule,
    )
    return merged, updated, draft_set.warnings + merged.warnings
