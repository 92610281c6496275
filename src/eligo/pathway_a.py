"""Pathway A: three expert-role prompts per question, combined by majority vote."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .corpus import AdmissionNote, ParsedAnswer, QuestionSpec, Verdict, canonical_text
from .errors import MixedKeyError
from .gateway import (
    FORMAT_CONTRACT,
    Gateway,
    Unit,
    parse_answer,
    run_unit,
    user_request,
)
from .prompting import load_template, render

# Canonical role order; also the tie-break ordering used when rendering votes.
ROLE_IDS = ("CRC", "JD", "IE")
_ROLE_RANK = {role_id: rank for rank, role_id in enumerate(ROLE_IDS)}
_VALUE_NAMES = {verdict: verdict.value for verdict in Verdict}

_ROLE_TEMPLATES = {"CRC": "role_crc", "JD": "role_jd", "IE": "role_ie"}


@dataclass(frozen=True)
class RoleProfile:
    """One anthropomorphized expert: id plus its step-by-step instructions."""

    role_id: str
    instructions: str

    def __post_init__(self):
        if self.role_id not in ROLE_IDS:
            raise ValueError(f"unknown role {self.role_id!r}; expected one of {ROLE_IDS}")
        if not self.instructions.strip():
            raise ValueError(f"role {self.role_id} has empty instructions")


@dataclass(frozen=True)
class RoleAnswer:
    """One role's answer to a question, as a vote member."""

    answer: ParsedAnswer
    role_id: str
    elapsed_ms: float

    def __post_init__(self):
        if self.elapsed_ms < 0:
            raise ValueError("elapsed_ms must be >= 0")


def load_roles(prompts_dir=None) -> dict[str, RoleProfile]:
    """Load the three role profiles (site overrides honored via prompts_dir)."""
    return {
        role_id: RoleProfile(role_id, load_template(template, prompts_dir))
        for role_id, template in _ROLE_TEMPLATES.items()
    }


def role_tag(note_id: str, question_id: str, role_id: str) -> str:
    return f"{note_id}|{question_id}|role{role_id}"


def role_unit(question: QuestionSpec, note: AdmissionNote,
              role: RoleProfile) -> Unit[RoleAnswer]:
    """Ask one role one question about one note: one request, one parsed answer."""
    prompt = render(
        role.instructions, question=question.text, note=canonical_text(note)
    )
    request = user_request(
        f"{prompt}\n{FORMAT_CONTRACT}",
        tag=role_tag(note.note_id, question.question_id, role.role_id),
    )
    started = time.monotonic()
    (reply,) = yield [request]
    answer = parse_answer(reply, provenance=request.tag)
    elapsed_ms = (time.monotonic() - started) * 1000.0
    return RoleAnswer(answer=answer, role_id=role.role_id, elapsed_ms=elapsed_ms)


def answer_with_role(
    question: QuestionSpec,
    note: AdmissionNote,
    role: RoleProfile,
    gateway: Gateway,
) -> RoleAnswer:
    """Ask one role one question about one note; exactly one gateway call."""
    return run_unit(role_unit(question, note, role), gateway)


def _vote_key(answer: RoleAnswer) -> list[str]:
    """The (note id, question id) that the answer's provenance starts with."""
    return answer.answer.provenance.split("|", 2)[:2]


def _role_order(answer: RoleAnswer) -> tuple[int, str]:
    return _ROLE_RANK.get(answer.role_id, len(ROLE_IDS)), answer.role_id


def majority_vote(a: RoleAnswer, b: RoleAnswer, c: RoleAnswer) -> ParsedAnswer:
    """Combine three role answers; a 3-way split degrades to UNKNOWN.

    UNKNOWN is the safe screening default for an unresolved split: it flags
    the question for human review instead of asserting either way.
    """
    key = _vote_key(a)
    if _vote_key(b) != key or _vote_key(c) != key:
        keys = {tuple(_vote_key(answer)) for answer in (a, b, c)}
        raise MixedKeyError(f"votes span different (note, question) pairs: {sorted(keys)}")
    first, second, third = a.answer.value, b.answer.value, c.answer.value
    if first is second or first is third:
        winner = first
    elif second is third:
        winner = second
    else:
        winner = Verdict.UNKNOWN
    # Canonical role order makes the result independent of argument order.
    answers = sorted((a, b, c), key=_role_order)
    rationale = "; ".join([f"{ra.role_id}={_VALUE_NAMES[ra.answer.value]}"
                           for ra in answers])
    evidence: list[str] = []
    for role_answer in answers:
        if role_answer.answer.value is winner:
            for quote in role_answer.answer.evidence:
                if quote not in evidence:
                    evidence.append(quote)
    return ParsedAnswer(winner, rationale, tuple(evidence), "majority_vote", False)
