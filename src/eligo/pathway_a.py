"""Pathway A: three expert-role prompts per question, combined by majority vote."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .corpus import AdmissionNote, QuestionSpec, Verdict, canonical_text
from .errors import MixedKeyError
from .gateway import (
    FORMAT_CONTRACT,
    Gateway,
    ParsedAnswer,
    Unit,
    parse_answer,
    run_unit,
    user_request,
)
from .prompting import load_template, render

# Canonical role order; also the tie-break ordering used when rendering votes.
ROLE_IDS = ("CRC", "JD", "IE")

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


def _vote_key(answer: RoleAnswer) -> tuple[str, str]:
    note_id, question_id = answer.answer.provenance.split("|")[:2]
    return note_id, question_id


def majority_vote(a: RoleAnswer, b: RoleAnswer, c: RoleAnswer) -> ParsedAnswer:
    """Combine three role answers; a 3-way split degrades to UNKNOWN.

    UNKNOWN is the safe screening default for an unresolved split: it flags
    the question for human review instead of asserting either way.
    """
    answers = [a, b, c]
    keys = {_vote_key(answer) for answer in answers}
    if len(keys) != 1:
        raise MixedKeyError(f"votes span different (note, question) pairs: {sorted(keys)}")
    # Canonical role order makes the result independent of argument order.
    answers.sort(key=lambda ra: (ROLE_IDS.index(ra.role_id) if ra.role_id in ROLE_IDS
                                 else len(ROLE_IDS), ra.role_id))
    tally: dict[Verdict, int] = {}
    for role_answer in answers:
        tally[role_answer.answer.value] = tally.get(role_answer.answer.value, 0) + 1
    winner = Verdict.UNKNOWN
    for value, count in tally.items():
        if count >= 2:
            winner = value
    rationale = "; ".join(
        f"{ra.role_id}={ra.answer.value.value}" for ra in answers
    )
    evidence: list[str] = []
    for role_answer in answers:
        if role_answer.answer.value is winner:
            for quote in role_answer.answer.evidence:
                if quote not in evidence:
                    evidence.append(quote)
    return ParsedAnswer(
        value=winner,
        rationale=rationale,
        evidence=tuple(evidence),
        provenance="majority_vote",
        parse_fallback=False,
    )
