"""Pathway A: three expert-role prompts per question, combined by majority vote."""

from typing import NamedTuple

from .corpus import AdmissionNote, ParsedAnswer, QuestionSpec, Verdict
from .errors import MixedKeyError
from .gateway import Gateway, Unit, parse_answer, run_unit
from .prompting import load_prompts, question_request

# Canonical role order; also the tie-break ordering used when rendering votes.
ROLE_IDS = ("CRC", "JD", "IE")
_ROLE_RANK = {role_id: rank for rank, role_id in enumerate(ROLE_IDS)}
_VALUE_NAMES = {verdict: verdict.value for verdict in Verdict}

_ROLE_TEMPLATES = {"CRC": "role_crc", "JD": "role_jd", "IE": "role_ie"}


class RoleProfile(NamedTuple):
    """One anthropomorphized expert: its id in ROLE_IDS and its step-by-step
    instructions, which load_roles reads (and load_prompts refuses blank)."""

    role_id: str
    instructions: str


class RoleAnswer(NamedTuple):
    """One role's answer to a question, as a vote member.  The runner times
    the unit that produced it; the vote never reads a member's time."""

    answer: ParsedAnswer
    role_id: str


def load_roles(prompts_dir=None) -> dict[str, RoleProfile]:
    """Load the three role profiles (site overrides honored via prompts_dir)."""
    templates = load_prompts(_ROLE_TEMPLATES.values(), prompts_dir)
    return {role_id: RoleProfile(role_id, templates[name])
            for role_id, name in _ROLE_TEMPLATES.items()}


def role_unit(question: QuestionSpec, note: AdmissionNote,
              role: RoleProfile) -> Unit[RoleAnswer]:
    """Ask one role one question about one note: one request, one parsed
    answer.  The runner that drives the unit times it."""
    request = question_request(role.instructions, question, note, f"role{role.role_id}")
    (reply,) = yield [request]
    return RoleAnswer(parse_answer(reply, provenance=request.tag), role.role_id)


def answer_with_role(
    question: QuestionSpec,
    note: AdmissionNote,
    role: RoleProfile,
    gateway: Gateway,
) -> RoleAnswer:
    """Ask one role one question about one note; exactly one gateway call."""
    return run_unit(role_unit(question, note, role), gateway)


def vote_key(answer: ParsedAnswer) -> list[str]:
    """The (note id, question id) that the answer's provenance starts with."""
    return answer.provenance.split("|", 2)[:2]


def _role_order(answer: RoleAnswer) -> tuple[int, str]:
    return _ROLE_RANK.get(answer.role_id, len(ROLE_IDS)), answer.role_id


def majority_vote(a: RoleAnswer, b: RoleAnswer, c: RoleAnswer) -> ParsedAnswer:
    """Combine three role answers; a 3-way split degrades to UNKNOWN.

    UNKNOWN is the safe screening default for an unresolved split: it flags
    the question for human review instead of asserting either way.
    """
    key = vote_key(a.answer)
    if vote_key(b.answer) != key or vote_key(c.answer) != key:
        keys = {tuple(vote_key(ra.answer)) for ra in (a, b, c)}
        raise MixedKeyError(f"votes span different (note, question) pairs: {sorted(keys)}")
    first, second, third = a.answer.value, b.answer.value, c.answer.value
    if first is second or first is third:
        winner = first
    elif second is third:
        winner = second
    else:
        winner = Verdict.UNKNOWN
    # Canonical role order makes the result independent of argument order;
    # the answers usually come in it already.
    if (a.role_id, b.role_id, c.role_id) == ROLE_IDS:
        answers = (a, b, c)
    else:
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
