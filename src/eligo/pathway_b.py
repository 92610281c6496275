"""Pathway B: proponent/opponent/judge debate, at most two rounds.

Call budget per (note, question) is fixed by the state machine:
2 calls on round-1 consensus, 3 when the judge closes round 1,
6 for a full second round.  Agreement is decided on parsed verdicts,
never on raw text.  The debate reads its four templates (``DEBATE_TEMPLATES``)
from a mapping that :func:`prompting.load_prompts` returns.
"""

import re
from typing import Mapping, NamedTuple

from .corpus import AdmissionNote, ParsedAnswer, QuestionSpec
from .gateway import ChatRequest, Gateway, Unit, parse_answer, run_unit
from .prompting import load_prompts, question_request

_SECOND_ROUND_RE = re.compile(r'^\s*["“«]?\s*SECOND ROUND\b[."”»]*[:\s]*', re.IGNORECASE)

DEBATE_TEMPLATES = ("stance_pos", "stance_neg", "judge_r1", "judge_final")


class DebateTranscript(NamedTuple):
    """One debate's rounds, judgements and outcome."""

    round1: tuple[ParsedAnswer, ParsedAnswer]  # (proponent, opponent)
    outcome: ParsedAnswer
    rounds_used: int
    calls_used: int
    judge1: ParsedAnswer | None = None
    judge_notes: str | None = None
    round2: tuple[ParsedAnswer, ParsedAnswer] | None = None
    judge_final: ParsedAnswer | None = None

    def to_dict(self) -> dict:
        return {
            "round1": [answer.to_dict() for answer in self.round1],
            "judge1": self.judge1.to_dict() if self.judge1 else None,
            "judge_notes": self.judge_notes,
            "round2": [answer.to_dict() for answer in self.round2] if self.round2 else None,
            "judge_final": self.judge_final.to_dict() if self.judge_final else None,
            "outcome": self.outcome.to_dict(),
            "rounds_used": self.rounds_used,
            "calls_used": self.calls_used,
        }


def _second_round_demand(text: str) -> str | None:
    """Return the judge's inconsistency notes when a second round is demanded."""
    match = _SECOND_ROUND_RE.match(text)
    if match is None:
        return None
    return text[match.end():].strip()


def debate_unit(
    question: QuestionSpec,
    note: AdmissionNote,
    templates: Mapping[str, str],
) -> Unit[tuple[ParsedAnswer, DebateTranscript]]:
    """The debate state machine for one (note, question), as a unit.

    It yields the round-1 stances as one batch, then the judge, then (when
    the judge demands it) the round-2 stances and the final judge.
    ``templates`` maps each of ``DEBATE_TEMPLATES`` to its text.
    """
    key = f"{note.note_id}|{question.question_id}"

    def request(template: str, stage: str, **values: str) -> ChatRequest:
        """The stage's request: its template filled with the stage's values."""
        return question_request(templates[template], question, note, stage, **values)

    def stances(round_no: int, judge_notes: str | None) -> list[ChatRequest]:
        notes_block = ""
        if judge_notes:
            notes_block = f"\nADJUDICATOR NOTES FROM ROUND 1:\n{judge_notes}\n"
        return [request(template, f"{role}|r{round_no}", judge_notes=notes_block)
                for template, role in (("stance_pos", "proponent"), ("stance_neg", "opponent"))]

    def ask(requests: list[ChatRequest]):
        """Send ``requests`` as one batch; each reply with its answer parsed
        under the request's tag."""
        replies = yield requests
        return [(text, parse_answer(text, provenance=request.tag))
                for request, text in zip(requests, replies)]

    (pro_text, pro), (con_text, con) = yield from ask(stances(1, None))

    if pro.value is con.value:
        # Consensus: the adjudicator just passes the shared conclusion
        # through, at zero cost.
        evidence: list[str] = []
        for quote in pro.evidence + con.evidence:
            if quote not in evidence:
                evidence.append(quote)
        outcome = ParsedAnswer(
            value=pro.value,
            rationale=f"Round-1 consensus: proponent and opponent both "
                      f"concluded {pro.value.value}.",
            evidence=tuple(evidence),
            provenance=f"{key}|consensus",
        )
        transcript = DebateTranscript(
            round1=(pro, con), outcome=outcome, rounds_used=1, calls_used=2
        )
        return outcome, transcript

    ((judge1_text, judge1),) = yield from ask(
        [request("judge_r1", "judge|r1", arg_pos=pro_text, arg_neg=con_text)])
    demand = _second_round_demand(judge1_text)

    if demand is None:
        transcript = DebateTranscript(
            round1=(pro, con), outcome=judge1, rounds_used=1, calls_used=3,
            judge1=judge1,
        )
        return judge1, transcript

    (pro2_text, pro2), (con2_text, con2) = yield from ask(stances(2, demand))
    # Round-2 agreement is NOT consulted: the judge must close the debate.
    ((_, outcome),) = yield from ask(
        [request("judge_final", "judge|final", arg_pos=pro2_text, arg_neg=con2_text,
                 judge_notes=demand)])
    transcript = DebateTranscript(
        round1=(pro, con), outcome=outcome, rounds_used=2, calls_used=6,
        judge1=judge1, judge_notes=demand, round2=(pro2, con2),
        judge_final=outcome,
    )
    return outcome, transcript


def run_debate(
    question: QuestionSpec,
    note: AdmissionNote,
    gateway: Gateway,
    *,
    templates: Mapping[str, str] | None = None,
) -> tuple[ParsedAnswer, DebateTranscript]:
    """Run the full debate for one (note, question) over ``gateway``.

    ``templates`` maps each of ``DEBATE_TEMPLATES`` to its text, as
    ``load_prompts(DEBATE_TEMPLATES, prompts_dir)`` returns it; the packaged
    templates are loaded when it is omitted.
    """
    if templates is None:
        templates = load_prompts(DEBATE_TEMPLATES)
    return run_unit(debate_unit(question, note, templates), gateway)
