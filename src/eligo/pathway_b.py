"""Pathway B: proponent/opponent/judge debate, at most two rounds.

Call budget per (note, question) is fixed by the state machine:
2 calls on round-1 consensus, 3 when the judge closes round 1,
6 for a full second round.  Agreement is decided on parsed verdicts,
never on raw text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .corpus import AdmissionNote, ParsedAnswer, QuestionSpec, canonical_text
from .gateway import (
    FORMAT_CONTRACT,
    ChatRequest,
    Gateway,
    Unit,
    parse_answer,
    run_unit,
    user_request,
)
from .prompting import load_template, render

_SECOND_ROUND_RE = re.compile(r'^\s*["“«]?\s*SECOND ROUND\b[."”»]*[:\s]*', re.IGNORECASE)

DEBATE_TEMPLATES = ("stance_pos", "stance_neg", "judge_r1", "judge_final")


def load_debate_templates(prompts_dir: str | Path | None = None) -> dict[str, str]:
    """Load the four debate templates (site overrides honored via prompts_dir)."""
    return {name: load_template(name, prompts_dir) for name in DEBATE_TEMPLATES}


@dataclass(frozen=True)
class DebateTranscript:
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


def _stance_request(
    template: str,
    question: QuestionSpec,
    note: AdmissionNote,
    judge_notes: str | None,
    *,
    tag: str = "",
) -> ChatRequest:
    notes_block = ""
    if judge_notes:
        notes_block = f"\nADJUDICATOR NOTES FROM ROUND 1:\n{judge_notes}\n"
    prompt = render(
        template,
        question=question.text,
        note=canonical_text(note),
        judge_notes=notes_block,
    )
    return user_request(f"{prompt}\n{FORMAT_CONTRACT}", tag=tag)


def _judge_request(
    template: str,
    templates: Mapping[str, str],
    question: QuestionSpec,
    note: AdmissionNote,
    arg_pos: str,
    arg_neg: str,
    *,
    judge_notes: str = "",
    tag: str = "",
) -> ChatRequest:
    values = {
        "question": question.text,
        "note": canonical_text(note),
        "arg_pos": arg_pos,
        "arg_neg": arg_neg,
    }
    if template == "judge_final":
        values["judge_notes"] = judge_notes
    prompt = render(templates[template], **values)
    return user_request(f"{prompt}\n{FORMAT_CONTRACT}", tag=tag)


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
    ``templates`` comes from :func:`load_debate_templates`.
    """
    key = f"{note.note_id}|{question.question_id}"

    def stance_round(round_no: int, judge_notes: str | None):
        requests = [
            _stance_request(templates[template], question, note, judge_notes,
                            tag=f"{key}|{role}|r{round_no}")
            for template, role in (("stance_pos", "proponent"), ("stance_neg", "opponent"))
        ]
        replies = yield requests
        return [(text, parse_answer(text, provenance=request.tag))
                for request, text in zip(requests, replies)]

    (pro_text, pro), (con_text, con) = yield from stance_round(1, None)

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

    (judge1_text,) = yield [
        _judge_request(
            "judge_r1", templates, question, note, pro_text, con_text,
            tag=f"{key}|judge|r1",
        )
    ]
    demand = _second_round_demand(judge1_text)
    judge1 = parse_answer(judge1_text, provenance=f"{key}|judge|r1")

    if demand is None:
        transcript = DebateTranscript(
            round1=(pro, con), outcome=judge1, rounds_used=1, calls_used=3,
            judge1=judge1,
        )
        return judge1, transcript

    (pro2_text, pro2), (con2_text, con2) = yield from stance_round(2, demand)
    # Round-2 agreement is NOT consulted: the judge must close the debate.
    (final_text,) = yield [
        _judge_request(
            "judge_final", templates, question, note,
            pro2_text, con2_text, judge_notes=demand, tag=f"{key}|judge|final",
        )
    ]
    outcome = parse_answer(final_text, provenance=f"{key}|judge|final")
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

    ``templates`` comes from :func:`load_debate_templates`, which a batch
    caller runs once (with its site ``prompts_dir``); the packaged
    templates are loaded when it is omitted.
    """
    if templates is None:
        templates = load_debate_templates()
    return run_unit(debate_unit(question, note, templates), gateway)
