import time

import pytest

from eligo import errors
from eligo.corpus import Verdict, canonical_text
from eligo.gateway import FORMAT_CONTRACT
from eligo.pathway_b import DEBATE_TEMPLATES, debate_unit, run_debate
from eligo.prompting import load_prompts, load_template, render

from conftest import assert_read_only, make_mock_gateway


def find(items, predicate):
    return next(item for item in items if predicate(item))


@pytest.fixture
def unit(notes, liver_catalog):
    question = liver_catalog.questions["Q1"]
    note = find(notes, lambda n: n.note_id == "n1")
    return question, note


def debate_fixtures(key, **steps):
    return {f"{key}|{suffix}": text for suffix, text in steps.items()}


class TestStancePrompt:
    """Stance prompts as debate_unit renders them from the given templates."""

    @staticmethod
    def prompts(requests):
        return [request.prompt for request in requests]

    def test_positive_preamble(self, unit):
        question, note = unit
        requests = next(debate_unit(question, note, load_prompts(DEBATE_TEMPLATES)))
        pro, con = self.prompts(requests)
        assert "PROPONENT" in pro
        assert "OPPONENT" in con
        for prompt in (pro, con):
            assert question.text in prompt
            assert "CHIEF COMPLAINT:" in prompt
            assert "ADJUDICATOR NOTES" not in prompt

    def test_negative_with_judge_notes(self, unit):
        question, note = unit
        debate = debate_unit(question, note, load_prompts(DEBATE_TEMPLATES))
        next(debate)
        (judge,) = debate.send(['"Yes". a', '"No". b'])
        assert "ADJUDICATOR NOTES" not in judge.prompt
        round2 = debate.send(["SECOND ROUND: evidence conflict on tumor origin"])
        pro, con = self.prompts(round2)
        assert "OPPONENT" in con
        for prompt in (pro, con):
            assert "ADJUDICATOR NOTES FROM ROUND 1:" in prompt
            assert "evidence conflict on tumor origin" in prompt

    def test_deterministic(self, unit):
        question, note = unit
        templates = load_prompts(DEBATE_TEMPLATES)
        first = next(debate_unit(question, note, templates))
        second = next(debate_unit(question, note, templates))
        assert first == second


class TestRunDebate:
    def test_given_templates_match_prompts_dir(self, unit, tmp_path):
        question, note = unit
        key = f"{note.note_id}|{question.question_id}"
        override = "CUSTOM OPPONENT\nQUESTION:\n{{question}}\n{{note}}{{judge_notes}}"
        (tmp_path / "stance_neg.txt").write_text(override)
        gateway = make_mock_gateway(debate_fixtures(
            key,
            **{"proponent|r1": '"Yes". Clear resection history.',
               "opponent|r1": '"Yes". Cannot argue otherwise.'},
        ))
        sent = []
        call = gateway.call

        def recording(request, done, **kwargs):
            sent.append(request)
            return call(request, done, **kwargs)

        gateway.call = recording
        run_debate(question, note, gateway, templates=load_prompts(DEBATE_TEMPLATES, tmp_path))
        by_tag = {request.tag: request.prompt for request in sent}
        values = {"question": question.text, "note": canonical_text(note), "judge_notes": ""}
        for role, template in (("proponent", load_template("stance_pos")),
                               ("opponent", override)):
            assert by_tag[f"{key}|{role}|r1"] == \
                f"{render(template, **values)}\n{FORMAT_CONTRACT}"

    def test_round1_consensus_skips_judge(self, unit):
        question, note = unit
        key = f"{note.note_id}|{question.question_id}"
        gateway = make_mock_gateway(debate_fixtures(
            key,
            **{"proponent|r1": '"Yes". Clear resection history.',
               "opponent|r1": '"Yes". Cannot argue otherwise.'},
        ))
        outcome, transcript = run_debate(question, note, gateway)
        assert outcome.value is Verdict.YES
        assert transcript.rounds_used == 1
        assert transcript.calls_used == 2
        assert transcript.judge1 is None
        assert transcript.round2 is None
        assert gateway.transport.calls == 2

    def test_agreement_on_parsed_values_not_text(self, unit):
        question, note = unit
        key = f"{note.note_id}|{question.question_id}"
        gateway = make_mock_gateway(debate_fixtures(
            key,
            **{"proponent|r1": '"No". Completely different prose here.',
               "opponent|r1": '"No". Another phrasing entirely.'},
        ))
        outcome, transcript = run_debate(question, note, gateway)
        assert outcome.value is Verdict.NO
        assert transcript.calls_used == 2

    def test_judge_closes_round_one(self, unit):
        question, note = unit
        key = f"{note.note_id}|{question.question_id}"
        gateway = make_mock_gateway(debate_fixtures(
            key,
            **{"proponent|r1": '"Yes". Optimistic reading.',
               "opponent|r1": '"Unable to determine". The note is ambiguous.',
               "judge|r1": '"Unable to determine". Neither side is grounded.'},
        ))
        outcome, transcript = run_debate(question, note, gateway)
        assert outcome.value is Verdict.UNKNOWN
        assert transcript.rounds_used == 1
        assert transcript.calls_used == 3
        assert transcript.judge1 is not None
        assert gateway.transport.calls == 3

    def test_second_round_full_budget(self, unit):
        question, note = unit
        key = f"{note.note_id}|{question.question_id}"
        gateway = make_mock_gateway(debate_fixtures(
            key,
            **{"proponent|r1": '"Yes". The tumor looks primary.',
               "opponent|r1": '"No". Origin is unproven.',
               "judge|r1": "SECOND ROUND: evidence conflict on tumor origin",
               # Round-2 consensus must NOT short-circuit: judge closes.
               "proponent|r2": '"Yes". Still primary.',
               "opponent|r2": '"Yes". Conceding on re-examination.',
               "judge|final": '"No". The origin remains undocumented.'},
        ))
        outcome, transcript = run_debate(question, note, gateway)
        assert outcome.value is Verdict.NO
        assert transcript.rounds_used == 2
        assert transcript.calls_used == 6
        assert transcript.judge_notes == "evidence conflict on tumor origin"
        assert transcript.round2 is not None
        assert gateway.transport.calls == 6
        assert_read_only(transcript)

    def test_adversarial_judge_never_gets_third_round(self, unit):
        question, note = unit
        key = f"{note.note_id}|{question.question_id}"
        gateway = make_mock_gateway(debate_fixtures(
            key,
            **{"proponent|r1": '"Yes". x',
               "opponent|r1": '"No". y',
               "judge|r1": "SECOND ROUND: round and round",
               "proponent|r2": '"Yes". x again',
               "opponent|r2": '"No". y again',
               # A final judge that still demands a round is unparsable:
               "judge|final": "SECOND ROUND: demand another round"},
        ))
        outcome, transcript = run_debate(question, note, gateway)
        assert transcript.rounds_used == 2
        assert transcript.calls_used == 6
        assert outcome.value is Verdict.UNKNOWN
        assert outcome.parse_fallback is True
        assert gateway.transport.calls == 6

    def test_missing_fixtures_consensus_unknown(self, unit):
        question, note = unit
        gateway = make_mock_gateway({})
        outcome, transcript = run_debate(question, note, gateway)
        assert outcome.value is Verdict.UNKNOWN
        assert transcript.calls_used == 2

    def test_round2_prompts_carry_judge_notes(self, unit):
        question, note = unit
        key = f"{note.note_id}|{question.question_id}"
        sent = {}

        class Recorder:
            def __init__(self, fixtures):
                self.fixtures = fixtures
                self.calls = 0

            def send(self, req):
                self.calls += 1
                sent[req.tag] = req.prompt
                return self.fixtures.get(req.tag, '"Unable to determine". No fixture.')

        fixtures = debate_fixtures(
            key,
            **{"proponent|r1": '"Yes". a', "opponent|r1": '"No". b',
               "judge|r1": "SECOND ROUND: check the pathology line",
               "proponent|r2": '"Yes". c', "opponent|r2": '"No". d',
               "judge|final": '"Yes". e'},
        )
        gateway = make_mock_gateway(transport=Recorder(fixtures))
        run_debate(question, note, gateway)
        assert "check the pathology line" in sent[f"{key}|proponent|r2"]
        assert "check the pathology line" in sent[f"{key}|opponent|r2"]
        assert "check the pathology line" in sent[f"{key}|judge|final"]
        assert '"Yes". a' in sent[f"{key}|judge|r1"]
        assert '"No". b' in sent[f"{key}|judge|r1"]

    def test_consensus_outcome_merges_evidence(self, unit):
        question, note = unit
        key = f"{note.note_id}|{question.question_id}"
        gateway = make_mock_gateway(debate_fixtures(
            key,
            **{"proponent|r1": '"Yes". a\nEVIDENCE:\n"quote one"\nEND EVIDENCE',
               "opponent|r1": '"Yes". b\nEVIDENCE:\n"quote one"\n"quote two"\nEND EVIDENCE'},
        ))
        outcome, _ = run_debate(question, note, gateway)
        assert outcome.evidence == ("quote one", "quote two")

    def test_batch_fails_with_its_first_error_once_both_stances_answer(self, unit):
        question, note = unit
        key = f"{note.note_id}|{question.question_id}"
        answered = []

        class FailingStances:
            def send(self, req):
                if req.tag == f"{key}|proponent|r1":
                    time.sleep(0.05)  # fails after the opponent has failed
                    answered.append(req.tag)
                    raise errors.BackendError("proponent refused", status=400)
                answered.append(req.tag)
                raise errors.BackendError("opponent refused", status=404)

        gateway = make_mock_gateway(transport=FailingStances())
        with pytest.raises(errors.BackendError) as excinfo:
            run_debate(question, note, gateway)
        assert excinfo.value.status == 400  # the proponent comes first in the batch
        assert sorted(answered) == [f"{key}|opponent|r1", f"{key}|proponent|r1"]
