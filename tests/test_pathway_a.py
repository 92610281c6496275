from itertools import permutations, product

import pytest

from eligo.corpus import Verdict
from eligo.errors import MixedKeyError
from eligo.gateway import ParsedAnswer
from eligo.pathway_a import (
    ROLE_IDS,
    RoleAnswer,
    answer_with_role,
    load_roles,
    majority_vote,
)

from conftest import assert_read_only, make_mock_gateway

VALUES = (Verdict.YES, Verdict.NO, Verdict.UNKNOWN)


def find(items, predicate):
    return next(item for item in items if predicate(item))


@pytest.fixture(scope="module")
def roles():
    return load_roles()


def q(question_id, catalog):
    return catalog.questions[question_id]


def note(note_id, notes):
    return find(notes, lambda n: n.note_id == note_id)


class TestAnswerWithRole:
    def test_liver_pathology_question_yes(self, roles, notes, liver_catalog, liver_fixtures):
        gateway = make_mock_gateway(liver_fixtures)
        result = answer_with_role(
            q("Q2", liver_catalog), note("n1", notes), roles["CRC"], gateway
        )
        assert result.answer.value is Verdict.YES
        assert result.answer.evidence == ("hepatocellular carcinoma (trabecular type)",)
        assert result.role_id == "CRC"

    def test_exactly_one_gateway_call(self, roles, notes, liver_catalog, liver_fixtures):
        gateway = make_mock_gateway(liver_fixtures)
        answer_with_role(q("Q1", liver_catalog), note("n1", notes), roles["JD"], gateway)
        assert gateway.transport.calls == 1

    def test_sparse_note_unknown(self, roles, notes, liver_catalog):
        fixtures = {
            "n3|Q1|roleIE":
                '"Information not provided". The note says nothing relevant.',
        }
        gateway = make_mock_gateway(fixtures)
        result = answer_with_role(
            q("Q1", liver_catalog), note("n3", notes), roles["IE"], gateway
        )
        assert result.answer.value is Verdict.UNKNOWN

    def test_deterministic_apart_from_timing(self, roles, notes, liver_catalog,
                                              liver_fixtures):
        gateway = make_mock_gateway(liver_fixtures)
        args = (q("Q3", liver_catalog), note("n1", notes), roles["CRC"], gateway)
        first, second = answer_with_role(*args), answer_with_role(*args)
        assert first.answer == second.answer
        assert first.role_id == second.role_id

    def test_prompt_carries_question_and_note(self, roles, notes, liver_catalog):
        captured = []

        class Spy:
            def send(self, req):
                captured.append(req)
                return '"Yes". ok'

        gateway = make_mock_gateway(transport=Spy())
        answer_with_role(q("Q1", liver_catalog), note("n1", notes), roles["CRC"], gateway)
        prompt = captured[0].prompt
        assert liver_catalog.questions["Q1"].text in prompt
        assert "CHIEF COMPLAINT:" in prompt
        assert "ANSWER FORMAT" in prompt


class TestRoleProfile:
    def test_loads_all_three(self, roles):
        assert set(roles) == set(ROLE_IDS)

    def test_is_read_only(self, roles):
        assert_read_only(roles["CRC"])


class TestRoleAnswer:
    def test_is_read_only(self):
        assert_read_only(make_role_answer(Verdict.YES, "CRC"))


def make_role_answer(value, role_id, evidence=(), key=("n1", "Q1")):
    answer = ParsedAnswer(
        value=value,
        rationale=f"{role_id} reasoning",
        evidence=tuple(evidence),
        provenance=f"{key[0]}|{key[1]}|role{role_id}",
    )
    return RoleAnswer(answer=answer, role_id=role_id)


class TestMajorityVote:
    def vote(self, values, keys=None):
        keys = keys or [("n1", "Q1")] * 3
        answers = [
            make_role_answer(value, role_id, key=key)
            for value, role_id, key in zip(values, ROLE_IDS, keys)
        ]
        return majority_vote(*answers)

    def test_two_of_three(self):
        assert self.vote([Verdict.YES, Verdict.YES, Verdict.NO]).value is Verdict.YES

    def test_three_way_split_is_unknown(self):
        result = self.vote([Verdict.YES, Verdict.NO, Verdict.UNKNOWN])
        assert result.value is Verdict.UNKNOWN

    def test_unanimity(self):
        assert self.vote([Verdict.NO, Verdict.NO, Verdict.NO]).value is Verdict.NO

    def test_exhaustive_triples(self):
        for triple in product(VALUES, repeat=3):
            result = self.vote(list(triple))
            counts = {value: triple.count(value) for value in VALUES}
            majority = [value for value, count in counts.items() if count >= 2]
            expected = majority[0] if majority else Verdict.UNKNOWN
            assert result.value is expected

    def test_permutation_invariant(self):
        triple = [
            make_role_answer(Verdict.YES, "CRC", evidence=("a",)),
            make_role_answer(Verdict.YES, "JD", evidence=("b",)),
            make_role_answer(Verdict.NO, "IE", evidence=("c",)),
        ]
        baseline = majority_vote(*triple)
        for ordering in permutations(triple):
            result = majority_vote(*ordering)
            assert result == baseline

    def test_rationale_lists_roles(self):
        result = self.vote([Verdict.YES, Verdict.NO, Verdict.YES])
        assert result.rationale == "CRC=YES; JD=NO; IE=YES"
        assert result.provenance == "majority_vote"

    def test_evidence_union_of_winners_only(self):
        answers = [
            make_role_answer(Verdict.YES, "CRC", evidence=("shared", "crc-only")),
            make_role_answer(Verdict.YES, "JD", evidence=("shared", "jd-only")),
            make_role_answer(Verdict.NO, "IE", evidence=("loser",)),
        ]
        result = majority_vote(*answers)
        assert result.evidence == ("shared", "crc-only", "jd-only")

    def test_mixed_keys_rejected(self):
        with pytest.raises(MixedKeyError):
            self.vote(
                [Verdict.YES] * 3,
                keys=[("n1", "Q1"), ("n1", "Q2"), ("n1", "Q1")],
            )
