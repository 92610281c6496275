import random
import re
import time
from collections.abc import Mapping
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eligo.corpus import CriterionKind, CriterionSpec, TrialSpec, Verdict
from eligo.errors import CatalogError, MissingVerdictError, RuleParseError
from eligo.rules import (
    MAX_RULE_DEPTH,
    SENSITIVITY_CAP,
    _Token,
    AllOf,
    And,
    AnyOf,
    Atom,
    CriterionVerdict,
    Not,
    Or,
    ParsedRule,
    RuleExpr,
    SensitivityResult,
    Stability,
    TrialStatus,
    TrialVerdict,
    criterion_verdict,
    eval_rule,
    parse_rule,
    print_rule,
    referenced_ids,
    rename_questions,
    sensitivity,
    trial_verdict,
    verdicts_for_note,
)

from conftest import assert_read_only

LIVER_RULE = "Q1 IS YES AND (Q2 IS YES OR Q3 IS YES) AND Q4 IS NOT YES"
LIVER_ANSWERS = {"Q1": Verdict.YES, "Q2": Verdict.YES, "Q3": Verdict.NO,
                "Q4": Verdict.UNKNOWN}

VALUES = (Verdict.YES, Verdict.NO, Verdict.UNKNOWN)

# Rule tokens in either case, marks, spaces and stray characters, joined with
# no separator so that neighbouring pieces also run together into one word.
RULE_PIECES = ["Q1", "q2", "1.q3", "_x-4", "IS", "is", "NOT", "AND", "or", "ANY", "all",
               "YES", "no", "Unknown", "(", ")", ",", " ", "  ", "\t", "\n", "&", "é", "."]


def desugar(expr):
    """Expand ANY/ALL into the equivalent OR/AND of plain atoms."""
    if isinstance(expr, Atom):
        return expr
    if isinstance(expr, Not):
        return Not(desugar(expr.child))
    if isinstance(expr, And):
        return And(tuple(desugar(child) for child in expr.children))
    if isinstance(expr, Or):
        return Or(tuple(desugar(child) for child in expr.children))
    atoms = tuple(Atom(question_id, expr.value) for question_id in expr.question_ids)
    if isinstance(expr, AnyOf):
        return atoms[0] if len(atoms) == 1 else Or(atoms)
    return atoms[0] if len(atoms) == 1 else And(atoms)


# -- independent reference evaluator (no short-circuiting, no reuse) -----------

def reference_eval(expr, assignment):
    """Brute-force evaluator, written separately from the engine's walker."""
    if isinstance(expr, Atom):
        answer = assignment.get(expr.question_id, Verdict.UNKNOWN)
        equal = answer == expr.value
        return (not equal) if expr.negated else equal
    if isinstance(expr, Not):
        return not reference_eval(expr.child, assignment)
    if isinstance(expr, And):
        results = [reference_eval(child, assignment) for child in expr.children]
        return False not in results
    if isinstance(expr, Or):
        results = [reference_eval(child, assignment) for child in expr.children]
        return True in results
    if isinstance(expr, AnyOf):
        hits = [assignment.get(q, Verdict.UNKNOWN) == expr.value
                for q in expr.question_ids]
        return True in hits
    if isinstance(expr, AllOf):
        hits = [assignment.get(q, Verdict.UNKNOWN) == expr.value
                for q in expr.question_ids]
        return False not in hits
    raise AssertionError(f"unknown node {expr!r}")


def random_expr(rng, question_ids, depth=0):
    choices = ["atom", "atom", "any", "all"]
    if depth < 3:
        choices += ["not", "and", "or"]
    kind = rng.choice(choices)
    value = rng.choice(VALUES)
    if kind == "atom":
        return Atom(rng.choice(question_ids), value, negated=rng.random() < 0.4)
    if kind == "any" or kind == "all":
        count = rng.randint(1, len(question_ids))
        ids = tuple(rng.sample(question_ids, count))
        return (AnyOf if kind == "any" else AllOf)(ids, value)
    if kind == "not":
        return Not(random_expr(rng, question_ids, depth + 1))
    children = tuple(
        random_expr(rng, question_ids, depth + 1) for _ in range(rng.randint(2, 3))
    )
    return And(children) if kind == "and" else Or(children)


def exhaustive_assignments(question_ids):
    for combo in product(VALUES, repeat=len(question_ids)):
        yield dict(zip(question_ids, combo))


def brute_force_sensitivity(expr, answers):
    """The 2^k oracle: (stable, k) by evaluating every YES/NO completion."""
    unknowns = sorted(q for q in referenced_ids(expr)
                      if answers.get(q, Verdict.UNKNOWN) is Verdict.UNKNOWN)
    outcomes = set()
    for completion in product((Verdict.YES, Verdict.NO), repeat=len(unknowns)):
        candidate = dict(answers)
        candidate.update(zip(unknowns, completion))
        outcomes.add(reference_eval(expr, candidate))
    return len(outcomes) == 1, len(unknowns)


def rule_features(expr, seen=None):
    """Which constructs a rule uses, and whether some question id repeats."""
    seen = seen if seen is not None else {"ids": []}
    if isinstance(expr, Atom):
        seen["ids"].append(expr.question_id)
        if expr.value is Verdict.UNKNOWN:
            seen["IS NOT UNKNOWN" if expr.negated else "IS UNKNOWN"] = True
    elif isinstance(expr, Not):
        rule_features(expr.child, seen)
    elif isinstance(expr, (And, Or)):
        for child in expr.children:
            rule_features(child, seen)
    else:
        seen["ANY" if isinstance(expr, AnyOf) else "ALL"] = True
        seen["ids"].extend(expr.question_ids)
    seen["repeated"] = len(seen["ids"]) != len(set(seen["ids"]))
    return seen


class TestParser:
    def test_liver_rule_shape(self):
        expr = parse_rule(LIVER_RULE)
        assert isinstance(expr, And)
        assert len(expr.children) == 3
        first, middle, last = expr.children
        assert first == Atom("Q1", Verdict.YES)
        assert isinstance(middle, Or)
        assert middle.children == (Atom("Q2", Verdict.YES), Atom("Q3", Verdict.YES))
        assert last == Atom("Q4", Verdict.YES, negated=True)

    def test_missing_value_position_and_hint(self):
        with pytest.raises(RuleParseError) as excinfo:
            parse_rule("Q1 IS ")
        assert excinfo.value.position == 7
        assert "VALUE" in excinfo.value.expected

    def test_missing_value_at_text_end(self):
        with pytest.raises(RuleParseError) as excinfo:
            parse_rule("Q1 IS")
        assert excinfo.value.position == 6
        assert "VALUE" in excinfo.value.expected

    def test_any_desugars_to_or(self):
        sugar = parse_rule("ANY(Q2, Q3) IS YES")
        assert desugar(sugar) == parse_rule("Q2 IS YES OR Q3 IS YES")

    def test_all_desugars_to_and(self):
        sugar = parse_rule("ALL(Q2, Q3) IS NO")
        assert desugar(sugar) == parse_rule("Q2 IS NO AND Q3 IS NO")

    def test_keywords_case_insensitive(self):
        assert parse_rule("q1 is not yes and q2 is no") == parse_rule(
            "q1 IS NOT YES AND q2 IS NO"
        )

    def test_unbalanced_paren(self):
        with pytest.raises(RuleParseError):
            parse_rule("(Q1 IS YES")

    def test_unexpected_character(self):
        with pytest.raises(RuleParseError) as excinfo:
            parse_rule("Q1 IS YES & Q2 IS NO")
        assert excinfo.value.position == 11

    def test_empty_any_list(self):
        with pytest.raises(RuleParseError):
            parse_rule("ANY() IS YES")

    def test_trailing_garbage(self):
        with pytest.raises(RuleParseError):
            parse_rule("Q1 IS YES Q2")

    @pytest.mark.parametrize("opening, closing", [("(", ")"), ("NOT ", ""), ("(not ", ")")])
    def test_nesting_deeper_than_the_bound_is_a_parse_error(self, opening, closing):
        # Each "(" and each NOT is one level of nesting.
        copies = MAX_RULE_DEPTH // (opening.count("(") + opening.upper().count("NOT"))
        deepest = opening * copies + "Q1 IS YES" + closing * copies
        assert referenced_ids(parse_rule(deepest)) == {"Q1"}
        with pytest.raises(RuleParseError, match="rule nested deeper than") as excinfo:
            parse_rule(opening * 400 + "Q1 IS YES" + closing * 400)
        assert excinfo.value.position == copies * len(opening) + 1

    def test_print_parse_roundtrip_worked_example(self):
        expr = parse_rule(LIVER_RULE)
        assert parse_rule(print_rule(expr)) == expr

    def test_print_parse_roundtrip_random_asts(self):
        rng = random.Random(20240801)
        question_ids = ["Q1", "Q2", "Q3", "Q4", "Q5"]
        for _ in range(200):
            expr = random_expr(rng, question_ids)
            assert parse_rule(print_rule(expr)) == expr

    @pytest.mark.parametrize("rule", ["1.q1 IS YES AND 1.q2 IS NOT NO",
                                      "ANY(2, _x, 3-a.q1) IS UNKNOWN"])
    def test_a_question_id_may_start_with_a_digit(self, rule):
        # convert names a criterion's questions <criterion id>.q<k>, and a
        # criterion id may start with a digit.
        assert print_rule(parse_rule(rule)) == rule

    @pytest.mark.parametrize("rule, position", [(".q1 IS YES", 1), ("-q1 IS YES", 1),
                                                ("q1 IS YES AND 1 q2 IS NO", 17)])
    def test_a_question_id_starts_with_a_letter_digit_or_underscore(self, rule, position):
        with pytest.raises(RuleParseError) as excinfo:
            parse_rule(rule)
        assert excinfo.value.position == position

    @pytest.mark.parametrize("rule, message", [
        ("", "position 1: unexpected end of rule, expected question id, '(', NOT, ANY or ALL"),
        ("Q1", "position 3: unexpected end of rule, expected IS"),
        ("Q1 IS MAYBE", "position 7: unexpected 'MAYBE', expected VALUE (YES, NO or UNKNOWN)"),
        ("Q1 IS YES Q2", "position 11: unexpected 'Q2', expected AND, OR or end of rule"),
        ("(Q1 IS YES", "position 11: unexpected end of rule, expected ')'"),
        ("ANY Q1) IS YES", "position 5: unexpected 'Q1', expected '('"),
        ("ANY(Q1,) IS YES", "position 8: unexpected ')', expected question id"),
        ("ANY(Q1) YES", "position 9: unexpected 'YES', expected IS"),
        ("Q1 IS YES & Q2 IS NO", "position 11: unexpected character '&', expected a token"),
        ("Q1 IS YES)", "position 10: unexpected ')', expected AND, OR or end of rule"),
    ])
    def test_error_messages(self, rule, message):
        with pytest.raises(RuleParseError) as excinfo:
            parse_rule(rule)
        assert str(excinfo.value) == message

    @given(st.lists(st.sampled_from(RULE_PIECES), max_size=14).map("".join))
    @settings(max_examples=500, deadline=None)
    def test_any_text_parses_round_trips_or_fails_at_a_token(self, text):
        try:
            expr = parse_rule(text)
        except RuleParseError as error:
            assert 1 <= error.position <= len(text) + 1
            assert error.position == len(text) + 1 or not text[error.position - 1].isspace()
        else:
            assert parse_rule(print_rule(expr)) == expr

    def test_trailing_whitespace_is_scanned_once(self):
        # A token scan retried at each trailing space would take seconds here.
        started = time.perf_counter()
        assert parse_rule("Q1 IS YES" + " " * 20_000) == Atom("Q1", Verdict.YES)
        with pytest.raises(RuleParseError, match="position 20006: unexpected end of rule"):
            parse_rule("Q1 IS" + "\n" * 20_000)
        assert time.perf_counter() - started < 1.0

    def test_rename_questions(self):
        expr = parse_rule("Q1 IS YES AND ANY(Q1, Q2) IS NO")
        renamed = rename_questions(expr, {"Q1": "c1.q1", "Q2": "c1.q2"})
        assert print_rule(renamed) == "c1.q1 IS YES AND ANY(c1.q1, c1.q2) IS NO"

    @pytest.mark.parametrize("expr", ["Q1 IS YES", None])
    def test_print_rule_refuses_what_is_not_a_rule(self, expr):
        with pytest.raises(TypeError, match=f"^not a rule expression: {re.escape(repr(expr))}$"):
            print_rule(expr)


class TestEval:
    def test_liver_answers_meet_rule(self):
        assert eval_rule(parse_rule(LIVER_RULE), LIVER_ANSWERS) is True

    def test_false_first_conjunct(self):
        answers = dict(LIVER_ANSWERS, Q1=Verdict.NO)
        assert eval_rule(parse_rule(LIVER_RULE), answers) is False

    def test_unknown_satisfies_is_not(self):
        assert eval_rule(parse_rule("Q4 IS NOT YES"), {"Q4": Verdict.UNKNOWN}) is True

    def test_missing_answer_recorded_as_unknown(self):
        answers = {}
        assert eval_rule(parse_rule("Q1 IS UNKNOWN"), answers) is True

    def test_atom_complementation(self):
        for answer in VALUES:
            hits = [eval_rule(Atom("Q", value), {"Q": answer}) for value in VALUES]
            assert hits.count(True) == 1
            for value in VALUES:
                assert eval_rule(Atom("Q", value, negated=True), {"Q": answer}) == (
                    not eval_rule(Atom("Q", value), {"Q": answer})
                )

    def test_agrees_with_reference_on_random_rules(self):
        rng = random.Random(7)
        question_ids = ["Q1", "Q2", "Q3", "Q4", "Q5"]
        for _ in range(50):
            count = rng.randint(1, 5)
            ids = question_ids[:count]
            expr = random_expr(rng, ids)
            for assignment in exhaustive_assignments(ids):
                assert eval_rule(expr, assignment) == reference_eval(expr, assignment)

    def test_desugaring_identity_exhaustive(self):
        rng = random.Random(11)
        ids = ["Q1", "Q2", "Q3", "Q4"]
        for _ in range(30):
            expr = random_expr(rng, ids)
            plain = desugar(expr)
            for assignment in exhaustive_assignments(ids):
                assert eval_rule(expr, assignment) == eval_rule(plain, assignment)


class TestSensitivity:
    def test_liver_verdict_unstable_on_q4(self):
        result = sensitivity(parse_rule(LIVER_RULE), LIVER_ANSWERS)
        assert result.status is Stability.UNSTABLE
        assert result.unknown_count == 1

    def test_no_unknowns_trivially_stable(self):
        answers = {"Q1": Verdict.YES, "Q2": Verdict.NO}
        result = sensitivity(parse_rule("Q1 IS YES AND Q2 IS NO"), answers)
        assert result.status is Stability.STABLE
        assert result.unknown_count == 0

    def test_tautology_stable_despite_unknown(self):
        result = sensitivity(parse_rule("Q1 IS YES OR Q1 IS NOT YES"),
                             {"Q1": Verdict.UNKNOWN})
        assert result.status is Stability.STABLE

    def test_cap_marks_unstable(self):
        ids = tuple(f"Q{i}" for i in range(17))
        expr = AnyOf(ids, Verdict.YES)
        result = sensitivity(expr, {})
        assert result.status is Stability.UNSTABLE
        assert result.capped is True

    @pytest.mark.parametrize("width", range(17, 21))
    @pytest.mark.parametrize("template, answers, met", [
        ("ANY({ids}) IS YES", {"Q1": Verdict.YES}, True),
        ("ANY({ids}) IS NO", {"Q{width}": Verdict.NO}, True),
        ("ALL({ids}) IS YES", {"Q1": Verdict.NO}, False),
        ("ALL({ids}) IS NO", {"Q{width}": Verdict.UNKNOWN, "Q2": Verdict.YES}, False),
        ("P IS YES AND ANY({ids}) IS YES", {"P": Verdict.NO}, False),
        ("ALL({ids}) IS NO OR NOT P IS NO", {"P": Verdict.YES}, True),
    ])
    def test_a_decided_rule_is_stable_over_the_cap(self, width, template, answers, met):
        ids = ", ".join(f"Q{i}" for i in range(1, width + 1))
        answers = {key.format(width=width): value for key, value in answers.items()}
        criterion = TestOutcomeMemo.criterion(template.format(ids=ids))
        result = sensitivity(criterion.parsed_rule, answers)
        known = [value for value in answers.values() if value is not Verdict.UNKNOWN]
        assert result.unknown_count == len(criterion.parsed_rule.question_ids) - len(known)
        assert (result.status, result.capped) == (Stability.STABLE, False)
        assert result == reference_sensitivity(criterion.parsed_rule, answers)
        verdict = criterion_verdict(criterion, answers)
        assert (verdict.met, verdict.stable) == (met, True)
        assert eval_rule(criterion.parsed_rule.expr, answers) is met

    def test_matches_brute_force_oracle_on_random_rules(self):
        rng = random.Random(2025)
        covered = set()
        for _ in range(150):
            ids = [f"Q{i}" for i in range(1, rng.randint(1, 4) + 1)]
            expr = random_expr(rng, ids)
            features = rule_features(expr)
            covered |= {name for name, hit in features.items() if hit is True}
            for assignment in exhaustive_assignments(ids):
                # Dropping the UNKNOWN entries makes those answers missing.
                missing = {q: v for q, v in assignment.items()
                           if v is not Verdict.UNKNOWN}
                for answers in (assignment, missing):
                    result = sensitivity(expr, answers)
                    stable, k = brute_force_sensitivity(expr, answers)
                    assert result.unknown_count == k
                    assert (result.status is Stability.STABLE) == stable, \
                        (print_rule(expr), answers)
                    assert result.capped is False
        assert covered >= {"repeated", "IS UNKNOWN", "IS NOT UNKNOWN", "ANY", "ALL"}

    @pytest.mark.parametrize("rule, stable", [
        ("Q1 IS YES OR Q1 IS NO", True),
        ("Q1 IS YES AND Q1 IS NO", True),
        ("Q1 IS UNKNOWN", True),
        ("Q1 IS NOT UNKNOWN", True),
        ("ANY(Q1, Q2) IS UNKNOWN OR ALL(Q1, Q2) IS UNKNOWN", True),
        ("(Q1 IS YES AND Q2 IS YES) OR (Q1 IS NO AND Q2 IS YES) OR Q2 IS NO", True),
        ("(Q1 IS YES AND Q2 IS YES) OR (Q1 IS NO AND Q2 IS NO)", False),
        ("ANY(Q1, Q2, Q3) IS YES", False),
        ("NOT ALL(Q1, Q2) IS NO AND Q3 IS NOT UNKNOWN", False),
    ])
    def test_kleene_splits_are_exact(self, rule, stable):
        expr = parse_rule(rule)
        result = sensitivity(expr, {})
        assert (result.status is Stability.STABLE) is stable
        assert brute_force_sensitivity(expr, {})[0] is stable

    def test_parsed_rule_gives_the_same_result(self):
        rule = ParsedRule.parse(LIVER_RULE)
        for answers in ({}, LIVER_ANSWERS, dict(LIVER_ANSWERS, Q4=Verdict.NO)):
            assert sensitivity(rule, answers) == sensitivity(rule.expr, answers)

    def test_wide_rule_below_cap_is_decided_without_sweep(self):
        ids = tuple(f"Q{i:02d}" for i in range(16))
        result = sensitivity(AnyOf(ids, Verdict.YES), {})
        assert result.status is Stability.UNSTABLE
        assert result.unknown_count == 16
        assert result.capped is False

    def test_stable_means_invariant_under_single_flips(self):
        expr = parse_rule("Q1 IS YES OR Q2 IS NOT NO")
        answers = {"Q1": Verdict.YES, "Q2": Verdict.UNKNOWN}
        result = sensitivity(expr, answers)
        if result.status is Stability.STABLE:
            base = eval_rule(expr, answers)
            for flip in (Verdict.YES, Verdict.NO):
                assert eval_rule(expr, dict(answers, Q2=flip)) == base


class TestVerdicts:
    def primary_liver_criterion(self):
        return CriterionSpec(
            criterion_id="C1", trial_ids=("T1",), kind=CriterionKind.INCLUSION,
            text="primary liver cancer", rule_text=LIVER_RULE,
            question_ids=("Q1", "Q2", "Q3", "Q4"),
        )

    def test_liver_criterion_met_but_unstable(self):
        verdict = criterion_verdict(self.primary_liver_criterion(), LIVER_ANSWERS)
        assert verdict.met is True
        assert verdict.stable is False

    def test_all_no_is_stable_not_met(self):
        criterion = CriterionSpec(
            "c", (), CriterionKind.INCLUSION, "t",
            "ALL(Q1, Q2) IS YES", ("Q1", "Q2"),
        )
        verdict = criterion_verdict(criterion, {"Q1": Verdict.NO, "Q2": Verdict.NO})
        assert verdict.met is False
        assert verdict.stable is True

    def test_missing_answers_become_unknown(self):
        verdict = criterion_verdict(self.primary_liver_criterion(), {})
        assert verdict.met is False  # Q1 IS YES fails on UNKNOWN

    def test_verdicts_for_note_follow_criterion_order(self):
        criteria = [
            CriterionSpec("b", (), CriterionKind.INCLUSION, "t", "Q1 IS YES", ("Q1",)),
            self.primary_liver_criterion(),
        ]
        verdicts = verdicts_for_note(criteria, LIVER_ANSWERS)
        assert [verdict.criterion_id for verdict in verdicts] == ["b", "C1"]
        assert verdicts == [criterion_verdict(c, LIVER_ANSWERS) for c in criteria]

    def test_empty_rule_rejected(self):
        criterion = CriterionSpec("c", (), CriterionKind.INCLUSION, "t", "", (),
                                  needs_human_rule=True)
        with pytest.raises(CatalogError):
            criterion_verdict(criterion, {})

    def make_verdict(self, criterion_id, kind, met, stable):
        return CriterionVerdict(criterion_id=criterion_id, kind=kind, met=met,
                                stable=stable)

    def test_trial_eligible(self):
        trial = TrialSpec("T", ("i1", "i2", "e1"))
        verdicts = [
            self.make_verdict("i1", CriterionKind.INCLUSION, True, True),
            self.make_verdict("i2", CriterionKind.INCLUSION, True, True),
            self.make_verdict("e1", CriterionKind.EXCLUSION, False, True),
        ]
        rollup = trial_verdict(trial, verdicts)
        assert rollup.status.value == "ELIGIBLE"
        assert rollup.failing == ()

    def test_trial_ineligible_lists_failure(self):
        trial = TrialSpec("T", ("i1",))
        rollup = trial_verdict(
            trial, [self.make_verdict("i1", CriterionKind.INCLUSION, False, True)]
        )
        assert rollup.status.value == "INELIGIBLE"
        assert rollup.failing == ("i1",)
        # Notes with equal answers roll up to equal verdicts.
        criteria = [CriterionSpec(c, ("T",), CriterionKind.INCLUSION, "t", f"{q} IS YES", (q,))
                    for c, q in (("c1", "q1"), ("c2", "q2"))]
        trial = TrialSpec("T", ("c1", "c2"))
        rollups = [trial_verdict(trial, verdicts_for_note(criteria, answers))
                   for answers in ({"q1": Verdict.YES, "q2": Verdict.NO},
                                   {"q1": Verdict.YES, "q2": Verdict.NO},
                                   {"q1": Verdict.YES, "q2": Verdict.YES})]
        assert rollups[0] == rollups[1]
        assert rollups[0].failing == ("c2",) and rollups[2].status.value == "ELIGIBLE"

    def test_trial_undetermined_on_unstable_pass(self):
        trial = TrialSpec("T", ("i1", "i2"))
        verdicts = [
            self.make_verdict("i1", CriterionKind.INCLUSION, True, False),
            self.make_verdict("i2", CriterionKind.INCLUSION, True, True),
        ]
        assert trial_verdict(trial, verdicts).status.value == "UNDETERMINED"

    def test_trial_undetermined_on_unstable_failure(self):
        trial = TrialSpec("T", ("e1",))
        verdicts = [self.make_verdict("e1", CriterionKind.EXCLUSION, True, False)]
        assert trial_verdict(trial, verdicts).status.value == "UNDETERMINED"

    def test_missing_verdict_named(self):
        trial = TrialSpec("T", ("i1", "i2"))
        with pytest.raises(MissingVerdictError) as excinfo:
            trial_verdict(trial, [self.make_verdict("i1", CriterionKind.INCLUSION,
                                                    True, True)])
        assert excinfo.value.criterion_id == "i2"


def test_referenced_ids():
    expr = parse_rule("Q1 IS YES AND (ANY(Q2, Q3) IS NO OR NOT Q4 IS UNKNOWN)")
    assert referenced_ids(expr) == {"Q1", "Q2", "Q3", "Q4"}


class TestOutcomeMemo:
    """criterion_verdict memoizes its verdict per answer pattern on the rule."""

    @staticmethod
    def criterion(rule_text, criterion_id="c", kind=CriterionKind.INCLUSION):
        expr = parse_rule(rule_text)
        return CriterionSpec(criterion_id, (), kind, "t", rule_text,
                             tuple(sorted(referenced_ids(expr))))

    def test_repeated_pattern_returns_the_same_verdict_object(self):
        criterion = self.criterion("Q1 IS YES AND Q2 IS NOT NO", criterion_id="c7")
        first = criterion_verdict(criterion, {"Q1": Verdict.YES, "Q2": Verdict.UNKNOWN})
        # Another note with the same pattern, the UNKNOWN answer now missing.
        second = criterion_verdict(criterion, {"Q1": Verdict.YES, "Q3": Verdict.NO})
        assert second is first
        assert first == CriterionVerdict("c7", CriterionKind.INCLUSION, met=True,
                                         stable=False)
        other = criterion_verdict(criterion, {"Q1": Verdict.NO, "Q2": Verdict.UNKNOWN})
        assert other is not first and other.criterion_id == "c7"

    def test_criteria_with_the_same_rule_text_keep_their_own_verdicts(self):
        rule = "Q1 IS YES OR Q2 IS YES"
        inclusion = self.criterion(rule, criterion_id="inc")
        exclusion = self.criterion(rule, criterion_id="exc", kind=CriterionKind.EXCLUSION)
        assert inclusion.parsed_rule is not exclusion.parsed_rule
        answers = {"Q1": Verdict.YES, "Q2": Verdict.NO}
        for _ in range(2):
            for criterion in (inclusion, exclusion, inclusion):
                verdict = criterion_verdict(criterion, answers)
                assert (verdict.criterion_id, verdict.kind) == (criterion.criterion_id,
                                                                criterion.kind)
                assert (verdict.met, verdict.stable) == (True, True)
        assert criterion_verdict(inclusion, answers).passes()
        assert not criterion_verdict(exclusion, answers).passes()

    def test_memoized_verdicts_match_fresh_evaluation_and_oracle(self):
        rng = random.Random(8)
        calls = patterns = 0
        for _ in range(60):
            ids = [f"Q{i}" for i in range(1, rng.randint(1, 4) + 1)]
            criterion = self.criterion(print_rule(random_expr(rng, ids)))
            expr = criterion.parsed_rule.expr
            # A small pool of answer maps, drawn with repeats; dropping the
            # UNKNOWN entries of some makes those answers missing.
            pool = []
            for _ in range(6):
                answers = {q: rng.choice(VALUES) for q in ids}
                if rng.random() < 0.5:
                    answers = {q: v for q, v in answers.items() if v is not Verdict.UNKNOWN}
                pool.append(answers)
            for _ in range(20):
                answers = rng.choice(pool)
                verdict = criterion_verdict(criterion, answers)
                stable, _ = brute_force_sensitivity(expr, answers)
                assert verdict.met is eval_rule(expr, answers) is reference_eval(expr, answers)
                assert verdict.stable is stable, (print_rule(expr), answers)
                calls += 1
            patterns += len(criterion.parsed_rule.outcomes)
        assert patterns < calls / 2  # repeated patterns were looked up, not re-evaluated

    def test_missing_answer_shares_the_unknown_entry(self):
        criterion = self.criterion("Q1 IS NOT YES AND Q2 IS YES")
        first = criterion_verdict(criterion, {"Q2": Verdict.YES})
        assert list(criterion.parsed_rule.outcomes) == [(Verdict.UNKNOWN, Verdict.YES)]
        second = criterion_verdict(criterion, {"Q1": Verdict.UNKNOWN, "Q2": Verdict.YES})
        assert first == second
        assert len(criterion.parsed_rule.outcomes) == 1

    @pytest.mark.parametrize("evaluate", [
        lambda criterion, answers: eval_rule(criterion.parsed_rule.expr, answers),
        lambda criterion, answers: sensitivity(criterion.parsed_rule, answers),
        criterion_verdict,
        lambda criterion, answers: verdicts_for_note([criterion], answers),
    ], ids=["eval_rule", "sensitivity", "criterion_verdict", "verdicts_for_note"])
    def test_an_answer_that_is_not_a_verdict_member_is_refused(self, evaluate):
        # A plain "YES" equals Verdict.YES, but the evaluators match by identity.
        criterion = self.criterion("Q1 IS YES")
        with pytest.raises(TypeError, match="'Q1'"):
            evaluate(criterion, {"Q1": "YES"})
        assert criterion.parsed_rule.outcomes == {}


# Answers as the rules receive them: Verdict members, some missing.
NOTE_ANSWERS = st.dictionaries(
    st.sampled_from(["Q1", "Q2", "Q3", "Q4"]),
    st.sampled_from(VALUES),
)


@given(seed=st.integers(0, 2**32 - 1), notes=st.lists(NOTE_ANSWERS, min_size=1,
                                                       max_size=8))
@settings(max_examples=150, deadline=None)
def test_verdicts_for_note_match_fresh_evaluation(seed, notes):
    rng = random.Random(seed)
    rules = ["Q1 IS YES"] + [print_rule(random_expr(rng, ["Q1", "Q2", "Q3", "Q4"]))
                             for _ in range(3)]
    criteria = [TestOutcomeMemo.criterion(rule, criterion_id=f"c{index}")
                for index, rule in enumerate(rules)]
    for answers in notes:
        verdicts = verdicts_for_note(criteria, answers)
        assert [verdict.criterion_id for verdict in verdicts] == \
            [criterion.criterion_id for criterion in criteria]
        for criterion, verdict in zip(criteria, verdicts):
            expr = criterion.parsed_rule.expr
            assert verdict.met is eval_rule(expr, answers)
            assert verdict.stable is (sensitivity(expr, answers).status
                                      is Stability.STABLE)
            direct = criterion_verdict(criterion, answers)
            assert direct == verdict
            # A direct call and the roll-up share one memo entry.
            assert direct is verdict
    for criterion in criteria:
        rule = criterion.parsed_rule
        for key in rule.outcomes:
            # itemgetter over one id returns the answer itself, not a 1-tuple.
            values = key if len(rule.question_ids) > 1 else (key,)
            assert len(values) == len(rule.question_ids)
            assert all(type(value) is Verdict for value in values)


# -- the evaluators the one-pass kernel replaced ------------------------------
#
# Two-valued evaluation, then a sensitivity analysis that collects the known
# answers and runs a Kleene pass with case splits, copied verbatim from the
# rules module as it was before ``_eval`` computed both in one pass; only
# the names are prefixed.  The kernel must give the same ``met`` and
# ``stable`` as these on every rule and answer map.

def reference_eval_rule(expr: RuleExpr, answers: Mapping[str, Verdict]) -> bool:
    """Two-valued evaluation; missing answers count as UNKNOWN."""
    if isinstance(expr, Atom):
        hit = answers.get(expr.question_id, Verdict.UNKNOWN) is expr.value
        return not hit if expr.negated else hit
    if isinstance(expr, Not):
        return not reference_eval_rule(expr.child, answers)
    if isinstance(expr, And):
        return all(reference_eval_rule(child, answers) for child in expr.children)
    if isinstance(expr, Or):
        return any(reference_eval_rule(child, answers) for child in expr.children)
    if isinstance(expr, AnyOf):
        return any(answers.get(q, Verdict.UNKNOWN) is expr.value for q in expr.question_ids)
    if isinstance(expr, AllOf):
        return all(answers.get(q, Verdict.UNKNOWN) is expr.value for q in expr.question_ids)
    raise TypeError(f"not a rule expression: {expr!r}")


def reference_sensitivity(
    expr: RuleExpr | ParsedRule, answers: Mapping[str, Verdict]
) -> SensitivityResult:
    """Check whether the verdict survives every YES/NO completion of UNKNOWNs.

    Exact over the k UNKNOWN answers the expression references (missing
    answers count as UNKNOWN), without enumerating the 2^k completions: the
    rule is evaluated in Kleene's three-valued logic, and an UNKNOWN answer
    is split into YES and NO only while the result is still undecided.  The
    search stops at the first branch whose completions disagree.  A result
    still undecided with more than SENSITIVITY_CAP unknowns is UNSTABLE with
    the capped flag set, without a split.  A ParsedRule saves collecting the
    referenced ids again.
    """
    if isinstance(expr, ParsedRule):
        expr, question_ids = expr.expr, expr.question_ids
    else:
        question_ids = sorted(referenced_ids(expr))
    known: dict[str, Verdict] = {}
    k = 0
    for question_id in question_ids:
        value = answers.get(question_id, Verdict.UNKNOWN)
        if value is Verdict.UNKNOWN:
            k += 1
        else:
            known[question_id] = value
    if k == 0:
        return SensitivityResult(Stability.STABLE, unknown_count=0)
    if k > SENSITIVITY_CAP and isinstance(reference_kleene(expr, known), str):
        return SensitivityResult(Stability.UNSTABLE, unknown_count=k, capped=True)
    stable = reference_settle(expr, known) is not None
    return SensitivityResult(
        Stability.STABLE if stable else Stability.UNSTABLE, unknown_count=k
    )


def reference_settle(expr: RuleExpr, known: dict[str, Verdict]) -> bool | None:
    """The value shared by every YES/NO completion of the free answers, else None.

    ``known`` holds the YES/NO answers; every other referenced question is
    free.  It is extended while splitting and restored before returning.
    """
    value = reference_kleene(expr, known)
    if isinstance(value, bool):
        return value
    known[value] = Verdict.YES
    outcome = reference_settle(expr, known)
    if outcome is not None:
        known[value] = Verdict.NO
        if reference_settle(expr, known) != outcome:
            outcome = None
    del known[value]
    return outcome


def reference_kleene(expr: RuleExpr, known: Mapping[str, Verdict]) -> bool | str:
    """Strong Kleene evaluation over the YES/NO completions of the free answers.

    Returns True or False when every completion gives that value, and
    otherwise the id of a free question the value still depends on.  A
    completion answers only YES or NO, so "Q IS UNKNOWN" is False for a
    free Q as much as for a known one.
    """
    if isinstance(expr, Atom):
        answer = known.get(expr.question_id)
        if answer is None:
            if expr.value is not Verdict.UNKNOWN:
                return expr.question_id
            hit = False
        else:
            hit = answer is expr.value
        return hit != expr.negated
    if isinstance(expr, Not):
        value = reference_kleene(expr.child, known)
        return value if isinstance(value, str) else not value
    if isinstance(expr, (And, Or)):
        # An AND is settled by one False child, an OR by one True child.
        decisive = isinstance(expr, Or)
        pending = None
        for child in expr.children:
            value = reference_kleene(child, known)
            if value is decisive:
                return decisive
            if pending is None and isinstance(value, str):
                pending = value
        return not decisive if pending is None else pending
    if isinstance(expr, (AnyOf, AllOf)):
        if expr.value is Verdict.UNKNOWN:
            return False
        # ANY is settled by one matching answer, ALL by one that differs.
        decisive = isinstance(expr, AnyOf)
        pending = None
        for question_id in expr.question_ids:
            answer = known.get(question_id)
            if answer is None:
                if pending is None:
                    pending = question_id
            elif (answer is expr.value) is decisive:
                return decisive
        return not decisive if pending is None else pending
    raise TypeError(f"not a rule expression: {expr!r}")


SMALL_IDS = ["Q1", "Q2", "Q3", "Q4"]
WIDE_IDS = [f"W{i:02d}" for i in range(1, 21)]


def random_rule(rng):
    """A random rule over four ids; some are joined with an ANY/ALL over
    14-20 more, so that more than SENSITIVITY_CAP answers can be UNKNOWN."""
    expr = random_expr(rng, SMALL_IDS)
    if rng.random() < 0.3:
        ids = tuple(rng.sample(WIDE_IDS, rng.randint(14, len(WIDE_IDS))))
        wide = rng.choice((AnyOf, AllOf))(ids, rng.choice(VALUES))
        if rng.random() < 0.3:
            wide = Not(wide)
        expr = rng.choice((And, Or))((expr, wide))
    return expr


def random_answers(rng, question_ids):
    """Answers with a random share of UNKNOWN ones, some of them missing."""
    unknown_share = rng.random()
    answers = {}
    for question_id in question_ids:
        if rng.random() < unknown_share:
            if rng.random() < 0.5:
                answers[question_id] = Verdict.UNKNOWN
        else:
            answers[question_id] = rng.choice((Verdict.YES, Verdict.NO))
    return answers


def kernel_cases(seed):
    """One random rule and a few answer maps for it, from one seed."""
    rng = random.Random(seed)
    expr = random_rule(rng)
    ids = sorted(referenced_ids(expr))
    return expr, [random_answers(rng, ids) for _ in range(6)]


def reference_verdict(expr, answers):
    return (reference_eval_rule(expr, answers),
            reference_sensitivity(expr, answers).status is Stability.STABLE)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_the_split_search(seed):
    expr, answer_maps = kernel_cases(seed)
    criterion = TestOutcomeMemo.criterion(print_rule(expr))
    rule = criterion.parsed_rule
    for answers in answer_maps:
        expected = reference_sensitivity(expr, answers)
        assert eval_rule(expr, answers) is reference_eval_rule(expr, answers)
        assert sensitivity(expr, answers) == expected
        assert sensitivity(rule, answers) == expected
        verdict = criterion_verdict(criterion, answers)
        assert (verdict.met, verdict.stable) == reference_verdict(expr, answers), \
            (print_rule(expr), answers)


def test_kernel_cases_cover_every_shape():
    """The generator behind test_kernel_matches_the_split_search reaches
    every construct and answer kind that the kernel treats apart."""
    covered = set()
    for seed in range(300):
        expr, answer_maps = kernel_cases(seed)
        features = rule_features(expr)
        covered |= {name for name, hit in features.items() if hit is True}
        rule = ParsedRule(expr, tuple(sorted(referenced_ids(expr))))
        covered.add("read-once" if rule.read_once else "split fallback")
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, Not):
                covered.add("NOT")
                stack.append(node.child)
            elif isinstance(node, (And, Or)):
                stack.extend(node.children)
            elif isinstance(node, (AnyOf, AllOf)) and node.value is Verdict.UNKNOWN:
                covered.add("ANY/ALL IS UNKNOWN")
        for answers in answer_maps:
            if set(rule.question_ids) - set(answers):
                covered.add("missing answer")
            result = reference_sensitivity(expr, answers)
            if result.capped:
                covered.add("over the cap")
            if result.unknown_count > SENSITIVITY_CAP and not result.capped:
                covered.add("decided over the cap")
            if not rule.read_once and result.unknown_count and not result.capped:
                covered.add("split on an UNKNOWN answer")
    assert covered >= {"repeated", "IS UNKNOWN", "IS NOT UNKNOWN", "ANY", "ALL", "NOT",
                       "ANY/ALL IS UNKNOWN", "read-once", "split fallback",
                       "missing answer", "over the cap", "decided over the cap",
                       "split on an UNKNOWN answer"}


@pytest.mark.parametrize("rule, read_once", [
    ("Q1 IS YES AND Q2 IS NO", True),
    ("NOT (ANY(Q1, Q2) IS YES OR ALL(Q3, Q4) IS NO)", True),
    # An IS UNKNOWN test has one value under every completion: it never counts.
    ("Q1 IS YES OR Q1 IS UNKNOWN", True),
    ("Q1 IS NOT UNKNOWN AND ALL(Q1, Q2) IS UNKNOWN AND Q1 IS NOT NO", True),
    ("Q1 IS YES OR (Q1 IS NO AND Q2 IS YES)", False),
    ("Q1 IS YES OR Q1 IS NOT YES", False),
    ("ANY(Q1, Q2) IS YES AND Q2 IS NO", False),
    ("ALL(Q1, Q1) IS NO", False),
])
def test_read_once_flag(rule, read_once):
    assert ParsedRule.parse(rule).read_once is read_once


def test_repeated_id_rule_keeps_stable_apart_from_met():
    """STABLE says that the completions agree with one another, not with met.

    Q1 = YES and Q1 = NO both meet this rule, yet with Q1 UNKNOWN the
    two-valued value is not met, and the verdict is reported STABLE.
    """
    rule = "Q1 IS YES OR (Q1 IS NO AND Q2 IS YES)"
    answers = {"Q1": Verdict.UNKNOWN, "Q2": Verdict.YES}
    criterion = TestOutcomeMemo.criterion(rule)
    assert criterion.parsed_rule.read_once is False
    verdict = criterion_verdict(criterion, answers)
    assert (verdict.met, verdict.stable) == (False, True)
    assert reference_verdict(parse_rule(rule), answers) == (False, True)
    for completion in (Verdict.YES, Verdict.NO):
        assert eval_rule(parse_rule(rule), dict(answers, Q1=completion)) is True


# -- record semantics -----------------------------------------------------------

ATOM = Atom("Q1", Verdict.YES)


def test_nodes_of_one_layout_differ_by_class():
    assert And((ATOM,)) != Or((ATOM,))
    assert not And((ATOM,)) == Or((ATOM,))
    assert AnyOf(("Q1",), Verdict.YES) != AllOf(("Q1",), Verdict.YES)
    assert not AnyOf(("Q1",), Verdict.YES) == AllOf(("Q1",), Verdict.YES)
    assert parse_rule("ANY(Q1) IS YES OR Q2 IS NO") != parse_rule("ALL(Q1) IS YES OR Q2 IS NO")
    assert Not(ATOM) != (ATOM,)


def test_nodes_of_one_class_are_equal_by_value():
    assert And((ATOM, Not(ATOM))) == And((Atom("Q1", Verdict.YES), Not(ATOM)))
    assert hash(And((ATOM,))) == hash(And((ATOM,)))
    assert parse_rule(LIVER_RULE) == parse_rule(LIVER_RULE)
    assert ParsedRule.parse(LIVER_RULE) == ParsedRule.parse(LIVER_RULE)


@pytest.mark.parametrize("build", [lambda: And(()), lambda: Or(()),
                                   lambda: AnyOf((), Verdict.YES),
                                   lambda: AllOf((), Verdict.NO)],
                         ids=["And", "Or", "AnyOf", "AllOf"])
def test_an_empty_operand_list_is_rejected(build):
    with pytest.raises(ValueError, match="at least one"):
        build()


def test_records_are_read_only():
    rule = ParsedRule.parse(LIVER_RULE)
    for record in (ATOM, Not(ATOM), And((ATOM,)), Or((ATOM,)), AnyOf(("Q1",), Verdict.YES),
                   AllOf(("Q1",), Verdict.YES), _Token("IDENT", "Q1", 1),
                   SensitivityResult(Stability.STABLE, 0),
                   CriterionVerdict("C1", CriterionKind.INCLUSION, True, True),
                   TrialVerdict("T1", TrialStatus.ELIGIBLE, ())):
        assert_read_only(record)
    assert_read_only(rule, "outcomes", "verdicts", "key", "read_once")


def test_a_parsed_rules_memo_is_not_part_of_its_value():
    rule, other = ParsedRule.parse(LIVER_RULE), ParsedRule.parse(LIVER_RULE)
    criterion_verdict(CriterionSpec("C1", (), CriterionKind.INCLUSION, "t", LIVER_RULE,
                                    rule.question_ids), LIVER_ANSWERS)
    rule.outcomes[("x",)] = None
    assert rule == other and hash(rule) == hash(other)
    assert repr(rule) == f"ParsedRule(expr={rule.expr!r}, question_ids={rule.question_ids!r})"
