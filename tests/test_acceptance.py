"""Acceptance criteria, one test per criterion, at fixed tolerances.

The conftest hook prints one [acceptance] PASS/FAIL line per criterion.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations, product

import pytest

from eligo.corpus import Verdict
from eligo.evaluation import counterfactual_rate, score_criteria, score_questions
from eligo.pathway_a import load_roles, answer_with_role, majority_vote
from eligo.pathway_b import run_debate
from eligo.rules import (
    AllOf,
    And,
    AnyOf,
    Atom,
    Or,
    Stability,
    criterion_verdict,
    eval_rule,
    parse_rule,
    sensitivity,
)
from eligo.runner import EXIT_OK, canonicalize_results_file, cmd_report, cmd_screen
from eligo.gateway import ChatRequest

from conftest import make_mock_gateway, write_mini_workspace
from test_evaluation import counterfactual_items, ten_item_inputs, twenty_item_inputs
from test_rules import exhaustive_assignments, random_expr, reference_eval

_SESSION_T0 = time.monotonic()

VALUES = (Verdict.YES, Verdict.NO, Verdict.UNKNOWN)


def test_c01_worked_example_end_to_end(notes, liver_catalog, liver_fixtures):
    """Mock answers (YES, YES, NO, UNKNOWN) meet the rule; verdict is unstable."""
    started = time.monotonic()
    gateway = make_mock_gateway(liver_fixtures)
    roles = load_roles()
    note = next(n for n in notes if n.note_id == "n1")
    answers = {}
    for question_id in ("Q1", "Q2", "Q3", "Q4"):
        result = answer_with_role(
            liver_catalog.questions[question_id], note, roles["CRC"], gateway
        )
        answers[question_id] = result.answer.value
    assert answers == {"Q1": Verdict.YES, "Q2": Verdict.YES,
                       "Q3": Verdict.NO, "Q4": Verdict.UNKNOWN}
    criterion = liver_catalog.criteria["C1"]
    verdict = criterion_verdict(criterion, answers)
    assert verdict.met is True
    assert sensitivity(parse_rule(criterion.rule_text), answers).status is \
        Stability.UNSTABLE
    assert verdict.stable is False
    assert time.monotonic() - started < 1.0


def test_c02_rule_engine_matches_brute_force_oracle():
    """200 random rules over <=5 questions agree with the oracle on all 3^n."""
    import random

    started = time.monotonic()
    rng = random.Random(42)
    checked = 0
    for _ in range(200):
        count = rng.randint(1, 5)
        question_ids = [f"Q{i}" for i in range(1, count + 1)]
        expr = random_expr(rng, question_ids)
        for assignment in exhaustive_assignments(question_ids):
            assert eval_rule(expr, assignment) == reference_eval(expr, assignment)
            checked += 1
    assert checked > 0
    assert time.monotonic() - started < 10.0


def test_c03_any_all_desugaring_identities():
    """ANY/ALL evaluate exactly like their OR/AND expansions, exhaustively."""
    for count in range(1, 5):
        question_ids = [f"Q{i}" for i in range(1, count + 1)]
        for value in VALUES:
            sugar_any = AnyOf(tuple(question_ids), value)
            plain_or = Or(tuple(Atom(q, value) for q in question_ids)) \
                if count > 1 else Atom(question_ids[0], value)
            sugar_all = AllOf(tuple(question_ids), value)
            plain_and = And(tuple(Atom(q, value) for q in question_ids)) \
                if count > 1 else Atom(question_ids[0], value)
            for assignment in exhaustive_assignments(question_ids):
                assert eval_rule(sugar_any, assignment) == \
                    eval_rule(plain_or, assignment)
                assert eval_rule(sugar_all, assignment) == \
                    eval_rule(plain_and, assignment)


def test_c04_debate_call_budget(notes, liver_catalog):
    """Adversarial fixture sets use exactly 2 / 3 / 6 calls, never 3 rounds."""
    question = liver_catalog.questions["Q1"]
    note = next(n for n in notes if n.note_id == "n1")
    key = f"{note.note_id}|{question.question_id}"

    always_agree = {
        f"{key}|proponent|r1": '"Yes". a', f"{key}|opponent|r1": '"Yes". b',
    }
    disagree_judge_closes = {
        f"{key}|proponent|r1": '"Yes". a', f"{key}|opponent|r1": '"No". b',
        f"{key}|judge|r1": '"No". decided.',
    }
    demand_second_round = {
        f"{key}|proponent|r1": '"Yes". a', f"{key}|opponent|r1": '"No". b',
        f"{key}|judge|r1": "SECOND ROUND: conflicting readings",
        f"{key}|proponent|r2": '"Yes". c', f"{key}|opponent|r2": '"No". d',
        f"{key}|judge|final": '"Yes". closed.',
    }
    judge_unparsable_final = dict(demand_second_round)
    judge_unparsable_final[f"{key}|judge|final"] = "SECOND ROUND: never satisfied"

    expectations = [
        (always_agree, 2, None),
        (disagree_judge_closes, 3, Verdict.NO),
        (demand_second_round, 6, Verdict.YES),
        (judge_unparsable_final, 6, Verdict.UNKNOWN),
    ]
    for fixtures, expected_calls, expected_value in expectations:
        gateway = make_mock_gateway(fixtures)
        outcome, transcript = run_debate(question, note, gateway)
        assert transcript.calls_used == expected_calls
        assert transcript.calls_used in (2, 3, 6)
        assert transcript.rounds_used <= 2
        assert gateway.transport.calls == expected_calls
        if expected_value is not None:
            assert outcome.value is expected_value
    # The unparsable-final case must be flagged, not silently asserted.
    gateway = make_mock_gateway(judge_unparsable_final)
    outcome, _ = run_debate(question, note, gateway)
    assert outcome.value is Verdict.UNKNOWN
    assert outcome.parse_fallback is True


def test_c05_vote_properties_exhaustive():
    """All 27 value triples: majority, unanimity, permutation invariance."""
    from eligo.gateway import ParsedAnswer
    from eligo.pathway_a import ROLE_IDS, RoleAnswer

    def build(values):
        return [
            RoleAnswer(
                answer=ParsedAnswer(value=value, rationale="r", evidence=(),
                                    provenance=f"n1|Q1|role{role_id}"),
                role_id=role_id,
            )
            for value, role_id in zip(values, ROLE_IDS)
        ]

    distinct_unknown = 0
    for triple in product(VALUES, repeat=3):
        answers = build(triple)
        result = majority_vote(*answers)
        counts = {value: triple.count(value) for value in VALUES}
        majority = [value for value, count in counts.items() if count >= 2]
        if majority:
            assert result.value is majority[0]
        else:
            assert result.value is Verdict.UNKNOWN
            distinct_unknown += 1
        if len(set(triple)) == 1:
            assert result.value is triple[0]
        for ordering in permutations(answers):
            assert majority_vote(*ordering).value is result.value
    assert distinct_unknown == 6


def test_c06_concurrency_bound():
    """200 concurrent units: peak in-flight <= max_inflight; exactly 1 when 1."""
    started = time.monotonic()

    gateway = make_mock_gateway({}, latency_s=0.002, max_inflight=3)
    with ThreadPoolExecutor(max_workers=200) as pool:
        list(pool.map(
            lambda i: gateway.complete(ChatRequest("x", f"u{i}")), range(200)
        ))
    assert gateway.transport.calls == 200
    assert gateway.transport.peak_inflight <= 3

    serialized = make_mock_gateway({}, latency_s=0.001, max_inflight=1)
    with ThreadPoolExecutor(max_workers=200) as pool:
        list(pool.map(
            lambda i: serialized.complete(ChatRequest("x", f"u{i}")), range(200)
        ))
    assert serialized.transport.peak_inflight == 1
    assert time.monotonic() - started < 5.0


def test_c07_metrics_hand_check():
    """Synthetic fixtures reproduce the hand-counted confusion arithmetic."""
    predictions, gold, catalog = ten_item_inputs()
    report = score_questions(predictions, gold, catalog)
    assert report.precision == pytest.approx(0.8333333333, abs=1e-9)
    assert report.recall == pytest.approx(0.8333333333, abs=1e-9)
    assert report.accuracy == 0.8

    verdicts, criterion_gold = twenty_item_inputs()
    criterion_report = score_criteria(verdicts, criterion_gold)
    assert criterion_report.precision == pytest.approx(0.8888888889, abs=1e-9)
    assert criterion_report.recall == 1.0
    assert criterion_report.accuracy == 0.95


def test_c08_counterfactual_proxy():
    """Exactly one ungrounded wrong-YES in 400 yields 0.25%; grounded errors 0."""
    predictions, gold, notes = counterfactual_items()
    report = counterfactual_rate(predictions, gold, notes)
    assert report.rate == 0.0025
    assert report.count == 1

    from eligo.gateway import ParsedAnswer
    predictions[("n1", "qf400")] = ParsedAnswer(
        value=Verdict.YES, rationale="wrong but grounded",
        evidence=("hepatocellular carcinoma (trabecular type)",), provenance="p",
    )
    grounded_wrong = counterfactual_rate(predictions, gold, notes)
    assert grounded_wrong.count == 0
    assert grounded_wrong.rate == 0.0


def test_c09_determinism_and_resumability(tmp_path):
    """Canonicalized reruns are byte-identical; 50% interruption resumes cleanly."""
    from eligo.runner import RunConfig

    workspace = write_mini_workspace(tmp_path / "ws")

    def config_for(out_name):
        raw = dict(workspace["run_config"])
        raw["out"] = str(workspace["root"] / out_name)
        return RunConfig.from_dict(raw)

    assert cmd_screen(config_for("out1")) == EXIT_OK
    assert cmd_screen(config_for("out2")) == EXIT_OK
    first = canonicalize_results_file(workspace["root"] / "out1" / "results.jsonl")
    second = canonicalize_results_file(workspace["root"] / "out2" / "results.jsonl")
    assert first == second

    # Interrupt at 50% of records, then resume into the same directory.
    assert cmd_screen(config_for("out3")) == EXIT_OK
    results_path = workspace["root"] / "out3" / "results.jsonl"
    lines = results_path.read_text().splitlines()
    results_path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    assert cmd_screen(config_for("out3")) == EXIT_OK
    resumed = canonicalize_results_file(results_path)
    assert resumed == first


def test_c10_report_fidelity(tmp_path, capsys, mini_workspace):
    """A prebuilt metrics row renders to 3 decimals; groups partition totals."""
    metrics_path = tmp_path / "metrics.json"
    metrics_path.write_text(json.dumps({
        "question_level": {"Pathway B": {
            "precision": 0.892, "recall": 0.793, "f1": 0.809, "accuracy": 0.972,
        }},
    }))
    assert cmd_report(metrics_path) == EXIT_OK
    assert "0.892 | 0.793 | 0.809 | 0.972" in capsys.readouterr().out

    predictions, gold, catalog = ten_item_inputs()
    report = score_questions(predictions, gold, catalog)
    assert sum(sub.answered_count for sub in report.breakdowns.values()) == \
        report.answered_count

    from eligo.runner import RunConfig, cmd_evaluate
    assert cmd_screen(RunConfig.from_dict(mini_workspace["run_config"])) == EXIT_OK
    assert cmd_evaluate(
        mini_workspace["out"] / "results.jsonl", mini_workspace["gold"],
        mini_workspace["catalog"], mini_workspace["root"] / "eval",
    ) == EXIT_OK
    metrics = json.loads((mini_workspace["root"] / "eval" / "metrics.json").read_text())
    for label, level_report in metrics["question_level"].items():
        grouped = sum(sub["answered_count"]
                      for sub in level_report.get("breakdowns", {}).values())
        assert grouped == level_report["answered_count"], label


def test_c11_suite_is_fast_and_offline():
    """Mock-only suite stays within the 60 s budget (see test_output.txt)."""
    elapsed = time.monotonic() - _SESSION_T0
    assert elapsed < 60.0, f"suite exceeded budget: {elapsed:.1f}s"
