import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eligo.evaluation
from eligo.corpus import (
    AdmissionNote,
    Catalog,
    Category,
    CriterionKind,
    CriterionLabel,
    GoldSet,
    QuestionSpec,
    TaskType,
    Verdict,
    canonical_text,
)
from eligo.evaluation import (
    Grounding,
    _normalize,
    counterfactual_rate,
    grounding_check,
    normalize_notes,
    render_report,
    score_criteria,
    score_questions,
    timing_stats,
)
from eligo.gateway import ParsedAnswer
from eligo.rules import CriterionVerdict

from conftest import assert_read_only


def answer(value, evidence=(), provenance="p"):
    return ParsedAnswer(value=value, rationale="r", evidence=tuple(evidence),
                        provenance=provenance)


def make_catalog(question_ids, categories=None):
    questions = {}
    for index, question_id in enumerate(question_ids):
        if categories:
            category, task_type = categories[index]
        else:
            category, task_type = Category.DIAGNOSIS, TaskType.CLASSIFICATION
        questions[question_id] = QuestionSpec(
            question_id=question_id, text=f"question {question_id}",
            category=category, task_type=task_type,
        )
    return Catalog(questions=questions, criteria={}, trials={})


# Hand-counted 10-item fixture: gold has 6 YES, 3 NO, 1 UNKNOWN.
# Predictions: 5 true YES, 1 gold-YES answered UNKNOWN (FN), 1 gold-NO
# answered YES (FP), remaining 2 NO and 1 UNKNOWN answered exactly.
# Confusion (gold -> pred): YES->YES 5, YES->UNKNOWN 1, NO->YES 1, NO->NO 2,
# UNKNOWN->UNKNOWN 1.  precision = 5/6, recall = 5/6, accuracy = 8/10.
TEN_ITEM_GOLD = {
    ("p1", "t1"): Verdict.YES,
    ("p1", "t2"): Verdict.YES,
    ("p1", "t3"): Verdict.YES,
    ("p1", "t4"): Verdict.YES,
    ("p1", "t5"): Verdict.YES,
    ("p1", "t6"): Verdict.YES,
    ("p1", "t7"): Verdict.NO,
    ("p1", "t8"): Verdict.NO,
    ("p1", "t9"): Verdict.NO,
    ("p1", "t10"): Verdict.UNKNOWN,
}
TEN_ITEM_PREDICTIONS = {
    ("p1", "t1"): Verdict.YES,
    ("p1", "t2"): Verdict.YES,
    ("p1", "t3"): Verdict.YES,
    ("p1", "t4"): Verdict.YES,
    ("p1", "t5"): Verdict.YES,
    ("p1", "t6"): Verdict.UNKNOWN,  # false negative
    ("p1", "t7"): Verdict.YES,      # false positive
    ("p1", "t8"): Verdict.NO,
    ("p1", "t9"): Verdict.NO,
    ("p1", "t10"): Verdict.UNKNOWN,
}
TEN_ITEM_CATEGORIES = [
    (Category.DIAGNOSIS, TaskType.DIRECT_MATCH),
    (Category.DIAGNOSIS, TaskType.DIRECT_MATCH),
    (Category.DIAGNOSIS, TaskType.CLASSIFICATION),
    (Category.ETIOLOGY_AND_PATHOLOGY, TaskType.DIRECT_MATCH),
    (Category.ETIOLOGY_AND_PATHOLOGY, TaskType.CLASSIFICATION),
    (Category.SYMPTOM_AND_EVENT, TaskType.CLASSIFICATION),
    (Category.SYMPTOM_AND_EVENT, TaskType.CLASSIFICATION),
    (Category.INTERVENTION, TaskType.DIRECT_MATCH),
    (Category.INTERVENTION, TaskType.CLASSIFICATION),
    (Category.DIAGNOSIS, TaskType.CLASSIFICATION),
]


def ten_item_inputs():
    gold = GoldSet(question_labels=dict(TEN_ITEM_GOLD))
    question_ids = [f"t{i}" for i in range(1, 11)]
    catalog = make_catalog(question_ids, TEN_ITEM_CATEGORIES)
    return TEN_ITEM_PREDICTIONS, gold, catalog


def twenty_item_inputs():
    # 8 gold MET, 12 gold NOT_MET; one NOT_MET predicted MET, rest exact.
    gold_labels = {}
    verdicts = {}
    for index in range(1, 21):
        key = ("p1", f"c{index}")
        gold_labels[key] = CriterionLabel.MET if index <= 8 else CriterionLabel.NOT_MET
        verdicts[key] = index <= 8
    verdicts[("p1", "c9")] = True  # the single false positive
    return verdicts, GoldSet(criterion_labels=gold_labels)


def counterfactual_items(total=400):
    """399 grounded correct answers plus one ungrounded wrong YES."""
    note = AdmissionNote(
        "n1", {"present_illness": "surgical pathology reported hepatocellular "
                                  "carcinoma (trabecular type)"},
    )
    gold_labels = {}
    predictions = {}
    for index in range(1, total):
        key = ("n1", f"qf{index:03d}")
        gold_labels[key] = Verdict.YES
        predictions[key] = answer(
            Verdict.YES, ["hepatocellular carcinoma (trabecular type)"]
        )
    key = ("n1", "qf400")
    gold_labels[key] = Verdict.NO
    predictions[key] = answer(Verdict.YES, ["transplant evaluation completed"])
    return predictions, GoldSet(question_labels=gold_labels), {"n1": note}


class TestScoreQuestions:
    def test_perfect_predictions(self):
        gold = GoldSet(question_labels=dict(TEN_ITEM_GOLD))
        catalog = make_catalog([f"t{i}" for i in range(1, 11)], TEN_ITEM_CATEGORIES)
        report = score_questions(dict(TEN_ITEM_GOLD), gold, catalog)
        assert report.precision == report.recall == report.f1 == report.accuracy == 1.0

    def test_hand_counted_ten_items(self):
        predictions, gold, catalog = ten_item_inputs()
        report = score_questions(predictions, gold, catalog)
        assert report.precision == pytest.approx(5 / 6, abs=1e-9)
        assert report.recall == pytest.approx(5 / 6, abs=1e-9)
        assert report.accuracy == 0.8
        assert report.f1 == pytest.approx(5 / 6, abs=1e-9)
        assert report.counts.counts["YES"]["YES"] == 5
        assert report.counts.counts["NO"]["YES"] == 1
        assert report.counts.counts["YES"]["UNKNOWN"] == 1

    def test_breakdowns_partition_total(self):
        predictions, gold, catalog = ten_item_inputs()
        report = score_questions(predictions, gold, catalog)
        assert sum(sub.answered_count for sub in report.breakdowns.values()) == \
            report.answered_count
        assert set(report.breakdowns) == {
            "Diagnosis/DirectMatch", "Diagnosis/Classification",
            "EtiologyAndPathology/DirectMatch", "EtiologyAndPathology/Classification",
            "SymptomAndEvent/Classification", "Intervention/DirectMatch",
            "Intervention/Classification",
        }

    def test_unanswered_gold_reported(self):
        predictions, gold, catalog = ten_item_inputs()
        partial = {key: predictions[key] for key in list(predictions)[:4]}
        report = score_questions(partial, gold, catalog)
        assert report.answered_count == 4
        assert report.unanswered_count == 6

    def test_prediction_without_gold_raises(self):
        predictions, gold, catalog = ten_item_inputs()
        predictions = dict(predictions)
        predictions[("p1", "t1_extra")] = Verdict.YES
        catalog = make_catalog([f"t{i}" for i in range(1, 11)] + ["t1_extra"],
                               TEN_ITEM_CATEGORIES + [TEN_ITEM_CATEGORIES[0]])
        with pytest.raises(KeyError) as excinfo:
            score_questions(predictions, gold, catalog)
        assert "t1_extra" in str(excinfo.value)

    def test_unknown_question_id_raises(self):
        gold = GoldSet(question_labels={("p1", "missing"): Verdict.YES})
        with pytest.raises(KeyError) as excinfo:
            score_questions({("p1", "missing"): Verdict.YES}, gold,
                            make_catalog(["t1"]))
        assert "missing" in str(excinfo.value)

    def test_empty_predictions_report_zero_with_flag(self):
        _, gold, catalog = ten_item_inputs()
        report = score_questions({}, gold, catalog)
        assert report.answered_count == 0
        assert report.unanswered_count == 10
        assert report.precision == report.recall == report.accuracy == 0.0

    def test_order_invariant(self):
        predictions, gold, catalog = ten_item_inputs()
        shuffled = dict(reversed(list(predictions.items())))
        a = score_questions(predictions, gold, catalog)
        b = score_questions(shuffled, gold, catalog)
        assert a.to_dict() == b.to_dict()

    def test_parsed_answers_accepted(self):
        predictions, gold, catalog = ten_item_inputs()
        wrapped = {key: answer(value) for key, value in predictions.items()}
        report = score_questions(wrapped, gold, catalog)
        assert report.accuracy == 0.8

    def test_configurable_positive_class(self):
        predictions, gold, catalog = ten_item_inputs()
        report = score_questions(predictions, gold, catalog,
                                 positive_class=Verdict.NO)
        # NO as positive: TP 2, FP 0 (nobody wrongly answered NO), FN 1.
        assert report.precision == 1.0
        assert report.recall == pytest.approx(2 / 3, abs=1e-9)


    def test_every_prediction_type_gives_the_same_report(self):
        predictions, gold, catalog = ten_item_inputs()
        reports = [
            score_questions(
                {key: convert(value) for key, value in predictions.items()}, gold, catalog
            ).to_dict()
            for convert in (answer, lambda value: value, lambda value: value.value)
        ]
        assert reports[0]["breakdowns"]
        assert reports[0] == reports[1] == reports[2]


class TestScoreCriteria:
    def test_every_verdict_type_gives_the_same_report(self):
        verdicts, gold = twenty_item_inputs()

        def verdict(criterion_id, met):
            return CriterionVerdict(criterion_id, CriterionKind.INCLUSION, met, True)

        reports = [
            score_criteria({key: convert(key, met) for key, met in verdicts.items()},
                           gold).to_dict()
            for convert in (lambda key, met: met,
                            lambda key, met: verdict(key[1], met),
                            lambda key, met: CriterionLabel.MET if met
                            else CriterionLabel.NOT_MET)
        ]
        assert reports[0]["precision"] == pytest.approx(8 / 9, abs=1e-9)
        assert reports[0] == reports[1] == reports[2]

    def test_perfect(self):
        verdicts, gold = twenty_item_inputs()
        verdicts[("p1", "c9")] = False
        report = score_criteria(verdicts, gold)
        assert report.precision == report.recall == report.accuracy == 1.0

    def test_hand_counted_twenty_items(self):
        verdicts, gold = twenty_item_inputs()
        report = score_criteria(verdicts, gold)
        assert report.precision == pytest.approx(8 / 9, abs=1e-9)
        assert report.recall == 1.0
        assert report.accuracy == 0.95

    def test_empty_verdicts_zero_metrics(self):
        _, gold = twenty_item_inputs()
        report = score_criteria({}, gold)
        assert report.answered_count == 0
        assert report.precision == report.recall == report.accuracy == 0.0


class TestGrounding:
    def find_note(self, notes, note_id):
        return next(note for note in notes if note.note_id == note_id)

    def test_liver_evidence_grounded(self, notes):
        note = self.find_note(notes, "n1")
        result = grounding_check(
            answer(Verdict.YES, ["hepatocellular carcinoma (trabecular type)"]), note
        )
        assert result is Grounding.GROUNDED

    def test_absent_substring_ungrounded(self, notes):
        note = self.find_note(notes, "n1")
        result = grounding_check(
            answer(Verdict.YES, ["cholangiocarcinoma confirmed"]), note
        )
        assert result is Grounding.UNGROUNDED

    def test_empty_evidence(self, notes):
        assert grounding_check(answer(Verdict.YES), notes[0]) is Grounding.NO_EVIDENCE

    def test_normalization_tolerates_case_and_punctuation(self, notes):
        note = self.find_note(notes, "n1")
        result = grounding_check(
            answer(Verdict.YES, ["Hepatocellular Carcinoma, trabecular type"]), note
        )
        assert result is Grounding.GROUNDED

    def test_verbatim_canonical_slice_always_grounded(self, notes):
        for note in notes:
            text = canonical_text(note)
            quote = text[len(text) // 3: len(text) // 3 + 40]
            if quote.strip():
                result = grounding_check(answer(Verdict.YES, [quote]), note)
                assert result is Grounding.GROUNDED

    def test_one_bad_quote_spoils_grounding(self, notes):
        note = self.find_note(notes, "n1")
        result = grounding_check(
            answer(Verdict.YES, ["hepatocellular carcinoma", "made up entirely zzz"]),
            note,
        )
        assert result is Grounding.UNGROUNDED


    @pytest.mark.parametrize("quote", ["...", "\u2014", "", "  ", "\"\u201c\u201d\""])
    def test_quote_without_word_characters_is_ungrounded(self, notes, quote):
        # Such a quote normalizes to "", which occurs in every note.
        for note in notes:
            assert grounding_check(answer(Verdict.YES, [quote]), note) is \
                Grounding.UNGROUNDED
            assert grounding_check(answer(Verdict.YES, ["hepatocellular", quote]),
                                   note) is Grounding.UNGROUNDED

    def test_normalized_text_gives_the_same_result(self, notes):
        texts = normalize_notes(notes)
        assert list(texts) == [note.note_id for note in notes]
        quotes = ["hepatocellular carcinoma (trabecular type)",
                  "cholangiocarcinoma confirmed", "Hepatocellular Carcinoma, trabecular type"]
        for note in notes:
            for evidence in ([], [quotes[0]], [quotes[1]], [quotes[2]], quotes):
                given = answer(Verdict.YES, evidence)
                assert grounding_check(given, note, texts[note.note_id]) is \
                    grounding_check(given, note)


_REFERENCE_NON_WORD_RE = re.compile(r"[^\w\s]", re.UNICODE)
_REFERENCE_WS_RE = re.compile(r"\s+")


def reference_normalize(text):
    """The two-pass normalization that the one-pass _normalize replaced."""
    return _REFERENCE_WS_RE.sub(" ", _REFERENCE_NON_WORD_RE.sub(" ", text.casefold())).strip()


# Characters where the two passes could part: "_" is a word character;
# \x1c-\x1f, \x85, \xa0, U+2009, U+2028 and U+3000 are whitespace to both
# str.split() and \s; casefold expands \u00df, \ufb01 and \u0130.
NORMALIZE_PIECES = ["_", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2009", "\u2028",
                    "\u3000", " ", "\t", "\n", ".", "-", "a", "\u00df", "\ufb01",
                    "\u0130"]


@given(st.lists(st.one_of(st.sampled_from(NORMALIZE_PIECES), st.characters()),
                max_size=24).map("".join))
@example("  \u0130stanbul \u00df\ufb01 _x_\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000 . ")
@settings(max_examples=300, deadline=None)
def test_normalize_matches_the_two_pass_form(text):
    assert _normalize(text) == reference_normalize(text)


class TestCounterfactualRate:
    def test_all_grounded_rate_zero(self):
        predictions, gold, notes = counterfactual_items()
        key = ("n1", "qf400")
        predictions[key] = answer(Verdict.NO, ["hepatocellular carcinoma"])
        report = counterfactual_rate(predictions, gold, notes)
        assert report.rate == 0.0
        assert report.count == 0

    def test_one_ungrounded_wrong_yes_in_400(self):
        predictions, gold, notes = counterfactual_items()
        report = counterfactual_rate(predictions, gold, notes)
        assert report.total == 400
        assert report.count == 1
        assert report.rate == 0.0025
        assert report.error_count == 1
        assert report.rate_among_errors == 1.0

    def test_grounded_but_wrong_not_counted(self):
        predictions, gold, notes = counterfactual_items()
        predictions[("n1", "qf400")] = answer(
            Verdict.YES, ["hepatocellular carcinoma (trabecular type)"]
        )
        report = counterfactual_rate(predictions, gold, notes)
        assert report.count == 0
        assert report.error_count == 1

    def test_wrong_unknown_not_counted(self):
        predictions, gold, notes = counterfactual_items()
        predictions[("n1", "qf400")] = answer(Verdict.UNKNOWN, ["fabricated quote"])
        report = counterfactual_rate(predictions, gold, notes)
        assert report.count == 0

    def test_given_groundings_are_used_instead_of_grounding(self, monkeypatch):
        predictions, gold, notes = counterfactual_items()
        computed = {key: grounding_check(answer, notes[key[0]])
                    for key, answer in predictions.items()}
        assert (counterfactual_rate(predictions, gold, notes, groundings=computed)
                == counterfactual_rate(predictions, gold, notes))

        def no_grounding(*args):
            raise AssertionError("grounded again")

        monkeypatch.setattr(eligo.evaluation, "grounding_check", no_grounding)
        monkeypatch.setattr(eligo.evaluation, "normalize_notes", no_grounding)
        report = counterfactual_rate(predictions, gold, notes,
                                     groundings=dict.fromkeys(predictions, Grounding.GROUNDED))
        assert report.count == 0
        assert report.error_count == 1

    def test_rate_never_exceeds_error_rate(self):
        predictions, gold, notes = counterfactual_items()
        report = counterfactual_rate(predictions, gold, notes)
        assert report.rate <= report.error_count / report.total


@pytest.mark.parametrize("score, message", [
    (lambda: score_criteria({("p9", "c1"): True}, twenty_item_inputs()[1]),
     "verdict (p9, c1) has no gold label"),
    (lambda: counterfactual_rate({("n1", "extra"): answer(Verdict.YES, [])},
                                 *counterfactual_items()[1:]),
     "prediction (n1, extra) has no gold label"),
    (lambda: counterfactual_rate({("n1", "qf001"): answer(Verdict.YES, [])},
                                 counterfactual_items()[1], {}),
     "note 'n1' not in corpus"),
], ids=["criterion-verdict-without-gold", "prediction-without-gold", "note-not-in-corpus"])
def test_scoring_refuses_a_key_it_cannot_match(score, message):
    with pytest.raises(KeyError) as excinfo:
        score()
    assert excinfo.value.args == (message,)


class TestTimingStats:
    def test_three_samples(self):
        stats = timing_stats([("crc", 1.0), ("crc", 2.0), ("crc", 3.0)])["crc"]
        assert stats.mean == 2.0
        assert stats.p50 == 2.0  # nearest rank of 3 items: the 2nd
        assert stats.p90 == 3.0
        assert stats.max == 3.0
        assert stats.count == 3

    def test_singleton(self):
        stats = timing_stats([("b", 0.44)])["b"]
        assert stats.mean == stats.p50 == stats.p90 == stats.max == 0.44

    def test_empty_input(self):
        assert timing_stats([]) == {}

    def test_percentile_ordering_invariant(self):
        stats = timing_stats([("x", value) for value in
                              (0.3, 0.1, 0.9, 0.5, 0.2, 0.8, 0.4)])["x"]
        assert stats.p50 <= stats.p90 <= stats.max

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            timing_stats([("x", -0.1)])


class TestRenderReport:
    def test_summary_row_three_decimals(self):
        metrics = {"question_level": {"Pathway B": {
            "precision": 0.892, "recall": 0.793, "f1": 0.809, "accuracy": 0.972,
        }}}
        rendered = render_report(metrics)
        assert "| Pathway B | 0.892 | 0.793 | 0.809 | 0.972 |" in rendered

    def test_breakdown_and_counterfactual_sections(self):
        predictions, gold, catalog = ten_item_inputs()
        report = score_questions(predictions, gold, catalog)
        metrics = {"question_level": {"A-CRC": report.to_dict()},
                   "timing": {"A-CRC": {"count": 3, "mean": 0.5, "p50": 0.5,
                                        "p90": 0.6, "max": 0.7}}}
        rendered = render_report(metrics)
        assert "clinical categories and task types" in rendered
        assert "SymptomAndEvent/Classification" in rendered
        assert "Processing time" in rendered

    def test_a_category_one_label_lacks_gets_a_dash(self):
        metrics = {"question_level": {
            "A-CRC": {"breakdowns": {"Diagnosis/DirectMatch": {
                "precision": 0.5, "answered_count": 4}}},
            "B": {"breakdowns": {}},
        }}
        assert "| Diagnosis/DirectMatch | 4 | 0.500 | - |" in render_report(metrics)

    def test_fraction_invariants(self):
        predictions, gold, catalog = ten_item_inputs()
        report = score_questions(predictions, gold, catalog)
        for value in (report.precision, report.recall, report.f1, report.accuracy):
            assert 0.0 <= value <= 1.0
        if report.precision > 0 and report.recall > 0:
            assert min(report.precision, report.recall) <= report.f1 <= \
                max(report.precision, report.recall)


def test_reports_are_read_only():
    for stats in timing_stats([("A-CRC", 0.5), ("A-CRC", 1.5)]).values():
        assert_read_only(stats)
    gold = GoldSet(question_labels={("n1", "q1"): Verdict.NO})
    answer = ParsedAnswer(Verdict.YES, "r", ("not in the note",), "p")
    note = AdmissionNote("n1", {"chief_complaint": "fever"})
    assert_read_only(counterfactual_rate({("n1", "q1"): answer}, gold, [note]))
