import pytest

from eligo import errors
from eligo.conversion import (
    CONVERSION_TEMPLATES,
    QuestionDraft,
    Router,
    build_conversion_prompt,
    convert_criterion,
    generate_questions,
    merge_question_sets,
    normalize_question_text,
)
from eligo.corpus import Category, CriterionKind, CriterionSpec, TaskType
from eligo.gateway import BackendConfig, Gateway, run_unit
from eligo.prompting import load_prompts
from eligo.rules import parse_rule, referenced_ids

from conftest import assert_read_only

TEMPLATES = load_prompts(CONVERSION_TEMPLATES)

LIVER_QUESTION_TEXTS = [
    "Has the patient been diagnosed with a malignant liver tumor?",
    "Is the pathological type of the liver tumor hepatocellular carcinoma?",
    "Has the patient been diagnosed with mixed hepatocellular carcinoma?",
    "Is there any mention that the liver tumor metastasized from another site?",
]

LIVER_DRAFT_REPLY = "\n".join(
    [f"Q: {text}" for text in LIVER_QUESTION_TEXTS]
    + ["RULE: Q1 IS YES AND (Q2 IS YES OR Q3 IS YES) AND Q4 IS NOT YES"]
)


def liver_criterion(criterion_id="C1"):
    return CriterionSpec(
        criterion_id=criterion_id,
        trial_ids=("T1",),
        kind=CriterionKind.INCLUSION,
        text="Has the patient been diagnosed with primary liver cancer?",
        rule_text="",
        question_ids=(),
        needs_human_rule=True,
    )


def drafting_gateway(reply, model_name="assistant-1", criterion_id="C1"):
    cfg = BackendConfig(kind="mock", model_name=model_name, backoff_s=0.0)
    return Gateway(cfg, fixtures={f"convert|{criterion_id}|{model_name}": reply})


def refining_gateway(reply, criterion_id="C1"):
    cfg = BackendConfig(kind="mock", model_name="refiner", backoff_s=0.0)
    return Gateway(cfg, fixtures={f"refine|{criterion_id}": reply})


class _FailingTransport:
    def send(self, req):
        raise errors.BackendError("backend refused the request", status=400,
                                  body_excerpt="bad request")


def failing_gateway(model_name):
    return Gateway(BackendConfig(kind="mock", model_name=model_name),
                   transport=_FailingTransport())


def names(drafters):
    return [drafter.cfg.model_name for drafter in drafters]


def generate(criterion, drafters):
    """Run the draft unit on its drafters."""
    return run_unit(generate_questions(criterion, names(drafters), TEMPLATES["convert"]),
                    Router(drafters, refining_gateway("")))


def merge(drafts, refiner, criterion, **kwargs):
    """Run the merge unit on the refiner."""
    return run_unit(merge_question_sets(drafts, criterion, TEMPLATES["refine"], **kwargs),
                    refiner)


def convert(criterion, drafters, refiner):
    """Run the conversion unit on its drafters and refiner."""
    return run_unit(convert_criterion(criterion, names(drafters), TEMPLATES),
                    Router(drafters, refiner))


class TestBuildPrompt:
    def test_embeds_criterion_verbatim(self):
        req = build_conversion_prompt(liver_criterion(), TEMPLATES["convert"], "m1")
        prompt = req.prompt
        assert "Has the patient been diagnosed with primary liver cancer?" in prompt
        assert "RULE" in prompt and "ANY" in prompt  # grammar embedded
        assert req.tag == "convert|C1|m1"

    def test_empty_text_rejected(self):
        empty = CriterionSpec("Cx", (), CriterionKind.INCLUSION, "  ", "", (),
                              needs_human_rule=True)
        with pytest.raises(errors.CatalogError):
            build_conversion_prompt(empty, TEMPLATES["convert"], "m1")

    def test_deterministic(self):
        assert build_conversion_prompt(liver_criterion(), TEMPLATES["convert"], "m1") == \
            build_conversion_prompt(liver_criterion(), TEMPLATES["convert"], "m1")

    def test_routes_to_its_drafter(self):
        drafters = [drafting_gateway(LIVER_DRAFT_REPLY, model_name=name) for name in ("a", "b")]
        req = build_conversion_prompt(liver_criterion(), TEMPLATES["convert"], "b")
        replies = []
        Router(drafters, refining_gateway("")).call(
            req, lambda reply, error: replies.append((reply, error)))
        assert replies == [(LIVER_DRAFT_REPLY, None)]
        assert [drafter.transport.calls for drafter in drafters] == [0, 1]


class TestGenerateQuestions:
    def test_liver_reply_yields_four_drafts(self):
        result = generate(liver_criterion(), [drafting_gateway(LIVER_DRAFT_REPLY)])
        assert [draft.text for draft in result.drafts] == LIVER_QUESTION_TEXTS
        assert result.rule_proposals["assistant-1"].startswith("Q1 IS YES")

    def test_no_q_lines_warns(self):
        result = generate(
            liver_criterion(), [drafting_gateway("I would rather chat about weather.")]
        )
        assert result.drafts == []
        assert any("no Q: lines" in warning for warning in result.warnings)

    def test_two_backends_overlap_counts(self):
        first = drafting_gateway("\n".join(f"Q: {t}" for t in LIVER_QUESTION_TEXTS),
                                 model_name="a1")
        second_texts = LIVER_QUESTION_TEXTS[:2] + [
            "Is the liver tumor described as recurrent?",
        ]
        second = drafting_gateway("\n".join(f"Q: {t}" for t in second_texts),
                                  model_name="a2")
        result = generate(liver_criterion(), [first, second])
        # 4 + 3 drafts before merge; the 2 shared ones collapse later.
        assert len(result.drafts) == 7

    def test_one_backend_failing_is_tolerated(self):
        result = generate(
            liver_criterion(),
            [failing_gateway("dead"), drafting_gateway(LIVER_DRAFT_REPLY)],
        )
        assert len(result.drafts) == 4
        assert any("backend failed" in warning for warning in result.warnings)

    def test_all_backends_failing_raises(self):
        with pytest.raises(errors.ConversionError) as excinfo:
            generate(
                liver_criterion(), [failing_gateway("d1"), failing_gateway("d2")]
            )
        assert len(excinfo.value.causes) == 2


class TestMerge:
    def test_exact_duplicates_collapse(self):
        reply = ("Q: Is the pathological type hepatocellular carcinoma?\n"
                 "Q: Is the pathological type hepatocellular carcinoma?\n"
                 "RULE: Q1 IS YES")
        drafts = generate(liver_criterion(), [drafting_gateway(reply)]).drafts
        assert len(drafts) == 2
        merged = merge(
            drafts,
            refining_gateway("Q: Is the pathological type hepatocellular carcinoma?\n"
                             "RULE: Q1 IS YES"),
            liver_criterion(),
        )
        assert len(merged.questions) == 1

    def test_normalization_covers_case_space_punctuation(self):
        assert normalize_question_text("Is it  HCC?") == normalize_question_text(
            "is it hcc"
        )

    def test_liver_merge_produces_catalog_entry(self):
        criterion = liver_criterion()
        drafts = generate(criterion, [drafting_gateway(LIVER_DRAFT_REPLY)])
        merged = merge(
            drafts.drafts, refining_gateway(LIVER_DRAFT_REPLY), criterion,
            rule_proposals=drafts.rule_proposals,
        )
        assert [question.question_id for question in merged.questions] == [
            "C1.q1", "C1.q2", "C1.q3", "C1.q4",
        ]
        assert merged.criterion.needs_human_rule is False
        expr = parse_rule(merged.criterion.rule_text)
        assert referenced_ids(expr) == {"C1.q1", "C1.q2", "C1.q3", "C1.q4"}

    def test_unparsable_rule_keeps_questions(self):
        merged = merge(
            generate(liver_criterion(),
                               [drafting_gateway(LIVER_DRAFT_REPLY)]).drafts,
            refining_gateway("Q: Only question?\nRULE: Q1 FROBNICATES"),
            liver_criterion(),
        )
        assert len(merged.questions) == 1
        assert merged.criterion.rule_text == ""
        assert merged.criterion.needs_human_rule is True
        assert merged.criterion.question_ids == ("C1.q1",)
        assert any("rule" in warning for warning in merged.warnings)

    def test_rule_referencing_unlisted_question_rejected(self):
        merged = merge(
            generate(liver_criterion(),
                               [drafting_gateway(LIVER_DRAFT_REPLY)]).drafts,
            refining_gateway("Q: Single question?\nRULE: Q1 IS YES AND Q9 IS NO"),
            liver_criterion(),
        )
        assert merged.criterion.needs_human_rule is True

    def test_refiner_without_questions_raises(self):
        with pytest.raises(errors.RefinementParseError):
            merge(
                generate(liver_criterion(),
                                   [drafting_gateway(LIVER_DRAFT_REPLY)]).drafts,
                refining_gateway("Nothing useful."),
                liver_criterion(),
            )

    def test_refiner_labels_respected(self):
        merged = merge(
            generate(liver_criterion(),
                               [drafting_gateway(LIVER_DRAFT_REPLY)]).drafts,
            refining_gateway("Q: Was a TIPS procedure performed? "
                             "[Intervention/DirectMatch]\nRULE: Q1 IS YES"),
            liver_criterion(),
        )
        question = merged.questions[0]
        assert question.category is Category.INTERVENTION
        assert question.task_type is TaskType.DIRECT_MATCH

    def test_a_label_half_unknown_is_ignored_whole(self):
        merged = merge(
            [QuestionDraft("Was a TIPS procedure performed?")],
            refining_gateway("Q: Was a TIPS procedure performed? "
                             "[Intervention/Shape]\nRULE: Q1 IS YES"),
            liver_criterion(),
        )
        question = merged.questions[0]
        assert question.text == "Was a TIPS procedure performed?"
        assert question.category is Category.DIAGNOSIS
        assert question.task_type is TaskType.CLASSIFICATION
        assert merged.warnings == ["refiner: unknown label '[Intervention/Shape]' ignored"]

    @pytest.mark.parametrize("reply, rule_text, warnings", [
        ("Q: Was a TIPS procedure performed?", "",
         ["refiner proposed no rule; rule left empty for human authoring"]),
        ("Q: Was a TIPS procedure performed?\nQ: [Intervention/DirectMatch]\n"
         "RULE: Q1 IS YES", "C1.q1 IS YES", ["refiner: empty question line skipped"]),
        ("Q: Was a TIPS procedure performed?\nRULE: NOT Q1 IS YES",
         "NOT C1.q1 IS YES", []),
    ], ids=["no-rule", "label-only-question", "negated-rule"])
    def test_refiner_reply(self, reply, rule_text, warnings):
        merged = merge([QuestionDraft("Was a TIPS procedure performed?")],
                       refining_gateway(reply), liver_criterion())
        assert [question.text for question in merged.questions] == [
            "Was a TIPS procedure performed?"]
        assert merged.criterion.rule_text == rule_text
        assert merged.criterion.needs_human_rule is not rule_text
        assert merged.warnings == warnings

    # The refiner repeats a question; its rule names the lines in its order.
    REPEATING_REFINER = ("Q: Does the patient have cirrhosis?\n"
                         "Q: Does the patient have cirrhosis.\n"
                         "Q: Does the patient have ascites?\n")

    @pytest.mark.parametrize("rule, rule_text", [
        ("Q2 IS YES", "C1.q1 IS YES"),
        ("Q1 IS YES AND Q3 IS NO", "C1.q1 IS YES AND C1.q2 IS NO"),
    ])
    def test_refiner_numbers_count_every_q_line(self, rule, rule_text):
        merged = merge([QuestionDraft("Does the patient have cirrhosis?")],
                       refining_gateway(self.REPEATING_REFINER + f"RULE: {rule}"),
                       liver_criterion())
        assert [(question.question_id, question.text) for question in merged.questions] == [
            ("C1.q1", "Does the patient have cirrhosis?"),
            ("C1.q2", "Does the patient have ascites?")]
        assert merged.criterion.rule_text == rule_text
        assert merged.criterion.question_ids == ("C1.q1", "C1.q2")
        assert merged.warnings == []

    @pytest.mark.parametrize("empty_line", ["Q: [Diagnosis/DirectMatch]", "Q2:", "Q:"])
    def test_an_empty_q_line_keeps_its_number_but_has_no_id(self, empty_line):
        reply = (f"Q: Does the patient have cirrhosis?\n{empty_line}\n"
                 "Q: Does the patient have ascites?\nRULE: Q3 IS YES AND Q2 IS NO")
        merged = merge([QuestionDraft("Does the patient have cirrhosis?")],
                       refining_gateway(reply), liver_criterion())
        assert merged.criterion.question_ids == ("C1.q1", "C1.q2")
        assert merged.criterion.rule_text == ""
        assert merged.warnings == [
            "refiner: empty question line skipped",
            "refiner rule rejected (position 1: rule references ['Q2'], which name "
            "no refined question); rule left empty for human authoring"]
        merged = merge([QuestionDraft("Does the patient have cirrhosis?")],
                       refining_gateway(reply.replace("Q2 IS NO", "Q1 IS NO")),
                       liver_criterion())
        assert merged.criterion.rule_text == "C1.q2 IS YES AND C1.q1 IS NO"

    def test_default_labels_applied(self):
        merged = merge(
            generate(liver_criterion(),
                               [drafting_gateway(LIVER_DRAFT_REPLY)]).drafts,
            refining_gateway("Q: Unlabeled question?\nRULE: Q1 IS YES"),
            liver_criterion(),
        )
        assert merged.questions[0].category is Category.DIAGNOSIS
        assert merged.questions[0].task_type is TaskType.CLASSIFICATION


def test_convert_criterion_end_to_end():
    criterion = liver_criterion()
    merged = convert(
        criterion,
        [drafting_gateway(LIVER_DRAFT_REPLY)],
        refining_gateway(LIVER_DRAFT_REPLY),
    )
    updated = merged.criterion
    assert updated.question_ids == ("C1.q1", "C1.q2", "C1.q3", "C1.q4")
    assert updated.rule_text.startswith("C1.q1 IS YES")
    assert updated.needs_human_rule is False
    assert updated == criterion._replace(rule_text=updated.rule_text,
                                         question_ids=updated.question_ids,
                                         needs_human_rule=False)


def test_conversion_reproducible_given_fixed_fixtures():
    def run():
        merged = convert(
            liver_criterion(),
            [drafting_gateway(LIVER_DRAFT_REPLY)],
            refining_gateway(LIVER_DRAFT_REPLY),
        )
        return [question.to_dict() for question in merged.questions], \
            merged.criterion.to_dict()

    assert run() == run()


def test_a_failed_criterion_is_returned_not_raised():
    refiner = refining_gateway(LIVER_DRAFT_REPLY)
    outcome = convert(liver_criterion(), [failing_gateway("d1"), failing_gateway("d2")],
                      refiner)
    assert isinstance(outcome, errors.ConversionError)
    assert [label for label, _ in outcome.causes] == ["d1", "d2"]
    assert refiner.transport.calls == 0


def test_a_criterion_no_drafter_proposed_a_question_for_is_returned():
    outcome = convert(liver_criterion(), [drafting_gateway("No questions here.")],
                      refining_gateway(LIVER_DRAFT_REPLY))
    assert isinstance(outcome, errors.CatalogError)
    assert str(outcome) == "no drafter proposed a question"


def test_converting_with_no_drafter_is_a_caller_error():
    with pytest.raises(ValueError, match="at least one backend"):
        convert(liver_criterion(), [], refining_gateway(LIVER_DRAFT_REPLY))


def test_a_failed_refiner_fails_its_criterion():
    outcome = convert(liver_criterion(), [drafting_gateway(LIVER_DRAFT_REPLY)],
                      failing_gateway("refiner"))
    assert isinstance(outcome, errors.BackendError)


def test_router_sends_each_request_to_its_backend():
    # A criterion id holds no "|", so the name is all of the tag after the
    # second "|": "b|a" is not taken for "a".
    drafters = [drafting_gateway(LIVER_DRAFT_REPLY, model_name=name) for name in ("a", "b|a")]
    refiner = refining_gateway(LIVER_DRAFT_REPLY)
    merged = convert(liver_criterion(), drafters, refiner)
    assert [drafter.transport.calls for drafter in drafters] == [1, 1]
    assert refiner.transport.calls == 1
    assert len(merged.questions) == 4
    assert not any("no Q: lines" in warning for warning in merged.warnings)


def test_a_draft_is_read_only():
    assert_read_only(QuestionDraft("Is the patient an adult?"))
