import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eligo.corpus import (
    SECTION_ORDER,
    AdmissionNote,
    Catalog,
    CriterionKind,
    CriterionLabel,
    CriterionSpec,
    GoldSet,
    ParsedAnswer,
    TrialSpec,
    Verdict,
    canonical_text,
    load_catalog,
    load_catalog_dir,
    load_criteria,
    load_gold,
    load_notes,
    load_questions,
    load_trials,
    validate_catalog,
    validate_gold,
)
from eligo.errors import (
    CatalogError,
    DanglingReferenceError,
    DuplicateIdError,
    RuleParseError,
    SchemaError,
)
from eligo.evaluation import score_criteria
from eligo.runner import ResultRecord

from conftest import assert_read_only


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadNotes:
    def test_single_record(self, tmp_path):
        path = write_lines(tmp_path / "notes.jsonl", [
            json.dumps({"note_id": "n1",
                        "sections": {"chief_complaint": "abdominal distension"}}),
        ])
        notes = load_notes(path)
        assert len(notes) == 1
        assert notes[0].note_id == "n1"
        assert notes[0].sections == {"chief_complaint": "abdominal distension"}

    def test_empty_file_is_empty_corpus(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_notes(path) == []

    def test_duplicate_note_id(self, tmp_path):
        record = json.dumps({"note_id": "n1", "sections": {"chief_complaint": "x"}})
        path = write_lines(tmp_path / "notes.jsonl", [record, record])
        with pytest.raises(DuplicateIdError) as excinfo:
            load_notes(path)
        assert "n1" in str(excinfo.value)

    def test_unknown_section_is_schema_error_with_line(self, tmp_path):
        path = write_lines(tmp_path / "notes.jsonl", [
            json.dumps({"note_id": "n1", "sections": {"chief_complaint": "x"}}),
            json.dumps({"note_id": "n2", "sections": {"allergies": "none"}}),
        ])
        with pytest.raises(SchemaError) as excinfo:
            load_notes(path)
        assert excinfo.value.line == 2

    def test_invalid_json_reports_line(self, tmp_path):
        path = write_lines(tmp_path / "notes.jsonl", ["{not json"])
        with pytest.raises(SchemaError) as excinfo:
            load_notes(path)
        assert excinfo.value.line == 1

    def test_separator_in_note_id_rejected(self, tmp_path):
        # "a|b" with question "c" would share tags with "a" and question "b|c".
        path = write_lines(tmp_path / "notes.jsonl", [
            json.dumps({"note_id": "a|b", "sections": {"chief_complaint": "x"}}),
        ])
        with pytest.raises(SchemaError) as excinfo:
            load_notes(path)
        assert "'a|b'" in str(excinfo.value)
        assert excinfo.value.field == "note_id"
        assert excinfo.value.line == 1

    def test_all_sections_empty_rejected(self, tmp_path):
        path = write_lines(tmp_path / "notes.jsonl", [
            json.dumps({"note_id": "n1", "sections": {"chief_complaint": "  "}}),
        ])
        with pytest.raises(SchemaError):
            load_notes(path)

    def test_roundtrip_preserves_records(self, tmp_path, notes):
        path = tmp_path / "notes.jsonl"
        write_lines(path, [json.dumps(note.to_dict()) for note in notes])
        assert load_notes(path) == notes

    def test_file_order_preserved(self, notes):
        assert [note.note_id for note in notes] == ["n1", "n2", "n3"]


class TestCanonicalText:
    def test_single_section(self):
        note = AdmissionNote("n1", {"chief_complaint": "X"})
        assert canonical_text(note) == "CHIEF COMPLAINT:\nX\n"

    def test_order_fixed_by_contract_not_input(self):
        forward = AdmissionNote("n1", {"chief_complaint": "a", "past_history": "b"})
        reversed_sections = AdmissionNote("n1", {"past_history": "b", "chief_complaint": "a"})
        assert canonical_text(forward) == canonical_text(reversed_sections)
        assert canonical_text(forward) == "CHIEF COMPLAINT:\na\nPAST HISTORY:\nb\n"

    def test_idempotent_and_pure(self):
        note = AdmissionNote("n1", {"present_illness": "stable"}, extra_text="extra")
        first = canonical_text(note)
        assert canonical_text(note) == first
        clone = AdmissionNote("n1", {"present_illness": "stable"}, extra_text="extra")
        assert canonical_text(clone) == first

    def test_extra_text_rendered_last(self):
        note = AdmissionNote("n1", {"chief_complaint": "a"}, extra_text="tail")
        assert canonical_text(note) == "CHIEF COMPLAINT:\na\nEXTRA TEXT:\ntail\n"

    @given(sections=st.dictionaries(st.sampled_from(SECTION_ORDER), st.text(max_size=20)),
           extra_text=st.one_of(st.none(), st.text(max_size=20)))
    @settings(max_examples=200, deadline=None)
    def test_cached_text_equals_a_fresh_rendering(self, sections, extra_text):
        # Sections may be missing or empty, and extra_text absent or empty.
        note = AdmissionNote("n1", sections, extra_text=extra_text)
        fresh = "".join(f"{name.replace('_', ' ').upper()}:\n{sections[name]}\n"
                        for name in SECTION_ORDER if sections.get(name))
        if extra_text:
            fresh += f"EXTRA TEXT:\n{extra_text}\n"
        assert canonical_text(note) == fresh
        assert canonical_text(note) is canonical_text(note)  # rendered once
        assert canonical_text(AdmissionNote("n1", dict(sections), extra_text)) == fresh


class TestCatalog:
    def test_liver_catalog_counts(self, liver_catalog):
        assert liver_catalog.counts() == (4, 1, 1)

    def test_desk_scale_catalog_loads(self, data_dir):
        catalog = load_catalog_dir(data_dir / "catalog_desk")
        # Desk-scale catalog: 6 criteria decomposed into 9 questions.
        assert catalog.counts() == (9, 6, 2)

    def test_rule_referencing_unknown_question(self, tmp_path, data_dir):
        criteria = {"criteria": [{
            "criterion_id": "C1", "trial_ids": [], "kind": "inclusion",
            "text": "t", "rule": "Q9 IS YES", "question_ids": ["Q9"],
        }]}
        (tmp_path / "criteria.json").write_text(json.dumps(criteria))
        (tmp_path / "trials.json").write_text(json.dumps({"trials": []}))
        with pytest.raises(DanglingReferenceError) as excinfo:
            load_catalog(
                data_dir / "catalog_liver" / "questions.json",
                tmp_path / "criteria.json",
                tmp_path / "trials.json",
            )
        assert excinfo.value.ref_id == "Q9"

    def test_trial_referencing_unknown_criterion(self, tmp_path, data_dir):
        (tmp_path / "trials.json").write_text(json.dumps(
            {"trials": [{"trial_id": "T9", "criterion_ids": ["nope"]}]}
        ))
        with pytest.raises(DanglingReferenceError) as excinfo:
            load_catalog(
                data_dir / "catalog_liver" / "questions.json",
                data_dir / "catalog_liver" / "criteria.json",
                tmp_path / "trials.json",
            )
        assert excinfo.value.ref_id == "nope"

    @pytest.mark.parametrize("trial_ids, t2_names, message", [
        (["NO-SUCH-TRIAL"], "C2",
         "unknown id 'NO-SUCH-TRIAL' referenced by criterion 'C1' trial_ids"),
        (["T1", "T2"], "C2",
         "criterion 'C1' lists trial 'T2' in trial_ids, "
         "but that trial's criterion_ids do not name it"),
        (["T1"], "C1",
         "trial 'T2' names criterion 'C1' in criterion_ids, "
         "but that criterion's trial_ids do not list it"),
    ], ids=["unknown-trial", "trial-not-naming-it", "trial-not-listed"])
    def test_trial_ids_must_agree_with_the_trials(self, tmp_path, data_dir, trial_ids,
                                                  t2_names, message):
        # T1 names C1; T2 names C1 or a second criterion, C2, that lists no trial.
        criteria = json.loads((data_dir / "catalog_liver" / "criteria.json").read_text())
        first = criteria["criteria"][0]
        criteria["criteria"] = [{**first, "trial_ids": trial_ids},
                                {**first, "criterion_id": "C2", "trial_ids": []}]
        (tmp_path / "criteria.json").write_text(json.dumps(criteria))
        (tmp_path / "trials.json").write_text(json.dumps({"trials": [
            {"trial_id": "T1", "criterion_ids": ["C1"]},
            {"trial_id": "T2", "criterion_ids": [t2_names]}]}))
        with pytest.raises((CatalogError, DanglingReferenceError)) as excinfo:
            load_catalog(data_dir / "catalog_liver" / "questions.json",
                         tmp_path / "criteria.json", tmp_path / "trials.json")
        assert str(excinfo.value) == message

    def test_an_empty_trial_ids_list_says_nothing(self, tmp_path, data_dir):
        criteria = json.loads((data_dir / "catalog_liver" / "criteria.json").read_text())
        criteria["criteria"][0]["trial_ids"] = []
        (tmp_path / "criteria.json").write_text(json.dumps(criteria))
        catalog = load_catalog(data_dir / "catalog_liver" / "questions.json",
                               tmp_path / "criteria.json",
                               data_dir / "catalog_liver" / "trials.json")
        assert catalog.trials["T1"].criterion_ids == ("C1",)

    def test_unparsable_rule_names_criterion(self, tmp_path, data_dir):
        criteria = {"criteria": [{
            "criterion_id": "C1", "trial_ids": [], "kind": "inclusion",
            "text": "t", "rule": "Q1 IS", "question_ids": ["Q1"],
        }]}
        (tmp_path / "criteria.json").write_text(json.dumps(criteria))
        (tmp_path / "trials.json").write_text(json.dumps({"trials": []}))
        with pytest.raises(RuleParseError) as excinfo:
            load_catalog(
                data_dir / "catalog_liver" / "questions.json",
                tmp_path / "criteria.json",
                tmp_path / "trials.json",
            )
        assert excinfo.value.criterion_id == "C1"
        assert excinfo.value.position is not None

    def test_unparsable_rule_message_names_criterion_once(self, tmp_path, data_dir):
        criteria = {"criteria": [{
            "criterion_id": "C1", "trial_ids": [], "kind": "inclusion",
            "text": "t", "rule": "Q1 IS", "question_ids": ["Q1"],
        }]}
        (tmp_path / "criteria.json").write_text(json.dumps(criteria))
        (tmp_path / "trials.json").write_text(json.dumps({"trials": []}))
        with pytest.raises(RuleParseError) as excinfo:
            load_catalog(
                data_dir / "catalog_liver" / "questions.json",
                tmp_path / "criteria.json",
                tmp_path / "trials.json",
            )
        assert str(excinfo.value) == (
            "criterion 'C1', position 6: unexpected end of rule, "
            "expected VALUE (YES, NO or UNKNOWN)"
        )

    def test_symptom_event_must_be_classification(self, tmp_path):
        questions = {"questions": [{
            "question_id": "q", "text": "t",
            "category": "SymptomAndEvent", "task_type": "DirectMatch",
        }]}
        path = tmp_path / "questions.json"
        path.write_text(json.dumps(questions))
        with pytest.raises(SchemaError):
            load_questions(path)

    def test_separator_in_question_id_rejected(self, tmp_path):
        questions = {"questions": [{
            "question_id": "b|c", "text": "t",
            "category": "Diagnosis", "task_type": "DirectMatch",
        }]}
        path = tmp_path / "questions.json"
        path.write_text(json.dumps(questions))
        with pytest.raises(SchemaError) as excinfo:
            load_questions(path)
        assert "'b|c'" in str(excinfo.value)
        assert excinfo.value.field == "question_id"

    def test_separator_in_criterion_id_rejected(self, tmp_path, data_dir):
        criteria = {"criteria": [{
            "criterion_id": "C|1", "trial_ids": [], "kind": "inclusion",
            "text": "t", "rule": "Q1 IS YES", "question_ids": ["Q1"],
        }]}
        (tmp_path / "criteria.json").write_text(json.dumps(criteria))
        (tmp_path / "trials.json").write_text(json.dumps({"trials": []}))
        with pytest.raises(SchemaError) as excinfo:
            load_catalog(
                data_dir / "catalog_liver" / "questions.json",
                tmp_path / "criteria.json",
                tmp_path / "trials.json",
            )
        assert "'C|1'" in str(excinfo.value)
        assert excinfo.value.field == "criterion_id"

    def test_rule_parsed_once_at_load(self, liver_catalog):
        criterion = liver_catalog.criteria["C1"]
        assert criterion.parsed_rule is criterion.parsed_rule
        assert criterion.parsed_rule.question_ids == ("Q1", "Q2", "Q3", "Q4")

    def test_empty_rule_requires_human_flag(self, liver_catalog):
        bare = CriterionSpec("cx", (), CriterionKind.INCLUSION, "text", "", ())
        catalog = Catalog(questions=liver_catalog.questions,
                          criteria={"cx": bare}, trials={})
        with pytest.raises(CatalogError):
            validate_catalog(catalog)
        flagged = CriterionSpec("cx", (), CriterionKind.INCLUSION, "text", "", (),
                                needs_human_rule=True)
        validate_catalog(Catalog(questions=liver_catalog.questions,
                                 criteria={"cx": flagged}, trials={}))

    def test_trial_with_no_criteria_rejected(self, tmp_path):
        (tmp_path / "trials.json").write_text(json.dumps(
            {"trials": [{"trial_id": "T1", "criterion_ids": []}]}
        ))
        with pytest.raises(SchemaError):
            load_trials(tmp_path / "trials.json")


class TestGold:
    def test_load_and_validate(self, tmp_path, notes, liver_catalog):
        path = write_lines(tmp_path / "gold.jsonl", [
            json.dumps({"note_id": "n1", "question_id": "Q1", "label": "YES"}),
            json.dumps({"note_id": "n1", "criterion_id": "C1", "label": "MET"}),
        ])
        gold = load_gold(path)
        assert gold.question_labels[("n1", "Q1")] is Verdict.YES
        assert ("n1", "C1") in gold.criterion_labels
        validate_gold(gold, liver_catalog, notes=notes)

    def test_exactly_one_target_id(self, tmp_path):
        path = write_lines(tmp_path / "gold.jsonl", [
            json.dumps({"note_id": "n1", "question_id": "Q1",
                        "criterion_id": "C1", "label": "YES"}),
        ])
        with pytest.raises(SchemaError):
            load_gold(path)

    def test_label_domain_enforced(self, tmp_path):
        path = write_lines(tmp_path / "gold.jsonl", [
            json.dumps({"note_id": "n1", "question_id": "Q1", "label": "MAYBE"}),
        ])
        with pytest.raises(SchemaError):
            load_gold(path)

    def test_criterion_label_domain(self, tmp_path):
        path = write_lines(tmp_path / "gold.jsonl", [
            json.dumps({"note_id": "n1", "criterion_id": "C1", "label": "YES"}),
        ])
        with pytest.raises(SchemaError):
            load_gold(path)

    def test_dangling_gold_key(self, tmp_path, notes, liver_catalog):
        path = write_lines(tmp_path / "gold.jsonl", [
            json.dumps({"note_id": "ghost", "question_id": "Q1", "label": "YES"}),
        ])
        gold = load_gold(path)
        with pytest.raises(DanglingReferenceError):
            validate_gold(gold, liver_catalog, notes=notes)

    @pytest.mark.parametrize("results, notes_given, ref_id", [
        ([("n1", "Q1"), ("n1", "Q9")], False, "Q9"),
        ([("n1", "Q1"), ("ghost", "Q1")], True, "ghost"),
    ])
    def test_dangling_result_key(self, notes, liver_catalog, results, notes_given, ref_id):
        gold = GoldSet()
        with pytest.raises(DanglingReferenceError) as excinfo:
            validate_gold(gold, liver_catalog, notes=notes if notes_given else None,
                          results=results)
        assert excinfo.value.ref_id == ref_id
        assert excinfo.value.where == "result record"

    def test_notes_checked_only_when_given(self, tmp_path, liver_catalog):
        path = write_lines(tmp_path / "gold.jsonl", [
            json.dumps({"note_id": "ghost", "question_id": "Q1", "label": "YES"}),
        ])
        validate_gold(load_gold(path), liver_catalog, results=[("ghost", "Q1")])


class TestLoadersNameTheSpot:
    """Loaders reject a malformed record naming the file, the line or record, and
    the field, instead of leaking KeyError, TypeError or UnicodeDecodeError."""

    def test_gold_id_of_the_wrong_type(self, tmp_path):
        path = write_lines(tmp_path / "gold.jsonl", [
            json.dumps({"note_id": "n1", "question_id": ["Q1"], "label": "YES"}),
        ])
        with pytest.raises(SchemaError) as excinfo:
            load_gold(path)
        assert str(excinfo.value) == \
            f"line 1: {path}: expected str for 'question_id' (field 'question_id')"

    def test_catalog_not_utf8(self, tmp_path):
        path = tmp_path / "questions.json"
        path.write_bytes(b'{"questions": [{"text": "caf\xe9"}]}')
        with pytest.raises(SchemaError, match="not UTF-8 text at byte 28"):
            load_questions(path)

    @pytest.mark.parametrize("record, field", [
        ({"criterion_id": "C1", "kind": "inclusion", "text": "t", "trial_ids": "T1"},
         "trial_ids"),
        ({"criterion_id": "C1", "kind": "inclusion", "text": "t", "question_ids": [1]},
         "question_ids"),
        ({"criterion_id": "C1", "kind": "inclusion", "text": "t", "rule": 7}, "rule"),
        ({"criterion_id": 7, "kind": "inclusion", "text": "t"}, "criterion_id"),
        ({"criterion_id": "C1", "kind": "inclusion", "text": "t", "rule": "",
          "needs_human_rule": "false"}, "needs_human_rule"),
    ])
    def test_criterion_field_of_the_wrong_type(self, tmp_path, record, field):
        path = tmp_path / "criteria.json"
        path.write_text(json.dumps({"criteria": [record]}))
        with pytest.raises(SchemaError) as excinfo:
            load_criteria(path)
        assert excinfo.value.field == field
        assert str(excinfo.value).startswith(f"{path}: criteria[0]: ")

    def test_catalog_list_that_is_not_a_list(self, tmp_path):
        path = tmp_path / "trials.json"
        path.write_text(json.dumps({"trials": {"T1": ["C1"]}}))
        with pytest.raises(SchemaError, match="expected list for 'trials'"):
            load_trials(path)


def test_records_are_read_only(notes, liver_catalog):
    criterion = next(iter(liver_catalog.criteria.values()))
    assert_read_only(ParsedAnswer(Verdict.YES, "r", ("e",), "p"))
    assert_read_only(notes[0], "text")
    assert_read_only(next(iter(liver_catalog.questions.values())))
    assert_read_only(criterion, "parsed_rule")
    assert_read_only(TrialSpec("T1", (criterion.criterion_id,)))
    assert_read_only(liver_catalog)
    answer = ParsedAnswer(Verdict.YES, "r", ("e",), "p")
    assert_read_only(ResultRecord("n1", "q1", "A-CRC", answer, 0.5))
    gold = GoldSet(criterion_labels={("n1", "c1"): CriterionLabel.MET})
    assert_read_only(gold)
    report = score_criteria({("n1", "c1"): True}, gold)
    assert_read_only(report.counts)
    assert_read_only(report)


def test_a_replaced_criterion_parses_its_own_rule(liver_catalog):
    criterion = next(iter(liver_catalog.criteria.values()))
    assert criterion.parsed_rule.question_ids
    updated = criterion._replace(rule_text="Q9 IS YES", question_ids=("Q9",))
    assert type(updated) is CriterionSpec
    assert updated.parsed_rule.question_ids == ("Q9",)
    assert criterion.parsed_rule.question_ids != ("Q9",)


def test_a_gold_set_is_equal_by_value_and_shown_by_its_fields():
    """A record that holds dicts is unhashable, and each one gets its own
    empty dicts by default."""
    gold = GoldSet({("n1", "q1"): Verdict.YES})
    assert gold == GoldSet(question_labels={("n1", "q1"): Verdict.YES})
    assert gold != GoldSet()
    assert repr(GoldSet()) == "GoldSet(question_labels={}, criterion_labels={})"
    with pytest.raises(TypeError):
        hash(gold)
    assert GoldSet().question_labels is not GoldSet().question_labels
