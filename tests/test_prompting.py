import hashlib
import json
from importlib import resources

import pytest

from eligo.corpus import load_catalog_dir, load_notes
from eligo.errors import PromptError
from eligo.conversion import CONVERSION_TEMPLATES
from eligo.pathway_a import _ROLE_TEMPLATES, load_roles, role_unit
from eligo.pathway_b import DEBATE_TEMPLATES, debate_unit
from eligo.prompting import load_prompts, load_template, render

from conftest import build_mini_fixtures


PACKAGED = sorted(path.name.removesuffix(".txt")
                  for path in resources.files("eligo").joinpath("prompts").iterdir()
                  if path.name.endswith(".txt"))


def test_all_packaged_templates_load():
    assert PACKAGED
    for name in PACKAGED:
        assert load_template(name).strip()


def test_the_commands_name_exactly_the_packaged_templates():
    named = [*_ROLE_TEMPLATES.values(), *DEBATE_TEMPLATES, *CONVERSION_TEMPLATES]
    assert sorted(named) == PACKAGED


def test_missing_template_raises():
    with pytest.raises(PromptError):
        load_template("nonexistent")


def test_render_substitutes():
    assert render("ask {{question}} about {{note}}", question="Q", note="N") == \
        "ask Q about N"


def test_render_missing_value_raises():
    with pytest.raises(PromptError):
        render("{{question}}", note="N")


def test_values_are_not_rescanned():
    # A value containing placeholder syntax stays literal.
    out = render("{{a}} {{b}}", a="{{b}}", b="x")
    assert out == "{{b}} x"


def test_override_directory_wins(tmp_path):
    (tmp_path / "role_crc.txt").write_text("custom {{question}} {{note}}")
    assert load_template("role_crc", tmp_path).startswith("custom")
    # Other templates still come from the package.
    assert "OPPONENT" in load_template("stance_neg", tmp_path)


def _request_record(request):
    # The digest was pinned over a tag, a list of [speaker, content] turns,
    # temperature and max_tokens; every request is one user turn at 0.0 and
    # 1,024, as the HTTP body sends it.
    return [request.tag, [["user", request.prompt]], 0.0, 1024]


def _drive(unit, fixtures, sent):
    """Run a unit to its end, answering each request from ``fixtures``."""
    try:
        batch = next(unit)
        while True:
            sent.extend(batch)
            batch = unit.send([fixtures[request.tag] for request in batch])
    except StopIteration:
        pass


# SHA-256 over every request that the three role units and one debate per
# stage path (2, 3 and 6 calls) send on the mini workspace: tag, speakers,
# contents, temperature and max_tokens.  The mock backend answers by tag,
# so a change anywhere else in a prompt shows in no output digest but here.
PINNED_REQUEST_DIGEST = "f7ab7c00afcbbd05edcbce48fc9c78b65407fc825013711262afa4e7adeff2a2"


def test_every_request_matches_pinned_digest(mini_workspace):
    fixtures = build_mini_fixtures()
    notes = {note.note_id: note for note in load_notes(mini_workspace["notes"])}
    questions = load_catalog_dir(mini_workspace["catalog"]).questions
    templates = load_prompts(DEBATE_TEMPLATES)
    sent = []
    for role in load_roles().values():
        _drive(role_unit(questions["m1"], notes["n2"], role), fixtures, sent)
    for question_id in ("m1", "m2", "m3"):  # 2, 3 and 6 calls
        _drive(debate_unit(questions[question_id], notes["n2"], templates), fixtures, sent)
    assert len(sent) == 3 + 2 + 3 + 6
    payload = json.dumps([_request_record(request) for request in sent], ensure_ascii=False)
    assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == PINNED_REQUEST_DIGEST
