"""Shared fixtures: static corpus/catalog paths and a mock run workspace."""

import json
import sys
import threading
from pathlib import Path

import pytest

from eligo.corpus import load_catalog_dir, load_notes
from eligo.gateway import BackendConfig, Gateway, load_fixtures

DATA_DIR = Path(__file__).parent / "data"


def pytest_collection_modifyitems(items):
    # Run the acceptance criteria last so their summary closes the run.
    items.sort(key=lambda item: "test_acceptance" in item.nodeid)


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        status = "PASS" if report.passed else "FAIL"
        name = report.nodeid.split("::")[-1]
        sys.stderr.write(f"[acceptance] {status} {name}\n")


@pytest.fixture(autouse=True)
def close_gateways(monkeypatch):
    """Close every gateway the test built, then check that none of their
    senders outlives it."""
    built = []
    init = Gateway.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Gateway, "__init__", recording_init)
    yield
    for gateway in built:
        gateway.close()
    assert not [thread for thread in threading.enumerate() if thread.name == "eligo-sender"]


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def notes():
    return load_notes(DATA_DIR / "notes.jsonl")


@pytest.fixture(scope="session")
def liver_catalog():
    return load_catalog_dir(DATA_DIR / "catalog_liver")


@pytest.fixture(scope="session")
def liver_fixtures():
    return load_fixtures(DATA_DIR / "fixtures_liver.json")


def make_mock_gateway(fixtures=None, *, latency_s=0.0, max_inflight=3,
                      retry_limit=2, transport=None):
    cfg = BackendConfig(
        kind="mock",
        model_name="mock-model",
        max_inflight=max_inflight,
        retry_limit=retry_limit,
        backoff_s=0.0,
        mock_latency_s=latency_s,
    )
    return Gateway(cfg, fixtures=fixtures or {}, transport=transport)


def assert_read_only(record, *names):
    """Assigning to any field of the immutable ``record``, or to any of
    ``names``, raises AttributeError and leaves the value as it was."""
    for name in (*record._fields, *names):
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is value


@pytest.fixture
def mock_gateway_factory():
    return make_mock_gateway


# -- a complete mock screening workspace (2 notes x 3 questions) ---------------

MINI_ROLE_ANSWERS = {
    # (note, question, role) -> reply text
    ("n1", "m1", "CRC"): '"Unknown". Cirrhosis is never mentioned either way.',
    ("n1", "m1", "JD"): '"No". Nothing suggests chronic liver disease here.',
    ("n1", "m1", "IE"): '"Yes". Weak keyword match on liver disease terms.',
    ("n1", "m2", "CRC"): '"No". No transplantation appears in the surgical history.',
    ("n1", "m2", "JD"): '"No". The only operation described is a hepatectomy.\nEVIDENCE:\n"right hepatectomy for liver cancer"\nEND EVIDENCE',
    # (n1, m2, IE) intentionally missing: exercises the deterministic fallback.
    ("n1", "m3", "CRC"): '"No". No ascites is documented.',
    ("n1", "m3", "JD"): '"No". The note does not mention ascites.',
    ("n1", "m3", "IE"): '"No". No match for ascites.',
    ("n2", "m1", "CRC"): '"Yes". Past history records cirrhosis.\nEVIDENCE:\n"Cirrhosis secondary to chronic hepatitis C"\nEND EVIDENCE',
    ("n2", "m1", "JD"): '"Yes". Cirrhosis with portal hypertension features.\nEVIDENCE:\n"Cirrhosis secondary to chronic hepatitis C"\nEND EVIDENCE',
    ("n2", "m1", "IE"): '"Yes". Direct mention of cirrhosis found.\nEVIDENCE:\n"Cirrhosis secondary to chronic hepatitis C"\nEND EVIDENCE',
    ("n2", "m2", "CRC"): '"No". The note states no liver transplantation.\nEVIDENCE:\n"No liver transplantation"\nEND EVIDENCE',
    ("n2", "m2", "JD"): '"Unable to determine". Surgical history may be incomplete.',
    ("n2", "m2", "IE"): '"No". Transplantation is explicitly negated.\nEVIDENCE:\n"No liver transplantation"\nEND EVIDENCE',
    ("n2", "m3", "CRC"): '"Yes". New ascites is described on imaging.\nEVIDENCE:\n"new ascites on ultrasound"\nEND EVIDENCE',
    ("n2", "m3", "JD"): '"Yes". Distension with ascites on ultrasound.\nEVIDENCE:\n"new ascites on ultrasound"\nEND EVIDENCE',
    ("n2", "m3", "IE"): '"No". Term match ambiguous in context.',
}

MINI_DEBATES = {
    # consensus in round 1 (2 calls)
    ("n2", "m1"): {
        "proponent|r1": '"Yes". Cirrhosis is documented in past history.\nEVIDENCE:\n"Cirrhosis secondary to chronic hepatitis C"\nEND EVIDENCE',
        "opponent|r1": '"Yes". The negative stance fails; cirrhosis is explicit.\nEVIDENCE:\n"Cirrhosis secondary to chronic hepatitis C"\nEND EVIDENCE',
    },
    # judge closes round 1 (3 calls)
    ("n2", "m2"): {
        "proponent|r1": '"Yes". An unlisted transplant cannot be excluded.',
        "opponent|r1": '"No". The note explicitly negates transplantation.\nEVIDENCE:\n"No liver transplantation"\nEND EVIDENCE',
        "judge|r1": '"No". The explicit negation outweighs speculation.\nEVIDENCE:\n"No liver transplantation"\nEND EVIDENCE',
    },
    # full second round (6 calls)
    ("n2", "m3"): {
        "proponent|r1": '"Yes". Ultrasound shows new ascites.\nEVIDENCE:\n"new ascites on ultrasound"\nEND EVIDENCE',
        "opponent|r1": '"No". Distension alone does not establish ascites.',
        "judge|r1": "SECOND ROUND: settle whether the ultrasound finding is asserted or suspected.",
        "proponent|r2": '"Yes". The ultrasound finding is stated as fact.\nEVIDENCE:\n"new ascites on ultrasound"\nEND EVIDENCE',
        "opponent|r2": '"Yes". Re-reading, the finding is indeed asserted.',
        "judge|final": '"Yes". Both analysts now agree the finding is asserted.\nEVIDENCE:\n"new ascites on ultrasound"\nEND EVIDENCE',
    },
    # (n1, m1) has no debate fixtures: both stances fall back -> consensus UNKNOWN
    ("n1", "m2"): {
        "proponent|r1": '"No". Only a hepatectomy is recorded.',
        "opponent|r1": '"No". Agreed; no transplantation appears.',
    },
    ("n1", "m3"): {
        "proponent|r1": '"No". No ascites can be read into this note.',
        "opponent|r1": '"No". Nothing supports ascites.',
    },
}

MINI_GOLD = [
    {"note_id": "n1", "question_id": "m1", "label": "UNKNOWN"},
    {"note_id": "n1", "question_id": "m2", "label": "NO"},
    {"note_id": "n1", "question_id": "m3", "label": "NO"},
    {"note_id": "n2", "question_id": "m1", "label": "YES"},
    {"note_id": "n2", "question_id": "m2", "label": "NO"},
    {"note_id": "n2", "question_id": "m3", "label": "YES"},
    {"note_id": "n1", "criterion_id": "mc1", "label": "NOT_MET"},
    {"note_id": "n1", "criterion_id": "mc2", "label": "NOT_MET"},
    {"note_id": "n2", "criterion_id": "mc1", "label": "MET"},
    {"note_id": "n2", "criterion_id": "mc2", "label": "NOT_MET"},
]


def build_mini_fixtures() -> dict:
    fixtures = {}
    for (note_id, question_id, role), text in MINI_ROLE_ANSWERS.items():
        fixtures[f"{note_id}|{question_id}|role{role}"] = text
    for (note_id, question_id), steps in MINI_DEBATES.items():
        for suffix, text in steps.items():
            fixtures[f"{note_id}|{question_id}|{suffix}"] = text
    return fixtures


def write_mini_workspace(root: Path) -> dict:
    """Lay out notes, catalog, gold, fixtures, run.json under root."""
    root.mkdir(parents=True, exist_ok=True)
    notes_src = (DATA_DIR / "notes.jsonl").read_text(encoding="utf-8").splitlines()
    notes_path = root / "notes.jsonl"
    notes_path.write_text(
        "\n".join(line for line in notes_src
                  if json.loads(line)["note_id"] in ("n1", "n2")) + "\n",
        encoding="utf-8",
    )
    catalog_dir = root / "catalog"
    catalog_dir.mkdir(exist_ok=True)
    (catalog_dir / "questions.json").write_text(json.dumps({"questions": [
        {"question_id": "m1", "text": "Has the patient been diagnosed with cirrhosis?",
         "category": "Diagnosis", "task_type": "DirectMatch"},
        {"question_id": "m2", "text": "Has the patient undergone liver transplantation?",
         "category": "Intervention", "task_type": "DirectMatch"},
        {"question_id": "m3", "text": "Does the note mention ascites?",
         "category": "SymptomAndEvent", "task_type": "Classification"},
    ]}, indent=2), encoding="utf-8")
    (catalog_dir / "criteria.json").write_text(json.dumps({"criteria": [
        {"criterion_id": "mc1", "trial_ids": ["mt1"], "kind": "inclusion",
         "text": "Cirrhosis with ascites.", "rule": "m1 IS YES AND m3 IS YES",
         "question_ids": ["m1", "m3"]},
        {"criterion_id": "mc2", "trial_ids": ["mt1"], "kind": "exclusion",
         "text": "Prior liver transplantation.", "rule": "m2 IS YES",
         "question_ids": ["m2"]},
    ]}, indent=2), encoding="utf-8")
    (catalog_dir / "trials.json").write_text(json.dumps({"trials": [
        {"trial_id": "mt1", "criterion_ids": ["mc1", "mc2"]},
    ]}, indent=2), encoding="utf-8")
    gold_path = root / "gold.jsonl"
    gold_path.write_text(
        "\n".join(json.dumps(record) for record in MINI_GOLD) + "\n", encoding="utf-8"
    )
    fixtures_path = root / "fixtures.json"
    fixtures_path.write_text(
        json.dumps({"fixtures": build_mini_fixtures()}, indent=2), encoding="utf-8"
    )
    run_config = {
        "backend": {"kind": "mock", "model_name": "mock-model",
                    "fixtures_path": str(fixtures_path), "backoff_s": 0.0},
        "pathway": "both",
        "roles": ["crc", "jd", "ie"],
        "vote": True,
        "notes": str(notes_path),
        "catalog": str(catalog_dir),
        "out": str(root / "out"),
    }
    run_path = root / "run.json"
    run_path.write_text(json.dumps(run_config, indent=2), encoding="utf-8")
    return {
        "root": root,
        "notes": notes_path,
        "catalog": catalog_dir,
        "gold": gold_path,
        "fixtures": fixtures_path,
        "run_json": run_path,
        "run_config": run_config,
        "out": root / "out",
    }


@pytest.fixture
def mini_workspace(tmp_path):
    return write_mini_workspace(tmp_path / "mini")
