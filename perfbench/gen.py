"""Deterministic workload generator for the eligo benchmark.

Everything here is a pure function of the seed: the admission notes, the
catalog (questions, criteria, trials), the mock fixtures, gold labels, a
pre-made results file for the evaluation workload, and the plan of what
every unit must come out as.  The program under test only ever sees the
files written by ``write_*``; the plan stays in the benchmark and is what
the output checks compare against.

Rules are generated as small trees (``("atom", q, value, negated)``,
``("any"|"all", [q...], value)``, ``("and"|"or", [child...])``,
``("not", child)``) with every question used at most once per rule.  That
read-once shape is what lets :func:`rule_stable` compute the sensitivity
verdict exactly with Kleene three-valued logic instead of 2^k enumeration,
so the checks do not re-implement the program's algorithm.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

YES, NO, UNK = "YES", "NO", "UNKNOWN"
VALUES = (YES, NO, UNK)
ROLES = ("CRC", "JD", "IE")
VOTE_LABEL = "A-vote"

# The debate-http stub: its fixed latency per call, and the share of request
# bodies (per mille, chosen by hash) it refuses once with HTTP 429.
STUB_LATENCY_MS = 10.0
STUB_REFUSE_PER_MILLE = 50

# Every Category x TaskType pair the loader accepts (SymptomAndEvent must be
# Classification), cycled over the questions so each one appears.
CATEGORY_TASKS = (
    ("Diagnosis", "Classification"),
    ("Diagnosis", "DirectMatch"),
    ("EtiologyAndPathology", "Classification"),
    ("EtiologyAndPathology", "DirectMatch"),
    ("SymptomAndEvent", "Classification"),
    ("Intervention", "Classification"),
    ("Intervention", "DirectMatch"),
)

CONDITIONS = (
    "type 2 diabetes mellitus", "chronic kidney disease", "hepatitis B infection",
    "alcoholic liver disease", "recurrent chest pain", "atrial fibrillation",
    "prior coronary stenting", "long-term warfarin therapy", "decompensated cirrhosis",
    "upper gastrointestinal bleeding", "biliary obstruction", "autoimmune hepatitis",
    "prior liver transplantation", "ongoing chemotherapy", "hepatic encephalopathy",
    "portal vein thrombosis", "obstructive sleep apnoea", "chronic heart failure",
    "pulmonary tuberculosis", "radiofrequency ablation", "insulin treatment",
    "acute pancreatitis", "ascites requiring paracentesis", "HIV infection",
)

FILLER = (
    "Vital signs were stable on arrival.",
    "The patient walked into the ward unaided.",
    "Appetite has been reduced over the last month.",
    "Sleep quality is described as fair.",
    "Family history was reviewed with the patient.",
    "Routine blood tests were ordered on admission.",
    "The patient denies recent travel.",
    "Bowel habits are unchanged.",
    "Weight loss of about two kilograms was reported.",
    "The patient is a retired school teacher.",
    "Allergies were reviewed and documented.",
    "Mild fatigue has been present for several weeks.",
)


def _rng(seed: int, *parts) -> random.Random:
    digest = hashlib.sha256("|".join(map(str, (seed, *parts))).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


# -- catalog --------------------------------------------------------------------

@dataclass
class Question:
    question_id: str
    text: str
    condition: str
    category: str
    task_type: str


@dataclass
class Criterion:
    criterion_id: str
    kind: str  # inclusion | exclusion
    tree: tuple
    trial_ids: list = field(default_factory=list)

    @property
    def rule_text(self) -> str:
        return render_rule(self.tree)

    @property
    def question_ids(self) -> list[str]:
        return sorted(rule_ids(self.tree))


@dataclass
class Catalog:
    questions: list[Question]
    criteria: list[Criterion]
    trials: dict[str, list[str]]  # trial_id -> criterion ids


def make_catalog(seed: int, n_questions: int = 20, n_pairwise: int = 24,
                 n_wide: int = 6, n_trials: int = 6) -> Catalog:
    rng = _rng(seed, "catalog")
    conditions = rng.sample(CONDITIONS, n_questions)
    questions = []
    for index, condition in enumerate(conditions):
        category, task_type = CATEGORY_TASKS[index % len(CATEGORY_TASKS)]
        qid = f"Q{index + 1:02d}"
        questions.append(Question(
            qid, f"Does the admission note document {condition}?",
            condition, category, task_type,
        ))
    ids = [q.question_id for q in questions]

    criteria = []
    for index in range(n_pairwise):
        a, b = rng.sample(ids, 2)
        shape = index % 4
        if shape == 0:
            tree = ("and", [("atom", a, YES, False), ("atom", b, NO, True)])
        elif shape == 1:
            tree = ("or", [("atom", a, YES, False), ("atom", b, UNK, False)])
        elif shape == 2:
            tree = ("not", ("and", [("atom", a, NO, False), ("atom", b, YES, False)]))
        else:
            tree = ("and", [("atom", a, YES, True), ("atom", b, rng.choice(VALUES), False)])
        criteria.append(Criterion(f"C{index + 1:02d}", rng.choice(("inclusion", "exclusion")),
                                  tree))
    for index in range(n_wide):
        # Fixed widths keep the rule-engine cost the same for every seed.
        width = min(8 + (2 * index) % 7, len(ids))
        picked = rng.sample(ids, width)
        split = width // 2
        left, right = picked[:split], picked[split:]
        shape = index % 4
        if shape == 0:
            tree = ("or", [("any", left, YES), ("all", right, NO)])
        elif shape == 1:
            tree = ("any", picked, UNK)
        elif shape == 2:
            tree = ("not", ("all", picked, YES))
        else:
            tree = ("and", [("any", left, YES), ("not", ("any", right, NO))])
        criteria.append(Criterion(f"W{index + 1:02d}", rng.choice(("inclusion", "exclusion")),
                                  tree))

    trials: dict[str, list[str]] = {f"T{t + 1}": [] for t in range(n_trials)}
    trial_ids = sorted(trials)
    for index, criterion in enumerate(criteria):
        owners = {trial_ids[index % n_trials]}
        if rng.random() < 0.3:
            owners.add(rng.choice(trial_ids))
        for trial_id in sorted(owners):
            trials[trial_id].append(criterion.criterion_id)
            criterion.trial_ids.append(trial_id)
    return Catalog(questions, criteria, trials)


def render_rule(tree) -> str:
    kind = tree[0]
    if kind == "atom":
        _, qid, value, negated = tree
        return f"{qid} IS {'NOT ' if negated else ''}{value}"
    if kind in ("any", "all"):
        return f"{kind.upper()}({', '.join(tree[1])}) IS {tree[2]}"
    if kind == "not":
        return f"NOT ({render_rule(tree[1])})"
    joiner = " AND " if kind == "and" else " OR "
    return joiner.join(f"({render_rule(child)})" for child in tree[1])


def rule_ids(tree) -> set[str]:
    kind = tree[0]
    if kind == "atom":
        return {tree[1]}
    if kind in ("any", "all"):
        return set(tree[1])
    if kind == "not":
        return rule_ids(tree[1])
    return set().union(*(rule_ids(child) for child in tree[1]))


def rule_met(tree, answers: dict[str, str]) -> bool:
    """Two-valued evaluation; a missing answer counts as UNKNOWN."""
    kind = tree[0]
    if kind == "atom":
        hit = answers.get(tree[1], UNK) == tree[2]
        return hit != tree[3]
    if kind == "any":
        return any(answers.get(q, UNK) == tree[2] for q in tree[1])
    if kind == "all":
        return all(answers.get(q, UNK) == tree[2] for q in tree[1])
    if kind == "not":
        return not rule_met(tree[1], answers)
    results = [rule_met(child, answers) for child in tree[1]]
    return all(results) if kind == "and" else any(results)


def _kleene(tree, answers: dict[str, str]):
    """True/False/None over the YES/NO completions of the UNKNOWN answers."""
    kind = tree[0]

    def atom(qid: str, value: str):
        actual = answers.get(qid, UNK)
        if actual != UNK:
            return actual == value
        # A completion is YES or NO, never UNKNOWN.
        return False if value == UNK else None

    def fold(items, is_and: bool):
        items = list(items)
        if (False if is_and else True) in items:
            return not is_and
        return None if None in items else is_and

    if kind == "atom":
        hit = atom(tree[1], tree[2])
        return hit if hit is None else hit != tree[3]
    if kind == "any":
        return fold((atom(q, tree[2]) for q in tree[1]), is_and=False)
    if kind == "all":
        return fold((atom(q, tree[2]) for q in tree[1]), is_and=True)
    if kind == "not":
        inner = _kleene(tree[1], answers)
        return inner if inner is None else not inner
    return fold((_kleene(child, answers) for child in tree[1]), is_and=kind == "and")


def rule_stable(tree, answers: dict[str, str]) -> bool:
    """Exact for read-once rules: stable iff every completion agrees."""
    return _kleene(tree, answers) is not None


def trial_status(catalog: Catalog, trial_id: str, verdicts: dict[str, tuple[bool, bool]]):
    kinds = {c.criterion_id: c.kind for c in catalog.criteria}
    failing = []
    unstable = False
    for cid in catalog.trials[trial_id]:
        met, stable = verdicts[cid]
        passes = met if kinds[cid] == "inclusion" else not met
        if not passes:
            failing.append(cid)
        if not stable:
            unstable = True
    if any(verdicts[cid][1] for cid in failing):
        return "INELIGIBLE", failing
    if failing or unstable:
        return "UNDETERMINED", failing
    return "ELIGIBLE", failing


# -- notes and truth ------------------------------------------------------------

@dataclass
class Note:
    note_id: str
    mrn: str
    sections: dict
    extra_text: str | None
    truth: dict  # question_id -> YES/NO/UNKNOWN
    quotes: dict  # question_id -> sentence that states the truth (YES/NO only)

    def to_dict(self) -> dict:
        record = {"note_id": self.note_id, "sections": self.sections}
        if self.extra_text is not None:
            record["extra_text"] = self.extra_text
        return record


def _balanced_mrn(rng: random.Random, index: int, catalog: Catalog,
                  balance_refusals: bool) -> str:
    """An MRN whose debates split exactly 5:3:2 into 2-, 3- and 6-call plans
    and, if asked, have exactly ``refusals_per_note`` refused stages.

    The debate plan and the refusals are hashes of (question, MRN), so
    drawing MRNs until both are exact keeps the backend work of
    ``debate-http``, retries and backoff included, the same for every seed
    instead of varying with the hash.  Balancing the refusals takes about
    four times the draws, so only that workload asks for it.
    """
    n = len(catalog.questions)
    target = {2: n * 5 // 10, 3: n * 3 // 10}
    target[6] = n - target[2] - target[3]
    while True:
        mrn = f"MRN-{rng.randrange(10**7):07d}{index:05d}"
        keys = [debate_key(question.text, mrn) for question in catalog.questions]
        counts = {2: 0, 3: 0, 6: 0}
        for key in keys:
            counts[debate_plan(key)[0]] += 1
        if counts == target and (not balance_refusals or sum(map(debate_refusals, keys))
                                 == refusals_per_note(n)):
            return mrn


def make_notes(seed: int, catalog: Catalog, n_notes: int,
               balance_refusals: bool = False) -> list[Note]:
    notes = []
    for index in range(n_notes):
        rng = _rng(seed, "note", index)
        note_id = f"N{index + 1:05d}"
        mrn = _balanced_mrn(rng, index, catalog, balance_refusals)
        truth, quotes, stated = {}, {}, []
        for question in catalog.questions:
            value = rng.choices(VALUES, weights=(4, 3, 3))[0]
            truth[question.question_id] = value
            if value == YES:
                quote = f"The patient has a documented history of {question.condition}."
            elif value == NO:
                quote = f"There is no evidence of {question.condition} on review."
            else:
                continue
            quotes[question.question_id] = quote
            stated.append(quote)
        rng.shuffle(stated)
        # Section lengths vary from a line to a long narrative.
        illness = stated[: len(stated) // 2] + rng.sample(FILLER, rng.randint(0, 8))
        history = stated[len(stated) // 2:] + rng.sample(FILLER, rng.randint(0, 4))
        rng.shuffle(illness)
        rng.shuffle(history)
        sections = {"chief_complaint": f"Patient {mrn} admitted for assessment. "
                                       + rng.choice(FILLER)}
        if illness:
            sections["present_illness"] = " ".join(illness * rng.randint(1, 3))
        if history:
            sections["past_history"] = " ".join(history)
        extra = " ".join(rng.sample(FILLER, 2)) if rng.random() < 0.2 else None
        notes.append(Note(note_id, mrn, sections, extra, truth, quotes))
    return notes


# -- pathway A plan ---------------------------------------------------------------

@dataclass
class RoleAnswer:
    value: str
    parse_fallback: bool
    evidence: list  # quotes as planted
    grounded: bool  # every quote occurs in the note
    fixture: str | None  # reply text; None means the fixture is missing


def plan_role(seed: int, note: Note, question: Question, role: str) -> RoleAnswer:
    """One role's planted reply: contract replies with and without (grounded
    or fabricated) evidence, parse-fallback replies that break the format
    contract, and missing fixtures, which the mock answers UNKNOWN."""
    rng = _rng(seed, "role", note.note_id, question.question_id, role)
    truth = note.truth[question.question_id]
    value = truth if rng.random() < 0.75 else rng.choice([v for v in VALUES if v != truth])
    quote = note.quotes.get(question.question_id)
    fabricated = f"Record states {question.condition} was confirmed in clinic."
    roll = rng.random()
    if value == UNK:
        if roll < 0.06:
            return RoleAnswer(UNK, False, [], True, None)
        if roll < 0.18:
            return RoleAnswer(UNK, True, [], True, "The record is ambiguous on this point.")
        token = "Unable to determine" if roll < 0.6 else "Information not provided"
        return RoleAnswer(UNK, False, [], True, f'"{token}". The note is silent on it.')
    token = "Yes" if value == YES else "No"
    if roll < 0.1:
        phrase = "yes" if value == YES else "no"
        return RoleAnswer(value, True, [], True,
                          f"Reading the note, {phrase}, that is how it reads. More text.")
    if roll < 0.3 or (quote is None and roll < 0.6):
        return RoleAnswer(value, False, [], True, f'"{token}". Stated without a quote.')
    if quote is None or roll > 0.85:
        return RoleAnswer(value, False, [fabricated], False,
                          f'"{token}". Based on the record.\nEVIDENCE:\n"{fabricated}"\n'
                          "END EVIDENCE")
    return RoleAnswer(value, False, [quote], True,
                      f'"{token}". The note says so.\nEVIDENCE:\n"{quote}"\nEND EVIDENCE')


def majority(values: list[str]) -> str:
    for value in VALUES:
        if values.count(value) >= 2:
            return value
    return UNK


def vote_evidence(answers: list[RoleAnswer], winner: str) -> list[str]:
    evidence: list[str] = []
    for answer in answers:
        if answer.value == winner:
            for quote in answer.evidence:
                if quote not in evidence:
                    evidence.append(quote)
    return evidence


# -- pathway B plan ---------------------------------------------------------------

def debate_key(question_text: str, mrn: str) -> int:
    return stable_hash(f"{question_text}\x00{mrn}")


def debate_plan(key: int) -> tuple[int, str]:
    """(calls, outcome value) for one debate, from its key alone.

    Half the debates reach round-1 consensus (2 calls), three in ten are
    closed by the judge (3 calls), and two in ten go to a second round
    (6 calls).
    """
    bucket = key % 10
    calls = 2 if bucket < 5 else 3 if bucket < 8 else 6
    return calls, VALUES[(key // 10) % 3]


# The stages of a debate with 2, 3 and 6 calls.  The second round re-asks
# the proponent and the opponent, so a 6-call debate has four stages.
STAGES = {2: ("proponent", "opponent"), 3: ("proponent", "opponent", "judge"),
          6: ("proponent", "opponent", "judge", "final")}


def debate_stage(prompt: str) -> str:
    first = prompt.lstrip().split("\n", 1)[0]
    if "PROPONENT" in first:
        return "proponent"
    if "OPPONENT" in first:
        return "opponent"
    return "final" if "final round" in first else "judge"


def refused_once(key: int, stage: str) -> bool:
    """Whether the stub refuses the first request of this debate stage (429)."""
    return stable_hash(f"{key}|{stage}") % 1000 < STUB_REFUSE_PER_MILLE


def debate_refusals(key: int) -> int:
    return sum(refused_once(key, stage) for stage in STAGES[debate_plan(key)[0]])


def refusals_per_note(n_questions: int) -> int:
    """Refused stages per note: the refusal share of the note's debate stages."""
    stages = n_questions * (5 * 2 + 3 * 3 + 2 * 4) / 10
    return round(stages * STUB_REFUSE_PER_MILLE / 1000)


_TOKENS = {YES: "Yes", NO: "No", UNK: "Unable to determine"}


def debate_reply(prompt: str, question_text: str, mrn: str) -> str:
    """The stub's reply to one debate prompt, following :func:`debate_plan`."""
    calls, value = debate_plan(debate_key(question_text, mrn))
    stage = debate_stage(prompt)
    if stage in ("proponent", "opponent"):
        if calls == 2:
            return f'"{_TOKENS[value]}". Both readings agree on this.'
        side = "Yes" if stage == "proponent" else "No"
        return f'"{side}". My reading of the note.'
    if stage == "final":
        return f'"{_TOKENS[value]}". Final ruling after round two.'
    if calls == 6:
        return "SECOND ROUND: the onset date and the treating ward disagree."
    return f'"{_TOKENS[value]}". The proponent reading holds.'


# -- files ------------------------------------------------------------------------

def _write_json(path: Path, document) -> None:
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def write_catalog(directory: Path, catalog: Catalog) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    _write_json(directory / "questions.json", {"questions": [
        {"question_id": q.question_id, "text": q.text, "category": q.category,
         "task_type": q.task_type} for q in catalog.questions]})
    _write_json(directory / "criteria.json", {"criteria": [
        {"criterion_id": c.criterion_id, "trial_ids": c.trial_ids, "kind": c.kind,
         "text": f"Generated criterion {c.criterion_id}", "rule": c.rule_text,
         "question_ids": c.question_ids} for c in catalog.criteria]})
    _write_json(directory / "trials.json", {"trials": [
        {"trial_id": t, "registry_code": f"NCT{9000000 + i}", "criterion_ids": ids}
        for i, (t, ids) in enumerate(sorted(catalog.trials.items()))]})


def write_notes(path: Path, notes: list[Note]) -> None:
    _write_jsonl(path, (note.to_dict() for note in notes))


def role_plans(seed: int, notes: list[Note], catalog: Catalog):
    """{(note_id, question_id): [RoleAnswer per role in ROLES order]}."""
    return {(note.note_id, q.question_id): [plan_role(seed, note, q, role) for role in ROLES]
            for note in notes for q in catalog.questions}


def write_fixtures(path: Path, plans) -> None:
    fixtures = {}
    for (note_id, question_id), answers in plans.items():
        for role, answer in zip(ROLES, answers):
            if answer.fixture is not None:
                fixtures[f"{note_id}|{question_id}|role{role}"] = answer.fixture
    _write_json(path, {"fixtures": fixtures})


def gold_keys(seed: int, notes: list[Note], catalog: Catalog):
    """Question and criterion gold, leaving about one pair in twenty unlabelled."""
    questions, criteria = {}, {}
    for note in notes:
        rng = _rng(seed, "gold", note.note_id)
        for q in catalog.questions:
            if rng.random() >= 0.05:
                questions[(note.note_id, q.question_id)] = note.truth[q.question_id]
        for c in catalog.criteria:
            if rng.random() >= 0.05:
                met = rule_met(c.tree, note.truth)
                criteria[(note.note_id, c.criterion_id)] = "MET" if met else "NOT_MET"
    return questions, criteria


def write_gold(path: Path, question_gold: dict, criterion_gold: dict) -> None:
    records = [{"note_id": n, "question_id": q, "label": v}
               for (n, q), v in sorted(question_gold.items())]
    records += [{"note_id": n, "criterion_id": c, "label": v}
                for (n, c), v in sorted(criterion_gold.items())]
    _write_jsonl(path, records)


def result_records(seed: int, plans) -> list[dict]:
    """Results as a pathway A run with vote would write them."""
    records = []
    for (note_id, question_id), answers in sorted(plans.items()):
        rng = _rng(seed, "elapsed", note_id, question_id)
        elapsed = []
        for role, answer in zip(ROLES, answers):
            seconds = round(rng.uniform(0.4, 4.0), 6)
            elapsed.append(seconds)
            records.append({
                "note_id": note_id, "question_id": question_id, "pathway": f"A-{role}",
                "value": answer.value, "rationale": "planted", "evidence": answer.evidence,
                "provenance": f"{note_id}|{question_id}|role{role}",
                "parse_fallback": answer.parse_fallback, "elapsed_s": seconds,
            })
        winner = majority([a.value for a in answers])
        records.append({
            "note_id": note_id, "question_id": question_id, "pathway": VOTE_LABEL,
            "value": winner, "rationale": "planted vote",
            "evidence": vote_evidence(answers, winner), "provenance": "majority_vote",
            "parse_fallback": False, "elapsed_s": max(elapsed),
        })
    return records
