"""eligo benchmark: three workloads, end-to-end metrics and a traced run.

Usage, from the repository root::

    python3 perfbench/run.py --workload screen-cohort --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

* ``screen-cohort``   ``eligo screen``, pathway A with vote, mock backend at
  latency 0, 100 notes x 20 questions: engine CPU and the verdict roll-up.
* ``debate-http``     ``eligo screen``, pathway B against the localhost
  chat-completions stub in ``stub.py`` (10 ms per call, one-shot 429s and
  eligo's default backoff): gateway scheduling, retries and the debate
  state machine.
* ``evaluate-cohort`` ``eligo evaluate --notes`` over a generated results
  file of the screen-cohort shape: the read side, with no backend.

Set-up (input generation, the stub for ``debate-http``, and a cold start of
eligo on one note) runs three times and ``setup_s`` is the median.  Then the
workload's CLI command runs repeatedly, each time in a fresh process and
output directory, until ``--seconds`` is used up; every end-to-end metric is
the median over those repetitions.  Gated times are in reference seconds:
their CPU-bound part is rescaled by a calibration task timed around each
set-up and repetition (see :func:`at_reference`).  The first repetition's
outputs are checked against the generator's plan, and every later one must
have the same canonical digests.
With ``--trace 1`` one repetition runs under ``tracer.py`` and the per-layer
metrics replace the end-to-end ones.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKERS = 2       # at most nproc on the 2-core reference machine
MAX_INFLIGHT = 2
SETUP_REPEATS = 3
REP_TIMEOUT_S = 150

# Notes per workload (each with N_QUESTIONS questions); ``--tiny`` is for the
# self-check.  Cohorts are sized so a repetition takes 2-5 s and a run gets
# five to twelve: on a shared 2-core machine the median of many short
# repetitions spreads far less from run to run than that of a few long ones.
SIZES = {"screen-cohort": 100, "debate-http": 5, "evaluate-cohort": 100}
TINY_NOTES = 4
N_QUESTIONS = 20

# End-to-end metrics in the result line; the others are printed only.  The
# gated times are in reference seconds (see at_reference()).  calls_per_s,
# backend_efficiency and failed_share are undefined or 0 on some workload,
# and where defined the first two move exactly with wall time, as each
# workload's call count is fixed by its plan.
GATED = ("setup_s", "wall_s", "peak_rss_mb")
CALIBRATION_NOTES = 80
# What calibrate() takes at the reference speed: about its median on a
# 2-vCPU Xeon virtual machine with Python 3.11.
CALIBRATION_REF_S = 0.2


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- set-up ---------------------------------------------------------------------

@dataclass
class Setup:
    workload: str
    directory: Path
    catalog: gen.Catalog
    notes: list
    plans: dict
    stub: subprocess.Popen | None = None
    base_url: str | None = None
    gold: tuple = ()
    records: list = field(default_factory=list)
    planned_calls: int = 0
    planned_refusals: int = 0
    cold_cpu_s: float = 0.0

    def stop(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub = None


def start_stub(directory: Path) -> tuple[subprocess.Popen, str]:
    with open(directory / "stub.err", "w") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "stub.py")],
                                stdout=subprocess.PIPE, stderr=err, text=True, cwd=HERE)
    line = proc.stdout.readline()
    if not line.startswith("PORT "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"stub did not start: {line!r}")
    return proc, f"http://127.0.0.1:{int(line.split()[1])}"


def set_up(workload: str, seed: int, n_notes: int, directory: Path) -> Setup:
    """Generate the inputs, start the stub, and start eligo cold once.

    The cold start runs the workload's command on the first note alone after
    removing eligo's bytecode, so it pays for compiling and importing eligo,
    reading the config and catalog, and one note's work.  The repetitions
    then reuse the bytecode it wrote.
    """
    directory.mkdir(parents=True, exist_ok=True)
    catalog = gen.make_catalog(seed, N_QUESTIONS)
    notes = gen.make_notes(seed, catalog, n_notes,
                           balance_refusals=workload == "debate-http")
    setup = Setup(workload, directory, catalog, notes, plans={})
    if workload == "debate-http":
        keys = [gen.debate_key(q.text, note.mrn) for note in notes for q in catalog.questions]
        setup.planned_calls = sum(gen.debate_plan(key)[0] for key in keys)
        setup.planned_refusals = sum(map(gen.debate_refusals, keys))
        setup.stub, setup.base_url = start_stub(directory)
    else:
        setup.plans = gen.role_plans(seed, notes, catalog)
    if workload == "evaluate-cohort":
        setup.gold = gen.gold_keys(seed, notes, catalog)
        setup.records = gen.result_records(seed, setup.plans)
    try:
        write_inputs(setup, directory, notes)
        write_inputs(setup, directory / "cold", notes[:1])
        for cache in SRC.rglob("__pycache__"):
            shutil.rmtree(cache, ignore_errors=True)
        _, usage = run_eligo(setup, directory / "cold", directory / "cold" / "out", "cold")
    except BaseException:
        setup.stop()
        raise
    setup.cold_cpu_s = usage.ru_utime + usage.ru_stime
    return setup


def write_inputs(setup: Setup, directory: Path, notes: list) -> None:
    """Write every file the workload's command reads, for ``notes`` only."""
    directory.mkdir(parents=True, exist_ok=True)
    ids = {note.note_id for note in notes}
    gen.write_catalog(directory / "catalog", setup.catalog)
    gen.write_notes(directory / "notes.jsonl", notes)
    if setup.workload == "screen-cohort":
        gen.write_fixtures(directory / "fixtures.json",
                           {k: v for k, v in setup.plans.items() if k[0] in ids})
        backend = {"kind": "mock", "model_name": "mock-model",
                   "fixtures_path": str(directory / "fixtures.json"),
                   "max_inflight": MAX_INFLIGHT}
        write_run_config(directory, backend, "A")
    elif setup.workload == "debate-http":
        # backoff_s is left at eligo's default, so a 429 holds the slot for
        # as long as it would in a deployment.
        backend = {"kind": "http", "base_url": setup.base_url, "model_name": "stub",
                   "timeout_ms": 10000, "retry_limit": 2, "max_inflight": MAX_INFLIGHT}
        write_run_config(directory, backend, "B")
    else:
        gen.write_gold(directory / "gold.jsonl",
                       *({k: v for k, v in gold.items() if k[0] in ids} for gold in setup.gold))
        with open(directory / "results.jsonl", "w", encoding="utf-8") as handle:
            for record in setup.records:
                if record["note_id"] in ids:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")


def write_run_config(directory: Path, backend: dict, pathway: str) -> None:
    config = {"backend": backend, "pathway": pathway, "roles": ["crc", "jd", "ie"],
              "vote": pathway == "A", "notes": str(directory / "notes.jsonl"),
              "catalog": str(directory / "catalog"), "out": str(directory / "out"),
              "workers": WORKERS}
    (directory / "run.json").write_text(json.dumps(config, indent=1), encoding="utf-8")


# -- one repetition -------------------------------------------------------------

@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: Path
    stub: dict | None = None
    spans: Path | None = None
    calibration_s: float = 0.0  # mean of the calibrations just before and after


def calibrate() -> float:
    """CPU seconds taken by a fixed pure-Python task that uses no eligo code.

    Timed before and after every set-up and repetition, it tracks how fast
    this machine runs Python at that moment.  On a shared 2-core machine
    that speed changes by tens of percent from one repetition to the next;
    scaling by it (see :func:`at_reference`) removes the change from the
    gated times while any change in eligo's own cost still shows in full.
    """
    started = time.process_time()
    catalog = gen.make_catalog(0)
    notes = gen.make_notes(0, catalog, CALIBRATION_NOTES)
    json.dumps(gen.result_records(0, gen.role_plans(0, notes, catalog)))
    return time.process_time() - started


def at_reference(wall_s: float, cpu_s: float, calibration_s: float) -> float:
    """``wall_s`` with its CPU-bound part rescaled to the reference speed.

    The CPU-bound part scales with how fast the machine runs at the moment;
    the rest (backend latency, backoff sleeps, waiting on other processes)
    does not, so only the first is multiplied by ``CALIBRATION_REF_S /
    calibration_s``.  Either part changes in full when eligo's own cost does.
    """
    busy = min(cpu_s, wall_s)
    return wall_s - busy + busy * CALIBRATION_REF_S / calibration_s


def eligo_args(setup: Setup, inputs: Path, out: Path) -> list[str]:
    if setup.workload == "evaluate-cohort":
        return ["evaluate", "--results", str(inputs / "results.jsonl"), "--gold",
                str(inputs / "gold.jsonl"), "--catalog", str(inputs / "catalog"),
                "--out", str(out), "--notes", str(inputs / "notes.jsonl")]
    config = json.loads((inputs / "run.json").read_text(encoding="utf-8"))
    config["out"] = str(out)
    (out.parent / f"{out.name}.json").write_text(json.dumps(config), encoding="utf-8")
    return ["screen", "--config", str(out.parent / f"{out.name}.json")]


def child_env() -> dict:
    """The environment eligo runs in: the checkout's ``src`` first on the
    path, and bytecode caching on, as an installed package would have it,
    whatever the caller's setting."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def stub_call(setup: Setup, path: str, post: bool = False) -> dict:
    request = urllib.request.Request(setup.base_url + path, data=b"" if post else None,
                                     method="POST" if post else "GET")
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def run_eligo(setup: Setup, inputs: Path, out: Path, name: str,
              head: list[str] | None = None) -> tuple[float, os.struct_rusage]:
    """Run one eligo command in a fresh process; return its wall time and rusage."""
    head = head or [sys.executable, "-m", "eligo.cli"]
    err_path = setup.directory / f"{name}.err"
    with open(err_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(head + eligo_args(setup, inputs, out),
                                stdout=subprocess.DEVNULL, stderr=err, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise CheckFailed(f"eligo exited {proc.returncode} on {name}:\n{tail}")
    return wall, usage


def run_rep(setup: Setup, index: int, traced: bool) -> Rep:
    out = setup.directory / f"rep{index}"
    if setup.base_url:
        stub_call(setup, "/reset", post=True)
    spans = setup.directory / f"rep{index}.spans.json" if traced else None
    head = [sys.executable, str(HERE / "tracer.py"), str(spans)] if traced else None
    wall, usage = run_eligo(setup, setup.directory, out, f"rep{index}", head)
    if traced:
        wall -= float(Path(str(spans) + ".dump_s").read_text())
    stub = stub_call(setup, "/stats") if setup.base_url else None
    return Rep(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, out, stub,
               spans)


# -- output checks ----------------------------------------------------------------

class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def sha256_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(setup: Setup, out: Path) -> dict[str, str]:
    """SHA-256 of canonical outputs, comparable across commits."""
    result = {}
    if setup.workload == "evaluate-cohort":
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        result["metrics.json"] = sha256_of(json.dumps(metrics, sort_keys=True))
        return result
    records = [{k: v for k, v in r.items() if k != "elapsed_s"}
               for r in read_jsonl(out / "results.jsonl")]
    records.sort(key=lambda r: (r["note_id"], r["question_id"], r["pathway"]))
    result["results.jsonl"] = sha256_of("".join(json.dumps(r, sort_keys=True) + "\n"
                                                for r in records))
    lines = sorted((out / "verdicts.jsonl").read_text(encoding="utf-8").splitlines())
    result["verdicts.jsonl"] = sha256_of("\n".join(lines) + "\n")
    return result


def expected_answers(setup: Setup) -> dict[str, dict[tuple[str, str], str]]:
    """label -> {(note_id, question_id): value} as planted by the generator."""
    by_label: dict[str, dict] = {}
    if setup.workload == "debate-http":
        questions = {q.question_id: q for q in setup.catalog.questions}
        by_label["B"] = {
            (note.note_id, qid): gen.debate_plan(gen.debate_key(q.text, note.mrn))[1]
            for note in setup.notes for qid, q in questions.items()}
        return by_label
    for key, answers in setup.plans.items():
        for role, answer in zip(gen.ROLES, answers):
            by_label.setdefault(f"A-{role}", {})[key] = answer.value
        by_label.setdefault(gen.VOTE_LABEL, {})[key] = gen.majority([a.value for a in answers])
    return by_label


def check_verdicts(setup: Setup, out: Path, answers_by_label: dict) -> None:
    catalog = setup.catalog
    expected = set()
    for label, answers in answers_by_label.items():
        per_note: dict[str, dict] = {}
        for (nid, qid), value in answers.items():
            per_note.setdefault(nid, {})[qid] = value
        for note in setup.notes:
            note_answers = per_note.get(note.note_id, {})
            verdicts = {}
            for c in catalog.criteria:
                met = gen.rule_met(c.tree, note_answers)
                stable = gen.rule_stable(c.tree, note_answers)
                verdicts[c.criterion_id] = (met, stable)
                expected.add(json.dumps({"note_id": note.note_id, "criterion_id": c.criterion_id,
                                         "met": met, "stable": stable, "pathway": label},
                                        sort_keys=True))
            for trial_id in catalog.trials:
                status, failing = gen.trial_status(catalog, trial_id, verdicts)
                expected.add(json.dumps({"note_id": note.note_id, "trial_id": trial_id,
                                         "status": status, "failing": failing,
                                         "pathway": label}, sort_keys=True))
    actual = {json.dumps(json.loads(line), sort_keys=True)
              for line in (out / "verdicts.jsonl").read_text(encoding="utf-8").splitlines()}
    missing, extra = expected - actual, actual - expected
    expect(not missing and not extra,
           f"verdicts.jsonl differs from the plan: {len(missing)} missing, {len(extra)} "
           f"unexpected, e.g. {sorted(missing)[:1]} / {sorted(extra)[:1]}")


def check_screen(setup: Setup, rep: Rep) -> tuple[int, int, int]:
    """Check one screen run; return (attempted units, failed units, backend attempts)."""
    out = rep.out
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    counts = manifest["counts"]
    expect(counts["answered"] + counts["failed"] + counts["skipped"] == counts["total_units"],
           f"answered + failed + skipped != total: {counts}")
    answers = expected_answers(setup)
    total = sum(len(v) for v in answers.values())
    expect(counts["total_units"] == total, f"total_units {counts['total_units']} != {total}")
    expect(counts["failed"] == 0 and counts["skipped"] == 0, f"units failed: {counts}")

    records = read_jsonl(out / "results.jsonl")
    seen = set()
    for record in records:
        key = (record["note_id"], record["question_id"])
        label = record["pathway"]
        expect((key, label) not in seen, f"duplicate result record {key} {label}")
        seen.add((key, label))
        want = answers.get(label, {}).get(key)
        expect(record["value"] == want,
               f"{key} {label}: value {record['value']} but the plan says {want}")
        if label.startswith("A-") and label != gen.VOTE_LABEL:
            planned = setup.plans[key][gen.ROLES.index(label[2:])]
            expect(record["parse_fallback"] == planned.parse_fallback,
                   f"{key} {label}: parse_fallback {record['parse_fallback']}")
    expect(len(seen) == total, f"{len(seen)} result records, expected {total}")
    check_verdicts(setup, out, answers)

    if setup.workload == "screen-cohort":
        return total, counts["failed"], len(setup.plans) * len(gen.ROLES)
    questions = {q.question_id: q for q in setup.catalog.questions}
    notes = {note.note_id: note for note in setup.notes}
    debates = read_jsonl(out / "debates.jsonl")
    expect(len({(d["note_id"], d["question_id"]) for d in debates}) == len(debates) == total,
           f"{len(debates)} debate transcripts, expected one for each of {total} units")
    for debate in debates:
        note = notes[debate["note_id"]]
        calls, _ = gen.debate_plan(gen.debate_key(questions[debate["question_id"]].text,
                                                  note.mrn))
        expect(debate["calls_used"] in (2, 3, 6) and debate["calls_used"] == calls,
               f"debate {debate['note_id']}|{debate['question_id']} used "
               f"{debate['calls_used']} calls, plan says {calls}")
    check_stub(setup, rep)
    return total, counts["failed"], rep.stub["requests"]


def check_stub(setup: Setup, rep: Rep) -> None:
    stub = rep.stub
    expect(stub["peak_inflight"] <= MAX_INFLIGHT,
           f"stub saw {stub['peak_inflight']} requests in flight > {MAX_INFLIGHT}")
    expect(stub["refused"] == setup.planned_refusals,
           f"stub refused {stub['refused']} requests, the plan {setup.planned_refusals}")
    expect(stub["requests"] == setup.planned_calls + setup.planned_refusals,
           f"stub served {stub['requests']} requests for {setup.planned_calls} planned calls "
           f"and {setup.planned_refusals} refusals")


def check_evaluate(setup: Setup, rep: Rep) -> tuple[int, int, int]:
    out = rep.out
    question_gold, criterion_gold = setup.gold
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    answers = expected_answers(setup)
    grounded = {}
    for key, plan in setup.plans.items():
        for role, answer in zip(gen.ROLES, plan):
            grounded[(f"A-{role}", key)] = answer.grounded
        winner = gen.majority([a.value for a in plan])
        grounded[(gen.VOTE_LABEL, key)] = all(a.grounded for a in plan if a.value == winner)
    criteria = {c.criterion_id: c for c in setup.catalog.criteria}
    for label, predicted in answers.items():
        level = metrics["question_level"][label]
        confusion = {g: {p: 0 for p in gen.VALUES} for g in gen.VALUES}
        counterfactual = 0
        for key, value in predicted.items():
            if key in question_gold:
                confusion[question_gold[key]][value] += 1
                if (value != question_gold[key] and value in (gen.YES, gen.NO)
                        and not grounded[(label, key)]):
                    counterfactual += 1
        expect(level["confusion"] == confusion, f"{label}: question confusion differs")
        expect(level["unscored_count"] == len(predicted) - sum(map(sum, (
            r.values() for r in confusion.values()))), f"{label}: unscored_count differs")
        expect(level["counterfactual"]["count"] == counterfactual,
               f"{label}: counterfactual count {level['counterfactual']['count']} "
               f"!= {counterfactual}")
        crit = {g: {p: 0 for p in ("MET", "NOT_MET")} for g in ("MET", "NOT_MET")}
        per_note: dict[str, dict] = {}
        for (nid, qid), value in predicted.items():
            per_note.setdefault(nid, {})[qid] = value
        for (nid, cid), gold_label in criterion_gold.items():
            met = gen.rule_met(criteria[cid].tree, per_note[nid])
            crit[gold_label]["MET" if met else "NOT_MET"] += 1
        expect(metrics["criterion_level"][label]["confusion"] == crit,
               f"{label}: criterion confusion differs")
    with open(out / "per_question.csv", "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    expect(len(rows) == len(setup.records),
           f"per_question.csv has {len(rows)} rows for {len(setup.records)} records")
    for row in rows:
        want = answers[row["pathway"]][(row["note_id"], row["question_id"])]
        expect(row["predicted"] == want, f"per_question.csv row {row} != planted {want}")
    return len(setup.records), 0, 0


def check(setup: Setup, rep: Rep) -> tuple[int, int, int]:
    if setup.workload == "evaluate-cohort":
        return check_evaluate(setup, rep)
    return check_screen(setup, rep)


# -- the run ------------------------------------------------------------------------

def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(setup: Setup, seconds: float,
            calibrations: list[float]) -> tuple[list[Rep], tuple[int, int, int], dict]:
    """Repeat the command for ``seconds``, calibrating after each repetition.

    The next repetition starts only if it is expected to end in time.  The
    first repetition is checked in full; every one must reproduce its
    canonical output digests and, for the stub, its request and refusal
    counts.
    """
    reps: list[Rep] = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() + reps[-1].wall_s + calibrations[-1] <= deadline:
        rep = run_rep(setup, len(reps), traced=False)
        calibrations.append(calibrate())
        rep.calibration_s = (calibrations[-2] + calibrations[-1]) / 2
        if not reps:
            tally = check(setup, rep)
            reference = digests(setup, rep.out)
        else:
            expect(digests(setup, rep.out) == reference,
                   f"rep {len(reps)} outputs differ from the first")
            if rep.stub is not None:
                check_stub(setup, rep)
                expect(rep.stub["requests"] == reps[0].stub["requests"],
                       f"rep {len(reps)} made {rep.stub['requests']} requests, the first "
                       f"{reps[0].stub['requests']}")
        shutil.rmtree(rep.out, ignore_errors=True)
        reps.append(rep)
        log(f"rep {len(reps) - 1}: wall {rep.wall_s:.4f} s, cpu {rep.cpu_s:.4f} s, "
            f"rss {rep.rss_mb:.1f} MB, calibration {rep.calibration_s:.4f} s")
    return reps, tally, reference


def end_to_end(setup: Setup, setups: list[tuple[float, float, float]], reps: list[Rep],
               tally: tuple[int, int, int]) -> list[tuple[str, float | None, str]]:
    """Rows of (name, median value or None where undefined, unit).

    ``setups`` holds the wall, CPU and calibration seconds of each set-up.
    """
    units, failed, attempts = tally
    walls = [r.wall_s for r in reps]
    ideal_s = attempts * gen.STUB_LATENCY_MS / 1000.0 / MAX_INFLIGHT
    return [
        ("setup_s", median([at_reference(*t) for t in setups]), "s"),
        ("wall_s", median([at_reference(r.wall_s, r.cpu_s, r.calibration_s)
                           for r in reps]), "s"),
        ("peak_rss_mb", median([r.rss_mb for r in reps]), "MB"),
        ("cpu_s", median([at_reference(r.cpu_s, r.cpu_s, r.calibration_s)
                          for r in reps]), "s"),
        ("units_per_s", median([units / w for w in walls]), "1/s"),
        ("calls_per_s", median([attempts / w for w in walls]) if attempts else None, "1/s"),
        ("backend_efficiency", median([ideal_s / w for w in walls])
         if setup.base_url else None, "ratio"),
        ("failed_share", failed / units, "ratio"),
        ("setup_raw_s", median([t[0] for t in setups]), "s"),
        ("wall_raw_s", median(walls), "s"),
        ("cpu_raw_s", median([r.cpu_s for r in reps]), "s"),
        ("calibration_s", median([r.calibration_s for r in reps]), "s"),
    ]


def per_layer(traced: Rep, untraced: list[Rep]) -> dict:
    metrics = tracer.layer_metrics(str(traced.spans))
    stub = traced.stub or {}
    window = stub.get("window_s", 0.0)
    metrics["stub.requests"] = stub.get("requests", 0)
    metrics["stub.peak_inflight"] = stub.get("peak_inflight", 0)
    metrics["stub.busy_share"] = stub["busy_s"] / (window * MAX_INFLIGHT) if window else 0.0
    metrics["trace.overhead_s"] = traced.wall_s - median([r.wall_s for r in untraced])
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="eligo benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help=f"{TINY_NOTES} notes per workload, for the self-check")
    args = parser.parse_args(argv)
    if not (SRC / "eligo" / "cli.py").is_file():
        log(f"no eligo source tree at {SRC}; run from a repository checkout")
        return 2

    n_notes = TINY_NOTES if args.tiny else SIZES[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    setup = None
    try:
        setups = []
        calibrations = [calibrate()]
        for index in range(SETUP_REPEATS):
            if setup is not None:
                setup.stop()
            shutil.rmtree(work / "inputs", ignore_errors=True)
            started, cpu_started = time.perf_counter(), time.process_time()
            setup = set_up(args.workload, args.seed, n_notes, work / "inputs")
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu_started + setup.cold_cpu_s
            calibrations.append(calibrate())
            setups.append((wall, cpu, (calibrations[-2] + calibrations[-1]) / 2))
            log(f"set-up {index}: wall {wall:.4f} s, cpu {cpu:.4f} s, "
                f"calibration {setups[-1][2]:.4f} s")

        # A traced run spends half its time on untraced repetitions, the
        # baseline for trace.overhead_s.
        reps, tally, reference = measure(setup, args.seconds / 2 if args.trace
                                         else args.seconds, calibrations)
        attempted = tally[0] * len(reps)
        failed = tally[1] * len(reps)
        print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions, "
              f"{n_notes} notes x {N_QUESTIONS} questions")
        for name, digest in reference.items():
            print(f"  sha256 {name} {digest}")
        if args.trace:
            traced = run_rep(setup, len(reps), traced=True)
            traced_tally = check(setup, traced)
            attempted += traced_tally[0]
            failed += traced_tally[1]
            expect(digests(setup, traced.out) == reference,
                   "traced outputs differ from untraced ones")
            metrics = {name: {"value": value, "unit": tracer_unit(name)}
                       for name, value in per_layer(traced, reps).items()}
            for name, metric in metrics.items():
                print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")
        else:
            metrics = {}
            for name, value, unit in end_to_end(setup, setups, reps, tally):
                gated = name in GATED
                print(f"  {name:<20} {'n/a' if value is None else f'{value:.6g}'} {unit}"
                      + ("" if gated else "  (not gated)"))
                if gated:
                    metrics[name] = {"value": value, "unit": unit}
        print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    except CheckFailed as exc:
        log(f"CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        if setup is not None:
            setup.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def tracer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
