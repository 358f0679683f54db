"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench -q

The end-to-end tests run each workload briefly, so the module takes a few
minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tempocorr.correlations import Behavior, check_membership  # noqa: E402

BENCH = json.loads((REPO / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 918273  # not used while the benchmark was built


def bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCH["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture
def at_repo(monkeypatch):
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "OUT", REPO / ".bench_out")


# --- statistics and spans ------------------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    xs = [float(i) for i in range(1, 121)]
    value, pct, n = run.tail(xs)
    assert (value, n) == (110.0, 120)
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100 * 110 / 120)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_latencies_are_scaled_to_the_reference_speed(monkeypatch):
    class OneSecondOps:
        name, cycle = "fixed", ("a",)

        def kind(self, i):
            return "a"

        def run_op(self, i):
            return 1.0

    refs = iter([2 * run.REFERENCE_S, 2 * run.REFERENCE_S, 4 * run.REFERENCE_S])
    monkeypatch.setattr(run, "reference_s", lambda: next(refs))
    loop = run.Loop()
    loop.run(OneSecondOps(), 0)
    loop.run(OneSecondOps(), 1)
    # each op is scaled by the reference time measured before and after it
    assert loop.latencies == [pytest.approx(0.5), pytest.approx(1 / 3)]
    assert loop.throughput == pytest.approx(2 / (0.5 + 1 / 3))
    assert loop.unscaled_busy == 2.0


def test_typical_cycle_takes_each_kinds_median():
    loop = run.Loop()
    loop.passed = [("a", 1.0), ("a", 1.0), ("a", 30.0), ("b", 2.0)]
    assert run.typical_cycle(loop, ("a", "a", "b")) == [1.0, 1.0, 2.0]
    assert run.typical_cycle(loop, ("a", "c")) is None


def test_self_time_subtracts_children():
    t = [
        {"id": 0, "op": 0, "parent": None, "name": "op.x", "start": 0.0, "end": 10.0},
        {"id": 1, "op": 0, "parent": 0, "name": "correlations.a", "start": 1.0, "end": 4.0},
        {"id": 2, "op": 0, "parent": 0, "name": "realize.b", "start": 5.0, "end": 9.0},
        {"id": 3, "op": 0, "parent": 2, "name": "serialize.c", "start": 6.0, "end": 7.0},
    ]
    assert spans.self_times(t) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    assert spans.summarize(t)["self_s"] == {"bench": 3.0, "correlations": 3.0, "realize": 3.0, "serialize": 1.0}
    assert spans.nesting_errors(t) == []
    t[3]["end"] = 9.5
    assert spans.nesting_errors(t)


def test_tracer_nests_layer_spans_under_their_op():
    tracer = spans.Tracer()
    for _ in range(2):
        with tracer.op("k"):
            with tracer.span("correlations.a"):
                with tracer.span("realize.b"):
                    pass
    assert [s["op"] for s in tracer.spans] == [0, 0, 0, 1, 1, 1]
    assert [s["parent"] for s in tracer.spans] == [None, 0, 1, None, 3, 4]
    assert spans.nesting_errors(tracer.spans) == []


def test_scipy_share_counts_outermost_scipy_modules():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.linalg",
        "import time:       400 |        450 |   scipy.optimize",
        "import time:      1000 |       1750 | tempocorr.witness",
        "import time:        10 |         10 | numpy",
    ])
    assert run.scipy_import_seconds(report) == pytest.approx(750e-6)


# --- inputs ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["cli", "polytope", "search"])
def test_seed_fixes_the_inputs(workload):
    def digest(seed):
        proc = bench("--workload", workload, "--seed", str(seed), "--setup-probe")
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)


def test_reference_table_is_a_member():
    rng = workloads.seeded_rng(3, "t")
    for s in (workloads.S222, workloads.S322):
        table = workloads.reference_table(s, workloads.random_levels(rng, s))
        assert check_membership(Behavior(s, table)).is_member


# --- failures -------------------------------------------------------------------------

def test_corrupted_expected_value_is_a_counted_failure():
    wl = workloads.Search(5, REPO, spans.NullTracer())
    wl.targets = {k: v + 0.5 for k, v in wl.targets.items()}
    loop = run.Loop()
    for i in range(4):
        loop.run(wl, i)
    assert loop.attempted == 4
    assert len(loop.failures) == 2 and all("(optimize)" in f and "CheckFailed" in f for f in loop.failures)
    assert len(loop.passed) == 2


def test_failed_checks_reach_the_result_line(monkeypatch, capsys, at_repo):
    monkeypatch.setattr(workloads, "OPTIMIZER_TOL", -1.0)
    assert run.main(["--workload", "search", "--seed", "5", "--seconds", "1"]) == 0
    result = last_json(capsys.readouterr().out)
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(REPO / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "polytope", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# --- end to end ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_the_listed_metrics(workload, trace):
    proc = bench("--workload", workload, "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)
    assert result["failed"] == 0 and result["correct"] is True and result["attempted"] >= 1
    if trace:
        recorded = json.loads((REPO / ".bench_out" / f"spans_{workload}_{HELD_OUT_SEED}.json").read_text())
        assert spans.nesting_errors(recorded["spans"]) == []
        assert all(s["op"] is not None for s in recorded["spans"])
