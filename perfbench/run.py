"""tempocorr benchmark.

Run from the root of a tempocorr checkout:

    python3 perfbench/run.py --workload {cli,polytope,search} --seed N --seconds S --trace {0,1}

With ``--trace 0`` the workload runs as a closed loop with one client for at
least ``--seconds`` seconds and prints the end-to-end metrics.  With
``--trace 1`` it runs a fixed op list untraced and then traced, then one op of
every kind of the other workloads and the start-up probes, and prints the
per-layer metrics.  The last line of stdout is the JSON result; the lines
before it are the same numbers for a reader, with the provenance record.
Spans and the full result record are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import cpu_clock
from spans import NullTracer, Tracer, nesting_errors, summarize

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
PROBE_REPEATS = 3
REFERENCE_LOOP = 100_000
REFERENCE_CPUS = 4
REFERENCE_S = 0.011     # reference_s() at the usual speed of the shared 2-core machine of the baseline

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.main.simulate_witness.busy_s": "s",
    "cli.main.bounds.busy_s": "s",
    "cli.main.optimize.busy_s": "s",
    "cli.main.decompose_realize.busy_s": "s",
    "serialize.encode.busy_s": "s",
    "serialize.decode.busy_s": "s",
    "serialize.bytes_out": "bytes",
    "witness.c3_bound.cold_s": "s",
    "witness.certify.busy_s": "s",
    "realize.full_behavior.small.busy_s": "s",
    "witness.optimize_qubit.busy_s": "s",
    "witness.optimize_qubit.per_restart_s": "s",
    "witness.system_epsilon.busy_s": "s",
    "correlations.decompose_behavior.322.busy_s": "s",
    "correlations.mixture_behavior.322.busy_s": "s",
    "correlations.decompose_behavior.terms.222": "count",
    "correlations.decompose_behavior.terms.322": "count",
    "correlations.decompose_behavior.kept_ratio": "ratio",
    "correlations.decompose_behavior.222.busy_s": "s",
    "realize.mixture_realization.busy_s": "s",
    "realize.mixture_realization.dim": "count",
    "realize.full_behavior.mixture.busy_s": "s",
    "correlations.check_membership.busy_s": "s",
    "correlations.factorize.busy_s": "s",
    "correlations.compose_from_conditionals.busy_s": "s",
    "self_s.bench": "s",
    "self_s.cli": "s",
    "self_s.serialize": "s",
    "self_s.correlations": "s",
    "self_s.realize": "s",
    "self_s.witness": "s",
    "trace.untraced_throughput_ops_s": "ops/s",
    "trace.traced_throughput_ops_s": "ops/s",
    "trace.overhead_ops_s": "ops/s",
}


# --- statistics ----------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ten samples beyond it:
    (value, percentile, sample count).  Below eleven samples, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 10
    if k < 1:
        return xs[-1], 100.0, n
    return xs[k - 1], 100.0 * k / n, n


def _reference_loop() -> float:
    t0 = time.thread_time()
    s = 0
    for i in range(REFERENCE_LOOP):
        s += i * i % 7
    return time.thread_time() - t0


def reference_s() -> float:
    """CPU seconds of a fixed pure-Python loop, averaged over the CPUs this
    process may use: the machine's current speed.

    On the shared sandbox each CPU also runs slower at times, by up to half,
    when its neighbours contend for caches and cores; CPU time counts that.
    An op may run on any of the CPUs (a ``cli`` child), so the loop runs once
    pinned to each of them, or to the first ``REFERENCE_CPUS`` of a larger
    machine.  Op times are scaled by ``REFERENCE_S`` over the loop's time
    measured around each op, so runs made while the machine was slow compare
    with runs made while it was fast."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus)[:REFERENCE_CPUS]:
            os.sched_setaffinity(0, {cpu})
            times.append(_reference_loop())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


class Loop:
    """Ops run so far: (kind, latency) of those that passed, timed CPU
    seconds of all of them, and the failures.  Latencies and ``busy`` are at
    the reference speed; ``unscaled_busy`` is not."""

    def __init__(self):
        self.passed: list[tuple[str, float]] = []
        self.busy = 0.0
        self.unscaled_busy = 0.0
        self.speeds: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._ref = None

    def run(self, wl, i: int, tracer=None) -> None:
        if self._ref is None:
            self._ref = reference_s()
        self.attempted += 1
        t0 = cpu_clock()
        ok = True
        try:
            if tracer is None:
                dt = wl.run_op(i)
            else:
                with tracer.op(f"{wl.name}.{wl.kind(i)}"):
                    dt = wl.run_op(i)
        except Exception as exc:  # a failed op is counted, never aborts the run
            dt = cpu_clock() - t0
            ok = False
            self.failures.append(f"{wl.name} op {i} ({wl.kind(i)}): {type(exc).__name__}: {exc}")
        after = reference_s()
        speed = REFERENCE_S / (0.5 * (self._ref + after))
        self._ref = after
        self.speeds.append(speed)
        self.busy += dt * speed
        self.unscaled_busy += dt
        if ok:
            self.passed.append((wl.kind(i), dt * speed))

    @property
    def latencies(self) -> list[float]:
        return [dt for _kind, dt in self.passed]

    def by_kind(self) -> dict[str, list[float]]:
        kinds: dict[str, list[float]] = {}
        for kind, dt in self.passed:
            kinds.setdefault(kind, []).append(dt)
        return kinds

    @property
    def throughput(self) -> float:
        return len(self.passed) / self.busy if self.busy > 0 else 0.0


def typical_cycle(loop: Loop, cycle: tuple[str, ...]) -> list[float] | None:
    """Latencies of one cycle of the workload's op kinds, each op taking the
    median latency of its kind; None if some kind has no passed op.

    Throughput and median latency are read off this cycle.  A machine stall
    in one op then moves them no more than a slow op does, and the median
    does not jump between kinds when a run ends with one more op of one."""
    kinds = loop.by_kind()
    if any(kind not in kinds for kind in cycle):
        return None
    return [statistics.median(kinds[kind]) for kind in cycle]


def timed_loop(wl, seconds: float) -> Loop:
    """Whole cycles of the workload's op kinds until ``seconds`` have passed."""
    loop = Loop()
    t0 = time.perf_counter()
    i = 0
    while True:
        loop.run(wl, i)
        i += 1
        if i % len(wl.cycle) == 0 and time.perf_counter() - t0 >= seconds:
            break
    return loop


def warm_up(wl) -> None:
    """One untimed op of each kind, so lazy set-up and caches are done."""
    for kind in dict.fromkeys(wl.cycle):
        try:
            wl.run_op(wl.cycle.index(kind))
        except Exception:  # the same input fails again, and is counted, in the loop
            pass


# --- provenance ----------------------------------------------------------------------

def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "tempocorr").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _openblas_threads() -> int | None:
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int, input_sha256: str, ops: dict[str, int]) -> dict:
    import numpy as np

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {
            "env": {k: os.environ.get(k) for k in env},
            "openblas_runtime": _openblas_threads(),
        },
        "seed": seed,
        "input_sha256": input_sha256,
        "ops": ops,
    }


# --- start-up probes -------------------------------------------------------------------

def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _time_child(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return dt, proc


def measure_setup(workload: str, seed: int, input_sha256: str) -> tuple[float, float]:
    """Median CPU time of a fresh interpreter that imports the package and,
    except for cli, builds the workload's inputs (checked to hash the same):
    at the reference speed, and the median wall time."""
    if workload == "cli":
        cmd = [sys.executable, "-c", "import tempocorr.cli"]
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    times, walls = [], []
    ref = reference_s()
    for _ in range(SETUP_REPEATS):
        t0 = cpu_clock()
        wall, proc = _time_child(cmd)
        dt = cpu_clock() - t0
        if workload != "cli" and proc.stdout.strip() != input_sha256:
            raise RuntimeError("a fresh interpreter generated other inputs from the same seed")
        after = reference_s()
        times.append(dt * REFERENCE_S / (0.5 * (ref + after)))
        walls.append(wall)
        ref = after
    return statistics.median(times), statistics.median(walls)


def scipy_import_seconds(importtime_stderr: str) -> float:
    """Cumulative import time of the outermost scipy modules in a
    ``-X importtime`` report (children are printed before their parent)."""
    rows = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    total = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or parent[1].split(".")[0] != "scipy":
            total += cumulative
    return total / 1e6


def startup_probes(tracer) -> float:
    """Spans for the bare interpreter and the CLI import; returns the scipy
    share of the import."""
    with tracer.op("probe"):
        for _ in range(PROBE_REPEATS):
            with tracer.span("cli.interpreter"):
                _time_child([sys.executable, "-c", "pass"])
        for _ in range(PROBE_REPEATS):
            with tracer.span("cli.import"):
                _time_child([sys.executable, "-c", "import tempocorr.cli"])
        with tracer.span("cli.importtime"):
            _dt, proc = _time_child([sys.executable, "-X", "importtime", "-c", "import tempocorr.cli"])
    return scipy_import_seconds(proc.stderr)


# --- runs ------------------------------------------------------------------------------

def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def untraced_run(workloads, args) -> tuple[dict, dict, Loop]:
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, NullTracer())
    try:
        setup_s, wall_setup_s = measure_setup(args.workload, args.seed, wl.hash.hexdigest())
        if args.workload != "cli":
            warm_up(wl)
        t0 = time.perf_counter()
        loop = timed_loop(wl, args.seconds)
        wall_loop_s = time.perf_counter() - t0
    finally:
        wl.close()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    value, pct, n = tail(loop.latencies) if loop.latencies else (0.0, 0.0, 0)
    kinds = loop.by_kind()
    plain_p50 = statistics.median(loop.latencies) if loop.latencies else 0.0
    typical = typical_cycle(loop, wl.cycle)
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_s": len(typical) / sum(typical) if typical else loop.throughput,
        "latency_p50_s": statistics.median(typical) if typical else plain_p50,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    extra = {
        "latency_tail_s": value,
        "latency_tail_percentile": pct,
        "latency_samples": n,
        "error_rate": len(loop.failures) / loop.attempted,
        "wall.setup_s": wall_setup_s,
        "plain.throughput_ops_s": loop.throughput,
        "plain.latency_p50_s": plain_p50,
        "unscaled.throughput_ops_s": len(loop.passed) / loop.unscaled_busy if loop.unscaled_busy > 0 else 0.0,
        "wall.loop_s": wall_loop_s,
        "speed_p50": statistics.median(loop.speeds),
        "kind_p50_s": {k: statistics.median(v) for k, v in kinds.items()},
        "kind_max_s": {k: max(v) for k, v in kinds.items()},
        "input_sha256": wl.hash.hexdigest(),
        "ops": {args.workload: loop.attempted},
    }
    if args.workload == "cli":
        for kind in wl.cycle:
            extra[f"pipeline_s.{kind}"] = extra["kind_p50_s"].get(kind)
    return metrics, extra, loop


def traced_run(workloads, args) -> tuple[dict, dict, Loop]:
    cls = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    wl = cls(args.seed, ROOT, NullTracer())
    others = [workloads.Cli(args.seed, ROOT, tracer, in_process=True)]
    others += [w(args.seed, ROOT, tracer) for w in (workloads.Polytope, workloads.Search) if w is not cls]
    loop = Loop()
    try:
        if args.workload != "cli":
            warm_up(wl)
        plain = Loop()
        for i in range(cls.traced_ops):
            plain.run(wl, i)
        wl.tracer, wl.counters = tracer, {}
        traced = Loop()
        for i in range(cls.traced_ops):
            traced.run(wl, i, tracer)
        scipy_s = startup_probes(tracer)
        for other in others:
            for kind in dict.fromkeys(other.cycle):
                loop.run(other, other.cycle.index(kind), tracer)
    finally:
        for w in [wl, *others]:
            w.close()
    for part in (plain, traced):
        loop.attempted += part.attempted
        loop.failures += part.failures

    summary = summarize(tracer.spans)
    by_name = summary["by_name"]
    counters: dict[str, list[float]] = {}
    for w in [wl, *others]:
        for k, v in w.counters.items():
            counters.setdefault(k, []).extend(v)

    def busy(name):
        return by_name.get(name, {}).get("busy_s", 0.0)

    def p50(name):
        return by_name.get(name, {}).get("p50_s", 0.0)

    metrics = {
        "cli.interpreter_s": p50("cli.interpreter"),
        "cli.import_s": p50("cli.import"),
        "cli.import_scipy_s": scipy_s,
        **{f"cli.main.{p}.busy_s": busy(f"cli.main.{p}") for p in workloads.Cli.cycle},
        "serialize.encode.busy_s": busy("serialize.encode"),
        "serialize.decode.busy_s": busy("serialize.decode"),
        "serialize.bytes_out": _mean(counters.get("bytes_out")),
        "witness.c3_bound.cold_s": p50("witness.c3_bound.cold"),
        "witness.certify.busy_s": busy("witness.certify"),
        "realize.full_behavior.small.busy_s": busy("realize.full_behavior.small"),
        "witness.optimize_qubit.busy_s": busy("witness.optimize_qubit"),
        "witness.optimize_qubit.per_restart_s": busy("witness.optimize_qubit") / max(1, sum(counters.get("restarts", ()))),
        "witness.system_epsilon.busy_s": busy("witness.system_epsilon"),
        "correlations.decompose_behavior.322.busy_s": busy("correlations.decompose_behavior.322"),
        "correlations.mixture_behavior.322.busy_s": busy("correlations.mixture_behavior.322"),
        "correlations.decompose_behavior.terms.222": _mean(counters.get("terms.222")),
        "correlations.decompose_behavior.terms.322": _mean(counters.get("terms.322")),
        "correlations.decompose_behavior.kept_ratio": sum(counters.get("kept", ())) / max(1, sum(counters.get("enumerated", ()))),
        "correlations.decompose_behavior.222.busy_s": busy("correlations.decompose_behavior.222"),
        "realize.mixture_realization.busy_s": busy("realize.mixture_realization"),
        "realize.mixture_realization.dim": _mean(counters.get("dim")),
        "realize.full_behavior.mixture.busy_s": busy("realize.full_behavior.mixture"),
        "correlations.check_membership.busy_s": busy("correlations.check_membership"),
        "correlations.factorize.busy_s": busy("correlations.factorize"),
        "correlations.compose_from_conditionals.busy_s": busy("correlations.compose_from_conditionals"),
        **{f"self_s.{layer}": summary["self_s"].get(layer, 0.0) for layer in ("bench", "cli", "serialize", "correlations", "realize", "witness")},
        "trace.untraced_throughput_ops_s": plain.throughput,
        "trace.traced_throughput_ops_s": traced.throughput,
        "trace.overhead_ops_s": plain.throughput - traced.throughput,
    }
    nesting = nesting_errors(tracer.spans)
    if nesting:
        raise RuntimeError("spans do not nest under their ops: " + "; ".join(nesting[:5]))
    spans_file = OUT / f"spans_{args.workload}_{args.seed}.json"
    tracer.write(spans_file)
    h = hashlib.sha256(wl.hash.hexdigest().encode())
    for other in others:
        h.update(other.hash.hexdigest().encode())
    extra = {
        "spans_file": str(spans_file.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "by_name": by_name,
        "input_sha256": h.hexdigest(),
        "ops": {args.workload: plain.attempted + traced.attempted, "layer_pass": loop.attempted - plain.attempted - traced.attempted},
    }
    return metrics, extra, loop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli", "polytope", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tempocorr" / "__init__.py").is_file():
        print(f"perfbench: no src/tempocorr under {ROOT}; run from the root of a tempocorr checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.setup_probe:
        wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, NullTracer())
        wl.close()
        print(wl.hash.hexdigest())
        return 0

    run = traced_run if args.trace else untraced_run
    metrics, extra, loop = run(workloads, args)
    units = PER_LAYER if args.trace else END_TO_END
    prov = provenance(args.seed, extra.pop("input_sha256"), extra.pop("ops"))
    record = {"workload": args.workload, "trace": args.trace, "provenance": prov, "metrics": metrics, **extra}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{args.workload}_{args.seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        if name != "by_name":
            print(f"  {name} = {value}")
    print(f"  failed = {len(loop.failures)} of {loop.attempted} ops")
    for f in loop.failures:
        print(f"  FAILED {f}")
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
