"""The three benchmark workloads: seeded inputs, one op per call, output checks.

Every op is timed by the caller's loop through the CPU seconds it returns
(:func:`cpu_clock`); work done only to check an output happens after that
interval closes.  A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tempocorr import cli, correlations, qmath, realize, serialize, witness
from tempocorr.correlations import ConditionalChain, Scenario

from clock import cpu_clock

MATCH_TOL = 1e-9        # re-simulation and round-trip tolerance (acceptance criteria 03/04)
OPTIMIZER_TOL = 1e-3    # distance of an optimizer value from its bound (acceptance 05/06/09)
EPSILON_SLACK = 1e-6    # slack in B1 <= 3 + 12 eps (acceptance 10)
C3_TEXT = "3.1862278837"

S222 = Scenario(2, 2, 2)
S322 = Scenario(3, 2, 2)


class CheckFailed(Exception):
    """An op produced an output outside its check."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# --- seeded inputs -----------------------------------------------------------------

class InputHash:
    """SHA-256 over every generated array, in generation order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, tag: str, *arrays) -> None:
        self._h.update(tag.encode())
        for a in arrays:
            a = np.ascontiguousarray(a)
            self._h.update(f"{a.dtype.str}{a.shape}".encode())
            self._h.update(a.tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def random_levels(rng: np.random.Generator, s: Scenario) -> tuple[np.ndarray, ...]:
    """Dirichlet(1) step conditionals, shaped as in ConditionalChain."""
    levels = []
    for t in range(1, s.L + 1):
        g = rng.gamma(1.0, size=(s.S**t, s.R ** (t - 1), s.R))
        levels.append(g / g.sum(axis=2, keepdims=True))
    return tuple(levels)


def reference_table(s: Scenario, levels) -> np.ndarray:
    """p(a|x) as the product of the step conditionals, computed directly."""
    table = np.ones((s.S**s.L, s.R**s.L))
    x = np.arange(s.S**s.L)
    a = np.arange(s.R**s.L)
    for t in range(1, s.L + 1):
        xi = x // s.S ** (s.L - t)                     # setting prefix of length t
        ai = a // s.R ** (s.L - t + 1)                 # outcome prefix of length t-1
        at = (a // s.R ** (s.L - t)) % s.R             # outcome at step t
        table *= levels[t - 1][xi[:, None], ai[None, :], at[None, :]]
    return table


def random_system_arrays(rng: np.random.Generator):
    """Initial state and Kraus operators of a random system: dimension 2-4,
    2-3 settings and outcomes, 1-2 Kraus operators per outcome."""
    dim = int(rng.integers(2, 5))
    n_settings = int(rng.integers(2, 4))
    n_outcomes = int(rng.integers(2, 4))
    n_kraus = int(rng.integers(1, 3))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    kraus = rng.normal(size=(n_settings, n_outcomes, n_kraus, dim, dim)) + 1j * rng.normal(
        size=(n_settings, n_outcomes, n_kraus, dim, dim)
    )
    for x in range(n_settings):
        total = np.einsum("akji,akjl->il", kraus[x].conj(), kraus[x])
        vals, vecs = np.linalg.eigh(total)
        kraus[x] = kraus[x] @ ((vecs / np.sqrt(vals)) @ vecs.conj().T)
    return rho, kraus


def system_model(rho, kraus) -> qmath.SystemModel:
    return qmath.SystemModel(
        qmath.DensityMatrix(rho),
        tuple(qmath.validate_instrument([list(ops) for ops in kraus[x]]) for x in range(len(kraus))),
    )


def random_projector(rng: np.random.Generator, dim: int = 3) -> np.ndarray:
    """Rank-2 projector onto a Gaussian-random plane."""
    z = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
    q, _ = np.linalg.qr(z)
    return q @ q.conj().T


@contextlib.contextmanager
def counting_enumeration(sink: list):
    """Append the number of vertices ``correlations.enumerate_vertices`` hands
    out while open; the decomposition has no public count of its own."""
    original = correlations.enumerate_vertices

    def counted(*args, **kwargs):
        vertices = list(original(*args, **kwargs))
        sink.append(len(vertices))
        return vertices

    correlations.enumerate_vertices = counted
    try:
        yield
    finally:
        correlations.enumerate_vertices = original


def seeded_rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(workload.encode(), "little")])


# --- workloads -----------------------------------------------------------------------

class Workload:
    """One named workload: ``cycle`` lists the op kinds in the order they
    repeat, ``traced_ops`` is the op list of the traced run."""

    name: str
    cycle: tuple[str, ...]
    traced_ops: int

    def __init__(self, seed: int, root: Path, tracer):
        self.root = root
        self.tracer = tracer
        self.hash = InputHash()
        self.counters: dict[str, list[float]] = {}

    def count(self, name: str, value: float) -> None:
        self.counters.setdefault(name, []).append(value)

    def kind(self, i: int) -> str:
        return self.cycle[i % len(self.cycle)]

    def run_op(self, i: int) -> float:
        """Run op ``i``; return the seconds of its timed part."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Polytope(Workload):
    """Member behaviors through correlations and realize at two sizes."""

    name = "polytope"
    cycle = ("A", "A", "B", "A", "A", "A", "B", "A", "A", "C")
    traced_ops = 20
    pool = 400

    def __init__(self, seed, root, tracer):
        super().__init__(seed, root, tracer)
        rng = seeded_rng(seed, self.name)
        self.inputs = []
        for i in range(self.pool):
            kind = self.kind(i)
            if kind == "B":
                rho, kraus = random_system_arrays(rng)
                self.hash.add("B", rho, kraus)
                self.inputs.append(system_model(rho, kraus))
            else:
                s = S222 if kind == "A" else S322
                levels = random_levels(rng, s)
                self.hash.add(kind, *levels)
                self.inputs.append(levels)

    def run_op(self, i):
        kind, inp = self.kind(i), self.inputs[i % self.pool]
        return getattr(self, f"_op_{kind}")(inp)

    def _decompose(self, b, size: str):
        """decompose_behavior under its span; when tracing, also counts the
        vertices it enumerated against the terms it kept."""
        enumerated: list[int] = []
        counting = counting_enumeration(enumerated) if self.tracer.enabled else contextlib.nullcontext()
        with self.tracer.span(f"correlations.decompose_behavior.{size}"), counting:
            decomp = correlations.decompose_behavior(b)
        self.count(f"terms.{size}", len(decomp.terms))
        self.count("enumerated", sum(enumerated) or len(decomp.terms))
        self.count("kept", len(decomp.terms))
        return decomp

    def _op_A(self, levels):
        span = self.tracer.span
        chain = ConditionalChain(S222, levels)
        t0 = cpu_clock()
        with span("correlations.compose_from_conditionals"):
            b = correlations.compose_from_conditionals(chain)
        with span("correlations.check_membership"):
            report = correlations.check_membership(b)
        with span("correlations.factorize"):
            factors = correlations.factorize(b)
        decomp = self._decompose(b, "222")
        with span("realize.mixture_realization"):
            system = realize.mixture_realization(decomp)
        with span("realize.full_behavior.mixture"):
            resim = realize.full_behavior(system, 2)
        elapsed = cpu_clock() - t0
        check(max_dev(b.table, reference_table(S222, levels)) <= MATCH_TOL, "compose differs from the product of conditionals")
        check(report.is_member, "composed behavior is not a member")
        check(all(max_dev(f, l) <= MATCH_TOL for f, l in zip(factors.levels, levels)), "factorize does not invert compose")
        check(max_dev(resim.table, b.table) <= MATCH_TOL, "mixture realization re-simulates wrongly")
        self.count("dim", system.dim)
        return elapsed

    def _op_B(self, system):
        span = self.tracer.span
        t0 = cpu_clock()
        with span("realize.full_behavior.L3"):
            b = realize.full_behavior(system, 3)
        with span("correlations.check_membership"):
            report = correlations.check_membership(b)
        with span("correlations.factorize"):
            chain = correlations.factorize(b)
        with span("correlations.compose_from_conditionals"):
            back = correlations.compose_from_conditionals(chain)
        elapsed = cpu_clock() - t0
        check(report.is_member, "simulated behavior is not a member")
        check(max_dev(b.table.sum(axis=1), 1.0) <= MATCH_TOL, "simulated rows are not normalized")
        check(max_dev(back.table, b.table) <= MATCH_TOL, "factorize/compose round trip differs")
        return elapsed

    def _op_C(self, levels):
        span = self.tracer.span
        chain = ConditionalChain(S322, levels)
        t0 = cpu_clock()
        with span("correlations.compose_from_conditionals"):
            b = correlations.compose_from_conditionals(chain)
        decomp = self._decompose(b, "322")
        with span("correlations.mixture_behavior.322"):
            mix = correlations.mixture_behavior(decomp)
        elapsed = cpu_clock() - t0
        check(max_dev(b.table, reference_table(S322, levels)) <= MATCH_TOL, "compose differs from the product of conditionals")
        check(max_dev(mix.table, b.table) <= MATCH_TOL, "decomposition does not reconstruct the member")
        return elapsed


class Search(Workload):
    """The two Nelder-Mead searches of the witness layer."""

    name = "search"
    cycle = ("optimize", "epsilon")
    traced_ops = 8
    pool = 200
    restarts = 20      # B3/B4 miss C3 in ~45% of single restarts; 10 restarts failed 1 op in ~540

    def __init__(self, seed, root, tracer):
        super().__init__(seed, root, tracer)
        rng = seeded_rng(seed, self.name)
        self.inputs = []
        for i in range(self.pool):
            if self.kind(i) == "optimize":  # K in a fixed order, so every run has the same mix
                k, s = i // 2 % 4 + 1, int(rng.integers(2**31))
                self.hash.add("optimize", np.array([k, s]))
                self.inputs.append((f"B{k}", s))
            else:
                p = random_projector(rng)
                self.hash.add("epsilon", p)
                self.inputs.append(p)
        self.functionals = witness.builtin_functionals()
        c3 = witness.c3_bound().value
        self.targets = {"B1": 3.0, "B2": 3.0, "B3": c3, "B4": c3}
        self.e1 = realize.canonical_protocols()["qutrit-e1"]
        self.b1_e1 = witness.evaluate(self.functionals["B1"], realize.full_behavior(self.e1, 2))

    def run_op(self, i):
        inp = self.inputs[i % self.pool]
        if self.kind(i) == "optimize":
            name, s = inp
            t0 = cpu_clock()
            with self.tracer.span("witness.optimize_qubit"):
                res = witness.optimize_qubit(
                    self.functionals[name], witness.OptimizerConfig(restarts=self.restarts, seed=s)
                )
            elapsed = cpu_clock() - t0
            check(abs(res.value - self.targets[name]) <= OPTIMIZER_TOL, f"{name} optimum {res.value!r} is off its bound")
            self.count("restarts", self.restarts)
            return elapsed
        t0 = cpu_clock()
        with self.tracer.span("witness.system_epsilon"):
            eps = witness.system_epsilon(self.e1, inp, witness.EpsilonSearchConfig(restarts=2))
        elapsed = cpu_clock() - t0
        check(self.b1_e1 <= 3.0 + 12.0 * eps + EPSILON_SLACK, f"epsilon {eps!r} breaks B1 <= 3 + 12 eps")
        return elapsed


def _realize_deviation(stdout: str) -> float:
    for line in stdout.splitlines():
        if "re-simulation max deviation" in line:
            return float(line.rsplit(" ", 1)[1])
    raise CheckFailed("realize printed no re-simulation deviation")


class Cli(Workload):
    """The user-facing pipelines, each command a fresh ``python -m
    tempocorr.cli`` process (or, with ``in_process``, a call of
    ``tempocorr.cli.main``)."""

    name = "cli"
    cycle = ("simulate_witness", "bounds", "optimize", "decompose_realize")
    traced_ops = 4
    pool = 64
    restarts = 20

    def __init__(self, seed, root, tracer, in_process=False):
        super().__init__(seed, root, tracer)
        self.in_process = in_process
        self.work = root / ".bench_work" / f"{self.name}-{os.getpid()}-{'in' if in_process else 'sub'}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        rng = seeded_rng(seed, self.name)
        self.rounds = []
        for r in range(self.pool // len(self.cycle)):
            levels = random_levels(rng, S222)
            table = reference_table(S222, levels)
            s = int(rng.integers(2**31))
            self.hash.add("round", np.array([r % 4 + 1, s]), table)
            member = self.work / f"member-{r}.json"
            member.write_text(json.dumps({
                "L": 2, "R": 2, "S": 2,
                "table": {f"{x >> 1}{x & 1}": [float(p) for p in table[x]] for x in range(4)},
            }))
            self.rounds.append((r % 4 + 1, s, table, member))
        self.functionals = witness.builtin_functionals()
        self.protocols = realize.canonical_protocols()
        c3 = witness.c3_bound().value
        self.targets = {"B1": 3.0, "B2": 3.0, "B3": c3, "B4": c3}

    def close(self):
        for f in self.work.iterdir():
            f.unlink()
        self.work.rmdir()
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()

    def _run(self, pipeline: str, argv: list[str]) -> str:
        """One CLI command; returns its stdout, raises on a non-zero exit."""
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with self.tracer.span(f"cli.main.{pipeline}"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            with self.tracer.span(f"cli.{argv[0]}"):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "tempocorr.cli", *argv],
                    cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                )
                stdout, stderr = proc.communicate()
            code = proc.returncode
        check(code == 0, f"{' '.join(argv[:1])} exited {code}: {stderr.strip()[-300:]}")
        return stdout

    def run_op(self, i):
        k, s, table, member = self.rounds[(i // len(self.cycle)) % len(self.rounds)]
        return getattr(self, f"_op_{self.kind(i)}")(k, s, table, member)

    def _op_simulate_witness(self, k, s, table, member):
        beh, wit = self.work / "behavior.json", self.work / "witness.json"
        t0 = cpu_clock()
        self._run("simulate_witness", ["simulate", "--protocol", f"qutrit-e{k}", "--out", str(beh)])
        self._run("simulate_witness", ["witness", "--behavior", str(beh), "--functional", f"B{k}", "--format", "json", "--out", str(wit)])
        elapsed = cpu_clock() - t0
        report = json.loads(wit.read_text())
        entry = next(e for e in report["witnesses"] if e["name"] == f"B{k}")
        check(report["requested"] == f"B{k}", "witness answered another functional")
        check(abs(entry["value"] - 4.0) <= MATCH_TOL, f"B{k} on qutrit-e{k} is {entry['value']!r}, not 4")
        check(entry["verdict"] == "dimension > 2", f"verdict {entry['verdict']!r}")
        with self.tracer.span("serialize.decode"):
            b = serialize.behavior_from_json(json.loads(beh.read_text()))
        with self.tracer.span("realize.full_behavior.small"):
            ref = realize.full_behavior(self.protocols[f"qutrit-e{k}"], 2)
        with self.tracer.span("witness.certify"):
            cert = witness.certify(b)
        check(max_dev(b.table, ref.table) <= MATCH_TOL, "simulated behavior differs from the protocol")
        check(next(e.value for e in cert.entries if e.name == f"B{k}") == entry["value"], "witness value differs from certify")
        return elapsed

    def _op_bounds(self, k, s, table, member):
        if self.in_process:
            witness.c3_bound.cache_clear()
        t0 = cpu_clock()
        out = self._run("bounds", ["bounds", "--which", "C3"])
        elapsed = cpu_clock() - t0
        lines = out.splitlines()
        check(f"C3 = {C3_TEXT}" in lines, "bounds printed another C3")
        check("certified: True" in lines, "C3 is not certified")
        witness.c3_bound.cache_clear()
        with self.tracer.span("witness.c3_bound.cold"):
            c3 = witness.c3_bound()
        check(f"{c3.value:.12g}" == C3_TEXT and c3.certified, "in-process C3 differs")
        return elapsed

    def _op_optimize(self, k, s, table, member):
        opt = self.work / "optimize.json"
        t0 = cpu_clock()
        self._run("optimize", ["optimize", "--functional", f"B{k}", "--restarts", str(self.restarts), "--seed", str(s), "--out", str(opt)])
        elapsed = cpu_clock() - t0
        payload = json.loads(opt.read_text())
        check(abs(payload["value"] - self.targets[f"B{k}"]) <= OPTIMIZER_TOL, f"B{k} optimum {payload['value']!r} is off its bound")
        with self.tracer.span("serialize.decode"):
            strategy = serialize.strategy_from_json(payload["strategy"])
        with self.tracer.span("witness.strategy_value"):
            value = witness.strategy_value(self.functionals[f"B{k}"], strategy)
        check(abs(value - payload["value"]) <= MATCH_TOL, "reported optimum differs from its strategy's value")
        return elapsed

    def _op_decompose_realize(self, k, s, table, member):
        dec, system_file = self.work / "decomposition.json", self.work / "system.json"
        t0 = cpu_clock()
        self._run("decompose_realize", ["decompose", "--behavior", str(member), "--out", str(dec)])
        out = self._run("decompose_realize", ["realize", "--decomposition", str(dec), "--out", str(system_file)])
        elapsed = cpu_clock() - t0
        check(_realize_deviation(out) <= MATCH_TOL, "realize reports a re-simulation deviation above 1e-9")
        text = system_file.read_text()
        with self.tracer.span("serialize.decode"):
            decomp = serialize.decomposition_from_json(json.loads(dec.read_text()))
            system = serialize.system_model_from_json(json.loads(text))
        with self.tracer.span("correlations.mixture_behavior.222"):
            mix = correlations.mixture_behavior(decomp)
        with self.tracer.span("realize.full_behavior.mixture"):
            resim = realize.full_behavior(system, 2)
        check(max_dev(mix.table, table) <= MATCH_TOL, "decomposition does not reconstruct the member")
        if self.tracer.enabled:  # the encoder is measured, not needed for the check
            with self.tracer.span("serialize.encode"):
                encoded = serialize.dumps(serialize.system_model_to_json(system))
            check(encoded == text, "system JSON does not re-encode to the same text")
        check(max_dev(resim.table, table) <= MATCH_TOL, "realized system re-simulates wrongly")
        self.count("dim", system.dim)
        self.count("bytes_out", len(text.encode()))
        system_file.unlink()
        return elapsed


WORKLOADS = {w.name: w for w in (Cli, Polytope, Search)}
