"""Acceptance suite: one test per quantitative guarantee of the package.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its stated tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from tempocorr import witness as w
from tempocorr.correlations import (
    DeterministicVertex,
    Scenario,
    check_membership,
    classify_vertices,
    compose_from_conditionals,
    count_vertices,
    decompose_behavior,
    enumerate_vertices,
    factorize,
    named_vertex,
    random_conditional_chain,
    vertex_behavior,
)
from tempocorr.qmath import random_system_model
from tempocorr.realize import canonical_protocols, full_behavior, mixture_realization, qutrit_vertex_realization
from tempocorr.witness import (
    EpsilonSearchConfig,
    OptimizerConfig,
    b1_projective_profile,
    b3_profile,
    b4_envelope,
    builtin_functionals,
    c3_bound,
    certify,
    evaluate,
    optimize_qubit,
    random_strategy,
    strategy_value,
    system_epsilon,
)

F = builtin_functionals()
SAMPLE_SEED = 20260810


def report(number: int, passed: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d} {status}: {detail} ({elapsed:.2f}s)")
    assert passed, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def strategy_sample_maxima():
    """Max witness values over 10^4 seeded random qubit strategies."""
    rng = np.random.default_rng(SAMPLE_SEED)
    maxima = {name: -np.inf for name in F}
    for _ in range(10_000):
        s = random_strategy(rng)
        for name, f in F.items():
            maxima[name] = max(maxima[name], strategy_value(f, s))
    return maxima


def test_criterion_01_vertex_counting():
    t0 = time.perf_counter()
    cases = [
        (Scenario(1, 2, 2), 4),
        (Scenario(2, 2, 2), 64),
        (Scenario(2, 3, 2), 729),
        (Scenario(2, 2, 3), 4096),
        (Scenario(3, 2, 2), 16384),
    ]
    ok = True
    for scenario, expected in cases:
        count = count_vertices(scenario)
        ok &= isinstance(count, int) and count == expected
        ok &= len(enumerate_vertices(scenario, cap=10**6)) == expected
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 1.0, f"counts {[c for _, c in cases]} match enumeration", elapsed)


def test_criterion_02_classification():
    t0 = time.perf_counter()
    classes = classify_vertices(Scenario(2, 2, 2))
    orbit_ids = {name: classes.orbit_of(named_vertex(name).index) for name in ("e1", "e2", "e3", "e4")}
    ok = classes.n_orbits == 10 and len(set(orbit_ids.values())) == 4
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 1.0, f"10 orbits, e1..e4 in orbits {sorted(orbit_ids.values())}", elapsed)


def test_criterion_03_vertex_realization_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for scenario in (Scenario(2, 2, 2), Scenario(2, 3, 2)):
        for row in enumerate_vertices(scenario):
            v = DeterministicVertex(scenario, row)
            realized = full_behavior(qutrit_vertex_realization(v), 2)
            worst = max(worst, float(np.max(np.abs(realized.table - vertex_behavior(v).table))))
    elapsed = time.perf_counter() - t0
    report(3, worst < 1e-12 and elapsed < 10.0, f"793 vertices realized, max deviation {worst:.2e}", elapsed)


def test_criterion_04_mixture_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SAMPLE_SEED + 1)
    scenario = Scenario(2, 2, 2)
    worst = 0.0
    for _ in range(100):
        behavior = compose_from_conditionals(random_conditional_chain(rng, scenario))
        system = mixture_realization(decompose_behavior(behavior))
        resimulated = full_behavior(system, 2)
        worst = max(worst, float(np.max(np.abs(resimulated.table - behavior.table))))
    elapsed = time.perf_counter() - t0
    report(4, worst < 1e-9 and elapsed < 60.0, f"100 round trips, max deviation {worst:.2e}", elapsed)


def test_criterion_05_b1_bound(strategy_sample_maxima):
    t0 = time.perf_counter()
    result = optimize_qubit(F["B1"], OptimizerConfig(restarts=200, seed=7))
    sampled = strategy_sample_maxima["B1"]
    ok = 3.0 - 1e-3 <= result.value <= 3.0 + 1e-9 and sampled <= 3.0 + 1e-9
    elapsed = time.perf_counter() - t0
    report(5, ok and elapsed < 60.0, f"optimizer {result.value:.9f}, sampled max {sampled:.9f} <= 3", elapsed)


def test_criterion_06_c3_bound():
    t0 = time.perf_counter()
    bound = c3_bound()
    optimizer = optimize_qubit(F["B3"], OptimizerConfig(restarts=200, seed=7))
    ok = (
        abs(bound.value - 3.186) <= 5e-3
        and abs(bound.cos_gamma_star - 0.756) <= 5e-3
        and bound.certified
        and abs(w.nested_polynomial(bound.cos_gamma_star)) <= 1e-8
        and abs(w.b3_profile_derivative(bound.cos_gamma_star)) <= 1e-8
        and abs(optimizer.value - bound.value) <= 1e-3
    )
    elapsed = time.perf_counter() - t0
    report(
        6,
        ok and elapsed < 60.0,
        f"C3 {bound.value:.9f} at cos {bound.cos_gamma_star:.9f}, optimizer {optimizer.value:.9f}",
        elapsed,
    )


def test_criterion_07_projective_b1_maximum():
    t0 = time.perf_counter()
    xs = np.linspace(-1.0, 1.0, 100001)
    values = b1_projective_profile(xs)
    peak = float(values.max())
    arg = float(xs[int(values.argmax())])
    ok = abs(peak - (1.5 + math.sqrt(2.0))) <= 1e-9 and abs(arg) <= 1e-12
    elapsed = time.perf_counter() - t0
    report(7, ok, f"grid max {peak:.12f} at cos_gamma {arg}", elapsed)


def test_criterion_08_b4_envelope_caps():
    t0 = time.perf_counter()
    ps = np.linspace(0.0, 1.0, 401)
    xs = np.linspace(-1.0, 1.0, 1001)
    grid = b4_envelope(ps[:, None], xs[None, :])
    peak = float(grid.max())
    rank1_gap = float(np.max(np.abs(b4_envelope(1.0, xs) - b3_profile(xs))))
    ok = (
        abs(peak - 3.186) <= 5e-3
        and peak <= 2.0 + math.sqrt(2.0) + 1e-9
        and rank1_gap <= 1e-12
    )
    elapsed = time.perf_counter() - t0
    report(8, ok, f"envelope max {peak:.9f} <= {2 + math.sqrt(2):.9f}, rank-1 gap {rank1_gap:.2e}", elapsed)


def test_criterion_09_b2_bound(strategy_sample_maxima):
    t0 = time.perf_counter()
    result = optimize_qubit(F["B2"], OptimizerConfig(restarts=200, seed=7))
    sampled = strategy_sample_maxima["B2"]
    ok = (
        sampled <= 3.5 + 1e-9
        and result.value <= 3.5 + 1e-9
        and result.value >= 3.0 - 1e-3
    )
    elapsed = time.perf_counter() - t0
    report(9, ok and elapsed < 60.0, f"optimizer {result.value:.9f}, sampled max {sampled:.9f} <= 3.5", elapsed)


def test_criterion_10_epsilon_certification():
    t0 = time.perf_counter()
    e1_report = certify(vertex_behavior(named_vertex("e1")))
    ok = e1_report.epsilon_lower >= 1.0 / 12.0 - 1e-9

    protocol = canonical_protocols()["qutrit-e1"]
    b1_value = evaluate(F["B1"], full_behavior(protocol, 2))
    rng = np.random.default_rng(SAMPLE_SEED + 2)
    worst_gap = -np.inf
    for _ in range(50):
        z = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        q, _ = np.linalg.qr(z)
        estimate = system_epsilon(protocol, q @ q.conj().T, EpsilonSearchConfig(restarts=6))
        gap = b1_value - (3.0 + 12.0 * estimate + 1e-6)
        worst_gap = max(worst_gap, gap)
        ok &= gap <= 0.0
    elapsed = time.perf_counter() - t0
    report(
        10,
        ok and elapsed < 120.0,
        f"certify(e1) eps {e1_report.epsilon_lower:.6f}, worst inequality slack {-worst_gap:.3f}",
        elapsed,
    )


def test_criterion_11_arrow_of_time_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SAMPLE_SEED + 3)
    ok = True
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        settings = int(rng.integers(2, 4))
        outcomes = int(rng.integers(2, 4))
        length = int(rng.integers(1, 4))
        kraus = int(rng.integers(1, 3))
        system = random_system_model(rng, dim, settings, outcomes, kraus_per_outcome=kraus)
        behavior = full_behavior(system, length)
        ok &= check_membership(behavior).is_member
        back = compose_from_conditionals(factorize(behavior))
        worst = max(worst, float(np.max(np.abs(back.table - behavior.table))))
    ok &= worst < 1e-9
    elapsed = time.perf_counter() - t0
    report(11, ok, f"200 random systems pass membership, round-trip deviation {worst:.2e}", elapsed)
