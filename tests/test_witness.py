import contextlib
import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempocorr import bounds, errors
from tempocorr import witness as w
from tempocorr.correlations import (
    Behavior,
    DeterministicVertex,
    RelabelingGroup,
    Scenario,
    classify_vertices,
    compose_from_conditionals,
    enumerate_vertices,
    named_vertex,
    random_conditional_chain,
    relabel_behavior,
    uniform_behavior,
    vertex_behavior,
)
from tempocorr.errors import (
    DomainError,
    InvalidStrategy,
    NotAMember,
    NotAProjector,
    ParamOutOfRange,
    ScenarioMismatch,
    TableTooLarge,
)
from tempocorr.qmath import (
    DensityMatrix,
    SystemModel,
    ketbra,
    psd_sqrt,
    random_density_matrix,
    random_instrument,
    trace_norm,
    validate_instrument,
)
from tempocorr.realize import canonical_protocols, full_behavior, qutrit_vertex_realization
from tempocorr.witness import (
    EffectParams,
    EpsilonSearchConfig,
    OptimizerConfig,
    QubitStrategy,
    b1_projective_profile,
    b3_profile,
    b3_profile_derivative,
    b4_envelope,
    builtin_functionals,
    c1_bound,
    c3_bound,
    certify,
    epsilon_lower_bound,
    evaluate,
    optimize_qubit,
    random_strategy,
    strategy_system_model,
    strategy_value,
    system_epsilon,
)

S222 = Scenario(2, 2, 2)
F = builtin_functionals()

random_terms = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        st.one_of(st.sampled_from([1.0, -1.0, 0.5, -2.5, 3.0]), st.floats(-4.0, 4.0)),
    ),
    min_size=1,
    max_size=12,
).map(tuple)


def term_set(f):
    return {(t.outcomes, t.settings) for t in f.terms}


class TestFunctionals:
    def test_b1_terms(self):
        assert term_set(F["B1"]) == {
            ((0, 0), (0, 0)),
            ((0, 0), (1, 1)),
            ((0, 1), (0, 1)),
            ((0, 1), (1, 0)),
        }

    def test_b3_terms(self):
        assert term_set(F["B3"]) == {
            ((0, 1), (0, 0)),
            ((0, 0), (1, 1)),
            ((0, 1), (0, 1)),
            ((0, 1), (1, 0)),
        }

    def test_b2_b4_terms(self):
        assert term_set(F["B2"]) == {
            ((0, 1), (0, 0)),
            ((0, 1), (1, 1)),
            ((0, 0), (0, 1)),
            ((0, 0), (1, 0)),
        }
        assert term_set(F["B4"]) == {
            ((0, 1), (0, 0)),
            ((0, 1), (1, 1)),
            ((0, 1), (0, 1)),
            ((0, 0), (1, 0)),
        }

    def test_each_witness_peaks_on_its_vertex(self):
        for i in (1, 2, 3, 4):
            b = vertex_behavior(named_vertex(f"e{i}"))
            assert evaluate(F[f"B{i}"], b) == pytest.approx(4.0, abs=1e-12)

    def test_uniform_value(self):
        assert evaluate(F["B1"], uniform_behavior(S222)) == pytest.approx(1.0)

    def test_scenario_mismatch(self):
        with pytest.raises(ScenarioMismatch):
            evaluate(F["B1"], uniform_behavior(Scenario(2, 3, 2)))

    @pytest.mark.parametrize("outcomes, settings", [((0, 2), (0, 0)), ((0, -1), (1, 0)), ((0, 0), (2, 0))])
    def test_term_outside_scenario_rejected(self, outcomes, settings):
        with pytest.raises(ScenarioMismatch):
            w.WitnessFunctional("x", S222, (w.WitnessTerm(outcomes, settings, 1.0),))

    @pytest.mark.parametrize(
        "coeffs", [(math.nan,), (math.inf,), (-math.inf,), (1.0, math.nan), (1e308, 1e308)],
        ids=["nan", "inf", "-inf", "nan-second", "sum-overflows"],
    )
    def test_non_finite_coefficients_rejected(self, coeffs):
        # the message names the last term: its coefficient, or the sum of
        # |coeff| up to it, is not finite
        terms = tuple(w.WitnessTerm((0, 0), (0, x), c) for x, c in enumerate(coeffs))
        with pytest.raises(ParamOutOfRange, match=rf"^term \(0, 0\), \(0, {len(coeffs) - 1}\): coefficient"):
            w.WitnessFunctional("x", S222, terms)

    def test_linearity(self):
        rng = np.random.default_rng(30)
        from tempocorr.correlations import compose_from_conditionals, random_conditional_chain

        b1 = compose_from_conditionals(random_conditional_chain(rng, S222))
        b2 = compose_from_conditionals(random_conditional_chain(rng, S222))
        lam = 0.37
        mix = Behavior(S222, lam * b1.table + (1 - lam) * b2.table)
        for f in F.values():
            direct = evaluate(f, mix)
            linear = lam * evaluate(f, b1) + (1 - lam) * evaluate(f, b2)
            assert direct == pytest.approx(linear, abs=1e-12)


def b1_saturating_strategy() -> QubitStrategy:
    """Input 0-state; first measurement trivial but flipping, second reads z."""
    post = np.zeros((2, 2, 3))
    post[0, 0] = (0, 0, -1)   # flipped state after the trivial measurement
    post[0, 1] = (0, 0, 1)    # z readout leaves the 0-state alone
    post[1, 0] = (0, 0, 1)
    post[1, 1] = (0, 0, -1)
    return QubitStrategy(
        np.array([0.0, 0.0, 1.0]),
        post,
        (
            EffectParams(1.0, 0.0, np.array([0.0, 0.0, 1.0])),
            EffectParams(0.5, 1.0, np.array([0.0, 0.0, 1.0])),
        ),
    )


class TestStrategyValue:
    def test_saturating_strategy_reaches_three(self):
        assert strategy_value(F["B1"], b1_saturating_strategy()) == pytest.approx(3.0, abs=1e-12)

    def test_a0_zero_caps_b1_at_two(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            s = random_strategy(rng)
            dead = QubitStrategy(
                s.initial,
                s.post,
                (EffectParams(0.0, s.effects[0].b, s.effects[0].axis), s.effects[1]),
            )
            assert strategy_value(F["B1"], dead) <= 2.0 + 1e-12

    def test_matches_simulation(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            s = random_strategy(rng)
            model = strategy_system_model(s)
            b = full_behavior(model, 2)
            for f in F.values():
                assert strategy_value(f, s) == pytest.approx(evaluate(f, b), abs=1e-9)

    def test_invalid_strategy_rejected(self):
        with pytest.raises(InvalidStrategy):
            QubitStrategy(np.array([0.0, 0.0, 1.5]), np.zeros((2, 2, 3)), b1_saturating_strategy().effects)
        with pytest.raises(InvalidStrategy):
            EffectParams(0.9, 0.5, np.array([0.0, 0.0, 1.0]))

    def test_norm_messages_print_plain_floats(self):
        effects = b1_saturating_strategy().effects
        post = np.zeros((2, 2, 3))
        post[1, 0] = [0.0, 2.0, 0.0]
        cases = [
            (lambda: EffectParams(0.5, 0.5, [0.0, 0.0, 2.0]), "effect axis norm 2.0 is not 1"),
            (lambda: QubitStrategy([0.0, 0.0, 1.5], np.zeros((2, 2, 3)), effects), "initial Bloch norm 1.5 exceeds 1"),
            (lambda: QubitStrategy([0.0, 0.0, 1.0], post, effects), "post Bloch norm 2.0 exceeds 1"),
        ]
        for build, message in cases:
            with pytest.raises(InvalidStrategy) as exc:
                build()
            assert str(exc.value) == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["a", "b", "axis", "initial", "post"])
    def test_non_finite_entries_rejected(self, field, bad):
        s = b1_saturating_strategy()
        e = s.effects[0]
        post = np.array(s.post)
        post[1, 0, 2] = bad
        builds = {
            "a": lambda: EffectParams(bad, e.b, e.axis),
            "b": lambda: EffectParams(e.a, bad, e.axis),
            "axis": lambda: EffectParams(e.a, e.b, [bad, 0.0, 0.0]),
            "initial": lambda: QubitStrategy([bad, 0.0, 0.0], s.post, s.effects),
            "post": lambda: QubitStrategy(s.initial, post, s.effects),
        }
        with pytest.raises(InvalidStrategy):
            builds[field]()

    @pytest.mark.parametrize("field", ["axis", "initial", "post"])
    def test_overflowing_norms_rejected_without_warning(self, field):
        # a component of 1e155 squares past the float range: the norm is inf,
        # and numpy's overflow warning, an error under the test settings,
        # used to escape the validation
        s = b1_saturating_strategy()
        e = s.effects[0]
        post = np.array(s.post)
        post[1, 0, 2] = 1e155
        builds = {
            "axis": lambda: EffectParams(e.a, e.b, [1e155, 0.0, 0.0]),
            "initial": lambda: QubitStrategy([1e155, 0.0, 0.0], s.post, s.effects),
            "post": lambda: QubitStrategy(s.initial, post, s.effects),
        }
        with pytest.raises(InvalidStrategy, match="norm inf"):
            builds[field]()


class TestOptimizer:
    def test_b1_close_to_three(self):
        res = optimize_qubit(F["B1"], OptimizerConfig(restarts=40, seed=7))
        assert 3.0 - 1e-3 <= res.value <= 3.0 + 1e-9

    def test_b3_close_to_c3(self):
        c3 = c3_bound().value
        res = optimize_qubit(F["B3"], OptimizerConfig(restarts=40, seed=7))
        assert abs(res.value - c3) <= 1e-3

    def test_returned_strategy_reproduces_value(self):
        res = optimize_qubit(F["B2"], OptimizerConfig(restarts=20, seed=3))
        assert strategy_value(F["B2"], res.strategy) == pytest.approx(res.value, abs=1e-9)

    def test_seed_determinism(self):
        cfg = OptimizerConfig(restarts=10, seed=42)
        r1 = optimize_qubit(F["B4"], cfg)
        r2 = optimize_qubit(F["B4"], cfg)
        assert r1.value == r2.value
        assert r1.restart_index == r2.restart_index
        assert np.array_equal(r1.strategy.initial, r2.strategy.initial)
        assert np.array_equal(r1.strategy.post, r2.strategy.post)
        for e1, e2 in zip(r1.strategy.effects, r2.strategy.effects):
            assert (e1.a, e1.b) == (e2.a, e2.b)
            assert np.array_equal(e1.axis, e2.axis)

    def test_restarts_validated(self):
        with pytest.raises(ParamOutOfRange):
            optimize_qubit(F["B1"], OptimizerConfig(restarts=0))

    def test_negative_iterations_rejected(self):
        with pytest.raises(ParamOutOfRange):
            optimize_qubit(F["B1"], OptimizerConfig(restarts=1, max_iterations=-5))

    def test_negative_seed_rejected(self, monkeypatch):
        def no_search(*_args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(w, "_nelder_mead", no_search)
        with pytest.raises(ParamOutOfRange, match="seed must be >= 0"):
            optimize_qubit(F["B1"], OptimizerConfig(restarts=1, seed=-1))

    def test_restart_budget_is_inclusive(self, monkeypatch):
        # three restarts stack 3 * 6 * 5 = 90 simplex entries
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 90)
        assert optimize_qubit(F["B1"], OptimizerConfig(restarts=3, max_iterations=5)).restart_index < 3

        def no_draw(*_args):
            raise AssertionError("the restarts were seeded")

        monkeypatch.setattr(w.np.random, "default_rng", no_draw)
        with pytest.raises(TableTooLarge) as exc:
            optimize_qubit(F["B1"], OptimizerConfig(restarts=4))
        assert str(exc.value) == (
            "a simplex stack of restarts * (n+1) * n = 4 * 6 * 5 entries exceeds the cap 90"
        )
        assert exc.value.cap == 90 and exc.value.shape is None

    @pytest.mark.parametrize("restarts", [34_953, 10**12])
    def test_too_many_restarts_refused_before_allocation(self, restarts):
        # 34,952 restarts stack 1,048,560 entries, within the 2^20 budget
        assert 34_952 * 30 <= errors.MAX_TABLE_ENTRIES < 34_953 * 30
        tracemalloc.start()
        try:
            with pytest.raises(TableTooLarge, match=f"= {restarts} \\* 6 \\* 5 entries exceeds the cap 1048576"):
                optimize_qubit(F["B3"], OptimizerConfig(restarts=restarts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_counters_pinned(self):
        # pinned: any change to a step's arithmetic or order moves these first
        res = optimize_qubit(F["B3"], OptimizerConfig(restarts=20, seed=7))
        assert (res.objective_calls, res.objective_rows, res.iterations) == (207, 8_806, 205)
        assert res.shrink_steps == 2
        assert res.value_spread == 1.1862278837025162
        assert res.restarts_at_cap == 0

    def test_restarts_at_cap_counts_the_straggler(self):
        # one of B4's 200 restarts at seed 1729 creeps along the clip
        # boundary and is still running at the 2,000-iteration cap
        res = optimize_qubit(F["B4"], OptimizerConfig(restarts=200, seed=1729))
        assert (res.iterations, res.restarts_at_cap) == (2000, 1)

    @pytest.mark.parametrize("max_iterations, at_cap", [(0, 6), (1, 6), (3, 6), (2000, 0)])
    def test_restarts_at_cap_at_small_caps(self, max_iterations, at_cap):
        # a cap of 0 or 1 runs no step, so every restart is still running
        res = optimize_qubit(F["B3"], OptimizerConfig(restarts=6, seed=7, max_iterations=max_iterations))
        assert res.restarts_at_cap == at_cap

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(sorted(F)), st.integers(-900, 900))
    def test_power_of_two_scale_is_exact(self, name, k):
        # the search runs on coefficients scaled to unit size by a power of
        # two, so a functional times 2**k takes the same steps and reports
        # 2**k times the value and spread
        f = F[name]
        scaled = w.WitnessFunctional(name, S222, tuple(t._replace(coeff=math.ldexp(t.coeff, k)) for t in f.terms))
        cfg = OptimizerConfig(restarts=20, seed=7)
        base, res = optimize_qubit(f, cfg), optimize_qubit(scaled, cfg)
        assert res.value == math.ldexp(base.value, k)
        assert res.value_spread == math.ldexp(base.value_spread, k)
        assert strategy_bytes(res.strategy) == strategy_bytes(base.strategy)
        counters = ("restart_index", "objective_calls", "objective_rows", "iterations", "shrink_steps", "restarts_at_cap")
        assert [getattr(res, c) for c in counters] == [getattr(base, c) for c in counters]

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize("name", sorted(F))
    def test_decimal_scales_reach_the_maximum(self, name, scale):
        # at 1e-150 the rebuild's 1e-15 thresholds used to zero every
        # coefficient vector, and at 1e150 the squared vectors overflowed
        target = scale * (3.0 if name in ("B1", "B2") else c3_bound().value)
        f = F[name]
        scaled = w.WitnessFunctional(name, S222, tuple(t._replace(coeff=t.coeff * scale) for t in f.terms))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = optimize_qubit(scaled, OptimizerConfig(restarts=20, seed=7))
        assert abs(res.value - target) <= 1e-14 * target
        assert res.iterations < 2000

    @pytest.mark.parametrize("seed", [7, 1729])
    @pytest.mark.parametrize("name", ["B3", "B4"])
    def test_fewer_restarts_keep_the_winning_start(self, name, seed):
        # row k of the seeded start block does not depend on the restart
        # count, and each restart runs as it would alone, so the first k + 1
        # restarts of a longer search find its winner k again
        res = optimize_qubit(F[name], OptimizerConfig(restarts=200, seed=seed))
        k = res.restart_index
        prefix = optimize_qubit(F[name], OptimizerConfig(restarts=k + 1, seed=seed))
        assert (prefix.value, prefix.restart_index) == (res.value, k)
        assert strategy_bytes(prefix.strategy) == strategy_bytes(res.strategy)

    def test_zero_functional_stops_at_once(self):
        # every value is 0, within the tolerance 0 of a zero sum |coeff|
        zero = w.WitnessFunctional("zero", S222, (((0, 0), (0, 0), 0.0),))
        res = optimize_qubit(zero, OptimizerConfig(restarts=20, seed=7))
        assert (res.value, res.iterations, res.objective_calls) == (0.0, 1, 1)

    def test_empty_functional_stops_at_once(self):
        # no terms: one zero column, so every value is 0 as for a zero functional
        empty = w.WitnessFunctional("empty", S222, ())
        res = optimize_qubit(empty, OptimizerConfig(restarts=20, seed=7))
        assert (res.value, res.iterations, res.objective_calls) == (0.0, 1, 1)

    @pytest.mark.parametrize("k", [-9, -3, 3, 6])
    @pytest.mark.parametrize("name", ["B3", "random"])
    def test_stopping_rule_is_scale_free(self, name, k):
        # the tolerance scales with sum |coeff|, so a scaled functional stops
        # before the iteration cap and reaches the same value per unit scale
        f = F["B3"]
        if name == "random":
            rng = np.random.default_rng(2024)
            f = w.WitnessFunctional("random", S222, tuple(
                w.WitnessTerm(tuple(rng.integers(0, 2, 2)), tuple(rng.integers(0, 2, 2)), rng.uniform(-2, 2))
                for _ in range(6)
            ))
        scale = 10.0**k
        scaled = w.WitnessFunctional(f.name, S222, tuple(t._replace(coeff=t.coeff * scale) for t in f.terms))
        cfg = OptimizerConfig(restarts=20, seed=7)
        base, res = optimize_qubit(f, cfg), optimize_qubit(scaled, cfg)
        assert res.iterations < cfg.max_iterations
        assert res.value / scale == pytest.approx(base.value, rel=1e-14)

    def test_many_terms_evaluated_in_bounded_blocks(self):
        # 800 terms in one slot: each row's per-term table holds 3,200 entries,
        # so 2,000 restarts' 12,000 initial vertices run in blocks of 327 rows
        many = w.WitnessFunctional("many", S222, (((0, 0), (0, 0), 1.0),) * 800)
        tracemalloc.start()
        try:
            res = optimize_qubit(many, OptimizerConfig(restarts=2000, max_iterations=3))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.value == 800.0
        # four float64 tables of the entry budget
        assert peak < 32 * errors.MAX_TABLE_ENTRIES
        # the search's work buffer of 327-row blocks, some 2.5 float64 tables
        # of the entry budget, is freed with the search, not pooled; the
        # cached compiled table stays
        assert current < 4 * errors.MAX_TABLE_ENTRIES

    @settings(max_examples=20, deadline=None)
    @given(random_terms, st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 6))
    def test_blocks_leave_values_unchanged(self, terms, seed, rows, block):
        prog = w._compile_terms(terms)
        theta = gauge_rows(np.random.default_rng(seed), rows)
        whole = state_optimal_value(prog, theta)
        sizes = []
        rows_value = w._Workspace.rows_value

        def recording(ws, points, out):
            sizes.append(len(points))
            return rows_value(ws, points, out)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(errors, "MAX_TABLE_ENTRIES", 4 * prog.rows[0].size * block)
            mp.setattr(w._Workspace, "rows_value", recording)
            assert state_optimal_value(prog, theta).tobytes() == whole.tobytes()
        # full blocks of the budget's rows, then the rest
        assert sizes == [block] * (rows // block) + [rows % block] * (rows % block > 0)

    def test_term_row_budget_is_inclusive(self, monkeypatch):
        # eight terms in one slot fill a row of 4 * 8 * 1 = 32 entries
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 32)
        eight = w.WitnessFunctional("eight", S222, (((0, 0), (0, 1), 1.0),) * 8)
        assert optimize_qubit(eight, OptimizerConfig(restarts=1, max_iterations=50)).value == 8.0
        nine = w.WitnessFunctional("nine", S222, eight.terms + eight.terms[:1])
        with pytest.raises(TableTooLarge) as exc:
            optimize_qubit(nine, OptimizerConfig(restarts=1))
        assert str(exc.value) == (
            "a per-term table row of 4 * depth * slots = 4 * 9 * 1 entries exceeds the cap 32"
        )

    @pytest.mark.parametrize("restarts, max_iterations", [(1, 2000), (6, 2000), (20, 40), (5, 0)])
    def test_counters_match_a_counting_objective(self, monkeypatch, restarts, max_iterations):
        calls = []
        objective = w._Workspace.negated_values

        def counting(ws, points, out):
            calls.append(len(points))
            return objective(ws, points, out)

        monkeypatch.setattr(w._Workspace, "negated_values", counting)
        res = optimize_qubit(F["B2"], OptimizerConfig(restarts=restarts, seed=11, max_iterations=max_iterations))
        assert (res.objective_calls, res.objective_rows) == (len(calls), sum(calls))
        # the initial vertices, then per iteration one call of candidates and
        # at most one of shrunk vertices
        assert calls[0] == restarts * 6
        assert res.iterations - 1 <= len(calls) - 1 <= 2 * (res.iterations - 1)
        # every other row is one of the four candidates of a start-step
        assert (res.objective_rows - calls[0] - 5 * res.shrink_steps) % 4 == 0
        assert 0 <= 5 * res.shrink_steps <= res.objective_rows - calls[0]
        assert 1 <= res.iterations <= max(1, max_iterations)
        assert res.value_spread >= 0.0 and (restarts > 1 or res.value_spread == 0.0)

    def test_epsilon_search_config_validated(self):
        proto, proj = canonical_protocols()["qutrit-e1"], np.diag([1.0, 1.0, 0.0])
        with pytest.raises(ParamOutOfRange, match="restarts must be >= 0"):
            system_epsilon(proto, proj, EpsilonSearchConfig(restarts=-3))
        assert system_epsilon(proto, proj, EpsilonSearchConfig(restarts=0)) > 1.15

    def test_sampled_strategies_respect_bounds(self):
        rng = np.random.default_rng(33)
        c3 = c3_bound().value
        caps = {"B1": 3.0, "B2": 3.5, "B3": c3, "B4": 2.0 + math.sqrt(2.0)}
        for _ in range(2000):
            s = random_strategy(rng)
            for name, cap in caps.items():
                assert strategy_value(F[name], s) <= cap + 1e-9


def state_optimal_value(prog, theta):
    """Witness value of each row of ``(..., 5)`` gauge parameters with every
    Bloch vector at its optimum: the negation of the search's objective,
    evaluated in its blocks on a borrowed workspace."""
    th = np.asarray(theta, dtype=float)
    rows = th.reshape(-1, 5)
    out = np.empty(len(rows))
    with w._borrowed(prog, len(rows)) as ws:
        ws.negated_values(rows, out)
    return np.negative(out, out=out).reshape(th.shape[:-1])


def loop_state_optimal_value(terms, theta) -> float:
    """Per-term scalar reference for the closed-form objective on one row."""
    effects = []
    for i in (0, 4):
        u = min(max(float(theta[i]), 0.0), 1.0)
        b = min(max(float(theta[i + 1]), 0.0), 1.0)
        t, p = float(theta[i + 2]), float(theta[i + 3])
        axis = (math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t))
        effects.append((u / (1.0 + b), b, axis))
    base = {(a, x): 0.0 for a in (0, 1) for x in (0, 1)}
    wvec = {(a, x): [0.0, 0.0, 0.0] for a in (0, 1) for x in (0, 1)}
    for (a, b), (x, y), coeff in terms:
        ay, by, ny = effects[y]
        base[(a, x)] += coeff * (ay if b == 0 else 1.0 - ay)
        for i in range(3):
            wvec[(a, x)][i] += (1.0 if b == 0 else -1.0) * coeff * ay * by * ny[i]
    const, v = 0.0, [0.0, 0.0, 0.0]
    for x in (0, 1):
        ax, bx, nx = effects[x]
        top0 = base[(0, x)] + math.sqrt(sum(c * c for c in wvec[(0, x)]))
        top1 = base[(1, x)] + math.sqrt(sum(c * c for c in wvec[(1, x)]))
        const += top1 + (top0 - top1) * ax
        for i in range(3):
            v[i] += (top0 - top1) * ax * bx * nx[i]
    return const + math.sqrt(sum(c * c for c in v))


def functional_terms(name):
    return tuple((t.outcomes, t.settings, t.coeff) for t in F[name].terms)


def embed(theta):
    """General-axis rows ``[u0, b0, 0, 0, u1, b1, gamma, 0]`` of the gauge
    rows ``[u0, b0, u1, b1, gamma]``: axis 0 at polar angle 0, axis 1 at polar
    angle gamma and azimuth 0."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape[:-1] + (8,))
    out[..., [0, 1, 4, 5, 6]] = theta
    return out


def gauge_rows(rng, rows):
    """Gauge rows with u and b well outside [0, 1], some exactly 0, -0.0 or
    1, and angles many turns beyond 2 pi."""
    theta = rng.uniform(-2.0, 3.0, size=(rows, 5))
    theta[::3, [0, 3]] = rng.choice([0.0, -0.0, 1.0], size=(len(theta[::3]), 2))
    theta[:, 4] = rng.uniform(-30.0, 30.0, size=rows)
    return theta


def qubit_objective(name):
    prog = w._compile_terms(F[name].terms)
    return lambda theta: -state_optimal_value(prog, theta)


def in_place(fun):
    """``fun``, a function of an ``(m, n)`` array of points, in the form
    ``w._nelder_mead`` calls: ``fun(points, out)`` writes the values into
    ``out``."""

    def call(points, out):
        out[...] = fun(points)

    return call


def random_simplices(seed, starts, n=5, step=0.25):
    x0 = np.random.default_rng(seed).uniform(-0.5, 4.0, size=(starts, n))
    return x0[:, None, :] + np.vstack([np.zeros(n), step * np.eye(n)])


CUSTOM = w.WitnessFunctional("custom", S222, (
    ((0, 1), (1, 1), -2.5), ((0, 0), (1, 0), 0.5), ((0, 1), (1, 0), 3.0), ((1, 1), (0, 1), -1.0), ((0, 0), (1, 1), 1.25),
))


def result_bytes(res):
    """Value, spread, restart index, every counter and the strategy of a search."""
    counters = (res.restart_index, res.objective_calls, res.objective_rows, res.iterations, res.shrink_steps, res.restarts_at_cap)
    return np.float64(res.value).tobytes() + np.float64(res.value_spread).tobytes() + repr(counters).encode() + strategy_bytes(res.strategy)


def cold_search(f, cfg):
    """:func:`result_bytes` of a search on an empty cache of compiled tables."""
    w._compiled_terms.cache_clear()
    return result_bytes(optimize_qubit(f, cfg))


@pytest.fixture
def allocations(monkeypatch):
    """The sizes of the workspaces allocated while the test runs."""
    sizes = []

    class Counting(w._Workspace):
        def __init__(self, prog, size):
            sizes.append(size)
            super().__init__(prog, size)

    monkeypatch.setattr(w, "_Workspace", Counting)
    return sizes


class TestWorkspaceReuse:
    def test_interleaved_searches_equal_cold_runs(self):
        # B3 times 2**30 has B3's unit-scaled terms, so it shares B3's table
        # and workspaces; the restart counts give different row counts, and
        # a larger state_optimal_value call replaces B3's pooled workspace
        b3x = w.WitnessFunctional("B3", S222, tuple(t._replace(coeff=math.ldexp(t.coeff, 30)) for t in F["B3"].terms))
        functionals = [F["B1"], F["B2"], F["B3"], F["B4"], CUSTOM, b3x]
        cfgs = [OptimizerConfig(restarts=restarts, seed=seed) for restarts, seed in ((20, 7), (3, 1729), (7, 11))]
        cold = {(i, j): cold_search(f, cfg) for i, f in enumerate(functionals) for j, cfg in enumerate(cfgs)}
        theta = gauge_rows(np.random.default_rng(5), 500)
        scaled = tuple((t.outcomes, t.settings, t.coeff / 4) for t in F["B3"].terms)
        values = state_optimal_value(w._compile_terms(scaled), theta)
        w._compiled_terms.cache_clear()
        for _ in range(2):
            for j, cfg in enumerate(cfgs):
                for i, f in enumerate(functionals):
                    assert result_bytes(optimize_qubit(f, cfg)) == cold[i, j], (f.name, cfg)
                shared = w._compiled_terms(scaled, np.array([c for *_, c in scaled]).tobytes(), errors.MAX_TABLE_ENTRIES)
                assert state_optimal_value(shared, theta).tobytes() == values.tobytes()

    def test_threads_on_one_functional_equal_cold_runs(self, allocations, monkeypatch):
        f = F["B4"]
        cfgs = [OptimizerConfig(restarts=restarts, seed=seed) for restarts, seed in ((20, 7), (5, 3), (12, 1729))]
        cold = [cold_search(f, cfg) for cfg in cfgs]
        allocations.clear()
        results, failures = [], []

        def run(offset):
            try:
                for i in range(6):
                    j = (i + offset) % len(cfgs)
                    results.append((j, result_bytes(optimize_qubit(f, cfgs[j]))))
            except Exception as exc:  # reported by the assertions below
                failures.append(exc)

        # each thread's first search waits, holding its workspace, until all
        # four hold one, so the searches overlap
        meeting, borrowed, first = threading.Barrier(4, timeout=60), w._borrowed, threading.local()

        @contextlib.contextmanager
        def meet(prog, rows):
            with borrowed(prog, rows) as ws:
                if not hasattr(first, "met"):
                    first.met = True
                    meeting.wait()
                yield ws

        monkeypatch.setattr(w, "_borrowed", meet)
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert sorted(j for j, _ in results) == sorted(list(range(len(cfgs))) * 8)
        assert all(got == cold[j] for j, got in results)
        # four workspaces held at once, of which at most one was idle
        assert len(allocations) >= 3

    def test_kept_views_are_capped(self, monkeypatch):
        # a workspace keeps the views of at most _KEPT_VIEWS row counts; the
        # dropped ones are taken again, and the search does not change
        cfg = OptimizerConfig(restarts=20, seed=7)
        cold = cold_search(F["B3"], cfg)
        kept = []
        rows_value = w._Workspace.rows_value

        def recording(ws, points, out):
            rows_value(ws, points, out)
            kept.append(len(ws.evaluators))

        monkeypatch.setattr(w, "_KEPT_VIEWS", 3)
        monkeypatch.setattr(w._Workspace, "rows_value", recording)
        w._compiled_terms.cache_clear()
        assert result_bytes(optimize_qubit(F["B3"], cfg)) == cold
        assert max(kept) == 3

    @pytest.mark.parametrize("interrupted_copy", [1, 2])
    def test_interrupted_reset_is_redone(self, monkeypatch, interrupted_copy):
        # an interrupt between the two copies of a change of row count, to
        # the initial vertices' 120 rows or from them to the first
        # candidates' 80, leaves a coefficient block unwritten; the next
        # search, whose first call has 120 rows, writes it again
        cfg = OptimizerConfig(restarts=20, seed=7)
        cold = cold_search(F["B3"], cfg)
        copyto, copies = np.copyto, []

        def interrupted(dst, src, *args, **kwargs):
            if np.ndim(src) == 4:  # the coefficient block
                copies.append(dst.shape[-1])
                if len(copies) == interrupted_copy:
                    raise KeyboardInterrupt
            return copyto(dst, src, *args, **kwargs)

        w._compiled_terms.cache_clear()
        monkeypatch.setattr(np, "copyto", interrupted)  # bound by the views taken from now on
        try:
            with pytest.raises(KeyboardInterrupt):
                optimize_qubit(F["B3"], cfg)
            assert copies == [120, 80][:interrupted_copy]
            assert result_bytes(optimize_qubit(F["B3"], cfg)) == cold
        finally:
            w._compiled_terms.cache_clear()  # drops the views bound to the patch

    def test_repeated_default_search_views_nothing(self, allocations, monkeypatch):
        # a 200-restart search of B3 at seed 7 views 70 row counts, all of
        # which its workspace keeps for the next search
        viewed = []
        evaluator = w._evaluator

        def counting_views(ws, m):
            viewed.append(m)
            return evaluator(ws, m)

        monkeypatch.setattr(w, "_evaluator", counting_views)
        w._compiled_terms.cache_clear()
        cfg = OptimizerConfig(restarts=200, seed=7)
        first = result_bytes(optimize_qubit(F["B3"], cfg))
        assert allocations == [1200] and len(viewed) == len(set(viewed)) == 70
        allocations.clear()
        viewed.clear()
        assert result_bytes(optimize_qubit(F["B3"], cfg)) == first
        assert allocations == [] and viewed == []

    def test_search_allocates_work_blocks_once(self, allocations, monkeypatch):
        # the evaluator used to be rebuilt each time a restart stopped and
        # twice around every shrink, 14-21 times per search
        viewed = []
        evaluator = w._evaluator

        def counting_views(ws, m):
            viewed.append(m)
            return evaluator(ws, m)

        monkeypatch.setattr(w, "_evaluator", counting_views)
        w._compiled_terms.cache_clear()
        cfg = OptimizerConfig(restarts=20, seed=7)
        for name in sorted(F):
            optimize_qubit(F[name], cfg)
            # one buffer for the 6 * 20 initial vertices, viewed once per row count
            assert allocations == [120] and len(viewed) == len(set(viewed))
            allocations.clear()
            viewed.clear()
        for name in sorted(F):
            optimize_qubit(F[name], cfg)
        assert allocations == [] and viewed == []


class TestLockstepNelderMead:
    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(sorted(F)),
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.integers(0, 120),
    )
    def test_starts_are_independent(self, name, seed, starts, maxiter):
        fun = qubit_objective(name)
        simplices = random_simplices(seed, starts)
        xs, fs = w._nelder_mead(in_place(fun), simplices, maxiter, 1e-13)
        for k in range(starts):
            x1, f1 = w._nelder_mead(in_place(fun), simplices[k : k + 1], maxiter, 1e-13)
            assert np.array_equal(xs[k], x1[0])
            assert fs[k] == f1[0]

    @pytest.mark.parametrize("maxiter", [0, 1])
    def test_no_iteration_returns_best_initial_vertex(self, maxiter):
        fun = qubit_objective("B3")
        simplices = random_simplices(5, 4)
        xs, fs = w._nelder_mead(in_place(fun), simplices, maxiter, 1e-13)
        for k, sim in enumerate(simplices):
            values = fun(sim)
            best = int(np.argmin(values))
            assert np.array_equal(xs[k], sim[best])
            assert fs[k] == values[best]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_converges_on_convex_quadratic(self, seed, n):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        hess = m @ m.T + n * np.eye(n)
        center = rng.normal(size=n)

        def fun(x):
            d = x - center
            return np.einsum("mi,ij,mj->m", d, hess, d)

        stats = {}
        xs, fs = w._nelder_mead(in_place(fun), random_simplices(seed, 3, n=n, step=1.0), 5000, 1e-14, stats)
        # every start stops on its values, near the minimum 0; the Hessian's
        # eigenvalues are at least n, so the value bounds the distance too
        assert stats["iterations"] < 5000
        assert np.all(fs <= 1e-12)
        assert np.all(np.sum((xs - center) ** 2, axis=1) <= 1e-12 / n)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(sorted(F)), st.integers(0, 2**32 - 1))
    def test_batched_objective_matches_loop_reference(self, name, seed):
        theta = gauge_rows(np.random.default_rng(seed), 64)
        terms = functional_terms(name)
        batched = state_optimal_value(w._compile_terms(terms), theta)
        reference = np.array([loop_state_optimal_value(terms, row) for row in embed(theta)])
        assert np.max(np.abs(batched - reference)) <= 1e-15

    def test_reconstructed_strategy_attains_objective(self):
        prog = w._compile_terms(F["B4"].terms)
        theta = np.random.default_rng(9).uniform(0.0, 3.0, size=5)
        s = w._reconstruct_strategy(F["B4"].terms, theta)
        assert strategy_value(F["B4"], s) == pytest.approx(
            float(state_optimal_value(prog, theta)), abs=1e-12
        )

    def test_start_runs_on_while_its_worst_value_is_far(self):
        # the vertices lie within 1e-12 of each other, but the worst value is
        # 1 above the others: the start takes one more step, where the
        # reflection ties them
        def step(x):
            return (x[:, 0] > 0.5e-12).astype(float)

        simplex = np.vstack([np.zeros(3), 1e-12 * np.eye(3)])[None]
        for nelder_mead, fun in ((w._nelder_mead, in_place(step)), (reference_nelder_mead, step)):
            stats = {}
            xs, fs = nelder_mead(fun, simplex, 50, 1e-13, stats)
            assert stats["iterations"] == 2 and fs[0] == 0.0

    @pytest.mark.parametrize("maxiter", [1, 2, 5, 40])
    @pytest.mark.parametrize(
        "objective", [qubit_objective("B3"), lambda x: (x**2).sum(axis=1)], ids=["B3", "quadratic"]
    )
    def test_at_most_two_calls_per_iteration(self, objective, maxiter):
        # a negative tolerance: no start can converge, so all maxiter - 1 iterations run
        calls = []

        def counting(x):
            calls.append(len(x))
            return objective(x)

        w._nelder_mead(in_place(counting), random_simplices(3, 5), maxiter, -1.0)
        assert maxiter <= len(calls) <= 1 + 2 * (maxiter - 1)


def reference_b3_profile(x):
    """The B3 profile by its own formula, for ``x`` in [-1, 1]."""
    x0 = 2.0 + np.sqrt(np.clip(2.0 + 2.0 * x, 0.0, None))
    x1 = 2.0 + np.sqrt(np.clip(2.0 - 2.0 * x, 0.0, None))
    return 0.25 * (x0 + x1 + np.sqrt(np.clip(x0**2 + x1**2 + 2.0 * x0 * x1 * x, 0.0, None)))


_TINY = 2.0**-1074  # the least subnormal
ENVELOPE_EDGES = {
    "p": [0.0, -0.0, 1.0, _TINY, 2.0**-1030, 2.0**-1022, math.nextafter(1.0, 0.0)],
    "x": [
        0.0, -0.0, 1.0, -1.0, _TINY, -_TINY, 2.0**-1030, -(2.0**-1030),
        math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0), c3_bound().cos_gamma_star,
    ],
}


class TestProfiles:
    def test_b1_orthogonal_axes(self):
        assert b1_projective_profile(0.0) == pytest.approx(1.5 + math.sqrt(2.0), abs=1e-15)

    def test_b1_aligned_axes(self):
        assert b1_projective_profile(1.0) == pytest.approx(2.0, abs=1e-12)
        assert b1_projective_profile(-1.0) == pytest.approx(2.0, abs=1e-12)

    def test_b1_grid_max_at_zero(self):
        xs = np.linspace(-1.0, 1.0, 100001)
        ys = b1_projective_profile(xs)
        assert float(ys.max()) == pytest.approx(1.5 + math.sqrt(2.0), abs=1e-9)
        assert xs[int(ys.argmax())] == pytest.approx(0.0, abs=1e-12)

    def test_b3_endpoints(self):
        # frozen by hand: X0=4, X1=2 gives (4+2+6)/4; X0=2, X1=4 gives (2+4+2)/4
        assert b3_profile(1.0) == pytest.approx(3.0, abs=1e-12)
        assert b3_profile(-1.0) == pytest.approx(2.0, abs=1e-12)

    def test_b3_near_reported_maximum(self):
        assert b3_profile(0.756) == pytest.approx(3.186, abs=5e-3)

    def test_b3_profile_is_the_b4_envelope_at_rank_one(self):
        # bit for bit, and both equal the profile's own former formula
        one = math.nextafter(1.0, 0.0)
        edges = [1.0, -1.0, 0.0, -0.0, one, -one, 5e-324, -5e-324, c3_bound().cos_gamma_star]
        xs = np.concatenate([np.linspace(-1.0, 1.0, 2_000_001), edges])
        bits = b3_profile(xs).view(np.uint64)
        assert np.array_equal(bits, b4_envelope(1.0, xs).view(np.uint64))
        assert np.array_equal(bits, reference_b3_profile(xs).view(np.uint64))
        for x in edges:
            value = b3_profile(x)
            assert type(value) is float and math.copysign(1.0, value) == 1.0
            assert value == b4_envelope(1.0, x) == float(reference_b3_profile(np.float64(x)))

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.sampled_from(ENVELOPE_EDGES["p"]), st.floats(0.0, 1.0)),
        st.one_of(st.sampled_from(ENVELOPE_EDGES["x"]), st.floats(-1.0, 1.0)),
    )
    def test_scalar_envelope_is_the_array_envelope(self, p, x):
        """The one envelope formula on floats (the C3 certificate's profile)
        and on numpy arrays (the profiles and tables) gives the same bits."""
        value = bounds._envelope(p, x, bounds._root)
        assert type(value) is float
        assert value.hex() == b4_envelope(p, x).hex()
        assert value.hex() == float(b4_envelope(np.array([p]), np.array([x]))[0]).hex()

    def test_scalar_b3_profile_is_the_array_profile(self):
        xs = np.linspace(-1.0, 1.0, 100_001)
        scalar = np.array([bounds._b3_profile(x) for x in xs.tolist()])
        assert np.array_equal(scalar.view(np.uint64), b3_profile(xs).view(np.uint64))

    def test_b4_grid_max_and_cap(self):
        ps = np.linspace(0.0, 1.0, 201)
        xs = np.linspace(-1.0, 1.0, 401)
        grid = b4_envelope(ps[:, None], xs[None, :])
        assert float(grid.max()) == pytest.approx(3.186, abs=5e-3)
        assert float(grid.max()) <= 2.0 + math.sqrt(2.0) + 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            b1_projective_profile(1.5)
        with pytest.raises(DomainError):
            b4_envelope(-0.2, 0.0)
        with pytest.raises(DomainError):
            b3_profile_derivative(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_arguments_are_domain_errors(self, bad):
        calls = [
            lambda: b1_projective_profile(bad),
            lambda: b3_profile(bad),
            lambda: b3_profile(np.array([0.0, bad])),
            lambda: b3_profile_derivative(bad),
            lambda: b4_envelope(bad, 0.0),
            lambda: b4_envelope(0.5, bad),
        ]
        for call in calls:
            with pytest.raises(DomainError):
                call()


def poly_mul(a, b):
    """Product of two polynomials given by ascending integer coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def rational_root_polynomials(draw):
    """(ascending integer coefficients, their distinct real roots): a product of
    factors (q x - p), one per distinct rational root p/q in [-1, 1], some
    roots with a twin 10**-6 above, at most one factor repeated, and
    optionally the root-free factor x**2 + 1 and a nonzero integer scale."""
    roots = draw(st.lists(st.fractions(-1, 1, max_denominator=10**4), max_size=5))
    twins = [r + Fraction(1, 10**6) for r in roots if r + Fraction(1, 10**6) <= 1 and draw(st.booleans())]
    roots = sorted(set(roots + twins))
    coeffs = [draw(st.sampled_from([1, -1, 3, -7]))]
    for r in roots + draw(st.lists(st.sampled_from(roots), max_size=1) if roots else st.just([])):
        coeffs = poly_mul(coeffs, [-r.numerator, r.denominator])
    if draw(st.booleans()):
        coeffs = poly_mul(coeffs, [1, 0, 1])
    return tuple(coeffs), roots


class TestBounds:
    def test_c1(self):
        res = c1_bound()
        assert res.value == 3.0
        assert res.projective_maximum == pytest.approx(1.5 + math.sqrt(2.0), abs=1e-15)

    def test_c3_location_and_value(self):
        res = c3_bound()
        assert res.value == pytest.approx(3.186, abs=5e-3)
        assert res.cos_gamma_star == pytest.approx(0.756, abs=5e-3)
        assert res.certified

    def test_c3_double_certification(self):
        res = c3_bound()
        x = res.cos_gamma_star
        assert abs(w.nested_polynomial(x)) <= 1e-8
        # x is the nearest float to a simple root: the polynomial changes sign,
        # exactly, between the floats on either side of it
        coeffs = w.expanded_polynomial_coefficients()
        below, above = (math.nextafter(x, t).as_integer_ratio() for t in (-2.0, 2.0))
        assert w._sign(coeffs, *below) * w._sign(coeffs, *above) == -1
        assert abs(b3_profile_derivative(x)) <= 1e-8
        assert b3_profile(1.0) <= 3.0 + 1e-12
        assert b3_profile(-1.0) <= 3.0 + 1e-12

    def test_expanded_coefficients_match_nested_everywhere(self):
        coeffs = w.expanded_polynomial_coefficients()
        assert coeffs == (1, -42, -531, -1520, -96, 3048, 1924, -608, -384, 256, 256)
        for x in [Fraction(k, 50) for k in range(-50, 51)] + [Fraction(3, 7), Fraction(-10**6 + 1, 10**6)]:
            assert sum(c * x**i for i, c in enumerate(coeffs)) == w.nested_polynomial(x)

    def test_c3_roots_pinned(self):
        fresh = w.c3_bound.__wrapped__()
        assert fresh == c3_bound()
        assert fresh.polynomial_roots == (
            -0.9381909152362428, -0.7636349883131843, -0.29406244182209407,
            -0.16016455901873877, 0.01899809547418186, 0.7562852034957998,
        )
        assert (fresh.value, fresh.cos_gamma_star) == (3.186227883702517, 0.7562852034957998)
        assert fresh.certified

    def test_certified_needs_both_ends_at_or_below_the_maximum(self, monkeypatch):
        profile = bounds._b3_profile
        monkeypatch.setattr(bounds, "_b3_profile", lambda x: 3.5 if abs(x) == 1.0 else profile(x))
        res = w.c3_bound.__wrapped__()
        assert not res.certified and res.value == c3_bound().value

    def test_isolating_intervals_of_c3_roots(self):
        found = w._real_roots(w.expanded_polynomial_coefficients())
        assert len(found) == 6
        for (r, lo, hi), (_, next_lo, _) in zip(found, found[1:] + [(None, Fraction(2), None)]):
            assert -1 < lo < r < hi < 1 and hi - lo <= Fraction(1, 2**20) and hi <= next_lo
        surviving = [r for r, lo, hi in found if b3_profile_derivative(float(lo)) > 0 > b3_profile_derivative(float(hi))]
        assert surviving == [c3_bound().cos_gamma_star]

    def test_roots_a_millionth_apart(self):
        # one grid cell of a 10**4-point sign scan holds both roots
        coeffs = poly_mul([-300000, 10**6], [-300001, 10**6])
        found = w._real_roots(coeffs)
        assert [r for r, _, _ in found] == [0.3, 0.300001]
        assert found[0][2] <= found[1][1]

    @pytest.mark.parametrize(
        "coeffs",
        [(5,), (1, 0, 1), (1, 0, 2, 0, 1), (-6, 1, 1), (-(10**6) - 1, 10**6), (10**6 + 1, 10**6)],
        ids=["constant", "x2+1", "(x2+1)^2", "roots-2-and-3", "just-above-1", "just-below-minus-1"],
    )
    def test_no_real_roots_in_range(self, coeffs):
        assert w._real_roots(coeffs) == []

    @settings(max_examples=60, deadline=None)
    @given(rational_root_polynomials())
    @example(((-1, 0, 1), [Fraction(-1), Fraction(1)])).via("roots at both ends")
    @example(((0, 1), [Fraction(0)])).via("a root at 0, hit by the first halving")
    @example(((0, 0, 1), [Fraction(0)])).via("a double root at 0")
    @example(((-1, 3, -3, 1), [Fraction(1)])).via("a triple root at 1")
    @example(((1, 2, 1), [Fraction(-1)])).via("a double root at -1")
    def test_real_roots_of_products_of_rational_factors(self, case):
        """Every distinct root is found once, as the float nearest to it
        (within 1 ulp of p/q, in fact equal to the correctly rounded p/q), in
        an interval of width <= 2**-20 that holds it; a repeated root is
        counted once."""
        coeffs, roots = case
        found = w._real_roots(coeffs)
        assert [r for r, _, _ in found] == [x.numerator / x.denominator for x in roots]
        for (r, lo, hi), x in zip(found, roots):
            assert abs(r - x.numerator / x.denominator) <= math.ulp(r)
            assert hi - lo <= Fraction(1, 2**20)
            assert lo < x <= hi or x == lo == -1

    def test_spurious_roots_rejected_by_derivative(self):
        res = c3_bound()
        others = [r for r in res.polynomial_roots if abs(r - res.cos_gamma_star) > 1e-6]
        assert others  # squaring really did create extra roots
        for r in others:
            assert abs(b3_profile_derivative(r)) > 1e-3


class TestEpsilon:
    def test_direct_substitution(self):
        assert epsilon_lower_bound(4.0, 3.0).lower == pytest.approx(1 / 12, abs=1e-15)

    def test_below_bound_gives_zero(self):
        assert epsilon_lower_bound(2.5, 3.0).lower == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.sampled_from([-1e-9, 0.0, 4.0, 4.0 + 0.9e-9, 4.0 + 1e-9]), st.floats(-1e-9, 4.0 + 1e-9)),
        st.one_of(st.sampled_from([w.C1_VALUE, w.B2_ANALYTIC_CAP, w.B4_ANALYTIC_CAP]), st.floats(0.0, 4.0)),
    )
    def test_lower_bound_never_exceeds_cap(self, b_value, c_value):
        # a value above 4 by rounding used to give a lower bound above the cap
        eps = epsilon_lower_bound(b_value, c_value)
        assert 0.0 <= eps.lower <= eps.cap == (4.0 - c_value) / 12.0

    def test_with_computed_c3(self):
        c3 = c3_bound().value
        eps = epsilon_lower_bound(3.5, c3)
        assert eps.lower == pytest.approx((3.5 - c3) / 12.0, abs=1e-15)
        assert eps.lower == pytest.approx(0.0262, abs=5e-4)
        assert eps.lower <= eps.cap

    def test_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            epsilon_lower_bound(4.5, 3.0)


def embedded_qubit_model() -> SystemModel:
    """A three-level model whose states and outputs all live on levels 0 and 1."""
    x_block = np.zeros((3, 3), dtype=complex)
    x_block[0, 1] = x_block[1, 0] = 1.0
    funnel = ketbra(0, 2, 3)  # sends stray level-2 amplitude into the subspace
    flip = validate_instrument([[x_block, funnel], [np.zeros((3, 3), complex)]])
    readout = validate_instrument([[ketbra(0, 0, 3), funnel], [ketbra(1, 1, 3)]])
    return SystemModel(DensityMatrix(ketbra(0, 0, 3)), (flip, readout))


class TestSystemEpsilon:
    def test_projector_validation(self):
        proto = canonical_protocols()["qutrit-e1"]
        with pytest.raises(NotAProjector):
            system_epsilon(proto, np.diag([1.0, 0.5, 0.0]))
        with pytest.raises(NotAProjector):
            system_epsilon(proto, np.diag([1.0, 1.0, 1.0]))
        bad = np.zeros((3, 3), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(NotAProjector):
            system_epsilon(proto, bad)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_projector_rejected(self, entry):
        proto = canonical_protocols()["qutrit-e1"]
        with pytest.raises(NotAProjector):
            system_epsilon(proto, np.diag([1.0, 1.0, entry]))

    def test_overflowing_projector_rejected(self):
        # finite, Hermitian and of trace 2, but P @ P - P overflows to NaN
        proto = canonical_protocols()["qutrit-e1"]
        huge = np.zeros((3, 3), dtype=complex)
        huge[0, 0] = huge[1, 1] = 1.0
        huge[0, 1] = 1e300 * (1 + 1j)
        huge[1, 0] = 1e300 * (1 - 1j)
        with np.errstate(all="ignore"), pytest.raises(NotAProjector):
            system_epsilon(proto, huge)

    @pytest.mark.parametrize(
        "entries, message",
        [
            (((0, 1, 1e300 * (1 + 1j)), (1, 0, 1e300 * (1 - 1j))), "projector is not idempotent"),
            (((0, 2, 1e308), (2, 0, -1e308)), "projector is not Hermitian"),
            (((0, 2, 1e308), (2, 0, 1e308)), "projector is not idempotent"),
        ],
    )
    def test_overflowing_projector_warns_nothing(self, entries, message):
        # finite entries whose Hermiticity defect or P @ P - P overflows
        proj = np.diag([1.0, 1.0, 0.0]).astype(complex)
        for i, j, value in entries:
            proj[i, j] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAProjector) as exc:
                system_epsilon(canonical_protocols()["qutrit-e1"], proj)
        assert str(exc.value) == message

    def test_returns_plain_float(self):
        for name, proto in canonical_protocols().items():
            proj = np.diag([1.0, 1.0] + [0.0] * (proto.dim - 2))
            assert type(system_epsilon(proto, proj)) is float, name

    def test_embedded_qubit_with_aligned_projector(self):
        model = embedded_qubit_model()
        aligned = np.diag([1.0, 1.0, 0.0]).astype(complex)
        assert system_epsilon(model, aligned) <= 1e-9

    def test_aligned_projector_beats_random(self):
        model = embedded_qubit_model()
        aligned = np.diag([1.0, 1.0, 0.0]).astype(complex)
        rng = np.random.default_rng(34)
        z = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        q, _ = np.linalg.qr(z)
        random_proj = q @ q.conj().T
        cfg = EpsilonSearchConfig(restarts=4)
        assert system_epsilon(model, aligned, cfg) < system_epsilon(model, random_proj, cfg)

    def test_e1_protocol_certifies_twelfth(self):
        proto = canonical_protocols()["qutrit-e1"]
        rng = np.random.default_rng(35)
        z = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        q, _ = np.linalg.qr(z)
        est = system_epsilon(proto, q @ q.conj().T, EpsilonSearchConfig(restarts=4))
        assert est >= 1 / 12 - 1e-3

    def test_bound_plus_deviation_dominates_witnesses(self):
        # B_i <= C_i + 12 eps(P) for any subspace P, using the analytic caps
        import math as m

        from tempocorr.qmath import random_system_model

        c3 = c3_bound().value
        caps = {"B1": 3.0, "B2": 3.5, "B3": c3, "B4": 2.0 + m.sqrt(2.0)}
        rng = np.random.default_rng(36)
        for _ in range(4):
            sys_model = random_system_model(rng, 3, 2, 2)
            behavior = full_behavior(sys_model, 2)
            z = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            q, _ = np.linalg.qr(z)
            est = system_epsilon(sys_model, q @ q.conj().T, EpsilonSearchConfig(restarts=4))
            for name, cap in caps.items():
                value = evaluate(builtin_functionals()[name], behavior)
                assert value <= cap + 12.0 * est + 1e-6


def leakage(kraus, proj, psi):
    """f = sqrt(a (a + 4 b)), a = |Q K psi|^2, b = |P K psi|^2, per row of unit vectors psi."""
    phi = psi @ kraus.T
    inside = phi @ proj.T
    a = np.sum(np.abs(phi - inside) ** 2, axis=1)
    b = np.sum(np.abs(inside) ** 2, axis=1)
    return np.sqrt(a * (a + 4.0 * b))


def branch_leakage(kraus_ops, proj, psi):
    """Trace-norm leakage ||P rho P - rho||_1 of the branch output
    rho = sum_k K_k psi psi^dag K_k^dag, per row of unit vectors psi."""
    phis = [psi @ k.T for k in kraus_ops]
    rho = sum(phi[:, :, None] * phi[:, None, :].conj() for phi in phis)
    leak = proj @ rho @ proj - rho
    return np.sum(np.abs(np.linalg.eigvalsh(leak)), axis=1)


def random_projector(rng, dim):
    z = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
    q, _ = np.linalg.qr(z)
    return q @ q.conj().T


def random_branch(dim, seed):
    """One Kraus operator of a random instrument and a random rank-2 projector."""
    rng = np.random.default_rng(seed)
    kraus = random_instrument(rng, dim, 2).kraus_sets[0][0]
    return kraus, random_projector(rng, dim), rng


# --- reference pipeline ------------------------------------------------------------
#
# The optimizer with one objective call per candidate kind and a Python loop
# over the terms.  The batched optimizer must reproduce it bit for bit.

def reference_nelder_mead(fun, simplex, maxiter, fatol, stats=None):
    sim = np.asarray(simplex, dtype=float)
    starts, n1, n = sim.shape
    fsim = fun(sim.reshape(-1, n)).reshape(starts, n1)
    rows = np.arange(starts)[:, None]
    order = np.argsort(fsim, axis=1, kind="stable")
    s, fs = sim[rows, order], fsim[rows, order]
    best_x, best_f = s[:, 0].copy(), fs[:, 0].copy()

    rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    active = np.arange(starts)
    iterations, shrinks = 1, 0
    while iterations < maxiter:
        done = np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= fatol
        if done.any():
            best_x[active[done]], best_f[active[done]] = s[done, 0], fs[done, 0]
            active, s, fs = active[~done], s[~done], fs[~done]
            if not active.size:
                break

        xbar = np.add.reduce(s[:, :-1], axis=1) / n
        worst = s[:, -1]
        xr = (1 + rho) * xbar - rho * worst
        fxr = fun(xr)
        expand = fxr < fs[:, 0]
        reflect = ~expand & (fxr < fs[:, -2])
        outside = ~expand & ~reflect & (fxr < fs[:, -1])
        inside = ~(expand | reflect | outside)

        probe = np.where(
            expand[:, None],
            (1 + rho * chi) * xbar - rho * chi * worst,
            np.where(
                outside[:, None],
                (1 + psi * rho) * xbar - psi * rho * worst,
                (1 - psi) * xbar + psi * worst,
            ),
        )
        fprobe = np.full_like(fxr, np.inf)
        if not reflect.all():
            fprobe[~reflect] = fun(probe[~reflect])
        take_probe = (
            (expand & (fprobe < fxr))
            | (outside & (fprobe <= fxr))
            | (inside & (fprobe < fs[:, -1]))
        )
        take_reflect = reflect | (expand & ~take_probe)
        s[take_reflect, -1], fs[take_reflect, -1] = xr[take_reflect], fxr[take_reflect]
        s[take_probe, -1], fs[take_probe, -1] = probe[take_probe], fprobe[take_probe]

        shrink = (outside | inside) & ~take_probe
        if shrink.any():
            shrinks += int(shrink.sum())
            best = s[shrink, :1]
            shrunk = best + sigma * (s[shrink, 1:] - best)
            s[shrink, 1:] = shrunk
            fs[shrink, 1:] = fun(shrunk.reshape(-1, n)).reshape(-1, n1 - 1)
        iterations += 1

        order = np.argsort(fs, axis=1, kind="stable")
        rows = rows[: active.size]
        s, fs = s[rows, order], fs[rows, order]
    best_x[active], best_f[active] = s[:, 0], fs[:, 0]
    if stats is not None:
        stats["iterations"], stats["shrinks"] = iterations, shrinks
    return best_x, best_f


def reference_effect_params(theta):
    """a, b and the unit axes of general rows ``[u, b, polar, azimuth]`` per
    setting, or of gauge rows ``[u0, b0, u1, b1, gamma]``."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] == 5:
        u = np.minimum(np.maximum(theta[..., [0, 2]], 0.0), 1.0)
        b = np.minimum(np.maximum(theta[..., [1, 3]], 0.0), 1.0)
        axis = np.zeros(theta.shape[:-1] + (2, 3))
        axis[..., 0, 2] = 1.0
        axis[..., 1, 0] = np.sin(theta[..., 4])
        axis[..., 1, 2] = np.cos(theta[..., 4])
        return u / (1.0 + b), b, axis
    theta = theta.reshape(theta.shape[:-1] + (2, 4))
    u = np.minimum(np.maximum(theta[..., 0], 0.0), 1.0)
    b = np.minimum(np.maximum(theta[..., 1], 0.0), 1.0)
    t, p = theta[..., 2], theta[..., 3]
    st = np.sin(t)
    axis = np.empty(t.shape + (3,))
    axis[..., 0] = st * np.cos(p)
    axis[..., 1] = st * np.sin(p)
    axis[..., 2] = np.cos(t)
    return u / (1.0 + b), b, axis


def reference_post_coefficients(terms, a, b, axis):
    base = np.zeros(a.shape[:-1] + (2, 2))
    wvec = np.zeros(a.shape[:-1] + (2, 2, 3))
    for (oa, ob), (x, y), coeff in terms:
        sign = 1.0 if ob == 0 else -1.0
        base[..., oa, x] += coeff * (a[..., y] if ob == 0 else 1.0 - a[..., y])
        wvec[..., oa, x, :] += (sign * coeff * a[..., y] * b[..., y])[..., None] * axis[..., y, :]
    return base, wvec


def reference_norm3(v):
    return np.sqrt(v[..., 0] ** 2 + v[..., 1] ** 2 + v[..., 2] ** 2)


def reference_state_optimal_value(terms, theta):
    a, b, axis = reference_effect_params(theta)
    base, wvec = reference_post_coefficients(terms, a, b, axis)
    top = base + reference_norm3(wvec)
    diff = top[..., 0, :] - top[..., 1, :]
    const = (top[..., 1, 0] + diff[..., 0] * a[..., 0]) + (top[..., 1, 1] + diff[..., 1] * a[..., 1])
    v = (diff[..., 0] * a[..., 0] * b[..., 0])[..., None] * axis[..., 0, :] + (
        diff[..., 1] * a[..., 1] * b[..., 1]
    )[..., None] * axis[..., 1, :]
    return const + reference_norm3(v)


def reference_reconstruct_strategy(terms, theta):
    """Optimal states for the effects of ``theta``; (0, 0, 1) where every unit
    vector is optimal."""
    a, b, axis = reference_effect_params(theta)
    base, wvec = reference_post_coefficients(terms, a, b, axis)
    post = np.zeros((2, 2, 3))
    post[..., 2] = 1.0
    tops = base.copy()
    for ax in np.ndindex(2, 2):
        norm = float(np.linalg.norm(wvec[ax]))
        if norm > 1e-15:
            post[ax] = wvec[ax] / norm
        tops[ax] += float(np.dot(wvec[ax], post[ax]))
    v = np.zeros(3)
    for x in (0, 1):
        v += (tops[0, x] - tops[1, x]) * a[x] * b[x] * axis[x]
    initial = np.array([0.0, 0.0, 1.0])
    if float(np.linalg.norm(v)) > 1e-15:
        initial = v / np.linalg.norm(v)
    effects = tuple(EffectParams(a[x], b[x], axis[x]) for x in (0, 1))
    return QubitStrategy(initial, post, effects)


def unit_axis(polar, azimuth):
    return (math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth), math.cos(polar))


def gauge_row(general):
    """The gauge row ``[u0, b0, u1, b1, gamma]`` of a general row, gamma the
    angle between its two axes."""
    u0, b0, t0, p0, u1, b1, t1, p1 = (float(v) for v in general)
    n0, n1 = unit_axis(t0, p0), unit_axis(t1, p1)
    cos_gamma = n0[0] * n1[0] + n0[1] * n1[1] + n0[2] * n1[2]
    return [u0, b0, u1, b1, math.acos(min(max(cos_gamma, -1.0), 1.0))]


def unit_power_of_two(total):
    """2**k with (total * 2**k)**2 in (1/2, 2], decided in exact rational
    arithmetic, k within [-1022, 1022]; 1 for a total of 0."""
    if total == 0.0:
        return 1.0
    mantissa, exp = math.frexp(total)
    k = -exp + (Fraction(mantissa) ** 2 <= Fraction(1, 2))
    return 2.0 ** min(max(k, -1022), 1022)


def reference_optimize_qubit(f, cfg):
    """Value, restart index, strategy, iterations, shrinks and value spread of
    the reference pipeline, for any functional's terms.  The search runs on
    the terms scaled by a power of two to sum |coeff| near 1, and the spread
    is scaled back."""
    scale = unit_power_of_two(sum(abs(t.coeff) for t in f.terms))
    terms = tuple((t.outcomes, t.settings, t.coeff * scale) for t in f.terms)
    theta0 = np.random.default_rng(cfg.seed).uniform(size=(cfg.restarts, 5))
    theta0[:, 4] = np.arccos(2.0 * theta0[:, 4] - 1.0)
    simplices = theta0[:, None, :] + np.vstack([np.zeros(5), w._INITIAL_STEP * np.eye(5)])
    stats = {}
    fatol = 2 * np.finfo(float).eps * sum(abs(coeff) for *_, coeff in terms)
    thetas, fvals = reference_nelder_mead(
        lambda theta: -reference_state_optimal_value(terms, theta),
        simplices, cfg.max_iterations, fatol, stats,
    )
    k = int(np.argmin(fvals))
    strategy = reference_reconstruct_strategy(terms, thetas[k])
    return SimpleNamespace(
        value=strategy_value(f, strategy), restart_index=k, strategy=strategy,
        iterations=stats["iterations"], shrink_steps=stats["shrinks"],
        value_spread=float(fvals.max() - fvals.min()) / scale,
    )


def strategy_bytes(s):
    parts = [s.initial.tobytes(), s.post.tobytes()]
    for e in s.effects:
        parts += [np.float64(e.a).tobytes(), np.float64(e.b).tobytes(), e.axis.tobytes()]
    return b"".join(parts)


class TestReferenceParity:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(F)), st.integers(0, 2**32 - 1), st.integers(1, 64))
    def test_objective_matches_reference_on_builtins(self, name, seed, rows):
        theta = gauge_rows(np.random.default_rng(seed), rows)
        prog = w._compile_terms(F[name].terms)
        terms = functional_terms(name)
        batched = state_optimal_value(prog, theta)
        assert batched.tobytes() == reference_state_optimal_value(terms, theta).tobytes()
        assert batched.tobytes() == reference_state_optimal_value(terms, embed(theta)).tobytes()
        assert state_optimal_value(prog, theta[0]) == reference_state_optimal_value(terms, embed(theta[0]))

    @settings(max_examples=60, deadline=None)
    @given(random_terms, st.integers(0, 2**32 - 1), st.integers(1, 32))
    def test_objective_matches_reference_on_random_functionals(self, terms, seed, rows):
        # repeated slots and non-unit coefficients: each slot still sums in term order
        theta = gauge_rows(np.random.default_rng(seed), rows)
        batched = state_optimal_value(w._compile_terms(terms), theta)
        assert batched.tobytes() == reference_state_optimal_value(terms, embed(theta)).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        random_terms,
        st.lists(
            st.tuples(
                *[st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-2.0, 3.0))] * 4,
                st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi, 2 * math.pi]), st.floats(-40.0, 40.0)),
            ),
            min_size=1,
            max_size=24,
        ),
    )
    def test_gauge_objective_equals_general_oracles_on_embedded_rows(self, terms, rows):
        # the gauge row [u0, b0, u1, b1, gamma] is the general row with axis 0
        # at polar angle 0 and axis 1 at polar angle gamma, azimuth 0
        theta = np.array(rows)
        batched = state_optimal_value(w._compile_terms(terms), theta)
        assert batched.tobytes() == reference_state_optimal_value(terms, embed(theta)).tobytes()
        loop = np.array([loop_state_optimal_value(terms, row) for row in embed(theta)])
        assert np.max(np.abs(batched - loop)) <= 1e-15 * max(1.0, np.max(np.abs(loop)))

    @settings(max_examples=60, deadline=None)
    @given(random_terms, st.integers(0, 2**32 - 1))
    def test_value_depends_on_the_axes_only_through_their_angle(self, terms, seed):
        # general rows, angles many turns beyond 2 pi: the value of the
        # general-axis reference is that of the gauge row, gamma from n0 . n1
        general = np.random.default_rng(seed).uniform(-20.0, 20.0, size=(16, 8))
        general[:, [0, 1, 4, 5]] = np.random.default_rng(seed + 1).uniform(-0.5, 1.5, size=(16, 4))
        gauge = np.array([gauge_row(row) for row in general])
        value = state_optimal_value(w._compile_terms(terms), gauge)
        scale = max(1.0, sum(abs(c) for *_, c in terms))
        assert np.max(np.abs(value - reference_state_optimal_value(terms, general))) <= 1e-12 * scale

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(sorted(F)),
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(0, 400),
        st.sampled_from([0.05, 0.25, 1.0]),
    )
    def test_nelder_mead_matches_reference(self, name, seed, starts, maxiter, step):
        fun = qubit_objective(name)
        simplices = random_simplices(seed, starts, step=step)
        xs, fs = w._nelder_mead(in_place(fun), simplices, maxiter, 1e-13)
        ref_xs, ref_fs = reference_nelder_mead(fun, simplices, maxiter, 1e-13)
        assert np.array_equal(xs, ref_xs)
        assert np.array_equal(fs, ref_fs)

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(sorted(F)),
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(0, 600),
    )
    def test_optimize_qubit_matches_reference(self, name, seed, restarts, max_iterations):
        cfg = OptimizerConfig(restarts=restarts, seed=seed, max_iterations=max_iterations)
        assert_optimizer_matches_reference(F[name], cfg)

    @settings(max_examples=15, deadline=None)
    @given(random_terms, st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 600))
    def test_optimize_qubit_matches_reference_on_random_functionals(self, terms, seed, restarts, max_iterations):
        f = w.WitnessFunctional("random", S222, terms)
        cfg = OptimizerConfig(restarts=restarts, seed=seed, max_iterations=max_iterations)
        assert_optimizer_matches_reference(f, cfg)

    @pytest.mark.parametrize("seed", [7, 1729])
    @pytest.mark.parametrize("name", sorted(F))
    def test_optimize_qubit_matches_reference_at_twenty_restarts(self, name, seed):
        # the CLI and benchmark shape: 20 lockstep restarts, many stopping mid-run
        assert_optimizer_matches_reference(F[name], OptimizerConfig(restarts=20, seed=seed))

    @settings(max_examples=15, deadline=None)
    @given(random_terms)
    def test_reconstructed_strategy_matches_reference_on_signed_zeros(self, random_functional):
        # u of -0.0 gives a = -0.0, and gamma of +-0.0 gives an axis component
        # of +-0.0; each slot's sums start from 0.0, so post vectors keep the
        # reference's +0.0 where a single term contributes -0.0
        rng = np.random.default_rng(17)
        u, b = [-0.0, 0.0, 0.3, 1.0, 1.7], [0.0, -0.0, 0.4, 1.0]
        choices = [u, b, u, b, [0.0, -0.0, 1.1, math.pi, -2.0]]
        functionals = [functional_terms(name) for name in sorted(F)] + [
            (((0, 1), (1, 1), -2.5), ((0, 0), (1, 0), 0.5), ((1, 1), (0, 1), -1.0)),
            random_functional,
        ]
        for terms in functionals:
            for _ in range(60):
                theta = np.array([rng.choice(c) for c in choices])
                s = w._reconstruct_strategy(terms, theta)
                ref = reference_reconstruct_strategy(terms, theta)
                assert strategy_bytes(s) == strategy_bytes(ref), (terms, theta)

    @pytest.mark.parametrize("rows", sorted({4 * a for a in range(1, 41)} | {5 * k for k in range(1, 21)}))
    def test_objective_matches_reference_at_loop_row_counts(self, rows):
        # 4 candidates per running start (up to 40), 5 shrunk vertices per
        # shrinking one (up to 20)
        theta = gauge_rows(np.random.default_rng(rows), rows)
        functionals = [functional_terms(name) for name in sorted(F)] + [
            (((0, 1), (1, 1), -2.5), ((0, 0), (1, 0), 0.5), ((0, 1), (1, 0), 3.0), ((1, 1), (0, 1), -1.0)),
            (((1, 0), (0, 1), 1.0), ((1, 0), (0, 1), -0.25), ((1, 1), (0, 0), 2.0)),
        ]
        for terms in functionals:
            batched = state_optimal_value(w._compile_terms(terms), theta)
            assert batched.tobytes() == reference_state_optimal_value(terms, embed(theta)).tobytes()


def assert_optimizer_matches_reference(f, cfg):
    res = optimize_qubit(f, cfg)
    ref = reference_optimize_qubit(f, cfg)
    assert (res.value, res.restart_index, res.iterations) == (ref.value, ref.restart_index, ref.iterations)
    assert (res.shrink_steps, res.value_spread) == (ref.shrink_steps, ref.value_spread)
    assert strategy_bytes(res.strategy) == strategy_bytes(ref.strategy)


def nelder_mead_simplex(x0):
    """The customary default Nelder-Mead simplex around each row of ``x0``:
    each coordinate in turn scaled by 1.05, or set to 0.00025 where it is 0."""
    n = x0.shape[1]
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    idx = np.arange(n)
    sim[:, idx + 1, idx] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    return sim


def assert_no_input_exceeds(f, dim, hi, rng):
    """No sampled unit input, nor any Nelder-Mead polish of the best eight,
    gives a value of ``f`` above ``hi``."""
    psi = rng.normal(size=(200, dim)) + 1j * rng.normal(size=(200, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    sampled = f(psi)
    assert sampled.max() <= hi

    def negf(x):
        v = x[:, :dim] + 1j * x[:, dim:]
        return -f(v / np.linalg.norm(v, axis=1, keepdims=True))

    best = psi[np.argsort(-sampled)[:8]]
    simplex = nelder_mead_simplex(np.hstack([best.real, best.imag]))
    _x, fvals = w._nelder_mead(in_place(negf), simplex, 500, 1e-15)
    assert -fvals.min() <= hi


def single_kraus_embedded_qubit() -> SystemModel:
    """Every branch has one Kraus operator, and every one maps into levels 0 and 1."""
    x_block = np.zeros((3, 3), dtype=complex)
    x_block[0, 1] = x_block[1, 0] = 1.0
    flip = validate_instrument([[x_block], [ketbra(0, 2, 3)]])
    readout = validate_instrument([[ketbra(0, 0, 3)], [ketbra(1, 1, 3) + ketbra(0, 2, 3)]])
    return SystemModel(DensityMatrix(ketbra(0, 0, 3)), (flip, readout))


def measure_and_prepare(rng, dim):
    """Kraus operators of rho -> Tr(E rho) sigma for a random effect E and a
    random mixed state sigma; returns them, E and sigma."""
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    effect = (u * rng.uniform(size=dim)) @ u.conj().T
    sigma = random_density_matrix(rng, dim).matrix
    vals, vecs = np.linalg.eigh(sigma)
    root = psd_sqrt(effect)
    ops = [
        math.sqrt(max(float(vals[j]), 0.0)) * np.outer(vecs[:, j], root[k, :])
        for j in range(dim)
        for k in range(dim)
    ]
    return ops, effect, sigma


class TestLeakageBracket:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_bracket_is_ordered_and_narrow(self, dim, seed):
        kraus, proj, _rng = random_branch(dim, seed)
        lo, hi = w._leakage_bracket([kraus], proj)
        assert lo <= hi
        assert hi - lo <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_no_input_exceeds_hi(self, dim, seed):
        kraus, proj, rng = random_branch(dim, seed)
        _lo, hi = w._leakage_bracket([kraus], proj)
        assert_no_input_exceeds(lambda psi: leakage(kraus, proj, psi), dim, hi, rng)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 3), st.integers(0, 2**32 - 1))
    def test_no_multi_kraus_input_exceeds_hi(self, dim, n_ops, seed):
        rng = np.random.default_rng(seed)
        ops = random_instrument(rng, dim, 2, n_ops).kraus_sets[0]
        proj = random_projector(rng, dim)
        lo, hi = w._leakage_bracket(ops, proj)
        assert lo <= hi
        assert_no_input_exceeds(lambda psi: branch_leakage(ops, proj, psi), dim, hi, rng)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_measure_and_prepare_bound_not_below_exact(self, seed):
        # the largest leakage of rho -> Tr(E rho) sigma is lambda_max(E) ||P sigma P - sigma||_1
        rng = np.random.default_rng(seed)
        ops, effect, sigma = measure_and_prepare(rng, 3)
        proj = random_projector(rng, 3)
        exact = np.linalg.eigvalsh(effect)[-1] * trace_norm(proj @ sigma @ proj - sigma)
        assert w._leakage_bracket(ops, proj)[1] >= exact

    def test_no_leak_into_subspace_gives_top_eigenvalue(self):
        # P K = 0, so c = a and f = a, whose largest value is |A| = 1.25
        kraus = np.zeros((3, 3), dtype=complex)
        kraus[2, :2] = [1.0, 0.5]
        lo, hi = w._leakage_bracket([kraus], np.diag([1.0, 1.0, 0.0]).astype(complex))
        assert type(lo) is float and type(hi) is float
        assert lo <= hi
        assert abs(hi - 1.25) <= 1e-12

    def test_vertex_realizations_close_on_flat_faces(self):
        # the branches of the (2,2,2) vertex realizations are partial
        # isometries, whose ranges W have flat faces that the chord normal closes
        rng = np.random.default_rng(29)
        projs = [random_projector(rng, 3) for _ in range(10)]
        for row in enumerate_vertices(S222):
            v = DeterministicVertex(S222, row)
            for inst in qutrit_vertex_realization(v).instruments:
                for ops in inst.kraus_sets:
                    for proj in projs:
                        lo, hi = w._leakage_bracket(ops, proj)
                        assert hi - lo <= 1e-12, (v.outcomes, proj)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 3), st.floats(-4.0, 4.0), st.integers(0, 2**32 - 1))
    def test_scaled_operators(self, dim, n_ops, exponent, seed):
        rng = np.random.default_rng(seed)
        ops = [k * 10.0**exponent for k in random_instrument(rng, dim, 2, n_ops).kraus_sets[0]]
        proj = random_projector(rng, dim)
        lo, hi = w._leakage_bracket(ops, proj)
        assert lo <= hi
        assert_no_input_exceeds(lambda psi: branch_leakage(ops, proj, psi), dim, hi, rng)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_large_leakage_stops_once_the_bracket_collapses(self, dim, n_ops, seed):
        # f grows as 1e6: the bracket collapses to rounding far above _JNR_WIDTH
        rng = np.random.default_rng(seed)
        ops = [k * 1e3 for k in random_instrument(rng, dim, 2, n_ops).kraus_sets[0]]
        proj = random_projector(rng, dim)
        rounds = []
        eigh = np.linalg.eigh

        def counted_eigh(m):
            rounds.append(len(m))
            return eigh(m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigh", counted_eigh)
            lo, hi = w._leakage_bracket(ops, proj)
        assert 0 < len(rounds) < w._JNR_ROUNDS
        assert lo <= hi
        assert_no_input_exceeds(lambda psi: branch_leakage(ops, proj, psi), dim, hi, rng)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_rank_deficient_operators(self, zero):
        # K sends e0 out of the subspace and e1 into it, and row 1 is zero: A and
        # C - A have orthogonal ranges, so top eigenvectors can lie in ker A, where
        # a is 0 or rounds below it and c / a or -dc / da is negative or undefined.
        # f = sqrt(x (4 - 3 x)) with x = |(U psi)_0|^2, largest 2 / sqrt(3) for every rotation U
        rng = np.random.default_rng(43)
        kraus = np.full((3, 3), zero, dtype=complex)
        kraus[0, 1] = kraus[2, 0] = 1.0
        aligned = np.diag([1.0, 1.0, 0.0]).astype(complex)
        for k in range(21):
            u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0] if k else np.eye(3)
            lo, hi = w._leakage_bracket([kraus @ u], aligned)
            assert lo <= hi
            assert abs(hi - 2.0 / math.sqrt(3.0)) <= 1e-12, k

    def test_many_kraus_operators_form_no_stacked_projector(self):
        # 400 operators on C^4: the (1600 x 1600) complex matrix 1 (x) P would take 41 MB
        rng = np.random.default_rng(37)
        ops = random_instrument(rng, 4, 1, 400).kraus_sets[0]
        proj = random_projector(rng, 4)
        tracemalloc.start()
        try:
            w._leakage_bracket(ops, proj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_qutrit_e1_optimum_inside_flat_face(self):
        # the optimum 2/sqrt(3) lies inside the face a + b = 1 of the range
        proto = canonical_protocols()["qutrit-e1"]
        eps = system_epsilon(proto, np.diag([1.0, 1.0, 0.0]))
        assert abs(eps - 2.0 / math.sqrt(3.0)) <= 1e-12

    def test_aligned_single_kraus_embedded_qubit(self):
        model = single_kraus_embedded_qubit()
        aligned = np.diag([1.0, 1.0, 0.0]).astype(complex)
        assert system_epsilon(model, aligned) <= 1e-12


def reference_verdict(name, value, bound, kind, cap):
    """The ten fields of a verdict as certify once stored them."""
    at_edge = min(max(value, -1e-9), 4.0 + 1e-9)
    eps = epsilon_lower_bound(at_edge, bound)
    certified = epsilon_lower_bound(at_edge, cap).lower
    return (name, value, bound, kind, cap, value > bound + 1e-9, value > cap + 1e-9, eps.lower, eps.cap, certified)


def verdict_fields(e):
    return (
        e.name, e.value, e.bound, e.bound_kind, e.analytic_cap, e.violates_bound,
        e.certified_dimension_above_2, e.epsilon_lower, e.epsilon_cap, e.epsilon_certified,
    )


def certification_behaviors():
    """e1..e4, the canonical protocols, all 64 (2,2,2) vertices and 200
    seeded random members, each moved toward a vertex so that some are
    certified."""
    yield from (vertex_behavior(named_vertex(name)) for name in ("e1", "e2", "e3", "e4"))
    yield from (full_behavior(model, 2) for model in canonical_protocols().values())
    yield from (vertex_behavior(DeterministicVertex(S222, row)) for row in enumerate_vertices(S222))
    rng = np.random.default_rng(2024)
    for i in range(200):
        member = compose_from_conditionals(random_conditional_chain(rng, S222))
        vertex = vertex_behavior(DeterministicVertex.from_index(S222, i % 64))
        weight = rng.uniform(0.0, 1.0)
        yield Behavior(S222, weight * vertex.table + (1.0 - weight) * member.table)


class TestCertify:
    def test_derived_fields_match_the_stored_ones(self):
        elements = RelabelingGroup.full(S222).elements
        for b in certification_behaviors():
            report = certify(b)
            every = []
            for g in elements:
                image = relabel_behavior(b, g)
                for e in report.entries:
                    every.append(reference_verdict(e.name, evaluate(F[e.name], image), e.bound, e.bound_kind, e.analytic_cap))
            assert [verdict_fields(e) for e in report.entries] == every[:4]
            assert report.verdict == ("dimension > 2" if any(r[6] for r in every) else "qubit-compatible")
            assert report.epsilon_lower == max(r[9] for r in every)
            # the first element in group order, then the first witness, of largest epsilon
            k = max(range(len(every)), key=lambda i: every[i][9])
            assert (verdict_fields(report.certified_by), report.relabeling) == (every[k], elements[k // 4])

    @pytest.mark.parametrize("value", [-1.0, -1e-9 - 1e-12, -5e-10, 0.0, 3.0 + 1e-9, 3.5, 4.0, 4.0 + 5e-10, 4.0 + 1e-6])
    def test_derived_fields_clamp_the_value(self, value):
        # a member's rounded entries may take a value just outside [0, 4]
        e = w.WitnessVerdict("B2", value, 3.0, "numerically supported", 3.5)
        assert verdict_fields(e) == reference_verdict("B2", value, 3.0, "numerically supported", 3.5)

    def test_certifying_image_named_on_the_orbits_of_e1_to_e4(self):
        # every vertex of the four orbits is certified by its named vertex's
        # witness on the first image in group order that is that vertex
        elements = RelabelingGroup.full(S222).elements
        named = {named_vertex(f"e{i}").index: f"B{i}" for i in range(1, 5)}
        seen = 0
        for orbit in classify_vertices(S222).orbits:
            (k0,) = [k for k in orbit if k in named] or [None]
            if k0 is None:
                continue
            target = vertex_behavior(DeterministicVertex.from_index(S222, k0)).table
            for k in orbit:
                b = vertex_behavior(DeterministicVertex.from_index(S222, k))
                report = certify(b)
                first = next(g for g in elements if np.array_equal(relabel_behavior(b, g).table, target))
                assert (report.certified_by.name, report.relabeling) == (named[k0], first), k
                assert report.certified_by.value == 4.0 and report.certified_by.certified_dimension_above_2
                assert report.relabeled == (k != k0)
                text = report.to_text().splitlines()
                assert text[-1].startswith("certified by B") == (k != k0)
                seen += 1
        assert seen == 24

    def test_e1_behavior(self):
        report = certify(vertex_behavior(named_vertex("e1")))
        assert report.verdict == "dimension > 2"
        assert report.epsilon_lower >= 1 / 12 - 1e-9
        b1 = next(e for e in report.entries if e.name == "B1")
        assert b1.certified_dimension_above_2
        assert b1.epsilon_lower == pytest.approx(1 / 12, abs=1e-12)

    def test_saturating_protocol_is_compatible(self):
        report = certify(full_behavior(canonical_protocols()["qubit-B1-3"], 2))
        assert report.verdict == "qubit-compatible"
        assert all(not e.certified_dimension_above_2 for e in report.entries)

    def test_uniform_behavior(self):
        report = certify(uniform_behavior(S222))
        assert report.verdict == "qubit-compatible"
        assert report.epsilon_lower == 0.0
        assert all(e.epsilon_lower == 0.0 for e in report.entries)

    def test_b2_b4_flagged_numerically_supported(self):
        report = certify(uniform_behavior(S222))
        kinds = {e.name: e.bound_kind for e in report.entries}
        assert kinds["B1"] == "analytic"
        assert kinds["B3"] == "analytic"
        assert kinds["B2"] == "numerically supported"
        assert kinds["B4"] == "numerically supported"

    def test_epsilon_never_exceeds_cap(self):
        for name in ("e1", "e2", "e3", "e4"):
            report = certify(vertex_behavior(named_vertex(name)))
            for e in report.entries:
                assert e.epsilon_lower <= e.epsilon_cap + 1e-15

    def test_verdict_up_to_relabeling(self):
        # a qubit reaching any relabeling image of e1..e4 would reach e1..e4:
        # the 24 vertices of their orbits are certified as their named vertex
        # is, and the 40 others are not
        named = {named_vertex(name).index: name for name in ("e1", "e2", "e3", "e4")}
        certified = 0
        for orbit in classify_vertices(S222).orbits:
            (name,) = [named[k] for k in orbit if k in named] or [None]
            expected = certify(vertex_behavior(named_vertex(name))) if name else None
            for k in orbit:
                report = certify(vertex_behavior(DeterministicVertex.from_index(S222, k)))
                if name:
                    assert report.verdict == "dimension > 2", k
                    assert report.epsilon_lower == expected.epsilon_lower
                    certified += 1
                else:
                    assert (report.verdict, report.epsilon_lower) == ("qubit-compatible", 0.0), k
        assert certified == 24

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 63), st.floats(0.5, 1.0), st.integers(0, 7))
    def test_overall_verdict_is_relabeling_invariant(self, seed, k, weight, g):
        # a random member moved toward a vertex, so that some are certified
        member = compose_from_conditionals(random_conditional_chain(np.random.default_rng(seed), S222))
        vertex = vertex_behavior(DeterministicVertex.from_index(S222, k))
        b = Behavior(S222, weight * vertex.table + (1.0 - weight) * member.table)
        image = relabel_behavior(b, RelabelingGroup.full(S222).elements[g])
        before, after = certify(b), certify(image)
        assert (after.verdict, after.epsilon_lower) == (before.verdict, before.epsilon_lower)

    def test_rejects_non_member(self):
        table = np.zeros((4, 4))
        table[0, 0] = table[1, 3] = table[2, 0] = table[3, 0] = 1.0
        with pytest.raises(NotAMember):
            certify(Behavior(S222, table))

    def test_rejects_wrong_scenario(self):
        with pytest.raises(ScenarioMismatch):
            certify(uniform_behavior(Scenario(2, 3, 2)))

    def test_text_rendering(self):
        text = certify(vertex_behavior(named_vertex("e1"))).to_text()
        assert "B1" in text and "dimension > 2" in text
