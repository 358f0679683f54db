import gc
import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempocorr import correlations as co
from tempocorr.correlations import (
    ConditionalChain,
    ConvexDecomposition,
    DeterministicVertex,
    Scenario,
    decompose_behavior,
    mixture_behavior,
    named_vertex,
    random_conditional_chain,
    compose_from_conditionals,
    vertex_behavior,
)
from tempocorr import errors, realize, serialize
from tempocorr.errors import (
    DimensionMismatch,
    EmptyDecomposition,
    SpectrumOutOfRange,
    TableTooLarge,
    UnsupportedLength,
)
from tempocorr.qmath import (
    DensityMatrix,
    SystemModel,
    effect_from_params,
    ketbra,
    random_density_matrix,
    random_instrument,
    random_system_model,
    validate_effect,
    validate_instrument,
)
from tempocorr.realize import (
    canonical_protocols,
    full_behavior,
    mixture_realization,
    qutrit_vertex_realization,
    run_sequence,
)
from tempocorr.serialize import system_model_to_json
from tempocorr.witness import builtin_functionals, evaluate

S222 = Scenario(2, 2, 2)
ZERO2 = np.zeros((2, 2), dtype=complex)


class TestRunSequence:
    def test_b1_protocol_repeated_zero(self):
        proto = canonical_protocols()["qubit-B1-3"]
        dist = run_sequence(proto, (0, 0))
        assert dist[0] == pytest.approx(1.0, abs=1e-12)  # p(00|00) = 1

    def test_b1_protocol_mixed_settings(self):
        proto = canonical_protocols()["qubit-B1-3"]
        dist = run_sequence(proto, (1, 0))
        assert dist[co.index_of_digits((0, 0), 2)] == pytest.approx(1.0, abs=1e-12)
        assert dist[co.index_of_digits((0, 1), 2)] == pytest.approx(0.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            sys_model = random_system_model(rng, 3, 2, 3, kraus_per_outcome=2)
            for settings in ((0,), (0, 1), (1, 1, 0)):
                assert run_sequence(sys_model, settings).sum() == pytest.approx(
                    1.0, abs=1e-9
                )

    def test_setting_out_of_range(self):
        proto = canonical_protocols()["qubit-B1-3"]
        with pytest.raises(DimensionMismatch):
            run_sequence(proto, (0, 2))

    def test_chaining_matches_explicit_conditionals(self):
        # p(ab|xy) from subnormalized chaining equals p(a|x) tr(E_b rho_post)
        rng = np.random.default_rng(23)
        for _ in range(10):
            sys_model = random_system_model(rng, 3, 2, 2, kraus_per_outcome=2)
            b = full_behavior(sys_model, 2)
            for x in (0, 1):
                for y in (0, 1):
                    for a in (0, 1):
                        first = apply_kraus_map(sys_model.instruments[x].kraus_sets[a], sys_model.initial.matrix)
                        p_first = float(first.trace().real)
                        for bb in (0, 1):
                            joint = b.prob((a, bb), (x, y))
                            if p_first <= 1e-12:
                                assert joint == pytest.approx(0.0, abs=1e-12)
                                continue
                            post = DensityMatrix(first / p_first).matrix
                            effect = sys_model.instruments[y].effects[bb]
                            p_second = float((effect @ post).trace().real)
                            assert joint == pytest.approx(p_first * p_second, abs=1e-12)


class TestFullBehavior:
    def test_repeated_projective_measurement_is_repeatable(self):
        z_inst = validate_instrument([[ketbra(0, 0, 2)], [ketbra(1, 1, 2)]])
        sys_model = SystemModel(DensityMatrix(np.eye(2) / 2), (z_inst, z_inst))
        b = full_behavior(sys_model, 2)
        assert b.prob((0, 0), (0, 0)) == pytest.approx(0.5, abs=1e-12)
        assert b.prob((0, 1), (0, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_b1_protocol_value(self):
        b = full_behavior(canonical_protocols()["qubit-B1-3"], 2)
        assert evaluate(builtin_functionals()["B1"], b) == pytest.approx(3.0, abs=1e-12)

    def test_nv_protocol_reaches_e1(self):
        b = full_behavior(canonical_protocols()["qutrit-e1"], 2)
        assert np.max(np.abs(b.table - vertex_behavior(named_vertex("e1")).table)) < 1e-12
        assert evaluate(builtin_functionals()["B1"], b) == pytest.approx(4.0, abs=1e-12)


class TestTableBudget:
    def test_long_sequences_rejected_before_allocation(self):
        # (L=20, R=2, S=2) passes the vertex-count guard; its table would be 8 TiB
        for L in (20, 40, 10**9):
            with pytest.raises(TableTooLarge) as exc:
                full_behavior(canonical_protocols()["qutrit-e1"], L)
            assert exc.value.shape == (L, 2, 2)
            assert exc.value.cap == errors.MAX_TABLE_ENTRIES

    def test_budget_is_inclusive(self, monkeypatch):
        # a qubit: the last step of 2^L * 1 * 2^2 entries stays below the table
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 64)
        proto = canonical_protocols()["qubit-B1-3"]
        assert full_behavior(proto, 3).table.size == 64
        with pytest.raises(TableTooLarge):
            full_behavior(proto, 4)

    def test_walk_budget_is_inclusive(self, monkeypatch):
        # qutrit-e1 walks padded diagonals: at L = 3 a last step of
        # 2^3 * (3 + 1) = 32 entries; at L = 1 a table of 4 entries and a
        # last step of 2^1 * (3 + 1) = 8
        proto = canonical_protocols()["qutrit-e1"]
        cases = [(32, lambda: run_sequence(proto, (0, 1, 0)), 8, r"2\^3 \* \(3 \+ 1\) ", 3),
                 (8, lambda: full_behavior(proto, 1).table, 4, r"2\^1 \* \(3 \+ 1\) ", 1)]
        for fits, simulate, size, formula, L in cases:
            monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", fits)
            assert simulate().size == size
            monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", fits - 1)
            with pytest.raises(TableTooLarge, match=r"a simulation step of R\^L \* \(d \+ 1\) = " + formula) as exc:
                simulate()
            assert exc.value.shape == (L, 2, 2) and exc.value.cap == fits - 1

    def test_walk_budget_counts_kraus_operators(self, monkeypatch):
        # two Kraus operators per outcome double the last step: 2^2 * 2 * 2^2 = 32
        proto = random_system_model(np.random.default_rng(27), 2, 2, 2, kraus_per_outcome=2)
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 32)
        assert full_behavior(proto, 2).table.shape == (4, 4)
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 31)
        with pytest.raises(TableTooLarge, match=r"= 2\^2 \* 2 \* 2\^2 "):
            full_behavior(proto, 2)

    def test_long_sequence_rejected_before_the_walk(self):
        # run_sequence has no table; its last step alone would hold 3^(10^6) states
        proto = qutrit_vertex_realization(DeterministicVertex.from_index(Scenario(2, 3, 2), 0))
        with pytest.raises(TableTooLarge, match=r"3\^1000000 \* \(3 \+ 1\)"):
            run_sequence(proto, (0,) * 10**6)

    def test_largest_peel_output_fits(self):
        # a (2,3,3) peel has at most 81 terms: dimension 324, a last step of 3^2 * 324^2 entries
        s = Scenario(2, 3, 3)
        outcomes = [DeterministicVertex.from_index(s, 1009 * k).outcomes for k in range(81)]
        system = mixture_realization(ConvexDecomposition(s, [1 / 81] * 81, outcomes))
        assert system.dim == 324 and 3**2 * 324**2 <= errors.MAX_TABLE_ENTRIES
        assert full_behavior(system, 2).table.shape == (9, 9)


class TestQutritRealization:
    def test_e1_effects_match_projector_structure(self):
        real = qutrit_vertex_realization(named_vertex("e1"))
        e00 = real.instruments[0].effects[0]
        e01 = real.instruments[1].effects[0]
        assert np.allclose(e00, ketbra(0, 0, 3) + ketbra(1, 1, 3))
        assert np.allclose(e01, ketbra(0, 0, 3) + ketbra(2, 2, 3))

    def test_constant_zero_vertex_has_trivial_effects(self):
        real = qutrit_vertex_realization(DeterministicVertex(S222, (0,) * 6))
        for s in (0, 1):
            assert np.allclose(real.instruments[s].effects[0], np.eye(3))

    def test_all_vertices_of_222_exact(self):
        for row in co.enumerate_vertices(S222):
            v = DeterministicVertex(S222, row)
            b = full_behavior(qutrit_vertex_realization(v), 2)
            assert np.max(np.abs(b.table - vertex_behavior(v).table)) < 1e-12

    def test_three_outcome_vertex(self):
        scenario = Scenario(2, 3, 2)
        rng = np.random.default_rng(21)
        for _ in range(10):
            v = DeterministicVertex.from_index(scenario, int(rng.integers(729)))
            b = full_behavior(qutrit_vertex_realization(v), 2)
            assert np.max(np.abs(b.table - vertex_behavior(v).table)) < 1e-12

    def test_three_setting_vertices_use_four_levels(self):
        scenario = Scenario(2, 2, 3)
        rng = np.random.default_rng(24)
        for index in rng.integers(4096, size=40):
            v = DeterministicVertex.from_index(scenario, int(index))
            real = qutrit_vertex_realization(v)
            assert real.dim == 4
            b = full_behavior(real, 2)
            assert np.max(np.abs(b.table - vertex_behavior(v).table)) < 1e-12

    def test_three_setting_three_outcome_vertices(self):
        scenario = Scenario(2, 3, 3)
        rng = np.random.default_rng(25)
        for index in rng.integers(co.count_vertices(scenario), size=40):
            v = DeterministicVertex.from_index(scenario, int(index))
            b = full_behavior(qutrit_vertex_realization(v), 2)
            assert np.max(np.abs(b.table - vertex_behavior(v).table)) < 1e-12

    def test_rejects_longer_sequences(self):
        v = DeterministicVertex(Scenario(3, 2, 2), (0,) * 14)
        with pytest.raises(UnsupportedLength):
            qutrit_vertex_realization(v)


class TestMixtureRealization:
    def test_single_vertex(self):
        d = ConvexDecomposition(S222, [1.0], [named_vertex("e4").outcomes])
        b = full_behavior(mixture_realization(d), 2)
        assert np.max(np.abs(b.table - vertex_behavior(named_vertex("e4")).table)) < 1e-12

    def test_half_e1_half_e3(self):
        d = ConvexDecomposition(S222, [0.5, 0.5], [named_vertex("e1").outcomes, named_vertex("e3").outcomes])
        sys_model = mixture_realization(d)
        assert sys_model.dim == 6
        b = full_behavior(sys_model, 2)
        assert np.max(np.abs(b.table - mixture_behavior(d).table)) < 1e-9

    def test_random_member_round_trip(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            b = compose_from_conditionals(random_conditional_chain(rng, S222))
            d = decompose_behavior(b)
            resim = full_behavior(mixture_realization(d), 2)
            assert np.max(np.abs(resim.table - b.table)) < 1e-9

    def test_zero_weights_dropped(self):
        d = ConvexDecomposition(S222, [1.0, 0.0], [named_vertex("e1").outcomes, named_vertex("e2").outcomes])
        assert mixture_realization(d).dim == 3

    def test_empty_decomposition(self):
        class Fake:
            weights = np.zeros(0)
            outcomes = np.zeros((0, S222.n_contexts), dtype=np.uint8)

        with pytest.raises(EmptyDecomposition):
            mixture_realization(Fake())


class TestCanonicalProtocols:
    def test_b2_protocol_value(self):
        b = full_behavior(canonical_protocols()["qubit-B2-3"], 2)
        assert evaluate(builtin_functionals()["B2"], b) == pytest.approx(3.0, abs=1e-12)

    def test_qutrit_e3_reaches_four(self):
        b = full_behavior(canonical_protocols()["qutrit-e3"], 2)
        assert evaluate(builtin_functionals()["B3"], b) == pytest.approx(4.0, abs=1e-12)

    def test_all_protocols_are_members(self):
        for name, sys_model in canonical_protocols().items():
            assert co.check_membership(full_behavior(sys_model, 2)).is_member, name


# --- the per-vertex construction the block-diagonal one replaced ------------------

def _transposition(i, j, dim):
    u = np.eye(dim, dtype=complex)
    u[[i, j]] = u[[j, i]]
    return u


def reference_vertex_realization(v):
    """The (S+1)-level system of one vertex, built and validated on its own."""
    s = v.scenario
    dim = s.S + 1
    instruments = []
    for setting in range(s.S):
        slot_outcomes = [v.outcome_for((setting,))]
        slot_outcomes += [v.outcome_for((first, setting)) for first in range(s.S)]
        swap = _transposition(0, setting + 1, dim)
        kraus_sets = []
        for r in range(s.R):
            effect = np.zeros((dim, dim), dtype=complex)
            for i, a in enumerate(slot_outcomes):
                if a == r:
                    effect[i, i] = 1.0
            kraus_sets.append([swap @ effect])
        instruments.append(validate_instrument(kraus_sets))
    return SystemModel(DensityMatrix(ketbra(0, 0, dim)), tuple(instruments))


def reference_mixture_realization(decomp):
    """Direct sum of the per-vertex systems, copied block by block."""
    terms = [(w, v) for w, v in decomp.terms if w > 0.0]
    s = terms[0][1].scenario
    blocks = [reference_vertex_realization(v) for _w, v in terms]
    block_dim = s.S + 1
    dim = block_dim * len(terms)
    initial = np.zeros((dim, dim), dtype=complex)
    for e, (w, _v) in enumerate(terms):
        initial[e * block_dim, e * block_dim] = w
    instruments = []
    for setting in range(s.S):
        kraus_sets = []
        for r in range(s.R):
            big = np.zeros((dim, dim), dtype=complex)
            for e, block in enumerate(blocks):
                lo = e * block_dim
                big[lo : lo + block_dim, lo : lo + block_dim] = block.instruments[
                    setting
                ].kraus_sets[r][0]
            kraus_sets.append([big])
        instruments.append(validate_instrument(kraus_sets))
    return SystemModel(DensityMatrix(initial), tuple(instruments))


PARITY_SCENARIOS = (S222, Scenario(2, 3, 2), Scenario(2, 2, 3))
L2_SCENARIOS = PARITY_SCENARIOS + (Scenario(2, 3, 3),)


@st.composite
def peeled_members(draw, scenarios=PARITY_SCENARIOS):
    """Greedy-peel decomposition of a random member; a drawn share of its
    conditionals is deterministic, so zero-measure histories occur."""
    s = draw(st.sampled_from(scenarios))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    levels = []
    for t in (1, 2):
        g = rng.gamma(1.0, size=(s.S**t, s.R ** (t - 1), s.R))
        pinned = rng.random(g.shape[:2]) < share
        g[pinned] = np.eye(s.R)[rng.integers(0, s.R, size=int(pinned.sum()))]
        levels.append(g / g.sum(axis=2, keepdims=True))
    return decompose_behavior(compose_from_conditionals(ConditionalChain(s, tuple(levels))))


@st.composite
def hand_built_decompositions(draw):
    """Terms drawn from a small vertex pool, so vertices repeat, with some
    weights exactly zero."""
    s = draw(st.sampled_from(PARITY_SCENARIOS))
    pool = draw(st.lists(st.integers(0, co.count_vertices(s) - 1), min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    raw = draw(st.lists(st.sampled_from((0.0, 0.25, 1.0, 3.0)), min_size=len(picks), max_size=len(picks)))
    if sum(raw) == 0.0:
        raw[0] = 1.0
    total = sum(raw)
    return ConvexDecomposition(
        s, [w / total for w in raw], [DeterministicVertex.from_index(s, k).outcomes for k in picks]
    )


def assert_same_system(new, reference):
    assert system_model_to_json(new) == system_model_to_json(reference)


class TestReferenceParity:
    """The block-diagonal construction writes exactly the systems of the
    per-vertex one it replaced: equal JSON, so equal bytes on disk."""

    @settings(max_examples=60, deadline=None)
    @given(peeled_members())
    def test_peel_outputs(self, decomp):
        assert_same_system(mixture_realization(decomp), reference_mixture_realization(decomp))

    @settings(max_examples=60, deadline=None)
    @given(hand_built_decompositions())
    def test_repeated_vertices_and_zero_weights(self, decomp):
        assert_same_system(mixture_realization(decomp), reference_mixture_realization(decomp))

    def test_all_vertices_of_222(self):
        for row in co.enumerate_vertices(S222):
            v = DeterministicVertex(S222, row)
            assert_same_system(qutrit_vertex_realization(v), reference_vertex_realization(v))

    def test_canonical_protocols(self):
        protocols = canonical_protocols()
        for name in ("e1", "e2", "e3", "e4"):
            reference = reference_vertex_realization(named_vertex(name))
            assert_same_system(protocols[f"qutrit-{name}"], reference)


class TestBlockLayout:
    """The slot positions and level swaps of a realization block, built once
    per S: read-only, bounded, and never shared across scenarios."""

    @pytest.mark.parametrize("S", [2, 3, 4])
    def test_cached_tables_are_read_only(self, S):
        positions, pi = realize._block_layout(S)
        assert positions.tolist() == [[co.context_position(h, S) for h in [(x,)] + [(s, x) for s in range(S)]] for x in range(S)]
        assert pi.tolist() == [[x + 1 if j == 0 else 0 if j == x + 1 else j for j in range(S + 1)] for x in range(S)]
        for a in (positions, pi):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_cache_is_bounded(self):
        assert realize._block_layout.cache_info().maxsize == 16

    def test_interleaved_scenarios_give_the_reference_systems(self):
        rng = np.random.default_rng(28)
        for _ in range(3):
            for s in (Scenario(2, 2, 3), Scenario(2, 3, 2), S222):
                decomp = decompose_behavior(compose_from_conditionals(random_conditional_chain(rng, s)))
                assert_same_system(mixture_realization(decomp), reference_mixture_realization(decomp))


TWO_VERTICES = ConvexDecomposition(S222, [0.5, 0.5], [named_vertex("e1").outcomes, named_vertex("e3").outcomes])

# builders of the arrays that realizations, simulations and validations return
RETURNED_ARRAYS = {
    "run_sequence mapped": lambda: [run_sequence(canonical_protocols()["qubit-B1-3"], (0, 1))],
    "run_sequence dense": lambda: [run_sequence(random_system_model(np.random.default_rng(30), 3, 2, 2, 2), (1, 0))],
    "dense effects": lambda: validate_instrument([[np.sqrt(0.5) * np.eye(2)], [np.sqrt(0.5) * np.eye(2)]]).effects,
    "multi-Kraus effects": lambda: validate_instrument([[ketbra(0, 0, 2), ketbra(1, 1, 2)], [ZERO2]]).effects,
    "column-mapped effects": lambda: validate_instrument([[ketbra(0, 0, 2)], [ketbra(0, 1, 2)]]).effects,
    "random_instrument effects": lambda: random_instrument(np.random.default_rng(31), 3, 2, 2).effects,
    "mixture_realization effects": lambda: [
        e for inst in mixture_realization(TWO_VERTICES).instruments for e in inst.effects
    ],
    "validate_effect": lambda: [validate_effect(np.diag([0.25, 1.0]))],
    "effect_from_params": lambda: [effect_from_params(0.5, 0.5, [0.0, 0.6, 0.8])],
}


class TestReadOnlyResults:
    """Every array a realization, a simulation or a validation returns is
    read-only: writing into it raises."""

    @pytest.mark.parametrize("name", RETURNED_ARRAYS)
    def test_writes_raise(self, name):
        arrays = RETURNED_ARRAYS[name]()
        assert len(arrays) > 0
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_run_sequence_is_contiguous_float(self):
        for sys_model in (canonical_protocols()["qutrit-e1"], random_system_model(np.random.default_rng(32), 2, 2, 3)):
            probs = run_sequence(sys_model, (0, 1, 1))
            assert probs.dtype == np.float64 and probs.flags.c_contiguous and probs.shape == (sys_model.n_outcomes**3,)


def assert_same_instrument(new, reference):
    """Same Kraus bytes, effect bytes and column maps."""
    assert len(new.kraus_sets) == len(reference.kraus_sets)
    for ops, ref_ops in zip(new.kraus_sets, reference.kraus_sets):
        assert len(ops) == len(ref_ops) == 1
        assert_same_bits(ops[0], ref_ops[0])
    for effect, ref_effect in zip(new.effects, reference.effects):
        assert_same_bits(effect, ref_effect)
    for columns, ref_columns in zip(new.column_maps, reference.column_maps):
        assert columns.dtype == ref_columns.dtype
        assert_same_bits(columns, ref_columns)


class TestColumnMapInstruments:
    """Realized instruments are built from their column maps; they are the
    instruments that dense validation of their own operators gives, and the
    ones a saved file loads back as."""

    @settings(max_examples=40, deadline=None)
    @given(peeled_members(L2_SCENARIOS))
    def test_same_as_dense_validation_and_round_trip(self, decomp):
        system = mixture_realization(decomp)
        loaded = serialize.system_model_from_json(serialize.system_model_to_json(system))
        for inst, back in zip(system.instruments, loaded.instruments, strict=True):
            dense = validate_instrument([[np.array(k) for k in ops] for ops in inst.kraus_sets])
            assert_same_instrument(inst, dense)
            assert_same_instrument(inst, back)
            assert all(not k.flags.writeable for ops in inst.kraus_sets for k in ops)
            assert all(not e.flags.writeable for e in inst.effects)
            assert all(not c.flags.writeable for c in inst.column_maps)

    @pytest.mark.parametrize(
        "name, n_bytes, digest",
        [
            ("e1", 2989, "e5ee780b3c3d118391db389922d764da7d988af0be89b23522b6dabc8023d3bd"),
            ("e2", 2989, "5a12bd55a93b7cb27578dd9ca237f6980055beebc11313aed1c2c8a0868b288b"),
            ("e3", 2989, "500256094132a160941c031d863841ab4c931e586d0d87f33b375be892c9857a"),
            ("e4", 2989, "d710bb1e9eaa9b8d263995f4e6085f2eb0cfc76917100bfc50cb4630e9df1839"),
            ("5", 7312, "cc50c85f0143e72f3086444a2700d0c18d68d51a0a0e00d2471a84680fe2090f"),
            ("mixture", 325_013, "cf50899bbdd4d9a556afd525821987d8b4903d882ed439b28fa76caa32648c0b"),
        ],
    )
    def test_saved_bytes_pinned(self, name, n_bytes, digest):
        # the files ``tempocorr realize --vertex eK --out`` and ``realize
        # --vertex 5 --S 3 --out`` write and, for the dim-33 member of the CI
        # realize run, ``realize --decomposition --out``
        if name == "mixture":
            b = compose_from_conditionals(random_conditional_chain(np.random.default_rng(0), S222))
            system = mixture_realization(decompose_behavior(b))
        elif name == "5":
            system = qutrit_vertex_realization(DeterministicVertex.from_index(Scenario(2, 2, 3), 5))
        else:
            system = qutrit_vertex_realization(named_vertex(name))
        text = serialize.dumps(serialize.system_model_to_json(system)).encode()
        assert len(text) == n_bytes
        assert hashlib.sha256(text).hexdigest() == digest


class TestDeferredViews:
    """A realized mixture holds the column maps of its instruments and
    builds their dense operators and effects only when one is read."""

    @pytest.fixture(scope="class")
    def decomp(self):
        b = compose_from_conditionals(random_conditional_chain(np.random.default_rng(0), Scenario(2, 2, 3)))
        return decompose_behavior(b)

    def test_realization_peaks_below_one_dense_stack(self, decomp):
        system = mixture_realization(decomp)
        tracemalloc.start()
        try:
            mixture_realization(decomp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # dimension 88: a dense (S, R, d, d) complex stack takes 743,424 bytes
        S, R, d = system.n_settings, system.n_outcomes, system.dim
        assert d == 88
        assert peak < S * R * d * d * 16

    def test_views_built_on_first_read(self, decomp):
        system = mixture_realization(decomp)
        full_behavior(system, 2)
        assert not any(name in inst.__dict__ for inst in system.instruments for name in ("kraus_sets", "effects"))
        digest = hashlib.sha256()
        for inst in system.instruments:
            kraus_sets, effects = inst.kraus_sets, inst.effects
            assert inst.kraus_sets is kraus_sets and inst.effects is effects
            for ops, effect in zip(kraus_sets, effects, strict=True):
                assert len(ops) == 1 and not ops[0].flags.writeable and not effect.flags.writeable
                assert_same_bits(effect, dense_effect(ops))
                digest.update(ops[0].tobytes())
            for effect in effects:
                digest.update(effect.tobytes())
        # the operators and effects that realized mixtures stored densely
        assert digest.hexdigest() == "764fdc9a4304f5a8c5e6e153d61cc91b740aebdb923f373f806ceaf8905f5a9f"

    def test_racing_first_reads_share_the_views(self, decomp):
        # threads released together at a short switch interval read the
        # views of fresh instruments: every thread gets the same objects
        n_threads, rounds = 8, 20
        barrier = threading.Barrier(n_threads)
        seen = [[] for _ in range(n_threads)]
        systems = [mixture_realization(decomp) for _ in range(rounds)]

        def read(i):
            for system in systems:
                barrier.wait(timeout=30)
                seen[i].append([(id(inst.kraus_sets), id(inst.effects)) for inst in system.instruments])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(ids) == rounds for ids in seen)
        assert all(ids == seen[0] for ids in seen)


class TestDecompositionPins:
    """The bytes ``tempocorr decompose --out`` writes for seeded members, so
    that a change of the peel's output fails here and not only downstream."""

    @pytest.mark.parametrize(
        "dims, digest",
        [
            ((2, 2, 2), "72535dbed88bb017df0efa1b2956e990b085a552e40db5ad48c1312cb058a970"),
            ((3, 2, 2), "414ce11775c337e67b3ed3e218db7800ce5a2ddbff3c1c8b4b520c65814b1c3d"),
            ((2, 3, 3), "5e081491bf69255bf7844115bc167c175179529488d478cdf8c7074b51f291cf"),
            ((3, 3, 2), "c7c3ec4045503ef23f1852aac0a064f08ed7b7970efac2830cd92814f905e89e"),
            ((3, 2, 3), "561c254f43eae57d4e4a619e7c11e52c7383188602aa25930f3adad2d25035dc"),
            ((4, 2, 2), "76c7b141b980865d3ccda2ead7430c5a0900443f58ec112ef60c8ffd268d3832"),
        ],
    )
    def test_seeded_member_bytes_pinned(self, dims, digest):
        # (2,2,2) is the member of the CI realize run, whose d.json CI pins
        # too, as it does the (3,2,2) one; L >= 3 peels pin the marginals
        # of the levels between the first and the last
        b = compose_from_conditionals(random_conditional_chain(np.random.default_rng(0), Scenario(*dims)))
        text = serialize.dumps(serialize.decomposition_to_json(decompose_behavior(b))).encode()
        assert hashlib.sha256(text).hexdigest() == digest

    def test_uniform_member_bytes_pinned(self):
        # every marginal ties, so every choice breaks to the lowest outcome
        d = decompose_behavior(co.uniform_behavior(Scenario(3, 2, 2)))
        text = serialize.dumps(serialize.decomposition_to_json(d)).encode()
        assert len(d.weights) == 8
        assert hashlib.sha256(text).hexdigest() == "5ba245b29cbb190287c9e17d1bd02d3167d097cf70326088674039e8fb70ad72"


class TestRealizationBudget:
    def test_budget_is_inclusive(self, monkeypatch):
        # two (2,2,2) blocks: dimension 6, S * R * 6^2 = 144 Kraus entries
        d = ConvexDecomposition(S222, [0.5, 0.5], [named_vertex("e1").outcomes, named_vertex("e3").outcomes])
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 144)
        assert mixture_realization(d).dim == 6
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 143)
        with pytest.raises(TableTooLarge, match="dimension 6") as exc:
            mixture_realization(d)
        assert exc.value.shape == (2, 2, 2)
        assert exc.value.cap == 143

    def test_zero_weight_terms_do_not_count(self, monkeypatch):
        d = ConvexDecomposition(S222, [1.0, 0.0], [named_vertex("e1").outcomes, named_vertex("e2").outcomes])
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 36)
        assert mixture_realization(d).dim == 3

    def test_large_vertex_rejected(self):
        v = DeterministicVertex.from_index(Scenario(2, 2, 500), 0)
        with pytest.raises(TableTooLarge, match="dimension 501"):
            qutrit_vertex_realization(v)

    def test_peel_outputs_fit_the_budget(self):
        # a (2,3,3) peel has at most one term per table entry: 81 blocks of 4 levels
        assert 3 * 3 * (81 * 4) ** 2 <= errors.MAX_TABLE_ENTRIES
        rng = np.random.default_rng(26)
        for _ in range(5):
            b = compose_from_conditionals(random_conditional_chain(rng, Scenario(2, 3, 3)))
            assert full_behavior(mixture_realization(decompose_behavior(b)), 2).table.shape == (9, 9)


def apply_kraus_map(kraus_ops, mat):
    """``sum_k K m K^dag`` for one outcome and one state, summed from zeros."""
    out = np.zeros_like(mat)
    for k in kraus_ops:
        out += k @ mat @ k.conj().T
    return out


def reference_run_sequence(sys_model, xs):
    """One setting sequence, one Kraus map of one state at a time."""
    states = [sys_model.initial.matrix]
    for x in xs:
        inst = sys_model.instruments[x]
        states = [apply_kraus_map(inst.kraus_sets[a], rho) for rho in states for a in range(sys_model.n_outcomes)]
    return np.array([rho.trace().real for rho in states])


def reference_full_behavior(sys_model, L):
    """The table row by row, every row simulated from the initial state."""
    s = Scenario(L, sys_model.n_outcomes, sys_model.n_settings)
    table = np.zeros((s.n_setting_seqs, s.n_outcome_seqs))
    for row in range(s.n_setting_seqs):
        table[row] = reference_run_sequence(sys_model, co.digits_of_index(row, s.S, L))
    return table


def assert_same_bits(new, reference):
    """Equal shapes and bytes, so also equal signs of zero."""
    assert new.shape == reference.shape
    assert new.tobytes() == reference.tobytes()


@st.composite
def ragged_systems(draw):
    """Random systems whose outcomes carry 0-3 random and 0-2 zero Kraus
    operators each (at least one), in a drawn order."""
    d, n_settings, n_outcomes = draw(st.integers(2, 4)), draw(st.integers(2, 3)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    instruments = []
    for _ in range(n_settings):
        counts = draw(st.lists(st.integers(0, 3), min_size=n_outcomes, max_size=n_outcomes).filter(any))
        raw = [[rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n)] for n in counts]
        vals, vecs = np.linalg.eigh(sum(k.conj().T @ k for ops in raw for k in ops))
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
        kraus_sets = []
        for ops in raw:
            ops = [k @ inv_sqrt for k in ops]
            ops += [np.zeros((d, d), dtype=complex)] * draw(st.integers(0 if ops else 1, 2))
            kraus_sets.append([ops[i] for i in rng.permutation(len(ops))])
        instruments.append(validate_instrument(kraus_sets))
    return SystemModel(random_density_matrix(rng, d), tuple(instruments))


def dense_effect(ops):
    out = np.zeros_like(ops[0])
    for k in ops:
        out += k.conj().T @ k
    return out


@st.composite
def partial_permutation_systems(draw):
    """Systems whose settings are 0/1 partial-permutation instruments (zero
    rows, all-zero operators), random dense instruments, or partial
    permutations that stay on the dense path: one entry a unit phase other
    than 1+0j (1-0j among them), or one outcome split into two operators.
    The initial state is dense and complex, or pinched to blocks whose zero
    entries are -0.0.  Returns the system and, per setting, which outcomes
    should carry a column map."""
    d, n_settings, n_outcomes = draw(st.integers(2, 5)), draw(st.integers(2, 3)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    instruments, mapped = [], []
    for _ in range(n_settings):
        kind = draw(st.sampled_from(("mapped", "mapped", "dense", "phase", "split")))
        if kind == "dense":
            instruments.append(random_instrument(rng, d, n_outcomes))
            mapped.append([False] * n_outcomes)
            continue
        owner = rng.integers(n_outcomes, size=d)
        kraus_sets = []
        for r in range(n_outcomes):
            cols = np.flatnonzero(owner == r)
            k = np.zeros((d, d), dtype=complex)
            k[rng.permutation(d)[: len(cols)], cols] = 1.0
            kraus_sets.append([k])
        flags = [True] * n_outcomes
        r = owner[0]
        if kind == "phase":
            k = kraus_sets[r][0]
            k[np.flatnonzero(k[:, 0])[0], 0] = draw(st.sampled_from((complex(1.0, -0.0), -1.0, 1j, -1j, np.exp(0.3j))))
            flags[r] = False
        elif kind == "split":
            k = kraus_sets[r][0]
            first = np.zeros_like(k)
            first[:, 0] = k[:, 0]
            k[:, 0] = 0.0
            kraus_sets[r] = [first, k]
            flags[r] = False
        instruments.append(validate_instrument(kraus_sets))
        mapped.append(flags)
    rho = random_density_matrix(rng, d).matrix
    if draw(st.booleans()):
        block = rng.random(d) < 0.5
        rho = np.where(block[:, None] == block[None, :], rho, complex(-0.0, -0.0))
        rho.imag[np.diag_indices(d)] = -0.0
    return SystemModel(DensityMatrix(rho), tuple(instruments)), mapped


class TestSimulationParity:
    """The depth-first walk writes exactly the tables of the per-sequence
    simulation it replaced: same Kraus arithmetic, same summation order."""

    @settings(max_examples=100, deadline=None)
    @given(partial_permutation_systems(), st.lists(st.integers(0, 2), min_size=1, max_size=3))
    def test_partial_permutations(self, drawn, xs):
        sys_model, mapped = drawn
        L, path = len(xs), [x % sys_model.n_settings for x in xs]
        # the dense path is taken exactly when some outcome has no column map
        assert isinstance(realize._stacks(sys_model), np.ndarray) == all(map(all, mapped))
        for inst, flags in zip(sys_model.instruments, mapped):
            assert (inst.column_maps is not None) == all(flags)
            for ops, effect in zip(inst.kraus_sets, inst.effects):
                assert_same_bits(effect, dense_effect(ops))
        mapped_only = tuple(inst for inst, flags in zip(sys_model.instruments, mapped) if all(flags))
        if mapped_only:
            # over two steps, the gathered diagonals are the diagonals of the
            # dense products, signed zeros included, and the pad stays +0.0
            sub = SystemModel(sys_model.initial, mapped_only)
            gather = realize._stacks(sub)
            k = np.array([inst.kraus_sets for inst in mapped_only])
            dense = (k, k.conj().swapaxes(-1, -2))
            diagonals, states = realize._root(sub, gather), sub.initial.matrix
            for _ in range(2):
                diagonals = realize._step(diagonals, gather, slice(None))
                states = realize._step(states, dense, slice(None))
                assert_same_bits(diagonals[..., :-1], np.diagonal(states, axis1=-2, axis2=-1))
                assert_same_bits(diagonals[..., -1], np.zeros(diagonals.shape[:-1], dtype=complex))
        assert_same_bits(full_behavior(sys_model, L).table, reference_full_behavior(sys_model, L))
        assert_same_bits(run_sequence(sys_model, path), reference_run_sequence(sys_model, path))

    @pytest.mark.parametrize(
        "kraus_sets",
        [
            [[np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)], [ZERO2]],
            [[np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)], [ketbra(1, 1, 2)]],
        ],
        ids=["two in a row", "two in a column"],
    )
    def test_doubled_entries_fail_as_dense_effects(self, kraus_sets):
        # 0/1 operators with two entries in a row or column are no partial
        # permutation: their dense effect has eigenvalue 2
        with pytest.raises(SpectrumOutOfRange) as expected:
            validate_effect(dense_effect(kraus_sets[0]))
        with pytest.raises(SpectrumOutOfRange) as exc:
            validate_instrument(kraus_sets)
        assert str(exc.value) == str(expected.value)

    @settings(max_examples=60, deadline=None)
    @given(ragged_systems(), st.lists(st.integers(0, 2), min_size=1, max_size=4))
    def test_ragged_systems(self, sys_model, xs):
        L, path = len(xs), [x % sys_model.n_settings for x in xs]
        assert_same_bits(full_behavior(sys_model, L).table, reference_full_behavior(sys_model, L))
        assert_same_bits(run_sequence(sys_model, path), reference_run_sequence(sys_model, path))

    @settings(max_examples=20, deadline=None)
    @given(peeled_members(), st.integers(1, 3))
    def test_mixture_realizations(self, decomp, L):
        system = mixture_realization(decomp)
        assert_same_bits(full_behavior(system, L).table, reference_full_behavior(system, L))

    def test_large_mixture_realization(self):
        # a (2,2,2) peel with 11 terms: dimension 33, traces summed over 33 entries
        b = compose_from_conditionals(random_conditional_chain(np.random.default_rng(0), S222))
        system = mixture_realization(decompose_behavior(b))
        assert system.dim >= 8
        for L in (1, 2, 3):
            assert_same_bits(full_behavior(system, L).table, reference_full_behavior(system, L))

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("name", sorted(canonical_protocols()))
    def test_canonical_protocols(self, name, L):
        proto = canonical_protocols()[name]
        assert_same_bits(full_behavior(proto, L).table, reference_full_behavior(proto, L))

    @pytest.mark.parametrize(
        "d, S, R, K, L",
        [(1, 2, 2, 1, 3), (5, 2, 3, 2, 3), (7, 3, 2, 3, 2), (9, 2, 2, 2, 3), (16, 2, 2, 2, 2), (17, 2, 2, 3, 2)],
    )
    def test_odd_and_large_dimensions(self, d, S, R, K, L):
        # the stacked products of a dense step against one pair at a time,
        # at odd d and above 8, where BLAS kernels split a product by edge
        # cases that ``ragged_systems`` (d 2-4) does not reach
        rng = np.random.default_rng(1000 + d)
        system = random_system_model(rng, d, S, R, K)
        assert not isinstance(realize._stacks(system), np.ndarray)
        assert_same_bits(full_behavior(system, L).table, reference_full_behavior(system, L))
        path = tuple(int(x) for x in rng.integers(S, size=L))
        assert_same_bits(run_sequence(system, path), reference_run_sequence(system, path))


def ragged_dense_system():
    """A seeded dense system of dimension 3: S = 3 settings of 2, 3 and 2
    Kraus operators per outcome, R = 2 outcomes."""
    rng = np.random.default_rng(53)
    rho = random_density_matrix(rng, 3)
    return SystemModel(rho, tuple(random_instrument(rng, 3, 2, k) for k in (2, 3, 2)))


class TestSettingGroups:
    """A step covers as many settings as fit in the table budget at its own
    size for one setting, and at least one; every grouping writes the bits
    of the row-by-row reference."""

    @pytest.mark.parametrize("group", [1, 2, 3])
    def test_dense_groups_same_bits(self, monkeypatch, group):
        # the last step of L = 3 makes R^L * K * d^2 = 2^3 * 3 * 3^2 = 216
        # entries per setting; the table has S^L * R^L = 216
        system = ragged_dense_system()
        reference = reference_full_behavior(system, 3)
        sizes = self.last_step_groups(monkeypatch)
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 216 * group)
        assert_same_bits(full_behavior(system, 3).table, reference)
        # each of the 9 last-level nodes splits its 3 settings into groups
        assert sizes == {1: [1, 1, 1], 2: [2, 1], 3: [3]}[group] * 9
        assert_same_bits(run_sequence(system, (2, 1, 0)), reference_run_sequence(system, (2, 1, 0)))

    @pytest.mark.parametrize("budget, group", [(16, 1), (24, 2)])
    def test_diagonal_groups_same_bits(self, monkeypatch, budget, group):
        # qubit-B1-3 at L = 2: 2^2 padded diagonals of 3 entries per setting
        # in the last step, R^L * (d + 1) = 12 entries
        proto = canonical_protocols()["qubit-B1-3"]
        assert isinstance(realize._stacks(proto), np.ndarray)
        sizes = self.last_step_groups(monkeypatch)
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", budget)
        assert_same_bits(full_behavior(proto, 2).table, reference_full_behavior(proto, 2))
        assert sizes == {1: [1, 1], 2: [2]}[group] * 2

    @staticmethod
    def last_step_groups(monkeypatch):
        """The number of settings of each last step, in walk order."""
        sizes, traces = [], realize._traces
        monkeypatch.setattr(realize, "_traces", lambda children, stack: sizes.append(len(children)) or traces(children, stack))
        return sizes

    def test_peak_near_one_setting_step(self, monkeypatch):
        # S = 8 settings; the last step of one setting is 2^3 * 4 * 16^2 =
        # 8192 entries of 16 bytes, B, made by two stacked products of that
        # size, and the budget is B, so the walk peaks near 2 * 16 B bytes;
        # all 8 settings in one last step would take 8 times that
        system = random_system_model(np.random.default_rng(28), 16, 8, 2, kraus_per_outcome=4)
        one_step = 2**3 * 4 * 16**2
        peaks = {}
        for budget in (one_step, 8 * one_step):
            monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", budget)
            stack = realize._stacks(system)
            root, table = realize._root(system, stack), np.zeros((8**3, 2**3))
            tracemalloc.start()
            try:
                realize._walk(root, 3, 0, stack, table)
                peaks[budget] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[one_step] < 3 * 16 * one_step
        assert peaks[8 * one_step] > 8 * 2 * 16 * one_step


class TestWalkStack:
    """Each system builds the stack its walk applies once, on its first
    simulation, and keeps it read-only; an instrument with one outcome that
    is no 0/1 partial permutation has no column maps and walks dense."""

    def test_mixed_instrument_walks_dense(self):
        # outcome 0 is a partial permutation, outcome 1 maps |1> to |+>
        plus = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex) / np.sqrt(2)
        mixed = validate_instrument([[ketbra(0, 0, 2)], [plus]])
        assert mixed.column_maps is None and mixed.n_outcomes == 2 and mixed.dim == 2
        mapped = validate_instrument([[ketbra(0, 0, 2)], [ketbra(1, 1, 2)]])
        system = SystemModel(DensityMatrix(np.eye(2) / 2), (mapped, mixed))
        k, k_dag = realize._stacks(system)
        assert k.shape == (2, 2, 1, 2, 2)
        for L in (1, 2, 3):
            assert_same_bits(full_behavior(system, L).table, reference_full_behavior(system, L))

    @pytest.mark.parametrize("kind", ["gather", "dense"])
    def test_later_calls_apply_the_kept_stack(self, kind):
        if kind == "gather":
            system = qutrit_vertex_realization(named_vertex("e1"))
        else:
            system = random_system_model(np.random.default_rng(34), 3, 2, 2, kraus_per_outcome=2)
        full_behavior(system, 2)
        stack = realize._stacks(system)
        assert realize._stacks(system) is stack
        for a in (stack,) if kind == "gather" else stack:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        # the kept stack with its settings swapped is what the next walks
        # apply: the tables of the system with its instruments swapped
        system.__dict__["_walk_stack"] = stack[::-1] if kind == "gather" else tuple(a[::-1] for a in stack)
        swapped = SystemModel(system.initial, system.instruments[::-1])
        assert_same_bits(full_behavior(system, 2).table, full_behavior(swapped, 2).table)
        assert_same_bits(run_sequence(system, (0, 1, 1)), run_sequence(swapped, (0, 1, 1)))

    def test_racing_first_calls_share_one_stack(self):
        # threads released together at a short switch interval ask fresh
        # systems for their stacks: every first call returns the same object
        n_threads, rounds = 8, 20
        barrier = threading.Barrier(n_threads)
        seen = [[] for _ in range(n_threads)]
        systems = [qutrit_vertex_realization(named_vertex("e1")) for _ in range(rounds)]

        def simulate(i):
            for system in systems:
                barrier.wait(timeout=30)
                seen[i].append(id(realize._stacks(system)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=simulate, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(ids) == rounds for ids in seen)
        assert all(ids == seen[0] for ids in seen)


class TestSimulationMemory:
    @pytest.fixture(scope="class")
    def dim33(self):
        b = compose_from_conditionals(random_conditional_chain(np.random.default_rng(0), S222))
        system = mixture_realization(decompose_behavior(b))
        assert system.dim == 33
        return system

    def test_diagonal_walk_reaches_the_table_budget(self, dim33):
        # the last step of L = 10 holds 2^10 * (33 + 1) entries, well within
        # the budget; the table of 4^10 entries fills it
        b10 = full_behavior(dim33, 10)
        assert b10.table.size == errors.MAX_TABLE_ENTRIES
        assert np.max(np.abs(co.marginal(b10, 2).table - full_behavior(dim33, 2).table)) <= 1e-12
        with pytest.raises(TableTooLarge, match=r"a behavior table of S\^L \* R\^L = 2\^11 \* 2\^11 "):
            full_behavior(dim33, 11)

    def test_peak_stays_on_one_path(self, dim33):
        # one root-to-leaf path holds at most 2 * 2 * 64 diagonals of 34
        # entries; a level-by-level walk would hold all 4096 leaves at once
        full_behavior(dim33, 6)
        tracemalloc.start()
        try:
            full_behavior(dim33, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_repeated_calls_leave_nothing_behind(self, dim33):
        # with the cyclic collector off, a reference cycle per call would stay
        full_behavior(dim33, 2)
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                full_behavior(dim33, 2)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert grown < 16 * 2**10
