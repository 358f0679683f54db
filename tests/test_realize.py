import numpy as np
import pytest

from tempocorr import correlations as co
from tempocorr.correlations import (
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
from tempocorr import realize
from tempocorr.errors import DimensionMismatch, EmptyDecomposition, TableTooLarge, UnsupportedLength
from tempocorr.qmath import (
    DensityMatrix,
    SystemModel,
    ketbra,
    random_system_model,
    validate_instrument,
)
from tempocorr.realize import (
    canonical_protocols,
    full_behavior,
    mixture_realization,
    qutrit_vertex_realization,
    run_sequence,
)
from tempocorr.witness import builtin_functionals, evaluate

S222 = Scenario(2, 2, 2)


class TestRunSequence:
    def test_b1_protocol_repeated_zero(self):
        proto = canonical_protocols()["qubit-B1-3"]
        dist = run_sequence(proto, (0, 0))
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)  # p(00|00) = 1

    def test_b1_protocol_mixed_settings(self):
        proto = canonical_protocols()["qubit-B1-3"]
        dist = run_sequence(proto, (1, 0))
        assert dist.probs[co.index_of_digits((0, 0), 2)] == pytest.approx(1.0, abs=1e-12)
        assert dist.probs[co.index_of_digits((0, 1), 2)] == pytest.approx(0.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            sys_model = random_system_model(rng, 3, 2, 3, kraus_per_outcome=2)
            for settings in ((0,), (0, 1), (1, 1, 0)):
                assert run_sequence(sys_model, settings).probs.sum() == pytest.approx(
                    1.0, abs=1e-9
                )

    def test_setting_out_of_range(self):
        proto = canonical_protocols()["qubit-B1-3"]
        with pytest.raises(DimensionMismatch):
            run_sequence(proto, (0, 2))

    def test_chaining_matches_explicit_conditionals(self):
        # p(ab|xy) from subnormalized chaining equals p(a|x) tr(E_b rho_post)
        from tempocorr.qmath import apply_instrument

        rng = np.random.default_rng(23)
        for _ in range(10):
            sys_model = random_system_model(rng, 3, 2, 2, kraus_per_outcome=2)
            b = full_behavior(sys_model, 2)
            for x in (0, 1):
                for y in (0, 1):
                    for a in (0, 1):
                        first = apply_instrument(sys_model.initial, sys_model.instruments[x], a)
                        for bb in (0, 1):
                            joint = b.prob((a, bb), (x, y))
                            if first.probability <= 1e-12:
                                assert joint == pytest.approx(0.0, abs=1e-12)
                                continue
                            second = apply_instrument(
                                first.post_state, sys_model.instruments[y], bb
                            )
                            assert joint == pytest.approx(
                                first.probability * second.probability, abs=1e-12
                            )


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
            assert exc.value.cap == realize.MAX_TABLE_ENTRIES

    def test_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(realize, "MAX_TABLE_ENTRIES", 64)
        proto = canonical_protocols()["qutrit-e1"]
        assert full_behavior(proto, 3).table.size == 64
        with pytest.raises(TableTooLarge):
            full_behavior(proto, 4)


class TestQutritRealization:
    def test_e1_effects_match_projector_structure(self):
        real = qutrit_vertex_realization(named_vertex("e1"))
        e00 = real.system.instruments[0].effects[0].matrix
        e01 = real.system.instruments[1].effects[0].matrix
        assert np.allclose(e00, ketbra(0, 0, 3) + ketbra(1, 1, 3))
        assert np.allclose(e01, ketbra(0, 0, 3) + ketbra(2, 2, 3))

    def test_constant_zero_vertex_has_trivial_effects(self):
        real = qutrit_vertex_realization(DeterministicVertex(S222, (0,) * 6))
        for s in (0, 1):
            assert np.allclose(real.system.instruments[s].effects[0].matrix, np.eye(3))

    def test_all_vertices_of_222_exact(self):
        for v in co.enumerate_vertices(S222):
            b = full_behavior(qutrit_vertex_realization(v).system, 2)
            assert np.max(np.abs(b.table - vertex_behavior(v).table)) < 1e-12

    def test_three_outcome_vertex(self):
        scenario = Scenario(2, 3, 2)
        rng = np.random.default_rng(21)
        for _ in range(10):
            v = DeterministicVertex.from_index(scenario, int(rng.integers(729)))
            b = full_behavior(qutrit_vertex_realization(v).system, 2)
            assert np.max(np.abs(b.table - vertex_behavior(v).table)) < 1e-12

    def test_three_setting_vertices_use_four_levels(self):
        scenario = Scenario(2, 2, 3)
        rng = np.random.default_rng(24)
        for index in rng.integers(4096, size=40):
            v = DeterministicVertex.from_index(scenario, int(index))
            real = qutrit_vertex_realization(v)
            assert real.system.dim == 4
            b = full_behavior(real.system, 2)
            assert np.max(np.abs(b.table - vertex_behavior(v).table)) < 1e-12

    def test_three_setting_three_outcome_vertices(self):
        scenario = Scenario(2, 3, 3)
        rng = np.random.default_rng(25)
        for index in rng.integers(co.count_vertices(scenario), size=40):
            v = DeterministicVertex.from_index(scenario, int(index))
            b = full_behavior(qutrit_vertex_realization(v).system, 2)
            assert np.max(np.abs(b.table - vertex_behavior(v).table)) < 1e-12

    def test_rejects_longer_sequences(self):
        v = DeterministicVertex(Scenario(3, 2, 2), (0,) * 14)
        with pytest.raises(UnsupportedLength):
            qutrit_vertex_realization(v)


class TestMixtureRealization:
    def test_single_vertex(self):
        d = ConvexDecomposition(((1.0, named_vertex("e4")),))
        b = full_behavior(mixture_realization(d), 2)
        assert np.max(np.abs(b.table - vertex_behavior(named_vertex("e4")).table)) < 1e-12

    def test_half_e1_half_e3(self):
        d = ConvexDecomposition(((0.5, named_vertex("e1")), (0.5, named_vertex("e3"))))
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
        d = ConvexDecomposition(((1.0, named_vertex("e1")), (0.0, named_vertex("e2"))))
        assert mixture_realization(d).dim == 3

    def test_empty_decomposition(self):
        class Fake:
            terms = ()

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
