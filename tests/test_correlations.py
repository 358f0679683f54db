import time

import numpy as np
import pytest

from tempocorr import correlations as co
from tempocorr.correlations import (
    Behavior,
    ConvexDecomposition,
    DeterministicVertex,
    RelabelingGroup,
    Scenario,
    check_membership,
    classify_vertices,
    compose_from_conditionals,
    count_vertices,
    decompose_behavior,
    enumerate_vertices,
    factorize,
    marginal,
    mixture_behavior,
    named_vertex,
    random_conditional_chain,
    relabel_vertex,
    uniform_behavior,
    vertex_behavior,
)
from tempocorr.errors import (
    NotAMember,
    ShapeMismatch,
    TooManyVertices,
    UnnormalizedConditional,
)

S222 = Scenario(2, 2, 2)


class TestScenario:
    def test_validation(self):
        with pytest.raises(ShapeMismatch):
            Scenario(0, 2, 2)
        with pytest.raises(ShapeMismatch):
            Scenario(2, 1, 2)

    def test_huge_length_rejected_at_once(self):
        # summing the 10^6 context counts S^t first would take minutes
        t0 = time.process_time()
        with pytest.raises(ShapeMismatch):
            Scenario(10**6, 2, 2)
        assert time.process_time() - t0 < 1.0

    def test_sizes(self):
        assert S222.n_setting_seqs == 4
        assert S222.n_outcome_seqs == 4
        assert S222.n_contexts == 6


class TestCounting:
    @pytest.mark.parametrize(
        "scenario, expected",
        [
            (Scenario(1, 2, 2), 4),
            (Scenario(2, 2, 2), 64),
            (Scenario(2, 3, 2), 729),
            (Scenario(2, 2, 3), 4096),
            (Scenario(3, 2, 2), 16384),
        ],
    )
    def test_formula(self, scenario, expected):
        assert count_vertices(scenario) == expected

    @pytest.mark.parametrize(
        "scenario",
        [Scenario(1, 2, 2), Scenario(2, 2, 2), Scenario(2, 3, 2), Scenario(1, 3, 3), Scenario(2, 2, 3)],
    )
    def test_enumeration_matches_formula(self, scenario):
        assert len(enumerate_vertices(scenario)) == count_vertices(scenario)

    def test_cap(self):
        with pytest.raises(TooManyVertices) as exc:
            enumerate_vertices(Scenario(3, 3, 3), cap=10**6)
        assert exc.value.count == count_vertices(Scenario(3, 3, 3))
        assert exc.value.shown == "4052555153018976267"

    def test_count_past_int_str_limit_prints_as_power(self):
        # 2^250500 has about 75,000 decimal digits, above Python's int-to-str limit
        with pytest.raises(TooManyVertices, match=r"has 2\^250500 vertices") as exc:
            enumerate_vertices(Scenario(2, 2, 500))
        assert exc.value.count == 2**250500
        assert co.vertex_count_text(Scenario(2, 2, 500), -1) == "2^250500-1"
        assert co.vertex_count_text(Scenario(2, 2, 2), -1) == "63"

    def test_every_small_scenario_enumerates_to_its_count(self):
        # exhaustive over all scenarios with at most 10^4 vertices (L,R,S <= 13)
        checked = 0
        for L in range(1, 4):
            for R in range(2, 14):
                for S in range(2, 14):
                    scenario = Scenario(L, R, S)
                    if count_vertices(scenario) > 10**4:
                        continue
                    assert len(enumerate_vertices(scenario)) == count_vertices(scenario)
                    checked += 1
        assert checked > 10


class TestVertices:
    def test_length_one_vertices(self):
        vertices = enumerate_vertices(Scenario(1, 2, 2))
        tables = {tuple(vertex_behavior(v).table.reshape(-1)) for v in vertices}
        assert len(tables) == 4

    def test_named_vertex_unit_entries(self):
        b = vertex_behavior(named_vertex("e1"))
        for (a, bb), (x, y) in co.QUBIT_UNREACHABLE_UNIT_ENTRIES["e1"]:
            assert b.prob((a, bb), (x, y)) == 1.0
        assert b.table.sum() == pytest.approx(4.0)

    def test_constant_zero_vertex(self):
        v = DeterministicVertex(S222, (0,) * 6)
        b = vertex_behavior(v)
        for srow in range(4):
            assert b.table[srow, 0] == 1.0

    def test_one_unit_entry_per_setting_sequence(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = DeterministicVertex.from_index(S222, int(rng.integers(64)))
            b = vertex_behavior(v)
            assert np.all(b.table.sum(axis=1) == 1.0)
            assert set(np.unique(b.table)) <= {0.0, 1.0}

    def test_vertex_behaviors_distinct_and_members(self):
        seen = set()
        for v in enumerate_vertices(S222):
            b = vertex_behavior(v)
            assert check_membership(b).is_member
            seen.add(b.table.tobytes())
        assert len(seen) == 64

    def test_index_round_trip(self):
        for k in (0, 1, 17, 63):
            assert DeterministicVertex.from_index(S222, k).index == k


class TestMembership:
    def test_vertex_is_member(self):
        assert check_membership(vertex_behavior(named_vertex("e1"))).is_member

    def test_signaling_flagged(self):
        # first-measurement marginal depends on the second setting
        table = np.zeros((4, 4))
        table[0, 0] = 1.0       # p(00|00) = 1
        table[1, 3] = 1.0       # p(11|01) = 1: marginal of a flips with y
        table[2, 0] = 1.0
        table[3, 0] = 1.0
        report = check_membership(Behavior(S222, table))
        assert not report.is_member
        assert report.arrow_of_time
        assert report.arrow_of_time[0][0] == 1  # violation at truncation level 1

    def test_negative_and_unnormalized_flagged(self):
        table = np.full((4, 4), 0.25)
        table[0, 0] = -0.1
        table[0, 1] = 0.6
        table[1] = 0.3
        report = check_membership(Behavior(S222, table))
        assert report.negativity and report.normalization

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Behavior(S222, np.zeros((4, 3)))

    def test_random_realizations_are_members(self):
        # smaller version of the acceptance sweep
        from tempocorr.qmath import random_system_model
        from tempocorr.realize import full_behavior

        rng = np.random.default_rng(1)
        for _ in range(20):
            sys_model = random_system_model(rng, 3, 2, 2)
            assert check_membership(full_behavior(sys_model, 2)).is_member


class TestMarginal:
    def test_uniform(self):
        m = marginal(uniform_behavior(S222), 1)
        assert np.allclose(m.table, 0.5)

    def test_e1_first_step(self):
        m = marginal(vertex_behavior(named_vertex("e1")), 1)
        # both settings give outcome 0 deterministically
        assert m.table[0, 0] == pytest.approx(1.0)
        assert m.table[1, 0] == pytest.approx(1.0)

    def test_marginal_of_marginal(self):
        rng = np.random.default_rng(2)
        b = compose_from_conditionals(random_conditional_chain(rng, Scenario(3, 2, 2)))
        direct = marginal(b, 1)
        via_level2 = marginal(marginal(b, 2), 1)
        assert np.max(np.abs(direct.table - via_level2.table)) < 1e-12

    def test_rejects_non_member(self):
        table = np.zeros((4, 4))
        table[0, 0] = table[1, 3] = table[2, 0] = table[3, 0] = 1.0
        with pytest.raises(NotAMember):
            marginal(Behavior(S222, table), 1)


class TestFactorize:
    def test_product_behavior_has_history_free_conditionals(self):
        p = np.array([0.7, 0.3])
        q = np.array([[0.2, 0.8], [0.6, 0.4]])  # q[y, b]
        table = np.zeros((4, 4))
        for x in (0, 1):
            for y in (0, 1):
                for a in (0, 1):
                    for b in (0, 1):
                        pa = p[a] if x == 0 else p[1 - a]
                        table[x * 2 + y, a * 2 + b] = pa * q[y, b]
        chain = factorize(Behavior(S222, table))
        # second-step conditional must not depend on the first outcome
        lvl2 = chain.levels[1]
        assert np.max(np.abs(lvl2[:, 0, :] - lvl2[:, 1, :])) < 1e-12

    def test_e3_conditionals(self):
        chain = factorize(vertex_behavior(named_vertex("e3")))
        lvl1, lvl2 = chain.levels
        # both first measurements give outcome 0
        assert lvl1[0, 0, 0] == pytest.approx(1.0)
        assert lvl1[1, 0, 0] == pytest.approx(1.0)
        # after (a=0, x=0) the second outcome is 1 for both settings
        assert lvl2[co.index_of_digits((0, 0), 2), 0, 1] == pytest.approx(1.0)
        assert lvl2[co.index_of_digits((0, 1), 2), 0, 1] == pytest.approx(1.0)
        # after (a=0, x=1): outcome 1 for y=0, outcome 0 for y=1
        assert lvl2[co.index_of_digits((1, 0), 2), 0, 1] == pytest.approx(1.0)
        assert lvl2[co.index_of_digits((1, 1), 2), 0, 0] == pytest.approx(1.0)

    def test_zero_measure_history_gets_uniform_conditional(self):
        # setting 0 never gives outcome 1, so that branch is unreachable
        lvl1 = np.array([[[1.0, 0.0]], [[0.5, 0.5]]])
        rng = np.random.default_rng(3)
        g = rng.gamma(1.0, size=(4, 2, 2))
        lvl2 = g / g.sum(axis=2, keepdims=True)
        chain = co.ConditionalChain(S222, (lvl1, lvl2))
        b = compose_from_conditionals(chain)
        refac = factorize(b)
        assert np.allclose(refac.levels[0], lvl1, atol=1e-12)
        unreachable = co.index_of_digits((0, 0), 2)
        assert np.allclose(refac.levels[1][unreachable, 1, :], 0.5)
        # round trip still exact
        again = compose_from_conditionals(refac)
        assert np.max(np.abs(again.table - b.table)) < 1e-12


class TestCompose:
    def test_uniform_chain(self):
        lvl1 = np.full((2, 1, 2), 0.5)
        lvl2 = np.full((4, 2, 2), 0.5)
        b = compose_from_conditionals(co.ConditionalChain(S222, (lvl1, lvl2)))
        assert np.allclose(b.table, 0.25)

    def test_deterministic_chain_gives_e1(self):
        b = compose_from_conditionals(factorize(vertex_behavior(named_vertex("e1"))))
        assert np.max(np.abs(b.table - vertex_behavior(named_vertex("e1")).table)) < 1e-12

    def test_random_chain_is_member(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            b = compose_from_conditionals(random_conditional_chain(rng, Scenario(2, 3, 2)))
            assert check_membership(b).is_member

    def test_rejects_unnormalized(self):
        lvl1 = np.full((2, 1, 2), 0.4)
        lvl2 = np.full((4, 2, 2), 0.5)
        with pytest.raises(UnnormalizedConditional):
            compose_from_conditionals(co.ConditionalChain(S222, (lvl1, lvl2)))

    def test_round_trip_on_members(self):
        rng = np.random.default_rng(5)
        for scenario in (S222, Scenario(2, 3, 2), Scenario(3, 2, 2)):
            for _ in range(10):
                b = compose_from_conditionals(random_conditional_chain(rng, scenario))
                back = compose_from_conditionals(factorize(b))
                assert np.max(np.abs(back.table - b.table)) < 1e-9


class TestClassification:
    def test_ten_orbits(self):
        classes = classify_vertices(S222)
        assert classes.n_orbits == 10
        assert sum(len(orb) for orb in classes.orbits) == 64

    def test_named_vertices_in_distinct_orbits(self):
        classes = classify_vertices(S222)
        ids = {name: classes.orbit_of(named_vertex(name).index) for name in ("e1", "e2", "e3", "e4")}
        assert len(set(ids.values())) == 4

    def test_identity_group(self):
        classes = classify_vertices(S222, RelabelingGroup.identity(S222))
        assert classes.n_orbits == 64

    def test_uniform_outcome_group_is_coarser_than_ten(self):
        classes = classify_vertices(S222, RelabelingGroup.uniform_outcome(S222))
        assert classes.n_orbits > 10

    def test_orbit_members_reachable_from_representative(self):
        group = RelabelingGroup.full(S222)
        classes = classify_vertices(S222, group)
        for orb in classes.orbits:
            rep = DeterministicVertex.from_index(S222, orb[0])
            images = {relabel_vertex(rep, el).index for el in group.elements}
            assert images == set(orb)

    def test_group_orders(self):
        assert RelabelingGroup.full(S222).order == 8
        assert RelabelingGroup.uniform_outcome(S222).order == 4
        assert RelabelingGroup.full(Scenario(2, 3, 2)).order == 72


class TestDecomposition:
    def test_vertex_decomposes_to_itself(self):
        v = named_vertex("e2")
        d = decompose_behavior(vertex_behavior(v))
        assert len(d.terms) == 1
        w, vv = d.terms[0]
        assert w == pytest.approx(1.0, abs=1e-12)
        assert vv == v

    def test_half_e1_half_e2(self):
        target = Behavior(
            S222,
            0.5 * vertex_behavior(named_vertex("e1")).table
            + 0.5 * vertex_behavior(named_vertex("e2")).table,
        )
        d = decompose_behavior(target)
        recon = mixture_behavior(d)
        assert np.max(np.abs(recon.table - target.table)) < 1e-9

    def test_random_members_reconstruct(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            b = compose_from_conditionals(random_conditional_chain(rng, S222))
            recon = mixture_behavior(decompose_behavior(b))
            assert np.max(np.abs(recon.table - b.table)) < 1e-9

    def test_random_member_beyond_enumeration(self):
        # (3,2,3) has about 5.5e11 vertices, far past any enumeration cap
        s = Scenario(3, 2, 3)
        b = compose_from_conditionals(random_conditional_chain(np.random.default_rng(7), s))
        d = decompose_behavior(b)
        assert len(d.terms) <= np.count_nonzero(b.table > 0.0)
        assert np.max(np.abs(mixture_behavior(d).table - b.table)) <= 1e-9

    def test_uniform_reconstructs(self):
        b = uniform_behavior(S222)
        recon = mixture_behavior(decompose_behavior(b))
        assert np.max(np.abs(recon.table - b.table)) < 1e-9

    def test_weights_validated(self):
        with pytest.raises(ShapeMismatch):
            ConvexDecomposition(((0.5, named_vertex("e1")),))
        e1 = named_vertex("e1")
        for w in (float("nan"), float("inf")):
            with pytest.raises(ShapeMismatch, match="not finite"):
                ConvexDecomposition(((w, e1), (-w, e1), (1.0, e1)))

    def test_vertices_share_one_scenario(self):
        # same number of contexts as (2,2,2), different table shape
        other = DeterministicVertex(Scenario(1, 2, 6), (0,) * 6)
        with pytest.raises(ShapeMismatch, match="different scenarios"):
            ConvexDecomposition(((0.5, named_vertex("e1")), (0.5, other)))

    def test_outcome_for_rejects_foreign_history(self):
        with pytest.raises(ShapeMismatch):
            named_vertex("e1").outcome_for((0, 2))
