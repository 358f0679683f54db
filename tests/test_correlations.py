import dataclasses
import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempocorr import correlations as co
from tempocorr import witness
from tempocorr.correlations import (
    ZERO_MEASURE_TOL,
    Behavior,
    ConditionalChain,
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
    relabel_behavior,
    relabel_vertex,
    uniform_behavior,
    vertex_behavior,
)
from tempocorr import errors
from tempocorr.errors import (
    NotAMember,
    ShapeMismatch,
    TableTooLarge,
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


class TestVertexArray:
    @pytest.mark.parametrize("scenario", [Scenario(1, 3, 2), S222, Scenario(2, 3, 2), Scenario(3, 2, 2)])
    def test_row_k_is_vertex_k(self, scenario):
        outcomes = enumerate_vertices(scenario)
        assert outcomes.shape == (count_vertices(scenario), scenario.n_contexts)
        assert outcomes.dtype == np.uint8 and not outcomes.flags.writeable
        for k in (0, 1, len(outcomes) // 3, len(outcomes) - 1):
            assert DeterministicVertex(scenario, outcomes[k]) == DeterministicVertex.from_index(scenario, k)

    def test_vertex_entries_refused_before_allocation(self):
        # (2,2,11) has 2^132 vertices of 132 outcomes each; under a cap of 10^50,
        # np.arange would fail on the count
        with pytest.raises(TableTooLarge, match=r"vertex set of 5444517870735015415413993718908291383296 \* 132 outcomes exceeds the cap 16777216") as exc:
            enumerate_vertices(Scenario(2, 2, 11), cap=10**50)
        assert exc.value.cap == errors.MAX_VERTEX_ENTRIES and exc.value.shape == (2, 2, 11)
        with pytest.raises(TableTooLarge, match="vertex set"):
            classify_vertices(Scenario(3, 2, 3), cap=10**50)

    def test_every_scenario_under_the_default_cap_fits(self):
        # the most outcomes under 10^6 vertices: (1,2,19), 2^19 vertices of 19
        for L, R, S in itertools.product(range(1, 5), range(2, 8), range(2, 20)):
            s = Scenario(L, R, S)
            if count_vertices(s) <= co.DEFAULT_VERTEX_CAP:
                assert count_vertices(s) * s.n_contexts <= errors.MAX_VERTEX_ENTRIES, s

    def test_relabeling_group_refused_before_it_is_built(self, monkeypatch):
        # (2,3,3)'s group of 3! * 6^3 = 1,296 elements is built up to a budget of its order
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 1295)
        with pytest.raises(TableTooLarge):
            RelabelingGroup.full(Scenario(2, 3, 3))
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 1296)
        assert RelabelingGroup.full(Scenario(2, 3, 3)).order == 1296
        monkeypatch.undo()
        # (1,2,8) has 256 vertices but 8! * 2^8 = 10,321,920 group elements
        with pytest.raises(TableTooLarge, match=r"relabeling group of S! \* \(R!\)\^S = 8! \* 2!\^8 elements"):
            classify_vertices(Scenario(1, 2, 8))


class TestVertices:
    def test_length_one_vertices(self):
        s = Scenario(1, 2, 2)
        tables = {tuple(vertex_behavior(DeterministicVertex(s, row)).table.reshape(-1)) for row in enumerate_vertices(s)}
        assert len(tables) == 4

    def test_named_vertices_are_pinned(self):
        assert {name: named_vertex(name).outcomes for name in ("e1", "e2", "e3", "e4")} == {
            "e1": (0, 0, 0, 1, 1, 0),
            "e2": (0, 0, 1, 0, 0, 1),
            "e3": (0, 0, 1, 1, 1, 0),
            "e4": (0, 0, 1, 1, 0, 1),
        }
        with pytest.raises(ShapeMismatch, match="unknown vertex name 'e5'"):
            named_vertex("e5")

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
        for row in enumerate_vertices(S222):
            b = vertex_behavior(DeterministicVertex(S222, row))
            assert check_membership(b).is_member
            seen.add(b.table.tobytes())
        assert len(seen) == 64

    def test_index_round_trip(self):
        for k in (0, 1, 17, 63):
            assert DeterministicVertex.from_index(S222, k).index == k

    @pytest.mark.parametrize("k", [-1, 64, 2**64])
    def test_index_outside_the_enumeration_refused(self, k):
        # 64 and -1 would wrap to vertices 0 and 63
        with pytest.raises(ShapeMismatch, match=f"vertex index {k} outside 0..63"):
            DeterministicVertex.from_index(S222, k)


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


@st.composite
def members_and_non_members(draw):
    """A random member of a small scenario, or that member with one entry
    moved by a drawn amount, which breaks positivity, normalization or the
    arrow-of-time constraints when the amount is large enough."""
    s = draw(st.sampled_from([S222, Scenario(1, 2, 2), Scenario(3, 2, 2), Scenario(2, 3, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = np.array(compose_from_conditionals(random_conditional_chain(rng, s)).table)
    if draw(st.booleans()):
        row, col = draw(st.integers(0, s.n_setting_seqs - 1)), draw(st.integers(0, s.n_outcome_seqs - 1))
        table[row, col] += draw(st.sampled_from([-1.0, -1e-8, 1e-10, 1e-8, 0.5]))
    return Behavior(s, table)


class TestMembershipKeptOnce:
    """``check_membership`` keeps its report on the frozen behavior, so the
    stages that require a member reuse one verdict."""

    # negative, unnormalized and signaling at once
    NON_MEMBER = np.array(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 0.5, 0.0, 0.0], [1.25, -0.25, 0.0, 0.0]]
    )
    # the message of the parent commit, which computed the report on every call
    MESSAGE = (
        "behavior is not in the polytope:\n"
        "negative entry p[3,1] = -2.500000e-01\n"
        "setting block 2 sums to 1.5 (deviation 5.000e-01)\n"
        "arrow-of-time violation at level 1, settings 0, outcomes 0: spread 1.000000e+00\n"
        "arrow-of-time violation at level 1, settings 0, outcomes 1: spread 1.000000e+00\n"
        "arrow-of-time violation at level 1, settings 1, outcomes 0: spread 5.000000e-01"
    )

    def test_same_report_object(self):
        b = uniform_behavior(S222)
        assert check_membership(b) is check_membership(b)

    @pytest.mark.parametrize("s", [S222, Scenario(3, 2, 2), Scenario(4, 2, 2)], ids=str)
    def test_one_marginal_pass_from_check_to_decomposition(self, s, monkeypatch):
        calls = []
        original = co._level_marginal

        def counted(*args):
            calls.append(args[2])
            return original(*args)

        monkeypatch.setattr(co, "_level_marginal", counted)
        b = compose_from_conditionals(random_conditional_chain(np.random.default_rng(3), s))
        assert check_membership(b).is_member
        factorize(b)
        decompose_behavior(b)
        marginal(b, 1)
        assert calls == list(range(1, s.L))

    @settings(max_examples=80, deadline=None)
    @given(members_and_non_members())
    def test_kept_report_equals_a_fresh_behaviors(self, b):
        kept = check_membership(b)
        fresh = Behavior(b.scenario, np.array(b.table))
        assert check_membership(b) is kept
        assert check_membership(fresh) == kept and check_membership(fresh) is not kept

    def test_replaced_behavior_computes_its_own_report(self):
        b = uniform_behavior(S222)
        assert check_membership(b).is_member
        assert not check_membership(dataclasses.replace(b, table=self.NON_MEMBER)).is_member
        assert check_membership(dataclasses.replace(b)) is not check_membership(b)

    @pytest.mark.parametrize(
        "stage",
        [factorize, decompose_behavior, lambda b: marginal(b, 1), witness.certify, co.require_member],
        ids=["factorize", "decompose_behavior", "marginal", "certify", "require_member"],
    )
    def test_non_member_refused_with_the_same_message(self, stage):
        b = Behavior(S222, self.NON_MEMBER)
        report = check_membership(b)
        for _ in range(2):
            with pytest.raises(NotAMember) as exc:
                stage(b)
            assert str(exc.value) == self.MESSAGE
            assert exc.value.report is report


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

    def test_negative_conditional_message_prints_a_plain_float(self):
        lvl1 = np.array([[[1.5, -0.5]], [[0.5, 0.5]]])
        with pytest.raises(UnnormalizedConditional) as exc:
            compose_from_conditionals(co.ConditionalChain(Scenario(1, 2, 2), (lvl1,)))
        assert str(exc.value) == "level 1 has a negative conditional -0.5"

    def test_round_trip_on_members(self):
        rng = np.random.default_rng(5)
        for scenario in (S222, Scenario(2, 3, 2), Scenario(3, 2, 2)):
            for _ in range(10):
                b = compose_from_conditionals(random_conditional_chain(rng, scenario))
                back = compose_from_conditionals(factorize(b))
                assert np.max(np.abs(back.table - b.table)) < 1e-9


def reference_orbits(scenario, group):
    """Orbits by applying every group element to the least vertex of each
    orbit not yet seen, in index order."""
    actions = [co._relabel_action(scenario, element) for element in group.elements]
    orbits, seen = [], set()
    for start in range(count_vertices(scenario)):
        if start in seen:
            continue
        v = co.digits_of_index(start, scenario.R, scenario.n_contexts)
        orbit = {co.index_of_digits((m[v[i]] for i, m in zip(src, omap)), scenario.R) for src, omap in actions}
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


class TestClassification:
    @pytest.mark.parametrize(
        "scenario",
        [S222, Scenario(2, 2, 3), Scenario(3, 2, 2), Scenario(2, 3, 2), Scenario(1, 3, 3), Scenario(1, 2, 5), Scenario(2, 3, 3)],
        ids=str,
    )
    def test_generators_give_the_orbits_of_every_element(self, scenario):
        assert classify_vertices(scenario).orbits == reference_orbits(scenario, RelabelingGroup.full(scenario))

    @pytest.mark.parametrize("scenario", [S222, Scenario(2, 2, 3), Scenario(2, 3, 2)], ids=str)
    @pytest.mark.parametrize("make", [RelabelingGroup.identity, RelabelingGroup.uniform_outcome, RelabelingGroup.full])
    def test_a_group_passed_in_generates_its_orbits(self, scenario, make):
        group = make(scenario)
        assert classify_vertices(scenario, group).orbits == reference_orbits(scenario, group)

    def test_full_group_is_never_built(self):
        # (1,2,7): one orbit of 128 vertices under 7! * 2^7 = 645,120 elements
        start = time.process_time()
        classes = classify_vertices(Scenario(1, 2, 7))
        assert classes.orbits == (tuple(range(128)),)
        assert time.process_time() - start < 1.0

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

    @pytest.mark.parametrize("scenario", [S222, Scenario(2, 3, 2), Scenario(3, 2, 2), Scenario(1, 3, 3)])
    def test_behavior_image_is_the_vertex_image(self, scenario):
        outcomes, elements = enumerate_vertices(scenario), RelabelingGroup.full(scenario).elements
        step = max(1, len(elements) // 72)  # every element of the smaller groups, 72 of (1,3,3)'s 1,296
        picks = np.random.default_rng(11).choice(len(outcomes), size=min(len(outcomes), 12), replace=False)
        for k in picks.tolist():
            v = DeterministicVertex(scenario, outcomes[k])
            for element in elements[k % step :: step]:
                image = relabel_behavior(vertex_behavior(v), element)
                assert np.array_equal(image.table, vertex_behavior(relabel_vertex(v, element)).table)

    def test_behavior_image_of_a_mixture_is_the_mixture_of_images(self):
        b = compose_from_conditionals(random_conditional_chain(np.random.default_rng(5), Scenario(2, 3, 2)))
        d = decompose_behavior(b)
        for element in RelabelingGroup.full(d.scenario).elements[::7]:
            images = [relabel_vertex(v, element).outcomes for _w, v in d.terms]
            mixed = mixture_behavior(ConvexDecomposition(d.scenario, d.weights, images))
            assert np.max(np.abs(relabel_behavior(b, element).table - mixed.table)) <= 1e-12

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
        e1 = named_vertex("e1").outcomes
        with pytest.raises(ShapeMismatch):
            ConvexDecomposition(S222, [0.5], [e1])
        for w in (float("nan"), float("inf")):
            with pytest.raises(ShapeMismatch, match="not finite"):
                ConvexDecomposition(S222, [w, -w, 1.0], [e1] * 3)

    def test_outcome_for_rejects_foreign_history(self):
        with pytest.raises(ShapeMismatch):
            named_vertex("e1").outcome_for((0, 2))


# --- the peel against its level-by-level reference ----------------------------------

def reference_context(s):
    """``[row, t-1]``: position in context order of the history x1..xt of the
    setting sequence in table row ``row``, by the per-row formula."""
    rows = np.arange(s.n_setting_seqs)
    return np.stack([(s.S**t - s.S) // (s.S - 1) + rows // s.S ** (s.L - t) for t in range(1, s.L + 1)], 1)


def reference_vertex_columns(s, outcomes, steps):
    """Outcome column of each vertex in each table row after ``steps`` steps,
    recomputed from the first step."""
    context = reference_context(s)
    cols = np.zeros((len(outcomes), s.n_setting_seqs), dtype=np.min_scalar_type(s.n_outcome_seqs))
    for t in range(steps):
        cols = cols * s.R + outcomes[:, context[:, t]]
    return cols


def reference_pinned_marginal(s, table, t):
    """Every setting row summed to level t, then the rows of later settings 0 kept."""
    m = co._level_marginal(s, table, t)[(slice(None),) * t + (0,) * (s.L - t)]
    return m.reshape(s.S**t, s.R**t)


def reference_compose(chain):
    """The product of the step conditionals, entry by entry from the first
    step; a product that reached 0 stays as it is."""
    s = chain.scenario
    table = np.empty((s.n_setting_seqs, s.n_outcome_seqs))
    for row in range(s.n_setting_seqs):
        xs = co.digits_of_index(row, s.S, s.L)
        for col in range(s.n_outcome_seqs):
            As = co.digits_of_index(col, s.R, s.L)
            p = 1.0
            for t, lvl in enumerate(chain.levels, start=1):
                if p != 0.0:
                    p = p * float(lvl[co.index_of_digits(xs[:t], s.S), co.index_of_digits(As[: t - 1], s.R), As[t - 1]])
            table[row, col] = p
    return table


def reference_factorize(b):
    """Each history's conditional by one division of its level-t marginal by
    its parent's, uniform where the parent has zero measure, clipped at 0."""
    s = b.scenario
    marginals = [np.ones((1, 1))] + [reference_pinned_marginal(s, b.table, t) for t in range(1, s.L + 1)]
    levels = []
    for t in range(1, s.L + 1):
        lvl = np.empty((s.S**t, s.R ** (t - 1), s.R))
        for x, prefix, a in itertools.product(range(s.S**t), range(s.R ** (t - 1)), range(s.R)):
            parent = float(marginals[t - 1][x // s.S, prefix])
            c = 1.0 / s.R if parent <= ZERO_MEASURE_TOL else float(marginals[t][x, prefix * s.R + a]) / parent
            lvl[x, prefix, a] = c if c > 0.0 else 0.0
        levels.append(lvl)
    return levels


def reference_decompose(b):
    """The greedy peel as first written: every level of every term rebuilds the
    realized outcome prefixes of all rows from the first step."""
    s = b.scenario
    co.require_member(b)
    context = reference_context(s)
    residual = np.array(b.table)
    terms = []
    while residual.sum() / s.n_setting_seqs > ZERO_MEASURE_TOL:
        outcomes = np.zeros((1, s.n_contexts), dtype=int)
        for t in range(1, s.L + 1):
            c, realized = context[:, t - 1], reference_vertex_columns(s, outcomes, t - 1)[0]
            m = reference_pinned_marginal(s, residual, t).reshape(s.S**t, s.R ** (t - 1), s.R)
            outcomes[0, c] = m[np.arange(s.n_setting_seqs) // s.S ** (s.L - t), realized].argmax(axis=1)
        support = (np.arange(s.n_setting_seqs), reference_vertex_columns(s, outcomes, s.L)[0])
        w = float(residual[support].min())
        if w <= ZERO_MEASURE_TOL:
            break
        residual[support] -= w
        terms.append((w, outcomes[0].tolist()))
    total = sum(w for w, _a in terms)
    return ConvexDecomposition(s, [w / total for w, _a in terms], [a for _w, a in terms])


def reference_mixture(decomp):
    """The mixture table by one unbuffered scatter per table row."""
    s = decomp.scenario
    weights = np.array([w for w, _v in decomp.terms])
    outcomes = np.array([v.outcomes for _w, v in decomp.terms], dtype=np.min_scalar_type(s.R))
    table = np.zeros((s.n_setting_seqs, s.n_outcome_seqs))
    for row, col in zip(table, reference_vertex_columns(s, outcomes, s.L).T):
        np.add.at(row, col, weights)
    return table


# (L, R, S) with L 1-4 and (R, S) of (2,2,2), (2,2,3), (2,3,3) and (3,2,2), up to
# 1,296 table entries
PEEL_SCENARIOS = [
    Scenario(L, R, S)
    for L in range(1, 5)
    for R, S in ((2, 2), (2, 3), (3, 3), (3, 2))
    if (R * S) ** L <= 1296
]


def sparse_member(s, rng, first_zero=False, quarters=False):
    """A member composed from :func:`sparse_chain`."""
    return compose_from_conditionals(sparse_chain(s, rng, first_zero, quarters))


def sparse_chain(s, rng, first_zero=False, quarters=False):
    """Random conditionals with about a third of the entries zeroed, so that
    some histories have zero measure; a conditional left with no mass gets
    all of it on one drawn outcome.  ``first_zero`` also zeroes outcome 0 of
    setting 0 at step 1; ``quarters`` rounds every conditional to a multiple
    of 1/4 first, so that marginals tie exactly."""
    levels = []
    for lvl in random_conditional_chain(rng, s).levels:
        if quarters:
            lvl = np.round(lvl * 4) / 4
        lvl = np.where(rng.random(lvl.shape) < 1 / 3, 0.0, lvl)
        if first_zero and len(levels) == 0:
            lvl[0, 0, 0] = 0.0
        empty = lvl.sum(axis=2) == 0.0
        lvl[empty, rng.integers(s.R)] = 1.0
        levels.append(lvl / lvl.sum(axis=2, keepdims=True))
    return ConditionalChain(s, tuple(levels))


@st.composite
def sparse_members(draw):
    s = draw(st.sampled_from(PEEL_SCENARIOS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return sparse_member(s, rng, quarters=draw(st.booleans()))


class TestPeelParity:
    @settings(max_examples=150, deadline=None)
    @given(sparse_members())
    def test_terms_equal_the_reference(self, b):
        assert decompose_behavior(b).terms == reference_decompose(b).terms

    @settings(max_examples=60, deadline=None)
    @given(sparse_members())
    def test_pinned_marginal_is_the_slice_of_the_level_marginal(self, b):
        s = b.scenario
        for t in range(1, s.L + 1):
            new, ref = co._pinned_marginal(s, b.table, t), reference_pinned_marginal(s, b.table, t)
            assert new.shape == ref.shape and new.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("s", PEEL_SCENARIOS, ids=lambda s: f"{s.L}{s.R}{s.S}")
    def test_members_with_zero_measure_histories(self, s):
        b = sparse_member(s, np.random.default_rng(12), first_zero=True)
        assert (reference_pinned_marginal(s, b.table, 1) == 0.0).any()
        assert decompose_behavior(b).terms == reference_decompose(b).terms

    @pytest.mark.parametrize("s", PEEL_SCENARIOS, ids=lambda s: f"{s.L}{s.R}{s.S}")
    def test_tied_marginals_break_to_the_lowest_outcome(self, s):
        # the uniform member ties every marginal: each term takes outcome 0 first
        b = uniform_behavior(s)
        terms = decompose_behavior(b).terms
        assert terms == reference_decompose(b).terms
        assert terms[0][1].outcomes == (0,) * s.n_contexts


@st.composite
def sparse_chains(draw):
    s = draw(st.sampled_from(PEEL_SCENARIOS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return sparse_chain(s, rng, first_zero=draw(st.booleans()), quarters=draw(st.booleans()))


class TestComposeFactorizeParity:
    """compose and factorize give the per-entry and per-history reference
    bits, on chains with zero-measure histories."""

    @settings(max_examples=100, deadline=None)
    @given(sparse_chains())
    def test_compose_equals_the_per_entry_product(self, chain):
        assert compose_from_conditionals(chain).table.tobytes() == reference_compose(chain).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(sparse_chains())
    def test_factorize_equals_the_per_history_reference(self, chain):
        b = compose_from_conditionals(chain)
        # the same member with every zero entry -0.0: its conditionals are +0.0
        negated = Behavior(b.scenario, np.where(b.table == 0.0, -0.0, b.table))
        for member in (b, negated):
            ref = reference_factorize(member)
            for lvl, want in zip(factorize(member).levels, ref, strict=True):
                assert lvl.shape == want.shape and lvl.tobytes() == want.tobytes()


class TestTreeLevels:
    """The per-scenario index tables: one level per step, read-only, in a
    bounded cache that never hands one scenario's tables to another."""

    @pytest.mark.parametrize("s", PEEL_SCENARIOS, ids=lambda s: f"{s.L}{s.R}{s.S}")
    def test_levels_follow_context_order(self, s):
        order = co.context_order(s)
        levels = co.tree_levels(s)
        assert len(levels) == s.L
        for t, level in enumerate(levels, start=1):
            histories = order[level.contexts]
            assert histories == tuple(co.digits_of_index(h, s.S, t) for h in range(s.S**t))
            if t > 1:
                assert [order[levels[t - 2].contexts][p] for p in level.parent.tolist()] == [h[:-1] for h in histories]
            assert level.candidates.tolist() == [[h * s.R**t + a for a in range(s.R)] for h in range(s.S**t)]

    @pytest.mark.parametrize("s", PEEL_SCENARIOS, ids=lambda s: f"{s.L}{s.R}{s.S}")
    def test_cached_arrays_are_read_only(self, s):
        arrays = [a for level in co.tree_levels(s) for a in level if isinstance(a, np.ndarray)]
        assert len(arrays) == 2 * s.L
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_cache_is_bounded(self):
        assert co.tree_levels.cache_info().maxsize == 16
        for S in range(2, 40):
            co.tree_levels(Scenario(1, 2, S))
        assert co.tree_levels.cache_info().currsize == 16
        # an evicted scenario's tables are built again, equal to the first ones
        again = co.tree_levels(Scenario(1, 2, 2))
        assert again[0].candidates.tolist() == [[2 * h, 2 * h + 1] for h in range(2)]

    def test_interleaved_scenarios_keep_their_own_tables(self):
        rng = np.random.default_rng(28)
        scenarios = [Scenario(2, 2, 3), Scenario(2, 3, 2), Scenario(3, 2, 2)]
        for _ in range(4):
            for s in scenarios:
                chain = sparse_chain(s, rng)
                b = compose_from_conditionals(chain)
                assert b.table.tobytes() == reference_compose(chain).tobytes()
                assert decompose_behavior(b).terms == reference_decompose(b).terms
                assert [lvl.tobytes() for lvl in factorize(b).levels] == [lvl.tobytes() for lvl in reference_factorize(b)]


@st.composite
def repeating_decompositions(draw):
    """Two to twelve terms over a pool of one to three vertices, so that
    vertices repeat and entries sum several random weights."""
    s = draw(st.sampled_from(PEEL_SCENARIOS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(s.R, size=(draw(st.integers(1, 3)), s.n_contexts))
    n = draw(st.integers(2, 12))
    w = rng.random(n)
    w /= w.sum()
    return ConvexDecomposition(s, w, pool[rng.integers(len(pool), size=n)])


class TestMixtureParity:
    @settings(max_examples=100, deadline=None)
    @given(repeating_decompositions())
    def test_table_equals_the_per_row_reference(self, d):
        assert mixture_behavior(d).table.tobytes() == reference_mixture(d).tobytes()

    def test_terms_sum_in_term_order(self):
        # e1's weights sum to (0.1 + 0.2) + 0.3 or to (0.3 + 0.2) + 0.1, which differ in the last bit
        vertices = [named_vertex("e1").outcomes] * 3 + [named_vertex("e2").outcomes]
        forward = ConvexDecomposition(S222, [0.1, 0.2, 0.3, 0.4], vertices)
        backward = ConvexDecomposition(S222, [0.3, 0.2, 0.1, 0.4], vertices)
        tables = [mixture_behavior(d).table.tobytes() for d in (forward, backward)]
        assert tables[0] != tables[1]
        assert tables == [reference_mixture(d).tobytes() for d in (forward, backward)]


# --- the array-held decomposition ---------------------------------------------------

E1, E2 = named_vertex("e1"), named_vertex("e2")


def refused(message):
    return pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$")


class TestDecompositionArrays:
    """A decomposition holds read-only weight and assignment arrays, checked
    once, with the exception classes and messages of a vertex's checks."""

    @pytest.mark.parametrize(
        "weights, message",
        [
            ((0.5, float("nan")), "weight nan is not finite"),
            ((float("inf"), 0.5), "weight inf is not finite"),
            ((0.5, float("-inf")), "weight -inf is not finite"),
            ((1.5, -0.5), "negative weight -0.5"),
            ((0.5, 0.25), "weights sum to 0.75, not 1"),
            ((-0.0,), "weights sum to 0.0, not 1"),
            ((), "decomposition needs at least one vertex"),
        ],
    )
    def test_weights_refused_by_both_constructors(self, weights, message):
        # the constructor, and dataclasses.replace, which runs its checks again
        outcomes = [E1.outcomes, E2.outcomes][: len(weights)]
        with refused(message):
            ConvexDecomposition(S222, weights, outcomes)
        with refused(message):
            dataclasses.replace(ConvexDecomposition(S222, [1.0], [E1.outcomes]), weights=weights, outcomes=outcomes)

    @pytest.mark.parametrize(
        "row, message",
        [
            ((0, 0, 2, 0, 0, 0), "assignment contains an out-of-range outcome"),
            ((0, 0, -1, 0, 0, 0), "assignment contains an out-of-range outcome"),
            ((0, 0, 1, 0, 0), "assignment has 5 entries, expected 6"),
            ((0, 0, 1, 0, 0, 0, 1), "assignment has 7 entries, expected 6"),
        ],
    )
    def test_assignments_refused_as_a_vertex_refuses_them(self, row, message):
        with refused(message):
            DeterministicVertex(S222, row)
        with refused(message):
            ConvexDecomposition(S222, [0.5, 0.5], [row, row])

    def test_weight_and_assignment_counts_must_agree(self):
        with refused("weights of shape (2,) do not fit assignments of shape (1, 6)"):
            ConvexDecomposition(S222, [0.5, 0.5], [E1.outcomes])

    def test_arrays_are_read_only_copies(self):
        weights, outcomes = np.array([0.25, 0.75]), np.array([E1.outcomes, E2.outcomes])
        d = ConvexDecomposition(S222, weights, outcomes)
        weights[0], outcomes[0, 0] = 0.5, 1
        assert d.weights.tolist() == [0.25, 0.75]
        assert d.outcomes.tolist() == [list(E1.outcomes), list(E2.outcomes)]
        assert d.outcomes.dtype == np.uint8
        assert not d.weights.flags.writeable and not d.outcomes.flags.writeable
        assert d.terms == ((0.25, E1), (0.75, E2)) and d.terms[1:] == ((0.75, E2),)
        again = ConvexDecomposition(S222, [w for w, _v in d.terms], [v.outcomes for _w, v in d.terms])
        assert again.weights.tobytes() == d.weights.tobytes()
        assert again.outcomes.tobytes() == d.outcomes.tobytes()

    def test_vertices_built_only_when_a_term_is_read(self, monkeypatch):
        built = []
        check = DeterministicVertex.__post_init__
        monkeypatch.setattr(DeterministicVertex, "__post_init__", lambda v: (built.append(v), check(v)))
        from tempocorr import realize, serialize

        b = compose_from_conditionals(random_conditional_chain(np.random.default_rng(3), S222))
        d = decompose_behavior(b)
        mixture_behavior(d)
        realize.mixture_realization(d)
        serialize.decomposition_from_json(serialize.decomposition_to_json(d))
        assert len(d.terms) == 11 and not built
        w, v = d.terms[-1]
        assert built == [v] and w == d.weights[-1]
        assert v.outcomes == tuple(d.outcomes[-1].tolist())
