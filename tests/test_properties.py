"""Property tests across the polytope layer, and its round trips through
realization and JSON, on random small scenarios.

Random chains force some conditionals to 0 or 1, so that behaviors with
zero-measure histories occur; the per-entry loops below are the reference
the vectorized code is held to.
"""

import itertools
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tempocorr.correlations import (
    ConditionalChain,
    DeterministicVertex,
    Scenario,
    check_membership,
    compose_from_conditionals,
    context_order,
    context_position,
    count_vertices,
    decompose_behavior,
    digits_of_index,
    factorize,
    index_of_digits,
    mixture_behavior,
    vertex_behavior,
    _vertex_columns,
)
from tempocorr.realize import full_behavior, mixture_realization
from tempocorr.serialize import behavior_from_json, behavior_to_json, dumps

SCENARIOS = [
    s
    for s in (Scenario(L, R, S) for L, R, S in itertools.product((1, 2, 3), (2, 3, 4), (2, 3, 4)))
    if count_vertices(s) <= 5000
]


@st.composite
def chains(draw, scenarios=SCENARIOS):
    """Dirichlet-random chain in which a drawn share of the conditionals is
    deterministic (one outcome with probability 1)."""
    s = draw(st.sampled_from(scenarios))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    levels = []
    for t in range(1, s.L + 1):
        g = rng.gamma(1.0, size=(s.S**t, s.R ** (t - 1), s.R))
        pinned = rng.random(g.shape[:2]) < share
        g[pinned] = np.eye(s.R)[rng.integers(0, s.R, size=int(pinned.sum()))]
        levels.append(g / g.sum(axis=2, keepdims=True))
    return ConditionalChain(s, tuple(levels))


def reference_compose(chain):
    """p(a|x) as the per-entry left-to-right product of the conditionals."""
    s = chain.scenario
    table = np.ones((s.n_setting_seqs, s.n_outcome_seqs))
    for srow, ocol in itertools.product(range(s.n_setting_seqs), range(s.n_outcome_seqs)):
        xs, As = digits_of_index(srow, s.S, s.L), digits_of_index(ocol, s.R, s.L)
        p = 1.0
        for t in range(1, s.L + 1):
            p *= chain.levels[t - 1][index_of_digits(xs[:t], s.S), index_of_digits(As[: t - 1], s.R), As[t - 1]]
            if p == 0.0:
                break
        table[srow, ocol] = p
    return table


def realized(v, settings):
    """Outcomes a vertex gives when ``settings`` are measured in order."""
    return [v.outcome_for(settings[: t + 1]) for t in range(len(settings))]


@settings(max_examples=40, deadline=None)
@given(chains())
def test_compose_matches_per_entry_product(chain):
    assert np.array_equal(compose_from_conditionals(chain).table, reference_compose(chain))


@settings(max_examples=40, deadline=None)
@given(chains())
def test_factorize_then_compose_reproduces_behavior(chain):
    b = compose_from_conditionals(chain)
    back = compose_from_conditionals(factorize(b))
    assert np.max(np.abs(back.table - b.table)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(chains())
def test_decompose_then_mix_reproduces_behavior(chain):
    b = compose_from_conditionals(chain)
    d = decompose_behavior(b)
    assert np.max(np.abs(mixture_behavior(d).table - b.table)) <= 1e-9
    # the peel zeroes an entry per term and only ever uses positive entries
    assert len(d.terms) <= np.count_nonzero(b.table > 0.0)
    for w, v in d.terms:
        assert w > 0.0
        assert np.all(b.table[vertex_behavior(v).table == 1.0] > 0.0)
    assert abs(sum(w for w, _v in d.terms) - 1.0) <= 1e-12
    assert decompose_behavior(b).terms == d.terms


@settings(max_examples=20, deadline=None)
@given(chains([s for s in SCENARIOS if s.L == 2]))
def test_decompose_realize_simulate_reproduces_behavior(chain):
    b = compose_from_conditionals(chain)
    back = full_behavior(mixture_realization(decompose_behavior(b)), 2)
    assert back.scenario == b.scenario
    assert np.max(np.abs(back.table - b.table)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(chains())
def test_behavior_json_round_trip_is_bit_exact(chain):
    b = compose_from_conditionals(chain)
    back = behavior_from_json(json.loads(dumps(behavior_to_json(b))))
    assert back.scenario == b.scenario
    assert back.table.tobytes() == b.table.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SCENARIOS), st.integers(0, 2**32 - 1))
def test_vertex_is_a_member_and_decomposes_to_itself(s, k):
    v = DeterministicVertex.from_index(s, k % count_vertices(s))
    b = vertex_behavior(v)
    assert check_membership(b).is_member
    assert np.array_equal(np.count_nonzero(b.table, axis=1), np.ones(s.n_setting_seqs))
    assert np.array_equal(b.table.max(axis=1), np.ones(s.n_setting_seqs))
    for srow in range(s.n_setting_seqs):
        xs = digits_of_index(srow, s.S, s.L)
        assert b.table[srow, index_of_digits(realized(v, xs), s.R)] == 1.0
    d = decompose_behavior(b)
    assert len(d.terms) == 1 and d.terms[0] == (1.0, v)


def test_history_tree_follows_context_order():
    for s in SCENARIOS + [Scenario(4, 2, 3)]:
        assert [context_position(h, s.S) for h in context_order(s)] == list(range(s.n_contexts))


@st.composite
def assignments(draw):
    """One to four drawn vertices of a scenario with L 1-4 and R, S 2-3."""
    s = Scenario(draw(st.integers(1, 4)), draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    outcomes = st.lists(st.integers(0, s.R - 1), min_size=s.n_contexts, max_size=s.n_contexts)
    return s, [DeterministicVertex(s, draw(outcomes)) for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=60, deadline=None)
@given(assignments())
def test_vertex_columns_follow_each_rows_setting_prefixes(drawn):
    s, vertices = drawn
    outcomes = np.array([v.outcomes for v in vertices], dtype=np.min_scalar_type(s.R))
    cols = _vertex_columns(s, outcomes)
    assert cols.dtype == np.min_scalar_type(s.n_outcome_seqs)
    xs = [digits_of_index(srow, s.S, s.L) for srow in range(s.n_setting_seqs)]
    for v, row in zip(vertices, cols.tolist()):
        assert row == [index_of_digits(realized(v, x), s.R) for x in xs]
