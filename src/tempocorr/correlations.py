"""The classical temporal-correlation polytope.

A behavior is the full table of conditional probabilities
``p(a1..aL | x1..xL)`` for sequences of L measurements with S settings and R
outcomes per time step.  Membership in the polytope means positivity,
normalization, and the arrow-of-time constraints: marginals of earlier
outcomes do not depend on later setting choices.  The extreme points are the
0/1-valued behaviors, which are in bijection with assignments of one outcome
to every setting history, and every member behavior decomposes as a convex
combination of them.

Index conventions, used throughout the package: a setting sequence
``(x1..xL)`` is stored as the base-S integer with x1 as the most significant
digit, and outcome sequences likewise in base R.  Setting histories are
ordered by length first and in base-S order within a length: history
``(x1..xt)`` sits at :func:`context_position`, and :func:`context_order`
lists them all.  So level t of the tree is the contiguous slice of S^t
histories after the (S^t - S)/(S - 1) shorter ones, one per setting prefix.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import (
    MAX_VERTEX_ENTRIES,
    NotAMember,
    ShapeMismatch,
    TableTooLarge,
    TooManyVertices,
    UnnormalizedConditional,
    exceeds_table_budget,
)

MEMBERSHIP_TOL = 1e-9
ZERO_MEASURE_TOL = 1e-12
DEFAULT_VERTEX_CAP = 10**6

# Guard for exact vertex counting: bit length of the count stays below this.
_MAX_COUNT_BITS = 1 << 24
# Counts of more bits print as a power: about 3,000 decimal digits at most.
_MAX_DECIMAL_BITS = 10_000


def index_of_digits(seq, base: int) -> int:
    """Integer for a digit sequence, first entry most significant."""
    i = 0
    for d in seq:
        i = i * base + d
    return i


def digits_of_index(i: int, base: int, length: int) -> tuple[int, ...]:
    out = [0] * length
    for k in range(length - 1, -1, -1):
        i, out[k] = divmod(i, base)
    return tuple(out)


def digits_string(seq) -> str:
    return "".join(str(d) for d in seq)


@dataclass(frozen=True)
class Scenario:
    """Sequence length L, outcomes per measurement R, settings per step S."""

    L: int
    R: int
    S: int

    def __post_init__(self):
        if self.L < 1:
            raise ShapeMismatch(f"sequence length must be >= 1, got {self.L}")
        if self.R < 2 or self.S < 2:
            raise ShapeMismatch(f"need R >= 2 and S >= 2, got R={self.R}, S={self.S}")
        # n_contexts >= S^L >= 2^L, so a long sequence fails before L powers are summed
        if (
            self.L > _MAX_COUNT_BITS.bit_length()
            or self.n_contexts * self.S.bit_length() * self.R.bit_length() > _MAX_COUNT_BITS
        ):
            raise ShapeMismatch("scenario too large for exact vertex counting")

    @property
    def n_setting_seqs(self) -> int:
        return self.S**self.L

    @property
    def n_outcome_seqs(self) -> int:
        return self.R**self.L

    @property
    def n_contexts(self) -> int:
        return sum(self.S**t for t in range(1, self.L + 1))


# --- the setting-history tree ----------------------------------------------------

def context_position(history, S: int) -> int:
    """Position of the setting history ``(x1..xt)`` in :func:`context_order`:
    the (S^t - S)/(S - 1) shorter histories come first (-1 for ``()``)."""
    return (S ** len(history) - S) // (S - 1) + index_of_digits(history, S)


@lru_cache(maxsize=None)
def context_order(scenario: Scenario) -> tuple[tuple[int, ...], ...]:
    """All setting histories, ordered by length then lexicographically."""
    return tuple(
        h for t in range(1, scenario.L + 1) for h in itertools.product(range(scenario.S), repeat=t)
    )


class TreeLevel(NamedTuple):
    """Index tables of level t of the setting/outcome history tree, in the
    order of :func:`context_order`; the arrays are read-only.

    - ``contexts``: the slice of its S^t histories in context order.
    - ``rows``: the table rows ``x1..xt 0..0`` that pin the later settings
      to 0, one per history, every S^(L-t)-th row.
    - ``pinned_shape``/``later_axes``: those rows with one axis per outcome,
      (S^t,) + (R,) * L, and the axes of steps t+1..L that sum them to the
      level-t marginal (see :func:`_pinned_marginal`).
    - ``parent``: each history's parent at level t - 1, ``h // S``.
    - ``candidates``: (S^t, R), the flat index into the level-t marginal
      (S^t, R^t) of each history's R outcomes after the empty outcome
      prefix; adding ``R`` times a realized prefix moves them to that
      prefix.
    """

    contexts: slice
    rows: slice
    pinned_shape: tuple[int, ...]
    later_axes: tuple[int, ...]
    parent: np.ndarray
    candidates: np.ndarray


# Built once per scenario and shared by every caller: the arrays are read-only.
# A few scenarios are in use at a time; the bound keeps a long run of distinct
# scenarios from holding every scenario's tables.
@lru_cache(maxsize=16)
def tree_levels(scenario: Scenario) -> tuple[TreeLevel, ...]:
    """The :class:`TreeLevel` of each level t = 1..L of the scenario's tree."""
    L, R, S = scenario.L, scenario.R, scenario.S
    levels, start = [], 0
    for t in range(1, L + 1):
        hist = np.arange(S**t)
        parent, candidates = hist // S, (hist * R**t)[:, None] + np.arange(R)
        parent.setflags(write=False)
        candidates.setflags(write=False)
        levels.append(TreeLevel(
            slice(start, start + S**t),
            slice(None, None, S ** (L - t)),
            (S**t,) + (R,) * L,
            tuple(range(t + 1, L + 1)),
            parent,
            candidates,
        ))
        start += S**t
    return tuple(levels)


@dataclass(frozen=True)
class Behavior:
    """Dense probability table, rows = setting sequences, columns = outcome
    sequences.  Only the shape is enforced here; probabilistic validity is
    the job of :func:`check_membership`, which keeps its report on the
    behavior."""

    scenario: Scenario
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        want = (self.scenario.n_setting_seqs, self.scenario.n_outcome_seqs)
        if t.shape != want:
            raise ShapeMismatch(f"table shape {t.shape} does not match scenario {want}")
        if not np.all(np.isfinite(t)):
            raise ShapeMismatch("table contains NaN or infinite entries")
        t = np.array(t)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def prob(self, outcomes, settings) -> float:
        """Entry p(outcomes | settings) for digit sequences of length L."""
        s = self.scenario
        return float(self.table[index_of_digits(settings, s.S), index_of_digits(outcomes, s.R)])


def uniform_behavior(scenario: Scenario) -> Behavior:
    table = np.full(
        (scenario.n_setting_seqs, scenario.n_outcome_seqs), 1.0 / scenario.n_outcome_seqs
    )
    return Behavior(scenario, table)


# --- membership ----------------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    """Violations of positivity, normalization, and arrow-of-time equalities.

    An empty report means the behavior lies in the temporal-correlation
    polytope.  Arrow-of-time entries record, per truncation level t and per
    (setting prefix, outcome prefix), the spread of the marginal over the
    future settings.
    """

    scenario: Scenario
    tolerance: float
    negativity: tuple[tuple[int, int, float], ...]
    normalization: tuple[tuple[int, float], ...]
    arrow_of_time: tuple[tuple[int, str, str, float], ...]

    @property
    def is_member(self) -> bool:
        return not (self.negativity or self.normalization or self.arrow_of_time)

    def summary(self) -> str:
        if self.is_member:
            return "member: positivity, normalization and arrow-of-time constraints all hold"
        lines = []
        for srow, ocol, v in self.negativity:
            lines.append(f"negative entry p[{srow},{ocol}] = {v:.6e}")
        for srow, total in self.normalization:
            lines.append(f"setting block {srow} sums to {total!r} (deviation {abs(total-1.0):.3e})")
        for t, xs, As, dev in self.arrow_of_time:
            lines.append(
                f"arrow-of-time violation at level {t}, settings {xs}, outcomes {As}: spread {dev:.6e}"
            )
        return "\n".join(lines)


def check_membership(b: Behavior) -> MembershipReport:
    """Full polytope membership report for a behavior; a sum or spread that
    overflows to inf is a violation, reported without a numpy warning.

    The report is computed once per :class:`Behavior` and kept on it: the
    behavior is frozen and its table a read-only copy, so every later call,
    including those of :func:`require_member`, returns the same report.
    """
    report = getattr(b, "_membership", None)
    if report is None:
        report = _membership_report(b)
        object.__setattr__(b, "_membership", report)
    return report


def _membership_report(b: Behavior) -> MembershipReport:
    s, L, table = b.scenario, b.scenario.L, b.table
    rows, cols = np.nonzero(table < -MEMBERSHIP_TOL)
    neg = [(i, j, float(table[i, j])) for i, j in zip(rows.tolist(), cols.tolist())]
    aot = []
    with np.errstate(over="ignore", invalid="ignore"):
        sums = table.sum(axis=1)
        norm = [(i, float(sums[i])) for i in np.nonzero(np.abs(sums - 1.0) > MEMBERSHIP_TOL)[0].tolist()]
        for t in range(1, L):
            m = _level_marginal(s, table, t)
            future = tuple(range(t, L))
            dev = m.max(axis=future) - m.min(axis=future)
            for idx in np.argwhere(dev > MEMBERSHIP_TOL):
                xs, As = idx[:t], idx[t:]
                aot.append((t, digits_string(xs), digits_string(As), float(dev[tuple(idx)])))

    return MembershipReport(s, MEMBERSHIP_TOL, tuple(neg), tuple(norm), tuple(aot))


def require_member(b: Behavior) -> None:
    """Raise :class:`NotAMember`, carrying the report, unless ``b`` is a member."""
    report = check_membership(b)
    if not report.is_member:
        raise NotAMember("behavior is not in the polytope:\n" + report.summary(), report)


def _level_marginal(s: Scenario, table: np.ndarray, t: int) -> np.ndarray:
    """p(a1..at | x1..xL) of shape (S,)*L + (R,)*t."""
    L, R, S = s.L, s.R, s.S
    arr = table.reshape((S,) * L + (R,) * L)
    return arr.sum(axis=tuple(range(L + t, 2 * L)))


def _pinned_marginal(s: Scenario, table: np.ndarray, t: int) -> np.ndarray:
    """Level-t marginal table (S^t, R^t); later settings pinned to 0.

    Only the rows ``prefix * S^(L-t)`` are summed, over the same trailing
    axes as :func:`_level_marginal`, so the result equals its slice bit for bit.
    """
    level = tree_levels(s)[t - 1]
    rows = table[level.rows].reshape(level.pinned_shape)
    return rows.sum(axis=level.later_axes).reshape(s.S**t, s.R**t)


def _summed(level: TreeLevel, rows: np.ndarray) -> np.ndarray:
    """The level's marginal from its pinned rows (a view of the table shaped
    ``level.pinned_shape``): their sum over the later outcome axes, as in
    :func:`_pinned_marginal` but not reshaped, or at level L the rows
    themselves, whose sum over no axes would only copy them."""
    return rows.sum(axis=level.later_axes) if level.later_axes else rows


def marginal(b: Behavior, t: int) -> Behavior:
    """Length-t truncation, summing out the later outcomes.

    Well defined only on members: the arrow-of-time constraints make the
    result independent of the later settings (fixed to 0 here).
    """
    s = b.scenario
    if not 1 <= t < s.L:
        raise ShapeMismatch(f"truncation level must be in 1..{s.L - 1}, got {t}")
    require_member(b)
    return Behavior(Scenario(t, s.R, s.S), _pinned_marginal(s, b.table, t))


# --- factorization into a conditional chain -------------------------------------

@dataclass(frozen=True)
class ConditionalChain:
    """Step-wise conditionals p(a_t | a_1..a_{t-1}, x_1..x_t).

    ``levels[t-1]`` has shape (S^t, R^(t-1), R), indexed by the setting
    prefix, the outcome prefix, and the outcome at step t.  Every slice over
    the last axis is a probability distribution, including on histories the
    behavior never reaches (those are set uniform by :func:`factorize`).
    """

    scenario: Scenario
    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        s = self.scenario
        if len(self.levels) != s.L:
            raise ShapeMismatch(f"expected {s.L} levels, got {len(self.levels)}")
        frozen = []
        for t, lvl in enumerate(self.levels, start=1):
            a = np.asarray(lvl, dtype=float)
            want = (s.S**t, s.R ** (t - 1), s.R)
            if a.shape != want:
                raise ShapeMismatch(f"level {t} has shape {a.shape}, expected {want}")
            a = np.array(a)
            a.setflags(write=False)
            frozen.append(a)
        object.__setattr__(self, "levels", tuple(frozen))


def factorize(b: Behavior) -> ConditionalChain:
    """Chain of conditionals whose product reproduces the behavior.

    Conditionals on zero-measure histories are set to the uniform
    distribution, so every level is a valid stochastic table and
    :func:`compose_from_conditionals` inverts this exactly.  Level t's
    marginal is divided by its parent's, laid out as (S^(t-1), S, R^(t-1), R)
    over (S^(t-1), 1, R^(t-1), 1): each history's parent is broadcast, not
    gathered, and only reachable parents are divided by.
    """
    s = b.scenario
    require_member(b)
    L, R, S = s.L, s.R, s.S
    marginals = [np.ones((1, 1))] + [_pinned_marginal(s, b.table, t) for t in range(1, L + 1)]

    levels = []
    for t in range(1, L + 1):
        shape = (S ** (t - 1), S, R ** (t - 1), R)
        parent = marginals[t - 1].reshape(S ** (t - 1), 1, R ** (t - 1), 1)
        cond = np.full(shape, 1.0 / R)
        np.divide(marginals[t].reshape(shape), parent, out=cond, where=~(parent <= ZERO_MEASURE_TOL))
        levels.append(np.clip(cond, 0.0, None, out=cond).reshape(S**t, R ** (t - 1), R))
    return ConditionalChain(s, tuple(levels))


def compose_from_conditionals(chain: ConditionalChain) -> Behavior:
    """Behavior defined by the product of step conditionals.

    The result satisfies the arrow-of-time constraints by construction.
    The rows of a setting prefix x1..xt and the columns of an outcome prefix
    a1..at are contiguous blocks of the table, so level t's conditionals,
    viewed as (S^t, 1, R^t, 1), broadcast over the table viewed as (S^t,
    S^(L-t), R^t, R^(L-t)): no per-entry index is built.
    """
    s = chain.scenario
    L, R, S = s.L, s.R, s.S
    for t, lvl in enumerate(chain.levels, start=1):
        if float(lvl.min()) < -ZERO_MEASURE_TOL:
            raise UnnormalizedConditional(f"level {t} has a negative conditional {float(lvl.min())!r}")
        sums = lvl.sum(axis=2)
        dev = float(np.max(np.abs(sums - 1.0)))
        if dev > MEMBERSHIP_TOL:
            raise UnnormalizedConditional(f"level {t} conditionals deviate from sum 1 by {dev:.3e}")

    table = np.ones((s.n_setting_seqs, s.n_outcome_seqs))
    for t, lvl in enumerate(chain.levels, start=1):
        # step by step, left to right; a product that reached 0 stays as it is
        blocks = table.reshape(S**t, S ** (L - t), R**t, R ** (L - t))
        table = np.where(blocks == 0.0, blocks, blocks * lvl.reshape(S**t, 1, R**t, 1))
    return Behavior(s, table.reshape(s.n_setting_seqs, s.n_outcome_seqs))


def random_conditional_chain(rng: np.random.Generator, scenario: Scenario) -> ConditionalChain:
    """Dirichlet-uniform random chain; composing it gives a random member."""
    levels = []
    for t in range(1, scenario.L + 1):
        shape = (scenario.S**t, scenario.R ** (t - 1), scenario.R)
        g = rng.gamma(1.0, size=shape)
        levels.append(g / g.sum(axis=2, keepdims=True))
    return ConditionalChain(scenario, tuple(levels))


# --- deterministic vertices ------------------------------------------------------

@dataclass(frozen=True)
class DeterministicVertex:
    """Extreme point: one fixed outcome per setting history.

    ``outcomes[i]`` is the outcome assigned to ``context_order(scenario)[i]``;
    histories are identified with their realized outcome prefix, so distinct
    assignments induce distinct 0/1 behaviors.
    """

    scenario: Scenario
    outcomes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(int(a) for a in self.outcomes))
        s = self.scenario
        if len(self.outcomes) != s.n_contexts:
            raise ShapeMismatch(
                f"assignment has {len(self.outcomes)} entries, expected {s.n_contexts}"
            )
        if any(not 0 <= a < s.R for a in self.outcomes):
            raise ShapeMismatch("assignment contains an out-of-range outcome")

    @property
    def index(self) -> int:
        """Position in the documented lexicographic enumeration order."""
        return index_of_digits(self.outcomes, self.scenario.R)

    @classmethod
    def from_index(cls, scenario: Scenario, k: int) -> "DeterministicVertex":
        """The vertex at position ``k`` of the enumeration order; ``k`` must
        lie in ``0..count_vertices(scenario) - 1``."""
        if not 0 <= k < count_vertices(scenario):
            raise ShapeMismatch(f"vertex index {k} outside 0..{vertex_count_text(scenario, -1)}")
        return cls(scenario, digits_of_index(k, scenario.R, scenario.n_contexts))

    def outcome_for(self, history) -> int:
        """Assigned outcome after the setting history ``(x1..xt)``."""
        s = self.scenario
        if not 1 <= len(history) <= s.L or any(not 0 <= x < s.S for x in history):
            raise ShapeMismatch(f"{tuple(history)} is not a setting history of {s}")
        return self.outcomes[context_position(history, s.S)]


def count_vertices(scenario: Scenario) -> int:
    """Number of extreme points, (R^S)^(1 + S + ... + S^(L-1)), exactly."""
    exponent = sum(scenario.S**i for i in range(scenario.L))
    return (scenario.R**scenario.S) ** exponent


def vertex_count_text(scenario: Scenario, offset: int = 0) -> str:
    """``count_vertices(scenario) + offset`` for printing: in decimal, or as
    ``R^n_contexts`` plus the offset once the decimal form could pass
    Python's 4,300-digit int-to-str limit."""
    n = count_vertices(scenario)
    if n.bit_length() <= _MAX_DECIMAL_BITS:
        return str(n + offset)
    return f"{scenario.R}^{scenario.n_contexts}" + (f"{offset:+d}" if offset else "")


def _capped_count(scenario: Scenario, cap: int) -> int:
    """The vertex count, refused above ``cap`` or when the vertex set's
    outcomes would exceed ``errors.MAX_VERTEX_ENTRIES``."""
    n = count_vertices(scenario)
    if n > cap:
        raise TooManyVertices(n, cap, vertex_count_text(scenario))
    if n * scenario.n_contexts > MAX_VERTEX_ENTRIES:
        what = f"a vertex set of {vertex_count_text(scenario)} * {scenario.n_contexts} outcomes"
        raise TableTooLarge(what, (scenario.L, scenario.R, scenario.S), MAX_VERTEX_ENTRIES)
    return n


def enumerate_vertices(scenario: Scenario, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
    """All vertices in lexicographic order, as the read-only (n, n_contexts)
    outcome array whose row k is vertex k's assignment; see
    :func:`_capped_count` for what is refused before allocating."""
    n, R = _capped_count(scenario, cap), scenario.R
    out = np.empty((n, scenario.n_contexts), dtype=np.min_scalar_type(R))
    for c in range(scenario.n_contexts):
        # column c is digit c of the row index: each outcome in turn, R^(n_contexts-1-c) rows long
        out.reshape(R**c, R, -1, scenario.n_contexts)[..., c] = np.arange(R, dtype=out.dtype)[:, None]
    out.setflags(write=False)
    return out


def vertex_behavior(v: DeterministicVertex) -> Behavior:
    """The 0/1 probability table induced by a deterministic assignment."""
    return mixture_behavior(ConvexDecomposition(v.scenario, [1.0], [v.outcomes]))


# The four vertices of the (2,2,2) scenario that no qubit reaches; their unit
# entries double as the coefficient patterns of the builtin witnesses.
QUBIT_UNREACHABLE_UNIT_ENTRIES: dict[str, tuple[tuple[tuple[int, int], tuple[int, int]], ...]] = {
    "e1": (((0, 0), (0, 0)), ((0, 0), (1, 1)), ((0, 1), (0, 1)), ((0, 1), (1, 0))),
    "e2": (((0, 1), (0, 0)), ((0, 1), (1, 1)), ((0, 0), (0, 1)), ((0, 0), (1, 0))),
    "e3": (((0, 1), (0, 0)), ((0, 0), (1, 1)), ((0, 1), (0, 1)), ((0, 1), (1, 0))),
    "e4": (((0, 1), (0, 0)), ((0, 1), (1, 1)), ((0, 1), (0, 1)), ((0, 0), (1, 0))),
}


def named_vertex(name: str) -> DeterministicVertex:
    """One of the named (2,2,2) vertices e1..e4."""
    try:
        entries = QUBIT_UNREACHABLE_UNIT_ENTRIES[name]
    except KeyError:
        raise ShapeMismatch(f"unknown vertex name {name!r}; known: e1, e2, e3, e4") from None
    assigned = {}
    for (a, b), (x, y) in entries:
        assigned[(x,)], assigned[(x, y)] = a, b
    s = Scenario(2, 2, 2)
    return DeterministicVertex(s, tuple(assigned[h] for h in context_order(s)))


# --- relabeling symmetries --------------------------------------------------------

@dataclass(frozen=True)
class RelabelingGroup:
    """Symmetry group acting on vertices by relabeling.

    Each element is a pair (setting permutation, per-setting outcome
    permutations); the setting permutation is applied identically at every
    time step and the outcome permutation of a measurement follows it to
    every slot where that measurement is used.
    """

    scenario: Scenario
    elements: tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]

    @classmethod
    def full(cls, scenario: Scenario) -> "RelabelingGroup":
        """All setting permutations combined with independent per-setting
        outcome permutations; order S! * (R!)^S, refused above
        ``errors.MAX_TABLE_ENTRIES`` before any element is built."""
        _refuse_full_group(scenario)
        elems = tuple(
            (sp, ops)
            for sp in itertools.permutations(range(scenario.S))
            for ops in itertools.product(
                itertools.permutations(range(scenario.R)), repeat=scenario.S
            )
        )
        return cls(scenario, elems)

    @classmethod
    def identity(cls, scenario: Scenario) -> "RelabelingGroup":
        sp = tuple(range(scenario.S))
        op = tuple(range(scenario.R))
        return cls(scenario, ((sp, (op,) * scenario.S),))

    @classmethod
    def uniform_outcome(cls, scenario: Scenario) -> "RelabelingGroup":
        """Setting permutations with one global outcome permutation applied to
        every measurement; order S! * R!.  Kept for comparison: on (2,2,2)
        this coarser group leaves more than 10 classes."""
        elems = tuple(
            (sp, (op,) * scenario.S)
            for sp in itertools.permutations(range(scenario.S))
            for op in itertools.permutations(range(scenario.R))
        )
        return cls(scenario, elems)

    @property
    def order(self) -> int:
        return len(self.elements)


def _refuse_full_group(scenario: Scenario) -> None:
    order = math.factorial(scenario.S) * math.factorial(scenario.R) ** scenario.S
    if exceeds_table_budget(order):
        what = f"a relabeling group of S! * (R!)^S = {scenario.S}! * {scenario.R}!^{scenario.S} elements"
        raise TableTooLarge(what, (scenario.L, scenario.R, scenario.S))


def _full_group_generators(scenario: Scenario) -> list:
    """Elements that generate :meth:`RelabelingGroup.full`: the adjacent
    setting swaps and, per setting, the adjacent outcome swaps."""
    S, R = scenario.S, scenario.R
    settings, outcomes = tuple(range(S)), tuple(range(R))

    def swap(n, i):
        p = list(range(n))
        p[i], p[i + 1] = i + 1, i
        return tuple(p)

    gens = [(swap(S, i), (outcomes,) * S) for i in range(S - 1)]
    gens += [(settings, tuple(swap(R, j) if x == y else outcomes for y in range(S))) for x in range(S) for j in range(R - 1)]
    return gens


def _relabel_action(scenario: Scenario, element) -> tuple[list[int], list[tuple[int, ...]]]:
    """Per context: the position whose outcome it receives, and the outcome
    permutation applied on the way."""
    setting_perm, outcome_perms = element
    inverse = [0] * scenario.S
    for i, p in enumerate(setting_perm):
        inverse[p] = i
    ctxs = context_order(scenario)
    src = [context_position([inverse[x] for x in h], scenario.S) for h in ctxs]
    return src, [outcome_perms[h[-1]] for h in ctxs]


def relabel_vertex(v: DeterministicVertex, element) -> DeterministicVertex:
    """Image of a vertex under one relabeling element."""
    src, omap = _relabel_action(v.scenario, element)
    return DeterministicVertex(v.scenario, tuple(m[v.outcomes[i]] for i, m in zip(src, omap)))


def relabel_behavior(b: Behavior, element) -> Behavior:
    """Image of a behavior under one relabeling element, the image of each
    vertex in its mixture: entry (x, a) is b's entry at the settings the
    element sends to x, with each a_t undone by the outcome permutation of
    the history x1..xt (see :func:`_relabel_action`)."""
    s = b.scenario
    src, omap = _relabel_action(s, element)
    levels = tree_levels(s)
    leaves = levels[-1].contexts
    rows = np.array(src[leaves]) - leaves.start
    undo = np.argsort(omap, axis=1)  # per context, the inverse outcome permutation
    settings, outcomes = np.arange(s.n_setting_seqs)[:, None], np.arange(s.n_outcome_seqs)
    cols = np.zeros((s.n_setting_seqs, s.n_outcome_seqs), dtype=np.int64)
    for t, level in enumerate(levels, start=1):
        history = level.contexts.start + settings // s.S ** (s.L - t)
        cols = cols * s.R + undo[history, outcomes // s.R ** (s.L - t) % s.R]
    return Behavior(s, b.table[rows[:, None], cols])


@dataclass(frozen=True)
class VertexClassification:
    """Orbit partition of the vertex set under a relabeling group.

    Orbits are tuples of vertex indices (in enumeration order), sorted by
    their smallest member, which also serves as the canonical representative.
    """

    scenario: Scenario
    orbits: tuple[tuple[int, ...], ...]

    @property
    def n_orbits(self) -> int:
        return len(self.orbits)

    def orbit_of(self, index: int) -> int:
        for k, orb in enumerate(self.orbits):
            if index in orb:
                return k
        raise ShapeMismatch(f"vertex index {index} outside the classified range")


def classify_vertices(
    scenario: Scenario,
    group: RelabelingGroup | None = None,
    cap: int = DEFAULT_VERTEX_CAP,
) -> VertexClassification:
    """Partition all vertices into relabeling orbits (full group by default).

    Each vertex is labelled by the least index in its orbit: all labels
    start at their own index, and each round lowers every label to the
    label at its image under each generator, then to its label's label,
    until a round changes none.  The full group's generators are the
    adjacent swaps of :func:`_full_group_generators`, so its S! * (R!)^S
    elements are never built (its order is refused as
    :meth:`RelabelingGroup.full` refuses it); a group passed in is
    generated by its own elements.  A generator's image indices are built
    in int32, one context at a time.
    """
    n = _capped_count(scenario, cap)
    if group is None:
        _refuse_full_group(scenario)
        generators = _full_group_generators(scenario)
    elif group.scenario != scenario:
        raise ShapeMismatch("relabeling group belongs to a different scenario")
    else:
        generators = group.elements
    # one contiguous row of outcomes per context
    digits = np.ascontiguousarray(enumerate_vertices(scenario, cap).T)
    # _capped_count keeps n * n_contexts <= 2^24, so every index fits int32
    place = scenario.R ** np.arange(scenario.n_contexts - 1, -1, -1, dtype=np.int32)
    actions = []
    for element in generators:
        src, omap = _relabel_action(scenario, element)
        actions.append((src, np.array(omap, dtype=np.int32) * place[:, None]))

    label, image = np.arange(n, dtype=np.int32), np.empty(n, dtype=np.int32)
    while True:
        before = label.copy()
        for src, weights in actions:
            image[:] = 0
            for c, w in enumerate(weights):
                image += w.take(digits[src[c]])
            np.minimum(label, label[image], out=label)
        label = label[label]
        if np.array_equal(label, before):
            break
    del digits, image, before  # freed before the orbits' Python ints are built
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order])) + 1
    return VertexClassification(scenario, tuple(tuple(o.tolist()) for o in np.split(order, starts)))


# --- convex decomposition ---------------------------------------------------------

def _check_weights(weights: np.ndarray) -> None:
    """Refuse the first weight, in term order, that is not finite or is
    negative; then weights whose sum, taken term by term from 0.0, is off 1."""
    bad = np.flatnonzero(~np.isfinite(weights) | (weights < -ZERO_MEASURE_TOL))
    if bad.size:
        w = float(weights[bad[0]])
        raise ShapeMismatch(f"weight {w!r} is not finite" if not math.isfinite(w) else f"negative weight {w!r}")
    total = reduce(operator.add, weights.tolist(), 0.0)
    if abs(total - 1.0) > MEMBERSHIP_TOL:
        raise ShapeMismatch(f"weights sum to {total!r}, not 1")


@dataclass(frozen=True, eq=False)
class ConvexDecomposition:
    """Convex combination of deterministic vertices, held as two read-only
    arrays, copied and checked once: ``weights`` of shape (n,), and
    ``outcomes`` of shape (n, n_contexts) whose row k is the assignment of
    vertex k, checked as a :class:`DeterministicVertex`'s is; :attr:`terms`
    builds a vertex when one is read."""

    scenario: Scenario
    weights: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        s = self.scenario
        weights, outcomes = np.asarray(self.weights, dtype=float), np.asarray(self.outcomes)
        if not weights.size:
            raise ShapeMismatch("decomposition needs at least one vertex")
        if outcomes.ndim != 2 or weights.shape != (len(outcomes),):
            raise ShapeMismatch(f"weights of shape {weights.shape} do not fit assignments of shape {outcomes.shape}")
        if outcomes.shape[1] != s.n_contexts:
            raise ShapeMismatch(f"assignment has {outcomes.shape[1]} entries, expected {s.n_contexts}")
        if outcomes.min() < 0 or outcomes.max() >= s.R:
            raise ShapeMismatch("assignment contains an out-of-range outcome")
        _check_weights(weights)
        weights, outcomes = np.array(weights), np.array(outcomes, dtype=np.min_scalar_type(s.R))
        weights.setflags(write=False)
        outcomes.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def terms(self) -> "_Terms":
        """The ``(weight, vertex)`` pairs in term order."""
        return _Terms(self)


class _Terms(Sequence):
    """The ``(weight, vertex)`` pairs of a decomposition; a vertex is built
    only when its pair is read, and the pairs compare as a tuple does."""

    def __init__(self, decomp: ConvexDecomposition):
        self._decomp = decomp

    def __len__(self) -> int:
        return len(self._decomp.weights)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        d = self._decomp
        return float(d.weights[k]), DeterministicVertex(d.scenario, d.outcomes[k].tolist())

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, Sequence) else NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


def _vertex_columns(s: Scenario, outcomes: np.ndarray) -> np.ndarray:
    """Outcome column each vertex (one row of ``outcomes``) reaches in each
    table row: the base-R index of the outcomes it assigns along the row's
    path through the tree, built level by level as the peel does."""
    cols = np.zeros((len(outcomes), 1), dtype=np.min_scalar_type(s.n_outcome_seqs))
    for level in tree_levels(s):
        cols = np.repeat(cols, s.S, axis=1) * s.R + outcomes[:, level.contexts]
    return cols


def mixture_behavior(decomp: ConvexDecomposition) -> Behavior:
    """Weighted sum of the vertex behaviors."""
    s = decomp.scenario
    table = np.zeros((s.n_setting_seqs, s.n_outcome_seqs))
    # unbuffered and term-major: each entry sums its terms in term order
    np.add.at(table, (np.arange(s.n_setting_seqs), _vertex_columns(s, decomp.outcomes)), decomp.weights[:, None])
    return Behavior(s, table)


def decompose_behavior(b: Behavior) -> ConvexDecomposition:
    """Write a member behavior as a convex combination of vertices by a
    greedy peel: at most one term per positive entry of the table.

    Each step gives every setting history, level by level, the outcome of
    largest residual marginal at the vertex's own realized outcome prefix
    (ties to the lowest), and subtracts the vertex with the smallest residual
    entry on its support as weight, which zeroes that entry.  The residual
    stays a scaled member, as the constraints are linear.

    One pass over the levels builds each vertex: the histories of level t
    are the setting prefixes ``0..S^t-1``, in :func:`context_order`, and
    the realized outcome prefix of each is its parent's extended by the
    outcome just chosen, so after level L it is the vertex's column in
    every table row, its support.  Each vertex is written into its row of
    one preallocated assignment array.  The level tables come from
    :func:`tree_levels`, and the pinned rows of each level t < L are viewed
    once per call, as (S^t,) + (R,) * L views of the residual, so each term
    only sums them.
    """
    s = b.scenario
    require_member(b)
    R = s.R
    residual = np.array(b.table)
    flat = residual.reshape(-1)
    levels = tree_levels(s)
    # each level's pinned rows, viewed once per call
    (root, root_rows), *deeper = zip(levels, [residual[lv.rows].reshape(lv.pinned_shape) for lv in levels])
    row_starts = levels[-1].candidates[:, 0]
    # each term zeroes one positive entry, so there are at most this many
    cap = int(np.count_nonzero(b.table > 0.0))
    weights = np.empty(cap)
    outcomes = np.empty((cap, s.n_contexts), dtype=np.min_scalar_type(R))
    n, n_rows = 0, s.n_setting_seqs
    while residual.sum() / n_rows > ZERO_MEASURE_TOL:
        vertex = outcomes[n]
        # level 1 hangs off the root, whose realized prefix is empty: its
        # (S, R) marginal holds each history's R candidates as a row
        realized = _summed(root, root_rows).argmax(axis=1)
        vertex[root.contexts] = realized
        for level, rows in deeper:
            # history x1..xt is reached with the outcome prefix of its parent x1..x(t-1)
            realized = realized[level.parent] * R
            chosen = _summed(level, rows).take(level.candidates + realized[:, None]).argmax(axis=1)
            vertex[level.contexts] = chosen
            realized += chosen
        support = row_starts + realized
        w = float(flat[support].min())
        if w <= ZERO_MEASURE_TOL:
            break
        flat[support] -= w
        weights[n] = w
        n += 1
    total = sum(weights[:n].tolist())
    return ConvexDecomposition(s, weights[:n] / total, outcomes[:n])
