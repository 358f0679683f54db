"""Qubit dimension witnesses for length-2 sequences of two binary measurements.

Four linear functionals B1..B4 pick out the unit entries of the four
(2,2,2) vertices that no qubit reaches.  Their qubit maxima are

- B1 <= 3 (analytic, tight),
- B3 <= C3 ~ 3.18623, the root of a degree-10 polynomial (analytic),
- B2 <= 3.5 analytic, with the true maximum numerically supported to be 3,
- B4 <= 2 + sqrt(2) analytic, numerically supported to equal C3.

Exceeding an analytic bound certifies that the measured system is not a
qubit, and quantifies how far it is from one: a system whose states and
instrument outputs stay within trace distance eps of a two-dimensional
subspace obeys B_i <= C_i + 12 eps.

The bounds themselves (the caps, C1, the exact C3 root and the B4 envelope
formula) live in :mod:`tempocorr.bounds`, which loads no numpy; this
module re-exports them and evaluates the profiles on numpy arrays.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import errors
from .bounds import (  # re-exported: the certified bounds live in tempocorr.bounds
    B1_PROJECTIVE_MAX,
    B2_ANALYTIC_CAP,
    B4_ANALYTIC_CAP,
    C1_VALUE,
    C1Bound,
    C3Bound,
    _envelope,
    _real_roots,
    _sign,
    b3_profile_derivative,
    c1_bound,
    c3_bound,
    expanded_polynomial_coefficients,
    nested_polynomial,
)
from .correlations import (
    QUBIT_UNREACHABLE_UNIT_ENTRIES,
    Behavior,
    RelabelingGroup,
    Scenario,
    relabel_behavior,
    require_member,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidStrategy,
    NotAProjector,
    ParamOutOfRange,
    ScenarioMismatch,
    TableTooLarge,
    exceeds_table_budget,
)
from .qmath import (
    SystemModel,
    bloch_to_density,
    effect_from_params,
    hermiticity_defect,
    psd_sqrt,
    trace_norm,
    validate_instrument,
)

DEFAULT_SEED = 1729


class WitnessTerm(NamedTuple):
    outcomes: tuple[int, int]
    settings: tuple[int, int]
    coeff: float


@dataclass(frozen=True)
class WitnessFunctional:
    """Sparse linear functional on length-2 behaviors."""

    name: str
    scenario: Scenario
    terms: tuple[WitnessTerm, ...]

    def __post_init__(self):
        if self.scenario.L != 2:
            raise ScenarioMismatch("witness functionals are defined for L=2 scenarios")
        norm = tuple(
            WitnessTerm(
                (int(t[0][0]), int(t[0][1])), (int(t[1][0]), int(t[1][1])), float(t[2])
            )
            for t in self.terms
        )
        R, S = self.scenario.R, self.scenario.S
        total = 0.0  # sum |coeff|, which scales the optimizer's stopping tolerance
        for t in norm:
            if not all(0 <= o < R for o in t.outcomes) or not all(0 <= x < S for x in t.settings):
                raise ScenarioMismatch(f"term {t.outcomes}, {t.settings} lies outside {self.scenario}")
            total += abs(t.coeff)
            if not math.isfinite(total):  # NaN and inf fail too
                raise ParamOutOfRange(f"term {t.outcomes}, {t.settings}: coefficient {t.coeff!r}, sum |coeff| {total!r}")
        object.__setattr__(self, "terms", norm)


def builtin_functionals() -> dict[str, WitnessFunctional]:
    """B1..B4, each the four unit entries of the vertex e1..e4 it targets."""
    scenario = Scenario(2, 2, 2)
    out = {}
    for i, name in enumerate(("e1", "e2", "e3", "e4"), start=1):
        terms = tuple(
            WitnessTerm(ab, xy, 1.0) for ab, xy in QUBIT_UNREACHABLE_UNIT_ENTRIES[name]
        )
        out[f"B{i}"] = WitnessFunctional(f"B{i}", scenario, terms)
    return out


def evaluate(f: WitnessFunctional, b: Behavior) -> float:
    """Linear evaluation sum_terms coeff * p(ab|xy)."""
    if b.scenario != f.scenario:
        raise ScenarioMismatch(
            f"behavior scenario {b.scenario} does not match functional scenario {f.scenario}"
        )
    return float(sum(t.coeff * b.prob(t.outcomes, t.settings) for t in f.terms))


# --- qubit strategies --------------------------------------------------------------
#
# For L=2 the most general qubit value of a witness is reached by
# measure-and-prepare instruments, so a strategy needs only: the input Bloch
# vector, one post-measurement Bloch vector per (first outcome, setting), and
# binary effects a_s (1 + b_s n_s . sigma) per setting.  The witness value
# is then a closed form in these parameters and no simulation is needed.

@dataclass(frozen=True)
class EffectParams:
    """Parameters of a binary qubit effect a (1 + b axis . sigma)."""

    a: float
    b: float
    axis: np.ndarray

    def __post_init__(self):
        ax = np.array(np.asarray(self.axis, dtype=float))
        ax.setflags(write=False)
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if ax.shape != (3,):
            raise InvalidStrategy(f"effect axis must have shape (3,), got {ax.shape}")
        with np.errstate(over="ignore"):  # an overflowing norm is inf and fails
            norm = math.sqrt(ax.dot(ax))  # np.linalg.norm(ax), which takes this dot product
        if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
            raise InvalidStrategy(f"effect axis norm {norm!r} is not 1")
        if not -1e-12 <= self.b <= 1.0 + 1e-12:
            raise InvalidStrategy(f"b={self.b!r} outside [0, 1]")
        if not -1e-12 <= self.a <= 1.0 / (1.0 + self.b) + 1e-12:
            raise InvalidStrategy(f"a={self.a!r} outside [0, 1/(1+b)]")


@dataclass(frozen=True)
class QubitStrategy:
    """Input state, post-measurement states, and effects of a qubit protocol.

    ``post[a, x]`` is the Bloch vector prepared after the first measurement
    with setting x gave outcome a.
    """

    initial: np.ndarray
    post: np.ndarray
    effects: tuple[EffectParams, EffectParams]

    def __post_init__(self):
        init = np.array(np.asarray(self.initial, dtype=float))
        post = np.array(np.asarray(self.post, dtype=float))
        if init.shape != (3,):
            raise InvalidStrategy(f"initial Bloch vector must have shape (3,), got {init.shape}")
        if post.shape != (2, 2, 3):
            raise InvalidStrategy(f"post array must have shape (2, 2, 3), got {post.shape}")
        with np.errstate(over="ignore"):  # an overflowing norm is inf and fails
            norm = math.sqrt(init.dot(init))  # np.linalg.norm(init), which takes this dot product
            norms = np.sqrt(np.add.reduce(post * post, axis=2))  # np.linalg.norm(post, axis=2) of a real array
        if not norm <= 1.0 + 1e-9:  # NaN fails too
            raise InvalidStrategy(f"initial Bloch norm {norm!r} exceeds 1")
        if not float(norms.max()) <= 1.0 + 1e-9:  # a NaN norm makes the max NaN
            raise InvalidStrategy(f"post Bloch norm {float(norms.max())!r} exceeds 1")
        if len(self.effects) != 2:
            raise InvalidStrategy("strategy needs exactly two effect parameter sets")
        init.setflags(write=False)
        post.setflags(write=False)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "post", post)
        object.__setattr__(self, "effects", tuple(self.effects))


def _outcome_prob(eff: EffectParams, outcome: int, bloch) -> float:
    p0 = eff.a * (1.0 + eff.b * float(np.dot(eff.axis, bloch)))
    return p0 if outcome == 0 else 1.0 - p0


def _require_binary_pair_scenario(f: WitnessFunctional) -> None:
    if f.scenario != Scenario(2, 2, 2):
        raise ScenarioMismatch(
            f"qubit strategies cover the (2,2,2) scenario, functional has {f.scenario}"
        )


def strategy_value(f: WitnessFunctional, s: QubitStrategy) -> float:
    """Exact witness value of a strategy from the closed-form probabilities."""
    _require_binary_pair_scenario(f)
    total = 0.0
    for (a, b), (x, y), coeff in f.terms:
        p_first = _outcome_prob(s.effects[x], a, s.initial)
        p_second = _outcome_prob(s.effects[y], b, s.post[a, x])
        total += coeff * p_first * p_second
    return total


def random_strategy(rng: np.random.Generator) -> QubitStrategy:
    """Strategy with Bloch vectors uniform in the ball and random effects."""

    def ball(shape):
        v = rng.normal(size=shape + (3,))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        radius = rng.uniform(size=shape + (1,)) ** (1.0 / 3.0)
        return v * radius

    effects = []
    for _ in range(2):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        b = rng.uniform()
        a = rng.uniform() / (1.0 + b)
        effects.append(EffectParams(a, b, axis))
    return QubitStrategy(ball(())[()], ball((2, 2)), tuple(effects))


def strategy_system_model(s: QubitStrategy) -> SystemModel:
    """Measure-and-prepare system whose length-2 behavior equals the strategy.

    For each setting the instrument measures the binary effect and re-prepares
    the designated post-measurement state, so the same instrument serves at
    both time steps.
    """
    instruments = []
    for x, eff in enumerate(s.effects):
        e0 = effect_from_params(eff.a, eff.b, eff.axis)
        kraus_sets = []
        for outcome, effect in ((0, e0), (1, np.eye(2, dtype=complex) - e0)):
            target = bloch_to_density(s.post[outcome, x]).matrix
            vals, vecs = np.linalg.eigh(target)
            root = psd_sqrt(effect)
            ops = []
            for j in range(2):
                if vals[j] <= 1e-14:
                    continue
                for k in range(2):
                    ops.append(math.sqrt(float(vals[j])) * np.outer(vecs[:, j], root[k, :]))
            if not ops:
                ops = [np.zeros((2, 2), dtype=complex)]
            kraus_sets.append(ops)
        instruments.append(validate_instrument(kraus_sets))
    return SystemModel(bloch_to_density(s.initial), tuple(instruments))


# --- lockstep Nelder-Mead -----------------------------------------------------------

def _step_choices():
    """The Nelder-Mead step for each byte of six comparisons, packed big
    endian as by ``np.packbits``: whether the reflection beats the best and
    the second worst vertex, whether the reflection and the inside
    contraction beat the worst vertex, whether the expansion beats the
    reflection and whether the outside contraction is no worse than it.  The
    step is the row of the candidate that replaces the worst vertex (0
    expansion, 1 outside contraction, 2 reflection, 3 inside contraction),
    or 4 to shrink."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).T.astype(bool)
    r_best, r_second, r_worst, inside, expand, outside = bits[:6]
    contract = np.where(r_worst, np.where(outside, 1, 4), np.where(inside, 3, 4))
    return np.where(r_best, np.where(expand, 0, 2), np.where(r_second, 2, contract))


_STEP_CHOICE = _step_choices()


def _nelder_mead(fun, simplex, maxiter: int, fatol: float, stats=None):
    """Minimize ``fun`` by Nelder-Mead from a ``(starts, n+1, n)`` stack of
    initial simplices, all starts stepped in lockstep.

    ``fun(points, out)`` writes the values of the rows of an ``(m, n)``
    array of points into the ``(m,)`` array ``out``, each row's value
    independent of the other rows.  Each iteration reflects the worst
    vertex through the centroid of the others, then expands or contracts
    (outside or inside), and shrinks toward the best vertex when the
    contraction fails, with the dimension-adaptive coefficients of Gao and
    Han, Comput. Optim. Appl. 51 (2012): rho = 1, chi = 1 + 2/n, psi = 3/4 -
    1/(2n), sigma = 1 - 1/n.  The four candidates of every running start
    are evaluated together in one call, straight into the loop's value
    block, and the shrunk vertices, where a start shrinks, in a second; so
    an iteration makes at most two calls.  Each simplex is sorted stably,
    so ties keep their vertex order.  A start stops once its values agree
    within ``fatol``, however far apart its vertices lie; it is then frozen
    and not evaluated again.  The iteration count starts at 1, so
    ``maxiter`` 0 or 1 returns the best initial vertex.  No start depends
    on another, so each start's result equals its run alone.  Returns the
    best vertex ``(starts, n)`` and its value ``(starts,)`` per start; a
    ``stats`` dict receives ``iterations``, the count at which the last
    start stopped, ``shrinks``, the number of start-steps that shrank,
    ``running``, the number of starts still running when ``maxiter`` ended
    the search, and ``calls`` and ``rows``, the calls of ``fun`` and the
    points they carried.

    The simplices are held vertex major, ``(n+2, starts, n)``: rows 0..n
    the vertices and row n+1 the centroid, next to the worst vertex.  The
    centroid sums the outer axis, so every start's vertices add in
    sequence as in a loop over them.  Each step replaces the worst vertices
    and re-sorts the simplices by gathers of whole rows into a second such
    block, and the two blocks take turns; every array and view a step needs
    is made once per set of running starts, and the ufuncs are bound once
    and given their outputs positionally.  Each start's arithmetic is that
    of a start-major loop, operation for operation, so the results equal it
    bit for bit; the tests keep such a loop as the reference.
    """
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    less, less_equal, greater_equal = np.less, np.less_equal, np.greater_equal
    add_reduce, count_nonzero, packbits = np.add.reduce, np.count_nonzero, np.packbits
    sim = np.asarray(simplex, dtype=float)
    starts, n1, n = sim.shape
    rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    # candidate k is -away[k] * worst + toward[k] * xbar, which is
    # toward[k] * xbar - away[k] * worst exactly: expansion, outside
    # contraction, reflection and inside contraction
    toward = [1 + rho * chi, 1 + psi * rho, 1 + rho, 1 - psi]
    away = [rho * chi, psi * rho, rho, -psi]
    weights = np.array([[-q for q in away], toward])[:, :, None, None]
    lead = slice(0, n1 - 1, max(n1 - 2, 1))  # the rows of the best and second worst values
    # 0-d operands, which a ufunc call takes faster than Python numbers
    tol, dim = np.full((), fatol, dtype=float), np.full((), n, dtype=float)

    s, fs = np.empty((n1 + 1, starts, n)), np.empty((n1, starts))
    s[:n1] = sim.transpose(1, 0, 2)
    fun(s[:n1].reshape(-1, n), fs.reshape(-1))
    calls, rows_evaluated = 1, fs.size
    sorted_s, sorted_fs = np.empty_like(s), np.empty_like(fs)
    _sort_simplices(s.reshape(-1, n), fs, np.arange(starts), sorted_s[:n1], sorted_fs)
    s, fs = sorted_s, sorted_fs
    best_x, best_f = np.empty((starts, n)), np.empty(starts)
    active = np.arange(starts)  # the starts still running; s and fs hold their simplices
    iterations, shrinks = 1, 0
    while iterations < maxiter:
        k = active.size
        here, step_at, past = np.arange(k), _STEP_CHOICE * k, np.full((), 4 * k)  # a step's flat candidate row for start 0
        spread, done, shrinking = np.empty(k), np.empty(k, dtype=bool), np.empty(k, dtype=bool)
        # the six comparisons of _STEP_CHOICE, in its order, made by four calls
        test = np.empty((6, k), dtype=bool)
        r_lead, r_worst_inside, expand, outside = test[0:2], test[2:4], test[4], test[5]
        terms, cand, fc, at = np.empty((2, 4, k, n)), np.empty((4, k, n)), np.empty((4, k)), np.empty((1, k), np.intp)
        term0, term1, flat_cand, flat_fc, at_row = terms[0], terms[1], cand.reshape(-1, n), fc.reshape(-1), at[0]
        fe, fo, fr = fc[:3]
        f_ri = fc[2:4]  # the reflection and the inside contraction
        blocks = [  # each block with the views a step reads or writes
            (b, f, b.reshape(-1, n), b[:n1], b[:n], b[n], b[n:, None], b[n1], f[0], f[lead], f[-1])
            for b, f in ((s, fs), (np.empty_like(s), np.empty_like(fs)))
        ]
        while iterations < maxiter:
            s, fs, rows, _, kept, worst, pair, xbar, f_best, f_lead, f_worst = blocks[0]
            # the values are sorted, so the last minus the first is the spread
            subtract(f_worst, f_best, spread)
            less_equal(spread, tol, done)
            if count_nonzero(done):
                break
            add_reduce(kept, 0, None, xbar)  # in sequence over the vertices
            divide(xbar, dim, xbar)
            multiply(weights, pair, terms)
            add(term0, term1, cand)
            fun(flat_cand, flat_fc)
            calls, rows_evaluated = calls + 1, rows_evaluated + 4 * k
            # the candidate that replaces the worst vertex, or a row past the
            # candidates to shrink, looked up from the six comparisons packed
            # into one byte per start
            less(fr, f_lead, r_lead)
            less(f_ri, f_worst, r_worst_inside)
            less(fe, fr, expand)
            less_equal(fo, fr, outside)
            step_at.take(packbits(test, 0), None, at, "wrap")
            add(at_row, here, at_row)
            greater_equal(at_row, past, shrinking)
            shrink = shrinking.nonzero()[0] if count_nonzero(shrinking) else None
            if shrink is not None:
                shrinks += shrink.size
                sub = s.take(shrink, axis=1)
                shrunk = sub[1:n1] - sub[0]
                shrunk *= sigma
                shrunk += sub[0]
            # every start's worst vertex by two gathers; a start that shrinks
            # reads a wrapped index, and the shrink then overwrites that vertex
            flat_cand.take(at_row, 0, worst, "wrap")
            flat_fc.take(at_row, None, f_worst, "wrap")
            if shrink is not None:
                s[1:n1, shrink] = shrunk
                values = np.empty((n1 - 1, shrink.size))
                fun(shrunk.reshape(-1, n), values.reshape(-1))
                fs[1:, shrink] = values
                calls, rows_evaluated = calls + 1, rows_evaluated + values.size
            iterations += 1
            _sort_simplices(rows, fs, here, blocks[1][3], blocks[1][1])
            blocks.reverse()
        else:
            s, fs = blocks[0][:2]
            break
        best_x[active[done]], best_f[active[done]] = s[0, done], fs[0, done]
        running = (~done).nonzero()[0]
        active, s, fs = active[running], s.take(running, axis=1), fs.take(running, axis=1)
        if not active.size:
            break
    best_x[active], best_f[active] = s[0], fs[0]
    if stats is not None:
        stats.update(iterations=iterations, shrinks=shrinks, running=active.size, calls=calls, rows=rows_evaluated)
    return best_x, best_f


def _sort_simplices(rows, fs, here, s_out, fs_out):
    """Each start's vertices, ``rows`` ``((n + 1) * starts, n)`` vertex
    major, and values ``fs`` ``(n + 1, starts)`` sorted stably by value into
    ``s_out`` ``(n + 1, starts, n)`` and ``fs_out``; ``here`` is
    ``arange(starts)``.  The gathers write in place, which an ``out``
    gather does only in a mode other than raise; every index is in range."""
    at = fs.argsort(0, "stable")
    at *= len(here)
    at += here
    rows.take(at, 0, s_out, "wrap")
    fs.take(at, None, fs_out, "wrap")


# --- closed-form state elimination and the restart optimizer -----------------------
#
# Inside the objective the m search points run along the last axis, so every
# quantity is a short stack of rows over the points.  A call of m rows fills
# one parameter-major work block, (14, m):
#
#   rows 0, 1    the effect weights a of settings 0 and 1 (first u, clipped)
#   rows 2, 3    the biases b of settings 0 and 1, clipped
#   rows 4, 5    1 - a of settings 0 and 1
#   rows 6..9    the (x, z) components of the setting axes in the gauge of
#                optimize_qubit: 0 and 1 for setting 0, sin gamma and cos
#                gamma for setting 1
#   rows 10..13  the top of slot 2 a + x; a slot outside the table stays 0
#
# One precompiled gather reads every per-term quantity out of it.  The block,
# the gathered table and every intermediate are views of one flat buffer,
# allocated once per search (see _Workspace), with the views of each row
# count taken once, so a call is some 27 array operations on whole blocks of
# rows, however many points it gets.  Sums run over outer axes only, in term
# order.  A term ((a, b), (x, y), coeff) feeds the slot 2 a + x of the first
# step's outcome and setting.
#
# The arithmetic is the reference's (kept in the tests), operation for
# operation, with three exceptions that change no bit of a finite value:
#
# - The gauge axes have no y component.  The reference's y components are
#   sums of products with 0.0, so +0.0 or -0.0, and a square of either adds
#   +0.0 to a sum of squares, which leaves it unchanged; they are left out.
# - The reference sums each slot from 0.0; these sums start from the first
#   term.  That can only turn a +0.0 sum into -0.0: the squared components
#   do not see it, and the constant only enters as ``constant + norm``,
#   where norm >= +0.0 turns -0.0 back into +0.0.
# - The input vector's coefficient e0 * (0, 0, 1) + e1 * (sin gamma, 0,
#   cos gamma) is taken as (e1 sin gamma, e1 cos gamma + e0): e0 * 1.0 is
#   e0, and e0 * 0.0 is a signed zero, which the square drops.

_WORK_ROWS = 14
_A, _B, _ONE_MINUS_A, _AXES, _TOPS = 0, 2, 4, 6, 10  # the first row of each group above
_ZERO, _ONE = np.zeros(()), np.ones(())  # a ufunc call takes a 0-d array faster than a Python float
# rows _AXES.. of a fresh work block: setting 0's axis (0, 1), then zeros
_WORK_TAIL = np.array([0.0, 1.0] + [0.0] * (_WORK_ROWS - _AXES - 2))[:, None]
# row counts whose views a workspace keeps, about 8 KB each plus 150 bytes
# per unit of depth (tracemalloc); a search of B1..B4 at 20 restarts views at
# most 21 counts, at 200 restarts 28 to 77 (seeds 0..19 and 1729), so a
# repeated search of the default size keeps all of its views
_KEPT_VIEWS = 128


class _CompiledTerms(NamedTuple):
    """A functional's terms as a ``(depth, n)`` table over n slot columns:
    entry ``[k, j]`` is the k-th term of the j-th column, and slots with
    fewer terms are padded with zero coefficients.  The columns are the
    slots with terms and any slot between them that makes them an
    arithmetic progression, so one slice of the work block holds their
    tops.

    The table is read only and lives as long as the functional's entry in
    :func:`_compiled_terms`; any number of threads may read it at once.
    ``pool`` holds the idle :class:`_Workspace` of the table that fit their
    calls in one block: a search pops one (or allocates one when none is
    idle or big enough) and gives it back when it ends, so no two searches
    share a workspace (see :func:`_borrowed`)."""

    slots: slice  # the work-block rows of the columns' slot tops, which the evaluator writes
    rows: np.ndarray  # (7, depth, n) work-block rows of p, a, a, b, b, n_x, n_z of setting y; p is a or 1 - a by b
    scale: np.ndarray  # (3, depth, n, 1) coeff, sign * coeff, sign * coeff; sign 1 where b is 0, else -1
    pool: list  # idle workspaces of this table


def _compile_terms(terms) -> _CompiledTerms:
    """Table of ``((a, b), (x, y), coeff)`` terms.  A table whose per-term
    row for one search point, ``4 * depth * n`` entries, exceeds
    ``errors.MAX_TABLE_ENTRIES`` is refused."""
    by_slot = [[], [], [], []]
    for (a, b), (x, y), coeff in terms:
        by_slot[2 * a + x].append((b, y, coeff))
    used = [slot for slot, entries in enumerate(by_slot) if entries] or [0]
    slots = range(used[0], used[-1] + 1, math.gcd(*(s - used[0] for s in used)) or 1)
    depth = max(1, *map(len, by_slot))
    if exceeds_table_budget(depth * len(slots), 1, 4):
        what = f"a per-term table row of 4 * depth * slots = 4 * {depth} * {len(slots)} entries"
        raise TableTooLarge(what)
    table = np.zeros((depth, len(slots), 3))
    for j, slot in enumerate(slots):
        table[: len(by_slot[slot]), j] = by_slot[slot] or np.zeros((0, 3))
    b, y, coeff = table.transpose(2, 0, 1)
    y = y.astype(np.intp)
    prob = np.where(b == 0, _A, _ONE_MINUS_A) + y  # a for b = 0, else 1 - a
    rows = np.stack([prob, _A + y, _A + y, _B + y, _B + y, _AXES + 2 * y, _AXES + 1 + 2 * y])
    signed = (1.0 - 2.0 * b) * coeff
    scale = np.stack([coeff, signed, signed])[..., None]
    rows.setflags(write=False)
    scale.setflags(write=False)
    return _CompiledTerms(slice(_TOPS + slots.start, _TOPS + slots.stop, slots.step), rows, scale, [])


@lru_cache(maxsize=8)
def _compiled_terms(terms: tuple, coeff_bytes: bytes, budget: int) -> _CompiledTerms:
    """:func:`_compile_terms` of ``terms`` (tuples), compiled once and kept
    for the eight most recent functionals.  The key also holds the bytes of
    the coefficients, which tell -0.0 from 0.0, and the table-size budget,
    so a smaller ``errors.MAX_TABLE_ENTRIES`` checks the table again."""
    return _compile_terms(terms)


class _Workspace:
    """The work of one search on a compiled table: one flat buffer sized for
    ``size`` rows, of which :func:`_evaluator` views a block of every row
    count the search evaluates, each count's views taken once and kept (up
    to ``_KEPT_VIEWS`` counts, then dropped and taken again).  The views of
    different counts overlap, so the constant rows of the work block are
    written again whenever the count changes (``layout``).

    A workspace belongs to one caller at a time, which takes it with
    :func:`_borrowed`; that also sets ``block``."""

    def __init__(self, prog: _CompiledTerms, size: int):
        depth, n = prog.rows.shape[1:]
        # the table's arrays, not prog, whose pool holds the workspace
        self.slots, self.rows, self.scale = prog.slots, prog.rows, prog.scale
        self.size, self.block = size, size
        self.buffer = np.empty(size * (_WORK_ROWS + 10 * depth * n + 4 * n + 10))
        self.evaluators = {}  # by row count
        self.layout = None  # the row count whose constant rows the buffer holds

    def negated_values(self, points, out):
        """The objective: writes the negated witness value of each row of
        ``(m, 5)`` effect parameters into ``out`` ``(m,)``, in blocks of at
        most ``block`` rows.  No sum runs along the rows' axis, where numpy
        would sum pairwise, so the blocks change no bit of any value."""
        m, block = len(out), self.block
        if m <= block:
            self.rows_value(points, out)
        else:
            for lo in range(0, m, block):
                self.rows_value(points[lo : lo + block], out[lo : lo + block])

    def rows_value(self, points, out):
        """:meth:`negated_values` of at most ``size`` rows, in one block."""
        m = len(out)
        if m != self.layout:
            if m not in self.evaluators:
                if len(self.evaluators) == _KEPT_VIEWS:
                    self.evaluators.clear()
                self.evaluators[m] = _evaluator(self, m)
            evaluate, reset = self.evaluators[m]
            # no layout until the constant rows are whole: an interrupted
            # reset leaves the workspace to be reset again on its next call
            self.layout = None
            reset()
            self.evaluate, self.layout = evaluate, m
        self.evaluate(points, out)


@contextmanager
def _borrowed(prog: _CompiledTerms, rows: int):
    """An idle workspace of ``prog`` for calls of up to ``rows`` rows,
    evaluated in blocks of at most ``errors.MAX_TABLE_ENTRIES // (4 * depth
    * n)`` rows, read now; allocated when ``prog.pool`` has none big enough.
    It goes back to the pool afterwards only if it is smaller than one
    block: a workspace of blocked calls holds some 2.5 *
    ``errors.MAX_TABLE_ENTRIES`` floats, which are freed with it."""
    block = errors.MAX_TABLE_ENTRIES // (4 * prog.rows[0].size)
    size = min(rows, block)
    try:
        ws = prog.pool.pop()
    except IndexError:
        ws = None
    if ws is None or ws.size < size:
        ws = _Workspace(prog, size)
    ws.block = min(block, ws.size)
    try:
        yield ws
    finally:
        if ws.size < block:
            prog.pool.append(ws)


def _evaluator(ws: _Workspace, m: int):
    """The evaluator of m rows on a workspace's buffer, a function that writes
    the negated values of the rows ``(m, 5)`` of ``[u0, b0, u1, b1, gamma]``
    into ``out`` ``(m,)``, filling the work block and the per-term table
    ``(7, depth, n, m)``, whose first three rows are each term's
    contributions ``coeff * p(b | y)`` to its slot's constant and ``sign *
    coeff * a * b * axis`` to the x and z components of the slot's linear
    coefficient vector; and a function that writes the work block's
    constant rows and the coefficient block, which the views of other row
    counts overwrite.  Its views of the buffer are taken here, once per row
    count of a workspace."""
    rows, scale, slots, buffer = ws.rows, ws.scale, ws.slots, ws.buffer
    depth, n = rows.shape[1:]
    at = 0

    def block(*shape):
        nonlocal at
        size = math.prod(shape) * m
        at += size
        return buffer[at - size : at].reshape(*shape, m)

    work = block(_WORK_ROWS)
    # p, a, a, b, b, n_x, n_z of each entry; the first three rows become
    # coeff * p, then sign * coeff * a * b, twice, then its x and z components
    table = block(7, depth, n)
    coeffs = block(3, depth, n)  # coeff, sign * coeff, sign * coeff
    sums = table[:3, 0] if depth == 1 else block(3, n)  # the constant, x and z, per slot
    norm, den, da, halves, pair = block(n), block(2), block(2), block(2, 2), block(2)
    weights, tail = work[_A : _B + 2], work[_AXES:]
    by_param = weights.reshape(2, 2, m)  # by (parameter, setting); the points' columns are by (setting, parameter)
    a, b, one_minus_a = work[_A : _A + 2], work[_B : _B + 2], work[_ONE_MINUS_A : _ONE_MINUS_A + 2]
    sin_row, cos_row, trig = work[_AXES + 2], work[_AXES + 3], work[_AXES + 2 : _AXES + 4]
    slot_tops = work[slots]
    top0, top1 = work[_TOPS : _TOPS + 2], work[_TOPS + 2 : _TOPS + 4]  # [first outcome][setting]
    head, lin, bias, axes = table[:3], table[1:3], table[3:5], table[5:7]
    terms = [table[:3, k] for k in range(depth)]
    first, second, *later = terms if depth > 1 else (None, None)
    const_sum, squares = sums[0], sums[1:]
    square0, square1 = squares
    da0, da1 = da
    const, v = halves  # the constants, then the squared input coefficient vector
    v1, h0, h1 = v[1], halves[:, 0], halves[:, 1]
    pair0, pair1 = pair
    maximum, minimum, add, subtract, multiply, divide = np.maximum, np.minimum, np.add, np.subtract, np.multiply, np.divide
    sin, cos, square, sqrt, negative, copyto = np.sin, np.cos, np.square, np.sqrt, np.negative, np.copyto

    def evaluate(points, out):
        # the work block
        maximum(points[:, :4].reshape(m, 2, 2).transpose(2, 1, 0), _ZERO, out=by_param)  # out positionally is deprecated here
        minimum(weights, _ONE, out=weights)
        add(_ONE, b, den)
        divide(a, den, a)
        subtract(_ONE, a, one_minus_a)
        gamma = points[:, 4]
        sin(gamma, sin_row)
        cos(gamma, cos_row)
        # each entry's contributions, then each slot's top, constant + norm
        work.take(rows, 0, table, "wrap")  # in place, as only a mode other than raise writes
        multiply(coeffs, head, head)
        multiply(lin, bias, lin)
        multiply(lin, axes, lin)
        if depth > 1:
            add(first, second, sums)
            for term in later:
                add(sums, term, sums)
        square(squares, squares)
        add(square0, square1, norm)
        sqrt(norm, norm)
        add(norm, const_sum, slot_tops)
        # the input vector: the constants plus the norm of its coefficient vector
        subtract(top0, top1, da)
        multiply(da, a, da)
        add(top1, da, const)
        multiply(da, b, da)
        multiply(da1, trig, v)
        add(v1, da0, v1)
        square(v, v)
        add(h0, h1, pair)
        sqrt(pair1, pair1)
        add(pair0, pair1, out)
        negative(out, out)

    def reset():
        copyto(tail, _WORK_TAIL)
        copyto(coeffs, scale)

    return evaluate, reset


def _reconstruct_strategy(terms, theta) -> QubitStrategy:
    """Explicit optimal states for the effects of one ``(5,)`` parameter row
    of the ``((a, b), (x, y), coeff)`` terms, each slot's constant and
    coefficient vector summed from 0.0 in term order; a zero coefficient
    vector, where every unit vector is optimal, gets (0, 0, 1).

    The sums and products run on Python floats, which round as numpy's
    float64 scalars do; every norm and dot product of 3-vectors is taken
    by ``ndarray.dot``, as ``np.linalg.norm`` and ``np.dot`` take them, so
    the states equal the reference's bit for bit."""
    th = np.asarray(theta, dtype=float)
    u, b = np.minimum(np.maximum(th[[0, 2]], 0.0), 1.0), np.minimum(np.maximum(th[[1, 3]], 0.0), 1.0)
    a = u / (1.0 + b)
    axis = np.array([[0.0, 0.0, 1.0], [np.sin(th[4]), 0.0, np.cos(th[4])]])
    af, bf, axes = a.tolist(), b.tolist(), axis.tolist()
    tops, wvec = [[0.0, 0.0], [0.0, 0.0]], [[[0.0] * 3 for _ in range(2)] for _ in range(2)]
    for (oa, ob), (x, y), coeff in terms:
        tops[oa][x] += coeff * (af[y] if ob == 0 else 1.0 - af[y])
        weight, vec = (1.0 - 2.0 * ob) * coeff * af[y] * bf[y], wvec[oa][x]
        for i, component in enumerate(axes[y]):
            vec[i] += weight * component
    wvec = np.array(wvec)
    post = np.zeros((2, 2, 3))
    post[..., 2] = 1.0
    for oa, x in ((0, 0), (0, 1), (1, 0), (1, 1)):
        vec = wvec[oa, x]
        norm = math.sqrt(vec.dot(vec))
        if norm > 1e-15:
            post[oa, x] = vec / norm
        tops[oa][x] += float(vec.dot(post[oa, x]))
    v = [0.0, 0.0, 0.0]
    for x in (0, 1):
        weight = (tops[0][x] - tops[1][x]) * af[x] * bf[x]
        v = [vi + weight * component for vi, component in zip(v, axes[x])]
    initial, v = np.array([0.0, 0.0, 1.0]), np.array(v)
    norm = math.sqrt(v.dot(v))
    if norm > 1e-15:
        initial = v / norm
    eff_params = tuple(EffectParams(a[x], b[x], axis[x]) for x in (0, 1))
    return QubitStrategy(initial, post, eff_params)


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 200
    seed: int = DEFAULT_SEED
    max_iterations: int = 2000


_INITIAL_STEP = 0.25  # edge of each restart's initial simplex


@dataclass(frozen=True)
class OptimizationResult:
    """The best strategy of a search and what the search cost.

    ``objective_calls`` and ``objective_rows`` count the objective's array
    calls and the parameter rows they carried, ``iterations`` is the
    lockstep iteration count at which the last restart stopped (counted as
    ``max_iterations`` counts), ``shrink_steps`` counts the steps of single
    restarts that shrank their simplex, ``value_spread`` is the largest
    minus the smallest of the restarts' final objective values, and
    ``restarts_at_cap`` counts the restarts still running when
    ``max_iterations`` ended the search (0 when every restart stopped on
    its values)."""

    value: float
    strategy: QubitStrategy
    restart_index: int
    objective_calls: int
    objective_rows: int
    iterations: int
    shrink_steps: int
    value_spread: float
    restarts_at_cap: int


def _unit_scale(total: float) -> float:
    """The power of two 2**k that takes ``total`` into [2**-0.5, 2**0.5],
    the one nearest ``1 / total`` in ratio, or 1 for a total of 0; k stays
    within [-1022, 1022], so 2**k and its inverse are normal floats."""
    if total == 0.0:
        return 1.0
    mantissa, exp = math.frexp(total)  # total = mantissa * 2**exp, mantissa in [0.5, 1)
    # mantissa <= 2**-0.5, decided exactly on the integer mantissa * 2**53
    k = -exp + (int(mantissa * 2**53) ** 2 <= 2**105)
    return math.ldexp(1.0, min(max(k, -1022), 1022))


def optimize_qubit(f: WitnessFunctional, cfg: OptimizerConfig = OptimizerConfig()) -> OptimizationResult:
    """Best qubit value of a witness by seeded random-restart search.

    Only the 5 rotation invariants of the two effects, ``[u0, b0, u1, b1,
    gamma]``, are searched numerically, and the search loses nothing:

    - a rotation of every effect axis and Bloch vector leaves each
      probability ``a (1 + b n . r)`` unchanged;
    - every Bloch vector is maximized in closed form at each evaluation, so
      the objective is the best value over all states for the given effects,
      and by the first point it is the same for rotated effects;
    - a rotation takes any pair of unit axes to (0, 0, 1) and
      (sin gamma, 0, cos gamma), where gamma is the angle between them, so
      the value depends on the axes only through ``n0 . n1 = cos gamma``.

    The search runs adaptive Nelder-Mead from a deterministic initial
    simplex per restart, all restarts stepped together by
    :func:`_nelder_mead` with the objective evaluated on every restart's
    points in one array call.  One generator seeded with ``cfg.seed`` draws
    a ``(restarts, 5)`` uniform block whose row k starts restart k: u and b
    uniform on [0, 1], and ``gamma = arccos(2 v - 1)`` so that ``cos gamma``
    is uniform on [-1, 1].  Row k does not depend on the restart count, so
    restart k starts at the same point in every search of more than k
    restarts.  The functional's terms are scaled once per call and
    compiled into a table of index and coefficient columns, which only the
    objective reads; the table is compiled once per functional's scaled
    terms and kept (:func:`_compiled_terms`).  The objective's work buffer
    is sized for the search's largest call, the ``6 * restarts`` initial
    vertices, and borrowed from the table's pool for the search, so
    threads may search the same functional at once; each row count of the
    search views it once.  A buffer of one block goes back to the pool, a
    buffer of blocked calls (a functional of many terms) is freed.  The
    strategy rebuild sums the same scaled terms slot by slot for the best
    row.  The coefficients are scaled by the power of two nearest ``1 /
    sum |coeff|`` (:func:`_unit_scale`), so the search, its stopping rule
    and the rebuild's thresholds on coefficient vectors act on a problem
    of unit scale whatever the functional's; a power of
    two scales every objective value exactly, and ``value_spread`` is
    scaled back.  The search space is exactly the achievable qubit set,
    and the reported value is recomputed from the rebuilt strategy with
    the functional as given, in the gauge, a valid lower bound on the
    qubit maximum.  Results are deterministic for a fixed seed, with ties
    between restarts resolved toward the lower restart index.  A restart
    stops once its values agree within ``2 eps sum |coeff|``.
    """
    if cfg.restarts < 1:
        raise ParamOutOfRange(f"restarts must be >= 1, got {cfg.restarts}")
    if cfg.max_iterations < 0:
        raise ParamOutOfRange(f"max_iterations must be >= 0, got {cfg.max_iterations}")
    if cfg.seed < 0:
        raise ParamOutOfRange(f"seed must be >= 0, got {cfg.seed}")
    _require_binary_pair_scenario(f)
    n = 5  # the searched effect parameters; each simplex has n + 1 vertices
    if exceeds_table_budget(cfg.restarts, 1, (n + 1) * n):
        what = f"a simplex stack of restarts * (n+1) * n = {cfg.restarts} * {n + 1} * {n} entries"
        raise TableTooLarge(what)
    scale = _unit_scale(sum(abs(t.coeff) for t in f.terms))
    terms = tuple((t.outcomes, t.settings, t.coeff * scale) for t in f.terms)
    prog = _compiled_terms(terms, np.array([coeff for *_, coeff in terms]).tobytes(), errors.MAX_TABLE_ENTRIES)

    theta0 = np.random.default_rng(cfg.seed).uniform(size=(cfg.restarts, n))
    theta0[:, 4] = np.arccos(2.0 * theta0[:, 4] - 1.0)  # cos gamma uniform on [-1, 1]

    steps = np.vstack([np.zeros(n), _INITIAL_STEP * np.eye(n)])
    simplices = theta0[:, None, :] + steps

    stats = {}
    # 2 ulps of the largest value, sum |coeff| of the scaled terms
    fatol = 2 * np.finfo(float).eps * sum(abs(coeff) for *_, coeff in terms)
    with _borrowed(prog, (n + 1) * cfg.restarts) as ws:  # the initial vertices are the largest call
        thetas, fvals = _nelder_mead(ws.negated_values, simplices, cfg.max_iterations, fatol, stats)
    k = int(np.argmin(fvals))
    strategy = _reconstruct_strategy(terms, thetas[k])
    return OptimizationResult(
        strategy_value(f, strategy),
        strategy,
        k,
        objective_calls=stats["calls"],
        objective_rows=stats["rows"],
        iterations=stats["iterations"],
        shrink_steps=stats["shrinks"],
        value_spread=float(fvals.max() - fvals.min()) / scale,
        restarts_at_cap=stats["running"],
    )


# --- closed-form profiles ----------------------------------------------------------

def _check_domain(x, name, lo, hi):
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= lo - 1e-12) & (arr <= hi + 1e-12)):  # NaN fails too
        raise DomainError(f"{name} must lie in [{lo}, {hi}]")
    return np.clip(arr, lo, hi)


def b1_projective_profile(cos_gamma):
    """Best B1 value over states when both effects are projective, as a
    function of the cosine of the angle between the measurement axes.

    Peaks at 3/2 + sqrt(2) for orthogonal axes, strictly below the bound 3,
    which is reached only by non-projective measurements.
    """
    x = _check_domain(cos_gamma, "cos_gamma", -1.0, 1.0)
    xx = 2.0 + np.sqrt(np.clip(2.0 - 2.0 * x, 0.0, None))
    value = xx / 4.0 * (2.0 + np.sqrt(np.clip(2.0 + 2.0 * x, 0.0, None)))
    return value if value.ndim else float(value)


def b3_profile(cos_gamma):
    """Best B3 value over states for projective effects (which are optimal):
    the B4 envelope at ``p = 1``."""
    return b4_envelope(1.0, cos_gamma)


def b4_envelope(p, cos_gamma):
    """Two-parameter envelope of B4 after optimizing all states.

    ``p`` scales the rank-1 part of the first measurement; ``p = 1`` makes
    all effects rank 1, where the envelope coincides with the B3 profile.
    The envelope never exceeds 2 + sqrt(2).  The formula is
    ``bounds._envelope``, evaluated on arrays.
    """
    pp = _check_domain(p, "p", 0.0, 1.0)
    x = _check_domain(cos_gamma, "cos_gamma", -1.0, 1.0)
    value = _envelope(pp, x, _clipped_root)
    return value if value.ndim else float(value)


def _clipped_root(v):
    return np.sqrt(np.clip(v, 0.0, None))


# --- distance from a qubit ---------------------------------------------------------

@dataclass(frozen=True)
class EpsilonBound:
    """Lower bound (B - C)/12 on the trace distance from a two-dimensional
    subspace, and the largest value (4 - C)/12 this scheme can certify."""

    lower: float
    cap: float


def epsilon_lower_bound(b_value: float, c_value: float) -> EpsilonBound:
    """(B - C)/12, at least 0 and at most the cap (4 - C)/12: a value in
    (4, 4 + 1e-9], which a member's rounded entries can give, is taken as
    4."""
    if not -1e-9 <= b_value <= 4.0 + 1e-9:
        raise ParamOutOfRange(f"witness value {b_value!r} outside [0, 4]")
    cap = (4.0 - c_value) / 12.0
    return EpsilonBound(min(max(0.0, (b_value - c_value) / 12.0), cap), cap)


@dataclass(frozen=True)
class EpsilonSearchConfig:
    """Accepted by :func:`system_epsilon` and validated (``restarts`` must be
    >= 0), but it steers nothing: every branch is bracketed by
    :func:`_leakage_bracket`, which takes no configuration."""

    restarts: int = 8


# The leakage of a pure output phi = K psi is f = sqrt(a c) with a = |Q phi|^2,
# c = a + 4 |P phi|^2 and Q = 1 - P.  For a branch with Kraus operators K_k,
# take phi = sum_k |k> (x) K_k psi and the projector 1 (x) P: then
# a = sum_k |Q K_k psi|^2 and c - a = 4 sum_k |P K_k psi|^2, and the pair
# (a, c) ranges over the joint numerical range W of A = sum_k (Q K_k)^dag Q K_k
# and C = A + 4 sum_k (P K_k)^dag P K_k, a compact convex set
# (Toeplitz-Hausdorff) with c >= a >= 0.
_JNR_GRID = 5  # geometric grid points per round
_JNR_WIDTH = 1e-10  # refine until hi - lo is below this
# Refinement stops after this many rounds; hi stays an upper bound without
# them, only a looser one.
_JNR_ROUNDS = 40
# Rounding allowance added to hi, in two parts.  Relative, 1e-13 of hi
# (about 450 float64 ulps): the top eigenvalues of the positive semidefinite
# matrices t A + C / t carry relative errors of a few d * 2.2e-16.  Absolute,
# 8 n d * 2.2e-16 * ||K_s||_F^2, with n the number of Kraus operators and K_s
# the (n d) x d stack of them: the entries of Q K_k and P K_k carry absolute
# errors of about d * 2.2e-16 * |K_k|, and f, quadratic in the operators,
# moves by at most 6 ||K_s|| times the error of the stacked vectors Q K_k psi
# and P K_k psi.
_JNR_ROUNDING = 1e-13
_JNR_ABS_ROUNDING = 8.0 * math.ulp(1.0)


def _chord_max_product(a, c) -> float:
    """Largest a c on the chords between adjacent points (a, c): a quadratic in
    the chord parameter, so the maximum sits at an end or, where the quadratic
    is concave, at its vertex."""
    da, dc = np.diff(a), np.diff(c)
    curv = da * dc
    s = np.divide(a[:-1] * dc + c[:-1] * da, -2.0 * curv, out=np.zeros_like(curv), where=curv < 0.0)
    s = s.clip(0.0, 1.0)
    return float(max((a * c).max(), ((a[:-1] + s * da) * (c[:-1] + s * dc)).max()))


def _leakage_bracket(kraus_ops, proj) -> tuple[float, float]:
    """Certified bracket ``(lo, hi)`` on the largest leakage f (see above) of
    the stacked output ``sum_k |k> (x) K_k psi`` of the branch with Kraus
    operators ``kraus_ops``, out of the range of ``1 (x) P``.

    ``hi`` bounds the branch's own largest leakage ``||P rho P - rho||_1``,
    ``rho = sum_k K_k psi psi^dag K_k^dag``: P rho P - rho is the partial
    trace over k of the stacked leakage operator, and a partial trace does
    not increase the trace norm.  With one Kraus operator the two coincide
    and ``lo`` is a lower end too.  A and C are d x d sums, so nothing of
    size (n d) x (n d) is formed.

    Soundness: by AM-GM, for every t > 0 and every input,
    ``sqrt(a c) <= (t a + c / t) / 2 <= g(t) = lambda_max(t A + C / t) / 2``,
    so every g evaluated bounds f.  ``hi`` is the least of them, capped by f
    at the corner (|A|, |C|) of top eigenvalues, which every point of W lies
    below, plus the rounding allowance; a branch that never leaves the
    subspace (A = 0) gets hi = 0, up to that allowance.  Tightness: W is
    convex, so min_t g(t) equals the largest f exactly (minimax), and g is
    convex in t, with slope ``(a t^2 - c) / 2`` at a top eigenvector of
    ``t A + C / t``.  Its minimizer ``t* = sqrt(c* / a*)``, at the maximizer
    (a*, c*) of f, lies in [1, |C| / |A|]: c* >= a*, c* <= |C|, and
    a* c* >= |A|^2 (the top eigenvector of A gives a = |A| <= c).

    Each round makes one batched ``eigh`` of ``t A + C / t`` at a geometric
    grid of ``_JNR_GRID`` points across the bracket of t*, plus three
    candidates from the previous round's bracket ends: the AM-GM points
    ``sqrt(c / a)`` of each end, where its own bound is tight, and the
    normal ``sqrt(-dc / da)`` of the chord between them, which is exact
    where both ends lie on one flat face of W (the top eigenspace is
    degenerate there, as at every vertex realization).  The top
    eigenvectors give points (a, c) of W, and chords between them lie in W,
    so the largest f on them is ``lo``.  The next bracket is where the
    slope changes sign.  Rounds stop once ``hi - lo`` is at most
    ``_JNR_WIDTH``, once a round improves neither end (the bracket of a
    large leakage collapses to rounding before it meets that absolute width),
    or after ``_JNR_ROUNDS``.
    """
    kraus = np.vstack(kraus_ops)
    pk = np.vstack([proj @ k for k in kraus_ops])
    qk = kraus - pk
    amat = qk.conj().T @ qk
    cmat = amat + 4.0 * (pk.conj().T @ pk)
    top_a, top_c = (float(v) for v in np.linalg.eigvalsh(np.stack([amat, cmat]))[:, -1])
    pad = _JNR_ABS_ROUNDING * kraus.shape[0] * float(np.linalg.norm(kraus)) ** 2
    if top_a <= 0.0:  # f = 0 at every input
        return 0.0, pad
    lo, hi = 0.0, math.sqrt(top_a * top_c)
    ends, cand = (1.0, top_c / top_a), np.empty(0)
    for _ in range(_JNR_ROUNDS):
        t = np.sort(np.concatenate([np.geomspace(*ends, _JNR_GRID), cand]))
        vals, vecs = np.linalg.eigh(t[:, None, None] * amat + cmat / t[:, None, None])
        psi = vecs[:, :, -1]
        a, c = (np.einsum("ni,ij,nj->n", psi.conj(), m, psi).real for m in (amat, cmat))
        prev = lo, hi
        hi = min(hi, 0.5 * float(vals[:, -1].min()))
        lo = max(lo, math.sqrt(max(0.0, _chord_max_product(a, c))))
        if hi * (1.0 + _JNR_ROUNDING) + pad - lo <= _JNR_WIDTH or (lo, hi) == prev:
            break
        right = np.flatnonzero(a * t * t >= c)
        j = int(right[0]) if right.size else len(t) - 1
        i = max(j - 1, 0)
        ends = t[i], t[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.array([c[i] / a[i], c[j] / a[j], (c[i] - c[j]) / (a[j] - a[i])])
        cand = np.sqrt(ratio[np.isfinite(ratio) & (ratio > 0.0)])
    return lo, hi * (1.0 + _JNR_ROUNDING) + pad


def system_epsilon(
    sys: SystemModel, proj, cfg: EpsilonSearchConfig = EpsilonSearchConfig()
) -> float:
    """Certified upper bound on the trace-norm deviation of a system from a
    rank-2 subspace.

    Takes the maximum of the initial-state deviation and, per instrument
    branch, an upper bound on the largest deviation of the branch output
    over all input states: the upper end ``hi`` of the branch's certified
    bracket (:func:`_leakage_bracket`), padded for float64 rounding by 1e-13
    of its value plus 8 n d * 2.2e-16 * ||K_s||_F^2, for the projector as
    given.  A single-Kraus branch gets its exact maximum within 1e-10; a
    branch with several Kraus operators gets the maximum of its stacked
    single-Kraus branch, which can lie above its own.  ``cfg`` is validated
    and otherwise ignored.
    """
    if cfg.restarts < 0:
        raise ParamOutOfRange(f"restarts must be >= 0 in {cfg}")
    p = np.asarray(proj, dtype=complex)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise NotAProjector(f"projector must be square, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise NotAProjector("projector has non-finite entries")
    if not hermiticity_defect(p) <= 1e-9:
        raise NotAProjector("projector is not Hermitian")
    # written so that a NaN, from an overflowing product, fails the check
    with np.errstate(over="ignore", invalid="ignore"):
        idempotency = float(np.max(np.abs(p @ p - p)))
    if not idempotency <= 1e-8:
        raise NotAProjector("projector is not idempotent")
    rank = int(round(float(p.trace().real)))
    if rank != 2:
        raise NotAProjector(f"projector has rank {rank}, expected 2")
    if p.shape[0] != sys.dim:
        raise DimensionMismatch(f"projector dim {p.shape[0]} != system dim {sys.dim}")

    best = trace_norm(p @ sys.initial.matrix @ p - sys.initial.matrix)
    for inst in sys.instruments:
        for kraus_ops in inst.kraus_sets:
            best = max(best, _leakage_bracket(kraus_ops, p)[1])
    return best


# --- certification reports ----------------------------------------------------------

VERDICT_TOL = 1e-9


@dataclass(frozen=True)
class WitnessVerdict:
    """Per-witness certification entry.

    ``bound`` is the qubit bound the value is compared against;
    ``bound_kind`` records whether that bound is analytic or only numerically
    supported, and ``analytic_cap`` is the proven cap used for certified
    claims (equal to ``bound`` for B1 and B3).  ``epsilon_lower`` applies the
    (B - C)/12 relation to ``bound``; ``epsilon_certified`` applies it to the
    analytic cap.
    """

    name: str
    value: float
    bound: float
    bound_kind: str
    analytic_cap: float

    @property
    def violates_bound(self) -> bool:
        return self.value > self.bound + VERDICT_TOL

    @property
    def certified_dimension_above_2(self) -> bool:
        return self.value > self.analytic_cap + VERDICT_TOL

    def _epsilon(self, c_value: float) -> EpsilonBound:
        # a member's entries may each stray 1e-9, so its value may leave [0, 4]; the
        # epsilon arithmetic clamps it to the range epsilon_lower_bound accepts
        return epsilon_lower_bound(min(max(self.value, -1e-9), 4.0 + 1e-9), c_value)

    @property
    def epsilon_lower(self) -> float:
        return self._epsilon(self.bound).lower

    @property
    def epsilon_cap(self) -> float:
        return self._epsilon(self.bound).cap

    @property
    def epsilon_certified(self) -> float:
        return self._epsilon(self.analytic_cap).lower

    @property
    def verdict(self) -> str:
        if self.certified_dimension_above_2:
            return "dimension > 2"
        if self.violates_bound:
            return "dimension > 2 (numerically supported)"
        return "qubit-compatible"


@dataclass(frozen=True)
class CertificationReport:
    """Verdicts of B1..B4 on a behavior (``entries``) and the overall verdict
    over all its images under relabeling.  ``certified_by`` is the witness
    entry, on the image under the group element ``relabeling``, whose
    ``epsilon_certified`` is the certified epsilon: the first in group
    order, then in B1..B4 order, among those of largest epsilon."""

    scenario: Scenario
    entries: tuple[WitnessVerdict, ...]
    verdict: str
    tolerance: float
    certified_by: WitnessVerdict
    relabeling: tuple

    @property
    def epsilon_lower(self) -> float:
        return self.certified_by.epsilon_certified

    @property
    def relabeled(self) -> bool:
        """Whether the certified epsilon comes from an image other than the behavior itself."""
        return self.relabeling != RelabelingGroup.identity(self.scenario).elements[0]

    def to_text(self) -> str:
        lines = [
            f"{'witness':8s} {'value':>16s} {'bound':>16s} {'kind':>22s} "
            f"{'verdict':>34s} {'eps lower':>12s}",
        ]
        for e in self.entries:
            lines.append(
                f"{e.name:8s} {e.value:16.12g} {e.bound:16.12g} {e.bound_kind:>22s} "
                f"{e.verdict:>34s} {e.epsilon_lower:12.6g}"
            )
        lines.append(f"overall: {self.verdict}, certified epsilon >= {self.epsilon_lower:.12g}")
        if self.relabeled:
            e = self.certified_by
            lines.append(f"certified by {e.name} = {e.value:.12g} on the image under relabeling {self.relabeling}")
        return "\n".join(lines)


def certify(b: Behavior) -> CertificationReport:
    """Evaluate all four witnesses on a (2,2,2) behavior and report verdicts.

    B1 and B3 are compared against their analytic qubit bounds; B2 and B4
    against their numerically supported maxima, with the proven caps 3.5 and
    2 + sqrt(2) reserved for certified statements.  A qubit reaches a
    behavior exactly when it reaches each of its images under relabeling, so
    the overall verdict and certified epsilon are the largest over the
    witnesses on all eight images under ``RelabelingGroup.full``; the entries
    are those of the behavior itself.
    """
    if b.scenario != Scenario(2, 2, 2):
        raise ScenarioMismatch(f"certification needs the (2,2,2) scenario, got {b.scenario}")
    require_member(b)

    c3 = c3_bound().value
    plan = (
        ("B1", C1_VALUE, "analytic", C1_VALUE),
        ("B2", 3.0, "numerically supported", B2_ANALYTIC_CAP),
        ("B3", c3, "analytic", c3),
        ("B4", c3, "numerically supported", B4_ANALYTIC_CAP),
    )
    functionals = builtin_functionals()
    # the identity comes first
    elements = RelabelingGroup.full(b.scenario).elements
    images = [relabel_behavior(b, g) for g in elements]
    every = [WitnessVerdict(name, evaluate(functionals[name], image), bound, kind, cap)
             for image in images for name, bound, kind, cap in plan]
    verdict = "dimension > 2" if any(e.certified_dimension_above_2 for e in every) else "qubit-compatible"
    # max keeps the first of equal epsilons
    k = max(range(len(every)), key=lambda i: every[i].epsilon_certified)
    return CertificationReport(
        b.scenario, tuple(every[: len(plan)]), verdict, VERDICT_TOL, every[k], elements[k // len(plan)]
    )
