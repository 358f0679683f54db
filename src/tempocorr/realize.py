"""Quantum realization of temporal correlations.

Simulates measurement sequences on a :class:`~tempocorr.qmath.SystemModel`,
realizes any mixture of length-2 deterministic vertices exactly as a direct
sum of (S+1)-level blocks (a vertex is the one-block case), and provides the
canonical named protocols used throughout the test suite.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .correlations import (
    Behavior,
    ConvexDecomposition,
    DeterministicVertex,
    Scenario,
    context_position,
    named_vertex,
)
from . import errors
from .errors import DimensionMismatch, EmptyDecomposition, TableTooLarge, UnsupportedLength, exceeds_table_budget
from .qmath import (
    DensityMatrix,
    SystemModel,
    _frozen,
    instrument_from_column_maps,
    ketbra,
    validate_instrument,
)


def _kraus_count(sys: SystemModel) -> int:
    """The most Kraus operators of any outcome, one for a column-mapped one,
    so a column-mapped instrument's operators are not built to count them."""
    return max(
        1 if columns is not None else len(inst.kraus_sets[r])
        for inst in sys.instruments
        for r, columns in enumerate(inst.column_maps)
    )


def _check_walk(sys: SystemModel, L: int) -> None:
    """Refuse a simulation of length L whose last step would stack more than
    ``errors.MAX_TABLE_ENTRIES`` complex entries: R^L * K states of d x d, K
    the most Kraus operators of any outcome."""
    n_k = _kraus_count(sys)
    R, d = sys.n_outcomes, sys.dim
    if exceeds_table_budget(R, L, n_k * d * d):
        what = f"a simulation step of R^L * K * d^2 = {R}^{L} * {n_k} * {d}^2 entries"
        raise TableTooLarge(what, (L, R, sys.n_settings))


def _stacks(sys: SystemModel) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """What :func:`_step` applies, for all settings at once.  When every
    outcome of every setting has a column map, the gather indices (S, R,
    d + 1) into a diagonal of d entries followed by one zero pad: entry j of
    outcome r reads entry ``map[j]`` of its parent, a zero row reads the pad,
    and the pad reads itself.  Otherwise the Kraus operators as one (S, R, K,
    d, d) stack and the stack of their adjoints, K the most operators of any
    outcome; shorter outcomes are padded with zero operators, which add exact
    zeros to the sum."""
    S, R, d = sys.n_settings, sys.n_outcomes, sys.dim
    maps = [c for inst in sys.instruments for c in inst.column_maps]
    if all(c is not None for c in maps):
        idx = np.full((S * R, d + 1), d)
        c = np.array(maps)
        idx[:, :d] = np.where(c < 0, d, c)
        return idx.reshape(S, R, d + 1)
    k = np.zeros((S, R, _kraus_count(sys), d, d), dtype=complex)
    for x, inst in enumerate(sys.instruments):
        for r, ops in enumerate(inst.kraus_sets):
            k[x, r, : len(ops)] = ops
    return k, k.conj().swapaxes(-1, -2)


def _root(sys: SystemModel, stack) -> np.ndarray:
    """The walk's initial state: the density matrix, or for a gather stack
    its diagonal plus +0.0 (so -0.0 becomes +0.0) followed by the zero pad."""
    rho = sys.initial.matrix
    if not isinstance(stack, np.ndarray):
        return rho
    diag = np.zeros(sys.dim + 1, dtype=complex)
    np.add(rho.diagonal(), 0.0, out=diag[:-1])
    return diag


def _step(states: np.ndarray, stack, settings: slice) -> np.ndarray:
    """All children of the states (..., d, d) under the instruments of
    ``settings``, as (g, R, ..., d, d), newest outcome first: entry [x, r,
    ...] is the child of state [...] under the x-th of those settings with
    outcome r.  Each Kraus operator maps a state to ``(K rho) K^dag``, made
    by two stacked products: the node's g * R * K operators stacked along
    rows times each state, (g R K d, d) @ (d, d), then, regrouped per
    operator, the n states stacked along rows times its adjoint, (n d, d) @
    (d, d), in one batched product.  These are summed over k in order from
    zeros, so every entry is bit-identical to applying the operators of one
    outcome to one state at a time.

    With a gather stack the states are padded diagonals (..., d + 1) and
    each child is one ``np.take``.  A 0/1 partial permutation K maps a
    diagonal entry to ``(K rho K^dag)[j, j] = rho[map[j], map[j]]``: every
    product in ``(K rho) K^dag`` is exact and each sum has at most one term
    that is not a signed zero, so the sum from zeros is the gathered entry
    with -0.0 made +0.0, which :func:`_root` did once for all."""
    if isinstance(stack, np.ndarray):
        # the taken axes (g, R, d + 1) follow the k outcome axes of the
        # states; the settings and outcome axes are moved first
        k = states.ndim - 1
        return np.take(states, stack[settings], axis=-1).transpose(k, k + 1, *range(k), k + 2)
    k, k_dag = (a[settings] for a in stack)
    prefix, d = states.shape[:-2], states.shape[-1]
    n = states.size // (d * d)
    # (n, g R K d, d): one product per state; then (g R K, n d, d), one copy
    first = k.reshape(-1, d) @ states.reshape(n, d, d)
    regrouped = first.reshape(n, -1, d, d).swapaxes(0, 1).reshape(-1, n * d, d)
    del first
    branches = (regrouped @ k_dag.reshape(-1, d, d)).reshape(k.shape[:3] + prefix + (d, d))
    del regrouped
    out = branches[:, :, 0] + 0.0  # the sum from zeros: +0.0 + b == b + 0.0
    for j in range(1, k.shape[2]):
        out += branches[:, :, j]
    return out


def _traces(children: np.ndarray, stack) -> np.ndarray:
    """Table rows (g, R^t) of the children (g, R, ..., d, d) of
    :func:`_step`: their real traces over the last (d, d) or, for a gather
    stack, over their diagonal without its pad (the same sum over the same
    d entries as ``np.trace``), with the outcome axes turned from newest
    first into table order, oldest first."""
    if isinstance(stack, np.ndarray):
        traces = children[..., :-1].sum(axis=-1).real
    else:
        traces = np.trace(children, axis1=-2, axis2=-1).real
    return traces.transpose(0, *range(traces.ndim - 1, 0, -1)).reshape(len(traces), -1)


def _settings_per_step(states: np.ndarray, stack) -> int:
    """How many settings one step from ``states`` covers: as many as fit in
    ``errors.MAX_TABLE_ENTRIES`` at the step's size for one setting (R padded
    diagonals or R * K matrices per state), and at least one."""
    if isinstance(stack, np.ndarray):
        per_setting = states.size * stack.shape[1]
    else:
        per_setting = states.size * stack[0].shape[1] * stack[0].shape[2]
    return max(1, errors.MAX_TABLE_ENTRIES // per_setting)


# A module-level function, not a closure over ``stack`` and ``table``: a
# closure that calls itself is a reference cycle, which keeps every call's
# arrays alive until the cyclic garbage collector runs.
def _walk(states, depth, row, stack, table) -> None:
    """Depth-first over setting prefixes, so only one root-to-leaf path of
    states is alive: ``states`` are those of every outcome prefix after the
    settings of base-S index ``row``.  Each node steps a group of settings
    at once and recurses per setting on its slice of the children; at the
    last step one trace writes the rows of the whole group."""
    n_settings = len(stack) if isinstance(stack, np.ndarray) else len(stack[0])
    group = _settings_per_step(states, stack)
    for first in range(0, n_settings, group):
        children = _step(states, stack, slice(first, first + group))
        rows = row * n_settings + first
        if depth == 1:
            table[rows : rows + len(children)] = _traces(children, stack)
        else:
            for x, child in enumerate(children):
                _walk(child, depth - 1, rows + x, stack, table)


def run_sequence(sys: SystemModel, settings) -> np.ndarray:
    """Probabilities of all outcome sequences for one setting sequence, as a
    read-only float array indexed by the outcome sequence in base R.

    Chains the per-outcome Kraus maps on subnormalized states, never
    renormalizing mid-sequence, so zero-probability branches stay exact.
    Each step applies the setting's operators to the states of every outcome
    prefix by two stacked products and puts the newest outcome first; the
    last traces are turned into table order once.  A system whose every
    outcome has a column map chains diagonals only (see :func:`_step`).
    Raises :class:`TableTooLarge` when the last step would stack more than
    ``errors.MAX_TABLE_ENTRIES`` entries.
    """
    settings = tuple(int(x) for x in settings)
    if not settings:
        raise DimensionMismatch("setting sequence must have length >= 1")
    for x in settings:
        if not 0 <= x < sys.n_settings:
            raise DimensionMismatch(f"setting {x} out of range 0..{sys.n_settings - 1}")
    _check_walk(sys, len(settings))

    stack = _stacks(sys)
    states = _root(sys, stack)
    for x in settings:
        children = _step(states, stack, slice(x, x + 1))
        states = children[0]
    return _frozen(_traces(children, stack)[0])


def full_behavior(sys: SystemModel, L: int) -> Behavior:
    """Behavior of length-L sequences; repeated settings reuse the identical
    instrument.  One depth-first walk of the setting tree computes every
    shared prefix state once, and each node steps all its settings at once,
    or in as few groups as the table budget allows, by two stacked products
    with the newest outcome first (see :func:`_step`); the leaves turn their
    real traces into table order once.  A system whose every outcome has a
    column map (realized mixtures and vertices, the canonical protocols)
    walks diagonals of d + 1 entries instead of d x d states, since its
    table needs only traces.  Raises
    :class:`TableTooLarge` when the table, or the states of the walk's last
    step, would have more than ``errors.MAX_TABLE_ENTRIES`` entries."""
    if L < 1:
        raise DimensionMismatch(f"sequence length must be >= 1, got {L}")
    S, R = sys.n_settings, sys.n_outcomes
    if exceeds_table_budget(S * R, L):
        what = f"a behavior table of S^L * R^L = {S}^{L} * {R}^{L} entries"
        raise TableTooLarge(what, (L, R, S))
    _check_walk(sys, L)
    scenario = Scenario(L, sys.n_outcomes, sys.n_settings)
    table = np.zeros((scenario.n_setting_seqs, scenario.n_outcome_seqs))
    stack = _stacks(sys)
    _walk(_root(sys, stack), L, 0, stack, table)
    return Behavior(scenario, table)


# --- exact realization of length-2 mixtures on S+1 levels per vertex ------------

def qutrit_vertex_realization(v: DeterministicVertex) -> SystemModel:
    """Exact realization of a length-2 vertex on an (S+1)-level system: the
    one-term :func:`mixture_realization`.  The realized behavior is 0/1
    exactly (up to floating-point roundoff)."""
    return mixture_realization(ConvexDecomposition(v.scenario, [1.0], [v.outcomes]))


@lru_cache(maxsize=16)
def _block_layout(S: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (S, S + 1) tables of a realization block, per setting x:
    the context positions of the histories ``(x,)``, ``(0, x)``, ..,
    ``(S-1, x)`` held by its slots, and the swap pi of levels 0 and x + 1."""
    positions = np.array([[context_position(h, S) for h in [(x,)] + [(first, x) for first in range(S)]] for x in range(S)])
    pi = np.tile(np.arange(S + 1), (S, 1))
    pi[:, 0] = np.arange(1, S + 1)
    pi[np.arange(S), np.arange(1, S + 1)] = 0
    positions.setflags(write=False)
    pi.setflags(write=False)
    return positions, pi


def mixture_realization(decomp: ConvexDecomposition) -> SystemModel:
    """Block-diagonal system realizing a convex mixture of length-2 vertices.

    Each positive-weight vertex e owns S+1 levels from ``start_e``: level 0 is
    the input state, weighted by the mixture weight, and level s+1 the state
    after a first measurement with setting s.  Slot 0 of setting x holds the
    outcome of history ``(x,)``, slot s+1 that of ``(s, x)``.  Result r of x
    has the Kraus operator ``sum_j [slot_j(e) = r] |start_e + pi(j)><start_e + j|``
    summed over blocks, pi the swap of levels 0 and x+1.  The slot positions
    and swaps of every setting are built once per S; the column maps of all
    settings are written by one scatter, and each instrument holds its maps
    only, building its dense operators and effects on first read (see
    :class:`~tempocorr.qmath.Instrument`).  Raises :class:`TableTooLarge`
    before any allocation when the S * R operators would hold more than
    ``errors.MAX_TABLE_ENTRIES`` entries.
    """
    kept = decomp.weights > 0.0
    if not kept.any():
        raise EmptyDecomposition("decomposition has no positive-weight vertex")
    s = decomp.scenario
    if s.L != 2:
        raise UnsupportedLength(f"realization is implemented for L=2 only, got L={s.L}")
    block_dim = s.S + 1
    weights, outcomes = decomp.weights[kept], decomp.outcomes[kept]
    dim = block_dim * len(weights)
    entries = s.S * s.R * dim * dim
    if exceeds_table_budget(entries):
        what = f"a system of dimension {dim} with {entries} Kraus entries"
        raise TableTooLarge(what, (s.L, s.R, s.S))

    starts = block_dim * np.arange(len(weights))
    initial = np.zeros((dim, dim), dtype=complex)
    initial[starts, starts] = weights

    # (blocks, S, S + 1): each block's slots, rows and columns for every setting
    positions, pi = _block_layout(s.S)
    slots = outcomes[:, positions]
    rows = starts[:, None, None] + pi
    columns = (starts[:, None] + np.arange(block_dim))[:, None, :]
    settings = np.arange(s.S)[:, None]
    maps = np.full((s.S, s.R, dim), -1)
    maps[settings, slots, rows] = columns
    maps.setflags(write=False)
    return SystemModel(DensityMatrix(initial), tuple(map(instrument_from_column_maps, maps)))


# --- canonical protocols ----------------------------------------------------------

def canonical_protocols() -> dict[str, SystemModel]:
    """Named reference protocols.

    - ``qubit-B1-3``: input state 0, measurement 0 is trivial (always result
      0) but flips the state, measurement 1 reads out the z basis.  Saturates
      the qubit bound B1 = 3.
    - ``qubit-B2-3``: input state 0, measurement 0 is the identity-outcome
      measurement, measurement 1 projects onto state 0 and re-prepares the
      flipped state on result 0.  Reaches B2 = 3.
    - ``qutrit-e1`` .. ``qutrit-e4``: three-level realizations of the named
      vertices; e1 is the protocol suited to a three-level defect-center
      implementation and gives B1 = 4.
    """
    x_flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    zero2 = np.zeros((2, 2), dtype=complex)

    b1 = SystemModel(
        DensityMatrix(ketbra(0, 0, 2)),
        (
            validate_instrument([[x_flip], [zero2]]),
            validate_instrument([[ketbra(0, 0, 2)], [ketbra(1, 1, 2)]]),
        ),
    )
    b2 = SystemModel(
        DensityMatrix(ketbra(0, 0, 2)),
        (
            validate_instrument([[np.eye(2, dtype=complex)], [zero2]]),
            validate_instrument([[ketbra(1, 0, 2)], [ketbra(1, 1, 2)]]),
        ),
    )
    protocols = {"qubit-B1-3": b1, "qubit-B2-3": b2}
    for name in ("e1", "e2", "e3", "e4"):
        protocols[f"qutrit-{name}"] = qutrit_vertex_realization(named_vertex(name))
    return protocols
