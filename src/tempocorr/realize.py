"""Quantum realization of temporal correlations.

Simulates measurement sequences on a :class:`~tempocorr.qmath.SystemModel`,
realizes any mixture of length-2 deterministic vertices exactly as a direct
sum of (S+1)-level blocks (a vertex is the one-block case), and provides the
canonical named protocols used throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import (
    Behavior,
    ConvexDecomposition,
    DeterministicVertex,
    Scenario,
    context_position,
    named_vertex,
)
from .errors import DimensionMismatch, EmptyDecomposition, TableTooLarge, UnsupportedLength, exceeds_table_budget
from .qmath import (
    DensityMatrix,
    SystemModel,
    instrument_from_column_maps,
    ketbra,
    validate_instrument,
)


def _check_walk(sys: SystemModel, L: int) -> None:
    """Refuse a simulation of length L whose last step would stack more than
    ``errors.MAX_TABLE_ENTRIES`` complex entries: R^L * K states of d x d, K
    the most Kraus operators of any outcome."""
    n_k = max(len(ops) for inst in sys.instruments for ops in inst.kraus_sets)
    R, d = sys.n_outcomes, sys.dim
    if exceeds_table_budget(R, L, n_k * d * d):
        what = f"a simulation step of R^L * K * d^2 = {R}^{L} * {n_k} * {d}^2 entries"
        raise TableTooLarge(what, (L, R, sys.n_settings))


@dataclass(frozen=True)
class SequenceOutcomeDistribution:
    """Outcome distribution of one fixed setting sequence."""

    settings: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(int(x) for x in self.settings))
        p = np.array(np.asarray(self.probs, dtype=float))
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


def _kraus_stacks(sys: SystemModel) -> list[np.ndarray | tuple[np.ndarray, np.ndarray]]:
    """Per setting, what :func:`_step` applies.  When every outcome has a
    column map, the flat gather indices of all R children into a state of
    d * d entries followed by one zero pad, which zero rows and columns read.
    Otherwise its Kraus operators as an (R, K, d, d) stack and the stack of
    their adjoints; outcomes with fewer than K operators are padded with zero
    operators, which add exact zeros to the sum."""
    d = sys.dim
    stacks = []
    for inst in sys.instruments:
        if all(c is not None for c in inst.column_maps):
            c = np.array(inst.column_maps)
            rows, cols = c[:, :, None], c[:, None, :]
            idx = np.where((rows < 0) | (cols < 0), d * d, rows * d + cols)
            stacks.append(idx.reshape(-1))
            continue
        n_k = max(len(ops) for ops in inst.kraus_sets)
        k = np.zeros((inst.n_outcomes, n_k, d, d), dtype=complex)
        for r, ops in enumerate(inst.kraus_sets):
            k[r, : len(ops)] = ops
        stacks.append((k, k.conj().swapaxes(-1, -2)))
    return stacks


def _step(states: np.ndarray, stack) -> np.ndarray:
    """All children of the stacked states (N, d, d) under one instrument:
    state n with outcome r lands at ``n * R + r``.  Each Kraus operator maps
    a state to ``(K rho) K^dag``, and these are summed over k in order from
    zeros, so every entry is bit-identical to applying the operators of one
    outcome to one state at a time.

    A gather-index stack copies entries instead.  With 0/1 entries every
    product in ``(K rho) K^dag`` is exact and each sum has at most one term
    that is not a signed zero, so the sum from zeros is the gathered entry
    with -0.0 made +0.0; adding +0.0 on the way into the padded copy does
    the same."""
    n, d = states.shape[:2]
    if isinstance(stack, np.ndarray):
        padded = np.zeros((n, d * d + 1), dtype=complex)
        np.add(states.reshape(n, d * d), 0.0, out=padded[:, :-1])
        return np.take(padded, stack, axis=1).reshape(-1, d, d)
    k, k_dag = stack
    branches = (k[None] @ states[:, None, None]) @ k_dag[None]
    out = np.zeros_like(branches[:, :, 0])
    for j in range(k.shape[1]):
        out += branches[:, :, j]
    return out.reshape(-1, d, d)


# A module-level function, not a closure over ``stacks`` and ``table``: a
# closure that calls itself is a reference cycle, which keeps every call's
# arrays alive until the cyclic garbage collector runs.
def _walk(states, depth, prefix, stacks, table) -> None:
    """Depth-first over setting prefixes, so only one root-to-leaf path of
    states is alive: ``states`` are those of every outcome prefix after the
    settings of base-S index ``prefix``; at the last step each child writes
    the traces of its states into its table row."""
    for x, stack in enumerate(stacks):
        children = _step(states, stack)
        row = prefix * len(stacks) + x
        if depth == 1:
            table[row] = np.trace(children, axis1=1, axis2=2).real
        else:
            _walk(children, depth - 1, row, stacks, table)


def run_sequence(sys: SystemModel, settings) -> SequenceOutcomeDistribution:
    """Probabilities of all outcome sequences for one setting sequence.

    Chains the per-outcome Kraus maps on subnormalized states, never
    renormalizing mid-sequence, so zero-probability branches stay exact.
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

    stacks = _kraus_stacks(sys)
    states = sys.initial.matrix[None]
    for x in settings:
        states = _step(states, stacks[x])
    return SequenceOutcomeDistribution(settings, np.trace(states, axis1=1, axis2=2).real)


def full_behavior(sys: SystemModel, L: int) -> Behavior:
    """Behavior of length-L sequences; repeated settings reuse the identical
    instrument.  One depth-first walk of the setting tree computes every
    shared prefix state once.  Raises :class:`TableTooLarge` when the table,
    or the states of the walk's last step, would have more than
    ``errors.MAX_TABLE_ENTRIES`` entries."""
    if L < 1:
        raise DimensionMismatch(f"sequence length must be >= 1, got {L}")
    S, R = sys.n_settings, sys.n_outcomes
    if exceeds_table_budget(S * R, L):
        what = f"a behavior table of S^L * R^L = {S}^{L} * {R}^{L} entries"
        raise TableTooLarge(what, (L, R, S))
    _check_walk(sys, L)
    scenario = Scenario(L, sys.n_outcomes, sys.n_settings)
    table = np.zeros((scenario.n_setting_seqs, scenario.n_outcome_seqs))
    _walk(sys.initial.matrix[None], L, 0, _kraus_stacks(sys), table)
    return Behavior(scenario, table)


# --- exact realization of length-2 mixtures on S+1 levels per vertex ------------

@dataclass(frozen=True)
class VertexRealization:
    """A system model of dimension S+1 whose behavior is a given vertex."""

    system: SystemModel
    vertex: DeterministicVertex


def qutrit_vertex_realization(v: DeterministicVertex) -> VertexRealization:
    """Exact realization of a length-2 vertex on an (S+1)-level system: the
    one-term :func:`mixture_realization`.  The realized behavior is 0/1
    exactly (up to floating-point roundoff)."""
    return VertexRealization(mixture_realization(ConvexDecomposition(((1.0, v),))), v)


def mixture_realization(decomp: ConvexDecomposition) -> SystemModel:
    """Block-diagonal system realizing a convex mixture of length-2 vertices.

    Each positive-weight vertex e owns S+1 levels from ``start_e``: level 0 is
    the input state, weighted by the mixture weight, and level s+1 the state
    after a first measurement with setting s.  Slot 0 of setting x holds the
    outcome of history ``(x,)``, slot s+1 that of ``(s, x)``.  Result r of x
    has the Kraus operator ``sum_j [slot_j(e) = r] |start_e + pi(j)><start_e + j|``
    summed over blocks, pi the swap of levels 0 and x+1; each setting's column
    maps and Kraus operators are written by one scatter each.  Raises
    :class:`TableTooLarge` before any allocation when the S * R operators
    would hold more than ``errors.MAX_TABLE_ENTRIES`` entries.
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

    instruments = []
    columns = starts[:, None] + np.arange(block_dim)
    for x in range(s.S):
        histories = [(x,)] + [(first, x) for first in range(s.S)]
        slots = outcomes[:, [context_position(h, s.S) for h in histories]]
        pi = np.arange(block_dim)
        pi[[0, x + 1]] = x + 1, 0
        rows = starts[:, None] + pi
        maps = np.full((s.R, dim), -1)
        maps[slots, rows] = columns
        kraus = np.zeros((s.R, dim, dim), dtype=complex)
        kraus[slots, rows, columns] = 1.0
        kraus.setflags(write=False)
        instruments.append(instrument_from_column_maps(maps, kraus))
    return SystemModel(DensityMatrix(initial), tuple(instruments))


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
        protocols[f"qutrit-{name}"] = qutrit_vertex_realization(named_vertex(name)).system
    return protocols
