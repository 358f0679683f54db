"""Quantum realization of temporal correlations.

Simulates measurement sequences on a :class:`~tempocorr.qmath.SystemModel`,
builds the three-level construction that reaches any length-2 deterministic
vertex exactly, extends it to arbitrary mixtures by direct sums, and provides
the canonical named protocols used throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import (
    Behavior,
    ConvexDecomposition,
    DeterministicVertex,
    Scenario,
    digits_of_index,
    named_vertex,
)
from .errors import DimensionMismatch, EmptyDecomposition, TableTooLarge, UnsupportedLength
from .qmath import (
    DensityMatrix,
    SystemModel,
    apply_kraus_map,
    ketbra,
    validate_instrument,
)


# Largest behavior table full_behavior builds: S^L * R^L entries, 8 MiB of
# float64 and about as many Kraus-map applications, checked before any
# allocation.
MAX_TABLE_ENTRIES = 1 << 20


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


def run_sequence(sys: SystemModel, settings) -> SequenceOutcomeDistribution:
    """Probabilities of all outcome sequences for one setting sequence.

    Chains the per-outcome Kraus maps on subnormalized states, never
    renormalizing mid-sequence, so zero-probability branches stay exact.
    """
    settings = tuple(int(x) for x in settings)
    if not settings:
        raise DimensionMismatch("setting sequence must have length >= 1")
    for x in settings:
        if not 0 <= x < sys.n_settings:
            raise DimensionMismatch(f"setting {x} out of range 0..{sys.n_settings - 1}")

    r = sys.n_outcomes
    states = [sys.initial.matrix]
    for x in settings:
        inst = sys.instruments[x]
        states = [apply_kraus_map(inst.kraus_sets[a], st) for st in states for a in range(r)]
    probs = np.array([st.trace().real for st in states])
    return SequenceOutcomeDistribution(settings, probs)


def full_behavior(sys: SystemModel, L: int) -> Behavior:
    """Behavior of length-L sequences; repeated settings reuse the identical
    instrument.  Raises :class:`TableTooLarge` when the table would have more
    than ``MAX_TABLE_ENTRIES`` entries."""
    if L < 1:
        raise DimensionMismatch(f"sequence length must be >= 1, got {L}")
    # S * R >= 2 doubles the table per step, so a long L fails before any power
    base = sys.n_settings * sys.n_outcomes
    if base > 1 and (L > MAX_TABLE_ENTRIES.bit_length() or base**L > MAX_TABLE_ENTRIES):
        raise TableTooLarge(L, sys.n_outcomes, sys.n_settings, MAX_TABLE_ENTRIES)
    scenario = Scenario(L, sys.n_outcomes, sys.n_settings)
    table = np.zeros((scenario.n_setting_seqs, scenario.n_outcome_seqs))
    for srow in range(scenario.n_setting_seqs):
        xs = digits_of_index(srow, scenario.S, L)
        table[srow] = run_sequence(sys, xs).probs
    return Behavior(scenario, table)


# --- exact vertex realization on S+1 levels --------------------------------------

@dataclass(frozen=True)
class VertexRealization:
    """A system model of dimension S+1 whose behavior is a given vertex."""

    system: SystemModel
    vertex: DeterministicVertex


def _transposition(i: int, j: int, dim: int) -> np.ndarray:
    u = np.eye(dim, dtype=complex)
    u[[i, j]] = u[[j, i]]
    return u


def qutrit_vertex_realization(v: DeterministicVertex) -> VertexRealization:
    """Exact realization of a length-2 vertex on an (S+1)-level system.

    Basis state 0 is the input state and basis state s+1 is the
    post-measurement state after a first measurement with setting s.  The
    effect of result r for setting s projects onto the basis states whose
    assigned outcome in the corresponding slot is r, and a swap of levels 0
    and s+1 after the projection produces the post-measurement states.  The
    realized behavior is 0/1 exactly (up to floating-point roundoff).
    """
    s = v.scenario
    if s.L != 2:
        raise UnsupportedLength(
            f"vertex realization is implemented for L=2 only, got L={s.L}"
        )
    dim = s.S + 1

    instruments = []
    for setting in range(s.S):
        # slot outcomes: index 0 is the first time step, index s'+1 the second
        # time step after a first measurement with setting s'
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

    system = SystemModel(DensityMatrix(ketbra(0, 0, dim)), tuple(instruments))
    return VertexRealization(system, v)


def mixture_realization(decomp: ConvexDecomposition) -> SystemModel:
    """Block-diagonal system realizing a convex mixture of length-2 vertices.

    Each vertex contributes one (S+1)-dimensional block carrying its exact
    realization; the initial state weights the blocks by the mixture weights.
    """
    terms = [(w, v) for w, v in decomp.terms if w > 0.0]
    if not terms:
        raise EmptyDecomposition("decomposition has no positive-weight vertex")
    s = terms[0][1].scenario
    if s.L != 2:
        raise UnsupportedLength(
            f"mixture realization is implemented for L=2 only, got L={s.L}"
        )

    blocks = [qutrit_vertex_realization(v).system for _w, v in terms]
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
