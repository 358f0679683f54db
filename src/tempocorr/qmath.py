"""Small dense complex linear algebra and validated quantum objects.

States, instruments and system models are frozen dataclasses around numpy
arrays on spaces of dimension 2..~200, and an effect is its read-only complex
matrix.  Each is validated once, where it is built, and immutable afterwards,
so all operations here are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NormTooLarge,
    NotHermitian,
    NotTracePreserving,
    ParamOutOfRange,
    SpectrumOutOfRange,
    TraceNotOne,
    WrongDimension,
)

# Tolerances.  Everything downstream is <= a few hundred rows dense at double
# precision, so 1e-9 leaves three orders of magnitude over accumulated rounding.
HERMITICITY_TOL = 1e-9        # max-entry deviation from the conjugate transpose
TRACE_TOL = 1e-9              # |tr(rho) - 1|
TRACE_PRESERVING_TOL = 1e-9   # max-entry deviation of sum K^dag K from identity
PSD_TOL = 1e-9                # eigenvalue slack below 0 (and above 1 for effects)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def _frozen(a: np.ndarray) -> np.ndarray:
    """Read-only array of the entries of ``a``: ``a`` itself when it is a
    read-only view of a read-only array, else a read-only copy."""
    if not a.flags.writeable and isinstance(a.base, np.ndarray) and not a.base.flags.writeable:
        return a
    out = np.array(a)
    out.setflags(write=False)
    return out


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise WrongDimension(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise WrongDimension("matrix contains NaN or infinite entries")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-entry deviation of ``m`` from its conjugate transpose; inf, with
    no overflow warning, where that difference passes the largest float."""
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(m - m.conj().T)))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    A matrix with no nonzero entry off its diagonal has its real diagonal as
    exact spectrum, which is returned sorted without calling LAPACK; the Kraus
    operators of a realized mixture are partial permutations, so its states
    and effects are all of this kind.
    """
    diagonal = m.diagonal()
    if np.count_nonzero(m) == np.count_nonzero(diagonal):
        return np.sort(diagonal.real.astype(float))
    return np.linalg.eigvalsh(m)


def trace_norm(m: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix, as the sum of absolute eigenvalues."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix."""
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def ketbra(i: int, j: int, dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


# --- validated quantum objects -----------------------------------------------

@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive semidefinite matrix, validated on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        diagonal = m.diagonal()
        # a state with a real diagonal and zeros off it, as a realized mixture
        # starts in, is Hermitian and has its diagonal as spectrum
        on_diagonal = np.count_nonzero(m) == np.count_nonzero(diagonal.real) and not diagonal.imag.any()
        defect = 0.0 if on_diagonal else hermiticity_defect(m)
        if defect > HERMITICITY_TOL:
            raise NotHermitian(f"state deviates from Hermiticity by {defect:.3e} > {HERMITICITY_TOL}")
        with np.errstate(over="ignore", invalid="ignore"):
            tr = m.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise TraceNotOne(f"state trace {float(tr)!r} deviates from 1 by {abs(tr - 1.0):.3e} > {TRACE_TOL}")
        low = float(diagonal.real.min() if on_diagonal else hermitian_eigenvalues(m)[0])
        if low < -PSD_TOL:
            raise SpectrumOutOfRange(f"state has eigenvalue {low:.3e} below -{PSD_TOL}")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Instrument:
    """One measurement: a tuple of Kraus-operator collections, one per outcome.

    Built via :func:`validate_instrument` or, from column maps, by
    :func:`instrument_from_column_maps`; both give the induced effects
    ``E_r = sum_k K_{r,k}^dag K_{r,k}`` as read-only complex matrices.

    ``column_maps`` is set when every outcome has a single Kraus operator
    that is a 0/1 partial permutation: every nonzero entry exactly ``1+0j``
    (a +0.0 imaginary part) and no row or column with two of them.  It is
    then one read-only (R, d) int array whose entry [r, i] is the column of
    the 1 in row i of outcome r's operator, or -1 for a zero row, so
    ``(K rho K^dag)[i, j] = rho[map[i], map[j]]`` (zero where either is -1)
    and ``E_r`` is the 0/1 diagonal of the columns it holds.  Any other
    instrument has ``None``.

    An instrument with column maps holds them; the operators and effects it
    was not given are built from them on first read of ``kraus_sets`` or
    ``effects``, as rows of one read-only 0/1 (R, d, d) stack, and kept.
    """

    column_maps: np.ndarray | None

    def __init__(self, column_maps, kraus_sets=None, effects=None):
        object.__setattr__(self, "column_maps", column_maps)
        # a given view is kept where cached_property would keep a built one
        for name, value in (("kraus_sets", kraus_sets), ("effects", effects)):
            if value is not None:
                self.__dict__[name] = tuple(value)

    def _from_maps(self, effects: bool) -> tuple[np.ndarray, ...]:
        """Rows of the read-only (R, d, d) stack of the operators, or of the
        effects, written from the column maps: 1+0j at (row, map[row]), or
        at (map[row], map[row]) for an effect."""
        maps = self.column_maps
        outcome, row = np.nonzero(maps >= 0)
        held = maps[outcome, row]
        stack = np.zeros(maps.shape + maps.shape[-1:], dtype=complex)
        stack[outcome, held if effects else row, held] = 1.0
        stack.setflags(write=False)
        return tuple(stack)

    # setdefault keeps the first build, so threads that race to the first
    # read all return the same views
    @cached_property
    def kraus_sets(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return self.__dict__.setdefault("kraus_sets", tuple((k,) for k in self._from_maps(effects=False)))

    @cached_property
    def effects(self) -> tuple[np.ndarray, ...]:
        return self.__dict__.setdefault("effects", self._from_maps(effects=True))

    @property
    def dim(self) -> int:
        return (self.kraus_sets[0][0] if self.column_maps is None else self.column_maps).shape[-1]

    @property
    def n_outcomes(self) -> int:
        return len(self.kraus_sets if self.column_maps is None else self.column_maps)


@dataclass(frozen=True)
class SystemModel:
    """Initial state plus one instrument per measurement setting.

    Using the same setting twice in a sequence reuses the identical
    instrument, which is what makes measurements repeatable.
    """

    initial: DensityMatrix
    instruments: tuple[Instrument, ...]

    def __post_init__(self):
        object.__setattr__(self, "instruments", tuple(self.instruments))
        if not self.instruments:
            raise DimensionMismatch("a system model needs at least one instrument")
        d = self.initial.dim
        for s, inst in enumerate(self.instruments):
            if inst.dim != d:
                raise DimensionMismatch(
                    f"instrument {s} acts on dimension {inst.dim}, state has dimension {d}"
                )
        r = self.instruments[0].n_outcomes
        for s, inst in enumerate(self.instruments):
            if inst.n_outcomes != r:
                raise DimensionMismatch(
                    f"instrument {s} has {inst.n_outcomes} outcomes, expected {r}"
                )

    @property
    def dim(self) -> int:
        return self.initial.dim

    @property
    def n_settings(self) -> int:
        return len(self.instruments)

    @property
    def n_outcomes(self) -> int:
        return self.instruments[0].n_outcomes


def validate_effect(m) -> np.ndarray:
    """Check Hermiticity to ``HERMITICITY_TOL`` and the spectrum in
    [-PSD_TOL, 1 + PSD_TOL]; returns the read-only complex matrix."""
    a = as_complex_matrix(m)
    defect = hermiticity_defect(a)
    if defect > HERMITICITY_TOL:
        raise NotHermitian(f"effect deviates from Hermiticity by {defect:.3e} > {HERMITICITY_TOL}")
    vals = hermitian_eigenvalues(a)
    low, high = float(vals[0]), float(vals[-1])
    if low < -PSD_TOL:
        raise SpectrumOutOfRange(f"effect has eigenvalue {low:.6e} below -{PSD_TOL}")
    if high > 1.0 + PSD_TOL:
        raise SpectrumOutOfRange(f"effect has eigenvalue {high:.6e} above 1+{PSD_TOL}")
    return _frozen(a)


# 1+0j with a +0.0 imaginary part, as the bits of its (re, im) pair
_ONE_BITS = np.array([1.0, 0.0]).view(np.uint64)


def _column_map(k: np.ndarray) -> np.ndarray | None:
    """Per row, the column of the single ``1+0j`` entry of a 0/1 partial
    permutation, -1 for a zero row; None for any other operator."""
    rows, cols = np.nonzero(k)
    dim = k.shape[0]
    if not (k[rows, cols].view(np.uint64).reshape(-1, 2) == _ONE_BITS).all():
        return None
    # no row and no column holds two entries
    if np.bincount(np.concatenate((rows, cols + dim)), minlength=1).max() > 1:
        return None
    columns = np.full(dim, -1)
    columns[rows] = cols
    return columns


def instrument_from_column_maps(maps: np.ndarray, kraus=None) -> Instrument:
    """Instrument whose outcome r is the 0/1 partial permutation with column
    map ``maps[r]`` (see :class:`Instrument`): the read-only ``kraus[r]``
    when given, else built from the maps on first read, as are the effects.
    The operator sum is the identity exactly when every column is held
    once."""
    held = maps[maps >= 0]
    defect = float(np.max(np.abs(np.bincount(held, minlength=maps.shape[1]) - 1)))
    if defect > TRACE_PRESERVING_TOL:
        raise NotTracePreserving(
            f"sum of K^dag K deviates from identity by {defect:.6e} > {TRACE_PRESERVING_TOL}"
        )
    maps.setflags(write=False)
    return Instrument(maps, None if kraus is None else ((k,) for k in kraus))


def validate_instrument(kraus_sets) -> Instrument:
    """Validate trace preservation of a Kraus family grouped by outcome.

    ``kraus_sets[r]`` is the nonempty list of Kraus operators of outcome ``r``.
    The operator sum over all outcomes must be the identity within tolerance,
    and each induced effect must satisfy the effect constraints.  When
    every outcome's single operator is a 0/1 partial permutation, the
    instrument is built around the given operators and their column maps
    (see :class:`Instrument`) by :func:`instrument_from_column_maps`.
    """
    if not kraus_sets:
        raise WrongDimension("instrument needs at least one outcome")
    normalized: list[tuple[np.ndarray, ...]] = []
    dim = None
    for r, ops in enumerate(kraus_sets):
        ops = [as_complex_matrix(k) for k in ops]
        if not ops:
            raise WrongDimension(f"outcome {r} has no Kraus operators")
        for k in ops:
            if dim is None:
                dim = k.shape[0]
            elif k.shape[0] != dim:
                raise DimensionMismatch(
                    f"outcome {r} has a {k.shape[0]}x{k.shape[0]} Kraus operator, expected dim {dim}"
                )
        normalized.append(tuple(_frozen(k) for k in ops))

    column_maps = [_column_map(ops[0]) if len(ops) == 1 else None for ops in normalized]
    if all(columns is not None for columns in column_maps):
        return instrument_from_column_maps(np.array(column_maps), [ops[0] for ops in normalized])
    total = np.zeros((dim, dim), dtype=complex)
    effects = []
    for ops in normalized:
        induced = np.zeros((dim, dim), dtype=complex)
        for k in ops:
            induced += k.conj().T @ k
        effects.append(validate_effect(induced))
        total += induced

    defect = float(np.max(np.abs(total - np.eye(dim))))
    if defect > TRACE_PRESERVING_TOL:
        raise NotTracePreserving(
            f"sum of K^dag K deviates from identity by {defect:.6e} > {TRACE_PRESERVING_TOL}"
        )
    return Instrument(None, normalized, effects)


# --- Bloch parametrization (qubits) ------------------------------------------

def as_bloch_vector(alpha) -> np.ndarray:
    """Coerce to a real 3-vector inside the closed unit ball."""
    v = np.asarray(alpha, dtype=float)
    if v.shape != (3,):
        raise WrongDimension(f"Bloch vector must have shape (3,), got {v.shape}")
    norm = float(np.linalg.norm(v))
    if norm > 1.0 + PSD_TOL:
        raise NormTooLarge(f"Bloch norm {norm!r} exceeds 1 by {norm - 1.0:.3e} > {PSD_TOL}")
    return v


def bloch_to_density(alpha) -> DensityMatrix:
    """Qubit state (identity + alpha . sigma) / 2."""
    v = as_bloch_vector(alpha)
    m = 0.5 * (np.eye(2, dtype=complex) + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)
    return DensityMatrix(m)


def density_to_bloch(rho: DensityMatrix) -> np.ndarray:
    """Bloch components tr(rho sigma_i) of a qubit state."""
    if rho.dim != 2:
        raise WrongDimension(f"Bloch decomposition needs a 2x2 state, got dim {rho.dim}")
    return np.array([float((rho.matrix @ p).trace().real) for p in PAULI])


def effect_from_params(a: float, b: float, axis) -> np.ndarray:
    """Binary-outcome qubit effect ``a (identity + b axis . sigma)``.

    Requires ``0 <= b <= 1`` and ``0 <= a <= 1/(1+b)`` so that both the effect
    and its complement have spectrum inside [0, 1]; ``axis`` must be a unit
    vector.
    """
    if not -PSD_TOL <= b <= 1.0 + PSD_TOL:
        raise ParamOutOfRange(f"b={b!r} outside [0, 1]")
    if not -PSD_TOL <= a <= 1.0 / (1.0 + b) + PSD_TOL:
        raise ParamOutOfRange(f"a={a!r} outside [0, 1/(1+b)] = [0, {1.0 / (1.0 + b)!r}]")
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise ParamOutOfRange(f"axis must have shape (3,), got {n.shape}")
    norm = float(np.linalg.norm(n))
    if abs(norm - 1.0) > 1e-9:
        raise ParamOutOfRange(f"axis norm {norm!r} deviates from 1 by {abs(norm - 1.0):.3e}")
    m = a * (np.eye(2, dtype=complex) + b * (n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z))
    return validate_effect(m)


# --- random objects (seeded; used by property tests and sampling searches) ----

def random_density_matrix(rng: np.random.Generator, dim: int) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def random_instrument(
    rng: np.random.Generator, dim: int, n_outcomes: int, kraus_per_outcome: int = 1
) -> Instrument:
    """Random valid instrument: raw Gaussian blocks right-normalized so the
    Kraus operators sum to a trace-preserving map."""
    raw = [
        [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(kraus_per_outcome)]
        for _ in range(n_outcomes)
    ]
    total = np.zeros((dim, dim), dtype=complex)
    for ops in raw:
        for k in ops:
            total += k.conj().T @ k
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return validate_instrument([[k @ inv_sqrt for k in ops] for ops in raw])


def random_system_model(
    rng: np.random.Generator, dim: int, n_settings: int, n_outcomes: int, kraus_per_outcome: int = 1
) -> SystemModel:
    return SystemModel(
        random_density_matrix(rng, dim),
        tuple(random_instrument(rng, dim, n_outcomes, kraus_per_outcome) for _ in range(n_settings)),
    )
