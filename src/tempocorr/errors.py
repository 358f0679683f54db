"""Exception hierarchy shared by all tempocorr modules, and its table-size budget."""

from __future__ import annotations

# Largest behavior table full_behavior builds: S^L * R^L entries, 8 MiB of
# float64, checked before any allocation.  The same budget caps the last
# simulation step, the Kraus entries of a realized or loaded system, the
# profile tables of ``tempocorr bounds`` and the qubit optimizer's simplices
# and per-term rows; every check reads it here as it runs.
MAX_TABLE_ENTRIES = 1 << 20

# Largest vertex set enumerated: count * n_contexts outcomes, written by
# ``vertices --out`` or walked by ``--classify``, checked before any
# allocation.  Every scenario under the default vertex cap fits; of
# (2,3,3)'s 531,441 vertices, 6,377,292 entries, and of (1,2,19)'s,
# 9,961,472.  The relabeling group of ``--classify``, S! * (R!)^S elements,
# stays within MAX_TABLE_ENTRIES.
MAX_VERTEX_ENTRIES = 1 << 24


def exceeds_table_budget(base: int, L: int = 1, factor: int = 1) -> bool:
    """Whether ``factor * base**L`` exceeds ``MAX_TABLE_ENTRIES``; a base of
    2 or more doubles it per step, so a long L answers before any power."""
    if base > 1 and L > MAX_TABLE_ENTRIES.bit_length():
        return True
    return factor * base**L > MAX_TABLE_ENTRIES


class TempocorrError(Exception):
    """Base class for all errors raised by this package."""


# --- quantum objects ---------------------------------------------------------

class WrongDimension(TempocorrError):
    """Matrix or vector has the wrong shape for the requested operation."""


class DimensionMismatch(TempocorrError):
    """Operands act on spaces of different dimension."""


class NotHermitian(TempocorrError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class SpectrumOutOfRange(TempocorrError):
    """Eigenvalues fall outside the admissible interval."""


class TraceNotOne(TempocorrError):
    """Density matrix trace deviates from 1 beyond tolerance."""


class NotTracePreserving(TempocorrError):
    """Kraus operators do not sum to a trace-preserving map."""


class NormTooLarge(TempocorrError):
    """Bloch vector lies outside the unit ball beyond tolerance."""


class ParamOutOfRange(TempocorrError):
    """Scalar parameter outside its admissible range."""


# --- classical polytope ------------------------------------------------------

class ShapeMismatch(TempocorrError):
    """Probability table shape does not match its scenario."""


class NotAMember(TempocorrError):
    """Behavior violates positivity, normalization, or arrow-of-time constraints."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnnormalizedConditional(TempocorrError):
    """Conditional distribution is negative or does not sum to 1."""


class TooManyVertices(TempocorrError):
    """Vertex count exceeds the enumeration cap; ``shown`` is the count as
    printed, which for a huge count is a power rather than its decimal digits."""

    def __init__(self, count, cap, shown):
        super().__init__(f"scenario has {shown} vertices, above the cap {cap}")
        self.count = count
        self.cap = cap
        self.shown = shown


class TableTooLarge(TempocorrError):
    """A table or matrix stack would exceed ``cap``, by default
    ``MAX_TABLE_ENTRIES`` read when raised; ``shape`` is its scenario
    (L, R, S), if any."""

    def __init__(self, what, shape=None, cap=None):
        self.cap = MAX_TABLE_ENTRIES if cap is None else cap
        super().__init__(f"{what} exceeds the cap {self.cap}")
        self.shape = shape


# --- quantum realization -----------------------------------------------------

class UnsupportedLength(TempocorrError):
    """Operation implemented only for sequence length 2."""


class EmptyDecomposition(TempocorrError):
    """Convex decomposition contains no vertices."""


# --- witnesses ---------------------------------------------------------------

class ScenarioMismatch(TempocorrError):
    """Witness functional and behavior belong to different scenarios."""


class InvalidStrategy(TempocorrError):
    """Qubit strategy violates its parameter constraints."""


class DomainError(TempocorrError):
    """Profile argument outside its closed-form domain."""


class NoValidRoot(TempocorrError):
    """No polynomial root survives the derivative filter (implementation bug)."""


class NotAProjector(TempocorrError):
    """Matrix is not a Hermitian idempotent of the required rank."""


# --- serialization -----------------------------------------------------------

class SchemaError(TempocorrError):
    """JSON document violates the expected schema."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
