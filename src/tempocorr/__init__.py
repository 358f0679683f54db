"""Temporal-correlation polytopes of sequential measurements, quantum
instrument simulation, and qubit dimension witnesses.

The package imports lazily (PEP 562): ``import tempocorr`` loads no
submodule and no numpy; ``tempocorr.witness`` or ``from tempocorr import
Scenario`` imports the module that defines the name on first use.  So
``python -m tempocorr.cli`` can parse its arguments before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("bounds", "correlations", "errors", "qmath", "realize", "serialize", "witness")

_EXPORTS = {
    "bounds": ("c1_bound", "c3_bound"),
    "correlations": (
        "Behavior",
        "ConvexDecomposition",
        "DeterministicVertex",
        "RelabelingGroup",
        "Scenario",
        "check_membership",
        "classify_vertices",
        "compose_from_conditionals",
        "count_vertices",
        "decompose_behavior",
        "enumerate_vertices",
        "factorize",
        "marginal",
        "named_vertex",
        "require_member",
        "vertex_behavior",
    ),
    "qmath": (
        "DensityMatrix",
        "Instrument",
        "SystemModel",
        "bloch_to_density",
        "density_to_bloch",
        "effect_from_params",
        "validate_effect",
        "validate_instrument",
    ),
    "realize": (
        "canonical_protocols",
        "full_behavior",
        "mixture_realization",
        "qutrit_vertex_realization",
        "run_sequence",
    ),
    "witness": (
        "CertificationReport",
        "OptimizerConfig",
        "QubitStrategy",
        "WitnessFunctional",
        "b1_projective_profile",
        "b3_profile",
        "b4_envelope",
        "builtin_functionals",
        "certify",
        "epsilon_lower_bound",
        "evaluate",
        "optimize_qubit",
        "strategy_value",
        "system_epsilon",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULES, *_HOME]


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
