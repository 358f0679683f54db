"""JSON encodings of the data model.

Complex matrices are flat row-major arrays of [re, im] pairs.  Floats are
emitted with Python's shortest round-trip repr, so parse(emit(x)) recovers x
exactly.  Parsers validate shapes and value ranges and raise
:class:`~tempocorr.errors.SchemaError` with the offending field path; a
system of more Kraus entries than ``errors.MAX_TABLE_ENTRIES`` is refused
with :class:`~tempocorr.errors.TableTooLarge` before its matrices are read.
"""

from __future__ import annotations

import json
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from .correlations import (
    Behavior,
    ConvexDecomposition,
    Scenario,
    context_order,
    context_position,
    digits_of_index,
    digits_string,
    index_of_digits,
)
from .errors import SchemaError, TableTooLarge, TempocorrError, exceeds_table_budget
from .qmath import DensityMatrix, SystemModel, validate_instrument

if TYPE_CHECKING:
    # imported where used: simulate, decompose, realize and vertices never
    # load witness, its dataclasses or its compiled bytecode
    from .witness import CertificationReport, QubitStrategy, WitnessFunctional


# --- numbers ----------------------------------------------------------------

_FLOAT_MAX = sys.float_info.max  # ints beyond it overflow float(); NaN fails every comparison

def _number(value, path: str, integer: bool = False, minimum: int | None = None):
    """A JSON number: finite, never a bool, an ``int`` when ``integer``
    (otherwise returned as a float), at least ``minimum`` when given."""
    kind = "an integer" if integer else "a number"
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise SchemaError(path, f"expected {kind}, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"expected {kind} >= {minimum}, got {value!r}")
    if not integer and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return value if integer else float(value)


# --- matrices ---------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def matrix_from_json(data, path: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemaError(path, "expected a nonempty array of [re, im] pairs")
    dim = math.isqrt(len(data))
    if dim * dim != len(data):
        raise SchemaError(path, f"{len(data)} entries do not form a square matrix")
    flat = np.empty(len(data), dtype=complex)
    for i, pair in enumerate(data):
        at = f"{path}[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(at, "expected an [re, im] pair of numbers")
        flat[i] = complex(_number(pair[0], at), _number(pair[1], at))
    return flat.reshape(dim, dim)


# --- system models ------------------------------------------------------------

def system_model_to_json(sys: SystemModel) -> dict:
    return {
        "dim": sys.dim,
        "initial": matrix_to_json(sys.initial.matrix),
        "instruments": [
            {"kraus": [[matrix_to_json(k) for k in ops] for ops in inst.kraus_sets]}
            for inst in sys.instruments
        ],
    }


def _check_system_size(raw: list, dim: int) -> None:
    """Refuse, from the list lengths alone, a system of more than
    ``errors.MAX_TABLE_ENTRIES`` Kraus entries S * R * K * d^2 (R the most
    outcomes and K the most Kraus operators of any outcome), before any
    matrix of an instrument is parsed or validated; malformed entries are
    left to the parser."""
    kraus = [e["kraus"] for e in raw if isinstance(e, dict) and isinstance(e.get("kraus"), list)]
    R = max(map(len, kraus), default=0)
    K = max((len(ops) for sets in kraus for ops in sets if isinstance(ops, list)), default=0)
    S = len(raw)
    if exceeds_table_budget(S * R * K * dim * dim):
        what = f"a system of S * R * K * d^2 = {S} * {R} * {K} * {dim}^2 Kraus entries"
        raise TableTooLarge(what)


def system_model_from_json(data) -> SystemModel:
    if not isinstance(data, dict):
        raise SchemaError("$", "expected an object")
    dim = _number(data.get("dim"), "dim", integer=True, minimum=1)
    if "initial" not in data:
        raise SchemaError("initial", "missing")
    initial = matrix_from_json(data["initial"], "initial")
    if initial.shape != (dim, dim):
        raise SchemaError("initial", f"matrix is {initial.shape[0]}x{initial.shape[0]}, dim says {dim}")
    raw = data.get("instruments")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("instruments", "expected a nonempty array")
    if len(raw) < 2:
        raise SchemaError("instruments", f"need at least 2 settings, got {len(raw)}")
    _check_system_size(raw, dim)
    instruments = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "kraus" not in entry:
            raise SchemaError(f"instruments[{i}]", "expected an object with a 'kraus' field")
        kraus = entry["kraus"]
        if not isinstance(kraus, list) or not kraus:
            raise SchemaError(f"instruments[{i}].kraus", "expected a nonempty array of outcomes")
        if len(kraus) < 2:
            raise SchemaError(f"instruments[{i}].kraus", f"need at least 2 outcomes, got {len(kraus)}")
        sets = []
        for r, ops in enumerate(kraus):
            if not isinstance(ops, list) or not ops:
                raise SchemaError(
                    f"instruments[{i}].kraus[{r}]", "expected a nonempty array of matrices"
                )
            mats = []
            for k, mat in enumerate(ops):
                m = matrix_from_json(mat, f"instruments[{i}].kraus[{r}][{k}]")
                if m.shape != (dim, dim):
                    raise SchemaError(
                        f"instruments[{i}].kraus[{r}][{k}]",
                        f"matrix is {m.shape[0]}x{m.shape[0]}, dim says {dim}",
                    )
                mats.append(m)
            sets.append(mats)
        try:
            # huge entries overflow in K^dag K; validation rejects the result,
            # and numpy must not print overflow warnings ahead of that error
            with np.errstate(over="ignore", invalid="ignore"):
                instruments.append(validate_instrument(sets))
        except TempocorrError as exc:
            raise SchemaError(f"instruments[{i}]", str(exc)) from exc
    try:
        state = DensityMatrix(initial)
        return SystemModel(state, tuple(instruments))
    except TempocorrError as exc:
        raise SchemaError("initial", str(exc)) from exc


# --- behaviors -----------------------------------------------------------------

def _scenario_to_json(s: Scenario) -> dict:
    return {"L": s.L, "R": s.R, "S": s.S}


def _scenario_from_json(data, R: int | None = None, S: int | None = None) -> Scenario:
    """Scenario from the "L", "R" and "S" fields of a top-level object; ``R``
    and ``S`` are the defaults for absent fields (required when None)."""
    if not isinstance(data, dict):
        raise SchemaError("$", "expected an object")
    L = _number(data.get("L"), "L", integer=True, minimum=1)
    R = _number(data.get("R", R), "R", integer=True, minimum=2)
    S = _number(data.get("S", S), "S", integer=True, minimum=2)
    try:
        return Scenario(L, R, S)
    except TempocorrError as exc:
        raise SchemaError("L/R/S", str(exc)) from exc


def behavior_to_json(b: Behavior) -> dict:
    s = b.scenario
    if s.S > 10:
        raise SchemaError("S", f"the table is keyed by one digit per setting, so S <= 10, got {s.S}")
    table = {}
    for srow in range(s.n_setting_seqs):
        key = digits_string(digits_of_index(srow, s.S, s.L))
        table[key] = [float(v) for v in b.table[srow]]
    return {**_scenario_to_json(s), "table": table}


def behavior_from_json(data) -> Behavior:
    scenario = _scenario_from_json(data)
    raw = data.get("table")
    if not isinstance(raw, dict):
        raise SchemaError("table", "expected an object keyed by setting digits")
    if len(raw) != scenario.n_setting_seqs:
        raise SchemaError("table", f"expected {scenario.n_setting_seqs} setting blocks, got {len(raw)}")
    # one distinct key per row, all checked first: the table is no larger than the document
    for key, row in raw.items():
        if len(key) != scenario.L or not set(key) <= set("0123456789"[: scenario.S]):
            raise SchemaError(f"table.{key}", f"expected {scenario.L} digits in 0..{scenario.S - 1}")
        if not isinstance(row, list) or len(row) != scenario.n_outcome_seqs:
            raise SchemaError(f"table.{key}", f"expected {scenario.n_outcome_seqs} probabilities")
    table = np.zeros((scenario.n_setting_seqs, scenario.n_outcome_seqs))
    for key, row in raw.items():
        srow = index_of_digits((int(c) for c in key), scenario.S)
        table[srow] = [_number(v, f"table.{key}[{j}]") for j, v in enumerate(row)]
    return Behavior(scenario, table)


# --- vertices and decompositions --------------------------------------------------

def _context_key(h: tuple[int, ...], outcomes, S: int) -> str:
    """Key of the setting history ``h``: its time step, its settings and the
    outcome prefix it realizes under ``outcomes`` (read up to its parent)."""
    realized = [outcomes[context_position(h[:u], S)] for u in range(1, len(h))]
    return f"t={len(h)};x={digits_string(h)};a={digits_string(realized)}"


def _assignment_to_json(scenario: Scenario, outcomes) -> dict[str, int]:
    ctxs = context_order(scenario)
    out = {_context_key(h, outcomes, scenario.S): a for h, a in zip(ctxs, outcomes)}
    if len(out) != len(ctxs):  # one digit per setting: histories can share a key at S > 10
        raise SchemaError("S", f"the {len(ctxs)} contexts at S = {scenario.S} give {len(out)} distinct keys")
    return out


_VERTEX_BLOCK = 4096  # vertex rows formatted, and written as text, at once


def vertices_text(scenario: Scenario, outcomes: np.ndarray, orbits=None):
    """The text of ``dumps`` of the vertex list (``L``, ``R``, ``S``,
    ``count``, ``orbits`` when given, and ``vertices``, the assignment of
    each row of ``outcomes``), one block of rows at a time.  "vertices"
    sorts last; a row's keys depend only on its outcomes before step L, so
    each such key set is formatted once, with a ``%d`` per outcome in
    sorted-key order."""
    head = {**_scenario_to_json(scenario), "count": len(outcomes)}
    if orbits is not None:
        head["orbits"] = orbits
    yield dumps(head)[: -len("\n}\n")] + ',\n  "vertices": [\n'
    inner = scenario.n_contexts - scenario.S**scenario.L
    _, first, key_set = np.unique(outcomes[:, :inner], axis=0, return_index=True, return_inverse=True)
    forms, orders = [], []
    for row in outcomes[first].tolist():
        keys = list(_assignment_to_json(scenario, row))
        orders.append(sorted(range(len(keys)), key=keys.__getitem__))
        forms.append("    {\n" + ",\n".join(f"      {json.dumps(keys[c])}: %d" for c in orders[-1]) + "\n    }")
    orders, key_set = np.array(orders), key_set.reshape(-1)
    for start in range(0, len(outcomes), _VERTEX_BLOCK):
        ids = key_set[start : start + _VERTEX_BLOCK]
        rows = np.take_along_axis(outcomes[start : start + _VERTEX_BLOCK], orders[ids], axis=1)
        yield (",\n" if start else "") + ",\n".join([forms[k] % tuple(row) for k, row in zip(ids.tolist(), rows.tolist())])
    yield "\n  ]\n}\n"


def _assignment_from_json(scenario: Scenario, data, path: str) -> list[int]:
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object of context -> outcome")
    outcomes = []
    for h in context_order(scenario):
        key = _context_key(h, outcomes, scenario.S)
        if key not in data:
            raise SchemaError(f"{path}.{key}", "missing context")
        a = _number(data[key], f"{path}.{key}", integer=True)
        if not 0 <= a < scenario.R:
            raise SchemaError(f"{path}.{key}", f"outcome must be in 0..{scenario.R - 1}, got {a!r}")
        outcomes.append(a)
    if len(data) != scenario.n_contexts:
        raise SchemaError(path, f"expected {scenario.n_contexts} contexts, got {len(data)}")
    return outcomes


def decomposition_to_json(d: ConvexDecomposition) -> dict:
    terms = [
        {"weight": w, "assignment": _assignment_to_json(d.scenario, a)}
        for w, a in zip(d.weights.tolist(), d.outcomes.tolist())
    ]
    return {**_scenario_to_json(d.scenario), "terms": terms}


def decomposition_from_json(data) -> ConvexDecomposition:
    scenario = _scenario_from_json(data)
    raw = data.get("terms")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("terms", "expected a nonempty array")
    weights, outcomes = [], []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SchemaError(f"terms[{i}]", "expected an object with numeric 'weight'")
        weights.append(_number(entry.get("weight"), f"terms[{i}].weight"))
        outcomes.append(_assignment_from_json(scenario, entry.get("assignment"), f"terms[{i}].assignment"))
    try:
        return ConvexDecomposition(scenario, weights, outcomes)
    except TempocorrError as exc:
        raise SchemaError("terms", str(exc)) from exc


# --- witnesses ----------------------------------------------------------------------

def functional_to_json(f: WitnessFunctional) -> dict:
    return {
        **_scenario_to_json(f.scenario),
        "name": f.name,
        "terms": [
            {
                "a": digits_string(t.outcomes),
                "x": digits_string(t.settings),
                "coeff": float(t.coeff),
            }
            for t in f.terms
        ],
    }


def functional_from_json(data) -> WitnessFunctional:
    from .witness import WitnessFunctional, WitnessTerm

    if not isinstance(data, dict):
        raise SchemaError("$", "expected an object")
    if data.get("L") != 2:
        raise SchemaError("L", f"witness functionals need L=2, got {data.get('L')!r}")
    scenario = _scenario_from_json(data, R=2, S=2)
    raw = data.get("terms")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("terms", "expected a nonempty array")
    terms = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SchemaError(f"terms[{i}]", "expected an object")
        a, x, coeff = entry.get("a"), entry.get("x"), entry.get("coeff")
        if not isinstance(a, str) or len(a) != 2 or not (a.isascii() and a.isdigit()):
            raise SchemaError(f"terms[{i}].a", "expected two outcome digits")
        if not isinstance(x, str) or len(x) != 2 or not (x.isascii() and x.isdigit()):
            raise SchemaError(f"terms[{i}].x", "expected two setting digits")
        coeff = _number(coeff, f"terms[{i}].coeff")
        ab = (int(a[0]), int(a[1]))
        xy = (int(x[0]), int(x[1]))
        if max(ab) >= scenario.R:
            raise SchemaError(f"terms[{i}].a", f"outcome digit out of range 0..{scenario.R - 1}")
        if max(xy) >= scenario.S:
            raise SchemaError(f"terms[{i}].x", f"setting digit out of range 0..{scenario.S - 1}")
        terms.append(WitnessTerm(ab, xy, float(coeff)))
    try:
        return WitnessFunctional(str(data.get("name", "custom")), scenario, tuple(terms))
    except TempocorrError as exc:  # finite coefficients whose sum |coeff| overflows
        raise SchemaError("terms", str(exc)) from exc


def strategy_to_json(s: QubitStrategy) -> dict:
    return {
        "initial": [float(v) for v in s.initial],
        "post": {
            f"a={a};x={x}": [float(v) for v in s.post[a, x]] for a in (0, 1) for x in (0, 1)
        },
        "effects": [
            {"a": float(e.a), "b": float(e.b), "axis": [float(v) for v in e.axis]}
            for e in s.effects
        ],
    }


def _vector3_from_json(data, path: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != 3:
        raise SchemaError(path, "expected three numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(data)])


def strategy_from_json(data) -> QubitStrategy:
    from .witness import EffectParams, QubitStrategy

    if not isinstance(data, dict):
        raise SchemaError("$", "expected an object")
    initial = _vector3_from_json(data.get("initial"), "initial")
    raw_post = data.get("post")
    if not isinstance(raw_post, dict):
        raise SchemaError("post", "expected an object keyed by 'a=..;x=..'")
    post = np.zeros((2, 2, 3))
    for a in (0, 1):
        for x in (0, 1):
            key = f"a={a};x={x}"
            if key not in raw_post:
                raise SchemaError(f"post.{key}", "missing")
            post[a, x] = _vector3_from_json(raw_post[key], f"post.{key}")
    raw_eff = data.get("effects")
    if not isinstance(raw_eff, list) or len(raw_eff) != 2:
        raise SchemaError("effects", "expected exactly two effect parameter sets")
    effects = []
    for i, entry in enumerate(raw_eff):
        if not isinstance(entry, dict):
            raise SchemaError(f"effects[{i}]", "expected an object")
        a = _number(entry.get("a"), f"effects[{i}].a")
        b = _number(entry.get("b"), f"effects[{i}].b")
        axis = _vector3_from_json(entry.get("axis"), f"effects[{i}].axis")
        try:
            effects.append(EffectParams(a, b, axis))
        except TempocorrError as exc:
            raise SchemaError(f"effects[{i}]", str(exc)) from exc
    try:
        return QubitStrategy(initial, post, tuple(effects))
    except TempocorrError as exc:
        raise SchemaError("$", str(exc)) from exc


# --- reports -------------------------------------------------------------------------

def _verdict_to_json(e) -> dict:
    return {
        "name": e.name,
        "value": e.value,
        "bound": e.bound,
        "bound_kind": e.bound_kind,
        "analytic_cap": e.analytic_cap,
        "verdict": e.verdict,
        "epsilon_lower": e.epsilon_lower,
        "epsilon_cap": e.epsilon_cap,
        "epsilon_certified": e.epsilon_certified,
    }


def report_to_json(r: CertificationReport) -> dict:
    data = {
        "scenario": _scenario_to_json(r.scenario),
        "verdict": r.verdict,
        "epsilon_lower": r.epsilon_lower,
        "tolerance": r.tolerance,
        "witnesses": [_verdict_to_json(e) for e in r.entries],
    }
    if r.relabeled:
        settings, outcomes = r.relabeling
        data["certified_by"] = {
            "relabeling": {"settings": list(settings), "outcomes": [list(p) for p in outcomes]},
            "witness": _verdict_to_json(r.certified_by),
        }
    return data


def dumps(obj) -> str:
    """Stable JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
