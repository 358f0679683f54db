import copy
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempocorr import errors
from tempocorr import serialize as se
from tempocorr.correlations import (
    ConvexDecomposition,
    DeterministicVertex,
    RelabelingGroup,
    Scenario,
    classify_vertices,
    compose_from_conditionals,
    count_vertices,
    decompose_behavior,
    enumerate_vertices,
    named_vertex,
    random_conditional_chain,
)
from tempocorr.errors import SchemaError, TableTooLarge
from tempocorr.realize import canonical_protocols, full_behavior
from tempocorr.witness import builtin_functionals, certify, random_strategy


def roundtrip(obj, to_json, from_json):
    text = se.dumps(to_json(obj))
    parsed = from_json(json.loads(text))
    assert se.dumps(to_json(parsed)) == text
    return parsed


class TestMatrix:
    def test_roundtrip(self):
        m = np.array([[1 + 2j, 0.25], [-1j, 0.125]])
        back = se.matrix_from_json(se.matrix_to_json(m), "m")
        assert np.array_equal(back, m)

    def test_rejects_non_square_length(self):
        with pytest.raises(SchemaError):
            se.matrix_from_json([[1.0, 0.0]] * 3, "m")

    def test_rejects_bad_pair(self):
        with pytest.raises(SchemaError) as exc:
            se.matrix_from_json([[1.0, 0.0], [1.0], [0.0, 0.0], [0.0, 0.0]], "m")
        assert "m[1]" in str(exc.value)


class TestSystemModel:
    def test_roundtrip_all_protocols(self):
        for name, sys_model in canonical_protocols().items():
            parsed = roundtrip(sys_model, se.system_model_to_json, se.system_model_from_json)
            assert parsed.dim == sys_model.dim, name

    def test_lossless_behavior_after_roundtrip(self):
        sys_model = canonical_protocols()["qutrit-e1"]
        parsed = se.system_model_from_json(json.loads(se.dumps(se.system_model_to_json(sys_model))))
        b1 = full_behavior(sys_model, 2)
        b2 = full_behavior(parsed, 2)
        assert np.array_equal(b1.table, b2.table)

    def test_dim_mismatch_reported_with_path(self):
        data = se.system_model_to_json(canonical_protocols()["qubit-B1-3"])
        data["dim"] = 3
        with pytest.raises(SchemaError) as exc:
            se.system_model_from_json(data)
        assert exc.value.path == "initial"

    def test_invalid_instrument_reported_with_path(self):
        data = se.system_model_to_json(canonical_protocols()["qubit-B1-3"])
        data["instruments"][1]["kraus"] = data["instruments"][1]["kraus"][:1]
        with pytest.raises(SchemaError) as exc:
            se.system_model_from_json(data)
        assert "instruments[1]" in exc.value.path

    def test_one_setting_refused_on_instruments(self):
        data = se.system_model_to_json(canonical_protocols()["qubit-B1-3"])
        del data["instruments"][1]
        with pytest.raises(SchemaError) as exc:
            se.system_model_from_json(data)
        assert exc.value.path == "instruments"
        assert str(exc.value) == "instruments: need at least 2 settings, got 1"

    def test_one_outcome_refused_on_its_kraus_field(self):
        # one outcome of the identity is trace preserving, so only the count refuses it
        data = se.system_model_to_json(canonical_protocols()["qubit-B1-3"])
        data["instruments"][1]["kraus"] = [[se.matrix_to_json(np.eye(2))]]
        with pytest.raises(SchemaError) as exc:
            se.system_model_from_json(data)
        assert exc.value.path == "instruments[1].kraus"
        assert str(exc.value) == "instruments[1].kraus: need at least 2 outcomes, got 1"

    def test_overflowing_kraus_entry_rejected_without_warnings(self):
        # K^dag K overflows to inf and nan; numpy must not warn on the way
        data = se.system_model_to_json(canonical_protocols()["qutrit-e1"])
        data["instruments"][1]["kraus"][1][0][4] = [1e300, 1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError) as exc:
                se.system_model_from_json(data)
        assert exc.value.path == "instruments[1]"

    def test_size_budget_is_inclusive(self, monkeypatch):
        # qubit-B1-3 holds S * R * K * d^2 = 2 * 2 * 1 * 2^2 = 16 Kraus entries
        data = se.system_model_to_json(canonical_protocols()["qubit-B1-3"])
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 16)
        assert se.system_model_from_json(data).dim == 2
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 15)
        with pytest.raises(TableTooLarge, match=r"2 \* 2 \* 1 \* 2\^2 Kraus entries exceeds the cap 15"):
            se.system_model_from_json(data)

    def test_size_budget_counts_the_largest_lists(self, monkeypatch):
        # R and K are the largest outcome and Kraus counts of any instrument,
        # read before any matrix of an instrument is parsed
        data = se.system_model_to_json(canonical_protocols()["qubit-B1-3"])
        data["instruments"][1]["kraus"][0] = ["not a matrix"] * 3
        data["instruments"][0]["kraus"].append([])
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 2 * 3 * 3 * 4 - 1)
        with pytest.raises(TableTooLarge, match=r"2 \* 3 \* 3 \* 2\^2"):
            se.system_model_from_json(data)
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 2 * 3 * 3 * 4)
        with pytest.raises(SchemaError):
            se.system_model_from_json(data)


class TestBehavior:
    def test_roundtrip_is_lossless(self):
        rng = np.random.default_rng(40)
        b = compose_from_conditionals(random_conditional_chain(rng, Scenario(2, 3, 2)))
        parsed = se.behavior_from_json(json.loads(se.dumps(se.behavior_to_json(b))))
        assert np.array_equal(parsed.table, b.table)

    def test_missing_block(self):
        data = se.behavior_to_json(full_behavior(canonical_protocols()["qubit-B1-3"], 2))
        del data["table"]["01"]
        with pytest.raises(SchemaError):
            se.behavior_from_json(data)

    def test_bad_key(self):
        data = se.behavior_to_json(full_behavior(canonical_protocols()["qubit-B1-3"], 2))
        data["table"]["02"] = data["table"].pop("01")
        with pytest.raises(SchemaError) as exc:
            se.behavior_from_json(data)
        assert "table.02" in str(exc.value)

    def test_rows_counted_before_allocation(self):
        # a full table of this scenario would need 8 TiB; the document has one row
        data = {"L": 20, "R": 2, "S": 2, "table": {"0" * 20: [1.0, 0.0]}}
        with pytest.raises(SchemaError) as exc:
            se.behavior_from_json(data)
        assert exc.value.path == "table"

    def test_wrong_row_length(self):
        data = se.behavior_to_json(full_behavior(canonical_protocols()["qubit-B1-3"], 2))
        data["table"]["00"] = data["table"]["00"][:3]
        with pytest.raises(SchemaError):
            se.behavior_from_json(data)


def one_term(v: DeterministicVertex) -> ConvexDecomposition:
    return ConvexDecomposition(v.scenario, [1.0], [v.outcomes])


def vertex_of(d: ConvexDecomposition) -> DeterministicVertex:
    (w, v), = d.terms
    assert w == 1.0
    return v


class TestVertexAndDecomposition:
    """A vertex is written and read as the one term of a decomposition."""

    def test_vertex_roundtrip(self):
        for name in ("e1", "e2", "e3", "e4"):
            v = named_vertex(name)
            assert vertex_of(roundtrip(one_term(v), se.decomposition_to_json, se.decomposition_from_json)) == v

    def test_vertex_key_format(self):
        keys = set(se.decomposition_to_json(one_term(named_vertex("e1")))["terms"][0]["assignment"])
        assert "t=1;x=0;a=" in keys
        assert "t=2;x=01;a=0" in keys

    def test_vertex_missing_context(self):
        data = se.decomposition_to_json(one_term(named_vertex("e1")))
        del data["terms"][0]["assignment"]["t=1;x=0;a="]
        with pytest.raises(SchemaError, match=r"^terms\[0\]\.assignment\.t=1;x=0;a=: missing context$"):
            se.decomposition_from_json(data)

    def test_colliding_context_keys_refused_when_written(self):
        # at S = 11 the histories (1, 0, 10) and (10, 1, 0) both spell x=1010
        scenario = Scenario(3, 2, 11)
        v = DeterministicVertex(scenario, (0,) * scenario.n_contexts)
        for write in (
            lambda v: se.decomposition_to_json(one_term(v)),
            lambda v: "".join(se.vertices_text(scenario, np.array([v.outcomes]))),
        ):
            with pytest.raises(SchemaError) as exc:
                write(v)
            assert exc.value.path == "S"
            assert "the 1463 contexts at S = 11 give 1462 distinct keys" in str(exc.value)

    @pytest.mark.parametrize("L", [1, 2])
    def test_eleven_settings_round_trip_where_keys_are_distinct(self, L):
        scenario = Scenario(L, 2, 11)
        v = DeterministicVertex(scenario, tuple(i % 2 for i in range(scenario.n_contexts)))
        assert vertex_of(roundtrip(one_term(v), se.decomposition_to_json, se.decomposition_from_json)) == v

    def test_decomposition_roundtrip(self):
        rng = np.random.default_rng(41)
        b = compose_from_conditionals(random_conditional_chain(rng, Scenario(2, 2, 2)))
        d = decompose_behavior(b)
        parsed = roundtrip(d, se.decomposition_to_json, se.decomposition_from_json)
        assert len(parsed.terms) == len(d.terms)

    @pytest.mark.parametrize(
        "term, key, value, path, message",
        [
            (1, "weight", -0.5, "terms", "negative weight -0.5"),
            (1, "weight", 0.25, "terms", "weights sum to 0.75, not 1"),
            (1, "weight", "a", "terms[1].weight", "expected a number, got 'a'"),
            (1, "t=1;x=0;a=", 2, "terms[1].assignment.t=1;x=0;a=", "outcome must be in 0..1, got 2"),
            (1, "extra", 0, "terms[1].assignment", "expected 6 contexts, got 7"),
            (0, "t=1;x=0;a=", None, "terms[0].assignment.t=1;x=0;a=", "missing context"),
        ],
    )
    def test_decomposition_refused_with_field_paths(self, term, key, value, path, message):
        data = se.decomposition_to_json(ConvexDecomposition(Scenario(2, 2, 2), [0.5, 0.5], [named_vertex("e1").outcomes, named_vertex("e2").outcomes]))
        entry = data["terms"][term]
        target = entry if key == "weight" else entry["assignment"]
        if value is None:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(SchemaError) as exc:
            se.decomposition_from_json(data)
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {message}"

    def test_decomposition_weight_validation(self):
        data = se.decomposition_to_json(decompose_behavior_of_e1())
        data["terms"][0]["weight"] = 0.5
        with pytest.raises(SchemaError):
            se.decomposition_from_json(data)


def vertex_list_the_old_way(scenario, orbits=None):
    """The ``vertices --out`` document built as a dict, one
    ``DeterministicVertex`` and one assignment dict per vertex."""
    doc = {"L": scenario.L, "R": scenario.R, "S": scenario.S, "count": count_vertices(scenario)}
    if orbits is not None:
        doc["orbits"] = [list(orb) for orb in orbits]
    vertices = (DeterministicVertex.from_index(scenario, k) for k in range(count_vertices(scenario)))
    doc["vertices"] = [se._assignment_to_json(scenario, v.outcomes) for v in vertices]
    return se.dumps(doc)


def assert_same_text(got, want):
    """Equal texts, or a failure that shows where they first differ (pytest's
    own diff of megabyte strings takes minutes)."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"{len(got)} != {len(want)} characters, first differing at {at}: {got[at - 60 : at + 60]!r} != {want[at - 60 : at + 60]!r}")


class TestVertexList:
    """``vertices_text`` writes, block by block, the bytes of ``dumps`` of
    the dict document."""

    @pytest.mark.parametrize(
        "scenario",
        [Scenario(1, 2, S) for S in range(2, 12)]
        + [Scenario(2, 2, 2), Scenario(2, 3, 2), Scenario(2, 2, 3), Scenario(3, 2, 2)],
        ids=str,
    )
    @pytest.mark.parametrize("classify", [False, True], ids=["plain", "orbits"])
    def test_same_bytes_as_the_dict_document(self, monkeypatch, scenario, classify):
        # a block of 7 rows: no count here is a multiple of it, so the last block is short
        monkeypatch.setattr(se, "_VERTEX_BLOCK", 7)
        # orbits under the full group where it is small, singletons past S = 5
        group = (RelabelingGroup.full if scenario.S <= 5 else RelabelingGroup.identity)(scenario)
        orbits = classify_vertices(scenario, group).orbits if classify else None
        blocks = list(se.vertices_text(scenario, enumerate_vertices(scenario), orbits))
        assert len(blocks) == 2 + -(-count_vertices(scenario) // 7)
        assert_same_text("".join(blocks), vertex_list_the_old_way(scenario, orbits))

    def test_default_block(self):
        scenario = Scenario(3, 2, 2)
        blocks = list(se.vertices_text(scenario, enumerate_vertices(scenario)))
        assert len(blocks) == 2 + 16384 // se._VERTEX_BLOCK
        assert_same_text("".join(blocks), vertex_list_the_old_way(scenario))

    def test_rows_in_any_order(self):
        # the key set of each row is read from the row, not from its position
        scenario = Scenario(2, 3, 2)
        rows = enumerate_vertices(scenario)[np.random.default_rng(2).permutation(729)[:50]]
        doc = json.loads("".join(se.vertices_text(scenario, rows)))
        assert doc["count"] == 50
        assert doc["vertices"] == [se._assignment_to_json(scenario, row.tolist()) for row in rows]


def decompose_behavior_of_e1():
    from tempocorr.correlations import vertex_behavior

    return decompose_behavior(vertex_behavior(named_vertex("e1")))


class TestWitnessObjects:
    def test_functional_roundtrip(self):
        for f in builtin_functionals().values():
            parsed = roundtrip(f, se.functional_to_json, se.functional_from_json)
            assert parsed.terms == f.terms

    def test_functional_term_format(self):
        data = se.functional_to_json(builtin_functionals()["B1"])
        assert {"a": "00", "x": "00", "coeff": 1.0} in data["terms"]

    def test_functional_whose_coefficient_sum_overflows_refused(self):
        data = se.functional_to_json(builtin_functionals()["B1"])
        data["terms"][0]["coeff"] = data["terms"][1]["coeff"] = 1e308
        with pytest.raises(SchemaError) as exc:
            se.functional_from_json(data)
        assert exc.value.path == "terms"
        assert str(exc.value).endswith("coefficient 1e+308, sum |coeff| inf")

    def test_functional_requires_l2(self):
        data = se.functional_to_json(builtin_functionals()["B1"])
        data["L"] = 3
        with pytest.raises(SchemaError):
            se.functional_from_json(data)

    def test_functional_bad_digits(self):
        data = se.functional_to_json(builtin_functionals()["B1"])
        data["terms"][0]["a"] = "05"
        with pytest.raises(SchemaError):
            se.functional_from_json(data)

    @pytest.mark.parametrize("field", ["a", "x"])
    def test_functional_non_ascii_digits(self, field):
        # str.isdigit accepts superscripts, which int() rejects
        data = se.functional_to_json(builtin_functionals()["B1"])
        data["terms"][0][field] = "\u00b2\u00b2"
        with pytest.raises(SchemaError) as exc:
            se.functional_from_json(data)
        assert exc.value.path == f"terms[0].{field}"

    def test_strategy_roundtrip(self):
        rng = np.random.default_rng(42)
        s = random_strategy(rng)
        parsed = roundtrip(s, se.strategy_to_json, se.strategy_from_json)
        assert np.array_equal(parsed.initial, s.initial)
        assert np.array_equal(parsed.post, s.post)

    def test_report_json_fields(self):
        from tempocorr.correlations import vertex_behavior

        report = certify(vertex_behavior(named_vertex("e1")))
        data = se.report_to_json(report)
        assert data["verdict"] == "dimension > 2"
        assert len(data["witnesses"]) == 4
        assert {w["name"] for w in data["witnesses"]} == {"B1", "B2", "B3", "B4"}
        # e1 is certified by its own B1, so no relabeled image is named
        assert "certified_by" not in data


# --- parser fuzzing ---------------------------------------------------------------

def valid_documents():
    """One valid document per public parser, keyed by the parser."""
    rng = np.random.default_rng(43)
    behavior = compose_from_conditionals(random_conditional_chain(rng, Scenario(2, 2, 2)))
    return {
        se.behavior_from_json: se.behavior_to_json(behavior),
        se.decomposition_from_json: se.decomposition_to_json(decompose_behavior(behavior)),
        se.functional_from_json: se.functional_to_json(builtin_functionals()["B3"]),
        se.strategy_from_json: se.strategy_to_json(random_strategy(rng)),
        se.system_model_from_json: se.system_model_to_json(canonical_protocols()["qubit-B1-3"]),
    }


VALID = valid_documents()
PARSERS = sorted(VALID, key=lambda f: f.__name__)
# a one-term decomposition, as a single vertex is written
ONE_TERM = se.decomposition_to_json(one_term(named_vertex("e2")))
FIELD_NAMES = sorted(
    {"L", "R", "S", "table", "dim", "initial", "instruments", "kraus", "terms", "weight"}
    | {"assignment", "a", "b", "x", "coeff", "name", "post", "effects", "axis", "00", "01", "a=0;x=1"}
)

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, 1, 2, 3, -1, 2**53 + 1, 2**64, 10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, 0.5, 1.0, -0.0, 1e308, 5e-324])
    | st.text(max_size=6)
    | st.sampled_from(["00", "01", "0", "²²", "٠١", "t=1;x=0;a=", "", "NaN"])
)
keys = st.sampled_from(FIELD_NAMES) | st.text(max_size=6)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(keys, inner, max_size=5),
    max_leaves=20,
)


@st.composite
def mutated(draw, doc):
    """A copy of ``doc`` with one node, reached by a random walk from the
    root, replaced, deleted, or given an extra child."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    action = draw(st.sampled_from(["replace", "delete", "extend"]))
    if action == "extend" and isinstance(node, dict):
        node[draw(keys)] = draw(json_values)
    elif action == "extend" and isinstance(node, list):
        node.append(copy.deepcopy(node[-1]) if node and draw(st.booleans()) else draw(json_values))
    elif action == "delete" and parent is not None:
        del parent[key]
    elif parent is None:
        return draw(json_values)
    else:
        parent[key] = draw(json_values)
    return doc


def assert_parses_or_schema_error(parse, doc):
    try:
        parse(doc)
    except SchemaError as exc:
        assert isinstance(exc.path, str) and exc.path


class TestParserFuzzing:
    """Every public parser either parses a JSON value or rejects it with a
    ``SchemaError`` carrying a field path; nothing else may escape."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(PARSERS), json_values)
    def test_arbitrary_values(self, parse, doc):
        assert_parses_or_schema_error(parse, doc)

    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from(PARSERS), st.data())
    def test_near_valid_documents(self, parse, data):
        assert_parses_or_schema_error(parse, data.draw(mutated(VALID[parse])))

    @pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
    def test_valid_documents_parse(self, parse):
        parse(VALID[parse])

    def test_one_term_decomposition_parses(self):
        assert vertex_of(se.decomposition_from_json(ONE_TERM)) == named_vertex("e2")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_near_valid_one_term_decompositions(self, data):
        assert_parses_or_schema_error(se.decomposition_from_json, data.draw(mutated(ONE_TERM)))
