from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempocorr import qmath
from tempocorr.errors import (
    DimensionMismatch,
    NormTooLarge,
    NotHermitian,
    NotTracePreserving,
    ParamOutOfRange,
    SpectrumOutOfRange,
    TraceNotOne,
    WrongDimension,
)
from tempocorr.qmath import (
    DensityMatrix,
    SystemModel,
    bloch_to_density,
    density_to_bloch,
    effect_from_params,
    ketbra,
    random_density_matrix,
    random_instrument,
    validate_effect,
    validate_instrument,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
ZERO2 = np.zeros((2, 2), dtype=complex)


class Branch(NamedTuple):
    subnormalized: np.ndarray
    probability: float
    post_state: DensityMatrix | None


def apply_instrument(rho, inst, outcome):
    """One measurement branch: the subnormalized update ``sum_k K rho K^dag``,
    its trace, and the renormalized post-state (None when the trace is ~0)."""
    sub = np.zeros_like(rho.matrix)
    for k in inst.kraus_sets[outcome]:
        sub += k @ rho.matrix @ k.conj().T
    prob = float(sub.trace().real)
    return Branch(sub, prob, DensityMatrix(sub / prob) if prob > 1e-12 else None)


class TestValidateEffect:
    def test_identity_is_valid(self):
        e = validate_effect(np.eye(2))
        assert np.allclose(e, np.eye(2))

    def test_eigenvalue_above_one_rejected(self):
        with pytest.raises(SpectrumOutOfRange):
            validate_effect(np.diag([1.5, 0.0]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(SpectrumOutOfRange):
            validate_effect(np.diag([-0.1, 0.5]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            validate_effect(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_biased_z_effect_spectrum(self):
        # eigenvalues of (1 + 0.9 sigma_z)/2 are (1 +- 0.9)/2, frozen from the
        # 2x2 quadratic formula
        e = validate_effect(0.5 * (np.eye(2) + 0.9 * qmath.SIGMA_Z))
        vals = qmath.hermitian_eigenvalues(e)
        assert np.allclose(vals, [0.05, 0.95], atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(WrongDimension):
            validate_effect(np.zeros((2, 3)))


# messages as the library printed them when every spectrum came from LAPACK
SPECTRUM_MESSAGES = [
    (validate_effect, np.diag([1.5, 0.0]), SpectrumOutOfRange,
     "effect has eigenvalue 1.500000e+00 above 1+1e-09"),
    (validate_effect, np.diag([-0.1, 0.5]), SpectrumOutOfRange,
     "effect has eigenvalue -1.000000e-01 below -1e-09"),
    (validate_effect, np.array([[0.5, 0.3], [0.0, 0.5]]), NotHermitian,
     "effect deviates from Hermiticity by 3.000e-01 > 1e-09"),
    (validate_effect, np.full((2, 2), 0.9), SpectrumOutOfRange,
     "effect has eigenvalue 1.800000e+00 above 1+1e-09"),
    (validate_effect, np.diag([0.2, -2e-9, 0.0]), SpectrumOutOfRange,
     "effect has eigenvalue -2.000000e-09 below -1e-09"),
    (validate_effect, np.diag([1 + 2e-9, 1.0, 0.0]), SpectrumOutOfRange,
     "effect has eigenvalue 1.000000e+00 above 1+1e-09"),
    (DensityMatrix, np.diag([1.2, -0.2]), SpectrumOutOfRange,
     "state has eigenvalue -2.000e-01 below -1e-09"),
    (DensityMatrix, np.diag([0.5, 0.6]), TraceNotOne,
     "state trace 1.1 deviates from 1 by 1.000e-01 > 1e-09"),
    (DensityMatrix, np.array([[0.5, 0.3], [0.0, 0.5]]), NotHermitian,
     "state deviates from Hermiticity by 3.000e-01 > 1e-09"),
    (DensityMatrix, np.array([[1.1, 0.5], [0.5, -0.1]]), SpectrumOutOfRange,
     "state has eigenvalue -2.810e-01 below -1e-09"),
]


@st.composite
def diagonal_matrices(draw):
    """Complex diagonal matrices of dimension 1-60 whose entries sit at the
    edges the validators test: zeros of either sign, values near -PSD_TOL,
    values just above 1, tiny imaginary parts, and plain values in
    [-2e-9, 1 + 2e-9] of magnitude 1e-12 or more."""
    dim = draw(st.integers(1, 60))
    edge = st.sampled_from(
        [0.0, -0.0, 1.0, -qmath.PSD_TOL, -qmath.PSD_TOL * (1 - 1e-12), -qmath.PSD_TOL * (1 + 1e-12),
         1 + qmath.PSD_TOL, 1 + 1e-12, np.nextafter(1.0, 2.0)]
    )
    plain = st.floats(-2e-9, 1 + 2e-9).filter(lambda v: v == 0.0 or abs(v) >= 1e-12)
    real = draw(st.lists(edge | plain, min_size=dim, max_size=dim))
    imag = draw(st.lists(st.sampled_from([0.0, -0.0, 1e-12, -3e-10]), min_size=dim, max_size=dim))
    return np.diag(np.array(real) + 1j * np.array(imag))


class TestDiagonalSpectrum:
    @settings(max_examples=300, deadline=None)
    @given(diagonal_matrices())
    def test_equals_lapack_exactly(self, m):
        vals = qmath.hermitian_eigenvalues(m)
        assert vals.dtype == np.float64
        assert np.array_equal(vals, np.linalg.eigvalsh(m))

    def test_tiny_diagonal_is_read_exactly(self):
        # LAPACK scales a matrix whose largest entry is below about 1e-146 and
        # rounds on the way back; the diagonal itself is the exact spectrum, and
        # both lie far inside the 1e-9 tolerances the validators compare with
        m = np.diag([0.0, -1e-300 + 0j])
        assert qmath.hermitian_eigenvalues(m).tolist() == [-1e-300, 0.0]

    def test_only_diagonal_matrices_skip_lapack(self, monkeypatch):
        calls, lapack = [], np.linalg.eigvalsh

        def counted(m):
            calls.append(m.shape)
            return lapack(m)

        monkeypatch.setattr(qmath.np.linalg, "eigvalsh", counted)
        qmath.hermitian_eigenvalues(np.diag([0.3, 0.0, 1.0 + 0j]))
        assert calls == []
        m = np.diag([0.3, 0.0, 1.0 + 0j])
        m[0, 2] = m[2, 0] = 1e-300
        qmath.hermitian_eigenvalues(m)
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        qmath.hermitian_eigenvalues(g + g.conj().T)
        assert calls == [(3, 3), (4, 4)]

    def test_realized_mixture_needs_no_lapack(self, monkeypatch):
        # every state and effect of a realization is diagonal
        from tempocorr import correlations as co
        from tempocorr.realize import mixture_realization

        rng = np.random.default_rng(4)
        d = co.decompose_behavior(co.compose_from_conditionals(co.random_conditional_chain(rng, co.Scenario(2, 2, 2))))
        monkeypatch.setattr(qmath.np.linalg, "eigvalsh", None)
        assert mixture_realization(d).dim == 3 * len(d.terms)

    @pytest.mark.parametrize("check, m, error, message", SPECTRUM_MESSAGES)
    def test_messages_unchanged(self, check, m, error, message):
        with pytest.raises(error) as exc:
            check(m)
        assert str(exc.value) == message


class TestValidateInstrument:
    def test_projective(self):
        inst = validate_instrument([[ketbra(0, 0, 2)], [ketbra(1, 1, 2)]])
        assert inst.n_outcomes == 2
        assert np.allclose(inst.effects[0], ketbra(0, 0, 2))

    def test_flip_with_fixed_outcome(self):
        # trivial measurement: always result 0, but the state is flipped
        inst = validate_instrument([[X], [ZERO2]])
        assert np.allclose(inst.effects[0], np.eye(2))
        assert np.allclose(inst.effects[1], ZERO2)

    def test_incomplete_rejected(self):
        with pytest.raises(NotTracePreserving):
            validate_instrument([[ketbra(0, 0, 2)]])

    def test_multi_kraus_outcome(self):
        # measure-and-prepare: any input collapses to |0><0| with probability 1
        inst = validate_instrument([[ketbra(0, 0, 2), ketbra(0, 1, 2)]])
        assert np.allclose(inst.effects[0], np.eye(2))

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            validate_instrument([[np.eye(2)], [np.zeros((3, 3))]])


def reference_validate_instrument(kraus_sets):
    """Every effect by the dense product ``sum_k K^dag K`` and checked by
    :func:`validate_effect`, then trace preservation; returns the effects."""
    ops_by_outcome = [[qmath.as_complex_matrix(k) for k in ops] for ops in kraus_sets]
    dim = ops_by_outcome[0][0].shape[0]
    for r, ops in enumerate(ops_by_outcome):
        for k in ops:
            if k.shape[0] != dim:
                raise DimensionMismatch(
                    f"outcome {r} has a {k.shape[0]}x{k.shape[0]} Kraus operator, expected dim {dim}"
                )
    total = np.zeros((dim, dim), dtype=complex)
    effects = []
    for ops in ops_by_outcome:
        induced = np.zeros((dim, dim), dtype=complex)
        for k in ops:
            induced += k.conj().T @ k
        total += induced
        effects.append(validate_effect(induced))
    defect = float(np.max(np.abs(total - np.eye(dim))))
    if defect > qmath.TRACE_PRESERVING_TOL:
        raise NotTracePreserving(
            f"sum of K^dag K deviates from identity by {defect:.6e} > {qmath.TRACE_PRESERVING_TOL}"
        )
    return effects


def partial_permutation(rows, cols, dim):
    k = np.zeros((dim, dim), dtype=complex)
    k[rows, cols] = 1.0
    return k


@st.composite
def faulty_partial_permutations(draw):
    """Single-operator 0/1 partial-permutation outcomes with one fault: a
    column held by two outcomes, a column held by none, or one operator of
    another dimension."""
    dim, n_outcomes = draw(st.integers(1, 5)), draw(st.integers(2, 3))
    fault = draw(st.sampled_from(("twice", "never", "dimension")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    owner = rng.integers(n_outcomes, size=dim)
    cols = [list(np.flatnonzero(owner == r)) for r in range(n_outcomes)]
    sizes = [dim] * n_outcomes
    j = int(rng.integers(dim))
    if fault == "twice":
        cols[(owner[j] + 1 + rng.integers(n_outcomes - 1)) % n_outcomes].append(j)
    elif fault == "never":
        cols[owner[j]].remove(j)
    else:
        sizes[int(rng.integers(n_outcomes))] = draw(st.sampled_from([n for n in (dim - 1, dim + 1) if n >= 1]))
    cols = [[c for c in cs if c < n] for cs, n in zip(cols, sizes)]
    return [[partial_permutation(rng.permutation(n)[: len(c)], c, n)] for c, n in zip(cols, sizes)]


class TestPartialPermutationValidation:
    """Faulty partial-permutation instruments raise what the dense validation
    raised, class and message."""

    @settings(max_examples=150, deadline=None)
    @given(faulty_partial_permutations())
    def test_same_error_as_dense_validation(self, kraus_sets):
        with pytest.raises((NotTracePreserving, DimensionMismatch)) as expected:
            reference_validate_instrument(kraus_sets)
        with pytest.raises(type(expected.value)) as exc:
            validate_instrument(kraus_sets)
        assert str(exc.value) == str(expected.value)

    @pytest.mark.parametrize(
        "kraus_sets, error, message",
        [
            ([[np.eye(2, dtype=complex)], [ketbra(1, 1, 2)]], NotTracePreserving,
             "sum of K^dag K deviates from identity by 1.000000e+00 > 1e-09"),
            ([[ketbra(1, 0, 2)], [ZERO2]], NotTracePreserving,
             "sum of K^dag K deviates from identity by 1.000000e+00 > 1e-09"),
            ([[ketbra(0, 0, 2)], [ketbra(1, 1, 3)]], DimensionMismatch,
             "outcome 1 has a 3x3 Kraus operator, expected dim 2"),
        ],
    )
    def test_messages(self, kraus_sets, error, message):
        with pytest.raises(error) as exc:
            validate_instrument(kraus_sets)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "kraus_sets, defect",
        [
            ([[ketbra(0, 0, 2)], [ketbra(1, 0, 2)]], "1.000000e+00"),
            ([[ketbra(0, 0, 2)], [ketbra(1, 0, 2)], [ketbra(0, 0, 2)]], "2.000000e+00"),
        ],
        ids=["held twice, one never", "held three times"],
    )
    def test_column_held_more_than_once(self, kraus_sets, defect):
        # every outcome is a partial permutation, so the held-once count of
        # the column maps decides, with the message of the dense operator sum
        maps = np.array([qmath._column_map(ops[0]) for ops in kraus_sets])
        message = f"sum of K^dag K deviates from identity by {defect} > 1e-09"
        with pytest.raises(NotTracePreserving) as expected:
            reference_validate_instrument(kraus_sets)
        assert str(expected.value) == message
        for build in (
            lambda: validate_instrument(kraus_sets),
            lambda: qmath.instrument_from_column_maps(maps, [ops[0] for ops in kraus_sets]),
        ):
            with pytest.raises(NotTracePreserving) as exc:
                build()
            assert str(exc.value) == message


class TestApplyInstrument:
    def test_projective_on_plus_state(self):
        plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
        inst = validate_instrument([[ketbra(0, 0, 2)], [ketbra(1, 1, 2)]])
        out = apply_instrument(plus, inst, 0)
        assert out.probability == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(out.post_state.matrix, ketbra(0, 0, 2))

    def test_flip_branch(self):
        inst = validate_instrument([[X], [ZERO2]])
        out = apply_instrument(DensityMatrix(ketbra(0, 0, 2)), inst, 0)
        assert out.probability == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.post_state.matrix, ketbra(1, 1, 2))

    def test_zero_probability_branch_has_no_post_state(self):
        inst = validate_instrument([[X], [ZERO2]])
        out = apply_instrument(DensityMatrix(ketbra(0, 0, 2)), inst, 1)
        assert out.probability == pytest.approx(0.0, abs=1e-12)
        assert out.post_state is None

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            rho = random_density_matrix(rng, dim)
            inst = random_instrument(rng, dim, int(rng.integers(2, 4)))
            probs = [apply_instrument(rho, inst, r).probability for r in range(inst.n_outcomes)]
            assert all(-1e-12 <= p <= 1 + 1e-9 for p in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_probability_matches_induced_effect(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            rho = random_density_matrix(rng, dim)
            inst = random_instrument(rng, dim, 2, kraus_per_outcome=2)
            for r in range(2):
                via_effect = float((inst.effects[r] @ rho.matrix).trace().real)
                assert apply_instrument(rho, inst, r).probability == pytest.approx(
                    via_effect, abs=1e-12
                )

    def test_dimension_mismatch(self):
        # a state and an instrument of different dimensions never meet
        inst = validate_instrument([[X], [ZERO2]])
        with pytest.raises(DimensionMismatch, match="instrument 0 acts on dimension 2"):
            SystemModel(DensityMatrix(np.eye(3) / 3), (inst,))


class TestBloch:
    def test_north_pole(self):
        assert np.allclose(bloch_to_density([0, 0, 1]).matrix, ketbra(0, 0, 2))

    def test_center_is_maximally_mixed(self):
        assert np.allclose(bloch_to_density([0, 0, 0]).matrix, np.eye(2) / 2)

    def test_norm_above_one_rejected(self):
        with pytest.raises(NormTooLarge):
            bloch_to_density([1.0, 0.5, 0.0])

    def test_density_to_bloch_needs_qubit(self):
        with pytest.raises(WrongDimension):
            density_to_bloch(DensityMatrix(np.eye(3) / 3))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=3, max_size=3))
    def test_round_trip(self, components):
        v = np.asarray(components)
        norm = np.linalg.norm(v)
        if norm > 1:
            v = v / norm
        back = density_to_bloch(bloch_to_density(v))
        assert np.max(np.abs(back - v)) < 1e-12

    def test_purity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.normal(size=3)
            v *= rng.uniform() / np.linalg.norm(v)
            rho = bloch_to_density(v).matrix
            purity = float((rho @ rho).trace().real)
            assert purity == pytest.approx((1 + np.dot(v, v)) / 2, abs=1e-12)


class TestEffectFromParams:
    def test_projector_case(self):
        e = effect_from_params(0.5, 1.0, [0, 0, 1])
        assert np.allclose(e, ketbra(0, 0, 2))

    def test_boundary_matches_rank1_complement_form(self):
        # at a = 1/(1+b) with b = p/(2-p) the effect is ((2-p) id + p n.sigma)/2
        rng = np.random.default_rng(10)
        for p in (0.0, 0.3, 0.725, 1.0):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            b = p / (2 - p)
            e = effect_from_params(1.0 / (1.0 + b), b, axis)
            direct = 0.5 * (
                (2 - p) * np.eye(2) + p * np.einsum("i,ijk->jk", axis, qmath.PAULI)
            )
            assert np.allclose(e, direct, atol=1e-12)

    def test_zero_effect(self):
        e = effect_from_params(0.0, 0.7, [1, 0, 0])
        assert np.allclose(e, ZERO2)

    def test_complement_rank_at_boundary(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            b = rng.uniform()
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            e = effect_from_params(1.0 / (1.0 + b), b, axis)
            complement = np.eye(2) - e
            vals = qmath.hermitian_eigenvalues(complement)
            assert abs(vals[0]) < 1e-12  # rank <= 1

    def test_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            effect_from_params(0.9, 0.5, [0, 0, 1])  # a > 1/(1+b)
        with pytest.raises(ParamOutOfRange):
            effect_from_params(0.3, 1.2, [0, 0, 1])
        with pytest.raises(ParamOutOfRange):
            effect_from_params(0.3, 0.5, [0, 0, 2])
