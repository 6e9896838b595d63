import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabat.errors import DimensionMismatch, NonFinite, NotHermitian, NotPSD
from adiabat.linalg import (
    _PADE_THETA,
    _TAYLOR_THETA,
    dag,
    expm_action,
    frobenius,
    hermitian_eigendecompose,
    is_hermitian,
    is_psd,
    is_unitary,
    matrix_exponential,
    psd_sqrt,
    sandwich_superop,
    taylor_degree,
    unvec,
    vec,
)

from conftest import expm_series, random_hermitian


class TestEigendecompose:
    def test_diagonal_matrix(self):
        w, v = hermitian_eigendecompose(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        # permuted standard basis vectors
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        w, v = hermitian_eigendecompose(x)
        assert np.allclose(w, [-1.0, 1.0])
        assert np.allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)))
        assert frobenius(x @ v - v * w) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("dim", [2, 4, 9, 16])
    def test_reconstruction_and_orthonormality(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, dim, scale=3.0)
        w, v = hermitian_eigendecompose(a)
        assert frobenius(a - (v * w) @ dag(v)) <= 1e-10
        assert frobenius(dag(v) @ v - np.eye(dim)) <= 1e-10
        assert np.all(np.diff(w) >= 0)
        assert np.all(np.abs(w.imag) == 0 if np.iscomplexobj(w) else True)

    def test_degenerate_spectrum(self, rng):
        # rank-2 zero eigenspace, as in the gate model
        h = np.zeros((4, 4), dtype=complex)
        h[2, 3] = h[3, 2] = 1.0
        w, v = hermitian_eigendecompose(h)
        assert np.allclose(w, [-1, 0, 0, 1])
        assert frobenius(dag(v) @ v - np.eye(4)) < 1e-12

    def test_not_hermitian_raises(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(NotHermitian):
            hermitian_eigendecompose(a, tol=1e-10)


class TestMatrixExponential:
    def test_zero(self):
        assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_rotation_vs_series(self):
        theta = 0.3
        a = np.array([[0.0, -theta], [theta, 0.0]], dtype=complex)
        expected = np.array([[np.cos(theta), -np.sin(theta)],
                             [np.sin(theta), np.cos(theta)]])
        assert frobenius(matrix_exponential(a) - expected) <= 1e-13
        assert frobenius(matrix_exponential(a) - expm_series(a)) <= 1e-13

    def test_nilpotent(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert np.allclose(matrix_exponential(a), [[1, 1], [0, 1]])

    @pytest.mark.parametrize("seed", range(4))
    def test_small_norm_series_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a *= 0.4 / np.linalg.norm(a, 1)
        e = matrix_exponential(a)
        assert frobenius(e - expm_series(a)) <= 1e-13 * frobenius(e)

    @pytest.mark.parametrize("scale", [1.0, 5.0, 10.0])
    def test_inverse_identity(self, rng, scale):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a *= scale / np.linalg.norm(a, 1)
        prod = matrix_exponential(a) @ matrix_exponential(-a)
        assert frobenius(prod - np.eye(6)) <= 1e-10

    def test_scaling_consistency(self, rng):
        # exp(A) must equal exp(A/2) squared across the squaring threshold
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a *= 9.0 / np.linalg.norm(a, 1)
        half = matrix_exponential(a / 2)
        assert frobenius(matrix_exponential(a) - half @ half) <= 1e-11 * frobenius(half @ half)

    def test_non_finite_raises(self):
        a = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(NonFinite):
            matrix_exponential(a)
        with pytest.raises(NonFinite):
            matrix_exponential(np.stack([np.eye(2), a]))

    def test_non_square_stack_raises(self):
        with pytest.raises(DimensionMismatch):
            matrix_exponential(np.zeros((3, 2, 4)))


_THETAS = [theta for _, theta in _PADE_THETA]
# 1-norms on both sides of every order threshold, and beyond the last one,
# where the matrix is scaled and squared
_NORMS = st.one_of(
    st.tuples(st.sampled_from(_THETAS), st.floats(0.8, 1.25)).map(lambda t: t[0] * t[1]),
    st.floats(_THETAS[-1], 300.0),
)


@st.composite
def matrix_stacks(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 9, 16]))
    norms = np.array(draw(st.lists(_NORMS, min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (rng.standard_normal((len(norms), n, n))
         + 1j * rng.standard_normal((len(norms), n, n)))
    return a * (norms / np.abs(a).sum(axis=1).max(axis=1))[:, None, None]


class TestBatchedExponential:
    @settings(max_examples=60, deadline=None)
    @given(matrix_stacks())
    def test_stack_equals_each_matrix(self, a):
        # the batched call is bit for bit the 2-D call on every matrix,
        # whatever order and squarings its neighbours need
        expected = np.stack([matrix_exponential(m) for m in a])
        assert np.array_equal(matrix_exponential(a), expected)
        # any leading shape is a stack
        assert np.array_equal(matrix_exponential(a[None, ::-1]), expected[None, ::-1])

    def test_matches_series_across_orders(self, rng):
        a = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        a *= (np.array([0.01, 0.2, 0.9, 2.0, 4.0])
              / np.abs(a).sum(axis=1).max(axis=1))[:, None, None]
        e = matrix_exponential(a)
        for m, em in zip(a, e):
            assert frobenius(em - expm_series(m, terms=60)) <= 1e-13 * frobenius(em)


class TestExpmAction:
    @pytest.mark.parametrize("norm", list(_TAYLOR_THETA[2:]) + [3.0, 15.0])
    def test_matches_exponential(self, rng, norm):
        # every degree from 3 to 18 at its threshold, then scaled: 15 takes
        # 14 Taylor steps of degree 18
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a *= norm / np.abs(a).sum(axis=0).max()
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        expected = matrix_exponential(a) @ v
        assert frobenius(expm_action(a, v) - expected) <= 1e-13 * frobenius(expected)

    def test_degree_and_scaling(self):
        # the rotated generators' steps (h ||M||_1 0.02 to 0.03) need one
        # Taylor step of degree 7 or 8
        assert taylor_degree(0.02) == (7, 1) and taylor_degree(0.03) == (8, 1)
        assert taylor_degree(15.0) == (18, 14)
        assert taylor_degree(0.0) == (1, 1)

    def test_stack_of_columns(self, rng):
        a = rng.standard_normal((3, 16, 16)) + 1j * rng.standard_normal((3, 16, 16))
        a *= 0.03 / np.abs(a).sum(axis=-2).max()
        v = rng.standard_normal((3, 16, 1)) + 1j * rng.standard_normal((3, 16, 1))
        expected = np.stack([matrix_exponential(m) @ c for m, c in zip(a, v)])
        assert frobenius(expm_action(a, v) - expected) <= 1e-13 * frobenius(expected)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = g @ dag(g)
        s = psd_sqrt(a)
        assert frobenius(s @ s - a) <= 1e-10
        assert is_psd(s, 1e-10)

    def test_clamps_small_negatives(self):
        a = np.diag([1.0, -5e-11]).astype(complex)
        s = psd_sqrt(a, tol=1e-10)
        assert np.allclose(s, np.diag([1.0, 0.0]))

    def test_not_psd_raises(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -1.0]).astype(complex))


class TestVectorization:
    def test_vec_unvec_roundtrip(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(unvec(vec(a)), a)

    def test_vec_is_column_stacking(self):
        a = np.array([[1, 3], [2, 4]])
        assert np.array_equal(vec(a), [1, 2, 3, 4])

    def test_identity_sandwich(self):
        eye = np.eye(2, dtype=complex)
        assert np.allclose(sandwich_superop(eye, eye), np.eye(4))

    def test_pauli_z_left_action(self):
        # oracle: apply to the four matrix units and read off the action
        z = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        s = sandwich_superop(z, eye)
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                expected[:, j * 2 + i] = vec(z @ unit @ eye)
        assert np.allclose(s, expected)
        # left multiplication by Z negates the second row: components
        # (rho00, rho10, rho01, rho11) pick up signs (+, -, +, -)
        assert np.allclose(np.diag(s), [1, -1, 1, -1])

    @pytest.mark.parametrize("seed", range(3))
    def test_random_sandwich_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = unvec(sandwich_superop(x, y) @ vec(rho))
        assert frobenius(out - x @ rho @ y) <= 1e-12 * max(1.0, frobenius(x @ rho @ y))

    def test_left_right_composition(self, rng):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        eye = np.eye(3, dtype=complex)
        lhs = sandwich_superop(x, eye) @ sandwich_superop(eye, y)
        assert np.allclose(lhs, sandwich_superop(x, y))
        # left and right actions commute
        rhs = sandwich_superop(eye, y) @ sandwich_superop(x, eye)
        assert np.allclose(lhs, rhs)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sandwich_superop(np.eye(2), np.eye(3))

    def test_stacked_sandwich_is_kron(self, rng):
        x = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = sandwich_superop(x, y)
        assert out.shape == (5, 9, 9)
        for xk, ok in zip(x, out):
            assert np.array_equal(ok, np.kron(y.T, xk))

    def test_stacked_unvec_and_dag(self, rng):
        a = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        assert np.array_equal(unvec(np.stack([vec(m) for m in a])), a)
        assert np.array_equal(dag(a), np.stack([m.conj().T for m in a]))


class TestPredicates:
    def test_psd_implies_hermitian(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = g @ dag(g)
        assert is_psd(a) and is_hermitian(a)
        assert not is_psd(g)

    def test_unitary(self, rng):
        h = random_hermitian(rng, 4)
        u = matrix_exponential(1j * h)
        assert is_unitary(u)
        assert not is_unitary(2 * u)
