import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpmkit as qk
from qpmkit.errors import DimensionMismatchError, ValidationError
from qpmkit.hermitian import hermitian_defect, hermitian_defects, require_hermitian_stack

from oracles import inner_double_sum


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_hermitian(rng, n):
    raw = _random_complex(rng, (n, n))
    return (raw + raw.conj().T) / 2


class TestHermitianInner:
    def test_identity_inner(self):
        eye = np.eye(2)
        assert qk.hermitian_inner(eye, eye) == pytest.approx(2.0)

    def test_self_inner_is_squared_norm(self, rng):
        c = _random_complex(rng, (3, 4))
        value = qk.hermitian_inner(c, c)
        assert value.imag == pytest.approx(0.0, abs=1e-12)
        assert value.real == pytest.approx(np.linalg.norm(c) ** 2)
        assert value.real >= 0

    def test_matches_double_sum_oracle(self, rng):
        c = _random_complex(rng, (3, 3))
        d = _random_complex(rng, (3, 3))
        assert qk.hermitian_inner(c, d) == pytest.approx(inner_double_sum(c, d), abs=1e-12)

    def test_conjugate_symmetry(self, rng):
        c = _random_complex(rng, (3, 3))
        d = _random_complex(rng, (3, 3))
        assert qk.hermitian_inner(c, d) == pytest.approx(
            np.conj(qk.hermitian_inner(d, c)), abs=1e-12
        )

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_sesquilinearity(self, seed):
        rng = np.random.default_rng(seed)
        c, d, e = (_random_complex(rng, (3, 3)) for _ in range(3))
        scale = complex(rng.normal(), rng.normal())
        left = qk.hermitian_inner(c, scale * d + e)
        right = scale * qk.hermitian_inner(c, d) + qk.hermitian_inner(c, e)
        assert abs(left - right) <= 1e-12 * max(1.0, abs(left))
        conj_left = qk.hermitian_inner(scale * c, d)
        assert abs(conj_left - np.conj(scale) * qk.hermitian_inner(c, d)) <= 1e-12 * max(
            1.0, abs(conj_left)
        )

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            qk.hermitian_inner(np.eye(2), np.eye(3))


class TestSingleMatrixChecks:
    """The one-matrix checks are the stack routines called on a stack of one."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from([0.0, 1e-13, 1e-6]))
    def test_match_a_stack_of_one(self, seed, n, skew):
        rng = np.random.default_rng(seed)
        matrix = _random_hermitian(rng, n) + skew * _random_complex(rng, (n, n))
        defect = float(hermitian_defects(matrix[None])[0])
        assert hermitian_defect(matrix) == defect
        for tol in (1e-12, 1e-8, defect):
            assert qk.is_hermitian(matrix, tol) is (defect <= tol)
            try:
                want = require_hermitian_stack(matrix[None], tol)[0]
            except ValidationError as exc:
                assert str(exc).startswith("matrix is not self-adjoint")
                with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
                    qk.require_hermitian(matrix, tol)
            else:
                assert qk.require_hermitian(matrix, tol).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "matrix, error, message",
        [
            ([[1.0, np.nan], [np.nan, 1.0]], ValidationError, "matrix contains non-finite entries"),
            ([[1.0, np.inf], [0.0, 1.0]], ValidationError, "matrix contains non-finite entries"),
            (np.zeros((2, 3)), DimensionMismatchError, "expected a square matrix, got shape (2, 3)"),
            (np.zeros(3), DimensionMismatchError, "expected a 2-D matrix, got shape (3,)"),
        ],
    )
    def test_invalid_inputs_raise_before_any_check(self, matrix, error, message):
        for check in (hermitian_defect, qk.is_hermitian, qk.require_hermitian):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                check(matrix)

    def test_an_empty_matrix_is_self_adjoint(self):
        empty = np.zeros((0, 0), dtype=complex)
        assert hermitian_defect(empty) == 0.0
        assert hermitian_defects(empty[None]).tolist() == [0.0]
        assert qk.is_hermitian(empty) is True
        for got in (qk.require_hermitian(empty), require_hermitian_stack(empty[None])[0]):
            assert got.shape == (0, 0) and got.dtype == complex


class TestSpectralDecompose:
    def test_already_diagonal(self):
        dec = qk.spectral_decompose(np.diag([3.0, -1.0, 0.0]))
        assert dec.eigenvalues == pytest.approx([3.0, 0.0, -1.0])
        expected_cols = {0: 0, 1: 2, 2: 1}  # eigenvalue rank -> coordinate axis
        for rank, axis in expected_cols.items():
            col = np.abs(dec.eigenvectors[:, rank])
            assert col[axis] == pytest.approx(1.0)
            assert np.sum(col) == pytest.approx(1.0)

    def test_sign_flip(self):
        dec = qk.spectral_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert dec.eigenvalues == pytest.approx([1.0, -1.0])

    def test_trace_identity(self, rng):
        q = _random_hermitian(rng, 4)
        dec = qk.spectral_decompose(q)
        assert dec.eigenvalues.sum() == pytest.approx(np.trace(q).real, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 5, 16, 32])
    def test_reconstruction_and_orthonormality(self, rng, n):
        q = _random_hermitian(rng, n)
        dec = qk.spectral_decompose(q)
        assert np.all(np.isreal(dec.eigenvalues))
        assert np.linalg.norm(dec.reconstruct() - q) <= 1e-10
        v = dec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10

    def test_diagonalizes_via_unitary(self, rng):
        q = _random_hermitian(rng, 3)
        dec = qk.spectral_decompose(q)
        u = dec.eigenvectors.conj().T
        transformed = u @ q @ u.conj().T
        assert np.allclose(transformed, np.diag(dec.eigenvalues), atol=1e-10)

    def test_degenerate_projectors_are_stable(self):
        # only basis-independent quantities are asserted on a degenerate input
        q = np.eye(3, dtype=complex)
        dec = qk.spectral_decompose(q)
        total = sum(dec.projector(i) for i in range(3))
        assert np.allclose(total, np.eye(3), atol=1e-12)
        assert dec.eigenvalues == pytest.approx([1.0, 1.0, 1.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            qk.spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_ordering_is_deterministic(self, rng):
        q = _random_hermitian(rng, 5)
        first = qk.spectral_decompose(q)
        second = qk.spectral_decompose(q.copy())
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)


class TestNonnegativity:
    def test_outer_product_is_nonnegative(self, rng):
        u = _random_complex(rng, 4)
        assert qk.is_nonnegative(np.outer(u, u.conj()))

    def test_signed_diagonal_is_not(self):
        q = np.diag([-1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3])
        assert not qk.is_nonnegative(q)

    def test_gram_matrices_are_nonnegative(self, rng):
        b = _random_complex(rng, (4, 4))
        assert qk.is_nonnegative(b.conj().T @ b)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_agrees_with_quadratic_forms(self, seed):
        rng = np.random.default_rng(seed)
        q = _random_hermitian(rng, 5)
        verdict = qk.is_nonnegative(q, tol=1e-9)
        probes = rng.normal(size=(1000, 5)) + 1j * rng.normal(size=(1000, 5))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        forms = np.einsum("ki,ij,kj->k", probes.conj(), q, probes).real
        if verdict:
            assert forms.min() >= -1e-9
        else:
            assert forms.min() < -1e-9


class TestUnitarity:
    def test_identity(self):
        assert qk.is_unitary(np.eye(4))

    @pytest.mark.parametrize("theta", [0.0, 0.3, 2.0, -1.1])
    def test_phase_diagonal(self, theta):
        assert qk.is_unitary(np.diag([1.0, np.exp(1j * theta)]))

    def test_scaled_identity_fails(self):
        assert not qk.is_unitary(2 * np.eye(3))

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatchError):
            qk.is_unitary(np.ones((2, 3)))


class TestPureStateDensity:
    def test_basis_vector(self):
        density = qk.pure_state_density(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(density.matrix, np.diag([1.0, 0.0, 0.0]))
        assert density.kind is qk.DensityKind.QUANTUM

    def test_equal_superposition(self):
        density = qk.pure_state_density(np.array([1.0, 1.0]) / np.sqrt(2))
        assert np.allclose(density.matrix, np.full((2, 2), 0.5))

    def test_rank_one_spectrum(self, rng):
        u = _random_complex(rng, 5)
        u /= np.linalg.norm(u)
        dec = qk.spectral_decompose(qk.pure_state_density(u).matrix)
        assert dec.eigenvalues[0] == pytest.approx(1.0)
        assert np.max(np.abs(dec.eigenvalues[1:])) <= 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(ValidationError):
            qk.pure_state_density(np.array([1.0, 1.0]))


class TestDensity:
    def test_quantum_rejects_signed_matrix(self):
        with pytest.raises(ValidationError):
            qk.Density.quantum(np.diag([1.5, -0.5]))

    def test_generalized_accepts_signed_matrix(self):
        density = qk.Density.generalized(np.diag([1.5, -0.5]))
        assert density.kind is qk.DensityKind.GENERALIZED
        assert density.trace == pytest.approx(1.0)

    def test_trace_enforced(self):
        with pytest.raises(ValidationError):
            qk.Density.generalized(np.diag([0.6, 0.6]))

    def test_pure_states_pass_quantum_invariants(self, rng):
        for _ in range(20):
            u = _random_complex(rng, 3)
            u /= np.linalg.norm(u)
            density = qk.pure_state_density(u)
            assert density.trace == pytest.approx(1.0, abs=1e-9)
            assert qk.is_nonnegative(density.matrix)
