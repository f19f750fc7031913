import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qpmkit as qk
from qpmkit.chain import (
    ChainKind,
    OperatorSubspace,
    QuantumChain,
    hermitian_basis,
    kraus_coords,
)
from qpmkit.errors import (
    BasisInsufficiencyError,
    DimensionMismatchError,
    NonFiniteError,
    NumericError,
    QpmkitError,
    SubspaceError,
    ValidationError,
)
from qpmkit.hermitian import hermitian_defect, require_hermitian_stack

from helpers import (
    action_coords,
    leaky_hmm,
    random_hmm,
    random_kraus_family,
    random_local_qrw,
    random_quantum_density,
    random_unitary,
    single_letter_chain,
)
from oracles import (
    dense_gram,
    hermitian_basis_reference,
    hmm_path_prob,
    qpm_fit_reference,
    qrw_collapse_prob,
    unit_diagonal_reference,
)

AB = qk.Alphabet(("a", "b"))
# the (states, letters) shapes of the benchmark's sweep ladder
SWEEP_SHAPES = ((3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3))


class TestHermitianBasis:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orthonormal_and_complete(self, n):
        basis = hermitian_basis(n)
        assert len(basis) == n * n
        for i, left in enumerate(basis):
            for j, right in enumerate(basis):
                inner = qk.hermitian_inner(left, right)
                assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_matches_the_element_by_element_construction(self):
        for n in range(7):
            basis = hermitian_basis(n)
            reference = hermitian_basis_reference(n)
            assert len(basis) == len(reference)
            assert [b.tobytes() for b in basis] == [r.tobytes() for r in reference]
            assert all(b.dtype == complex for b in basis)

    def test_symmetrising_leaves_the_bits_unchanged(self):
        # why OperatorSubspace may take this exact stack without the Hermitian check
        for n in range(1, 17):
            stack = np.stack(hermitian_basis(n))
            assert require_hermitian_stack(stack).tobytes() == stack.tobytes()
            assert OperatorSubspace(list(stack)).basis.tobytes() == stack.tobytes()


class TestOperatorSubspace:
    def test_expand_reconstruct_round_trip(self, rng):
        sub = OperatorSubspace.full(3)
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        mat = (raw + raw.conj().T) / 2
        coords = sub.expand(mat)
        assert np.allclose(sub.reconstruct(coords), mat, atol=1e-12)

    def test_membership_enforced(self):
        sub = OperatorSubspace.diagonal(2)
        with pytest.raises(SubspaceError):
            sub.expand(np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_diagonal_subspace_is_built_once_and_read_only(self, n):
        sub = OperatorSubspace.diagonal(n)
        assert OperatorSubspace.diagonal(n) is sub
        assert sub.is_unit_diagonal and sub.dim == n
        for array in (sub.basis, sub.gram, sub.traces):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_full_subspace_is_built_once_and_read_only(self, n):
        sub = OperatorSubspace.full(n)
        assert OperatorSubspace.full(n) is sub
        assert sub.is_canonical and sub.dim == n * n
        for array in (sub.basis, sub.gram, sub.traces):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_rejects_dependent_basis(self):
        with pytest.raises(ValidationError):
            OperatorSubspace([np.eye(2), 2 * np.eye(2)])

    def test_stacked_check_gives_the_per_element_bits(self, rng):
        basis = [
            b + 1e-11 * (rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape))
            for b in hermitian_basis(3)
        ]
        expected = [qk.require_hermitian(b) for b in basis]
        sub = OperatorSubspace(basis)
        assert sub.basis.tobytes() == np.stack(expected).tobytes()
        assert [b.tobytes() for b in sub.basis] == [b.tobytes() for b in expected]

    def test_first_offending_element_is_reported(self):
        basis = hermitian_basis(2)
        skewed = [b.copy() for b in basis]
        skewed[2][0, 1] += 1e-6
        skewed[3][1, 0] += 1.0
        defect = hermitian_defect(skewed[2])
        message = f"matrix is not self-adjoint (defect {defect:.3e} > 1.000e-09)"
        with pytest.raises(ValidationError, match=rf"^{re.escape(message)}$"):
            OperatorSubspace(skewed)
        nan = basis[1].copy()
        nan[0, 0] = np.nan
        cases = [
            ([basis[0], nan, np.ones((2, 3))], ValidationError, "matrix contains non-finite entries"),
            (
                [basis[0], np.ones((2, 3)), nan],
                DimensionMismatchError,
                "expected a square matrix, got shape (2, 3)",
            ),
            ([basis[0], np.ones(3)], DimensionMismatchError, "expected a 2-D matrix, got shape (3,)"),
            ([np.eye(2), np.eye(3)], DimensionMismatchError, "basis elements differ in shape"),
            ([], ValidationError, "subspace basis must not be empty"),
        ]
        for elements, error, message in cases:
            with pytest.raises(error, match=rf"^{re.escape(message)}$"):
                OperatorSubspace(elements)

    def test_canonical_gram_equals_the_dense_product(self):
        for n in range(1, 17):
            sub = OperatorSubspace.full(n)
            assert sub.is_canonical
            assert sub.gram.tobytes() == dense_gram(hermitian_basis(n)).tobytes()

    def test_traces_and_unit_diagonal_match_the_element_loop(self, rng):
        def units(n, picks, scale=1.0, off=0.0, extra=0.0):
            out = []
            for i in picks:
                mat = np.zeros((n, n), dtype=complex)
                mat[i, i] = scale
                mat[i, (i + 1) % n] = mat[(i + 1) % n, i] = off
                mat[(i + 1) % n, (i + 1) % n] += extra
                out.append(mat)
            return out

        def dense(n, dim):
            raw = rng.normal(size=(dim, n, n)) + 1j * rng.normal(size=(dim, n, n))
            raw *= 10.0 ** rng.integers(-6, 6, size=(dim, n, n))
            return list((raw + raw.conj().transpose(0, 2, 1)) / 2.0)

        bases = [hermitian_basis(n) for n in (1, 2, 5, 12)]
        bases += [dense(n, dim) for n, dim in ((3, 9), (9, 5), (20, 3), (130, 2))]
        bases += [
            units(3, [0, 1, 2]),
            units(4, [2, 0]),
            units(3, [1], off=1e-15),
            units(3, [1], off=1e-13),
            units(3, [0, 2], scale=1.0 + 1e-13),
            units(3, [0, 2], scale=1.0 + 1e-11),
            units(3, [0], scale=-1.0),
            units(3, [0, 1], extra=1e-15),
            units(3, [0, 2], extra=1e-13),
        ]
        for basis in bases:
            sub = OperatorSubspace(basis)
            traces = [float(np.trace(m).real) for m in sub.basis]
            assert sub.traces.tobytes() == np.array(traces).tobytes()
            assert sub.is_unit_diagonal is unit_diagonal_reference(sub.basis)
        assert [OperatorSubspace(b).is_unit_diagonal for b in bases[-9:]] == [
            True, True, True, False, True, False, False, True, False
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_gram_dot_has_the_bits_of_the_dense_product(self, rng, n):
        dense = OperatorSubspace([np.eye(n), *hermitian_basis(n)[1:]])
        for sub in (OperatorSubspace.full(n), OperatorSubspace.diagonal(n), dense):
            coords = rng.normal(size=(4, sub.dim)) * (rng.random((4, sub.dim)) < 0.7)
            want = coords @ sub.gram
            got = sub.gram_dot(coords)
            assert np.array_equal(got == 0, want == 0)
            assert got[want != 0].tobytes() == want[want != 0].tobytes()
            for row in coords:
                assert sub.norm(row) == float(np.sqrt(max(row @ sub.gram @ row, 0.0)))

    def test_gram_norm_matches_direct(self, rng):
        sub = OperatorSubspace.diagonal(3)
        coords = rng.normal(size=3)
        direct = np.linalg.norm(sub.reconstruct(coords))
        assert sub.norm(coords) == pytest.approx(direct)


# Right-hand-side entries: both signed zeros, then finite doubles.
RHS_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))


class TestGramSolve:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        n=st.integers(1, 4),
        complex_rhs=st.booleans(),
        columns=st.sampled_from([None, 1, 3]),
    )
    def test_diagonal_gram_matches_the_cholesky_solve(self, data, n, complex_rhs, columns):
        """Scaled canonical elements have a diagonal Gram; the numpy path gives LAPACK's values.

        Every nonzero entry matches bit for bit.  For a real right-hand
        side an exact zero keeps its sign, which LAPACK's triangular
        updates can flip.
        """
        canonical = hermitian_basis(n)
        picks = data.draw(st.lists(st.integers(0, n * n - 1), min_size=1, unique=True))
        scales = data.draw(
            st.lists(st.floats(0.01, 100.0), min_size=len(picks), max_size=len(picks))
        )
        sub = OperatorSubspace([c * canonical[i] for c, i in zip(scales, sorted(picks))])
        shape = (sub.dim,) if columns is None else (sub.dim, columns)
        size = int(np.prod(shape)) * (2 if complex_rhs else 1)
        flat = np.array(data.draw(st.lists(RHS_ENTRIES, min_size=size, max_size=size)))
        rhs = flat.view(complex).reshape(shape) if complex_rhs else flat.reshape(shape)

        ours = sub._gram_solve(rhs)
        reference = scipy.linalg.cho_solve(scipy.linalg.cho_factor(sub.gram), rhs)
        assert sub._inv_sqrt_diag is not None
        assert ours.dtype == reference.dtype and ours.shape == reference.shape
        ours_bits, reference_bits = (np.ascontiguousarray(x).view(float) for x in (ours, reference))
        nonzero = reference_bits != 0
        assert np.array_equal(ours_bits == 0, ~nonzero)
        assert ours_bits[nonzero].tobytes() == reference_bits[nonzero].tobytes()
        if not complex_rhs:
            assert np.array_equal(np.signbit(ours), np.signbit(rhs))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        complex_rhs=st.booleans(),
        columns=st.sampled_from([None, 1, 3]),
    )
    def test_dense_gram_matches_the_scipy_cholesky_solve(self, seed, n, complex_rhs, columns):
        """A non-diagonal Gram takes numpy's Cholesky factor and two solves."""
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, n * n + 1))
        mix = rng.normal(size=(dim, n * n)) + 3.0 * np.eye(dim, n * n)
        basis = np.einsum("ij,jkl->ikl", mix, hermitian_basis(n))
        sub = OperatorSubspace(basis)
        assert sub._inv_sqrt_diag is None
        shape = (sub.dim,) if columns is None else (sub.dim, columns)
        rhs = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_rhs else 0.0)
        ours = sub._gram_solve(rhs)
        reference = scipy.linalg.cho_solve(scipy.linalg.cho_factor(sub.gram), rhs)
        assert ours.dtype == reference.dtype and ours.shape == reference.shape
        scale = np.linalg.cond(sub.gram) * np.abs(reference).max()
        assert np.abs(ours - reference).max() <= 1e-13 * scale

    def test_dense_gram_takes_the_cholesky_path(self):
        basis = [np.eye(2), np.array([[1.0, 1.0], [1.0, 0.0]])]
        sub = OperatorSubspace(basis)
        assert sub._inv_sqrt_diag is None
        mat = 0.3 * basis[0] - 1.7 * basis[1]
        assert np.allclose(sub.expand(mat), [0.3, -1.7], atol=1e-14)

    def test_overflowing_right_hand_side_is_refused_on_both_paths(self):
        big = 1.7e308
        dense = OperatorSubspace([np.eye(2), np.array([[1.0, 1.0], [1.0, 0.0]])])
        for sub in (OperatorSubspace.full(2), dense):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
                    sub.expand(np.array([[big, big], [big, 0.0]]))


def subspace_of_kind(rng, kind: str, n: int) -> OperatorSubspace:
    """The canonical full basis, the diagonal units, or a full basis with a dense Gram."""
    if kind == "full":
        return OperatorSubspace.full(n)
    if kind == "diagonal":
        return OperatorSubspace.diagonal(n)
    mix = rng.normal(size=(n * n, n * n)) + 3.0 * np.eye(n * n)
    return OperatorSubspace(np.einsum("ij,jkl->ikl", mix, hermitian_basis(n)))


# A 2x2 matrix with finite entries whose coordinates overflow, and matrices
# with an inf or a nan on the diagonal, in the upper and in the lower triangle.
NON_FINITE = [
    [[1.7e308, 1.7e308], [1.7e308, 0.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [np.inf, 1.0]],
    [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, np.nan], [0.0, 1.0]],
    [[1.0, 0.0], [np.nan, 1.0]],
]


def refused():
    return pytest.raises(ValueError, match="array must not contain infs or NaNs")


class TestOneExpansion:
    """``expand`` is ``expand_all`` of one matrix; basis images give the Kraus coordinates."""

    KINDS = st.sampled_from(["full", "diagonal", "dense"])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), kind=KINDS)
    def test_expand_is_expand_all_of_one_matrix(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        sub = subspace_of_kind(rng, kind, n)
        if kind == "diagonal":
            matrix = np.diag(rng.normal(size=n)).astype(complex)
        else:
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            matrix = (raw + raw.conj().T) / 2.0
        assert sub.expand(matrix).tobytes() == sub.expand_all(matrix[None])[0].tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), kind=KINDS)
    def test_from_action_is_from_kraus(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        sub = subspace_of_kind(rng, kind, n)
        kraus = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if kind == "diagonal":
            # a permuted diagonal maps diagonal matrices to diagonal matrices
            kraus = np.diag(np.diag(kraus))[rng.permutation(n)]
        by_action = action_coords(sub, lambda q: kraus @ q @ kraus.conj().T)
        assert by_action.tobytes() == kraus_coords(sub, kraus[None])[0].tobytes()

    @pytest.mark.parametrize("dense", [False, True], ids=["canonical", "gram-solve"])
    @pytest.mark.parametrize(
        "matrix",
        NON_FINITE,
        ids=["overflow", "inf-diagonal", "inf-lower", "nan-diagonal", "nan-upper", "nan-lower"],
    )
    def test_non_finite_input_is_refused(self, dense, matrix):
        basis = [np.eye(2), np.array([[1.0, 1.0], [1.0, 0.0]])]
        sub = OperatorSubspace(basis) if dense else OperatorSubspace.full(2)
        bad = np.array(matrix, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            with refused():
                sub.expand(bad)
            with refused():
                sub.expand_all(np.stack([np.eye(2), bad]))
            with refused():
                action_coords(sub, lambda q: bad)

    @pytest.mark.parametrize("dense", [False, True], ids=["canonical", "gram-solve"])
    def test_overflowing_kraus_images_are_refused(self, dense):
        rng = np.random.default_rng(4)
        sub = subspace_of_kind(rng, "dense", 2) if dense else OperatorSubspace.full(2)
        with np.errstate(over="ignore", invalid="ignore"):
            with refused():
                kraus_coords(sub, np.diag([1e200, 1.0])[None])


NON_FINITE_IDS = ["overflow", "inf-diagonal", "inf-lower", "nan-diagonal", "nan-upper", "nan-lower"]


class TestNonFiniteRefusal:
    """The refusals above, with warnings as errors and no ``np.errstate``: a
    ``RuntimeWarning`` on the way would be raised in place of the refusal."""

    def test_the_refusal_is_a_library_error_and_a_value_error(self):
        assert issubclass(NonFiniteError, NumericError) and issubclass(NonFiniteError, ValueError)
        assert issubclass(NumericError, QpmkitError)

    @pytest.mark.parametrize("dense", [False, True], ids=["canonical", "gram-solve"])
    @pytest.mark.parametrize("matrix", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_input(self, dense, matrix):
        basis = [np.eye(2), np.array([[1.0, 1.0], [1.0, 0.0]])]
        sub = OperatorSubspace(basis) if dense else OperatorSubspace.full(2)
        bad = np.array(matrix, dtype=complex)
        message = "array must not contain infs or NaNs"
        with pytest.raises(NonFiniteError, match=message):
            sub.expand(bad)
        with pytest.raises(NonFiniteError, match=message):
            sub.expand_all(np.stack([np.eye(2), bad]))
        with pytest.raises(NonFiniteError, match=message):
            action_coords(sub, lambda q: bad)

    @pytest.mark.parametrize("dense", [False, True], ids=["canonical", "gram-solve"])
    def test_overflowing_kraus_images(self, dense):
        rng = np.random.default_rng(4)
        sub = subspace_of_kind(rng, "dense", 2) if dense else OperatorSubspace.full(2)
        with pytest.raises(NonFiniteError, match="array must not contain infs or NaNs"):
            kraus_coords(sub, np.diag([1e200, 1.0])[None])

    def test_overflowing_walk_images(self):
        # the lowering of a walk builds its Kraus images without checking the walk
        walk = random_local_qrw(np.random.default_rng(1), 2, 1)
        big = qk.QrwParam(walk.nodes, walk.edges, walk.coins, walk.unitary * 1e200, walk.wave)
        with pytest.raises(NonFiniteError, match="array must not contain infs or NaNs"):
            qk.qrw_process(big).linear


class TestChainEval:
    def test_empty_word_is_one(self, hmm2):
        assert qk.chain_eval(qk.hmm_to_qmc(hmm2), "") == pytest.approx(1.0)

    def test_hmm_chain_matches_path_enumeration(self, hmm2):
        chain = qk.hmm_to_qmc(hmm2)
        for word in qk.words_up_to(AB, 5):
            assert qk.chain_eval(chain, word) == pytest.approx(
                hmm_path_prob(hmm2, word), abs=1e-10
            )

    def test_qrw_chain_matches_wave_oracle(self, qrw_hadamard):
        chain = qk.qrw_to_qmc(qrw_hadamard)
        for word in qk.words_up_to(AB, 4):
            assert qk.chain_eval(chain, word) == pytest.approx(
                qrw_collapse_prob(qrw_hadamard, word), abs=1e-10
            )

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_total_mass_per_length(self, hmm2, qrw_hadamard, depth):
        for chain in (qk.hmm_to_qmc(hmm2), qk.qrw_to_qmc(qrw_hadamard)):
            total = sum(
                qk.chain_eval(chain, w) for w in qk.words_of_length(chain.alphabet, depth)
            )
            assert total == pytest.approx(1.0, abs=1e-9)


class TestUnitaryToQmc:
    def test_identity_evolution(self, rng):
        density = random_quantum_density(rng, 2)
        chain = qk.unitary_to_qmc(np.eye(2), density)
        for t in range(4):
            assert qk.chain_eval(chain, ("a",) * t) == pytest.approx(1.0, abs=1e-12)

    def test_trace_preserved_under_conjugation(self, rng):
        u = random_unitary(rng, 3)
        chain = qk.unitary_to_qmc(u, random_quantum_density(rng, 3))
        report = qk.validate_chain(chain)
        assert report.ok

    def test_bit_flip(self):
        density = qk.Density.quantum(np.diag([1.0, 0.0]).astype(complex))
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        chain = qk.unitary_to_qmc(sigma_x, density)
        flipped = chain.subspace.reconstruct(chain.initial_coords @ chain.operators[0])
        assert np.allclose(flipped, np.diag([0.0, 1.0]))

    def test_rejects_non_unitary(self, rng):
        with pytest.raises(ValidationError):
            qk.unitary_to_qmc(2 * np.eye(2), random_quantum_density(rng, 2))


class TestPovmToQmc:
    def test_projective_measurement_is_deterministic(self):
        projector = np.diag([1.0, 0.0]).astype(complex)
        chain = qk.povm_to_qmc(
            {"p": projector, "q": np.eye(2) - projector},
            qk.Density.quantum(projector),
        )
        assert qk.chain_eval(chain, "p") == pytest.approx(1.0)
        assert qk.chain_eval(chain, "q") == pytest.approx(0.0, abs=1e-12)

    def test_scalar_family_is_uniform_forever(self, rng):
        scale = np.eye(2) / np.sqrt(2)
        chain = qk.povm_to_qmc({"a": scale, "b": scale}, random_quantum_density(rng, 2))
        for word in qk.words_up_to(AB, 3):
            assert qk.chain_eval(chain, word) == pytest.approx(0.5 ** len(word), abs=1e-12)

    def test_random_family_probabilities_sum_to_one(self, rng):
        family = random_kraus_family(rng, 2, 3)
        for _ in range(5):
            density = random_quantum_density(rng, 2).matrix
            total = sum(
                float(np.trace(m @ density @ m.conj().T).real) for m in family.values()
            )
            assert total == pytest.approx(1.0, abs=1e-10)
        chain = qk.povm_to_qmc(family, random_quantum_density(rng, 2))
        assert qk.validate_chain(chain).ok

    def test_incomplete_family_rejected(self, rng):
        with pytest.raises(ValidationError):
            qk.povm_to_qmc({"a": np.eye(2) * 0.5}, random_quantum_density(rng, 2))


class TestQrwToQmc:
    def test_permutation_walk_first_symbol(self):
        nodes = qk.Alphabet(("a", "b"))
        qrw = qk.QrwParam(
            nodes,
            (("a", "b"), ("b", "a")),
            ("c",),
            np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
            np.array([1.0, 0.0], dtype=complex),
        )
        chain = qk.qrw_to_qmc(qrw)
        assert qk.chain_eval(chain, "b") == pytest.approx(1.0)

    def test_summed_operators_preserve_trace(self, rng):
        chain = qk.qrw_to_qmc(random_local_qrw(rng, 3, 2))
        for _ in range(5):
            raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            mat = (raw + raw.conj().T) / 2
            coords = chain.subspace.expand(mat)
            image = chain.subspace.reconstruct(coords @ chain.total_matrix)
            assert np.trace(image).real == pytest.approx(np.trace(mat).real, abs=1e-9)

    def test_random_walk_matches_oracle(self, rng):
        qrw = random_local_qrw(rng, 2, 2)
        chain = qk.qrw_to_qmc(qrw)
        for word in qk.words_up_to(qrw.nodes, 4):
            assert qk.chain_eval(chain, word) == pytest.approx(
                qrw_collapse_prob(qrw, word), abs=1e-10
            )

    @pytest.mark.parametrize("nodes, coins", [(1, 1), (2, 1), (2, 2), (3, 2), (5, 1), (4, 2)])
    def test_node_operators_are_the_per_node_kraus_maps(self, nodes, coins):
        # one batched Kraus product per walk (one node at a time from ambient
        # dimension 8) gives each node's coordinates on its own, bit for bit
        rng = np.random.default_rng(100 * nodes + coins)
        for _ in range(5):
            qrw = random_local_qrw(rng, nodes, coins)
            chain = qk.qrw_to_qmc(qrw)
            owner = np.arange(qrw.dim) // coins
            for i, node in enumerate(qrw.nodes):
                kraus = np.diag((owner == i).astype(complex)) @ qrw.unitary
                expected = kraus_coords(chain.subspace, kraus[None])[0]
                assert np.array_equal(chain.operators[i].view(np.uint64), expected.view(np.uint64))

    def test_invalid_walk_rejected(self, qrw_hadamard):
        broken = qk.QrwParam(
            qrw_hadamard.nodes,
            qrw_hadamard.edges,
            qrw_hadamard.coins,
            qrw_hadamard.unitary * 1.01,
            qrw_hadamard.wave,
        )
        with pytest.raises(ValidationError):
            qk.qrw_to_qmc(broken)


class TestHmmToQmc:
    def test_one_state_scales_by_emission(self):
        hmm = qk.HmmParam(("s0",), AB, [[0.3, 0.7]], [1.0], [[1.0]])
        chain = qk.hmm_to_qmc(hmm)
        assert np.allclose(chain.operators[0], [[0.3]])
        assert qk.chain_eval(chain, "ab") == pytest.approx(0.21)

    def test_matches_forward_values(self, hmm2):
        chain = qk.hmm_to_qmc(hmm2)
        for word in qk.words_up_to(AB, 5):
            assert qk.chain_eval(chain, word) == pytest.approx(
                qk.hmm_eval(hmm2, word), abs=1e-12
            )

    def test_operators_preserve_nonnegative_diagonals(self, hmm2, rng):
        chain = qk.hmm_to_qmc(hmm2)
        for _ in range(10):
            coords = rng.random(2)
            for matrix in chain.operators:
                assert (coords @ matrix).min() >= -1e-12


class TestFinitaryToQpm:
    def test_coin_collapses_to_one_dimension(self, coin_finitary):
        chain = qk.finitary_to_qpm(coin_finitary)
        assert chain.subspace.dim == 1
        assert np.allclose(chain.operators, [[[0.5]], [[0.5]]])
        assert np.allclose(chain.initial.matrix, [[1.0]])

    def test_reproduces_hmm_process(self, hmm2):
        chain = qk.finitary_to_qpm(qk.hmm_to_finitary(hmm2))
        for word in qk.words_up_to(AB, 5):
            assert qk.chain_eval(chain, word) == pytest.approx(
                qk.hmm_eval(hmm2, word), abs=1e-9
            )

    def test_shares_the_diagonal_subspace_with_hmm_to_qmc(self, hmm2, hmm3_rank3):
        for hmm in (hmm2, hmm3_rank3):
            predictor = qk.finitary_to_qpm(qk.hmm_to_finitary(hmm))
            assert predictor.subspace.dim == hmm.n_states
            assert predictor.subspace is qk.hmm_to_qmc(hmm).subspace

    def test_initial_trace_is_one(self, hmm3_rank3):
        chain = qk.finitary_to_qpm(qk.hmm_to_finitary(hmm3_rank3))
        assert np.trace(chain.initial.matrix).real == pytest.approx(1.0, abs=1e-8)

    def test_validates_as_predictor_model(self, hmm2):
        chain = qk.finitary_to_qpm(qk.hmm_to_finitary(hmm2))
        report = qk.validate_chain(chain)
        assert report.ok
        assert report.horizon == qk.DEFAULTS.qpm_horizon

    def test_insufficient_row_basis_is_detected(self):
        # a period-4 cycle labeled aabb: at horizon 2 the selected rows
        # cannot express the b-shift of the aa row (basis row 2) though
        # every a-shift fits, and the per-letter fit names the same; at
        # the declared dimension the conversion is exact
        cycle = qk.ffmc_to_hmm(
            ("s0", "s1", "s2", "s3"),
            {"s0": "a", "s1": "a", "s2": "b", "s3": "b"},
            [1.0, 0.0, 0.0, 0.0],
            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
            AB,
        )
        finitary = qk.hmm_to_finitary(cycle)
        message = r"cannot reproduce the 'b'-shift of basis row 2 \(residual 1.271e\+00\)"
        with pytest.raises(BasisInsufficiencyError, match=message):
            qk.finitary_to_qpm(finitary, horizon=2)
        process = qk.finitary_process(finitary)
        basis = qk.select_row_basis(qk.build_hankel(process, 2, 2))
        assert basis == [(), ("a",), ("a", "a")]
        with pytest.raises(BasisInsufficiencyError, match=message):
            qpm_fit_reference(process, basis, 2)
        chain = qk.finitary_to_qpm(finitary, horizon=4)
        for word in qk.words_up_to(AB, 5):
            assert qk.chain_eval(chain, word) == pytest.approx(
                qk.hmm_eval(cycle, word), abs=1e-9
            )

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_single_solve_matches_the_per_letter_fit(self, seed):
        """One HMM of each sweep shape and one walk-derived form per seed.

        Both fits solve the same least-squares problems, so they agree to
        a few units of rounding times the design's condition number (at
        most 2.9 ε·cond·scale over 60 seeds).
        """
        rng = np.random.default_rng(seed)
        params = [qk.hmm_to_finitary(random_hmm(rng, n, k)) for n, k in SWEEP_SHAPES]
        params.append(qk.qpm_to_finitary(qk.qrw_to_qmc(random_local_qrw(rng, 2, 1))))
        for param in params:
            chain = qk.finitary_to_qpm(param)
            process = qk.finitary_process(param)
            window = param.dimension
            basis = qk.select_row_basis(qk.build_hankel(process, window, window))
            matrices, root, condition = qpm_fit_reference(process, basis, window)
            scale = max(max(np.abs(m).max() for m in matrices.values()), np.abs(root).max())
            bound = 64 * np.finfo(float).eps * condition * scale
            assert chain.subspace.dim == len(basis)
            for a, matrix in zip(param.alphabet, chain.operators):
                assert np.abs(matrix - matrices[a]).max() <= bound
            assert np.abs(chain.initial_coords - root).max() <= bound

    def test_refuses_a_fit_that_changes_a_basis_trace(self):
        # validate_chain, and so the loader, would refuse this fit: its
        # operators move basis element 0's trace by -3.0e-10 > preserve_tol
        finitary = qk.hmm_to_finitary(leaky_hmm())
        with pytest.raises(BasisInsufficiencyError, match="basis element 0 by -2.99999"):
            qk.finitary_to_qpm(finitary)
        loose = qk.DEFAULTS.replace(preserve_tol=1e-9)
        chain = qk.finitary_to_qpm(finitary, config=loose)
        assert qk.validate_chain(chain, config=loose).ok
        # the findings print plain floats, not numpy scalar reprs; they are
        # the loader's findings for this chain's file, bit for bit
        assert [v.message for v in qk.validate_chain(chain).violations] == [
            "summed operators change the trace of basis element 0 by -2.999998027775064e-10",
            "summed operators change the trace of basis element 1 by -3.3064539994853703e-10",
        ]

    def test_an_in_memory_predictor_evaluates_as_its_file(self, tmp_path):
        # the operators are stored C-contiguous, as the loader stores them, so
        # the converted chain and its saved copy run the same BLAS calls
        for seed in range(40):
            hmm = random_hmm(np.random.default_rng(seed))
            chain = qk.finitary_to_qpm(qk.hmm_to_finitary(hmm))
            path = tmp_path / f"qpm{seed}.json"
            qk.save_model(chain, path)
            loaded = qk.load_model(path)
            words = qk.words_up_to(chain.alphabet, 4)
            mine = np.array([qk.chain_eval(chain, w) for w in words])
            theirs = np.array([qk.chain_eval(loaded, w) for w in words])
            assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64)), seed
            assert qk.validate_chain(chain).messages() == qk.validate_chain(loaded).messages()

    def test_rejects_non_process_parametrization(self):
        broken = qk.FinitaryParam(AB, [[[0.9]], [[0.4]]], [1.0], [1.0], standard_form=False)
        with pytest.raises(ValidationError):
            qk.finitary_to_qpm(broken)

    @pytest.mark.parametrize("letters, horizon", [(2, 19), (3, 12), (1000, 2)])
    def test_refuses_a_horizon_past_its_column_budget_before_building(
        self, monkeypatch, letters, horizon
    ):
        # |A|^h above 500 000 suffix columns is refused before any word is built
        def unreachable(*args, **kwargs):
            raise AssertionError("built before the budget check")

        monkeypatch.setattr(qk.chain, "finitary_process", unreachable)
        monkeypatch.setattr(qk.chain, "build_hankel", unreachable)
        alphabet = qk.Alphabet(tuple(f"s{i}" for i in range(letters)))
        param = qk.FinitaryParam(
            alphabet, np.full((letters, 1, 1), 1.0 / letters), [1.0], [1.0], standard_form=True
        )
        with pytest.raises(ValidationError) as raised:
            qk.finitary_to_qpm(param, horizon=horizon)
        assert str(raised.value) == (
            "working horizon too large for exhaustive column enumeration; pass a smaller one"
        )


class TestQpmToFinitary:
    def test_hmm_round_trip_preserves_process(self, hmm2):
        finitary = qk.qpm_to_finitary(qk.hmm_to_qmc(hmm2))
        for word in qk.words_up_to(AB, 5):
            assert qk.finitary_eval(finitary, word) == pytest.approx(
                qk.hmm_eval(hmm2, word), abs=1e-10
            )

    def test_qrw_dimension_is_edge_count_squared(self, qrw_hadamard):
        chain = qk.qrw_to_qmc(qrw_hadamard)
        finitary = qk.qpm_to_finitary(chain)
        assert finitary.dimension == qrw_hadamard.dim**2 == 16
        for word in qk.words_up_to(AB, 3):
            assert qk.finitary_eval(finitary, word) == pytest.approx(
                qk.chain_eval(chain, word), abs=1e-12
            )

    def test_identity_chain(self):
        chain = single_letter_chain(np.eye(2), [0.5, 0.5])
        finitary = qk.qpm_to_finitary(chain)
        assert np.allclose(finitary.matrices[0], np.eye(2))
        for t in range(5):
            assert qk.finitary_eval(finitary, ("a",) * t) == pytest.approx(1.0)

    def test_round_trip_through_row_basis_preserves_process(self, hmm2):
        chain = qk.finitary_to_qpm(qk.hmm_to_finitary(hmm2))
        finitary = qk.qpm_to_finitary(chain)
        rebuilt = qk.finitary_to_qpm(finitary)
        for word in qk.words_up_to(AB, 5):
            assert qk.chain_eval(rebuilt, word) == pytest.approx(
                qk.hmm_eval(hmm2, word), abs=1e-9
            )


class TestValidateChain:
    def test_hmm_chain_is_clean(self, hmm2):
        report = qk.validate_chain(qk.hmm_to_qmc(hmm2))
        assert report.ok
        assert report.violations == []

    def test_scaled_operator_breaks_trace_preservation(self, hmm2):
        chain = qk.hmm_to_qmc(hmm2)
        scaled = QuantumChain(
            chain.alphabet,
            chain.subspace,
            chain.operators * [[[1.1]], [[1.0]]],
            chain.initial,
            ChainKind.QMC,
        )
        report = qk.validate_chain(scaled)
        assert any(v.code == "trace-preservation" for v in report.violations)

    @pytest.mark.parametrize("kind", [ChainKind.QMC, ChainKind.QPM])
    def test_a_non_finite_operator_is_named_and_certifies_nothing(self, kind):
        chain = single_letter_chain([[1.0, np.nan], [0.0, 1.0]], [0.5, 0.5], kind)
        report = qk.validate_chain(chain)
        assert [(v.code, v.message, v.where) for v in report.violations] == [
            ("non-finite", "operator 'a' has a non-finite coordinate entry", ("operators", "a"))
        ]
        assert report.evidence == []

    def test_signed_density_fails_as_markov_chain(self):
        diag = np.array([-1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3])
        sub = OperatorSubspace.diagonal(5)
        chain = QuantumChain(
            qk.Alphabet(("a",)),
            sub,
            np.eye(5)[None],
            qk.Density(np.diag(diag).astype(complex), qk.DensityKind.QUANTUM),
            ChainKind.QMC,
        )
        report = qk.validate_chain(chain)
        assert any(v.code == "initial-positivity" for v in report.violations)

    def test_signed_density_passes_as_predictor_model(self):
        diag = np.array([-1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3])
        chain = single_letter_chain(np.eye(5), diag, kind=ChainKind.QPM)
        report = qk.validate_chain(chain)
        assert report.ok
        assert report.horizon == qk.DEFAULTS.qpm_horizon

    def test_word_probability_window_violations_detected(self):
        ops = np.array([[[1.2, 0.0], [0.0, 0.3]], [[-0.2, 0.0], [0.0, 0.7]]])
        sub = OperatorSubspace.diagonal(2)
        chain = QuantumChain(
            AB,
            sub,
            ops,
            qk.Density.generalized(np.diag([1.0, 0.0]).astype(complex)),
            ChainKind.QPM,
        )
        report = qk.validate_chain(chain, config=qk.DEFAULTS.replace(qpm_horizon=2))
        assert any(v.code == "word-probability" for v in report.violations)

    def test_word_probability_findings_name_words_as_parse_word_reads_them(self):
        # multi-character symbols are joined with commas, which parse_word reads back
        alphabet = qk.Alphabet(("up", "down"))
        chain = QuantumChain(
            alphabet,
            OperatorSubspace.diagonal(1),
            np.array([[[1.4]], [[-0.4]]]),
            qk.Density.generalized(np.eye(1, dtype=complex)),
            ChainKind.QPM,
        )
        report = qk.validate_chain(chain, config=qk.DEFAULTS.replace(qpm_horizon=2))
        names = [re.match(r"tr over word (\S+) is", v.message).group(1) for v in report.violations]
        assert names == ["up", "down", "up,up", "up,down", "down,up"]
        for name, violation in zip(names, report.violations):
            assert qk.parse_word(name, alphabet) == violation.where[1]

    def test_negative_diagonal_operator_is_flagged_exactly(self):
        ops = np.array([[[-0.5, 0.0], [0.0, 0.5]], [[1.5, 0.0], [0.0, 0.5]]])
        sub = OperatorSubspace.diagonal(2)
        chain = QuantumChain(
            AB,
            sub,
            ops,
            qk.Density.quantum(np.diag([0.5, 0.5]).astype(complex)),
            ChainKind.QMC,
        )
        report = qk.validate_chain(chain)
        assert any(v.code == "positivity" for v in report.violations)

    def test_kraus_constructions_prove_complete_positivity(self, rng):
        chain = qk.povm_to_qmc(random_kraus_family(rng, 2, 2), random_quantum_density(rng, 2))
        report = qk.validate_chain(chain)
        assert report.ok
        assert any("completely positive" in note for note in report.evidence)

    def test_positive_but_not_completely_positive_map_is_evidence_only(self, rng):
        # reduction-style map Q -> (tr Q) I - Q: positive on H_2, Choi indefinite
        sub = OperatorSubspace.full(2)
        op = action_coords(sub, lambda q: np.trace(q) * np.eye(2) - q)
        chain = QuantumChain(
            qk.Alphabet(("a",)),
            sub,
            op[None],
            random_quantum_density(rng, 2),
            ChainKind.QMC,
        )
        report = qk.validate_chain(chain)
        assert report.ok
        assert any("unproven" in note for note in report.evidence)

    def test_genuinely_non_positive_map_is_caught(self, rng):
        # Q -> 2 Q - (tr Q)/2 I is trace-preserving on H_2 but maps pure
        # states to indefinite matrices
        sub = OperatorSubspace.full(2)
        op = action_coords(sub, lambda q: 2.0 * q - (np.trace(q) / 2.0) * np.eye(2))
        chain = QuantumChain(
            qk.Alphabet(("a",)),
            sub,
            op[None],
            random_quantum_density(rng, 2),
            ChainKind.QMC,
        )
        report = qk.validate_chain(chain)
        assert any(v.code == "positivity" for v in report.violations)

    def test_sampling_without_identity_in_subspace(self, rng):
        # one-dimensional subspace: rejection sampling, no identity shift
        sub = OperatorSubspace([np.diag([1.0, 0.0]).astype(complex)])
        good = QuantumChain(
            qk.Alphabet(("a", "b")),
            sub,
            np.array([[[0.6]], [[0.4]]]),
            qk.Density.quantum(np.diag([1.0, 0.0]).astype(complex)),
            ChainKind.QMC,
        )
        report = qk.validate_chain(good)
        assert report.ok
        bad = QuantumChain(
            qk.Alphabet(("a", "b")),
            sub,
            np.array([[[1.5]], [[-0.5]]]),
            qk.Density.quantum(np.diag([1.0, 0.0]).astype(complex)),
            ChainKind.QMC,
        )
        report = qk.validate_chain(bad)
        assert any(v.code == "positivity" for v in report.violations)

    def test_as_qpm_relabels_markov_chains(self, hmm2):
        chain = qk.hmm_to_qmc(hmm2)
        relabeled = qk.as_qpm(chain)
        assert relabeled.kind is ChainKind.QPM
        assert qk.as_qpm(relabeled) is relabeled
        for word in qk.words_up_to(AB, 3):
            assert qk.chain_eval(relabeled, word) == pytest.approx(
                qk.chain_eval(chain, word)
            )

    def test_intermediate_subspace_sampling_paths(self, rng):
        # span{I, sigma_x} contains the identity, enabling shifted sampling
        basis = [np.eye(2, dtype=complex), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)]
        sub = OperatorSubspace(basis)
        good = QuantumChain(
            qk.Alphabet(("a",)),
            sub,
            np.diag([1.0, 0.5])[None],
            qk.Density.quantum(np.eye(2, dtype=complex) / 2),
            ChainKind.QMC,
        )
        report = qk.validate_chain(good)
        assert report.ok
        bad = QuantumChain(
            qk.Alphabet(("a",)),
            sub,
            np.diag([1.0, 1.5])[None],
            qk.Density.quantum(np.eye(2, dtype=complex) / 2),
            ChainKind.QMC,
        )
        report = qk.validate_chain(bad)
        assert any(v.code == "positivity" for v in report.violations)


class TestConversionTriangle:
    def test_all_routes_define_the_same_process(self, rng):
        for _ in range(5):
            hmm = random_hmm(rng)
            finitary = qk.hmm_to_finitary(hmm)
            markov = qk.hmm_to_qmc(hmm)
            predictor = qk.finitary_to_qpm(finitary)
            for word in qk.words_up_to(hmm.alphabet, 4):
                base = qk.hmm_eval(hmm, word)
                assert qk.finitary_eval(finitary, word) == pytest.approx(base, abs=1e-9)
                assert qk.chain_eval(markov, word) == pytest.approx(base, abs=1e-9)
                assert qk.chain_eval(predictor, word) == pytest.approx(base, abs=1e-9)

    def test_trace_preservation_on_every_basis_element(self, rng):
        chains = [
            qk.hmm_to_qmc(random_hmm(rng)),
            qk.qrw_to_qmc(random_local_qrw(rng, 2, 2)),
        ]
        for chain in chains:
            drift = chain.total_matrix @ chain.subspace.traces - chain.subspace.traces
            assert np.max(np.abs(drift)) <= 1e-10


CHAIN_FIXTURES = ("swap_qmc.json", "unbounded_qpm.json")
FIXTURES = Path(__file__).parent / "fixtures"
CHAIN_SOURCES = (
    "unitary_to_qmc",
    "povm_to_qmc",
    "qrw_to_qmc",
    "hmm_to_qmc",
    "finitary_to_qpm",
    "as_qpm",
) + CHAIN_FIXTURES


def chain_sources() -> dict[str, QuantumChain]:
    """One chain from every source that builds one."""
    rng = np.random.default_rng(28)
    hmm = random_hmm(rng, 3, 2)
    sources = {
        "unitary_to_qmc": qk.unitary_to_qmc(random_unitary(rng, 3), random_quantum_density(rng, 3)),
        "povm_to_qmc": qk.povm_to_qmc(
            random_kraus_family(rng, 2, 3), random_quantum_density(rng, 2)
        ),
        "qrw_to_qmc": qk.qrw_to_qmc(random_local_qrw(rng, 3, 2)),
        "hmm_to_qmc": qk.hmm_to_qmc(hmm),
        "finitary_to_qpm": qk.finitary_to_qpm(qk.hmm_to_finitary(hmm)),
        "as_qpm": qk.as_qpm(qk.hmm_to_qmc(hmm)),
    }
    sources.update((name, qk.load_model(FIXTURES / name)) for name in CHAIN_FIXTURES)
    return sources


class TestOneOperatorStack:
    @pytest.mark.parametrize("source", CHAIN_SOURCES)
    def test_every_source_gives_one_contiguous_stack(self, source):
        chain = chain_sources()[source]
        ops = chain.operators
        assert type(ops) is np.ndarray and ops.dtype == np.float64 and ops.flags.c_contiguous
        assert ops.shape == (len(chain.alphabet), chain.subspace.dim, chain.subspace.dim)
        assert qk.chain_process(chain).linear.matrices is ops

    def test_the_process_holds_the_chain_arrays_and_reads_the_start_when_built(self, hmm2):
        chain = qk.hmm_to_qmc(hmm2)
        form = qk.chain_process(chain).linear
        assert form.matrices is chain.operators
        assert form.initial is chain.initial_coords and form.end is chain.subspace.traces
        off = qk.Density.quantum(np.array([[0.6, 1e-3], [1e-3, 0.4]], dtype=complex))
        stray = QuantumChain(chain.alphabet, chain.subspace, chain.operators, off, ChainKind.QMC)
        with pytest.raises(SubspaceError):
            qk.chain_process(stray)

    def test_hmm_to_qmc_shares_the_hmm_stack(self, hmm2):
        chain = qk.hmm_to_qmc(hmm2)
        assert np.shares_memory(chain.operators, hmm2._letter_stack)
        assert qk.as_qpm(chain).operators is chain.operators

    def test_a_stack_of_another_shape_is_refused(self):
        sub = OperatorSubspace.diagonal(2)
        density = qk.Density.quantum(np.eye(2, dtype=complex) / 2)
        for ops in (np.eye(2), np.stack([np.eye(2)] * 3), np.ones((2, 3, 3))):
            with pytest.raises(DimensionMismatchError, match="operator stack must have shape"):
                QuantumChain(AB, sub, ops, density, ChainKind.QMC)

    @pytest.mark.parametrize("which", ["hadamard", "walk4", "povm"])
    def test_in_memory_chains_evaluate_as_their_files(self, tmp_path, qrw_hadamard, which):
        rng = np.random.default_rng(4)
        if which == "hadamard":
            chain = qk.qrw_to_qmc(qrw_hadamard)
        elif which == "walk4":
            chain = qk.qrw_to_qmc(random_local_qrw(rng, 4, 1))
        else:
            chain = qk.povm_to_qmc(random_kraus_family(rng, 2, 3), random_quantum_density(rng, 2))
        path = tmp_path / "chain.json"
        qk.save_model(chain, path)
        loaded = qk.load_model(path)
        words = qk.words_up_to(chain.alphabet, 6)
        mine, theirs = (np.array([qk.chain_eval(c, w) for w in words]) for c in (chain, loaded))
        assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64))

    def test_total_matrix_is_the_left_to_right_sum(self):
        chains = [qk.load_model(FIXTURES / name) for name in CHAIN_FIXTURES]
        walk = qk.qrw_to_qmc(random_local_qrw(np.random.default_rng(16), 8, 2))
        assert walk.subspace.ambient_dim == 16
        for chain in chains + [walk]:
            total = sum(chain.operators[i] for i in range(len(chain.alphabet)))
            assert chain.total_matrix.tobytes() == total.tobytes()


class TestKrausRoutine:
    """Refusals not covered above (overflowing images are), and batching."""

    def test_a_non_finite_operator(self):
        with pytest.raises(ValidationError, match="matrix contains non-finite entries"):
            kraus_coords(OperatorSubspace.full(2), np.array([[[1.0, np.nan], [0.0, 1.0]]]))

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3, 3), (1, 2, 3)])
    def test_a_stack_of_another_shape(self, shape):
        with pytest.raises(DimensionMismatchError, match="Kraus operators must be 2x2"):
            kraus_coords(OperatorSubspace.full(2), np.ones(shape))

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_a_batch_gives_the_bits_of_one_operator_at_a_time(self, count):
        # on the canonical basis; a Gram solve of a batch rounds differently
        rng = np.random.default_rng(count)
        family = np.stack(list(random_kraus_family(rng, 3, count).values()))
        for sub in (OperatorSubspace.full(3), subspace_of_kind(rng, "dense", 3)):
            for kraus, got in zip(family, kraus_coords(sub, family)):
                alone = kraus_coords(sub, kraus[None])[0]
                if sub.is_canonical:
                    assert got.tobytes() == alone.tobytes()
                assert np.max(np.abs(got - alone)) <= 1e-12
