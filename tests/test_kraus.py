"""Closed-form Kraus superoperators and the one-contraction Choi matrix.

Both are checked against the unit-by-unit oracles in ``oracles.py`` over
measurement, unitary and walk families of ambient dimension 1 to 5, on
the canonical basis (closed-form coordinates) and on a mixed full basis
(Gram solve); validation must report the same messages and evidence
either way.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpmkit as qk
from qpmkit import chain as chain_mod
from qpmkit.chain import ChainKind, OperatorSubspace, QuantumChain, hermitian_basis, kraus_coords
from qpmkit.errors import SubspaceError

from helpers import (
    action_coords,
    random_kraus_family,
    random_local_qrw,
    random_quantum_density,
    random_unitary,
    walk_kraus,
)
from oracles import choi_reference, superoperator_reference

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(1, 5)
FAMILIES = st.sampled_from(["povm", "unitary", "walk"])
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


def kraus_family(rng, family: str, n: int) -> list[np.ndarray]:
    if family == "povm":
        return list(random_kraus_family(rng, n, int(rng.integers(1, 4))).values())
    if family == "unitary":
        return [random_unitary(rng, n)]
    coins = int(rng.choice([c for c in range(1, n + 1) if n % c == 0]))
    return walk_kraus(random_local_qrw(rng, n // coins, coins))


def mixed_full_basis(rng, n: int) -> list[np.ndarray]:
    """A non-orthonormal basis of the Hermitian n-by-n matrices."""
    canonical = np.stack(hermitian_basis(n))
    mixing = np.eye(n * n) + 0.3 * rng.normal(size=(n * n, n * n)) / n
    return list(np.tensordot(mixing, canonical, axes=1))


def conjugation(kraus):
    return lambda q: kraus @ q @ kraus.conj().T


def reduction_map(q):
    """Q -> (tr Q) I - Q: positive on 2x2 matrices, not completely positive."""
    return np.trace(q) * np.eye(q.shape[0]) - q


def non_positive_map(q):
    """Q -> 2Q - (tr Q)/2 I: trace-preserving on 2x2 matrices, maps pure states off the cone."""
    return 2.0 * q - (np.trace(q) / 2.0) * np.eye(q.shape[0])


def report_tuple(report):
    return report.messages(), list(report.evidence), report.horizon


def reference_report(chain):
    """validate_chain with the unit-by-unit Choi matrix in place of the contraction."""
    with mock.patch.object(
        chain_mod, "_choi_matrix", lambda sub, matrix: choi_reference(sub.basis, matrix)
    ):
        return chain_mod.validate_chain(chain)


class TestFromKraus:
    @PROPERTY
    @given(seed=SEEDS, family=FAMILIES, n=DIMS)
    def test_canonical_coordinates_match_the_oracle(self, seed, family, n):
        rng = np.random.default_rng(seed)
        sub = OperatorSubspace.full(n)
        assert sub.is_canonical
        operators = kraus_family(rng, family, n)
        for kraus, got in zip(operators, kraus_coords(sub, np.stack(operators))):
            want = superoperator_reference(sub.basis, conjugation(kraus))
            assert np.max(np.abs(got - want)) <= 1e-13

    @PROPERTY
    @given(seed=SEEDS, family=FAMILIES, n=DIMS)
    def test_gram_solve_coordinates_match_the_oracle(self, seed, family, n):
        rng = np.random.default_rng(seed)
        sub = OperatorSubspace(mixed_full_basis(rng, n))
        assert sub.spans_full and not sub.is_canonical
        operators = kraus_family(rng, family, n)
        for kraus, got in zip(operators, kraus_coords(sub, np.stack(operators))):
            want = superoperator_reference(sub.basis, conjugation(kraus))
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_constructions_use_the_kraus_coordinates(self, rng):
        qrw = random_local_qrw(rng, 3, 2)
        chain = qk.qrw_to_qmc(qrw)
        for got, kraus in zip(chain.operators, walk_kraus(qrw)):
            want = superoperator_reference(chain.subspace.basis, conjugation(kraus))
            assert np.max(np.abs(got - want)) <= 1e-13
        family = random_kraus_family(rng, 3, 2)
        chain = qk.povm_to_qmc(family, random_quantum_density(rng, 3))
        for got, kraus in zip(chain.operators, family.values()):
            want = superoperator_reference(chain.subspace.basis, conjugation(kraus))
            assert np.max(np.abs(got - want)) <= 1e-13
        unitary = random_unitary(rng, 3)
        chain = qk.unitary_to_qmc(unitary, random_quantum_density(rng, 3))
        want = superoperator_reference(chain.subspace.basis, conjugation(unitary))
        assert np.max(np.abs(chain.operators[0] - want)) <= 1e-13

    def test_diagonal_subspace_rejects_a_non_diagonal_image(self):
        sub = OperatorSubspace.diagonal(2)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        with pytest.raises(SubspaceError) as closed_form:
            kraus_coords(sub, hadamard[None])
        with pytest.raises(SubspaceError) as per_element:
            action_coords(sub, conjugation(hadamard))
        assert str(closed_form.value) == str(per_element.value)

    def test_diagonal_subspace_keeps_a_diagonal_image(self, rng):
        sub = OperatorSubspace.diagonal(3)
        kraus = np.diag(rng.normal(size=3) + 1j * rng.normal(size=3))[[2, 0, 1]]
        got = kraus_coords(sub, kraus[None])[0]
        want = superoperator_reference(sub.basis, conjugation(kraus))
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_rejects_a_kraus_operator_of_another_dimension(self):
        with pytest.raises(qk.DimensionMismatchError):
            kraus_coords(OperatorSubspace.full(2), np.eye(3)[None])


class TestChoiMatrix:
    @PROPERTY
    @given(seed=SEEDS, family=FAMILIES, n=DIMS)
    def test_contraction_matches_the_unit_loop(self, seed, family, n):
        rng = np.random.default_rng(seed)
        for sub in (OperatorSubspace.full(n), OperatorSubspace(mixed_full_basis(rng, n))):
            for matrix in kraus_coords(sub, np.stack(kraus_family(rng, family, n))):
                want = choi_reference(sub.basis, matrix)
                assert np.max(np.abs(chain_mod._choi_matrix(sub, matrix) - want)) <= 1e-12

    def test_non_completely_positive_maps_match_the_unit_loop(self):
        sub = OperatorSubspace.full(2)
        for action in (reduction_map, non_positive_map):
            matrix = action_coords(sub, action)
            want = choi_reference(sub.basis, matrix)
            assert np.max(np.abs(chain_mod._choi_matrix(sub, matrix) - want)) <= 1e-12


def check_kraus_chain_reports(rng, family, n, subspace):
    """A Kraus chain on ``subspace(rng, n)`` reports as its chain of oracle coordinates."""
    kraus = kraus_family(rng, family, n)
    sub = subspace(rng, n)
    symbols = tuple(f"k{i}" for i in range(len(kraus)))
    density = random_quantum_density(rng, n)
    fast = kraus_coords(sub, np.stack(kraus))
    slow = np.stack([superoperator_reference(sub.basis, conjugation(k)) for k in kraus])
    alphabet = qk.Alphabet(symbols)
    got = qk.validate_chain(QuantumChain(alphabet, sub, fast, density, ChainKind.QMC))
    want = reference_report(QuantumChain(alphabet, sub, slow, density, ChainKind.QMC))
    assert report_tuple(got) == report_tuple(want)
    assert got.ok and len(got.evidence) == len(symbols)


def check_map_reports(rng, action, sub):
    """A one-letter chain of ``action`` on ``sub`` reports as with the oracle Choi matrix."""
    chain = QuantumChain(
        qk.Alphabet(("a",)),
        sub,
        action_coords(sub, action)[None],
        random_quantum_density(rng, 2),
        ChainKind.QMC,
    )
    got = qk.validate_chain(chain)
    assert report_tuple(got) == report_tuple(reference_report(chain))
    assert got.evidence or got.violations


class TestValidationReports:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=SEEDS, family=FAMILIES, n=DIMS)
    def test_kraus_chains_report_as_the_oracle_chain(self, seed, family, n):
        rng = np.random.default_rng(seed)
        check_kraus_chain_reports(rng, family, n, lambda rng, n: OperatorSubspace.full(n))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=SEEDS, family=FAMILIES, n=DIMS)
    def test_kraus_chains_on_a_mixed_basis_report_as_the_oracle_chain(self, seed, family, n):
        rng = np.random.default_rng(seed)
        check_kraus_chain_reports(
            rng, family, n, lambda rng, n: OperatorSubspace(mixed_full_basis(rng, n))
        )

    @pytest.mark.parametrize("action", [reduction_map, non_positive_map])
    def test_non_completely_positive_maps_report_as_the_oracle(self, rng, action):
        check_map_reports(rng, action, OperatorSubspace.full(2))

    @pytest.mark.parametrize("action", [reduction_map, non_positive_map])
    def test_non_completely_positive_maps_on_a_mixed_basis_report_as_the_oracle(self, rng, action):
        sub = OperatorSubspace(mixed_full_basis(rng, 2))
        assert not sub.is_canonical
        check_map_reports(rng, action, sub)


class TestCholeskyCertificate:
    """Choi + 1e-8·I factorising is the verdict ``eigvalsh(Choi).min() >= -1e-8``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 31, 64, 100, 128, 256])
    def test_verdicts_match_the_spectrum(self, n):
        rng = np.random.default_rng(n)
        basis = random_unitary(rng, n)
        for rank in sorted({1, max(n // 8, 1), n}):
            spectrum = np.zeros(n)
            spectrum[:rank] = rng.uniform(0.1, 1.0, size=rank)
            for shift in (0.0, 5e-9, 2e-8, 1e-6, 1.0):
                matrix = (basis * (spectrum - shift)) @ basis.conj().T
                matrix = (matrix + matrix.conj().T) / 2.0
                want = float(np.linalg.eigvalsh(matrix).min()) >= -1e-8
                assert want is bool(spectrum.min() - shift >= -1e-8)
                assert chain_mod._factorises(matrix, 1e-8) is want
                # zero rows and columns between its own add eigenvalues 0, which pass
                padded = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
                at = 2 * np.arange(n) + 1
                padded[np.ix_(at, at)] = matrix
                assert chain_mod._factorises(padded, 1e-8) is want

    @pytest.mark.parametrize("nodes", [4, 8])
    def test_a_walk_letter_factorises_its_support_block(self, nodes):
        # Φ(X) = K X K† has the rank-one Choi matrix vec(K)·vec(K)†, whose
        # nonzero rows are K's nonzero entries: 4 of a walk letter's n²
        qrw = random_local_qrw(np.random.default_rng(11), nodes, 2)
        chain = qk.qrw_to_qmc(qrw)
        shapes = []
        cholesky = np.linalg.cholesky

        def recorded(a):
            shapes.append(a.shape)
            return cholesky(a)

        with mock.patch.object(np.linalg, "cholesky", recorded):
            report = qk.validate_chain(chain)
        assert report.ok and len(report.evidence) == nodes
        assert shapes == [(np.count_nonzero(k),) * 2 for k in walk_kraus(qrw)] == [(4, 4)] * nodes

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=SEEDS, family=FAMILIES, n=DIMS)
    def test_reports_match_the_spectrum_route(self, seed, family, n):
        rng = np.random.default_rng(seed)
        sub = OperatorSubspace.full(n)
        kraus = kraus_family(rng, family, n)
        ops = list(kraus_coords(sub, np.stack(kraus)))
        symbols = [f"k{i}" for i in range(len(kraus))]
        if n == 2:  # the two maps that are not completely positive
            ops += [action_coords(sub, reduction_map), action_coords(sub, non_positive_map)]
            symbols += ["r", "m"]
        density = random_quantum_density(rng, n)
        alphabet = qk.Alphabet(tuple(symbols))
        chain = QuantumChain(alphabet, sub, np.stack(ops), density, ChainKind.QMC)
        got = qk.validate_chain(chain)
        with mock.patch.object(chain_mod, "_factorises", lambda matrix, shift: False):
            want = qk.validate_chain(chain)
        assert report_tuple(got) == report_tuple(want)
