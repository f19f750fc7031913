"""Seeded random model generators shared across the test modules."""

from __future__ import annotations

import numpy as np

import qpmkit as qk
from qpmkit.chain import ChainKind, OperatorSubspace, QuantumChain


def random_stochastic_rows(rng: np.random.Generator, rows: int, cols: int, floor=0.05):
    """Row-stochastic matrix with entries bounded away from zero."""
    raw = rng.random((rows, cols)) + floor
    return raw / raw.sum(axis=1, keepdims=True)


def random_hmm(rng: np.random.Generator, n_states=None, n_symbols=None) -> qk.HmmParam:
    n = int(rng.integers(2, 5)) if n_states is None else n_states
    k = int(rng.integers(2, 4)) if n_symbols is None else n_symbols
    alphabet = qk.Alphabet(tuple("abcd"[:k]))
    states = tuple(f"s{i}" for i in range(n))
    initial = random_stochastic_rows(rng, 1, n)[0]
    return qk.HmmParam(
        states,
        alphabet,
        emission=random_stochastic_rows(rng, n, k),
        initial=initial,
        transition=random_stochastic_rows(rng, n, n),
    )


def leaky_hmm() -> qk.HmmParam:
    """hmm2 with transition row 0 summing to 1 - 5e-10, inside ``eval_tol``.

    Its predictor model's summed operators lose ~3e-10 of a basis
    element's trace, past the default ``preserve_tol`` (1e-10) and within 1e-9.
    """
    return qk.HmmParam(
        ("s0", "s1"),
        qk.Alphabet(("a", "b")),
        emission=((0.9, 0.1), (0.2, 0.8)),
        initial=(0.6, 0.4),
        transition=((0.7, 0.3 - 5e-10), (0.4, 0.6)),
    )


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    gauss = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(gauss)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_quantum_density(rng: np.random.Generator, n: int) -> qk.Density:
    gauss = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mat = gauss @ gauss.conj().T
    return qk.Density.quantum(mat / np.trace(mat).real)


def random_kraus_family(rng: np.random.Generator, n: int, branches: int) -> dict[str, np.ndarray]:
    """Operators whose adjoint-products sum to the identity (QR of a tall Gaussian)."""
    gauss = rng.normal(size=(branches * n, n)) + 1j * rng.normal(size=(branches * n, n))
    isometry, _ = np.linalg.qr(gauss)
    return {f"k{i}": isometry[i * n : (i + 1) * n, :] for i in range(branches)}


def random_local_qrw(rng: np.random.Generator, n_nodes: int, n_coins: int) -> qk.QrwParam:
    """Coined walk on a directed cycle: random per-node coins, then a shift
    that moves coin 0 forward along the cycle and leaves other coins in place."""
    nodes = qk.Alphabet(tuple(f"n{i}" for i in range(n_nodes)))
    coins = tuple(f"c{i}" for i in range(n_coins))
    k = n_nodes * n_coins
    coin_block = np.zeros((k, k), dtype=complex)
    for i in range(n_nodes):
        coin_block[
            i * n_coins : (i + 1) * n_coins, i * n_coins : (i + 1) * n_coins
        ] = random_unitary(rng, n_coins)
    shift = np.zeros((k, k), dtype=complex)
    for i in range(n_nodes):
        for x in range(n_coins):
            target = (i + 1) % n_nodes if x == 0 else i
            shift[target * n_coins + x, i * n_coins + x] = 1.0
    unitary = shift @ coin_block
    wave = rng.normal(size=k) + 1j * rng.normal(size=k)
    wave = wave / np.linalg.norm(wave)
    edges = tuple((f"n{i}", f"n{(i + 1) % n_nodes}") for i in range(n_nodes))
    qrw = qk.QrwParam(nodes, edges, coins, unitary, wave)
    assert qk.validate_qrw(qrw).ok
    return qrw


def walk_kraus(qrw: qk.QrwParam) -> list[np.ndarray]:
    """The walk's project-after-evolve Kraus operators P_node U, one per node."""
    out = []
    for node in qrw.nodes:
        projector = np.zeros((qrw.dim, qrw.dim), dtype=complex)
        block = qrw.block(node)
        projector[block, block] = np.eye(qrw.coin_count)
        out.append(projector @ qrw.unitary)
    return out


def action_coords(sub: OperatorSubspace, action) -> np.ndarray:
    """The coordinate matrix of a map given by its action: one expansion of the basis images."""
    return sub.expand_all(np.stack([action(b) for b in sub.basis]))


def single_letter_chain(matrix, initial_diag, kind=ChainKind.QMC) -> QuantumChain:
    """Diagonal-subspace chain with one symbol; handy for limit tests."""
    matrix = np.asarray(matrix, dtype=float)
    d = matrix.shape[0]
    sub = OperatorSubspace.diagonal(d)
    if kind is ChainKind.QMC:
        density = qk.Density.quantum(np.diag(np.asarray(initial_diag, dtype=complex)))
    else:
        density = qk.Density.generalized(np.diag(np.asarray(initial_diag, dtype=complex)))
    return QuantumChain(qk.Alphabet(("a",)), sub, matrix[None], density, kind)


def random_qmc(rng: np.random.Generator, flavor: str) -> QuantumChain:
    """A random valid quantum Markov chain of the requested construction."""
    if flavor == "hmm":
        return qk.hmm_to_qmc(random_hmm(rng))
    if flavor == "povm":
        n = int(rng.integers(2, 4))
        family = random_kraus_family(rng, n, int(rng.integers(2, 4)))
        return qk.povm_to_qmc(family, random_quantum_density(rng, n))
    if flavor == "unitary":
        n = int(rng.integers(2, 4))
        return qk.unitary_to_qmc(random_unitary(rng, n), random_quantum_density(rng, n))
    if flavor == "qrw":
        return qk.qrw_to_qmc(random_local_qrw(rng, 2, 2))
    raise ValueError(flavor)
