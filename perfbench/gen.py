"""Seeded model generators and schema-v1 writers.

Every model is built from a ``numpy.random.Generator`` so that one seed
fixes every input, and is written as a schema-v1 model file with plain
``json``.  The generators share no code with qpmkit: the arrays they
return are what the oracles work from, and qpmkit only ever sees the
files.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass

import numpy as np

LETTERS = tuple(string.ascii_lowercase)


@dataclass(frozen=True)
class Hmm:
    """Initial law, emission[i, a] and transition[i, j] of a hidden Markov model."""

    alphabet: tuple[str, ...]
    initial: np.ndarray
    emission: np.ndarray
    transition: np.ndarray

    @property
    def n(self) -> int:
        return len(self.initial)

    def letter_matrix(self, a: int) -> np.ndarray:
        """M_a[i, j] = emission[i, a] * transition[i, j]."""
        return self.emission[:, a][:, None] * self.transition


@dataclass(frozen=True)
class Walk:
    """A coined walk: node alphabet, coin names, local unitary, initial wave."""

    nodes: tuple[str, ...]
    coins: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    unitary: np.ndarray
    wave: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.nodes) * len(self.coins)

    def kraus(self) -> list[np.ndarray]:
        """Project-after-evolve operator P_node @ U, one per node."""
        k = len(self.coins)
        out = []
        for i in range(len(self.nodes)):
            proj = np.zeros((self.dim, self.dim), dtype=complex)
            proj[i * k:(i + 1) * k, i * k:(i + 1) * k] = np.eye(k)
            out.append(proj @ self.unitary)
        return out


@dataclass(frozen=True)
class Kraus:
    """A complete Kraus family (sum of K^* K is the identity) and an initial density."""

    alphabet: tuple[str, ...]
    operators: tuple[np.ndarray, ...]
    initial: np.ndarray


# --------------------------------------------------------------------------
# Generators.
# --------------------------------------------------------------------------


def random_hmm(rng: np.random.Generator, n: int, k: int, concentration: float = 1.0) -> Hmm:
    """Rows drawn from a symmetric Dirichlet; larger concentration is closer to uniform."""
    return Hmm(
        alphabet=LETTERS[:k],
        initial=rng.dirichlet(np.full(n, concentration)),
        emission=rng.dirichlet(np.full(k, concentration), size=n),
        transition=rng.dirichlet(np.full(n, concentration), size=n),
    )


def perturbed_hmm(hmm: Hmm, delta: float = 1e-3) -> Hmm:
    """Move ``delta`` of emission mass in state 0 from the first letter to the second."""
    emission = hmm.emission.copy()
    shift = min(delta, emission[0, 0] / 2)
    emission[0, 0] -= shift
    emission[0, 1] += shift
    return Hmm(hmm.alphabet, hmm.initial, emission, hmm.transition)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_wave(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def balanced_coin(rng: np.random.Generator) -> np.ndarray:
    """A 2x2 unitary whose entries all have modulus 1/sqrt(2), with random phases."""
    phases = np.exp(2j * np.pi * rng.random(3))
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return np.diag(phases[:2]) @ hadamard @ np.diag([1.0, phases[2]])


def cycle_walk(rng: np.random.Generator, nodes: int, balanced: bool = False) -> Walk:
    """Walk with two coins on the directed cycle a -> b -> ... -> a.

    A coin unitary acts inside each node; the shift then moves the first
    coin to the next node and leaves the second in place, so every column
    of the evolution stays on a node or its successor.  Coins are Haar
    random, or ``balanced``: then, after the first step, every node
    reading has probability 1/2 and a length-t prefix has probability
    about 2**-t for every seed.
    """
    coins = 2
    names = LETTERS[:nodes]
    dim = nodes * coins
    coin = np.zeros((dim, dim), dtype=complex)
    for i in range(nodes):
        block = balanced_coin(rng) if balanced else random_unitary(rng, coins)
        coin[i * coins:(i + 1) * coins, i * coins:(i + 1) * coins] = block
    shift = np.zeros((dim, dim))
    for i in range(nodes):
        for c in range(coins):
            target = ((i + 1) % nodes if c == 0 else i) * coins + c
            shift[target, i * coins + c] = 1.0
    edges = tuple((names[i], names[(i + 1) % nodes]) for i in range(nodes)) if nodes > 1 else ()
    return Walk(names, tuple(f"c{c}" for c in range(coins)), edges, shift @ coin,
                random_wave(rng, dim))


def two_node_walk(rng: np.random.Generator) -> Walk:
    """Two nodes, one coin, edges both ways: any 2x2 unitary is local."""
    return Walk(("a", "b"), ("c0",), (("a", "b"), ("b", "a")), random_unitary(rng, 2),
                random_wave(rng, 2))


def random_kraus(rng: np.random.Generator, n: int, k: int = 3) -> Kraus:
    """Split a random (k*n) x n isometry into k blocks; random mixed initial density."""
    z = rng.normal(size=(k * n, n)) + 1j * rng.normal(size=(k * n, n))
    q, _ = np.linalg.qr(z)
    ops = tuple(q[i * n:(i + 1) * n] for i in range(k))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return Kraus(LETTERS[:k], ops, rho / np.trace(rho).real)


# --------------------------------------------------------------------------
# Closed-form coordinate matrices for chain files.
# --------------------------------------------------------------------------


def hermitian_units(n: int) -> np.ndarray:
    """An orthonormal basis of the n x n Hermitian matrices, stacked (n*n, n, n)."""
    out = []
    for i in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[i, i] = 1.0
        out.append(m)
    h = 1 / np.sqrt(2)
    for i in range(n):
        for j in range(i + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[i, j] = s[j, i] = h
            a = np.zeros((n, n), dtype=complex)
            a[i, j], a[j, i] = -1j * h, 1j * h
            out += [s, a]
    return np.stack(out)


def kraus_coordinates(basis: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """Row i holds the coordinates of K B_i K^* over an orthonormal basis."""
    images = kraus @ basis @ kraus.conj().T
    return np.einsum("jkl,ilk->ij", basis, images).real


# --------------------------------------------------------------------------
# Schema-v1 writers.
# --------------------------------------------------------------------------


def _c(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _cmat(m: np.ndarray) -> list:
    return [[_c(z) for z in row] for row in m]


def _rmat(m: np.ndarray) -> list:
    return np.asarray(m, dtype=float).tolist()


def _write(path, kind: str, alphabet, payload: dict) -> None:
    doc = {"schema_version": "1", "kind": kind, "alphabet": alphabet, "payload": payload}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def write_hmm(path, hmm: Hmm) -> None:
    _write(path, "hmm", list(hmm.alphabet), {
        "states": [f"s{i}" for i in range(hmm.n)],
        "emission": _rmat(hmm.emission),
        "initial": _rmat(hmm.initial),
        "transition": _rmat(hmm.transition),
    })


def write_finitary(path, hmm: Hmm) -> None:
    """The HMM's split-transition form with the all-ones end vector."""
    _write(path, "finitary", list(hmm.alphabet), {
        "dimension": hmm.n,
        "letter_matrices": {a: _rmat(hmm.letter_matrix(i)) for i, a in enumerate(hmm.alphabet)},
        "initial": _rmat(hmm.initial),
        "end": [1.0] * hmm.n,
        "standard_form": True,
    })


def write_walk(path, walk: Walk) -> None:
    _write(path, "qrw", list(walk.nodes), {
        "edges": [list(e) for e in walk.edges],
        "coins": list(walk.coins),
        "unitary": _cmat(walk.unitary),
        "wave": [_c(z) for z in walk.wave],
    })


def write_diagonal_qmc(path, hmm: Hmm) -> None:
    """The HMM on the diagonal-matrix subspace: coordinates are the letter matrices."""
    n = hmm.n
    basis = np.zeros((n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    _write(path, "qmc", list(hmm.alphabet), {
        "ambient_dim": n,
        "basis": [_cmat(b) for b in basis],
        "operators": {a: _rmat(hmm.letter_matrix(i)) for i, a in enumerate(hmm.alphabet)},
        "initial": _cmat(np.diag(hmm.initial).astype(complex)),
        "initial_kind": "quantum",
    })


def write_kraus_qmc(path, alphabet, operators, initial: np.ndarray) -> None:
    """A full-Hermitian-space chain from Kraus operators, one operator per letter."""
    n = initial.shape[0]
    basis = hermitian_units(n)
    _write(path, "qmc", list(alphabet), {
        "ambient_dim": n,
        "basis": [_cmat(b) for b in basis],
        "operators": {a: _rmat(kraus_coordinates(basis, k)) for a, k in zip(alphabet, operators)},
        "initial": _cmat(initial),
        "initial_kind": "quantum",
    })


def write_density(path, rho: np.ndarray) -> None:
    _write(path, "density", None, {"matrix": _cmat(rho), "kind": "quantum"})


def sample_walk_word(walk: Walk, length: int, rng: np.random.Generator) -> tuple[str, ...]:
    """A word of positive probability: evolve, pick a node by its weight, collapse."""
    k = len(walk.coins)
    psi = walk.wave
    word = []
    for _ in range(length):
        phi = walk.unitary @ psi
        weights = np.array([np.vdot(phi[i * k:(i + 1) * k], phi[i * k:(i + 1) * k]).real
                            for i in range(len(walk.nodes))])
        i = int(rng.choice(len(weights), p=weights / weights.sum()))
        psi = np.zeros_like(phi)
        psi[i * k:(i + 1) * k] = phi[i * k:(i + 1) * k] / np.sqrt(weights[i])
        word.append(walk.nodes[i])
    return tuple(word)
