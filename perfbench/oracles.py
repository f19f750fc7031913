"""Reference answers computed without qpmkit.

Each oracle works from the generator's arrays (see ``gen.py``) with its
own algorithm: the Hankel matrix as a forward-by-backward product, a
scaled forward log-likelihood, a log-domain Viterbi with the
library's lexicographic tie-break, a wave-collapse walk evaluator, a
Kraus-form word evaluator and a Cesaro limit by spectral projection.
"""

from __future__ import annotations

import math

import numpy as np


def words_up_to(alphabet, length: int) -> list[tuple[str, ...]]:
    """Words of length 0..length, shortest first, each layer in alphabet order."""
    layer = [()]
    out = list(layer)
    for _ in range(length):
        layer = [w + (a,) for w in layer for a in alphabet]
        out += layer
    return out


def _indices(alphabet, word) -> list[int]:
    pos = {a: i for i, a in enumerate(alphabet)}
    return [pos[a] for a in word]


# --------------------------------------------------------------------------
# Hidden Markov models.
# --------------------------------------------------------------------------


def hmm_hankel(hmm, row_length: int, col_length: int) -> np.ndarray:
    """[p(vw)] as F @ B.T: forward rows pi M_v times backward rows M_w 1."""
    mats = [hmm.letter_matrix(a) for a in range(len(hmm.alphabet))]
    # words of one length in alphabet order: prefixes grow by appending
    # (prefix outer, letter inner), suffixes by prepending (letter outer)
    layer = [hmm.initial]
    forward = list(layer)
    for _ in range(row_length):
        layer = [vec @ m for vec in layer for m in mats]
        forward += layer
    layer = [np.ones(hmm.n)]
    backward = list(layer)
    for _ in range(col_length):
        layer = [m @ vec for m in mats for vec in layer]
        backward += layer
    return np.array(forward) @ np.array(backward).T


def hmm_loglik(hmm, word) -> float:
    """log p(word) by the forward recursion renormalised at every step."""
    idx = _indices(hmm.alphabet, word)
    if not idx:
        return 0.0
    alpha = hmm.initial * hmm.emission[:, idx[0]]
    total = 0.0
    for a in idx[1:]:
        mass = alpha.sum()
        if mass <= 0.0:
            return -math.inf
        total += math.log(mass)
        alpha = ((alpha / mass) @ hmm.transition) * hmm.emission[:, a]
    mass = alpha.sum()
    return total + math.log(mass) if mass > 0.0 else -math.inf


def viterbi(hmm, word):
    """Best hidden path (length len(word) + 1) and its log weight.

    Step weights are those of the diagonal chain: start in state i with
    weight pi_i, then move j -> i on letter a with weight
    emission[j, a] * transition[j, i].  Among optimal paths the
    lexicographically smallest state sequence wins, found by a backward
    best-to-go pass and a greedy forward walk.
    """
    idx = _indices(hmm.alphabet, word)
    with np.errstate(divide="ignore"):
        log_init = np.log(hmm.initial)
        log_steps = [np.log(hmm.letter_matrix(a)) for a in range(len(hmm.alphabet))]
    steps = [log_steps[a] for a in idx]
    togo = np.zeros(hmm.n)
    togos = [togo]
    for w in reversed(steps):
        togo = np.max(w + togo[None, :], axis=1)
        togos.append(togo)
    togos.reverse()
    score = log_init + togos[0]
    best = float(score.max())
    tol = 1e-12 * max(1.0, abs(best))
    path = [int(np.flatnonzero(score >= best - tol)[0])]
    acc = float(log_init[path[0]])
    for t, w in enumerate(steps):
        cand = acc + w[path[-1]] + togos[t + 1]
        nxt = int(np.flatnonzero(cand >= best - tol)[0])
        acc += float(w[path[-1], nxt])
        path.append(nxt)
    return tuple(path), best


def path_logweight(hmm, word, path) -> float:
    idx = _indices(hmm.alphabet, word)
    with np.errstate(divide="ignore"):
        total = math.log(hmm.initial[path[0]]) if hmm.initial[path[0]] > 0 else -math.inf
        for t, a in enumerate(idx):
            w = hmm.emission[path[t], a] * hmm.transition[path[t], path[t + 1]]
            total += math.log(w) if w > 0 else -math.inf
    return total


# --------------------------------------------------------------------------
# Walks and Kraus chains.
# --------------------------------------------------------------------------


def walk_loglik(walk, word) -> float:
    """log p(word): evolve, read the node's block weight, collapse and renormalise."""
    k = len(walk.coins)
    psi = walk.wave
    total = 0.0
    for i in _indices(walk.nodes, word):
        phi = walk.unitary @ psi
        block = phi[i * k:(i + 1) * k]
        weight = float(np.vdot(block, block).real)
        if weight <= 0.0:
            return -math.inf
        total += math.log(weight)
        psi = np.zeros_like(phi)
        psi[i * k:(i + 1) * k] = block / math.sqrt(weight)
    return total


def kraus_loglik(alphabet, operators, rho, word) -> float:
    """log tr(K_w ... rho ... K_w^*), renormalising the density after every letter."""
    total = 0.0
    for i in _indices(alphabet, word):
        k = operators[i]
        rho = k @ rho @ k.conj().T
        mass = float(np.trace(rho).real)
        if mass <= 0.0:
            return -math.inf
        total += math.log(mass)
        rho = rho / mass
    return total


def liouville(operators) -> np.ndarray:
    """S with vec(sum K rho K^*) = S vec(rho) for row-major vec."""
    return sum(np.kron(k, k.conj()) for k in operators)


def cesaro_limit(s: np.ndarray, v0: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """lim (1/T) sum_t S^t v0 as the spectral projection onto ker(S - I).

    The projector is R (L^* R)^-1 L^* with R, L orthonormal bases of the
    right and left null spaces of S - I; this holds whenever eigenvalue
    one is semisimple, which a bounded orbit requires.
    """
    a = s - np.eye(s.shape[0])
    u, sv, vh = np.linalg.svd(a)
    cut = tol * max(1.0, float(sv[0]))
    right = vh[sv <= cut].conj().T
    left = u[:, sv <= cut]
    return right @ np.linalg.solve(left.conj().T @ right, left.conj().T @ v0)


def kraus_stationary(alphabet, operators, rho):
    """Averaged limit density and its letter distribution."""
    n = rho.shape[0]
    limit = cesaro_limit(liouville(operators), rho.reshape(-1)).reshape(n, n)
    letters = {a: float(np.trace(k @ limit @ k.conj().T).real) for a, k in zip(alphabet, operators)}
    return limit, letters


def hmm_stationary_letters(hmm) -> dict[str, float]:
    """Letter distribution under the averaged limit of the state law."""
    limit = cesaro_limit(hmm.transition.T, hmm.initial).real
    return {a: float(limit @ hmm.emission[:, i]) for i, a in enumerate(hmm.alphabet)}


# --------------------------------------------------------------------------
# Comparisons.
# --------------------------------------------------------------------------


def max_abs_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want))) if got.size else 0.0


def log_err(value: float, loglik: float) -> float:
    """|log value - loglik|; infinite when one side is zero and the other is not."""
    if loglik == -math.inf:
        return 0.0 if value == 0.0 else math.inf
    if value <= 0.0:
        return math.inf
    return abs(math.log(value) - loglik)
