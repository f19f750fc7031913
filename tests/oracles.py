"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive (explicit loops, path enumeration,
plain running averages) and shares no code with the implementations it
verifies.
"""

from __future__ import annotations

import itertools

import numpy as np


def inner_double_sum(c: np.ndarray, d: np.ndarray) -> complex:
    """Entrywise double sum for tr(C* D)."""
    total = 0.0 + 0.0j
    rows, cols = c.shape
    for i in range(rows):
        for j in range(cols):
            total += np.conj(c[i, j]) * d[i, j]
    return total


def hmm_path_prob(hmm, word) -> float:
    """Word probability by summing over every hidden state path."""
    if not word:
        return 1.0
    n = hmm.n_states
    sym = [hmm.alphabet.index(s) for s in word]
    total = 0.0
    for path in itertools.product(range(n), repeat=len(word)):
        weight = hmm.initial[path[0]] * hmm.emission[path[0], sym[0]]
        for t in range(1, len(word)):
            weight *= hmm.transition[path[t - 1], path[t]] * hmm.emission[path[t], sym[t]]
        total += weight
    return float(total)


def qrw_collapse_prob(qrw, word) -> float:
    """Word probability by explicit wave evolution and collapse."""
    psi = qrw.wave.copy()
    probability = 1.0
    for symbol in word:
        phi = qrw.unitary @ psi
        block = qrw.block(symbol)
        weight = float(np.sum(np.abs(phi[block]) ** 2))
        probability *= weight
        if weight <= 1e-300:
            return 0.0
        fresh = np.zeros_like(phi)
        fresh[block] = phi[block]
        psi = fresh / np.sqrt(weight)
    return probability


def hmm_viterbi_enumerate(hmm, word):
    """Best hidden path over the (t+1)-state weight including the trailing move.

    A path (w0, ..., wt) weighs initial[w0] times, per step, the
    emission-weighted transition e[w_{s-1}, v_s] * m[w_{s-1}, w_s].
    Returns (path, weight); numpy's first-argmax picks the
    lexicographically smallest maximizing path.
    """
    sym = [hmm.alphabet.index(s) for s in word]
    arr = hmm.initial.astype(float).copy()
    for s in sym:
        step = hmm.emission[:, s][:, None] * hmm.transition
        arr = arr[..., None] * step[(np.newaxis,) * (arr.ndim - 1) + (Ellipsis,)]
    flat_index = int(np.argmax(arr))
    path = np.unravel_index(flat_index, arr.shape)
    return tuple(int(i) for i in path), float(arr.max())


def cesaro_brute(matrix: np.ndarray, start: np.ndarray, horizon: int) -> np.ndarray:
    """Plain running average of start @ matrix^k for k = 1..horizon."""
    current = start.astype(float).copy()
    acc = np.zeros_like(current)
    for _ in range(horizon):
        current = current @ matrix
        acc += current
    return acc / horizon


def prefix_average_letter(chain, symbol: str, horizon: int) -> float:
    """Time average over t = 1..horizon of the summed length-t prefix mass
    ending in ``symbol``, computed by plain power iteration."""
    coords = chain.initial_coords.copy()
    total = chain.total_matrix
    letter = chain.letter_ops[symbol].matrix
    traces = chain.subspace.traces
    acc = 0.0
    for _ in range(horizon):
        coords = coords @ total
        acc += float(coords @ letter @ traces)
    return acc / horizon


def equivalent_by_enumeration(first, second, horizon: int, tol: float = 1e-9) -> bool:
    """Compare two processes word by word on every word up to ``horizon``.

    With ``horizon`` the sum of the two finitary dimensions, agreement on
    these words implies agreement everywhere.
    """
    for length in range(horizon + 1):
        for word in itertools.product(first.alphabet.symbols, repeat=length):
            if abs(first(word) - second(word)) > tol:
                return False
    return True
