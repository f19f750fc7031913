"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive (explicit loops, path enumeration,
plain running averages) and shares no code with the implementations it
verifies.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qpmkit.errors import (
    BasisInsufficiencyError,
    ConsistencyError,
    DivergenceError,
    NumericError,
    SamplingError,
    ValidationError,
)


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


def prefix_product_reference(start, matrices, letters, end=None) -> float:
    """start · M_l1 ··· M_lT · end by one vector-matrix product per letter.

    Without ``end`` the final state is summed.  Underflows like any plain
    float product.
    """
    vec = start
    for a in letters:
        vec = vec @ matrices[a]
    return float(vec.sum() if end is None else vec @ end)


def forward_log_reference(start, matrices, letters, end=None) -> float:
    """log|start · M_l1 ··· M_lT · end| by the scaled forward recursion.

    As in Rabiner (Proc. IEEE 77, 1989), the state is divided by a scale
    at the start and after every letter, and the logs of the scales are
    summed; here the scale is the largest magnitude, so signed forms work
    too.  Without ``end`` the final state is summed.  Returns -inf for an
    exact zero.
    """
    top = float(np.max(np.abs(start)))
    if top == 0.0:
        return -np.inf
    vec = np.array(start, dtype=float) / top
    log_scale = np.log(top)
    for a in letters:
        vec = vec @ matrices[a]
        top = float(np.max(np.abs(vec)))
        if top == 0.0:
            return -np.inf
        vec = vec / top
        log_scale += np.log(top)
    final = float(vec.sum() if end is None else vec @ end)
    return log_scale + np.log(abs(final)) if final else -np.inf


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


def locality_reference(qrw, tol: float) -> list:
    """``validate_qrw``'s locality messages, one column block at a time.

    For each node, coin and non-adjacent other node in order, the largest
    magnitude that the column of (node, coin) puts on the other node's
    block is reported when it exceeds ``tol``.
    """
    messages = []
    for node in qrw.nodes:
        allowed = set(qrw.neighbors(node)) | {node}
        for coin in qrw.coins:
            column = qrw.unitary[:, qrw.basis_index(node, coin)]
            for other in qrw.nodes:
                if other in allowed:
                    continue
                leak = float(np.max(np.abs(column[qrw.block(other)])))
                if leak > tol:
                    messages.append(
                        f"locality at ('unitary', {node!r}, {other!r}): evolution moves "
                        f"amplitude from node {node!r} to non-adjacent node {other!r} "
                        f"(magnitude {leak:.3e})"
                    )
    return messages


def validate_hmm_reference(hmm, tol: float) -> list:
    """``validate_hmm``'s (code, message, where) triples, entry by entry.

    Per row of the emission and then the transition matrix: each entry
    below ``-tol``, then the row sum if it is off 1 by more than ``tol``;
    then the same for the initial distribution.  Values print as floats.
    """
    found = []
    for name, matrix in (("emission", hmm.emission), ("transition", hmm.transition)):
        for i, row in enumerate(matrix):
            for j, value in enumerate(row):
                if value < -tol:
                    found.append(
                        ("negative-entry", f"{name}[{i}, {j}] = {float(value)!r}", (name, i, j))
                    )
            total = float(row.sum())
            if abs(total - 1.0) > tol:
                message = f"{name} row {i} ({hmm.states[i]}) sums to {total!r}, expected 1"
                found.append(("row-sum", message, (name, i)))
    for i, value in enumerate(hmm.initial):
        if value < -tol:
            found.append(("negative-entry", f"initial[{i}] = {float(value)!r}", ("initial", i)))
    total = float(hmm.initial.sum())
    if abs(total - 1.0) > tol:
        found.append(("row-sum", f"initial distribution sums to {total!r}", ("initial",)))
    return found


def walk_form_reference(qrw) -> tuple:
    """The walk's Kraus superoperators K_a ⊗ conj(K_a), K_a = P_a U, on row-major vec(ρ).

    vec(K ρ K*) = (K ⊗ conj(K)) vec(ρ), transposed here because states
    are row vectors; the end vector vec(I) takes the trace.  Returns the
    complex (initial, matrices, end), for :func:`complex_form_value`.
    """
    k = qrw.dim
    superops = []
    for node in qrw.nodes:
        kraus = np.zeros((k, k), dtype=complex)
        kraus[qrw.block(node)] = qrw.unitary[qrw.block(node)]
        superops.append(np.kron(kraus, kraus.conj()).T)
    density = np.outer(qrw.wave, qrw.wave.conj())
    return density.reshape(-1), superops, np.eye(k).reshape(-1)


def complex_form_value(form, letters) -> float:
    """Re(initial · M_l1 ··· M_lT · end) by one complex vector-matrix product per letter."""
    initial, matrices, end = form
    vec = initial
    for a in letters:
        vec = vec @ matrices[a]
    return float((vec @ end).real)


def hmm_path_weights(hmm, word) -> np.ndarray:
    """Weight of every hidden path (w0, ..., wt), as an array indexed by the path."""
    arr = hmm.initial.astype(float).copy()
    for s in (hmm.alphabet.index(x) for x in word):
        step = hmm.emission[:, s][:, None] * hmm.transition
        arr = arr[..., None] * step[(np.newaxis,) * (arr.ndim - 1) + (Ellipsis,)]
    return arr


def hmm_viterbi_enumerate(hmm, word):
    """Best hidden path over the (t+1)-state weight including the trailing move.

    A path (w0, ..., wt) weighs initial[w0] times, per step, the
    emission-weighted transition e[w_{s-1}, v_s] * m[w_{s-1}, w_s].
    Returns (path, weight); numpy's first-argmax picks the
    lexicographically smallest maximizing path.
    """
    arr = hmm_path_weights(hmm, word)
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


def _whitened_orbit(chain):
    """The orbit's Krylov space in coordinates whitened by the Gram's Cholesky factor.

    Builds an orthonormal basis of span{z0 E^t} by modified Gram–Schmidt
    (two passes) on the dense whitened evolution E.  Returns ``(gram_chol,
    basis, restricted, z0)``: the factor L with gram = L Lᵀ, the basis
    rows, E restricted to their span (acting on columns) and the whitened
    start Lᵀ·x0.
    """
    import scipy.linalg

    sub = chain.subspace
    gram_chol = scipy.linalg.cholesky(sub.gram, lower=True)
    evolution = gram_chol.T @ chain.total_matrix.T @ np.linalg.inv(gram_chol.T)
    z0 = gram_chol.T @ chain.initial_coords
    scale = max(float(np.linalg.norm(z0)), 1.0)
    krylov = []
    vec = z0.copy()
    for _ in range(sub.dim + 1):
        residual = vec.copy()
        for _ in range(2):
            for q in krylov:
                residual -= np.dot(q, residual) * q
        norm = float(np.linalg.norm(residual))
        if norm <= 1e-12 * scale:
            break
        krylov.append(residual / norm)
        vec = evolution @ krylov[-1]
    basis = np.vstack(krylov)
    return gram_chol, basis, basis @ evolution @ basis.T, z0


def spectral_limit_reference(chain):
    """Cesàro limit coordinates by a sorted Schur form of the whitened orbit evolution.

    On the orbit of :func:`_whitened_orbit`, sorts the eigenvalue-one
    cluster to the top of a complex Schur form and decouples it by a
    Sylvester solve.  Returns ``(coords, krylov_dim, spectral_gap)`` and
    raises the library's errors, with its messages, for a radius above
    one, a missing cluster and a defective one.
    """
    import scipy.linalg

    gram_chol, basis, restricted, z0 = _whitened_orbit(chain)
    schur_t, schur_z, n_cluster = scipy.linalg.schur(
        restricted.astype(complex), output="complex", sort=lambda lam: abs(lam - 1.0) <= 1e-8
    )
    outside = np.abs(np.diag(schur_t)[n_cluster:])
    if outside.size and outside.max() > 1.0 + 1e-8:
        raise DivergenceError(
            f"evolution has spectral radius {float(outside.max()):.6f} > 1 on the orbit span"
        )
    if n_cluster == 0:
        raise ConsistencyError(
            "no eigenvalue-one component on the orbit span; the trace cannot be preserved"
        )
    head = schur_t[:n_cluster, :n_cluster]
    defect = float(np.linalg.norm(head - np.diag(np.diag(head))))
    if defect > 1e-6:
        raise ConsistencyError(
            f"eigenvalue-one cluster is defective (off-diagonal mass {defect:.3e}); "
            "incompatible with a bounded orbit"
        )
    y = schur_z.conj().T @ (basis @ z0)
    if n_cluster < len(y):
        coupling = scipy.linalg.solve_sylvester(
            head, -schur_t[n_cluster:, n_cluster:], schur_t[:n_cluster, n_cluster:]
        )
        y_head = y[:n_cluster] + coupling @ y[n_cluster:]
    else:
        y_head = y[:n_cluster]
    z_limit = basis.T @ (schur_z[:, :n_cluster] @ y_head)
    imag = float(np.max(np.abs(z_limit.imag)))
    if imag > 1e-8:
        raise NumericError(f"spectral limit has imaginary residue {imag:.3e}")
    coords = scipy.linalg.solve_triangular(gram_chol.T, z_limit.real, lower=False)
    return coords, len(basis), (float(1.0 - outside.max()) if outside.size else None)


def doubling_limit_reference(chain, tol: float = 1e-8, t_max: int = 2**40):
    """Cesàro limit coordinates by running averages at doubling horizons.

    Runs on the orbit of :func:`_whitened_orbit`, whose coordinates carry
    the Hermitian-space norm as the Euclidean one, with the evolution
    acting on rows.  The average A_t of the first t powers doubles as
    A_2t = (A_t + P_t·A_t) / 2 with P_t the t-th power; both are pinned
    to fix the trace functional, whose rounding drift otherwise compounds
    linearly in t.  The averages have converged at two checkpoints in a
    row that move by at most ``tol`` (beating modes can dip under it once
    by phase accident).  At the ``t_max`` cap the best checkpoint counts
    if it moved by at most 100·``tol``; otherwise :class:`NumericError`.
    Growth raises :class:`DivergenceError`.  Returns ``(coords, horizon)``,
    the coordinates not renormalised to unit trace.
    """
    import scipy.linalg

    gram_chol, basis, restricted, z0 = _whitened_orbit(chain)
    x0 = basis @ z0
    tau = basis @ scipy.linalg.solve_triangular(gram_chol, chain.subspace.traces, lower=True)
    tau_norm2 = float(tau @ tau)
    norm = np.linalg.norm

    def pin(matrix):
        return matrix + np.outer(tau - matrix @ tau, tau) / tau_norm2

    partial = pin(restricted.T.copy())  # the average of the first t powers, t = 1
    power = partial.copy()
    t = 1
    best_step, best, best_t = np.inf, None, t
    streak = 0
    while True:
        current = x0 @ partial
        if not np.all(np.isfinite(current)) or norm(current) > 1e9:
            raise DivergenceError("averaged orbit grows without bound")
        if not np.all(np.isfinite(power)) or np.abs(power).max() > 1e12:
            raise DivergenceError("evolved orbit grows without bound")
        partial = pin((partial + power @ partial) / 2.0)
        power = pin(power @ power)
        t *= 2
        step = float(norm(x0 @ partial - current))
        streak = streak + 1 if step <= tol else 0
        if streak >= 2:
            best, best_t = x0 @ partial, t
            break
        if step < best_step:
            best_step, best, best_t = step, x0 @ partial, t
        if t >= t_max:
            if best is not None and best_step <= 100 * tol:
                break
            raise NumericError(
                f"averages still moving by {best_step:.3e} at horizon {t}; limit not resolved"
            )
    coords = scipy.linalg.solve_triangular(gram_chol.T, basis.T @ best, lower=False)
    return coords, best_t


def prefix_average_letter(chain, symbol: str, horizon: int) -> float:
    """Time average over t = 1..horizon of the summed length-t prefix mass
    ending in ``symbol``, computed by plain power iteration."""
    coords = chain.initial_coords.copy()
    total = chain.total_matrix
    letter = chain.operators[chain.alphabet.index(symbol)]
    traces = chain.subspace.traces
    acc = 0.0
    for _ in range(horizon):
        coords = coords @ total
        acc += float(coords @ letter @ traces)
    return acc / horizon


def _words_up_to(alphabet, length: int) -> list:
    """Every word of at most ``length`` symbols, shortest first, each length in alphabet order."""
    return [
        word
        for t in range(length + 1)
        for word in itertools.product(alphabet.symbols, repeat=t)
    ]


def word_table_reference(process, row_length: int, col_length: int) -> np.ndarray:
    """The matrix [p(vw)] over prefixes v and suffixes w, one call of ``process`` per entry."""
    rows = _words_up_to(process.alphabet, row_length)
    cols = _words_up_to(process.alphabet, col_length)
    return np.array([[process(v + w) for w in cols] for v in rows])


def axiom_problems_reference(process, horizon: int, tol: float = 1e-9) -> list:
    """The problems ``check_process_axioms`` reports, found word by word.

    Each word up to ``horizon`` is evaluated on its own; a word shorter
    than ``horizon`` has its one-symbol extensions summed in alphabet
    order, starting from 0.0.
    """
    problems = []
    root = process(())
    if abs(root - 1.0) > tol:
        problems.append(f"p(empty word) is {root!r}, expected 1")
    if horizon < 0:
        return problems
    for word in _words_up_to(process.alphabet, horizon):
        name = ("," if any(len(s) != 1 for s in word) else "").join(word) or "empty"
        value = process(word)
        if value < -tol:
            problems.append(f"p({name}) is negative: {value!r}")
        if len(word) < horizon:
            extended = 0.0
            for symbol in process.alphabet.symbols:
                extended += process(word + (symbol,))
            if abs(extended - value) > tol:
                problems.append(
                    f"one-symbol extensions of {name} sum to {extended!r}, expected {value!r}"
                )
    return problems


def qpm_fit_reference(process, basis_words, horizon: int, residual_tol: float = 1e-8):
    """The predictor fit of ``finitary_to_qpm`` on a given row basis, one solve at a time.

    Entries are evaluated word by word over the suffixes w up to
    ``horizon``.  Column j of the design is basis word v_j's row
    p(v_j w) / p(v_j); letter a's targets are the shifted rows
    p(v_j a w) / p(v_j), fitted by one ``lstsq`` per letter, and the
    process's row p(w) by one more.  Residual norms are checked letter
    by letter in alphabet order, each basis row in turn, then the
    process's; the first above ``residual_tol`` raises
    ``BasisInsufficiencyError`` in the library's words.  Returns the
    coefficient matrices by letter (row j: the image of basis element j),
    the initial coordinates and the design's 2-norm condition number.
    """
    cols = _words_up_to(process.alphabet, horizon)
    weights = np.array([process(v) for v in basis_words])
    design = np.array([[process(v + w) for v in basis_words] for w in cols]) / weights

    def fit(targets, what):
        solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
        residuals = np.linalg.norm(design @ solution - targets, axis=0)
        for i, residual in enumerate(residuals):
            if residual > residual_tol:
                raise BasisInsufficiencyError(
                    f"row basis cannot reproduce {what(i)} (residual {residual:.3e})"
                )
        return solution

    matrices = {}
    for a in process.alphabet.symbols:
        targets = np.array([[process(v + (a,) + w) for v in basis_words] for w in cols]) / weights
        matrices[a] = fit(targets, lambda i: f"the {a!r}-shift of basis row {i}").T
    root = fit(np.array([[process(w)] for w in cols]), lambda i: "the process itself")[:, 0]
    return matrices, root, float(np.linalg.cond(design))


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


def shortest_difference_by_enumeration(first, second, horizon: int, tol: float = 1e-9):
    """The shortlex-first word of at most ``horizon`` letters on which two
    processes differ by more than ``tol``, or None.

    A process's value never grows when a letter is appended, so a word on
    which both values are at most ``tol`` has no extension on which they
    differ by more, and its extensions are not enumerated.
    """
    level = [()]
    for _ in range(horizon + 1):
        grown = []
        for word in level:
            one, two = first(word), second(word)
            if abs(one - two) > tol:
                return word
            if max(one, two) > tol:
                grown.extend(word + (symbol,) for symbol in first.alphabet.symbols)
        level = grown
    return None


def hidden_weights_reference(matrix: np.ndarray, basis) -> np.ndarray:
    """Hidden-state weights tr(P Q P*), one projector at a time."""
    weights = np.empty(basis.size)
    for i, proj in enumerate(basis.projectors):
        weights[i] = complex(np.trace(proj @ matrix @ proj.conj().T)).real
    return weights


def viterbi_reference(chain, basis, symbols):
    """Maximum-weight hidden path by carrying every candidate's full path.

    The path-copying dynamic program (O(T^2 n^2)): each state keeps its
    largest and smallest signed prefix weight with the path that reaches
    it; ties go to the lexicographically smallest state-index sequence.
    Returns (labels, weight) with the plain float product as the weight.
    """
    sub = chain.subspace
    coords = [sub.expand(proj) for proj in basis.projectors]
    n = basis.size
    init = [
        float(complex(np.trace(p @ chain.initial.matrix @ p.conj().T)).real)
        for p in basis.projectors
    ]
    step_weight = {}
    for a, letter in zip(chain.alphabet, chain.operators):
        mat = np.empty((n, n))
        for j in range(n):
            image = sub.reconstruct(coords[j] @ letter)
            for i, proj in enumerate(basis.projectors):
                mat[j, i] = float(complex(np.trace(proj @ image @ proj.conj().T)).real)
        step_weight[a] = mat
    hi = [(v, (i,)) for i, v in enumerate(init)]
    lo = list(hi)
    for symbol in symbols:
        weights = step_weight[symbol]
        new_hi, new_lo = [], []
        for i in range(n):
            candidates = []
            for j in range(n):
                for value, path in (hi[j], lo[j]):
                    candidates.append((value * weights[j, i], path + (i,)))
            new_hi.append(max(candidates, key=lambda c: (c[0], [-s for s in c[1]])))
            new_lo.append(min(candidates, key=lambda c: (c[0], c[1])))
        hi, lo = new_hi, new_lo
    best_value, best_path = max(hi, key=lambda c: (c[0], [-s for s in c[1]]))
    return tuple(basis.labels[i] for i in best_path), float(best_value)


def best_path_reference(init: np.ndarray, factors: np.ndarray, letters) -> tuple:
    """Backpointer dynamic program over 2n signed prefixes, re-ranked by search.

    The O(T n^2) program that tracks both the largest and the smallest
    prefix of every state whatever the signs, with ``factors[a][j, i]``
    the weight of moving from state j to i on letter a.  Prefix k < n
    holds the largest and prefix n + k the smallest weight of a path
    ending in state k.  ``rank`` orders the prefixes' paths
    lexicographically (equal paths, such as a state's hi and lo before
    they part, share a rank) and is recomputed every step by a sort and a
    search; taking candidates in rank order makes numpy's first argmax
    the smallest path among equal weights.  Values are divided by the
    power of two nearest their largest magnitude after every step.
    Returns (state path, mantissa, exponent) with weight mantissa *
    2**exponent, for words far past what :func:`viterbi_reference` can
    check.
    """

    def rescale(vals, exponent):
        shift = math.frexp(float(np.abs(vals).max()))[1]
        return np.ldexp(vals, -shift), exponent + shift

    n = init.size
    states = np.tile(np.arange(n), 2)
    flip = np.repeat([1.0, -1.0], n)
    signed_factors = list(factors[:, states][:, :, states] * flip)
    columns = np.arange(2 * n)
    rank = states
    order = np.argsort(rank, kind="stable")
    back = []
    vals, exponent = rescale(np.concatenate([init, init]), 0)
    for a in letters:
        cand = vals[order][:, None] * signed_factors[a][order]
        pick = cand.argmax(axis=0)
        vals = cand[pick, columns] * flip
        pred = order[pick]
        back.append(pred)
        key = rank[pred] * n + states
        order = key.argsort(kind="stable")
        rank = key[order].searchsorted(key)
        vals, exponent = rescale(vals, exponent)
    hi_order = order[order < n]
    k = int(hi_order[np.argmax(vals[hi_order])])
    mantissa = float(vals[k])
    path = [k]
    for row in reversed(back):
        k = int(row[k])
        path.append(k)
    return [k % n for k in reversed(path)], mantissa, exponent


def hmm_viterbi_log(hmm, word) -> float:
    """Best hidden-path log-weight by a max-plus recursion over log factors.

    Same path weights as :func:`hmm_viterbi_enumerate`, summed in the log
    domain so long words stay finite.
    """
    with np.errstate(divide="ignore"):
        best = np.log(hmm.initial.astype(float))
        for s in (hmm.alphabet.index(x) for x in word):
            step = np.log(hmm.emission[:, s][:, None] * hmm.transition)
            best = np.max(best[:, None] + step, axis=0)
    return float(best.max())


def hmm_path_log_weight(hmm, word, path) -> float:
    """Summed log-factors of one hidden path (len(word) + 1 states)."""
    total = float(np.log(hmm.initial[path[0]]))
    for t, s in enumerate(hmm.alphabet.index(x) for x in word):
        total += float(np.log(hmm.emission[path[t], s] * hmm.transition[path[t], path[t + 1]]))
    return total


def _gram_solver(basis):
    """Real coordinates of a Hermitian matrix over ``basis`` by a Gram solve."""
    gram = np.array([[np.vdot(a, b).real for b in basis] for a in basis])

    def coords(mat):
        return np.linalg.solve(gram, np.array([np.vdot(b, mat).real for b in basis]))

    return coords


def dense_gram(basis) -> np.ndarray:
    """Gram matrix Re tr(B_i* B_j) by one dense product of the flattened basis, symmetrised."""
    flat = np.array(basis, dtype=complex).reshape(len(basis), -1)
    gram = (flat.conj() @ flat.T).real
    return (gram + gram.T) / 2.0


def hermitian_basis_reference(n: int) -> list:
    """Diagonal units, then per pair i < j the symmetric and antisymmetric elements, one at a time."""
    out = []
    for i in range(n):
        unit = np.zeros((n, n), dtype=complex)
        unit[i, i] = 1.0
        out.append(unit)
    root_half = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[i, j] = sym[j, i] = root_half
            anti = np.zeros((n, n), dtype=complex)
            anti[i, j] = -1j * root_half
            anti[j, i] = 1j * root_half
            out += [sym, anti]
    return out


def unit_diagonal_reference(basis) -> bool:
    """Element by element: distinct diagonal units, to 1e-14 off and 1e-12 on the unit."""
    seen = set()
    for mat in basis:
        if np.any(np.abs(mat - np.diag(np.diag(mat))) > 1e-14):
            return False
        diag = np.diag(mat).real
        hot = np.flatnonzero(np.abs(diag) > 1e-14)
        if hot.size != 1 or abs(diag[hot[0]] - 1.0) > 1e-12 or int(hot[0]) in seen:
            return False
        seen.add(int(hot[0]))
    return True


def superoperator_reference(basis, action, tol: float = 1e-8) -> np.ndarray:
    """Coordinate matrix of ``action`` by expanding one basis image at a time.

    Row i holds the coordinates of the image of basis element i, each
    from its own Gram solve; an image whose reconstruction misses it by
    more than ``tol`` raises ``ValueError``.
    """
    coords_of = _gram_solver(basis)
    rows = []
    for element in basis:
        image = action(element)
        coords = coords_of(image)
        if np.linalg.norm(sum(c * b for c, b in zip(coords, basis)) - image) > tol:
            raise ValueError("image lies outside the subspace")
        rows.append(coords)
    return np.vstack(rows)


def choi_reference(basis, matrix: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij E_ij ⊗ Φ(E_ij) of a full-space coordinate matrix, unit by unit.

    Off the diagonal Φ(E_ij) = Φ(S)/2 + iΦ(A)/2 with the Hermitian
    S = E_ij + E_ji and A = -iE_ij + iE_ji; each image is expanded,
    mapped by ``matrix`` and rebuilt on its own.  Symmetrised at the end.
    """
    n = basis[0].shape[0]
    coords_of = _gram_solver(basis)

    def apply(mat):
        return sum(c * b for c, b in zip(coords_of(mat) @ matrix, basis))

    choi = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == j:
                unit = np.zeros((n, n), dtype=complex)
                unit[i, i] = 1.0
                image = apply(unit)
            else:
                sym = np.zeros((n, n), dtype=complex)
                sym[i, j] = sym[j, i] = 1.0
                anti = np.zeros((n, n), dtype=complex)
                anti[i, j], anti[j, i] = -1j, 1j
                image = 0.5 * apply(sym) + 0.5j * apply(anti)
            unit_ij = np.zeros((n, n), dtype=complex)
            unit_ij[i, j] = 1.0
            choi += np.kron(unit_ij, image)
    return (choi + choi.conj().T) / 2.0


def _reference_draw(rng, values, clamp_tol: float, what: str) -> int:
    """Clamp, normalise and draw one index by inverse CDF from one scalar uniform."""
    lowest = float(values.min())
    if lowest < -clamp_tol:
        raise SamplingError(f"{what} has probability {lowest!r} below the clamp tolerance")
    clamped = np.clip(values, 0.0, None)
    total = float(clamped.sum())
    if total <= 0.0:
        raise SamplingError(f"{what} has no positive branch to sample")
    cumulative = np.cumsum(clamped / total)
    u = rng.random() * cumulative[-1]
    return min(int(np.searchsorted(cumulative, u, side="right")), len(cumulative) - 1)


def sample_reference(model, length: int, rngs, clamp_tol: float = 1e-9) -> list:
    """One word per generator, one trajectory and one scalar uniform at a time.

    HMMs draw the initial state, then an emission and a transition per
    symbol.  Walks evolve one wave, weigh each node's block and collapse
    onto the drawn node.  Chains draw by branch mass over the prefix mass
    and divide the chosen branch's coordinates by that branch's mass.
    """
    if hasattr(model, "to_hmm"):
        model = model.to_hmm()
    if hasattr(model, "emission"):
        step = _reference_hmm
    elif hasattr(model, "unitary"):
        step = _reference_walk
    elif hasattr(model, "operators"):
        step = _reference_chain
    else:
        raise ValidationError(f"cannot sample trajectories from {type(model).__name__}")
    return [step(model, length, rng, clamp_tol) for rng in rngs]


def _reference_hmm(hmm, length, rng, clamp_tol):
    symbols = hmm.alphabet.symbols
    state = _reference_draw(rng, hmm.initial, clamp_tol, "initial distribution")
    out = []
    for _ in range(length):
        out.append(symbols[_reference_draw(rng, hmm.emission[state], clamp_tol, "emission row")])
        state = _reference_draw(rng, hmm.transition[state], clamp_tol, "transition row")
    return tuple(out)


def _reference_walk(qrw, length, rng, clamp_tol):
    psi = qrw.wave
    if length and abs(float(np.linalg.norm(psi)) - 1.0) > 1e-9:
        raise ValidationError("initial wave is not normalised")
    out = []
    for _ in range(length):
        evolved = qrw.unitary @ psi
        weights = np.array(
            [float(np.sum(np.abs(evolved[qrw.block(node)]) ** 2)) for node in qrw.nodes]
        )
        index = _reference_draw(rng, weights, clamp_tol, "node distribution")
        node = qrw.nodes.symbols[index]
        if weights[index] <= 1e-15:
            raise SamplingError(f"sampled node {node!r} has zero probability")
        out.append(node)
        psi = np.zeros_like(evolved)
        psi[qrw.block(node)] = evolved[qrw.block(node)] / np.sqrt(weights[index])
    return tuple(out)


def _reference_chain(chain, length, rng, clamp_tol):
    coords = chain.initial_coords
    traces = chain.subspace.traces
    out = []
    for _ in range(length):
        mass = float(coords @ traces)
        if mass <= clamp_tol:
            raise SamplingError(f"remaining trajectory weight {mass!r} is not positive")
        branches = [coords @ m for m in chain.operators]
        masses = np.array([float(c @ traces) for c in branches])
        index = _reference_draw(rng, masses / mass, clamp_tol, "branch distribution")
        out.append(chain.alphabet.symbols[index])
        coords = branches[index] / masses[index]
    return tuple(out)


def complex_entries(data) -> np.ndarray:
    """A nested list of ``[re, im]`` pairs, parsed one pair at a time."""

    def parse(node):
        if not isinstance(node[0], list):
            re, im = node
            return complex(float(re), float(im))
        return [parse(child) for child in node]

    return np.array(parse(data), dtype=complex)


def hankel_singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values of the full N×M Hankel matrix, largest first."""
    return np.linalg.svd(matrix, compute_uv=False)


def row_basis_reference(hankel, eps: float = 1e-8) -> list:
    """Shortest-first greedy row basis by two-pass Gram-Schmidt on the full Hankel rows.

    The rank and the largest singular value come from the SVD of the
    N×M matrix; a row is eligible when its empty-suffix entry exceeds
    ``eps`` and joins when its residual norm exceeds ``eps`` times the
    largest singular value.  Raises ``ValueError`` when the eligible rows
    cannot reach the rank, worded as the library's ``DegenerateSupportError``.
    """
    singulars = hankel_singular_values(hankel.matrix)
    if singulars.size == 0 or singulars[0] <= 0.0:
        return []
    target = int(np.sum(singulars > eps * singulars[0]))
    eps_col = hankel.col_words.index(())
    chosen, ortho, skipped = [], [], 0
    for word, row in zip(hankel.row_words, hankel.matrix):
        if row[eps_col] <= eps:
            skipped += 1
            continue
        residual = row.astype(float)
        for _ in range(2):
            for q in ortho:
                residual = residual - np.dot(q, residual) * q
        norm = float(np.linalg.norm(residual))
        if norm > eps * singulars[0]:
            chosen.append(word)
            ortho.append(residual / norm)
            if len(chosen) == target:
                return chosen
    raise ValueError(
        f"found {len(chosen)} independent rows with p(v) > {eps:g} but the numerical "
        f"rank is {target} ({skipped} rows skipped for insufficient weight)"
    )


def row_basis_indices_reference(hankel, eps: float, target: int) -> list:
    """The row search of ``select_row_basis`` as indices, one basis row at a time.

    Two modified Gram-Schmidt passes, each subtracting the basis rows one
    by one, on the rows of the Hankel's factor G; a row with p(v) >
    ``eps`` joins when its residual exceeds ``eps`` times the largest
    singular value, and the search stops at ``target`` rows.
    """
    if target == 0:
        return []
    cut = eps * float(hankel.singular_values[0])
    empty = hankel._suffix_states[hankel.col_words.index(())]
    support = hankel._prefix_states @ empty
    chosen, ortho = [], []
    for i, weight in enumerate(support.tolist()):
        if weight <= eps:
            continue
        residual = hankel._row_factor[i]
        for _ in range(2):
            for q in ortho:
                residual = residual - q.dot(residual) * q
        norm = math.sqrt(residual.dot(residual))
        if norm > cut:
            chosen.append(i)
            ortho.append(residual / norm)
            if len(chosen) == target:
                break
    return chosen
