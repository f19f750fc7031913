"""Boundedness probes, averaged stationary limits, and limit statistics.

A bounded chain's time-averaged orbit converges to a stationary density.
Both routes that compute it run on the orbit's Krylov space, built once
by matrix–vector products: doubling the averaging horizon until the
running averages stop moving, and projecting onto the eigenvalue-one
invariant subspace of the evolution restricted to that space.  They are
cross-checked against each other, and the limit's stationarity is
checked on the full coordinates.  Everything runs on numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    DivergenceError,
    NumericError,
    ValidationError,
)
from .hermitian import Density, require_hermitian
from .chain import ChainKind, QuantumChain
from .process import word_value

__all__ = [
    "BoundednessProbe",
    "boundedness_probe",
    "CesaroResult",
    "cesaro_limit",
    "limit_functional",
    "stationary_word_probability",
    "stationary_letter_distribution",
]

_DIVERGENCE_CAP = 1e9
_CLUSTER_TOL = 1e-8
_DEFECT_TOL = 1e-6
_KRYLOV_TOL = 1e-12


@dataclass(frozen=True)
class BoundednessProbe:
    """Squared Hermitian norms tr((mu^t Q)^2) of the evolved initial density."""

    values: np.ndarray
    max_square_trace: float
    growing: bool


def boundedness_probe(chain: QuantumChain, horizon: int = 100) -> BoundednessProbe:
    """Track tr((mu^t Q)^2) for t = 0..horizon and flag sustained growth."""
    if horizon < 1:
        raise ValidationError("probe horizon must be >= 1")
    gram = chain.subspace.gram
    coords = chain.initial_coords
    total = chain.total_matrix
    values = np.empty(horizon + 1)
    for t in range(horizon + 1):
        values[t] = float(coords @ gram @ coords)
        if not np.isfinite(values[t]):
            values = values[: t + 1]
            break
        coords = coords @ total
    half = len(values) // 2
    first = float(np.max(values[:half])) if half else float(values[0])
    second = float(np.max(values[half:]))
    growing = bool(not np.isfinite(second) or second > first * (1 + 1e-9) + 1e-12)
    return BoundednessProbe(values, float(np.max(values[np.isfinite(values)])), growing)


@dataclass(frozen=True)
class CesaroResult:
    """A stationary averaged limit with convergence metadata.

    ``coords`` are the limit's coordinates over the chain's subspace
    basis; ``cross_difference`` is the distance between the two
    computation routes.  ``invariance_residual`` measures how far the
    orbit's Krylov space, on which both routes run, is from invariant
    under the evolution (see :class:`_Orbit`).
    """

    limit: Density
    coords: np.ndarray
    method: str
    iterations: int | None
    krylov_dim: int | None
    spectral_gap: float | None
    stationarity_residual: float
    cross_difference: float
    invariance_residual: float


def cesaro_limit(
    chain: QuantumChain,
    method: str = "iterative",
    tol: float = DEFAULTS.cesaro_tol,
    t_max: int = DEFAULTS.cesaro_t_max,
    stationarity_tol: float = DEFAULTS.stationarity_tol,
) -> CesaroResult:
    """Averaged limit of the evolved initial density.

    ``method`` selects which route's numbers are reported; the other
    route always runs as a cross-check and a disagreement beyond
    ``10 * tol`` raises :class:`ConsistencyError`.  Unbounded growth
    raises :class:`DivergenceError`.
    """
    if method not in ("iterative", "spectral"):
        raise ValidationError(f"unknown method {method!r}")
    sub = chain.subspace
    orbit = _orbit(chain)
    iterative, iterations = _iterative_average(orbit, tol, t_max)
    spectral, gap = _spectral_average(orbit)
    # every running average has unit trace exactly; rounding drift over the
    # ~1e8-step averaging horizons is linear in t, so project it back out
    iterative_coords = _renormalize_trace(iterative @ orbit.basis, sub)
    spectral_coords = _renormalize_trace(spectral @ orbit.basis, sub)
    cross = sub.norm(iterative_coords - spectral_coords)
    if cross > 10 * tol:
        raise ConsistencyError(
            f"averaging routes disagree by {cross:.3e} (allowed {10 * tol:.3e})"
        )
    coords = iterative_coords if method == "iterative" else spectral_coords
    residual = sub.norm(coords @ chain.total_matrix - coords)
    if residual > stationarity_tol:
        raise ConsistencyError(f"limit is not stationary (residual {residual:.3e})")
    trace = float(coords @ sub.traces)
    if abs(trace - 1.0) > 1e-8:
        raise ConsistencyError(f"limit trace drifted to {trace!r}")
    matrix = sub.reconstruct(coords)
    matrix = require_hermitian(matrix, tol=1e-8)
    if chain.kind is ChainKind.QMC:
        limit = Density.quantum(matrix, trace_tol=1e-8, psd_tol=1e-8)
    else:
        limit = Density.generalized(matrix, trace_tol=1e-8)
    return CesaroResult(
        limit=limit,
        coords=coords,
        method=method,
        iterations=iterations if method == "iterative" else None,
        krylov_dim=len(orbit.basis) if method == "spectral" else None,
        spectral_gap=gap if method == "spectral" else None,
        stationarity_residual=float(residual),
        cross_difference=float(cross),
        invariance_residual=orbit.invariance_residual,
    )


def _renormalize_trace(coords: np.ndarray, sub) -> np.ndarray:
    mass = float(coords @ sub.traces)
    if abs(mass - 1.0) > 1e-6:
        raise ConsistencyError(f"averaged trace drifted to {mass!r}")
    return coords / mass


@dataclass(frozen=True)
class _Orbit:
    """The orbit's Krylov space span{x0 M^t}, with the evolution restricted to it.

    ``basis`` holds k coordinate rows, orthonormal under the Gram inner
    product.  In coordinates c on it an element is ``c @ basis``, the
    initial density is ``start`` and one step is ``c @ evolution``;
    ``traces`` is the trace functional.  ``invariance_residual`` is the
    Frobenius Hermitian-space norm of the parts of the basis's images
    that leave the span, ‖(I − QQ*)MQ‖.
    """

    basis: np.ndarray
    evolution: np.ndarray
    start: np.ndarray
    traces: np.ndarray
    invariance_residual: float


def _orbit(chain: QuantumChain) -> _Orbit:
    """Gram–Schmidt on x0, q0 M, q1 M, ... by matrix–vector products.

    Each new image is orthogonalised twice against the basis so far
    (classical Gram–Schmidt, repeated); the span is closed when what is
    left falls below ``_KRYLOV_TOL`` times the initial norm (at least 1).
    """
    sub = chain.subspace
    total = chain.total_matrix
    x0 = chain.initial_coords
    scale = max(sub.norm(x0), 1.0)
    rows: list[np.ndarray] = []  # basis rows q_j
    weighted: list[np.ndarray] = []  # q_j @ gram
    images: list[np.ndarray] = []  # q_j @ total
    vec = x0
    # The products below are matrix-vector or k rows thin.  einsum runs them
    # in numpy's own loops; through a threaded BLAS each call's dispatch can
    # cost more than its arithmetic (a 2-core host took 0.32 s for the 34
    # steps at dimension 1024 through BLAS, 0.02-0.05 s this way).
    while len(rows) < sub.dim:
        residual = vec
        if rows:
            basis, gram_basis = np.array(rows), np.array(weighted)
            for _ in range(2):
                coefficients = np.einsum("ij,j->i", gram_basis, residual)
                residual = residual - np.einsum("i,ij->j", coefficients, basis)
        residual_gram = sub.gram_dot(residual)
        norm = float(np.sqrt(max(residual_gram @ residual, 0.0)))
        if norm <= _KRYLOV_TOL * scale:
            break
        rows.append(residual / norm)
        weighted.append(residual_gram / norm)
        vec = np.einsum("i,ij->j", rows[-1], total)
        images.append(vec)
    basis, weighted, images = np.array(rows), np.array(weighted), np.array(images)
    evolution = np.einsum("ik,jk->ij", images, weighted)
    leak = images - np.einsum("ij,jk->ik", evolution, basis)
    return _Orbit(
        basis=basis,
        evolution=evolution,
        start=weighted @ x0,
        traces=basis @ sub.traces,
        invariance_residual=float(np.sqrt(max(np.sum(sub.gram_dot(leak) * leak), 0.0))),
    )


def _iterative_average(orbit: _Orbit, tol: float, t_max: int):
    """Running averages at doubling horizons until they stop moving.

    Convergence means two consecutive checkpoints below the tolerance
    (beating modes can dip under it once by phase accident).  If the
    horizon cap is reached first, the best checkpoint is returned as
    long as it came reasonably close.  Runs on the orbit's Krylov
    coordinates, where the Hermitian-space norm is the Euclidean one.
    """
    x0 = orbit.start
    tau = orbit.traces
    tau_norm2 = float(tau @ tau)
    norm = np.linalg.norm

    def pin(matrix: np.ndarray) -> np.ndarray:
        # both the powers and the running averages fix the trace vector
        # exactly; without this projection the rounding drift of that
        # eigenvalue compounds linearly in the horizon
        defect = tau - matrix @ tau
        return matrix + np.outer(defect, tau) / tau_norm2

    partial = pin(orbit.evolution.copy())  # (1/t) sum of the first t powers, t = 1
    power = partial.copy()
    t = 1
    best_step = np.inf
    best = None
    best_t = t
    sub_tol_streak = 0
    while True:
        current = x0 @ partial
        if not np.all(np.isfinite(current)) or norm(current) > _DIVERGENCE_CAP:
            raise DivergenceError("averaged orbit grows without bound")
        if not np.all(np.isfinite(power)) or np.abs(power).max() > 1e12:
            raise DivergenceError("evolved orbit grows without bound")
        nxt = pin((partial + power @ partial) / 2.0)
        power = pin(power @ power)
        t *= 2
        step = float(norm(x0 @ nxt - current))
        partial = nxt
        if np.isfinite(step) and step <= tol:
            # beating modes can slip under the tolerance at a single
            # phase-lucky checkpoint; demand two in a row
            sub_tol_streak += 1
            if sub_tol_streak >= 2:
                return x0 @ partial, t
        else:
            sub_tol_streak = 0
        if np.isfinite(step) and step < best_step:
            best_step = step
            best = x0 @ partial
            best_t = t
        if t >= t_max:
            if best is not None and best_step <= 100 * tol:
                return best, best_t
            raise NumericError(
                f"averages still moving by {best_step:.3e} at horizon {t}; limit not resolved"
            )


def _spectral_average(orbit: _Orbit):
    """Project the orbit onto the eigenvalue-one invariant subspace.

    Works on the orbit's Krylov coordinates, where the evolution acts on
    columns as ``a = evolution.T``.  The eigenvalues of ``a`` within
    ``_CLUSTER_TOL`` of one form the cluster.  Its right and left
    invariant subspaces are the null spaces of p(a) and p(a)* for
    p(z) = ∏(z − λ) over the cluster, read off one SVD; the limit is the
    oblique projection R (L*R)⁻¹ L* of the start.  On a Krylov space each
    eigenvalue has a single Jordan block, so a semisimple cluster is one
    eigenvalue; a larger one must show its defect.  That defect is the
    off-diagonal mass of the cluster's Schur block T: ‖R*aR − I‖ equals
    ‖T − I‖, whose diagonal part, each |λ − 1| ≤ ``_CLUSTER_TOL``, lies
    far below ``_DEFECT_TOL``.
    """
    a = orbit.evolution.T
    k = len(a)
    eigenvalues = np.linalg.eigvals(a)
    near = np.abs(eigenvalues - 1.0) <= _CLUSTER_TOL
    outside = np.abs(eigenvalues[~near])
    if outside.size and outside.max() > 1.0 + _CLUSTER_TOL:
        raise DivergenceError(
            f"evolution has spectral radius {float(outside.max()):.6f} > 1 on the orbit span"
        )
    cluster = eigenvalues[near]
    if cluster.size == 0:
        raise ConsistencyError(
            "no eigenvalue-one component on the orbit span; the trace cannot be preserved"
        )
    poly = np.eye(k, dtype=complex)
    for lam in cluster:
        poly = poly @ (a - lam * np.eye(k))
    u, _, vh = np.linalg.svd(poly)
    right = vh[k - cluster.size :].conj().T
    left = u[:, k - cluster.size :]
    defect = float(np.linalg.norm(right.conj().T @ a @ right - np.eye(cluster.size)))
    if defect > _DEFECT_TOL:
        raise ConsistencyError(
            f"eigenvalue-one cluster is defective (off-diagonal mass {defect:.3e}); "
            "incompatible with a bounded orbit"
        )
    projected = right @ np.linalg.solve(left.conj().T @ right, left.conj().T @ orbit.start)
    imag = float(np.max(np.abs(projected.imag)))
    if imag > 1e-8:
        raise NumericError(f"spectral limit has imaginary residue {imag:.3e}")
    gap = float(1.0 - outside.max()) if outside.size else None
    return projected.real, gap


def limit_functional(result: CesaroResult, functional_matrix) -> float:
    """Evaluate tr(X Q) for the limit density Q and a Hermitian matrix X."""
    x = require_hermitian(functional_matrix)
    if x.shape != result.limit.matrix.shape:
        raise DimensionMismatchError(
            f"functional shape {x.shape} does not match the limit {result.limit.matrix.shape}"
        )
    value = complex(np.trace(x @ result.limit.matrix))
    return float(value.real)


def stationary_word_probability(
    chain: QuantumChain,
    word,
    result: CesaroResult | None = None,
    **limit_kwargs,
) -> float:
    """tr of the word's composed operators applied to the stationary limit."""
    if result is None:
        result = cesaro_limit(chain, **limit_kwargs)
    letters = chain.alphabet.indices(word)
    return word_value(result.coords, chain.letter_matrices, letters, chain.subspace.traces)


def stationary_letter_distribution(
    chain: QuantumChain, result: CesaroResult | None = None, **limit_kwargs
) -> dict[str, float]:
    if result is None:
        result = cesaro_limit(chain, **limit_kwargs)
    return {
        a: stationary_word_probability(chain, (a,), result) for a in chain.alphabet
    }
