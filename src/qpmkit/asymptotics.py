"""Boundedness probes, averaged stationary limits, and limit statistics.

A bounded chain's time-averaged orbit converges to a stationary density.
Two independent routes compute it: doubling the averaging horizon until
the running averages stop moving, and projecting onto the
eigenvalue-one invariant subspace of the evolution restricted to the
orbit's span.  Both are cross-checked against each other.
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
from .process import _state_after, as_word

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
    computation routes.
    """

    limit: Density
    coords: np.ndarray
    method: str
    iterations: int | None
    krylov_dim: int | None
    spectral_gap: float | None
    stationarity_residual: float
    cross_difference: float


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
    iterative_coords, iterations = _iterative_average(chain, tol, t_max)
    spectral_coords, krylov_dim, gap = _spectral_average(chain)
    # every running average has unit trace exactly; rounding drift over the
    # ~1e8-step averaging horizons is linear in t, so project it back out
    iterative_coords = _renormalize_trace(iterative_coords, sub)
    spectral_coords = _renormalize_trace(spectral_coords, sub)
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
        krylov_dim=krylov_dim if method == "spectral" else None,
        spectral_gap=gap if method == "spectral" else None,
        stationarity_residual=float(residual),
        cross_difference=float(cross),
    )


def _renormalize_trace(coords: np.ndarray, sub) -> np.ndarray:
    mass = float(coords @ sub.traces)
    if abs(mass - 1.0) > 1e-6:
        raise ConsistencyError(f"averaged trace drifted to {mass!r}")
    return coords / mass


def _iterative_average(chain: QuantumChain, tol: float, t_max: int):
    """Running averages at doubling horizons until they stop moving.

    Convergence means two consecutive checkpoints below the tolerance
    (beating modes can dip under it once by phase accident).  If the
    horizon cap is reached first, the best checkpoint is returned as
    long as it came reasonably close.
    """
    sub = chain.subspace
    x0 = chain.initial_coords
    total = chain.total_matrix
    tau = sub.traces
    tau_norm2 = float(tau @ tau)

    def pin(matrix: np.ndarray) -> np.ndarray:
        # both the powers and the running averages fix the trace vector
        # exactly; without this projection the rounding drift of that
        # eigenvalue compounds linearly in the horizon
        defect = tau - matrix @ tau
        return matrix + np.outer(defect, tau) / tau_norm2

    partial = pin(total.copy())  # (1/t) sum of the first t powers, t = 1
    power = partial.copy()
    t = 1
    best_step = np.inf
    best = None
    best_t = t
    sub_tol_streak = 0
    while True:
        current = x0 @ partial
        if not np.all(np.isfinite(current)) or sub.norm(current) > _DIVERGENCE_CAP:
            raise DivergenceError("averaged orbit grows without bound")
        if not np.all(np.isfinite(power)) or np.abs(power).max() > 1e12:
            raise DivergenceError("evolved orbit grows without bound")
        nxt = pin((partial + power @ partial) / 2.0)
        power = pin(power @ power)
        t *= 2
        step = sub.norm(x0 @ nxt - current)
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


def _spectral_average(chain: QuantumChain):
    """Project the orbit onto the eigenvalue-one invariant subspace.

    Works in coordinates whitened by the Gram Cholesky factor so that
    Euclidean geometry matches the Hermitian-space norm, restricts the
    evolution to the span of the orbit, and splits off the
    eigenvalue-one cluster by a sorted Schur form.
    """
    import scipy.linalg

    sub = chain.subspace
    gram_chol = scipy.linalg.cholesky(sub.gram, lower=True)
    evolution = gram_chol.T @ chain.total_matrix.T @ np.linalg.inv(gram_chol.T)
    z0 = gram_chol.T @ chain.initial_coords

    scale = max(float(np.linalg.norm(z0)), 1.0)
    krylov: list[np.ndarray] = []
    vec = z0.copy()
    for _ in range(sub.dim + 1):
        residual = vec.copy()
        for q in krylov:
            residual -= np.dot(q, residual) * q
        for q in krylov:
            residual -= np.dot(q, residual) * q
        norm = float(np.linalg.norm(residual))
        if norm <= _KRYLOV_TOL * scale:
            break
        krylov.append(residual / norm)
        vec = evolution @ krylov[-1]
    basis = np.vstack(krylov)
    restricted = basis @ evolution @ basis.T

    try:
        schur_t, schur_z, n_cluster = scipy.linalg.schur(
            restricted.astype(complex),
            output="complex",
            sort=lambda lam: abs(lam - 1.0) <= _CLUSTER_TOL,
        )
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - library failure
        raise NumericError(f"Schur decomposition failed: {exc}") from exc
    eigenvalues = np.diag(schur_t)
    outside = np.abs(eigenvalues[n_cluster:])
    if outside.size and outside.max() > 1.0 + _CLUSTER_TOL:
        raise DivergenceError(
            f"evolution has spectral radius {float(outside.max()):.6f} > 1 on the orbit span"
        )
    if n_cluster == 0:
        raise ConsistencyError(
            "no eigenvalue-one component on the orbit span; the trace cannot be preserved"
        )
    head = schur_t[:n_cluster, :n_cluster]
    defect = float(np.linalg.norm(head - np.diag(np.diag(head))))
    if defect > _DEFECT_TOL:
        raise ConsistencyError(
            f"eigenvalue-one cluster is defective (off-diagonal mass {defect:.3e}); "
            "incompatible with a bounded orbit"
        )
    u0 = basis @ z0
    y = schur_z.conj().T @ u0
    if n_cluster < len(y):
        coupling = scipy.linalg.solve_sylvester(
            head, -schur_t[n_cluster:, n_cluster:], schur_t[:n_cluster, n_cluster:]
        )
        y_head = y[:n_cluster] + coupling @ y[n_cluster:]
    else:
        y_head = y[:n_cluster]
    projected = schur_z[:, :n_cluster] @ y_head
    z_limit = basis.T @ projected
    coords = scipy.linalg.solve_triangular(gram_chol.T, z_limit.real, lower=False)
    imag = float(np.max(np.abs(z_limit.imag))) if np.iscomplexobj(z_limit) else 0.0
    if imag > 1e-8:
        raise NumericError(f"spectral limit has imaginary residue {imag:.3e}")
    gap = float(1.0 - outside.max()) if outside.size else None
    return coords, len(krylov), gap


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
    coords = _state_after(result.coords, as_word(word, chain.alphabet), chain.letter_matrix)
    return float(coords @ chain.subspace.traces)


def stationary_letter_distribution(
    chain: QuantumChain, result: CesaroResult | None = None, **limit_kwargs
) -> dict[str, float]:
    if result is None:
        result = cesaro_limit(chain, **limit_kwargs)
    return {
        a: stationary_word_probability(chain, (a,), result) for a in chain.alphabet
    }
