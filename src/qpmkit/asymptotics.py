"""Boundedness probes, averaged stationary limits, and limit statistics.

A bounded chain's time-averaged orbit converges to a stationary density:
by the mean ergodic theorem, the projection of the initial density onto
the evolution's fixed space.  It is computed exactly on the orbit's
Krylov space, built once by matrix–vector products, by projecting onto
the eigenvalue-one invariant subspace of the evolution restricted to
that space; the same spectrum decides boundedness.  The limit's
stationarity and trace are checked on the full coordinates.  A process
averages the same way on its linear form.  Everything runs on numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULTS, Config
from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    DivergenceError,
    NumericError,
    ValidationError,
)
from .hermitian import Density, require_hermitian
from .chain import ChainKind, OperatorSubspace, QuantumChain, chain_process
from .process import Alphabet, LinearForm, Process, word_value

__all__ = [
    "BoundednessProbe",
    "boundedness_probe",
    "CesaroResult",
    "cesaro_limit",
    "limit_functional",
    "stationary_word_probability",
    "stationary_letter_distribution",
]

_CLUSTER_TOL = 1e-8
_DEFECT_TOL = 1e-6
_SPLIT_TOL = 1e-6  # peripheral defect tests: rounding splits a Jordan block by ~1e-8
_KRYLOV_TOL = 1e-12


class _Reading(NamedTuple):
    """A chain or a process as the analysis reads it; a process's inner product is Euclidean."""

    alphabet: Alphabet
    form: LinearForm
    total: np.ndarray
    subspace: OperatorSubspace | None

    def gram_dot(self, coords: np.ndarray) -> np.ndarray:
        return coords if self.subspace is None else self.subspace.gram_dot(coords)

    def norm(self, coords: np.ndarray) -> float:
        return float(np.sqrt(max(self.gram_dot(coords) @ coords, 0.0)))


def _form(source: QuantumChain | Process) -> tuple[Alphabet, LinearForm]:
    """The source's alphabet and linear form; a chain's is its process's."""
    process = chain_process(source) if isinstance(source, QuantumChain) else source
    return process.alphabet, process.linear


def _read(source: QuantumChain | Process) -> _Reading:
    """A chain reads as its process, with its cached ``total_matrix`` and its subspace."""
    alphabet, form = _form(source)
    if isinstance(source, QuantumChain):
        return _Reading(alphabet, form, source.total_matrix, source.subspace)
    return _Reading(alphabet, form, np.add.reduce(form.matrices, axis=0, initial=0.0), None)


@dataclass(frozen=True)
class BoundednessProbe:
    """Squared Hermitian norms tr((mu^t Q)^2) of the evolved initial density.

    ``values`` are evidence only.  ``growing`` comes from the spectrum of
    the evolution on the orbit's Krylov space: the orbit is bounded
    exactly when the spectral radius is at most 1 (within
    ``_CLUSTER_TOL``) and every unit-modulus eigenvalue is semisimple.
    ``verdict`` names the certificate.
    """

    values: np.ndarray
    max_square_trace: float
    growing: bool
    verdict: str


def boundedness_probe(chain: QuantumChain, horizon: int = 100) -> BoundednessProbe:
    """Track tr((mu^t Q)^2) for t = 0..horizon; decide growth from the orbit spectrum."""
    if horizon < 1:
        raise ValidationError("probe horizon must be >= 1")
    reading = _read(chain)
    coords = reading.form.initial
    values = np.empty(horizon + 1)
    for t in range(horizon + 1):
        values[t] = float(reading.gram_dot(coords) @ coords)
        if not np.isfinite(values[t]):
            values = values[: t + 1]
            break
        coords = coords @ reading.total
    a = _orbit(reading).evolution.T
    eigenvalues = np.linalg.eigvals(a)
    found = _growth(a, eigenvalues, _peripheral(eigenvalues))
    verdict = f"growing: {found}" if found else (
        f"bounded: spectral radius {float(np.abs(eigenvalues).max(initial=0.0)):.6f} <= 1 "
        "on the orbit span, peripheral spectrum semisimple"
    )
    max_square_trace = float(np.max(values[np.isfinite(values)]))
    return BoundednessProbe(values, max_square_trace, found is not None, verdict)


@dataclass(frozen=True)
class CesaroResult:
    """A stationary averaged limit, with the orbit spectrum that certifies it.

    ``coords`` are the limit's coordinates over the chain's subspace basis
    or on the process's form, which has no density: ``limit`` is None.
    ``invariance_residual`` measures how far the orbit's Krylov space is
    from invariant (see :class:`_Orbit`).  The other fields are described
    in :func:`_spectral_average`.
    """

    limit: Density | None
    coords: np.ndarray
    krylov_dim: int
    stationarity_residual: float
    invariance_residual: float
    spectral_gap: float | None
    peripheral_spectrum: tuple[complex, ...]
    fixed_space_dim: int
    projector_condition: float

    @property
    def iterations(self) -> None:
        """Always ``None``; kept read-only for readers of the removed doubling route."""
        return None

    @property
    def cross_difference(self) -> float:
        """Always ``0.0``; kept read-only for readers of the removed cross-route check."""
        return 0.0


def cesaro_limit(
    source: QuantumChain | Process, method: str = "spectral", *, config: Config = DEFAULTS
) -> CesaroResult:
    """Averaged limit of the evolved initial density, or of a process's initial row.

    ``method`` is accepted for compatibility: ``"iterative"`` and
    ``"spectral"`` give the same result; any other name raises
    :class:`ValidationError`.  See :func:`_spectral_average` for the
    errors of an orbit without a limit.  A limit that is not stationary
    (residual above ``stationarity_tol``) or has lost its trace, its value
    on the end vector, raises :class:`ConsistencyError`.
    """
    if method not in ("iterative", "spectral"):
        raise ValidationError(f"unknown method {method!r}")
    reading = _read(source)
    orbit = _orbit(reading)
    projected, spectrum = _spectral_average(orbit)
    # the projection keeps the trace in exact arithmetic: divide out its
    # rounding, and refuse a mass that moved
    coords = projected @ orbit.basis
    mass = float(coords @ reading.form.end)
    if abs(mass - 1.0) > 1e-6:
        raise ConsistencyError(f"averaged trace drifted to {mass!r}")
    coords = coords / mass
    residual = reading.norm(coords @ reading.total - coords)
    if residual > config.stationarity_tol:
        raise ConsistencyError(f"limit is not stationary (residual {residual:.3e})")
    trace = float(coords @ reading.form.end)
    if abs(trace - 1.0) > 1e-8:
        raise ConsistencyError(f"limit trace drifted to {trace!r}")
    limit = None
    if isinstance(source, QuantumChain):
        matrix = require_hermitian(reading.subspace.reconstruct(coords), tol=1e-8)
        if source.kind is ChainKind.QMC:
            limit = Density.quantum(matrix, trace_tol=1e-8, psd_tol=1e-8)
        else:
            limit = Density.generalized(matrix, trace_tol=1e-8)
    return CesaroResult(
        limit=limit,
        coords=coords,
        krylov_dim=len(orbit.basis),
        stationarity_residual=float(residual),
        invariance_residual=orbit.invariance_residual,
        **spectrum,
    )


@dataclass(frozen=True)
class _Orbit:
    """The orbit's Krylov space span{x0 M^t}, with the evolution restricted to it.

    ``basis`` holds k coordinate rows, orthonormal under the reading's inner
    product.  In coordinates c on it an element is ``c @ basis``, the
    initial density is ``start`` and one step is ``c @ evolution``.
    ``invariance_residual`` is that product's norm of the parts of the
    basis's images that leave the span, ‖(I − QQ*)MQ‖.
    """

    basis: np.ndarray
    evolution: np.ndarray
    start: np.ndarray
    invariance_residual: float


def _orbit(reading: _Reading) -> _Orbit:
    """Gram–Schmidt on x0, q0 M, q1 M, ... by matrix–vector products.

    Each new image is orthogonalised twice against the basis so far
    (classical Gram–Schmidt, repeated); the span is closed when what is
    left falls below ``_KRYLOV_TOL`` times the initial norm (at least 1).
    """
    total, x0 = reading.total, reading.form.initial
    scale = max(reading.norm(x0), 1.0)
    rows: list[np.ndarray] = []  # basis rows q_j
    weighted: list[np.ndarray] = []  # q_j @ gram
    images: list[np.ndarray] = []  # q_j @ total
    vec = x0
    # The products below are matrix-vector or k rows thin.  einsum runs them
    # in numpy's own loops; through a threaded BLAS each call's dispatch can
    # cost more than its arithmetic (a 2-core host took 0.32 s for the 34
    # steps at dimension 1024 through BLAS, 0.02-0.05 s this way).
    while len(rows) < reading.form.dim:
        residual = vec
        if rows:
            basis, gram_basis = np.array(rows), np.array(weighted)
            for _ in range(2):
                coefficients = np.einsum("ij,j->i", gram_basis, residual)
                residual = residual - np.einsum("i,ij->j", coefficients, basis)
        residual_gram = reading.gram_dot(residual)
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
        invariance_residual=float(np.sqrt(max(np.sum(reading.gram_dot(leak) * leak), 0.0))),
    )


def _peripheral(eigenvalues: np.ndarray) -> np.ndarray:
    """The eigenvalues within ``_CLUSTER_TOL`` of the unit circle, sorted by angle."""
    peripheral = eigenvalues[np.abs(np.abs(eigenvalues) - 1.0) <= _CLUSTER_TOL]
    return peripheral[np.argsort(np.angle(peripheral), kind="stable")]


def _invariant_pair(a: np.ndarray, cluster: np.ndarray, centre):
    """Invariant subspaces of ``a`` for a ``cluster`` of its eigenvalues near ``centre``.

    The orthonormal right and left invariant subspaces R and L are the
    null spaces of p(a) and p(a)* for p(z) = ∏(z − λ) over the cluster,
    read off one SVD.  On a Krylov space each eigenvalue has a single
    Jordan block, so a semisimple cluster is one eigenvalue; a larger one
    must show its defect.  That defect is the off-diagonal mass of the
    cluster's Schur block T: ‖R*aR − centre·I‖ equals ‖T − centre·I‖,
    whose diagonal part, each |λ − centre| within the cluster's radius,
    lies below ``_DEFECT_TOL``.
    """
    k = len(a)
    poly = np.eye(k, dtype=complex)
    for lam in cluster:
        poly = poly @ (a - lam * np.eye(k))
    u, _, vh = np.linalg.svd(poly)
    right, left = vh[k - cluster.size :].conj().T, u[:, k - cluster.size :]
    defect = float(np.linalg.norm(right.conj().T @ a @ right - centre * np.eye(cluster.size)))
    return right, left, defect


def _growth(a: np.ndarray, eigenvalues: np.ndarray, centres) -> str | None:
    """Why the orbit grows (radius above one, or a defective one of ``centres``), or None."""
    radius = float(np.abs(eigenvalues).max(initial=0.0))
    if radius > 1.0 + _CLUSTER_TOL:
        return f"evolution has spectral radius {radius:.6f} > 1 on the orbit span"
    for centre in centres:
        defect = _invariant_pair(a, eigenvalues[abs(eigenvalues - centre) <= _SPLIT_TOL], centre)[2]
        if defect > _DEFECT_TOL:
            return (
                f"unit-modulus eigenvalue {complex(centre):.6f} is defective "
                f"(off-diagonal mass {defect:.3e}) on the orbit span"
            )
    return None


def _spectral_average(orbit: _Orbit):
    """Project the orbit's start onto the eigenvalue-one invariant subspace.

    By the mean ergodic theorem, the Cesàro means of a power-bounded
    evolution converge to the projection onto its fixed space.  On the
    orbit's Krylov coordinates the evolution acts on columns as
    ``a = evolution.T``; with R and L the invariant subspaces of its
    eigenvalue-one cluster (:func:`_invariant_pair`), the limit is the
    oblique projection R (L*R)⁻¹ L* of the start.  A radius above one
    raises :class:`DivergenceError`; a missing cluster, or a defective
    one, raises :class:`ConsistencyError`; only then does a defective
    unit-modulus eigenvalue off it raise :class:`DivergenceError`.

    Returns the projected coordinates and the spectrum's fields of
    :class:`CesaroResult`: ``spectral_gap``, 1 minus the largest modulus
    off the cluster (``None`` if there is none), exactly 0.0 when an
    eigenvalue off it is peripheral, so that rounding never reads as
    decay; ``peripheral_spectrum``, the eigenvalues within
    ``_CLUSTER_TOL`` of the unit circle sorted by angle, where any other
    than 1 keep the orbit rotating and only its average converges;
    ``fixed_space_dim``, the cluster's size; and
    ``projector_condition``, the projector's norm ‖(L*R)⁻¹‖, which is 1
    when it is orthogonal.
    """
    a = orbit.evolution.T
    eigenvalues = np.linalg.eigvals(a)
    near = np.abs(eigenvalues - 1.0) <= _CLUSTER_TOL
    outside = np.abs(eigenvalues[~near])
    found = _growth(a, eigenvalues, ())
    if found:
        raise DivergenceError(found)
    if not near.any():
        raise ConsistencyError(
            "no eigenvalue-one component on the orbit span; the trace cannot be preserved"
        )
    right, left, defect = _invariant_pair(a, eigenvalues[near], 1.0)
    if defect > _DEFECT_TOL:
        raise ConsistencyError(
            f"eigenvalue-one cluster is defective (off-diagonal mass {defect:.3e}); "
            "incompatible with a bounded orbit"
        )
    rotating = _peripheral(eigenvalues[~near])
    found = _growth(a, eigenvalues, rotating)
    if found:
        raise DivergenceError(found)
    pairing = left.conj().T @ right
    projected = right @ np.linalg.solve(pairing, left.conj().T @ orbit.start)
    imag = float(np.max(np.abs(projected.imag)))
    if imag > 1e-8:
        raise NumericError(f"spectral limit has imaginary residue {imag:.3e}")
    gap = None if not outside.size else 0.0 if rotating.size else float(1.0 - outside.max())
    return projected.real, {
        "spectral_gap": gap,
        "peripheral_spectrum": tuple(complex(z) for z in _peripheral(eigenvalues)),
        "fixed_space_dim": int(near.sum()),
        "projector_condition": float(np.linalg.norm(np.linalg.inv(pairing), 2)),
    }


def limit_functional(result: CesaroResult, functional_matrix) -> float:
    """Evaluate tr(X Q) for the limit density Q and a Hermitian matrix X."""
    if result.limit is None:
        raise ValidationError("a process's limit has no density")
    x = require_hermitian(functional_matrix)
    if x.shape != result.limit.matrix.shape:
        raise DimensionMismatchError(
            f"functional shape {x.shape} does not match the limit {result.limit.matrix.shape}"
        )
    value = complex(np.trace(x @ result.limit.matrix))
    return float(value.real)


def stationary_word_probability(
    source: QuantumChain | Process, word, result: CesaroResult | None = None, **limit_kwargs
) -> float:
    """The word's value from the stationary limit: its composed letters, then the end vector."""
    if result is None:
        result = cesaro_limit(source, **limit_kwargs)
    alphabet, form = _form(source)
    return word_value(result.coords, form.matrices, alphabet.indices(word), form.end)


def stationary_letter_distribution(
    source: QuantumChain | Process, result: CesaroResult | None = None, **limit_kwargs
) -> dict[str, float]:
    if result is None:
        result = cesaro_limit(source, **limit_kwargs)
    alphabet, form = _form(source)
    return {
        a: word_value(result.coords, form.matrices, [i], form.end) for i, a in enumerate(alphabet)
    }
