"""Complex and Hermitian matrix primitives.

Inner products, spectral decompositions, positivity and unitarity tests,
and density matrices (quantum: positive semidefinite with unit trace;
generalized: unit trace only).  Everything here is a pure function on
numpy arrays plus two small frozen result types.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import DEFAULTS
from .errors import DimensionMismatchError, NumericError, ValidationError

__all__ = [
    "as_complex_matrix",
    "hermitian_defect",
    "hermitian_defects",
    "is_hermitian",
    "require_hermitian",
    "require_hermitian_stack",
    "hermitian_inner",
    "SpectralDecomposition",
    "spectral_decompose",
    "is_nonnegative",
    "is_unitary",
    "DensityKind",
    "Density",
    "pure_state_density",
]

# Eigenvalues closer than this are treated as one degenerate cluster.
CLUSTER_GAP = 1e-8


def read_only_array(value, dtype) -> np.ndarray:
    """``value`` as a read-only C-contiguous array of ``dtype``: how every model stores its arrays.

    An array that owns its memory in that dtype and layout is frozen in
    place; anything else (a list, another dtype or layout, a view) is
    converted or copied first, so no writable alias of the result remains.
    """
    arr = np.asarray(value, dtype=dtype, order="C")
    if not arr.flags.owndata:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def as_complex_matrix(value) -> np.ndarray:
    """Coerce ``value`` to a 2-D complex array, rejecting non-finite entries."""
    mat = np.asarray(value, dtype=complex)
    if mat.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValidationError("matrix contains non-finite entries")
    return mat


def _square_matrix(value) -> np.ndarray:
    """Coerce ``value`` to a finite square complex matrix."""
    mat = as_complex_matrix(value)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def hermitian_defect(matrix) -> float:
    """Largest entrywise deviation of a square matrix from its adjoint (0 when empty)."""
    return float(hermitian_defects(_square_matrix(matrix)[None])[0])


def hermitian_defects(stack: np.ndarray) -> np.ndarray:
    """:func:`hermitian_defect` of each matrix of a (count, n, n) stack."""
    return np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)


def is_hermitian(matrix, tol: float = DEFAULTS.hermitian_tol) -> bool:
    return hermitian_defect(matrix) <= tol


def require_hermitian(matrix, tol: float = DEFAULTS.hermitian_tol) -> np.ndarray:
    """Validate self-adjointness within ``tol``; return the symmetrized matrix.

    Symmetrizing ((A + A*) / 2) removes rounding-level asymmetry so that
    downstream eigensolvers see an exactly Hermitian operand.
    """
    return require_hermitian_stack(_square_matrix(matrix)[None], tol)[0]


def require_hermitian_stack(stack: np.ndarray, tol: float = DEFAULTS.hermitian_tol) -> np.ndarray:
    """:func:`require_hermitian` of each matrix of a finite complex (count, n, n) stack, count >= 1.

    The error gives the defect of the first matrix out of tolerance.
    """
    defects = hermitian_defects(stack)
    if defects.max() > tol:
        raise _not_self_adjoint(float(defects[defects > tol][0]), tol)
    return (stack + stack.conj().transpose(0, 2, 1)) / 2.0


def _not_self_adjoint(defect: float, tol: float) -> ValidationError:
    return ValidationError(f"matrix is not self-adjoint (defect {defect:.3e} > {tol:.3e})")


def hermitian_inner(first, second) -> complex:
    """Inner product tr(C* D); conjugate-linear in the first argument."""
    c = as_complex_matrix(first)
    d = as_complex_matrix(second)
    if c.shape != d.shape:
        raise DimensionMismatchError(f"shape mismatch: {c.shape} vs {d.shape}")
    return complex(np.vdot(c, d))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order with matching orthonormal eigenvectors.

    ``eigenvectors[:, i]`` belongs to ``eigenvalues[i]``.  Within a
    numerically degenerate cluster only basis-independent quantities
    (projectors, traces) are meaningful.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def projector(self, index: int) -> np.ndarray:
        u = self.eigenvectors[:, index]
        return np.outer(u, u.conj())


def _phase_normalize(columns: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    out = columns.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > tol)
        if nz.size:
            pivot = col[nz[0]]
            out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


def _column_key(col: np.ndarray) -> tuple:
    return tuple(
        value
        for re, im in zip(np.round(col.real, 10), np.round(col.imag, 10))
        for value in (re, im)
    )


def spectral_decompose(
    matrix,
    hermitian_tol: float = DEFAULTS.hermitian_tol,
) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix with a deterministic ordering.

    Eigenvalues are sorted in descending order.  Inside a degenerate
    cluster (eigenvalue gap below :data:`CLUSTER_GAP`) the eigenvectors are
    re-orthonormalized and ordered by the lexicographic order of their
    phase-normalized components, so repeated runs agree.
    """
    q = require_hermitian(matrix, hermitian_tol)
    try:
        values, vectors = np.linalg.eigh(q)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    values = values[::-1].copy()
    vectors = _phase_normalize(vectors[:, ::-1].copy())

    start = 0
    n = values.shape[0]
    for stop in range(1, n + 1):
        at_break = stop == n or (values[stop - 1] - values[stop]) > CLUSTER_GAP
        if not at_break:
            continue
        if stop - start > 1:
            block = vectors[:, start:stop]
            order = sorted(range(block.shape[1]), key=lambda j: _column_key(block[:, j]))
            block = block[:, order]
            block, _ = np.linalg.qr(block)
            vectors[:, start:stop] = _phase_normalize(block)
        start = stop
    return SpectralDecomposition(values, vectors)


def is_nonnegative(matrix, tol: float = DEFAULTS.psd_tol) -> bool:
    """True when every eigenvalue of the Hermitian input is >= -tol."""
    q = require_hermitian(matrix)
    if q.shape[0] == 0:
        return True
    return bool(np.linalg.eigvalsh(q).min() >= -tol)


def is_unitary(matrix, tol: float = DEFAULTS.unitary_tol) -> bool:
    """True when ||U U* - I|| (Frobenius) is at most ``tol``."""
    u = _square_matrix(matrix)
    eye = np.eye(u.shape[0])
    return bool(np.linalg.norm(u @ u.conj().T - eye) <= tol)


class DensityKind(Enum):
    QUANTUM = "quantum"
    GENERALIZED = "generalized"


@dataclass(frozen=True)
class Density:
    """A unit-trace Hermitian matrix.

    ``QUANTUM`` densities are additionally positive semidefinite;
    ``GENERALIZED`` ones may carry negative eigenvalues.  Use the
    :meth:`quantum` / :meth:`generalized` constructors, which validate.
    """

    matrix: np.ndarray
    kind: DensityKind

    def __post_init__(self):
        object.__setattr__(self, "matrix", read_only_array(self.matrix, complex))

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @classmethod
    def quantum(
        cls,
        matrix,
        trace_tol: float = DEFAULTS.trace_tol,
        psd_tol: float = DEFAULTS.psd_tol,
        hermitian_tol: float = DEFAULTS.hermitian_tol,
    ) -> "Density":
        mat = require_hermitian(matrix, hermitian_tol)
        _check_trace(mat, trace_tol)
        smallest = float(np.linalg.eigvalsh(mat).min())
        if smallest < -psd_tol:
            raise ValidationError(
                f"matrix is not positive semidefinite (min eigenvalue {smallest:.3e})"
            )
        return cls(mat, DensityKind.QUANTUM)

    @classmethod
    def generalized(
        cls,
        matrix,
        trace_tol: float = DEFAULTS.trace_tol,
        hermitian_tol: float = DEFAULTS.hermitian_tol,
    ) -> "Density":
        mat = require_hermitian(matrix, hermitian_tol)
        _check_trace(mat, trace_tol)
        return cls(mat, DensityKind.GENERALIZED)


def _check_trace(mat: np.ndarray, tol: float) -> None:
    trace = float(np.trace(mat).real)
    if abs(trace - 1.0) > tol:
        raise ValidationError(f"trace is {trace!r}, expected 1 within {tol:.3e}")


def pure_state_density(vector, tol: float = DEFAULTS.trace_tol) -> Density:
    """The rank-one quantum density u u* of a unit vector u."""
    u = np.asarray(vector, dtype=complex)
    if u.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {u.shape}")
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > tol:
        raise ValidationError(f"vector norm is {norm!r}, expected 1 within {tol:.3e}")
    return Density.quantum(np.outer(u, u.conj()))
