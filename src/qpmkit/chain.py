"""Quantum Markov chains and quantum predictor models.

A chain is a subspace of Hermitian matrices, one real-linear operator per
alphabet symbol (stored as a coordinate matrix over the subspace basis),
and an initial density.  Markov chains additionally require a positive
initial density and positivity-preserving letter operators; predictor
models only require unit trace, trace preservation and word probabilities
in [0, 1].  Word probabilities are traces of the composed letter
operators applied to the initial density, first letter applied first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Mapping

import numpy as np

from .config import DEFAULTS
from .errors import (
    BasisInsufficiencyError,
    DimensionMismatchError,
    SubspaceError,
    ValidationError,
    ValidationReport,
)
from .hermitian import (
    Density,
    DensityKind,
    as_complex_matrix,
    require_hermitian,
    require_hermitian_stack,
)
from .models import (
    FinitaryParam,
    HmmParam,
    QrwParam,
    _standard_form,
    finitary_process,
    hmm_to_finitary,
    validate_qrw,
)
from .process import (
    Alphabet,
    LinearForm,
    Process,
    Word,
    build_hankel,
    check_process_axioms,
    select_row_basis,
    word_states,
    word_value,
    words_up_to,
)

__all__ = [
    "hermitian_basis",
    "OperatorSubspace",
    "SuperOperator",
    "ChainKind",
    "QuantumChain",
    "chain_eval",
    "chain_process",
    "validate_chain",
    "unitary_to_qmc",
    "povm_to_qmc",
    "qrw_to_qmc",
    "hmm_to_qmc",
    "finitary_to_qpm",
    "qpm_to_finitary",
    "as_qpm",
]


_ROOT_TWO = np.sqrt(2.0)


def hermitian_basis(n: int) -> list[np.ndarray]:
    """Orthonormal basis of the Hermitian n-by-n matrices (n**2 elements).

    Diagonal units come first, then for each pair i < j the symmetric and
    antisymmetric unit-norm elements.
    """
    return list(_canonical_stack(n).copy())


@lru_cache(maxsize=4)
def _canonical_stack(n: int) -> np.ndarray:
    """:func:`hermitian_basis` as one read-only (n², n, n) array, filled by index."""
    stack = np.zeros((n * n, n, n), dtype=complex)
    units = np.arange(n)
    stack[units, units, units] = 1.0
    rows, cols = np.triu_indices(n, 1)
    sym = n + 2 * np.arange(len(rows))
    root_half = 1.0 / np.sqrt(2.0)
    stack[sym, rows, cols] = root_half
    stack[sym, cols, rows] = root_half
    stack[sym + 1, rows, cols] = -1j * root_half
    stack[sym + 1, cols, rows] = 1j * root_half
    stack.flags.writeable = False
    return stack


def _hermitian_stack(basis, tol: float) -> np.ndarray:
    """The basis symmetrised as one (dim, n, n) array, each element checked as by ``require_hermitian``.

    A finite basis of one non-empty square shape takes one batched check;
    any other is checked element by element, which names what is wrong.
    """
    try:
        stack = np.array(basis, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        stack = None
    if (
        stack is not None
        and stack.ndim == 3
        and stack.shape[1] == stack.shape[2]
        and 0 not in stack.shape
        and np.isfinite(stack).all()
    ):
        if _is_hermitian_basis(stack):
            return stack
        return require_hermitian_stack(stack, tol)
    mats = [require_hermitian(b, tol) for b in basis]
    if not mats:
        raise ValidationError("subspace basis must not be empty")
    if any(mat.shape != mats[0].shape for mat in mats):
        raise DimensionMismatchError("basis elements differ in shape")
    return np.stack(mats)


def _is_hermitian_basis(stack: np.ndarray) -> bool:
    """True when a (dim, n, n) stack is :func:`hermitian_basis` bit for bit.

    That stack is exactly Hermitian and symmetrising leaves its bits as
    they are, so it needs no check.
    """
    n = stack.shape[1]
    return len(stack) == n * n and np.array_equal(
        stack.view(np.uint64), _canonical_stack(n).view(np.uint64)
    )


class OperatorSubspace:
    """A real-linear subspace of Hermitian matrices, given by an ordered basis.

    Coordinates are row vectors against the basis; expansion solves the
    Gram system and can verify membership by reconstruction error.
    """

    def __init__(self, basis, hermitian_tol: float = DEFAULTS.hermitian_tol):
        self._stack = _hermitian_stack(basis, hermitian_tol)
        self._basis = tuple(self._stack)
        dim = len(self._basis)
        flat = self._stack.reshape(dim, -1)
        self._flat_conj = flat.conj()
        if self.is_canonical:
            # Orthogonal by construction: the dense product's off-diagonal
            # entries are exact zeros and its diagonal is this, bit for bit.
            gram = np.diag(np.einsum("ij,ij->i", self._flat_conj, flat).real)
        else:
            gram = (self._flat_conj @ flat.T).real
            gram = (gram + gram.T) / 2.0
            eigenvalues = np.linalg.eigvalsh(gram)
            if eigenvalues[0] <= 1e-12 * max(eigenvalues[-1], 1.0):
                raise ValidationError("subspace basis is not linearly independent")
        self._gram = gram
        diag = np.diag(gram)
        self._gram_diag = diag if np.array_equal(gram, np.diag(diag)) else None
        self._inv_sqrt_diag = None if self._gram_diag is None else 1.0 / np.sqrt(diag)
        # complex sums, then a contiguous copy of their real parts: the bits
        # of np.trace(m).real for each element m
        self._traces = np.diagonal(self._stack, axis1=1, axis2=2).sum(axis=-1).real.copy()

    @classmethod
    def full(cls, n: int) -> "OperatorSubspace":
        return cls(_canonical_stack(n))

    @classmethod
    def diagonal(cls, n: int) -> "OperatorSubspace":
        basis = []
        for i in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, i] = 1.0
            basis.append(unit)
        return cls(basis)

    @property
    def basis(self) -> tuple[np.ndarray, ...]:
        return self._basis

    @property
    def stack(self) -> np.ndarray:
        """The basis as one (dim, n, n) array."""
        return self._stack

    @property
    def dim(self) -> int:
        return len(self._basis)

    @property
    def ambient_dim(self) -> int:
        return int(self._basis[0].shape[0])

    @property
    def gram(self) -> np.ndarray:
        return self._gram

    @property
    def traces(self) -> np.ndarray:
        return self._traces

    def expand(self, matrix, check: bool = True, tol: float = DEFAULTS.recon_tol) -> np.ndarray:
        """Coordinates of a Hermitian matrix over the basis.

        With ``check`` the reconstruction error is compared against
        ``tol`` and a :class:`SubspaceError` raised for non-members.
        """
        mat = as_complex_matrix(matrix)
        if mat.shape != self._basis[0].shape:
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not match ambient {self._basis[0].shape}"
            )
        rhs = (self._flat_conj @ mat.reshape(-1)).real
        coords = self._gram_solve(rhs)
        if check:
            error = float(np.linalg.norm(self.reconstruct(coords) - mat))
            if error > tol:
                raise SubspaceError(
                    f"matrix lies outside the subspace (reconstruction error {error:.3e})"
                )
        return coords

    def expand_all(self, matrices, tol: float = DEFAULTS.recon_tol) -> np.ndarray:
        """Coordinate rows of a stack of matrices, each checked for membership.

        On the canonical basis (:attr:`is_canonical`) the coordinates are
        read off the entries: the real diagonal, then ``√2·Re`` and
        ``−√2·Im`` of the upper triangle, interleaved in
        :func:`hermitian_basis` order; a matrix's reconstruction error is
        then its distance to the Hermitian matrices.  Any other basis takes
        one Gram solve for the whole stack.  The first matrix whose error
        exceeds ``tol`` raises the :class:`SubspaceError` that
        :meth:`expand` raises for it.
        """
        mats = np.asarray(matrices, dtype=complex)
        n = self.ambient_dim
        if mats.ndim != 3 or mats.shape[1:] != (n, n):
            raise DimensionMismatchError(
                f"expected a stack of {n}x{n} matrices, got shape {mats.shape}"
            )
        if self.is_canonical:
            rows, cols = np.triu_indices(n, 1)
            upper = mats[:, rows, cols]
            coords = np.empty((len(mats), n * n))
            coords[:, :n] = np.diagonal(mats, axis1=1, axis2=2).real
            coords[:, n::2] = _ROOT_TWO * upper.real
            coords[:, n + 1 :: 2] = -_ROOT_TWO * upper.imag
            errors = np.linalg.norm(mats - mats.conj().transpose(0, 2, 1), axis=(1, 2)) / 2.0
        else:
            rhs = (self._flat_conj @ mats.reshape(len(mats), -1).T).real
            coords = self._gram_solve(rhs).T
            errors = np.linalg.norm(self.reconstruct(coords) - mats, axis=(1, 2))
        outside = np.flatnonzero(errors > tol)
        if outside.size:
            raise SubspaceError(
                "matrix lies outside the subspace "
                f"(reconstruction error {errors[outside[0]]:.3e})"
            )
        return coords

    def reconstruct(self, coords) -> np.ndarray:
        """The matrix with the given coordinates; a stack of coordinate rows gives a stack."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape[-1:] != (self.dim,):
            raise DimensionMismatchError(f"expected {self.dim} coordinates, got {coords.shape}")
        flat = np.dot(coords.reshape(-1, self.dim), self._stack.reshape(self.dim, -1))
        return flat.reshape(coords.shape[:-1] + self._stack.shape[1:])

    def norm(self, coords) -> float:
        """Hermitian-space norm of the element with the given coordinates."""
        coords = np.asarray(coords, dtype=float)
        return float(np.sqrt(max(self.gram_dot(coords) @ coords, 0.0)))

    def gram_dot(self, coords: np.ndarray) -> np.ndarray:
        """``coords @ gram`` for a coordinate row or a stack of rows.

        A diagonal Gram scales each coordinate: every nonzero entry has the
        bits of the dense product, whose other terms are exact zeros.
        """
        if self._gram_diag is None:
            return coords @ self._gram
        return coords * self._gram_diag

    @cached_property
    def is_unit_diagonal(self) -> bool:
        """True when the basis consists of distinct diagonal unit matrices.

        Each element has off-diagonal entries within 1e-14 of zero and one
        diagonal entry whose real part is not, within 1e-12 of one; no two
        share that entry, so there are at most n of them.
        """
        n = self.ambient_dim
        if self.dim > n:
            return False
        if np.any(np.abs(self._stack[:, ~np.eye(n, dtype=bool)]) > 1e-14):
            return False
        diag = np.diagonal(self._stack, axis1=1, axis2=2).real
        hot = np.abs(diag) > 1e-14
        if np.any(hot.sum(axis=1) != 1):
            return False
        at = hot.argmax(axis=1)
        if np.any(np.abs(diag[np.arange(self.dim), at] - 1.0) > 1e-12):
            return False
        return len(set(at.tolist())) == self.dim

    @property
    def spans_full(self) -> bool:
        return self.dim == self.ambient_dim**2

    @cached_property
    def is_canonical(self) -> bool:
        """True when the basis is exactly :func:`hermitian_basis`, in its order."""
        return self.spans_full and np.array_equal(self._stack, _canonical_stack(self.ambient_dim))

    @cached_property
    def unit_coords(self) -> np.ndarray:
        """Complex coordinates of the matrix units on a full-space basis.

        Row ``i·n + j`` holds the coordinates of E_ij under the
        complex-linear extension of :meth:`expand`: one Gram solve against
        the conjugated basis, so ``unit_coords @ stack`` rebuilds every unit.
        """
        return self._gram_solve(self._flat_conj).T

    def _gram_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``gram @ x = rhs`` for a vector or for each column of a matrix.

        A diagonal Gram takes ``rhs * s * s`` with ``s = 1/sqrt(diag)``:
        LAPACK's Cholesky solve on a diagonal factor multiplies by the same
        reciprocals, so every nonzero entry has its bits (an exact zero may
        differ in sign).  Any other Gram takes a Cholesky factor, built on
        first use.  Non-finite input raises ``ValueError("array must not
        contain infs or NaNs")`` on either path.
        """
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        s = self._inv_sqrt_diag
        if s is None:
            factor = self._cholesky
            return np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))
        s = s.reshape(s.shape + (1,) * (rhs.ndim - 1))
        return rhs * s * s

    @cached_property
    def _cholesky(self) -> np.ndarray:
        """Lower Cholesky factor of the Gram."""
        return np.linalg.cholesky(self._gram)

    @cached_property
    def _stack_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The flattened stack as two (row, value) entries per matrix position.

        Exact for a stack with at most two nonzero entries per position,
        as the canonical basis has (a diagonal unit, or one symmetric and
        one antisymmetric element); a position with one gets a second
        entry of value 0.  Returns ``(rows, values)``, each (2, n²).
        """
        flat = self._stack.reshape(self.dim, -1)
        rows = np.argsort(flat == 0, axis=0, kind="stable")[:2]
        return rows, np.take_along_axis(flat, rows, axis=0)


@dataclass(frozen=True)
class SuperOperator:
    """A real-linear map on an operator subspace, as a coordinate matrix.

    Row ``i`` of ``matrix`` holds the coordinates of the image of the
    i-th basis element, so coordinate row vectors evolve by right
    multiplication.
    """

    subspace: OperatorSubspace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        d = self.subspace.dim
        if mat.shape != (d, d):
            raise DimensionMismatchError(f"coordinate matrix must be {d}x{d}, got {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_action(
        cls,
        subspace: OperatorSubspace,
        action: Callable[[np.ndarray], np.ndarray],
        tol: float = DEFAULTS.recon_tol,
    ) -> "SuperOperator":
        """Build the coordinate matrix by applying ``action`` to every basis element."""
        rows = [subspace.expand(action(b), check=True, tol=tol) for b in subspace.basis]
        return cls(subspace, np.vstack(rows))

    @classmethod
    def from_kraus(
        cls,
        subspace: OperatorSubspace,
        kraus,
        tol: float = DEFAULTS.recon_tol,
    ) -> "SuperOperator":
        """Coordinate matrix of the Kraus map Q ↦ K Q K* in one pass.

        The whole basis stack is conjugated at once (``K @ B @ K*``) and
        :meth:`OperatorSubspace.expand_all` reads the coordinates off the
        images: in closed form on the canonical full basis, by one Gram
        solve otherwise.  An image outside the subspace raises
        :class:`SubspaceError` as :meth:`from_action` does.
        """
        k = as_complex_matrix(kraus)
        n = subspace.ambient_dim
        if k.shape != (n, n):
            raise DimensionMismatchError(f"Kraus operator must be {n}x{n}, got {k.shape}")
        images = k @ subspace.stack @ k.conj().T
        return cls(subspace, subspace.expand_all(images, tol))

    def apply_coords(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(coords, dtype=float) @ self.matrix

    def apply(self, matrix, tol: float = DEFAULTS.recon_tol) -> np.ndarray:
        coords = self.subspace.expand(matrix, check=True, tol=tol)
        return self.subspace.reconstruct(self.apply_coords(coords))


class ChainKind(Enum):
    QMC = "qmc"
    QPM = "qpm"


@dataclass(frozen=True)
class QuantumChain:
    """Letter-indexed superoperators over a common subspace plus an initial density."""

    alphabet: Alphabet
    subspace: OperatorSubspace
    letter_ops: dict[str, SuperOperator]
    initial: Density
    kind: ChainKind

    def __post_init__(self):
        for symbol in self.alphabet:
            if symbol not in self.letter_ops:
                raise ValidationError(f"missing operator for symbol {symbol!r}")
            if self.letter_ops[symbol].subspace is not self.subspace:
                raise ValidationError("letter operators must share the chain's subspace")
        extra = set(self.letter_ops) - set(self.alphabet.symbols)
        if extra:
            raise ValidationError(f"operators for unknown symbols: {sorted(extra)}")
        if self.initial.matrix.shape[0] != self.subspace.ambient_dim:
            raise DimensionMismatchError("initial density does not match the ambient dimension")
        if self.kind is ChainKind.QMC and self.initial.kind is not DensityKind.QUANTUM:
            raise ValidationError("a quantum Markov chain needs a quantum initial density")

    @cached_property
    def initial_coords(self) -> np.ndarray:
        return self.subspace.expand(self.initial.matrix)

    @cached_property
    def total_matrix(self) -> np.ndarray:
        return sum(self.letter_ops[a].matrix for a in self.alphabet)

    @property
    def letter_matrices(self) -> list[np.ndarray]:
        """The letter operators' coordinate matrices in alphabet order."""
        return [self.letter_ops[a].matrix for a in self.alphabet]


def chain_eval(chain: QuantumChain, word) -> float:
    """tr of the composed letter operators applied to the initial density."""
    letters = chain.alphabet.indices(word)
    return word_value(chain.initial_coords, chain.letter_matrices, letters, chain.subspace.traces)


def chain_process(chain: QuantumChain) -> Process:
    return Process(
        chain.alphabet,
        lambda w: chain_eval(chain, w),
        lowering=lambda: _linear_form(chain, chain.initial_coords),
    )


def _linear_form(chain: QuantumChain, initial_coords: np.ndarray) -> LinearForm:
    """Coordinates of the initial density, the letter coordinate matrices, the basis traces."""
    matrices = np.stack(chain.letter_matrices)
    return LinearForm(initial_coords, matrices, chain.subspace.traces)


# --------------------------------------------------------------------------
# Validation.
# --------------------------------------------------------------------------


def validate_chain(
    chain: QuantumChain,
    horizon: int | None = None,
    trace_tol: float = DEFAULTS.trace_tol,
    psd_tol: float = DEFAULTS.psd_tol,
    eval_tol: float = DEFAULTS.eval_tol,
    preserve_tol: float = DEFAULTS.preserve_tol,
    recon_tol: float = DEFAULTS.recon_tol,
    positivity_samples: int = 1000,
    seed: int = 0,
) -> ValidationReport:
    """Check the chain's defining axioms; report violations and evidence.

    Markov chains get their initial density and letter-operator positivity
    checked (exactly on diagonal-unit bases, via complete positivity plus
    counterexample search on the full Hermitian space, by sampling
    otherwise).  Predictor models get the word-probability window checked
    exhaustively up to ``horizon`` (recorded in the report).
    """
    report = ValidationReport()
    sub = chain.subspace
    try:
        coords = sub.expand(chain.initial.matrix, check=True, tol=recon_tol)
    except SubspaceError as exc:
        report.add("initial-membership", str(exc), ("initial",))
        return report

    trace = float(coords @ sub.traces)
    if abs(trace - 1.0) > trace_tol:
        report.add("initial-trace", f"tr of the initial density is {trace!r}", ("initial",))

    drift = chain.total_matrix @ sub.traces - sub.traces
    for i, value in enumerate(drift):
        if abs(value) > preserve_tol:
            report.add(
                "trace-preservation",
                f"summed operators change the trace of basis element {i} by {value!r}",
                ("operators", i),
            )

    if chain.kind is ChainKind.QMC:
        smallest = float(np.linalg.eigvalsh(chain.initial.matrix).min())
        if smallest < -psd_tol:
            report.add(
                "initial-positivity",
                f"initial density has eigenvalue {smallest!r}",
                ("initial",),
            )
        rng = np.random.default_rng(seed)
        for symbol in chain.alphabet:
            _letter_positivity(chain, symbol, report, rng, positivity_samples, psd_tol)
    else:
        window = DEFAULTS.qpm_horizon if horizon is None else horizon
        report.horizon = window
        values = word_states(_linear_form(chain, coords), max(window, 0)) @ sub.traces
        words = words_up_to(chain.alphabet, window)
        outside = (values < -eval_tol) | (values > 1.0 + eval_tol)
        for i in np.flatnonzero(outside[: len(words)]):
            word = words[i]
            report.add(
                "word-probability",
                f"tr over word {''.join(word) or 'empty'} is {float(values[i])!r}, outside [0, 1]",
                ("words", word),
            )
        report.note(f"word probabilities checked exhaustively up to length {window}")
    return report


def _letter_positivity(chain, symbol, report, rng, samples, psd_tol):
    sub = chain.subspace
    op = chain.letter_ops[symbol]
    if sub.is_unit_diagonal:
        worst = float(op.matrix.min())
        if worst < -psd_tol:
            report.add(
                "positivity",
                f"operator {symbol!r} has coordinate entry {worst!r} on a diagonal basis",
                ("operators", symbol),
            )
        else:
            report.note(f"operator {symbol!r}: positivity verified exactly (diagonal basis)")
        return
    if sub.spans_full:
        choi = _choi_matrix(op)
        smallest = float(np.linalg.eigvalsh(choi).min())
        if smallest >= -1e-8:
            report.note(f"operator {symbol!r}: completely positive (Choi PSD), hence positive")
            return
        counterexample = _positivity_counterexample_pure(op, rng, samples)
        if counterexample is not None:
            report.add(
                "positivity",
                f"operator {symbol!r} maps a pure density to eigenvalue {counterexample!r}",
                ("operators", symbol),
            )
        else:
            report.note(
                f"operator {symbol!r}: Choi matrix indefinite (min eigenvalue "
                f"{smallest:.3e}); no positivity counterexample in {samples} samples, "
                "positivity unproven"
            )
        return
    found, tested = _positivity_sampling(chain, op, rng, samples)
    if found is not None:
        report.add(
            "positivity",
            f"operator {symbol!r} maps a nonnegative element to eigenvalue {found!r}",
            ("operators", symbol),
        )
    elif tested == 0:
        report.note(
            f"operator {symbol!r}: could not sample nonnegative subspace elements; "
            "positivity unchecked"
        )
    else:
        report.note(
            f"operator {symbol!r}: no positivity counterexample in {tested} sampled "
            "nonnegative elements (evidence only)"
        )


def _choi_matrix(op: SuperOperator) -> np.ndarray:
    """Choi matrix of the complex-linear extension of a full-space operator.

    ``Choi[(i,k),(j,l)] = Φ(E_ij)[k,l]`` (Choi, *Linear Algebra Appl.* 10,
    1975).  The images of all n² units come from one contraction: their
    complex coordinates times the coordinate matrix, times the basis
    stack.  The canonical basis is orthonormal, so there the unit
    coordinates are the stack's conjugate transpose, and the stack has
    two entries per matrix position: the contraction is two gathers per
    side, O(n⁴), instead of two dense n²×n² products (which also keeps
    multithreaded BLAS out of it).
    The result is symmetrised against rounding.
    """
    sub = op.subspace
    n = sub.ambient_dim
    if sub.is_canonical:
        rows, values = sub._stack_entries
        units = sum(v.conj()[:, None] * op.matrix[r] for r, v in zip(rows, values))
        images = sum(units[:, r] * v for r, v in zip(rows, values))
    else:
        images = (sub.unit_coords @ op.matrix) @ sub.stack.reshape(sub.dim, -1)
    choi = images.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return (choi + choi.conj().T) / 2.0


def _positivity_counterexample_pure(op, rng, samples):
    n = op.subspace.ambient_dim
    for _ in range(samples):
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        vec /= np.linalg.norm(vec)
        image = op.apply(np.outer(vec, vec.conj()))
        smallest = float(np.linalg.eigvalsh(image).min())
        if smallest < -1e-7:
            return smallest
    return None


def _positivity_sampling(chain, op, rng, samples):
    """Search random nonnegative subspace elements for a positivity violation."""
    sub = chain.subspace
    n = sub.ambient_dim
    try:
        identity_coords = sub.expand(np.eye(n), check=True, tol=1e-10)
    except SubspaceError:
        identity_coords = None
    worst = None
    tested = 0
    attempts = 0
    while tested < samples and attempts < 20 * samples:
        attempts += 1
        coords = rng.normal(size=sub.dim)
        element = sub.reconstruct(coords)
        smallest = float(np.linalg.eigvalsh(element).min())
        if identity_coords is not None:
            if smallest < 0.0:
                coords = coords - smallest * identity_coords
                element = sub.reconstruct(coords)
        elif smallest < 0.0:
            continue
        tested += 1
        image = sub.reconstruct(op.apply_coords(coords))
        image_min = float(np.linalg.eigvalsh(image).min())
        scale = max(float(np.linalg.norm(element)), 1.0)
        if image_min < -1e-7 * scale:
            worst = image_min
            break
    return worst, tested


# --------------------------------------------------------------------------
# Constructions.
# --------------------------------------------------------------------------


def unitary_to_qmc(unitary, initial: Density, symbol: str = "a") -> QuantumChain:
    """Single-letter chain conjugating densities by a unitary."""
    u = as_complex_matrix(unitary)
    from .hermitian import is_unitary

    if u.shape[0] != u.shape[1] or not is_unitary(u):
        raise ValidationError("evolution operator must be unitary")
    if initial.kind is not DensityKind.QUANTUM:
        raise ValidationError("unitary evolution starts from a quantum density")
    if initial.dim != u.shape[0]:
        raise DimensionMismatchError("density and unitary dimensions differ")
    sub = OperatorSubspace.full(u.shape[0])
    op = SuperOperator.from_kraus(sub, u)
    alphabet = Alphabet((symbol,))
    return QuantumChain(alphabet, sub, {symbol: op}, initial, ChainKind.QMC)


def povm_to_qmc(
    operators: Mapping[str, np.ndarray],
    initial: Density,
    tol: float = DEFAULTS.unitary_tol,
) -> QuantumChain:
    """Repeated-measurement chain from a complete operator family.

    Completeness is checked in the trace-preserving form: the adjoints
    times the operators must sum to the identity, which makes the summed
    branch probabilities equal one on every density.
    """
    labels = tuple(operators)
    if not labels:
        raise ValidationError("measurement needs at least one operator")
    mats = {label: as_complex_matrix(operators[label]) for label in labels}
    n = initial.dim
    total = np.zeros((n, n), dtype=complex)
    for label, mat in mats.items():
        if mat.shape != (n, n):
            raise DimensionMismatchError(f"operator {label!r} must have shape {(n, n)}")
        total += mat.conj().T @ mat
    defect = float(np.linalg.norm(total - np.eye(n)))
    if defect > tol:
        raise ValidationError(
            f"measurement operators are not complete (||sum M*M - I|| = {defect:.3e})"
        )
    if initial.kind is not DensityKind.QUANTUM:
        raise ValidationError("measurement chains start from a quantum density")
    sub = OperatorSubspace.full(n)
    ops = {
        label: SuperOperator.from_kraus(sub, mat)
        for label, mat in mats.items()
    }
    return QuantumChain(Alphabet(labels), sub, ops, initial, ChainKind.QMC)


def qrw_to_qmc(qrw: QrwParam) -> QuantumChain:
    """Embed a quantum random walk: project-after-evolve Kraus operators per node."""
    validate_qrw(qrw).raise_if_invalid("invalid quantum random walk")
    k = qrw.dim
    sub = OperatorSubspace.full(k)
    ops: dict[str, SuperOperator] = {}
    for node in qrw.nodes:
        projector = np.zeros((k, k), dtype=complex)
        block = qrw.block(node)
        projector[block, block] = np.eye(qrw.coin_count)
        ops[node] = SuperOperator.from_kraus(sub, projector @ qrw.unitary)
    initial = Density.quantum(np.outer(qrw.wave, qrw.wave.conj()))
    return QuantumChain(Alphabet(qrw.nodes.symbols), sub, ops, initial, ChainKind.QMC)


def hmm_to_qmc(hmm: HmmParam, tol: float = DEFAULTS.eval_tol) -> QuantumChain:
    """Represent a hidden Markov model on the diagonal-matrix subspace."""
    finitary = hmm_to_finitary(hmm, tol)
    n = hmm.n_states
    sub = OperatorSubspace.diagonal(n)
    ops = {
        a: SuperOperator(sub, finitary.letter_matrices[a]) for a in hmm.alphabet
    }
    initial = Density.quantum(np.diag(hmm.initial.astype(complex)), psd_tol=tol)
    return QuantumChain(hmm.alphabet, sub, ops, initial, ChainKind.QMC)


def finitary_to_qpm(
    param: FinitaryParam,
    horizon: int | None = None,
    eps: float = DEFAULTS.rank_eps,
    residual_tol: float = DEFAULTS.residual_tol,
    eval_tol: float = DEFAULTS.eval_tol,
) -> QuantumChain:
    """Predictor model over a process-function row basis of the Hankel matrix.

    The subspace is spanned by diagonal units, one per selected basis row;
    letter operators carry the shift coefficients fitted by least squares
    over all suffix columns up to ``horizon`` (default: the declared
    dimension).  The shifted rows p(v a w) are (F_v M_a)·Bᵀ, the basis
    words' prefix states times the letter matrix times the suffix states,
    both taken from the factors that the Hankel keeps.
    Residuals above ``residual_tol`` mean the basis cannot reproduce the
    shifted rows and raise :class:`BasisInsufficiencyError`.
    """
    window = param.dimension if horizon is None else horizon
    if len(param.alphabet) ** max(window, 1) > 500_000:
        raise ValidationError(
            "working horizon too large for exhaustive column enumeration; pass a smaller one"
        )
    process = finitary_process(param)
    hankel = build_hankel(process, window, window)
    problems = check_process_axioms(process, window, max(eval_tol, 1e-9), hankel)
    if problems:
        raise ValidationError(
            "parametrization does not define a process up to the working horizon: "
            + "; ".join(problems[:3])
        )
    basis_words = select_row_basis(hankel, eps)
    d = len(basis_words)
    if d == 0:
        raise ValidationError("process has numerical rank 0; nothing to represent")
    basis_rows = [hankel._row_index[v] for v in basis_words]
    weights = hankel.matrix[basis_rows, 0]
    # column j of the design holds the normalised Hankel row of basis word j
    design = hankel.matrix[basis_rows].T / weights
    basis_states = hankel._prefix_states[basis_rows]
    suffixes = hankel._suffix_states

    def fit(targets: np.ndarray, what) -> np.ndarray:
        solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
        residuals = np.linalg.norm(design @ solution - targets, axis=0)
        for i, residual in enumerate(residuals):
            if residual > residual_tol:
                raise BasisInsufficiencyError(
                    f"row basis cannot reproduce {what(i)} (residual {residual:.3e})"
                )
        return solution

    sub = OperatorSubspace.diagonal(d)
    ops: dict[str, SuperOperator] = {}
    for a, matrix in zip(param.alphabet, process.linear.matrices):
        # the a-shifted rows p(v a w) / p(v), one target column per basis word v
        targets = (basis_states @ matrix @ suffixes.T).T / weights
        coeff = fit(targets, lambda i: f"the {a!r}-shift of basis row {i}")
        ops[a] = SuperOperator(sub, coeff.T)
    root = fit(hankel.matrix[0][:, None], lambda i: "the process itself")[:, 0]
    initial = Density.generalized(np.diag(root.astype(complex)), trace_tol=max(residual_tol, 1e-8))
    return QuantumChain(Alphabet(param.alphabet.symbols), sub, ops, initial, ChainKind.QPM)


def qpm_to_finitary(chain: QuantumChain) -> FinitaryParam:
    """Read the chain's coordinates off as a finitary parametrization.

    The initial vector holds the initial density's coordinates, the
    letter matrices are the operators' coordinate matrices and the end
    vector the basis traces, so evaluation is the same arithmetic in a
    different order.
    """
    initial, end = chain.initial_coords, chain.subspace.traces
    return FinitaryParam(
        Alphabet(chain.alphabet.symbols),
        {a: chain.letter_ops[a].matrix.copy() for a in chain.alphabet},
        initial.copy(),
        end.copy(),
        standard_form=bool(_standard_form(initial, end, chain.total_matrix)),
    )


def as_qpm(chain: QuantumChain) -> QuantumChain:
    """Relabel a Markov chain as a predictor model (every QMC is one)."""
    if chain.kind is ChainKind.QPM:
        return chain
    return QuantumChain(
        chain.alphabet, chain.subspace, dict(chain.letter_ops), chain.initial, ChainKind.QPM
    )
