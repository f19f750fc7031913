"""Quantum Markov chains and quantum predictor models.

A chain is a subspace of Hermitian matrices, one real-linear operator per
alphabet symbol (stored as a coordinate matrix over the subspace basis,
the matrices stacked in alphabet order), and an initial density.  Markov
chains additionally require a positive initial density and
positivity-preserving letter operators; predictor models only require
unit trace, trace preservation and word probabilities in [0, 1].  Word
probabilities are traces of the composed letter operators applied to the
initial density, first letter applied first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property, lru_cache
from typing import Mapping

import numpy as np

from .config import DEFAULTS, Config
from .errors import (
    BasisInsufficiencyError,
    DimensionMismatchError,
    NonFiniteError,
    SubspaceError,
    ValidationError,
    ValidationReport,
)
from .hermitian import (
    Density,
    DensityKind,
    as_complex_matrix,
    read_only_array,
    require_hermitian,
    require_hermitian_stack,
)
from .models import (
    FinitaryParam,
    HmmParam,
    QrwParam,
    _standard_form,
    finitary_process,
    validate_hmm,
    validate_qrw,
)
from .process import (
    Alphabet,
    LinearForm,
    Process,
    _axiom_problems,
    _row_basis_indices,
    build_hankel,
    format_word,
    word_states,
    word_value,
    words_up_to,
)

__all__ = [
    "hermitian_basis",
    "OperatorSubspace",
    "kraus_coords",
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
    rows, cols = _upper_indices(n)
    sym = n + 2 * np.arange(len(rows))
    root_half = 1.0 / np.sqrt(2.0)
    stack[sym, rows, cols] = root_half
    stack[sym, cols, rows] = root_half
    stack[sym + 1, rows, cols] = -1j * root_half
    stack[sym + 1, cols, rows] = 1j * root_half
    return read_only_array(stack, complex)


@lru_cache(maxsize=4)
def _canonical_entries(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, values)``, each (2, n²): :func:`_canonical_stack`'s entries per position, 0-padded."""
    flat = _canonical_stack(n).reshape(n * n, -1)
    rows = np.argsort(flat == 0, axis=0, kind="stable")[:2]
    values = np.take_along_axis(flat, rows, axis=0)
    return read_only_array(rows, np.intp), read_only_array(values, complex)


@lru_cache(maxsize=16)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, built once per n and shared, read-only."""
    return tuple(read_only_array(index, np.intp) for index in np.triu_indices(n, 1))


def _hermitian_stack(basis, tol: float) -> np.ndarray:
    """The basis symmetrised as one (dim, n, n) array, each element checked as by ``require_hermitian``.

    A finite basis of one non-empty square shape takes one batched check;
    any other is checked element by element, which names what is wrong.
    A canonical basis array is returned as given, so subspaces share it.
    """
    try:
        stack = np.asarray(basis, dtype=complex)
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

    Coordinates are row vectors against the basis.  :meth:`expand_all`
    is the one expansion: it reads them off a stack of matrices and
    checks each matrix's membership by its reconstruction error.  Its
    arrays are read-only (:func:`read_only_array`), so it can be shared.
    """

    def __init__(self, basis, hermitian_tol: float = DEFAULTS.hermitian_tol):
        self._stack = read_only_array(_hermitian_stack(basis, hermitian_tol), complex)
        dim = len(self._stack)
        flat = self._stack.reshape(dim, -1)
        self._flat_conj = read_only_array(flat.conj(), complex)
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
        self._gram = read_only_array(gram, float)
        diag = np.diag(gram)
        self._gram_diag = diag if np.array_equal(gram, np.diag(diag)) else None
        self._inv_sqrt_diag = None
        if self._gram_diag is not None:
            self._inv_sqrt_diag = read_only_array(1.0 / np.sqrt(diag), float)
        # complex sums, then a contiguous copy of their real parts: the bits
        # of np.trace(m).real for each element m
        self._traces = read_only_array(
            np.diagonal(self._stack, axis1=1, axis2=2).sum(axis=-1).real, float
        )

    @classmethod
    def full(cls, n: int) -> "OperatorSubspace":
        """:func:`hermitian_basis` as a subspace, built once per n and shared, read-only."""
        return _full_subspace(n)

    @classmethod
    def diagonal(cls, n: int) -> "OperatorSubspace":
        """The diagonal units E_11 … E_nn, built once per n and shared, read-only."""
        return _diagonal_subspace(n)

    @property
    def basis(self) -> np.ndarray:
        """The basis as one read-only (dim, n, n) stack."""
        return self._stack

    @property
    def dim(self) -> int:
        return len(self._stack)

    @property
    def ambient_dim(self) -> int:
        return int(self._stack.shape[1])

    @property
    def gram(self) -> np.ndarray:
        return self._gram

    @property
    def traces(self) -> np.ndarray:
        return self._traces

    def expand(self, matrix, tol: float = DEFAULTS.recon_tol) -> np.ndarray:
        """Coordinates of one Hermitian matrix: :meth:`expand_all` of a stack of one."""
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != self._stack.shape[1:]:
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not match ambient {self._stack.shape[1:]}"
            )
        return self.expand_all(mat[None], tol)[0]

    def expand_all(self, matrices, tol: float = DEFAULTS.recon_tol) -> np.ndarray:
        """Coordinate rows of a stack of matrices, each checked for membership.

        On the canonical basis (:attr:`is_canonical`) the coordinates are
        read off the entries: the real diagonal, then ``√2·Re`` and
        ``−√2·Im`` of the upper triangle, interleaved in
        :func:`hermitian_basis` order; a matrix's reconstruction error is
        then its distance to the Hermitian matrices.  Any other basis takes
        one Gram solve for the whole stack.  Non-finite input, or
        coordinates that overflow, raise :class:`NonFiniteError` ("array
        must not contain infs or NaNs"); otherwise the first matrix whose error
        exceeds ``tol`` raises a :class:`SubspaceError`.
        """
        mats = np.asarray(matrices, dtype=complex)
        n = self.ambient_dim
        if mats.ndim != 3 or mats.shape[1:] != (n, n):
            raise DimensionMismatchError(
                f"expected a stack of {n}x{n} matrices, got shape {mats.shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
            if self.is_canonical:
                rows, cols = _upper_indices(n)
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
        # a non-finite entry gives a non-finite error, which is not <= tol
        within = errors <= tol
        if within.all() and np.isfinite(coords).all():
            return coords
        if not (np.isfinite(coords).all() and np.isfinite(errors).all()):
            raise NonFiniteError("array must not contain infs or NaNs")
        raise SubspaceError(
            f"matrix lies outside the subspace (reconstruction error {errors[~within][0]:.3e})"
        )

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
    def _canonical_coords(self) -> np.ndarray:
        """T, whose row b is basis element b's coordinates on :func:`hermitian_basis`."""
        return read_only_array(OperatorSubspace.full(self.ambient_dim).expand_all(self._stack), float)

    def _gram_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``gram @ x = rhs`` for a vector or for each column of a matrix.

        A diagonal Gram takes ``rhs * s * s`` with ``s = 1/sqrt(diag)``:
        LAPACK's Cholesky solve on a diagonal factor multiplies by the same
        reciprocals, so every nonzero entry has its bits (an exact zero may
        differ in sign).  Any other Gram takes a Cholesky factor, built on
        first use.  Non-finite input gives non-finite output on either path,
        which :meth:`expand_all` refuses.
        """
        s = self._inv_sqrt_diag
        if s is None:
            factor = self._cholesky
            return np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))
        s = s.reshape(s.shape + (1,) * (rhs.ndim - 1))
        return rhs * s * s

    @cached_property
    def _cholesky(self) -> np.ndarray:
        """Lower Cholesky factor of the Gram."""
        return read_only_array(np.linalg.cholesky(self._gram), float)


@lru_cache(maxsize=4)
def _full_subspace(n: int) -> OperatorSubspace:
    """:meth:`OperatorSubspace.full`, on the shared canonical stack."""
    return OperatorSubspace(_canonical_stack(n))


@lru_cache(maxsize=16)
def _diagonal_subspace(n: int) -> OperatorSubspace:
    """:meth:`OperatorSubspace.diagonal`, shared by every caller."""
    units = np.arange(n)
    stack = np.zeros((n, n, n), dtype=complex)
    stack[units, units, units] = 1.0
    return OperatorSubspace(stack)


class ChainKind(Enum):
    QMC = "qmc"
    QPM = "qpm"


@dataclass(frozen=True)
class QuantumChain:
    """Letter operators over a common subspace plus an initial density.

    ``operators[i]`` is the coordinate matrix of the i-th alphabet
    symbol's operator: its row j holds the coordinates of the image of
    the j-th basis element, so coordinate rows evolve by right
    multiplication.  The stack is stored as one read-only C-contiguous
    float64 ``(len(alphabet), dim, dim)`` array (:func:`read_only_array`),
    the layout on which a chain evaluates exactly as its saved file does.
    """

    alphabet: Alphabet
    subspace: OperatorSubspace
    operators: np.ndarray
    initial: Density
    kind: ChainKind

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=float, order="C")
        d = self.subspace.dim
        if ops.shape != (len(self.alphabet), d, d):
            raise DimensionMismatchError(
                f"operator stack must have shape {(len(self.alphabet), d, d)}, got {ops.shape}"
            )
        if self.initial.matrix.shape[0] != self.subspace.ambient_dim:
            raise DimensionMismatchError("initial density does not match the ambient dimension")
        if self.kind is ChainKind.QMC and self.initial.kind is not DensityKind.QUANTUM:
            raise ValidationError("a quantum Markov chain needs a quantum initial density")
        object.__setattr__(self, "operators", read_only_array(ops, float))

    @cached_property
    def initial_coords(self) -> np.ndarray:
        """The initial density's coordinates, checked within the default ``recon_tol``.

        A chain that passes :func:`validate_chain`, as every loaded chain
        does, keeps the coordinates read there, under that config's
        ``recon_tol``.
        """
        return read_only_array(self.subspace.expand(self.initial.matrix), float)

    @cached_property
    def total_matrix(self) -> np.ndarray:
        """The summed operators, added letter by letter in alphabet order from 0.0."""
        return read_only_array(np.add.reduce(self.operators, axis=0, initial=0.0), float)


def chain_eval(chain: QuantumChain, word) -> float:
    """tr of the composed letter operators applied to the initial density."""
    letters = chain.alphabet.indices(word)
    return word_value(chain.initial_coords, chain.operators, letters, chain.subspace.traces)


def chain_process(chain: QuantumChain) -> Process:
    """The chain's process on its own arrays; an initial density off the subspace is refused here."""
    form = LinearForm(chain.initial_coords, chain.operators, chain.subspace.traces)
    return Process(chain.alphabet, form)


# --------------------------------------------------------------------------
# Validation.
# --------------------------------------------------------------------------

# The positivity counterexample searches draw this many samples from this
# seed, so a chain's report is the same on every run.
_POSITIVITY_SEED = 0
_POSITIVITY_SAMPLES = 1000


def validate_chain(chain: QuantumChain, *, config: Config = DEFAULTS) -> ValidationReport:
    """Check the chain's defining axioms; report violations and evidence.

    The initial density must lie in the subspace within ``recon_tol``
    and have unit trace within ``trace_tol``; the summed operators must
    preserve each basis element's trace within ``preserve_tol``.  Markov
    chains get their initial density and letter-operator positivity
    checked within ``psd_tol`` (exactly on diagonal-unit bases, via
    complete positivity plus counterexample search on the full Hermitian
    space, by sampling otherwise).  Predictor models get every word
    probability up to ``qpm_horizon`` (recorded in the report) checked
    to lie in [0, 1] within ``eval_tol``.  A letter operator with a
    non-finite coordinate entry is reported by name, and then only the
    initial density is checked: every other check computes with the
    letter matrices.  A chain that passes keeps the initial coordinates
    read here as its :attr:`QuantumChain.initial_coords`.
    """
    report = ValidationReport()
    sub = chain.subspace
    finite = np.isfinite(chain.operators).all(axis=(1, 2))
    broken = [a for a, ok in zip(chain.alphabet, finite) if not ok]
    for symbol in broken:
        report.add(
            "non-finite",
            f"operator {symbol!r} has a non-finite coordinate entry",
            ("operators", symbol),
        )
    try:
        coords = sub.expand(chain.initial.matrix, config.recon_tol)
    except SubspaceError as exc:
        report.add("initial-membership", str(exc), ("initial",))
        return report

    trace = float(coords @ sub.traces)
    if abs(trace - 1.0) > config.trace_tol:
        report.add("initial-trace", f"tr of the initial density is {trace!r}", ("initial",))
    if broken:
        return report

    drift = chain.total_matrix @ sub.traces - sub.traces
    for i, value in enumerate(drift):
        if abs(value) > config.preserve_tol:
            report.add(
                "trace-preservation",
                f"summed operators change the trace of basis element {i} by {float(value)!r}",
                ("operators", i),
            )

    if chain.kind is ChainKind.QMC:
        smallest = float(np.linalg.eigvalsh(chain.initial.matrix).min())
        if smallest < -config.psd_tol:
            report.add(
                "initial-positivity",
                f"initial density has eigenvalue {smallest!r}",
                ("initial",),
            )
        # only the sampled searches draw, so numpy.random loads on first use
        generator = cache(lambda: np.random.default_rng(_POSITIVITY_SEED))
        for symbol, matrix in zip(chain.alphabet, chain.operators):
            _letter_positivity(sub, symbol, matrix, report, generator, config.psd_tol)
    else:
        window = report.horizon = config.qpm_horizon
        form = LinearForm(coords, chain.operators, sub.traces)
        values = word_states(form, max(window, 0)) @ sub.traces
        words = words_up_to(chain.alphabet, window)
        outside = (values < -config.eval_tol) | (values > 1.0 + config.eval_tol)
        for i in np.flatnonzero(outside[: len(words)]):
            word = words[i]
            name = format_word(word) or "empty"
            report.add(
                "word-probability",
                f"tr over word {name} is {float(values[i])!r}, outside [0, 1]",
                ("words", word),
            )
        report.note(f"word probabilities checked exhaustively up to length {window}")
    if report.ok:
        vars(chain)["initial_coords"] = read_only_array(coords, float)
    return report


def _letter_positivity(sub, symbol, matrix, report, generator, psd_tol):
    if sub.is_unit_diagonal:
        worst = float(matrix.min())
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
        choi = _choi_matrix(sub, matrix)
        # a factorisation certifies; only a failed one needs the spectrum
        certified = _factorises(choi, 1e-8)
        smallest = None if certified else float(np.linalg.eigvalsh(choi).min())
        if certified or smallest >= -1e-8:
            report.note(f"operator {symbol!r}: completely positive (Choi PSD), hence positive")
            return
        counterexample = _positivity_counterexample_pure(sub, matrix, generator())
        if counterexample is not None:
            report.add(
                "positivity",
                f"operator {symbol!r} maps a pure density to eigenvalue {counterexample!r}",
                ("operators", symbol),
            )
        else:
            report.note(
                f"operator {symbol!r}: Choi matrix indefinite (min eigenvalue "
                f"{smallest:.3e}); no positivity counterexample in "
                f"{_POSITIVITY_SAMPLES} samples, positivity unproven"
            )
        return
    found, tested = _positivity_sampling(sub, matrix, generator())
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


def _factorises(matrix: np.ndarray, shift: float) -> bool:
    """True when ``matrix + shift·I``, Hermitian with ``shift > 0``, has a finite Cholesky factor.

    It then has no eigenvalue below ``-shift``, up to the rounding of one
    factorisation: the verdict of ``eigvalsh(matrix).min() >= -shift``
    for a fraction of its cost (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, ch. 10).  Only the block on the nonzero
    rows is factorised: each zero row adds a 1×1 block ``shift``.
    """
    support = np.flatnonzero(matrix.any(axis=1))
    block = matrix.take(support, axis=0).take(support, axis=1)
    block.flat[:: len(block) + 1] += shift
    try:
        factor = np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


def _choi_matrix(sub: OperatorSubspace, matrix: np.ndarray) -> np.ndarray:
    """Choi matrix of the complex-linear extension of a full-space coordinate matrix.

    ``Choi[(i,k),(j,l)] = Φ(E_ij)[k,l]`` (Choi, *Linear Algebra Appl.* 10,
    1975).  It is built on the canonical basis, where another basis's
    matrix M reads T⁻¹·M·T (``OperatorSubspace._canonical_coords``).  That
    basis is orthonormal, so the unit coordinates are the stack's conjugate
    transpose, and it has two entries per matrix position: the images of
    all n² units take two gathers per side, O(n⁴), instead of two dense
    n²×n² products (which also keeps multithreaded BLAS out of it).
    The result is symmetrised against rounding.
    """
    n = sub.ambient_dim
    if not sub.is_canonical:
        coords = sub._canonical_coords
        matrix = np.linalg.solve(coords, matrix @ coords)
    rows, values = _canonical_entries(n)
    units = sum(v.conj()[:, None] * matrix[r] for r, v in zip(rows, values))
    images = sum(units[:, r] * v for r, v in zip(rows, values))
    choi = images.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return (choi + choi.conj().T) / 2.0


def _positivity_counterexample_pure(sub, matrix, rng):
    n = sub.ambient_dim
    for _ in range(_POSITIVITY_SAMPLES):
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        vec /= np.linalg.norm(vec)
        image = sub.reconstruct(sub.expand(np.outer(vec, vec.conj())) @ matrix)
        smallest = float(np.linalg.eigvalsh(image).min())
        if smallest < -1e-7:
            return smallest
    return None


def _positivity_sampling(sub, matrix, rng):
    """Search random nonnegative subspace elements for a positivity violation."""
    n = sub.ambient_dim
    try:
        identity_coords = sub.expand(np.eye(n), 1e-10)
    except SubspaceError:
        identity_coords = None
    worst = None
    tested = 0
    attempts = 0
    while tested < _POSITIVITY_SAMPLES and attempts < 20 * _POSITIVITY_SAMPLES:
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
        image = sub.reconstruct(coords @ matrix)
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
    ops = kraus_coords(sub, u[None])
    return QuantumChain(Alphabet((symbol,)), sub, ops, initial, ChainKind.QMC)


def povm_to_qmc(
    operators: Mapping[str, np.ndarray], initial: Density, *, config: Config = DEFAULTS
) -> QuantumChain:
    """Repeated-measurement chain from a complete operator family.

    Completeness is checked in the trace-preserving form: the adjoints
    times the operators must sum to the identity within ``unitary_tol``
    (Frobenius), which makes the summed branch probabilities equal one
    on every density.
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
    if defect > config.unitary_tol:
        raise ValidationError(
            f"measurement operators are not complete (||sum M*M - I|| = {defect:.3e})"
        )
    if initial.kind is not DensityKind.QUANTUM:
        raise ValidationError("measurement chains start from a quantum density")
    sub = OperatorSubspace.full(n)
    ops = kraus_coords(sub, np.stack(list(mats.values())))
    return QuantumChain(Alphabet(labels), sub, ops, initial, ChainKind.QMC)


def qrw_to_qmc(qrw: QrwParam, *, config: Config = DEFAULTS) -> QuantumChain:
    """Embed a quantum random walk: project-after-evolve Kraus operators per node.

    The walk is validated (:func:`validate_qrw`), and its initial density's
    trace checked within ``trace_tol``, under ``config``.
    """
    validate_qrw(qrw, config=config).raise_if_invalid("invalid quantum random walk")
    sub = OperatorSubspace.full(qrw.dim)
    units = np.arange(qrw.dim)
    projectors = np.zeros((len(qrw.nodes), qrw.dim, qrw.dim), dtype=complex)
    projectors[units // qrw.coin_count, units, units] = 1.0
    ops = kraus_coords(sub, projectors @ qrw.unitary)  # K = P_node U, one per node
    initial = Density.quantum(np.outer(qrw.wave, qrw.wave.conj()), config.trace_tol)
    return QuantumChain(Alphabet(qrw.nodes.symbols), sub, ops, initial, ChainKind.QMC)


# At most this many complex image entries (64 KB) are built at once.  On
# the full space the images of one Kraus operator are n**4 entries, so
# narrow chains batch their operators and those of ambient dimension 8 or
# more take one at a time: larger batches measured slower there, the
# per-matrix products dominating.
_IMAGE_ENTRIES = 1 << 12


def kraus_coords(subspace: OperatorSubspace, kraus) -> np.ndarray:
    """Coordinate matrices of the Kraus maps Q ↦ K Q K*, one per operator of an (m, n, n) stack.

    Returns an (m, dim, dim) stack whose matrix j has, in row i, the
    coordinates of K_j B_i K_j* for the i-th basis element B_i.  The
    operators of a batch conjugate the whole basis stack in one stacked
    product, and one :meth:`OperatorSubspace.expand_all` reads all their
    images: in closed form on the canonical full basis, where a batch
    has the bits of one operator at a time, and by one Gram solve
    otherwise, whose rounding depends on the batch.  A non-finite
    operator raises :class:`ValidationError`, a stack of another shape
    :class:`DimensionMismatchError`, images that overflow
    :class:`NonFiniteError`, and an image outside the subspace
    :class:`SubspaceError`.
    """
    k = np.asarray(kraus, dtype=complex)
    n, dim = subspace.ambient_dim, subspace.dim
    if k.ndim != 3 or k.shape[1:] != (n, n):
        raise DimensionMismatchError(f"Kraus operators must be {n}x{n}, got shape {k.shape}")
    if not np.isfinite(k).all():
        raise ValidationError("matrix contains non-finite entries")
    batch = max(1, _IMAGE_ENTRIES // (dim * n * n))
    coords = np.empty((len(k), dim, dim))
    for lo in range(0, len(k), batch):
        part = k[lo : lo + batch, None]
        with np.errstate(over="ignore", invalid="ignore"):  # expand_all refuses the overflow
            images = part @ subspace.basis @ part.conj().transpose(0, 1, 3, 2)
        flat = subspace.expand_all(images.reshape(-1, n, n))
        coords[lo : lo + batch] = flat.reshape(-1, dim, dim)
    return coords


def hmm_to_qmc(hmm: HmmParam, *, config: Config = DEFAULTS) -> QuantumChain:
    """Represent a hidden Markov model on the diagonal-matrix subspace.

    The model is validated (:func:`validate_hmm`) and its initial law
    checked as a density, both with slack ``eval_tol``.  The letter
    operators are the model's own read-only letter stack.
    """
    validate_hmm(hmm, config=config).raise_if_invalid("invalid hidden Markov model")
    sub = OperatorSubspace.diagonal(hmm.n_states)
    initial = Density.quantum(np.diag(hmm.initial.astype(complex)), psd_tol=config.eval_tol)
    return QuantumChain(hmm.alphabet, sub, hmm._letter_stack, initial, ChainKind.QMC)


def finitary_to_qpm(
    param: FinitaryParam, horizon: int | None = None, *, config: Config = DEFAULTS
) -> QuantumChain:
    """Predictor model over a process-function row basis of the Hankel matrix.

    The subspace is spanned by diagonal units, one per selected basis row
    (:meth:`OperatorSubspace.diagonal`, shared); letter operators carry
    the shift coefficients fitted by least squares over all suffix
    columns up to ``horizon`` (default: the declared dimension).  The
    rows p(v w) = F_v·Bᵀ and their shifts p(v a w) = (F_v M_a)·Bᵀ are
    products of the basis words' prefix states and the suffix states
    that the Hankel keeps; its N×M block is never built, and the process
    axioms are checked on its prefix states, within ``eval_tol`` (at
    least 1e-9).  The basis rows are picked by :func:`select_row_basis`'s
    search at rounding level, max(N, M)·u, not at ``rank_eps``, so that
    they span the whole row space.  One least-squares solve
    fits every letter's shifted rows and the process itself.  Residuals
    above ``residual_tol``, checked letter by letter in alphabet order
    and then for the process, mean the basis cannot reproduce the
    shifted rows and raise :class:`BasisInsufficiencyError`, as does a
    fit whose summed operators change a basis element's trace by more
    than ``preserve_tol``: :func:`validate_chain`, and so the loader,
    would refuse that chain.
    """
    window = param.dimension if horizon is None else horizon
    if len(param.alphabet) ** max(window, 1) > 500_000:
        raise ValidationError(
            "working horizon too large for exhaustive column enumeration; pass a smaller one"
        )
    process = finitary_process(param)
    hankel = build_hankel(process, window, window)
    eval_tol = max(config.eval_tol, 1e-9)
    problems = _axiom_problems(
        param.alphabet, hankel._prefix_states, process.linear.end, window, eval_tol
    )
    if problems:
        raise ValidationError(
            "parametrization does not define a process up to the working horizon: "
            + "; ".join(problems[:3])
        )
    # numpy's matrix_rank cut; the search stops at the singular values above it
    cut = max(len(hankel.row_words), len(hankel.col_words)) * np.finfo(float).eps
    singulars = hankel.singular_values
    target = int(np.count_nonzero(singulars > cut * singulars[:1]))
    basis_rows = _row_basis_indices(hankel, cut, target)
    if not basis_rows:
        raise ValidationError("process has numerical rank 0; nothing to represent")
    # the Hankel rows of the empty word and the basis words, from one product
    states = hankel._prefix_states[[0] + basis_rows]
    suffixes = hankel._suffix_states
    rows = states @ suffixes.T
    weights = rows[1:, 0]
    # column j of the design holds the normalised Hankel row of basis word j;
    # the targets are the a-shifted rows p(v a w) / p(v), one column per
    # letter a and basis word v, then the process itself
    design = rows[1:].T / weights
    shifted = [(states[1:] @ m @ suffixes.T).T / weights for m in process.linear.matrices]
    targets = np.hstack(shifted + [rows[0][:, None]])
    solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
    residuals = np.linalg.norm(design @ solution - targets, axis=0)
    r = len(basis_rows)
    failed = np.flatnonzero(residuals > config.residual_tol)
    if failed.size:
        j = int(failed[0])
        what = (
            f"the {param.alphabet.symbols[j // r]!r}-shift of basis row {j % r}"
            if j < len(shifted) * r
            else "the process itself"
        )
        raise BasisInsufficiencyError(
            f"row basis cannot reproduce {what} (residual {residuals[j]:.3e})"
        )
    sub = OperatorSubspace.diagonal(r)
    # column k*r + i of the solution is row i of letter k's coordinate matrix
    size = len(param.alphabet)
    ops = solution[:, : size * r].reshape(r, size, r).transpose(1, 2, 0)
    root = solution[:, -1]
    trace_tol = max(config.residual_tol, 1e-8)
    initial = Density.generalized(np.diag(root.astype(complex)), trace_tol=trace_tol)
    chain = QuantumChain(Alphabet(param.alphabet.symbols), sub, ops, initial, ChainKind.QPM)
    drift = chain.total_matrix @ sub.traces - sub.traces
    for i, value in enumerate(drift):
        if abs(value) > config.preserve_tol:
            raise BasisInsufficiencyError(
                f"fitted operators change the trace of basis element {i} by "
                f"{float(value)!r} (preserve_tol {config.preserve_tol:.3e})"
            )
    return chain


def qpm_to_finitary(chain: QuantumChain) -> FinitaryParam:
    """Read the chain's coordinates off as a finitary parametrization.

    The initial vector holds the initial density's coordinates, the
    letter matrices are the operators' coordinate matrices and the end
    vector the basis traces, so evaluation is the same arithmetic in a
    different order.  The model shares those read-only arrays with the chain.
    """
    initial, end = chain.initial_coords, chain.subspace.traces
    return FinitaryParam(
        Alphabet(chain.alphabet.symbols),
        chain.operators,
        initial,
        end,
        standard_form=_standard_form(initial, end, chain.total_matrix),
    )


def as_qpm(chain: QuantumChain) -> QuantumChain:
    """Relabel a Markov chain as a predictor model (every QMC is one).

    The relabelled chain keeps the initial coordinates the chain holds.
    """
    if chain.kind is ChainKind.QPM:
        return chain
    relabelled = QuantumChain(
        chain.alphabet, chain.subspace, chain.operators, chain.initial, ChainKind.QPM
    )
    if "initial_coords" in vars(chain):
        vars(relabelled)["initial_coords"] = chain.initial_coords
    return relabelled
