"""Hidden-state calculus on densities and quantum chains.

Hidden states are an orthogonal resolution of the identity (projectors
attached to labels).  A density assigns each hidden state a weight; under
a generalized density some weights may be negative, which models states
that cannot be measured.  Information functions map hidden states to
observable values and induce signed distributions; joint observability,
the two-observable inequality check on product expectations, and
maximum-weight hidden paths through a chain all build on those weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from .config import DEFAULTS, Config
from .errors import (
    DimensionMismatchError,
    SubspaceError,
    UnsupportedChainError,
    ValidationError,
)
from .hermitian import Density, read_only_array, require_hermitian, spectral_decompose
from .chain import QuantumChain
from .process import _rescale, _scaled

__all__ = [
    "HiddenStateBasis",
    "InformationFunction",
    "composite_function",
    "product_function",
    "ObservabilityReport",
    "hidden_state_weights",
    "induced_distribution",
    "expectation",
    "joint_observability",
    "BellCheck",
    "bell_check",
    "ViterbiResult",
    "viterbi_hidden_path",
]

_PROJECTOR_TOL = 1e-9


def _checked_labels(labels, count: int) -> tuple[str, ...]:
    """Distinct non-empty labels as strings, one per projector."""
    labels = tuple(str(label) for label in labels)
    if not labels or len(set(labels)) != len(labels):
        raise ValidationError("hidden-state labels must be non-empty and distinct")
    if len(labels) != count:
        raise DimensionMismatchError("one projector per label required")
    return labels


@dataclass(frozen=True)
class HiddenStateBasis:
    """Labeled orthogonal projectors summing to the identity, as one read-only (size, dim, dim) stack."""

    labels: tuple[str, ...]
    projectors: np.ndarray

    def __post_init__(self):
        labels = _checked_labels(self.labels, len(self.projectors))
        projectors = tuple(require_hermitian(p, _PROJECTOR_TOL) for p in self.projectors)
        dim = projectors[0].shape[0]
        # projectors before the first one of another shape are checked first,
        # so the first failing projector names the error, as in index order
        shaped = [p.shape == (dim, dim) for p in projectors]
        count = shaped.index(False) if not all(shaped) else len(projectors)
        stack = np.stack(projectors[:count])
        defects = np.max(np.abs(stack @ stack - stack), axis=(1, 2))
        bad = np.flatnonzero(defects > _PROJECTOR_TOL)
        if bad.size:
            raise ValidationError(f"projector for {labels[bad[0]]!r} is not idempotent")
        if count < len(projectors):
            raise DimensionMismatchError("projectors differ in dimension")
        for i in range(count - 1):
            overlaps = np.max(np.abs(stack[i] @ stack[i + 1 :]), axis=(1, 2))
            bad = np.flatnonzero(overlaps > _PROJECTOR_TOL)
            if bad.size:
                j = i + 1 + bad[0]
                raise ValidationError(
                    f"projectors {labels[i]!r} and {labels[j]!r} overlap "
                    f"({float(overlaps[bad[0]]):.3e})"
                )
        if np.max(np.abs(stack.sum(axis=0) - np.eye(dim))) > _PROJECTOR_TOL:
            raise ValidationError("projectors do not resolve the identity")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "projectors", read_only_array(stack, complex))

    @property
    def dim(self) -> int:
        return int(self.projectors[0].shape[0])

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def _overlaps(self) -> np.ndarray:
        """Row i is P_i^T conj(P_i), flattened: the table :func:`_weights` multiplies by."""
        p = self.projectors
        return read_only_array(np.einsum("ipq,ipr->iqr", p, p.conj()).reshape(self.size, -1), complex)

    @classmethod
    def standard(cls, dim: int, labels: Sequence[str] | None = None) -> "HiddenStateBasis":
        """Coordinate-axis projectors, one hidden state per basis vector.

        They are exact orthogonal projectors resolving the identity by
        construction, so only the labels are checked.
        """
        if labels is None:
            labels = tuple(f"w{i + 1}" for i in range(dim))
        labels = _checked_labels(labels, dim)
        projectors = np.zeros((dim, dim, dim), dtype=complex)
        axes = np.arange(dim)
        projectors[axes, axes, axes] = 1.0
        basis = object.__new__(cls)
        object.__setattr__(basis, "labels", labels)
        object.__setattr__(basis, "projectors", read_only_array(projectors, complex))
        return basis

    @classmethod
    def from_density(
        cls, density: Density | np.ndarray, labels: Sequence[str] | None = None
    ) -> "HiddenStateBasis":
        """Rank-one projectors onto the eigenvectors of a reference density.

        Within a degenerate eigenvalue cluster the individual projectors
        depend on the eigensolver's basis choice; only their sums are
        canonical.
        """
        matrix = density.matrix if isinstance(density, Density) else density
        decomposition = spectral_decompose(matrix)
        if labels is None:
            labels = tuple(f"w{i + 1}" for i in range(decomposition.dim))
        projectors = tuple(decomposition.projector(i) for i in range(decomposition.dim))
        return cls(tuple(labels), projectors)


@dataclass(frozen=True)
class InformationFunction:
    """A total map from hidden-state labels to observable values."""

    name: str
    mapping: dict[str, Any]
    codomain: tuple = ()

    def __post_init__(self):
        mapping = dict(self.mapping)
        object.__setattr__(self, "mapping", mapping)
        codomain = tuple(self.codomain)
        if not codomain:
            seen: list = []
            for value in mapping.values():
                if value not in seen:
                    seen.append(value)
            codomain = tuple(seen)
        if len(set(codomain)) != len(codomain):
            raise ValidationError("codomain values must be distinct")
        missing = [v for v in mapping.values() if v not in codomain]
        if missing:
            raise ValidationError(f"codomain does not cover values {missing}")
        object.__setattr__(self, "codomain", codomain)

    def __call__(self, label: str):
        try:
            return self.mapping[label]
        except KeyError:
            raise ValidationError(f"information function {self.name!r} undefined on {label!r}") from None

    def check_total(self, basis: HiddenStateBasis) -> None:
        missing = [label for label in basis.labels if label not in self.mapping]
        if missing:
            raise ValidationError(
                f"information function {self.name!r} is not total; missing {missing}"
            )

    @property
    def is_real(self) -> bool:
        return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in self.codomain)


def composite_function(functions: Sequence[InformationFunction]) -> InformationFunction:
    """Tuple-valued composite of several information functions on one domain."""
    if not functions:
        raise ValidationError("need at least one information function")
    labels = set(functions[0].mapping)
    for f in functions[1:]:
        if set(f.mapping) != labels:
            raise ValidationError("information functions must share a domain")
    name = "(" + ",".join(f.name for f in functions) + ")"
    mapping = {label: tuple(f(label) for f in functions) for label in functions[0].mapping}
    import itertools

    codomain = tuple(itertools.product(*(f.codomain for f in functions)))
    return InformationFunction(name, mapping, codomain)


def product_function(first: InformationFunction, second: InformationFunction) -> InformationFunction:
    """Pointwise product of two real-valued information functions."""
    if not (first.is_real and second.is_real):
        raise ValidationError("products need real-valued information functions")
    if set(first.mapping) != set(second.mapping):
        raise ValidationError("information functions must share a domain")
    mapping = {label: first(label) * second(label) for label in first.mapping}
    return InformationFunction(f"{first.name}*{second.name}", mapping)


@dataclass(frozen=True)
class ObservabilityReport:
    """Induced (possibly signed) distribution of an information function."""

    function_name: str
    distribution: dict[Any, float]
    observable: bool
    offending: dict[Any, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return float(sum(self.distribution.values()))


def hidden_state_weights(density: Density | np.ndarray, basis: HiddenStateBasis) -> np.ndarray:
    """Weights tr(P Q P*) of each hidden state; may be negative for generalized Q."""
    matrix = density.matrix if isinstance(density, Density) else np.asarray(density, dtype=complex)
    if matrix.shape != (basis.dim, basis.dim):
        raise DimensionMismatchError(
            f"density shape {matrix.shape} does not match basis dimension {basis.dim}"
        )
    return _weights(matrix[None], basis)[0]


def _weights(images: np.ndarray, basis: HiddenStateBasis) -> np.ndarray:
    """tr(P_i X P_i*) for each matrix X of a (count, dim, dim) stack, as (count, size).

    Each trace is the entrywise inner product of X with P_i^T conj(P_i),
    so one product with the basis's overlap table covers every pair.
    """
    return (images.reshape(len(images), -1) @ basis._overlaps.T).real


def induced_distribution(
    density: Density | np.ndarray,
    basis: HiddenStateBasis,
    function: InformationFunction,
    *,
    config: Config = DEFAULTS,
) -> ObservabilityReport:
    """Group hidden-state weights by observed value; flag outcomes below ``-eval_tol``."""
    function.check_total(basis)
    weights = hidden_state_weights(density, basis)
    distribution = {value: 0.0 for value in function.codomain}
    for label, weight in zip(basis.labels, weights):
        distribution[function(label)] += float(weight)
    offending = {value: p for value, p in distribution.items() if p < -config.eval_tol}
    return ObservabilityReport(
        function_name=function.name,
        distribution=distribution,
        observable=not offending,
        offending=offending,
    )


def expectation(
    density: Density | np.ndarray,
    basis: HiddenStateBasis,
    function: InformationFunction,
) -> float:
    """Expected value of a real-valued information function under the density."""
    if not function.is_real:
        raise ValidationError(f"information function {function.name!r} is not real-valued")
    report = induced_distribution(density, basis, function)
    return float(sum(value * p for value, p in report.distribution.items()))


def joint_observability(
    density: Density | np.ndarray,
    basis: HiddenStateBasis,
    functions: Sequence[InformationFunction],
    *,
    config: Config = DEFAULTS,
) -> ObservabilityReport:
    """Induced distribution of the tuple-valued composite of the functions."""
    composite = composite_function(tuple(functions))
    return induced_distribution(density, basis, composite, config=config)


@dataclass(frozen=True)
class BellCheck:
    """Product expectations of three sign-valued observables and the bound."""

    expectations: dict[str, float]
    lhs: float
    rhs: float
    satisfied: bool
    jointly_observable: bool
    pair_observable: dict[str, bool]
    joint_report: ObservabilityReport


def bell_check(
    density: Density | np.ndarray,
    basis: HiddenStateBasis,
    x: InformationFunction,
    y: InformationFunction,
    z: InformationFunction,
    *,
    config: Config = DEFAULTS,
) -> BellCheck:
    """Check |E(XY) - E(YZ)| <= 1 - E(XZ) + ``eval_tol`` for sign-valued X, Y, Z.

    Joint observability of the triple (the inequality's hypothesis) is
    reported alongside; with pairwise-only observability the inequality
    can fail.
    """
    for f in (x, y, z):
        if set(f.codomain) != {-1, 1}:
            raise ValidationError(
                f"information function {f.name!r} must take values in {{-1, +1}}"
            )
    e_xy = expectation(density, basis, product_function(x, y))
    e_yz = expectation(density, basis, product_function(y, z))
    e_xz = expectation(density, basis, product_function(x, z))
    lhs = abs(e_xy - e_yz)
    rhs = 1.0 - e_xz
    joint = joint_observability(density, basis, (x, y, z), config=config)
    pairs = {
        f"{a.name},{b.name}": joint_observability(density, basis, (a, b), config=config).observable
        for a, b in ((x, y), (y, z), (x, z))
    }
    return BellCheck(
        expectations={"XY": e_xy, "YZ": e_yz, "XZ": e_xz},
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs <= rhs + config.eval_tol,
        jointly_observable=joint.observable,
        pair_observable=pairs,
        joint_report=joint,
    )


@dataclass(frozen=True)
class ViterbiResult:
    """A maximum-weight hidden path and its (possibly signed) weight.

    ``weight`` is a double and reads 0.0 once the path's weight falls
    below the double range; ``log_weight`` (natural log of |weight|,
    ``-inf`` for a zero weight) and ``sign`` (+1, 0 or -1) stay exact
    there.
    """

    path: tuple[str, ...]
    weight: float
    negative_weights: bool
    log_weight: float
    sign: int


def viterbi_hidden_path(
    chain: QuantumChain,
    basis: HiddenStateBasis,
    word,
    *,
    config: Config = DEFAULTS,
) -> ViterbiResult:
    """Maximum-weight sequence of hidden states consistent with a word.

    A path's weight is the trace of alternately projecting onto hidden
    states and applying the word's letter operators, starting from the
    initial density.  Requires rank-one hidden-state projectors that the
    chain's subspace can express within ``recon_tol`` (otherwise per-step
    weights do not factorize and the dynamic program is unsound).  Ties
    prefer the lexicographically smallest state-index sequence; with
    signed weights both the largest and smallest partial products are
    tracked so the global maximum survives sign flips.

    Costs O(T n^2) for a word of length T: one (n x n) candidate array
    per step when no weight is negative, (2n x 2n) otherwise, and
    backpointers read once at the end.  Partial products are rescaled by
    powers of two after every step, which is exact, so the path and
    weight equal the plain float products' wherever those stay normal
    doubles, and the path stays optimal past that point.
    """
    letters = chain.alphabet.indices(word)
    init, factors = _step_weights(chain, basis, config.recon_tol)
    negative = bool(init.min() < -1e-12 or factors.min() < -1e-12)
    path, mantissa, exponent = _best_path(init, factors, letters)
    weight = _scaled(mantissa, exponent)
    log_weight = math.log(abs(mantissa)) + exponent * math.log(2.0) if mantissa else -math.inf
    return ViterbiResult(
        path=tuple(basis.labels[i] for i in path),
        weight=weight,
        negative_weights=bool(negative or mantissa < 0),
        log_weight=log_weight,
        sign=int(np.sign(mantissa)),
    )


def _step_weights(
    chain: QuantumChain, basis: HiddenStateBasis, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Initial weights tr(P_i rho P_i*) and per-letter factors[a][j, i].

    ``factors[a][j, i]`` is the weight of moving from hidden state j to i
    on letter a: tr(P_i L_a(P_j) P_i*), one :func:`_weights` product per
    letter for all n^2 pairs.
    """
    sub = chain.subspace
    if basis.dim != sub.ambient_dim:
        raise DimensionMismatchError("hidden-state basis does not match the chain's space")
    projectors = basis.projectors
    ranks = np.trace(projectors, axis1=1, axis2=2).real
    wrong = np.flatnonzero(np.abs(ranks - 1.0) > 1e-9)
    if wrong.size:
        raise UnsupportedChainError(
            f"hidden state {basis.labels[wrong[0]]!r} has a projector of rank != 1; "
            "path weights do not factorize"
        )
    try:
        coords = sub.expand_all(projectors, tol)
    except (SubspaceError, ValueError):
        # expanded one at a time only to name the first projector that fails
        for label, proj in zip(basis.labels, basis.projectors):
            try:
                sub.expand(proj, tol)
            except Exception as exc:
                raise UnsupportedChainError(
                    f"projector for hidden state {label!r} lies outside the chain's subspace: {exc}"
                ) from exc
        raise
    init = _weights(chain.initial.matrix[None], basis)[0]
    factors = np.stack([_weights(sub.reconstruct(coords @ m), basis) for m in chain.operators])
    return init, factors


def _best_path(init: np.ndarray, factors: np.ndarray, letters: list[int]):
    """The maximum-weight state path and its weight as mantissa * 2**exponent.

    With nonnegative initial weights and factors a smaller prefix never
    overtakes a larger one of the same state, so one prefix per state
    gives the largest weights.  That holds for every quantum Markov
    chain, by complete positivity.  Otherwise each state keeps its
    largest and its smallest prefix.  A word of weight 0 is run with
    both: there the smallest prefixes can reach a lexicographically
    smaller zero-weight path, and the answer stays the one that tracks
    them.  On a word of positive weight the path can differ from the
    two-prefix one only where two prefixes of one state that differ by
    rounding alone round to the same product a step later; it then has
    the same weight.
    """
    if init.min() >= 0 and factors.min() >= 0:
        path, mantissa, exponent = _ranked_prefixes(init, factors, letters, 1)
        if mantissa:
            return path, mantissa, exponent
    return _ranked_prefixes(init, factors, letters, 2)


def _ranked_prefixes(init: np.ndarray, factors: np.ndarray, letters: list[int], halves: int):
    """Backpointer dynamic program over ``halves`` prefixes per state, in rank order.

    Slot ``halves * k`` holds the largest weight of a path ending in state
    k and, with two halves, slot ``2k + 1`` the smallest, stored negated
    so that one argmax picks both winners.  ``order[r]`` is the slot whose
    path has lexicographic rank r, and ``vals`` holds the slots' values in
    that order, so numpy's first argmax over a slot's candidates is the
    smallest path among equal weights.  A new slot's path is its
    predecessor's followed by its state; slots run in state order, so one
    stable argsort of the predecessors' ranks gives the new ranks.  A
    state's two halves on one path sort adjacent, the larger first, and
    the second one never wins.  Each step is one gather of the letter's
    factors, one product, one argmax, one argsort and one reorder; values
    are then rescaled by the power of two of the largest magnitude, which
    is exact.
    """
    n = init.size
    states = np.repeat(np.arange(n), halves)
    flip = np.tile([1.0, -1.0][:halves], n)
    # into[a][c, k]: factor from slot k's state into slot c's state, negated
    # where exactly one of k and c is a smallest-prefix slot
    into = list(np.swapaxes(flip[:, None] * factors[:, states][:, :, states] * flip, 1, 2).copy())
    slots = np.arange(n * halves)
    rows = slots * slots.size  # where each slot's candidates start in cand.ravel()
    order = slots
    vals, exponent = _rescale(np.repeat(init, halves) * flip, 0)
    orders, picks = [], []
    for a in letters:
        cand = into[a].take(order, axis=1)
        cand *= vals
        pick = cand.argmax(axis=1)
        orders.append(order)
        picks.append(pick)
        order = pick.argsort(kind="stable")
        vals = cand.take(rows + pick)[order]
        # indexing at the argmax is cheaper than max() on a few values
        top = vals[vals.argmax()] if halves == 1 else np.abs(vals).max()
        shift = math.frexp(top)[1]
        vals = np.ldexp(vals, -shift)
        exponent += shift
    ranks = np.flatnonzero(order % halves == 0)  # the largest-prefix slots, in rank order
    r = int(ranks[np.argmax(vals[ranks])])
    k = int(order[r])
    mantissa = float(vals[r])
    path = [k]
    for order, pick in zip(reversed(orders), reversed(picks)):
        k = int(order[pick[k]])
        path.append(k)
    return [int(states[k]) for k in reversed(path)], mantissa, exponent
