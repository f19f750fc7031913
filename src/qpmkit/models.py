"""Concrete model parametrizations and their direct word-probability semantics.

Covers classical hidden Markov models (and their deterministic-emission
variant), finitary parametrizations evaluating words by matrix products,
and edge-labeled quantum random walks driven by a graph-local unitary.
Also hosts seedable trajectory sampling for every model family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULTS
from .errors import (
    DimensionMismatchError,
    SamplingError,
    ValidationError,
)
from .errors import ValidationReport
from .hermitian import is_unitary
from .process import Alphabet, LinearForm, Process, Word, word_value

__all__ = [
    "HmmParam",
    "validate_hmm",
    "hmm_eval",
    "hmm_process",
    "FfmcParam",
    "ffmc_to_hmm",
    "FinitaryParam",
    "hmm_to_finitary",
    "finitary_eval",
    "finitary_process",
    "is_standard_form",
    "standardize",
    "QrwParam",
    "validate_qrw",
    "QrwStep",
    "qrw_step",
    "qrw_eval",
    "qrw_process",
    "sample_trajectory",
    "sample_trajectories",
]


def _as_float_matrix(value, shape, what: str) -> np.ndarray:
    mat = np.asarray(value, dtype=float)
    if mat.shape != shape:
        raise DimensionMismatchError(f"{what} must have shape {shape}, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValidationError(f"{what} contains non-finite entries")
    return mat


@dataclass(frozen=True)
class HmmParam:
    """Hidden Markov model: states, emission matrix, initial law, transition matrix.

    ``emission[i, a]`` is the probability of emitting symbol ``a`` upon
    arrival in state ``i``; ``transition[i, j]`` the probability of moving
    from state ``i`` to ``j``.  Shapes are enforced on construction, value
    constraints by :func:`validate_hmm`.
    """

    states: tuple[str, ...]
    alphabet: Alphabet
    emission: np.ndarray
    initial: np.ndarray
    transition: np.ndarray

    def __post_init__(self):
        states = tuple(str(s) for s in self.states)
        if not states or len(set(states)) != len(states):
            raise ValidationError("states must be non-empty and distinct")
        n = len(states)
        object.__setattr__(self, "states", states)
        object.__setattr__(
            self, "emission", _as_float_matrix(self.emission, (n, len(self.alphabet)), "emission")
        )
        object.__setattr__(
            self, "initial", _as_float_matrix(self.initial, (n,), "initial distribution")
        )
        object.__setattr__(
            self, "transition", _as_float_matrix(self.transition, (n, n), "transition")
        )

    @property
    def n_states(self) -> int:
        return len(self.states)


def validate_hmm(hmm: HmmParam, tol: float = DEFAULTS.eval_tol) -> ValidationReport:
    """List every violated stochasticity constraint, with indices."""
    report = ValidationReport()
    _check_stochastic_matrix(report, hmm.emission, "emission", hmm.states, tol)
    _check_stochastic_matrix(report, hmm.transition, "transition", hmm.states, tol)
    for i, value in enumerate(hmm.initial):
        if value < -tol:
            report.add("negative-entry", f"initial[{i}] = {value!r}", ("initial", i))
    total = float(hmm.initial.sum())
    if abs(total - 1.0) > tol:
        report.add("row-sum", f"initial distribution sums to {total!r}", ("initial",))
    return report


def _check_stochastic_matrix(report, matrix, name, states, tol):
    for i, row in enumerate(matrix):
        for j, value in enumerate(row):
            if value < -tol:
                report.add("negative-entry", f"{name}[{i}, {j}] = {value!r}", (name, i, j))
        total = float(row.sum())
        if abs(total - 1.0) > tol:
            report.add(
                "row-sum",
                f"{name} row {i} ({states[i]}) sums to {total!r}, expected 1",
                (name, i),
            )


def hmm_eval(hmm: HmmParam, word) -> float:
    """Word probability initial @ M_w1 @ ... @ M_wn @ 1 over the emission-split matrices."""
    return word_value(hmm.initial, _emission_split(hmm), hmm.alphabet.indices(word))


def hmm_process(hmm: HmmParam) -> Process:
    # emit-then-move: M_a = diag(emission[:, a]) @ transition, the same form
    # hmm_eval evaluates, so both agree for any (even non-stochastic) rows
    return Process(
        hmm.alphabet,
        lambda w: hmm_eval(hmm, w),
        lowering=lambda: LinearForm(hmm.initial, _emission_split(hmm), np.ones(hmm.n_states)),
    )


def _emission_split(hmm: HmmParam) -> np.ndarray:
    """Letter matrices diag(emission[:, a]) @ transition, stacked in alphabet order."""
    return hmm.emission.T[:, :, None] * hmm.transition[None, :, :]


@dataclass(frozen=True)
class FfmcParam:
    """A Markov chain observed through a deterministic state-labeling function."""

    states: tuple[str, ...]
    observation: dict[str, str]
    initial: np.ndarray
    transition: np.ndarray
    alphabet: Alphabet | None = None

    def __post_init__(self):
        states = tuple(str(s) for s in self.states)
        object.__setattr__(self, "states", states)
        _require_total(states, self.observation)
        n = len(states)
        object.__setattr__(self, "initial", _as_float_matrix(self.initial, (n,), "initial"))
        object.__setattr__(
            self, "transition", _as_float_matrix(self.transition, (n, n), "transition")
        )

    def to_hmm(self) -> HmmParam:
        return _labelled_hmm(
            self.states, self.observation, self.initial, self.transition, self.alphabet
        )


def ffmc_to_hmm(
    states: Sequence[str],
    observation: Mapping[str, str],
    initial,
    transition,
    alphabet: Alphabet | None = None,
) -> HmmParam:
    """Turn a deterministic labeling into a 0/1 emission matrix."""
    states = tuple(str(s) for s in states)
    _require_total(states, observation)
    return _labelled_hmm(states, observation, initial, transition, alphabet)


def _require_total(states: tuple[str, ...], observation: Mapping[str, str]) -> None:
    missing = [s for s in states if s not in observation]
    if missing:
        raise ValidationError(f"observation function is not total; missing {missing}")


def _labelled_hmm(states, observation, initial, transition, alphabet) -> HmmParam:
    """:func:`ffmc_to_hmm` on string states whose labeling is already checked total."""
    if alphabet is None:
        seen: list[str] = []
        for s in states:
            if observation[s] not in seen:
                seen.append(observation[s])
        alphabet = Alphabet(tuple(seen))
    emission = np.zeros((len(states), len(alphabet)))
    for i, s in enumerate(states):
        emission[i, alphabet.index(observation[s])] = 1.0
    return HmmParam(states, alphabet, emission, initial, transition)


@dataclass(frozen=True)
class FinitaryParam:
    """Word probabilities as initial-row times letter-matrix products times an end vector.

    Standard form means the end vector is all ones, the summed letter
    matrices fix it, and the initial vector has unit total weight.
    Conversions out of operator models produce general end vectors;
    :func:`standardize` rescales when possible.
    """

    alphabet: Alphabet
    letter_matrices: dict[str, np.ndarray]
    initial: np.ndarray
    end: np.ndarray
    standard_form: bool = False

    def __post_init__(self):
        initial = np.asarray(self.initial, dtype=float)
        if initial.ndim != 1:
            raise DimensionMismatchError("initial vector must be 1-D")
        d = initial.shape[0]
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "end", _as_float_matrix(self.end, (d,), "end vector"))
        mats = {}
        for symbol in self.alphabet:
            if symbol not in self.letter_matrices:
                raise ValidationError(f"missing letter matrix for symbol {symbol!r}")
            mats[symbol] = _as_float_matrix(
                self.letter_matrices[symbol], (d, d), f"letter matrix {symbol!r}"
            )
        extra = set(self.letter_matrices) - set(self.alphabet.symbols)
        if extra:
            raise ValidationError(f"letter matrices for unknown symbols: {sorted(extra)}")
        object.__setattr__(self, "letter_matrices", mats)

    @property
    def dimension(self) -> int:
        return int(self.initial.shape[0])

    @property
    def total_matrix(self) -> np.ndarray:
        return sum(self.letter_matrices[a] for a in self.alphabet)


def hmm_to_finitary(hmm: HmmParam, tol: float = DEFAULTS.eval_tol) -> FinitaryParam:
    """Split the transition matrix by emitted symbol; end vector all ones."""
    validate_hmm(hmm, tol).raise_if_invalid("invalid hidden Markov model")
    matrices = dict(zip(hmm.alphabet, _emission_split(hmm)))
    ones = np.ones(hmm.n_states)
    return FinitaryParam(hmm.alphabet, matrices, hmm.initial.copy(), ones, standard_form=True)


def finitary_eval(param: FinitaryParam, word) -> float:
    mats = [param.letter_matrices[a] for a in param.alphabet]
    return word_value(param.initial, mats, param.alphabet.indices(word), param.end)


def finitary_process(param: FinitaryParam) -> Process:
    return Process(
        param.alphabet,
        lambda w: finitary_eval(param, w),
        lowering=lambda: LinearForm(
            param.initial,
            np.stack([param.letter_matrices[a] for a in param.alphabet]),
            param.end,
        ),
    )


def is_standard_form(param: FinitaryParam, tol: float = DEFAULTS.eval_tol) -> bool:
    return _standard_form(param.initial, param.end, param.total_matrix, tol)


def _standard_form(initial, end, total, tol: float = DEFAULTS.eval_tol) -> bool:
    """All-ones end vector, fixed by the summed letter matrices, with unit initial weight."""
    ones = np.ones(len(end))
    return (
        np.max(np.abs(end - ones)) <= tol
        and abs(float(initial @ end) - 1.0) <= tol
        and np.max(np.abs(total @ end - end)) <= tol
    )


def standardize(param: FinitaryParam, tol: float = DEFAULTS.eval_tol) -> FinitaryParam:
    """Rescale to an all-ones end vector via the diagonal similarity diag(end).

    Requires every end-vector entry to be bounded away from zero and the
    summed letter matrices to fix the end vector; raises otherwise so the
    caller can keep the general form.
    """
    if is_standard_form(param, tol):
        return FinitaryParam(
            param.alphabet,
            dict(param.letter_matrices),
            param.initial,
            np.ones(param.dimension),
            standard_form=True,
        )
    tau = param.end
    if np.min(np.abs(tau)) <= tol:
        raise ValidationError("end vector has (near-)zero entries; cannot rescale")
    if np.max(np.abs(param.total_matrix @ tau - tau)) > max(tol, 1e-8) * max(1.0, float(np.abs(tau).max())):
        raise ValidationError("summed letter matrices do not fix the end vector")
    scale = tau
    matrices = {
        a: (mat * scale[None, :]) / scale[:, None] for a, mat in param.letter_matrices.items()
    }
    initial = param.initial * scale
    return FinitaryParam(
        param.alphabet, matrices, initial, np.ones(param.dimension), standard_form=True
    )


@dataclass(frozen=True)
class QrwParam:
    """Quantum random walk: a graph over the alphabet, a coin set, a local
    unitary on the (node, coin) basis and an initial wave function.

    Basis coordinate of ``(node, coin)`` is ``node_index * K + coin_index``.
    Parallel edges between the same pair of nodes are modeled through the
    coin set, not through the edge list.
    """

    nodes: Alphabet
    edges: tuple[tuple[str, str], ...]
    coins: tuple[str, ...]
    unitary: np.ndarray
    wave: np.ndarray

    def __post_init__(self):
        coins = tuple(str(c) for c in self.coins)
        if not coins or len(set(coins)) != len(coins):
            raise ValidationError("coin set must be non-empty and distinct")
        object.__setattr__(self, "coins", coins)
        edges = tuple((str(a), str(b)) for a, b in self.edges)
        for a, b in edges:
            if a not in self.nodes or b not in self.nodes:
                raise ValidationError(f"edge ({a!r}, {b!r}) uses unknown nodes")
        if len(set(edges)) != len(edges):
            raise ValidationError("edge list has duplicates")
        object.__setattr__(self, "edges", edges)
        k = len(self.nodes) * len(coins)
        unitary = np.asarray(self.unitary, dtype=complex)
        if unitary.shape != (k, k):
            raise DimensionMismatchError(f"unitary must have shape {(k, k)}, got {unitary.shape}")
        wave = np.asarray(self.wave, dtype=complex)
        if wave.shape != (k,):
            raise DimensionMismatchError(f"wave must have shape {(k,)}, got {wave.shape}")
        object.__setattr__(self, "unitary", unitary)
        object.__setattr__(self, "wave", wave)

    @property
    def coin_count(self) -> int:
        return len(self.coins)

    @property
    def dim(self) -> int:
        return len(self.nodes) * self.coin_count

    def basis_index(self, node: str, coin: str) -> int:
        return self.nodes.index(node) * self.coin_count + self.coins.index(coin)

    def block(self, node: str) -> slice:
        i = self.nodes.index(node)
        return slice(i * self.coin_count, (i + 1) * self.coin_count)

    def neighbors(self, node: str) -> tuple[str, ...]:
        return tuple(b for a, b in self.edges if a == node)


def validate_qrw(
    qrw: QrwParam,
    unitary_tol: float = DEFAULTS.unitary_tol,
    trace_tol: float = DEFAULTS.trace_tol,
) -> ValidationReport:
    """Check wave normalization, unitarity, and graph locality of the evolution."""
    report = ValidationReport()
    norm = float(np.linalg.norm(qrw.wave))
    if abs(norm - 1.0) > trace_tol:
        report.add("wave-norm", f"initial wave norm is {norm!r}, expected 1", ("wave",))
    if not is_unitary(qrw.unitary, unitary_tol):
        report.add("not-unitary", "evolution operator is not unitary", ("unitary",))
    for node in qrw.nodes:
        allowed = set(qrw.neighbors(node)) | {node}
        for coin in qrw.coins:
            column = qrw.unitary[:, qrw.basis_index(node, coin)]
            for other in qrw.nodes:
                if other in allowed:
                    continue
                leak = float(np.max(np.abs(column[qrw.block(other)])))
                if leak > unitary_tol:
                    report.add(
                        "locality",
                        f"evolution moves amplitude from node {node!r} to "
                        f"non-adjacent node {other!r} (magnitude {leak:.3e})",
                        ("unitary", node, other),
                    )
    return report


@dataclass(frozen=True)
class QrwStep:
    """One evolve-and-measure step: node distribution plus collapsed waves.

    ``collapsed`` only contains nodes of positive probability; collapsing
    onto a zero-probability node is undefined.
    """

    probabilities: dict[str, float]
    collapsed: dict[str, np.ndarray] = field(repr=False, default_factory=dict)


# A collapse onto a node of at most this weight is undefined.
_ZERO_WEIGHT = 1e-15


def qrw_step(
    qrw: QrwParam,
    wave=None,
    trace_tol: float = DEFAULTS.trace_tol,
) -> QrwStep:
    """Apply the unitary to ``wave`` (default: the initial wave) and measure the node."""
    psi = qrw.wave if wave is None else np.asarray(wave, dtype=complex)
    if psi.shape != (qrw.dim,):
        raise DimensionMismatchError(f"wave must have shape {(qrw.dim,)}, got {psi.shape}")
    _require_unit_wave(psi, trace_tol)
    evolved = qrw.unitary @ psi
    probabilities: dict[str, float] = {}
    collapsed: dict[str, np.ndarray] = {}
    for node in qrw.nodes:
        block = qrw.block(node)
        weight = float(np.sum(np.abs(evolved[block]) ** 2))
        probabilities[node] = weight
        if weight > _ZERO_WEIGHT:
            projected = np.zeros_like(evolved)
            projected[block] = evolved[block]
            collapsed[node] = projected / np.sqrt(weight)
    return QrwStep(probabilities, collapsed)


def qrw_eval(qrw: QrwParam, word, trace_tol: float = DEFAULTS.trace_tol) -> float:
    """Word probability as the product of step probabilities along the collapse path.

    Only the chosen node's block is evolved: the first step applies that
    block's rows of the unitary to the initial wave, every later one the
    k x k block from the previous node's coins to the chosen node's.
    """
    nodes = qrw.nodes.indices(word)
    if not nodes:
        return 1.0
    _require_unit_wave(qrw.wave, trace_tol)
    n, k = len(qrw.nodes), qrw.coin_count
    blocks = _node_columns(qrw).reshape(n, n, k, k)
    evolve = qrw.unitary.reshape(n, k, qrw.dim)
    amplitudes = qrw.wave
    probability = 1.0
    for node in nodes:
        evolved = evolve[node] @ amplitudes
        weight = float(np.vdot(evolved, evolved).real)
        probability *= weight
        if weight <= _ZERO_WEIGHT:
            return 0.0
        amplitudes = evolved / math.sqrt(weight)
        evolve = blocks[node]
    return probability


def _require_unit_wave(wave: np.ndarray, trace_tol: float) -> None:
    norm = float(np.linalg.norm(wave))
    if abs(norm - 1.0) > trace_tol:
        raise ValidationError(f"wave norm is {norm!r}, expected 1 within {trace_tol:.3e}")


def _node_columns(qrw: QrwParam) -> np.ndarray:
    """The unitary's columns of each node's coin block, as (nodes, dim, coins)."""
    n, k = len(qrw.nodes), qrw.coin_count
    return np.ascontiguousarray(qrw.unitary.reshape(qrw.dim, n, k).transpose(1, 0, 2))


def qrw_process(qrw: QrwParam, trace_tol: float = DEFAULTS.trace_tol) -> Process:
    return Process(
        qrw.nodes,
        lambda w: qrw_eval(qrw, w, trace_tol),
        lowering=lambda: _qrw_form(qrw),
    )


def _qrw_form(qrw: QrwParam) -> LinearForm:
    """Kraus superoperators K_a ⊗ conj(K_a), K_a = P_a U, on row-major vec(rho).

    vec(K rho K*) = (K ⊗ conj(K)) vec(rho), transposed here because
    states are row vectors; the end vector vec(I) takes the trace.
    """
    k = qrw.dim
    superops = []
    for node in qrw.nodes:
        kraus = np.zeros((k, k), dtype=complex)
        kraus[qrw.block(node)] = qrw.unitary[qrw.block(node)]
        superops.append(np.kron(kraus, kraus.conj()).T)
    density = np.outer(qrw.wave, qrw.wave.conj())
    return LinearForm(density.reshape(-1), np.stack(superops), np.eye(k).reshape(-1))


# --------------------------------------------------------------------------
# Trajectory sampling.
#
# RNG: NumPy's PCG64 behind numpy.random.Generator, one stream per call,
# seeded with SeedSequence(seed).  A call for ``count`` trajectories that
# take ``draws`` uniforms each reads a (count, draws) block of uniforms
# that the stream fills row by row, and trajectory i reads row i.  So
# ``sample_trajectory`` is row 0, and the words of a smaller count are a
# prefix of a larger count's.  Each draw is an inverse-CDF draw over the
# current branch distribution (single uniform per draw), so recorded
# trajectories are reproducible from the seed alone.  HMM draws read
# normalised CDF tables; walk and chain draws compare the uniform times the
# total weight with the running sums of the (clamped) weights, which is the
# same draw up to rounding at the CDF's steps.  The block is filled
# ``_SAMPLE_BLOCK`` rows at a time, which gives the same doubles as one
# call, and the trajectories of a block advance together, one array step
# per symbol.
#
# Walk and chain steps do not check their distributions.  They keep each
# step's masses, and every ``_CHECK_STEPS`` steps one vectorised pass finds
# the first step, and in it the first trajectory, that the per-step checks
# refuse and raises their error.  Steps after a failure run on, under
# np.errstate, and are thrown away.
# --------------------------------------------------------------------------

# Trajectories advanced together: bounds the uniform table and the state
# stack at O(block * length) whatever the count.  Words do not depend on it.
# At 2000 trajectories x 2000 symbols (8-state HMM, dimension-16 walk, one
# BLAS thread) 256 takes the time of a single all-at-once block at 40-60%
# of its extra peak RSS; 64 takes 1.6-1.7x as long.
_SAMPLE_BLOCK = 256

# Steps whose masses are kept between checks: bounds that buffer at
# O(block * _CHECK_STEPS) whatever the length.  Words and errors do not
# depend on it.
_CHECK_STEPS = 64


def _check_rows(values: np.ndarray, clamp_tol: float, what: str) -> None:
    """Refuse rows of weights with an entry below ``-clamp_tol``, then rows with no positive entry.

    Entries above ``-clamp_tol`` and below 0 are clamped to 0.  The first
    refused row names the error.
    """
    if values.min() < -clamp_tol:
        lowest = values.min(axis=1)
        value = float(lowest[lowest < -clamp_tol][0])
        raise SamplingError(f"{what} has probability {value!r} below the clamp tolerance")
    if np.maximum(values, 0.0).sum(axis=1).min() <= 0.0:
        raise SamplingError(f"{what} has no positive branch to sample")


def _draw_rows(cdfs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One inverse-CDF draw per row: ``searchsorted(row, u * row[-1], side="right")``, capped at the last index.

    A CDF does not decrease, so counting its entries before the last that
    are at most the threshold gives that capped count.  Here and in the
    step loops, ``np.add.reduce`` and ``np.add.accumulate`` are np.sum and
    np.cumsum at less call overhead.
    """
    return np.add.reduce(cdfs[:, :-1] <= (u * cdfs[:, -1])[:, None], axis=1)


def _chunk_ends(length: int, t: int) -> bool:
    """True when step ``t`` is the last of its ``_CHECK_STEPS`` chunk or of the word."""
    return t % _CHECK_STEPS == _CHECK_STEPS - 1 or t == length - 1


class _RowCdfs:
    """Clamped cumulative distributions of a matrix's rows, built in one pass.

    An invalid row raises only when a trajectory reaches it, so a row that
    is never reached is never checked.
    """

    def __init__(self, matrix: np.ndarray, clamp_tol: float, what: str):
        self._matrix, self._clamp_tol, self._what = matrix, clamp_tol, what
        clamped = np.maximum(matrix, 0.0)
        total = clamped.sum(axis=1)
        invalid = (matrix.min(axis=1) < -clamp_tol) | (total <= 0.0)
        self.cdfs = np.cumsum(clamped / np.where(invalid, 1.0, total)[:, None], axis=1)
        self.invalid = invalid if invalid.any() else None

    def check(self, rows: np.ndarray) -> None:
        """Raise the error of the first invalid row among ``rows``."""
        if self.invalid is not None and self.invalid[rows].any():
            # every row passed here is invalid, so this raises its error
            _check_rows(self._matrix[rows[self.invalid[rows]]], self._clamp_tol, self._what)

    def draw(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        self.check(rows)
        return _draw_rows(self.cdfs[rows], u)


def _hmm_sampler(hmm: HmmParam, clamp_tol: float):
    """Uniforms per trajectory: the initial state, then an emission and a transition per symbol.

    A symbol's emission and transition are both drawn from the current
    state, so they are drawn together from the two CDF tables side by
    side.  Each table holds a row's entries before its last, padded with
    +inf to the wider width, so ``argmin(entry <= u * cdf[-1])``, the first
    entry above the threshold, always exists and equals ``_draw_rows``.
    The rows are checked when the tables are built, so a step checks the
    states it reaches only when some row is invalid.
    """
    initial = _RowCdfs(hmm.initial[None], clamp_tol, "initial distribution")
    emission = _RowCdfs(hmm.emission, clamp_tol, "emission row")
    transition = _RowCdfs(hmm.transition, clamp_tol, "transition row")
    checks = [rows.check for rows in (emission, transition) if rows.invalid is not None]
    k, n = len(hmm.alphabet), len(hmm.states)
    table = np.full((n, 2, max(k, n)), np.inf)
    table[:, 0, : k - 1], table[:, 1, : n - 1] = emission.cdfs[:, :-1], transition.cdfs[:, :-1]
    last = np.stack([emission.cdfs[:, -1], transition.cdfs[:, -1]], axis=1)

    def advance(u: np.ndarray) -> np.ndarray:
        count, length = len(u), (u.shape[1] - 1) // 2
        states = initial.draw(np.zeros(count, dtype=np.intp), u[:, 0])
        pairs = u[:, 1:].reshape(count, length, 2)
        out = np.empty((length, count), dtype=np.intp)
        for t in range(length):
            for check in checks:
                check(states)
            thresholds = pairs[:, t] * last.take(states, axis=0)
            drawn = (table.take(states, axis=0) <= thresholds[..., None]).argmin(axis=2)
            out[t], states = drawn[:, 0], drawn[:, 1]
        return out

    return advance


def _qrw_sampler(qrw: QrwParam, clamp_tol: float, trace_tol: float):
    """Node weights of the evolved waves; only the chosen node's block is kept.

    A collapsed wave is kept as its node's coin amplitudes, so evolving it
    takes only the unitary's columns of that node's block and no full wave
    is built after the initial one.  Node weights are sums of squares, so
    they need no clamp; a chunk's weights are checked once, at its end.
    """
    n, k = len(qrw.nodes), qrw.coin_count
    node_columns = _node_columns(qrw)

    def check(weights: np.ndarray, drawn: np.ndarray) -> None:
        """Raise the error of the first step, and lane, the per-step checks refuse."""
        chosen = np.take_along_axis(weights, drawn[..., None], axis=2)[..., 0]
        for i in np.flatnonzero((chosen <= _ZERO_WEIGHT).any(axis=1)):
            _check_rows(weights[i], clamp_tol, "node distribution")
            if chosen[i].min() <= _ZERO_WEIGHT:
                node = qrw.nodes.symbols[drawn[i][chosen[i] <= _ZERO_WEIGHT][0]]
                raise SamplingError(f"sampled node {node!r} has zero probability")

    def advance(u: np.ndarray) -> np.ndarray:
        count, length = u.shape
        out = np.empty((length, count), dtype=np.intp)
        if not length:
            return out
        _require_unit_wave(qrw.wave, trace_tol)
        offsets = np.arange(count) * n
        kept = np.empty((_CHECK_STEPS, count, n))
        columns, amplitudes = qrw.unitary, np.broadcast_to(qrw.wave, (count, qrw.dim))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for t in range(length):
                evolved = np.matmul(columns, amplitudes[..., None]).reshape(count * n, k)
                weights = kept[t % _CHECK_STEPS]
                np.add.reduce(np.abs(evolved) ** 2, axis=1, out=weights.reshape(-1))
                out[t] = nodes = _draw_rows(np.add.accumulate(weights, axis=1), u[:, t])
                picked = offsets + nodes
                chosen = weights.reshape(-1).take(picked)
                amplitudes = evolved.take(picked, axis=0) / np.sqrt(chosen)[:, None]
                columns = node_columns.take(nodes, axis=0)
                if _chunk_ends(length, t):
                    steps = t % _CHECK_STEPS + 1
                    check(kept[:steps], out[t + 1 - steps : t + 1])
        return out

    return advance


def _chain_sampler(chain, clamp_tol: float):
    """Branches, branch masses and prefix mass of a step from one product.

    ``coords @ [M_a | M_a traces ... | traces]`` gives all three: each
    branch's coordinates followed by its mass, then the prefix mass.  The
    chosen branch is renormalised to unit mass.  A step keeps its prefix
    and branch masses, and a chunk's are checked once, at its end.
    """
    traces = chain.subspace.traces
    d, size = len(traces), len(chain.alphabet)
    weigh = np.concatenate(
        [np.column_stack([m, m @ traces]) for m in chain.letter_matrices] + [traces[:, None]],
        axis=1,
    )

    def check(masses: np.ndarray) -> None:
        """Raise the error of the first step, and lane, the per-step checks refuse."""
        mass, probabilities = masses[..., 0], masses[..., 1:] / masses[..., :1]
        refused = (
            (mass <= clamp_tol)
            | (probabilities.min(axis=2) < -clamp_tol)
            | (np.maximum(probabilities, 0.0).sum(axis=2) <= 0.0)
        )
        for i in np.flatnonzero(refused.any(axis=1)):
            if mass[i].min() <= clamp_tol:
                value = float(mass[i][mass[i] <= clamp_tol][0])
                raise SamplingError(f"remaining trajectory weight {value!r} is not positive")
            _check_rows(probabilities[i], clamp_tol, "branch distribution")

    def advance(u: np.ndarray) -> np.ndarray:
        count, length = u.shape
        out = np.empty((length, count), dtype=np.intp)
        lanes = np.arange(count)
        kept = np.empty((_CHECK_STEPS, count, 1 + size))
        coords = np.broadcast_to(chain.initial_coords, (count, d))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for t in range(length):
                product = coords @ weigh
                branches = product[:, :-1].reshape(count, size, d + 1)
                masses = kept[t % _CHECK_STEPS]
                masses[:, 0], masses[:, 1:] = product[:, -1], branches[:, :, d]
                clamped = np.maximum(masses[:, 1:], 0.0)
                out[t] = drawn = _draw_rows(np.add.accumulate(clamped, axis=1), u[:, t])
                chosen = branches[lanes, drawn]
                coords = chosen[:, :d] / chosen[:, d:]
                if _chunk_ends(length, t):
                    check(kept[: t % _CHECK_STEPS + 1])
        return out

    return advance


def sample_trajectory(
    model,
    length: int,
    seed: int,
    clamp_tol: float = DEFAULTS.clamp_tol,
    trace_tol: float = DEFAULTS.trace_tol,
) -> Word:
    """Sample one word of the given length; deterministic in ``seed``.

    It is the first word of :func:`sample_trajectories` with the same seed.
    """
    if length < 0:
        raise ValidationError("trajectory length must be >= 0")
    return _sample(model, length, 1, seed, clamp_tol, trace_tol)[0]


def sample_trajectories(
    model,
    length: int,
    count: int,
    seed: int,
    clamp_tol: float = DEFAULTS.clamp_tol,
    trace_tol: float = DEFAULTS.trace_tol,
) -> list[Word]:
    """Sample ``count`` independent words; word i reads row i of one seeded stream."""
    if length < 0 or count < 0:
        raise ValidationError("trajectory length and count must be >= 0")
    return _sample(model, length, count, seed, clamp_tol, trace_tol)


def _sample(model, length: int, count: int, seed: int, clamp_tol: float, trace_tol: float) -> list[Word]:
    """``count`` words from one stream, ``_SAMPLE_BLOCK`` trajectories at a time."""
    if isinstance(model, FfmcParam):
        model = model.to_hmm()
    from .chain import QuantumChain

    if isinstance(model, HmmParam):
        alphabet, draws, advance = model.alphabet, 1 + 2 * length, _hmm_sampler(model, clamp_tol)
    elif isinstance(model, QrwParam):
        alphabet, draws, advance = model.nodes, length, _qrw_sampler(model, clamp_tol, trace_tol)
    elif isinstance(model, QuantumChain):
        alphabet, draws, advance = model.alphabet, length, _chain_sampler(model, clamp_tol)
    else:
        raise ValidationError(f"cannot sample trajectories from {type(model).__name__}")
    symbols = np.array(alphabet.symbols, dtype=object)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    words: list[Word] = []
    for start in range(0, count, _SAMPLE_BLOCK):
        uniforms = rng.random((min(_SAMPLE_BLOCK, count - start), draws))
        words.extend(map(tuple, symbols[advance(uniforms).T].tolist()))
    return words
