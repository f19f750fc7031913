"""Concrete model parametrizations and their direct word-probability semantics.

Covers classical hidden Markov models (and their deterministic-emission
variant), finitary parametrizations evaluating words by matrix products,
and edge-labeled quantum random walks driven by a graph-local unitary.
Also hosts seedable trajectory sampling for every model family.
"""

from __future__ import annotations

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
from .process import Alphabet, LinearForm, Process, Word, as_word

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
    symbols = as_word(word, hmm.alphabet)
    matrices = dict(zip(hmm.alphabet.symbols, _emission_split(hmm)))
    vec = hmm.initial
    for symbol in symbols:
        vec = vec @ matrices[symbol]
    return float(vec.sum())


def hmm_process(hmm: HmmParam) -> Process:
    # emit-then-move: M_a = diag(emission[:, a]) @ transition, the same form
    # hmm_eval evaluates, so both agree for any (even non-stochastic) rows
    return Process(
        hmm.alphabet,
        lambda w: hmm_eval(hmm, w),
        dimension=hmm.n_states,
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
        missing = [s for s in states if s not in self.observation]
        if missing:
            raise ValidationError(f"observation function is not total; missing {missing}")
        n = len(states)
        object.__setattr__(self, "initial", _as_float_matrix(self.initial, (n,), "initial"))
        object.__setattr__(
            self, "transition", _as_float_matrix(self.transition, (n, n), "transition")
        )

    def to_hmm(self) -> HmmParam:
        return ffmc_to_hmm(self.states, self.observation, self.initial, self.transition, self.alphabet)


def ffmc_to_hmm(
    states: Sequence[str],
    observation: Mapping[str, str],
    initial,
    transition,
    alphabet: Alphabet | None = None,
) -> HmmParam:
    """Turn a deterministic labeling into a 0/1 emission matrix."""
    states = tuple(str(s) for s in states)
    missing = [s for s in states if s not in observation]
    if missing:
        raise ValidationError(f"observation function is not total; missing {missing}")
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
    symbols = as_word(word, param.alphabet)
    vec = param.initial
    for symbol in symbols:
        vec = vec @ param.letter_matrices[symbol]
    return float(vec @ param.end)


def finitary_process(param: FinitaryParam) -> Process:
    return Process(
        param.alphabet,
        lambda w: finitary_eval(param, w),
        dimension=param.dimension,
        lowering=lambda: LinearForm(
            param.initial,
            np.stack([param.letter_matrices[a] for a in param.alphabet]),
            param.end,
        ),
    )


def is_standard_form(param: FinitaryParam, tol: float = DEFAULTS.eval_tol) -> bool:
    ones = np.ones(param.dimension)
    return (
        np.max(np.abs(param.end - ones)) <= tol
        and abs(float(param.initial @ param.end) - 1.0) <= tol
        and np.max(np.abs(param.total_matrix @ param.end - param.end)) <= tol
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


def qrw_step(
    qrw: QrwParam,
    wave=None,
    trace_tol: float = DEFAULTS.trace_tol,
    zero_tol: float = 1e-15,
) -> QrwStep:
    """Apply the unitary to ``wave`` (default: the initial wave) and measure the node."""
    psi = qrw.wave if wave is None else np.asarray(wave, dtype=complex)
    if psi.shape != (qrw.dim,):
        raise DimensionMismatchError(f"wave must have shape {(qrw.dim,)}, got {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > trace_tol:
        raise ValidationError(f"wave norm is {norm!r}, expected 1 within {trace_tol:.3e}")
    evolved = qrw.unitary @ psi
    probabilities: dict[str, float] = {}
    collapsed: dict[str, np.ndarray] = {}
    for node in qrw.nodes:
        block = qrw.block(node)
        weight = float(np.sum(np.abs(evolved[block]) ** 2))
        probabilities[node] = weight
        if weight > zero_tol:
            projected = np.zeros_like(evolved)
            projected[block] = evolved[block]
            collapsed[node] = projected / np.sqrt(weight)
    return QrwStep(probabilities, collapsed)


def qrw_eval(qrw: QrwParam, word) -> float:
    """Word probability as the product of step probabilities along the collapse path."""
    symbols = as_word(word, qrw.nodes)
    probability = 1.0
    psi = qrw.wave
    for symbol in symbols:
        step = qrw_step(qrw, psi)
        weight = step.probabilities[symbol]
        probability *= weight
        if symbol not in step.collapsed:
            return 0.0
        psi = step.collapsed[symbol]
    return probability


def qrw_process(qrw: QrwParam) -> Process:
    return Process(
        qrw.nodes, lambda w: qrw_eval(qrw, w), dimension=qrw.dim**2, lowering=lambda: _qrw_form(qrw)
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
# RNG: NumPy's PCG64 behind numpy.random.Generator.  A run with ``count``
# trajectories derives one child stream per trajectory from
# SeedSequence(seed).spawn(count), and each symbol is drawn by inverse-CDF
# over the current branch distribution (single uniform per symbol), so
# recorded trajectories are reproducible from the seed alone.
# --------------------------------------------------------------------------


def _draw(rng: np.random.Generator, probabilities: np.ndarray) -> int:
    return _draw_cumulative(rng, np.cumsum(probabilities))


def _draw_cumulative(rng: np.random.Generator, cumulative: np.ndarray) -> int:
    u = rng.random() * cumulative[-1]
    return min(int(np.searchsorted(cumulative, u, side="right")), len(cumulative) - 1)


def _clamp_distribution(values: np.ndarray, clamp_tol: float, what: str) -> np.ndarray:
    lowest = float(values.min())
    if lowest < -clamp_tol:
        raise SamplingError(f"{what} has probability {lowest!r} below the clamp tolerance")
    clamped = np.clip(values, 0.0, None)
    total = float(clamped.sum())
    if total <= 0.0:
        raise SamplingError(f"{what} has no positive branch to sample")
    return clamped / total


class _RowCdfs:
    """Clamped cumulative distributions of a matrix's rows, built on first visit.

    A row that is never reached is never clamped, so it never raises.
    """

    def __init__(self, matrix: np.ndarray, clamp_tol: float, what: str):
        self._matrix, self._clamp_tol, self._what = matrix, clamp_tol, what
        self._rows: list[np.ndarray | None] = [None] * len(matrix)

    def draw(self, rng: np.random.Generator, row: int) -> int:
        cumulative = self._rows[row]
        if cumulative is None:
            probabilities = _clamp_distribution(self._matrix[row], self._clamp_tol, self._what)
            cumulative = self._rows[row] = np.cumsum(probabilities)
        return _draw_cumulative(rng, cumulative)


def _sample_hmm(hmm: HmmParam, length: int, rngs, clamp_tol: float) -> list[Word]:
    """One word per generator; each row's distribution is built once for all of them."""
    initial = _RowCdfs(hmm.initial[None], clamp_tol, "initial distribution")
    emission = _RowCdfs(hmm.emission, clamp_tol, "emission row")
    transition = _RowCdfs(hmm.transition, clamp_tol, "transition row")
    symbols = hmm.alphabet.symbols
    words = []
    for rng in rngs:
        out: list[str] = []
        state = initial.draw(rng, 0)
        for _ in range(length):
            out.append(symbols[emission.draw(rng, state)])
            state = transition.draw(rng, state)
        words.append(tuple(out))
    return words


def _sample_qrw(qrw: QrwParam, length: int, rng: np.random.Generator, clamp_tol: float) -> Word:
    out: list[str] = []
    psi = qrw.wave
    for _ in range(length):
        step = qrw_step(qrw, psi)
        probs = np.array([step.probabilities[node] for node in qrw.nodes])
        index = _draw(rng, _clamp_distribution(probs, clamp_tol, "node distribution"))
        node = qrw.nodes.symbols[index]
        if node not in step.collapsed:
            raise SamplingError(f"sampled node {node!r} has zero probability")
        out.append(node)
        psi = step.collapsed[node]
    return tuple(out)


def sample_trajectory(
    model, length: int, seed: int, clamp_tol: float = DEFAULTS.clamp_tol
) -> Word:
    """Sample one word of the given length; deterministic in ``seed``."""
    if length < 0:
        raise ValidationError("trajectory length must be >= 0")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return _sample(model, length, [rng], clamp_tol)[0]


def sample_trajectories(
    model, length: int, count: int, seed: int, clamp_tol: float = DEFAULTS.clamp_tol
) -> list[Word]:
    """Sample ``count`` independent words using per-trajectory child streams."""
    if length < 0 or count < 0:
        raise ValidationError("trajectory length and count must be >= 0")
    children = np.random.SeedSequence(seed).spawn(count)
    rngs = (np.random.Generator(np.random.PCG64(child)) for child in children)
    return _sample(model, length, rngs, clamp_tol)


def _sample(model, length: int, rngs, clamp_tol: float) -> list[Word]:
    if isinstance(model, FfmcParam):
        model = model.to_hmm()
    if isinstance(model, HmmParam):
        return _sample_hmm(model, length, rngs, clamp_tol)
    if isinstance(model, QrwParam):
        return [_sample_qrw(model, length, rng, clamp_tol) for rng in rngs]
    from .chain import QuantumChain, sample_chain_with_rng

    if isinstance(model, QuantumChain):
        return [sample_chain_with_rng(model, length, rng, clamp_tol) for rng in rngs]
    raise ValidationError(f"cannot sample trajectories from {type(model).__name__}")
