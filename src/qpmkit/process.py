"""Alphabets, words, process functions and truncated Hankel matrices.

A process function maps words over a finite alphabet to probabilities:
it is nonnegative, marginally consistent (the one-symbol extensions of a
word sum to the word's own value) and assigns 1 to the empty word.  The
Hankel matrix of a process, indexed by prefix and suffix words, has
finite rank exactly for the finitary processes, and its numerical rank
and row bases drive the conversions elsewhere in the package.
"""

from __future__ import annotations

import csv
import itertools
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .config import DEFAULTS
from .errors import (
    AlphabetError,
    DegenerateSupportError,
    DimensionMismatchError,
    ValidationError,
)

__all__ = [
    "Alphabet",
    "Word",
    "EPSILON",
    "words_of_length",
    "words_up_to",
    "format_word",
    "parse_word",
    "LinearForm",
    "Process",
    "check_process_axioms",
    "TruncatedHankel",
    "build_hankel",
    "numerical_rank",
    "select_row_basis",
    "distinguishing_word",
    "processes_equivalent",
]

Word = tuple[str, ...]

EPSILON: Word = ()


@dataclass(frozen=True)
class Alphabet:
    """An ordered collection of distinct symbol tokens."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        symbols = tuple(str(s) for s in self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if not symbols:
            raise ValidationError("alphabet must not be empty")
        if len(set(symbols)) != len(symbols):
            raise ValidationError(f"alphabet has duplicate symbols: {symbols}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol) -> bool:
        return symbol in self.symbols

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise AlphabetError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None


def words_of_length(alphabet: Alphabet, length: int) -> list[Word]:
    """All words of exactly ``length`` symbols, in alphabet order."""
    if length < 0:
        raise ValidationError("word length must be >= 0")
    return [tuple(p) for p in itertools.product(alphabet.symbols, repeat=length)]


def words_up_to(alphabet: Alphabet, max_length: int) -> list[Word]:
    """All words of at most ``max_length`` symbols, shortest first."""
    out: list[Word] = []
    for t in range(max_length + 1):
        out.extend(words_of_length(alphabet, t))
    return out


def format_word(word: Word) -> str:
    """Render a word for output: symbols joined, multi-char symbols comma-separated."""
    if all(len(s) == 1 for s in word):
        return "".join(word)
    return ",".join(word)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse the CLI's word syntax (concatenated chars or comma-separated tokens)."""
    if text == "":
        return EPSILON
    if "," in text:
        parts = tuple(text.split(","))
    elif all(len(s) == 1 for s in alphabet.symbols):
        parts = tuple(text)
    else:
        parts = (text,)
    for symbol in parts:
        alphabet.index(symbol)
    return parts


def as_word(word, alphabet: Alphabet | None = None) -> Word:
    """Normalize str/sequence input to a symbol tuple, optionally validated."""
    if isinstance(word, str):
        if alphabet is None:
            return tuple(word)
        return parse_word(word, alphabet)
    parts = tuple(word)
    if alphabet is not None:
        for symbol in parts:
            alphabet.index(symbol)
    return parts


class LinearForm(NamedTuple):
    """A process as p(w) = Re(initial · M_w1 ··· M_wn · end).

    ``matrices`` stacks one square matrix per letter in alphabet order.
    Entries may be complex (quantum walks act on vectorised densities);
    word probabilities are the real part of the product.
    """

    initial: np.ndarray
    matrices: np.ndarray
    end: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.initial.shape[0])


@dataclass(frozen=True)
class Process:
    """A word-probability function with an optional declared finitary dimension.

    ``lowering``, when given, returns the process's :class:`LinearForm`;
    it runs on first access of :attr:`linear`, so evaluating single words
    through ``fn`` never pays for it.  A process built from a bare
    callable has no linear form, and the sweeps below fall back to one
    call of ``fn`` per word.
    """

    alphabet: Alphabet
    fn: Callable[[Word], float]
    dimension: int | None = None
    lowering: Callable[[], LinearForm] | None = field(default=None, repr=False, compare=False)

    def __call__(self, word) -> float:
        return float(self.fn(as_word(word, self.alphabet)))

    @cached_property
    def linear(self) -> LinearForm | None:
        return None if self.lowering is None else self.lowering()


def word_states(form: LinearForm, length: int, suffix: bool = False) -> np.ndarray:
    """Prefix states initial·M_v, or suffix states M_w·end, for all words up to ``length``.

    Rows follow :func:`words_up_to` order.  The states are built layer by
    layer over the word trie with one batched matmul per layer (all
    letters at once), so no word is evaluated on its own.
    """
    mats = form.matrices.transpose(0, 2, 1) if suffix else form.matrices
    layer = (form.end if suffix else form.initial)[None, :]
    layers = [layer]
    for _ in range(length):
        grown = layer @ mats  # [a, i] is the state of word i extended by letter a
        # prefixes append a letter (word-major order), suffixes prepend one (letter-major)
        layer = (grown if suffix else grown.transpose(1, 0, 2)).reshape(-1, form.dim)
        layers.append(layer)
    return np.concatenate(layers)


def word_table(process: Process, row_length: int, col_length: int) -> np.ndarray:
    """The matrix [p(vw)] over prefixes v and suffixes w up to the given lengths.

    With a linear form this is the product of the prefix and suffix state
    tables; a callable-only process is evaluated once per entry.
    """
    form = process.linear
    if form is None:
        rows = words_up_to(process.alphabet, row_length)
        cols = words_up_to(process.alphabet, col_length)
        return np.array([[process(v + w) for w in cols] for v in rows])
    prefixes = word_states(form, row_length)
    suffixes = word_states(form, col_length, suffix=True)
    return np.real(prefixes @ suffixes.T)


def check_process_axioms(
    process: Process, horizon: int, tol: float = DEFAULTS.eval_tol
) -> list[str]:
    """Check nonnegativity, marginal consistency and p() == 1 up to ``horizon``.

    Returns human-readable problem descriptions; empty means the axioms
    hold on every word of length at most ``horizon``.
    """
    problems: list[str] = []
    values = word_table(process, max(horizon, 0), 0)[:, 0]
    root = float(values[0])
    if abs(root - 1.0) > tol:
        problems.append(f"p(empty word) is {root!r}, expected 1")
    if horizon < 0:
        return problems
    # in words_up_to order the one-letter extensions of word i sit at k*i + 1 + a
    children = values[1:].reshape(-1, len(process.alphabet))
    extended = np.zeros(children.shape[0])
    for column in children.T:  # left to right, as a running sum would add them
        extended = extended + column
    negative = values < -tol
    inconsistent = np.zeros(values.shape[0], dtype=bool)
    inconsistent[: extended.shape[0]] = np.abs(extended - values[: extended.shape[0]]) > tol
    words = words_up_to(process.alphabet, horizon)
    for i in np.flatnonzero(negative | inconsistent):
        name = format_word(words[i]) or "empty"
        value = float(values[i])
        if negative[i]:
            problems.append(f"p({name}) is negative: {value!r}")
        if inconsistent[i]:
            problems.append(
                f"one-symbol extensions of {name} sum to {float(extended[i])!r}, "
                f"expected {value!r}"
            )
    return problems


@dataclass(frozen=True)
class TruncatedHankel:
    """The matrix [p(vw)] over all prefixes v and suffixes w up to fixed lengths."""

    alphabet: Alphabet
    row_words: tuple[Word, ...]
    col_words: tuple[Word, ...]
    matrix: np.ndarray
    _row_index: dict = field(repr=False, default_factory=dict)
    _col_index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_row_index", {w: i for i, w in enumerate(self.row_words)})
        object.__setattr__(self, "_col_index", {w: i for i, w in enumerate(self.col_words)})

    def entry(self, row_word: Word, col_word: Word) -> float:
        return float(self.matrix[self._row_index[row_word], self._col_index[col_word]])

    def row(self, row_word: Word) -> np.ndarray:
        return self.matrix[self._row_index[row_word]]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow([""] + [format_word(w) for w in self.col_words])
            for word, row in zip(self.row_words, self.matrix):
                writer.writerow([format_word(word)] + [repr(float(x)) for x in row])


def build_hankel(process: Process, row_length: int, col_length: int) -> TruncatedHankel:
    """The Hankel block [p(vw)] over prefixes and suffixes up to the given lengths.

    For a process with a linear form the block is F·Bᵀ, the prefix states
    times the suffix states (the factorisation used in spectral learning
    of weighted automata), so its cost is linear in the number of
    entries.  A callable-only process is evaluated once per entry.
    """
    if row_length < 0 or col_length < 0:
        raise ValidationError("Hankel truncation lengths must be >= 0")
    rows = tuple(words_up_to(process.alphabet, row_length))
    cols = tuple(words_up_to(process.alphabet, col_length))
    return TruncatedHankel(
        process.alphabet, rows, cols, word_table(process, row_length, col_length)
    )


def numerical_rank(hankel: TruncatedHankel, eps: float = DEFAULTS.rank_eps) -> int:
    """Number of singular values above ``eps`` times the largest one."""
    singulars = np.linalg.svd(hankel.matrix, compute_uv=False)
    if singulars.size == 0 or singulars[0] <= 0.0:
        return 0
    return int(np.sum(singulars > eps * singulars[0]))


def select_row_basis(hankel: TruncatedHankel, eps: float = DEFAULTS.rank_eps) -> list[Word]:
    """Greedily pick prefix words whose rows span the Hankel row space.

    Candidates are visited shortest-word-first and must satisfy
    p(v) > eps so that the normalized rows are again process functions.
    Raises :class:`DegenerateSupportError` when the eligible rows cannot
    reach the numerical rank.
    """
    target = numerical_rank(hankel, eps)
    if target == 0:
        return []
    singular_max = float(np.linalg.svd(hankel.matrix, compute_uv=False)[0])
    eps_col = hankel._col_index.get(EPSILON)
    if eps_col is None:
        raise ValidationError("Hankel columns must include the empty word")

    chosen: list[Word] = []
    ortho: list[np.ndarray] = []
    skipped_support = 0
    for i, word in enumerate(hankel.row_words):
        if hankel.matrix[i, eps_col] <= eps:
            skipped_support += 1
            continue
        residual = hankel.matrix[i].astype(float)
        for q in ortho:  # two Gram-Schmidt passes for stability
            residual = residual - np.dot(q, residual) * q
        for q in ortho:
            residual = residual - np.dot(q, residual) * q
        norm = float(np.linalg.norm(residual))
        if norm > eps * singular_max:
            chosen.append(word)
            ortho.append(residual / norm)
            if len(chosen) == target:
                return chosen
    raise DegenerateSupportError(
        f"found {len(chosen)} independent rows with p(v) > {eps:g} but the numerical "
        f"rank is {target} ({skipped_support} rows skipped for insufficient weight)"
    )


def distinguishing_word(
    first: Process, second: Process, tol: float = DEFAULTS.equiv_tol
) -> Word | None:
    """The first word found on which the processes differ by more than ``tol``, or None.

    With linear forms on both sides this is a breadth-first search over
    the direct-sum automaton (Tzeng 1992).  Every visited word is
    compared, and a word's forward state joins the basis only when it is
    independent of the basis so far (relative residual above
    ``rank_eps``); the basis has at most d1 + d2 vectors, so the search
    costs O((d1 + d2)^3 |A|).  Once no new independent state appears,
    every word's state is a combination of visited ones and the
    processes agree everywhere.  Words are visited shortest first, and
    in exact arithmetic the returned word has minimal length.

    When either process is only a callable, every word up to the sum of
    the declared dimensions is compared instead, which needs both
    ``dimension`` fields.
    """
    if first.alphabet.symbols != second.alphabet.symbols:
        raise DimensionMismatchError("processes must share an alphabet")
    one, two = first.linear, second.linear
    if one is None or two is None:
        if first.dimension is None or second.dimension is None:
            raise ValidationError("both processes need a known finitary dimension")
        horizon = int(first.dimension) + int(second.dimension)
        gaps = np.abs(word_table(first, horizon, 0) - word_table(second, horizon, 0))[:, 0]
        over = np.flatnonzero(gaps > tol)
        return words_up_to(first.alphabet, horizon)[over[0]] if over.size else None

    d = one.dim
    dtype = np.result_type(one.matrices, two.matrices, one.initial, two.initial)
    mats = np.zeros((len(first.alphabet), d + two.dim, d + two.dim), dtype=dtype)
    mats[:, :d, :d] = one.matrices
    mats[:, d:, d:] = two.matrices
    probe = np.concatenate([one.end, -two.end])
    basis = np.empty((0, d + two.dim), dtype=dtype)  # orthonormal rows
    queue: deque = deque()

    def visit(word: Word, state: np.ndarray) -> bool:
        nonlocal basis
        if abs(np.real(state @ probe)) > tol:
            return True
        residual = state
        for _ in range(2):  # two Gram-Schmidt passes for stability
            residual = residual - (basis.conj() @ residual) @ basis
        norm = float(np.linalg.norm(residual))
        if norm > DEFAULTS.rank_eps * float(np.linalg.norm(state)):
            basis = np.vstack([basis, residual / norm])
            queue.append((word, state))
        return False

    if visit(EPSILON, np.concatenate([one.initial, two.initial]).astype(dtype)):
        return EPSILON
    while queue:
        word, state = queue.popleft()
        for symbol, grown in zip(first.alphabet, state @ mats):
            if visit(word + (symbol,), grown):
                return word + (symbol,)
    return None


def processes_equivalent(
    first: Process,
    second: Process,
    dim_first: int | None = None,
    dim_second: int | None = None,
    tol: float = DEFAULTS.equiv_tol,
) -> bool:
    """True when no word distinguishes the processes; see :func:`distinguishing_word`.

    ``dim_first`` / ``dim_second`` override the declared dimensions; they
    matter only for callable-only processes, whose comparison runs over
    every word up to the sum of the dimensions.
    """
    if dim_first is not None:
        first = replace(first, dimension=dim_first)
    if dim_second is not None:
        second = replace(second, dimension=dim_second)
    return distinguishing_word(first, second, tol) is None
