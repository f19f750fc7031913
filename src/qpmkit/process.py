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
import math
from collections import deque
from dataclasses import dataclass, field
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

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {symbol: i for i, symbol in enumerate(self.symbols)}

    def indices(self, word) -> list[int]:
        """The letter index of each symbol of ``word``, checked in the same pass.

        ``word`` is a symbol sequence or text in the CLI's word syntax
        (see :func:`parse_word`).  The first symbol not in the alphabet
        raises the :class:`AlphabetError` of :meth:`index`.
        """
        if isinstance(word, str):
            word = _split_word(word, self)
        elif not isinstance(word, (tuple, list)):
            word = tuple(word)
        positions = self._positions
        try:
            return [positions[symbol] for symbol in word]
        except (KeyError, TypeError):  # unhashable symbols are not in the alphabet either
            for symbol in word:
                self.index(symbol)
            raise


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


def _split_word(text: str, alphabet: Alphabet) -> Word:
    if text == "":
        return EPSILON
    if "," in text:
        return tuple(text.split(","))
    if all(len(s) == 1 for s in alphabet.symbols):
        return tuple(text)
    return (text,)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse the CLI's word syntax (concatenated chars or comma-separated tokens)."""
    parts = _split_word(text, alphabet)
    alphabet.indices(parts)
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
    """A word-probability function and the linear form that represents it.

    ``fn`` evaluates one word and checks its symbols against the
    alphabet.  ``lowering`` returns the process's :class:`LinearForm`; it
    runs on first access of :attr:`linear`, so evaluating single words
    through ``fn`` never pays for it.  The sweeps below run on the form.
    """

    alphabet: Alphabet
    fn: Callable[[Word], float]
    lowering: Callable[[], LinearForm] = field(repr=False, compare=False)

    def __call__(self, word) -> float:
        return float(self.fn(word))

    @cached_property
    def linear(self) -> LinearForm:
        return self.lowering()


# Words of at least _BLOCKED_MIN letters on nonnegative forms of dimension
# 1.._BLOCKED_MAX_DIM multiply each block of _BLOCK letters first and step
# the state once per block; the constants come from the timing table in
# CHANGES.md.
_BLOCK = 32
_BLOCK_LEVELS = 5  # log2(_BLOCK) pairwise product levels
_BLOCKED_MIN = 2 * _BLOCK
_BLOCKED_MAX_DIM = 16
_GATHER = 16 * _BLOCK  # letters whose matrices are gathered at once
# A step through a block product whose largest entry is below 1 grows the
# state at most n-fold, so over the 16 blocks of a gather (n <= 16) every
# state on the way is at least 2**-64 of the last one.  When the last one
# is above 2**_FLOOR, none came within 2**53 of the subnormal range.
_FLOOR = -1022 + 53 + 64


def word_value(start: np.ndarray, matrices, letters: list[int], end=None) -> float:
    """float(start · M_l1 ··· M_lT · end), or the sum of the final state without ``end``.

    ``matrices`` holds one real square matrix per letter index (a stacked
    array or a list) and ``letters`` the word's indices
    (:meth:`Alphabet.indices`).  Longer words on narrow forms whose letter
    matrices have no negative entry, such as HMMs and their diagonal
    chains, step the state once per block of letters
    (:func:`_blocked_state`), and the value is ldexp(mantissa, exponent):
    it reads 0.0 only when the word's value is below the double range.
    Words under ``_BLOCKED_MIN`` letters, forms wider than
    ``_BLOCKED_MAX_DIM`` and signed forms step the state once per letter,
    with the bits of the plain loop.  A product of signed matrices can
    cancel: its rounding error, relative to the product, grows with the
    number of factors multiplied before the state sees them.
    """
    narrow = len(letters) >= _BLOCKED_MIN and 0 < start.shape[0] <= _BLOCKED_MAX_DIM
    stacked = np.asarray(matrices) if narrow else None
    if narrow and stacked.min() >= 0.0:
        vec, exponent = _blocked_state(start, stacked, letters)
    else:
        vec, exponent = start, 0
        for a in letters:
            vec = vec @ matrices[a]
    return _scaled(float(vec.sum() if end is None else vec @ end), exponent)


def _blocked_state(start: np.ndarray, mats: np.ndarray, letters: list[int]):
    """The prefix product as (state, exponent), one state step per block of letters.

    Every matrix is carried as mantissa · 2**exponent with its largest
    entry in [0.5, 1), which is exact: the letters once, each block
    product once.  The word is padded with identities to whole blocks of
    ``_BLOCK`` letters.  At most ``_GATHER`` letters are gathered at a
    time, and each block is multiplied in ``_BLOCK_LEVELS`` batched
    pairwise levels, left factor first.  The state then steps through
    the gathered blocks and is rescaled once; if it ended low enough
    that a step may have neared the subnormal range, the gather is
    stepped again with a rescale after every block.  With nonnegative
    letter matrices no sum cancels, so every entry of a block product
    keeps double precision relative to itself.
    """
    count, n = mats.shape[0], mats.shape[1]
    scale = np.frexp(np.abs(mats).max(axis=(1, 2)))[1]
    # letter index ``count`` is the identity that pads the word
    mats = np.concatenate([np.ldexp(mats, -scale[:, None, None]), np.eye(n)[None]])
    scale = np.append(scale, 0)
    indices = np.full(-(-len(letters) // _BLOCK) * _BLOCK, count)
    indices[: len(letters)] = letters
    vec, exponent = _rescale(start, 0)
    for lo in range(0, len(indices), _GATHER):
        chunk = indices[lo : lo + _GATHER]
        blocks = mats[chunk].reshape(-1, _BLOCK, n, n)
        for _ in range(_BLOCK_LEVELS):
            blocks = blocks[:, 0::2] @ blocks[:, 1::2]
        tops = np.frexp(np.abs(blocks).max(axis=(1, 2, 3)))[1]
        blocks = np.ldexp(blocks[:, 0], -tops[:, None, None])
        shifts = (scale[chunk].reshape(-1, _BLOCK).sum(axis=1) + tops).tolist()
        stepped = vec
        for block in blocks:
            stepped = stepped @ block
        stepped, grown = _rescale(stepped, 0)
        if grown > _FLOOR and stepped.any():
            vec, exponent = stepped, exponent + sum(shifts) + grown
            continue
        for block, shift in zip(blocks, shifts):
            vec, exponent = _rescale(vec @ block, exponent + shift)
    return vec, exponent


def _rescale(vals: np.ndarray, exponent: int) -> tuple[np.ndarray, int]:
    """Divide by the power of two nearest the largest magnitude, which is exact."""
    shift = math.frexp(float(np.abs(vals).max()))[1]
    return np.ldexp(vals, -shift), exponent + shift


def _scaled(mantissa: float, exponent: int) -> float:
    """mantissa · 2**exponent as a double: 0.0 below its range, ±inf above it."""
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.copysign(math.inf, mantissa)


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


def check_process_axioms(
    process: Process,
    horizon: int,
    tol: float = DEFAULTS.eval_tol,
    hankel: TruncatedHankel | None = None,
) -> list[str]:
    """Check nonnegativity, marginal consistency and p() == 1 up to ``horizon``.

    Returns human-readable problem descriptions; empty means the axioms
    hold on every word of length at most ``horizon``.  The values are the
    prefix states times the end vector, the empty suffix's state; a
    ``hankel`` of the process with prefixes up to ``horizon`` lends both.
    """
    problems: list[str] = []
    if hankel is None:
        form = process.linear
        prefixes, ends = word_states(form, max(horizon, 0)), form.end[None, :]
    else:
        prefixes, ends = hankel._prefix_states, hankel._suffix_states[:1]
    values = np.real(prefixes @ ends.T)[:, 0]
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
    """The matrix [p(vw)] over all prefixes v and suffixes w up to fixed lengths.

    ``matrix`` is Re(F·Bᵀ), where :func:`build_hankel` keeps the prefix
    states F (N×d) and the suffix states B (M×d) of a d-dimensional
    linear form.  Rank and row-basis analysis decompose these factors,
    never their N×M product.  The analysis is cached on first use, so the
    arrays must not change afterwards.
    """

    alphabet: Alphabet
    row_words: tuple[Word, ...]
    col_words: tuple[Word, ...]
    matrix: np.ndarray
    _prefix_states: np.ndarray = field(repr=False)
    _suffix_states: np.ndarray = field(repr=False)
    _row_index: dict = field(repr=False, default_factory=dict)
    _col_index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_row_index", {w: i for i, w in enumerate(self.row_words)})
        object.__setattr__(self, "_col_index", {w: i for i, w in enumerate(self.col_words)})

    @cached_property
    def _row_factor(self) -> np.ndarray:
        """G = F·R_Bᵀ from the thin QR B = Q_B·R_B, so that ``matrix`` = G·Q_Bᵀ.

        Q_B has orthonormal columns, so the rows of G (at most d wide) have
        the norms and inner products of the Hankel rows, and G has the
        Hankel's nonzero singular values.  Complex states enter as the
        real pair [Re F, Im F] and [Re B, -Im B], whose product is Re(F·Bᵀ).
        """
        prefixes, suffixes = self._prefix_states, self._suffix_states
        if np.iscomplexobj(prefixes) or np.iscomplexobj(suffixes):
            prefixes = np.hstack([prefixes.real, prefixes.imag])
            suffixes = np.hstack([suffixes.real, -suffixes.imag])
        return prefixes @ np.linalg.qr(suffixes, mode="r").T

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of ``matrix``, largest first, from the R factor of G.

        Thin QRs of B and of G and an SVD of at most d×d: O((N + M)·d²)
        instead of the O(N·M·min(N, M)) of decomposing the matrix.  Only
        zero singular values of the matrix can be missing.  The array is
        shared by every caller and read-only.
        """
        values = np.linalg.svd(np.linalg.qr(self._row_factor, mode="r"), compute_uv=False)
        values.flags.writeable = False
        return values

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
    entries.  Both factors stay on the result, where the rank and the
    row basis are computed from them.
    """
    if row_length < 0 or col_length < 0:
        raise ValidationError("Hankel truncation lengths must be >= 0")
    rows = tuple(words_up_to(process.alphabet, row_length))
    cols = tuple(words_up_to(process.alphabet, col_length))
    form = process.linear
    prefixes = word_states(form, row_length)
    suffixes = word_states(form, col_length, suffix=True)
    return TruncatedHankel(
        process.alphabet, rows, cols, np.real(prefixes @ suffixes.T), prefixes, suffixes
    )


def numerical_rank(hankel: TruncatedHankel, eps: float = DEFAULTS.rank_eps) -> int:
    """Number of singular values above ``eps`` times the largest one.

    Reads :attr:`TruncatedHankel.singular_values`, the one SVD of the
    d-wide factor, computed on first use and shared with
    :func:`select_row_basis`.
    """
    singulars = hankel.singular_values
    if singulars.size == 0 or singulars[0] <= 0.0:
        return 0
    return int(np.sum(singulars > eps * singulars[0]))


def select_row_basis(hankel: TruncatedHankel, eps: float = DEFAULTS.rank_eps) -> list[Word]:
    """Greedily pick prefix words whose rows span the Hankel row space.

    Candidates are visited shortest-word-first and must satisfy
    p(v) > eps so that the normalized rows are again process functions.
    The two-pass Gram-Schmidt runs on the d-column rows of the factor G
    (``matrix`` = G·Q with orthonormal Q), which have the Hankel rows'
    norms and inner products; the rank and the largest singular value
    come from the same cached SVD as :func:`numerical_rank`.
    Raises :class:`DegenerateSupportError` when the eligible rows cannot
    reach the numerical rank.
    """
    target = numerical_rank(hankel, eps)
    if target == 0:
        return []
    singular_max = float(hankel.singular_values[0])
    eps_col = hankel._col_index.get(EPSILON)
    if eps_col is None:
        raise ValidationError("Hankel columns must include the empty word")

    rows = hankel._row_factor
    chosen: list[Word] = []
    ortho: list[np.ndarray] = []
    skipped_support = 0
    for i, word in enumerate(hankel.row_words):
        if hankel.matrix[i, eps_col] <= eps:
            skipped_support += 1
            continue
        residual = rows[i]
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
    """
    if first.alphabet.symbols != second.alphabet.symbols:
        raise DimensionMismatchError("processes must share an alphabet")
    one, two = first.linear, second.linear
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


def processes_equivalent(first: Process, second: Process, tol: float = DEFAULTS.equiv_tol) -> bool:
    """True when no word distinguishes the processes; see :func:`distinguishing_word`."""
    return distinguishing_word(first, second, tol) is None
