"""Model files: a single JSON schema for every model family.

Top level: ``schema_version``, ``kind``, ``alphabet`` (null for kinds that
have none) and a kind-specific ``payload``.  Complex scalars are
``[re, im]`` pairs; real matrices are plain nested lists; Hermitian
matrices are stored in full and their redundancy is checked on load.
Unknown fields are rejected.  The canonical writer sorts object keys and
prints floats in their shortest round-tripping form, so saving a loaded
canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

import numpy as np

from .chain import ChainKind, OperatorSubspace, QuantumChain, validate_chain
from .config import Config, DEFAULTS
from .errors import (
    DimensionMismatchError,
    QpmkitError,
    SchemaError,
    ValidationError,
    ValidationReport,
)
from .hermitian import Density, DensityKind, hermitian_defects
from .hidden import InformationFunction
from .models import (
    FfmcParam,
    FinitaryParam,
    HmmParam,
    QrwParam,
    is_standard_form,
    validate_hmm,
    validate_qrw,
)
from .process import Alphabet

__all__ = [
    "SCHEMA_VERSION",
    "DensityFile",
    "InfoFunctionsFile",
    "canonical_json",
    "load_model",
    "load_model_report",
    "save_model",
    "model_kind",
]

SCHEMA_VERSION = "1"

_TOP_KEYS = {"schema_version", "kind", "alphabet", "payload"}


@dataclass(frozen=True)
class DensityFile:
    """A density plus optional hidden-state labels and information functions."""

    density: Density
    labels: tuple[str, ...] | None = None
    functions: dict[str, InformationFunction] | None = None


@dataclass(frozen=True)
class InfoFunctionsFile:
    labels: tuple[str, ...]
    functions: dict[str, InformationFunction]


def canonical_json(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\\n"``, byte for byte.

    The same text, and the same ``ValueError`` (non-finite float) or
    ``TypeError`` (unsupported value or key) with json's message, for
    every input json takes, with one exception: a circular structure
    raises ``RecursionError`` instead of json's ``ValueError``.  NumPy
    arrays are also taken, and written as their ``tolist()`` would be.
    ``indent`` forces json's pure-Python encoder; here each float64
    array, and each rectangular nested list of floats, is rendered as
    one block: ``repr`` runs only on its nonzero numbers, and one join
    writes the text.
    """
    out: list[str] = []
    _encode(data, 0, out)
    out.append("\n")
    return "".join(out)


class _Rendered(str):
    """Text that :func:`_encode` writes as it stands: a value rendered before, at its level."""


def _refuse(value):
    """Raise the error that json raises on ``value``, which holds what this encoder refused."""
    json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    raise AssertionError(f"json encoded what canonical_json refused: {value!r}")


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    if "n" in text:  # nan, inf, -inf
        _refuse(value)
    return text


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    _refuse({key: None})


def _encode(value, level: int, out: list[str]) -> None:
    """Append the text of ``value`` at indent ``level``; the type tests follow json's order."""
    if isinstance(value, str):
        out.append(value if type(value) is _Rendered else encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
        elif (block := _float_block(value, level)) is not None:
            out.append(block)
        else:
            newline = "\n" + "  " * (level + 1)
            for i, item in enumerate(value):
                out.append(("," if i else "[") + newline)
                _encode(item, level + 1, out)
            out.append("\n" + "  " * level + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        newline = "\n" + "  " * (level + 1)
        for i, (key, item) in enumerate(sorted(value.items())):
            key = encode_basestring_ascii(_key_text(key))
            out.append(("," if i else "{") + newline + key + ": ")
            _encode(item, level + 1, out)
        out.append("\n" + "  " * level + "}")
    elif isinstance(value, np.ndarray):
        # subclasses may list themselves otherwise (a masked entry as None)
        if type(value) is np.ndarray and value.dtype == np.float64 and value.ndim and value.size:
            out.append(_array_text(value, level))
        else:
            _encode(value.tolist(), level, out)
    else:
        _refuse(value)


# Lists of floats nested deeper than this take the general path, where a
# cycle ends in RecursionError; model files nest them at most 4 deep.
_BLOCK_DEPTH = 32


def _float_block(value, level: int) -> str | None:
    """The text of a rectangular nested list of floats at indent ``level``, else None.

    Only a list of exact floats, or of such blocks all of one non-empty
    shape, qualifies.  The shape is checked and the numbers flattened one
    level at a time, then rendered as one array.
    """
    probe, depth = value, 0
    while type(probe) is list and probe and depth < _BLOCK_DEPTH:
        probe, depth = probe[0], depth + 1
    if type(probe) is not float:
        return None
    shape, items = [], [value]
    for _ in range(depth):
        width = len(items[0])
        if set(map(type, items)) != {list} or set(map(len, items)) != {width}:
            return None
        shape.append(width)
        items = list(itertools.chain.from_iterable(items))
    if set(map(type, items)) != {float}:
        return None
    return _array_text(np.array(items).reshape(shape), level)


_SIGNED_ZEROS = np.array(["0.0", "-0.0"], dtype=object)


def _array_text(arr: np.ndarray, level: int) -> str:
    """The text of a non-empty float64 array at indent ``level``, as json writes its ``tolist()``.

    Model files are mostly exact zeros, so each number's text starts as
    ``"0.0"`` or ``"-0.0"`` by its sign bit, and only the nonzero numbers
    are formatted, by ``repr``.  The texts are interleaved with json's
    separators: one default, overwritten by a strided slice at the block
    boundaries of each axis, outer axes last.
    """
    flat = arr.reshape(-1)
    if not np.isfinite(flat).all():
        _refuse(arr.tolist())
    texts = _SIGNED_ZEROS[np.signbit(flat).view(np.int8)]
    hot = np.flatnonzero(flat)
    texts[hot] = list(map(float.__repr__, flat[hot].tolist()))
    depth, size = arr.ndim, flat.size
    top = level + depth
    parts = ["," + _opening(top, 0)] * (2 * size + 1)
    period = 1
    for count, width in enumerate(reversed(arr.shape[1:]), 1):
        period *= width
        boundary = _closing(top, count) + "," + _opening(top, count)
        parts[2 * period : -1 : 2 * period] = [boundary] * (size // period - 1)
    parts[0] = "[" + _opening(top, depth - 1)
    parts[-1] = _closing(top, depth)
    parts[1::2] = texts.tolist()
    return "".join(parts)


def _closing(top: int, count: int) -> str:
    """The text that closes the innermost ``count`` lists around numbers indented ``top`` levels."""
    return "".join("\n" + "  " * (top - 1 - t) + "]" for t in range(count))


def _opening(top: int, count: int) -> str:
    """The text that opens ``count`` lists, down to numbers indented ``top`` levels."""
    return "".join("\n" + "  " * (top - count + t) + "[" for t in range(count)) + "\n" + "  " * top


def _array_text_length(shape: tuple[int, ...], level: int, number_chars: int) -> int:
    """``len(_array_text(arr, level))`` for an array of ``shape`` whose numbers' texts
    total ``number_chars`` characters, counted without rendering it.

    Between two numbers stands the boundary of as many lists as they
    close: ``size / period - 1`` boundaries close at least ``count`` lists,
    where ``period`` is the size of the innermost ``count`` axes.
    """
    depth, top = len(shape), level + len(shape)
    length = number_chars + 1 + len(_opening(top, depth - 1)) + len(_closing(top, depth))
    lists, shorter = math.prod(shape), 0
    for count in range(depth):
        boundary = len(_closing(top, count)) + 1 + len(_opening(top, count))
        length += (lists - 1) * (boundary - shorter)
        lists, shorter = lists // shape[depth - 1 - count], boundary
    return length


# --------------------------------------------------------------------------
# Reading.
# --------------------------------------------------------------------------


def load_model(path, config: Config = DEFAULTS):
    """Load and validate a model file; raise :class:`SchemaError` on any problem."""
    model, _, violations, _ = _load(path, config)
    if violations:
        raise SchemaError(violations)
    return model


def load_model_report(path, config: Config = DEFAULTS, *, with_report: bool = False):
    """Like :func:`load_model` but returns ``(model_or_None, kind, violations)``.

    With ``with_report`` a fourth item follows: the load-time
    :class:`ValidationReport` of a parsed model whose kind has one (a
    chain's carries its positivity evidence), else None.
    """
    loaded = _load(path, config)
    return loaded if with_report else loaded[:3]


def _load(path, config: Config):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return None, None, [f"cannot read file: {exc}"], None
    raw = _decode_with_shared_basis(text, config)
    if raw is None:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            return None, None, [f"not valid JSON: {exc}"], None
    if not isinstance(raw, dict):
        return None, None, ["top level must be a JSON object"], None

    violations: list[str] = []
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        violations.append(f"unknown top-level fields: {sorted(unknown)}")
    missing = _TOP_KEYS - set(raw)
    if missing:
        violations.append(f"missing top-level fields: {sorted(missing)}")
        return None, None, violations, None
    if raw["schema_version"] != SCHEMA_VERSION:
        violations.append(
            f"schema_version {raw['schema_version']!r} unsupported (expected {SCHEMA_VERSION!r})"
        )
        return None, None, violations, None
    kind = raw["kind"]
    if kind not in _KINDS:
        violations.append(f"unknown kind {kind!r}")
        return None, kind, violations, None
    payload = raw["payload"]
    if not isinstance(payload, dict):
        violations.append("payload must be a JSON object")
        return None, kind, violations, None
    row = _KINDS[kind]
    unknown = set(payload) - row.required - row.optional
    if unknown:
        violations.append(f"unknown payload fields for kind {kind!r}: {sorted(unknown)}")
    missing = row.required - set(payload)
    if missing:
        violations.append(f"missing payload fields for kind {kind!r}: {sorted(missing)}")
    if violations:
        return None, kind, violations, None

    try:
        model, report = row.read(raw["alphabet"], payload, config)
    except QpmkitError as exc:
        return None, kind, [str(exc)], None
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        return None, kind, [f"malformed payload: {exc}"], None
    if report is not None and not report.ok:
        return None, kind, report.messages(), report
    return model, kind, [], report


# A chain file from save_model writes its payload's fields at this indent
# level, ``ambient_dim`` just before ``basis`` and ``initial`` just after.
_PAYLOAD_LEVEL = 2
_BASIS_AT = re.compile(r'"ambient_dim": ([1-9][0-9]{0,8}),\n    "basis": ')
_AFTER_BASIS = ',\n    "initial": '
# Both shared bases start with E_11, whose first entry is written [1.0, 0.0].
_BASIS_PREFIX = _array_text(np.array([[[[1.0, 0.0]]]]), _PAYLOAD_LEVEL).partition("]")[0]
# The numbers of the full basis: 1/sqrt(2) three times and its negative once
# for each pair i < j, and 0.0 or 1.0 everywhere else.
_ROOT_HALF_TEXT = float.__repr__(1.0 / math.sqrt(2.0))


def _decode_with_shared_basis(text: str, config: Config):
    """The file's JSON, its basis block read as a shared subspace; None if it has none.

    A chain file whose basis block is, byte for byte, the one that
    :func:`save_model` writes for ``OperatorSubspace.diagonal(n)`` or
    ``.full(n)`` is decoded with that block replaced by ``null``, and the
    payload's ``basis`` becomes that shared subspace.  The block needs no
    check: decoded, it is exactly the shared stack, which is exactly
    Hermitian and passes any float ``hermitian_tol`` >= 0.  Anything else gives
    None, and the file is decoded as it stands: no such block, a JSON
    error (so that its message locates it in the file), a second
    ``basis`` key anywhere, or an ``ambient_dim`` that the decoded payload
    does not give as n.

    An ``operators`` table that :func:`_operator_table` reads by its
    layout is replaced by ``null`` too, and the payload's ``operators``
    become its arrays, under the same guard: one ``operators`` key in the
    file, and it in the payload.  Its letters are checked against the
    alphabet by :func:`_symbol_stack`, whose findings are the same for
    arrays as for lists.
    """
    tol = config.hermitian_tol
    found = _shared_basis_block(text) if type(tol) is float and tol >= 0 else None
    if found is None:
        return None
    start, end, subspace = found
    table = _operator_table(text, end, subspace.dim)
    rest = text[end:] if table is None else text[end : table[0]] + "null" + text[table[1] :]
    nulled = {"basis": [], "operators": []}

    def pairs(items):
        for key, value in items:
            if key in nulled:
                nulled[key].append(value)
        return dict(items)

    try:
        raw = json.loads(text[:start] + "null" + rest, object_pairs_hook=pairs)
    except json.JSONDecodeError:
        return None
    payload = raw.get("payload") if type(raw) is dict else None
    if nulled["basis"] != [None] or type(payload) is not dict or "basis" not in payload:
        return None
    ambient = payload.get("ambient_dim")
    if type(ambient) is not int or ambient != subspace.ambient_dim:
        return None
    payload["basis"] = subspace
    if table:
        if nulled["operators"] != [None] or "operators" not in payload:
            return None
        payload["operators"] = dict(zip(*table[2:]))
    return raw


def _shared_basis_block(text: str) -> tuple[int, int, OperatorSubspace] | None:
    """``(start, end, subspace)`` of the canonical basis block that ``text`` holds, if any.

    The block follows ``"ambient_dim": n``.  Its length for either shared
    basis is counted from n, and the text must hold ``"initial"`` just
    after it and E_11's first entry at its start; only then is the block
    rendered and compared, so nothing longer than the rest of the file is
    ever rendered.
    """
    found = _BASIS_AT.search(text)
    if found is None:
        return None
    n, start = int(found[1]), found.end()
    off_diagonal = n * (n - 1) // 2
    candidates = ((n, 6 * n**3), (n * n, 6 * n**4 + off_diagonal * (4 * len(_ROOT_HALF_TEXT) - 11)))
    for dim, number_chars in candidates:
        end = start + _array_text_length((dim, n, n, 2), _PAYLOAD_LEVEL, number_chars)
        if not (text.startswith(_AFTER_BASIS, end) and text.startswith(_BASIS_PREFIX, start)):
            continue
        block = _basis_text(n, dim)
        if start + len(block) == end and text.startswith(block, start):
            return start, end, _shared_subspace(n, dim)
    return None


# The operators table follows the basis in a chain file from save_model:
# its letters' keys at this indent level, each letter's d×d block written
# by _array_text one line per row bracket and per number.
_OPERATORS_LEVEL = 3
_OPERATORS_AT = '\n    "operators": '
_TABLE_END = "\n    }"
_KEY_INDENT = "  " * _OPERATORS_LEVEL
_ROW_INDENT = len(_KEY_INDENT) + 2
_NUMBER_INDENT = _ROW_INDENT + 2
# json decodes a table faster when its blocks have fewer numbers than
# this, or when more than one number in _LAYOUT_MAX_HOT is longer than
# -0.0: each such number costs the layout a float and a repr.  Both
# crossovers come from the timing table in CHANGES.md.
_LAYOUT_MIN_NUMBERS = 1024
_LAYOUT_MAX_HOT = 10


def _operator_table(text: str, after: int, d: int):
    """``(start, end, letters, stack)`` of the operators table after ``after``, read by its layout.

    The table must be the one that :func:`save_model` writes: the text's
    newlines, found in one pass, split it into letters of d·(d + 2) + 2
    lines each, whose key and closing lines are compared here.  The keys
    must be plain (printable ASCII, no quote or backslash), so that their
    text is their value, and strictly increasing, as the writer sorts
    them.  :func:`_layout_blocks` reads the blocks.  ``start`` and
    ``end`` bound the table's braces, ``letters`` are its keys and
    ``stack`` their blocks in that order.  Anything else gives None: a
    table of blocks below ``_LAYOUT_MIN_NUMBERS`` numbers, text that is
    not ASCII, or any line that is not where the layout puts it.
    """
    if d * d < _LAYOUT_MIN_NUMBERS or not text.isascii():
        return None
    start = text.find(_OPERATORS_AT, after) + len(_OPERATORS_AT)
    if start < len(_OPERATORS_AT) or not text.startswith("{\n", start):
        return None
    data = np.frombuffer(text.encode("ascii"), np.uint8)
    newlines = _newlines(data, start + 1)
    lines = d * (d + 2) + 2  # the key, d rows of d numbers between brackets, the close
    letters, closed = [], False
    while not closed:
        first = len(letters) * lines
        if first + lines >= len(newlines):
            return None
        line = text[newlines[first] + 1 : newlines[first + 1]]
        close = text[newlines[first + lines - 1] + 1 : newlines[first + lines]]
        key = line[len(_KEY_INDENT) + 1 : -4]
        if (
            line != f'{_KEY_INDENT}"{key}": ['
            or '"' in key
            or "\\" in key
            or not key.isprintable()
            or (letters and key <= letters[-1])
        ):
            return None
        letters.append(key)
        closed = close == _KEY_INDENT + "]"
        if not closed and close != _KEY_INDENT + "],":
            return None
    end = int(newlines[len(letters) * lines])
    if not text.startswith(_TABLE_END, end):
        return None
    stack = _layout_blocks(text, data, newlines[: len(letters) * lines + 1], d)
    return None if stack is None else (start, end + len(_TABLE_END), letters, stack)


# The newlines are found this many bytes at a time, so that a large
# table's scan needs no mask as long as its text.
_SCAN_BYTES = 1 << 22


def _newlines(data: np.ndarray, start: int) -> np.ndarray:
    """The offsets of the newline bytes of ``data`` from ``start`` on."""
    found = [
        at + np.flatnonzero(data[at : at + _SCAN_BYTES] == 10)
        for at in range(start, data.size, _SCAN_BYTES)
    ]
    return np.concatenate(found) if found else np.empty(0, np.intp)


_ZERO, _DOT, _MINUS, _OPEN, _CLOSE, _COMMA, _SPACE = b"0.-[], "


def _layout_blocks(text: str, data: np.ndarray, newlines: np.ndarray, d: int) -> np.ndarray | None:
    """The ``(letters, d, d)`` stack whose lines ``newlines`` bound, else None.

    Each letter's lines after its key are read as ``_array_text(matrix,
    _OPERATORS_LEVEL)`` writes them: a row bracket ``[`` or ``]`` (with a
    comma but after the last row) behind its indent, and one number per
    line, with a comma but after the row's last.  Every line's bytes
    after its indent are compared: a number ``0.0`` or ``-0.0`` by its
    bytes; any other is parsed by ``float`` and kept only if
    ``float.__repr__`` writes it back as it stands, so json decodes it to
    the same double.  The indents are checked by counting each block's
    spaces, which only the indents hold.  Any mismatch gives None, and
    so does a table with more than one number in ``_LAYOUT_MAX_HOT``
    longer than ``-0.0``, before any of its bytes is compared.
    """
    lines = d * (d + 2) + 2
    count = (len(newlines) - 1) // lines
    # the newline before, and the one after, each line of each block: views
    before = newlines[:-1].reshape(count, lines)[:, 1:-1].reshape(count, d, d + 2)
    after = newlines[1:].reshape(count, lines)[:, 1:-1].reshape(count, d, d + 2)
    commas = np.ones(d, dtype=newlines.dtype)  # after each row and each number but the last
    commas[-1] = 0
    last = after[..., 1:-1] - commas  # each number's end
    size = last - before[..., 1:-1]  # each number's length
    size -= 1 + _NUMBER_INDENT
    if np.count_nonzero(size > 4) * _LAYOUT_MAX_HOT > size.size:
        return None
    if not (
        (after[..., 0] - before[..., 0] == _ROW_INDENT + 2).all()
        and (data[after[..., 0] - 1] == _OPEN).all()
        and (after[..., -1] - before[..., -1] == _ROW_INDENT + 2 + commas).all()
        and (data[before[..., -1] + 1 + _ROW_INDENT] == _CLOSE).all()
        and (data[after[..., :-1, -1] - 1] == _COMMA).all()
        and (data[after[..., 1:-2] - 1] == _COMMA).all()
    ):
        return None
    negative = size == 4
    negative &= data[last - 4] == _MINUS
    zero = size == 3
    zero |= negative
    for back, byte in ((3, _ZERO), (2, _DOT), (1, _ZERO)):
        zero &= data[last - back] == byte
    hot = np.flatnonzero(~zero)
    ends = last.reshape(-1)[hot]
    bounds = zip((ends - size.reshape(-1)[hot]).tolist(), ends.tolist())
    tokens = [text[a:b] for a, b in bounds]
    try:
        numbers = list(map(float, tokens))
    except ValueError:
        return None
    if list(map(float.__repr__, numbers)) != tokens or not all(map(math.isfinite, numbers)):
        return None
    values = np.where(negative, -0.0, 0.0)
    values.reshape(-1)[hot] = numbers
    spaces = _ROW_INDENT * 2 * d + _NUMBER_INDENT * d * d
    for letter in range(count):
        block = data[newlines[letter * lines + 1] : newlines[(letter + 1) * lines - 1]]
        if np.count_nonzero(block == _SPACE) != spaces:
            return None
    return values


def _shared_subspace(n: int, dim: int) -> OperatorSubspace | None:
    """``OperatorSubspace.diagonal(n)`` for ``dim`` n, ``.full(n)`` for ``dim`` n², else None."""
    shared = {n: OperatorSubspace.diagonal, n * n: OperatorSubspace.full}.get(dim)
    return shared and shared(n)


def _shared_basis_text(sub: OperatorSubspace) -> str | None:
    """:func:`_basis_text` for ``sub`` when its basis has the bits of a shared one, else None."""
    shared = _shared_subspace(sub.ambient_dim, sub.dim)
    if shared is None or not np.array_equal(sub.basis.view(np.uint64), shared.basis.view(np.uint64)):
        return None
    return _basis_text(sub.ambient_dim, sub.dim)


@lru_cache(maxsize=8)
def _basis_text(n: int, dim: int) -> str:
    """The canonical text of :func:`_shared_subspace`'s basis, at the payload's level."""
    return _array_text(_dump_cmatrix(_shared_subspace(n, dim).basis), _PAYLOAD_LEVEL)


def _need_alphabet(alphabet) -> Alphabet:
    if not isinstance(alphabet, list) or not alphabet:
        raise ValueError("alphabet must be a non-empty list of symbols")
    return Alphabet(tuple(str(s) for s in alphabet))


def _field(payload, field: str, wants: str, accepts: Callable[[object], bool]):
    """The payload's ``field``, refused, as not ``wants``, unless it ``accepts`` it."""
    value = payload[field]
    if not accepts(value):
        raise ValueError(f"{field} must be {wants}, got {value!r}")
    return value


def _is_list(value) -> bool:
    return type(value) is list


def _array(data, what: str, ndim: int | None = None) -> np.ndarray:
    """A payload array: one rectangular nesting of finite JSON numbers.

    With ``ndim`` None the numbers are real and nested as deep as the
    first entry, one or two lists; else each entry is an ``[re, im]``
    pair and the pairs are nested ``ndim`` lists deep.  The lists are
    flattened one level at a time, each level's lengths checked to agree,
    and the numbers converted as one flat list: numpy converts a nested
    list at a cost per list, and most of these lists are pairs.  The
    pairs are viewed as complex numbers, so every bit, the sign of zero
    included, is what the per-entry parse gives.  Anything else is
    refused by :func:`_refuse_entries`, which names the first bad entry.
    """
    pairs = ndim is not None
    if not pairs:
        ndim, probe = 0, data
        while type(probe) is list:
            ndim, probe = ndim + 1, probe[0] if probe else None
    shape, items = [], [data]
    try:
        for _ in range(ndim + pairs):
            if not items and len(shape) == ndim:  # an empty vector has no pairs to count
                shape.append(2)
                break
            (width,) = set(map(len, items))
            shape.append(width)
            items = list(itertools.chain.from_iterable(items))
        flat = np.array(items)
        if flat.dtype.kind == "O" and set(map(type, items)) <= {int, float}:
            flat = np.array(items, dtype=float)  # integers wider than 64 bits
    except (TypeError, ValueError, OverflowError):  # a number where a list belongs, say
        flat = None
    if (
        flat is None
        or flat.ndim != 1
        or flat.dtype.kind not in "iuf"
        or not np.isfinite(flat).all()
        or (pairs and shape[-1] != 2)
    ):
        _refuse_entries(data, what, ndim if pairs else min(ndim, 2), pairs)
        # every list is rectangular on its own: an empty nesting, or rows of rows of two shapes
        wants = "non-empty nested list" if pairs else "vector or matrix"
        raise ValueError(f"{what} must be a {wants}")
    arr = flat.astype(float, copy=False).reshape(shape)
    if pairs:
        return arr.view(complex)[..., 0]
    if ndim not in (1, 2):
        raise ValueError(f"{what} must be a vector or matrix")
    return arr


def _refuse_entries(data, what: str, depth: int, pairs: bool) -> None:
    """Raise the error that names the first entry of ``data`` breaking :func:`_array`'s rule.

    Entries are checked in order, each list's own entries before the
    lengths of its rows.  Returns if every list is rectangular on its own.
    """
    if depth:
        if type(data) is not list:
            raise ValueError(f"{what}: {data!r} is not a list")
        for i, item in enumerate(data):
            _refuse_entries(item, f"{what}[{i}]", depth - 1, pairs)
        if depth > 1 and len(set(map(len, data))) > 1:
            raise ValueError(f"{what} rows differ in length")
    elif pairs and (type(data) is not list or len(data) != 2):
        raise ValueError(f"{what}: complex scalars must be [re, im] pairs")
    else:
        for number in data if pairs else [data]:
            if type(number) not in (int, float) or not math.isfinite(float(number)):
                raise ValueError(f"{what}: {number!r} is not a finite number")


def _self_adjoint(stack: np.ndarray, names: Callable[[int], str], config: Config) -> None:
    """Refuse the first matrix of a non-empty (count, n, n) stack that is not self-adjoint."""
    defects = hermitian_defects(stack)
    over = np.flatnonzero(defects > config.hermitian_tol)
    if len(over):
        raise ValueError(f"{names(over[0])} is not self-adjoint (defect {defects[over[0]]:.3e})")


def _density(data, what: str, wants, unknown: str, config: Config) -> Density:
    """A quantum or generalized density, as ``wants`` says; other kinds are ``unknown``."""
    matrix = _array(data, what, 2)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{what} must be square")
    _self_adjoint(matrix[None], lambda _: what, config)
    wants = str(wants)
    if wants == DensityKind.QUANTUM.value:
        return Density.quantum(matrix, config.trace_tol, config.psd_tol, config.hermitian_tol)
    if wants == DensityKind.GENERALIZED.value:
        return Density.generalized(matrix, config.trace_tol, config.hermitian_tol)
    raise ValueError(f"{unknown} {wants!r}")


def _chain_basis(data, ambient: int, config: Config):
    """The basis elements, each square, ``ambient`` wide and self-adjoint.

    A well-formed basis is read as one stacked array with one batched
    defect check; elements that differ in shape, or one that is
    malformed, are read one by one, which names what is wrong.
    """
    try:
        basis = _array(data, "basis", 3)
    except ValueError:
        if type(data) is not list:
            raise
        basis = [_array(mat, f"basis[{i}]", 2) for i, mat in enumerate(data)]
    for i, mat in enumerate(basis):
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"basis[{i}] must be square")
        if mat.shape != (ambient, ambient):
            raise ValueError(f"basis[{i}] must be {ambient}x{ambient}")
    if len(basis):
        basis = np.asarray(basis)
        _self_adjoint(basis, lambda i: f"basis[{i}]", config)
    return basis


def _parse_hmm(alphabet, payload, config):
    hmm = HmmParam(
        states=tuple(str(s) for s in _field(payload, "states", "a list", _is_list)),
        alphabet=_need_alphabet(alphabet),
        emission=_array(payload["emission"], "emission"),
        initial=_array(payload["initial"], "initial"),
        transition=_array(payload["transition"], "transition"),
    )
    return hmm, validate_hmm(hmm, config=config)


def _parse_ffmc(alphabet, payload, config):
    observation = payload["observation"]
    if not isinstance(observation, dict):
        raise ValueError("observation must map states to symbols")
    ffmc = FfmcParam(
        states=tuple(str(s) for s in _field(payload, "states", "a list", _is_list)),
        observation={str(k): str(v) for k, v in observation.items()},
        initial=_array(payload["initial"], "initial"),
        transition=_array(payload["transition"], "transition"),
        alphabet=_need_alphabet(alphabet),
    )
    return ffmc, validate_hmm(ffmc.to_hmm(), config=config)


def _parse_finitary(alphabet, payload, config):
    alpha = _need_alphabet(alphabet)
    dimension = _field(payload, "dimension", "an integer", lambda v: type(v) is int)
    initial = _array(payload["initial"], "initial")
    param = FinitaryParam(
        alphabet=alpha,
        matrices=_symbol_stack(alpha, payload, "letter_matrices", len(initial)),
        initial=initial,
        end=_array(payload["end"], "end"),
        standard_form=_field(payload, "standard_form", "a boolean", lambda v: type(v) is bool),
    )
    report = ValidationReport()
    if param.dimension != dimension:
        report.add("dimension", f"declared dimension {dimension} but vectors have {param.dimension}")
    if param.standard_form and not is_standard_form(param, config=config):
        report.add("standard-form", "flagged standard form but constraints do not hold")
    return param, report


def _parse_qrw(alphabet, payload, config):
    qrw = QrwParam(
        nodes=_need_alphabet(alphabet),
        edges=tuple((str(a), str(b)) for a, b in _edges(payload)),
        coins=tuple(str(c) for c in _field(payload, "coins", "a list", _is_list)),
        unitary=_array(payload["unitary"], "unitary", 2),
        wave=_array(payload["wave"], "wave", 1),
    )
    return qrw, validate_qrw(qrw, config=config)


def _edges(payload) -> list:
    edges = _field(payload, "edges", "a list", _is_list)
    for i, edge in enumerate(edges):
        if type(edge) is not list or len(edge) != 2:
            raise ValueError(f"edges[{i}] must be a [from, to] pair, got {edge!r}")
    return edges


def _parse_chain(kind: ChainKind):
    def parse(alphabet, payload, config):
        alpha = _need_alphabet(alphabet)
        ambient = _field(
            payload, "ambient_dim", "a positive integer", lambda v: type(v) is int and v > 0
        )
        subspace = payload["basis"]
        if not isinstance(subspace, OperatorSubspace):  # else shared: _decode_with_shared_basis
            basis = _chain_basis(subspace, ambient, config)
            subspace = OperatorSubspace(basis, config.hermitian_tol)
        operators = _symbol_stack(alpha, payload, "operators", subspace.dim)
        initial = _density(
            payload["initial"], "initial", payload["initial_kind"], "unknown initial_kind", config
        )
        chain = QuantumChain(alpha, subspace, operators, initial, kind)
        return chain, validate_chain(chain, config=config)

    return parse


# How a file's table of one matrix per symbol names, in its findings, one
# matrix, several, and one of the wrong shape.
_SYMBOL_TABLES = {
    "operators": ("operator", "operators", "coordinate matrix must be {d}x{d}, got {shape}"),
    "letter_matrices": (
        "letter matrix",
        "letter matrices",
        "letter matrix {symbol!r} must have shape {square}, got {shape}",
    ),
}


def _symbol_stack(alphabet: Alphabet, payload, field: str, d: int) -> np.ndarray:
    """The payload's ``field``, one d×d matrix per symbol, as one stack in alphabet order.

    Entries are read, and their shapes checked, in file order; an entry
    that :func:`_operator_table` read by its layout is already an array.
    """
    one, many, wrong_shape = _SYMBOL_TABLES[field]
    table = payload[field]
    if not isinstance(table, dict):
        raise ValueError(f"{field} must map symbols to matrices")
    matrices = {}
    for symbol, data in table.items():
        if type(data) is not np.ndarray:
            data = _array(data, f"{one} {symbol!r}")
        matrix = matrices[str(symbol)] = data
        if matrix.shape != (d, d):
            raise DimensionMismatchError(
                wrong_shape.format(symbol=symbol, d=d, square=(d, d), shape=matrix.shape)
            )
    for symbol in alphabet:
        if symbol not in matrices:
            raise ValidationError(f"missing {one} for symbol {symbol!r}")
    extra = set(matrices) - set(alphabet.symbols)
    if extra:
        raise ValidationError(f"{many} for unknown symbols: {sorted(extra)}")
    return np.stack([matrices[symbol] for symbol in alphabet])


def _parse_density(alphabet, payload, config):
    if alphabet is not None:
        raise ValueError("density files take no alphabet (use null)")
    density = _density(payload["matrix"], "matrix", payload["kind"], "unknown density kind", config)
    labels = None
    functions = None
    if "labels" in payload:
        labels = tuple(str(s) for s in _field(payload, "labels", "a list", _is_list))
        if len(labels) != density.dim:
            raise ValueError("one label per matrix dimension required")
    if "info_functions" in payload:
        if labels is None:
            raise ValueError("info_functions require labels")
        functions = _parse_functions(payload["info_functions"], labels)
    return DensityFile(density, labels, functions), None


def _parse_info_functions(alphabet, payload, config):
    if alphabet is not None:
        raise ValueError("info_functions files take no alphabet (use null)")
    labels = tuple(str(s) for s in _field(payload, "labels", "a list", _is_list))
    functions = _parse_functions(payload["functions"], labels)
    return InfoFunctionsFile(labels, functions), None


def _parse_functions(data, labels) -> dict[str, InformationFunction]:
    if not isinstance(data, dict):
        raise ValueError("info functions must map names to label->value tables")
    out: dict[str, InformationFunction] = {}
    for name, table in data.items():
        if not isinstance(table, dict):
            raise ValueError(f"info function {name!r} must be a label->value table")
        missing = [label for label in labels if label not in table]
        if missing:
            raise ValueError(f"info function {name!r} missing labels {missing}")
        extra = set(table) - set(labels)
        if extra:
            raise ValueError(f"info function {name!r} has unknown labels {sorted(extra)}")
        out[str(name)] = InformationFunction(str(name), {str(k): v for k, v in table.items()})
    return out


# --------------------------------------------------------------------------
# Writing.
# --------------------------------------------------------------------------


def _dump_cmatrix(matrix: np.ndarray) -> np.ndarray:
    """A float64 array of ``[re, im]`` pairs, one per entry of a complex array."""
    return np.stack([matrix.real, matrix.imag], axis=-1)


def _dump_hmm(model: HmmParam):
    return list(model.alphabet.symbols), {
        "states": list(model.states),
        "emission": model.emission,
        "initial": model.initial,
        "transition": model.transition,
    }


def _dump_ffmc(model: FfmcParam):
    return list(model.to_hmm().alphabet.symbols), {
        "states": list(model.states),
        "observation": dict(model.observation),
        "initial": model.initial,
        "transition": model.transition,
    }


def _dump_finitary(model: FinitaryParam):
    return list(model.alphabet.symbols), {
        "dimension": model.dimension,
        "letter_matrices": dict(zip(model.alphabet, model.matrices)),
        "initial": model.initial,
        "end": model.end,
        "standard_form": bool(model.standard_form),
    }


def _dump_qrw(model: QrwParam):
    return list(model.nodes.symbols), {
        "edges": [list(e) for e in model.edges],
        "coins": list(model.coins),
        "unitary": _dump_cmatrix(model.unitary),
        "wave": _dump_cmatrix(model.wave),
    }


def _dump_chain(model: QuantumChain, basis=None):
    return list(model.alphabet.symbols), {
        "ambient_dim": model.subspace.ambient_dim,
        "basis": _dump_cmatrix(model.subspace.basis) if basis is None else basis,
        "operators": dict(zip(model.alphabet, model.operators)),
        "initial": _dump_cmatrix(model.initial.matrix),
        "initial_kind": model.initial.kind.value,
    }


def _dump_density(bundle: DensityFile):
    payload = {
        "matrix": _dump_cmatrix(bundle.density.matrix),
        "kind": bundle.density.kind.value,
    }
    if bundle.labels is not None:
        payload["labels"] = list(bundle.labels)
    if bundle.functions is not None:
        payload["info_functions"] = {name: dict(f.mapping) for name, f in bundle.functions.items()}
    return None, payload


def _dump_info_functions(model: InfoFunctionsFile):
    return None, {
        "labels": list(model.labels),
        "functions": {name: dict(f.mapping) for name, f in model.functions.items()},
    }


class _Kind(NamedTuple):
    """A schema kind: its model class, payload fields, reader and writer.

    ``read(alphabet, payload, config)`` gives the model and its load-time
    report (or None); ``dump(model)`` gives the file's alphabet and payload.
    """

    cls: type
    required: set
    read: Callable
    dump: Callable
    optional: set = set()


_CHAIN_FIELDS = {"ambient_dim", "basis", "operators", "initial", "initial_kind"}
_KINDS = {
    "hmm": _Kind(HmmParam, {"states", "emission", "initial", "transition"}, _parse_hmm, _dump_hmm),
    "ffmc": _Kind(
        FfmcParam, {"states", "observation", "initial", "transition"}, _parse_ffmc, _dump_ffmc
    ),
    "finitary": _Kind(
        FinitaryParam,
        {"dimension", "letter_matrices", "initial", "end", "standard_form"},
        _parse_finitary,
        _dump_finitary,
    ),
    "qrw": _Kind(QrwParam, {"edges", "coins", "unitary", "wave"}, _parse_qrw, _dump_qrw),
    "qmc": _Kind(QuantumChain, _CHAIN_FIELDS, _parse_chain(ChainKind.QMC), _dump_chain),
    "qpm": _Kind(QuantumChain, _CHAIN_FIELDS, _parse_chain(ChainKind.QPM), _dump_chain),
    "density": _Kind(
        DensityFile, {"matrix", "kind"}, _parse_density, _dump_density, {"labels", "info_functions"}
    ),
    "info_functions": _Kind(
        InfoFunctionsFile, {"labels", "functions"}, _parse_info_functions, _dump_info_functions
    ),
}


def model_kind(model) -> str:
    if isinstance(model, QuantumChain):
        return model.kind.value  # one class, two kinds
    if isinstance(model, Density):
        return "density"  # written as a density file without labels
    for kind, row in _KINDS.items():
        if isinstance(model, row.cls):
            return kind
    raise ValueError(f"cannot serialize {type(model).__name__}")


def model_to_dict(model) -> dict:
    kind = model_kind(model)
    bundle = DensityFile(model) if isinstance(model, Density) else model
    alphabet, payload = _KINDS[kind].dump(bundle)
    return dict(schema_version=SCHEMA_VERSION, kind=kind, alphabet=alphabet, payload=payload)


def save_model(model, path=None) -> str:
    """Serialize a model canonically; write to ``path`` when given.

    A chain on a shared basis writes the text the loader keeps for it
    (:func:`_shared_basis_text`), neither dumped nor rendered again.
    """
    kept = _shared_basis_text(model.subspace) if isinstance(model, QuantumChain) else None
    if kept is None:
        data = model_to_dict(model)
    else:
        alphabet, payload = _dump_chain(model, _Rendered(kept))
        kind = model.kind.value
        data = dict(schema_version=SCHEMA_VERSION, kind=kind, alphabet=alphabet, payload=payload)
    text = canonical_json(data)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
