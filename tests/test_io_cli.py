import argparse
import dataclasses
import difflib
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpmkit as qk
import qpmkit.io as qpmkit_io
from qpmkit import cli
from qpmkit.cli import run_command
from qpmkit.config import DEFAULTS
from qpmkit.errors import DivergenceError, SchemaError, ValidationError
from qpmkit.io import (
    DensityFile,
    InfoFunctionsFile,
    canonical_json,
    load_model,
    load_model_report,
    save_model,
)

import golden_runs
from conftest import FIXTURES
from helpers import (
    action_coords,
    leaky_hmm,
    random_hmm,
    random_kraus_family,
    random_local_qrw,
    random_quantum_density,
    random_unitary,
    walk_kraus,
)
from oracles import complex_entries, complex_form_value, hmm_viterbi_log, walk_form_reference

ALL_FIXTURES = [
    "hmm2.json",
    "hmm3_rank3.json",
    "coin_finitary.json",
    "qrw_hadamard.json",
    "swap_qmc.json",
    "swap_ffmc.json",
    "unbounded_qpm.json",
    "bell5.json",
    "feynman4.json",
]


PINNED_DIGESTS = {
    "hmm2.json": "5acb08ad76eea044",
    "hmm3_rank3.json": "f5cdcaa4082b5420",
    "coin_finitary.json": "c8c965c479bebdba",
    "qrw_hadamard.json": "c130045f807a5414",
    "swap_qmc.json": "01318041abf1a627",
    "swap_ffmc.json": "c2daf2bcd6488cf3",
    "unbounded_qpm.json": "aa6bc40131a1de13",
    "bell5.json": "c0f9021329f04067",
    "feynman4.json": "3034975dfe6db041",
    "hmm2 qmc": "f3c371284784871c",
    "hmm3 qmc": "d261939cd2ac3d93",
    "hmm2 finitary": "23d0915a0d047276",
    "hmm2 qpm": "4456c8879988e3c6",
    "hadamard qmc": "cf61a38a282008e0",
    "walk8 qmc": "da43b45de685a9a1",
    "walk8 finitary": "c0f537390e04e369",
}


def per_element_walk_chain(qrw) -> qk.QuantumChain:
    """A walk's chain built from each node's conjugation map, basis element by basis element.

    Its bits are those of the closed-form Kraus coordinates: both routes
    stack the basis images and read them in one ``expand_all``."""
    sub = qk.OperatorSubspace.full(qrw.dim)
    ops = np.stack(
        [action_coords(sub, lambda q, m=kraus: m @ q @ m.conj().T) for kraus in walk_kraus(qrw)]
    )
    initial = qk.Density.quantum(np.outer(qrw.wave, qrw.wave.conj()))
    return qk.QuantumChain(qrw.nodes, sub, ops, initial, qk.ChainKind.QMC)


def _outcome(encode, value):
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _json_like():
    """Acyclic JSON-like trees; what json refuses turns up in some of them."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    refused = st.sampled_from([math.nan, math.inf, -math.inf, object(), np.int64(3)])

    def rarely(common):
        return st.one_of(*[common] * 19, refused)

    def block(shape, leaves):
        if not shape:
            return leaves
        return st.lists(block(shape[1:], leaves), min_size=shape[0], max_size=shape[0])

    shapes = st.lists(st.integers(1, 3), min_size=1, max_size=4)
    odd_leaves = [
        st.sampled_from([math.nan, math.inf, -math.inf]),
        finite.map(np.float64),
        st.one_of(st.integers(), st.booleans()),
    ]
    blocks = [finite] + [st.one_of(finite, finite, finite, finite, odd) for odd in odd_leaves]
    scalars = rarely(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            st.integers(-(2**80), 2**80),
            finite,
            finite.map(np.float64),
            st.text(),
        )
    )
    numbers = st.one_of(st.integers(), finite, st.booleans(), finite.map(np.float64))
    return st.recursive(
        st.one_of(
            scalars,
            *[shapes.flatmap(lambda shape, leaves=leaves: block(shape, leaves)) for leaves in blocks],
            st.lists(st.lists(finite, max_size=3), max_size=4),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(st.text(), children, max_size=4),
            st.dictionaries(rarely(numbers), children, max_size=3),
            st.dictionaries(st.none(), children, max_size=1),
            st.dictionaries(st.one_of(st.text(), st.integers(), st.tuples()), children, max_size=2),
        ),
        max_leaves=12,
    )


@st.composite
def _float_arrays(draw):
    """Arrays as model files hold them: 1-4 axes, the last a [re, im] pair axis.

    Blocks are all zero, about 1% nonzero or dense, with signed zeros,
    subnormals and powers of ten among the numbers; some axes are empty,
    and a few arrays have another dtype.
    """
    shape = tuple(draw(st.lists(st.integers(0, 6), max_size=3))) + (2,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = int(np.prod(shape))
    nonzero = rng.random(size) < draw(st.sampled_from([0.0, 0.01, 1.0]))
    values = np.where(rng.random(size) < draw(st.sampled_from([0.0, 0.5])), -0.0, 0.0)
    scales = 10.0 ** rng.integers(-320, 300, size=size)
    special = [5e-324, -5e-324, 1e16, 1e-5, -1e-5, 1e-7, 1.5, 2.0**60]
    drawn = np.where(rng.random(size) < 0.3, rng.choice(special, size), rng.normal(size=size) * scales)
    values[nonzero] = drawn[nonzero]
    dtype = draw(st.sampled_from([np.float64] * 6 + [np.float32, np.int64, np.bool_]))
    if dtype is not np.float64:  # small integers, which every dtype holds
        values = np.where(nonzero, rng.integers(-3, 4, size), 0)
    return values.reshape(shape).astype(dtype)


def _as_lists(value):
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(item) for item in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _run(args):
    buffer = io.StringIO()
    code = run_command(args, buffer)
    return code, buffer.getvalue()


def _run_json(args):
    code, text = _run(args)
    return code, json.loads(text)


def _edited(fixture: str, edit):
    """Write ``fixture``'s JSON after ``edit`` changed the parsed data in place."""

    def write(path):
        data = json.loads((FIXTURES / fixture).read_text())
        edit(data)
        path.write_text(json.dumps(data))

    return write


def _set(*keys_and_value):
    """An edit that sets data[k1]...[kn] to the last argument, or deletes it when that is ``...``."""
    *keys, value = keys_and_value

    def edit(data):
        for key in keys[:-1]:
            data = data[key]
        if value is ...:
            del data[keys[-1]]
        else:
            data[keys[-1]] = value

    return edit


def _as_list(field: str):
    """An edit that replaces the payload's ``field`` table with the list of its values."""
    return lambda data: data["payload"].update({field: list(data["payload"][field].values())})


# Findings of load_model_report for refusals outside the payload arrays;
# "PATH" stands for the file's path.
LOAD_REFUSALS = {
    "top level a list": (
        lambda path: path.write_text("[]"),
        ["top level must be a JSON object"],
    ),
    "missing top-level fields": (
        _edited("hmm2.json", lambda d: [d.pop(key) for key in ("kind", "payload")]),
        ["missing top-level fields: ['kind', 'payload']"],
    ),
    "unknown and missing top-level fields": (
        _edited("hmm2.json", lambda d: d.update(comment=d.pop("alphabet"))),
        ["unknown top-level fields: ['comment']", "missing top-level fields: ['alphabet']"],
    ),
    "unsupported schema_version": (
        _edited("hmm2.json", _set("schema_version", 1)),
        ["schema_version 1 unsupported (expected '1')"],
    ),
    "payload a list": (
        _edited("hmm2.json", _set("payload", [])),
        ["payload must be a JSON object"],
    ),
    "missing payload fields": (
        _edited("hmm2.json", _set("payload", "emission", ...)),
        ["missing payload fields for kind 'hmm': ['emission']"],
    ),
    "unknown and missing payload fields": (
        _edited("coin_finitary.json", lambda d: d["payload"].update(stand=d["payload"].pop("end"))),
        [
            "unknown payload fields for kind 'finitary': ['stand']",
            "missing payload fields for kind 'finitary': ['end']",
        ],
    ),
    "empty alphabet": (
        _edited("hmm2.json", _set("alphabet", [])),
        ["malformed payload: alphabet must be a non-empty list of symbols"],
    ),
    "alphabet a string": (
        _edited("swap_qmc.json", _set("alphabet", "ab")),
        ["malformed payload: alphabet must be a non-empty list of symbols"],
    ),
    "unreadable file": (
        lambda path: None,
        ["cannot read file: [Errno 2] No such file or directory: 'PATH'"],
    ),
    "not valid JSON": (
        lambda path: path.write_text('{"schema_version": "1",'),
        ["not valid JSON: Expecting property name enclosed in double quotes: line 1 column 24 (char 23)"],
    ),
    "density with an alphabet": (
        _edited("bell5.json", _set("alphabet", ["a"])),
        ["malformed payload: density files take no alphabet (use null)"],
    ),
    "density not square": (
        _edited("bell5.json", lambda d: d["payload"]["matrix"].pop()),
        ["malformed payload: matrix must be square"],
    ),
    "one label too few": (
        _edited("feynman4.json", lambda d: d["payload"]["labels"].pop()),
        ["malformed payload: one label per matrix dimension required"],
    ),
    "info_functions without labels": (
        _edited("bell5.json", _set("payload", "labels", ...)),
        ["malformed payload: info_functions require labels"],
    ),
    "info_functions a list": (
        _edited("bell5.json", _set("payload", "info_functions", [])),
        ["malformed payload: info functions must map names to label->value tables"],
    ),
    "info function a list": (
        _edited("feynman4.json", _set("payload", "info_functions", "Z", ["+", "-", "+", "-"])),
        ["malformed payload: info function 'Z' must be a label->value table"],
    ),
    "info function missing labels": (
        _edited("feynman4.json", _set("payload", "info_functions", "X", "w3", ...)),
        ["malformed payload: info function 'X' missing labels ['w3']"],
    ),
    "info function unknown labels": (
        _edited("bell5.json", _set("payload", "info_functions", "Y", "w9", 1)),
        ["malformed payload: info function 'Y' has unknown labels ['w9']"],
    ),
    "standard form that does not hold": (
        _edited("coin_finitary.json", lambda d: d["payload"].update(initial=[0.5], end=[2.0])),
        ["standard-form: flagged standard form but constraints do not hold"],
    ),
    "chain operators a list": (
        _edited("swap_qmc.json", _as_list("operators")),
        ["malformed payload: operators must map symbols to matrices"],
    ),
    "finitary letter_matrices a list": (
        _edited("coin_finitary.json", _as_list("letter_matrices")),
        ["malformed payload: letter_matrices must map symbols to matrices"],
    ),
    "ffmc observation a list": (
        _edited("swap_ffmc.json", _as_list("observation")),
        ["malformed payload: observation must map states to symbols"],
    ),
    "ambient_dim a float": (
        _edited("swap_qmc.json", _set("payload", "ambient_dim", 2.5)),
        ["malformed payload: ambient_dim must be a positive integer, got 2.5"],
    ),
    "ambient_dim a string": (
        _edited("swap_qmc.json", _set("payload", "ambient_dim", "2")),
        ["malformed payload: ambient_dim must be a positive integer, got '2'"],
    ),
    "ambient_dim a boolean": (
        _edited("swap_qmc.json", _set("payload", "ambient_dim", True)),
        ["malformed payload: ambient_dim must be a positive integer, got True"],
    ),
    "ambient_dim zero": (
        _edited("unbounded_qpm.json", _set("payload", "ambient_dim", 0)),
        ["malformed payload: ambient_dim must be a positive integer, got 0"],
    ),
    "finitary dimension a float": (
        _edited("coin_finitary.json", _set("payload", "dimension", 2.9)),
        ["malformed payload: dimension must be an integer, got 2.9"],
    ),
    "finitary dimension a string": (
        _edited("coin_finitary.json", _set("payload", "dimension", "2")),
        ["malformed payload: dimension must be an integer, got '2'"],
    ),
    "standard_form a string": (
        _edited("coin_finitary.json", _set("payload", "standard_form", "false")),
        ["malformed payload: standard_form must be a boolean, got 'false'"],
    ),
    "hmm states a string": (
        _edited("hmm2.json", _set("payload", "states", "xy")),
        ["malformed payload: states must be a list, got 'xy'"],
    ),
    "ffmc states a string": (
        _edited("swap_ffmc.json", _set("payload", "states", "xy")),
        ["malformed payload: states must be a list, got 'xy'"],
    ),
    "density labels a string": (
        _edited("feynman4.json", lambda d: [
            _set("payload", "info_functions", ...)(d), _set("payload", "labels", "abcd")(d)
        ]),
        ["malformed payload: labels must be a list, got 'abcd'"],
    ),
    "info_functions labels a string": (
        lambda path: path.write_text(json.dumps({
            "schema_version": "1", "kind": "info_functions", "alphabet": None,
            "payload": {"labels": "ab", "functions": {"X": {"a": "+", "b": "-"}}},
        })),
        ["malformed payload: labels must be a list, got 'ab'"],
    ),
    "walk coins a string": (
        _edited("qrw_hadamard.json", _set("payload", "coins", "LR")),
        ["malformed payload: coins must be a list, got 'LR'"],
    ),
    "walk edges an object": (
        _edited("qrw_hadamard.json", _set("payload", "edges", {"a": "b"})),
        ["malformed payload: edges must be a list, got {'a': 'b'}"],
    ),
    "walk edge a string": (
        _edited("qrw_hadamard.json", _set("payload", "edges", 1, "ba")),
        ["malformed payload: edges[1] must be a [from, to] pair, got 'ba'"],
    ),
    "walk edge of three nodes": (
        _edited("qrw_hadamard.json", _set("payload", "edges", 0, ["a", "b", "a"])),
        ["malformed payload: edges[0] must be a [from, to] pair, got ['a', 'b', 'a']"],
    ),
}


class TestModelFiles:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_round_trip_is_byte_identical(self, name):
        path = FIXTURES / name
        original = path.read_text()
        assert save_model(load_model(path)) == original

    def test_rejects_unknown_top_level_field(self, tmp_path):
        data = json.loads((FIXTURES / "hmm2.json").read_text())
        data["comment"] = "nope"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="unknown top-level"):
            load_model(bad)

    def test_rejects_unknown_payload_field(self, tmp_path):
        data = json.loads((FIXTURES / "hmm2.json").read_text())
        data["payload"]["extra"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="unknown payload"):
            load_model(bad)

    def test_rejects_wrong_schema_version(self, tmp_path):
        data = json.loads((FIXTURES / "hmm2.json").read_text())
        data["schema_version"] = "2"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="schema_version"):
            load_model(bad)

    def test_rejects_unknown_kind(self, tmp_path):
        data = json.loads((FIXTURES / "hmm2.json").read_text())
        data["kind"] = "mystery"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="unknown kind"):
            load_model(bad)

    @pytest.mark.parametrize(
        "name, field, message",
        [
            ("swap_qmc.json", "initial_kind", "malformed payload: unknown initial_kind 'mixed'"),
            ("bell5.json", "kind", "malformed payload: unknown density kind 'mixed'"),
        ],
    )
    def test_rejects_unknown_density_kind(self, tmp_path, name, field, message):
        data = json.loads((FIXTURES / name).read_text())
        data["payload"][field] = "mixed"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert load_model_report(bad)[2] == [message]

    @pytest.mark.parametrize("name", LOAD_REFUSALS)
    def test_load_refusals_are_named(self, tmp_path, name):
        write, findings = LOAD_REFUSALS[name]
        path = tmp_path / "model.json"
        write(path)
        model, _, violations = load_model_report(path)
        assert model is None
        assert violations == [finding.replace("PATH", str(path)) for finding in findings]

    def test_row_sum_violation_reported_with_row(self):
        model, kind, violations = load_model_report(FIXTURES / "bad_hmm_rowsum.json")
        assert model is None and kind == "hmm"
        assert any("row 0" in v for v in violations)

    def test_rejects_malformed_complex_entries(self, tmp_path):
        data = json.loads((FIXTURES / "qrw_hadamard.json").read_text())
        data["payload"]["wave"][0] = 1.0  # bare float instead of [re, im]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=r"\[re, im\]"):
            load_model(bad)

    @pytest.mark.parametrize(
        "fixture, edit, message",
        [
            (
                "hmm2.json",
                lambda p: p["transition"][0].__setitem__(0, "0.7"),
                "malformed payload: transition[0][0]: '0.7' is not a finite number",
            ),
            (
                "coin_finitary.json",
                lambda p: p["letter_matrices"]["b"][0].__setitem__(0, math.inf),
                "malformed payload: letter matrix 'b'[0][0]: inf is not a finite number",
            ),
            (
                "qrw_hadamard.json",
                lambda p: p["unitary"][2][3].__setitem__(1, math.nan),
                "malformed payload: unitary[2][3]: nan is not a finite number",
            ),
            (
                "qrw_hadamard.json",
                lambda p: p["wave"][1].__setitem__(1, "0"),
                "malformed payload: wave[1]: '0' is not a finite number",
            ),
            (
                "swap_qmc.json",
                lambda p: p["operators"]["a"][1].__setitem__(1, math.nan),
                "malformed payload: operator 'a'[1][1]: nan is not a finite number",
            ),
            (
                "unbounded_qpm.json",
                lambda p: p["operators"]["a"][0].__setitem__(1, -math.inf),
                "malformed payload: operator 'a'[0][1]: -inf is not a finite number",
            ),
            (
                "swap_qmc.json",
                lambda p: p["basis"][1][0][1].__setitem__(0, "0.5"),
                "malformed payload: basis[1][0][1]: '0.5' is not a finite number",
            ),
            (
                "swap_qmc.json",
                lambda p: p["initial"][0][0].__setitem__(0, None),
                "malformed payload: initial[0][0]: None is not a finite number",
            ),
            (
                "bell5.json",
                lambda p: p["matrix"][1][1].__setitem__(0, math.nan),
                "malformed payload: matrix[1][1]: nan is not a finite number",
            ),
            (
                "hmm2.json",
                lambda p: p["transition"][0].pop(),
                "malformed payload: transition rows differ in length",
            ),
            (
                "swap_qmc.json",
                lambda p: p["operators"]["a"][1].pop(),
                "malformed payload: operator 'a' rows differ in length",
            ),
            (
                "hmm2.json",
                lambda p: p.__setitem__("initial", [p["initial"]]),
                "initial distribution must have shape (2,), got (1, 2)",
            ),
            (
                "hmm2.json",
                lambda p: p["emission"][0].pop(),
                "malformed payload: emission rows differ in length",
            ),
            (
                "hmm2.json",
                lambda p: p["transition"].__setitem__(1, 0.5),
                "malformed payload: transition[1]: 0.5 is not a list",
            ),
            (
                "hmm2.json",
                lambda p: p.__setitem__("transition", [p["transition"]]),
                "malformed payload: transition must be a vector or matrix",
            ),
            (
                "hmm2.json",
                lambda p: p.__setitem__("initial", 0.5),
                "malformed payload: initial must be a vector or matrix",
            ),
            (
                "swap_ffmc.json",
                lambda p: p["transition"][1].pop(),
                "malformed payload: transition rows differ in length",
            ),
            (
                "swap_ffmc.json",
                lambda p: p["initial"].__setitem__(1, [0.5]),
                "malformed payload: initial[1]: [0.5] is not a finite number",
            ),
            (
                "coin_finitary.json",
                lambda p: p["letter_matrices"]["b"].append([0.5, 0.5]),
                "malformed payload: letter matrix 'b' rows differ in length",
            ),
            (
                "coin_finitary.json",
                lambda p: p["end"].__setitem__(0, "1"),
                "malformed payload: end[0]: '1' is not a finite number",
            ),
            (
                "bell5.json",
                lambda p: p["matrix"][2].pop(),
                "malformed payload: matrix rows differ in length",
            ),
            (
                "swap_qmc.json",
                lambda p: p["initial"][1].pop(),
                "malformed payload: initial rows differ in length",
            ),
            (
                "unbounded_qpm.json",
                lambda p: p["operators"]["a"][0].__setitem__(0, [p["operators"]["a"][0][0]]),
                "malformed payload: operator 'a'[0][0]: [1.55] is not a finite number",
            ),
        ],
        ids=[
            "hmm string",
            "finitary inf",
            "walk unitary nan",
            "walk wave string",
            "chain operator nan",
            "predictor operator -inf",
            "chain basis string",
            "chain initial null",
            "density nan",
            "hmm ragged transition",
            "chain ragged operator",
            "hmm initial one list too deep",
            "hmm ragged emission",
            "hmm transition row a number",
            "hmm transition one list too deep",
            "hmm initial a number",
            "ffmc ragged transition",
            "ffmc initial entry a list",
            "finitary ragged letter matrix",
            "finitary end string",
            "density ragged matrix",
            "chain ragged initial",
            "predictor first entry a list",
        ],
    )
    def test_refuses_entries_that_are_not_finite_numbers(
        self, tmp_path, fixture, edit, message
    ):
        data = json.loads((FIXTURES / fixture).read_text())
        edit(data["payload"])
        bad = tmp_path / fixture
        bad.write_text(json.dumps(data))  # NaN and Infinity as Python's json writes them
        code, report = _run_json(["validate", str(bad)])
        assert code == 1
        assert report["results"]["valid"] is False
        assert report["findings"] == [message]

    def test_an_unbounded_model_with_nan_is_refused_by_every_command(self, tmp_path):
        data = json.loads((FIXTURES / "unbounded_qpm.json").read_text())
        data["payload"]["operators"]["a"][1][0] = math.nan
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(data))
        message = "malformed payload: operator 'a'[1][0]: nan is not a finite number"
        for argv in (["validate", str(bad)], ["eval", str(bad), "--word", "aa"]):
            code, report = _run_json(argv)
            assert (code, report["findings"]) == (1, [message])

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["payload"]["operators"].pop("a"), "missing operator for symbol 'a'"),
            (
                lambda d: d["payload"]["operators"].update(z=[[1.0, 0.0], [0.0, 1.0]]),
                "operators for unknown symbols: ['z']",
            ),
            (
                lambda d: d["payload"]["operators"].update(a=[[1.0, 0.0, 0.0]] * 3),
                "coordinate matrix must be 2x2, got (3, 3)",
            ),
        ],
        ids=["missing", "unknown", "shape"],
    )
    def test_a_chain_file_gives_one_operator_per_symbol(self, tmp_path, edit, message):
        data = json.loads((FIXTURES / "swap_qmc.json").read_text())
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, report = _run_json(["validate", str(bad)])
        assert (code, report["findings"]) == (1, [message])

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda d: d["payload"]["letter_matrices"].pop("b"),
                "missing letter matrix for symbol 'b'",
            ),
            (
                lambda d: d["payload"]["letter_matrices"].update(z=[[0.5]]),
                "letter matrices for unknown symbols: ['z']",
            ),
            (
                lambda d: d["payload"]["letter_matrices"].update(b=[[0.5, 0.0], [0.0, 0.5]]),
                "letter matrix 'b' must have shape (1, 1), got (2, 2)",
            ),
        ],
        ids=["missing", "unknown", "shape"],
    )
    def test_a_finitary_file_gives_one_letter_matrix_per_symbol(self, tmp_path, edit, message):
        data = json.loads((FIXTURES / "coin_finitary.json").read_text())
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, report = _run_json(["validate", str(bad)])
        assert (code, report["findings"]) == (1, [message])

    @pytest.mark.parametrize(
        "name", ["chain operators a list", "finitary letter_matrices a list", "ffmc observation a list"]
    )
    def test_a_symbol_table_given_as_a_list_is_a_finding(self, tmp_path, name):
        write, findings = LOAD_REFUSALS[name]
        bad = tmp_path / "bad.json"
        write(bad)
        code, report = _run_json(["validate", str(bad)])
        assert (code, report["findings"]) == (1, findings)

    def test_rejects_non_hermitian_density(self, tmp_path):
        data = json.loads((FIXTURES / "bell5.json").read_text())
        data["payload"]["matrix"][0][1] = [0.2, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="self-adjoint"):
            load_model(bad)

    def test_rejects_label_count_mismatch(self, tmp_path):
        data = json.loads((FIXTURES / "feynman4.json").read_text())
        data["payload"]["labels"] = data["payload"]["labels"][:-1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError):
            load_model(bad)

    def test_canonical_text_is_pinned(self, hmm2, hmm3_rank3, qrw_hadamard):
        # SHA-256 of save_model, recorded before the writer moved to ndarray.tolist()
        walk = random_local_qrw(np.random.default_rng(12), 4, 2)
        models = {name: load_model(FIXTURES / name) for name in ALL_FIXTURES}
        models.update(
            {
                "hmm2 qmc": qk.hmm_to_qmc(hmm2),
                "hmm3 qmc": qk.hmm_to_qmc(hmm3_rank3),
                "hmm2 finitary": qk.hmm_to_finitary(hmm2),
                "hmm2 qpm": qk.finitary_to_qpm(qk.hmm_to_finitary(hmm2)),
                "hadamard qmc": per_element_walk_chain(qrw_hadamard),
                "walk8 qmc": per_element_walk_chain(walk),
                "walk8 finitary": qk.qpm_to_finitary(per_element_walk_chain(walk)),
            }
        )
        digests = {
            name: hashlib.sha256(save_model(model).encode()).hexdigest()[:16]
            for name, model in models.items()
        }
        assert digests == PINNED_DIGESTS

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_json_like())
    def test_canonical_json_is_json_dumps(self, value):
        expected = _outcome(
            lambda v: json.dumps(v, sort_keys=True, indent=2, allow_nan=False) + "\n", value
        )
        assert _outcome(canonical_json, value) == expected

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_float_arrays(), min_size=1, max_size=3))
    def test_canonical_json_writes_arrays_as_their_lists(self, arrays):
        data = {"payload": {f"block{i}": arr for i, arr in enumerate(arrays)}, "pairs": arrays}
        want = json.dumps(_as_lists(data), sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert canonical_json(data) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 5, -1])
    def test_canonical_json_refuses_non_finite_arrays_as_json_does(self, bad, at):
        arr = np.zeros((3, 2, 2))
        arr.reshape(-1)[at] = bad
        arr[1, 1, 1] = math.inf  # json names the first one it meets
        data = {"a": [1.0, 2.0], "b": arr}
        want = _outcome(
            lambda v: json.dumps(_as_lists(v), sort_keys=True, indent=2, allow_nan=False), data
        )
        assert want[0] is ValueError
        assert _outcome(canonical_json, data) == want

    @pytest.mark.parametrize(
        "name, target, edit, message",
        [
            ("walk", "unitary", lambda m: m[1].pop(), "malformed payload: unitary rows differ in length"),
            (
                "walk",
                "unitary",
                lambda m: m[0][1].append(0.0),
                "malformed payload: unitary[0][1]: complex scalars must be [re, im] pairs",
            ),
            (
                "walk",
                "unitary",
                lambda m: m[1].__setitem__(0, "x"),
                "malformed payload: unitary[1][0]: complex scalars must be [re, im] pairs",
            ),
            (
                "walk",
                "unitary",
                lambda m: m[1][0].__setitem__(0, "x"),
                "malformed payload: unitary[1][0]: 'x' is not a finite number",
            ),
            (
                "walk",
                "unitary",
                lambda m: m[0].__setitem__(1, None),
                "malformed payload: unitary[0][1]: complex scalars must be [re, im] pairs",
            ),
            (
                "walk",
                "unitary",
                lambda m: m[0][1].__setitem__(1, None),
                "malformed payload: unitary[0][1]: None is not a finite number",
            ),
            ("walk", "unitary", lambda m: m.clear(), "malformed payload: unitary must be a non-empty nested list"),
            (
                "walk",
                "wave",
                lambda m: m.__setitem__(0, None),
                "malformed payload: wave[0]: complex scalars must be [re, im] pairs",
            ),
            ("walk", "wave", lambda m: m.clear(), "wave must have shape (4,), got (0,)"),
            (
                "chain",
                "basis",
                lambda m: [row.pop() for row in m[0]],
                "malformed payload: basis[0] must be square",
            ),
            (
                "chain",
                "basis",
                lambda m: [row.pop() for b in m for row in b],
                "malformed payload: basis[0] must be square",
            ),
            (
                "chain",
                "basis",
                lambda m: m[3][0].__setitem__(1, [0.25, 0.5]),
                "malformed payload: basis[3] is not self-adjoint (defect 5.590e-01)",
            ),
            ("chain", "basis", lambda m: m[2][1].pop(), "malformed payload: basis[2] rows differ in length"),
            (
                "chain",
                "basis",
                lambda m: m[1][0].__setitem__(0, None),
                "malformed payload: basis[1][0][0]: complex scalars must be [re, im] pairs",
            ),
            ("chain", "basis", lambda m: m.clear(), "subspace basis must not be empty"),
            (
                "chain",
                "basis",
                lambda m: m[1][0].__setitem__(0, [math.nan, 0.0]),
                "malformed payload: basis[1][0][0]: nan is not a finite number",
            ),
            ("chain", "ambient_dim", None, "malformed payload: basis[0] must be 3x3"),
            ("walk", "unitary", lambda m: m.__setitem__(2, 1.0), "malformed payload: unitary[2]: 1.0 is not a list"),
            (
                "walk",
                "wave",
                lambda m: m[2].pop(),
                "malformed payload: wave[2]: complex scalars must be [re, im] pairs",
            ),
        ],
    )
    def test_malformed_complex_payload_messages(
        self, tmp_path, qrw_hadamard, name, target, edit, message
    ):
        # the messages of the walk that names the first bad entry
        model = qrw_hadamard if name == "walk" else qk.qrw_to_qmc(qrw_hadamard)
        data = json.loads(save_model(model))
        if edit is None:
            data["payload"][target] = 3
        else:
            edit(data["payload"][target])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert load_model_report(bad)[2] == [message]

    @pytest.mark.parametrize("name", ALL_FIXTURES + ["walk8 qmc", "signed zeros"])
    def test_loaded_arrays_are_the_per_entry_parse(self, tmp_path, qrw_hadamard, name):
        if name == "walk8 qmc":
            path = tmp_path / "walk8.json"
            save_model(qk.qrw_to_qmc(random_local_qrw(np.random.default_rng(12), 4, 2)), path)
        elif name == "signed zeros":
            def negate_zeros(node):
                if isinstance(node, list):
                    return [negate_zeros(child) for child in node]
                return -0.0 if node == 0 else node

            data = json.loads(save_model(qrw_hadamard))
            for key in ("unitary", "wave"):
                data["payload"][key] = negate_zeros(data["payload"][key])
            path = tmp_path / "zeros.json"
            path.write_text(json.dumps(data))
        else:
            path = FIXTURES / name
        payload = json.loads(path.read_text())["payload"]
        model = load_model(path)

        def same(got, data):
            expected = complex_entries(data)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

        if isinstance(model, qk.QrwParam):
            same(model.unitary, payload["unitary"])
            same(model.wave, payload["wave"])
            if name == "signed zeros":
                assert np.signbit(model.wave.imag).all() and np.signbit(model.unitary.real).any()
                assert model.wave[1] == 0 and np.signbit(model.wave[1].real)
        elif isinstance(model, qk.QuantumChain):
            basis = [complex_entries(b) for b in payload["basis"]]
            expected = np.stack([(b + b.conj().T) / 2.0 for b in basis])
            assert model.subspace.basis.tobytes() == expected.tobytes()
            for symbol, matrix in payload["operators"].items():
                letter = model.operators[model.alphabet.index(symbol)]
                assert letter.tobytes() == np.array(matrix).tobytes()
            initial = complex_entries(payload["initial"])
            assert model.initial.matrix.tobytes() == ((initial + initial.conj().T) / 2.0).tobytes()
        elif isinstance(model, DensityFile):
            matrix = complex_entries(payload["matrix"])
            assert model.density.matrix.tobytes() == ((matrix + matrix.conj().T) / 2.0).tobytes()

    def test_chain_round_trip_preserves_process(self, tmp_path, hmm2):
        chain = qk.hmm_to_qmc(hmm2)
        path = tmp_path / "chain.json"
        save_model(chain, path)
        loaded = load_model(path)
        for word in qk.words_up_to(hmm2.alphabet, 4):
            assert qk.chain_eval(loaded, word) == pytest.approx(
                qk.chain_eval(chain, word), abs=1e-12
            )

    def test_bare_density_round_trip(self, tmp_path):
        density = qk.Density.quantum(
            [[0.5, 0.5j], [-0.5j, 0.5]]
        )
        path = tmp_path / "density.json"
        save_model(density, path)
        loaded = load_model(path)
        assert loaded.labels is None and loaded.functions is None
        assert loaded.density.kind is qk.DensityKind.QUANTUM
        import numpy as np

        assert np.allclose(loaded.density.matrix, density.matrix)

    def test_qpm_horizon_flag_controls_validation_depth(self, tmp_path):
        # probabilities exceed 1 only at length >= 2, so a horizon-1 check
        # passes and the default depth catches it
        import numpy as np
        from qpmkit.chain import ChainKind, OperatorSubspace, QuantumChain

        sub = OperatorSubspace.diagonal(2)
        ops = np.array([[[0.8, 0.15], [0.65, 0.65]], [[0.05, 0.0], [-0.15, -0.15]]])
        chain = QuantumChain(
            qk.Alphabet(("a", "b")),
            sub,
            ops,
            qk.Density.generalized(np.diag([1.0, 0.0]).astype(complex)),
            ChainKind.QPM,
        )
        path = tmp_path / "qpm.json"
        save_model(chain, path)
        code, report = _run_json(["validate", str(path), "--qpm-horizon", "1"])
        assert code == 0, report["findings"]
        code, report = _run_json(["validate", str(path)])
        assert code == 1
        assert any("word-probability" in f for f in report["findings"])

    def test_info_functions_file_round_trip(self, tmp_path):
        labels = ("w1", "w2")
        bundle = InfoFunctionsFile(
            labels,
            {"X": qk.InformationFunction("X", {"w1": -1, "w2": 1}, (-1, 1))},
        )
        path = tmp_path / "funcs.json"
        save_model(bundle, path)
        loaded = load_model(path)
        assert isinstance(loaded, InfoFunctionsFile)
        assert loaded.functions["X"]("w1") == -1


@functools.cache
def _shared_basis_chains() -> dict[str, qk.QuantumChain]:
    """Chains whose saved files carry a shared basis, ``full(n)`` or ``diagonal(n)``."""
    rng = np.random.default_rng(33)
    chains = {name: load_model(FIXTURES / name) for name in ("swap_qmc.json", "unbounded_qpm.json")}
    for nodes, coins in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (7, 1), (4, 2)):
        walk = random_local_qrw(rng, nodes, coins)
        chains[f"walk at ambient {walk.dim}"] = qk.qrw_to_qmc(walk)
    initial = random_quantum_density(rng, 3)
    chains["povm"] = qk.povm_to_qmc(random_kraus_family(rng, 3, 2), initial)
    chains["unitary"] = qk.unitary_to_qmc(random_unitary(rng, 3), initial)
    chains["hmm qmc"] = qk.hmm_to_qmc(random_hmm(rng, 4, 2))
    for states, seed in ((2, 0), (5, 0), (8, 0), (12, 26)):  # seeds whose conversion succeeds
        hmm = random_hmm(np.random.default_rng(seed), states, 2)
        chains[f"{states}-state qpm"] = qk.finitary_to_qpm(qk.hmm_to_finitary(hmm))
    chains["walk at ambient 16"] = qk.qrw_to_qmc(random_local_qrw(np.random.default_rng(16), 8, 2))
    rng = np.random.default_rng(6)  # large but dense: json reads its table faster
    chains["unitary at ambient 6"] = qk.unitary_to_qmc(
        random_unitary(rng, 6), random_quantum_density(rng, 6)
    )
    return chains


def _takes_the_layout(chain) -> bool:
    """Whether a canonical file of ``chain`` has its operator blocks read by their layout."""
    ops = chain.operators
    return bool(
        ops.shape[1] ** 2 >= qpmkit_io._LAYOUT_MIN_NUMBERS
        and np.count_nonzero(ops) * qpmkit_io._LAYOUT_MAX_HOT <= ops.size
    )


def _spy(monkeypatch, name: str) -> list:
    """Patch ``qpmkit.io.<name>`` to record what each of its calls returns."""
    returned = []
    function = getattr(qpmkit_io, name)

    def spy(*args):
        returned.append(function(*args))
        return returned[-1]

    monkeypatch.setattr(qpmkit_io, name, spy)
    return returned


def _shared(subspace) -> bool:
    n = subspace.ambient_dim
    return subspace is qk.OperatorSubspace.full(n) or subspace is qk.OperatorSubspace.diagonal(n)


def _chain_bits(chain) -> list:
    sub = chain.subspace
    arrays = (
        chain.operators, chain.initial.matrix, chain.initial_coords, sub.basis, sub.gram, sub.traces
    )
    return [chain.alphabet.symbols, chain.kind] + [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _load_both_ways(path, monkeypatch):
    """``load_model_report(path, with_report=True)``, then the same with no shared basis read."""
    fast = load_model_report(path, with_report=True)
    with monkeypatch.context() as patch:
        patch.setattr(qpmkit_io, "_decode_with_shared_basis", lambda text, config: None)
        slow = load_model_report(path, with_report=True)
    return fast, slow


def _block_edit(old: str, new: str):
    """A text edit that replaces the first ``old`` inside the basis block by ``new``."""

    def edit(text):
        start, end = text.index('"basis": '), text.index('"initial": ')
        return text[:start] + text[start:end].replace(old, new, 1) + text[end:]

    return edit


def _swapped(i: int, j: int):
    """A text edit that swaps elements ``i`` and ``j`` of the file's basis."""

    def edit(text):
        data = json.loads(text)
        basis = data["payload"]["basis"]
        basis[i], basis[j] = basis[j], basis[i]
        return canonical_json(data)

    return edit


def _other_n_basis(text):
    """The file with the other shared basis at ambient n + 1 in place of its own; ambient_dim stays n."""
    data = json.loads(text)
    payload = data["payload"]
    n = payload["ambient_dim"]
    shared = qk.OperatorSubspace.full if len(payload["basis"]) == n else qk.OperatorSubspace.diagonal
    payload["basis"] = qpmkit_io._dump_cmatrix(shared(n + 1).basis)
    return canonical_json(data)


# Near misses of a canonical chain file, each read as the file stands.
_NEAR_MISSES = {
    "one digit changed": _block_edit("1.0,", "2.0,"),
    "last number changed": lambda t: t.replace(
        "0.0\n          ]\n        ]\n      ]\n    ],", "0.5\n          ]\n        ]\n      ]\n    ],"
    ),
    "another n's basis": _other_n_basis,
    "permuted basis": _swapped(0, 1),
    "last two elements swapped": _swapped(-2, -1),
    "extra whitespace": _block_edit("1.0,", "1.0 ,"),
    "syntax error after the block": lambda t: t.replace('"initial_kind"', '"initial_kind" "'),
    "duplicate basis key": lambda t: t.replace('"operators": ', '"basis": [],\n    "operators": '),
    "duplicate basis key, same block": lambda t: t.replace(
        '"operators": ', t[t.index('"basis": ') : t.index('"initial": ')] + '"operators": '
    ),
    "ambient_dim that disagrees": lambda t: t.replace('"initial_kind"', '"ambient_dim": 3, "initial_kind"'),
    "ambient_dim a float": lambda t: t.replace('"initial_kind"', '"ambient_dim": 4.0, "initial_kind"'),
    "basis in another object": lambda t: t.replace('"kind": ', '"extra": {"basis": null}, "kind": '),
}


class TestSharedBasisFiles:
    """A chain file whose basis block is the canonical text of a shared basis skips decoding it."""

    @pytest.mark.parametrize("forced", [False, True], ids=["shipped crossovers", "layout forced"])
    @pytest.mark.parametrize("name", list(_shared_basis_chains()))
    def test_canonical_and_compact_files_load_to_one_chain(self, tmp_path, monkeypatch, name, forced):
        canonical, compact = tmp_path / "canonical.json", tmp_path / "compact.json"
        chain = _shared_basis_chains()[name]
        text = save_model(chain, canonical)
        compact.write_text(json.dumps(json.loads(text)))
        if forced:  # every table, however small or dense, is read by its layout
            monkeypatch.setattr(qpmkit_io, "_LAYOUT_MIN_NUMBERS", 1)
            monkeypatch.setattr(qpmkit_io, "_LAYOUT_MAX_HOT", 1)
        read = _spy(monkeypatch, "_layout_blocks")
        fast, kind, violations, fast_report = load_model_report(canonical, with_report=True)
        slow, _, _, slow_report = load_model_report(compact, with_report=True)
        taken = forced or _takes_the_layout(chain)  # a dense table is given up after its scan
        assert [stack is not None for stack in read] in ([[True]] if taken else [[], [False]])
        assert violations == [] and kind in ("qmc", "qpm")
        assert _shared(fast.subspace) and not _shared(slow.subspace)
        assert _chain_bits(fast) == _chain_bits(slow)
        assert fast_report == slow_report and fast_report.evidence
        assert save_model(fast) == text

    def test_the_walk_chains_at_ambient_6_and_up_take_the_layout(self):
        # the cases above exercise the shipped crossovers on both sides
        taken = [name for name, chain in _shared_basis_chains().items() if _takes_the_layout(chain)]
        assert taken == [f"walk at ambient {n}" for n in (6, 7, 8, 16)]

    @pytest.mark.parametrize("byte", list("7 -e\n],"))
    def test_one_byte_edits_of_a_table_load_as_json_reads_them(self, tmp_path, monkeypatch, byte):
        text = save_model(_shared_basis_chains()["walk at ambient 8"])
        start = text.index('"operators": ')
        seeded = np.random.default_rng(39).integers(start, len(text), 16).tolist()
        edits = [(p, p + 1) for p in seeded]
        # and one byte of each kind that the layout puts in the table, replaced
        # or with the byte put before it
        landmarks = {
            '"n1": [\n        [': (1, 17),
            "[\n          0.0,": (0, 15),
            "0.0,\n          -0.0": (0, 1, 2, 3, 15),
            "0.0\n        ],\n        [": (2, 12, 13, 23),
            "0.0\n        ]\n      ],\n": (12, 20, 21),
            "0.0\n        ]\n      ]\n    }\n": (20, 26),
        }
        nonzero = re.compile(r"\n {10}(-?[1-9]|0\.[0-9]*[1-9])").search(text, start)
        positions = list(range(nonzero.start(1), nonzero.start(1) + 4))
        for landmark, offsets in landmarks.items():
            at = text.index(landmark, start)
            positions += [at + offset for offset in offsets]
        edits += [(p, p + cut) for p in positions for cut in (0, 1)]
        path = tmp_path / "edited.json"
        read = _spy(monkeypatch, "_layout_blocks")
        for position, end in edits:
            if text[position:end] == byte:
                continue
            path.write_text(text[:position] + byte + text[end:])
            fast, slow = _load_both_ways(path, monkeypatch)
            assert fast[1:] == slow[1:], (position, end)
            assert (fast[0] is None) == (slow[0] is None)
            if slow[0] is not None:
                assert _chain_bits(fast[0]) == _chain_bits(slow[0])
        if byte == "7":  # a digit in place of a zero's leaves a table that the layout reads
            assert any(stack is not None for stack in read)

    @pytest.mark.parametrize(
        "number",
        ["5.0", "0.5", "-0.5", "10.0", "-10.0", "5e-324", "1e+16", "1e-05", "0.50", "1E5", "1e400",
         "+1.0", ".5", "1_0.0", "0", "-0", "00.0", "inf", "-inf", "nan", "NaN", "Infinity", '"0.0"'],
    )
    def test_numbers_in_a_table_load_as_json_reads_them(self, tmp_path, monkeypatch, number):
        text = save_model(_shared_basis_chains()["walk at ambient 8"])
        at = text.index("\n          0.0,", text.index('"operators": ')) + 11
        path = tmp_path / "edited.json"
        path.write_text(text[:at] + number + text[at + 3 :])
        read = _spy(monkeypatch, "_layout_blocks")
        fast, slow = _load_both_ways(path, monkeypatch)
        assert fast[1:] == slow[1:]
        assert (fast[0] is None) == (slow[0] is None)
        if slow[0] is not None:
            assert _chain_bits(fast[0]) == _chain_bits(slow[0])
        canonical = number in ("5.0", "0.5", "-0.5", "10.0", "-10.0", "5e-324", "1e+16", "1e-05")
        assert (read[0] is not None) == canonical

    def test_a_large_canonical_table_skips_the_array_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "walk.json"
        save_model(_shared_basis_chains()["walk at ambient 16"], path)
        read = []
        array = qpmkit_io._array
        monkeypatch.setattr(
            qpmkit_io, "_array", lambda data, what, *a: read.append(what) or array(data, what, *a)
        )
        assert load_model(path).operators.shape == (8, 256, 256)
        assert read == ["initial"]

    def test_other_tables_never_reach_the_layout_reader(self, tmp_path, monkeypatch):
        large = save_model(_shared_basis_chains()["walk at ambient 8"])
        data = json.loads(large)
        texts = {
            "below the crossover": save_model(_shared_basis_chains()["walk at ambient 5"]),
            "compact": json.dumps(data),
            "re-indented": json.dumps(data, sort_keys=True, indent=3),
            "escaped key": large.replace('"n3": [', '"n\\u0033": ['),  # still the last key
            "control character in a key": large.replace('"n1": [', '"n1\t": ['),
            "quote in a key": large.replace('"n1": [', '"n1"": ['),
            "non-ASCII key": large.replace('"n1": [', '"n1\u00e9": ['),
            "duplicate letter": large.replace('"n1": [', '"n0": ['),
        }
        read = _spy(monkeypatch, "_layout_blocks")
        path = tmp_path / "table.json"
        path.write_text(large)
        load_model(path)
        assert len(read) == 1 and read[0] is not None  # the canonical file is read by its layout
        for name, text in texts.items():
            assert text != large
            path.write_text(text)
            fast, slow = _load_both_ways(path, monkeypatch)
            assert fast[1:] == slow[1:], name
            if slow[0] is not None:
                assert _chain_bits(fast[0]) == _chain_bits(slow[0])
        # CRLF text: the loader reads files with universal newlines, so only a
        # decode of the text itself sees the carriage returns
        assert qpmkit_io._decode_with_shared_basis(large.replace("\n", "\r\n"), DEFAULTS) is None
        assert len(read) == 1
        path.write_text(texts["duplicate letter"])
        assert load_model_report(path)[2] == ["missing operator for symbol 'n1'"]

    def test_tables_read_by_layout_keep_the_json_findings(self, tmp_path, monkeypatch):
        large = save_model(_shared_basis_chains()["walk at ambient 8"])
        at = large.index(',\n    "operators": ')
        end = large.index("\n    }\n  },", at) + len("\n    }")
        moved = large[:at] + large[end:]  # the table in another top-level object
        extra = '\n  "extra": {' + large[at + 1 : end] + "\n  },"
        moved = moved.replace('\n  "schema_version"', extra + '\n  "schema_version"')
        texts = {
            "a letter the table lacks": (
                large.replace('"n3"\n  ],', '"n3",\n    "n4"\n  ],'),
                ["missing operator for symbol 'n4'"],
            ),
            "a letter the alphabet lacks": (
                large.replace('"n2",\n    "n3"\n  ],', '"n2"\n  ],'),
                ["operators for unknown symbols: ['n3']"],
            ),
            "a second operators key": (
                large.replace("\n    }\n  },", '\n    },\n    "operators": {"n0": [[1.0]]}\n  },'),
                ["coordinate matrix must be 64x64, got (1, 1)"],
            ),
            "the table in another object": (
                moved,
                [
                    "unknown top-level fields: ['extra']",
                    "missing payload fields for kind 'qmc': ['operators']",
                ],
            ),
        }
        read = _spy(monkeypatch, "_layout_blocks")
        path = tmp_path / "table.json"
        for name, (text, findings) in texts.items():
            assert text != large
            path.write_text(text)
            fast, slow = _load_both_ways(path, monkeypatch)
            assert fast[1:] == slow[1:] and fast[2] == findings, name
        assert len(read) == len(texts) and all(stack is not None for stack in read)

    @pytest.mark.parametrize("name", ["walk at ambient 4", "hmm qmc"])
    @pytest.mark.parametrize("miss", list(_NEAR_MISSES))
    def test_near_misses_are_read_as_they_stand(self, tmp_path, monkeypatch, name, miss):
        text = save_model(_shared_basis_chains()[name])
        edited = _NEAR_MISSES[miss](text)
        assert edited != text
        path = tmp_path / "near.json"
        path.write_text(edited)
        fast, slow = _load_both_ways(path, monkeypatch)
        assert fast[1:3] == slow[1:3] and fast[3] == slow[3]
        if slow[0] is None:
            assert fast[0] is None
        else:
            assert not _shared(fast[0].subspace)
            assert _chain_bits(fast[0]) == _chain_bits(slow[0])

    def test_near_miss_findings(self, tmp_path):
        text = save_model(_shared_basis_chains()["walk at ambient 4"])
        expected = {
            "another n's basis": ["malformed payload: basis[0] must be 4x4"],
            "ambient_dim that disagrees": ["malformed payload: basis[0] must be 3x3"],
            "ambient_dim a float": [
                "malformed payload: ambient_dim must be a positive integer, got 4.0"
            ],
            "duplicate basis key": ["subspace basis must not be empty"],
            "basis in another object": ["unknown top-level fields: ['extra']"],
        }
        for miss, findings in expected.items():
            path = tmp_path / "near.json"
            path.write_text(_NEAR_MISSES[miss](text))
            assert load_model_report(path)[2] == findings, miss
        path.write_text(_NEAR_MISSES["syntax error after the block"](text))
        assert load_model_report(path)[2][0].startswith("not valid JSON: Expecting ':' delimiter")

    @pytest.mark.parametrize("tol, shared", [(0.0, True), (1e-9, True), (-1e-300, False), (0, False)])
    def test_only_a_float_tolerance_of_zero_or_more_shares(self, tmp_path, tol, shared):
        path = tmp_path / "walk.json"
        save_model(_shared_basis_chains()["walk at ambient 4"], path)
        model, _, violations = load_model_report(path, DEFAULTS.replace(hermitian_tol=tol))
        if tol >= 0:
            assert violations == [] and _shared(model.subspace) is shared
        else:
            assert violations == ["malformed payload: basis[0] is not self-adjoint (defect 0.000e+00)"]

    def test_canonical_files_skip_the_basis_reader(self, tmp_path, monkeypatch):
        paths = []
        for name in ("walk at ambient 4", "hmm qmc", "8-state qpm", "walk at ambient 8"):
            paths.append(tmp_path / f"{len(paths)}.json")
            save_model(_shared_basis_chains()[name], paths[-1])
            load_model(paths[-1])  # renders each block once
        calls = []

        def counted(name, function):
            def run(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return run

        monkeypatch.setattr(qpmkit_io, "_chain_basis", counted("basis", qpmkit_io._chain_basis))
        monkeypatch.setattr(qpmkit_io, "_array_text", counted("render", qpmkit_io._array_text))
        init = qk.OperatorSubspace.__init__
        monkeypatch.setattr(qk.OperatorSubspace, "__init__", counted("subspace", init))
        for path in paths:
            assert _shared(load_model(path).subspace)
        assert calls == []

    @pytest.mark.parametrize("name", list(_shared_basis_chains()))
    def test_saving_takes_the_kept_basis_text(self, monkeypatch, name):
        chain = _shared_basis_chains()[name]
        n, dim = chain.subspace.ambient_dim, chain.subspace.dim
        shared = qk.OperatorSubspace.full(n) if dim > n else qk.OperatorSubspace.diagonal(n)
        assert chain.subspace.basis.tobytes() == shared.basis.tobytes()
        want = canonical_json(qpmkit_io.model_to_dict(chain))  # the basis rendered, as it was
        save_model(chain)  # keeps the block's text, as a load does
        shapes = []
        render, dump = qpmkit_io._array_text, qpmkit_io._dump_cmatrix
        monkeypatch.setattr(qpmkit_io, "_array_text", lambda *a: shapes.append(a[0].shape) or render(*a))
        dumped = []
        monkeypatch.setattr(qpmkit_io, "_dump_cmatrix", lambda m: dumped.append(m) or dump(m))
        assert save_model(chain) == want
        assert shapes and (dim, n, n, 2) not in shapes
        assert dumped and not any(m is chain.subspace.basis for m in dumped)  # nor dumped

    def test_a_huge_ambient_dim_renders_nothing(self, tmp_path, monkeypatch):
        text = (FIXTURES / "swap_qmc.json").read_text()
        text = text.replace('"ambient_dim": 2,', '"ambient_dim": 1000000,')
        path = tmp_path / "huge.json"
        path.write_text(text)
        assert len(text) < 2000
        renders = []
        render = qpmkit_io._array_text
        monkeypatch.setattr(qpmkit_io, "_array_text", lambda *a: renders.append(a) or render(*a))
        qpmkit_io._basis_text.cache_clear()
        assert qpmkit_io._shared_basis_block(text) is None
        assert load_model_report(path)[2] == ["malformed payload: basis[0] must be 1000000x1000000"]
        assert renders == []

    def test_other_bases_render_nothing(self, monkeypatch):
        chain = _shared_basis_chains()["walk at ambient 4"]
        rng = np.random.default_rng(4)
        mixing = np.linalg.qr(rng.normal(size=(16, 16)))[0]
        other = qk.OperatorSubspace(np.einsum("ij,jkl->ikl", mixing, chain.subspace.basis))
        texts = [
            save_model(dataclasses.replace(chain, subspace=other)),
            json.dumps(json.loads(save_model(chain))),
            save_model(chain).replace('"basis": [\n      [', '"basis": [ \n      ['),
            _NEAR_MISSES["permuted basis"](save_model(chain)),
        ]
        renders = []
        monkeypatch.setattr(qpmkit_io, "_array_text", lambda *a: renders.append(a))
        qpmkit_io._basis_text.cache_clear()
        assert [qpmkit_io._shared_basis_block(text) for text in texts] == [None] * 4
        assert renders == []

    @pytest.mark.parametrize("n", range(1, 7))
    def test_block_lengths_are_counted_without_rendering(self, n):
        for sub in (qk.OperatorSubspace.diagonal(n), qk.OperatorSubspace.full(n)):
            numbers = qpmkit_io._dump_cmatrix(sub.basis)
            rendered = qpmkit_io._array_text(numbers, 2)
            text = '"ambient_dim": %d,\n    "basis": %s' % (n, rendered)
            assert qpmkit_io._shared_basis_block(text) is None  # no "initial" after it
            text += qpmkit_io._AFTER_BASIS
            _, end, shared = qpmkit_io._shared_basis_block(text)
            assert end == len(text) - len(qpmkit_io._AFTER_BASIS) == text.index(rendered) + len(rendered)
            assert shared is sub or n == 1  # at n = 1 the two bases are one
            chars = sum(len(repr(x)) for x in numbers.reshape(-1).tolist())
            assert qpmkit_io._array_text_length(numbers.shape, 2, chars) == len(rendered)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_array_text_lengths(self, shape, level):
        values = np.zeros(shape)
        assert qpmkit_io._array_text_length(tuple(shape), level, 3 * values.size) == len(
            qpmkit_io._array_text(values, level)
        )


class TestConfig:
    def test_env_override(self, tmp_path, monkeypatch):
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps({"rank_eps": 0.5}))
        monkeypatch.setenv("QPMKIT_CONFIG", str(config_path))
        assert qk.load_config().rank_eps == 0.5

    def test_env_rejects_unknown_keys(self, tmp_path, monkeypatch):
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps({"bogus": 1}))
        monkeypatch.setenv("QPMKIT_CONFIG", str(config_path))
        with pytest.raises(ValueError):
            qk.load_config()

    @pytest.mark.parametrize("key, value", [("cesaro_tol", 1e-8), ("cesaro_t_max", 2**40)])
    def test_env_rejects_the_removed_cesaro_knobs(self, tmp_path, monkeypatch, key, value):
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps({key: value}))
        monkeypatch.setenv("QPMKIT_CONFIG", str(config_path))
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            qk.load_config()

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps({"rank_eps": 0.05}))
        monkeypatch.setenv("QPMKIT_CONFIG", str(config_path))
        # a coarse cutoff hides the weakest direction; the flag restores it
        code, report = _run_json(
            ["rank", str(FIXTURES / "hmm3_rank3.json"), "--rows", "3", "--cols", "3"]
        )
        assert report["results"]["numerical_rank"] == 2
        code, report = _run_json(
            [
                "rank",
                str(FIXTURES / "hmm3_rank3.json"),
                "--rows",
                "3",
                "--cols",
                "3",
                "--tol-rank",
                "1e-8",
            ]
        )
        assert report["results"]["numerical_rank"] == 3


class TestCliCommands:
    def test_eval_word(self):
        code, report = _run_json(["eval", str(FIXTURES / "hmm2.json"), "--word", "ab"])
        assert code == 0
        assert report["results"]["value"] == pytest.approx(0.209)

    def test_eval_empty_word(self):
        code, report = _run_json(["eval", str(FIXTURES / "hmm2.json"), "--word", ""])
        assert code == 0
        assert report["results"]["value"] == 1.0

    def test_validate_good_file(self):
        code, report = _run_json(["validate", str(FIXTURES / "hmm2.json")])
        assert code == 0
        assert report["results"]["valid"] is True

    def test_validate_chain_reports_evidence(self):
        code, report = _run_json(["validate", str(FIXTURES / "swap_qmc.json")])
        assert code == 0
        assert any("positivity" in note for note in report["results"]["evidence"])
        code, report = _run_json(["validate", str(FIXTURES / "unbounded_qpm.json")])
        assert code == 0
        assert report["results"]["horizon"] == 6

    def test_validate_reports_are_pinned(self, tmp_path, qrw_hadamard):
        # results and findings as the command printed them before it reused the
        # load-time validation report
        walk = tmp_path / "walk_qmc.json"
        save_model(per_element_walk_chain(qrw_hadamard), walk)
        sub = qk.OperatorSubspace.full(2)
        reduction = action_coords(sub, lambda q: np.trace(q) * np.eye(2) - q)
        not_cp = tmp_path / "reduction_qmc.json"
        save_model(
            qk.QuantumChain(
                qk.Alphabet(("a",)),
                sub,
                reduction[None],
                qk.Density.quantum(np.diag([0.7, 0.3]).astype(complex)),
                qk.ChainKind.QMC,
            ),
            not_cp,
        )
        cp = "completely positive (Choi PSD), hence positive"
        pinned = {
            FIXTURES / "swap_qmc.json": {
                "evidence": ["operator 'a': positivity verified exactly (diagonal basis)"],
                "kind": "qmc",
                "valid": True,
            },
            FIXTURES / "unbounded_qpm.json": {
                "evidence": ["word probabilities checked exhaustively up to length 6"],
                "horizon": 6,
                "kind": "qpm",
                "valid": True,
            },
            walk: {
                "evidence": [f"operator 'a': {cp}", f"operator 'b': {cp}"],
                "kind": "qmc",
                "valid": True,
            },
            not_cp: {
                "evidence": [
                    "operator 'a': Choi matrix indefinite (min eigenvalue -1.000e+00); no "
                    "positivity counterexample in 1000 samples, positivity unproven"
                ],
                "kind": "qmc",
                "valid": True,
            },
        }
        for path, results in pinned.items():
            code, report = _run_json(["validate", str(path)])
            assert (code, report["results"], report["findings"]) == (0, results, [])

    def test_validate_checks_a_chain_once(self, monkeypatch):
        calls = []
        original = qpmkit_io.validate_chain

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(qpmkit_io, "validate_chain", counted)
        monkeypatch.setattr(qk.chain, "validate_chain", counted)
        code, _ = _run_json(["validate", str(FIXTURES / "swap_qmc.json")])
        assert code == 0 and len(calls) == 1

    def test_validate_bad_file_exits_one(self):
        code, report = _run_json(["validate", str(FIXTURES / "bad_hmm_rowsum.json")])
        assert code == 1
        assert report["results"]["valid"] is False
        assert any("row 0" in f for f in report["findings"])

    def test_validate_integer_beyond_double_range_exits_one(self, tmp_path):
        data = json.loads((FIXTURES / "qrw_hadamard.json").read_text())
        data["payload"]["wave"][0][1] = 10**400
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(data))
        code, report = _run_json(["validate", str(bad)])
        assert code == 1
        assert report["results"] == {"kind": "qrw", "valid": False}
        assert report["findings"] == ["malformed payload: int too large to convert to float"]

    def test_eval_bad_file_exits_one(self):
        code, report = _run_json(["eval", str(FIXTURES / "bad_hmm_rowsum.json"), "--word", "a"])
        assert code == 1
        assert report["findings"]

    def test_unknown_command_exits_64(self):
        code, text = _run(["frobnicate"])
        assert code == 64
        assert "usage" in text

    def test_missing_argument_exits_64(self):
        code, text = _run(["eval", str(FIXTURES / "hmm2.json")])
        assert code == 64

    def test_removed_cesaro_flag_is_a_usage_error(self):
        code, text = _run(["stationary", str(FIXTURES / "hmm2.json"), "--tol-cesaro", "1e-8"])
        assert code == 64
        assert "unrecognized arguments: --tol-cesaro 1e-8" in text

    def test_numeric_failure_exits_two(self):
        code, report = _run_json(["stationary", str(FIXTURES / "unbounded_qpm.json")])
        assert code == 2
        assert any("DivergenceError" in f for f in report["findings"])

    def test_a_non_finite_result_exits_two_with_one_report(self):
        # run as the console runs it, where numpy's overflow warnings stay warnings
        src = Path(qk.__file__).resolve().parents[1]
        path = str(FIXTURES / "unbounded_qpm.json")
        done = subprocess.run(
            [sys.executable, "-m", "qpmkit", "eval", path, "--word", "a" * 20000],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        report = json.loads(done.stdout)
        assert report["results"] == {}
        assert report["findings"] == ["NumericError: non-finite result: results.value = nan"]

    def test_non_finite_results_are_named(self):
        matrix = np.array([[0.0, np.inf], [-np.inf, 1.0]])
        results = {"limit": [[1.0, math.nan]], "model": {"m": matrix}}
        assert cli._non_finite_finding(results) == (
            "NumericError: non-finite result: results.limit[0][1] = nan, "
            "results.model.m[0][1] = inf, results.model.m[1][0] = -inf"
        )
        assert list(cli._non_finite({"value": 0.5, "words": ["ab"], "path": [1, 2]}, "results")) == []

    @pytest.mark.parametrize("flag", ["--tol-rank", "--tol-trace"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_non_finite_tolerance_flag_is_a_usage_error(self, flag, value):
        code, text = _run(["rank", str(FIXTURES / "hmm2.json"), f"{flag}={value}"])
        assert code == 64
        assert text.endswith(f"error: argument {flag}: not a finite number: '{value}'\n")

    def test_a_non_finite_config_value_exits_two(self, tmp_path, monkeypatch):
        config_path = tmp_path / "conf.json"
        config_path.write_text('{"rank_eps": NaN, "trace_tol": Infinity}')
        monkeypatch.setenv("QPMKIT_CONFIG", str(config_path))
        code, report = _run_json(["rank", str(FIXTURES / "hmm2.json")])
        assert code == 2
        assert report["findings"] == [
            "ValueError: non-finite config values: ['rank_eps', 'trace_tol']"
        ]

    @pytest.mark.parametrize("flag", ["--horizon", "--qpm-horizon"])
    def test_a_negative_horizon_flag_is_a_usage_error(self, flag):
        path = str(FIXTURES / "unbounded_qpm.json")
        code, text = _run(["validate", path, flag, "-3"])
        assert code == 64
        assert text.endswith(f"error: argument {flag}: not a non-negative integer: '-3'\n")
        code, report = _run_json(["validate", path, flag, "0"])
        assert code == 0 and report["results"]["horizon"] == 0

    @pytest.mark.parametrize("value, shown", [("-3", "-3"), ("2.5", "2.5"), ("true", "True")])
    def test_a_config_horizon_that_is_not_a_length_exits_two(
        self, tmp_path, monkeypatch, value, shown
    ):
        config_path = tmp_path / "conf.json"
        config_path.write_text('{"qpm_horizon": %s}' % value)
        monkeypatch.setenv("QPMKIT_CONFIG", str(config_path))
        message = f"qpm_horizon must be an integer >= 0, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qk.load_config()
        code, report = _run_json(["validate", str(FIXTURES / "unbounded_qpm.json")])
        assert code == 2
        assert report["findings"] == [f"ValueError: {message}"]

    def test_rank_reports_basis(self):
        code, report = _run_json(
            ["rank", str(FIXTURES / "coin_finitary.json"), "--rows", "2", "--cols", "2"]
        )
        assert code == 0
        assert report["results"]["numerical_rank"] == 1
        assert report["results"]["row_basis"] == [""]

    def test_default_truncation_counts_words_without_building_them(self):
        def by_listing(alphabet, dimension):  # the depth as it was chosen when words were listed
            depth = max(dimension, 1)
            while depth > 1 and len(qk.words_up_to(alphabet, depth)) > 130:
                depth -= 1
            return depth

        for size in range(1, 5):
            alphabet = qk.Alphabet(tuple("abcd"[:size]))
            for depth in range(8):
                if size**depth <= 4096:
                    count = sum(size**k for k in range(depth + 1))
                    assert len(qk.words_up_to(alphabet, depth)) == count
            for declared in range(-1, 140):  # 129 is the deepest for one letter
                if size ** max(declared, 0) > 20000:
                    break
                depth = cli._default_truncation(size, declared)
                assert depth == by_listing(alphabet, declared), (size, declared)

    def test_rank_of_a_walk_with_13_form_dimensions_is_quick(self, tmp_path):
        path = tmp_path / "walk3x2.json"
        save_model(random_local_qrw(np.random.default_rng(36), 3, 2), path)
        assert qk.qrw_process(load_model(path)).linear.dim == 3 * 2**2 + 1
        started = time.perf_counter()
        code, report = _run_json(["rank", str(path)])
        assert time.perf_counter() - started < 1.0
        assert code == 0, report["findings"]
        assert (report["results"]["rows"], report["results"]["cols"]) == (4, 4)
        assert report["results"]["shape"] == [121, 121]

    def test_rank_writes_csv(self, tmp_path):
        out = tmp_path / "hankel.csv"
        code, _ = _run_json(
            [
                "rank",
                str(FIXTURES / "hmm2.json"),
                "--rows",
                "1",
                "--cols",
                "1",
                "--csv",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == ",,a,b"

    def test_every_kind_lowers_or_is_refused(self, unbounded_qpm, coin_finitary):
        # a kind, or a target of a kind, without a lowering is refused with the
        # message the per-class dispatch gave before the lowering table
        function = qk.InformationFunction("X", {"w1": -1, "w2": 1}, (-1, 1))
        without_row = {
            "density": DensityFile(qk.Density.quantum(np.eye(2) / 2)),
            "info_functions": InfoFunctionsFile(("w1", "w2"), {"X": function}),
        }
        assert set(qpmkit_io._KINDS) == set(cli._LOWERINGS) | set(without_row)
        missing = {kind: set(cli._TARGETS) - set(row) for kind, row in cli._LOWERINGS.items()}
        assert missing == {kind: set() for kind in ("hmm", "ffmc", "qrw", "qmc")} | {
            "finitary": {"qmc"},
            "qpm": {"qmc"},
        }
        refusals = [(model, target) for model in without_row.values() for target in cli._TARGETS]
        refusals += [(coin_finitary, "qmc"), (unbounded_qpm, "qmc")]
        for model, target in refusals:
            name = type(model).__name__
            message = {
                "process": f"{name} does not define a process",
                "chain": f"{name} does not define a chain",
                "stationary": f"{name} does not define a chain",
                "labels": f"{name} does not define a chain",
                "qmc": f"cannot certify positivity when converting {name} to a Markov chain",
            }.get(target, f"no conversion from {name} to {target}")
            with pytest.raises(ValidationError) as refused:
                cli._lower(model, target, DEFAULTS)
            assert str(refused.value) == message

    def test_equiv_of_conversions(self, tmp_path):
        converted = tmp_path / "hmm2_finitary.json"
        code, _ = _run_json(
            [
                "convert",
                str(FIXTURES / "hmm2.json"),
                "--to",
                "finitary",
                "--out",
                str(converted),
            ]
        )
        assert code == 0
        code, report = _run_json(["equiv", str(FIXTURES / "hmm2.json"), str(converted)])
        assert code == 0
        assert report["results"]["equivalent"] is True
        assert report["results"]["witness"] is None

    def test_equiv_reports_a_witness(self):
        hmm2, hmm3 = FIXTURES / "hmm2.json", FIXTURES / "hmm3_rank3.json"
        code, report = _run_json(["equiv", str(hmm2), str(hmm3)])
        assert code == 0
        results = report["results"]
        assert results["equivalent"] is False
        assert results["horizon"] == 5
        first, second = load_model(hmm2), load_model(hmm3)
        word = qk.parse_word(results["witness"], first.alphabet)
        gap = qk.hmm_eval(first, word) - qk.hmm_eval(second, word)
        assert abs(gap) > 1e-9

    def test_equiv_finds_a_difference_carried_by_a_rarely_reached_state(self, tmp_path):
        # s2 is entered with weight 1e-9 and emits "a" in one model, "b" in the other:
        # p("aaa") is 1.0 against 0.9999999980000001, so "aaa" differs by 2e-9 > --tol
        eps = 1e-9
        paths = []
        for name, last_emission in (("a", [1.0, 0.0]), ("b", [0.0, 1.0])):
            payload = {
                "states": ["s0", "s1", "s2"],
                "initial": [1.0, 0.0, 0.0],
                "transition": [[1 - eps, 0.0, eps], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                "emission": [[1.0, 0.0], [1.0, 0.0], last_emission],
            }
            path = tmp_path / f"rare_{name}.json"
            path.write_text(
                json.dumps(
                    {"schema_version": "1", "kind": "hmm", "alphabet": ["a", "b"], "payload": payload}
                )
            )
            paths.append(str(path))
        code, report = _run_json(["equiv", *paths, "--tol", "1e-9"])
        assert code == 0
        assert report["results"]["equivalent"] is False
        assert report["results"]["witness"] == "aaa"
        first, second = (load_model(path) for path in paths)
        assert qk.hmm_eval(first, "aaa") - qk.hmm_eval(second, "aaa") > 1e-9

    def test_equiv_of_a_walk_with_itself_is_fast(self):
        # form dimensions 9 + 9: comparing every word up to length 18 is out of reach
        path = str(FIXTURES / "qrw_hadamard.json")
        started = time.perf_counter()
        code, report = _run_json(["equiv", path, path])
        assert time.perf_counter() - started < 5.0
        assert code == 0
        assert report["results"]["equivalent"] is True
        assert report["results"]["horizon"] == 18

    def test_walk_conversions_are_equivalent_to_the_walk(self, tmp_path):
        # the finitary file is the walk's block form, of dimension N·k² + 1; it
        # is equivalent to the walk, to its chain file and to the chain's
        # coordinates (qpm_to_finitary of qrw_to_qmc)
        seeded = tmp_path / "walk16.json"
        save_model(random_local_qrw(np.random.default_rng(11), 8, 2), seeded)
        for walk_path in (FIXTURES / "qrw_hadamard.json", seeded):
            walk = load_model(walk_path)
            paths = {to: tmp_path / f"{walk_path.stem}_{to}.json" for to in ("qmc", "finitary")}
            for to, path in paths.items():
                code, report = _run_json(["convert", str(walk_path), "--to", to, "--out", str(path)])
                assert code == 0, report["findings"]
            assert load_model(paths["finitary"]).dimension == len(walk.nodes) * 2**2 + 1
            coordinates = tmp_path / f"{walk_path.stem}_coordinates.json"
            save_model(qk.qpm_to_finitary(qk.qrw_to_qmc(walk)), coordinates)
            pairs = [(walk_path, paths["qmc"]), (walk_path, paths["finitary"])]
            pairs += [(paths["finitary"], paths["qmc"]), (paths["finitary"], coordinates)]
            for first, second in pairs:
                code, report = _run_json(["equiv", str(first), str(second)])
                assert code == 0, report["findings"]
                assert report["results"]["equivalent"] is True, (first, second)
                assert report["results"]["witness"] is None

    def test_eval_of_an_improbable_walk_word(self, tmp_path):
        # a two-node, one-coin walk rotated by 1e-8 with its wave on node a:
        # p(b) = sin(1e-8)**2, which no collapse threshold cuts to 0.0
        c, s = np.cos(1e-8), np.sin(1e-8)
        nodes = qk.Alphabet(("a", "b"))
        walk = qk.QrwParam(nodes, (("a", "b"), ("b", "a")), ("c",), [[c, -s], [s, c]], [1, 0])
        path = tmp_path / "rotated.json"
        save_model(walk, path)
        reference = walk_form_reference(walk)
        for word in ("b", "ab"):
            code, report = _run_json(["eval", str(path), "--word", word])
            assert code == 0, report["findings"]
            expected = complex_form_value(reference, nodes.indices(word))
            assert 0.0 < expected < 1e-15
            assert abs(report["results"]["value"] - expected) <= 1e-13 * expected
            assert report["results"]["value"] == qk.qrw_eval(walk, word)
        code, report = _run_json(["eval", str(FIXTURES / "qrw_hadamard.json"), "--word", "abba"])
        assert (code, report["results"]["value"]) == (0, 0.0)  # through the zero block U_bb

    def test_unexpected_errors_exit_two_with_a_finding(self, monkeypatch):
        def broken(argv, config, inputs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setitem(cli._HANDLERS, "eval", broken)
        code, report = _run_json(["eval", str(FIXTURES / "hmm2.json"), "--word", "a"])
        assert code == 2
        assert report["findings"] == ["LinAlgError: Singular matrix"]

    def test_convert_to_qpm_and_eval(self, tmp_path):
        converted = tmp_path / "hmm2_qpm.json"
        code, _ = _run_json(
            ["convert", str(FIXTURES / "hmm2.json"), "--to", "qpm", "--out", str(converted)]
        )
        assert code == 0
        code, report = _run_json(["eval", str(converted), "--word", "ab"])
        assert code == 0
        assert report["results"]["value"] == pytest.approx(0.209, abs=1e-9)

    def test_convert_inline_output(self):
        code, report = _run_json(
            ["convert", str(FIXTURES / "qrw_hadamard.json"), "--to", "qpm"]
        )
        assert code == 0
        embedded = report["results"]["model"]
        assert embedded["kind"] == "qpm"
        assert embedded["payload"]["ambient_dim"] == 4

    def test_convert_rejects_unsound_positivity(self):
        code, report = _run_json(
            ["convert", str(FIXTURES / "unbounded_qpm.json"), "--to", "qmc"]
        )
        assert code == 1

    def test_convert_to_qpm_refuses_a_fit_its_loader_would_refuse(self, tmp_path, monkeypatch):
        # this HMM's transition row leaks 5e-10, within eval_tol; its fitted
        # operators move basis element 0's trace by -3.0e-10, past
        # preserve_tol: convert writes no file that load and validate would
        # then reject
        model = tmp_path / "leaky.json"
        model.write_text(qk.save_model(leaky_hmm()))
        out = tmp_path / "leaky_qpm.json"
        argv = ["convert", str(model), "--to", "qpm", "--out", str(out)]
        code, report = _run_json(argv)
        assert code == 2
        assert report["findings"] == [
            "BasisInsufficiencyError: fitted operators change the trace of basis element 0 "
            "by -2.999998027775064e-10 (preserve_tol 1.000e-10)"
        ]
        assert not out.exists()
        # the check reads the run's preserve_tol, the one its loader reads
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps({"preserve_tol": 1e-9}))
        monkeypatch.setenv("QPMKIT_CONFIG", str(config_path))
        assert _run_json(argv)[0] == 0
        code, report = _run_json(["validate", str(out)])
        assert (code, report["results"]["valid"]) == (0, True)

    def test_convert_to_qpm_does_not_read_the_rank_cut(self, tmp_path):
        # the conversion cuts its row basis at rounding level; --tol-rank sets
        # rank's truncation and leaves the written model as it is
        written = []
        for flags in ([], ["--tol-rank", "0.5"], ["--tol-rank", "1e-14"]):
            out = tmp_path / f"qpm{len(written)}.json"
            argv = ["convert", str(FIXTURES / "hmm3_rank3.json"), "--to", "qpm", "--out", str(out)]
            code, report = _run_json(argv + flags)
            assert (code, report["findings"], report["results"]["kind"]) == (0, [], "qpm"), flags
            written.append(out.read_bytes())
        assert written[1:] == written[:1] * 2

    def test_twelve_state_hmms_convert_at_their_rank(self, tmp_path):
        # 12-state, 2-letter HMMs whose Hankel rank rank_eps once cut short:
        # each finitary form converts to a predictor model that loads,
        # validates and evaluates as the HMM, and stationary, which reads a
        # finitary file through that conversion, gives the HMM's letters
        for seed in range(20):
            hmm = random_hmm(np.random.default_rng(seed), 12, 2)
            hmm_path, finitary, qpm = (tmp_path / f"{name}{seed}.json" for name in ("hmm", "fin", "qpm"))
            qk.save_model(hmm, hmm_path)
            qk.save_model(qk.hmm_to_finitary(hmm), finitary)
            code, report = _run_json(["convert", str(finitary), "--to", "qpm", "--out", str(qpm)])
            assert code == 0, (seed, report["findings"])
            code, report = _run_json(["validate", str(qpm)])
            assert (code, report["results"]["valid"]) == (0, True), seed
            chain = qk.load_model(qpm)
            words = qk.words_up_to(hmm.alphabet, 8)
            want = np.array([qk.hmm_eval(hmm, w) for w in words])
            got = np.array([qk.chain_eval(chain, w) for w in words])
            assert np.max(np.abs(got - want) / want) <= 1e-11, seed
            runs = [_run_json(["stationary", str(path)]) for path in (hmm_path, finitary)]
            assert [code for code, _ in runs] == [0, 0], (seed, runs[1][1]["findings"])
            letters = [report["results"]["letter_distribution"] for _, report in runs]
            assert max(abs(letters[0][a] - letters[1][a]) for a in "ab") <= 1e-12, seed

    def test_simulate_prints_words(self):
        code, text = _run(
            [
                "simulate",
                str(FIXTURES / "hmm2.json"),
                "--length",
                "4",
                "--count",
                "3",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert all(set(line) <= {"a", "b"} and len(line) == 4 for line in lines)

    def test_simulate_is_reproducible(self):
        args = [
            "simulate",
            str(FIXTURES / "hmm2.json"),
            "--length",
            "6",
            "--count",
            "5",
            "--seed",
            "123",
        ]
        assert _run(args) == _run(args)

    def test_simulate_writes_file(self, tmp_path):
        out = tmp_path / "words.txt"
        code, report = _run_json(
            [
                "simulate",
                str(FIXTURES / "qrw_hadamard.json"),
                "--length",
                "3",
                "--count",
                "4",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert report["results"]["path"] == str(out)
        assert len(out.read_text().strip().splitlines()) == 4

    def test_stationary_swap_chain(self, tmp_path):
        csv_out = tmp_path / "letters.csv"
        code, report = _run_json(
            ["stationary", str(FIXTURES / "swap_qmc.json"), "--csv", str(csv_out)]
        )
        assert code == 0
        results = report["results"]
        assert results["letter_distribution"]["a"] == pytest.approx(1.0, abs=1e-8)
        assert results["limit"][0][0][0] == pytest.approx(0.5, abs=1e-8)
        assert csv_out.read_text().splitlines()[0] == "symbol,probability"

    def test_stationary_spectral_method(self):
        code, report = _run_json(
            ["stationary", str(FIXTURES / "swap_ffmc.json"), "--method", "spectral"]
        )
        assert code == 0
        letters = report["results"]["letter_distribution"]
        assert letters["a"] == pytest.approx(0.5, abs=1e-8)
        assert letters["b"] == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("method", ["iterative", "spectral"])
    def test_stationary_reports_the_orbit_space(self, method):
        path = str(FIXTURES / "qrw_hadamard.json")
        code, report = _run_json(["stationary", path, "--method", method])
        assert code == 0
        results = report["results"]
        assert results["krylov_dim"] == 3
        assert 0.0 <= results["invariance_residual"] <= 1e-12
        # --method is accepted and has no effect
        assert _run_json(["stationary", path])[1]["results"] == results

    @pytest.mark.parametrize(
        "name, peripheral, gap, condition",
        [
            ("qrw_hadamard.json", [[1.0, 0.0], [-1.0, 0.0]], 0.0, 1.1726039399558574),
            ("hmm2.json", [[1.0, 0.0]], 0.7, 1.0101525445522108),
        ],
        ids=["qrw_hadamard", "hmm2"],
    )
    def test_stationary_reports_the_peripheral_spectrum(self, name, peripheral, gap, condition):
        # the walk's orbit keeps flipping (eigenvalue -1) and only its average
        # converges; the HMM's orbit settles.  Both projectors onto the fixed
        # space are oblique (norm above one): the walk averages on its block
        # form, whose start coordinate makes the evolution non-normal (on its
        # coordinate chain the projector is orthogonal).
        code, report = _run_json(["stationary", str(FIXTURES / name)])
        assert code == 0
        results = report["results"]
        assert results["peripheral_spectrum"] == [pytest.approx(z, abs=1e-12) for z in peripheral]
        assert results["fixed_space_dim"] == 1
        assert results["spectral_gap"] == pytest.approx(gap, abs=1e-12)
        assert results["projector_condition"] == pytest.approx(condition, abs=1e-12)
        assert not {"method", "iterations", "cross_difference"} & set(results)

    def test_stationary_averages_a_finitary_file_on_its_chain(self, tmp_path):
        # a fair coin whose second coordinate is unobservable: both letters
        # diag(0.5, 1), initial [1, 1], end [1, 0].  On the raw form that
        # coordinate doubles each step and no limit exists; the file averages
        # on its predictor chain (finitary_to_qpm), which drops it
        letter = np.diag([0.5, 1.0])
        model = qk.FinitaryParam(
            qk.Alphabet(("a", "b")), np.stack([letter, letter]), np.ones(2), np.array([1.0, 0.0])
        )
        path = tmp_path / "coin2.json"
        path.write_text(qk.save_model(model))
        code, report = _run_json(["stationary", str(path)])
        assert code == 0, report
        letters = report["results"]["letter_distribution"]
        assert letters == {"a": pytest.approx(0.5, abs=1e-12), "b": pytest.approx(0.5, abs=1e-12)}
        with pytest.raises(DivergenceError, match="spectral radius 2.000000"):
            qk.cesaro_limit(qk.finitary_process(model))

    def test_bell_single_file(self):
        code, report = _run_json(["bell", str(FIXTURES / "bell5.json")])
        assert code == 0
        results = report["results"]
        assert results["lhs"] == pytest.approx(4 / 3)
        assert results["rhs"] == pytest.approx(0.0)
        assert results["violated"] is True
        assert results["jointly_observable"] is False
        assert results["offending_outcomes"] == [[[-1, 1, 1], pytest.approx(-1 / 3)]]

    def test_bell_two_files(self, tmp_path):
        bundle = load_model(FIXTURES / "bell5.json")
        density_only = tmp_path / "density.json"
        functions_only = tmp_path / "functions.json"
        save_model(DensityFile(bundle.density, bundle.labels, None), density_only)
        save_model(InfoFunctionsFile(bundle.labels, bundle.functions), functions_only)
        code, report = _run_json(["bell", str(density_only), str(functions_only)])
        assert code == 0
        assert report["results"]["lhs"] == pytest.approx(4 / 3)

    def test_hidden_path(self):
        code, report = _run_json(
            ["hidden-path", str(FIXTURES / "hmm2.json"), "--word", "ab"]
        )
        assert code == 0
        assert report["results"]["path"] == ["s0", "s1", "s1"]
        assert report["results"]["weight"] == pytest.approx(0.07776)

    def test_hidden_path_long_word_reports_log_weight(self):
        hmm2 = load_model(FIXTURES / "hmm2.json")
        word = "abbab" * 240
        code, report = _run_json(["hidden-path", str(FIXTURES / "hmm2.json"), "--word", word])
        assert code == 0
        results = report["results"]
        assert len(results["path"]) == len(word) + 1
        assert results["weight"] == 0.0 and results["sign"] == 1
        best = hmm_viterbi_log(hmm2, word)
        assert abs(results["log_weight"] - best) <= 1e-9 * abs(best)
        assert len(report["findings"]) == 1 and "log_weight" in report["findings"][0]
        _, short = _run_json(["hidden-path", str(FIXTURES / "hmm2.json"), "--word", "ab"])
        assert short["findings"] == []
        assert short["results"]["log_weight"] == pytest.approx(np.log(0.07776))

    def test_reports_are_reproducible(self):
        args = ["eval", str(FIXTURES / "hmm2.json"), "--word", "abba"]
        _, first = _run_json(args)
        _, second = _run_json(args)
        assert first["results"] == second["results"]
        assert first["tolerances"] == second["tolerances"]

    def test_report_has_stable_fields(self):
        _, report = _run_json(["eval", str(FIXTURES / "hmm2.json"), "--word", "a"])
        assert set(report) == {
            "command",
            "inputs",
            "results",
            "tolerances",
            "findings",
            "wall_time_s",
        }

    def test_trace_tolerance_flag_reaches_walk_evaluation(self, tmp_path, qrw_hadamard):
        path = tmp_path / "stretched.json"
        save_model(dataclasses.replace(qrw_hadamard, wave=qrw_hadamard.wave * (1 + 1e-8)), path)
        commands = [
            ["simulate", str(path), "--length", "3", "--count", "2"],
            ["eval", str(path), "--word", "ab"],
        ]
        for command in commands:
            code, text = _run(command + ["--tol-trace", "1e-6"])
            assert code == 0, text
            code, report = _run_json(command)
            assert code == 1
            assert report["findings"] == [
                "wave-norm at ('wave',): initial wave norm is 1.0000000099999997, expected 1"
            ]

    @pytest.mark.parametrize(
        "command",
        [
            ["stationary"],
            ["convert", "--to", "qmc"],
            ["convert", "--to", "finitary"],
            ["convert", "--to", "qpm"],
            ["hidden-path", "--word", "ab"],
        ],
        ids=" ".join,
    )
    def test_a_walks_chain_is_built_under_the_runs_tolerances(
        self, tmp_path, qrw_hadamard, command
    ):
        # validate, eval, rank and simulate read the walk itself under them already
        unitary = qrw_hadamard.unitary.copy()
        unitary.reshape(-1)[np.flatnonzero(unitary)[0]] *= 1 + 1e-7  # one nonzero entry
        wave = qrw_hadamard.wave * (1 + 1e-8)
        stretched = {
            "unitary": (dataclasses.replace(qrw_hadamard, unitary=unitary), "--tol-unitary"),
            "wave": (dataclasses.replace(qrw_hadamard, wave=wave), "--tol-trace"),
        }
        for name, (walk, flag) in stretched.items():
            path = tmp_path / f"{name}.json"
            save_model(walk, path)
            argv = [command[0], str(path)] + command[1:]
            code, text = _run(argv + [flag, "1e-6"])
            if (command[0], name) == ("stationary", "unitary"):
                # accepted as a walk, its chain is not trace preserving: the
                # orbit grows by 5e-8 a step, and its limit is refused
                assert code == 2
                assert json.loads(text)["findings"] == [
                    "DivergenceError: evolution has spectral radius 1.000000 > 1 on the orbit span"
                ]
            else:
                assert code == 0, (name, text)
            assert _run(argv)[0] == 1

    def test_module_entry_point(self):
        src = Path(qk.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "qpmkit", "validate", str(FIXTURES / "hmm2.json")],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["command"] == "validate" and report["results"] == {"kind": "hmm", "valid": True}

    def test_help_exits_zero(self):
        code, text = _run(["--help"])
        assert code == 0
        assert "commands" in text

    def test_command_help_goes_to_the_callers_stream(self, capsys):
        code, text = _run(["validate", "--help"])
        assert code == 0
        assert "--horizon" in text and text.startswith("usage: qpmkit validate")
        assert capsys.readouterr().out == ""


class TestFfmcAlphabet:
    def test_round_trip_keeps_the_first_seen_symbol_order(self, tmp_path):
        ffmc = qk.FfmcParam(
            ("s0", "s1", "s2"),
            {"s0": "b", "s1": "a", "s2": "b"},
            [0.5, 0.25, 0.25],
            [[0.1, 0.6, 0.3], [0.5, 0.2, 0.3], [0.3, 0.3, 0.4]],
        )
        path = tmp_path / "ffmc.json"
        save_model(ffmc, path)
        loaded = load_model(path)
        assert ffmc.to_hmm().alphabet.symbols == ("b", "a")
        assert loaded.to_hmm().alphabet.symbols == ("b", "a")
        rows = [
            qk.select_row_basis(qk.build_hankel(qk.hmm_process(m.to_hmm()), 2, 2))
            for m in (ffmc, loaded)
        ]
        assert rows[0] == rows[1]
        assert rows[0][:2] == [(), ("b",)]


def _matches_golden(name, code, text) -> bool:
    suffix, golden = golden_runs.golden_text(code, text)
    return (golden_runs.GOLDEN / f"{name}{suffix}").read_bytes() == golden.encode()


class TestGoldenReports:
    """Every pinned CLI run prints what its golden file in tests/golden/ holds."""

    @pytest.mark.parametrize("name", sorted(golden_runs.RUNS))
    def test_run_matches_its_golden(self, name, monkeypatch):
        monkeypatch.delenv("QPMKIT_CONFIG", raising=False)
        path, text = golden_runs.render(name)
        golden = path.read_bytes() if path.exists() else b""
        if golden != text.encode():
            diff = difflib.unified_diff(
                golden.decode().splitlines(keepends=True),
                text.splitlines(keepends=True),
                f"tests/golden/{path.name}",
                "this run",
            )
            rewrite = f"PYTHONPATH=src python tests/golden_runs.py {name}"
            pytest.fail("".join(diff) + f"\nif the change is intended: {rewrite}", pytrace=False)

    def test_every_golden_has_a_run(self):
        stems = [path.name.rsplit(".", 1)[0] for path in golden_runs.GOLDEN.iterdir()]
        assert sorted(stems) == sorted(golden_runs.RUNS)


_CONFIG_RUNS = {
    "defaults": (["rank", "hmm2.json"], {}, {}),
    "--tol-rank": (["rank", "hmm2.json", "--tol-rank", "0.5"], {}, {"rank_eps": 0.5}),
    "--qpm-horizon": (
        ["validate", "unbounded_qpm.json", "--qpm-horizon", "2"],
        {},
        {"qpm_horizon": 2},
    ),
    "--horizon": (["validate", "unbounded_qpm.json", "--horizon", "3"], {}, {"qpm_horizon": 3}),
    "--tol-equiv": (
        ["equiv", "hmm2.json", "hmm3_rank3.json", "--tol-equiv", "0.01"],
        {},
        {"equiv_tol": 0.01},
    ),
    "--tol": (["equiv", "hmm2.json", "hmm3_rank3.json", "--tol", "0.02"], {}, {"equiv_tol": 0.02}),
    "--horizon last": (
        ["validate", "unbounded_qpm.json", "--qpm-horizon", "2", "--horizon", "3"],
        {},
        {"qpm_horizon": 3},
    ),
    "--qpm-horizon last": (
        ["validate", "unbounded_qpm.json", "--horizon", "3", "--qpm-horizon", "2"],
        {},
        {"qpm_horizon": 2},
    ),
    "--tol-equiv last": (
        ["equiv", "hmm2.json", "hmm2.json", "--tol", "0.02", "--tol-equiv", "0.01"],
        {},
        {"equiv_tol": 0.01},
    ),
    "QPMKIT_CONFIG": (
        ["eval", "hmm2.json", "--word", "ab"],
        {"trace_tol": 1e-6},
        {"trace_tol": 1e-6},
    ),
    "QPMKIT_CONFIG and a flag": (
        ["rank", "hmm2.json", "--tol-rank", "0.5"],
        {"rank_eps": 0.05, "psd_tol": 1e-7},
        {"rank_eps": 0.5, "psd_tol": 1e-7},
    ),
}


class TestReportedConfig:
    @pytest.mark.parametrize("name", list(_CONFIG_RUNS))
    def test_tolerances_are_the_config_that_ran(self, name, tmp_path, monkeypatch):
        args, file_config, ran = _CONFIG_RUNS[name]
        if file_config:
            config_path = tmp_path / "conf.json"
            config_path.write_text(json.dumps(file_config))
            monkeypatch.setenv("QPMKIT_CONFIG", str(config_path))
        else:
            monkeypatch.delenv("QPMKIT_CONFIG", raising=False)
        argv = [a if not a.endswith(".json") else str(FIXTURES / a) for a in args]
        code, report = _run_json(argv)
        assert code == 0, report["findings"]
        assert report["tolerances"] == dataclasses.asdict(DEFAULTS.replace(**ran))

    def test_failed_run_reports_the_config_that_judged_it(self, monkeypatch):
        monkeypatch.delenv("QPMKIT_CONFIG", raising=False)
        argv = ["eval", str(FIXTURES / "bad_hmm_rowsum.json"), "--word", "a", "--tol-eval", "1e-3"]
        code, report = _run_json(argv)
        assert code == 1
        assert report["findings"] and not report["results"]
        assert report["tolerances"] == dataclasses.asdict(DEFAULTS.replace(eval_tol=1e-3))
        assert report["tolerances"]["eval_tol"] == 0.001

    def test_rank_under_a_flag_reports_the_cutoff_it_used(self):
        code, report = _run_json(["rank", str(FIXTURES / "hmm2.json"), "--tol-rank", "0.5"])
        assert code == 0
        assert report["results"]["numerical_rank"] == 1
        assert report["tolerances"]["rank_eps"] == 0.5

    @pytest.mark.parametrize(
        "alias, flag, args, value",
        [
            ("--horizon", "--qpm-horizon", ["validate", "unbounded_qpm.json"], "1"),
            ("--horizon", "--qpm-horizon", ["validate", "unbounded_qpm.json"], "2"),
            ("--tol", "--tol-equiv", ["equiv", "hmm2.json", "hmm3_rank3.json"], "0.5"),
            ("--tol", "--tol-equiv", ["equiv", "hmm2.json", "hmm3_rank3.json"], "1e-3"),
        ],
    )
    def test_alias_gives_the_same_report_as_the_flag(self, alias, flag, args, value):
        argv = [args[0]] + [str(FIXTURES / a) for a in args[1:]]
        reports = []
        for extra in ([alias, value], [flag, value], []):
            code, report = _run_json(argv + extra)
            assert code == 0, report["findings"]
            del report["wall_time_s"]
            reports.append(report)
        by_alias, by_flag, by_default = reports
        assert by_alias == by_flag
        assert by_alias["tolerances"] != by_default["tolerances"]


class TestParserReuse:
    """Each command's parser is built once per process; the calls sharing it stay apart."""

    def test_a_flag_does_not_outlive_its_call(self, monkeypatch):
        monkeypatch.delenv("QPMKIT_CONFIG", raising=False)
        path = str(FIXTURES / "hmm3_rank3.json")
        code, report = _run_json(["rank", path, "--tol-rank", "0.5"])
        assert code == 0 and report["tolerances"]["rank_eps"] == 0.5
        code, text = _run(["rank", path])
        assert json.loads(text)["tolerances"] == dataclasses.asdict(DEFAULTS)
        assert _matches_golden("rank_hmm3_rank3.json", code, text)

    def test_a_usage_error_does_not_outlive_its_call(self, monkeypatch):
        monkeypatch.delenv("QPMKIT_CONFIG", raising=False)
        path = str(FIXTURES / "hmm2.json")
        assert _run(["eval", path])[0] == 64
        code, text = _run(["eval", path, "--word", "ab"])
        assert code == 0
        assert _matches_golden("eval_hmm2.json_word_ab", code, text)

    def test_config_is_read_on_every_call(self, tmp_path, monkeypatch):
        monkeypatch.delenv("QPMKIT_CONFIG", raising=False)
        argv = ["eval", str(FIXTURES / "hmm2.json"), "--word", "ab"]
        _, before = _run_json(argv)
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps({"trace_tol": 1e-6}))
        monkeypatch.setenv("QPMKIT_CONFIG", str(config_path))
        _, after = _run_json(argv)
        assert before["tolerances"] == dataclasses.asdict(DEFAULTS)
        assert after["tolerances"] == dataclasses.asdict(DEFAULTS.replace(trace_tol=1e-6))

    def test_a_command_builds_its_parser_once(self, monkeypatch):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            added.append(args[0])
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        cli._parser.cache_clear()
        path = str(FIXTURES / "hmm2.json")
        for argv in (["validate", path], ["eval", path, "--word", "ab"]):
            added.clear()
            built = ["-h", *cli._CONFIG_FLAGS, *cli._ARGUMENTS[argv[0]]]
            assert _run(argv)[0] == 0
            assert added == built
            assert _run(argv)[0] == 0
            assert added == built  # the second call reuses the parser

    def test_no_flag_keeps_the_loaded_config(self):
        config = DEFAULTS.replace(trace_tol=1e-6)
        plain = cli._parser("validate").parse_args(["hmm2.json"])
        assert cli._apply_flags(config, plain) is config  # not a replaced copy
        flagged = cli._parser("validate").parse_args(["hmm2.json", "--tol-rank", "0.5"])
        assert cli._apply_flags(config, flagged) == config.replace(rank_eps=0.5)
