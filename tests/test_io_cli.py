import argparse
import dataclasses
import hashlib
import io
import json
import math
import os
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
from qpmkit.errors import SchemaError, ValidationError
from qpmkit.io import (
    DensityFile,
    InfoFunctionsFile,
    canonical_json,
    load_model,
    load_model_report,
    save_model,
)

from conftest import FIXTURES
from helpers import random_local_qrw, walk_kraus
from oracles import complex_entries, hmm_viterbi_log

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
    "hadamard qmc": "f3e946afd2c06f21",
    "walk8 qmc": "d140e18291b500a0",
    "walk8 finitary": "d9c52a9902fd5bfa",
}

RANKABLE_FIXTURES = (
    "coin_finitary",
    "hmm2",
    "hmm3_rank3",
    "qrw_hadamard",
    "swap_ffmc",
    "swap_qmc",
    "unbounded_qpm",
)

PINNED_CLI_DIGESTS = {
    "rank coin_finitary": "2fea1887951bf726",
    "rank coin_finitary 3x3": "375bf29416347a3f",
    "rank hmm2": "781fa39dafee1225",
    "rank hmm2 3x3": "ecbdf61bebed15ac",
    "rank hmm3_rank3": "48ea3154b81fa974",
    "rank hmm3_rank3 3x3": "48ea3154b81fa974",
    "rank qrw_hadamard": "d3a0113b338c89c7",
    "rank qrw_hadamard 3x3": "ecbdf61bebed15ac",
    "rank swap_ffmc": "781fa39dafee1225",
    "rank swap_ffmc 3x3": "ecbdf61bebed15ac",
    "rank swap_qmc": "e283b41427f76760",
    "rank swap_qmc 3x3": "7385d8980e7555c4",
    "rank unbounded_qpm": "e283b41427f76760",
    "rank unbounded_qpm 3x3": "7385d8980e7555c4",
    "qpm coin_finitary": "874a239182fa7746",
    "qpm hmm2": "9a9a86092a827520",
    "qpm hmm3_rank3": "5f78161f2bc158bb",
    "qpm swap_ffmc": "d4748203c7ed545f",
}


MATRIX_FIXTURES = sorted(path.name for path in FIXTURES.glob("*.json"))

PINNED_MATRIX_DIGESTS = {
    "validate bad_hmm_rowsum.json": "f682c3e9c32d9417",
    "eval bad_hmm_rowsum.json --word ab": "8d431ad85d97813b",
    "rank bad_hmm_rowsum.json": "7c83727a9c4d5b2d",
    "convert bad_hmm_rowsum.json --to finitary": "49a3bf96bb4287a2",
    "convert bad_hmm_rowsum.json --to qmc": "49a3bf96bb4287a2",
    "convert bad_hmm_rowsum.json --to qpm": "49a3bf96bb4287a2",
    "simulate bad_hmm_rowsum.json --length 4 --count 3 --seed 5": "3d879f8e3a6e6824",
    "stationary bad_hmm_rowsum.json": "c8971144e6844a6f",
    "stationary bad_hmm_rowsum.json --method spectral": "c8971144e6844a6f",
    "bell bad_hmm_rowsum.json": "cf9464f3e8360326",
    "hidden-path bad_hmm_rowsum.json --word ab": "db5cb10371c5cc45",
    "validate bell5.json": "f5f10ded17b11097",
    "eval bell5.json --word ab": "5d8b2899f2dfce0d",
    "rank bell5.json": "cff1a599fdd6279f",
    "convert bell5.json --to finitary": "38dac8be5b64a860",
    "convert bell5.json --to qmc": "8dec2c54aa9a1918",
    "convert bell5.json --to qpm": "1a501c353c92d9d4",
    "simulate bell5.json --length 4 --count 3 --seed 5": "81caefc5a40c9113",
    "stationary bell5.json": "1885ef71f019e4ba",
    "stationary bell5.json --method spectral": "1885ef71f019e4ba",
    "bell bell5.json": "a9680529b2ec58c8",
    "hidden-path bell5.json --word ab": "8519e09915185d20",
    "validate coin_finitary.json": "51102bc03c5f198c",
    "eval coin_finitary.json --word ab": "700f6eb7317bb518",
    "rank coin_finitary.json": "2fea1887951bf726",
    "convert coin_finitary.json --to finitary": "a8c04c4f94fc0bb3",
    "convert coin_finitary.json --to qmc": "e8001b0d4a0e98aa",
    "convert coin_finitary.json --to qpm": "874a239182fa7746",
    "simulate coin_finitary.json --length 4 --count 3 --seed 5": "a640f00701680c20",
    "stationary coin_finitary.json": "6b10fdcd25b0f178",
    "stationary coin_finitary.json --method spectral": "23adf5e2d42ec717",
    "bell coin_finitary.json": "b057cbfd118acd0a",
    "hidden-path coin_finitary.json --word ab": "d87d08c1b47af4ea",
    "validate feynman4.json": "f5f10ded17b11097",
    "eval feynman4.json --word ab": "5d8b2899f2dfce0d",
    "rank feynman4.json": "cff1a599fdd6279f",
    "convert feynman4.json --to finitary": "38dac8be5b64a860",
    "convert feynman4.json --to qmc": "8dec2c54aa9a1918",
    "convert feynman4.json --to qpm": "1a501c353c92d9d4",
    "simulate feynman4.json --length 4 --count 3 --seed 5": "81caefc5a40c9113",
    "stationary feynman4.json": "1885ef71f019e4ba",
    "stationary feynman4.json --method spectral": "1885ef71f019e4ba",
    "bell feynman4.json": "9d3cf67cf98c2329",
    "hidden-path feynman4.json --word ab": "8519e09915185d20",
    "validate hmm2.json": "56f338caf58faec7",
    "eval hmm2.json --word ab": "fcd0731060ef030c",
    "rank hmm2.json": "781fa39dafee1225",
    "convert hmm2.json --to finitary": "99e01462474ae82a",
    "convert hmm2.json --to qmc": "4088834970abb851",
    "convert hmm2.json --to qpm": "9a9a86092a827520",
    "simulate hmm2.json --length 4 --count 3 --seed 5": "72072ecd5766b8d9",
    "stationary hmm2.json": "5cd5f0dc51d8d5f8",
    "stationary hmm2.json --method spectral": "5ab2425c3c3dedf3",
    "bell hmm2.json": "b057cbfd118acd0a",
    "hidden-path hmm2.json --word ab": "6f05d1605ff2d5b2",
    "validate hmm3_rank3.json": "56f338caf58faec7",
    "eval hmm3_rank3.json --word ab": "3d7571915748c7c3",
    "rank hmm3_rank3.json": "48ea3154b81fa974",
    "convert hmm3_rank3.json --to finitary": "b5e86d43de751047",
    "convert hmm3_rank3.json --to qmc": "8e210749f0d50842",
    "convert hmm3_rank3.json --to qpm": "5f78161f2bc158bb",
    "simulate hmm3_rank3.json --length 4 --count 3 --seed 5": "3009f50a2b389fc6",
    "stationary hmm3_rank3.json": "7fd6f2553f991582",
    "stationary hmm3_rank3.json --method spectral": "7f0a5d08136c3b7f",
    "bell hmm3_rank3.json": "b057cbfd118acd0a",
    "hidden-path hmm3_rank3.json --word ab": "959a0a413b95093c",
    "validate qrw_hadamard.json": "abe8c27eb65db77d",
    "eval qrw_hadamard.json --word ab": "8a9591ac4bcde721",
    "rank qrw_hadamard.json": "d3a0113b338c89c7",
    "convert qrw_hadamard.json --to finitary": "679b75a1e5aa1c0f",
    "convert qrw_hadamard.json --to qmc": "3a0fe32ec1fd3d32",
    "convert qrw_hadamard.json --to qpm": "0e846feed42d778a",
    "simulate qrw_hadamard.json --length 4 --count 3 --seed 5": "54bb65ac74467ef2",
    "stationary qrw_hadamard.json": "637eda680555ad22",
    "stationary qrw_hadamard.json --method spectral": "d0488104d295faa0",
    "bell qrw_hadamard.json": "b057cbfd118acd0a",
    "hidden-path qrw_hadamard.json --word ab": "baefc94302fba768",
    "validate swap_ffmc.json": "53514d72d4b3df07",
    "eval swap_ffmc.json --word ab": "5a87d0719be3ce1e",
    "rank swap_ffmc.json": "781fa39dafee1225",
    "convert swap_ffmc.json --to finitary": "5b3ed98cf46e37dd",
    "convert swap_ffmc.json --to qmc": "6c811170b1cd2035",
    "convert swap_ffmc.json --to qpm": "d4748203c7ed545f",
    "simulate swap_ffmc.json --length 4 --count 3 --seed 5": "3e9325d5681dc27b",
    "stationary swap_ffmc.json": "a0fce079301f7f7c",
    "stationary swap_ffmc.json --method spectral": "b02a7e1864fb09b9",
    "bell swap_ffmc.json": "b057cbfd118acd0a",
    "hidden-path swap_ffmc.json --word ab": "9e9052e890f1c5e2",
    "validate swap_qmc.json": "fdb36cbd1ff5483d",
    "eval swap_qmc.json --word aa": "f19dc2aaafe3cc81",
    "rank swap_qmc.json": "e283b41427f76760",
    "convert swap_qmc.json --to finitary": "78361b8bdfb63f42",
    "convert swap_qmc.json --to qmc": "e6e64287e2e86671",
    "convert swap_qmc.json --to qpm": "38ec38889c7a0a45",
    "simulate swap_qmc.json --length 4 --count 3 --seed 5": "17ef097df69467d8",
    "stationary swap_qmc.json": "f132615010902d42",
    "stationary swap_qmc.json --method spectral": "3f51b63da80eb90a",
    "bell swap_qmc.json": "b057cbfd118acd0a",
    "hidden-path swap_qmc.json --word aa": "aa5bca12c1d7554f",
    "validate unbounded_qpm.json": "a71985a6ed4edf31",
    "eval unbounded_qpm.json --word aa": "a60781cc299ff21c",
    "rank unbounded_qpm.json": "e283b41427f76760",
    "convert unbounded_qpm.json --to finitary": "b04f5d98a5b8206d",
    "convert unbounded_qpm.json --to qmc": "9df1ba5453bbffd8",
    "convert unbounded_qpm.json --to qpm": "9b50f7ecb36bb261",
    "simulate unbounded_qpm.json --length 4 --count 3 --seed 5": "17ef097df69467d8",
    "stationary unbounded_qpm.json": "eef2a8e86a679afc",
    "stationary unbounded_qpm.json --method spectral": "eef2a8e86a679afc",
    "bell unbounded_qpm.json": "b057cbfd118acd0a",
    "hidden-path unbounded_qpm.json --word aa": "7256cdd0665da0d0",
    "equiv bad_hmm_rowsum.json bell5.json": "badbf6958291854d",
    "equiv bad_hmm_rowsum.json coin_finitary.json": "badbf6958291854d",
    "equiv bad_hmm_rowsum.json feynman4.json": "badbf6958291854d",
    "equiv bad_hmm_rowsum.json hmm2.json": "badbf6958291854d",
    "equiv bad_hmm_rowsum.json hmm3_rank3.json": "badbf6958291854d",
    "equiv bad_hmm_rowsum.json qrw_hadamard.json": "badbf6958291854d",
    "equiv bad_hmm_rowsum.json swap_ffmc.json": "badbf6958291854d",
    "equiv bad_hmm_rowsum.json swap_qmc.json": "badbf6958291854d",
    "equiv bad_hmm_rowsum.json unbounded_qpm.json": "badbf6958291854d",
    "equiv bell5.json coin_finitary.json": "7ba4e6b40ba69943",
    "equiv bell5.json feynman4.json": "7ba4e6b40ba69943",
    "equiv bell5.json hmm2.json": "7ba4e6b40ba69943",
    "equiv bell5.json hmm3_rank3.json": "7ba4e6b40ba69943",
    "equiv bell5.json qrw_hadamard.json": "7ba4e6b40ba69943",
    "equiv bell5.json swap_ffmc.json": "7ba4e6b40ba69943",
    "equiv bell5.json swap_qmc.json": "7ba4e6b40ba69943",
    "equiv bell5.json unbounded_qpm.json": "7ba4e6b40ba69943",
    "equiv coin_finitary.json feynman4.json": "7ba4e6b40ba69943",
    "equiv coin_finitary.json hmm2.json": "90fac9e30d413a15",
    "equiv coin_finitary.json hmm3_rank3.json": "d1e1d2727ef55fd8",
    "equiv coin_finitary.json qrw_hadamard.json": "dc91dc0e36ef6844",
    "equiv coin_finitary.json swap_ffmc.json": "90fac9e30d413a15",
    "equiv coin_finitary.json swap_qmc.json": "c4286fffbb14a0e9",
    "equiv coin_finitary.json unbounded_qpm.json": "c4286fffbb14a0e9",
    "equiv feynman4.json hmm2.json": "7ba4e6b40ba69943",
    "equiv feynman4.json hmm3_rank3.json": "7ba4e6b40ba69943",
    "equiv feynman4.json qrw_hadamard.json": "7ba4e6b40ba69943",
    "equiv feynman4.json swap_ffmc.json": "7ba4e6b40ba69943",
    "equiv feynman4.json swap_qmc.json": "7ba4e6b40ba69943",
    "equiv feynman4.json unbounded_qpm.json": "7ba4e6b40ba69943",
    "equiv hmm2.json hmm3_rank3.json": "15fb0d1bb9ded083",
    "equiv hmm2.json qrw_hadamard.json": "d496ba7fa6030084",
    "equiv hmm2.json swap_ffmc.json": "d1e1d2727ef55fd8",
    "equiv hmm2.json swap_qmc.json": "c4286fffbb14a0e9",
    "equiv hmm2.json unbounded_qpm.json": "c4286fffbb14a0e9",
    "equiv hmm3_rank3.json qrw_hadamard.json": "f79af28ccfe4bdd6",
    "equiv hmm3_rank3.json swap_ffmc.json": "15fb0d1bb9ded083",
    "equiv hmm3_rank3.json swap_qmc.json": "c4286fffbb14a0e9",
    "equiv hmm3_rank3.json unbounded_qpm.json": "c4286fffbb14a0e9",
    "equiv qrw_hadamard.json swap_ffmc.json": "d496ba7fa6030084",
    "equiv qrw_hadamard.json swap_qmc.json": "c4286fffbb14a0e9",
    "equiv qrw_hadamard.json unbounded_qpm.json": "c4286fffbb14a0e9",
    "equiv swap_ffmc.json swap_qmc.json": "c4286fffbb14a0e9",
    "equiv swap_ffmc.json unbounded_qpm.json": "c4286fffbb14a0e9",
    "equiv swap_qmc.json unbounded_qpm.json": "9ee29d8c0a6ebe2f",
}


def per_element_walk_chain(qrw) -> qk.QuantumChain:
    """A walk's chain built one basis element at a time, so its bits do not
    depend on the closed-form Kraus coordinates."""
    sub = qk.OperatorSubspace.full(qrw.dim)
    ops = {
        node: qk.SuperOperator.from_action(sub, lambda q, m=kraus: m @ q @ m.conj().T)
        for node, kraus in zip(qrw.nodes, walk_kraus(qrw))
    }
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


def _report_digest(args) -> str:
    """SHA-256 of the exit code and the report, less its timing and the input paths.

    ``simulate`` without ``--out`` prints words, not a report; their text is hashed.
    """
    return _digest(*_run(args))


def _digest(code, text) -> str:
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:16]
    del report["wall_time_s"], report["inputs"]
    return hashlib.sha256(canonical_json([code, report]).encode()).hexdigest()[:16]


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
                "malformed payload: could not convert string to float: 'x'",
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
                "malformed payload: float() argument must be a string or a real number, "
                "not 'NoneType'",
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
                "matrix contains non-finite entries",
            ),
            ("chain", "ambient_dim", None, "malformed payload: basis[0] must be 3x3"),
        ],
    )
    def test_malformed_complex_payload_messages(
        self, tmp_path, qrw_hadamard, name, target, edit, message
    ):
        # the messages of the per-entry parser that the array parse falls back to
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
            assert model.subspace.stack.tobytes() == expected.tobytes()
            for symbol, matrix in payload["operators"].items():
                assert model.letter_ops[symbol].matrix.tobytes() == np.array(matrix).tobytes()
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
        from qpmkit.chain import ChainKind, OperatorSubspace, QuantumChain, SuperOperator

        sub = OperatorSubspace.diagonal(2)
        ops = {
            "a": SuperOperator(sub, np.array([[0.8, 0.15], [0.65, 0.65]])),
            "b": SuperOperator(sub, np.array([[0.05, 0.0], [-0.15, -0.15]])),
        }
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
        reduction = qk.SuperOperator.from_action(sub, lambda q: np.trace(q) * np.eye(2) - q)
        not_cp = tmp_path / "reduction_qmc.json"
        save_model(
            qk.QuantumChain(
                qk.Alphabet(("a",)),
                sub,
                {"a": reduction},
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

    def test_numeric_failure_exits_two(self):
        code, report = _run_json(["stationary", str(FIXTURES / "unbounded_qpm.json")])
        assert code == 2
        assert any("DivergenceError" in f for f in report["findings"])

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

    def test_rank_of_a_walk_with_36_declared_dimensions_is_quick(self, tmp_path):
        path = tmp_path / "walk3x2.json"
        save_model(random_local_qrw(np.random.default_rng(36), 3, 2), path)
        assert qk.qrw_process(load_model(path)).linear.dim == 36
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

    def test_rank_and_qpm_output_is_pinned(self):
        # recorded before the Hankel analysis moved from the N×N matrix to its factors
        digests = {}
        for name in RANKABLE_FIXTURES:
            path = str(FIXTURES / f"{name}.json")
            digests[f"rank {name}"] = _report_digest(["rank", path])
            digests[f"rank {name} 3x3"] = _report_digest(["rank", path, "--rows", "3", "--cols", "3"])
        for name in ("coin_finitary", "hmm2", "hmm3_rank3", "swap_ffmc"):
            path = str(FIXTURES / f"{name}.json")
            digests[f"qpm {name}"] = _report_digest(["convert", path, "--to", "qpm"])
        assert digests == PINNED_CLI_DIGESTS

    def test_every_command_report_is_pinned(self):
        # every command on every fixture, refusals included, recorded before the
        # per-class dispatch in cli and io became tables keyed by schema kind;
        # refusals re-pinned when failed reports gained their tolerances, and
        # stationary reports when both Cesàro routes moved to the orbit's
        # Krylov space (each moved value is listed in CHANGES.md)
        digests = {}
        for name in MATRIX_FIXTURES:
            path = str(FIXTURES / name)
            alphabet = json.loads((FIXTURES / name).read_text())["alphabet"] or ["a", "b"]
            word = "".join((alphabet * 2)[:2])
            for args in (
                ["validate"],
                ["eval", "--word", word],
                ["rank"],
                ["convert", "--to", "finitary"],
                ["convert", "--to", "qmc"],
                ["convert", "--to", "qpm"],
                ["simulate", "--length", "4", "--count", "3", "--seed", "5"],
                ["stationary"],
                ["stationary", "--method", "spectral"],
                ["bell"],
                ["hidden-path", "--word", word],
            ):
                digests[" ".join([args[0], name] + args[1:])] = _report_digest(
                    [args[0], path] + args[1:]
                )
        for i, first in enumerate(MATRIX_FIXTURES):
            for second in MATRIX_FIXTURES[i + 1 :]:
                digests[f"equiv {first} {second}"] = _report_digest(
                    ["equiv", str(FIXTURES / first), str(FIXTURES / second)]
                )
        assert digests == PINNED_MATRIX_DIGESTS

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

    def test_equiv_of_a_walk_with_itself_is_fast(self):
        # declared dimensions 16 + 16: comparing every word up to length 32 is out of reach
        path = str(FIXTURES / "qrw_hadamard.json")
        started = time.perf_counter()
        code, report = _run_json(["equiv", path, path])
        assert time.perf_counter() - started < 5.0
        assert code == 0
        assert report["results"]["equivalent"] is True
        assert report["results"]["horizon"] == 32

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
        code, report = _run_json(
            ["stationary", str(FIXTURES / "qrw_hadamard.json"), "--method", method]
        )
        assert code == 0
        results = report["results"]
        assert results["krylov_dim"] == (3 if method == "spectral" else None)
        assert 0.0 <= results["invariance_residual"] <= 1e-12

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
        assert _digest(code, text) == PINNED_CLI_DIGESTS["rank hmm3_rank3"]

    def test_a_usage_error_does_not_outlive_its_call(self, monkeypatch):
        monkeypatch.delenv("QPMKIT_CONFIG", raising=False)
        path = str(FIXTURES / "hmm2.json")
        assert _run(["eval", path])[0] == 64
        code, text = _run(["eval", path, "--word", "ab"])
        assert code == 0
        assert _digest(code, text) == PINNED_MATRIX_DIGESTS["eval hmm2.json --word ab"]

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
