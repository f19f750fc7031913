import io
import json
import time

import numpy as np
import pytest

import qpmkit as qk
from qpmkit import cli
from qpmkit.cli import run_command
from qpmkit.errors import SchemaError
from qpmkit.io import (
    DensityFile,
    InfoFunctionsFile,
    canonical_json,
    load_model,
    load_model_report,
    save_model,
)

from conftest import FIXTURES

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


def _run(args):
    buffer = io.StringIO()
    code = run_command(args, buffer)
    return code, buffer.getvalue()


def _run_json(args):
    code, text = _run(args)
    return code, json.loads(text)


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

    def test_validate_bad_file_exits_one(self):
        code, report = _run_json(["validate", str(FIXTURES / "bad_hmm_rowsum.json")])
        assert code == 1
        assert report["results"]["valid"] is False
        assert any("row 0" in f for f in report["findings"])

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

    def test_help_exits_zero(self):
        code, text = _run(["--help"])
        assert code == 0
        assert "commands" in text
