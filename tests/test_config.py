"""One Config from load to result.

Every public check takes its tolerances as one keyword-only ``config``
and reads the field named for it.  The CLI builds the run's config once
and hands it whole to the loader and to every library call, so a command
run under a ``--tol-*`` flag (or ``QPMKIT_CONFIG``) reports what the
library gives under ``DEFAULTS.replace(field=value)``, and a loaded chain
evaluates under the ``recon_tol`` that loaded it.
"""

import dataclasses
import inspect
import io
import json

import numpy as np
import pytest

import qpmkit as qk
from qpmkit.chain import ChainKind, OperatorSubspace, QuantumChain
from qpmkit import cli
from qpmkit.cli import run_command
from qpmkit.errors import SubspaceError
from qpmkit.io import canonical_json, load_model, model_to_dict

from conftest import FIXTURES
from helpers import leaky_hmm

# ---------------------------------------------------------------------------
# Signature guard.
# ---------------------------------------------------------------------------

# The parameters that keep a tolerance of their own, each with the literal
# (or the shared per-n value) that a caller passes it in place of a config field.
PRIMITIVES = {
    ("is_hermitian", "tol"): "a predicate on one matrix; hermitian_defect(m) <= 1e-12, say",
    ("require_hermitian", "tol"): "cesaro_limit's tol=1e-8; HiddenStateBasis's _PROJECTOR_TOL",
    ("spectral_decompose", "hermitian_tol"): "HiddenStateBasis.from_density, on a built Density",
    ("is_nonnegative", "tol"): "a predicate on one matrix; is_nonnegative(q, tol=1e-9)",
    ("is_unitary", "tol"): "validate_qrw passes config.unitary_tol; unitary_to_qmc the default",
    ("pure_state_density", "tol"): "a constructor on one vector, like Density.quantum",
    ("Density.quantum", "trace_tol"): "cesaro_limit's trace_tol=1e-8",
    ("Density.quantum", "psd_tol"): "cesaro_limit's psd_tol=1e-8",
    ("Density.quantum", "hermitian_tol"): "the loader's config.hermitian_tol",
    ("Density.generalized", "trace_tol"): "finitary_to_qpm's max(residual_tol, 1e-8)",
    ("Density.generalized", "hermitian_tol"): "the loader's config.hermitian_tol",
    ("OperatorSubspace.__init__", "hermitian_tol"): "OperatorSubspace.full(n), shared per n",
    ("OperatorSubspace.expand", "tol"): "_positivity_sampling's expand(np.eye(n), 1e-10)",
    ("OperatorSubspace.expand_all", "tol"): "kraus_coords on OperatorSubspace.full(n)",
}

# The functions that took tolerances of their own before taking a config.
CONFIGURED = (
    "validate_chain validate_hmm validate_qrw hmm_to_qmc hmm_to_finitary qrw_to_qmc "
    "povm_to_qmc finitary_to_qpm qrw_eval qrw_process qrw_step sample_trajectory "
    "sample_trajectories numerical_rank select_row_basis distinguishing_word "
    "processes_equivalent check_process_axioms cesaro_limit viterbi_hidden_path bell_check "
    "joint_observability induced_distribution is_standard_form standardize"
).split()

_FIELD_VALUES = {
    value
    for value in dataclasses.astuple(qk.DEFAULTS)
    if isinstance(value, (int, float)) and not isinstance(value, bool)
}


def _exported_signatures():
    """(name, signature) of each function in ``qpmkit.__all__`` and each method of its classes."""
    for name in qk.__all__:
        obj = getattr(qk, name)
        if obj is qk.Config:  # the fields themselves
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr != "__init__" and attr.startswith("_"):
                    continue
                function = getattr(member, "__func__", member)
                if inspect.isfunction(function):
                    yield f"{name}.{attr}", inspect.signature(function)
        elif inspect.isfunction(obj):
            yield name, inspect.signature(obj)


def _defaults_a_field(parameter: inspect.Parameter) -> bool:
    default = parameter.default
    if isinstance(default, bool) or not isinstance(default, (int, float)):
        return False
    return default in _FIELD_VALUES


class TestSignatureGuard:
    def test_no_exported_callable_defaults_a_parameter_to_a_config_field(self):
        found = {
            (qualified, parameter.name)
            for qualified, signature in _exported_signatures()
            for parameter in signature.parameters.values()
            if _defaults_a_field(parameter)
        }
        assert found == set(PRIMITIVES)

    def test_every_config_parameter_is_keyword_only_and_defaults_to_DEFAULTS(self):
        signatures = dict(_exported_signatures())
        for name in CONFIGURED:
            parameter = signatures[name].parameters["config"]
            assert parameter.kind is inspect.Parameter.KEYWORD_ONLY, name
        for qualified, signature in signatures.items():
            parameter = signature.parameters.get("config")
            if parameter is not None:
                assert parameter.default is qk.DEFAULTS, qualified

    def test_all_names_every_public_name_and_no_module(self):
        public = {name for name in dir(qk) if not name.startswith("_")}
        modules = {name for name in public if inspect.ismodule(getattr(qk, name))}
        assert set(qk.__all__) == public - modules
        assert "DEFAULTS" in qk.__all__ and "validate_chain" in qk.__all__


# ---------------------------------------------------------------------------
# The CLI and the library agree under a non-default config.
# ---------------------------------------------------------------------------


def _cli(argv, monkeypatch, environ=None):
    """(exit code, results) of one in-process run; a failed run's results are its findings."""
    if environ is None:
        monkeypatch.delenv("QPMKIT_CONFIG", raising=False)
    else:
        monkeypatch.setenv("QPMKIT_CONFIG", environ)
    buffer = io.StringIO()
    code = run_command([str(a) for a in argv], buffer)
    text = buffer.getvalue()
    if not text.startswith("{"):  # simulate prints its words
        return code, {"words": text.splitlines()}
    report = json.loads(text)
    return code, report["results"] if code == 0 else report["findings"]


def _library(expected, config):
    """(0, results) of the library's computation, or (nonzero, findings) as the CLI reports them."""
    try:
        return 0, json.loads(qk.canonical_json(expected(config)))
    except qk.QpmkitError as exc:
        return 1, [f"{type(exc).__name__}: {exc}"]


def _hmm(emission=((0.9, 0.1), (0.2, 0.8)), transition=((0.7, 0.3), (0.4, 0.6))):
    return qk.HmmParam(("s0", "s1"), qk.Alphabet(("a", "b")), emission, (0.6, 0.4), transition)


def _hmm_chain(initial):
    """hmm2's chain, started from ``initial`` (admitted with psd_tol 1e-6)."""
    hmm, sub = _hmm(), OperatorSubspace.diagonal(2)
    density = qk.Density.quantum(np.asarray(initial, dtype=complex), psd_tol=1e-6)
    return QuantumChain(hmm.alphabet, sub, qk.hmm_to_qmc(hmm).operators, density, ChainKind.QMC)


def _off_chain():
    """hmm2's chain with its initial density 1.4e-6 off the diagonal subspace, not yet validated."""
    return _hmm_chain(np.diag([0.6, 0.4]) + 1e-6 * np.array([[0.0, 1.0], [1.0, 0.0]]))


def _predictor(up: float):
    """A one-dimensional predictor model with p(up) = ``up``, p(down) = 1 - ``up``."""
    density = qk.Density.generalized(np.eye(1, dtype=complex))
    ops = np.array([[[up]], [[1.0 - up]]])
    return QuantumChain(
        qk.Alphabet(("up", "down")), OperatorSubspace.diagonal(1), ops, density, ChainKind.QPM
    )


def _walk(scale_wave=1.0, scale_unitary=1.0):
    walk = load_model(FIXTURES / "qrw_hadamard.json")
    return qk.QrwParam(
        walk.nodes, walk.edges, walk.coins, walk.unitary * scale_unitary, walk.wave * scale_wave
    )


def _bell_density(off_diagonal):
    bundle = load_model(FIXTURES / "bell5.json")
    matrix = bundle.density.matrix.copy()
    matrix[0, 1] += off_diagonal
    return bundle, matrix


def _validate_results(kind, report):
    results = {"kind": kind, "valid": report.ok}
    if kind in ("qmc", "qpm") and report.ok:
        results["evidence"] = list(report.evidence)
        if report.horizon is not None:
            results["horizon"] = report.horizon
    return results


def _rank_results(hmm, config):
    hankel = qk.build_hankel(qk.hmm_process(hmm), 3, 3)
    return {
        "numerical_rank": qk.numerical_rank(hankel, config=config),
        "row_basis": [qk.format_word(w) for w in qk.select_row_basis(hankel, config=config)],
    }


def _qpm_convert(hmm, config):
    chain = qk.finitary_to_qpm(qk.hmm_to_finitary(hmm, config=config), config=config)
    return {"kind": "qpm", "model": model_to_dict(chain)}


def _eval_hmm(hmm, word, config):
    qk.validate_hmm(hmm, config=config).raise_if_invalid("invalid hidden Markov model")
    return {"word": word, "value": qk.hmm_eval(hmm, word)}


def _off_eval(config):
    chain = _off_chain()
    qk.validate_chain(chain, config=config).raise_if_invalid("invalid chain")
    return {"word": "ab", "value": qk.chain_eval(chain, "ab")}


def _words(words):
    return [qk.format_word(w) for w in words]


def _stationary(chain, config):
    result = qk.cesaro_limit(chain, config=config)
    return {"stationarity_residual": float(result.stationarity_residual)}


HMM3 = load_model(FIXTURES / "hmm3_rank3.json")
NEAR_HMM2 = _hmm(transition=((0.7 + 1e-6, 0.3 - 1e-6), (0.4, 0.6)))
OFF_ROW_HMM = _hmm(emission=((0.9 + 1e-6, 0.1), (0.2, 0.8)))
CLAMPED_HMM = _hmm(emission=((1.0 + 1e-10, -1e-10), (0.2, 0.8)))
LEAKY_HMM = leaky_hmm()
OFF_FFMC = qk.FfmcParam(("s0", "s1"), {"s0": "a", "s1": "b"}, (1.0, 0.0), ((1e-6, 1.0), (1.0, 0.0)))
OFF_FINITARY = qk.FinitaryParam(
    qk.Alphabet(("a", "b")), [[[0.5]], [[0.5]]], [1.0], [1.0 + 1e-6], standard_form=True
)
LONG_WALK = _walk(scale_wave=1.0 + 1e-6)
SCALED_WALK = _walk(scale_unitary=1.0 + 1e-7)
NEGATIVE_CHAIN = _hmm_chain(np.diag([1.0 + 1e-7, -1e-7]))
HMM2_CHAIN = _hmm_chain(np.diag([0.6, 0.4]))
NEAR_PREDICTOR = _predictor(1.0 + 1e-7)
BELL, SKEW_BELL = _bell_density(0.0), _bell_density(1e-7)


def _bell(density_of, config):
    bundle, matrix = density_of
    density = qk.Density.generalized(matrix, config.trace_tol, config.hermitian_tol)
    basis = qk.HiddenStateBasis.standard(density.dim, bundle.labels)
    x, y, z = (bundle.functions[name] for name in "XYZ")
    check = qk.bell_check(density, basis, x, y, z, config=config)
    return {
        "jointly_observable": check.jointly_observable,
        "pair_observable": check.pair_observable,
        "satisfied": check.satisfied,
    }


def _write_bell(density_of, path):
    bundle, matrix = density_of
    data = json.loads((FIXTURES / "bell5.json").read_text())
    data["payload"]["matrix"] = np.stack([matrix.real, matrix.imag], axis=-1).tolist()
    path.write_text(json.dumps(data))


# One row per (model kind, Config field): the model written to the input
# file, the command's argv after the file, the field and its value, and
# the library's results under DEFAULTS.replace(field=value).  Each value
# changes what the command reports at the defaults.
AGREEMENT = {
    "hmm rank_eps": (HMM3, ["rank"], [], "rank_eps", 0.01, lambda c: _rank_results(HMM3, c)),
    "hmm equiv_tol": (
        _hmm(),
        ["equiv"],
        ["{other}"],
        "equiv_tol",
        1e-3,
        lambda c: {
            "equivalent": qk.processes_equivalent(
                qk.hmm_process(_hmm()), qk.hmm_process(NEAR_HMM2), config=c
            )
        },
    ),
    "hmm eval_tol": (
        OFF_ROW_HMM,
        ["validate"],
        [],
        "eval_tol",
        1e-5,
        lambda c: _validate_results("hmm", qk.validate_hmm(OFF_ROW_HMM, config=c)),
    ),
    "hmm clamp_tol": (
        CLAMPED_HMM,
        ["simulate"],
        ["--length", "6", "--count", "8"],
        "clamp_tol",
        1e-11,
        lambda c: {"words": _words(qk.sample_trajectories(CLAMPED_HMM, 6, 8, 0, config=c))},
    ),
    "hmm residual_tol": (
        HMM3,
        ["convert"],
        ["--to", "qpm"],
        "residual_tol",
        1e-20,
        lambda c: _qpm_convert(HMM3, c),
    ),
    "hmm preserve_tol": (
        LEAKY_HMM,
        ["convert"],
        ["--to", "qpm"],
        "preserve_tol",
        1e-9,
        lambda c: _qpm_convert(LEAKY_HMM, c),
    ),
    "ffmc eval_tol": (
        OFF_FFMC,
        ["eval"],
        ["--word", "ab"],
        "eval_tol",
        1e-5,
        lambda c: _eval_hmm(OFF_FFMC.to_hmm(), "ab", c),
    ),
    "finitary eval_tol": (
        OFF_FINITARY,
        ["validate"],
        [],
        "eval_tol",
        1e-5,
        lambda c: {"kind": "finitary", "valid": bool(qk.is_standard_form(OFF_FINITARY, config=c))},
    ),
    "qrw trace_tol": (
        LONG_WALK,
        ["eval"],
        ["--word", "ab"],
        "trace_tol",
        1e-5,
        lambda c: {"word": "ab", "value": qk.qrw_eval(LONG_WALK, "ab", config=c)},
    ),
    "qrw unitary_tol": (
        SCALED_WALK,
        ["convert"],
        ["--to", "qmc"],
        "unitary_tol",
        1e-5,
        lambda c: {"kind": "qmc", "model": model_to_dict(qk.qrw_to_qmc(SCALED_WALK, config=c))},
    ),
    "qmc recon_tol": (_off_chain(), ["eval"], ["--word", "ab"], "recon_tol", 1e-5, _off_eval),
    "qmc psd_tol": (
        NEGATIVE_CHAIN,
        ["validate"],
        [],
        "psd_tol",
        1e-6,
        lambda c: _validate_results("qmc", qk.validate_chain(NEGATIVE_CHAIN, config=c)),
    ),
    "qmc stationarity_tol": (
        HMM2_CHAIN,
        ["stationary"],
        [],
        "stationarity_tol",
        1e-17,
        lambda c: _stationary(HMM2_CHAIN, c),
    ),
    "qpm qpm_horizon": (
        NEAR_PREDICTOR,
        ["validate"],
        [],
        "qpm_horizon",
        0,
        lambda c: _validate_results("qpm", qk.validate_chain(NEAR_PREDICTOR, config=c)),
    ),
    "qpm eval_tol": (
        NEAR_PREDICTOR,
        ["validate"],
        [],
        "eval_tol",
        1e-5,
        lambda c: _validate_results("qpm", qk.validate_chain(NEAR_PREDICTOR, config=c)),
    ),
    "density hermitian_tol": (
        SKEW_BELL,
        ["bell"],
        [],
        "hermitian_tol",
        1e-6,
        lambda c: _bell(SKEW_BELL, c),
    ),
    "density eval_tol": (BELL, ["bell"], [], "eval_tol", 0.5, lambda c: _bell(BELL, c)),
}

_FLAGS = {field: flag for flag, field in cli._CONFIG_FLAGS.items()}


def _write(model, path):
    if isinstance(model, tuple):  # a bell density with its bundle
        _write_bell(model, path)
    else:
        qk.save_model(model, path)


def _subset(results, expected):
    """The command's results on the keys the library computed (all of a failure's findings)."""
    if isinstance(results, dict) and isinstance(expected, dict):
        return {key: results.get(key) for key in expected}
    return results


class TestCliAgreesWithLibrary:
    def test_table_covers_every_config_field_and_model_kind(self):
        fields = {row[3] for row in AGREEMENT.values()}
        kinds = {name.split()[0] for name in AGREEMENT}
        assert fields == {f.name for f in dataclasses.fields(qk.Config)}
        assert kinds == {"hmm", "ffmc", "finitary", "qrw", "qmc", "qpm", "density"}
        assert set(_FLAGS) == fields - {"preserve_tol"}

    @pytest.mark.parametrize("case", list(AGREEMENT))
    def test_command_under_a_field_reports_the_library_result(self, case, tmp_path, monkeypatch):
        model, command, extra, field, value, expected = AGREEMENT[case]
        path, other = tmp_path / "model.json", tmp_path / "other.json"
        _write(model, path)
        qk.save_model(NEAR_HMM2, other)
        argv = command + [path] + [str(other) if a == "{other}" else a for a in extra]
        config = qk.DEFAULTS.replace(**{field: value})
        if field == "preserve_tol":  # no flag: set through QPMKIT_CONFIG
            settings = tmp_path / "config.json"
            settings.write_text(json.dumps({field: value}))
            ran = _cli(argv, monkeypatch, str(settings))
        else:
            ran = _cli(argv + [_FLAGS[field], str(value)], monkeypatch)
        want = _library(expected, config)
        got = (ran[0] == 0, _subset(ran[1], want[1]))
        assert got == (want[0] == 0, want[1])
        # the value matters: the defaults report something else
        at_defaults = _cli(argv, monkeypatch)
        assert (at_defaults[0] == 0, _subset(at_defaults[1], want[1])) != got


# ---------------------------------------------------------------------------
# A loaded chain evaluates under the recon_tol that loaded it.
# ---------------------------------------------------------------------------

COMMANDS = {
    "validate": [],
    "eval": ["--word", "abba"],
    "rank": [],
    "equiv": ["{self}"],
    "convert": ["--to", "finitary"],
    "simulate": ["--length", "5", "--count", "4"],
    "stationary": [],
    "hidden-path": ["--word", "abba"],
}


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory):
    """hmm2.json converted to qmc, and a copy with its initial density 1.4e-6 off the diagonal."""
    scratch = tmp_path_factory.mktemp("recon")
    base, off = scratch / "hmm2_qmc.json", scratch / "off_subspace.json"
    assert run_command(["convert", str(FIXTURES / "hmm2.json"), "--to", "qmc", "--out", str(base)],
                       io.StringIO()) == 0
    data = json.loads(base.read_text())
    data["payload"]["initial"][0][1][0] += 1e-6
    data["payload"]["initial"][1][0][0] += 1e-6
    off.write_text(json.dumps(data))
    return base, off


class TestLoadedChainKeepsItsRecon:
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_command_runs_under_the_loosened_recon_tol(
        self, command, chain_files, monkeypatch
    ):
        base, off = chain_files

        def run(path, *flags):
            extra = [str(path) if a == "{self}" else a for a in COMMANDS[command]]
            return _cli([command, path, *extra, *flags], monkeypatch)

        assert run(off, "--tol-recon", "1e-5") == run(base, "--tol-recon", "1e-5")
        assert run(off, "--tol-recon", "1e-5")[0] == 0

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_command_refuses_the_chain_at_the_defaults(
        self, command, chain_files, monkeypatch
    ):
        _, off = chain_files
        extra = [str(off) if a == "{self}" else a for a in COMMANDS[command]]
        code, findings = _cli([command, off, *extra], monkeypatch)
        assert code == 1
        assert findings == [
            "initial-membership at ('initial',): matrix lies outside the subspace "
            "(reconstruction error 1.414e-06)"
        ]

    def test_a_chain_built_in_code_expands_at_the_default(self):
        chain = _off_chain()
        with pytest.raises(SubspaceError, match="1.414e-06"):
            qk.chain_eval(chain, "ab")
        assert not qk.validate_chain(chain).ok
        with pytest.raises(SubspaceError):
            qk.chain_eval(chain, "ab")

    def test_a_validated_chain_keeps_the_coordinates_its_check_read(self):
        chain = _off_chain()
        assert qk.validate_chain(chain, config=qk.DEFAULTS.replace(recon_tol=1e-5)).ok
        assert np.array_equal(chain.initial_coords, [0.6, 0.4])
        assert not chain.initial_coords.flags.writeable
        relabelled = qk.as_qpm(chain)
        assert relabelled.initial_coords is chain.initial_coords
        assert qk.chain_eval(relabelled, "ab") == qk.chain_eval(HMM2_CHAIN, "ab")


# ---------------------------------------------------------------------------
# A tolerance is a finite number >= 0, from a flag or from QPMKIT_CONFIG.
# ---------------------------------------------------------------------------

HMM2 = str(FIXTURES / "hmm2.json")


class TestToleranceValues:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["equiv", HMM2, HMM2, "--tol", "-1"], "--tol"),
            (["validate", HMM2, "--tol-eval", "-1"], "--tol-eval"),
            (["stationary", HMM2, "--tol-stationarity", "-1"], "--tol-stationarity"),
            (["simulate", HMM2, "--length", "3", "--tol-clamp", "-0.5"], "--tol-clamp"),
            (["validate", HMM2, "--tol-clamp", "-1e-9"], "--tol-clamp"),  # not read as a flag
        ],
    )
    def test_a_negative_flag_is_a_usage_error(self, argv, flag, monkeypatch):
        monkeypatch.delenv("QPMKIT_CONFIG", raising=False)
        buffer = io.StringIO()
        assert run_command(argv, buffer) == 64
        text = buffer.getvalue()
        assert text.startswith(cli._USAGE)
        assert text.endswith(f"error: argument {flag}: not a non-negative number: '{argv[-1]}'\n")

    @pytest.mark.parametrize("value", ["0", "-0"])
    def test_a_zero_flag_runs(self, value, monkeypatch):
        assert _cli(["validate", HMM2, "--tol-eval", value], monkeypatch) == (
            0,
            {"kind": "hmm", "valid": True},
        )

    @pytest.mark.parametrize(
        "text, shown",
        [
            ('{"eval_tol": -1.0}', "-1.0"),
            ('{"eval_tol": "x"}', "'x'"),
            ('{"eval_tol": true}', "True"),
            ('{"rank_eps": -1}', "-1"),
            ('{"preserve_tol": null}', "None"),
            pytest.param(
                '{"eval_tol": 1%s}' % ("0" * 400),
                "an integer beyond the double range",
                id="integer beyond the double range",
            ),
        ],
    )
    def test_a_config_tolerance_that_is_not_a_number_at_least_zero_exits_two(
        self, text, shown, tmp_path, monkeypatch
    ):
        path = tmp_path / "conf.json"
        path.write_text(text)
        field = next(iter(json.loads(text)))
        message = f"ValueError: {field} must be a finite number >= 0, got {shown}"
        code, findings = _cli(["validate", HMM2], monkeypatch, str(path))
        assert (code, findings) == (2, [message])

    def test_a_zero_config_tolerance_runs(self, tmp_path, monkeypatch):
        path = tmp_path / "conf.json"
        path.write_text('{"eval_tol": 0, "rank_eps": 0.0}')
        assert qk.load_config({"QPMKIT_CONFIG": str(path)}) == qk.DEFAULTS.replace(
            eval_tol=0, rank_eps=0.0
        )
        assert _cli(["validate", HMM2], monkeypatch, str(path)) == (0, {"kind": "hmm", "valid": True})

    def test_an_integer_config_tolerance_reports_as_its_flag_does(self, tmp_path, monkeypatch):
        # a JSON integer is stored as a float, so the report's tolerances read
        # "eval_tol": 0.0 whichever source set it; qpm_horizon stays an integer
        path = tmp_path / "conf.json"
        path.write_text('{"eval_tol": 0, "qpm_horizon": 4}')
        blocks = []
        for environ, flags in ((str(path), []), (None, ["--tol-eval", "0", "--qpm-horizon", "4"])):
            if environ is None:
                monkeypatch.delenv("QPMKIT_CONFIG", raising=False)
            else:
                monkeypatch.setenv("QPMKIT_CONFIG", environ)
            buffer = io.StringIO()
            assert run_command(["validate", HMM2, *flags], buffer) == 0
            blocks.append(canonical_json(json.loads(buffer.getvalue())["tolerances"]))
        assert blocks[0] == blocks[1]
        assert '"eval_tol": 0.0' in blocks[0] and '"qpm_horizon": 4' in blocks[0]
        config = qk.load_config({"QPMKIT_CONFIG": str(path)})
        assert type(config.eval_tol) is float and type(config.qpm_horizon) is int
