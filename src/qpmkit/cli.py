"""Command line interface.

Every invocation prints one machine-readable JSON run report with stable
field names (``command``, ``inputs``, ``results``, ``tolerances``,
``findings``, ``wall_time_s``), except ``simulate`` without ``--out``,
which prints the sampled words one per line.  Exit codes: 0 success,
1 validation failure, 2 numeric or any other runtime failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import time

import numpy as np

from . import asymptotics, chain as chain_mod, hidden, models, process as process_mod
from .config import Config, load_config
from .errors import (
    AlphabetError,
    BasisInsufficiencyError,
    ConsistencyError,
    DegenerateSupportError,
    DimensionMismatchError,
    DivergenceError,
    NumericError,
    SamplingError,
    SchemaError,
    SubspaceError,
    UnsupportedChainError,
    UsageError,
    ValidationError,
)
from .io import (
    DensityFile,
    InfoFunctionsFile,
    canonical_json,
    load_model,
    load_model_report,
    model_to_dict,
    save_model,
)
from .models import FfmcParam, FinitaryParam, HmmParam, QrwParam
from .chain import QuantumChain

_VALIDATION_ERRORS = (
    SchemaError,
    ValidationError,
    DimensionMismatchError,
    AlphabetError,
    SubspaceError,
    UnsupportedChainError,
)
_NUMERIC_ERRORS = (
    NumericError,
    DivergenceError,
    ConsistencyError,
    SamplingError,
    BasisInsufficiencyError,
    DegenerateSupportError,
)

_USAGE = """usage: qpmkit <command> [options]

commands:
  validate <model>                          check a model file, list violations
  eval <model> --word W                     word probability under the model
  rank <model> [--rows L --cols L] [--csv F] truncated Hankel rank and row basis
  equiv <modelA> <modelB> [--tol T]         finitary process equivalence
  convert <model> --to {finitary,qmc,qpm} [--out F]
  simulate <model> --length N [--count K] [--seed S] [--out F]
  stationary <model> [--method {iterative,spectral}] [--csv F]
  bell <density+functions.json | density.json functions.json> [--x X --y Y --z Z]
  hidden-path <model> --word W              maximum-weight hidden-state path

Tolerances come from built-in defaults, then a JSON file named by the
QPMKIT_CONFIG environment variable, then --tol-* flags.
"""

_TOL_FLAGS = {
    "tol_hermitian": "hermitian_tol",
    "tol_psd": "psd_tol",
    "tol_trace": "trace_tol",
    "tol_recon": "recon_tol",
    "tol_unitary": "unitary_tol",
    "tol_eval": "eval_tol",
    "tol_rank": "rank_eps",
    "tol_equiv": "equiv_tol",
    "tol_residual": "residual_tol",
    "tol_clamp": "clamp_tol",
    "tol_cesaro": "cesaro_tol",
    "tol_stationarity": "stationarity_tol",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _base_parser(command: str) -> _Parser:
    parser = _Parser(prog=f"qpmkit {command}", add_help=True)
    for flag in _TOL_FLAGS:
        parser.add_argument(f"--{flag.replace('_', '-')}", type=float, default=None)
    parser.add_argument("--qpm-horizon", type=int, default=None)
    return parser


def _apply_flags(config: Config, args: argparse.Namespace) -> Config:
    overrides = {}
    for flag, field in _TOL_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "qpm_horizon", None) is not None:
        overrides["qpm_horizon"] = args.qpm_horizon
    return config.replace(**overrides) if overrides else config


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


def run_command(argv, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        out.write(_USAGE)
        return 0 if argv else 64
    command = argv[0]
    handler = _HANDLERS.get(command)
    if handler is None:
        out.write(_USAGE)
        return 64

    started = time.perf_counter()
    report = {
        "command": command,
        "inputs": {},
        "results": {},
        "tolerances": {},
        "findings": [],
        "wall_time_s": 0.0,
    }
    lines = None
    try:
        config = load_config()
        code, results, findings, lines = handler(argv[1:], config, report["inputs"])
        report["results"] = results
        report["findings"] = findings
        report["tolerances"] = dataclasses.asdict(config)
    except UsageError as exc:
        out.write(_USAGE)
        out.write(f"error: {exc}\n")
        return 64
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except _VALIDATION_ERRORS as exc:
        report["findings"] = _error_findings(exc)
        code = 1
    except _NUMERIC_ERRORS as exc:
        report["findings"] = [f"{type(exc).__name__}: {exc}"]
        code = 2
    except Exception as exc:  # e.g. LinAlgError or MemoryError from numpy: still one report
        report["findings"] = [f"{type(exc).__name__}: {exc}"]
        code = 2
    report["wall_time_s"] = round(time.perf_counter() - started, 6)
    if lines is not None:
        for line in lines:
            out.write(line + "\n")
    else:
        out.write(canonical_json(report))
    return code


def _error_findings(exc) -> list[str]:
    if isinstance(exc, SchemaError):
        return list(exc.violations)
    return [f"{type(exc).__name__}: {exc}"]


# --------------------------------------------------------------------------
# Model plumbing shared by the handlers.
# --------------------------------------------------------------------------


def _to_process(model, config: Config) -> process_mod.Process:
    if isinstance(model, HmmParam):
        return models.hmm_process(model)
    if isinstance(model, FfmcParam):
        return models.hmm_process(model.to_hmm())
    if isinstance(model, FinitaryParam):
        return models.finitary_process(model)
    if isinstance(model, QrwParam):
        return models.qrw_process(model)
    if isinstance(model, QuantumChain):
        return chain_mod.chain_process(model)
    raise ValidationError(f"{type(model).__name__} does not define a process")


def _to_chain(model, config: Config) -> QuantumChain:
    if isinstance(model, HmmParam):
        return chain_mod.hmm_to_qmc(model, config.eval_tol)
    if isinstance(model, FfmcParam):
        return chain_mod.hmm_to_qmc(model.to_hmm(), config.eval_tol)
    if isinstance(model, QrwParam):
        return chain_mod.qrw_to_qmc(model)
    if isinstance(model, QuantumChain):
        return model
    if isinstance(model, FinitaryParam):
        return chain_mod.finitary_to_qpm(
            model, eps=config.rank_eps, residual_tol=config.residual_tol, eval_tol=config.eval_tol
        )
    raise ValidationError(f"{type(model).__name__} does not define a chain")


def _default_truncation(proc: process_mod.Process) -> int:
    """Declared dimension, reduced until the Hankel stays desk-sized."""
    declared = proc.dimension if proc.dimension is not None else 3
    depth = max(int(declared), 1)
    while depth > 1 and len(process_mod.words_up_to(proc.alphabet, depth)) > 130:
        depth -= 1
    return depth


def _number(value: float):
    return float(value)


def _json_value(value):
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return int(value)
    return value


def _distribution_pairs(distribution: dict) -> list:
    return [[_json_value(outcome), _number(p)] for outcome, p in distribution.items()]


# --------------------------------------------------------------------------
# Handlers.  Each returns (exit_code, results, findings, raw_lines_or_None).
# --------------------------------------------------------------------------


def _cmd_validate(argv, config, inputs):
    parser = _base_parser("validate")
    parser.add_argument("model")
    parser.add_argument("--horizon", type=int, default=None)
    args = parser.parse_args(argv)
    config = _apply_flags(config, args)
    if args.horizon is not None:
        config = config.replace(qpm_horizon=args.horizon)
    inputs["model"] = args.model
    model, kind, violations = load_model_report(args.model, config)
    results = {"kind": kind, "valid": not violations}
    if isinstance(model, QuantumChain):
        # chains carry positivity evidence beyond pass/fail
        report = chain_mod.validate_chain(
            model,
            horizon=config.qpm_horizon,
            trace_tol=config.trace_tol,
            psd_tol=config.psd_tol,
            eval_tol=config.eval_tol,
            preserve_tol=config.preserve_tol,
            recon_tol=config.recon_tol,
        )
        results["evidence"] = list(report.evidence)
        if report.horizon is not None:
            results["horizon"] = report.horizon
    return (0 if not violations else 1), results, violations, None


def _cmd_eval(argv, config, inputs):
    parser = _base_parser("eval")
    parser.add_argument("model")
    parser.add_argument("--word", required=True)
    args = parser.parse_args(argv)
    config = _apply_flags(config, args)
    inputs.update({"model": args.model, "word": args.word})
    model = load_model(args.model, config)
    proc = _to_process(model, config)
    word = process_mod.parse_word(args.word, proc.alphabet)
    value = proc(word)
    return 0, {"word": args.word, "value": _number(value)}, [], None


def _cmd_rank(argv, config, inputs):
    parser = _base_parser("rank")
    parser.add_argument("model")
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--cols", type=int, default=None)
    parser.add_argument("--csv", default=None)
    args = parser.parse_args(argv)
    config = _apply_flags(config, args)
    inputs.update({"model": args.model, "rows": args.rows, "cols": args.cols})
    model = load_model(args.model, config)
    proc = _to_process(model, config)
    rows = args.rows if args.rows is not None else _default_truncation(proc)
    cols = args.cols if args.cols is not None else _default_truncation(proc)
    hankel = process_mod.build_hankel(proc, rows, cols)
    rank = process_mod.numerical_rank(hankel, config.rank_eps)
    basis = process_mod.select_row_basis(hankel, config.rank_eps)
    if args.csv:
        hankel.to_csv(args.csv)
    results = {
        "rows": rows,
        "cols": cols,
        "numerical_rank": rank,
        "row_basis": [process_mod.format_word(w) for w in basis],
        "shape": list(hankel.matrix.shape),
    }
    return 0, results, [], None


def _cmd_equiv(argv, config, inputs):
    parser = _base_parser("equiv")
    parser.add_argument("model_a")
    parser.add_argument("model_b")
    parser.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    config = _apply_flags(config, args)
    tol = args.tol if args.tol is not None else config.equiv_tol
    inputs.update({"model_a": args.model_a, "model_b": args.model_b, "tol": tol})
    proc_a = _to_process(load_model(args.model_a, config), config)
    proc_b = _to_process(load_model(args.model_b, config), config)
    witness = process_mod.distinguishing_word(proc_a, proc_b, tol)
    results = {
        "equivalent": witness is None,
        "horizon": int(proc_a.dimension) + int(proc_b.dimension),
        "witness": None if witness is None else process_mod.format_word(witness),
    }
    return 0, results, [], None


def _cmd_convert(argv, config, inputs):
    parser = _base_parser("convert")
    parser.add_argument("model")
    parser.add_argument("--to", required=True, choices=["finitary", "qmc", "qpm"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    config = _apply_flags(config, args)
    inputs.update({"model": args.model, "to": args.to, "out": args.out})
    model = load_model(args.model, config)
    converted = _convert(model, args.to, config)
    results = {"kind": args.to}
    if args.out:
        save_model(converted, args.out)
        results["path"] = args.out
    else:
        results["model"] = model_to_dict(converted)
    return 0, results, [], None


def _convert(model, target: str, config: Config):
    if target == "finitary":
        if isinstance(model, FinitaryParam):
            return model
        if isinstance(model, HmmParam):
            return models.hmm_to_finitary(model, config.eval_tol)
        if isinstance(model, FfmcParam):
            return models.hmm_to_finitary(model.to_hmm(), config.eval_tol)
        if isinstance(model, QrwParam):
            return chain_mod.qpm_to_finitary(chain_mod.qrw_to_qmc(model))
        if isinstance(model, QuantumChain):
            return chain_mod.qpm_to_finitary(model)
    elif target == "qmc":
        if isinstance(model, HmmParam):
            return chain_mod.hmm_to_qmc(model, config.eval_tol)
        if isinstance(model, FfmcParam):
            return chain_mod.hmm_to_qmc(model.to_hmm(), config.eval_tol)
        if isinstance(model, QrwParam):
            return chain_mod.qrw_to_qmc(model)
        if isinstance(model, QuantumChain) and model.kind is chain_mod.ChainKind.QMC:
            return model
        raise ValidationError(
            f"cannot certify positivity when converting {type(model).__name__} to a Markov chain"
        )
    elif target == "qpm":
        if isinstance(model, FinitaryParam):
            return chain_mod.finitary_to_qpm(
                model,
                eps=config.rank_eps,
                residual_tol=config.residual_tol,
                eval_tol=config.eval_tol,
            )
        if isinstance(model, (HmmParam, FfmcParam)):
            hmm = model.to_hmm() if isinstance(model, FfmcParam) else model
            return chain_mod.finitary_to_qpm(
                models.hmm_to_finitary(hmm, config.eval_tol),
                eps=config.rank_eps,
                residual_tol=config.residual_tol,
                eval_tol=config.eval_tol,
            )
        if isinstance(model, QrwParam):
            return chain_mod.as_qpm(chain_mod.qrw_to_qmc(model))
        if isinstance(model, QuantumChain):
            return chain_mod.as_qpm(model)
    raise ValidationError(f"no conversion from {type(model).__name__} to {target}")


def _cmd_simulate(argv, config, inputs):
    parser = _base_parser("simulate")
    parser.add_argument("model")
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--count", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    config = _apply_flags(config, args)
    inputs.update(
        {"model": args.model, "length": args.length, "count": args.count, "seed": args.seed}
    )
    model = load_model(args.model, config)
    words = models.sample_trajectories(
        model, args.length, args.count, args.seed, config.clamp_tol
    )
    formatted = [process_mod.format_word(w) for w in words]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(formatted) + ("\n" if formatted else ""))
        return 0, {"count": len(formatted), "path": args.out}, [], None
    return 0, {"count": len(formatted)}, [], formatted


def _cmd_stationary(argv, config, inputs):
    parser = _base_parser("stationary")
    parser.add_argument("model")
    parser.add_argument("--method", choices=["iterative", "spectral"], default="iterative")
    parser.add_argument("--csv", default=None)
    args = parser.parse_args(argv)
    config = _apply_flags(config, args)
    inputs.update({"model": args.model, "method": args.method})
    model = load_model(args.model, config)
    qchain = _to_chain(model, config)
    result = asymptotics.cesaro_limit(
        qchain,
        method=args.method,
        tol=config.cesaro_tol,
        t_max=config.cesaro_t_max,
        stationarity_tol=config.stationarity_tol,
    )
    letters = asymptotics.stationary_letter_distribution(qchain, result)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["symbol", "probability"])
            for symbol, value in letters.items():
                writer.writerow([symbol, repr(float(value))])
    matrix = result.limit.matrix
    results = {
        "method": result.method,
        "iterations": result.iterations,
        "krylov_dim": result.krylov_dim,
        "spectral_gap": result.spectral_gap,
        "stationarity_residual": _number(result.stationarity_residual),
        "cross_difference": _number(result.cross_difference),
        "limit_kind": result.limit.kind.value,
        "limit": [[[float(c.real), float(c.imag)] for c in row] for row in matrix],
        "letter_distribution": {k: _number(v) for k, v in letters.items()},
    }
    return 0, results, [], None


def _load_bell_inputs(paths, config):
    first = load_model(paths[0], config)
    if len(paths) == 1:
        if not isinstance(first, DensityFile) or not first.functions:
            raise ValidationError(
                "single-file form needs a density file with labels and info_functions"
            )
        return first.density, first.labels, first.functions
    second = load_model(paths[1], config)
    if not isinstance(first, DensityFile):
        raise ValidationError("first argument must be a density file")
    if not isinstance(second, InfoFunctionsFile):
        raise ValidationError("second argument must be an info_functions file")
    labels = first.labels if first.labels is not None else second.labels
    if tuple(labels) != tuple(second.labels):
        raise ValidationError("density and info_functions files disagree on labels")
    return first.density, labels, second.functions


def _cmd_bell(argv, config, inputs):
    parser = _base_parser("bell")
    parser.add_argument("files", nargs="+")
    parser.add_argument("--x", default="X")
    parser.add_argument("--y", default="Y")
    parser.add_argument("--z", default="Z")
    args = parser.parse_args(argv)
    config = _apply_flags(config, args)
    if len(args.files) > 2:
        raise UsageError("bell takes one or two files")
    inputs.update({"files": list(args.files), "x": args.x, "y": args.y, "z": args.z})
    density, labels, functions = _load_bell_inputs(args.files, config)
    basis = hidden.HiddenStateBasis.standard(density.dim, labels)
    try:
        fx, fy, fz = functions[args.x], functions[args.y], functions[args.z]
    except KeyError as exc:
        raise ValidationError(f"info function {exc.args[0]!r} not present") from None
    check = hidden.bell_check(density, basis, fx, fy, fz, config.eval_tol)
    results = {
        "expectations": {k: _number(v) for k, v in check.expectations.items()},
        "lhs": _number(check.lhs),
        "rhs": _number(check.rhs),
        "satisfied": bool(check.satisfied),
        "violated": bool(not check.satisfied),
        "jointly_observable": bool(check.jointly_observable),
        "pair_observable": {k: bool(v) for k, v in check.pair_observable.items()},
        "joint_distribution": _distribution_pairs(check.joint_report.distribution),
        "offending_outcomes": _distribution_pairs(check.joint_report.offending),
    }
    return 0, results, [], None


def _cmd_hidden_path(argv, config, inputs):
    parser = _base_parser("hidden-path")
    parser.add_argument("model")
    parser.add_argument("--word", required=True)
    args = parser.parse_args(argv)
    config = _apply_flags(config, args)
    inputs.update({"model": args.model, "word": args.word})
    model = load_model(args.model, config)
    qchain = _to_chain(model, config)
    labels = _hidden_labels(model, qchain)
    basis = hidden.HiddenStateBasis.standard(qchain.subspace.ambient_dim, labels)
    word = process_mod.parse_word(args.word, qchain.alphabet)
    result = hidden.viterbi_hidden_path(qchain, basis, word, config.recon_tol)
    results = {
        "path": list(result.path),
        "weight": _number(result.weight),
        "negative_weights": bool(result.negative_weights),
    }
    return 0, results, [], None


def _hidden_labels(model, qchain: QuantumChain):
    if isinstance(model, HmmParam):
        return model.states
    if isinstance(model, FfmcParam):
        return model.states
    if isinstance(model, QrwParam):
        return tuple(f"{node}:{coin}" for node in model.nodes for coin in model.coins)
    return tuple(f"w{i + 1}" for i in range(qchain.subspace.ambient_dim))


_HANDLERS = {
    "validate": _cmd_validate,
    "eval": _cmd_eval,
    "rank": _cmd_rank,
    "equiv": _cmd_equiv,
    "convert": _cmd_convert,
    "simulate": _cmd_simulate,
    "stationary": _cmd_stationary,
    "bell": _cmd_bell,
    "hidden-path": _cmd_hidden_path,
}


if __name__ == "__main__":
    main()
