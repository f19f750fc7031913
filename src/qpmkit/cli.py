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
import functools
import math
import re
import sys
import time

from . import asymptotics, chain as chain_mod, hidden, models, process as process_mod
from .config import DEFAULTS, Config, load_config
from .errors import (
    AlphabetError,
    DimensionMismatchError,
    NumericError,
    SchemaError,
    SubspaceError,
    UnsupportedChainError,
    UsageError,
    ValidationError,
)
from .io import (
    canonical_json,
    load_model,
    load_model_report,
    model_kind,
    model_to_dict,
    save_model,
)

_VALIDATION_ERRORS = (
    SchemaError,
    ValidationError,
    DimensionMismatchError,
    AlphabetError,
    SubspaceError,
    UnsupportedChainError,
)

_USAGE = """usage: qpmkit <command> [options]

commands:
  validate <model> [--horizon N]            check a model file, list violations
  eval <model> --word W                     word probability under the model
  rank <model> [--rows L --cols L] [--csv F] truncated Hankel rank and row basis
  equiv <modelA> <modelB> [--tol T]         finitary process equivalence
  convert <model> --to {finitary,qmc,qpm} [--out F]
  simulate <model> --length N [--count K] [--seed S] [--out F]
  stationary <model> [--csv F]              averaged limit and orbit spectrum
  bell <density+functions.json | density.json functions.json> [--x X --y Y --z Z]
  hidden-path <model> --word W              maximum-weight hidden-state path

Tolerances come from built-in defaults, then a JSON file named by the
QPMKIT_CONFIG environment variable, then --tol-* flags.  validate --horizon
is --qpm-horizon and equiv --tol is --tol-equiv; of two spellings of one
value, the last given wins.  The report's tolerances are the config that ran.
stationary accepts --method {iterative,spectral}, which has no effect.
"""


def _finite_float(text: str) -> float:
    """A tolerance flag's value; NaN, infinities and negative values are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative number: {text!r}")
    return value


def _horizon(text: str) -> int:
    """A word-horizon flag's value; negative lengths are refused."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


# Flags every command takes, each naming the Config field it sets.
_CONFIG_FLAGS = {
    "--tol-hermitian": "hermitian_tol",
    "--tol-psd": "psd_tol",
    "--tol-trace": "trace_tol",
    "--tol-recon": "recon_tol",
    "--tol-unitary": "unitary_tol",
    "--tol-eval": "eval_tol",
    "--tol-rank": "rank_eps",
    "--tol-equiv": "equiv_tol",
    "--tol-residual": "residual_tol",
    "--tol-clamp": "clamp_tol",
    "--tol-stationarity": "stationarity_tol",
    "--qpm-horizon": "qpm_horizon",
}

# Every Config field, in declaration order: the report's ``tolerances``.
_CONFIG_FIELDS = tuple(field.name for field in dataclasses.fields(Config))

# Each command's own arguments, as add_argument keywords by name.  A flag
# whose dest is a Config field is a second spelling of that field's flag.
_ARGUMENTS = {
    "validate": {"model": {}, "--horizon": {"dest": "qpm_horizon", "type": _horizon}},
    "eval": {"model": {}, "--word": {"required": True}},
    "rank": {"model": {}, "--rows": {"type": int}, "--cols": {"type": int}, "--csv": {}},
    "equiv": {"model_a": {}, "model_b": {}, "--tol": {"dest": "equiv_tol", "type": _finite_float}},
    "convert": {
        "model": {},
        "--to": {"required": True, "choices": ["finitary", "qmc", "qpm"]},
        "--out": {},
    },
    "simulate": {
        "model": {},
        "--length": {"type": int, "required": True},
        "--count": {"type": int, "default": 1},
        "--seed": {"type": int, "default": 0},
        "--out": {},
    },
    "stationary": {
        "model": {},
        "--method": {
            "choices": ["iterative", "spectral"],
            "help": "accepted for compatibility; has no effect",
        },
        "--csv": {},
    },
    "bell": {
        "files": {"nargs": "+"},
        "--x": {"default": "X"},
        "--y": {"default": "Y"},
        "--z": {"default": "Z"},
    },
    "hidden-path": {"model": {}, "--word": {"required": True}},
}


class _Help(Exception):
    """A command's help text, raised so that it reaches the caller's stream."""


class _Parser(argparse.ArgumentParser):
    """Every argument that starts with ``-`` and a digit, ``-1e-9`` too, is a value, not a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?[0-9]")

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


@functools.cache
def _parser(command: str) -> _Parser:
    """``command``'s parser, built on its first call and reused by later ones.

    The config flags come first, then the command's own arguments, the order
    its help lists them in.  ``parse_args`` leaves the parser as it was, so
    the calls that share it stay independent.
    """
    parser = _Parser(prog=f"qpmkit {command}", add_help=True)
    for flag, field in _CONFIG_FLAGS.items():
        kind = _finite_float if isinstance(getattr(DEFAULTS, field), float) else _horizon
        parser.add_argument(flag, dest=field, type=kind)
    for name, options in _ARGUMENTS[command].items():
        parser.add_argument(name, **options)
    return parser


def _apply_flags(config: Config, args: argparse.Namespace) -> Config:
    fields = _CONFIG_FLAGS.values()
    given = {field: value for field in fields if (value := getattr(args, field)) is not None}
    return config.replace(**given) if given else config


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


def run_command(argv, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        out.write(_USAGE)
        return 0 if argv else 64
    command = argv[0]
    if command not in _HANDLERS:
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
        args = _parser(command).parse_args(argv[1:])
        config = _apply_flags(load_config(), args)
        report["tolerances"] = {field: getattr(config, field) for field in _CONFIG_FIELDS}
        code, results, findings, lines = _HANDLERS[command](args, config, report["inputs"])
        report["results"] = results
        report["findings"] = findings
    except UsageError as exc:
        out.write(_USAGE)
        out.write(f"error: {exc}\n")
        return 64
    except _Help as exc:
        out.write(str(exc))
        return 0
    except _VALIDATION_ERRORS as exc:
        report["findings"] = _error_findings(exc)
        code = 1
    except Exception as exc:  # numeric failures, and e.g. LinAlgError or MemoryError from numpy
        report["findings"] = [f"{type(exc).__name__}: {exc}"]
        code = 2
    report["wall_time_s"] = round(time.perf_counter() - started, 6)
    if lines is not None:
        out.write("".join(line + "\n" for line in lines))
        return code
    try:
        text = canonical_json(report)
    except ValueError:  # a non-finite number, which JSON cannot hold
        report.update(results={}, findings=[_non_finite_finding(report["results"])])
        code, text = 2, canonical_json(report)
    out.write(text)
    return code


def _non_finite(value, where: str):
    """(path, number) of each non-finite number in ``value``, which is at ``where``."""
    if isinstance(value, float) and not math.isfinite(value):
        yield where, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite(item, f"{where}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _non_finite(item, f"{where}[{i}]")
    elif hasattr(value, "tolist"):  # a numpy array
        yield from _non_finite(value.tolist(), where)


def _non_finite_finding(results) -> str:
    """The finding that names the non-finite numbers in ``results``: the report's only ones."""
    bad = list(_non_finite(results, "results"))
    shown = ", ".join(f"{where} = {float(value)!r}" for where, value in bad[:3])
    more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
    return f"{NumericError.__name__}: non-finite result: {shown}{more}"


def _error_findings(exc) -> list[str]:
    if isinstance(exc, SchemaError):
        return list(exc.violations)
    return [f"{type(exc).__name__}: {exc}"]


# --------------------------------------------------------------------------
# Model plumbing shared by the handlers.
# --------------------------------------------------------------------------


def _no_labels(model, config: Config):
    return None  # the chain's hidden states are named w1..wn


def _through_hmm(target: str):
    """An FFMC lowers as its HMM; this is the one place it becomes one."""
    return lambda m, c: _lower(m.to_hmm(), target, c)


def _walk_finitary(walk, config: Config):
    """The walk's block form (``qrw_process``) as a finitary model, once the walk validates."""
    models.validate_qrw(walk, config=config).raise_if_invalid("invalid quantum random walk")
    initial, matrices, end = models.qrw_process(walk, config=config).linear
    standard = models._standard_form(initial, end, matrices.sum(axis=0))
    return models.FinitaryParam(walk.nodes, matrices, initial, end, standard_form=standard)


_TARGETS = ("process", "chain", "stationary", "finitary", "qmc", "qpm", "labels")

# Each schema kind's lowerings, keyed by target: the process that eval, rank
# and equiv read, the chain that hidden-path reads, the chain or process
# that stationary averages, the convert targets, and the hidden-state labels
# of the chain.  Entries call conversions through their modules, so a
# rebound module attribute (a tracer's wrapper, say) is the one that runs.
_CHAIN_ROW = {
    "process": lambda m, c: chain_mod.chain_process(m),
    "chain": lambda m, c: m,
    "stationary": lambda m, c: m,
    "finitary": lambda m, c: chain_mod.qpm_to_finitary(m),
    "qpm": lambda m, c: chain_mod.as_qpm(m),
    "labels": _no_labels,
}
_LOWERINGS = {
    "hmm": {
        "process": lambda m, c: models.hmm_process(m),
        "chain": lambda m, c: chain_mod.hmm_to_qmc(m, config=c),
        "stationary": lambda m, c: chain_mod.hmm_to_qmc(m, config=c),
        "finitary": lambda m, c: models.hmm_to_finitary(m, config=c),
        "qmc": lambda m, c: chain_mod.hmm_to_qmc(m, config=c),
        "qpm": lambda m, c: chain_mod.finitary_to_qpm(
            models.hmm_to_finitary(m, config=c), config=c
        ),
        "labels": lambda m, c: m.states,
    },
    "ffmc": {target: _through_hmm(target) for target in _TARGETS},
    "finitary": {
        "process": lambda m, c: models.finitary_process(m),
        "chain": lambda m, c: chain_mod.finitary_to_qpm(m, config=c),
        "stationary": lambda m, c: chain_mod.finitary_to_qpm(m, config=c),
        "finitary": lambda m, c: m,
        "qpm": lambda m, c: chain_mod.finitary_to_qpm(m, config=c),
        "labels": _no_labels,
    },
    "qrw": {
        "process": lambda m, c: models.qrw_process(m, config=c),
        "chain": lambda m, c: chain_mod.qrw_to_qmc(m, config=c),
        "stationary": lambda m, c: models.qrw_process(m, config=c),
        "finitary": lambda m, c: _walk_finitary(m, c),
        "qmc": lambda m, c: chain_mod.qrw_to_qmc(m, config=c),
        "qpm": lambda m, c: chain_mod.as_qpm(chain_mod.qrw_to_qmc(m, config=c)),
        "labels": lambda m, c: tuple(f"{node}:{coin}" for node in m.nodes for coin in m.coins),
    },
    "qmc": {**_CHAIN_ROW, "qmc": lambda m, c: m},
    "qpm": _CHAIN_ROW,
}

_REFUSALS = {
    "process": "{model} does not define a process",
    "chain": "{model} does not define a chain",
    "stationary": "{model} does not define a chain",
    "labels": "{model} does not define a chain",
    "qmc": "cannot certify positivity when converting {model} to a Markov chain",
}


def _lower(model, target: str, config: Config):
    """``model`` as ``target`` (see ``_LOWERINGS``); refuse when its kind has no such lowering."""
    lowering = _LOWERINGS.get(model_kind(model), {}).get(target)
    if lowering is None:
        refusal = _REFUSALS.get(target, "no conversion from {model} to {target}")
        raise ValidationError(refusal.format(model=type(model).__name__, target=target))
    return lowering(model, config)


def _default_truncation(letters: int, dimension: int) -> int:
    """The linear form's dimension, reduced until the Hankel stays desk-sized.

    The largest depth d, from 1 up to ``dimension``, at which the words of
    length at most d over ``letters`` symbols number at most 130 (depth 1
    if none does).  Their count, Σ_{k≤d} |A|^k, is summed as integers: no
    word is built.
    """
    depth, words = 1, 1 + letters
    while depth < dimension and words + letters ** (depth + 1) <= 130:
        depth += 1
        words += letters**depth
    return depth


def _distribution_pairs(distribution: dict) -> list:
    return [[outcome, float(p)] for outcome, p in distribution.items()]


# --------------------------------------------------------------------------
# Handlers.  Each takes the parsed arguments, the config that runs (flags
# applied; the report records it as ``tolerances``) and the report's
# ``inputs`` to fill, and returns (exit_code, results, findings,
# raw_lines_or_None).
# --------------------------------------------------------------------------


def _cmd_validate(args, config, inputs):
    inputs["model"] = args.model
    model, kind, violations, report = load_model_report(args.model, config, with_report=True)
    results = {"kind": kind, "valid": not violations}
    if kind in ("qmc", "qpm") and not violations:
        # chains carry positivity evidence beyond pass/fail, gathered on load
        results["evidence"] = list(report.evidence)
        if report.horizon is not None:
            results["horizon"] = report.horizon
    return (0 if not violations else 1), results, violations, None


def _cmd_eval(args, config, inputs):
    inputs.update({"model": args.model, "word": args.word})
    model = load_model(args.model, config)
    proc = _lower(model, "process", config)
    return 0, {"word": args.word, "value": proc(args.word)}, [], None


def _cmd_rank(args, config, inputs):
    inputs.update({"model": args.model, "rows": args.rows, "cols": args.cols})
    model = load_model(args.model, config)
    proc = _lower(model, "process", config)
    depth = _default_truncation(len(proc.alphabet), proc.linear.dim)
    rows = args.rows if args.rows is not None else depth
    cols = args.cols if args.cols is not None else depth
    hankel = process_mod.build_hankel(proc, rows, cols)
    rank = process_mod.numerical_rank(hankel, config=config)
    basis = process_mod.select_row_basis(hankel, config=config)
    if args.csv:
        hankel.to_csv(args.csv)
    results = {
        "rows": rows,
        "cols": cols,
        "numerical_rank": rank,
        "row_basis": [process_mod.format_word(w) for w in basis],
        "shape": [len(hankel.row_words), len(hankel.col_words)],
    }
    return 0, results, [], None


def _cmd_equiv(args, config, inputs):
    inputs.update({"model_a": args.model_a, "model_b": args.model_b, "tol": config.equiv_tol})
    proc_a = _lower(load_model(args.model_a, config), "process", config)
    proc_b = _lower(load_model(args.model_b, config), "process", config)
    witness = process_mod.distinguishing_word(proc_a, proc_b, config=config)
    results = {
        "equivalent": witness is None,
        "horizon": proc_a.linear.dim + proc_b.linear.dim,
        "witness": None if witness is None else process_mod.format_word(witness),
    }
    return 0, results, [], None


def _cmd_convert(args, config, inputs):
    inputs.update({"model": args.model, "to": args.to, "out": args.out})
    model = load_model(args.model, config)
    converted = _lower(model, args.to, config)
    results = {"kind": args.to}
    if args.out:
        save_model(converted, args.out)
        results["path"] = args.out
    else:
        results["model"] = model_to_dict(converted)
    return 0, results, [], None


def _cmd_simulate(args, config, inputs):
    inputs.update(
        {"model": args.model, "length": args.length, "count": args.count, "seed": args.seed}
    )
    model = load_model(args.model, config)
    words = models.sample_trajectories(model, args.length, args.count, args.seed, config=config)
    formatted = [process_mod.format_word(w) for w in words]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(formatted) + ("\n" if formatted else ""))
        return 0, {"count": len(formatted), "path": args.out}, [], None
    return 0, {"count": len(formatted)}, [], formatted


def _cmd_stationary(args, config, inputs):
    inputs["model"] = args.model
    model = load_model(args.model, config)
    source = _lower(model, "stationary", config)
    result = asymptotics.cesaro_limit(source, config=config)
    letters = asymptotics.stationary_letter_distribution(source, result)
    limit = result.limit if result.limit is not None else model._block_density(result.coords)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["symbol", "probability"])
            for symbol, value in letters.items():
                writer.writerow([symbol, repr(float(value))])
    results = {
        "krylov_dim": result.krylov_dim,
        "invariance_residual": result.invariance_residual,
        "spectral_gap": result.spectral_gap,
        "peripheral_spectrum": [[z.real, z.imag] for z in result.peripheral_spectrum],
        "fixed_space_dim": result.fixed_space_dim,
        "projector_condition": result.projector_condition,
        "stationarity_residual": float(result.stationarity_residual),
        "limit_kind": limit.kind.value,
        "limit": [[[float(c.real), float(c.imag)] for c in row] for row in limit.matrix],
        "letter_distribution": {k: float(v) for k, v in letters.items()},
    }
    return 0, results, [], None


def _load_bell_inputs(paths, config):
    first = load_model(paths[0], config)
    if len(paths) == 1:
        if model_kind(first) != "density" or not first.functions:
            raise ValidationError(
                "single-file form needs a density file with labels and info_functions"
            )
        return first.density, first.labels, first.functions
    second = load_model(paths[1], config)
    if model_kind(first) != "density":
        raise ValidationError("first argument must be a density file")
    if model_kind(second) != "info_functions":
        raise ValidationError("second argument must be an info_functions file")
    labels = first.labels if first.labels is not None else second.labels
    if tuple(labels) != tuple(second.labels):
        raise ValidationError("density and info_functions files disagree on labels")
    return first.density, labels, second.functions


def _cmd_bell(args, config, inputs):
    if len(args.files) > 2:
        raise UsageError("bell takes one or two files")
    inputs.update({"files": list(args.files), "x": args.x, "y": args.y, "z": args.z})
    density, labels, functions = _load_bell_inputs(args.files, config)
    basis = hidden.HiddenStateBasis.standard(density.dim, labels)
    try:
        fx, fy, fz = functions[args.x], functions[args.y], functions[args.z]
    except KeyError as exc:
        raise ValidationError(f"info function {exc.args[0]!r} not present") from None
    check = hidden.bell_check(density, basis, fx, fy, fz, config=config)
    results = {
        "expectations": {k: float(v) for k, v in check.expectations.items()},
        "lhs": float(check.lhs),
        "rhs": float(check.rhs),
        "satisfied": bool(check.satisfied),
        "violated": bool(not check.satisfied),
        "jointly_observable": bool(check.jointly_observable),
        "pair_observable": {k: bool(v) for k, v in check.pair_observable.items()},
        "joint_distribution": _distribution_pairs(check.joint_report.distribution),
        "offending_outcomes": _distribution_pairs(check.joint_report.offending),
    }
    return 0, results, [], None


def _cmd_hidden_path(args, config, inputs):
    inputs.update({"model": args.model, "word": args.word})
    model = load_model(args.model, config)
    qchain = _lower(model, "chain", config)
    labels = _lower(model, "labels", config)
    basis = hidden.HiddenStateBasis.standard(qchain.subspace.ambient_dim, labels)
    word = process_mod.parse_word(args.word, qchain.alphabet)
    result = hidden.viterbi_hidden_path(qchain, basis, word, config=config)
    results = {
        "path": list(result.path),
        "weight": float(result.weight),
        "log_weight": float(result.log_weight) if result.sign else None,
        "sign": result.sign,
        "negative_weights": bool(result.negative_weights),
    }
    findings = []
    if result.weight == 0.0 and result.sign != 0:
        findings.append(
            "path weight is below the double range and reads 0.0; "
            f"log_weight ({result.log_weight:.6g}) holds its natural log"
        )
    return 0, results, findings, None


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
