"""The four workloads: seeded inputs, the tasks that run them through qpmkit, and checks.

``prepare(name, workdir, seed)`` writes the workload's input files and
returns a ``Workload``: the files whose load time is the set-up cost,
and a function that loads them and builds the task list.  A task is one
model through the workload's pipeline, or one CLI command.  Oracle
answers that do not depend on qpmkit's output are computed while the
tasks are built, outside the timed loop; each task compares against
them with a fixed tolerance and fails on the first mismatch.

Some tasks hit defects the seed is known to have (see ``KNOWN_DEFECTS``).
They count as failed tasks; a run stays ``correct`` as long as every
failure is one of those.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gen
import oracles as o

# failure kind -> why the seed fails that way; failures of any other kind
# make the run incorrect
KNOWN_DEFECTS = {
    "SamplingError": "chain sampling never renormalises, so prefix mass falls below clamp_tol",
    "underflow": "products of many probabilities underflow to 0.0 instead of staying in log space",
    "exit-2": "qpmkit simulate on a chain exits 2 from the same SamplingError",
    "false-growth": "boundedness_probe compares half-horizon maxima with 1e-9 relative slack, so a "
                    "bounded orbit whose purity still rises at t=50 is flagged as growing",
}


class Failure(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


@dataclass
class Ctx:
    """What tasks report besides pass/fail: oracle deviations, counters, word digests."""

    max_err: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    def check(self, layer: str, err: float, tol: float, what: str) -> None:
        if math.isfinite(err):
            self.max_err[layer] = max(self.max_err.get(layer, 0.0), err)
        if not err <= tol:
            raise Failure("wrong", f"{what}: deviation {err:.3e} above {tol:.1e}")

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            raise Failure("wrong", what)

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def digest(self, task: str, words) -> None:
        text = "\n".join(",".join(w) for w in words)
        value = hashlib.sha256(text.encode("utf-8")).hexdigest()
        previous = self.digests.setdefault(task, value)
        self.require(previous == value, f"{task}: sampled words changed between cycles")


@dataclass
class Task:
    name: str
    run: Callable[[Ctx], None]


@dataclass
class Workload:
    """Input files (their load is the set-up cost) and a loader that builds the tasks."""

    files: list[str]
    build: Callable[[object], list[Task]]
    invalid: list[str] = field(default_factory=list)  # inputs qpmkit must reject


def _hmm_from_file(path) -> gen.Hmm:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    p = doc["payload"]
    return gen.Hmm(tuple(doc["alphabet"]), np.array(p["initial"]), np.array(p["emission"]),
                   np.array(p["transition"]))


def _fmt(word) -> str:
    return "".join(word)


def _rank(matrix: np.ndarray, eps: float = 1e-8) -> int:
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(s > eps * s[0])) if s.size and s[0] > 0 else 0


def _check_loglik(ctx: Ctx, layer: str, value: float, loglik: float, what: str) -> None:
    """Relative agreement in the log; an exact 0.0 for a positive probability is underflow."""
    if value == 0.0 and math.isfinite(loglik):
        ctx.count(f"{layer}.eval.underflow")
        raise Failure("underflow", f"{what} returned 0.0, oracle log-probability {loglik:.1f}")
    ctx.check(layer, o.log_err(value, loglik), 1e-9 * max(1.0, abs(loglik)), what)


def _random_word(rng, alphabet, length) -> tuple[str, ...]:
    return tuple(alphabet[i] for i in rng.integers(len(alphabet), size=length))


# --------------------------------------------------------------------------
# sweep: per-word evaluation over exponentially many words.
# --------------------------------------------------------------------------

# (states, letters).  (5, 3) and (6, 3) are left out: their exhaustive
# equivalence checks (3**10 and 3**12 words per side) take about 5.5 s and
# 35 s, which leaves a run too few tasks for a steady median and tail.
# Seven models keep the median inside one model's block of latencies.
SWEEP_LADDER = ((3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3))
SWEEP_L = 4


def _prepare_sweep(workdir, rng) -> Workload:
    items = []
    files = []
    for n, k in SWEEP_LADDER:
        hmm = gen.random_hmm(rng, n, k)
        base = os.path.join(workdir, f"hmm_n{n}_k{k}")
        gen.write_hmm(base + ".json", hmm)
        gen.write_hmm(base + "_perturbed.json", gen.perturbed_hmm(hmm))
        files += [base + ".json", base + "_perturbed.json"]
        items.append((f"hmm-n{n}-k{k}", hmm, base))
    walk = gen.two_node_walk(rng)
    gen.write_walk(os.path.join(workdir, "walk2.json"), walk)
    perturbed = gen.Walk(walk.nodes, walk.coins, walk.edges,
                         walk.unitary @ _rotation(walk.dim, 1e-3), walk.wave)
    gen.write_walk(os.path.join(workdir, "walk2_perturbed.json"), perturbed)
    files += [os.path.join(workdir, "walk2.json"), os.path.join(workdir, "walk2_perturbed.json")]

    def build(qk):
        tasks = []
        for name, hmm, base in items:
            model = qk.load_model(base + ".json")
            other = qk.load_model(base + "_perturbed.json")
            tasks.append(Task(name, _sweep_hmm_task(qk, model, other, hmm)))
        model = qk.load_model(os.path.join(workdir, "walk2.json"))
        other = qk.load_model(os.path.join(workdir, "walk2_perturbed.json"))
        tasks.append(Task("walk-2x1", _sweep_walk_task(qk, model, other, walk)))
        return tasks

    return Workload(files, build)


def _rotation(dim: int, angle: float) -> np.ndarray:
    r = np.eye(dim, dtype=complex)
    c, s = math.cos(angle), math.sin(angle)
    r[:2, :2] = [[c, -s], [s, c]]
    return r


def _check_hankel_stages(ctx, qk, proc, want: np.ndarray, length: int) -> None:
    """Hankel, rank and row basis against an oracle Hankel; then the axioms."""
    hankel = qk.build_hankel(proc, length, length)
    ctx.check("process", o.max_abs_err(hankel.matrix, want), 1e-12, "Hankel entries")
    rank = _rank(want)
    ctx.require(qk.numerical_rank(hankel) == rank, f"numerical rank is not {rank}")
    basis = qk.select_row_basis(hankel)
    rows = want[[hankel.row_words.index(v) for v in basis]]
    ctx.require(len(basis) == rank and min(rows[:, 0]) > 1e-8,
                "row basis has the wrong size or a word of weight <= 1e-8")
    coeff, *_ = np.linalg.lstsq(rows.T, want.T, rcond=None)
    ctx.check("process", np.linalg.norm(rows.T @ coeff - want.T) / np.linalg.norm(want), 1e-9,
              "Hankel rows outside the span of the row basis")
    problems = qk.check_process_axioms(proc, length)
    ctx.require(problems == [], f"axioms reported for a valid process: {problems[:2]}")


def _check_qpm(ctx, qk, qpm, words, want) -> None:
    got = [qk.chain_eval(qpm, w) for w in words]
    ctx.check("chain", o.max_abs_err(got, want), 1e-7, "predictor model word probabilities")


def _sweep_hmm_task(qk, model, other, hmm):
    length = min(hmm.n, SWEEP_L)
    want = o.hmm_hankel(hmm, length, length)
    words = o.words_up_to(hmm.alphabet, length)

    def run(ctx):
        finitary = qk.hmm_to_finitary(model)
        proc = qk.hmm_process(model)
        _check_hankel_stages(ctx, qk, proc, want, length)
        _check_qpm(ctx, qk, qk.finitary_to_qpm(finitary, horizon=length), words, want[0])
        ctx.require(qk.processes_equivalent(proc, qk.finitary_process(finitary)) is True,
                    "an HMM and its finitary form came back inequivalent")
        ctx.require(qk.processes_equivalent(proc, qk.hmm_process(other)) is False,
                    "the perturbed HMM came back equivalent")

    return run


def _sweep_walk_task(qk, model, other, walk):
    length = SWEEP_L
    words = o.words_up_to(walk.nodes, length)
    want = np.array([[math.exp(o.walk_loglik(walk, v + w)) for w in words] for v in words])

    def run(ctx):
        finitary = qk.qpm_to_finitary(qk.qrw_to_qmc(model))
        proc = qk.qrw_process(model)
        _check_hankel_stages(ctx, qk, proc, want, length)
        _check_qpm(ctx, qk, qk.finitary_to_qpm(finitary), words, want[0])
        ctx.require(qk.processes_equivalent(proc, qk.finitary_process(finitary)) is True,
                    "a walk and its finitary form came back inequivalent")
        ctx.require(qk.processes_equivalent(proc, qk.qrw_process(other)) is False,
                    "the perturbed walk came back equivalent")

    return run


# --------------------------------------------------------------------------
# operator: superoperator builds, chain validation and Cesaro limits.
# --------------------------------------------------------------------------

OPERATOR_WALK_NODES = (2, 4, 6, 8)  # two coins: ambient dimension 4, 8, 12, 16
OPERATOR_KRAUS_DIMS = (3, 5, 8)
PROBE_HORIZON = 100


def _prepare_operator(workdir, rng) -> Workload:
    walks, families, files = [], [], []
    for nodes in OPERATOR_WALK_NODES:
        walk = gen.cycle_walk(rng, nodes)
        path = os.path.join(workdir, f"walk_dim{walk.dim}.json")
        gen.write_walk(path, walk)
        walks.append((walk, path))
        files.append(path)
    for n in OPERATOR_KRAUS_DIMS:
        family = gen.random_kraus(rng, n)
        chain_path = os.path.join(workdir, f"kraus_n{n}_qmc.json")
        density_path = os.path.join(workdir, f"kraus_n{n}_density.json")
        gen.write_kraus_qmc(chain_path, family.alphabet, family.operators, family.initial)
        gen.write_density(density_path, family.initial)
        families.append((family, chain_path, density_path))
        files += [chain_path, density_path]

    def build(qk):
        tasks = []
        for walk, path in walks:
            words = [gen.sample_walk_word(walk, t, rng) for t in range(1, 9)]
            expect = _operator_expect(walk.nodes, walk.kraus(), np.outer(walk.wave, walk.wave.conj()),
                                      words)
            tasks.append(Task(f"walk-dim{walk.dim}",
                              _operator_walk_task(qk, qk.load_model(path), expect)))
        for family, chain_path, density_path in families:
            words = [_random_word(rng, family.alphabet, t) for t in range(1, 9)]
            expect = _operator_expect(family.alphabet, family.operators, family.initial, words)
            tasks.append(Task(f"kraus-n{len(family.initial)}", _operator_kraus_task(
                qk, family, qk.load_model(chain_path), qk.load_model(density_path), expect)))
        return tasks

    return Workload(files, build)


def _operator_expect(alphabet, operators, rho, words) -> dict:
    limit, letters = o.kraus_stationary(alphabet, operators, rho)
    s = o.liouville(operators)
    v = rho.reshape(-1)
    purity = []
    for _ in range(PROBE_HORIZON + 1):
        purity.append(float(np.vdot(v, v).real))
        v = s @ v
    return {
        "words": words,
        "probs": [math.exp(o.kraus_loglik(alphabet, operators, rho, w)) for w in words],
        "limit": limit,
        "letters": letters,
        "purity": max(purity),
    }


def _check_chain_analysis(ctx, qk, chain, expect, method: str) -> None:
    ctx.check("chain", o.max_abs_err([qk.chain_eval(chain, w) for w in expect["words"]],
                                     expect["probs"]), 1e-10, "chain word probabilities")
    report = qk.validate_chain(chain)
    ctx.require(report.ok, f"valid chain rejected: {report.messages()[:2]}")
    result = qk.cesaro_limit(chain, method=method)
    ctx.check("asymptotics", o.max_abs_err(result.limit.matrix.real, expect["limit"].real), 1e-6,
              "Cesaro limit density")
    ctx.check("asymptotics", o.max_abs_err(result.limit.matrix.imag, expect["limit"].imag), 1e-6,
              "Cesaro limit density")
    letters = qk.stationary_letter_distribution(chain, result)
    ctx.check("asymptotics", o.max_abs_err(list(letters.values()), list(expect["letters"].values())),
              1e-6, "stationary letter distribution")
    probe = qk.boundedness_probe(chain, PROBE_HORIZON)
    ctx.check("asymptotics", abs(probe.max_square_trace - expect["purity"]), 1e-9,
              "boundedness probe")
    if probe.growing:  # every chain here is trace preserving, hence bounded
        raise Failure("false-growth", "boundedness_probe flagged a bounded chain as growing")
    finitary = qk.qpm_to_finitary(chain)
    ctx.check("chain", o.max_abs_err([qk.finitary_eval(finitary, w) for w in expect["words"]],
                                     expect["probs"]), 1e-10, "finitary word probabilities")


def _operator_walk_task(qk, walk_model, expect):
    def run(ctx):
        _check_chain_analysis(ctx, qk, qk.qrw_to_qmc(walk_model), expect, "iterative")

    return run


def _operator_kraus_task(qk, family, loaded_chain, density_file, expect):
    operators = dict(zip(family.alphabet, family.operators))

    def run(ctx):
        chain = qk.povm_to_qmc(operators, density_file.density)
        ctx.check("io", o.max_abs_err([qk.chain_eval(loaded_chain, w) for w in expect["words"]],
                                      expect["probs"]), 1e-10, "loaded chain word probabilities")
        _check_chain_analysis(ctx, qk, chain, expect, "spectral")

    return run


# --------------------------------------------------------------------------
# trajectory: long sequences through sampling, Viterbi and word evaluation.
# --------------------------------------------------------------------------

SAMPLE_LENGTHS = (10, 50, 200)
SAMPLE_COUNT = 8
VITERBI_LENGTHS = (100, 200, 400, 800)
EVAL_LENGTHS = (50, 200, 800, 2000)
WALK_EVAL_LENGTH = 200  # one more task: an odd task count keeps the median inside one task's block


def _prepare_trajectory(workdir, rng, seed) -> Workload:
    # Near-uniform HMM rows (Dirichlet concentration 5) and balanced walk
    # coins keep word probabilities, and so the point where each known
    # defect shows, the same for every seed.
    hmm = gen.random_hmm(rng, 8, 3, concentration=5.0)
    walk = gen.cycle_walk(rng, 4, balanced=True)
    paths = {name: os.path.join(workdir, f"{name}.json")
             for name in ("hmm", "hmm_qmc", "walk", "walk_qmc")}
    gen.write_hmm(paths["hmm"], hmm)
    gen.write_diagonal_qmc(paths["hmm_qmc"], hmm)
    gen.write_walk(paths["walk"], walk)
    gen.write_kraus_qmc(paths["walk_qmc"], walk.nodes, walk.kraus(),
                        np.outer(walk.wave, walk.wave.conj()))
    viterbi_words = {t: _random_word(rng, hmm.alphabet, t) for t in VITERBI_LENGTHS}
    eval_words = {t: _random_word(rng, hmm.alphabet, t) for t in EVAL_LENGTHS}
    walk_word = gen.sample_walk_word(walk, WALK_EVAL_LENGTH, rng)

    def build(qk):
        models = {name: qk.load_model(path) for name, path in paths.items()}
        loglik = {"hmm": lambda w: o.hmm_loglik(hmm, w), "walk": lambda w: o.walk_loglik(walk, w)}
        tasks = []
        for i, name in enumerate(paths):
            for length in SAMPLE_LENGTHS:
                tasks.append(Task(f"sample-{name}-{length}", _sample_task(
                    qk, models[name], length, seed * 100 + i, loglik[name.split("_")[0]],
                    f"sample-{name}-{length}")))
        for t, word in viterbi_words.items():
            tasks.append(Task(f"viterbi-{t}", _viterbi_task(qk, models["hmm_qmc"], hmm, word)))
        for t, word in eval_words.items():
            ll = o.hmm_loglik(hmm, word)
            tasks.append(Task(f"hmm-eval-{t}", _eval_task(qk, "models", "hmm_eval",
                                                          models["hmm"], word, ll)))
            tasks.append(Task(f"chain-eval-{t}", _eval_task(qk, "chain", "chain_eval",
                                                            models["hmm_qmc"], word, ll)))
        tasks.append(Task(f"walk-eval-{WALK_EVAL_LENGTH}", _eval_task(
            qk, "models", "qrw_eval", models["walk"], walk_word, o.walk_loglik(walk, walk_word))))
        return tasks

    return Workload(list(paths.values()), build)


def _sample_task(qk, model, length, seed, loglik, name):
    def run(ctx):
        words = qk.sample_trajectories(model, length, SAMPLE_COUNT, seed)
        ctx.require(len(words) == SAMPLE_COUNT and all(len(w) == length for w in words),
                    "sampled words have the wrong count or length")
        ctx.require(all(math.isfinite(loglik(w)) for w in words),
                    "sampled a word of probability zero")
        ctx.digest(name, words)

    return run


def _viterbi_task(qk, chain, hmm, word):
    want_path, best = o.viterbi(hmm, word)

    def run(ctx):
        basis = qk.HiddenStateBasis.standard(hmm.n)
        result = qk.viterbi_hidden_path(chain, basis, word)
        if result.weight == 0.0 and math.isfinite(best):
            ctx.count("hidden.viterbi.zero_weight")
            raise Failure("underflow", f"path weight 0.0, oracle log-weight {best:.1f}")
        path = tuple(int(label[1:]) - 1 for label in result.path)
        ctx.check("hidden", o.log_err(result.weight, best), 1e-9 * max(1.0, abs(best)),
                  "Viterbi path weight")
        gap = best - o.path_logweight(hmm, word, path)
        ctx.check("hidden", 0.0 if path == want_path else gap, 1e-9 * max(1.0, abs(best)),
                  "Viterbi path")

    return run


def _eval_task(qk, layer, evaluator, model, word, loglik):
    def run(ctx):
        value = getattr(qk, evaluator)(model, word)
        _check_loglik(ctx, layer, value, loglik, f"{evaluator} of {len(word)} symbols")

    return run


# --------------------------------------------------------------------------
# cli: every command, in process, on the shipped fixtures and generated files.
# --------------------------------------------------------------------------

# Sampling hmm2's chain fails once a prefix's probability drops below
# clamp_tol (1e-9): near length 30 only for some seeds, by length 60 for all.
CHAIN_SIMULATE_LENGTH = 60

# Left out: `equiv qrw_hadamard.json qrw_hadamard.json`.  Its horizon is
# 32 (declared dimension 16 + 16), so it enumerates 2**33 words and
# exhausts memory; polynomial-time equivalence should bring it back.
CLI_FIXTURES = ("hmm2", "hmm3_rank3", "bad_hmm_rowsum", "swap_qmc", "unbounded_qpm",
                "coin_finitary", "bell5")


def _prepare_cli(workdir, rng, seed, fixtures_dir) -> Workload:
    fx = {name: os.path.join(fixtures_dir, f"{name}.json") for name in CLI_FIXTURES}
    hmm = gen.random_hmm(rng, 3, 2)
    # a 4-node walk (dimension 8): converting it to a chain and validating
    # that chain are the slowest commands, well apart from the rest
    walk = gen.cycle_walk(rng, 4)
    g = {name: os.path.join(workdir, f"{name}.json")
         for name in ("hmm", "hmm_perturbed", "hmm_finitary", "walk", "walk_qmc")}
    gen.write_hmm(g["hmm"], hmm)
    gen.write_hmm(g["hmm_perturbed"], gen.perturbed_hmm(hmm))
    gen.write_finitary(g["hmm_finitary"], hmm)
    gen.write_walk(g["walk"], walk)
    gen.write_kraus_qmc(g["walk_qmc"], walk.nodes, walk.kraus(),
                        np.outer(walk.wave, walk.wave.conj()))
    out = {name: os.path.join(workdir, f"out_{name}") for name in
           ("hmm2_finitary.json", "hmm2_qmc.json", "hmm_qpm.json", "walk_qmc.json", "sim_hmm2.txt",
            "sim_hmm2_qmc.txt")}
    files = [p for name, p in fx.items() if name != "bad_hmm_rowsum"] + list(g.values())

    def build(qk):
        hmm2 = _hmm_from_file(fx["hmm2"])
        hmm3 = _hmm_from_file(fx["hmm3_rank3"])
        rho = np.outer(walk.wave, walk.wave.conj())
        _, walk_letters = o.kraus_stationary(walk.nodes, walk.kraus(), rho)
        hmm_word = _random_word(rng, hmm.alphabet, 12)
        walk_word = gen.sample_walk_word(walk, 10, rng)
        hidden_word = _random_word(rng, hmm.alphabet, 10)
        c = _CliChecks(qk)
        specs = [
            (["validate", fx["hmm2"]], 0, c.valid(True)),
            (["validate", fx["bad_hmm_rowsum"]], 1, c.valid(False)),
            (["validate", fx["swap_qmc"]], 0, c.valid(True)),
            (["validate", fx["unbounded_qpm"]], 0, c.valid(True)),
            (["validate", g["walk_qmc"]], 0, c.valid(True)),
            (["validate", g["hmm_finitary"]], 0, c.valid(True)),
            (["eval", fx["hmm2"], "--word", "abbab"], 0, c.value(o.hmm_loglik(hmm2, "abbab"))),
            (["eval", g["hmm"], "--word", _fmt(hmm_word)], 0, c.value(o.hmm_loglik(hmm, hmm_word))),
            (["eval", g["walk"], "--word", _fmt(walk_word)], 0,
             c.value(o.walk_loglik(walk, walk_word))),
            (["rank", fx["hmm3_rank3"]], 0, c.rank(hmm3)),
            (["rank", g["hmm"], "--rows", "3", "--cols", "3"], 0, c.rank(hmm)),
            (["equiv", g["hmm"], g["hmm_finitary"]], 0, c.equivalent(True)),
            (["equiv", g["hmm"], g["hmm_perturbed"]], 0, c.equivalent(False)),
            (["equiv", fx["coin_finitary"], fx["coin_finitary"]], 0, c.equivalent(True)),
            (["convert", fx["hmm2"], "--to", "finitary", "--out", out["hmm2_finitary.json"]], 0,
             c.converted(out["hmm2_finitary.json"], "finitary_eval",
                         lambda w: o.hmm_loglik(hmm2, w), hmm2.alphabet)),
            (["convert", fx["hmm2"], "--to", "qmc", "--out", out["hmm2_qmc.json"]], 0,
             c.converted(out["hmm2_qmc.json"], "chain_eval", lambda w: o.hmm_loglik(hmm2, w),
                         hmm2.alphabet)),
            (["convert", g["hmm"], "--to", "qpm", "--out", out["hmm_qpm.json"]], 0,
             c.converted(out["hmm_qpm.json"], "chain_eval", lambda w: o.hmm_loglik(hmm, w),
                         hmm.alphabet)),
            (["convert", g["walk"], "--to", "qmc", "--out", out["walk_qmc.json"]], 0,
             c.converted(out["walk_qmc.json"], "chain_eval", lambda w: o.walk_loglik(walk, w),
                         walk.nodes)),
            (["simulate", fx["hmm2"], "--length", "10", "--count", "5", "--seed", str(seed),
              "--out", out["sim_hmm2.txt"]], 0,
             c.simulated(out["sim_hmm2.txt"], lambda w: o.hmm_loglik(hmm2, w), 5, 10)),
            (["simulate", out["hmm2_qmc.json"], "--length", str(CHAIN_SIMULATE_LENGTH), "--count",
              "5", "--seed", str(seed), "--out", out["sim_hmm2_qmc.txt"]], 0,
             c.simulated(out["sim_hmm2_qmc.txt"], lambda w: o.hmm_loglik(hmm2, w), 5,
                         CHAIN_SIMULATE_LENGTH)),
            (["stationary", fx["hmm2"], "--method", "iterative"], 0,
             c.letters(o.hmm_stationary_letters(hmm2))),
            (["stationary", fx["hmm2"], "--method", "spectral"], 0,
             c.letters(o.hmm_stationary_letters(hmm2))),
            (["stationary", g["walk"], "--method", "iterative"], 0, c.letters(walk_letters)),
            (["stationary", g["walk"], "--method", "spectral"], 0, c.letters(walk_letters)),
            (["bell", fx["bell5"]], 0, c.bell(fx["bell5"])),
            (["hidden-path", fx["hmm2"], "--word", "abbab"], 0, c.hidden_path(hmm2, "abbab")),
            (["hidden-path", g["hmm"], "--word", _fmt(hidden_word)], 0,
             c.hidden_path(hmm, hidden_word)),
        ]
        return [Task(f"{i:02d}-{argv[0]}", _cli_task(qk, argv, code, check))
                for i, (argv, code, check) in enumerate(specs)]

    return Workload(files, build, [fx["bad_hmm_rowsum"]])


def _cli_task(qk, argv, expected_code, check):
    def run(ctx):
        stdout = io.StringIO()
        code = qk.cli.run_command(argv, stdout=stdout)
        if code != expected_code:
            ctx.count("cli.exit_mismatch")
            report = json.loads(stdout.getvalue()) if stdout.getvalue().startswith("{") else {}
            kind = "exit-2" if code == 2 and argv[0] == "simulate" else "wrong"
            raise Failure(kind, f"qpmkit {argv[0]} exited {code}, expected {expected_code}: "
                                f"{report.get('findings', [])[:1]}")
        check(ctx, json.loads(stdout.getvalue())["results"])

    return run


class _CliChecks:
    """Checks on a command's ``results`` object, each against an oracle answer."""

    def __init__(self, qk):
        self.qk = qk

    @staticmethod
    def valid(expected: bool):
        def check(ctx, results):
            ctx.require(results["valid"] is expected, f"validate said valid={results['valid']}")
        return check

    @staticmethod
    def value(loglik: float):
        def check(ctx, results):
            _check_loglik(ctx, "cli", results["value"], loglik, "eval value")
        return check

    @staticmethod
    def rank(hmm):
        def check(ctx, results):
            want = _rank(o.hmm_hankel(hmm, results["rows"], results["cols"]))
            ctx.require(results["numerical_rank"] == want,
                        f"rank {results['numerical_rank']}, oracle {want}")
        return check

    @staticmethod
    def equivalent(expected: bool):
        def check(ctx, results):
            ctx.require(results["equivalent"] is expected, f"equiv said {results['equivalent']}")
        return check

    def converted(self, path, evaluator, loglik, alphabet):
        """Reload the written file, re-save it byte for byte, and evaluate a few words."""
        words = o.words_up_to(alphabet, 3)

        def check(ctx, results):
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            model = self.qk.load_model(path)
            if self.qk.save_model(model) != text:
                ctx.count("io.roundtrip.mismatches")
                raise Failure("wrong", f"{os.path.basename(path)} does not re-save byte for byte")
            got = [getattr(self.qk, evaluator)(model, w) for w in words]
            ctx.check("io", o.max_abs_err(got, [math.exp(loglik(w)) for w in words]), 1e-9,
                      "converted model word probabilities")
        return check

    @staticmethod
    def simulated(path, loglik, count, length):
        def check(ctx, results):
            with open(path, encoding="utf-8") as handle:
                words = [tuple(line) for line in handle.read().splitlines()]
            ctx.require(len(words) == count and all(len(w) == length for w in words),
                        "simulate wrote the wrong number or length of words")
            ctx.require(all(math.isfinite(loglik(w)) for w in words),
                        "simulate wrote a word of probability zero")
            ctx.digest(os.path.basename(path), words)
        return check

    @staticmethod
    def letters(want: dict):
        def check(ctx, results):
            got = results["letter_distribution"]
            ctx.check("cli", o.max_abs_err([got[a] for a in want], list(want.values())), 1e-6,
                      "stationary letter distribution")
        return check

    @staticmethod
    def bell(path):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)["payload"]
        weights = [cell[0] for cell in np.diagonal(np.array(payload["matrix"])).T]
        f = payload["info_functions"]
        labels = payload["labels"]

        def e(a, b):
            return sum(wt * f[a][lab] * f[b][lab] for wt, lab in zip(weights, labels))

        lhs, rhs = abs(e("X", "Y") - e("Y", "Z")), 1.0 - e("X", "Z")

        def check(ctx, results):
            ctx.check("hidden", max(abs(results["lhs"] - lhs), abs(results["rhs"] - rhs)), 1e-12,
                      "bell expectations")
            ctx.require(results["satisfied"] is bool(lhs <= rhs + 1e-9), "bell verdict")
        return check

    @staticmethod
    def hidden_path(hmm, word):
        want_path, best = o.viterbi(hmm, word)

        def check(ctx, results):
            path = tuple(int(label[1:]) for label in results["path"])
            ctx.check("hidden", o.log_err(results["weight"], best), 1e-9 * max(1.0, abs(best)),
                      "hidden-path weight")
            gap = best - o.path_logweight(hmm, word, path)
            ctx.check("hidden", 0.0 if path == want_path else gap, 1e-9 * max(1.0, abs(best)),
                      "hidden-path path")
        return check


# --------------------------------------------------------------------------


def prepare(name: str, workdir: str, seed: int, fixtures_dir: str) -> Workload:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "sweep":
        return _prepare_sweep(workdir, rng)
    if name == "operator":
        return _prepare_operator(workdir, rng)
    if name == "trajectory":
        return _prepare_trajectory(workdir, rng, seed)
    return _prepare_cli(workdir, rng, seed, fixtures_dir)


WORKLOADS = ("sweep", "operator", "trajectory", "cli")
