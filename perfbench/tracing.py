"""Traced runs: spans around qpmkit's public functions, and the per-layer metrics.

``Tracer.install`` rebinds each traced function, in every qpmkit module
namespace that holds it, to a wrapper that records a span (name
``module.function``, start, end, parent span, task id).  Spans stay in
memory and are written out once, at the end of the run.  Word
evaluators (``hmm_eval``, ``finitary_eval``, ``qrw_eval``,
``chain_eval``) run once per word inside the sweeps, so when another
span is open they only add to that span's word and symbol counts; called
from a task directly they get a span of their own.

Nothing here is active in a timed run: the wrappers exist only between
``install`` and ``uninstall``.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import defaultdict

import numpy as np

# traced function -> metric prefix; span names are "<module>.<function>"
LAYER_OF = {
    "io.load_model": "io.load",
    "io.load_model_report": "io.load",
    "io.save_model": "io.save",
    "models.sample_trajectories": "models.sample",
    "models.hmm_eval": "models.eval",
    "models.finitary_eval": "models.eval",
    "models.qrw_eval": "models.eval",
    "process.build_hankel": "process.hankel",
    "process.processes_equivalent": "process.equiv",
    "process.check_process_axioms": "process.axioms",
    "process.numerical_rank": "process.rank",
    "process.select_row_basis": "process.row_basis",
    "chain.finitary_to_qpm": "chain.finitary_to_qpm",
    "chain.qrw_to_qmc": "chain.qrw_to_qmc",
    "chain.povm_to_qmc": "chain.convert",
    "chain.qpm_to_finitary": "chain.convert",
    "chain.hmm_to_qmc": "chain.convert",
    "chain.as_qpm": "chain.convert",
    "chain.validate_chain": "chain.validate",
    "chain.chain_eval": "chain.eval",
    "asymptotics.cesaro_limit": "asymptotics.cesaro",
    "asymptotics.boundedness_probe": "asymptotics.probe",
    "asymptotics.stationary_letter_distribution": "asymptotics.letters",
    "hidden.viterbi_hidden_path": "hidden.viterbi",
    "hidden.bell_check": "hidden.bell",
}
EVALUATORS = {"models.hmm_eval", "models.finitary_eval", "models.qrw_eval", "chain.chain_eval"}
CLI_COMMANDS = ("validate", "eval", "rank", "equiv", "convert", "simulate", "stationary", "bell",
                "hidden-path")
LAYERS = ("io", "models", "process", "chain", "asymptotics", "hidden", "cli")


def _size(name: str, args, result):
    """The ladder size or output shape recorded with a span, if any."""
    if name == "process.build_hankel":
        return int(result.matrix.size)
    if name == "process.select_row_basis":
        return (len(result), len(args[0].row_words))
    if name == "chain.qrw_to_qmc":
        return int(args[0].dim)
    if name == "chain.validate_chain":
        return int(args[0].subspace.ambient_dim)
    if name == "hidden.viterbi_hidden_path":
        return len(args[2])
    if name == "models.sample_trajectories":
        return sum(len(w) for w in result)
    if name in ("io.load_model", "io.load_model_report"):
        return os.path.getsize(args[0])
    if name == "io.save_model":
        return len(result.encode("utf-8"))
    if name == "asymptotics.cesaro_limit":
        return (result.iterations, result.krylov_dim, result.cross_difference)
    return None


class Tracer:
    """In-memory spans plus the word and symbol counts of nested evaluator calls."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tasks: list[int] = []
        self.failed: list[bool] = []
        self.sizes: dict[int, object] = {}
        self.words: dict[int, int] = defaultdict(int)
        self.symbols: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.task = 0
        self._patched: list[tuple[dict, str, object]] = []

    # ---------------------------------------------------------------- spans

    def _open(self, name: str) -> int:
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.tasks.append(self.task)
        self.ends.append(0.0)
        self.failed.append(False)
        self.starts.append(time.perf_counter())
        idx = len(self.names) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.ends[idx] = time.perf_counter()
        self.failed[idx] = failed
        self.stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "cli.run_command":  # one span name per command
                idx = self._open(f"cli.{args[0][0]}" if args[0] else "cli.usage")
            else:
                idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            size = _size(name, args, result)
            if size is not None:
                self.sizes[idx] = size
            return result

        def evaluator(*args, **kwargs):
            if self.stack:
                self.words[self.stack[-1]] += 1
                self.symbols[name] += len(args[1])
                return fn(*args, **kwargs)
            self.symbols[name] += len(args[1])
            return traced(*args, **kwargs)

        return evaluator if name in EVALUATORS else traced

    def install(self, package) -> None:
        """Rebind every traced function wherever a qpmkit module holds it."""
        modules = [package] + [getattr(package, m) for m in LAYERS]
        for qualified in list(LAYER_OF) + ["cli.run_command"]:
            module_name, func_name = qualified.split(".")
            original = getattr(getattr(package, module_name), func_name)
            wrapper = self._wrap(qualified, original)
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patched.append((namespace, key, original))
                        namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                handle.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "task": self.tasks[i],
                    "failed": self.failed[i], "words": self.words.get(i, 0),
                }) + "\n")

    # -------------------------------------------------------------- metrics

    def self_times(self) -> np.ndarray:
        durations = np.array(self.ends) - np.array(self.starts)
        own = durations.copy()
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[i]
        return own

    def metrics(self, counters: dict, max_err: dict, overhead_ratio: float) -> dict:
        own = self.self_times()
        durations = np.array(self.ends) - np.array(self.starts)
        layer = [LAYER_OF.get(n, n) for n in self.names]
        out: dict[str, tuple[float, str]] = {}

        def spans(prefix):
            return [i for i, lay in enumerate(layer) if lay == prefix]

        def busy(prefix):
            out[f"{prefix}.busy_s"] = (float(sum(own[i] for i in spans(prefix))), "s")

        def exponent(prefix, size_of):
            points = [(size_of(i), durations[i]) for i in spans(prefix) if not self.failed[i]]
            points = [(s, d) for s, d in points if s and s > 0 and d > 0]
            out[f"{prefix}.exponent"] = (_slope(points), "1")

        def words(prefix):
            out[f"{prefix}.words"] = (float(sum(self.words.get(i, 0) for i in spans(prefix))),
                                      "count")

        for prefix in ("process.hankel", "process.equiv", "process.axioms", "process.rank",
                       "process.row_basis", "chain.finitary_to_qpm", "chain.qrw_to_qmc",
                       "chain.convert", "chain.validate", "chain.eval", "asymptotics.cesaro",
                       "asymptotics.probe", "asymptotics.letters", "models.sample",
                       "models.eval", "hidden.viterbi", "hidden.bell", "io.load", "io.save"):
            busy(prefix)
        for command in CLI_COMMANDS:
            busy(f"cli.{command}")

        out["process.hankel.entries"] = (
            float(sum(self.sizes.get(i, 0) for i in spans("process.hankel"))), "count")
        exponent("process.hankel", lambda i: self.sizes.get(i))
        words("process.equiv")
        exponent("process.equiv", lambda i: self.words.get(i, 0))
        words("process.axioms")
        chosen = [self.sizes[i] for i in spans("process.row_basis") if i in self.sizes]
        rows = sum(r for _, r in chosen)
        out["process.row_basis.chosen_ratio"] = (sum(c for c, _ in chosen) / rows if rows else 0.0,
                                                 "ratio")
        exponent("chain.qrw_to_qmc", lambda i: self.sizes.get(i))
        exponent("chain.validate", lambda i: self.sizes.get(i))
        words("chain.validate")
        cesaro = [self.sizes[i] for i in spans("asymptotics.cesaro") if i in self.sizes]
        out["asymptotics.cesaro.doublings"] = (
            float(sum(math.log2(it) for it, _, _ in cesaro if it)), "count")
        out["asymptotics.cesaro.krylov_dim"] = (float(sum(k for _, k, _ in cesaro if k)), "count")
        out["asymptotics.cesaro.cross_difference"] = (
            float(max((x for _, _, x in cesaro), default=0.0)), "1")
        out["models.sample.draws"] = (
            float(sum(self.sizes.get(i, 0) for i in spans("models.sample"))), "count")
        out["models.sample.failed"] = (
            float(sum(self.failed[i] for i in spans("models.sample"))), "count")
        out["models.eval.symbols"] = (
            float(sum(v for k, v in self.symbols.items() if k.startswith("models."))), "count")
        out["hidden.viterbi.steps"] = (
            float(sum(self.sizes.get(i, 0) for i in spans("hidden.viterbi"))), "count")
        exponent("hidden.viterbi", lambda i: self.sizes.get(i))
        out["io.load.calls"] = (float(len(spans("io.load"))), "count")
        out["io.load.bytes"] = (float(sum(self.sizes.get(i, 0) for i in spans("io.load"))), "B")
        out["io.save.bytes"] = (float(sum(self.sizes.get(i, 0) for i in spans("io.save"))), "B")
        for name in ("models.eval.underflow", "chain.eval.underflow", "hidden.viterbi.zero_weight",
                     "io.roundtrip.mismatches", "cli.exit_mismatch"):
            out[name] = (float(counters.get(name, 0)), "count")
        for lay in LAYERS:
            out[f"{lay}.max_err"] = (float(max_err.get(lay, 0.0)), "1")
        out["trace.overhead_ratio"] = (float(overhead_ratio), "ratio")
        return out


def _slope(points) -> float:
    """Least-squares slope of log(time) against log(size); 0 without two distinct sizes."""
    if len({s for s, _ in points}) < 2:
        return 0.0
    x = np.log([s for s, _ in points])
    y = np.log([d for _, d in points])
    return float(np.polyfit(x, y, 1)[0])
