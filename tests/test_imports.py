"""No path loads scipy, and chain loads do not load ``numpy.random``.

``import qpmkit``, every load, every command on the shipped model kinds
(``stationary`` with both methods among them) and Gram solves on a
non-diagonal basis run on numpy alone; scipy is a test-only dependency.
Loading a quantum Markov chain validates it, and only the sampled
positivity searches draw random numbers, so chains whose positivity is
proved exactly load without ``numpy.random``.  Each case runs in a fresh
interpreter, because the test process has scipy and ``numpy.random``
loaded already, and the stationary and Gram-solve cases block the scipy
import outright (``sys.modules['scipy'] = None``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpmkit as qk

FIXTURES = Path(__file__).parent / "fixtures"

_PRELUDE = """
import io, json, sys
from pathlib import Path
import qpmkit, qpmkit.cli
from qpmkit.io import load_model

fixtures, scratch = Path(sys.argv[1]), Path(sys.argv[2])

def run(*argv):
    return qpmkit.cli.run_command([str(a) for a in argv], stdout=io.StringIO())

def scipy_modules():
    return sorted(
        name for name, module in sys.modules.items()
        if name.split(".")[0] == "scipy" and module is not None
    )
"""

_NUMPY_ONLY = _PRELUDE + """
for path in sorted(fixtures.glob("*.json")):
    try:
        load_model(path)
    except qpmkit.QpmkitError:
        pass  # bad_hmm_rowsum.json is refused on load
walk_chain = scratch / "walk_qmc.json"
walk = fixtures / "qrw_hadamard.json"
codes = {"convert-walk": run("convert", walk, "--to", "qmc", "--out", walk_chain)}
inputs = {
    "hmm": fixtures / "hmm2.json",
    "finitary": fixtures / "coin_finitary.json",
    "ffmc": fixtures / "swap_ffmc.json",
    "walk": walk,
    "unit-diagonal chain": fixtures / "swap_qmc.json",
    "unit-diagonal predictor": fixtures / "unbounded_qpm.json",
    "canonical walk chain": walk_chain,
}
for name, path in inputs.items():
    markov = name not in ("finitary", "unit-diagonal predictor")
    targets = ["finitary", "qpm"] + (["qmc"] if markov else [])
    codes[name] = [
        run("validate", path),
        run("eval", path, "--word", "a"),
        run("rank", path),
        run("equiv", path, path),
    ] + [run("convert", path, "--to", target) for target in targets]
codes["simulate"] = [
    run("simulate", inputs[name], "--length", 5, "--count", 3)
    for name in ("hmm", "walk", "canonical walk chain")
]
codes["hidden-path"] = [
    run("hidden-path", inputs[name], "--word", "ab") for name in ("hmm", "ffmc", "walk")
]
codes["bell"] = [run("bell", fixtures / "bell5.json")]
print(json.dumps({
    "codes": codes,
    "canonical": bool(load_model(walk_chain).subspace.is_canonical),
    "scipy": scipy_modules(),
}))
"""

_BLOCKED = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
""" + _PRELUDE

_STATIONARY = _BLOCKED + """
codes = {
    name: run("stationary", fixtures / name, "--method", sys.argv[3])
    for name in ("hmm2.json", "qrw_hadamard.json", "swap_qmc.json", "coin_finitary.json")
}
print(json.dumps({"codes": codes, "scipy": scipy_modules()}))
"""

_DENSE_GRAM = _BLOCKED + """
import numpy as np
from qpmkit.chain import OperatorSubspace
sub = OperatorSubspace([np.eye(2), np.array([[1.0, 1.0], [1.0, 0.0]])])
coords = sub.expand(0.3 * np.eye(2) - 1.7 * np.array([[1.0, 1.0], [1.0, 0.0]]))
print(json.dumps({
    "diagonal": sub._inv_sqrt_diag is not None,
    "coords": coords.tolist(),
    "scipy": scipy_modules(),
}))
"""

_LAZY_RANDOM = _PRELUDE + """
import numpy as np
from qpmkit.chain import ChainKind, OperatorSubspace, QuantumChain, validate_chain

def random_loaded():
    return "numpy.random" in sys.modules

loads = {}
for path in sys.argv[3:]:
    load_model(path)
    loads[Path(path).name] = [random_loaded(), run("validate", path), random_loaded()]

def findings(sub, action, initial):
    # two letters that each take half of the map share one stream of draws
    op = sub.expand_all(np.stack([0.5 * action(b) for b in sub.basis]))
    chain = QuantumChain(
        qpmkit.Alphabet(("a", "b")), sub, np.stack([op, op]),
        qpmkit.Density.quantum(initial), ChainKind.QMC,
    )
    report = validate_chain(chain)
    return [v.message for v in report.violations] + list(report.evidence)

pauli = OperatorSubspace([np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)])
sampled = {
    "pure": findings(
        OperatorSubspace.full(2), lambda q: 2.0 * q - q.T, np.diag([0.7, 0.3]).astype(complex)
    ),
    "nonnegative": findings(
        pauli, lambda q: 1.5 * np.trace(q) * np.eye(2) - 2.0 * q, np.eye(2, dtype=complex) / 2
    ),
}
print(json.dumps({"loads": loads, "sampled": sampled, "random": random_loaded()}))
"""


def _run(script: str, *args) -> dict:
    src = Path(qk.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_load_and_every_numpy_command_leave_scipy_unloaded(tmp_path):
    result = _run(_NUMPY_ONLY, FIXTURES, tmp_path)
    assert result["canonical"]
    codes = result["codes"]
    assert codes.pop("convert-walk") == 0
    assert codes == {
        name: [0] * count
        for name, count in [
            ("hmm", 7),
            ("finitary", 6),
            ("ffmc", 7),
            ("walk", 7),
            ("unit-diagonal chain", 7),
            ("unit-diagonal predictor", 6),
            ("canonical walk chain", 7),
            ("simulate", 3),
            ("hidden-path", 3),
            ("bell", 1),
        ]
    }
    assert result["scipy"] == []


@pytest.mark.parametrize("method", ["spectral", "iterative"])
def test_stationary_leaves_scipy_unloaded(tmp_path, method):
    result = _run(_STATIONARY, FIXTURES, tmp_path, method)
    assert result["codes"] == {
        "hmm2.json": 0,
        "qrw_hadamard.json": 0,
        "swap_qmc.json": 0,
        "coin_finitary.json": 0,
    }
    assert result["scipy"] == []


def test_dense_gram_solve_leaves_scipy_unloaded(tmp_path):
    result = _run(_DENSE_GRAM, FIXTURES, tmp_path)
    assert not result["diagonal"]
    assert result["coords"] == pytest.approx([0.3, -1.7], abs=1e-14)
    assert result["scipy"] == []


def test_chain_loads_leave_numpy_random_unloaded(tmp_path):
    hmm_chain = tmp_path / "hmm2_qmc.json"
    hmm_chain.write_text(qk.save_model(qk.hmm_to_qmc(qk.load_model(FIXTURES / "hmm2.json"))))
    walk_chain = tmp_path / "walk_qmc.json"
    walk_chain.write_text(
        qk.save_model(qk.qrw_to_qmc(qk.load_model(FIXTURES / "qrw_hadamard.json")))
    )
    result = _run(_LAZY_RANDOM, FIXTURES, tmp_path, FIXTURES / "swap_qmc.json", hmm_chain, walk_chain)
    assert result["loads"] == {
        "swap_qmc.json": [False, 0, False],
        "hmm2_qmc.json": [False, 0, False],
        "walk_qmc.json": [False, 0, False],
    }
    # the searches that draw still see the same numbers, letter after letter
    assert result["sampled"] == {
        "pure": [
            "operator 'a' maps a pure density to eigenvalue -0.14386528409254584",
            "operator 'b' maps a pure density to eigenvalue -0.2727762264605369",
        ],
        "nonnegative": [
            "operator 'a' maps a nonnegative element to eigenvalue -0.06605243164565094",
            "operator 'b' maps a nonnegative element to eigenvalue -0.18079752745474242",
        ],
    }
    assert result["random"]
