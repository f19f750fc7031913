"""Which paths load scipy.

``import qpmkit``, every load, and every command but ``stationary`` on
the shipped model kinds run on numpy alone.  scipy is imported by the
Cesàro spectral route, which every ``stationary`` run takes (the
iterative method cross-checks against it), and by Gram solves on a
non-diagonal basis.  Each case runs in a fresh interpreter, because the
test process has scipy loaded already.
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
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
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

_STATIONARY = _PRELUDE + """
before = scipy_modules()
code = run("stationary", fixtures / "hmm2.json", "--method", sys.argv[3])
print(json.dumps({"before": before, "code": code, "scipy": scipy_modules()}))
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
def test_stationary_imports_scipy_for_the_spectral_route(tmp_path, method):
    result = _run(_STATIONARY, FIXTURES, tmp_path, method)
    assert result["before"] == []
    assert result["code"] == 0
    assert "scipy.linalg" in result["scipy"]
