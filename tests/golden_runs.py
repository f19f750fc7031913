"""The pinned CLI runs and their golden files in ``tests/golden/``.

Each run is one CLI invocation on the shipped fixtures; its golden holds
the exit code and the output with the parts that vary between machines
removed.  A run report becomes ``canonical_json([code, report])`` without
``wall_time_s`` and ``inputs`` (a ``.json`` golden); the sampled words
that ``simulate`` prints without ``--out`` become ``f"{code}\\n{text}"``
(a ``.txt`` golden).  ``test_io_cli.py`` compares every run with its
golden byte for byte.

To rewrite named goldens from the current code, after a change that moves
a report on purpose (the names are the test ids)::

    PYTHONPATH=src python tests/golden_runs.py rank_hmm2_3x3 stationary_hmm2.json

Nothing else is rewritten, so the diff under ``tests/golden/`` is the re-pin.
"""

from __future__ import annotations

import io
import json
import os
import sys
from pathlib import Path

from qpmkit.cli import run_command
from qpmkit.io import canonical_json

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _name(argv: list[str]) -> str:
    return "_".join(arg.removeprefix("--") for arg in argv)


def _runs() -> dict[str, list[str]]:
    """Every pinned run by name: its argv, with fixtures named by file name."""
    fixtures = sorted(path.name for path in FIXTURES.glob("*.json"))
    runs = []
    # every command on every fixture, refusals included
    for name in fixtures:
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
            runs.append([args[0], name] + args[1:])
    runs += [
        ["equiv", first, second]
        for i, first in enumerate(fixtures)
        for second in fixtures[i + 1 :]
    ]
    named = {_name(argv): argv for argv in runs}
    # the Hankel runs at a size other than the default, recorded before the
    # Hankel analysis moved from the N×N matrix to its factors
    for model in ("coin_finitary", "hmm2", "hmm3_rank3", "qrw_hadamard", "swap_ffmc",
                  "swap_qmc", "unbounded_qpm"):
        named[f"rank_{model}_3x3"] = ["rank", f"{model}.json", "--rows", "3", "--cols", "3"]
    return named


RUNS = _runs()


def golden_text(code: int, text: str) -> tuple[str, str]:
    """The golden file suffix and text of a run that exited ``code`` and printed ``text``."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return ".txt", f"{code}\n{text}"
    del report["wall_time_s"], report["inputs"]
    return ".json", canonical_json([code, report])


def render(name: str) -> tuple[Path, str]:
    """Run ``name`` now: the path of its golden file and the text it should hold."""
    argv = [str(FIXTURES / arg) if arg.endswith(".json") else arg for arg in RUNS[name]]
    buffer = io.StringIO()
    code = run_command(argv, buffer)
    suffix, text = golden_text(code, buffer.getvalue())
    return GOLDEN / f"{name}{suffix}", text


def rewrite(name: str) -> Path:
    path, text = render(name)
    for suffix in (".json", ".txt"):  # a run may have changed kind of output
        GOLDEN.joinpath(f"{name}{suffix}").unlink(missing_ok=True)
    path.write_bytes(text.encode())
    return path


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in RUNS]
    if not names or unknown:
        print(f"usage: golden_runs.py NAME...; unknown names: {unknown}", file=sys.stderr)
        return 64
    os.environ.pop("QPMKIT_CONFIG", None)  # goldens record the built-in defaults
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        print(rewrite(name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
