from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import qpmkit as qk
from qpmkit.io import load_model

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session", autouse=True)
def warm_blas():
    """One threaded 256×256 ``eigvalsh`` before the first test.

    The process's first threaded BLAS call then falls outside every
    wall-time gate, also when a gated test runs on its own.
    """
    x = np.arange(256.0)
    np.linalg.eigvalsh(np.cos(np.add.outer(x, x)))


@pytest.fixture(scope="session")
def hmm2() -> qk.HmmParam:
    return load_model(FIXTURES / "hmm2.json")


@pytest.fixture(scope="session")
def hmm3_rank3() -> qk.HmmParam:
    return load_model(FIXTURES / "hmm3_rank3.json")


@pytest.fixture(scope="session")
def coin_finitary() -> qk.FinitaryParam:
    return load_model(FIXTURES / "coin_finitary.json")


@pytest.fixture(scope="session")
def qrw_hadamard() -> qk.QrwParam:
    return load_model(FIXTURES / "qrw_hadamard.json")


@pytest.fixture(scope="session")
def swap_qmc() -> qk.QuantumChain:
    return load_model(FIXTURES / "swap_qmc.json")


@pytest.fixture(scope="session")
def swap_ffmc() -> qk.FfmcParam:
    return load_model(FIXTURES / "swap_ffmc.json")


@pytest.fixture(scope="session")
def unbounded_qpm() -> qk.QuantumChain:
    return load_model(FIXTURES / "unbounded_qpm.json")


@pytest.fixture(scope="session")
def bell_file():
    return load_model(FIXTURES / "bell5.json")


@pytest.fixture(scope="session")
def feynman_file():
    return load_model(FIXTURES / "feynman4.json")


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)
