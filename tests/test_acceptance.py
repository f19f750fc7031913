"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import qpmkit as qk
from qpmkit.cli import _default_truncation, run_command
from qpmkit.hidden import HiddenStateBasis, InformationFunction
from qpmkit.io import model_to_dict

from helpers import random_hmm, random_local_qrw, random_qmc
from oracles import (
    doubling_limit_reference,
    forward_log_reference,
    hmm_path_log_weight,
    hmm_viterbi_enumerate,
    hmm_viterbi_log,
    prefix_average_letter,
    prefix_product_reference,
    qrw_collapse_prob,
    sample_reference,
)

AB = qk.Alphabet(("a", "b"))
FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, name: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeds the {limit_s}s budget"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")


def test_01_bell_counterexample(bell_file):
    with criterion(1, "five-state bell counterexample", 1.0):
        density = bell_file.density
        basis = HiddenStateBasis.standard(5, bell_file.labels)
        f = bell_file.functions
        check = qk.bell_check(density, basis, f["X"], f["Y"], f["Z"])
        assert abs(check.expectations["XY"] - 1.0) <= 1e-12
        assert abs(check.expectations["YZ"] + 1 / 3) <= 1e-12
        assert abs(check.expectations["XZ"] - 1.0) <= 1e-12
        assert all(check.pair_observable.values())
        assert not check.jointly_observable
        assert set(check.joint_report.offending) == {(-1, 1, 1)}
        assert abs(check.joint_report.offending[(-1, 1, 1)] + 1 / 3) <= 1e-12
        assert not check.satisfied
        assert abs(check.lhs - 4 / 3) <= 1e-12
        assert abs(check.rhs) <= 1e-12


def test_02_spin_preparation_example(feynman_file):
    with criterion(2, "four-state spin-preparation example", 1.0):
        density = feynman_file.density
        basis = HiddenStateBasis.standard(4, feynman_file.labels)
        x, z = feynman_file.functions["X"], feynman_file.functions["Z"]
        p_x = qk.induced_distribution(density, basis, x)
        assert abs(p_x.distribution["+"] - 3 / 4) <= 1e-12
        assert abs(p_x.distribution["-"] - 1 / 4) <= 1e-12
        assert p_x.observable
        p_z = qk.induced_distribution(density, basis, z)
        assert abs(p_z.distribution["+"] - 1.0) <= 1e-12
        assert abs(p_z.distribution["-"]) <= 1e-12
        assert p_z.observable
        joint = qk.joint_observability(density, basis, (x, z))
        assert not joint.observable
        assert abs(joint.offending[("-", "-")] + 1 / 8) <= 1e-12


def test_03_conversion_coherence():
    with criterion(3, "four-evaluator conversion coherence", 30.0):
        rng = np.random.default_rng(301)
        for _ in range(20):
            hmm = random_hmm(rng)
            finitary = qk.hmm_to_finitary(hmm)
            markov = qk.hmm_to_qmc(hmm)
            predictor = qk.finitary_to_qpm(finitary)
            for word in qk.words_up_to(hmm.alphabet, 5):
                base = qk.hmm_eval(hmm, word)
                assert abs(qk.finitary_eval(finitary, word) - base) <= 1e-9
                assert abs(qk.chain_eval(markov, word) - base) <= 1e-9
                assert abs(qk.chain_eval(predictor, word) - base) <= 1e-9


def test_04_qrw_semantics(qrw_hadamard):
    with criterion(4, "quantum-walk chain vs wave-collapse oracle", 30.0):
        rng = np.random.default_rng(401)
        walks = [qrw_hadamard]
        for nodes, coins in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 1)):
            walks.append(random_local_qrw(rng, nodes, coins))
        for qrw in walks:
            assert qrw.dim <= 8
            chain = qk.qrw_to_qmc(qrw)
            for word in qk.words_up_to(qrw.nodes, 4):
                assert abs(
                    qk.chain_eval(chain, word) - qrw_collapse_prob(qrw, word)
                ) <= 1e-10
            for depth in range(1, 5):
                total = sum(
                    qk.chain_eval(chain, w) for w in qk.words_of_length(qrw.nodes, depth)
                )
                assert abs(total - 1.0) <= 1e-9


def test_05_hankel_rank(hmm2, hmm3_rank3, coin_finitary):
    with criterion(5, "hankel rank bounds", 10.0):
        coin = qk.finitary_process(coin_finitary)
        for depth in (1, 2, 3):
            assert qk.numerical_rank(qk.build_hankel(coin, depth, depth)) == 1
        for hmm in (hmm2, hmm3_rank3):
            depth = hmm.n_states
            hankel = qk.build_hankel(qk.hmm_process(hmm), depth, depth)
            assert qk.numerical_rank(hankel) <= hmm.n_states
        rank3 = qk.build_hankel(qk.hmm_process(hmm3_rank3), 3, 3)
        assert qk.numerical_rank(rank3) == 3


def test_06_averaged_limits(swap_qmc):
    with criterion(6, "averaged stationary limits", 60.0):
        swap = qk.cesaro_limit(swap_qmc)
        assert np.max(np.abs(swap.limit.matrix - np.diag([0.5, 0.5]))) <= 1e-8
        rng = np.random.default_rng(601)
        flavors = ["hmm", "povm", "unitary", "qrw"]
        for index in range(10):
            chain = random_qmc(rng, flavors[index % len(flavors)])
            result = qk.cesaro_limit(chain)
            doubling, _ = doubling_limit_reference(chain)
            doubling = doubling / float(doubling @ chain.subspace.traces)
            assert chain.subspace.norm(result.coords - doubling) <= 1e-6
            assert result.stationarity_residual <= 1e-7
            assert abs(np.trace(result.limit.matrix).real - 1.0) <= 1e-8
            assert np.linalg.eigvalsh(result.limit.matrix).min() >= -1e-8


def test_07_stationary_letter_distribution(qrw_hadamard):
    with criterion(7, "stationary letters vs prefix averages", 60.0):
        chain = qk.qrw_to_qmc(qrw_hadamard)
        result = qk.cesaro_limit(chain)
        for symbol in chain.alphabet:
            empirical = prefix_average_letter(chain, symbol, 10_000)
            stationary = qk.stationary_word_probability(chain, (symbol,), result)
            assert abs(stationary - empirical) <= 1e-3


def test_08_viterbi_equivalence():
    with criterion(8, "hidden-path dynamic program vs enumeration", 30.0):
        rng = np.random.default_rng(801)
        for _ in range(20):
            hmm = random_hmm(rng)
            chain = qk.hmm_to_qmc(hmm)
            basis = HiddenStateBasis.standard(hmm.n_states, hmm.states)
            for word in qk.words_up_to(hmm.alphabet, 4):
                expected_path, expected_weight = hmm_viterbi_enumerate(hmm, word)
                result = qk.viterbi_hidden_path(chain, basis, word)
                assert abs(result.weight - expected_weight) <= 1e-10
                assert result.path == tuple(hmm.states[i] for i in expected_path)


def test_09_boundedness(hmm2, hmm3_rank3, qrw_hadamard, swap_qmc, swap_ffmc, unbounded_qpm):
    with criterion(9, "orbit boundedness probes", 10.0):
        markov_chains = [
            qk.hmm_to_qmc(hmm2),
            qk.hmm_to_qmc(hmm3_rank3),
            qk.hmm_to_qmc(swap_ffmc.to_hmm()),
            qk.qrw_to_qmc(qrw_hadamard),
            swap_qmc,
        ]
        for chain in markov_chains:
            probe = qk.boundedness_probe(chain, 100)
            assert probe.max_square_trace <= 1 + 1e-9
        assert qk.boundedness_probe(unbounded_qpm, 100).growing


def test_10_quantum_density_sanity_sweep():
    with criterion(10, "random quantum densities never violate the bound", 30.0):
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            mat = raw @ raw.conj().T
            density = qk.Density.quantum(mat / np.trace(mat).real)
            basis = HiddenStateBasis.standard(n)
            x, y, z = (
                InformationFunction(
                    name,
                    dict(
                        zip(basis.labels, (int(v) for v in rng.choice([-1, 1], size=n)))
                    ),
                    (-1, 1),
                )
                for name in "XYZ"
            )
            check = qk.bell_check(density, basis, x, y, z)
            assert check.satisfied
            assert check.jointly_observable
            assert min(check.joint_report.distribution.values()) >= -1e-9


def test_11_long_horizon_viterbi():
    with criterion(11, "hidden path over 1600 symbols, 8 states", 2.0):
        rng = np.random.default_rng(1101)
        hmm = random_hmm(rng, 8, 3)
        chain = qk.hmm_to_qmc(hmm)
        basis = HiddenStateBasis.standard(8, hmm.states)
        word = tuple(rng.choice(hmm.alphabet.symbols, size=1600))
        result = qk.viterbi_hidden_path(chain, basis, word)
        best = hmm_viterbi_log(hmm, word)
        path = [hmm.states.index(label) for label in result.path]
        assert len(path) == 1601
        assert np.isfinite(result.log_weight) and result.sign == 1
        assert abs(result.log_weight - best) <= 1e-9 * abs(best)
        assert abs(hmm_path_log_weight(hmm, word, path) - best) <= 1e-9 * abs(best)


def test_12_walk_chain_at_dimension_16():
    with criterion(12, "8-node two-coin walk to a validated chain", 1.5):
        qrw = random_local_qrw(np.random.default_rng(1201), 8, 2)
        assert qrw.dim == 16
        chain = qk.qrw_to_qmc(qrw)
        report = qk.validate_chain(chain)
        assert report.ok
        assert len(report.evidence) == 8
        assert all("completely positive (Choi PSD)" in note for note in report.evidence)
        for word in qk.words_up_to(qrw.nodes, 2):
            assert abs(qk.chain_eval(chain, word) - qrw_collapse_prob(qrw, word)) <= 1e-10


def test_13_batched_walk_sampling():
    with criterion(13, "64 walk trajectories of 500 symbols at dimension 16", 0.5):
        qrw = random_local_qrw(np.random.default_rng(1301), 8, 2)
        assert qrw.dim == 16
        words = qk.sample_trajectories(qrw, 500, 64, seed=1302)
    assert len(words) == 64 and all(len(word) == 500 for word in words)
    # one stream, read row by row: the reference draws the first four words in turn
    stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(1302)))
    assert words[:4] == sample_reference(qrw, 500, [stream] * 4)


def test_14_walk_chain_file_round_trip(tmp_path):
    path = tmp_path / "walk16_qmc.json"
    chain = qk.qrw_to_qmc(random_local_qrw(np.random.default_rng(1201), 8, 2))
    with criterion(14, "save and load the dimension-16 walk chain", 1.0):
        text = qk.save_model(chain, path)
        loaded = qk.load_model(path)
    assert qk.save_model(loaded) == text
    assert loaded.subspace.basis.tobytes() == chain.subspace.basis.tobytes()


def test_15_factor_space_hankel_analysis():
    hmm = random_hmm(np.random.default_rng(1501), 6, 3)
    finitary = qk.hmm_to_finitary(hmm)
    with criterion(15, "predictor model of a 6-state, 3-letter HMM at horizon 6", 0.1):
        predictor = qk.finitary_to_qpm(finitary)
    for word in qk.words_up_to(hmm.alphabet, 4):
        assert abs(qk.chain_eval(predictor, word) - qk.hmm_eval(hmm, word)) <= 1e-12
    with criterion(15, "1093×1093 Hankel, its rank and row basis", 0.1):
        hankel = qk.build_hankel(qk.hmm_process(hmm), 6, 6)
        rank = qk.numerical_rank(hankel)
        basis = qk.select_row_basis(hankel)
    assert hankel.matrix.shape == (1093, 1093)
    assert len(basis) == rank == predictor.subspace.dim


def test_16_canonical_basis_without_a_dense_gram():
    with criterion(16, "canonical Hermitian basis at dimension 32", 0.1):
        sub = qk.OperatorSubspace.full(32)
    assert sub.is_canonical and sub.dim == 1024
    assert np.array_equal(sub.gram, np.diag(np.diag(sub.gram)))
    assert np.abs(np.diag(sub.gram) - 1.0).max() <= 1e-15


def _as_lists(value):
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def test_17_walk_chain_written_from_arrays():
    chain = qk.qrw_to_qmc(random_local_qrw(np.random.default_rng(1201), 8, 2))
    nested = _as_lists(model_to_dict(chain))  # the payload as the list writer took it
    with criterion(17, "write the dimension-16 walk chain from its arrays", 1.0):
        from_arrays, from_lists = [], []
        for _ in range(3):  # interleaved, so a change of host speed hits both
            started = time.perf_counter()
            text = qk.save_model(chain)
            from_arrays.append(time.perf_counter() - started)
            started = time.perf_counter()
            want = qk.canonical_json(nested)
            from_lists.append(time.perf_counter() - started)
        assert text == want
        assert min(from_arrays) <= 0.6 * min(from_lists)


def test_18_stationary_limit_on_the_orbit_at_dimension_32():
    chain = qk.qrw_to_qmc(random_local_qrw(np.random.default_rng(1801), 16, 2))
    assert chain.subspace.dim == 1024
    with criterion(18, "Cesàro limit of the dimension-32 walk chain", 0.1):
        result = qk.cesaro_limit(chain)
    doubling, _ = doubling_limit_reference(chain)
    doubling = doubling / float(doubling @ chain.subspace.traces)
    assert chain.subspace.norm(result.coords - doubling) <= 1e-8
    assert result.stationarity_residual <= 1e-7
    assert result.invariance_residual <= 1e-12
    assert np.trace(result.limit.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_19_long_words_step_once_per_block():
    rng = np.random.default_rng(1901)
    hmm = random_hmm(rng, 8, 3)
    chain = qk.hmm_to_qmc(hmm)
    assert chain.subspace.dim == 8
    letters = [int(a) for a in rng.integers(3, size=2000)]
    word = tuple(hmm.alphabet.symbols[a] for a in letters)
    hmm_matrices = [hmm.emission[:, i][:, None] * hmm.transition for i in range(3)]
    chain_matrices = list(chain.operators)
    chain_start, traces = chain.initial_coords, chain.subspace.traces
    runs = {
        "hmm_eval": (
            lambda: qk.hmm_eval(hmm, word),
            lambda: prefix_product_reference(hmm.initial, hmm_matrices, letters),
        ),
        "chain_eval": (
            lambda: qk.chain_eval(chain, word),
            lambda: prefix_product_reference(chain_start, chain_matrices, letters, traces),
        ),
    }
    log = forward_log_reference(hmm.initial, hmm_matrices, letters)
    assert log < -745  # below the double range: the value reads 0.0, as the loop's does
    with criterion(19, "2000-letter words at most 0.6x the per-letter loop's time", 2.0):
        for name, (evaluate, reference) in runs.items():
            fast, plain = [], []
            for _ in range(7):  # interleaved, so a change of host speed hits both
                started = time.perf_counter()
                value = evaluate()
                fast.append(time.perf_counter() - started)
                started = time.perf_counter()
                want = reference()
                plain.append(time.perf_counter() - started)
            assert value == want == 0.0, name
            assert np.median(fast) <= 0.6 * np.median(plain), name


def _fresh_cli(*args) -> tuple[int, dict, float]:
    """``python -m qpmkit`` in a new process at one BLAS thread: exit code, report, peak RSS (MB)."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(qk.__file__).parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-m", "qpmkit", *map(str, args)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, json.loads(out), usage.ru_maxrss / 1024  # ru_maxrss is in KiB


def test_20_hankel_analysis_without_the_block(tmp_path):
    hmm2 = FIXTURES / "hmm2.json"
    code, _, baseline = _fresh_cli("eval", hmm2, "--word", "ab")
    assert code == 0
    with criterion(20, "rank of hmm2 at L = 14 without its 32767×32767 block", 30.0):
        code, report, peak = _fresh_cli("rank", hmm2, "--rows", 14, "--cols", 14)
    assert code == 0, report
    assert report["results"]["shape"] == [32767, 32767]
    assert report["results"]["numerical_rank"] == 2
    assert report["wall_time_s"] < 0.1
    assert peak - baseline < 60, f"peak RSS {peak:.0f} MB against {baseline:.0f} MB for eval"
    model = tmp_path / "hmm12.json"
    model.write_text(qk.save_model(random_hmm(np.random.default_rng(5), 12, 2)))
    with criterion(20, "predictor model of a 12-state, 2-letter HMM at horizon 12", 30.0):
        code, report, peak = _fresh_cli("convert", model, "--to", "qpm", "--out", tmp_path / "q.json")
    # the basis is cut at rounding level, so the fit is exact and its file loads
    assert code == 0, report
    assert peak - baseline < 60, f"peak RSS {peak:.0f} MB against {baseline:.0f} MB for eval"
    code, report, _ = _fresh_cli("validate", tmp_path / "q.json")
    assert (code, report["results"]["valid"]) == (0, True), report


def test_21_walk_block_form_at_ambient_32():
    qrw = random_local_qrw(np.random.default_rng(11), 16, 2)
    assert qrw.dim == 32
    # 0.5 s, not 0.1 s: single-call 0.1-s bounds have failed on a loaded host
    with criterion(21, "block form, rank and self-equivalence of the dimension-32 walk", 0.5):
        process = qk.qrw_process(qrw)
        form = process.linear
        depth = _default_truncation(len(qrw.nodes), form.dim)
        hankel = qk.build_hankel(process, depth, depth)
        rank = qk.numerical_rank(hankel)
        witness = qk.distinguishing_word(process, process)
    assert form.dim == 16 * 2**2 + 1
    assert witness is None
    assert len(qk.select_row_basis(hankel)) == rank <= form.dim
    for length in (0, 1, 50, 200):
        word = qk.sample_trajectory(qrw, length, seed=2100 + length)
        expected = qrw_collapse_prob(qrw, word)
        assert abs(qk.qrw_eval(qrw, word) - expected) <= 1e-13 * expected


def test_22_walk_stationary_on_its_block_form_at_ambient_32(tmp_path):
    walk = random_local_qrw(np.random.default_rng(11), 16, 2)
    path = tmp_path / "walk32.json"
    path.write_text(qk.save_model(walk))
    chain = qk.qrw_to_qmc(walk)
    want = qk.stationary_letter_distribution(chain, qk.cesaro_limit(chain))
    # 0.5 s, test 21's bound for a loaded host.  Through the (N·k)² = 1024
    # coordinates of the walk's chain the command took 0.77-1.18 s on a
    # 2-core Xeon; on the 65-coordinate block form it takes milliseconds
    with criterion(22, "stationary on the dimension-32 walk file, load included", 0.5):
        buffer = io.StringIO()
        code = run_command(["stationary", str(path)], buffer)
    assert code == 0, buffer.getvalue()
    results = json.loads(buffer.getvalue())["results"]
    assert results["letter_distribution"].keys() == want.keys()
    for symbol, value in want.items():
        assert abs(results["letter_distribution"][symbol] - value) <= 1e-12
