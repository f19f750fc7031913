import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpmkit as qk
from qpmkit import asymptotics
from qpmkit.chain import ChainKind, OperatorSubspace, QuantumChain
from qpmkit.cli import _lower
from qpmkit.config import DEFAULTS
from qpmkit.errors import (
    ConsistencyError,
    DimensionMismatchError,
    DivergenceError,
    NumericError,
    ValidationError,
)
from qpmkit.io import load_model

from helpers import (
    random_hmm,
    random_local_qrw,
    random_qmc,
    random_quantum_density,
    random_unitary,
    single_letter_chain,
)
from oracles import (
    cesaro_brute,
    doubling_limit_reference,
    prefix_average_letter,
    spectral_limit_reference,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _orbit(source):
    """The orbit's Krylov space, as ``cesaro_limit`` builds it for a chain or a process."""
    return asymptotics._orbit(asymptotics._read(source))


class TestBoundednessProbe:
    def test_markov_chains_stay_below_one(self, hmm2, qrw_hadamard, swap_qmc):
        chains = [qk.hmm_to_qmc(hmm2), qk.qrw_to_qmc(qrw_hadamard), swap_qmc]
        for chain in chains:
            probe = qk.boundedness_probe(chain, 100)
            assert probe.max_square_trace <= 1 + 1e-9
            assert not probe.growing

    def test_identity_evolution_is_constant(self):
        chain = single_letter_chain(np.eye(2), [0.3, 0.7])
        probe = qk.boundedness_probe(chain, 50)
        assert np.allclose(probe.values, probe.values[0])
        assert not probe.growing

    def test_expanding_predictor_model_is_flagged(self, unbounded_qpm):
        probe = qk.boundedness_probe(unbounded_qpm, 100)
        assert probe.growing
        assert probe.max_square_trace > 100.0

    def test_bounded_purity_rise_is_not_growth(self):
        # a trace-preserving amplitude-damping chain: the purity rises from
        # 0.5 towards 1 (0.578 at t = 50, 0.701 at t = 100), yet every orbit
        # of a channel is bounded; the sampled maxima used to call it growing
        damping = {
            "a": np.array([[1.0, 0.0], [0.0, np.sqrt(0.99)]]),
            "b": np.array([[0.0, np.sqrt(0.01)], [0.0, 0.0]]),
        }
        chain = qk.povm_to_qmc(damping, qk.Density.quantum(np.eye(2, dtype=complex) / 2))
        probe = qk.boundedness_probe(chain, 100)
        assert probe.values[-1] > probe.values[50] > probe.values[0] == pytest.approx(0.5)
        assert not probe.growing
        assert probe.verdict == (
            "bounded: spectral radius 1.000000 <= 1 on the orbit span, "
            "peripheral spectrum semisimple"
        )

    def test_verdict_names_the_certificate(self, unbounded_qpm):
        probe = qk.boundedness_probe(unbounded_qpm, 10)
        assert probe.verdict == (
            "growing: evolution has spectral radius 1.050000 > 1 on the orbit span"
        )
        # radius one, but a Jordan block at eigenvalue one: the orbit grows linearly
        jordan = single_letter_chain([[1.0, 0.5], [0.0, 1.0]], [0.3, 0.7], ChainKind.QPM)
        probe = qk.boundedness_probe(jordan, 10)
        assert probe.growing
        assert probe.verdict == (
            "growing: unit-modulus eigenvalue 1.000000+0.000000j is defective "
            "(off-diagonal mass 5.000e-01) on the orbit span"
        )

    def test_values_are_squared_norms(self, hmm2):
        chain = qk.hmm_to_qmc(hmm2)
        probe = qk.boundedness_probe(chain, 5)
        coords = chain.initial_coords
        expected = float(np.trace(chain.subspace.reconstruct(coords) @
                                  chain.subspace.reconstruct(coords)).real)
        assert probe.values[0] == pytest.approx(expected, abs=1e-12)


def _unit_trace(coords, chain):
    return coords / float(coords @ chain.subspace.traces)


class TestCesaroLimit:
    def test_identity_evolution_returns_initial(self):
        chain = single_letter_chain(np.eye(2), [0.3, 0.7])
        result = qk.cesaro_limit(chain)
        assert np.allclose(result.limit.matrix, chain.initial.matrix, atol=1e-12)

    def test_swap_chain_averages_to_uniform(self, swap_qmc):
        results = [qk.cesaro_limit(swap_qmc, method=m) for m in ("iterative", "spectral")]
        for result in results:
            assert np.allclose(result.limit.matrix, np.diag([0.5, 0.5]), atol=1e-8)
            assert result.limit.kind is qk.DensityKind.QUANTUM
            assert result.krylov_dim == 2
            assert result.iterations is None and result.cross_difference == 0.0
        # both accepted names run the one projection
        assert np.array_equal(results[0].coords, results[1].coords)

    def test_matches_brute_force_running_average(self, hmm2):
        chain = qk.hmm_to_qmc(hmm2)
        result = qk.cesaro_limit(chain)
        brute = cesaro_brute(chain.total_matrix, chain.initial_coords, 200_000)
        assert chain.subspace.norm(result.coords - brute) <= 1e-4

    def test_rotation_without_fixed_wave_still_averages(self):
        # the wave average vanishes, the density average does not
        unitary = np.diag([1j, -1j])
        density = qk.pure_state_density(np.array([1.0, 1.0]) / np.sqrt(2))
        chain = qk.unitary_to_qmc(unitary, density)
        result = qk.cesaro_limit(chain)
        assert np.allclose(result.limit.matrix, np.diag([0.5, 0.5]), atol=1e-10)
        assert np.linalg.eigvalsh(result.limit.matrix).min() >= -1e-8

    def test_random_markov_chains_converge_consistently(self, rng):
        for flavor in ("hmm", "povm", "unitary", "qrw"):
            chain = random_qmc(rng, flavor)
            result = qk.cesaro_limit(chain)
            doubling, _ = doubling_limit_reference(chain)
            assert chain.subspace.norm(result.coords - _unit_trace(doubling, chain)) <= 1e-6
            assert result.stationarity_residual <= 1e-7
            assert np.trace(result.limit.matrix).real == pytest.approx(1.0, abs=1e-8)
            assert np.linalg.eigvalsh(result.limit.matrix).min() >= -1e-8

    def test_unbounded_chain_diverges(self, unbounded_qpm):
        for method in ("iterative", "spectral"):
            with pytest.raises(DivergenceError):
                qk.cesaro_limit(unbounded_qpm, method)
        with pytest.raises(DivergenceError):
            doubling_limit_reference(unbounded_qpm)

    def test_a_split_jordan_block_at_minus_one_has_no_limit(self):
        # S·J·S⁻¹ with a 2-block at -1: rows sum to 1, so the chain is trace
        # preserving, but its orbit grows linearly.  In rounding the block
        # splits into -0.99999999345 and -1.0000000065, 1.3e-8 apart, and each
        # used to pass as a simple eigenvalue on the unit circle.
        shear = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        jordan = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
        matrix = shear @ jordan @ np.linalg.inv(shear)
        chain = single_letter_chain(matrix, [0.2, 0.5, 0.3], ChainKind.QPM)
        assert qk.validate_chain(chain).ok
        # the Cesàro means alternate: [0.75, 0, 0.25] at even t, towards [1.25, 0, -0.25] at odd t
        coords, total, means = chain.initial_coords, np.zeros(3), {}
        for t in range(1, 4002):
            total, coords = total + coords, coords @ matrix
            means[t] = total / t
        assert means[4000] == pytest.approx([0.75, 0.0, 0.25], abs=1e-12)
        assert means[4001] == pytest.approx([1.25, 0.0, -0.25], abs=1e-3)
        probe = qk.boundedness_probe(chain, 10)
        assert probe.growing
        assert probe.verdict.startswith("growing: unit-modulus eigenvalue -1.000000")
        with pytest.raises(DivergenceError) as raised:
            qk.cesaro_limit(chain)
        assert type(raised.value) is DivergenceError
        assert str(raised.value).startswith("unit-modulus eigenvalue -1.000000")
        assert str(raised.value).endswith("is defective (off-diagonal mass 1.155e+00) on the orbit span")

    def test_tiny_horizon_cap_raises(self):
        # an irrational rotation averages out only at rate 1/t, so the
        # doubling reference gives up at its horizon cap
        unitary = np.diag([np.exp(0.7j), np.exp(-0.3j)])
        density = qk.pure_state_density(np.array([1.0, 1.0]) / np.sqrt(2))
        chain = qk.unitary_to_qmc(unitary, density)
        with pytest.raises(NumericError):
            doubling_limit_reference(chain, tol=1e-12, t_max=4)
        assert qk.cesaro_limit(chain).stationarity_residual <= 1e-12

    def test_unknown_method_rejected(self, swap_qmc):
        with pytest.raises(qk.ValidationError):
            qk.cesaro_limit(swap_qmc, "newton")

    def test_generalized_limit_for_predictor_models(self, hmm2):
        chain = qk.finitary_to_qpm(qk.hmm_to_finitary(hmm2))
        result = qk.cesaro_limit(chain)
        assert result.limit.kind is qk.DensityKind.GENERALIZED
        assert result.stationarity_residual <= 1e-7

    def test_non_orthonormal_basis_is_handled(self):
        # overlapping diagonal basis exercises the Gram-whitened spectral route
        sub = OperatorSubspace([np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex)])
        op = np.array([[0.5, 0.25], [0.0, 1.0]])
        chain = QuantumChain(
            qk.Alphabet(("a",)),
            sub,
            op[None],
            qk.Density.quantum(np.diag([0.7, 0.3]).astype(complex)),
            ChainKind.QPM,
        )
        result = qk.cesaro_limit(chain)
        doubling, _ = doubling_limit_reference(chain)
        assert sub.norm(result.coords - _unit_trace(doubling, chain)) <= 1e-6
        assert result.stationarity_residual <= 1e-7
        assert np.trace(result.limit.matrix).real == pytest.approx(1.0, abs=1e-8)

    def test_seed_177_unitary_chain_gets_its_limit(self):
        # eigenvalues 1, 1 and e^{±2.41i}: the running average converges like
        # 1/t and the doubling route used to stop short of stationarity
        rng = np.random.default_rng(177)
        chain = random_qmc(rng, str(rng.choice(["hmm", "povm", "unitary"])))
        _assert_matches_spectral_reference(chain)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
    def test_rotating_unitary_chains_get_their_limits(self, seed, n):
        rng = np.random.default_rng(seed)
        _assert_matches_spectral_reference(
            qk.unitary_to_qmc(random_unitary(rng, n), random_quantum_density(rng, n))
        )


def _assert_matches_spectral_reference(chain):
    reference, _, _ = spectral_limit_reference(chain)
    result = qk.cesaro_limit(chain)
    assert chain.subspace.norm(result.coords - _unit_trace(reference, chain)) <= 1e-10


class TestPeripheralSpectrum:
    def test_peripheral_spectrum_is_on_the_unit_circle(self, rng):
        for flavor in ("hmm", "povm", "unitary", "qrw"):
            result = qk.cesaro_limit(random_qmc(rng, flavor))
            moduli = np.abs(result.peripheral_spectrum)
            assert np.all(np.abs(moduli - 1.0) <= 1e-8)
            ones = np.abs(np.asarray(result.peripheral_spectrum) - 1.0) <= 1e-8
            assert int(ones.sum()) == result.fixed_space_dim >= 1
            assert result.projector_condition >= 1.0 - 1e-12


class TestLimitFunctional:
    def test_identity_functional_is_normalization(self, swap_qmc):
        result = qk.cesaro_limit(swap_qmc)
        assert qk.limit_functional(result, np.eye(2)) == pytest.approx(1.0, abs=1e-10)

    def test_projection_on_swap_limit(self, swap_qmc):
        result = qk.cesaro_limit(swap_qmc)
        assert qk.limit_functional(result, np.diag([1.0, 0.0])) == pytest.approx(0.5, abs=1e-8)

    def test_self_functional_is_nonnegative_for_markov_chains(self, hmm2):
        result = qk.cesaro_limit(qk.hmm_to_qmc(hmm2))
        assert qk.limit_functional(result, result.limit.matrix) >= 0

    def test_functional_equals_time_average(self, hmm2):
        chain = qk.hmm_to_qmc(hmm2)
        result = qk.cesaro_limit(chain)
        functional = np.diag([1.0, 0.0]).astype(complex)
        coords = chain.initial_coords.copy()
        acc = 0.0
        horizon = 50_000
        for _ in range(horizon):
            coords = coords @ chain.total_matrix
            acc += float(
                np.trace(functional @ chain.subspace.reconstruct(coords)).real
            )
        assert qk.limit_functional(result, functional) == pytest.approx(
            acc / horizon, abs=1e-4
        )

    def test_dimension_mismatch(self, swap_qmc):
        result = qk.cesaro_limit(swap_qmc)
        with pytest.raises(DimensionMismatchError):
            qk.limit_functional(result, np.eye(3))


class TestStationaryWordProbability:
    def test_identity_single_letter_chain(self):
        chain = single_letter_chain(np.eye(2), [0.3, 0.7])
        assert qk.stationary_word_probability(chain, "a") == pytest.approx(1.0, abs=1e-10)

    def test_swap_ffmc_is_uniform(self, swap_ffmc):
        chain = qk.hmm_to_qmc(swap_ffmc.to_hmm())
        distribution = qk.stationary_letter_distribution(chain)
        assert distribution["a"] == pytest.approx(0.5, abs=1e-8)
        assert distribution["b"] == pytest.approx(0.5, abs=1e-8)

    def test_matches_prefix_averaged_probability(self, qrw_hadamard):
        chain = qk.qrw_to_qmc(qrw_hadamard)
        result = qk.cesaro_limit(chain)
        for symbol in chain.alphabet:
            empirical = prefix_average_letter(chain, symbol, 10_000)
            assert qk.stationary_word_probability(
                chain, (symbol,), result
            ) == pytest.approx(empirical, abs=1e-3)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_length_slices_normalize(self, hmm2, depth):
        chain = qk.hmm_to_qmc(hmm2)
        result = qk.cesaro_limit(chain)
        total = sum(
            qk.stationary_word_probability(chain, word, result)
            for word in qk.words_of_length(chain.alphabet, depth)
        )
        assert total == pytest.approx(1.0, abs=1e-8)


def _complete_walk(rng, n_nodes: int, n_coins: int) -> qk.QrwParam:
    """A walk on the complete graph whose unitary is Haar-random on all N·k coordinates."""
    nodes = qk.Alphabet(tuple(f"n{i}" for i in range(n_nodes)))
    edges = tuple((a, b) for a in nodes for b in nodes if a != b)
    coins = tuple(f"c{i}" for i in range(n_coins))
    k = n_nodes * n_coins
    wave = rng.normal(size=k) + 1j * rng.normal(size=k)
    return qk.QrwParam(nodes, edges, coins, random_unitary(rng, k), wave / np.linalg.norm(wave))


def _assert_block_form_matches_chain(walk):
    """The block form's letters and limit density are those of the walk's coordinate chain."""
    chain = qk.qrw_to_qmc(walk)
    want = qk.cesaro_limit(chain)
    process = qk.qrw_process(walk)
    got = qk.cesaro_limit(process)
    letters = qk.stationary_letter_distribution(process, got)
    for symbol, value in qk.stationary_letter_distribution(chain, want).items():
        assert abs(letters[symbol] - value) <= 1e-12
    limit = walk._block_density(got.coords).matrix
    assert np.abs(limit - want.limit.matrix).max() <= 1e-12
    assert np.trace(limit).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(limit).min() >= -1e-12
    k = walk.coin_count
    off_block = ~np.kron(np.eye(len(walk.nodes), dtype=bool), np.ones((k, k), dtype=bool))
    assert np.abs(limit[off_block]).max(initial=0.0) <= 1e-15
    return got, want


class TestWalkBlockForm:
    """A walk averages on its N·k² + 1-coordinate block form as on its (N·k)² chain."""

    @pytest.mark.parametrize("coins", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["local", "complete"])
    def test_walk_family_matches_its_chain(self, kind, coins):
        for nodes in range(1, 9):
            rng = np.random.default_rng(100 * nodes + coins)
            build = random_local_qrw if kind == "local" else _complete_walk
            _assert_block_form_matches_chain(build(rng, nodes, coins))

    def test_hadamard_walk_matches_its_chain(self, qrw_hadamard):
        # period 2: the orbit flips and only its average converges.  The start
        # coordinate makes the block form's evolution non-normal, so its
        # projector is oblique where the chain's is orthogonal
        got, want = _assert_block_form_matches_chain(qrw_hadamard)
        assert [z.real for z in got.peripheral_spectrum] == pytest.approx([1.0, -1.0], abs=1e-12)
        assert (got.krylov_dim, got.fixed_space_dim) == (want.krylov_dim, want.fixed_space_dim)
        assert want.projector_condition == pytest.approx(1.0, abs=1e-12)
        assert got.projector_condition == pytest.approx(1.1726039399558574, abs=1e-12)

    def test_a_process_source_has_no_limit_density(self, qrw_hadamard):
        process = qk.qrw_process(qrw_hadamard)
        result = qk.cesaro_limit(process)
        assert result.limit is None
        assert result.coords @ process.linear.end == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValidationError, match="has no density"):
            qk.limit_functional(result, np.eye(4))

    def test_both_stationary_helpers_accept_a_process(self, qrw_hadamard):
        process = qk.qrw_process(qrw_hadamard)
        letters = qk.stationary_letter_distribution(process)
        for symbol in process.alphabet:
            assert qk.stationary_word_probability(process, (symbol,)) == letters[symbol]
        assert letters == pytest.approx({"a": 0.5, "b": 0.5}, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_limit_is_stationary_on_words(self, seed):
        # prepending a letter and summing over it leaves each value as it was
        process = qk.qrw_process(random_local_qrw(np.random.default_rng(seed), 3, 2))
        result = qk.cesaro_limit(process)
        for word in qk.words_up_to(process.alphabet, 4):
            extended = sum(
                qk.stationary_word_probability(process, (a, *word), result)
                for a in process.alphabet
            )
            assert abs(extended - qk.stationary_word_probability(process, word, result)) <= 1e-12

    def test_given_a_limit_the_helpers_read_only_the_form(self, qrw_hadamard, monkeypatch):
        walk = random_local_qrw(np.random.default_rng(3), 3, 2)
        sources = [qk.qrw_process(walk), qk.qrw_to_qmc(walk), qk.qrw_process(qrw_hadamard)]
        results = [qk.cesaro_limit(source) for source in sources]

        def answers(source, result):
            words = qk.words_up_to(source.alphabet, 2)
            return qk.stationary_letter_distribution(source, result), [
                qk.stationary_word_probability(source, word, result) for word in words
            ]

        want = [answers(source, result) for source, result in zip(sources, results)]

        def refused(source):
            raise AssertionError("the source was read again")

        monkeypatch.setattr(asymptotics, "_read", refused)
        assert [answers(source, result) for source, result in zip(sources, results)] == want


def _overlap_chain(rng) -> QuantumChain:
    """A one-letter predictor chain over the non-orthogonal basis {diag(1, 0), I}."""
    sub = OperatorSubspace([np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex)])
    stay = float(rng.uniform(0.05, 0.95))
    op = np.array([[stay, (1.0 - stay) / 2.0], [0.0, 1.0]])  # keeps traces (1, 2)
    weight = float(rng.uniform(0.05, 0.95))
    initial = qk.Density.quantum(np.diag([weight, 1.0 - weight]).astype(complex))
    return QuantumChain(qk.Alphabet(("a",)), sub, op[None], initial, ChainKind.QPM)


def _rotation_chain(rng) -> QuantumChain:
    phases = np.exp(1j * rng.uniform(0.1, 6.0, size=3))
    return qk.unitary_to_qmc(np.diag(phases), random_quantum_density(rng, 3))


FAMILIES = {
    "hmm": lambda rng: random_qmc(rng, "hmm"),
    "povm": lambda rng: random_qmc(rng, "povm"),
    "unitary": lambda rng: random_qmc(rng, "unitary"),
    "walk": lambda rng: qk.qrw_to_qmc(random_local_qrw(rng, int(rng.integers(2, 5)), 2)),
    "predictor": lambda rng: qk.finitary_to_qpm(qk.hmm_to_finitary(random_hmm(rng))),
    "overlap": _overlap_chain,
    "rotation": _rotation_chain,
}

FIXTURE_CHAINS = (
    "coin_finitary.json",
    "hmm2.json",
    "hmm3_rank3.json",
    "qrw_hadamard.json",
    "swap_ffmc.json",
    "swap_qmc.json",
)


def _assert_routes_match_reference(chain):
    """The limit within 1e-10 of the Schur and the doubling references.

    A running average converges like 1/t, so the doubling reference's
    error is about its stopping tolerance; it runs at 1e-11 here.
    """
    sub = chain.subspace
    reference, krylov_dim, gap = spectral_limit_reference(chain)
    doubling, _ = doubling_limit_reference(chain, tol=1e-11)
    result = qk.cesaro_limit(chain)
    assert sub.norm(result.coords - _unit_trace(reference, chain)) <= 1e-10
    assert sub.norm(result.coords - _unit_trace(doubling, chain)) <= 1e-10
    assert result.krylov_dim == krylov_dim
    assert (result.spectral_gap is None) == (gap is None)
    if gap is not None:
        assert abs(result.spectral_gap - gap) <= 1e-10
    assert 0.0 <= result.invariance_residual <= 1e-10


class TestOrbitRoutes:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(family=st.sampled_from(sorted(FAMILIES)), seed=st.integers(0, 2**32 - 1))
    def test_routes_match_the_schur_reference(self, family, seed):
        _assert_routes_match_reference(FAMILIES[family](np.random.default_rng(seed)))

    @pytest.mark.parametrize("name", FIXTURE_CHAINS)
    def test_fixture_chains_match_the_schur_reference(self, name):
        _assert_routes_match_reference(_lower(load_model(FIXTURES / name), "chain", DEFAULTS))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_krylov_basis_is_orthonormal_and_closed(self, family):
        chain = FAMILIES[family](np.random.default_rng(1802))
        orbit = _orbit(chain)
        k = len(orbit.basis)
        gram = orbit.basis @ chain.subspace.gram @ orbit.basis.T
        assert np.abs(gram - np.eye(k)).max() <= 1e-12
        assert orbit.invariance_residual <= 1e-12
        moved = orbit.basis @ chain.total_matrix
        assert np.abs(moved - orbit.evolution @ orbit.basis).max() <= 1e-12
        assert orbit.start @ orbit.basis == pytest.approx(chain.initial_coords, abs=1e-12)

    def test_growth_off_the_orbit_no_longer_stops_the_average(self):
        # the third coordinate doubles each step but the orbit never reaches
        # it; squaring the full matrix used to raise "evolved orbit grows
        # without bound" before the averages settled
        chain = single_letter_chain(
            [[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.0, 2.0]], [0.3, 0.7, 0.0], ChainKind.QPM
        )
        result = qk.cesaro_limit(chain)
        assert result.coords == pytest.approx([0.5, 0.5, 0.0], abs=1e-8)
        doubling, _ = doubling_limit_reference(chain)
        assert doubling == pytest.approx([0.5, 0.5, 0.0], abs=1e-8)


_SHEAR = np.array([[1.0, 0.2, -0.3], [0.1, 1.0, 0.4], [-0.2, 0.3, 1.0]])


def _sheared(matrix):
    return _SHEAR @ np.asarray(matrix, dtype=float) @ np.linalg.inv(_SHEAR)


# One-letter predictor chains (evolution, initial diagonal) that have no
# limit, with the error cesaro_limit raises for them.  The types are those
# raised while the horizon doubling still ran beside the projection, except
# for "jordan, trace lost": the doubling alone called its growth a
# divergence, where the projection finds the defective eigenvalue-one
# cluster, as it does for the other Jordan blocks.
FAILING_CHAINS = {
    "halving": (0.5 * np.eye(2), [0.3, 0.7], ConsistencyError,
                "no eigenvalue-one component on the orbit span; the trace cannot be preserved"),
    "decaying": ([[0.9, 0.0], [0.0, 0.5]], [0.3, 0.7], ConsistencyError,
                 "no eigenvalue-one component on the orbit span; the trace cannot be preserved"),
    "jordan": ([[1.0, 0.5], [0.0, 1.0]], [0.3, 0.7], ConsistencyError,
               "eigenvalue-one cluster is defective (off-diagonal mass 5.000e-01); "
               "incompatible with a bounded orbit"),
    "jordan, decaying part": ([[1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.1, 0.0, 0.9]], [0.3, 0.3, 0.4],
                              ConsistencyError,
                              "eigenvalue-one cluster is defective (off-diagonal mass 2.000e-01); "
                              "incompatible with a bounded orbit"),
    "jordan, sheared": (_sheared([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.4]]),
                        [0.2, 0.3, 0.5], ConsistencyError,
                        "eigenvalue-one cluster is defective (off-diagonal mass 3.812e-01); "
                        "incompatible with a bounded orbit"),
    "jordan, trace lost": ([[1.0, 0.0], [-0.5, 1.0]], [0.3, 0.7], ConsistencyError,
                           "eigenvalue-one cluster is defective (off-diagonal mass 5.000e-01); "
                           "incompatible with a bounded orbit"),
    "growing": (np.diag([1.2, 0.5]), [0.3, 0.7], DivergenceError,
                "evolution has spectral radius 1.200000 > 1 on the orbit span"),
    "growing swap": ([[0.0, 1.1], [1.1, 0.0]], [0.3, 0.7], DivergenceError,
                     "evolution has spectral radius 1.100000 > 1 on the orbit span"),
    "flip": (np.diag([-1.0, 1.0]), [0.3, 0.7], ConsistencyError,
             "averaged trace drifted to 0.7000000000000001"),
    "slow loss": (np.diag([1.0, 0.9999999]), [0.3, 0.7], ConsistencyError,
                  "averaged trace drifted to 0.30000000052923814"),
    "sheared rotation": (_sheared([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, -0.8, 0.6]]),
                         [0.2, 0.3, 0.5], ConsistencyError,
                         "averaged trace drifted to 0.16270967741935483"),
}

_NUMBER = re.compile(r"-?\d+\.\d+(?:e[-+]\d+)?")


def _assert_same_message(got: str, want: str):
    """Equal text; numbers equal to 1e-8 relative.

    Numbers printed with a format (``.3e``, ``.6f``) must match digit for
    digit.  A ``repr`` of a trace shows rounding that depends on the route
    that computed it.
    """
    assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want)
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        assert float(a) == pytest.approx(float(b), rel=1e-8)


def _failing_chains():
    chains = {"unbounded_qpm": load_model(FIXTURES / "unbounded_qpm.json")}
    for name, (matrix, initial, _, _) in FAILING_CHAINS.items():
        chains[name] = single_letter_chain(matrix, initial, ChainKind.QPM)
    return chains


class TestFailuresAreUnchanged:
    @pytest.mark.parametrize("method", ["iterative", "spectral"])
    @pytest.mark.parametrize("name", ["unbounded_qpm", *FAILING_CHAINS])
    def test_cesaro_limit_raises_as_before(self, name, method):
        chain = _failing_chains()[name]
        error, message = (
            FAILING_CHAINS[name][2:]
            if name in FAILING_CHAINS
            else (DivergenceError, "evolution has spectral radius 1.050000 > 1 on the orbit span")
        )
        with pytest.raises(error) as raised:
            qk.cesaro_limit(chain, method)
        assert type(raised.value) is error
        _assert_same_message(str(raised.value), message)

    @pytest.mark.parametrize("name", ["unbounded_qpm", *FAILING_CHAINS])
    def test_spectral_route_raises_as_the_reference(self, name):
        chain = _failing_chains()[name]
        outcomes = []
        for route in (
            lambda: asymptotics._spectral_average(_orbit(chain)),
            lambda: spectral_limit_reference(chain),
        ):
            try:
                route()
                outcomes.append(None)
            except (ConsistencyError, DivergenceError, NumericError) as exc:
                outcomes.append((type(exc), str(exc)))
        ours, reference = outcomes
        assert (ours is None) == (reference is None)
        if reference is not None:
            assert ours[0] is reference[0]
            _assert_same_message(ours[1], reference[1])
