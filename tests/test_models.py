import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpmkit as qk
from qpmkit import models
from qpmkit.errors import AlphabetError, DimensionMismatchError, SamplingError, ValidationError
from qpmkit.io import load_model

from conftest import FIXTURES
from helpers import random_hmm, random_local_qrw, single_letter_chain
from oracles import hmm_path_prob, locality_reference, qrw_collapse_prob, validate_hmm_reference

AB = qk.Alphabet(("a", "b"))


def one_state_hmm(p_a=0.3):
    return qk.HmmParam(
        ("s0",), AB, emission=[[p_a, 1 - p_a]], initial=[1.0], transition=[[1.0]]
    )


class TestValidateHmm:
    def test_valid_fixture(self, hmm2):
        assert qk.validate_hmm(hmm2).ok

    def test_row_sum_violation_names_row(self, hmm2):
        broken = qk.HmmParam(
            hmm2.states,
            hmm2.alphabet,
            hmm2.emission,
            hmm2.initial,
            [[0.6, 0.3], [0.4, 0.6]],
        )
        report = qk.validate_hmm(broken)
        assert not report.ok
        assert any(v.code == "row-sum" and v.where == ("transition", 0) for v in report.violations)

    def test_negative_emission(self, hmm2):
        broken = qk.HmmParam(
            hmm2.states,
            hmm2.alphabet,
            [[1.1, -0.1], [0.2, 0.8]],
            hmm2.initial,
            hmm2.transition,
        )
        report = qk.validate_hmm(broken)
        assert any(v.code == "negative-entry" for v in report.violations)

    def test_initial_must_normalize(self, hmm2):
        broken = qk.HmmParam(
            hmm2.states, hmm2.alphabet, hmm2.emission, [0.6, 0.6], hmm2.transition
        )
        assert any(v.where == ("initial",) for v in qk.validate_hmm(broken).violations)

    def test_negative_entries_print_as_floats(self, hmm2):
        broken = qk.HmmParam(
            hmm2.states, hmm2.alphabet, [[1.1, -0.1], [0.2, 0.8]], [1.2, -0.2], hmm2.transition
        )
        messages = qk.validate_hmm(broken).messages()
        assert messages == [
            "negative-entry at ('emission', 0, 1): emission[0, 1] = -0.1",
            "negative-entry at ('initial', 1): initial[1] = -0.2",
        ]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        k=st.integers(1, 4),
        tol=st.sampled_from([0.0, 1e-9, 0.05]),
    )
    def test_findings_match_the_entry_by_entry_reference(self, seed, n, k, tol):
        """Defective rows: entries pushed below zero, rows rescaled off one."""
        rng = np.random.default_rng(seed)
        hmm = random_hmm(rng, n, k)
        emission, transition = hmm.emission.copy(), hmm.transition.copy()
        initial = hmm.initial.copy()
        for array in (emission, transition, initial[None]):
            hit = rng.random(array.shape) < 0.3
            array[hit] -= rng.choice([1e-12, 0.01, 0.5], size=int(hit.sum()))
            array *= rng.choice([1.0, 1.0 + 1e-12, 1.2], size=(len(array), 1))
        broken = qk.HmmParam(hmm.states, hmm.alphabet, emission, initial, transition)
        report = qk.validate_hmm(broken, config=qk.DEFAULTS.replace(eval_tol=tol))
        got = [(v.code, v.message, v.where) for v in report.violations]
        assert got == validate_hmm_reference(broken, tol)


class TestHmmLetterStack:
    def test_built_once_and_read_only(self, hmm2):
        stack = hmm2._letter_stack
        assert hmm2._letter_stack is stack and stack.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 0.0
        for a, matrix in zip(hmm2.alphabet, stack):
            want = np.diag(hmm2.emission[:, hmm2.alphabet.index(a)]) @ hmm2.transition
            assert np.array_equal(matrix, want)

    def test_readers_share_the_stack(self, hmm2):
        stack = hmm2._letter_stack
        assert qk.hmm_process(hmm2).linear.matrices is stack
        chain = qk.hmm_to_qmc(hmm2)
        assert chain.operators is stack

    def test_finitary_readers_share_one_read_only_stack(self, coin_finitary, hmm2):
        for param in (coin_finitary, qk.hmm_to_finitary(hmm2)):
            stack = param.matrices
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] = 0.0
            assert qk.finitary_process(param).linear.matrices is stack
            total = sum(stack[i] for i in range(len(param.alphabet)))
            assert param.total_matrix.tobytes() == total.tobytes()

    def test_finitary_matrices_share_the_hmm_stack(self, hmm2):
        finitary = qk.hmm_to_finitary(hmm2)
        assert finitary.matrices is hmm2._letter_stack
        assert finitary.initial is hmm2.initial
        assert not finitary.matrices.flags.writeable


class TestHmmToFinitary:
    def test_one_state_products(self):
        finitary = qk.hmm_to_finitary(one_state_hmm())
        assert np.allclose(finitary.matrices, [[[0.3]], [[0.7]]])
        assert qk.finitary_eval(finitary, "ab") == pytest.approx(0.21)

    def test_matches_path_enumeration(self, hmm2):
        finitary = qk.hmm_to_finitary(hmm2)
        for word in qk.words_up_to(AB, 5):
            assert qk.finitary_eval(finitary, word) == pytest.approx(
                hmm_path_prob(hmm2, word), abs=1e-12
            )

    def test_forward_eval_matches_conversion(self, hmm2):
        finitary = qk.hmm_to_finitary(hmm2)
        for word in qk.words_up_to(AB, 5):
            assert qk.hmm_eval(hmm2, word) == pytest.approx(
                qk.finitary_eval(finitary, word), abs=1e-12
            )

    def test_summed_letter_matrices_are_stochastic(self, rng):
        for _ in range(5):
            finitary = qk.hmm_to_finitary(random_hmm(rng))
            rows = finitary.total_matrix.sum(axis=1)
            assert rows == pytest.approx(np.ones(finitary.dimension))

    def test_rejects_invalid_hmm(self, hmm2):
        broken = qk.HmmParam(
            hmm2.states, hmm2.alphabet, hmm2.emission, [0.5, 0.1], hmm2.transition
        )
        with pytest.raises(ValidationError):
            qk.hmm_to_finitary(broken)


class TestFfmc:
    def test_identity_labeling(self):
        hmm = qk.ffmc_to_hmm(
            ("s0", "s1"), {"s0": "a", "s1": "b"}, [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]]
        )
        assert np.allclose(hmm.emission, np.eye(2))

    def test_constant_labeling(self):
        hmm = qk.ffmc_to_hmm(
            ("s0", "s1"), {"s0": "a", "s1": "a"}, [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]]
        )
        assert hmm.emission.shape == (2, 1)
        assert np.allclose(hmm.emission, 1.0)

    def test_requires_total_observation(self):
        message = r"^observation function is not total; missing \['s1'\]$"
        args = (("s0", "s1"), {"s0": "a"}, [1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match=message):
            qk.ffmc_to_hmm(*args)
        with pytest.raises(ValidationError, match=message):
            qk.FfmcParam(*args)

    def test_totality_is_checked_once_per_load(self, monkeypatch):
        calls = []
        check = models._require_total
        monkeypatch.setattr(models, "_require_total", lambda *a: calls.append(a) or check(*a))
        ffmc = load_model(FIXTURES / "swap_ffmc.json")
        hmm = ffmc.to_hmm()
        assert len(calls) == 1
        assert hmm.alphabet.symbols == ("a", "b")
        assert np.array_equal(hmm.emission, np.eye(2))

    def test_parity_cycle_matches_direct_simulation(self):
        # 4-cycle chain labeled by node parity, against a direct vectorized
        # Markov chain simulation of the same process
        size = 100_000
        transition = np.array(
            [
                [0.0, 0.7, 0.0, 0.3],
                [0.2, 0.0, 0.8, 0.0],
                [0.0, 0.4, 0.0, 0.6],
                [0.9, 0.0, 0.1, 0.0],
            ]
        )
        initial = np.array([0.4, 0.3, 0.2, 0.1])
        observation = {"s0": "e", "s1": "o", "s2": "e", "s3": "o"}
        hmm = qk.ffmc_to_hmm(("s0", "s1", "s2", "s3"), observation, initial, transition)

        rng = np.random.default_rng(7)
        states = np.searchsorted(np.cumsum(initial), rng.random(size), side="right")
        labels = np.array([observation[f"s{i}"] for i in range(4)])
        emitted = [labels[states]]
        for _ in range(2):
            rows = np.cumsum(transition, axis=1)[states]
            states = (rows < rng.random(size)[:, None]).sum(axis=1)
            emitted.append(labels[states])
        words = np.stack(emitted, axis=1)

        for word in qk.words_of_length(hmm.alphabet, 3):
            expected = qk.hmm_eval(hmm, word)
            hits = np.all(words == np.array(word), axis=1).mean()
            sigma = np.sqrt(expected * (1 - expected) / size)
            assert abs(hits - expected) <= 3 * sigma + 1e-12


class TestFinitaryEval:
    def test_empty_word_in_standard_form(self, coin_finitary):
        assert qk.finitary_eval(coin_finitary, "") == pytest.approx(1.0)

    def test_coin_products(self, coin_finitary):
        assert qk.finitary_eval(coin_finitary, "aab") == pytest.approx(0.125)

    def test_unknown_symbol(self, coin_finitary):
        with pytest.raises(AlphabetError):
            qk.finitary_eval(coin_finitary, "az")

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_standard_form_total_mass(self, hmm2, depth):
        finitary = qk.hmm_to_finitary(hmm2)
        total = sum(qk.finitary_eval(finitary, w) for w in qk.words_of_length(AB, depth))
        assert total == pytest.approx(1.0, abs=1e-10)


    def test_arrays_are_stored_c_contiguous_and_keep_their_shape(self):
        # transposed views are copied into the layout word_value runs on; a
        # scalar is not a 1-element vector
        matrix = np.array([[0.5, 0.0], [0.25, 0.25]]).T
        param = qk.FinitaryParam(AB, [matrix, matrix], np.ones(4)[::2] / 2, [1.0, 1.0])
        arrays = (param.matrices, param.initial, param.end)
        assert all(array.flags.c_contiguous for array in arrays)
        assert np.array_equal(param.matrices[0], matrix)
        with pytest.raises(DimensionMismatchError, match="initial vector must be 1-D"):
            qk.FinitaryParam(qk.Alphabet(("a",)), [[[1.0]]], 1.0, [1.0])
        with pytest.raises(DimensionMismatchError, match="letter matrix stack must have shape"):
            qk.FinitaryParam(AB, [matrix], [0.5, 0.5], [1.0, 1.0])

class TestStandardize:
    def test_round_trip_preserves_process(self, hmm2):
        general = qk.qpm_to_finitary(qk.hmm_to_qmc(hmm2))
        rescaled = qk.standardize(general)
        assert rescaled.standard_form
        assert qk.is_standard_form(rescaled)
        for word in qk.words_up_to(AB, 4):
            assert qk.finitary_eval(rescaled, word) == pytest.approx(
                qk.finitary_eval(general, word), abs=1e-10
            )

    def test_standard_form_checks_return_plain_bools(self, coin_finitary, hmm2):
        for param in (coin_finitary, qk.hmm_to_finitary(hmm2)):
            assert type(qk.is_standard_form(param)) is bool
        assert type(qk.qpm_to_finitary(qk.hmm_to_qmc(hmm2)).standard_form) is bool
        assert json.loads(json.dumps({"v": qk.is_standard_form(coin_finitary)})) == {"v": True}

    def test_general_end_vector(self):
        param = qk.FinitaryParam(
            AB,
            [[[0.25, 0.25], [0.25, 0.25]], [[0.25, 0.25], [0.25, 0.25]]],
            initial=[0.25, 0.25],
            end=[2.0, 2.0],
        )
        rescaled = qk.standardize(param)
        assert np.allclose(rescaled.end, 1.0)
        for word in qk.words_up_to(AB, 3):
            assert qk.finitary_eval(rescaled, word) == pytest.approx(
                qk.finitary_eval(param, word), abs=1e-12
            )

    def test_zero_end_entry_is_flagged(self):
        param = qk.FinitaryParam(
            AB,
            [[[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.5]]],
            initial=[1.0, 0.0],
            end=[1.0, 0.0],
        )
        with pytest.raises(ValidationError):
            qk.standardize(param)


class TestQrw:
    def test_fixture_is_valid(self, qrw_hadamard):
        assert qk.validate_qrw(qrw_hadamard).ok

    def test_locality_violation_detected(self):
        # path graph n0 - n1 - n2 with a unitary hopping n0 -> n2 directly
        nodes = qk.Alphabet(("n0", "n1", "n2"))
        edges = (("n0", "n1"), ("n1", "n0"), ("n1", "n2"), ("n2", "n1"))
        unitary = np.array(
            [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], dtype=complex
        )
        wave = np.array([1.0, 0.0, 0.0], dtype=complex)
        report = qk.validate_qrw(qk.QrwParam(nodes, edges, ("c",), unitary, wave))
        assert any(v.code == "locality" for v in report.violations)

    def test_locality_messages_match_the_column_loop(self):
        # local walks with sparse leaks of 1e-12 .. 1e-1 on random edge sets
        rng = np.random.default_rng(17)
        flagged = 0
        for _ in range(100):
            walk = random_local_qrw(rng, int(rng.integers(2, 6)), int(rng.integers(1, 3)))
            d = walk.dim
            scale = 10.0 ** rng.integers(-12, 0, size=(d, d))
            leaks = (rng.random((d, d)) < 0.15) * rng.normal(size=(d, d)) * scale
            names = walk.nodes.symbols
            edges = tuple((a, b) for a in names for b in names if a != b and rng.random() < 0.3)
            leaky = qk.QrwParam(walk.nodes, edges, walk.coins, walk.unitary + leaks, walk.wave)
            got = [m for m in qk.validate_qrw(leaky).messages() if m.startswith("locality")]
            assert got == locality_reference(leaky, 1e-9)
            flagged += bool(got)
        assert flagged >= 20

    def test_wave_norm_checked(self, qrw_hadamard):
        report = qk.validate_qrw(
            qk.QrwParam(
                qrw_hadamard.nodes,
                qrw_hadamard.edges,
                qrw_hadamard.coins,
                qrw_hadamard.unitary,
                qrw_hadamard.wave * 2,
            )
        )
        assert any(v.code == "wave-norm" for v in report.violations)

    def test_a_stretched_wave_is_refused_before_any_shortcut(self, qrw_hadamard):
        # the empty word and empty samples raise as one-letter words do
        walk = qk.QrwParam(
            qrw_hadamard.nodes,
            qrw_hadamard.edges,
            qrw_hadamard.coins,
            qrw_hadamard.unitary,
            qrw_hadamard.wave * 2,
        )
        calls = (
            lambda: qk.qrw_eval(walk, ""),
            lambda: qk.sample_trajectories(walk, 0, 2, 1),
            lambda: qk.sample_trajectories(walk, 3, 0, 1),
            lambda: qk.qrw_eval(walk, "a"),
        )
        messages = set()
        for call in calls:
            with pytest.raises(ValidationError, match="^wave norm is 1.999") as info:
                call()
            messages.add(str(info.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("field", ["unitary", "wave"])
    def test_a_non_finite_entry_is_named_not_raised(self, qrw_hadamard, field):
        arrays = {"unitary": qrw_hadamard.unitary.copy(), "wave": qrw_hadamard.wave.copy()}
        arrays[field][0] = np.nan
        walk = qk.QrwParam(
            qrw_hadamard.nodes,
            qrw_hadamard.edges,
            qrw_hadamard.coins,
            arrays["unitary"],
            arrays["wave"],
        )
        what = {"unitary": "evolution operator", "wave": "initial wave"}[field]
        report = qk.validate_qrw(walk)
        assert [(v.code, v.message, v.where) for v in report.violations] == [
            ("non-finite", f"{what} has a non-finite entry", (field,))
        ]

    def test_identity_evolution_keeps_wave(self):
        nodes = qk.Alphabet(("a", "b"))
        qrw = qk.QrwParam(
            nodes,
            (("a", "b"), ("b", "a")),
            ("c",),
            np.eye(2, dtype=complex),
            np.array([1.0, 0.0], dtype=complex),
        )
        step = qk.qrw_step(qrw)
        assert step.probabilities["a"] == pytest.approx(1.0)
        assert np.allclose(step.collapsed["a"], qrw.wave)
        assert "b" not in step.collapsed

    def test_permutation_walk(self):
        nodes = qk.Alphabet(("a", "b"))
        qrw = qk.QrwParam(
            nodes,
            (("a", "b"), ("b", "a")),
            ("c",),
            np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
            np.array([1.0, 0.0], dtype=complex),
        )
        step = qk.qrw_step(qrw)
        assert step.probabilities == pytest.approx({"a": 0.0, "b": 1.0})

    def test_hadamard_step_matches_explicit_multiplication(self, qrw_hadamard):
        evolved = qrw_hadamard.unitary @ qrw_hadamard.wave
        expected = {
            "a": float(np.sum(np.abs(evolved[:2]) ** 2)),
            "b": float(np.sum(np.abs(evolved[2:]) ** 2)),
        }
        step = qk.qrw_step(qrw_hadamard)
        assert step.probabilities == pytest.approx(expected)
        assert step.probabilities["a"] == pytest.approx(0.5)

    def test_interference_kills_repeats(self, qrw_hadamard):
        assert qk.qrw_eval(qrw_hadamard, "a") == pytest.approx(0.5)
        assert qk.qrw_eval(qrw_hadamard, "ab") == pytest.approx(0.5)
        # the walk never stays: a repeat takes the zero block U_aa or U_bb
        for word in qk.words_up_to(qrw_hadamard.nodes, 5):
            repeats = any(x == y for x, y in zip(word, word[1:]))
            assert (qk.qrw_eval(qrw_hadamard, word) == 0.0) is repeats

    def test_eval_matches_collapse_oracle(self, qrw_hadamard, rng):
        walks = [qrw_hadamard] + [random_local_qrw(rng, 3, 2) for _ in range(3)]
        for qrw in walks:
            for word in qk.words_up_to(qrw.nodes, 3):
                assert qk.qrw_eval(qrw, word) == pytest.approx(
                    qrw_collapse_prob(qrw, word), abs=1e-12
                )

    def test_step_distributions_normalize(self, rng):
        for _ in range(5):
            qrw = random_local_qrw(rng, 3, 2)
            step = qk.qrw_step(qrw)
            assert sum(step.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
            for wave in step.collapsed.values():
                assert np.linalg.norm(wave) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_unit_wave(self, qrw_hadamard):
        with pytest.raises(ValidationError):
            qk.qrw_step(qrw_hadamard, qrw_hadamard.wave * 1.5)


class TestSampling:
    def test_zero_length(self, hmm2):
        assert qk.sample_trajectory(hmm2, 0, seed=1) == ()

    def test_deterministic_hmm_emits_constant_word(self):
        hmm = one_state_hmm(p_a=1.0)
        assert qk.sample_trajectory(hmm, 6, seed=3) == ("a",) * 6

    def test_golden_trajectories(self, hmm2, qrw_hadamard):
        # frozen outputs of the documented scheme: word i reads row i of one
        # PCG64 stream from SeedSequence(seed), one inverse-CDF draw per symbol
        assert ["".join(w) for w in qk.sample_trajectories(hmm2, 5, 3, seed=2024)] == [
            "baaaa",
            "aabba",
            "aabaa",
        ]
        assert [
            "".join(w) for w in qk.sample_trajectories(qrw_hadamard, 5, 3, seed=2024)
        ] == ["babab", "ababa", "babab"]

    @pytest.mark.parametrize(
        "name, length, seed, digest",
        [
            ("hmm2", 200, 20261018, "48d0ef565fc3ccc698622f2b5f80501be570d99f8560afee2658c4ab5ebb05cb"),
            ("swap_ffmc", 50, 7, "37f9c2dab992951f480092de433d50f76b2e40c49c9a102d0920e8b2b16e0ed0"),
            ("qrw_hadamard", 40, 11, "7e1922eba9492f1dbc1c0b4a84cfe88244a1093c31d8c1d7ecee9f201e17b910"),
            ("hmm2_qmc", 20, 5, "49ccd7b4665f4e2658ff3474cc05d6c449e8256a5e1e5347afb8727ce1d6e2d3"),
        ],
    )
    def test_golden_digests(self, request, name, length, seed, digest):
        # SHA-256 of eight frozen words per model: any change to the draw
        # arithmetic or the stream layout changes the digest
        if name == "hmm2_qmc":
            model = qk.hmm_to_qmc(request.getfixturevalue("hmm2"))
        else:
            model = request.getfixturevalue(name)
        words = qk.sample_trajectories(model, length, 8, seed=seed)
        text = "\n".join(" ".join(w) for w in words)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_unreached_rows_are_never_checked(self):
        hmm = qk.HmmParam(
            ("s0", "bad"),
            AB,
            emission=[[1.0, 0.0], [-1.0, 2.0]],
            initial=[1.0, 0.0],
            transition=[[1.0, 0.0], [-1.0, 2.0]],
        )
        assert qk.sample_trajectories(hmm, 5, 3, seed=1) == [("a",) * 5] * 3
        with pytest.raises(SamplingError):
            qk.sample_trajectory(
                qk.HmmParam(hmm.states, AB, hmm.emission, [0.0, 1.0], hmm.transition), 1, seed=1
            )

    def test_seed_reproducibility(self, hmm2, qrw_hadamard):
        for model in (hmm2, qrw_hadamard):
            first = qk.sample_trajectories(model, 4, 10, seed=11)
            second = qk.sample_trajectories(model, 4, 10, seed=11)
            assert first == second
        assert qk.sample_trajectories(hmm2, 4, 10, seed=11) != qk.sample_trajectories(
            hmm2, 4, 10, seed=12
        )

    def test_hmm_frequencies_match_forward_values(self, hmm2):
        size = 100_000
        words = qk.sample_trajectories(hmm2, 3, size, seed=5)
        counts = {}
        for word in words:
            counts[word] = counts.get(word, 0) + 1
        for word in qk.words_of_length(AB, 3):
            expected = qk.hmm_eval(hmm2, word)
            observed = counts.get(word, 0) / size
            sigma = np.sqrt(expected * (1 - expected) / size)
            assert abs(observed - expected) <= 3 * sigma + 1e-12

    def test_chain_sampling_matches_chain_eval(self, hmm2):
        chain = qk.hmm_to_qmc(hmm2)
        size = 20_000
        words = qk.sample_trajectories(chain, 2, size, seed=9)
        for word in qk.words_of_length(AB, 2):
            expected = qk.chain_eval(chain, word)
            observed = sum(1 for w in words if w == word) / size
            sigma = np.sqrt(expected * (1 - expected) / size)
            assert abs(observed - expected) <= 4 * sigma + 1e-12

    def test_small_negative_branches_clamp(self):
        chain = single_letter_chain([[1.0, 0.0], [0.0, 1.0]], [1.0 + 5e-10, -5e-10],
                                    kind=qk.ChainKind.QPM)
        word = qk.sample_trajectory(chain, 3, seed=2)
        assert word == ("a",) * 3

    def test_large_negative_branch_errors(self):
        # two letters whose branch weights are 1.4 and -0.4
        import qpmkit.chain as chain_mod

        sub = chain_mod.OperatorSubspace.diagonal(1)
        ops = np.array([[[1.4]], [[-0.4]]])
        chain = chain_mod.QuantumChain(
            qk.Alphabet(("a", "b")),
            sub,
            ops,
            qk.Density.generalized(np.array([[1.0]], dtype=complex)),
            qk.ChainKind.QPM,
        )
        with pytest.raises(SamplingError):
            qk.sample_trajectory(chain, 1, seed=0)

    def test_qrw_sampling_matches_collapse_probabilities(self, qrw_hadamard):
        size = 20_000
        words = qk.sample_trajectories(qrw_hadamard, 2, size, seed=13)
        for word in qk.words_of_length(AB, 2):
            expected = qk.qrw_eval(qrw_hadamard, word)
            observed = sum(1 for w in words if w == word) / size
            sigma = np.sqrt(expected * (1 - expected) / size)
            assert abs(observed - expected) <= 4 * sigma + 1e-12


class TestConversionsDoTheirWorkOnce:
    def test_hmm_to_qmc_refuses_an_invalid_hmm_with_one_message(self, hmm2):
        broken = qk.HmmParam(
            hmm2.states, hmm2.alphabet, hmm2.emission, [0.5, 0.1], hmm2.transition
        )
        with pytest.raises(ValidationError) as refused:
            qk.hmm_to_qmc(broken)
        assert str(refused.value).startswith("invalid hidden Markov model: ")
        assert str(refused.value) == str(
            pytest.raises(ValidationError, qk.hmm_to_finitary, broken).value
        )

    def test_qpm_to_finitary_flags_standard_form(self, hmm2, swap_qmc, unbounded_qpm, qrw_hadamard):
        flags = []
        for chain in (qk.hmm_to_qmc(hmm2), swap_qmc, unbounded_qpm, qk.qrw_to_qmc(qrw_hadamard)):
            param = qk.qpm_to_finitary(chain)
            assert type(param.standard_form) is bool
            assert param.standard_form == qk.is_standard_form(param)
            assert np.array_equal(param.initial, chain.initial_coords)
            assert np.array_equal(param.end, chain.subspace.traces)
            assert param.matrices is chain.operators
            flags.append(param.standard_form)
        assert set(flags) == {True, False}

    def test_step_eval_and_sampling_refuse_a_stretched_wave_alike(self, qrw_hadamard):
        stretched = dataclasses.replace(qrw_hadamard, wave=qrw_hadamard.wave * 1.5)
        calls = [
            lambda: qk.qrw_step(stretched),
            lambda: qk.qrw_step(qrw_hadamard, stretched.wave),
            lambda: qk.qrw_eval(stretched, "a"),
            lambda: qk.qrw_process(stretched),  # refused when built, not when called
            lambda: qk.sample_trajectories(stretched, 2, 1, 0),
        ]
        messages = {str(pytest.raises(ValidationError, call).value) for call in calls}
        norm = float(np.linalg.norm(stretched.wave))
        assert messages == {f"wave norm is {norm!r}, expected 1 within 1.000e-09"}


def finitary_sources(hmm2, swap_qmc) -> dict[str, qk.FinitaryParam]:
    """A finitary model from each of its sources."""
    general = qk.qpm_to_finitary(qk.hmm_to_qmc(hmm2))
    standard = qk.hmm_to_finitary(hmm2)
    return {
        "file": load_model(FIXTURES / "coin_finitary.json"),
        "hmm": standard,
        "chain": qk.qpm_to_finitary(swap_qmc),
        "standardize standard": qk.standardize(standard),
        "standardize rescaled": qk.standardize(general),
        "list": qk.FinitaryParam(AB, [[[0.5]], [[0.5]]], [1.0], [1.0], standard_form=True),
    }


def model_arrays(model) -> dict[str, np.ndarray]:
    """Every array a model holds, its cached derivatives included, by attribute name."""
    arrays = {name: getattr(model, name) for name in vars(model)}
    for name in ("_letter_stack", "total_matrix", "initial_coords"):
        if hasattr(type(model), name):
            arrays[name] = getattr(model, name)
    for name in ("basis", "gram", "traces"):
        if isinstance(model, qk.OperatorSubspace):
            arrays[name] = getattr(model, name)
    if isinstance(model, qk.Density):
        arrays["matrix"] = model.matrix
    return {name: value for name, value in arrays.items() if isinstance(value, np.ndarray)}


class TestReadOnlyModels:
    @pytest.mark.parametrize(
        "source",
        ["file", "hmm", "chain", "standardize standard", "standardize rescaled", "list"],
    )
    def test_every_finitary_source_gives_one_read_only_stack(self, hmm2, swap_qmc, source):
        param = finitary_sources(hmm2, swap_qmc)[source]
        stack = param.matrices
        assert type(stack) is np.ndarray and stack.dtype == np.float64
        assert stack.flags.c_contiguous and not stack.flags.writeable
        assert stack.shape == (len(param.alphabet), param.dimension, param.dimension)
        assert qk.finitary_process(param).linear.matrices is stack

    def test_an_edited_finitary_letter_raises(self, coin_finitary):
        with pytest.raises(ValueError, match="read-only"):
            coin_finitary.matrices[coin_finitary.alphabet.index("a")] *= 0.5
        assert qk.finitary_eval(coin_finitary, "aaa") == 0.125
        assert qk.is_standard_form(coin_finitary)

    def test_an_edited_emission_raises(self, hmm2):
        before = qk.hmm_eval(hmm2, "aa")
        with pytest.raises(ValueError, match="read-only"):
            hmm2.emission[:] = hmm2.emission[:, ::-1]
        assert qk.hmm_eval(hmm2, "aa") == before

    def test_an_edited_chain_operator_raises(self, qrw_hadamard):
        chain = qk.qrw_to_qmc(qrw_hadamard)
        with pytest.raises(ValueError, match="read-only"):
            chain.operators[0] *= 0.5
        assert qk.validate_chain(chain).ok

    def test_conversions_share_their_source_arrays(self, hmm2, swap_qmc):
        finitary = qk.hmm_to_finitary(hmm2)
        assert np.shares_memory(finitary.matrices, hmm2._letter_stack)
        assert np.shares_memory(finitary.initial, hmm2.initial)
        param = qk.qpm_to_finitary(swap_qmc)
        assert np.shares_memory(param.matrices, swap_qmc.operators)
        assert np.shares_memory(param.initial, swap_qmc.initial_coords)
        assert np.shares_memory(param.end, swap_qmc.subspace.traces)
        chain = qk.hmm_to_qmc(hmm2)
        assert np.shares_memory(chain.operators, hmm2._letter_stack)
        relabelled = qk.as_qpm(chain)
        assert np.shares_memory(relabelled.operators, chain.operators)
        assert relabelled.initial is chain.initial

    def test_no_model_array_is_writable(
        self, hmm2, swap_ffmc, coin_finitary, qrw_hadamard, swap_qmc, unbounded_qpm, bell_file
    ):
        chains = (swap_qmc, unbounded_qpm, qk.hmm_to_qmc(hmm2), qk.qrw_to_qmc(qrw_hadamard))
        models = [hmm2, swap_ffmc, coin_finitary, qrw_hadamard, bell_file.density]
        models += [*finitary_sources(hmm2, swap_qmc).values(), *chains]
        models += [chain.subspace for chain in chains] + [chain.initial for chain in chains]
        models.append(qk.HiddenStateBasis.standard(2))
        models.append(qk.HiddenStateBasis.from_density(bell_file.density))
        for model in models:
            arrays = model_arrays(model)
            assert arrays, type(model).__name__
            writable = [name for name, array in arrays.items() if array.flags.writeable]
            assert not writable, (type(model).__name__, writable)

    def test_an_owning_array_is_frozen_in_place_and_anything_else_copied(self):
        stack = np.array([[[0.5]], [[0.5]]])
        param = qk.FinitaryParam(AB, stack, [1.0], [1.0])
        assert param.matrices is stack and not stack.flags.writeable
        base = np.array([[[0.5]], [[0.5]], [[0.0]]])
        param = qk.FinitaryParam(AB, base[:2], [1.0], [1.0])
        assert not np.shares_memory(param.matrices, base) and base.flags.writeable
        transposed = np.array([[0.5, 0.0], [0.25, 0.25]]).T
        hmm = qk.HmmParam(("s0", "s1"), AB, transposed, [1.0, 0.0], np.eye(2))
        assert not np.shares_memory(hmm.emission, transposed) and hmm.emission.flags.c_contiguous
