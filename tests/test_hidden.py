import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpmkit as qk
from qpmkit.chain import ChainKind, OperatorSubspace, QuantumChain, SuperOperator
from qpmkit.errors import DimensionMismatchError, UnsupportedChainError, ValidationError
from qpmkit.hidden import (
    HiddenStateBasis,
    InformationFunction,
    _best_path,
    _ranked_prefixes,
    _step_weights,
)

from helpers import random_hmm, random_quantum_density, single_letter_chain
from oracles import (
    best_path_reference,
    hmm_path_weights,
    hmm_viterbi_enumerate,
    viterbi_reference,
)

AB = qk.Alphabet(("a", "b"))


def bell_setup():
    density = qk.Density.generalized(
        np.diag([-1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3]).astype(complex)
    )
    basis = HiddenStateBasis.standard(5)
    rows = {
        "X": [-1, 1, -1, -1, -1],
        "Y": [1, 1, -1, 1, -1],
        "Z": [1, 1, 1, -1, -1],
    }
    functions = {
        name: InformationFunction(name, dict(zip(basis.labels, values)), (-1, 1))
        for name, values in rows.items()
    }
    return density, basis, functions


def feynman_setup():
    density = qk.Density.generalized(np.diag([5 / 8, 1 / 8, 3 / 8, -1 / 8]).astype(complex))
    basis = HiddenStateBasis.standard(4)
    x = InformationFunction("X", dict(zip(basis.labels, "++--")), ("+", "-"))
    z = InformationFunction("Z", dict(zip(basis.labels, "+-+-")), ("+", "-"))
    return density, basis, x, z


def dyadic_rows(rng, rows, cols):
    """Row-stochastic matrix with entries in quarters: products tie exactly."""
    out = np.zeros((rows, cols))
    for r in range(rows):
        np.add.at(out[r], rng.integers(cols, size=4), 0.25)
    return out


def dyadic_tie_hmm(rng) -> qk.HmmParam:
    n, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    return qk.HmmParam(
        tuple(f"s{i}" for i in range(n)),
        qk.Alphabet(tuple("abc"[:k])),
        emission=dyadic_rows(rng, n, k),
        initial=dyadic_rows(rng, 1, n)[0],
        transition=dyadic_rows(rng, n, n),
    )


def signed_diagonal_qpm(rng) -> QuantumChain:
    """Diagonal predictor chain with signed factors and a generalized initial density."""
    n = int(rng.integers(1, 5))
    sub = OperatorSubspace.diagonal(n)
    diag = rng.integers(-4, 5, size=n) / 4.0
    diag[0] = 1.0 - diag[1:].sum()
    scale = 1.0 if rng.random() < 0.5 else float(rng.random())  # dyadic ties or generic values
    ops = {a: SuperOperator(sub, rng.integers(-4, 5, size=(n, n)) / 4.0 * scale) for a in "ab"}
    initial = qk.Density.generalized(np.diag(diag.astype(complex)))
    return QuantumChain(qk.Alphabet(("a", "b")), sub, ops, initial, ChainKind.QPM)


def sparse_hmm(rng) -> qk.HmmParam:
    """Random HMM with exact zeros: some words are dead, some paths are cut."""
    hmm = random_hmm(rng)

    def thinned(rows):
        keep = rng.random(rows.shape) < 0.4
        keep[np.arange(len(rows)), rng.integers(rows.shape[1], size=len(rows))] = True
        rows = rows * keep
        return rows / rows.sum(axis=1, keepdims=True)

    initial = thinned(hmm.initial[None])[0]
    return qk.HmmParam(
        hmm.states, hmm.alphabet, thinned(hmm.emission), initial, thinned(hmm.transition)
    )


def long_word_cases(rng):
    """(chain, word) pairs of up to 3000 letters, one per family."""

    def uniform_word(chain):
        return tuple(rng.choice(chain.alphabet.symbols, size=int(rng.integers(0, 3001))))

    positive = qk.hmm_to_qmc(random_hmm(rng))
    sparse = sparse_hmm(rng)
    live = qk.sample_trajectory(sparse, int(rng.integers(0, 3001)), int(rng.integers(2**32)))
    sparse_chain = qk.hmm_to_qmc(sparse)
    dyadic = qk.hmm_to_qmc(dyadic_tie_hmm(rng))
    signed = signed_diagonal_qpm(rng)
    return [
        (positive, uniform_word(positive)),
        (sparse_chain, live),
        (sparse_chain, uniform_word(sparse_chain)),  # mostly dead
        (dyadic, uniform_word(dyadic)),
        (signed, uniform_word(signed)),
    ]


def random_sign_function(rng, labels, name):
    values = rng.choice([-1, 1], size=len(labels))
    return InformationFunction(name, dict(zip(labels, (int(v) for v in values))), (-1, 1))


class TestHiddenStateBasis:
    def test_standard_resolves_identity(self):
        basis = HiddenStateBasis.standard(4)
        assert sum(basis.projectors) == pytest.approx(np.eye(4))

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError):
            HiddenStateBasis(("w1",), (np.eye(2) * 0.5,))

    def test_rejects_overlapping(self):
        proj = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            HiddenStateBasis(("w1", "w2"), (proj, proj))

    def test_overlap_names_the_first_offending_pair(self):
        first, second = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])
        both = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(ValidationError, match=r"^projectors 'w1' and 'w3' overlap \(1\.000e\+00\)$"):
            HiddenStateBasis(("w1", "w2", "w3"), (first, second, both))
        with pytest.raises(ValidationError, match=r"^projectors 'w2' and 'w3' overlap \(1\.000e\+00\)$"):
            HiddenStateBasis(("w1", "w2", "w3"), (np.diag([0.0, 0.0, 1.0]), second, second))

    def test_non_idempotent_names_the_first_projector(self):
        half = np.diag([0.5, 0.0])
        with pytest.raises(ValidationError, match=r"^projector for 'w2' is not idempotent$"):
            HiddenStateBasis(("w1", "w2", "w3"), (np.diag([1.0, 0.0]), half, half))
        # idempotence of every projector is checked before any overlap
        with pytest.raises(ValidationError, match=r"^projector for 'w3' is not idempotent$"):
            HiddenStateBasis(("w1", "w2", "w3"), (np.diag([1.0, 0.0]),) * 2 + (half,))

    def test_checks_run_in_projector_order(self):
        half, unit = np.diag([0.5, 0.0]), np.diag([1.0, 0.0])
        with pytest.raises(ValidationError, match="'w1' is not idempotent"):
            HiddenStateBasis(("w1", "w2"), (half, np.eye(3)))
        with pytest.raises(DimensionMismatchError):
            HiddenStateBasis(("w1", "w2", "w3"), (unit, np.eye(3), half))

    def test_standard_checks_only_its_labels(self):
        basis = HiddenStateBasis.standard(3, ("x", "y", "z"))
        checked = HiddenStateBasis(("x", "y", "z"), tuple(np.diag(row) for row in np.eye(3)))
        assert basis.labels == checked.labels
        for got, want in zip(basis.projectors, checked.projectors):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        with pytest.raises(ValidationError, match="^hidden-state labels must be non-empty and distinct$"):
            HiddenStateBasis.standard(2, ("w", "w"))
        with pytest.raises(ValidationError, match="^hidden-state labels must be non-empty and distinct$"):
            HiddenStateBasis.standard(0)
        with pytest.raises(DimensionMismatchError, match="^one projector per label required$"):
            HiddenStateBasis.standard(3, ("a", "b"))

    def test_rejects_incomplete(self):
        proj = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            HiddenStateBasis(("w1",), (proj,))

    def test_from_density_weights_are_eigenvalues(self, rng):
        density = random_quantum_density(rng, 4)
        basis = HiddenStateBasis.from_density(density)
        weights = qk.hidden_state_weights(density, basis)
        eigenvalues = qk.spectral_decompose(density.matrix).eigenvalues
        assert weights == pytest.approx(eigenvalues, abs=1e-10)


class TestHiddenStateWeights:
    def test_diagonal_density_standard_basis(self):
        density = qk.Density.quantum(np.diag([0.5, 0.3, 0.2]).astype(complex))
        weights = qk.hidden_state_weights(density, HiddenStateBasis.standard(3))
        assert weights == pytest.approx([0.5, 0.3, 0.2])

    def test_signed_density_weights(self):
        density, basis, _ = bell_setup()
        weights = qk.hidden_state_weights(density, basis)
        assert weights == pytest.approx([-1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3])

    def test_weights_always_sum_to_one(self, rng):
        for n in (2, 3, 5):
            density = random_quantum_density(rng, n)
            for basis in (HiddenStateBasis.standard(n), HiddenStateBasis.from_density(density)):
                assert qk.hidden_state_weights(density, basis).sum() == pytest.approx(
                    1.0, abs=1e-10
                )


class TestInducedDistribution:
    def test_spin_preparation_first_axis(self):
        density, basis, x, _ = feynman_setup()
        report = qk.induced_distribution(density, basis, x)
        assert report.distribution == pytest.approx({"+": 0.75, "-": 0.25})
        assert report.observable

    def test_spin_preparation_second_axis(self):
        density, basis, _, z = feynman_setup()
        report = qk.induced_distribution(density, basis, z)
        assert report.distribution == pytest.approx({"+": 1.0, "-": 0.0})
        assert report.observable

    def test_constant_function(self, rng):
        density = random_quantum_density(rng, 3)
        basis = HiddenStateBasis.standard(3)
        const = InformationFunction("K", {label: "only" for label in basis.labels})
        report = qk.induced_distribution(density, basis, const)
        assert report.distribution == pytest.approx({"only": 1.0})

    def test_distribution_sums_to_one_even_when_signed(self):
        density, basis, functions = bell_setup()
        report = qk.induced_distribution(density, basis, functions["X"])
        assert report.total == pytest.approx(1.0, abs=1e-12)

    def test_requires_total_function(self):
        density, basis, _ = bell_setup()
        partial = InformationFunction("P", {"w1": 1})
        with pytest.raises(ValidationError):
            qk.induced_distribution(density, basis, partial)


class TestExpectation:
    def test_constant_one(self, rng):
        density = random_quantum_density(rng, 4)
        basis = HiddenStateBasis.standard(4)
        one = InformationFunction("one", {label: 1 for label in basis.labels})
        assert qk.expectation(density, basis, one) == pytest.approx(1.0)

    def test_signed_product_expectations(self):
        density, basis, f = bell_setup()
        values = {
            ("X", "Y"): 1.0,
            ("Y", "Z"): -1 / 3,
            ("X", "Z"): 1.0,
        }
        for (first, second), expected in values.items():
            product = qk.product_function(f[first], f[second])
            assert qk.expectation(density, basis, product) == pytest.approx(
                expected, abs=1e-12
            )

    def test_balanced_function_on_uniform_density(self):
        density = qk.Density.quantum((np.eye(2) / 2).astype(complex))
        basis = HiddenStateBasis.standard(2)
        balanced = InformationFunction("B", {"w1": -1, "w2": 1}, (-1, 1))
        assert qk.expectation(density, basis, balanced) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_numeric_codomain(self):
        density, basis, x, _ = feynman_setup()
        with pytest.raises(ValidationError):
            qk.expectation(density, basis, x)


class TestJointObservability:
    def test_pairs_are_observable(self):
        density, basis, f = bell_setup()
        for pair in (("X", "Y"), ("Y", "Z"), ("X", "Z")):
            report = qk.joint_observability(density, basis, [f[p] for p in pair])
            assert report.observable

    def test_triple_is_not_observable(self):
        density, basis, f = bell_setup()
        report = qk.joint_observability(density, basis, (f["X"], f["Y"], f["Z"]))
        assert not report.observable
        assert report.offending == pytest.approx({(-1, 1, 1): -1 / 3})

    def test_spin_pair_is_not_observable(self):
        density, basis, x, z = feynman_setup()
        report = qk.joint_observability(density, basis, (x, z))
        assert not report.observable
        assert report.offending == pytest.approx({("-", "-"): -1 / 8})

    def test_quantum_densities_observe_everything(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            density = random_quantum_density(rng, n)
            basis = HiddenStateBasis.standard(n)
            functions = [random_sign_function(rng, basis.labels, f"F{i}") for i in range(3)]
            assert qk.joint_observability(density, basis, functions).observable

    def test_marginals_match_individual_distributions(self, rng):
        density, basis, f = bell_setup()
        joint = qk.joint_observability(density, basis, (f["X"], f["Y"], f["Z"]))
        for axis, name in enumerate(("X", "Y", "Z")):
            single = qk.induced_distribution(density, basis, f[name])
            for value in (-1, 1):
                marginal = sum(
                    p for outcome, p in joint.distribution.items() if outcome[axis] == value
                )
                assert marginal == pytest.approx(single.distribution[value], abs=1e-12)


class TestBellCheck:
    def test_counterexample_violates_bound(self):
        density, basis, f = bell_setup()
        check = qk.bell_check(density, basis, f["X"], f["Y"], f["Z"])
        assert check.expectations == pytest.approx({"XY": 1.0, "YZ": -1 / 3, "XZ": 1.0})
        assert check.lhs == pytest.approx(4 / 3)
        assert check.rhs == pytest.approx(0.0)
        assert not check.satisfied
        assert not check.jointly_observable
        assert all(check.pair_observable.values())

    def test_equal_functions_saturate_the_bound(self, rng):
        density = random_quantum_density(rng, 4)
        basis = HiddenStateBasis.standard(4)
        x = random_sign_function(rng, basis.labels, "X")
        check = qk.bell_check(density, basis, x, x, x)
        assert check.lhs == pytest.approx(0.0, abs=1e-12)
        assert check.rhs == pytest.approx(0.0, abs=1e-12)
        assert check.satisfied

    def test_never_violated_on_quantum_densities(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            density = random_quantum_density(rng, n)
            basis = HiddenStateBasis.standard(n)
            x, y, z = (random_sign_function(rng, basis.labels, s) for s in "XYZ")
            check = qk.bell_check(density, basis, x, y, z)
            assert check.satisfied
            assert check.jointly_observable

    def test_rejects_non_sign_codomain(self):
        density, basis, x, z = feynman_setup()
        f = InformationFunction("F", dict(zip(basis.labels, [0, 1, 0, 1])), (0, 1))
        with pytest.raises(ValidationError):
            qk.bell_check(density, basis, f, f, f)


class TestViterbi:
    def test_deterministic_single_state(self):
        hmm = qk.HmmParam(("s0",), AB, [[1.0, 0.0]], [1.0], [[1.0]])
        chain = qk.hmm_to_qmc(hmm)
        basis = HiddenStateBasis.standard(1, hmm.states)
        result = qk.viterbi_hidden_path(chain, basis, "aaa")
        assert result.path == ("s0",) * 4
        assert result.weight == pytest.approx(1.0)
        assert not result.negative_weights

    def test_matches_exhaustive_enumeration(self, hmm2):
        chain = qk.hmm_to_qmc(hmm2)
        basis = HiddenStateBasis.standard(2, hmm2.states)
        for word in qk.words_up_to(AB, 4):
            expected_path, expected_weight = hmm_viterbi_enumerate(hmm2, word)
            result = qk.viterbi_hidden_path(chain, basis, word)
            assert result.weight == pytest.approx(expected_weight, abs=1e-10)
            assert result.path == tuple(hmm2.states[i] for i in expected_path)

    def test_random_models_match_enumeration(self, rng):
        for _ in range(5):
            hmm = random_hmm(rng)
            chain = qk.hmm_to_qmc(hmm)
            basis = HiddenStateBasis.standard(hmm.n_states, hmm.states)
            for word in qk.words_up_to(hmm.alphabet, 3):
                expected_path, expected_weight = hmm_viterbi_enumerate(hmm, word)
                result = qk.viterbi_hidden_path(chain, basis, word)
                assert result.weight == pytest.approx(expected_weight, abs=1e-10)
                assert result.path == tuple(hmm.states[i] for i in expected_path)

    def test_unreachable_state_is_avoided(self):
        hmm = qk.HmmParam(
            ("s0", "s1", "dead"),
            AB,
            [[0.5, 0.5], [0.3, 0.7], [1.0, 0.0]],
            [0.6, 0.4, 0.0],
            [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
        )
        chain = qk.hmm_to_qmc(hmm)
        basis = HiddenStateBasis.standard(3, hmm.states)
        for word in qk.words_up_to(AB, 3):
            result = qk.viterbi_hidden_path(chain, basis, word)
            assert "dead" not in result.path

    def test_path_weight_never_exceeds_word_probability(self, hmm2, rng):
        chain = qk.hmm_to_qmc(hmm2)
        basis = HiddenStateBasis.standard(2, hmm2.states)
        for word in qk.words_up_to(AB, 4):
            result = qk.viterbi_hidden_path(chain, basis, word)
            assert result.weight <= qk.chain_eval(chain, word) + 1e-10

    def test_signed_density_is_flagged(self):
        chain = single_letter_chain(
            np.eye(5), [-1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3], kind=qk.ChainKind.QPM
        )
        result = qk.viterbi_hidden_path(chain, HiddenStateBasis.standard(5), "a")
        assert result.negative_weights
        assert result.weight == pytest.approx(1 / 3)
        assert result.path == ("w2", "w2")

    def test_rank_two_projectors_rejected(self, hmm2):
        chain = qk.hmm_to_qmc(hmm2)
        coarse = HiddenStateBasis(("all",), (np.eye(2, dtype=complex),))
        with pytest.raises(UnsupportedChainError):
            qk.viterbi_hidden_path(chain, coarse, "a")

    def test_projector_outside_subspace_rejected(self, hmm2):
        chain = qk.hmm_to_qmc(hmm2)  # diagonal subspace
        plus = np.full((2, 2), 0.5, dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        tilted = HiddenStateBasis(("p", "m"), (plus, minus))
        with pytest.raises(UnsupportedChainError):
            qk.viterbi_hidden_path(chain, tilted, "a")

    def test_set_up_errors_name_the_first_failing_projector(self):
        chain = single_letter_chain(np.eye(3), [0.2, 0.3, 0.5])  # diagonal subspace
        plus = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]], dtype=complex)
        minus = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, -0.5], [0.0, -0.5, 0.5]], dtype=complex)
        first = np.diag([1.0, 0.0, 0.0]).astype(complex)
        tilted = HiddenStateBasis(("e", "p", "m"), (first, plus, minus))
        with pytest.raises(UnsupportedChainError, match="^projector for hidden state 'p' lies outside"):
            qk.viterbi_hidden_path(chain, tilted, "a")
        coarse = HiddenStateBasis(("e", "rest"), (first, np.diag([0.0, 1.0, 1.0]).astype(complex)))
        with pytest.raises(
            UnsupportedChainError,
            match="^hidden state 'rest' has a projector of rank != 1; path weights do not factorize$",
        ):
            qk.viterbi_hidden_path(chain, coarse, "a")

    def test_full_space_chain_supports_tilted_bases(self, rng):
        density = qk.pure_state_density(np.array([1.0, 1.0]) / np.sqrt(2))
        chain = qk.unitary_to_qmc(np.eye(2), density)
        plus = np.full((2, 2), 0.5, dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        tilted = HiddenStateBasis(("p", "m"), (plus, minus))
        result = qk.viterbi_hidden_path(chain, tilted, "aa")
        assert result.path == ("p", "p", "p")
        assert result.weight == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_path_copying_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        chains = [
            qk.hmm_to_qmc(random_hmm(rng)),
            qk.hmm_to_qmc(dyadic_tie_hmm(rng)),
            signed_diagonal_qpm(rng),
            signed_diagonal_qpm(rng),
        ]
        for chain in chains:
            basis = HiddenStateBasis.standard(chain.subspace.ambient_dim)
            for _ in range(4):
                word = tuple(rng.choice(chain.alphabet.symbols, size=int(rng.integers(0, 9))))
                result = qk.viterbi_hidden_path(chain, basis, word)
                path, weight = viterbi_reference(chain, basis, word)
                assert result.path == path
                assert result.weight == weight
                assert result.sign == int(np.sign(weight))
                if weight:
                    assert result.log_weight == pytest.approx(np.log(abs(weight)), rel=1e-14)
                else:
                    assert result.log_weight == -np.inf

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_long_words_match_the_searched_rank_reference_bit_for_bit(self, seed):
        # past many rescales, where the path-copying reference cannot go
        rng = np.random.default_rng(seed)
        for chain, word in long_word_cases(rng):
            basis = HiddenStateBasis.standard(chain.subspace.ambient_dim)
            init, factors = _step_weights(chain, basis, qk.DEFAULTS.recon_tol)
            letters = chain.alphabet.indices(word)
            path, mantissa, exponent = best_path_reference(init, factors, letters)
            found = _best_path(init, factors, letters)
            assert found == (path, mantissa, exponent)
            assert math.copysign(1.0, found[1]) == math.copysign(1.0, mantissa)
            result = qk.viterbi_hidden_path(chain, basis, word)
            assert result.path == tuple(basis.labels[i] for i in path)
            assert result.sign == int(np.sign(mantissa))
            assert result.negative_weights == bool(
                init.min() < -1e-12 or factors.min() < -1e-12 or mantissa < 0
            )
            if mantissa:
                assert result.log_weight == math.log(abs(mantissa)) + exponent * math.log(2.0)
            else:
                assert result.log_weight == -math.inf

    def test_long_word_cases_reach_dead_and_long_live_words(self):
        # the property above has content: sparse HMMs give live words of
        # thousands of letters, and dead words, which take the rerun with
        # both halves (the test below pins one where that changes the path)
        rng = np.random.default_rng(11)
        dead = long_live = 0
        for _ in range(12):
            for chain, word in long_word_cases(rng)[1:3]:
                basis = HiddenStateBasis.standard(chain.subspace.ambient_dim)
                init, factors = _step_weights(chain, basis, qk.DEFAULTS.recon_tol)
                mantissa = best_path_reference(init, factors, chain.alphabet.indices(word))[1]
                dead += mantissa == 0
                long_live += mantissa != 0 and len(word) > 1000
        assert dead >= 3 and long_live >= 3

    def test_dead_word_keeps_the_lexicographically_smallest_zero_path(self):
        # s0 emits only a and stays; "bab" is dead.  One prefix per state
        # would answer s1 s0 s0 s0; the smallest prefixes reach s0 s0 s0 s0
        hmm = qk.HmmParam(
            ("s0", "s1"), AB, [[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0], [[1.0, 0.0], [0.5, 0.5]]
        )
        chain = qk.hmm_to_qmc(hmm)
        basis = HiddenStateBasis.standard(2, hmm.states)
        init, factors = _step_weights(chain, basis, qk.DEFAULTS.recon_tol)
        assert _ranked_prefixes(init, factors, [1, 0, 1], 1)[0] == [1, 0, 0, 0]
        result = qk.viterbi_hidden_path(chain, basis, "bab")
        assert result.path == ("s0",) * 4
        assert (result.weight, result.sign, result.log_weight) == (0.0, 0, -math.inf)
        assert result.path == viterbi_reference(chain, basis, "bab")[0]

    def test_reference_comparison_sees_signed_weights_and_ties(self):
        # the property above has content: optimal paths that pass through a
        # negative prefix (so the lo track matters) and exact ties both occur
        rng = np.random.default_rng(7)
        through_negative = ties = 0
        for _ in range(40):
            chain = signed_diagonal_qpm(rng)
            basis = HiddenStateBasis.standard(chain.subspace.ambient_dim)
            word = tuple(rng.choice(chain.alphabet.symbols, size=4))
            states = [basis.labels.index(label) for label in viterbi_reference(chain, basis, word)[0]]
            prefix = [chain.initial.matrix[states[0], states[0]].real]
            for t, symbol in enumerate(word):
                prefix.append(prefix[-1] * chain.letter_ops[symbol].matrix[states[t], states[t + 1]])
            through_negative += min(prefix) < 0 < prefix[-1]
            hmm = dyadic_tie_hmm(rng)
            word = tuple(rng.choice(hmm.alphabet.symbols, size=3))
            _, weight = hmm_viterbi_enumerate(hmm, word)
            ties += weight > 0 and np.count_nonzero(hmm_path_weights(hmm, word) == weight) > 1
        assert through_negative >= 5 and ties >= 5
