"""The factorised sweeps against per-word evaluation, and equivalence against enumeration.

Each model is also wrapped as a bare-callable :class:`Process` (no linear
form), which the sweeps evaluate one word at a time; both must agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpmkit as qk
from qpmkit.chain import ChainKind, OperatorSubspace, QuantumChain, SuperOperator

from helpers import (
    random_hmm,
    random_kraus_family,
    random_local_qrw,
    random_qmc,
    random_quantum_density,
    random_stochastic_rows,
)
from oracles import equivalent_by_enumeration

SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)


def bare(process: qk.Process) -> qk.Process:
    """The same word function without a linear form."""
    return qk.Process(process.alphabet, process.fn, process.dimension)


def dyadic(rng, shape):
    """Entries in {-1, -3/4, ..., 1}: short products and sums of them are exact."""
    return rng.integers(-4, 5, size=shape) / 4.0


def dyadic_finitary(rng) -> qk.FinitaryParam:
    """A finitary parametrization that need not define a process."""
    d = int(rng.integers(1, 4))
    alphabet = qk.Alphabet(("a", "b"))
    matrices = {a: dyadic(rng, (d, d)) for a in alphabet}
    return qk.FinitaryParam(alphabet, matrices, dyadic(rng, d), dyadic(rng, d))


def dyadic_qpm(rng) -> QuantumChain:
    """A diagonal predictor model whose word values are exact and may leave [0, 1]."""
    d = int(rng.integers(2, 4))
    sub = OperatorSubspace.diagonal(d)
    diag = dyadic(rng, d)
    diag[0] = 1.0 - diag[1:].sum()
    ops = {a: SuperOperator(sub, dyadic(rng, (d, d))) for a in ("a", "b")}
    initial = qk.Density.generalized(np.diag(diag.astype(complex)))
    return QuantumChain(qk.Alphabet(("a", "b")), sub, ops, initial, ChainKind.QPM)


def povm_chain(rng) -> QuantumChain:
    family = random_kraus_family(rng, 2, 2)
    return qk.povm_to_qmc(family, random_quantum_density(rng, 2))


def small_hmm(rng) -> qk.HmmParam:
    return random_hmm(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))


def sweep_models(rng) -> list[qk.Process]:
    """One process per model family, each with a linear form."""
    return [
        qk.hmm_process(random_hmm(rng)),
        qk.finitary_process(qk.hmm_to_finitary(random_hmm(rng))),
        qk.finitary_process(dyadic_finitary(rng)),
        qk.chain_process(random_qmc(rng, str(rng.choice(["hmm", "povm", "unitary", "qrw"])))),
        qk.chain_process(dyadic_qpm(rng)),
        qk.qrw_process(random_local_qrw(rng, int(rng.integers(2, 4)), int(rng.integers(1, 3)))),
    ]


def test_every_model_family_lowers():
    rng = np.random.default_rng(3)
    for process in sweep_models(rng):
        form = process.linear
        assert form.dim == process.dimension
        assert form.matrices.shape == (len(process.alphabet), form.dim, form.dim)
        assert bare(process).linear is None


class TestFactorisedSweeps:
    @PROPERTY
    @given(SEEDS)
    def test_hankel_matches_per_word(self, seed):
        rng = np.random.default_rng(seed)
        for process in sweep_models(rng):
            fast = qk.build_hankel(process, 3, 2)
            slow = qk.build_hankel(bare(process), 3, 2)
            assert fast.row_words == slow.row_words and fast.col_words == slow.col_words
            assert np.max(np.abs(fast.matrix - slow.matrix)) <= 1e-12

    @PROPERTY
    @given(SEEDS)
    def test_axiom_problems_match_per_word(self, seed):
        rng = np.random.default_rng(seed)
        for process in sweep_models(rng):
            for horizon in (0, 3):
                expected = qk.check_process_axioms(bare(process), horizon)
                assert qk.check_process_axioms(process, horizon) == expected

    def test_axiom_problems_are_reported(self):
        # the dyadic models do break the axioms, so the comparison above has content
        rng = np.random.default_rng(5)
        broken = [qk.finitary_process(dyadic_finitary(rng)) for _ in range(10)]
        problems = [qk.check_process_axioms(p, 3) for p in broken]
        assert sum(bool(p) for p in problems) >= 5
        assert problems == [qk.check_process_axioms(bare(p), 3) for p in broken]

    @PROPERTY
    @given(SEEDS)
    def test_finitary_to_qpm_matches_per_word(self, seed):
        rng = np.random.default_rng(seed)
        # the least-squares fit of a walk's Hermitian-basis coordinates loses about
        # three digits whichever way the Hankel is built (up to 1.1e-12 per word
        # over 30 seeded walks with per-word evaluation), hence its looser bound
        params = [
            (qk.hmm_to_finitary(small_hmm(rng)), 1e-12),
            (qk.qpm_to_finitary(qk.qrw_to_qmc(random_local_qrw(rng, 2, 1))), 1e-10),
        ]
        for param, tol in params:
            qpm = qk.finitary_to_qpm(param)
            slow = bare(qk.finitary_process(param))
            for word in qk.words_up_to(param.alphabet, 4):
                assert abs(qk.chain_eval(qpm, word) - slow(word)) <= tol

    @PROPERTY
    @given(SEEDS)
    def test_qpm_window_matches_per_word(self, seed):
        rng = np.random.default_rng(seed)
        for chain in (dyadic_qpm(rng), qk.as_qpm(random_qmc(rng, "povm"))):
            report = qk.validate_chain(chain, horizon=4)
            slow = bare(qk.chain_process(chain))
            expected = [
                f"word-probability at ('words', {word!r}): tr over word "
                f"{''.join(word) or 'empty'} is {slow(word)!r}, outside [0, 1]"
                for word in qk.words_up_to(chain.alphabet, 4)
                if not -1e-9 <= slow(word) <= 1 + 1e-9
            ]
            got = [m for m in report.messages() if m.startswith("word-probability")]
            assert got == expected


def hmm_pair(rng, delta):
    hmm = small_hmm(rng)
    if not delta:
        return qk.hmm_process(hmm), qk.finitary_process(qk.hmm_to_finitary(hmm))
    noise = random_stochastic_rows(rng, hmm.n_states, hmm.n_states)
    mixed = (1 - delta) * hmm.transition + delta * noise
    other = qk.HmmParam(hmm.states, hmm.alphabet, hmm.emission, hmm.initial, mixed)
    return qk.hmm_process(hmm), qk.hmm_process(other)


def finitary_pair(rng, delta):
    param = dyadic_finitary(rng)
    d = param.dimension
    if delta:
        matrices = {
            a: m + delta * rng.normal(size=(d, d)) for a, m in param.letter_matrices.items()
        }
        other = qk.FinitaryParam(param.alphabet, matrices, param.initial, param.end)
    else:  # a similarity transform: other matrices, the same process
        s = np.eye(d) + 0.3 * rng.normal(size=(d, d))
        s_inv = np.linalg.inv(s)
        matrices = {a: s_inv @ m @ s for a, m in param.letter_matrices.items()}
        other = qk.FinitaryParam(param.alphabet, matrices, param.initial @ s, s_inv @ param.end)
    return qk.finitary_process(param), qk.finitary_process(other)


def chain_pair(rng, delta):
    chain = povm_chain(rng)
    if not delta:
        return qk.chain_process(chain), qk.finitary_process(qk.qpm_to_finitary(chain))
    ops = {
        a: SuperOperator(chain.subspace, op.matrix + delta * rng.normal(size=op.matrix.shape))
        for a, op in chain.letter_ops.items()
    }
    other = QuantumChain(chain.alphabet, chain.subspace, ops, chain.initial, chain.kind)
    return qk.chain_process(chain), qk.chain_process(other)


def walk_pair(rng, delta):
    walk = random_local_qrw(rng, 2, 1)
    if not delta:
        converted = qk.qpm_to_finitary(qk.qrw_to_qmc(walk))
        return qk.qrw_process(walk), qk.finitary_process(converted)
    c, s = np.cos(delta), np.sin(delta)
    rotated = walk.unitary @ np.array([[c, -s], [s, c]])
    other = qk.QrwParam(walk.nodes, walk.edges, walk.coins, rotated, walk.wave)
    return qk.qrw_process(walk), qk.qrw_process(other)


def equivalence_pairs(rng, delta: float):
    """One pair per family: two forms of one model when ``delta`` is 0, else a perturbed copy."""
    return [make(rng, delta) for make in (hmm_pair, finitary_pair, chain_pair, walk_pair)]


class TestEquivalence:
    @pytest.mark.parametrize("delta", [0.0, 1e-3, 1e-12])
    @PROPERTY
    @given(SEEDS)
    def test_verdict_matches_enumeration(self, delta, seed):
        rng = np.random.default_rng(seed)
        for first, second in equivalence_pairs(rng, delta):
            horizon = first.dimension + second.dimension
            expected = equivalent_by_enumeration(first, second, horizon)
            assert qk.processes_equivalent(first, second) is expected
            witness = qk.distinguishing_word(first, second)
            assert (witness is None) is expected
            if witness is not None:
                assert len(witness) <= horizon
                assert abs(first(witness) - second(witness)) > 1e-9

    def test_large_perturbations_are_caught(self):
        rng = np.random.default_rng(11)
        for first, second in equivalence_pairs(rng, 1e-3):
            assert qk.distinguishing_word(first, second) is not None

    def test_witness_is_a_shortest_distinguishing_word(self):
        ab = qk.Alphabet(("a", "b"))
        a = np.array([[0.5, 0.0], [0.5, 0.0]])
        b = np.array([[0.0, 0.5], [0.0, 0.0]])
        start, ones = np.array([1.0, 0.0]), np.ones(2)
        first = qk.finitary_process(qk.FinitaryParam(ab, {"a": a, "b": b}, start, ones))
        # a second "b" from state 2 now has weight: only words containing "bb" differ
        b_loop = b + np.array([[0.0, 0.0], [0.0, 0.5]])
        second = qk.finitary_process(qk.FinitaryParam(ab, {"a": a, "b": b_loop}, start, ones))
        assert qk.distinguishing_word(first, second) == ("b", "b")
        assert qk.distinguishing_word(first, bare(first)) is None
