"""Batched trajectory sampling against the scalar reference samplers.

``oracles.sample_reference`` draws one trajectory and one scalar uniform
at a time; the library fills a block of uniform rows from one stream and
advances the block's trajectories together.  Words, and whether a run
raises, must be the same.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpmkit as qk
from qpmkit import models
from qpmkit.chain import ChainKind, OperatorSubspace, QuantumChain, SuperOperator
from qpmkit.errors import SamplingError, ValidationError

from helpers import random_hmm, random_local_qrw
from oracles import sample_reference

AB = qk.Alphabet(("a", "b"))
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
FAMILIES = ["hmm", "dyadic_hmm", "bad_row_hmm", "walk", "hmm_chain", "walk_chain", "clamped_qpm"]


def dyadic_hmm(rng) -> qk.HmmParam:
    """Rows of eighths, zeros included, so every CDF is exact."""
    n, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))

    def rows(count, width):
        return rng.multinomial(8, np.full(width, 1.0 / width), size=count) / 8.0

    return qk.HmmParam(
        tuple(f"s{i}" for i in range(n)),
        qk.Alphabet(tuple("abc"[:k])),
        emission=rows(n, k),
        initial=rows(1, n)[0],
        transition=rows(n, n),
    )


def bad_row_hmm(rng) -> qk.HmmParam:
    """A dyadic HMM with one emission or transition row made invalid."""
    hmm = dyadic_hmm(rng)
    emission, transition = hmm.emission.copy(), hmm.transition.copy()
    target = emission if rng.random() < 0.5 else transition
    row = int(rng.integers(len(target)))
    target[row] = -target[row] if rng.random() < 0.5 else 0.0
    return qk.HmmParam(hmm.states, hmm.alphabet, emission, hmm.initial, transition)


def clamped_qpm(rng) -> QuantumChain:
    """A diagonal predictor model whose third letter's branch is slightly negative."""
    hmm = random_hmm(rng, 3, 2)
    split = hmm.emission.T[:, :, None] * hmm.transition[None]
    leak = 1e-11 * rng.random((3, 3))
    sub = OperatorSubspace.diagonal(3)
    ops = {
        "a": SuperOperator(sub, split[0] + leak),
        "b": SuperOperator(sub, split[1]),
        "c": SuperOperator(sub, -leak),
    }
    density = qk.Density.generalized(np.diag(hmm.initial.astype(complex)))
    return QuantumChain(qk.Alphabet(("a", "b", "c")), sub, ops, density, ChainKind.QPM)


def make_model(family: str, seed: int):
    rng = np.random.default_rng(seed)
    if family == "hmm":
        return random_hmm(rng)
    if family == "dyadic_hmm":
        return dyadic_hmm(rng)
    if family == "bad_row_hmm":
        return bad_row_hmm(rng)
    if family == "walk":
        return random_local_qrw(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
    if family == "hmm_chain":
        return qk.hmm_to_qmc(random_hmm(rng))
    if family == "walk_chain":
        return qk.qrw_to_qmc(random_local_qrw(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3))))
    return clamped_qpm(rng)


def outcome(sample):
    try:
        return sample()
    except (SamplingError, ValidationError) as exc:
        return type(exc)


def stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def rows(seed: int, count: int):
    """One stream, once per word: the reference draws a word's uniforms after
    the words before it, so word i reads row i of the stream."""
    return [stream(seed)] * count


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(model_seed=SEEDS, seed=SEEDS, count=st.integers(0, 9), length=st.integers(0, 40))
def test_batched_words_equal_reference(family, model_seed, seed, count, length):
    model = make_model(family, model_seed)
    got = outcome(lambda: qk.sample_trajectories(model, length, count, seed))
    want = outcome(lambda: sample_reference(model, length, rows(seed, count)))
    assert got == want


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(model_seed=SEEDS, seed=SEEDS, length=st.integers(0, 40))
def test_single_stream_equals_reference(family, model_seed, seed, length):
    model = make_model(family, model_seed)
    got = outcome(lambda: [qk.sample_trajectory(model, length, seed)])
    assert got == outcome(lambda: sample_reference(model, length, rows(seed, 1)))


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(model_seed=SEEDS, seed=SEEDS, count=st.integers(0, 9), more=st.integers(1, 300),
       length=st.integers(0, 12))
def test_fewer_words_are_a_prefix(family, model_seed, seed, count, more, length):
    # word i reads row i of one stream, so a count's words do not depend on
    # the count, across blocks too, and sample_trajectory is row 0
    model = make_model(family, model_seed)
    words = outcome(lambda: qk.sample_trajectories(model, length, count + more, seed))
    if isinstance(words, list):
        assert qk.sample_trajectories(model, length, count, seed) == words[:count]
        assert qk.sample_trajectory(model, length, seed) == words[0]


def failing_hmm() -> qk.HmmParam:
    """States s0, s1, s2 in turn, surely; s2's emission row is invalid."""
    return qk.HmmParam(
        ("s0", "s1", "s2"),
        AB,
        emission=[[1.0, 0.0], [0.0, 1.0], [-0.5, 1.5]],
        initial=[1.0, 0.0, 0.0],
        transition=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
    )


def failing_chain() -> QuantumChain:
    """A diagonal predictor chain through states 0, 1, 2, surely; in state 2
    the branches of "a" and "b" weigh 1.4 and -0.4."""
    sub = OperatorSubspace.diagonal(3)
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.4]])
    b = np.zeros((3, 3))
    b[2, 2] = -0.4
    ops = {"a": SuperOperator(sub, a), "b": SuperOperator(sub, b)}
    density = qk.Density.generalized(np.diag([1.0, 0.0, 0.0]).astype(complex))
    return QuantumChain(AB, sub, ops, density, ChainKind.QPM)


def failing_walk() -> qk.QrwParam:
    """A contraction that moves the wave from node a to b to c, surely, and
    then leaves node a a weight of 1e-18 and the others none."""
    nodes = qk.Alphabet(("a", "b", "c"))
    edges = (("a", "b"), ("b", "c"), ("c", "a"))
    shift = np.array([[0.0, 0.0, 1e-9], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return qk.QrwParam(nodes, edges, ("x",), shift, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize(
    "build, prefix, message",
    [
        (failing_hmm, "ab", "emission row has probability -0.5 below the clamp tolerance"),
        (failing_chain, "aa", "branch distribution has probability -0.4 below the clamp tolerance"),
        (failing_walk, "bc", "sampled node 'a' has zero probability"),
    ],
)
def test_structural_failure_mid_word_raises_its_error(build, prefix, message):
    # every trajectory reaches the failure at its third symbol whatever its
    # uniforms, so the error does not depend on the stream layout
    model = build()
    assert qk.sample_trajectories(model, 2, 3, seed=4) == [tuple(prefix)] * 3
    for count in (1, 5):
        with pytest.raises(SamplingError) as refused:
            qk.sample_trajectories(model, 6, count, seed=4)
        assert str(refused.value) == message


def forking_walk() -> qk.QrwParam:
    """From node a the wave moves to b or to c, at weight 1 each.  From b it
    leaves node d a weight of 1e-18; from c it moves to e, and from e it
    leaves node a a weight of 1e-18."""
    move = np.zeros((5, 5))
    move[1, 0] = move[2, 0] = 1.0
    move[3, 1] = 1e-9
    move[4, 2] = 1.0
    move[0, 4] = 1e-9
    edges = (("a", "b"), ("a", "c"), ("b", "d"), ("c", "e"), ("e", "a"))
    return qk.QrwParam(qk.Alphabet(tuple("abcde")), edges, ("x",), move, np.eye(5)[0])


@pytest.mark.parametrize("steps", [1, 2, 64])
@pytest.mark.parametrize("seed, node", [(1, "a"), (2, "d"), (4, "d")])
def test_the_first_failing_step_names_the_error(monkeypatch, steps, seed, node):
    # a trajectory whose first uniform is below 1/2 moves to b and fails at
    # its second symbol, naming d; any other moves to c and fails at its
    # third, naming a.  The earliest step wins over the earliest
    # trajectory: with seed 4, trajectory 0 moves to c and trajectory 1 to b.
    first = stream(seed).random((2, 3))[:, 0]
    assert ("d" if (first < 0.5).any() else "a") == node
    monkeypatch.setattr(models, "_CHECK_STEPS", steps)
    with pytest.raises(SamplingError, match=f"^sampled node '{node}' has zero probability$"):
        qk.sample_trajectories(forking_walk(), 3, 2, seed)


@pytest.mark.parametrize("block", [1, 3])
def test_words_do_not_depend_on_block_size(monkeypatch, hmm2, qrw_hadamard, block):
    # nor on the steps between checks, nor does the error of a failing run
    walk = random_local_qrw(np.random.default_rng(3), 3, 2)
    cases = [hmm2, qrw_hadamard, walk, qk.hmm_to_qmc(hmm2), failing_hmm(), failing_chain(), failing_walk()]

    def run():
        results = []
        for model in cases:
            try:
                results.append(qk.sample_trajectories(model, 30, 7, seed=21))
            except SamplingError as exc:
                results.append(str(exc))
        return results

    expected = run()
    monkeypatch.setattr(models, "_SAMPLE_BLOCK", block)
    monkeypatch.setattr(models, "_CHECK_STEPS", block)
    assert run() == expected


@pytest.mark.parametrize("name", ["hmm2", "qrw_hadamard"])
def test_long_chain_trajectories_renormalise(request, name):
    # the prefix mass falls far below clamp_tol by length 200; renormalising
    # the chosen branch keeps every step's distribution well defined
    source = request.getfixturevalue(name)
    chain = qk.hmm_to_qmc(source) if name == "hmm2" else qk.qrw_to_qmc(source)
    words = qk.sample_trajectories(chain, 200, 8, seed=200)
    assert all(len(word) == 200 for word in words)
    assert all(qk.chain_eval(chain, word) > 0 for word in words)


def test_one_bad_trajectory_raises():
    # the initial law sends exactly the trajectory with the smallest first
    # uniform to a state whose emission row is invalid; a word of 3 symbols
    # takes 7 uniforms
    first = sorted(stream(5).random((5, 7))[:, 0])
    bad_share = (first[0] + first[1]) / 2

    def hmm(p):
        return qk.HmmParam(("bad", "ok"), AB, emission=[[-1.0, 2.0], [1.0, 0.0]],
                           initial=[p, 1.0 - p], transition=[[0.0, 1.0], [0.0, 1.0]])

    with pytest.raises(SamplingError, match="emission row"):
        qk.sample_trajectories(hmm(bad_share), 3, 5, seed=5)
    with pytest.raises(SamplingError):
        sample_reference(hmm(bad_share), 3, rows(5, 5))
    below = first[0] / 2
    assert qk.sample_trajectories(hmm(below), 3, 5, seed=5) == [("a",) * 3] * 5


def test_walk_errors():
    nodes = qk.Alphabet(("a", "b"))
    edges = (("a", "b"), ("b", "a"))
    wave = np.array([1.0, 0.0], dtype=complex)
    stretched = qk.QrwParam(nodes, edges, ("c",), np.eye(2), wave * 1.5)
    with pytest.raises(ValidationError, match="wave norm"):
        qk.sample_trajectories(stretched, 1, 2, seed=0)
    assert qk.sample_trajectories(stretched, 0, 2, seed=0) == [(), ()]
    # a contraction (not unitary) leaves every node a weight below the
    # collapse threshold, so whichever node is drawn cannot be collapsed onto
    shrinking = qk.QrwParam(nodes, edges, ("c",), 1e-9 * np.eye(2), wave)
    with pytest.raises(SamplingError, match="zero probability"):
        qk.sample_trajectories(shrinking, 1, 2, seed=0)
    with pytest.raises(SamplingError):
        sample_reference(shrinking, 1, rows(0, 2))


def test_unsupported_model_raises_without_trajectories():
    with pytest.raises(ValidationError, match="cannot sample"):
        qk.sample_trajectories(object(), 3, 0, seed=1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=SEEDS, nodes=st.integers(1, 4), coins=st.integers(1, 3), length=st.integers(0, 30))
def test_qrw_eval_matches_linear_form(seed, nodes, coins, length):
    rng = np.random.default_rng(seed)
    qrw = random_local_qrw(rng, nodes, coins)
    word = qk.sample_trajectory(qrw, length, seed)
    form = qk.qrw_process(qrw).linear
    state = form.initial
    for symbol in word:
        state = state @ form.matrices[qrw.nodes.index(symbol)]
    expected = float((state @ form.end).real)
    assert expected > 0
    assert abs(qk.qrw_eval(qrw, word) - expected) <= 1e-12 * expected
