"""Batched trajectory sampling against the scalar reference samplers.

``oracles.sample_reference`` draws one trajectory and one scalar uniform
at a time; the library draws each stream's uniforms at once and advances
a block of trajectories together.  Words, and whether a run raises, must
be the same.
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


def children(seed: int, count: int):
    return [np.random.Generator(np.random.PCG64(c)) for c in np.random.SeedSequence(seed).spawn(count)]


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(model_seed=SEEDS, seed=SEEDS, count=st.integers(0, 9), length=st.integers(0, 40))
def test_batched_words_equal_reference(family, model_seed, seed, count, length):
    model = make_model(family, model_seed)
    got = outcome(lambda: qk.sample_trajectories(model, length, count, seed))
    want = outcome(lambda: sample_reference(model, length, children(seed, count)))
    assert got == want


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(model_seed=SEEDS, seed=SEEDS, length=st.integers(0, 40))
def test_single_stream_equals_reference(family, model_seed, seed, length):
    model = make_model(family, model_seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    got = outcome(lambda: [qk.sample_trajectory(model, length, seed)])
    assert got == outcome(lambda: sample_reference(model, length, [rng]))


@pytest.mark.parametrize("block", [1, 3])
def test_words_do_not_depend_on_block_size(monkeypatch, hmm2, qrw_hadamard, block):
    walk = random_local_qrw(np.random.default_rng(3), 3, 2)
    cases = [(hmm2, 30), (qrw_hadamard, 30), (walk, 30), (qk.hmm_to_qmc(hmm2), 30)]
    expected = [qk.sample_trajectories(model, length, 7, seed=21) for model, length in cases]
    monkeypatch.setattr(models, "_SAMPLE_BLOCK", block)
    assert [qk.sample_trajectories(model, length, 7, seed=21) for model, length in cases] == expected


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
    # uniform to a state whose emission row is invalid
    first = sorted(rng.random() for rng in children(5, 5))
    bad_share = (first[0] + first[1]) / 2

    def hmm(p):
        return qk.HmmParam(("bad", "ok"), AB, emission=[[-1.0, 2.0], [1.0, 0.0]],
                           initial=[p, 1.0 - p], transition=[[0.0, 1.0], [0.0, 1.0]])

    with pytest.raises(SamplingError, match="emission row"):
        qk.sample_trajectories(hmm(bad_share), 3, 5, seed=5)
    with pytest.raises(SamplingError):
        sample_reference(hmm(bad_share), 3, children(5, 5))
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
        sample_reference(shrinking, 1, children(0, 2))


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
