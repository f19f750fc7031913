"""The word evaluator against the per-letter loop and the scaled forward recursion.

Words under ``_BLOCKED_MIN`` letters, forms wider than
``_BLOCKED_MAX_DIM`` and forms with a negative entry keep the plain
loop's bits.  Longer words on narrower nonnegative forms take the blocked
path: they agree in the log with the scaled forward oracle wherever the
double is normal, and never read 0.0, NaN or inf where the word's value
is a finite normal number.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpmkit as qk
from qpmkit.errors import AlphabetError
from qpmkit.process import _BLOCK, _BLOCKED_MAX_DIM, _BLOCKED_MIN, _GATHER

from helpers import random_hmm, random_local_qrw, random_qmc
from oracles import forward_log_reference, prefix_product_reference

SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=4, deadline=None, derandomize=True)
LENGTHS = list(range(3 * _BLOCK + 1)) + [200, 2000]
SMALLEST_NORMAL = 2.2250738585072014e-308


def similar_finitary(rng, hmm: qk.HmmParam) -> qk.FinitaryParam:
    """The HMM's process through a random change of basis: signed entries, same values."""
    n = hmm.n_states
    basis = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    inverse = np.linalg.inv(basis)
    matrices = [
        inverse @ (hmm.emission[:, i][:, None] * hmm.transition) @ basis
        for i in range(len(hmm.alphabet))
    ]
    return qk.FinitaryParam(hmm.alphabet, matrices, hmm.initial @ basis, inverse @ np.ones(n))


def hmm_case(name, hmm):
    matrices = [hmm.emission[:, i][:, None] * hmm.transition for i in range(len(hmm.alphabet))]
    ones = np.ones(hmm.n_states)  # the HMM's own end vector
    return name, lambda word: qk.hmm_eval(hmm, word), hmm.alphabet, hmm.initial, matrices, ones


def chain_case(name, chain, start=None, evaluate=None):
    matrices = list(chain.operators)
    start = chain.initial_coords if start is None else start
    evaluate = evaluate or (lambda word: qk.chain_eval(chain, word))
    return name, evaluate, chain.alphabet, start, matrices, chain.subspace.traces


def uniform_letters(rng, alphabet, length) -> list[int]:
    return [int(a) for a in rng.integers(len(alphabet), size=length)]


def cycle_letters(rng, alphabet, length) -> list[int]:
    """Nodes of a walk on the directed cycle: each step stays or moves on, so p(word) > 0."""
    steps = rng.integers(2, size=length)
    steps[:1] = rng.integers(len(alphabet))
    return [int(a) for a in np.cumsum(steps) % len(alphabet)]


def cases(seed):
    """(name, evaluator, alphabet, start, letter matrices, end) per form family."""
    rng = np.random.default_rng(seed)
    hmm = random_hmm(rng, int(rng.integers(2, _BLOCKED_MAX_DIM + 1)), int(rng.integers(2, 4)))
    wide = random_hmm(rng, _BLOCKED_MAX_DIM + 1, 2)
    finitary = qk.hmm_to_finitary(random_hmm(rng))
    signed = similar_finitary(rng, random_hmm(rng))
    stationary = random_qmc(rng, str(rng.choice(["hmm", "povm"])))
    limit = qk.cesaro_limit(stationary)
    return [
        hmm_case("hmm", hmm),
        hmm_case("wide-hmm", wide),
        (
            "finitary",
            lambda w: qk.finitary_eval(finitary, w),
            finitary.alphabet,
            finitary.initial,
            list(finitary.matrices),
            finitary.end,
        ),
        (
            "signed-finitary",
            lambda w: qk.finitary_eval(signed, w),
            signed.alphabet,
            signed.initial,
            list(signed.matrices),
            signed.end,
        ),
        *(chain_case(f"chain-{f}", random_qmc(rng, f)) for f in ("hmm", "povm", "unitary", "qrw")),
        chain_case("predictor", qk.finitary_to_qpm(qk.hmm_to_finitary(random_hmm(rng)))),
        chain_case(
            "stationary",
            stationary,
            limit.coords,
            lambda w: qk.stationary_word_probability(stationary, w, limit),
        ),
        chain_case("wide-walk", qk.qrw_to_qmc(random_local_qrw(rng, 4, 2))),
    ]


@PROPERTY
@given(SEEDS)
def test_values_against_the_loop_and_the_scaled_forward_oracle(seed):
    rng = np.random.default_rng(seed)
    seen_plain_only = seen_blocked = False
    for name, evaluate, alphabet, start, matrices, end in cases(seed):
        plain_only = start.shape[0] > _BLOCKED_MAX_DIM or min(m.min() for m in matrices) < 0
        seen_plain_only |= plain_only
        draw = cycle_letters if name == "wide-walk" else uniform_letters
        for length in LENGTHS:
            letters = draw(rng, alphabet, length)
            word = tuple(alphabet.symbols[a] for a in letters)
            value = evaluate(word)
            plain = prefix_product_reference(start, matrices, letters, end)
            if length < _BLOCKED_MIN or plain_only:
                assert repr(value) == repr(plain), (name, length)
                continue
            if math.isfinite(plain):
                assert math.isfinite(value), (name, length, value)
            log = forward_log_reference(start, matrices, letters, end)
            if log > math.log(SMALLEST_NORMAL) + 1.0:
                assert abs(value) >= SMALLEST_NORMAL, (name, length, value, log)
            if abs(value) >= SMALLEST_NORMAL:
                gap = abs(math.log(abs(value)) - log)
                assert gap <= 1e-12 * max(1.0, abs(log)), (name, length, gap, log)
            seen_blocked = True
    assert seen_plain_only and seen_blocked


def test_long_words_read_zero_only_below_the_double_range():
    hmm = random_hmm(np.random.default_rng(5), 8, 3)
    rng = np.random.default_rng(6)
    matrices = [hmm.emission[:, i][:, None] * hmm.transition for i in range(3)]
    for length in (200, 800, 2000):
        letters = [int(a) for a in rng.integers(3, size=length)]
        value = qk.hmm_eval(hmm, [hmm.alphabet.symbols[a] for a in letters])
        log = forward_log_reference(hmm.initial, matrices, letters)
        if log < math.log(5e-324):
            assert value == 0.0
        else:
            assert value > 0.0
            assert abs(math.log(value) - log) <= 1e-12 * abs(log)


@pytest.mark.parametrize("shrink", [2.0**-2.05, 2.0**-2.5])
def test_a_state_that_shrinks_within_a_gather_is_rescaled_per_block(shrink):
    """a shrinks the second coordinate, b grows it back: the word's value is 1.

    After the first gather of a's the state sits at about 2**-1050, a
    subnormal number, or at 2**-1280, which is 0.0; either way the gather
    is stepped again block by block.  The plain loop keeps ~8 digits of
    the first word's value and reads 0.0 for the second.
    """
    param = qk.FinitaryParam(
        qk.Alphabet(("a", "b")),
        [np.diag([1.0, shrink]), np.diag([1.0, 1.0 / shrink])],
        np.array([0.0, 1.0]),
        np.array([0.0, 1.0]),
    )
    word = "a" * _GATHER + "b" * _GATHER
    value = qk.finitary_eval(param, word)
    matrices = list(param.matrices)
    letters = [0] * _GATHER + [1] * _GATHER
    assert abs(prefix_product_reference(param.initial, matrices, letters, param.end) - 1) > 1e-9
    assert abs(forward_log_reference(param.initial, matrices, letters, param.end)) <= 1e-12
    assert abs(math.log(value)) <= 1e-12


@pytest.mark.parametrize("shift", [-1060, 1000])
def test_a_start_near_an_end_of_the_double_range(shift):
    """The start is rescaled before the first step, so a subnormal one keeps its digits."""
    hmm = random_hmm(np.random.default_rng(7), 4, 2)
    finitary = qk.hmm_to_finitary(hmm)
    param = qk.FinitaryParam(
        hmm.alphabet,
        finitary.matrices,
        np.ldexp(hmm.initial, shift),
        np.ldexp(np.ones(4), -shift - 40),
    )
    matrices = list(finitary.matrices)
    letters = uniform_letters(np.random.default_rng(8), hmm.alphabet, 3 * _BLOCK)
    value = qk.finitary_eval(param, [hmm.alphabet.symbols[a] for a in letters])
    log = forward_log_reference(param.initial, matrices, letters, param.end)
    assert abs(math.log(value) - log) <= 1e-12 * abs(log)


def test_values_above_the_double_range_read_inf():
    param = qk.FinitaryParam(
        qk.Alphabet(("a",)), [[[3.0]]], np.array([1.0]), np.array([1.0])
    )
    assert qk.finitary_eval(param, "a" * 700) == math.inf
    assert qk.finitary_eval(param, "a" * 600) == pytest.approx(3.0**600, rel=1e-13)


@pytest.mark.parametrize("length", [5, _BLOCKED_MIN + 3, 2000])
def test_unknown_symbols_raise_the_alphabet_error(length):
    rng = np.random.default_rng(length)
    hmm = random_hmm(rng, 3, 2)
    finitary = qk.hmm_to_finitary(hmm)
    chain = qk.hmm_to_qmc(hmm)
    limit = qk.cesaro_limit(chain)
    evaluators = [
        lambda w: qk.hmm_eval(hmm, w),
        lambda w: qk.finitary_eval(finitary, w),
        lambda w: qk.chain_eval(chain, w),
        lambda w: qk.stationary_word_probability(chain, w, limit),
    ]
    good = [str(a) for a in rng.choice(["a", "b"], size=length)]
    for bad in ("z", ["a"], 1):
        word = good[: length // 2] + [bad] + good[length // 2 :] + ["y"]
        with pytest.raises(AlphabetError) as expected:
            hmm.alphabet.index(bad)
        for evaluate in evaluators:
            with pytest.raises(AlphabetError) as got:
                evaluate(word)
            assert str(got.value) == str(expected.value)
    for evaluate in evaluators:
        with pytest.raises(AlphabetError, match="'z' not in alphabet"):
            evaluate("".join(good) + "z")
