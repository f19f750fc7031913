"""The factorised sweeps against per-word evaluation, Hankel analysis against
the full-matrix oracles, and equivalence against enumeration.

The per-word references in ``oracles`` call each model's word function once
per word; the sweeps on the linear form must agree with them.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qpmkit as qk
from qpmkit.chain import ChainKind, OperatorSubspace, QuantumChain
from qpmkit.errors import AlphabetError, DegenerateSupportError
from qpmkit.process import TruncatedHankel, _row_basis_indices

from helpers import (
    random_hmm,
    random_kraus_family,
    random_local_qrw,
    random_qmc,
    random_quantum_density,
    random_stochastic_rows,
    random_unitary,
)
from oracles import (
    axiom_problems_reference,
    complex_form_value,
    equivalent_by_enumeration,
    hankel_singular_values,
    prefix_product_reference,
    qrw_collapse_prob,
    row_basis_indices_reference,
    row_basis_reference,
    shortest_difference_by_enumeration,
    walk_form_reference,
    word_table_reference,
)

SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)


def dyadic(rng, shape):
    """Entries in {-1, -3/4, ..., 1}: short products and sums of them are exact."""
    return rng.integers(-4, 5, size=shape) / 4.0


def dyadic_finitary(rng) -> qk.FinitaryParam:
    """A finitary parametrization that need not define a process."""
    d = int(rng.integers(1, 4))
    alphabet = qk.Alphabet(("a", "b"))
    matrices = np.stack([dyadic(rng, (d, d)) for a in alphabet])
    return qk.FinitaryParam(alphabet, matrices, dyadic(rng, d), dyadic(rng, d))


def dyadic_qpm(rng) -> QuantumChain:
    """A diagonal predictor model whose word values are exact and may leave [0, 1]."""
    d = int(rng.integers(2, 4))
    sub = OperatorSubspace.diagonal(d)
    diag = dyadic(rng, d)
    diag[0] = 1.0 - diag[1:].sum()
    ops = np.stack([dyadic(rng, (d, d)) for _ in ("a", "b")])
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
        assert form.initial.shape == form.end.shape == (form.dim,)
        assert form.matrices.shape == (len(process.alphabet), form.dim, form.dim)
        assert all(array.dtype == np.float64 and array.flags.c_contiguous for array in form)
    # every chain keeps the layout that word_value's .dot calls are made on
    chains = [random_qmc(rng, flavor) for flavor in ("hmm", "povm", "unitary", "qrw")]
    chains += [dyadic_qpm(rng), qk.finitary_to_qpm(qk.hmm_to_finitary(random_hmm(rng)))]
    for chain in chains:
        arrays = (chain.operators, chain.initial_coords, chain.subspace.traces)
        assert all(array.dtype == np.float64 and array.flags.c_contiguous for array in arrays)


def test_an_hmm_its_finitary_form_and_its_chain_give_the_same_double():
    # all four apply the same all-ones end vector to the same states, so every
    # word's value has the same bits, on the per-letter and the blocked paths
    differ = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        hmm = random_hmm(rng, int(rng.integers(2, 17)), int(rng.integers(2, 4)))
        process, finitary, chain = qk.hmm_process(hmm), qk.hmm_to_finitary(hmm), qk.hmm_to_qmc(hmm)
        for length in rng.integers(0, 301, size=6).tolist():
            word = tuple(rng.choice(hmm.alphabet.symbols, size=length).tolist())
            values = (
                qk.hmm_eval(hmm, word),
                process(word),
                qk.finitary_eval(finitary, word),
                qk.chain_eval(chain, word),
            )
            differ += len(set(map(float.hex, values))) > 1
    assert differ == 0


class TestFactorisedSweeps:
    @PROPERTY
    @given(SEEDS)
    def test_hankel_matches_per_word(self, seed):
        rng = np.random.default_rng(seed)
        for process in sweep_models(rng):
            fast = qk.build_hankel(process, 3, 2)
            slow = word_table_reference(process, 3, 2)
            assert fast.row_words == tuple(qk.words_up_to(process.alphabet, 3))
            assert fast.col_words == tuple(qk.words_up_to(process.alphabet, 2))
            assert fast.matrix.shape == slow.shape
            assert np.max(np.abs(fast.matrix - slow)) <= 1e-12

    @PROPERTY
    @given(SEEDS)
    def test_axiom_problems_match_per_word(self, seed):
        rng = np.random.default_rng(seed)
        for process in sweep_models(rng):
            for horizon in (0, 3):
                expected = axiom_problems_reference(process, horizon)
                assert qk.check_process_axioms(process, horizon) == expected

    def test_axiom_problems_are_reported(self):
        # the dyadic models do break the axioms, so the comparison above has content
        rng = np.random.default_rng(5)
        broken = [qk.finitary_process(dyadic_finitary(rng)) for _ in range(10)]
        problems = [qk.check_process_axioms(p, 3) for p in broken]
        assert sum(bool(p) for p in problems) >= 5
        assert problems == [axiom_problems_reference(p, 3) for p in broken]

    def test_hmm_with_unnormalised_rows_agrees_both_ways(self):
        # rows summing to 1.2 and 1.0: hmm_eval and the linear form must still
        # describe the same word function, including the final transition
        hmm = qk.HmmParam(
            ("s0", "s1"),
            qk.Alphabet(("a", "b")),
            emission=[[0.6, 0.4], [0.3, 0.7]],
            initial=[0.5, 0.5],
            transition=[[0.7, 0.5], [0.4, 0.6]],
        )
        linear = qk.hmm_process(hmm)
        form = linear.linear
        for word in qk.words_up_to(hmm.alphabet, 4):
            vec = form.initial
            for symbol in word:
                vec = vec @ form.matrices[hmm.alphabet.index(symbol)]
            assert abs(qk.hmm_eval(hmm, word) - float(vec @ form.end)) <= 1e-15
        assert qk.hmm_eval(hmm, "a") == pytest.approx(0.5 * 0.6 * 1.2 + 0.5 * 0.3 * 1.0)
        fast_hankel = qk.build_hankel(linear, 3, 3)
        assert np.max(np.abs(fast_hankel.matrix - word_table_reference(linear, 3, 3))) <= 1e-15
        problems = qk.check_process_axioms(linear, 3)
        assert problems and problems == axiom_problems_reference(linear, 3)

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
            slow = qk.finitary_process(param)
            for word in qk.words_up_to(param.alphabet, 4):
                assert abs(qk.chain_eval(qpm, word) - slow(word)) <= tol

    @PROPERTY
    @given(SEEDS)
    def test_qpm_window_matches_per_word(self, seed):
        rng = np.random.default_rng(seed)
        for chain in (dyadic_qpm(rng), qk.as_qpm(random_qmc(rng, "povm"))):
            report = qk.validate_chain(chain, config=qk.DEFAULTS.replace(qpm_horizon=4))
            slow = qk.chain_process(chain)
            expected = [
                f"word-probability at ('words', {word!r}): tr over word "
                f"{''.join(word) or 'empty'} is {slow(word)!r}, outside [0, 1]"
                for word in qk.words_up_to(chain.alphabet, 4)
                if not -1e-9 <= slow(word) <= 1 + 1e-9
            ]
            got = [m for m in report.messages() if m.startswith("word-probability")]
            assert got == expected


def chain_families(rng) -> list[QuantumChain]:
    return [random_qmc(rng, kind) for kind in ("hmm", "povm", "unitary", "qrw")] + [
        dyadic_qpm(rng),
        povm_chain(rng),
    ]


def checked_lookup_eval(chain: QuantumChain, word) -> float:
    """chain_eval by the plain per-letter loop, each symbol looked up on its own."""
    letters = [chain.alphabet.index(symbol) for symbol in word]
    return prefix_product_reference(
        chain.initial_coords, chain.operators, letters, chain.subspace.traces
    )


class TestChainEval:
    @PROPERTY
    @given(SEEDS)
    def test_values_are_the_checked_lookups_bit_for_bit(self, seed):
        for chain in chain_families(np.random.default_rng(seed)):
            for word in qk.words_up_to(chain.alphabet, 3):
                assert repr(qk.chain_eval(chain, word)) == repr(checked_lookup_eval(chain, word))

    def test_fixture_chains_and_unknown_symbols(self, swap_qmc, unbounded_qpm, hmm2):
        for chain in (swap_qmc, unbounded_qpm, qk.hmm_to_qmc(hmm2)):
            first = chain.alphabet.symbols[0]
            for word in qk.words_up_to(chain.alphabet, 4):
                assert repr(qk.chain_eval(chain, word)) == repr(checked_lookup_eval(chain, word))
            for word in ((first, "zz"), "zz", [first, first, 7]):
                with pytest.raises(AlphabetError) as got:
                    qk.chain_eval(chain, word)
                with pytest.raises(AlphabetError) as want:
                    checked_lookup_eval(chain, word)
                assert str(got.value) == str(want.value)


def per_word_hankel(process, rows, cols) -> TruncatedHankel:
    """The Hankel block evaluated word by word, as its own prefix factor
    with the identity as suffix factor."""
    matrix = word_table_reference(process, rows, cols)
    words = (tuple(qk.words_up_to(process.alphabet, n)) for n in (rows, cols))
    return TruncatedHankel(process.alphabet, *words, matrix, np.eye(matrix.shape[1]))


def analysed(process, rows, cols, build=qk.build_hankel):
    """A Hankel block with its factor-space row basis and the oracle's; a
    support too thin to reach the rank shows as the error message."""
    hankel = build(process, rows, cols)
    outcomes = []
    for pick, error in ((qk.select_row_basis, DegenerateSupportError), (row_basis_reference, ValueError)):
        try:
            outcomes.append(pick(hankel))
        except error as exc:
            outcomes.append(str(exc))
    return hankel, outcomes


class TestHankelAnalysis:
    """One SVD of the d-wide factor against the SVD of the full N×M matrix.

    Walks enter as their chains' real coordinates, per-word Hankels with the
    identity suffix factor; the dyadic finitary and predictor models have
    exactly rank-deficient Hankels and rows of zero or negative weight.
    Over these examples no basis decision fell near a tie, so the chosen
    words must be equal: a row's residual norm or a singular value would
    have to lie within rounding (~1e-15 relative) of ``rank_eps`` times
    the largest singular value for the two routes to disagree.
    """

    @PROPERTY
    @given(SEEDS)
    def test_rank_and_row_basis_match_the_full_matrix(self, seed):
        rng = np.random.default_rng(seed)
        for process in sweep_models(rng):
            for build in (qk.build_hankel, per_word_hankel):
                for rows, cols in ((3, 2), (2, 3), (1, 1)):
                    hankel, (fast, slow) = analysed(process, rows, cols, build)
                    fast_values = hankel.singular_values
                    slow_values = hankel_singular_values(hankel.matrix)
                    scale = 1e-12 * max(slow_values[0], 1e-300)
                    k = min(fast_values.size, slow_values.size)
                    # only singular values that are zero can be missing on either side
                    assert np.max(np.abs(fast_values[:k] - slow_values[:k])) <= scale
                    assert np.all(fast_values[k:] <= scale) and np.all(slow_values[k:] <= scale)
                    expected_rank = int(np.sum(slow_values > 1e-8 * slow_values[0]))
                    assert qk.numerical_rank(hankel) == (expected_rank if slow_values[0] > 0 else 0)
                    assert fast == slow

    def test_dyadic_models_reach_the_degenerate_support_error(self):
        # the comparison above has content: some dyadic Hankels are rank-deficient,
        # some have too few rows of positive weight to reach their rank
        rng = np.random.default_rng(7)
        params = [dyadic_finitary(rng) for _ in range(40)]
        results = [analysed(qk.finitary_process(p), 2, 2) for p in params]
        assert all(fast == slow for _, (fast, slow) in results)
        messages = [fast for _, (fast, _) in results if isinstance(fast, str)]
        assert messages and all(
            m.startswith("found ") and "rows skipped for insufficient weight" in m for m in messages
        )
        assert any(
            qk.numerical_rank(hankel) < p.dimension for p, (hankel, _) in zip(params, results)
        )

    def test_rank_deficient_hankel_shares_its_basis(self):
        # a 2-state form lifted to 3 states, the third a copy of the first: rank 2, not 3
        ab = qk.Alphabet(("a", "b"))
        small = np.array([[[0.5, 0.1], [0.1, 0.2]], [[0.2, 0.2], [0.3, 0.4]]])
        lifted = small[:, [0, 1, 0]][:, :, [0, 1, 0]] * [0.5, 1.0, 0.5]
        param = qk.FinitaryParam(ab, lifted, np.array([1.0, 0.0, 0.0]), np.ones(3))
        for build in (qk.build_hankel, per_word_hankel):
            hankel, (fast, slow) = analysed(qk.finitary_process(param), 3, 3, build)
            assert qk.numerical_rank(hankel) == 2
            assert fast == slow == [(), ("a",)]

    @PROPERTY
    @given(SEEDS)
    def test_row_search_is_the_one_row_at_a_time_reference(self, seed):
        # the shared independence test subtracts the filled basis in two
        # matrix-vector products; the reference subtracts it row by row.  The
        # cuts are rank's (rank_eps 1e-8 and 1e-4) and finitary_to_qpm's
        # rounding level, each searched up to its count of singular values
        rng = np.random.default_rng(seed)
        processes = sweep_models(rng) + [qk.finitary_process(dyadic_finitary(rng)) for _ in range(4)]
        for process in processes:
            for build in (qk.build_hankel, per_word_hankel):
                for rows, cols in ((3, 2), (2, 3), (1, 1)):
                    hankel = build(process, rows, cols)
                    singulars = hankel.singular_values
                    words = max(len(hankel.row_words), len(hankel.col_words))
                    rounding = words * np.finfo(float).eps
                    for eps in (1e-8, 1e-4, rounding):
                        target = int(np.sum(singulars > eps * singulars[:1]))
                        chosen = _row_basis_indices(hankel, eps, target)
                        assert chosen == row_basis_indices_reference(hankel, eps, target)
                        if eps != rounding:  # select_row_basis refuses a search that falls short
                            config = qk.DEFAULTS.replace(rank_eps=eps)
                            try:
                                picked = qk.select_row_basis(hankel, config=config)
                            except DegenerateSupportError:
                                assert len(chosen) < target
                            else:
                                assert len(chosen) == target
                                assert picked == [hankel.row_words[i] for i in chosen]

    def test_residual_cutoff_scales_with_the_largest_singular_value(self):
        # row "a" leaves a residual of 5e-6: under rank_eps·σ₁ (σ₁ ≈ 1000), over rank_eps·|row ε|
        words = ((), ("a",), ("b",))
        matrix = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 5e-6], [1.0, 1000.0, 0.0]])
        hankel = TruncatedHankel(qk.Alphabet(("a", "b")), words, words, matrix, np.eye(3))
        assert qk.numerical_rank(hankel) == 2
        assert qk.select_row_basis(hankel) == row_basis_reference(hankel) == [(), ("b",)]


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
        matrices = [m + delta * rng.normal(size=(d, d)) for m in param.matrices]
        other = qk.FinitaryParam(param.alphabet, matrices, param.initial, param.end)
    else:  # a similarity transform: other matrices, the same process
        s = np.eye(d) + 0.3 * rng.normal(size=(d, d))
        s_inv = np.linalg.inv(s)
        matrices = [s_inv @ m @ s for m in param.matrices]
        other = qk.FinitaryParam(param.alphabet, matrices, param.initial @ s, s_inv @ param.end)
    return qk.finitary_process(param), qk.finitary_process(other)


def chain_pair(rng, delta):
    chain = povm_chain(rng)
    if not delta:
        return qk.chain_process(chain), qk.finitary_process(qk.qpm_to_finitary(chain))
    ops = np.stack([m + delta * rng.normal(size=m.shape) for m in chain.operators])
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


def seeded_walk(seed) -> qk.QrwParam:
    rng = np.random.default_rng(seed)
    return random_local_qrw(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)))


def rotated_walk(walk: qk.QrwParam, delta: float) -> qk.QrwParam:
    """The walk with its unitary rotated by ``delta`` in the first two basis coordinates."""
    rotation = np.eye(walk.dim, dtype=complex)
    c, s = np.cos(delta), np.sin(delta)
    rotation[:2, :2] = [[c, -s], [s, c]]
    return qk.QrwParam(walk.nodes, walk.edges, walk.coins, walk.unitary @ rotation, walk.wave)


def reference_walk_value(walk: qk.QrwParam, word) -> float:
    return complex_form_value(walk_form_reference(walk), walk.nodes.indices(word))


def reference_walk_hankel(walk: qk.QrwParam, length: int) -> TruncatedHankel:
    """The walk's Hankel block from its complex reference form, one word loop per
    distinct word, as its own prefix factor with the identity as suffix factor."""
    form = walk_form_reference(walk)
    words = tuple(qk.words_up_to(walk.nodes, length))
    values: dict = {}
    for word in (v + w for v in words for w in words):
        if word not in values:
            values[word] = complex_form_value(form, walk.nodes.indices(word))
    matrix = np.array([[values[v + w] for w in words] for v in words])
    return TruncatedHankel(walk.nodes, words, words, matrix, np.eye(len(words)))


def haar_walk(rng, nodes: int, coins: int) -> qk.QrwParam:
    """A walk on the complete graph under a Haar unitary: every block U_aj is nonzero."""
    alphabet = qk.Alphabet(tuple(f"n{i}" for i in range(nodes)))
    edges = tuple((a, b) for a in alphabet for b in alphabet if a != b)
    wave = rng.normal(size=nodes * coins) + 1j * rng.normal(size=nodes * coins)
    unitary = random_unitary(rng, nodes * coins)
    coin_names = tuple(f"c{i}" for i in range(coins))
    return qk.QrwParam(alphabet, edges, coin_names, unitary, wave / np.linalg.norm(wave))


class TestWalkForm:
    """A walk lowers to its block form: a start coordinate and k² coordinates per node.

    The complex Kraus-superoperator form of ``oracles.walk_form_reference``,
    evaluated by its own word loop, is the same process, so the Hankel
    analysis and the equivalence verdicts read the same on either, and the
    block form is equivalent to the walk's chain form (``qrw_to_qmc``).
    """

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(SEEDS)
    def test_walk_form_is_equivalent_to_its_chain_form(self, seed):
        walk = seeded_walk(seed)
        process = qk.qrw_process(walk)
        assert process.linear.dim == len(walk.nodes) * walk.coin_count**2 + 1
        for array in process.linear:
            assert array.dtype == np.float64 and not array.flags.writeable
        fast = qk.build_hankel(process, 3, 3)
        slow = reference_walk_hankel(walk, 3)
        assert fast.matrix.shape == slow.matrix.shape
        assert np.max(np.abs(fast.matrix - slow.matrix)) <= 1e-12
        assert qk.numerical_rank(fast) == qk.numerical_rank(slow)
        assert qk.select_row_basis(fast) == qk.select_row_basis(slow)
        chain = qk.chain_process(qk.qrw_to_qmc(walk))
        assert qk.processes_equivalent(process, chain)
        assert qk.processes_equivalent(chain, process)
        rotated = rotated_walk(walk, 1e-3)
        witness = qk.distinguishing_word(process, qk.qrw_process(rotated))
        assert witness is not None
        difference = reference_walk_value(walk, witness) - reference_walk_value(rotated, witness)
        assert abs(difference) > 1e-9

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=SEEDS,
        nodes=st.integers(1, 8),
        coins=st.integers(1, 4),
        length=st.integers(0, 200),
        haar=st.booleans(),
    )
    @example(seed=0, nodes=8, coins=4, length=200, haar=False)
    @example(seed=1, nodes=8, coins=4, length=200, haar=True)
    @example(seed=2, nodes=8, coins=1, length=200, haar=False)
    def test_block_form_is_the_collapse_walk(self, seed, nodes, coins, length, haar):
        rng = np.random.default_rng(seed)
        walk = (haar_walk if haar else random_local_qrw)(rng, nodes, coins)
        process = qk.qrw_process(walk)
        assert process.linear.dim == nodes * coins**2 + 1
        word = qk.sample_trajectory(walk, length, seed)
        expected = qrw_collapse_prob(walk, word)
        assert abs(qk.qrw_eval(walk, word) - expected) <= 1e-13 * expected
        chain = qk.chain_process(qk.qrw_to_qmc(walk))
        assert qk.processes_equivalent(process, chain)
        assert qk.processes_equivalent(chain, process)


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
            horizon = first.linear.dim + second.linear.dim
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
        first = qk.finitary_process(qk.FinitaryParam(ab, [a, b], start, ones))
        # a second "b" from state 2 now has weight: only words containing "bb" differ
        b_loop = b + np.array([[0.0, 0.0], [0.0, 0.5]])
        second = qk.finitary_process(qk.FinitaryParam(ab, [a, b_loop], start, ones))
        assert qk.distinguishing_word(first, second) == ("b", "b")


# Members of the rarely-reached-state family below on which the search misses
# the shortest word that differs by more than 2·tol within the horizon, or
# returns a longer witness.  Every visited word differs by at most tol, and the
# missed word's state is a combination of visited states whose differences add
# up past 2·tol: a limit of comparing visited words at a tolerance, which no
# independence cut removes.
TOLERANCE_MISSES = {
    (4, 1e-7, "transition"),
    (9, 1e-7, "transition"),
    (11, 1e-7, "transition"),
    (26, 1e-7, "transition"),
    (27, 1e-7, "transition"),
}


def rare_state_pair(seed: int, eps: float, row: str):
    """Two 3- or 4-state HMMs whose last state is entered with weight ``eps`` from
    every other state and never at the start, and whose emission or transition
    row for that state differs."""
    rng = np.random.default_rng(seed)
    hmm = random_hmm(rng, int(rng.integers(3, 5)), 2)
    transition = hmm.transition.copy()
    transition[:-1, :-1] *= (1 - eps) / transition[:-1, :-1].sum(axis=1, keepdims=True)
    transition[:-1, -1] = eps
    initial = hmm.initial.copy()
    initial[-1] = 0.0
    initial /= initial.sum()
    emission, other_emission, other_transition = hmm.emission, hmm.emission.copy(), transition.copy()
    if row == "emission":
        other_emission[-1] = random_stochastic_rows(rng, 1, 2)[0]
    else:
        other_transition[-1] = random_stochastic_rows(rng, 1, hmm.n_states)[0]
    first = qk.HmmParam(hmm.states, hmm.alphabet, emission, initial, transition)
    second = qk.HmmParam(hmm.states, hmm.alphabet, other_emission, initial, other_transition)
    return qk.hmm_process(first), qk.hmm_process(second)


def search_against_enumeration(first, second, tol: float = 1e-9):
    """(witness, missed): ``distinguishing_word``'s witness, checked to differ by
    more than ``tol``, and whether it misses the shortest word that enumeration
    to horizon d1 + d2 finds differing by more than 2·tol, or is longer."""
    horizon = first.linear.dim + second.linear.dim
    shortest = shortest_difference_by_enumeration(first, second, horizon, 2 * tol)
    witness = qk.distinguishing_word(first, second, config=qk.DEFAULTS.replace(equiv_tol=tol))
    if witness is not None:
        assert len(witness) <= horizon
        assert abs(first(witness) - second(witness)) > tol
    return witness, shortest is not None and (witness is None or len(witness) > len(shortest))


class TestNearEquivalence:
    """Pairs that differ by little, against enumeration at twice the tolerance.

    A witness may differ by between tol and 2·tol where no word differs by
    more than 2·tol; the search returns a witness whenever enumeration finds a
    word that does, no longer than the shortest one, except on the members
    listed in ``TOLERANCE_MISSES``.
    """

    @pytest.mark.parametrize("row", ["emission", "transition"])
    @pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13])
    def test_difference_in_a_rarely_reached_state(self, eps, row):
        found = 0
        for seed in range(30):
            witness, missed = search_against_enumeration(*rare_state_pair(seed, eps, row))
            assert missed == ((seed, eps, row) in TOLERANCE_MISSES), seed
            found += witness is not None
        if eps >= 1e-7:  # differences of this weight show
            assert found
        if eps == 1e-13:  # within tol on every word up to the horizon
            assert not found

    def test_walk_rotated_by_1e_9(self):
        # one coin per node: the rotation mixes the amplitudes of nodes n0 and n1
        for seed in range(30):
            rng = np.random.default_rng(seed)
            walk = random_local_qrw(rng, int(rng.integers(2, 5)), 1)
            pair = qk.qrw_process(walk), qk.qrw_process(rotated_walk(walk, 1e-9))
            assert not search_against_enumeration(*pair)[1]
