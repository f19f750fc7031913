import dataclasses

import numpy as np
import pytest

import qpmkit as qk
from qpmkit.errors import AlphabetError, DegenerateSupportError, ValidationError
from qpmkit.process import EPSILON, TruncatedHankel

from oracles import hmm_path_prob

AB = qk.Alphabet(("a", "b"))


def one_state(a: float, b: float, start: float = 1.0) -> qk.Process:
    """p(w) = start · a^#a(w) · b^#b(w), as a one-state finitary process."""
    matrices = [[[a]], [[b]]]
    return qk.finitary_process(qk.FinitaryParam(AB, matrices, [start], [1.0]))


def iid_coin() -> qk.Process:
    return one_state(0.5, 0.5)


def constant_a() -> qk.Process:
    return one_state(1.0, 0.0)


class TestAlphabetAndWords:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValidationError):
            qk.Alphabet(())
        with pytest.raises(ValidationError):
            qk.Alphabet(("a", "a"))

    def test_unknown_symbol(self):
        with pytest.raises(AlphabetError):
            AB.index("z")

    def test_enumeration_order(self):
        words = qk.words_up_to(AB, 2)
        assert words == [
            (),
            ("a",),
            ("b",),
            ("a", "a"),
            ("a", "b"),
            ("b", "a"),
            ("b", "b"),
        ]

    def test_parse_and_format(self):
        assert qk.parse_word("", AB) == EPSILON
        assert qk.parse_word("ab", AB) == ("a", "b")
        assert qk.format_word(("a", "b")) == "ab"
        multi = qk.Alphabet(("up", "down"))
        assert qk.parse_word("up,down", multi) == ("up", "down")
        assert qk.format_word(("up", "down")) == "up,down"
        with pytest.raises(AlphabetError):
            qk.parse_word("az", AB)


class TestProcessAxioms:
    def test_coin_satisfies_axioms(self):
        assert qk.check_process_axioms(iid_coin(), horizon=4) == []

    def test_detects_bad_root(self):
        broken = one_state(1.0, 1.0, start=0.5)  # p(w) = 0.5 for every word
        assert qk.check_process_axioms(broken, horizon=1) == [
            "p(empty word) is 0.5, expected 1",
            "one-symbol extensions of empty sum to 1.0, expected 0.5",
        ]

    def test_detects_inconsistent_marginals(self):
        broken = one_state(0.7, 0.7)  # p(w) = 0.7^|w|
        assert qk.check_process_axioms(broken, horizon=2) == [
            "one-symbol extensions of empty sum to 1.4, expected 1.0",
            "one-symbol extensions of a sum to 0.9799999999999999, expected 0.7",
            "one-symbol extensions of b sum to 0.9799999999999999, expected 0.7",
        ]

    def test_valid_process_lists_no_words(self, monkeypatch, hmm2):
        # words are listed only to name a flagged value
        def unreachable(*args, **kwargs):
            raise AssertionError("listed the words of a valid process")

        process = qk.hmm_process(hmm2)
        monkeypatch.setattr(qk.process, "words_up_to", unreachable)
        assert qk.check_process_axioms(process, horizon=5) == []


class TestBuildHankel:
    def test_coin_three_by_three(self):
        hankel = qk.build_hankel(iid_coin(), 1, 1)
        expected = np.array([[1, 0.5, 0.5], [0.5, 0.25, 0.25], [0.5, 0.25, 0.25]])
        assert np.allclose(hankel.matrix, expected)

    def test_trivial_truncation(self):
        hankel = qk.build_hankel(iid_coin(), 0, 0)
        assert hankel.matrix.shape == (1, 1)
        assert hankel.matrix[0, 0] == pytest.approx(1.0)

    def test_matches_path_enumeration(self, hmm2):
        hankel = qk.build_hankel(qk.hmm_process(hmm2), 2, 2)
        for v in hankel.row_words:
            for w in hankel.col_words:
                assert hankel.entry(v, w) == pytest.approx(hmm_path_prob(hmm2, v + w), abs=1e-12)

    def test_rows_are_shifted_evaluations(self, hmm2):
        proc = qk.hmm_process(hmm2)
        hankel = qk.build_hankel(proc, 2, 2)
        assert np.allclose(hankel.row(EPSILON), [proc(w) for w in hankel.col_words])
        assert np.allclose(hankel.row(("a",)), [proc(("a",) + w) for w in hankel.col_words])

    def test_concatenation_consistency(self, hmm2):
        hankel = qk.build_hankel(qk.hmm_process(hmm2), 2, 2)
        assert hankel.entry(("a",), ("b",)) == pytest.approx(hankel.entry(("a", "b"), ()))
        assert hankel.entry((), ("a", "a")) == pytest.approx(hankel.entry(("a", "a"), ()))

    def test_equal_lengths_share_one_word_tuple(self, hmm2):
        hankel = qk.build_hankel(qk.hmm_process(hmm2), 3, 3)
        assert hankel.col_words is hankel.row_words

    def test_rejects_negative_truncation(self):
        with pytest.raises(ValidationError):
            qk.build_hankel(iid_coin(), -1, 0)


class TestNumericalRank:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_iid_has_rank_one(self, depth):
        hankel = qk.build_hankel(iid_coin(), depth, depth)
        assert qk.numerical_rank(hankel) == 1

    def test_hmm_rank_bounded_by_states(self, hmm2, hmm3_rank3):
        for hmm in (hmm2, hmm3_rank3):
            depth = hmm.n_states
            hankel = qk.build_hankel(qk.hmm_process(hmm), depth, depth)
            assert qk.numerical_rank(hankel) <= hmm.n_states

    def test_rank_three_fixture(self, hmm3_rank3):
        hankel = qk.build_hankel(qk.hmm_process(hmm3_rank3), 3, 3)
        assert qk.numerical_rank(hankel) == 3

    def test_monotone_in_truncation(self, hmm2, hmm3_rank3, coin_finitary):
        processes = [
            qk.hmm_process(hmm2),
            qk.hmm_process(hmm3_rank3),
            qk.finitary_process(coin_finitary),
        ]
        for proc in processes:
            ranks = [
                qk.numerical_rank(qk.build_hankel(proc, depth, depth)) for depth in range(5)
            ]
            assert ranks == sorted(ranks)

    def test_rank_never_exceeds_declared_dimension(self, hmm2, hmm3_rank3, coin_finitary):
        processes = [
            qk.hmm_process(hmm2),
            qk.hmm_process(hmm3_rank3),
            qk.finitary_process(coin_finitary),
        ]
        for proc in processes:
            for depth in range(5):
                hankel = qk.build_hankel(proc, depth, depth)
                assert qk.numerical_rank(hankel) <= proc.linear.dim

    def test_zero_matrix_has_rank_zero(self):
        zero = np.zeros((1, 1))
        hankel = TruncatedHankel(AB, ((),), ((),), zero, np.eye(1))
        assert qk.numerical_rank(hankel) == 0


class TestSelectRowBasis:
    def test_iid_basis_is_empty_word(self):
        hankel = qk.build_hankel(iid_coin(), 2, 2)
        assert qk.select_row_basis(hankel) == [EPSILON]

    def test_hmm2_basis_is_independent(self, hmm2):
        proc = qk.hmm_process(hmm2)
        hankel = qk.build_hankel(proc, 2, 2)
        basis = qk.select_row_basis(hankel)
        assert len(basis) == qk.numerical_rank(hankel) == 2
        rows = np.array([hankel.row(v) for v in basis])
        gram = rows @ rows.T
        assert np.linalg.det(gram) > 1e-12

    def test_normalized_rows_are_process_functions(self, hmm2):
        proc = qk.hmm_process(hmm2)
        hankel = qk.build_hankel(proc, 2, 2)
        param = qk.hmm_to_finitary(hmm2)
        for v in qk.select_row_basis(hankel):
            # p(vw) / p(v) over w: the two-state form started from the state after v
            start = param.initial
            for symbol in v:
                start = start @ param.matrices[param.alphabet.index(symbol)]
            shifted = qk.FinitaryParam(param.alphabet, param.matrices, start / proc(v), param.end)
            normalized = qk.finitary_process(shifted)
            for w in qk.words_up_to(param.alphabet, 2):
                assert normalized(w) == pytest.approx(proc(v + w) / proc(v), abs=1e-12)
            config = qk.DEFAULTS.replace(eval_tol=1e-9)
            assert qk.check_process_axioms(normalized, horizon=1, config=config) == []

    def test_deterministic_process(self):
        hankel = qk.build_hankel(constant_a(), 2, 2)
        assert qk.select_row_basis(hankel) == [EPSILON]

    def test_degenerate_support_raises(self):
        # the second row carries rank but has no weight at the empty suffix
        matrix = np.array([[1.0, 0.5, 0.5], [0.0, 0.4, -0.4], [0.5, 0.25, 0.25]])
        words = ((), ("a",), ("b",))
        hankel = TruncatedHankel(AB, words, words, matrix, np.eye(3))
        with pytest.raises(DegenerateSupportError):
            qk.select_row_basis(hankel)


class TestEquivalence:
    def test_reflexive(self, hmm2):
        proc = qk.hmm_process(hmm2)
        assert qk.processes_equivalent(proc, proc)

    def test_hmm_equals_its_finitary_conversion(self, hmm2):
        converted = qk.finitary_process(qk.hmm_to_finitary(hmm2))
        assert qk.processes_equivalent(qk.hmm_process(hmm2), converted)

    def test_biased_coin_differs(self):
        biased = one_state(0.6, 0.4)
        assert not qk.processes_equivalent(iid_coin(), biased)
        assert qk.processes_equivalent(biased, biased)

    def test_symmetric(self, hmm2, hmm3_rank3):
        a = qk.hmm_process(hmm2)
        b = qk.hmm_process(hmm3_rank3)
        assert qk.processes_equivalent(a, b) == qk.processes_equivalent(b, a)

    def test_requires_dimensions(self):
        # the horizon counts both linear forms' states: a 5-state shift
        # register agrees with the fair coin on every word of fewer than 4
        # letters and differs on each word of 4
        depth = 4
        shift = np.diag(np.full(depth, 0.5), k=1)
        end = np.ones(depth + 1)
        end[-1] = 0.3
        start = np.eye(depth + 1)[0]
        register = qk.finitary_process(qk.FinitaryParam(AB, [shift, shift], start, end))
        assert register.linear.dim == depth + 1
        for word in qk.words_up_to(AB, depth - 1):
            assert register(word) == pytest.approx(iid_coin()(word), abs=1e-15)
        assert not qk.processes_equivalent(iid_coin(), register)
        assert not qk.processes_equivalent(register, iid_coin())
        witness = qk.distinguishing_word(iid_coin(), register)
        assert len(witness) == depth
        assert register(witness) == pytest.approx(0.3 * iid_coin()(witness), abs=1e-15)

    def test_explicit_dimensions_override(self):
        # no override is left: the dimensions are the linear forms'
        with pytest.raises(TypeError):
            qk.processes_equivalent(iid_coin(), iid_coin(), dim_first=1, dim_second=1)
        assert qk.processes_equivalent(iid_coin(), iid_coin())

    def test_a_process_needs_its_linear_form(self):
        with pytest.raises(TypeError, match="^a Process takes a LinearForm, not function$"):
            qk.Process(AB, lambda w: 0.5 ** len(w))
        form = qk.LinearForm(np.ones(1), np.full((2, 1, 1), 0.5), np.ones(1))
        coin = qk.Process(AB, form)
        assert coin.linear is form and coin("abb") == 0.125
        assert coin != qk.Process(AB, form)  # compared by identity

    def test_a_process_is_its_alphabet_and_its_form(self):
        assert [f.name for f in dataclasses.fields(qk.Process)] == ["alphabet", "linear"]
        for name in ("fn", "lowering"):
            assert not hasattr(iid_coin(), name)


def test_hankel_csv_round_trip(tmp_path, hmm2):
    hankel = qk.build_hankel(qk.hmm_process(hmm2), 1, 1)
    path = tmp_path / "hankel.csv"
    hankel.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",,a,b"
    cells = lines[1].split(",")
    assert cells[0] == ""
    assert float(cells[1]) == pytest.approx(1.0)
