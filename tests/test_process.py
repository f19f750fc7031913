import numpy as np
import pytest

import qpmkit as qk
from qpmkit.errors import AlphabetError, DegenerateSupportError, ValidationError
from qpmkit.process import EPSILON, TruncatedHankel

from oracles import hmm_path_prob

AB = qk.Alphabet(("a", "b"))


def iid_coin() -> qk.Process:
    return qk.Process(AB, lambda w: 0.5 ** len(w), dimension=1)


def constant_a() -> qk.Process:
    return qk.Process(AB, lambda w: 1.0 if all(s == "a" for s in w) else 0.0, dimension=1)


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
        broken = qk.Process(AB, lambda w: 0.5)
        problems = qk.check_process_axioms(broken, horizon=1)
        assert any("empty word" in p for p in problems)

    def test_detects_inconsistent_marginals(self):
        broken = qk.Process(AB, lambda w: 1.0 if not w else 0.7 ** len(w))
        problems = qk.check_process_axioms(broken, horizon=2)
        assert any("extensions" in p for p in problems)


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
                assert qk.numerical_rank(hankel) <= proc.dimension

    def test_zero_matrix_has_rank_zero(self):
        hankel = TruncatedHankel(AB, ((),), ((),), np.zeros((1, 1)))
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
        for v in qk.select_row_basis(hankel):
            weight = proc(v)
            normalized = qk.Process(AB, lambda w, v=v, c=weight: proc(v + w) / c)
            assert qk.check_process_axioms(normalized, horizon=1, tol=1e-9) == []

    def test_deterministic_process(self):
        hankel = qk.build_hankel(constant_a(), 2, 2)
        assert qk.select_row_basis(hankel) == [EPSILON]

    def test_degenerate_support_raises(self):
        # the second row carries rank but has no weight at the empty suffix
        matrix = np.array([[1.0, 0.5, 0.5], [0.0, 0.4, -0.4], [0.5, 0.25, 0.25]])
        hankel = TruncatedHankel(AB, ((), ("a",), ("b",)), ((), ("a",), ("b",)), matrix)
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
        biased = qk.Process(
            AB,
            lambda w: float(np.prod([0.6 if s == "a" else 0.4 for s in w])),
            dimension=1,
        )
        assert not qk.processes_equivalent(iid_coin(), biased)
        assert qk.processes_equivalent(biased, biased)

    def test_symmetric(self, hmm2, hmm3_rank3):
        a = qk.hmm_process(hmm2)
        b = qk.hmm_process(hmm3_rank3)
        assert qk.processes_equivalent(a, b) == qk.processes_equivalent(b, a)

    def test_requires_dimensions(self):
        nodim = qk.Process(AB, lambda w: 0.5 ** len(w))
        with pytest.raises(ValidationError):
            qk.processes_equivalent(nodim, nodim)
        with pytest.raises(ValidationError):
            qk.distinguishing_word(nodim, nodim)

    def test_explicit_dimensions_override(self):
        nodim = qk.Process(AB, lambda w: 0.5 ** len(w))
        assert qk.processes_equivalent(nodim, nodim, dim_first=1, dim_second=1)


def test_hankel_csv_round_trip(tmp_path, hmm2):
    hankel = qk.build_hankel(qk.hmm_process(hmm2), 1, 1)
    path = tmp_path / "hankel.csv"
    hankel.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",,a,b"
    cells = lines[1].split(",")
    assert cells[0] == ""
    assert float(cells[1]) == pytest.approx(1.0)
