from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meixnerops.exact import Poly, X, ZERO
from meixnerops.pmd import (
    NotFaithful,
    PMDecomp,
    XDWord,
    extract_pmd,
    normal_order,
)

import support


def brute_force_word(word: XDWord, f: Poly) -> Poly:
    """Letter-by-letter action, rightmost letter first; the oracle for normal_order."""
    out = f
    for letter in reversed(word.letters):
        out = X * out if letter == "X" else out.derivative()
    return out


def test_pmdecomp_validates_degree_bound():
    with pytest.raises(ValueError):
        PMDecomp(0, (Poly.of(0, 1, 1),))  # A_0 of degree 2 > 0
    # zero coefficients are exempt even when the formal bound is negative
    d = PMDecomp(-2, (ZERO, ZERO, Poly.of(3)))
    assert len(d.coeffs) == 3


def test_pmdecomp_trims_trailing_zero_coeffs():
    d = PMDecomp(1, (X, ZERO, ZERO))
    assert len(d.coeffs) == 1
    assert d.coeff(5) == ZERO


def test_apply_matches_incremental_helper():
    d = PMDecomp(0, (Poly.of(1), X, Poly.of(-2)))
    f = Poly.of(1, 0, 0, 1)  # 1 + X^3
    direct = d.coeff(0) * f + d.coeff(1) * f.derivative() + d.coeff(2) * f.derivative(2)
    assert support.apply_expansion(d, f) == direct


def test_extract_recovers_known_decomposition():
    d = PMDecomp(1, (Poly.of(0, 1), Poly.of(2, 0, 1), Poly.of(0, -1)))
    cols, rows = 8, 12
    matrix = [[F(0)] * cols for _ in range(rows)]
    for m in range(cols):
        image = support.apply_expansion(d, support.monomial(m))
        for i, coef in enumerate(image.coeffs):
            matrix[i][m] = coef
    recovered = extract_pmd(support.matrix_from_rows(matrix), 1, 5)
    for n in range(6):
        assert recovered.coeff(n) == d.coeff(n)


def test_extract_rejects_unfaithful_matrix():
    size = 6
    matrix = [[F(0)] * size for _ in range(size)]
    for m in range(size - 2):
        matrix[m + 2][m] = F(1)  # x^m -> x^(m+2), too steep for k = 1
    with pytest.raises(NotFaithful):
        extract_pmd(support.matrix_from_rows(matrix), 1, 3)


def test_extract_zero_operator():
    matrix = [[F(0)] * 5 for _ in range(5)]
    d = extract_pmd(support.matrix_from_rows(matrix), -2, 4)
    assert all(d.coeff(n) == ZERO for n in range(5))


def test_word_parse_and_grade():
    w = XDWord.parse("XXD")
    assert w.letters == ("X", "X", "D")
    assert w.grade == 1
    assert str(w) == "XXD"
    assert str(XDWord(())) == "I"
    assert XDWord(()).grade == 0
    with pytest.raises(ValueError):
        XDWord.parse("XYD")


def test_normal_order_dx():
    # DX = XD + I, the defining Weyl relation
    d = normal_order(XDWord.parse("DX"))
    assert d.k == 0
    assert d.coeff(0) == Poly.of(1)
    assert d.coeff(1) == X
    assert len(d.coeffs) == 2


def test_normal_order_ddx():
    # DDX = XDD + 2D
    d = normal_order(XDWord.parse("DDX"))
    assert d.k == -1
    assert d.coeff(0) == ZERO
    assert d.coeff(1) == Poly.of(2)
    assert d.coeff(2) == X


def test_normal_order_already_normal():
    d = normal_order(XDWord.parse("XD"))
    assert d.coeff(0) == ZERO
    assert d.coeff(1) == X


def test_normal_order_identity_word():
    d = normal_order(XDWord(()))
    assert d.k == 0
    assert d.coeff(0) == Poly.of(1)
    assert len(d.coeffs) == 1


def test_normal_order_exhaustive_short_words():
    for length in range(5):
        for letters in product("XD", repeat=length):
            word = XDWord(letters)
            decomp = normal_order(word)
            assert decomp.k == word.grade
            for m in range(9):
                mono = support.monomial(m)
                image = support.apply_expansion(decomp, mono)
                assert image == brute_force_word(word, mono), str(word)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from("XD"), max_size=8), st.integers(min_value=0, max_value=12))
def test_normal_order_matches_brute_force(letters, m):
    word = XDWord(tuple(letters))
    mono = support.monomial(m)
    assert support.apply_expansion(normal_order(word), mono) == brute_force_word(word, mono)
