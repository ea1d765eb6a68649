import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meixnerops.exact import (
    ONE,
    ZERO,
    Poly,
    X,
    format_rat,
    format_ratio,
    parse_rat,
    rational_sqrt,
)

import support

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
polys = st.lists(rationals, max_size=6).map(lambda values: Poly.of(*values))


def test_parse_rat():
    assert parse_rat("3/2") == F(3, 2)
    assert parse_rat("-7") == F(-7)
    assert parse_rat(" 5/10 ") == F(1, 2)
    with pytest.raises(ValueError):
        parse_rat("a/b")
    with pytest.raises(ValueError):
        parse_rat("1/0")
    assert parse_rat("+3/4") == F(3, 4)
    assert parse_rat("\t-0/5\n") == 0
    # Fraction's own syntax beyond [+-]p[/q] is refused, so "1e10000000"
    # cannot stand for a ten-million-digit integer.
    for text in ("1e3000", "1e10000000", "1E5", "0.5", ".5", "1_000", "1 / 2", "3/-4", "", "/2"):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rat(text)


def test_format_rat_roundtrip():
    for v in (F(0), F(5), F(-3, 4), F(22, 7)):
        assert parse_rat(format_rat(v)) == v


def test_format_ratio_reduces_the_pair():
    assert format_ratio(6, 4) == "3/2"
    assert format_ratio(3, 2) == "3/2"
    assert format_ratio(-6, 4) == "-3/2"
    assert format_ratio(-7, 3) == "-7/3"
    assert format_ratio(12, 4) == "3"
    assert format_ratio(-12, 4) == "-3"
    assert format_ratio(0, 5) == "0"


def test_format_ratio_past_the_digit_limit():
    # Past the digits str() writes for an int, reduced or not.
    zeros = (sys.get_int_max_str_digits() or 4300) + 9
    big = 10 ** (zeros + 1)
    top = "1" + "0" * zeros + "1"  # big + 1, prime to 3 and to big
    assert format_ratio(big + 1, 3) == f"{top}/3"
    assert format_ratio(7 * (big + 1), 21) == f"{top}/3"
    assert format_ratio(-2 * (big + 1), 6) == f"-{top}/3"
    assert format_ratio(5 * (big + 1), 5) == top
    assert format_ratio(big + 1, big) == f"{top}/1{'0' * (zeros + 1)}"
    assert format_ratio(6 * (big + 1), 6 * big) == f"{top}/1{'0' * (zeros + 1)}"


def test_rational_sqrt():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(0)) == 0
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(-1)) is None
    assert rational_sqrt(F(49, 36)) == F(7, 6)


def test_poly_normalization_and_degree():
    assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert ZERO.degree == -1
    assert not ZERO and bool(Poly([0, 1]))
    assert Poly.of(0, 0, 5).degree == 2
    assert ONE.degree == 0 and X.degree == 1


def test_poly_arithmetic():
    p = Poly.of(1, 2)  # 1 + 2X
    q = Poly.of(0, 0, 3)  # 3X^2
    assert p + q == Poly.of(1, 2, 3)
    assert p - p == ZERO
    assert p * q == Poly.of(0, 0, 3, 6)
    assert 2 * p == Poly.of(2, 4)
    assert p * F(1, 2) == Poly.of(F(1, 2), 1)
    assert -p == Poly.of(-1, -2)


def test_poly_calls_and_derivative():
    p = Poly.of(1, -3, 0, 2)  # 1 - 3X + 2X^3
    assert support.evaluate(p, F(2)) == 1 - 6 + 16
    assert p.derivative() == Poly.of(-3, 0, 6)
    assert p.derivative(2) == Poly.of(0, 12)
    assert p.derivative(4) == ZERO
    assert ZERO.derivative() == ZERO


def test_poly_shift():
    p = Poly.of(0, 0, 1)  # X^2
    assert support.shifted(p, F(1)) == Poly.of(1, 2, 1)  # (X+1)^2
    assert support.shifted(p, F(-1, 2)) == Poly.of(F(1, 4), -1, 1)
    assert support.shifted(Poly.of(7), F(5)) == Poly.of(7)


def test_poly_json_roundtrip():
    p = Poly.of(F(1, 3), 0, F(-5, 2))
    assert p.to_json() == ["1/3", "0", "-5/2"]


def test_poly_str():
    assert str(ZERO) == "0"
    assert str(Poly.of(F(3, 2), 0, -1)) == "-X^2 + 3/2"
    assert str(X) == "X"


@given(polys, polys, polys)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(polys, rationals, rationals)
def test_shift_composes(p, c, d):
    assert support.shifted(support.shifted(p, c), d) == support.shifted(p, c + d)
    assert support.shifted(p, 0) == p


@given(polys, polys)
def test_derivative_is_leibniz(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@given(polys, rationals)
def test_shift_evaluates(p, c):
    # f(X + c) evaluated at 1 is f(1 + c)
    assert support.evaluate(support.shifted(p, c), F(1)) == support.evaluate(p, 1 + c)
