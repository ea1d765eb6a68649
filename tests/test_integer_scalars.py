"""Scalar steps on integer parts against the Fraction formulas they replaced.

``sample_rat``, ``parse_rat``, ``format_rat``, ``Poly.of`` and the derived
fields of ``MeixnerParams`` read the numerator and denominator of an ``int``
or ``Fraction`` and build one ``Fraction`` per stored value.  Their
references in ``support`` are the old formulas.  Each must give the same
value, the same error text and, for ``sample_rat``, the same draws: equal
``rng.getstate()`` afterwards on every interval where the old fallback was
not taken.  Where it was taken, the old value lay above ``hi``; the new one
lies inside the interval, with no further draw.
"""

import sys
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meixnerops.exact import Poly, format_rat, parse_rat
from meixnerops.meixner import InvalidParams, MeixnerParams
from meixnerops.sampling import sample_rat

import support

bounds = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=12))
scalars = st.one_of(
    st.integers(-(2**70), 2**70), st.fractions(-50, 50, max_denominator=30), st.booleans()
)


def inside(value, lo, hi, strict_lo):
    return (lo < value if strict_lo else lo <= value) and value <= hi


class CountingRandom(Random):
    """A ``Random`` that counts its ``randint`` calls."""

    calls = 0

    def randint(self, a, b):
        self.calls += 1
        return super().randint(a, b)


@settings(deadline=None, max_examples=400)
@given(bounds, bounds, st.booleans(), st.integers(1, 8), st.integers(0, 2**32))
@example(0, F(1, 7), True, 6, 0)
@example(F(1, 3), F(2, 5), False, 6, 0)
def test_sample_rat_makes_the_old_draws(lo, hi, strict_lo, max_den, seed):
    lo, hi = min(lo, hi), max(lo, hi)
    if strict_lo and lo == hi:
        with pytest.raises(ValueError, match="no rational in"):
            sample_rat(Random(seed), lo, hi, max_den, strict_lo)
        return
    old_rng, new_rng = Random(seed), CountingRandom(seed)
    old = support.sample_rat(old_rng, lo, hi, max_den, strict_lo)
    new = sample_rat(new_rng, lo, hi, max_den, strict_lo)
    assert type(new) is F and inside(new, lo, hi, strict_lo)
    assert new_rng.calls == 2
    if inside(old, lo, hi, strict_lo):
        assert new == old
        assert new_rng.getstate() == old_rng.getstate()
    else:
        assert old > hi  # the fallback that is mended


def test_sample_rat_stays_inside_an_interval_without_a_grid_point():
    # At a denominator of 1 .. 6 neither interval holds a multiple of 1/den
    # on these seeds; the old fallback returned ceil(hi * den) / den.
    olds = [support.sample_rat(Random(s), 0, F(1, 7), strict_lo=True) for s in range(6)]
    assert olds == [F(1, 4), F(1, 2), F(1), F(1, 2), F(1, 2), F(1, 5)]
    assert [sample_rat(Random(s), 0, F(1, 7), strict_lo=True) for s in range(6)] == [F(1, 7)] * 6
    assert [support.sample_rat(Random(s), F(1, 3), F(2, 5)) for s in (0, 2)] == [F(1, 2), F(1)]
    for seed in range(40):
        assert F(1, 3) <= sample_rat(Random(seed), F(1, 3), F(2, 5)) <= F(2, 5)


def test_sample_rat_refuses_an_empty_interval():
    for lo, hi, strict_lo in ((1, 1, True), (2, 1, False), (F(1, 2), F(1, 3), True)):
        with pytest.raises(ValueError, match="no rational in"):
            sample_rat(Random(0), lo, hi, strict_lo=strict_lo)
    assert sample_rat(Random(0), F(1, 3), F(1, 3)) == F(1, 3)


@settings(deadline=None, max_examples=400)
@given(st.from_regex(r"\s*[+-]?[0-9]+(/[0-9]*[1-9][0-9]*)?\s*", fullmatch=True))
@example("-0/5")
@example(" +007/010\t")
@example("\n-12\n")
def test_parse_rat_reads_what_fraction_reads(text):
    value = parse_rat(text)
    assert type(value) is F
    assert value == F(text) == support.parse_rat(text)


def test_parse_rat_refuses_with_the_old_text():
    texts = ["1/0", "-3/00", "0.5", "1e3", "1_000", "1 / 2", ""]
    if sys.get_int_max_str_digits():  # 0 lifts the limit
        long = "1" * (sys.get_int_max_str_digits() + 1)
        texts += [long, f"-{long}/3", f"3/{long}"]
    for text in texts:
        with pytest.raises(ValueError) as new:
            parse_rat(text)
        with pytest.raises(ValueError) as old:
            support.parse_rat(text)
        assert str(new.value) == str(old.value) == f"not a rational number: {text!r}"


@st.composite
def quadruples(draw):
    """(alpha, alpha0, beta, t) of ints and Fractions, valid or not; half the
    negative betas divide t a whole number of times."""
    value = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=9))
    alpha, alpha0, beta, t = (draw(value) for _ in range(4))
    if draw(st.booleans()):
        beta = -F(t) / draw(st.integers(1, 12))
    return alpha, alpha0, beta, t


@settings(deadline=None, max_examples=400)
@given(quadruples())
@example((1, 0, 0, 0))
@example((-1, 0, 0, 1))
@example((0, 0, -1, F(3, 2)))
@example((F(3, 2), -1, F(-1, 2), F(3, 2)))
def test_params_derive_the_old_fields(quadruple):
    try:
        delta, tau, bound = support.derived(*quadruple)
    except InvalidParams as old:
        with pytest.raises(InvalidParams) as new:
            MeixnerParams(*quadruple)
        assert str(new.value) == str(old)
        return
    p = MeixnerParams(*quadruple)
    fields = (p.alpha, p.alpha0, p.beta, p.t, p.delta, p.tau)
    assert all(type(v) is F for v in fields)
    assert (p.alpha, p.alpha0, p.beta, p.t) == tuple(map(F, quadruple))
    assert (p.delta, p.tau, p.support_bound) == (delta, tau, bound)
    assert p.delta == p.alpha**2 - 4 * p.beta
    assert p.tau == 2 * p.t - p.alpha * p.alpha0
    assert p == MeixnerParams(*map(F, quadruple))


def test_params_keep_the_fractions_they_are_given():
    alpha = F(3, 2)
    assert MeixnerParams(alpha, 0, 0, 1).alpha is alpha


@settings(deadline=None, max_examples=300)
@given(st.lists(scalars, max_size=6))
def test_poly_of_and_format_rat_give_the_old_results(values):
    new = Poly.of(*values)
    old = support.poly_of(*values)
    assert (new.nums, new.den) == (old.nums, old.den)
    assert [format_rat(v) for v in values] == [support.format_rat(v) for v in values]
