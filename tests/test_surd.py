import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from meixnerops.surd import Quadratic


def test_str_pure_root_signs():
    root = Quadratic.sqrt(3)
    assert str(root) == "sqrt(3)"
    assert str(-root) == "-sqrt(3)"
    assert str(Quadratic(0, F(-2), 3)) == "-2*sqrt(3)"
    assert str(Quadratic(0, F(1, 2), 3)) == "1/2*sqrt(3)"
    assert str(Quadratic(0, F(-1, 2), 3)) == "-1/2*sqrt(3)"


def test_str_mixed_and_rational():
    assert str(Quadratic(1, F(-1), 3)) == "1 - sqrt(3)"
    assert str(Quadratic(F(1, 2), F(3, 4), 5)) == "1/2 + 3/4*sqrt(5)"
    assert str(-Quadratic.sqrt(4)) == "-2"  # a square radicand folds


def test_json_of_negative_root_is_unchanged():
    assert (-Quadratic.sqrt(3)).to_json() == {
        "rational_part": "0",
        "root_coefficient": "-1",
        "radicand": "3",
        "decimal": "-1.73205080757",
    }


def test_decimal_beyond_float_range():
    huge = F(10**400)
    cases = [
        (Quadratic(huge, 1, 5), "1e+400"),
        (Quadratic(-huge, F(1, 3), 7), "-1e+400"),
        (Quadratic(huge, -huge / 2, 5), "-1.1803398875e+399"),  # 1 - sqrt(5)/2
        # 3*10^400 - sqrt(9*10^800 + 1): every digit of the two terms cancels.
        (Quadratic(3 * huge, -1, 9 * huge**2 + 1), "-1.66666666667e-401"),
        # Only the radicand overflows a float; the value is 2.
        (Quadratic(1, F(1, 10**200), huge + 1), "2"),
    ]
    for value, expected in cases:
        assert value.decimal() == expected
    # Inside float range the rounded value is spelled as its float would be.
    assert Quadratic(F(3, 7), 2, 5).decimal() == "4.90070738357"
    assert Quadratic(F(10**300), -1, 2).decimal() == "1e+300"
    assert Quadratic(0, F(1, 9), 3).decimal() == "0.19245008973"


def test_decimal_rounds_once():
    # 467.58158490049999598...: the float sum of the two terms rounded up to ...901.
    assert Quadratic(F(254915, 2744), F(71774, 1369), F(15884, 311)).decimal() == "467.5815849"
    # -881.13941017250001827...: rounding the wide value to a float first gave ...172.
    value = Quadratic(F(63424, 479), F(-199861, 3714), F(19511, 55))
    assert value.decimal() == "-881.139410173"


def test_decimal_of_nearly_cancelling_terms():
    # 3*10^10 - sqrt(9*10^20 + 1): the float sum of the two terms printed "0".
    assert Quadratic(3 * 10**10, -1, 9 * 10**20 + 1).decimal() == "-1.66666666667e-11"


# Square radicands fold into the rational part; the others stay symbolic.
SQUARES = [F(0), F(1), F(4), F(9, 4)]
NON_SQUARES = [F(2), F(3, 5), F(7), F(8, 3), F(1, 12)]
rationals = st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**4))
scalars = st.integers(-7, 7) | st.builds(F, st.integers(-50, 50), st.integers(1, 30))


def reference_fields(a, b, s):
    """(a, b, s) as the Fraction-field ``Quadratic`` normalized them: a square
    radicand folds into a, and s is 0 whenever b is."""
    top, bottom = math.isqrt(s.numerator), math.isqrt(s.denominator)
    if top * top == s.numerator and bottom * bottom == s.denominator:
        a, b = a + b * F(top, bottom), F(0)
    return a, b, s if b else F(0)


def reference_str(a, b, s):
    if not b:
        return str(a)
    root = f"sqrt({s})"
    scaled = root if abs(b) == 1 else f"{abs(b)}*{root}"
    if not a:
        return scaled if b > 0 else f"-{scaled}"
    return f"{a} {'+' if b > 0 else '-'} {scaled}"


def reference_decimal(a, b, s):
    """The value at 80 digits, which outlast any cancellation of the drawn
    sizes, rounded once to 12 digits and spelled as a float in %g style."""
    with localcontext(Context(prec=80)) as ctx:
        dec = [Decimal(x.numerator) / x.denominator for x in (a, b, s)]
        value = dec[0] + dec[1] * dec[2].sqrt()
        ctx.prec = 12
        value = +value
    return f"{float(value):.12g}"


def reference_json(a, b, s):
    if not b:
        return str(a)
    return {
        "rational_part": str(a),
        "root_coefficient": str(b),
        "radicand": str(s),
        "decimal": reference_decimal(a, b, s),
    }


def check_canonical(x, a, b, s):
    """x holds (a + b*sqrt(s)) in canonical integers, (a, b, s) already normalized."""
    assert all(type(v) is int for v in (x.num, x.root, x.den))
    assert x.den > 0 and math.gcd(x.num, x.root, x.den) == 1
    assert (x.root == 0) == (x.s == 0) == (b == 0)
    assert x.int_radicand == x.s.numerator * x.s.denominator
    # (num + root*sqrt(R)) / den = a + b*sqrt(s), since sqrt(R) = s.den * sqrt(s).
    assert (F(x.num, x.den), F(x.root * x.s.denominator, x.den), x.s) == (a, b, s)
    assert (x.a, x.b, x.s) == (a, b, s)


@settings(deadline=None, max_examples=300)
@given(rationals, rationals | st.just(F(0)), st.sampled_from(SQUARES + NON_SQUARES), scalars)
def test_integer_form_is_canonical_and_renders_as_before(a, b, s, k):
    x = Quadratic(a, b, s)
    a, b, s = reference_fields(a, b, s)
    check_canonical(x, a, b, s)
    assert x.is_rational == (b == 0)
    assert x == Quadratic(a, b, s) and hash(x) == hash(Quadratic(a, b, s))
    assert str(x) == reference_str(a, b, s)
    assert x.to_json() == reference_json(a, b, s)
    assert x.decimal() == reference_decimal(a, b, s)
    check_canonical(-x, -a, -b, s)
    scaled = reference_fields(k * a, k * b, s)
    for product in (k * x, x * k):
        check_canonical(product, *scaled)
        assert product == Quadratic(*scaled)
