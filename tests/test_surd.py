from fractions import Fraction as F

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
    # Inside float range the rendering is the float's.
    for value in (Quadratic(F(3, 7), 2, 5), Quadratic(F(10**300), -1, 2), Quadratic(0, F(1, 9), 3)):
        assert value.decimal() == f"{float(value):.12g}"
