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
