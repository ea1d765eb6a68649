"""Exact numbers a + b*sqrt(s) with rational a, b and s >= 0, held as integers.

Classification reports involve square roots of rational discriminants.  They
are kept symbolic: with R = s.numerator * s.denominator, sqrt(s) is
sqrt(R) / s.denominator, so a + b*sqrt(s) is (A + B*sqrt(R)) / d for
integers A, B and d.  Those integers are the whole value; the moment kernels
of ``classify`` read them directly, and ``s`` is kept as given for rendering.
A perfect-square radicand folds into the rational part at construction.  The
only arithmetic is negation and scaling by a rational.  Reports write the
two rational parts through ``exact.format_ratio``; the ``decimal`` string,
for display only, is computed in decimal arithmetic and rounded once.
"""

from __future__ import annotations

import decimal
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .exact import RatLike, format_rat, format_ratio, rational_sqrt

DIGITS = 12  # significant digits of the decimal rendering
# ``decimal`` works with 20 guard digits and no exponent limit.
WIDE = decimal.Context(prec=DIGITS + 20, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


@dataclass(frozen=True, init=False)
class Quadratic:
    """(num + root*sqrt(R)) / den with R = s.numerator * s.denominator.

    Canonical, so field equality and hash are exact: den > 0,
    gcd(num, root, den) = 1, and root = 0 forces s = 0.  A nonzero root
    means s is not a rational square.  Only zero is false.
    """

    num: int
    root: int
    den: int
    s: RatLike

    def __init__(self, a: RatLike, b: RatLike = 0, s: RatLike = 0) -> None:
        """The number a + b*sqrt(s), from int or Fraction parts."""
        if s < 0:
            raise ValueError("radicand must be nonnegative")
        square = rational_sqrt(s) if b else None
        if square is not None:
            a, b = a + b * square, 0
        root_den = b.denominator * s.denominator  # b*sqrt(s) = b.numerator*sqrt(R) / root_den
        den = lcm(a.denominator, root_den)
        num, root = a.numerator * (den // a.denominator), b.numerator * (den // root_den)
        self._set(num, root, den, s)

    def _set(self, num: int, root: int, den: int, s: RatLike) -> None:
        common = gcd(num, root, den)
        object.__setattr__(self, "num", num // common)
        object.__setattr__(self, "root", root // common)
        object.__setattr__(self, "den", den // common)
        object.__setattr__(self, "s", s if root else 0)

    def _new(self, num: int, root: int, den: int) -> "Quadratic":
        """A result in this number's extension, whose radicand is already normalized."""
        out = object.__new__(Quadratic)
        out._set(num, root, den, self.s)
        return out

    @staticmethod
    def sqrt(radicand: RatLike) -> "Quadratic":
        return Quadratic(0, 1, radicand)

    @property
    def a(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.root * self.s.denominator, self.den)

    @property
    def int_radicand(self) -> int:
        """R, with sqrt(s) = sqrt(R) / s.denominator; 0 for a rational."""
        return self.s.numerator * self.s.denominator

    def __bool__(self) -> bool:
        return bool(self.num or self.root)

    @property
    def is_rational(self) -> bool:
        return self.root == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def __neg__(self) -> "Quadratic":
        return self._new(-self.num, -self.root, self.den)

    def __mul__(self, other: object) -> "Quadratic":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, q = other.numerator, other.denominator
        return self._new(self.num * p, self.root * p, self.den * q)

    __rmul__ = __mul__

    def decimal(self) -> str:
        """``DIGITS`` significant digits in ``%g`` style, also beyond float range.

        The value is computed in decimal arithmetic with 20 guard digits and
        rounded once, to ``DIGITS`` digits; that rounded value goes through a
        float only for its ``%g`` spelling, and only when it is a normal float.
        """
        r = self.int_radicand
        with decimal.localcontext(WIDE) as ctx:  # a copy, so WIDE keeps its precision
            surd = self.root * decimal.Decimal(r).sqrt()
            if self.num * self.root < 0:
                # A + B sqrt(R) = (A^2 - B^2 R) / (A - B sqrt(R)): the numerator is
                # exact and the denominator adds terms of one sign, so nothing cancels.
                value = (self.num**2 - self.root**2 * r) / (self.num - surd) / self.den
            else:
                value = (self.num + surd) / self.den
            ctx.prec = DIGITS
            rounded = value.normalize()
        as_float = float(rounded)
        if sys.float_info.min <= abs(as_float) <= sys.float_info.max:
            return f"{as_float:.{DIGITS}g}"
        return f"{rounded:.{DIGITS}g}"

    def to_json(self) -> object:
        rational_part = format_ratio(self.num, self.den)
        if self.is_rational:
            return rational_part
        return {
            "rational_part": rational_part,
            "root_coefficient": format_ratio(self.root * self.s.denominator, self.den),
            "radicand": format_rat(self.s),
            "decimal": self.decimal(),
        }

    def __str__(self) -> str:
        if self.is_rational:
            return format_rat(self.a)
        root = f"sqrt({format_rat(self.s)})"
        mag = abs(self.b)
        scaled = root if mag == 1 else f"{format_rat(mag)}*{root}"
        if self.a == 0:
            return scaled if self.b > 0 else f"-{scaled}"
        sign = "+" if self.b > 0 else "-"
        return f"{format_rat(self.a)} {sign} {scaled}"

