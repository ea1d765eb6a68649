"""Exact rational scalars and dense univariate polynomials.

Every quantity in this package is exact.  Scalars are `fractions.Fraction`
values; a polynomial is a dense tuple of integer numerators over one
positive denominator, lowest degree first with trailing zeros trimmed, and
its Fraction coefficients are built only on request.  ``ZERO``, ``ONE``
and ``X`` are the polynomials 0, 1 and X.  Every integer ratio in a report
is written by ``format_ratio``, which reduces it with one gcd.  No
floating-point number enters the core algebra; floats appear only in
optional decimal renderings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt, lcm, perm
from typing import Sequence, Union

RatLike = Union[Fraction, int]
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")  # the groups are p and q of p/q


def parse_rat(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (signed, space-padded); no decimal or exponent forms."""
    if match := _RATIONAL.fullmatch(text):
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError):  # q = 0, or too many digits for int()
            pass
    raise ValueError(f"not a rational number: {text!r}")


def format_rat(value: RatLike) -> str:
    """An int or Fraction as ``"p/q"`` in lowest terms, or ``"p"`` for integers, at any size."""
    return format_ratio(value.numerator, value.denominator)


def format_ratio(num: int, den: int) -> str:
    """num/den for den > 0, reduced by one gcd: ``"p/q"``, or ``"p"`` when q is 1."""
    common = gcd(num, den)
    num, den = num // common, den // common
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # more digits than sys.get_int_max_str_digits() lets str() write
        # Decimal writes an integer's digits exactly, with no such limit.
        return str(Decimal(num)) if den == 1 else f"{str(Decimal(num))}/{str(Decimal(den))}"


def powers(x, top: int) -> list:
    """[1, x, x^2, ..., x^top] by running products, for any exact scalar type."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def taylor_shift(h: list[int], p: int) -> list[int]:
    """Rewrite the integer coefficients of h(Z), lowest degree first, as those of h(Z + p).

    Repeated synthetic division, in place; ``h`` is returned.
    """
    top = len(h) - 1
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            h[j] += p * h[j + 1]
    return h


def rational_sqrt(value: RatLike) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    value = Fraction(value)
    if value < 0:
        return None
    num_root = isqrt(value.numerator)
    den_root = isqrt(value.denominator)
    if num_root * num_root == value.numerator and den_root * den_root == value.denominator:
        return Fraction(num_root, den_root)
    return None


@dataclass(frozen=True, init=False)
class Poly:
    """Dense univariate polynomial over Q: the X**i coefficient is ``nums[i] / den``.

    The integers ``nums`` share one positive denominator ``den`` and are kept
    canonical, with trailing zeros trimmed and gcd(den, *nums) == 1 (the zero
    polynomial is ``((), 1)``), so field equality and hash are exact.
    Arithmetic runs on the integers with one gcd per result; a ``Fraction``
    is built only by ``coeffs``, ``coeff(i)`` and rendering.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, nums: Sequence[int] = (), den: int = 1) -> None:
        # Built from a list, the tuple is taken from the free list of its own
        # size; one built from a generator is not, so freed coefficient tuples
        # would pile up in those free lists until a full garbage collection.
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        if not den:
            raise ZeroDivisionError("polynomial denominator is zero")
        common = gcd(den, *nums)  # a TypeError for anything but integers
        if den < 0:
            common = -common
        if common != 1:
            nums = [v // common for v in nums]
            den //= common
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @staticmethod
    def of(*values: RatLike) -> "Poly":
        """sum_i values[i] X**i over the least common denominator of the int or Fraction values."""
        den = lcm(*(v.denominator for v in values))
        return Poly([v.numerator * (den // v.denominator) for v in values], den)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    def coeff(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den) if 0 <= i < len(self.nums) else Fraction(0)

    def __add__(self, other: object) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.of(other)
        a, b, den = self.nums, other.nums, self.den
        if den != other.den:
            common = gcd(den, other.den)
            ma, mb = other.den // common, den // common
            a, b, den = [v * ma for v in a], [v * mb for v in b], den * ma
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return Poly(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-v for v in self.nums], self.den)

    def __sub__(self, other: object) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object) -> "Poly":
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            out = [0] * (len(self.nums) + len(other.nums) - 1)
            for i, a in enumerate(self.nums):
                if a:
                    for j, b in enumerate(other.nums, i):
                        out[j] += a * b
            return Poly(out, self.den * other.den)
        if isinstance(other, int):
            return Poly([v * other for v in self.nums], self.den)
        if isinstance(other, Fraction):
            p = other.numerator
            return Poly([v * p for v in self.nums], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self, order: int = 1) -> "Poly":
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if order == 0:
            return self
        nums = self.nums
        return Poly([perm(i, order) * nums[i] for i in range(order, len(nums))], self.den)

    def to_json(self) -> list[str]:
        return [format_ratio(v, self.den) for v in self.nums]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            if not self.nums[i]:
                continue
            c = self.coeff(i)
            if i == 0:
                body = format_rat(abs(c))
            else:
                mag = abs(c)
                lead = "" if mag == 1 else f"{format_rat(mag)}*"
                body = f"{lead}X" if i == 1 else f"{lead}X^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


ZERO = Poly()
ONE = Poly((1,))
X = Poly((0, 1))
