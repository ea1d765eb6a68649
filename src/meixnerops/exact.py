"""Exact rational scalars and dense univariate polynomials.

Every quantity in this package is exact: scalars are `fractions.Fraction`
values and polynomials are dense tuples of them, lowest degree first with
trailing zeros trimmed.  No floating-point number enters
the core algebra; floats appear only in optional decimal renderings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

RatLike = Union[Fraction, int]


def parse_rat(text: str) -> Fraction:
    """Parse ``"p/q"`` (or plain ``"p"``) into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rat(value: RatLike) -> str:
    """Render as ``"p/q"`` in lowest terms, or ``"p"`` for integers."""
    return str(value if isinstance(value, Fraction) else Fraction(value))


def powers(x, top: int) -> list:
    """[1, x, x^2, ..., x^top] by running products, for any exact scalar type."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


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


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial over Q; ``coeffs[i]`` multiplies X**i."""

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        # Built from a list, the tuple is taken from the free list of its own
        # size; one built from a generator is not, so freed coefficient tuples
        # would pile up in those free lists until a full garbage collection.
        cleaned = [c if isinstance(c, Fraction) else Fraction(c) for c in self.coeffs]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))

    @staticmethod
    def of(*values: RatLike) -> "Poly":
        return Poly(tuple(Fraction(v) for v in values))

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly.of(1)

    @staticmethod
    def monomial(degree: int, coeff: RatLike = 1) -> "Poly":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return Poly(tuple([Fraction(0)] * degree + [Fraction(coeff)]))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def _coerce(self, other: object) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.of(other)
        return None

    def __add__(self, other: object) -> "Poly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        size = max(len(self.coeffs), len(rhs.coeffs))
        return Poly(tuple(self.coeff(i) + rhs.coeff(i) for i in range(size)))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: object) -> "Poly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "Poly":
        return (-self) + other

    def __mul__(self, other: object) -> "Poly":
        if isinstance(other, (int, Fraction)):
            factor = Fraction(other)
            return Poly(tuple(c * factor for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def derivative(self, order: int = 1) -> "Poly":
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        poly = self
        for _ in range(order):
            poly = Poly(tuple(poly.coeffs[i] * i for i in range(1, len(poly.coeffs))))
            if poly.is_zero:
                break
        return poly

    def shift(self, c: RatLike) -> "Poly":
        """Substitute X + c for X, exactly: returns f(X + c)."""
        c = Fraction(c)
        if c == 0 or self.is_zero:
            return self
        linear = Poly.of(c, 1)
        acc = Poly()
        for a in reversed(self.coeffs):
            acc = acc * linear + a
        return acc

    def __call__(self, x: RatLike) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    def to_json(self) -> list[str]:
        return [format_rat(c) for c in self.coeffs]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
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
ONE = Poly.one()
X = Poly.of(0, 1)
