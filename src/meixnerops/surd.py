"""Exact numbers of the form a + b*sqrt(s) with rational a, b and s >= 0.

Classification reports involve square roots of rational discriminants.  They
are kept symbolic: the radicand stays exact, a perfect-square radicand folds
into the rational part, and arithmetic stays inside one quadratic extension.
Decimal strings are offered for display only.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .exact import RatLike, format_rat, rational_sqrt

DIGITS = 12  # significant digits of the decimal rendering


@dataclass(frozen=True)
class Quadratic:
    """Normalized a + b*sqrt(s): b = 0 for rationals, s square-free-ish kept raw."""

    a: Fraction
    b: Fraction = Fraction(0)
    s: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        a, b, s = Fraction(self.a), Fraction(self.b), Fraction(self.s)
        if s < 0:
            raise ValueError("radicand must be nonnegative")
        root = rational_sqrt(s)
        if root is not None:
            a, b, s = a + b * root, Fraction(0), Fraction(0)
        if b == 0:
            s = Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "s", s)

    @staticmethod
    def _exact(a: Fraction, b: Fraction, s: Fraction) -> "Quadratic":
        """An arithmetic result: a and b are Fractions, s an operand's radicand.

        That radicand was normalized when its operand was built, so only the
        b = 0 rule is left to apply; ``rational_sqrt`` is not called again.
        """
        out = object.__new__(Quadratic)
        object.__setattr__(out, "a", a)
        object.__setattr__(out, "b", b)
        object.__setattr__(out, "s", s if b else Fraction(0))
        return out

    @staticmethod
    def of(value: RatLike) -> "Quadratic":
        return Quadratic(Fraction(value))

    @staticmethod
    def sqrt(radicand: RatLike) -> "Quadratic":
        return Quadratic(Fraction(0), Fraction(1), Fraction(radicand))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def conjugate(self) -> "Quadratic":
        return Quadratic._exact(self.a, -self.b, self.s)

    def _join(self, other: "Quadratic") -> Fraction:
        if self.b == 0:
            return other.s
        if other.b == 0 or self.s == other.s:
            return self.s
        raise ValueError(f"incompatible radicands {self.s} and {other.s}")

    def _coerce(self, other: object) -> "Quadratic | None":
        if isinstance(other, Quadratic):
            return other
        if isinstance(other, (int, Fraction)):
            return Quadratic._exact(Fraction(other), Fraction(0), Fraction(0))
        return None

    def __add__(self, other: object) -> "Quadratic":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        s = self._join(rhs)
        return Quadratic._exact(self.a + rhs.a, self.b + rhs.b, s)

    __radd__ = __add__

    def __neg__(self) -> "Quadratic":
        return Quadratic._exact(-self.a, -self.b, self.s)

    def __sub__(self, other: object) -> "Quadratic":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "Quadratic":
        return (-self) + other

    def __mul__(self, other: object) -> "Quadratic":
        if isinstance(other, (int, Fraction)):
            return Quadratic._exact(self.a * other, self.b * other, self.s)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        s = self._join(rhs)
        return Quadratic._exact(
            self.a * rhs.a + self.b * rhs.b * s,
            self.a * rhs.b + self.b * rhs.a,
            s,
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Quadratic":
        if exponent < 0:
            raise ValueError("negative powers not supported")
        out = Quadratic._exact(Fraction(1), Fraction(0), Fraction(0))
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(float(self.s))

    def decimal(self) -> str:
        """``DIGITS`` significant digits in ``%g`` style, also beyond float range."""
        try:
            value = float(self)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return f"{value:.{DIGITS}g}"
        return self._wide_decimal()

    def _wide_decimal(self) -> str:
        """``decimal`` where a float overflows, computed in decimal arithmetic.

        The result goes through a float only when it is a normal float.
        """
        def dec(q: Fraction) -> decimal.Decimal:
            return decimal.Decimal(q.numerator) / q.denominator

        wide = decimal.Context(prec=DIGITS + 20, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
        with decimal.localcontext(wide) as ctx:
            root = dec(self.b) * dec(self.s).sqrt()
            if self.a * self.b < 0:
                # a + b*sqrt(s) = (a^2 - b^2 s) / (a - b*sqrt(s)): the numerator is
                # exact and the denominator adds terms of one sign, so nothing cancels.
                value = dec(self.a**2 - self.b**2 * self.s) / (dec(self.a) - root)
            else:
                value = dec(self.a) + root
            ctx.prec = DIGITS
            rounded = value.normalize()
        as_float = float(value)
        if sys.float_info.min <= abs(as_float) <= sys.float_info.max:
            return f"{as_float:.{DIGITS}g}"  # only an operand was beyond float range
        return f"{rounded:.{DIGITS}g}"

    def to_json(self) -> object:
        if self.is_rational:
            return format_rat(self.a)
        return {
            "rational_part": format_rat(self.a),
            "root_coefficient": format_rat(self.b),
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
