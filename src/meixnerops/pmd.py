"""Position-momentum decompositions T = sum_n A_n(X) D^n.

Here X is multiplication by the variable and D is differentiation, acting on
polynomials.  An operator that raises degree by at most k admits at most one
such expansion with deg A_n <= n + k; ``extract_pmd`` recovers it from the
operator's matrix on the monomial basis by peeling the triangular system

    T x^m = sum_{n <= m} A_n(X) * m!/(m-n)! * x^{m-n}.

The commands read the same expansion off iterated commutators with X
(``operators.series_by_commutators``); the peel is its tested reference.

``normal_order`` rewrites a word in the letters X and D into this canonical
form using D X = X D + I.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Sequence

from .exact import ONE, X, ZERO, Poly, powers


class NotFaithful(ValueError):
    """Matrix raises degree beyond the declared bound; no expansion exists."""


_ZERO = Fraction(0)


def _trim_ints(values: list[int]) -> list[int]:
    while values and not values[-1]:
        values.pop()
    return values


def _trim(coeffs: Iterable[Poly]) -> tuple[Poly, ...]:
    out = list(coeffs)
    while out and out[-1].is_zero:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class PMDecomp:
    """Coefficients A_0, A_1, ... of a degree-(+k) operator, zeros trimmed."""

    k: int
    coeffs: tuple[Poly, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _trim(self.coeffs))
        for n, a in enumerate(self.coeffs):
            if not a.is_zero and a.degree > n + self.k:
                raise ValueError(
                    f"deg A_{n} = {a.degree} exceeds the faithfulness bound {n + self.k}"
                )

    def coeff(self, n: int) -> Poly:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else ZERO

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def apply(self, f: Poly) -> Poly:
        """Evaluate sum_n A_n(X) f^(n) exactly."""
        out = ZERO
        df = f
        for n, a in enumerate(self.coeffs):
            if n > 0:
                df = df.derivative()
                if df.is_zero:
                    break
            if not a.is_zero:
                out = out + a * df
        return out

    def to_json_dict(self) -> dict:
        return {"k": self.k, "coeffs": [a.to_json() for a in self.coeffs]}

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for n, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            head = f"({a})"
            if n == 1:
                parts.append(f"{head}*D")
            elif n > 1:
                parts.append(f"{head}*D^{n}")
            else:
                parts.append(head)
        return " + ".join(parts)


@dataclass(frozen=True)
class MonomialMatrix:
    """Columns 0 .. len(cols) - 1 of an operator's matrix on powers of Y = D*X.

    ``cols[m][i] / den`` is the Y^i coefficient of the image of Y^m, trailing
    zeros trimmed, so on powers of X the entry (i, m) is
    cols[m][i] * D^(i - m) / den, with D = ``scale``.  ``size`` counts the
    rows of the dense view.
    """

    cols: tuple[tuple[int, ...], ...]
    den: int
    scale: int
    size: int

    @staticmethod
    def from_fractions(matrix: Sequence[Sequence[Fraction]]) -> "MonomialMatrix":
        """``matrix[i][m]`` is the X^i coefficient of the image of X^m (so D = 1)."""
        den = lcm(*(v.denominator for row in matrix for v in row))
        cols = tuple(
            tuple(_trim_ints([row[m].numerator * (den // row[m].denominator) for row in matrix]))
            for m in range(len(matrix[0]) if matrix else 0)
        )
        return MonomialMatrix(cols, den, 1, len(matrix))

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense view: ``entries[i][m]`` is the X^i coefficient of the image of X^m."""
        d = self.scale
        return tuple(
            tuple(
                Fraction(col[i] * d**i, self.den * d**m) if i < len(col) else _ZERO
                for m, col in enumerate(self.cols)
            )
            for i in range(self.size)
        )


def extract_pmd(matrix: MonomialMatrix, k: int, order: int) -> PMDecomp:
    """Recover A_0 .. A_order from a monomial-basis matrix.

    Only columns 0 .. order of ``matrix`` are read, so a truncated matrix may
    be passed as long as those columns are reliable; a Fraction matrix enters
    through ``MonomialMatrix.from_fractions``.

    The peel runs on the integer columns in Y = D*X, where d/dX = D d/dY:
    with L the common denominator, B_m = L m! A~_m satisfies

        B_m = L * (column m) - sum_{n < m} C(m, n) Y^(m-n) B_n,

    for T = sum_n A~_n(Y) (d/dY)^n, and A_m(X) = A~_m(D X) / D^m, so A_m
    is the integer polynomial B_m[i] D^i over L m! D^m, reduced once.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order >= len(matrix.cols):
        raise ValueError(f"matrix has {len(matrix.cols)} columns, need {order + 1}")
    dpow = powers(matrix.scale, order + max(k, 0))
    peeled: list[list[int]] = []
    coeffs: list[Poly] = []
    den = matrix.den
    for m in range(order + 1):
        b = list(matrix.cols[m])
        if b and len(b) - 1 > m + k:
            raise NotFaithful(
                f"image of X^{m} has degree {len(b) - 1}, exceeding {m} + k with k = {k}"
            )
        # deg B_n <= n + k, so Y^(m-n) B_n fits in degrees 0 .. m + k.
        b += [0] * (m + k + 1 - len(b))
        for n, prev in enumerate(peeled):
            c = comb(m, n)
            for i, v in enumerate(prev, m - n):
                b[i] -= c * v
        b = _trim_ints(b)
        if b and len(b) - 1 > m + k:
            raise NotFaithful(f"coefficient A_{m} has degree {len(b) - 1} > {m + k}")
        peeled.append(b)
        den *= max(m, 1)  # L * m!
        coeffs.append(Poly([v * d for v, d in zip(b, dpow)], den * dpow[m]))
    return PMDecomp(k, tuple(coeffs))


@dataclass(frozen=True)
class XDWord:
    """A word in the letters X and D, read as an operator product."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        if any(ch not in ("X", "D") for ch in letters):
            raise ValueError(f"letters must be 'X' or 'D', got {letters!r}")
        object.__setattr__(self, "letters", letters)

    @staticmethod
    def parse(text: str) -> "XDWord":
        return XDWord(tuple(text.strip().upper()))

    @property
    def grade(self) -> int:
        return sum(1 if ch == "X" else -1 for ch in self.letters)

    def __str__(self) -> str:
        return "".join(self.letters) or "I"


def normal_order(word: XDWord) -> PMDecomp:
    """Canonical form of the word: the rightmost letter acts first.

    Left-composing X keeps the expansion normally ordered; left-composing D
    uses D * A_n(X) = A_n(X) * D + A_n'(X).
    """
    coeffs: list[Poly] = [ONE]
    for letter in reversed(word.letters):
        if letter == "X":
            coeffs = [X * a for a in coeffs]
        else:
            bumped = [ZERO] + coeffs
            for n in range(len(coeffs)):
                bumped[n] = bumped[n] + coeffs[n].derivative()
            coeffs = bumped
    return PMDecomp(word.grade, tuple(coeffs))
