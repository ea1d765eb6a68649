"""Values written the way a test writes them, and the oracles that act with them.

The library holds recurrences, moments and matrices as integers over one
scale.  These helpers build those values from ``Fraction`` lists and read
them back densely, through the kernels they stand in for:
``recurrence`` goes through ``orthopoly._over_lcm``, ``shifted`` through
``exact.taylor_shift`` and ``dense`` through ``GradedOp.column``.
"""

from fractions import Fraction
from math import lcm

from meixnerops.exact import ZERO, Poly, powers, taylor_shift
from meixnerops.orthopoly import MomentSeq, _over_lcm
from meixnerops.pmd import MonomialMatrix, _trim_ints


def _pairs(values):
    return [(v.numerator, v.denominator) for v in map(Fraction, values)]


def recurrence(alphas, omegas, support_bound=None):
    """The ``SzegoJacobi`` of finite lists, over their least common denominator.

    ``omegas[i]`` holds omega_(i+1).
    """
    return _over_lcm(_pairs(alphas), _pairs(omegas), support_bound)


def alpha(sj, n):
    """alpha_n of ``sj`` as a ``Fraction``."""
    return Fraction(sj.shift(n), sj.scale)


def moments(values):
    """The ``MomentSeq`` of exact values, over their least common denominator."""
    vals = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in vals))
    scales = powers(scale, len(vals) - 1)
    nums = tuple(v.numerator * (sm // v.denominator) for v, sm in zip(vals, scales))
    return MomentSeq(nums, scale)


def monomial(degree, coeff=1):
    """The polynomial coeff * X^degree."""
    c = Fraction(coeff)
    return Poly([0] * degree + [c.numerator], c.denominator)


def shifted(f, c):
    """f(X + c), exactly.

    With c = p/q and d = deg f, g(Y) = q^d f(Y/q) has integer coefficients,
    and f(X + c) = h(qX) / q^d with h(Z) = g(Z + p).
    """
    c = Fraction(c)
    top = max(f.degree, 0)
    qpow = powers(c.denominator, top)
    h = taylor_shift([v * qpow[top - i] for i, v in enumerate(f.nums)], c.numerator)
    return Poly([v * w for v, w in zip(h, qpow)], f.den * qpow[top])


def dense(op):
    """``dense(op)[m][n]`` is the f_m-component of the image of f_n."""
    return tuple(zip(*(op.column(n) for n in range(op.trunc + 1))))


def matrix_from_rows(rows):
    """The ``MonomialMatrix`` whose X^i coefficient of the image of X^m is ``rows[i][m]``."""
    den = lcm(*(v.denominator for row in rows for v in row))
    cols = tuple(
        tuple(_trim_ints([row[m].numerator * (den // row[m].denominator) for row in rows]))
        for m in range(len(rows[0]) if rows else 0)
    )
    return MonomialMatrix(cols, den, 1, len(rows))


def matrix_rows(matrix):
    """Dense rows of a ``MonomialMatrix``: (i, m) is the X^i coefficient of the image of X^m."""
    d = matrix.scale
    return tuple(
        tuple(
            Fraction(col[i] * d**i, matrix.den * d**m) if i < len(col) else Fraction(0)
            for m, col in enumerate(matrix.cols)
        )
        for i in range(matrix.size)
    )


def apply_expansion(decomp, f):
    """sum_n A_n(X) f^(n) for a ``PMDecomp``."""
    return sum((a * f.derivative(n) for n, a in enumerate(decomp.coeffs)), ZERO)


def apply_combo(combo, f):
    """sum_i c_i f(X + d_i) for a ``TranslationCombo``."""
    return sum((c * shifted(f, s) for c, s in combo.terms), ZERO)
