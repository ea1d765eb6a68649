"""Values written the way a test writes them, and the oracles that act with them.

The library holds recurrences, moments and matrices as integers over one
scale.  These helpers build those values from ``Fraction`` lists and read
them back densely, through the kernels they stand in for:
``recurrence`` goes through ``orthopoly._over_lcm``, ``shifted`` through
``exact.taylor_shift`` and ``dense`` through ``GradedOp.column``.

The finite engine's operators and checks that no command uses any more live
here as references: ``zero_op``, ``number_op``, ``identity_op``,
``difference``, ``commutator``, ``comm_ux_closed_form`` and
``operator_report`` build and compare truncated ``GradedOp`` values, which
the polynomial-diagonal suites are tested against.  ``interpolate`` turns
any finite recurrence into the polynomials alpha_n and omega_n those suites
take, and ``evaluate`` reads a polynomial at a point.

The library holds an operator on polynomial diagonals as integer rows over
one denominator, ``(den, {k: nums_k})``.  A test writes it as ``{k: d_k}``
of ``Poly`` diagonals; ``int_form`` and ``poly_form`` convert between the two.

The library's scalar steps read the numerator and denominator of an ``int``
or ``Fraction`` and build one ``Fraction`` per stored value.  The ``Fraction``
formulas they replaced are kept here as references: ``sample_rat``,
``parse_rat``, ``format_rat``, ``poly_of`` and ``derived`` (delta, tau and
the support bound of a parameter quadruple).
"""

import re
from fractions import Fraction
from math import ceil, floor, lcm

from meixnerops.exact import ONE, ZERO, X, Poly, format_ratio, powers, taylor_shift
from meixnerops.meixner import InvalidParams
from meixnerops.operators import GradedOp, VerifyReport, first_mismatch
from meixnerops.orthopoly import MomentSeq, _over_lcm, monic_polys
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


def evaluate(f, x):
    """f(x) for x = p/q, by Horner's rule on q^deg f(p/q) in integers."""
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    acc, qpow = 0, 1
    for v in reversed(f.nums):
        acc = acc * p + v * qpow
        qpow *= q
    return Fraction(acc * q, f.den * qpow)


def int_form(diags):
    """The ``(den, {k: nums_k})`` of the operator with ``Poly`` diagonals ``{k: d_k}``."""
    nonzero = {k: d for k, d in diags.items() if not d.is_zero}
    den = lcm(*(d.den for d in nonzero.values()))
    return den, {k: [v * (den // d.den) for v in d.nums] for k, d in nonzero.items()}


def poly_form(op):
    """The ``Poly`` diagonals ``{k: d_k}`` of an operator held as ``(den, {k: nums_k})``."""
    den, rows = op
    return {k: Poly(row, den) for k, row in rows.items()}


def dense(op):
    """``dense(op)[m][n]`` is the f_m-component of the image of f_n."""
    return tuple(zip(*(op.column(n) for n in range(op.trunc + 1))))


def _diagonal_op(values):
    return GradedOp(len(values) - 1, (0, 0), 0, (tuple(map(Fraction, values)),))


def zero_op(trunc):
    """The zero operator on span{f_0 .. f_trunc}."""
    return _diagonal_op([0] * (trunc + 1))


def identity_op(trunc):
    """The identity on span{f_0 .. f_trunc}."""
    return _diagonal_op([1] * (trunc + 1))


def number_op(trunc):
    """The grade counter N f_n = n f_n on span{f_0 .. f_trunc}."""
    return _diagonal_op(range(trunc + 1))


def difference(a, b):
    """a - b of two truncated operators."""
    return a + b.scale(-1)


def commutator(a, b):
    """[a, b] = a o b - b o a of two truncated operators."""
    return difference(a.compose(b), b.compose(a))


def operator_report(name, lhs, rhs, sj):
    """Compare two ``GradedOp``s on their reliable degrees; on failure, expand the
    residual column in X through the f-basis of ``sj``."""
    top = min(lhs.valid_degree, rhs.valid_degree)
    miss = first_mismatch(lhs, rhs)
    if miss is None:
        return VerifyReport(name, True, top)
    index, residual = miss
    basis = monic_polys(sj, lhs.trunc)
    poly = ZERO
    for m, coef in enumerate(residual):
        poly = poly + coef * basis[m]
    return VerifyReport(name, False, top, index, poly)


def interpolate(values):
    """The polynomial of least degree that takes ``values[n]`` at n = 0, 1, ...

    Newton's forward form: sum_j (Delta^j v)_0 * binomial(X, j).
    """
    diffs, out, binom = [Fraction(v) for v in values], ZERO, ONE
    for j in range(len(diffs)):
        out = out + binom * diffs[0]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        binom = binom * (X - j) * Fraction(1, j + 1)
    return out


def comm_ux_closed_form(p, x):
    """[U, X] = (alpha/2) X - (Delta/2) N + (tau/2) I, truncated like the position operator ``x``."""
    return (
        x.scale(p.alpha / 2)
        + number_op(x.trunc).scale(-p.delta / 2)
        + identity_op(x.trunc).scale(p.tau / 2)
    )


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


def sample_rat(rng, lo, hi, max_den=6, strict_lo=False):
    """The Fraction form of ``sampling.sample_rat``, with the old fallback: when
    [lo, hi] (or (lo, hi]) holds no multiple of 1/den it returns
    ceil(hi * den) / den, which lies above hi."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    den = rng.randint(1, max_den)
    lo_num = floor(lo * den) + 1 if strict_lo else ceil(lo * den)
    hi_num = floor(hi * den)
    if hi_num < lo_num:
        lo_num = hi_num = ceil(hi * den)
    return Fraction(rng.randint(lo_num, hi_num), den)


def parse_rat(text):
    """``exact.parse_rat`` by matching, then letting ``Fraction`` parse the string again."""
    if re.fullmatch(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # q = 0, or too many digits for int()
            pass
    raise ValueError(f"not a rational number: {text!r}")


def format_rat(value):
    """``exact.format_rat`` through a ``Fraction`` built from the value."""
    value = Fraction(value)
    return format_ratio(value.numerator, value.denominator)


def poly_of(*values):
    """``Poly.of`` through a ``Fraction`` built from each value."""
    vals = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in vals))
    return Poly([v.numerator * (den // v.denominator) for v in vals], den)


def derived(alpha, alpha0, beta, t):
    """(delta, tau, support_bound) of a quadruple by the Fraction arithmetic
    ``MeixnerParams`` used, raising its ``InvalidParams`` with its message."""
    alpha, alpha0, beta, t = map(Fraction, (alpha, alpha0, beta, t))
    if t <= 0:
        raise InvalidParams(f"t must be positive, got {t}")
    if alpha < 0:
        raise InvalidParams(f"alpha must be nonnegative, got {alpha}")
    support = None
    if beta < 0:
        ratio = t / (-beta)
        if ratio.denominator != 1:
            raise InvalidParams(
                f"beta < 0 requires t/(-beta) to be a positive integer, got {ratio}"
            )
        support = 1 + ratio.numerator
    return alpha**2 - 4 * beta, 2 * t - alpha * alpha0, support
