"""Integer kernels against the Fraction algorithms they replaced.

``to_monomial_basis`` and ``extract_pmd`` run on integers in a rescaled
variable.  The references below are the straightforward Fraction versions:
C * M * C^-1 with C^-1 by back-substitution, and the peel that shifts each
earlier coefficient with ``support.monomial``.  The f-basis that ``monic_polys``
and ``change_of_basis`` read off ``rescaled_basis`` is checked against the
three-term recurrence on Fraction scalars.  Outputs must be equal exactly,
and ``extract_pmd`` must refuse the same matrices with the same message.
The matrix route as a whole (parameters evaluated from integers, one
operator built, only the columns read, the peel in Y = D*X, the closed forms
in one pass) is compared with the Fraction path it replaced, kept below.
``decompose`` now reads each expansion off iterated commutators with X on
polynomial diagonals; that route is compared with the matrix route, reports
and CLI bytes included.  ``extraction_agreement`` compares the integer rows
of that route with the closed form; its reference is
``support.extraction_agreement``, which compared a ``PMDecomp`` built from
them.  The operators on polynomial diagonals are held as
integer rows over one denominator; ``poly_diagonals``,
``linear_combination``, ``diagonal_commutator`` and ``diagonal_report`` are
checked against the kernels on ``Poly`` diagonals they replaced, on random
banded operators, and every result must be in canonical form.

The moment layer has the same treatment: ``moments_from_sj`` against powers
of the recurrence matrix in Fractions, the Chebyshev algorithm against
polynomial Gram-Schmidt (same recovered coefficients, same support bound,
same ``DegenerateMoments`` message), the leading Hankel minors of the
moments against their closed form (the product of the squared norms
omega_1 ... omega_i, i <= k), and the three integer ``characterize``
routes and the growth certificate against their Fraction recurrences.
``ensure_valid`` must raise the first of the violations that the rules,
each one collected on the Fractions, find: same class, same message.

The ``classify`` oracles run on the integers (A + B*sqrt(R))/d that
``Quadratic`` holds, through one Stirling transform of factorial moments and
one affine step.  Their references are the oracles they replaced: the walk
over the n + 1 support points of a Binomial law, the Poisson moment
recursion, rising factorials in Fractions and the termwise affine sum.  Where
those meet surds they compute in ``Surd``, this file's own arithmetic on
Fraction pairs, which reads a ``Quadratic`` only through its a, b and s; the
errors and messages must be the same.

The moment kernels that now step by Pascal's rule and small divisors (the
``characterize`` recursion and Laplace series, the Stirling transform and
the affine step of ``classify``, and the Chebyshev algorithm) are checked
against the integer kernels they replaced, kept below: the same integers
over the same scale, the same recurrence fields, the same errors.  So is
the cumulant route.  The certificate's max_p r^p / p!, now one power and one
factorial at p = floor(r), is checked against the loop over every p.

The translation forms are checked as operator series, coefficient by
coefficient.  Their reference is the check they replaced, which applied the
form (by summing its weighted derivatives) and the closed form to every
X^m: the same ``VerifyReport``, failing index and residual included.

``Poly`` holds integer numerators over one denominator.  Its arithmetic
and rendering, evaluation by ``support.evaluate``, and the substitution
X -> X + c through ``exact.taylor_shift`` (``support.shifted``), are checked
against lists of reduced Fraction coefficients, and equal values must have
equal fields and hashes.
"""

import contextlib
import importlib
import io
import json
import sys
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction as F
from functools import partial, reduce
from math import comb, factorial, gcd, lcm, perm, prod
from operator import add, mul
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meixnerops.characterize import (
    DuplicateShift,
    InvalidCombo,
    NegativeMean,
    SumNotZero,
    ZeroCoefficient,
    _max_power_over_factorial,
    _power_sums,
    _scaled_terms,
    bound_cert,
    ensure_valid,
    laplace_series,
    moments_via_cumulants,
    moments_via_recursion,
)
from meixnerops.classify import (
    Binomial,
    Gamma,
    Gaussian,
    Pascal,
    Poisson,
    Unsupported,
    _affine_moments,
    _mul,
    _products,
    classify,
    distribution_moments,
)
from meixnerops.exact import ONE, X, ZERO, Poly, format_rat, powers
from meixnerops.meixner import (
    OPS,
    MeixnerParams,
    TranslationCombo,
    recurrence_polys,
    series_decomposition,
    szego_jacobi,
    translation_exprs,
)
from meixnerops.operators import (
    GradedOp,
    change_of_basis,
    diagonal_commutator,
    diagonal_report,
    linear_combination,
    poly_diagonals,
    quantum_ops,
    semi_ops,
    sequence_report,
    VerifyReport,
    to_monomial_basis,
    verify_universal,
)
from meixnerops.orthopoly import (
    DegenerateMoments,
    MomentSeq,
    SzegoJacobi,
    TruncationBeyondSupport,
    apply_functional,
    gram_schmidt_from_moments,
    moments_from_sj,
    monic_polys,
    rescaled_basis,
)
from meixnerops.pmd import NotFaithful, PMDecomp, extract_pmd
from meixnerops.sampling import sample_params
from meixnerops.suites import checked_order, extraction_agreement
from meixnerops.surd import Quadratic

import support
from corpus import perturbed
from support import commutator, number_op, operator_report, zero_op

classify_module = importlib.import_module("meixnerops.classify")
meixner_module = importlib.import_module("meixnerops.meixner")
operators_module = importlib.import_module("meixnerops.operators")
suites_module = importlib.import_module("meixnerops.suites")
cli = importlib.import_module("meixnerops.cli")


def reference_monic_polys(sj, n_max):
    """f_0 .. f_n_max by f_{n+1} = (X - alpha_n) f_n - omega_n f_{n-1}, on Fraction scalars."""
    polys = [ONE]
    prev = ZERO
    for n in range(n_max):
        nxt = (X - support.alpha(sj, n)) * polys[n]
        if n >= 1:
            nxt = nxt - sj.omega(n) * prev
        prev = polys[n]
        polys.append(nxt)
    return polys


def reference_change_of_basis(sj, trunc):
    polys = reference_monic_polys(sj, trunc)
    return [[polys[n].coeff(i) for n in range(trunc + 1)] for i in range(trunc + 1)]


def reference_invert_unit_upper(c):
    size = len(c)
    inv = [[F(0)] * size for _ in range(size)]
    for j in range(size):
        for i in range(j, -1, -1):
            acc = F(1) if i == j else F(0)
            for k in range(i + 1, j + 1):
                acc -= c[i][k] * inv[k][j]
            inv[i][j] = acc
    return inv


def reference_to_monomial_basis(op, sj):
    """C * M * C^-1 in Fractions, skipping only the known zeros of M, C, C^-1."""
    size = op.trunc + 1
    c = reference_change_of_basis(sj, op.trunc)
    c_inv = reference_invert_unit_upper(c)
    mid = [[F(0)] * size for _ in range(size)]  # M * C^-1
    for k, diag in zip(range(op.band[0], op.band[1] + 1), op.diags):
        for l in range(max(0, -k), size - max(k, 0)):
            a = diag[l + min(k, 0)]
            for n in range(l, size):
                mid[l + k][n] += a * c_inv[l][n]
    out = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for r in range(i, size):
            for n in range(size):
                out[i][n] += c[i][r] * mid[r][n]
    return tuple(map(tuple, out))


def reference_extract_pmd(matrix, k, order):
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order >= len(matrix[0]):
        raise ValueError(f"matrix has {len(matrix[0])} columns, need {order + 1}")
    columns = [
        Poly.of(*(matrix[i][m] for i in range(len(matrix)))) for m in range(order + 1)
    ]
    coeffs = []
    for m, col in enumerate(columns):
        if col and col.degree > m + k:
            raise NotFaithful(
                f"image of X^{m} has degree {col.degree}, exceeding {m} + k with k = {k}"
            )
        rem = col
        for n, a in enumerate(coeffs):
            if a:
                rem = rem - perm(m, n) * (a * support.monomial(m - n))
        a_m = rem * F(1, factorial(m))
        if a_m and a_m.degree > m + k:
            raise NotFaithful(f"coefficient A_{m} has degree {a_m.degree} > {m + k}")
        coeffs.append(a_m)
    return PMDecomp(k, tuple(coeffs))


def _outcome(fn, *args):
    """The result, or the type and message of the NotFaithful it raised."""
    try:
        return fn(*args)
    except NotFaithful as exc:
        return ("NotFaithful", str(exc))


# Mixed denominators, so the rescaling lcm D is a product of several primes.
rats = st.builds(F, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 10, 12]))
nonzero_rats = rats.filter(bool)


@st.composite
def recurrences(draw):
    trunc = draw(st.integers(0, 8))
    alphas = draw(st.lists(rats, min_size=trunc + 1, max_size=trunc + 1))
    omegas = draw(st.lists(nonzero_rats, min_size=trunc, max_size=trunc))
    bound = draw(st.none() | st.integers(trunc + 1, trunc + 3))
    return trunc, support.recurrence(alphas, omegas, support_bound=bound)


@st.composite
def graded_ops(draw, trunc):
    lo = draw(st.integers(-3, 2))
    hi = draw(st.integers(lo, 3))
    margin = draw(st.integers(0, 2))
    diags = tuple(
        tuple(draw(rats | st.just(F(0))) for _ in range(max(0, trunc + 1 - abs(k))))
        for k in range(lo, hi + 1)
    )
    return GradedOp(trunc, (lo, hi), margin, diags)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_to_monomial_basis_matches_dense_reference(data):
    trunc, sj = data.draw(recurrences())
    op = data.draw(graded_ops(trunc))
    assert support.matrix_rows(to_monomial_basis(op, sj)) == reference_to_monomial_basis(op, sj)


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_f_basis_matches_fraction_recurrence(data):
    n_max = data.draw(st.integers(0, 12))
    alphas = data.draw(st.lists(rats, min_size=n_max + 1, max_size=n_max + 1))
    omegas = data.draw(st.lists(rats, min_size=n_max, max_size=n_max))
    bound = data.draw(st.none() | st.integers(1, n_max + 2))
    sj = support.recurrence(alphas, omegas, support_bound=bound)
    if bound is not None and n_max >= bound:
        for build in (monic_polys, change_of_basis):
            with pytest.raises(TruncationBeyondSupport):
                build(sj, n_max)
        return
    assert monic_polys(sj, n_max) == reference_monic_polys(sj, n_max)
    assert change_of_basis(sj, n_max) == tuple(map(tuple, reference_change_of_basis(sj, n_max)))


def test_to_monomial_basis_rejects_truncation_past_support():
    sj = support.recurrence([0, 0, 0], [1, 1], support_bound=2)
    op = GradedOp(2, (0, 0), 0, ((F(1),) * 3,))
    with pytest.raises(TruncationBeyondSupport):
        to_monomial_basis(op, sj)


@st.composite
def monomial_matrices(draw):
    """A monomial-basis matrix with its k and order.

    Half are images of a random decomposition, sometimes with one entry
    perturbed; the other half are random, and mostly unfaithful.
    """
    k = draw(st.integers(-2, 2))
    cols = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 10))
    order = draw(st.integers(0, cols - 1))
    matrix = [[F(0)] * cols for _ in range(rows)]
    if draw(st.booleans()):
        coeffs = []
        for n in range(cols):
            top = n + k
            coeffs.append(Poly.of(
                *(draw(st.lists(rats, max_size=max(0, top + 1))) if top >= 0 else [])
            ))
        decomp = PMDecomp(k, tuple(coeffs))
        for m in range(cols):
            image = support.apply_expansion(decomp, support.monomial(m))
            for i, v in enumerate(image.coeffs[:rows]):
                matrix[i][m] = v
        if draw(st.booleans()):
            matrix[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] += draw(
                nonzero_rats
            )
    else:
        for i in range(rows):
            for m in range(cols):
                if draw(st.integers(0, 3)) == 0:
                    matrix[i][m] = draw(rats)
    return matrix, k, order


@settings(deadline=None, max_examples=150)
@given(monomial_matrices())
def test_extract_pmd_matches_monomial_peel(case):
    matrix, k, order = case
    assert _outcome(extract_pmd, support.matrix_from_rows(matrix), k, order) == _outcome(
        reference_extract_pmd, matrix, k, order
    )


def test_large_pmd_suite_case_matches_references():
    # The first trial of ``verify --suite=pmd --degree=48 --seed=1``: trunc 51.
    # U and V cover a lowering band and a raising band with its margin; the
    # Fraction references take about a second per operator at this size.
    p = sample_params(Random(1), min_dim=52)
    sj = szego_jacobi(p)
    for op in ("U", "V"):
        graded = parent_build_op(op, sj, 51)
        matrix = to_monomial_basis(graded, sj)
        assert support.matrix_rows(matrix) == reference_to_monomial_basis(graded, sj), op
        k = graded.band[1]
        cap = min(48, graded.valid_degree - max(k, 0))
        assert cap == 48
        extracted = extract_pmd(matrix, k, cap)
        assert extracted == reference_extract_pmd(support.matrix_rows(matrix), k, cap), op
        closed = series_decomposition(p, op, cap)
        assert all(extracted.coeff(n) == closed.coeff(n) for n in range(cap + 1)), op



# The decompose path before it moved to one integer pipeline: the parameters
# evaluated in Fractions, all six operators built, the dense monomial matrix
# formed as Fractions over every column, and the peel on those Fractions.


def parent_szego_jacobi(p):
    # Over the common denominator of the four parameters, which clears every
    # alpha_n and omega_n, though it may exceed the least one.
    scale = lcm(p.alpha.denominator, p.alpha0.denominator, p.beta.denominator, p.t.denominator)
    return SzegoJacobi(
        lambda n: _integer((p.alpha * n + p.alpha0) * scale),
        lambda n: _integer((p.beta * n * n + (p.t - p.beta) * n) * scale * scale),
        scale,
        p.support_bound,
    )


def _integer(value):
    assert value.denominator == 1
    return value.numerator


def parent_build_op(name, sj, trunc):
    aplus, azero, aminus = quantum_ops(sj, trunc)
    u, v = semi_ops(aplus, azero, aminus)
    table = {"U": u, "V": v, "N": number_op(trunc), "a0": azero, "a-": aminus, "a+": aplus}
    return table[name]


def parent_to_monomial_basis(op, sj):
    lo, hi = op.band
    size = op.trunc + 1
    coeffs, coords = rescaled_basis(sj, op.trunc)
    scale = sj.scale
    common = lcm(*(v.denominator for diag in op.diags for v in diag))
    mid = [
        [v.numerator * (common // v.denominator) * scale ** (hi - k) for v in diag]
        for k, diag in zip(range(lo, hi + 1), op.diags)
    ]
    cols = []
    for m in range(size):
        y = coords[m]
        image = [0] * max(0, min(size, m + hi + 1))
        for k, diag in zip(range(lo, hi + 1), mid):
            off = min(k, 0)
            for l in range(max(0, -k), min(m + 1, size - max(k, 0))):
                if y[l]:
                    image[l + k] += diag[l + off] * y[l]
        col = [0] * len(image)
        for r, c in enumerate(image):
            if c:
                for i, g in enumerate(coeffs[r]):
                    col[i] += c * g
        cols.append(col)
    dens = [common * scale**e for e in range(size + max(hi, 0))]
    return tuple(
        tuple(
            F(col[i], dens[m + hi - i]) if i < len(col) and col[i] else F(0)
            for m, col in enumerate(cols)
        )
        for i in range(size)
    )


def parent_extract_pmd(matrix, k, order):
    columns = [[row[m] for row in matrix] for m in range(order + 1)]
    common = lcm(*(v.denominator for col in columns for v in col))
    peeled, coeffs = [], []
    for m, col in enumerate(columns):
        b = [v.numerator * (common // v.denominator) for v in col]
        while b and not b[-1]:
            b.pop()
        if b and len(b) - 1 > m + k:
            raise NotFaithful(
                f"image of X^{m} has degree {len(b) - 1}, exceeding {m} + k with k = {k}"
            )
        b += [0] * (m + k + 1 - len(b))
        for n, prev in enumerate(peeled):
            for i, v in enumerate(prev, m - n):
                b[i] -= comb(m, n) * v
        while b and not b[-1]:
            b.pop()
        if b and len(b) - 1 > m + k:
            raise NotFaithful(f"coefficient A_{m} has degree {len(b) - 1} > {m + k}")
        peeled.append(b)
        coeffs.append(Poly.of(*(F(v, common * factorial(m)) for v in b)))
    return PMDecomp(k, tuple(coeffs))


def parent_series(p, op, order):
    """The per-coefficient closed forms, with a0, V, a- and a+ derived termwise."""
    xm = Poly.of(-p.alpha0, 1)
    lin = Poly.of(p.tau, p.alpha)
    u = [Poly.of(p.alpha0 / 2)]
    num = [ZERO]
    for n in range(1, order + 1):
        if n % 2:
            w = F(p.delta ** ((n - 1) // 2), factorial(n))
            u.append(w * ((p.alpha / 2) * xm + p.t))
            num.append(w * xm)
        else:
            u.append(F(-(p.delta ** (n // 2)), 2 * factorial(n)) * xm)
            num.append(F(-(p.delta ** (n // 2 - 1)), factorial(n)) * lin)
    a0 = [p.alpha * c for c in num]
    a0[0] = a0[0] + p.alpha0
    am = [a - F(1, 2) * b for a, b in zip(u, a0)]
    table = {
        "U": (0, u),
        "V": (1, [X - u[0]] + [-c for c in u[1:]]),
        "N": (0, num),
        "a0": (0, a0),
        "a-": (-1, am),
        "a+": (1, [X - am[0] - a0[0]] + [-a - b for a, b in zip(am[1:], a0[1:])]),
    }
    k, coeffs = table[op]
    return PMDecomp(k, tuple(coeffs))


def _fracs(lo, hi):
    return st.fractions(lo, hi, max_denominator=6)


@st.composite
def meixner_params(draw):
    """All six classes; Binomial laws on 2 .. 35 points."""
    alpha, alpha0 = draw(_fracs(0, 3)), draw(_fracs(-2, 2))
    t = draw(_fracs(F(1, 6), 3))
    kind = draw(st.sampled_from(["beta0", "delta0", "pascal", "sech", "binomial"]))
    if kind == "beta0":
        beta = F(0)
    elif kind == "delta0":
        beta = alpha**2 / 4
    elif kind == "pascal":
        beta = alpha**2 / 4 * draw(_fracs(F(1, 6), F(5, 6)))
    elif kind == "sech":
        beta = alpha**2 / 4 + draw(_fracs(F(1, 6), 2))
    else:
        beta = -t / draw(st.integers(1, 34))
    return MeixnerParams(alpha, alpha0, beta, t)


def _both_paths(p, op, order):
    """(new, parent) extraction at the truncation ``decompose`` uses."""
    bound = p.support_bound
    trunc = order + 3 if bound is None else min(order + 3, bound - 1)
    sj, parent_sj = szego_jacobi(p), parent_szego_jacobi(p)
    graded, parent_graded = parent_build_op(op, sj, trunc), parent_build_op(op, parent_sj, trunc)
    assert graded == parent_graded
    k = parent_graded.band[1]
    cap = min(order, graded.valid_degree - max(k, 0))
    assert cap >= 0
    matrix = to_monomial_basis(graded, sj, cap)
    parent_matrix = parent_to_monomial_basis(parent_graded, parent_sj)
    assert support.matrix_rows(matrix) == tuple(row[: cap + 1] for row in parent_matrix)
    return extract_pmd(matrix, k, cap), parent_extract_pmd(parent_matrix, k, cap)


@settings(deadline=None, max_examples=150)
@given(meixner_params(), st.sampled_from(OPS), st.integers(0, 30))
def test_decompose_pipeline_matches_fraction_path(p, op, order):
    sj, parent_sj = szego_jacobi(p), parent_szego_jacobi(p)
    top = order + 3 if sj.support_bound is None else sj.support_bound - 1
    assert [support.alpha(sj, n) for n in range(top + 1)] == [
        support.alpha(parent_sj, n) for n in range(top + 1)
    ]
    assert [sj.omega(n) for n in range(top + 1)] == [parent_sj.omega(n) for n in range(top + 1)]
    extracted, parent = _both_paths(p, op, order)
    assert extracted == parent
    closed = series_decomposition(p, op, order)
    assert all(extracted.coeff(n) == closed.coeff(n) for n in range(len(extracted.coeffs)))


@pytest.mark.parametrize("points", range(2, 13))
def test_full_truncation_of_binomial_laws(points):
    # trunc = support - 1: the last diagonal entry alpha_trunc enters a0 and
    # U, though the basis change only needs alpha_0 .. alpha_(trunc - 1).
    # Order 0 on 2 points is the smallest truncation: trunc = 1, checked order 0.
    # The commutator route, which needs no truncation, agrees at every cap.
    p = MeixnerParams(F(1, 3), F(-1, 2), F(-5, 3) / (points - 1), F(5, 3))
    sj = szego_jacobi(p)
    alpha, omega = recurrence_polys(p)
    for op in OPS:
        for order in (0, 8):
            extracted, parent = _both_paths(p, op, order)
            assert extracted == parent, (op, order)
            assert both_routes(sj, alpha, omega, op, order) == (extracted, extracted), (op, order)
            report = extraction_agreement(p, op, order, series_decomposition(p, op, order))
            expected = min(order, points - 1 - max(extracted.k, 0))
            assert report.passed and report.max_degree == expected >= 0, (op, order)


@settings(deadline=None, max_examples=100)
@given(meixner_params(), st.sampled_from(OPS), st.integers(0, 30))
def test_series_decomposition_matches_termwise_closed_forms(p, op, order):
    assert series_decomposition(p, op, order) == parent_series(p, op, order)


# ---------------------------------------------------------------- commutator route
# ``extraction_agreement`` reads each operator's expansion off its iterated
# commutators with X, on polynomial diagonals.  Its reference is the matrix
# route it replaced: the truncated operator, its monomial-basis matrix and
# the peel, at the cap read off that operator.

GRADES = {"U": 0, "V": 1, "N": 0, "a0": 0, "a-": -1, "a+": 1}


def matrix_cap(graded, k, order):
    """The checked order the matrix route read off the truncated operator."""
    return min(order, graded.valid_degree - max(k, 0))


def truncated_checked_order(bound, k, order):
    """``checked_order`` as it was: the reliable order of the matrix route's truncation.

    The truncation is order + 3, or the whole finite support if that is
    smaller.  A raising band loses its k top columns unless the truncation
    keeps the whole finite support, and it needs k spare degrees at the top.
    """
    trunc = order + 3 if bound is None else min(order + 3, bound - 1)
    margin = 0 if k <= 0 or (bound is not None and trunc == bound - 1) else k
    return min(order, trunc - margin - max(k, 0))


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_checked_order_is_the_truncated_rule(k):
    for bound in (None, *range(2, 60)):
        for order in range(60):
            assert checked_order(bound, k, order) == truncated_checked_order(bound, k, order), (
                bound, order)


def matrix_extraction_agreement(p, op, order, closed):
    """``extraction_agreement`` as it was: one truncated operator, its monomial matrix, the peel."""
    sj = szego_jacobi(p)
    bound = sj.support_bound
    trunc = order + 3 if bound is None else min(order + 3, bound - 1)
    graded = parent_build_op(op, sj, trunc)
    cap = matrix_cap(graded, closed.k, order)
    extracted = extract_pmd(to_monomial_basis(graded, sj, cap), closed.k, cap)
    return sequence_report(
        f"extraction matches closed form for {op}",
        cap,
        ((n, extracted.coeff(n), closed.coeff(n)) for n in range(cap + 1)),
    )


def both_routes(sj, alpha, omega, op, order):
    """(commutator route, matrix route) of ``op`` at the truncation ``decompose`` uses.

    ``alpha`` and ``omega`` are the recurrence of ``sj`` as polynomials in n.
    """
    k = GRADES[op]
    bound = sj.support_bound
    trunc = order + 3 if bound is None else min(order + 3, bound - 1)
    graded = parent_build_op(op, sj, trunc)
    cap = checked_order(bound, k, order)
    assert cap == matrix_cap(graded, k, order) >= 0
    matrix = extract_pmd(to_monomial_basis(graded, sj, cap), k, cap)
    diags = poly_diagonals(op, alpha, omega)
    commutators = support.commutator_pmd(diags, poly_diagonals("X", alpha, omega), sj, k, cap)
    return commutators, matrix


class CycleLog:
    """Counts the commutators and records every cycle constant found."""

    def __init__(self, monkeypatch):
        self.commutators, self.constants = 0, []
        rows, constant = operators_module.diagonal_commutator, operators_module._cycle_constant

        def counted(*args):
            self.commutators += 1
            return rows(*args)

        def logged(*args):
            c = constant(*args)
            if c is not None:
                self.constants.append(c)
            return c

        monkeypatch.setattr(operators_module, "diagonal_commutator", counted)
        monkeypatch.setattr(operators_module, "_cycle_constant", logged)

    def reset(self):
        self.commutators, self.constants = 0, []


CLASS_PARAMS = (
    MeixnerParams(0, F(1, 3), 0, F(5, 4)),  # Gaussian
    MeixnerParams(F(3, 2), F(-1, 2), 0, F(2, 3)),  # Poisson
    MeixnerParams(F(5, 7), F(-3, 11), F(2, 13), F(7, 5)),  # Pascal, irrational sqrt(Delta)
    MeixnerParams(2, 1, 1, 1),  # Gamma: Delta = 0
    MeixnerParams(F(1, 2), 0, F(3, 4), F(1, 2)),  # hyperbolic secant
    MeixnerParams(F(1, 3), F(-1, 2), F(-5, 54), F(5, 3)),  # Binomial on 19 points
)


def test_commutator_route_matches_matrix_route_on_every_class(monkeypatch):
    # Every operator of every class at orders 0 .. 16.  Each Meixner operator
    # repeats within four commutators, T_j = Delta T_(j-2), so no order needs more.
    log = CycleLog(monkeypatch)
    for p in CLASS_PARAMS:
        sj = szego_jacobi(p)
        alpha, omega = recurrence_polys(p)
        delta = p.delta
        for op in OPS:
            for order in range(17):
                log.reset()
                commutators, matrix = both_routes(sj, alpha, omega, op, order)
                assert commutators == matrix, (p, op, order)
                assert log.commutators <= min(order, 4), (p, op, order)
                if order >= 4:
                    assert log.constants in ([delta], [0]), (p, op, order)


@settings(deadline=None, max_examples=150)
@given(meixner_params(), st.sampled_from(OPS), st.integers(0, 16))
def test_commutator_route_matches_matrix_route(p, op, order):
    sj = szego_jacobi(p)
    commutators, matrix = both_routes(sj, *recurrence_polys(p), op, order)
    assert commutators == matrix
    closed = series_decomposition(p, op, order)
    assert extraction_agreement(p, op, order, closed) == matrix_extraction_agreement(
        p, op, order, closed
    )


def test_delta_zero_cycles_with_constant_zero(monkeypatch):
    # At Delta = 0, T_j = 0 * T_(j-2): U and V stop after A_1, the rest after A_2.
    log = CycleLog(monkeypatch)
    for p in (MeixnerParams(2, 1, 1, 1), MeixnerParams(0, F(-2, 3), 0, F(1, 6))):
        assert p.delta == 0
        sj = szego_jacobi(p)
        alpha, omega = recurrence_polys(p)
        for op in OPS:
            log.reset()
            commutators, matrix = both_routes(sj, alpha, omega, op, 16)
            assert commutators == matrix, (p, op)
            assert log.constants == [0], (p, op)
            assert len(commutators.coeffs) <= 3, (p, op)


def polynomial_recurrence(alpha, omega, top):
    """The recurrence alpha_n = alpha(n), omega_n = omega(n) through degree ``top``."""
    return support.recurrence(
        [support.evaluate(alpha, n) for n in range(top + 1)],
        [support.evaluate(omega, n) for n in range(1, top + 1)],
    )


@settings(deadline=None, max_examples=60)
@given(
    st.lists(rats, min_size=1, max_size=3),
    st.lists(st.fractions(0, 3, max_denominator=5), min_size=3, max_size=3),
    st.sampled_from(OPS),
    st.integers(0, 12),
)
def test_commutator_route_on_polynomial_recurrences(alphas, omegas, op, order):
    # alpha_n of degree up to 2, omega_n = n (q0 + q1 n + q2 n^2) > 0 for n >= 1.
    alpha = Poly.of(*alphas)
    omega = Poly.of(0, F(1, 2) + omegas[0], omegas[1], omegas[2])
    sj = polynomial_recurrence(alpha, omega, order + 3)
    commutators, matrix = both_routes(sj, alpha, omega, op, order)
    assert commutators == matrix


@st.composite
def banded_polynomial_operators(draw):
    """Diagonals d_k(n) for lo <= k <= hi, with d_k(n) = 0 for 0 <= n < -k, and hi.

    The zeros keep every entry below f_0 empty, as omega_0 = 0 does for X.
    """
    lo = draw(st.integers(-2, 1))
    hi = draw(st.integers(max(lo, 0), 2))
    diags = {}
    for k in range(lo, hi + 1):
        d = Poly.of(*draw(st.lists(rats, max_size=3)))
        for root in range(-k):
            d = d * Poly.of(-root, 1)
        if d:
            diags[k] = d
    return diags, hi


@settings(deadline=None, max_examples=60)
@given(
    banded_polynomial_operators(),
    st.lists(rats, min_size=1, max_size=3),
    st.lists(st.fractions(0, 3, max_denominator=5), min_size=3, max_size=3),
    st.integers(0, 8),
)
def test_commutator_route_on_banded_operators(case, alphas, omegas, order):
    # Any operator with polynomial diagonals, against its truncated matrix.
    diags, hi = case
    alpha = Poly.of(*alphas)
    omega = Poly.of(0, F(1, 2) + omegas[0], omegas[1], omegas[2])
    commutators, matrix = both_banded_routes(diags, hi, alpha, omega, order)
    assert commutators == matrix


def both_banded_routes(diags, hi, alpha, omega, order):
    """(commutator route, matrix route) of the operator with polynomial diagonals ``diags``.

    A truncation 2 * hi above the order leaves every column the matrix route reads exact.
    """
    trunc = order + 2 * hi
    sj = polynomial_recurrence(alpha, omega, trunc)
    lo = min(diags, default=0)
    band = tuple(
        tuple(support.evaluate(diags.get(k, ZERO), n)
              for n in range(max(0, -k), trunc + 1 - max(k, 0)))
        for k in range(lo, hi + 1)
    )
    graded = GradedOp(trunc, (lo, hi), hi, band)
    matrix = extract_pmd(to_monomial_basis(graded, sj, order), hi, order)
    x = poly_diagonals("X", alpha, omega)
    return support.commutator_pmd(support.int_form(diags), x, sj, hi, order), matrix


def test_a_cycle_holds_on_every_diagonal(monkeypatch):
    # U + a+ N on the Gaussian recurrence: the lowest diagonal of T_2 is twice
    # that of T_0, but the diagonals above it are not, so the cycle found is
    # T_4 = 0 = 0 * T_2.
    log = CycleLog(monkeypatch)
    alpha, omega = ZERO, X
    diags = {-1: omega, 1: X}
    commutators, matrix = both_banded_routes(diags, 1, alpha, omega, 8)
    assert commutators == matrix
    assert (log.commutators, log.constants) == (4, [0])


def test_non_meixner_recurrence_runs_to_the_cap(monkeypatch):
    # omega_n = n^3/3 + n is cubic, so no iterate repeats: every order takes
    # one commutator per coefficient.
    log = CycleLog(monkeypatch)
    alpha, omega = Poly.of(F(1, 2), 1), Poly.of(0, 1, 0, F(1, 3))
    sj = polynomial_recurrence(alpha, omega, 19)
    for op in OPS:
        log.reset()
        commutators, matrix = both_routes(sj, alpha, omega, op, 16)
        assert commutators == matrix, op
        assert (log.commutators, log.constants) == (16, []), op


@pytest.mark.parametrize(
    "index, bump",
    [(5, Poly.of(F(1, 7))), (0, Poly.of(0, F(1, 3))), (2, Poly.of(F(-2, 5), 0, 1)), (24, ONE)],
)
def test_failing_reports_match_the_matrix_route(index, bump):
    # A perturbed closed form fails at the same index with the same residual,
    # or passes when the perturbation lies past the checked order.
    for p in CLASS_PARAMS + (MeixnerParams(1, 0, F(-1, 2), 1),):  # and a coin on 3 points
        for op in OPS:
            closed = series_decomposition(p, op, 24)
            coeffs = list(closed.coeffs) + [ZERO] * (index + 1 - len(closed.coeffs))
            if bump.degree > index + closed.k:
                continue  # no expansion of grade k has such a coefficient
            coeffs[index] = coeffs[index] + bump
            closed = PMDecomp(closed.k, tuple(coeffs))
            report = extraction_agreement(p, op, 24, closed)
            assert report == matrix_extraction_agreement(p, op, 24, closed), (p, op)
            assert report.passed == (index > report.max_degree), (p, op)


@settings(deadline=None, max_examples=150)
@given(meixner_params(), st.sampled_from(OPS), st.integers(0, 16), st.data())
def test_extraction_agreement_matches_the_pmdecomp_reference(p, op, order, data):
    # A closed form bumped at a random index, maybe past the checked order, by
    # a polynomial that an expansion of grade k may hold there, maybe zero.
    closed = series_decomposition(p, op, order)
    index = data.draw(st.integers(max(0, -closed.k), order + 1))
    bump = Poly.of(*data.draw(st.lists(rats, max_size=index + closed.k + 1)))
    closed = perturbed(closed, index, bump)
    report = extraction_agreement(p, op, order, closed)
    assert report == support.extraction_agreement(p, op, order, closed)
    assert report.passed == (not bump or index > report.max_degree)


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_cli_bytes_match_the_matrix_route(monkeypatch):
    # decompose --json for every operator at orders 0, 1, 2, 24 and 96, and
    # verify --suite=pmd --degree=24; then one failing decompose report.
    commutator_route = suites_module.extraction_agreement
    pascal = ["--alpha=5/7", "--alpha0=-3/11", "--beta=2/13", "--t=7/5"]
    binomial = ["--alpha=1/3", "--alpha0=-1/2", "--beta=-5/54", "--t=5/3"]  # 19 points
    argvs = [
        ["decompose", *params, f"--op={op}", f"--order={order}", "--json"]
        for params in (pascal, binomial)
        for op in OPS
        for order in (0, 1, 2, 24, 96)
    ]
    argvs += [
        ["verify", "--suite=pmd", "--degree=24", "--trials=3", f"--seed={seed}", "--json"]
        for seed in (1, 2)
    ]
    new = [_stdout(argv) for argv in argvs]
    assert all(code == 0 for code, _ in new)
    for module in (cli, suites_module):
        monkeypatch.setattr(module, "extraction_agreement", matrix_extraction_agreement)
    assert [_stdout(argv) for argv in argvs] == new

    def perturbed(p, op, order):
        closed = series_decomposition(p, op, order)
        coeffs = list(closed.coeffs)
        coeffs[5] = coeffs[5] + F(1, 7)
        return PMDecomp(closed.k, tuple(coeffs))

    monkeypatch.setattr(cli, "series_decomposition", perturbed)
    failing = ["decompose", *pascal, "--op=U", "--order=24", "--json"]
    matrix = _stdout(failing)
    monkeypatch.setattr(cli, "extraction_agreement", commutator_route)
    assert _stdout(failing) == matrix
    assert matrix[0] == 1 and json.loads(matrix[1])["extraction_agreement"]["fail_index"] == 5


# ---------------------------------------------------------------- doublecomm
# ``suite_doublecomm`` checks [U,X] and [[U,X],X] as identities between
# polynomial diagonals.  Its reference is the suite it replaced, which built
# both commutators and both closed forms as truncated Fraction operators.


def parent_suite_doublecomm(rng, degree):
    p = sample_params(rng, min_dim=degree + 1)
    sj = szego_jacobi(p)
    aplus, azero, aminus = quantum_ops(sj, degree)
    u, _ = semi_ops(aplus, azero, aminus)
    x = aminus + azero + aplus
    step1 = commutator(u, x)
    return p, [
        operator_report("[U,X] = (alpha/2)X - (delta/2)N + (tau/2)I", step1,
                        support.comm_ux_closed_form(p, x), sj),
        operator_report(
            "[[U,X],X] = -(delta/2)(X - 2U)",
            commutator(step1, x),
            support.difference(x, u.scale(2)).scale(-p.delta / 2),
            sj,
        ),
    ]


def truncated(diags, trunc):
    """The ``GradedOp`` holding the entries (n + k, n) of ``{k: d_k}`` inside 0 .. trunc."""
    return reduce(add, (
        GradedOp(trunc, (k, k), 0, (tuple(support.evaluate(d, i - min(k, 0)) for i in range(trunc + 1 - abs(k))),))
        for k, d in diags.items()
    ))


def both_doublecomm(p, degree, bump=None):
    """(suite, parent suite) on the law ``p``, both with ``bump`` added to the [U,X] closed form."""
    module = sys.modules[__name__]
    closed, parent_closed = suites_module.comm_ux_closed_form, support.comm_ux_closed_form
    with pytest.MonkeyPatch.context() as mp:
        for holder in (suites_module, module):
            mp.setattr(holder, "sample_params", lambda rng, min_dim: p)
        if bump:
            mp.setattr(suites_module, "comm_ux_closed_form",
                       lambda p, x: linear_combination((1, closed(p, x)), (1, support.int_form(bump))))
            mp.setattr(support, "comm_ux_closed_form",
                       lambda p, x: parent_closed(p, x) + truncated(bump, x.trunc))
        return suites_module.suite_doublecomm(None, degree), parent_suite_doublecomm(None, degree)


@settings(deadline=None, max_examples=150)
@given(meixner_params(), st.integers(4, 24))
def test_doublecomm_matches_finite_suite(p, degree):
    bound = p.support_bound
    if bound is not None:
        degree = min(degree, bound - 1)  # a Binomial law on fewer points: its full space
    new, parent = both_doublecomm(p, degree)
    assert new == parent
    assert all(report.passed for report in new[1])


def test_doublecomm_matches_finite_suite_on_seeds():
    # The suite's own draws, so both read the generator the same way.
    for seed in range(20):
        for degree in (1, 4, 5, 12, 24):
            new = suites_module.suite_doublecomm(Random(seed), degree)
            assert new == parent_suite_doublecomm(Random(seed), degree), (seed, degree)


@pytest.mark.parametrize("points", range(2, 31))
def test_doublecomm_on_the_full_space_of_binomial_laws(points):
    # trunc = bound - 1: a+ keeps its top column, so both identities are
    # checked on every column of the truncation.
    p = MeixnerParams(F(1, 3), F(-1, 2), F(-5, 3) / (points - 1), F(5, 3))
    new, parent = both_doublecomm(p, points - 1)
    assert new == parent
    assert [report.max_degree for report in new[1]] == [points - 1, points - 1]


@settings(deadline=None, max_examples=100)
@given(_fracs(0, 3), _fracs(-2, 2), _fracs(F(1, 6), 3), st.integers(4, 24))
def test_doublecomm_at_delta_zero(alpha, alpha0, t, degree):
    # [[U,X],X] = -(0/2)(X - 2U) is the zero operator.
    p = MeixnerParams(alpha, alpha0, alpha**2 / 4, t)
    new, parent = both_doublecomm(p, degree)
    assert new == parent
    assert new[1][1].passed


def vanishing_below(m, c):
    """c (X - 0)(X - 1) ... (X - (m - 1)), zero at n = 0 .. m - 1."""
    return reduce(mul, (X - j for j in range(m)), Poly.of(c))


# A coin on 9 points, checked on its full space, and the six classes.
BUMPED_LAWS = CLASS_PARAMS + (MeixnerParams(1, 0, F(-1, 8), 1),)


@pytest.mark.parametrize(
    "bump",
    [
        {0: Poly.of(F(1, 7))},
        {-1: vanishing_below(3, F(-2, 5))},
        {1: vanishing_below(2, 3)},
        {-2: vanishing_below(4, F(1, 3)), 0: vanishing_below(2, 1), 2: vanishing_below(2, -1)},
        {-1: vanishing_below(5, 1), 0: vanishing_below(5, F(3, 7)), 1: vanishing_below(5, 2)},
    ],
)
def test_doublecomm_fails_like_the_finite_suite(bump):
    for p in BUMPED_LAWS:
        new, parent = both_doublecomm(p, 8, bump)
        assert new == parent, p
        step1 = new[1][0]
        assert not step1.passed and step1.residual is not None, p
        assert new[1][1].passed, p


def test_doublecomm_reads_only_the_reliable_entries():
    # Column top + 1 is not reliable; a bump at column top in a row past the
    # truncation is not held by it.  Neither is compared.
    for p in BUMPED_LAWS:
        top = both_doublecomm(p, 8)[0][1][0].max_degree
        for bump in (
            {0: vanishing_below(top + 1, 5)},
            {-1: vanishing_below(top + 1, F(-1, 3))},
            {8 - top + 1: vanishing_below(top, 1)},
        ):
            new, parent = both_doublecomm(p, 8, bump)
            assert new == parent, (p, bump)
            assert all(report.passed for report in new[1]), (p, bump)
        # A failure in column top leaves the row past the truncation out of its residual.
        bump = {0: vanishing_below(top, 1), 8 - top + 1: vanishing_below(top, 1)}
        new, parent = both_doublecomm(p, 8, bump)
        assert new == parent, p
        assert new[1][0].fail_index == top, p


def test_doublecomm_top_is_the_finite_reliable_degree():
    for degree in range(4, 61):
        for bound in (None, degree + 1, degree + 2, degree + 3):
            t = F(5, 3)
            beta = 0 if bound is None else -t / (bound - 1)
            p = MeixnerParams(F(1, 3), F(-1, 2), beta, t)
            assert p.support_bound == bound
            sj = szego_jacobi(p)
            aplus, azero, aminus = quantum_ops(sj, degree)
            u, _ = semi_ops(aplus, azero, aminus)
            x = aminus + azero + aplus
            step1, step2 = commutator(u, x), commutator(commutator(u, x), x)
            closed1 = support.comm_ux_closed_form(p, x)
            closed2 = support.difference(x, u.scale(2)).scale(-p.delta / 2)
            expected = [
                min(step1.valid_degree, closed1.valid_degree),
                min(step2.valid_degree, closed2.valid_degree),
            ]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(suites_module, "sample_params", lambda rng, min_dim: p)
                _, reports = suites_module.suite_doublecomm(None, degree)
            assert [report.max_degree for report in reports] == expected, (degree, bound)


# ---------------------------------------------------------------- universal
# ``verify_universal`` checks the six universal identities on polynomial
# diagonals.  Its reference is the checker it replaced, which built a+, a0,
# a-, U, V, X and N as truncated Fraction operators.  Both look up their
# report functions by name, so a test can perturb one right-hand side in both.


def parent_verify_universal(sj, trunc):
    aplus, azero, aminus = quantum_ops(sj, trunc)
    u, v = semi_ops(aplus, azero, aminus)
    x = aminus + azero + aplus
    num = number_op(trunc)
    reports = [
        operator_report("[N,a+] = a+", commutator(num, aplus), aplus, sj),
        operator_report("[N,a0] = 0", commutator(num, azero), zero_op(trunc), sj),
        operator_report("[a-,N] = a-", commutator(aminus, num), aminus, sj),
        operator_report("[N,V] = a+", commutator(num, v), aplus, sj),
        operator_report("[U,N] = a-", commutator(u, num), aminus, sj),
    ]
    v_minus_u = support.difference(v, u)
    left = operator_report("[N,X] = V - U", commutator(num, x), v_minus_u, sj)
    right = operator_report("V - U = a+ - a-", v_minus_u, support.difference(aplus, aminus), sj)
    if left.passed and right.passed:
        reports.append(
            VerifyReport("[N,X] = V - U = a+ - a-", True, min(left.max_degree, right.max_degree))
        )
    else:
        bad = left if not left.passed else right
        reports.append(
            VerifyReport(
                "[N,X] = V - U = a+ - a-", False, bad.max_degree, bad.fail_index, bad.residual
            )
        )
    return reports


UNIVERSAL_PARTS = (
    "[N,a+] = a+",
    "[N,a0] = 0",
    "[a-,N] = a-",
    "[N,V] = a+",
    "[U,N] = a-",
    "[N,X] = V - U",
    "V - U = a+ - a-",
)


def both_universal(p, trunc, bumps=None):
    """(checker, reference) on the law ``p``, both with ``bumps[name]`` added to
    the right-hand side of the check called ``name``."""
    bumps = bumps or {}
    sj = szego_jacobi(p)
    new_report, parent_report = operators_module.diagonal_report, operator_report

    def bumped_new(name, lhs, rhs, *args):
        if name in bumps:
            rhs = linear_combination((1, rhs), (1, support.int_form(bumps[name])))
        return new_report(name, lhs, rhs, *args)

    def bumped_parent(name, lhs, rhs, sj):
        if name in bumps:
            rhs = rhs + truncated(bumps[name], trunc)
        return parent_report(name, lhs, rhs, sj)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators_module, "diagonal_report", bumped_new)
        mp.setattr(sys.modules[__name__], "operator_report", bumped_parent)
        new = verify_universal(sj, trunc, *recurrence_polys(p))
        return new, parent_verify_universal(sj, trunc)


@settings(deadline=None, max_examples=150)
@given(meixner_params(), st.integers(4, 24))
def test_universal_matches_finite_checker(p, degree):
    bound = p.support_bound
    if bound is not None:
        degree = min(degree, bound - 1)  # a Binomial law on fewer points: its full space
    new, parent = both_universal(p, degree)
    assert new == parent
    assert len(new) == 6 and all(report.passed for report in new)


@pytest.mark.parametrize("points", range(2, 31))
def test_universal_on_the_full_space_of_binomial_laws(points):
    # trunc = bound - 1: a+ keeps its top column, so every identity is
    # checked on every column of the truncation.
    p = MeixnerParams(F(1, 3), F(-1, 2), F(-5, 3) / (points - 1), F(5, 3))
    new, parent = both_universal(p, points - 1)
    assert new == parent
    assert [report.max_degree for report in new] == [points - 1] * 6


@settings(deadline=None, max_examples=100)
@given(_fracs(0, 3), _fracs(-2, 2), _fracs(F(1, 6), 3), st.integers(4, 24))
def test_universal_at_delta_zero(alpha, alpha0, t, degree):
    new, parent = both_universal(MeixnerParams(alpha, alpha0, alpha**2 / 4, t), degree)
    assert new == parent
    assert all(report.passed for report in new)


def test_universal_top_is_the_finite_reliable_degree():
    for degree in (4, 5, 12, 24, 48):
        for bound in (None, degree + 1, degree + 2, degree + 3):
            t = F(5, 3)
            beta = 0 if bound is None else -t / (bound - 1)
            p = MeixnerParams(F(1, 3), F(-1, 2), beta, t)
            assert p.support_bound == bound
            new, parent = both_universal(p, degree)
            assert new == parent, (degree, bound)
            top = degree if bound == degree + 1 else degree - 1
            tops = [top, degree, degree, top, degree, top]
            assert [report.max_degree for report in new] == tops, (degree, bound)


@pytest.mark.parametrize("identity", UNIVERSAL_PARTS)
@pytest.mark.parametrize(
    "bump, column",
    [
        ({0: Poly.of(F(1, 7))}, 0),
        ({-1: vanishing_below(3, F(-2, 5))}, 3),
        ({1: vanishing_below(2, 3)}, 2),
        ({-2: vanishing_below(4, F(1, 3)), 0: vanishing_below(2, 1),
          2: vanishing_below(2, -1)}, 2),
    ],
)
def test_universal_fails_like_the_finite_checker(identity, bump, column):
    # A bump in a reliable column: same fail_index, max_degree and residual.
    for p in BUMPED_LAWS:
        new, parent = both_universal(p, 8, {identity: bump})
        assert new == parent, p
        failed = [(report.name, report.fail_index) for report in new if not report.passed]
        if identity in UNIVERSAL_PARTS[:5]:
            assert failed == [(identity, column)], p
        else:
            assert failed == [("[N,X] = V - U = a+ - a-", column)], p
        assert all(report.residual is not None for report in new if not report.passed), p


def test_universal_reads_only_the_reliable_entries():
    # Column top + 1 is not reliable; a bump at column top in a row past the
    # truncation is not held by it.  Neither is compared.
    for p in BUMPED_LAWS:
        for identity in UNIVERSAL_PARTS:
            tops = {report.name: report.max_degree for report in both_universal(p, 8)[0]}
            top = tops.get(identity, tops["[N,X] = V - U = a+ - a-"])
            for bump in (
                {0: vanishing_below(top + 1, 5)},
                {-1: vanishing_below(top + 1, F(-1, 3))},
                {8 - top + 1: vanishing_below(top, 1)},
            ):
                new, parent = both_universal(p, 8, {identity: bump})
                assert new == parent, (p, identity, bump)
                assert all(report.passed for report in new), (p, identity, bump)
            # A failure in column top leaves the row past the truncation out of its residual.
            bump = {0: vanishing_below(top, 1), 8 - top + 1: vanishing_below(top, 1)}
            new, parent = both_universal(p, 8, {identity: bump})
            assert new == parent, (p, identity)
            assert [report.fail_index for report in new if not report.passed] == [top], p


def test_universal_combined_report_takes_the_failing_part():
    # [N,X] = V - U = a+ - a- reports its left part when that fails, else its
    # right part, whichever fails at the lower column.
    early, late = {0: vanishing_below(2, 1)}, {-1: vanishing_below(4, 1)}
    for p in BUMPED_LAWS:
        unbumped = both_universal(p, 8)[0]
        for left_bump, right_bump in ((early, late), (late, early)):
            left, parent = both_universal(p, 8, {"[N,X] = V - U": left_bump})
            assert left == parent and not left[5].passed, p
            right, parent = both_universal(p, 8, {"V - U = a+ - a-": right_bump})
            assert right == parent and not right[5].passed, p
            both, parent = both_universal(
                p, 8, {"[N,X] = V - U": left_bump, "V - U = a+ - a-": right_bump}
            )
            assert both == parent and both[5] == left[5] != right[5], p
            assert left[:5] == right[:5] == both[:5] == unbumped[:5], p
        assert [left[5].fail_index, right[5].fail_index] == [4, 2], p


# ------------------------------------------------------ polynomial diagonals
# The engine holds an operator on polynomial diagonals in one form: integer
# rows over one denominator, ``(den, {k: nums_k})``.  Its references are the
# kernels on ``{k: Poly}`` diagonals that form replaced, in ``Poly``
# arithmetic: the composition (A o B)_k(n) = sum A_ka(n + kb) B_kb(n) shifts
# by ``support.shifted``, and the report evaluates by ``support.evaluate``.


def parent_poly_diagonals(name, alpha, omega):
    half = alpha * F(1, 2)
    diags = {
        "U": {-1: omega, 0: half},
        "V": {0: half, 1: ONE},
        "N": {0: X},
        "a0": {0: alpha},
        "a-": {-1: omega},
        "a+": {1: ONE},
        "X": {-1: omega, 0: alpha, 1: ONE},
    }[name]
    return {k: d for k, d in diags.items() if d}


def parent_linear_combination(*terms):
    out = {}
    for c, op in terms:
        for k, d in op.items():
            out[k] = out.get(k, ZERO) + d * c
    return {k: d for k, d in out.items() if d}


def parent_diagonal_commutator(a, b):
    out = {}
    for left, right, sign in ((a, b, 1), (b, a, -1)):
        for kb, db in right.items():
            for ka, da in left.items():
                out[ka + kb] = out.get(ka + kb, ZERO) + support.shifted(da, kb) * db * sign
    return {k: d for k, d in out.items() if d}


def parent_diagonal_report(name, lhs, rhs, sj, trunc, top):
    residuals = {k: lhs.get(k, ZERO) - rhs.get(k, ZERO) for k in lhs.keys() | rhs.keys()}
    found = top + 1
    for k, r in residuals.items():
        if r:
            for n in range(max(0, -k), min(found, trunc + 1 - k)):
                if support.evaluate(r, n):
                    found = n
                    break
    if found > top:
        return VerifyReport(name, True, top)
    basis = monic_polys(sj, trunc)
    poly = ZERO
    for k, r in residuals.items():
        if 0 <= found + k <= trunc:
            poly = poly + support.evaluate(r, found) * basis[found + k]
    return VerifyReport(name, False, top, found, poly)


def assert_canonical(op):
    """den > 0, rows trimmed and nonempty, gcd(den, *entries) = 1."""
    den, rows = op
    assert den > 0
    assert all(row and row[-1] for row in rows.values())
    assert gcd(den, *(v for row in rows.values() for v in row)) == 1


@st.composite
def poly_ops(draw):
    """``{k: d_k}`` on grades -2 .. 2, zero diagonals included."""
    grades = draw(st.lists(st.integers(-2, 2), unique=True, max_size=4))
    return {k: Poly.of(*draw(st.lists(rats | st.just(F(0)), max_size=4))) for k in grades}


# alpha_n up to quadratic and omega_n = n (q0 + q1 n + q2 n^2), up to cubic,
# positive for n >= 1 when the q are nonnegative: most are no Meixner law.
alpha_polys = st.lists(rats, min_size=1, max_size=3).map(lambda v: Poly.of(*v))
omega_polys = st.lists(st.fractions(0, 3, max_denominator=5), min_size=3, max_size=3).map(
    lambda q: Poly.of(0, F(1, 2) + q[0], q[1], q[2])
)


@settings(deadline=None, max_examples=200)
@given(poly_ops(), poly_ops(), rats, rats, alpha_polys, omega_polys, st.sampled_from(OPS + ("X",)))
def test_integer_form_matches_poly_kernels(a, b, c, d, alpha, omega, name):
    ia, ib = support.int_form(a), support.int_form(b)
    x = poly_diagonals("X", alpha, omega)
    parent_x = parent_poly_diagonals("X", alpha, omega)
    cases = {
        "round trip": (ia, parent_linear_combination((1, a))),
        "poly_diagonals": (
            poly_diagonals(name, alpha, omega), parent_poly_diagonals(name, alpha, omega)
        ),
        "commutator": (diagonal_commutator(ia, ib), parent_diagonal_commutator(a, b)),
        "commutator with X": (diagonal_commutator(ia, x), parent_diagonal_commutator(a, parent_x)),
        "commutator with itself": (diagonal_commutator(ia, ia), parent_diagonal_commutator(a, a)),
        "combination": (
            linear_combination((c, ia), (d, ib), (1, x)),
            parent_linear_combination((c, a), (d, b), (1, parent_x)),
        ),
        "cancellation": (linear_combination((1, ia), (-1, ia)), {}),
        "zero coefficient": (linear_combination((0, ia)), {}),
    }
    for label, (new, reference) in cases.items():
        assert_canonical(new)
        assert support.poly_form(new) == reference, label
    assert diagonal_commutator(ia, ia) == (1, {})


@settings(deadline=None, max_examples=200)
@given(poly_ops(), poly_ops(), alpha_polys, omega_polys, st.integers(0, 8), st.data())
def test_integer_report_matches_poly_report(a, bump, alpha, omega, trunc, data):
    # rhs = a + bump: the report fails where bump first has a nonzero entry
    # inside the columns 0 .. top and the rows 0 .. trunc, or passes.
    top = data.draw(st.integers(0, trunc))
    sj = polynomial_recurrence(alpha, omega, trunc)
    rhs = parent_linear_combination((1, a), (1, bump))
    new = diagonal_report("r", support.int_form(a), support.int_form(rhs), sj, trunc, top)
    assert new == parent_diagonal_report("r", a, rhs, sj, trunc, top)


# ---------------------------------------------------------------- translation forms
# Before the translation forms became operator series: the form applied to a
# polynomial by summing its derivatives, weighted by Delta^(j // 2) / j!, and
# the check that applied the form and the closed form to every X^m.


def parent_translation_apply(expr, f):
    halves = [ZERO, ZERO]  # C f, S f
    weight = F(1)  # Delta^(j // 2) / j!
    j, deriv = 0, f
    while deriv:
        halves[j % 2] = halves[j % 2] + weight * deriv
        j += 1
        weight = weight * (expr.delta_squared if j % 2 == 0 else 1) / j
        deriv = deriv.derivative()
    return expr.even * halves[0] + expr.odd * halves[1] + expr.ident * f


def parent_check_against_series(p, name, action, max_degree):
    series = meixner_module.series_decomposition(p, name, max_degree)
    monomials = (support.monomial(m) for m in range(max_degree + 1))
    return sequence_report(
        f"{name} translation form",
        max_degree,
        ((m, action(xm), support.apply_expansion(series, xm)) for m, xm in enumerate(monomials)),
    )


@st.composite
def translation_params(draw):
    """Delta a rational square, Delta > 0 not a square, or Delta = 0."""
    alpha, alpha0 = draw(_fracs(0, 3)), draw(_fracs(-2, 2))
    kind = draw(st.sampled_from(["square", "surd", "zero"]))
    delta = F(0) if kind == "zero" else draw(_fracs(F(1, 6), 2)) ** 2
    if kind == "surd":
        delta *= draw(st.sampled_from([F(2), F(3), F(5, 3), F(1, 7), F(8, 3)]))
    beta = (alpha**2 - delta) / 4
    t = -beta * draw(st.integers(1, 6)) if beta < 0 else draw(_fracs(F(1, 6), 3))
    return MeixnerParams(alpha, alpha0, beta, t)


def _bumped(coeffs, index, bump):
    """``coeffs`` with ``bump`` added to A_index, as a series that admits any bump."""
    coeffs = list(coeffs) + [ZERO] * (index + 1 - len(coeffs))
    coeffs[index] = coeffs[index] + bump
    return PMDecomp(2, tuple(coeffs))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_translation_check_matches_action_reference(data):
    # The coefficient check against applying both expansions to X^0 .. X^max_degree,
    # with E, O or Z of a form, one coefficient of a form (or of a Delta = 0 limit
    # form) or one closed-form coefficient perturbed by a polynomial, maybe zero.
    p = data.draw(translation_params())
    name = data.draw(st.sampled_from(["U", "N", "a0", "a-"]))
    max_degree = data.draw(st.integers(0, 16))
    delta = p.delta
    targets = ["form", "series"] + (["even", "odd", "ident"] if delta else [])
    target = data.draw(st.sampled_from(targets))
    bump = Poly.of(*data.draw(st.lists(_fracs(-2, 2), min_size=1, max_size=3)))
    index = data.draw(st.integers(0, max_degree + 2))
    if delta:
        expr = translation_exprs(p)[name]
        if target in ("even", "odd", "ident"):
            expr = replace(expr, **{target: getattr(expr, target) + bump})
        coeffs = expr.series(max_degree)
        action = partial(parent_translation_apply, expr)
    else:
        limit = series_decomposition(p, name, {"U": 1}.get(name, 2))
        coeffs, action = limit.coeffs, partial(support.apply_expansion, limit)
    if target == "form":
        bumped = _bumped(coeffs, index, bump)
        coeffs, action = bumped.coeffs, partial(support.apply_expansion, bumped)
    original = meixner_module.series_decomposition

    def closed(p, op, order):
        series = original(p, op, order)
        return _bumped(series.coeffs, index, bump) if target == "series" else series

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(meixner_module, "series_decomposition", closed)
        report = meixner_module._check_against_series(p, name, coeffs, max_degree)
        assert report == parent_check_against_series(p, name, action, max_degree)
    if not bump or target in ("form", "series") and index > max_degree:
        assert report.passed


# ---------------------------------------------------------------- moments


def reference_moments_from_sj(sj, m_max):
    size = m_max + 1
    if sj.support_bound is not None:
        size = min(size, sj.support_bound)
    state = [F(0)] * size
    state[0] = F(1)
    out = [F(1)]
    for _ in range(m_max):
        nxt = [F(0)] * size
        for n, v in enumerate(state):
            if v == 0:
                continue
            nxt[n] += support.alpha(sj, n) * v
            if n + 1 < size:
                nxt[n + 1] += v
            if n >= 1:
                nxt[n - 1] += sj.omega(n) * v
        state = nxt
        out.append(state[0])
    return tuple(out)


def reference_gram_schmidt(mu, n_max):
    """Orthogonalize 1, X, X^2, ... as polynomials; (alphas, omegas, support_bound)."""
    polys = [ONE]
    norms = [F(1)]
    alphas, omegas = [], []
    for n in range(n_max):
        candidate = support.monomial(n + 1)
        projection = ZERO
        for k, f_k in enumerate(polys):
            projection = projection + (apply_functional(mu, candidate * f_k) / norms[k]) * f_k
        f_next = candidate - projection
        norm_next = apply_functional(mu, f_next * f_next)
        if norm_next < 0:
            raise DegenerateMoments(
                f"squared norm of degree-{n + 1} polynomial is negative: {norm_next}"
            )
        polys.append(f_next)
        alphas.append(apply_functional(mu, X * polys[n] * polys[n]) / norms[n])
        omegas.append(norm_next / norms[n])
        if norm_next == 0:
            return alphas, omegas, n + 1
        norms.append(norm_next)
    return alphas, omegas, None


def _recovered(mu, n_max):
    """The recovered coefficient lists, or the DegenerateMoments message."""
    try:
        rec = gram_schmidt_from_moments(mu, n_max)
    except DegenerateMoments as exc:
        return ("DegenerateMoments", str(exc))
    top = n_max if rec.support_bound is None else rec.support_bound
    alphas = [support.alpha(rec, n) for n in range(top)]
    omegas = [rec.omega(n) for n in range(1, top + 1)]
    for probe in (lambda: support.alpha(rec, top), lambda: rec.omega(top + 1)):
        with pytest.raises(IndexError):
            probe()
    return alphas, omegas, rec.support_bound


def _reference_recovered(mu, n_max):
    try:
        return reference_gram_schmidt(mu, n_max)
    except DegenerateMoments as exc:
        return ("DegenerateMoments", str(exc))


@st.composite
def signed_recurrences(draw, min_size=1, max_size=9):
    """Coefficient lists whose omegas may vanish (a finite support) or turn negative."""
    size = draw(st.integers(min_size, max_size))
    alphas = draw(st.lists(rats, min_size=size, max_size=size))
    omega = rats.filter(lambda w: w > 0) | st.just(F(0)) | rats
    omegas = draw(st.lists(omega, min_size=size, max_size=size))
    bound = draw(st.none() | st.integers(1, size))
    return support.recurrence(alphas, omegas, support_bound=bound), size


@settings(deadline=None, max_examples=150)
@given(signed_recurrences(max_size=17), st.integers(0, 17))
def test_moments_from_sj_matches_fraction_powers(case, m_max):
    sj, size = case
    m_max = min(m_max, size)  # the reference reads alpha_n and omega_n for n < m_max
    assert tuple(moments_from_sj(sj, m_max)) == reference_moments_from_sj(sj, m_max)


def test_moments_from_sj_reads_only_what_reaches_an_output():
    # E[X^4] needs alpha_0, alpha_1 and omega_1, omega_2: never alpha_2 or alpha_3.
    sj = support.recurrence([1, F(1, 3)], [F(1, 2), 5])
    assert tuple(moments_from_sj(sj, 4)) == reference_moments_from_sj(
        support.recurrence([1, F(1, 3), 7, 11], [F(1, 2), 5, 13]), 4
    )


def _over_scale(mu, factor):
    """The same moments over ``factor`` times the least common scale."""
    return MomentSeq(tuple(a * factor**m for m, a in enumerate(mu.nums)), mu.scale * factor)


# Gram-Schmidt reads the moments as integers over their scale: above the
# least one it must find the same recurrence, or raise the same message.
SCALE_FACTORS = st.sampled_from([1, 2, 3, 6])


@settings(deadline=None, max_examples=150)
@given(st.data(), st.integers(0, 6), SCALE_FACTORS)
def test_chebyshev_matches_polynomial_gram_schmidt(data, n_max, factor):
    sj, _ = data.draw(signed_recurrences(min_size=max(1, 2 * n_max), max_size=2 * n_max + 1))
    mu = _over_scale(support.moments(reference_moments_from_sj(sj, 2 * n_max)), factor)
    assert _recovered(mu, n_max) == _reference_recovered(mu, n_max)


@settings(deadline=None, max_examples=100)
@given(st.lists(rats, min_size=2, max_size=10), st.integers(0, 5), SCALE_FACTORS)
def test_chebyshev_matches_on_arbitrary_moments(tail, n_max, factor):
    # Mostly not moment sequences of a measure: DegenerateMoments with its message.
    mu = _over_scale(support.moments((F(1), *tail)), factor)
    n_max = min(n_max, len(tail) // 2)
    assert _recovered(mu, n_max) == _reference_recovered(mu, n_max)


def test_chebyshev_zero_norm_and_negative_norm_cases():
    for factor in (1, 6):
        coin = _over_scale(support.moments(reference_moments_from_sj(
            support.recurrence([0, 0, 0], [2, 2], support_bound=3), 12
        )), factor)
        assert _recovered(coin, 6) == ([0, 0, 0], [2, 2, 0], 3)
        bad = _over_scale(support.moments((F(1), F(0), F(-1), F(0), F(1))), factor)
        outcome = _recovered(bad, 2)
        assert outcome == (
            "DegenerateMoments", "squared norm of degree-1 polynomial is negative: -1"
        )
        assert outcome == _reference_recovered(bad, 2)


def reference_det(matrix):
    """Exact determinant by Gaussian elimination with pivot search."""
    rows = [list(row) for row in matrix]
    det = F(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            for c in range(col, len(rows)):
                rows[r][c] -= factor * rows[col][c]
    return det


def hankel_minors(p, k_max):
    """det(E[X^(i+j)])_{0<=i,j<=k} for k <= k_max, from ``moments_from_sj``."""
    mu = moments_from_sj(szego_jacobi(p), 2 * k_max)
    return [reference_det([[mu[i + j] for j in range(k + 1)] for i in range(k + 1)])
            for k in range(k_max + 1)]


def closed_form_minors(p, k_max):
    """det H_k = prod_{i<=k} prod_{1<=j<=i} omega_j: the product of the squared norms."""
    sj = szego_jacobi(p)
    minors, norm, det = [], F(1), F(1)
    for i in range(k_max + 1):
        norm *= sj.omega(i) if i else 1
        det *= norm
        minors.append(det)
    return minors


def test_hankel_minors_positive():
    # Pascal (Delta = 5) and Gaussian laws have infinite support.
    for p in (MeixnerParams(3, 1, 1, 2), MeixnerParams(0, 0, 0, 1)):
        minors = hankel_minors(p, 6)
        assert minors == closed_form_minors(p, 6)
        assert all(m > 0 for m in minors)


def test_hankel_minors_vanish_from_support_size():
    # A Binomial law on 4 points: omega_4 = 0, so det H_k = 0 exactly for k >= 4.
    p = MeixnerParams(1, 0, -1, 3)
    assert p.support_bound == 4
    minors = hankel_minors(p, 6)
    assert minors == closed_form_minors(p, 6)
    assert all(m > 0 for m in minors[:4]) and minors[4:] == [0, 0, 0]
    assert gram_schmidt_from_moments(moments_from_sj(szego_jacobi(p), 12), 6).support_bound == 4


# ---------------------------------------------------------- characterize


def reference_recursion(terms, m_max):
    mu = [F(1)]
    for m in range(1, m_max + 1):
        total = F(0)
        for c, d in terms:
            inner = F(0)
            for j in range(m):
                inner += comb(m - 1, j) * d ** (m - 1 - j) * mu[j]
            total += c * inner
        mu.append(total)
    return tuple(mu)


def reference_cumulants(terms, m_max):
    kappas = [F(0)]
    for m in range(2, m_max + 1):
        kappas.append(sum((c * d ** (m - 1) for c, d in terms), F(0)))
    return tuple(kappas[: max(m_max, 0)])


def reference_cumulant_moments(terms, m_max):
    kappas = reference_cumulants(terms, m_max)
    mu = [F(1)]
    for m in range(1, m_max + 1):
        mu.append(sum((comb(m - 1, j - 1) * kappas[j - 1] * mu[m - j] for j in range(1, m + 1)),
                      F(0)))
    return tuple(mu)


def reference_laplace(terms, m_max):
    log_coeffs = [F(0), F(0)]
    for j in range(2, m_max + 1):
        log_coeffs.append(sum((c * d ** (j - 1) for c, d in terms), F(0)) / factorial(j))
    phi = [F(1)]
    for m in range(1, m_max + 1):
        phi.append(sum((j * log_coeffs[j] * phi[m - j] for j in range(1, m + 1)), F(0)) / m)
    source = [sum((c * d**j for c, d in terms), F(0)) / factorial(j) for j in range(m_max)]
    for m in range(m_max):
        assert (m + 1) * phi[m + 1] == sum(phi[m - j] * source[j] for j in range(m + 1))
    return tuple(factorial(m) * phi[m] for m in range(m_max + 1))


def reference_bound_cert(terms, mu):
    m_max = len(mu) - 1
    a_const = F(1)
    for _, d in terms:
        a_const = max(a_const, _max_power_over_factorial(abs(d)))
    k = max(a_const * sum((abs(c) for c, _ in terms), F(0)), F(1))
    passed = all(abs(mu[m]) <= k**m * factorial(m) for m in range(m_max + 1))
    even = all(mu[2 * m] <= (2 * k) ** (2 * m) * factorial(2 * m) for m in range(m_max // 2 + 1))
    return a_const, k, m_max, passed, even


def reference_max_power_over_factorial(r):
    """The Fraction loop the certificate used: every r^p / p! for p <= ceil(r) + 1."""
    if r < 0:
        raise ValueError("expected a nonnegative value")
    ceiling = -((-r.numerator) // r.denominator)
    best = F(1)
    for p in range(ceiling + 2):
        value = r**p / factorial(p)
        if value > best:
            best = value
    return best


@st.composite
def power_ratios(draw):
    """r = p/q with 0 <= p <= 10^6 and 1 <= q <= 10^6, and r <= 64 so that
    the reference loop stays short."""
    q = draw(st.integers(1, 10**6))
    return F(draw(st.integers(0, min(10**6, 64 * q))), q)


@settings(deadline=None, max_examples=200)
@given(power_ratios())
def test_max_power_over_factorial_matches_fraction_loop(r):
    assert _max_power_over_factorial(r) == reference_max_power_over_factorial(r)


def test_max_power_over_factorial_at_integer_ties():
    # At an integer r, r^(r-1)/(r-1)! and r^r/r! are equal.
    for r in range(41):
        value = _max_power_over_factorial(F(r))
        assert value == reference_max_power_over_factorial(F(r))
        if r:
            assert value == F(r ** (r - 1), factorial(r - 1)) == F(r**r, factorial(r))
    with pytest.raises(ValueError):
        _max_power_over_factorial(F(-1, 2))


shift_rats = st.builds(F, st.integers(-12, 12).filter(bool), st.sampled_from([1, 2, 3, 4, 5, 7]))
mean_rats = st.builds(F, st.integers(1, 12), st.sampled_from([1, 2, 3, 5, 6]))


@st.composite
def valid_combos(draw):
    """Positive means on distinct nonzero shifts, balanced by a zero-shift
    term or, when the signs allow it, by one more nonzero shift."""
    pairs = draw(st.lists(st.tuples(mean_rats, shift_rats), min_size=1, max_size=4,
                          unique_by=lambda t: t[1]))
    terms = [(lam * d, d) for lam, d in pairs]
    balance = -sum(c for c, _ in terms)
    if balance != 0:
        magnitude = draw(st.builds(F, st.integers(1, 12), st.sampled_from([1, 2, 3, 5])))
        last = magnitude if balance > 0 else -magnitude
        if draw(st.booleans()) and last not in [d for _, d in terms]:
            terms.append((balance, last))
        else:
            terms.append((balance, F(0)))
    order = draw(st.permutations(range(len(terms))))
    return TranslationCombo(tuple(terms[i] for i in order))


def reference_violations(combo):
    """Every broken rule as (error class, message): the sum, the duplicate
    shifts, then each term in order, all read on the Fractions."""
    terms = combo.terms
    violations = []
    total = sum((c for c, _ in terms), F(0))
    if total:
        violations.append((SumNotZero, f"coefficients sum to {format_rat(total)}, not 0"))
    shifts = [d for _, d in terms]
    if len(set(shifts)) != len(shifts):
        violations.append((DuplicateShift, "shifts must be pairwise distinct"))
    for c, d in terms:
        if d and c / d <= 0:
            violations.append((
                NegativeMean,
                f"term {format_rat(c)}:{format_rat(d)} would give a nonpositive Poisson mean",
            ))
        if not d and not c:
            violations.append((ZeroCoefficient, "useless zero term at shift 0"))
    return violations


small_rats = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def rule_breaking_combos(draw):
    """Terms on a few small values, often with a zero coefficient, so that zero
    terms, duplicate shifts, wrong signs and zero coefficients on nonzero
    shifts turn up in any order; half are balanced by one more term, so that
    the rules after the sum are reached."""
    zero = st.just(F(0))
    term = st.tuples(small_rats, small_rats) | st.tuples(zero, small_rats | zero)
    terms = draw(st.lists(term, min_size=1, max_size=5))
    if draw(st.booleans()):
        balance = (-sum(c for c, _ in terms), draw(small_rats))
        terms.insert(draw(st.integers(0, len(terms))), balance)
    return TranslationCombo(tuple(terms))


@settings(deadline=None, max_examples=400)
@given(rule_breaking_combos() | valid_combos())
@example(TranslationCombo.parse("0:0,-1:1,1:-1"))
@example(TranslationCombo.parse("-1:1,1:-1,0:0"))
def test_ensure_valid_raises_the_first_reference_violation(combo):
    violations = reference_violations(combo)
    if not violations:
        means = tuple((c / d, d) for c, d in combo.terms if d)
        assert ensure_valid(combo).poisson_terms == means
        return
    with pytest.raises(InvalidCombo) as info:
        ensure_valid(combo)
    assert (type(info.value), str(info.value)) == violations[0]


def test_ensure_valid_reads_the_terms_in_order():
    # A zero term before a nonpositive mean raises first, and after it does not.
    for text, error, message in (
        ("0:0,-1:1,1:-1", ZeroCoefficient, "useless zero term at shift 0"),
        ("-1:1,1:-1,0:0", NegativeMean, "term -1:1 would give a nonpositive Poisson mean"),
    ):
        combo = TranslationCombo.parse(text)
        assert reference_violations(combo)[0] == (error, message)
        with pytest.raises(error) as info:
            ensure_valid(combo)
        assert type(info.value) is error and str(info.value) == message


@settings(deadline=None, max_examples=120)
@given(valid_combos(), st.integers(0, 24))
def test_characterize_routes_match_fraction_recurrences(combo, m_max):
    terms = combo.terms
    valid = ensure_valid(combo)
    recursion = moments_via_recursion(valid, m_max)
    assert tuple(recursion) == reference_recursion(terms, m_max)
    assert tuple(moments_via_cumulants(valid, m_max)) == reference_cumulant_moments(terms, m_max)
    assert tuple(laplace_series(valid, m_max)) == reference_laplace(terms, m_max)
    cert = bound_cert(valid, recursion)
    assert (cert.a_const, cert.k, cert.checked_up_to, cert.passed, cert.even_passed) == (
        reference_bound_cert(terms, reference_recursion(terms, m_max))
    )


@settings(deadline=None, max_examples=100)
@given(valid_combos(), st.lists(st.integers(-(10**12), 10**12) | rats, max_size=12))
def test_bound_cert_matches_reference_on_any_moments(combo, tail):
    # Moments that are not the combination's, so either bound can fail.
    mu = support.moments((F(1), *tail))
    cert = bound_cert(ensure_valid(combo), mu)
    assert (cert.a_const, cert.k, cert.checked_up_to, cert.passed, cert.even_passed) == (
        reference_bound_cert(combo.terms, tuple(mu))
    )


# ----------------------------------------------------------- classify


def reference_affine_moments(raw, scale, shift, m_max):
    """E[(scale*Y + shift)^m] from the raw moments of Y, any exact scalar type."""
    scaled = [sp * r for sp, r in zip(powers(scale, m_max), raw)]  # scale^j E[Y^j]
    shifts = powers(shift, m_max)
    out = []
    for m in range(m_max + 1):
        acc = raw[0] * 0
        for j in range(m + 1):
            acc = acc + comb(m, j) * scaled[j] * shifts[m - j]
        out.append(acc)
    return out


def reference_rising_powers(x, m_max, ratio=F(1)):
    """x^(rising k) * ratio^k for k = 0 .. m_max, as running products."""
    out = [F(1)]
    for i in range(m_max):
        out.append(out[-1] * (x + i) * ratio)
    return out


def reference_stirling2(m_max):
    table = [[1] + [0] * m_max]
    for m in range(1, m_max + 1):
        row = [0] * (m_max + 1)
        for k in range(1, m + 1):
            row[k] = k * table[m - 1][k] + table[m - 1][k - 1]
        table.append(row)
    return table


def reference_poisson_raw(rate, m_max):
    """E[Y^(m+1)] = rate * sum_j C(m, j) E[Y^j] for Y ~ Poisson(rate)."""
    raw = [F(1)]
    for m in range(m_max):
        raw.append(rate * sum(comb(m, j) * raw[j] for j in range(m + 1)))
    return raw


def reference_binomial(cls, m_max):
    """Both branches by a walk over the n + 1 support points, in ``Surd`` arithmetic."""
    per_branch = []
    for branch in cls.branches:
        p = Surd.of(branch.p)
        successes = powers(p, cls.n)
        failures = powers(1 - p, cls.n)
        weights = [comb(cls.n, y) * successes[y] * failures[cls.n - y] for y in range(cls.n + 1)]
        raw = [
            sum((weights[y] * y**m for y in range(cls.n + 1)), Surd.of(0))
            for m in range(m_max + 1)
        ]
        scale, shift = Surd.of(branch.scale), Surd.of(branch.shift)
        moments = reference_affine_moments(raw, scale, shift, m_max)
        for m, value in enumerate(moments):
            if value.b:
                raise ArithmeticError(f"surd part of E[X^{m}] failed to cancel")
        per_branch.append([value.a for value in moments])
    if per_branch[0] != per_branch[1]:
        raise ArithmeticError("the two binomial branches disagree; they must describe one law")
    return per_branch[0]


def reference_distribution_moments(cls, m_max):
    if isinstance(cls, Gaussian):
        central = [
            F(0) if m % 2 else cls.variance ** (m // 2) * prod(range(1, m, 2))
            for m in range(m_max + 1)
        ]
        return reference_affine_moments(central, F(1), cls.mean, m_max)
    if isinstance(cls, Poisson):
        raw = reference_poisson_raw(cls.rate, m_max)
        return reference_affine_moments(raw, cls.scale, cls.shift, m_max)
    if isinstance(cls, Gamma):
        raw = reference_rising_powers(cls.shape, m_max)
        return reference_affine_moments(raw, cls.scale, cls.shift, m_max)
    if isinstance(cls, Pascal):
        if not (cls.scale.is_rational and cls.p.is_rational and cls.shift.is_rational):
            raise Unsupported("pascal moments need a rational scale; the radicand is not a square")
        p = cls.p.as_rational()
        factorial_moments = reference_rising_powers(cls.r, m_max, (1 - p) / p)
        stirling = reference_stirling2(m_max)
        raw = [
            sum((stirling[m][k] * factorial_moments[k] for k in range(m + 1)), F(0))
            for m in range(m_max + 1)
        ]
        return reference_affine_moments(
            raw, cls.scale.as_rational(), cls.shift.as_rational(), m_max
        )
    if isinstance(cls, Binomial):
        return reference_binomial(cls, m_max)
    raise Unsupported("no exact moment oracle for the hyperbolic secant class")


@dataclass(frozen=True)
class Surd:
    """a + b*sqrt(s) on Fractions: the oracles' arithmetic in one extension Q(sqrt(s)).

    A rational takes the radicand of the number it meets; two irrational
    operands must share theirs.  It reads a ``Quadratic`` only through its
    a, b and s, and shares no code with ``surd``.
    """

    a: F
    b: F = F(0)
    s: F = F(0)

    @staticmethod
    def of(x):
        """A ``Quadratic`` (read through its a, b and s), a ``Surd`` or a rational."""
        return Surd(x.a, x.b, x.s) if isinstance(x, (Quadratic, Surd)) else Surd(F(x))

    def _join(self, y):
        assert not (self.s and y.s) or self.s == y.s, (self.s, y.s)
        return self.s or y.s

    def __add__(self, other):
        y = Surd.of(other)
        return Surd(self.a + y.a, self.b + y.b, self._join(y))

    def __neg__(self):
        return Surd(-self.a, -self.b, self.s)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        y = Surd.of(other)
        s = self._join(y)
        return Surd(self.a * y.a + self.b * y.b * s, self.a * y.b + self.b * y.a, s)

    __rmul__ = __mul__

    def quadratic(self):
        return Quadratic(self.a, self.b, self.s)


# Perfect squares fold into the rational part; the others stay symbolic.
RADICANDS = [F(0), F(1), F(4), F(9, 4), F(2), F(3, 5), F(7)]


@st.composite
def quadratics(draw, radicand):
    return Quadratic(draw(rats), draw(rats | st.just(F(0))), radicand)


def _fields(q):
    return (q.a, q.b, q.s)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_quadratic_results_are_normalized(data):
    s = data.draw(st.sampled_from(RADICANDS))
    x = data.draw(quadratics(s))
    scalar = data.draw(rats | st.integers(-5, 5))
    scaled = Quadratic(x.a * scalar, x.b * scalar, x.s)
    assert _fields(x * scalar) == _fields(scaled)
    assert _fields(scalar * x) == _fields(scaled)
    assert _fields(-x) == _fields(Quadratic(-x.a, -x.b, x.s))


def test_perfect_square_radicands_fold_to_rationals():
    assert _fields(Quadratic(1, 2, F(9, 4))) == (4, 0, 0)
    assert _fields(Quadratic.sqrt(F(9, 4))) == (F(3, 2), 0, 0)
    assert Quadratic.sqrt(4) == Quadratic(2)


def _pairs_over_common_q(values, s):
    """Numbers in Q(sqrt(s)) as (numerator pairs over q^j, q), sqrt(s) = sqrt(R) / s.den."""
    parts = [(v.a, v.b / s.denominator) for v in values]
    q = lcm(*(x.denominator for part in parts for x in part))
    return [(int(a * q**j), int(c * q**j)) for j, (a, c) in enumerate(parts)], q


def _outcome_of(fn, *args):
    """The result as a list, or the type and message of the exception it raised."""
    try:
        return list(fn(*args))
    except (ArithmeticError, Unsupported) as exc:
        return (type(exc).__name__, str(exc))


def _reference_affine_outcome(raw, scale, shift, m_max):
    moments = reference_affine_moments(raw, scale, shift, m_max)
    for m, value in enumerate(moments):
        if value.b:
            return ("ArithmeticError", f"surd part of E[X^{m}] failed to cancel")
    return [value.a for value in moments]


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_affine_moments_match_termwise_powers(data):
    # The integer-pair kernel against Surd arithmetic on the same numbers:
    # equal where every surd part cancels, the same error where one does not.
    m_max = data.draw(st.integers(0, 12))
    s = data.draw(st.sampled_from(RADICANDS))
    rational = data.draw(st.booleans())
    raw = [Surd.of(1)] + [
        Surd.of(data.draw(rats) if rational else data.draw(quadratics(s)))
        for _ in range(m_max)
    ]
    scale, shift = data.draw(quadratics(s)), data.draw(quadratics(s))
    if rational:
        scale, shift = Quadratic(scale.a), Quadratic(shift.a)
    pairs, q = _pairs_over_common_q(raw, s)
    assert _outcome_of(_affine_moments, pairs, q, scale, shift, m_max) == (
        _reference_affine_outcome(raw, Surd.of(scale), Surd.of(shift), m_max)
    )


def test_affine_moments_read_the_radicand_of_either_operand():
    # X = Y + sqrt(2) with E[Y] = -sqrt(2) and E[Y^2] = 3: E[X] = 0, E[X^2] = 3 - 4 + 2.
    raw = [(1, 0), (0, -1), (3, 0)]
    assert list(_affine_moments(raw, 1, Quadratic(1), Quadratic.sqrt(2), 2)) == [1, 0, 1]


# Radicands of sqrt(Delta): 1, 4 and 9/4 fold to rationals; 2, 3/5 and 7 do not.
LAW_RADICANDS = [F(1), F(4), F(9, 4), F(2), F(3, 5), F(7)]
positive_rats = st.builds(F, st.integers(1, 40), st.sampled_from([1, 2, 3, 5, 7, 9, 12]))


@st.composite
def supported_params(draw):
    """Parameters of every class with an oracle; Delta = s * c^2 for the beta != 0 ones."""
    kind = draw(st.sampled_from(["Gaussian", "Poisson", "Gamma", "Pascal", "Binomial"]))
    alpha0, t, c = draw(rats), draw(positive_rats), draw(positive_rats)
    if kind == "Gaussian":
        return MeixnerParams(0, alpha0, 0, t)
    if kind == "Poisson":
        return MeixnerParams(c, alpha0, 0, t)
    if kind == "Gamma":
        return MeixnerParams(c, alpha0, c**2 / 4, t)
    delta = draw(st.sampled_from(LAW_RADICANDS)) * c**2
    if kind == "Pascal":  # alpha^2 > Delta > 0, so beta > 0
        alpha = c * draw(st.builds(F, st.integers(12, 20), st.just(4)))
        return MeixnerParams(alpha, alpha0, (alpha**2 - delta) / 4, t)
    # Binomial: 0 <= alpha^2 < Delta and t = n (Delta - alpha^2) / 4, so t / -beta = n.
    n = draw(st.integers(1, 40))
    alpha = c * draw(st.builds(F, st.integers(0, 3), st.just(4)))
    t = n * (delta - alpha**2) / 4
    return MeixnerParams(alpha, alpha0, -t / n, t)


@settings(deadline=None, max_examples=150)
@given(supported_params(), st.integers(0, 30))
def test_distribution_moments_match_reference(p, m_max):
    cls = classify(p)
    new = _outcome_of(distribution_moments, cls, m_max)
    assert new == _outcome_of(reference_distribution_moments, cls, m_max)
    if isinstance(new, list):  # irrational Pascal laws are the only unsupported draws
        assert new == list(moments_from_sj(szego_jacobi(p), m_max))
    else:
        assert isinstance(cls, Pascal) and not cls.scale.is_rational


@pytest.mark.parametrize("beta", [F(-1, 3), F(-1, 2), F(-1, 7)])
def test_binomial_tampered_branches_raise_like_the_walk(beta):
    cls = classify(MeixnerParams(1, F(1, 3), beta, 1))
    plus, minus = cls.branches
    # A rational shift moves one branch to another law: the branches disagree.
    moved_shift = (Surd.of(minus.shift) + 1).quadratic()
    moved = replace(cls, branches=(plus, replace(minus, shift=moved_shift)))
    # A surd added to a shift leaves E[X] irrational.
    surd_shift = (Surd.of(plus.shift) + plus.scale).quadratic()
    surd = replace(cls, branches=(replace(plus, shift=surd_shift), minus))
    for tampered, message in [
        (moved, "the two binomial branches disagree; they must describe one law"),
        (surd, "surd part of E[X^1] failed to cancel"),
    ]:
        for fn in (distribution_moments, reference_distribution_moments):
            with pytest.raises(ArithmeticError) as exc:
                fn(tampered, 6)
            assert str(exc.value) == message


def test_unsupported_messages_are_unchanged():
    cases = [
        (
            MeixnerParams(3, 0, 1, 1),  # Delta = 5
            "pascal moments need a rational scale; the radicand is not a square",
        ),
        (MeixnerParams(0, 0, 1, 1), "no exact moment oracle for the hyperbolic secant class"),
    ]
    for p, message in cases:
        with pytest.raises(Unsupported) as exc:
            distribution_moments(classify(p), 4)
        assert str(exc.value) == message


# ---------------------------------------------------------------- polynomials
# ``Poly`` holds integers over one denominator; the reference is the list of
# reduced Fraction coefficients it replaced, with the same trimming.


def _ref_trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def reference_poly_add(a, b):
    size = max(len(a), len(b))
    a, b = list(a) + [F(0)] * (size - len(a)), list(b) + [F(0)] * (size - len(b))
    return _ref_trim(x + y for x, y in zip(a, b))


def reference_poly_mul(a, b):
    out = [F(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def reference_poly_derivative(a, order):
    for _ in range(order):
        a = _ref_trim(a[i] * i for i in range(1, len(a)))
    return a


def reference_poly_shift(a, c):
    acc = ()
    for x in reversed(a):
        acc = reference_poly_add(reference_poly_mul(acc, (c, F(1))), (x,))
    return acc


def reference_poly_call(a, x):
    acc = F(0)
    for v in reversed(a):
        acc = acc * x + v
    return acc


def reference_poly_str(a):
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            lead = "" if mag == 1 else f"{mag}*"
            body = f"{lead}X" if i == 1 else f"{lead}X^{i}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


poly_values = st.lists(rats | st.just(F(0)), max_size=7)


@settings(deadline=None, max_examples=200)
@given(poly_values, poly_values, rats, st.integers(-5, 5), st.integers(0, 3))
def test_integer_poly_matches_fraction_lists(a, b, c, k, order):
    ra, rb = _ref_trim(a), _ref_trim(b)
    pa, pb = Poly.of(*a), Poly.of(*b)
    assert pa.coeffs == ra
    assert [pa.coeff(i) for i in range(-1, len(ra) + 1)] == [F(0), *ra, F(0)]
    assert (pa + pb).coeffs == (pb + pa).coeffs == reference_poly_add(ra, rb)
    assert (pa - pb).coeffs == reference_poly_add(ra, tuple(-v for v in rb))
    assert (-pa).coeffs == tuple(-v for v in ra)
    assert (pa + c).coeffs == (c + pa).coeffs == reference_poly_add(ra, (c,))
    assert (pa - c).coeffs == reference_poly_add(ra, (-c,))
    assert (-pa + c).coeffs == reference_poly_add((c,), tuple(-v for v in ra))
    assert (pa * pb).coeffs == reference_poly_mul(ra, rb)
    assert (pa * c).coeffs == (c * pa).coeffs == reference_poly_mul(ra, (c,))
    assert (k * pa).coeffs == reference_poly_mul(ra, (F(k),))
    assert pa.derivative(order).coeffs == reference_poly_derivative(ra, order)
    assert support.shifted(pa, c).coeffs == reference_poly_shift(ra, c)
    assert support.shifted(pa, k).coeffs == reference_poly_shift(ra, F(k))
    assert support.evaluate(pa, c) == reference_poly_call(ra, c)
    assert support.evaluate(pa, k) == reference_poly_call(ra, F(k))
    assert pa.to_json() == [str(v) for v in ra]
    assert str(pa) == reference_poly_str(ra)


@settings(deadline=None, max_examples=150)
@given(poly_values, poly_values, st.integers(1, 10**6), st.sampled_from([1, -1]))
def test_equal_polys_have_equal_fields_and_hashes(a, b, factor, sign):
    pa, pb = Poly.of(*a), Poly.of(*b)
    assert pa.den > 0 and gcd(pa.den, *pa.nums) == 1 and (not pa.nums or pa.nums[-1])
    assert pa.coeffs == _ref_trim(a)
    same = [
        Poly([v * factor * sign for v in pa.nums] + [0, 0], pa.den * factor * sign),
        (pa + pb) - pb,
        pa * Poly.of(F(factor, 7)) * F(7, factor),
        support.shifted(support.shifted(pa, F(factor, 3)), F(-factor, 3)),
        Poly.of(*pa.coeffs),
    ]
    for q in same:
        assert q == pa
        assert (q.nums, q.den) == (pa.nums, pa.den)
        assert hash(q) == hash(pa)


def test_poly_takes_integers_over_a_nonzero_denominator():
    assert Poly((0, 0)) == Poly() == Poly((), 5) and Poly().den == 1
    with pytest.raises(TypeError):
        Poly((F(1, 2),))
    with pytest.raises(ZeroDivisionError):
        Poly((1,), 0)
    # Rendering writes integers past the digits str() allows for an int.
    big = F(10**5000 + 1, 3**9000)
    text = f"{Decimal(big.numerator)}/{Decimal(big.denominator)}"
    assert Poly.of(0, big).to_json() == ["0", text]
    assert str(Poly.of(-big)) == f"-{text}"


# ------------------------------------------------------ parent moment kernels
# The integer moment kernels as they were before each step became a big
# integer times (or over) a small one.  The current kernels must return the
# same integers over the same scale.


def parent_moments_via_recursion(combo, m_max):
    q, s, terms = _scaled_terms(combo)
    falling = [(c, powers(e, m_max)[::-1]) for c, e in terms]
    nu = [1]
    for m in range(1, m_max + 1):
        weighted = [comb(m - 1, j) * v for j, v in enumerate(nu)]
        total = 0
        for c, pw in falling:
            total += c * sum(w * p for w, p in zip(weighted, pw[m_max - m + 1 :]))
        nu.append(s * total)
    return MomentSeq(tuple(nu), q * s)


def parent_laplace_series(combo, m_max):
    z, source = _power_sums(ensure_valid(combo), m_max)
    log_scaled = [0, 0] + source[1:m_max]
    facts = [factorial(j) for j in range(m_max + 1)]
    psi = [facts[m_max]]
    for m in range(1, m_max + 1):
        acc = sum(log_scaled[j] * (psi[m - j] // facts[j - 1]) for j in range(2, m + 1))
        psi.append(acc // m)
    for m in range(m_max):
        derivative_coeff = (m + 1) * psi[m + 1]
        product_coeff = sum(source[j] * (psi[m - j] // facts[j]) for j in range(m + 1))
        if derivative_coeff != product_coeff:
            raise ArithmeticError(
                f"formal transform identity failed at order {m}; series is inconsistent"
            )
    return MomentSeq(tuple(v * facts[m] // facts[m_max] for m, v in enumerate(psi)), z)


def parent_from_factorial(factorial_moments, q, m_max):
    qs = powers(q, m_max)
    out, row = [], [1]
    for j in range(m_max + 1):
        if j:
            row = [0, *(k * row[k] + row[k - 1] for k in range(1, j)), 1]
        w = [c * qs[j - k] for k, c in enumerate(row)]
        out.append((sum(c * f[0] for c, f in zip(w, factorial_moments)),
                    sum(c * f[1] for c, f in zip(w, factorial_moments))))
    return out


def parent_pair(x, s):
    """x = a + b*sqrt(s) as integers (A, B, d): x = (A + B*sqrt(R)) / d, R = s.num * s.den."""
    a, c = x.a, x.b / s.denominator
    d = lcm(a.denominator, c.denominator)
    return a.numerator * (d // a.denominator), c.numerator * (d // c.denominator), d


def parent_affine_moments(raw, q, scale, shift, m_max):
    s = scale.s or shift.s  # an operand's radicand; R is unused when both are rational
    r = s.numerator * s.denominator
    sa, sb, sd = parent_pair(scale, s)
    ha, hb, hd = parent_pair(shift, s)
    left = [_mul(x, y, r) for x, y in zip(_products([(sa * hd, sb * hd)] * m_max, r), raw)]
    right = _products([(ha * sd * q, hb * sd * q)] * m_max, r)
    out = []
    for m in range(m_max + 1):
        a = b = 0
        for j in range(m + 1):
            (la, lb), (ra, rb), c = left[j], right[m - j], comb(m, j)
            a += c * (la * ra + r * lb * rb)
            b += c * (la * rb + lb * ra)
        if b:
            raise ArithmeticError(f"surd part of E[X^{m}] failed to cancel")
        out.append(a)
    return MomentSeq(tuple(out), sd * q * hd)


def parent_gram_schmidt(mu, n_max):
    top = 2 * n_max
    scales = powers(mu.scale, top)
    row, row_den = [mu.nums[l] * scales[top - l] for l in range(top + 1)], scales[top]
    prev, prev_den = [0] * (top + 2), 1
    alphas, omegas = [], []
    omega = F(0)
    for n in range(n_max):
        alpha = F(row[n + 1], row[n])
        if n:
            alpha -= F(prev[n], prev[n - 1])
        p, q = alpha.numerator, alpha.denominator
        u, v = omega.numerator, omega.denominator
        lead, mid, back = q * v * prev_den, p * v * prev_den, u * q * row_den
        nxt = [0] * (top - n)
        for l in range(n + 1, top - n):
            nxt[l] = lead * row[l + 1] - mid * row[l] - back * prev[l]
        nxt_den = q * v * row_den * prev_den
        common = gcd(nxt_den, *nxt)
        nxt = [c // common for c in nxt]
        nxt_den //= common
        if nxt[n + 1] < 0:
            raise DegenerateMoments(
                f"squared norm of degree-{n + 1} polynomial is negative: "
                f"{F(nxt[n + 1], nxt_den)}"
            )
        omega = F(nxt[n + 1] * row_den, nxt_den * row[n])
        alphas.append(alpha)
        omegas.append(omega)
        if omega == 0:
            return support.recurrence(alphas, omegas, support_bound=n + 1)
        prev, prev_den, row, row_den = row, row_den, nxt, nxt_den
    return support.recurrence(alphas, omegas, support_bound=None)


def _seq_fields(fn, *args):
    """``(nums, scale)`` of the returned sequence, or the type and message of its error."""
    try:
        mu = fn(*args)
    except (ArithmeticError, Unsupported) as exc:
        return (type(exc).__name__, str(exc))
    return mu.nums, mu.scale


@settings(deadline=None, max_examples=150)
@given(valid_combos(), st.integers(0, 60))
def test_characterize_kernels_match_parent_kernels(combo, m_max):
    # 2 to 5 terms, with and without a zero shift.
    valid = ensure_valid(combo)
    assert _seq_fields(moments_via_recursion, valid, m_max) == _seq_fields(
        parent_moments_via_recursion, combo, m_max
    )
    assert _seq_fields(laplace_series, valid, m_max) == _seq_fields(
        parent_laplace_series, combo, m_max
    )


def parent_moments_via_cumulants(combo, m_max):
    z, sums = _power_sums(ensure_valid(combo), max(m_max - 1, 0))
    kappas = [0] + sums[1:]
    nu = [1]
    for m in range(1, m_max + 1):
        nu.append(sum(comb(m - 1, j) * kappas[j] * nu[m - 1 - j] for j in range(m)))
    return MomentSeq(tuple(nu), z)


@settings(deadline=None, max_examples=150)
@given(valid_combos(), st.integers(0, 60))
def test_cumulant_kernel_matches_parent_kernel(combo, m_max):
    # A route leaves the verdict as it found it: a longer Laplace series run
    # first changes neither route's result.
    expected = _seq_fields(parent_moments_via_cumulants, combo, m_max)
    verdict = ensure_valid(combo)
    assert _seq_fields(moments_via_cumulants, verdict, m_max) == expected
    laplace_series(verdict, m_max + 3)
    assert _seq_fields(moments_via_cumulants, verdict, m_max) == expected
    assert _seq_fields(laplace_series, verdict, m_max) == _seq_fields(
        parent_laplace_series, combo, m_max
    )


def _parent_distribution_moments(cls, m_max):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify_module, "_from_factorial", parent_from_factorial)
        patch.setattr(classify_module, "_affine_moments", parent_affine_moments)
        return _seq_fields(distribution_moments, cls, m_max)


@settings(deadline=None, max_examples=150)
@given(supported_params() | meixner_params(), st.integers(0, 60))
def test_classify_oracles_match_parent_kernels(p, m_max):
    # All six classes; Binomial laws on up to 41 points, with rational and irrational p.
    cls = classify(p)
    assert _seq_fields(distribution_moments, cls, m_max) == _parent_distribution_moments(
        cls, m_max
    )


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_affine_moments_match_parent_on_any_pairs(data):
    # Integer pairs that are not the moments of a law: the surd part mostly
    # fails to cancel, and both kernels must name the same order.
    m_max = data.draw(st.integers(0, 12))
    s = data.draw(st.sampled_from(RADICANDS))
    q = data.draw(st.integers(1, 12))
    ints = st.integers(-50, 50)
    raw = [(1, 0)] + [
        (data.draw(ints), data.draw(st.sampled_from([0, 0, 1, -3])) * data.draw(ints))
        for _ in range(m_max)
    ]
    scale, shift = data.draw(quadratics(s)), data.draw(quadratics(s))
    args = (raw, q, scale, shift, m_max)
    assert _seq_fields(_affine_moments, *args) == _seq_fields(parent_affine_moments, *args)
    # The same pairs read as factorial moments.
    assert classify_module._from_factorial(raw, q, m_max) == parent_from_factorial(raw, q, m_max)


def _recurrence_fields(fn, mu, n_max):
    """(shifts, links, scale, support_bound) of the recovered recurrence, or the error."""
    try:
        rec = fn(mu, n_max)
    except DegenerateMoments as exc:
        return str(exc)
    top = n_max if rec.support_bound is None else rec.support_bound
    return (
        [rec.shift(n) for n in range(top)],
        [rec.link(n) for n in range(top + 1)],
        rec.scale,
        rec.support_bound,
    )


@settings(deadline=None, max_examples=150)
@given(st.data(), st.integers(0, 8), SCALE_FACTORS)
def test_chebyshev_matches_parent_kernel(data, n_max, factor):
    # Finite supports, vanishing and negative squared norms.
    sj, _ = data.draw(signed_recurrences(min_size=max(1, 2 * n_max), max_size=2 * n_max + 1))
    mu = _over_scale(support.moments(reference_moments_from_sj(sj, 2 * n_max)), factor)
    assert _recurrence_fields(gram_schmidt_from_moments, mu, n_max) == _recurrence_fields(
        parent_gram_schmidt, mu, n_max
    )


@settings(deadline=None, max_examples=100)
@given(meixner_params(), st.integers(0, 30))
def test_chebyshev_matches_parent_kernel_on_laws(p, n_max):
    # Binomial laws stop at their support; the other classes run to n_max.
    mu = moments_from_sj(szego_jacobi(p), 2 * n_max)
    assert _recurrence_fields(gram_schmidt_from_moments, mu, n_max) == _recurrence_fields(
        parent_gram_schmidt, mu, n_max
    )
