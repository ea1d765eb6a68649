"""The randomized exact verification suites behind ``meixnerops verify``.

Each runner draws one parameter set from ``rng`` and returns it with the
``VerifyReport`` of every identity it checks at ``degree``; ``SUITE_RUNNERS``
names them in the order the CLI lists them.  ``extraction_agreement`` is both
the ``pmd`` suite's check and the one ``decompose`` reports.
"""

from __future__ import annotations

from itertools import chain
from random import Random

from .meixner import (
    OPS,
    MeixnerParams,
    comm_ux_closed_form,
    one_meixner_limit_check,
    recurrence_polys,
    series_decomposition,
    szego_jacobi,
)
from .operators import (
    VerifyReport,
    diagonal_commutator,
    diagonal_report,
    linear_combination,
    poly_diagonals,
    sequence_report,
    series_by_commutators,
    verify_universal,
)
from .orthopoly import gram_schmidt_from_moments, moments_from_sj
from .pmd import PMDecomp
from .sampling import sample_params, sample_params_delta0

Suite = tuple[MeixnerParams, list[VerifyReport]]


def checked_order(support_bound: int | None, k: int, order: int) -> int:
    """The order through which an operator of grade ``k <= 1`` is checked at ``order``.

    An infinite support is checked through ``order``.  A finite one exposes
    only degrees below ``support_bound``, and a raising operator needs k
    spare degrees at the top.  A law has at least 2 support points, so the
    checked order is at least 0.
    """
    if support_bound is None:
        return order
    return min(order, support_bound - 1 - max(k, 0))


def extraction_agreement(
    p: MeixnerParams, op: str, order: int, closed: PMDecomp
) -> VerifyReport:
    """Compare the closed-form coefficients ``closed`` against the operator's expansion.

    The operator and X are held by their polynomial diagonals, read from the
    integers of ``szego_jacobi``, and ``series_by_commutators`` reads the
    expansion off their iterated commutators.  On a mismatch the report
    carries ``fail_index`` and the residual A_fail(extracted) - A_fail(closed).

    ``closed`` is the caller's ``series_decomposition(p, op, order)``; its
    coefficients do not depend on the order, so it serves every lower cap,
    and its grade k is the operator's.  The checked order (``max_degree``)
    is ``checked_order``: finite-support systems only expose their quotient
    space, and raising operators need one spare degree at the top.
    """
    sj = szego_jacobi(p)
    k = closed.k
    cap = checked_order(sj.support_bound, k, order)
    alpha, omega = recurrence_polys(sj)
    extracted = series_by_commutators(
        poly_diagonals(op, alpha, omega), poly_diagonals("X", alpha, omega), sj, k, cap
    )
    return sequence_report(
        f"extraction matches closed form for {op}",
        cap,
        ((n, extracted.coeff(n), closed.coeff(n)) for n in range(cap + 1)),
    )


def suite_universal(rng: Random, degree: int) -> Suite:
    p = sample_params(rng, min_dim=degree + 1)
    return p, verify_universal(szego_jacobi(p), degree)


def suite_doublecomm(rng: Random, degree: int) -> Suite:
    """The two Meixner commutator closed forms, as identities between polynomial diagonals.

    They are compared where a truncation at ``degree`` reads them reliably:
    a+ loses its top column unless the truncation keeps the whole finite
    support, and each commutator with X loses one more.
    """
    p = sample_params(rng, min_dim=degree + 1)
    sj = szego_jacobi(p)
    alpha, omega = recurrence_polys(sj)
    u, x = poly_diagonals("U", alpha, omega), poly_diagonals("X", alpha, omega)
    margin = 0 if sj.support_bound == degree + 1 else 1
    step1 = diagonal_commutator(u, x)
    delta = p.derived().delta
    return p, [
        diagonal_report("[U,X] = (alpha/2)X - (delta/2)N + (tau/2)I", step1,
                        comm_ux_closed_form(p, x), sj, degree, degree - margin),
        diagonal_report(
            "[[U,X],X] = -(delta/2)(X - 2U)",
            diagonal_commutator(step1, x),
            linear_combination((-delta / 2, x), (delta, u)),
            sj,
            degree,
            degree - 2 * margin,
        ),
    ]


def suite_pmd(rng: Random, degree: int) -> Suite:
    p = sample_params(rng, min_dim=degree + 4)
    return p, [
        extraction_agreement(p, op, degree, series_decomposition(p, op, degree)) for op in OPS
    ]


def suite_gramschmidt(rng: Random, degree: int) -> Suite:
    p = sample_params(rng)
    sj = szego_jacobi(p)
    rec = gram_schmidt_from_moments(moments_from_sj(sj, 2 * degree), degree)
    bound = sj.support_bound
    expected_bound = bound if bound is not None and bound <= degree else None
    top = degree if rec.support_bound is None else rec.support_bound
    # A support mismatch fails at index -1; then the first alpha_n, then omega_n,
    # each as integers cross-multiplied by the other recurrence's scale.
    pairs = chain(
        [(-1, rec.support_bound, expected_bound)],
        ((n, rec.shift(n) * sj.scale, sj.shift(n) * rec.scale) for n in range(top)),
        ((n, rec.link(n) * sj.scale**2, sj.link(n) * rec.scale**2) for n in range(1, top + 1)),
    )
    return p, [sequence_report("moments -> Gram-Schmidt recovers the recurrence", degree, pairs)]


def suite_limit(rng: Random, degree: int) -> Suite:
    p = sample_params_delta0(rng)
    return p, [one_meixner_limit_check(p, order=degree)]


SUITE_RUNNERS = {
    "universal": suite_universal,
    "pmd": suite_pmd,
    "gramschmidt": suite_gramschmidt,
    "limit": suite_limit,
    "doublecomm": suite_doublecomm,
}
