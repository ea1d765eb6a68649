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
    series_decomposition,
    szego_jacobi,
)
from .operators import (
    GradedOp,
    VerifyReport,
    commutator,
    number_op,
    operator_report,
    quantum_ops,
    semi_ops,
    sequence_report,
    to_monomial_basis,
    verify_universal,
)
from .orthopoly import SzegoJacobi, gram_schmidt_from_moments, moments_from_sj
from .pmd import PMDecomp, extract_pmd
from .sampling import sample_params, sample_params_delta0

Suite = tuple[MeixnerParams, list[VerifyReport]]


def build_op(name: str, sj: SzegoJacobi, trunc: int) -> GradedOp:
    """The one truncated operator ``name``; ``quantum_ops`` checks omega_n > 0."""
    aplus, azero, aminus = quantum_ops(sj, trunc)
    if name == "N":
        return number_op(trunc)
    if name in ("U", "V"):
        u, v = semi_ops(aplus, azero, aminus)
        return u if name == "U" else v
    return {"a0": azero, "a-": aminus, "a+": aplus}[name]


def extraction_agreement(
    p: MeixnerParams, op: str, order: int, closed: PMDecomp
) -> VerifyReport:
    """Compare the closed-form coefficients ``closed`` against matrix extraction.

    Only the columns the peel reads are formed.  On a mismatch the report
    carries ``fail_index`` and the residual A_fail(extracted) - A_fail(closed).

    ``closed`` is the caller's ``series_decomposition(p, op, order)``; its
    coefficients do not depend on the order, so it serves every lower cap,
    and its grade k is the operator's.  The checked order (``max_degree``)
    is capped by the truncation: finite-support systems only expose their
    quotient space, and raising operators need one spare degree at the top.
    A law has at least 2 support points, so the truncation is at least 1 and
    the cap at least 0.
    """
    sj = szego_jacobi(p)
    bound = sj.support_bound
    trunc = order + 3 if bound is None else min(order + 3, bound - 1)
    graded = build_op(op, sj, trunc)
    k = closed.k
    cap = min(order, graded.valid_degree - max(k, 0))
    extracted = extract_pmd(to_monomial_basis(graded, sj, cap), k, cap)
    return sequence_report(
        f"extraction matches closed form for {op}",
        cap,
        ((n, extracted.coeff(n), closed.coeff(n)) for n in range(cap + 1)),
    )


def suite_universal(rng: Random, degree: int) -> Suite:
    p = sample_params(rng, min_dim=degree + 1)
    return p, verify_universal(szego_jacobi(p), degree)


def suite_doublecomm(rng: Random, degree: int) -> Suite:
    p = sample_params(rng, min_dim=degree + 1)
    sj = szego_jacobi(p)
    aplus, azero, aminus = quantum_ops(sj, degree)
    u, _ = semi_ops(aplus, azero, aminus)
    x = aminus + azero + aplus
    step1 = commutator(u, x)
    return p, [
        operator_report("[U,X] = (alpha/2)X - (delta/2)N + (tau/2)I", step1,
                        comm_ux_closed_form(p, x), sj),
        operator_report(
            "[[U,X],X] = -(delta/2)(X - 2U)",
            commutator(step1, x),
            (x - u.scale(2)).scale(-p.derived().delta / 2),
            sj,
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
    # A support mismatch fails at index -1; then the first alpha_n, then omega_n.
    pairs = chain(
        [(-1, rec.support_bound, expected_bound)],
        ((n, rec.alpha(n), sj.alpha(n)) for n in range(top)),
        ((n, rec.omega(n), sj.omega(n)) for n in range(1, top + 1)),
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
