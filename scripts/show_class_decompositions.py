#!/usr/bin/env python3
"""Walk the six distribution classes and print their operator decompositions.

For each representative parameter set this prints the classified law, the
series expansions of U and a-, and, when Delta > 0, the same operators
written with finite translations.  Everything shown is exact.
"""

import argparse

from meixnerops.classify import classify
from meixnerops.meixner import (
    MeixnerParams,
    NotASquare,
    series_decomposition,
    translation_form,
)

REPRESENTATIVES = (
    ("Gaussian", MeixnerParams.from_strings("0", "0", "0", "1")),
    ("Poisson", MeixnerParams.from_strings("1", "1", "0", "1")),
    ("Pascal", MeixnerParams.from_strings("3", "0", "2", "2")),
    ("Gamma", MeixnerParams.from_strings("2", "1", "1", "1")),
    ("hyperbolic secant", MeixnerParams.from_strings("0", "0", "1", "1")),
    ("Binomial", MeixnerParams.from_strings("0", "0", "-1", "2")),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=4, help="series order to display")
    args = parser.parse_args()

    for label, p in REPRESENTATIVES:
        print(f"=== {label}: alpha={p.alpha} alpha0={p.alpha0} beta={p.beta} t={p.t}")
        print(f"    delta = {p.delta}, tau = {p.tau}", end="")
        if p.support_bound is not None:
            print(f", finite support on {p.support_bound} points")
        else:
            print()
        print(f"    law: {classify(p).to_json_dict()}")
        for op in ("U", "a-"):
            print(f"    {op} = {series_decomposition(p, op, args.order)}")
        try:
            report = translation_form(p)
        except NotASquare as exc:
            print(f"    translation form: {exc}")
        else:
            if report.forms:
                for name, expr in report.forms.items():
                    print(f"    {name} = {expr}")
            else:
                print("    delta = 0: translations collapse to the momentum forms above")
            print(f"    translation identities verified: {report.passed}")
        print()


if __name__ == "__main__":
    main()
