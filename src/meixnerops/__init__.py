"""Exact quantum decompositions of Meixner-class random variables.

The package builds the creation / preservation / annihilation operators of a
one-dimensional orthogonal-polynomial system from its recurrence
coefficients, verifies their commutation identities in exact rational
arithmetic, computes closed-form position-momentum and translation-operator
decompositions for the Meixner family, characterizes which translation
combinations can act as annihilation operators, and classifies every valid
parameter set into one of six distribution classes.

Every name lives in its own module and is imported from there; the package
exports only the three classes that the benchmark's tests read off it.
"""

# perfbench/test_perfbench.py reads these three as meixnerops.<name>.
from .exact import Poly
from .operators import GradedOp
from .surd import Quadratic

__all__ = ["GradedOp", "Poly", "Quadratic"]
