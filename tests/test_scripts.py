import runpy
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "show_class_decompositions.py"

# Output of the script at its default --order 4.  None of its six examples has
# an irrational Delta, so every translation form prints rational coefficients.
EXPECTED = (
    "=== Gaussian: alpha=0 alpha0=0 beta=0 t=1\n"
    "    delta = 0, tau = 2\n"
    "    law: {'class': 'Gaussian', 'mean': '0', 'variance': '1'}\n"
    "    U = (1)*D\n"
    "    a- = (1)*D\n"
    "    delta = 0: translations collapse to the momentum forms above\n"
    "    translation identities verified: True\n"
    "\n"
    "=== Poisson: alpha=1 alpha0=1 beta=0 t=1\n"
    "    delta = 1, tau = 1\n"
    "    law: {'class': 'Poisson', 'rate': '1', 'scale': '1', 'shift': '0'}\n"
    "    U = (1/2) + (1/2*X + 1/2)*D + (-1/4*X + 1/4)*D^2 + (1/12*X + 1/12)*D^3 + (-1/48*X + 1/48)*D^4\n"
    "    a- = (1)*D + (1/2)*D^2 + (1/6)*D^3 + (1/24)*D^4\n"
    "    U = (1/2) T[1] + (-1/2*X) T[-1] + (1/2*X) I\n"
    "    N = (-1) T[1] + (-X) T[-1] + (X + 1) I\n"
    "    a- = (1) T[1] + (-1) I\n"
    "    a0 = (-1) T[1] + (-X) T[-1] + (X + 2) I\n"
    "    translation identities verified: True\n"
    "\n"
    "=== Pascal: alpha=3 alpha0=0 beta=2 t=2\n"
    "    delta = 1, tau = 4\n"
    "    law: {'class': 'Pascal', 'r': '1', 'p': '1/2', 'scale': '1', 'shift': '-1'}\n"
    "    U = (3/2*X + 2)*D + (-1/4*X)*D^2 + (1/4*X + 1/3)*D^3 + (-1/48*X)*D^4\n"
    "    a- = (2)*D + (2*X + 3)*D^2 + (1/3)*D^3 + (1/6*X + 1/4)*D^4\n"
    "    U = (1/2*X + 1) T[1] + (-X - 1) T[-1] + (1/2*X) I\n"
    "    N = (-X - 2) T[1] + (-2*X - 2) T[-1] + (3*X + 4) I\n"
    "    a- = (2*X + 4) T[1] + (2*X + 2) T[-1] + (-4*X - 6) I\n"
    "    a0 = (-3*X - 6) T[1] + (-6*X - 6) T[-1] + (9*X + 12) I\n"
    "    translation identities verified: True\n"
    "\n"
    "=== Gamma: alpha=2 alpha0=1 beta=1 t=1\n"
    "    delta = 0, tau = 0\n"
    "    law: {'class': 'Gamma', 'shape': '1', 'scale': '1', 'shift': '0'}\n"
    "    U = (1/2) + (X)*D\n"
    "    a- = (1)*D + (X)*D^2\n"
    "    delta = 0: translations collapse to the momentum forms above\n"
    "    translation identities verified: True\n"
    "\n"
    "=== hyperbolic secant: alpha=0 alpha0=0 beta=1 t=1\n"
    "    delta = -4, tau = 2\n"
    "    law: {'class': 'HyperbolicSecant', 'gamma': '2', 'r': '2', 'k': '1/2', 'tan_theta': '0'}\n"
    "    U = (1)*D + (X)*D^2 + (-2/3)*D^3 + (-1/3*X)*D^4\n"
    "    a- = (1)*D + (X)*D^2 + (-2/3)*D^3 + (-1/3*X)*D^4\n"
    "    translation form: Delta = -4 is not the square of a rational\n"
    "\n"
    "=== Binomial: alpha=0 alpha0=0 beta=-1 t=2\n"
    "    delta = 4, tau = 4, finite support on 3 points\n"
    "    law: {'class': 'Binomial', 'n': 2, 'success_radicand': '0', 'branches': [{'p': '1/2', 'scale': '2', 'shift': '-2'}, {'p': '1/2', 'scale': '-2', 'shift': '2'}]}\n"
    "    U = (2)*D + (-X)*D^2 + (4/3)*D^3 + (-1/3*X)*D^4\n"
    "    a- = (2)*D + (-X)*D^2 + (4/3)*D^3 + (-1/3*X)*D^4\n"
    "    U = (-1/4*X + 1/2) T[2] + (-1/4*X - 1/2) T[-2] + (1/2*X) I\n"
    "    N = (1/4*X - 1/2) T[2] + (-1/4*X - 1/2) T[-2] + (1) I\n"
    "    a- = (-1/4*X + 1/2) T[2] + (-1/4*X - 1/2) T[-2] + (1/2*X) I\n"
    "    a0 = 0\n"
    "    translation identities verified: True\n"
    "\n"
)


def test_show_class_decompositions_output(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT)])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    assert capsys.readouterr().out == EXPECTED
