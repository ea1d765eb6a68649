"""No module of the package imports a private name from a sibling module.

A name that starts with an underscore belongs to its module.  When another
module needs it, it gets a public name where it is defined.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "meixnerops"


def private_imports(path: Path) -> list[str]:
    """``file:line name`` for each underscore name imported from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").split(".")[0] == "meixnerops":
            found += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_private_imports_are_found(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from __future__ import annotations\n"
        "from .operators import VerifyReport, _report\n"
        "from meixnerops.cli import _build_op\n"
        "from random import _inst\n"
    )
    assert private_imports(module) == ["probe.py:2 _report", "probe.py:3 _build_op"]
