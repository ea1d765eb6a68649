"""Import hygiene and reachability of the package's names.

A name that starts with an underscore belongs to its module.  When another
module needs it, it gets a public name where it is defined.

A public top-level function or class must be reached by the program: some
package module other than ``__init__`` (its own module counts), a script or
the benchmark refers to it.  The benchmark tracer names its targets in
strings such as ``"GradedOp.compose"``, so string parts count there.  Only
documented features and test oracles in ``KEPT`` are exempt.
"""

import ast
from pathlib import Path

import meixnerops

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "meixnerops"
KEPT = {"beta0_combo", "class_predicates", "normal_order", "sample_combo"}


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


def referenced_names(path: Path, strings: bool = False) -> set[str]:
    """Every name, attribute and imported name in a file; with ``strings``,
    also the dot-separated parts of every string constant."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.split("."))
    return found


def unreferenced(package: Path, *outside: Path) -> list[str]:
    """Public top-level functions and classes of ``package`` that nothing reaches."""
    defined, used = set(), set()
    for path in package.glob("*.py"):
        defined |= {
            node.name
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        }
        if path.name != "__init__.py":
            used |= referenced_names(path)
    for directory in outside:
        for path in directory.glob("*.py"):
            used |= referenced_names(path, strings=True)
    return sorted(defined - used)


def test_every_public_name_is_reached():
    assert unreferenced(PACKAGE, ROOT / "scripts", ROOT / "perfbench") == sorted(KEPT)


def test_unreferenced_names_are_found(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text("from .a import dead, traced, used\n")
    (package / "a.py").write_text(
        "def dead(): pass\ndef traced(): pass\nclass Used: pass\ndef used(): return Used()\n"
    )
    (package / "b.py").write_text("from .a import used\n")
    (bench / "tracer.py").write_text('TARGETS = [("a", "traced.__call__")]\n')
    assert unreferenced(package, bench) == ["dead"]


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(meixnerops.__all__) == sorted(set(imported))
    assert len(set(meixnerops.__all__)) == len(meixnerops.__all__)
