"""Import hygiene and reachability of the package's names.

A name that starts with an underscore belongs to its module.  When another
module needs it, it gets a public name where it is defined.

A public top-level function or class, and a public method or property of a
package class, must be reached by the program: some package module other
than ``__init__`` (its own module counts), a script or the benchmark refers
to it by name.  The benchmark tracer names its targets in strings such as
``"GradedOp.compose"``, so string parts count there.  Only documented
features and test oracles in ``KEPT`` are exempt.
"""

import ast
from pathlib import Path

import meixnerops

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "meixnerops"
KEPT = {
    "beta0_combo",
    "class_predicates",
    "normal_order",
    "sample_combo",
    # Test conveniences: they build or read a value in the form a test writes.
    "GradedOp.entries",  # the dense rows, for asserting on entries
    "MonomialMatrix.entries",  # the same for the monomial-basis matrix
    "MonomialMatrix.from_fractions",  # a matrix from Fraction entries
    "SzegoJacobi.from_lists",  # a recurrence from alpha and omega lists
    "MomentSeq.from_values",  # a moment sequence from rational values
    "Poly.monomial",  # a monomial c*X^n, as tests write one
    "PMDecomp.apply",  # test oracle: an expansion acting on a polynomial
    "TranslationCombo.apply",  # test oracle: a combination acting on a polynomial
}


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


def public_definitions(path: Path) -> dict[str, str]:
    """Reported name -> bare name of each public top-level function and class,
    and of each public method and property of a class (``"Class.method"``)."""
    found = {}
    for node in ast.parse(path.read_text(), str(path)).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            found[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    found[f"{node.name}.{member.name}"] = member.name
    return found


def unreferenced(package: Path, *outside: Path) -> list[str]:
    """Public names of ``package`` (functions, classes, methods) that nothing reaches."""
    defined, used = {}, set()
    for path in package.glob("*.py"):
        defined.update(public_definitions(path))
        if path.name != "__init__.py":
            used |= referenced_names(path)
    for directory in outside:
        for path in directory.glob("*.py"):
            used |= referenced_names(path, strings=True)
    return sorted(full for full, bare in defined.items() if bare not in used)


def test_every_public_name_is_reached():
    assert unreferenced(PACKAGE, ROOT / "scripts", ROOT / "perfbench") == sorted(KEPT)


def test_unreferenced_names_are_found(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text("from .a import dead, traced, used\n")
    (package / "a.py").write_text(
        "def dead(): pass\ndef traced(): pass\ndef used(): return Used().size\n"
        "class Used:\n"
        "    def __len__(self): pass\n"
        "    def _helper(self): pass\n"
        "    @property\n"
        "    def size(self): pass\n"
        "    def unused(self): pass\n"
    )
    (package / "b.py").write_text("from .a import used\n")
    (bench / "tracer.py").write_text('TARGETS = [("a", "traced.__call__")]\n')
    assert unreferenced(package, bench) == ["Used.unused", "dead"]


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
