"""Import hygiene and reachability of the package's names.

A name that starts with an underscore belongs to its module.  When another
module needs it, it gets a public name where it is defined.

A public top-level function or class, and a public method or property of a
package class, must be reached by the program: some package module other
than ``__init__`` (its own module counts), a script or the benchmark refers
to it by name.  The benchmark tracer names its targets in strings such as
``"GradedOp.compose"``, so string parts count there.  Only the documented
features in ``KEPT`` are exempt.

A bare name says nothing about its owner when it also names another
attribute: a field of a package class, a member of another class or module,
or an option of a command line.  ``args.order`` is then as good as a call of
``PMDecomp.order``.  A method or property with such a name counts as reached
only if it runs during one profiled pass over the seed-1 benchmark pools and
``scripts/show_class_decompositions.py``, or if ``SHARED`` says why it stays.
"""

import ast
import contextlib
import cProfile
import importlib.util
import io
import runpy
import sys
from pathlib import Path

import meixnerops
import meixnerops.cli as cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "meixnerops"
KEPT = {"beta0_combo", "class_predicates", "normal_order", "sample_combo"}
SHARED = {
    "GradedOp.scale": "a perfbench tracer target; the finite reference engine",
    "TranslationExpr.to_json_dict": "read by TranslationFormReport.to_json_dict",
    "TranslationFormReport.to_json_dict": "the JSON of translation_form, pinned by test_golden",
    "XDWord.parse": "part of normal_order: the word it orders, written as text",
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


def shared_members(package: Path, *outside: Path) -> list[str]:
    """Public methods and properties of ``package`` whose bare name also names another
    attribute: a field or member of another package class, a top-level name of a
    package module, or a ``--name`` option given to ``add_argument`` anywhere."""
    owners: dict[str, set[str]] = {}
    members = {}
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owners.setdefault(node.name, set()).add(path.stem)
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                    if not name.startswith("_"):
                        members[f"{node.name}.{name}"] = name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                owners.setdefault(name, set()).add(node.name)
    for path in (p for directory in (package, *outside) for p in directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and str(arg.value).startswith("--"):
                        owners.setdefault(arg.value[2:].replace("-", "_"), set()).add("argv")
    return sorted(full for full, bare in members.items() if len(owners[bare]) > 1)


def members_run(run) -> set[str]:
    """``"Class.member"`` of each method or property of a package class that runs in ``run()``."""
    profile = cProfile.Profile()
    profile.runcall(run)
    codes = {entry.code for entry in profile.getstats()}
    found = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "meixnerops":
            continue
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != name:
                continue
            for attr, member in vars(cls).items():
                func = member.fget if isinstance(member, property) else member
                if getattr(getattr(func, "__func__", func), "__code__", None) in codes:
                    found.add(f"{cls.__name__}.{attr}")
    return found


def one_pass() -> None:
    """Every argv of the seed-1 benchmark pools, then the class walk script."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    script = ROOT / "scripts" / "show_class_decompositions.py"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        for workload in workloads.WORKLOADS:
            for argv in workloads.build_pool(workload, 1):
                assert cli.main(list(argv)) == 0, argv
        argv, sys.argv = sys.argv, [str(script)]
        try:
            runpy.run_path(str(script), run_name="__main__")
        finally:
            sys.argv = argv


def test_every_member_with_a_shared_name_runs():
    shared = shared_members(PACKAGE, ROOT / "scripts", ROOT / "perfbench")
    assert set(SHARED) <= set(shared)
    assert sorted(set(shared) - members_run(one_pass)) == sorted(SHARED)


def test_shared_names_are_found(tmp_path):
    package, scripts = tmp_path / "pkg", tmp_path / "scripts"
    package.mkdir()
    scripts.mkdir()
    (package / "a.py").write_text(
        "class Params:\n"
        "    alpha: int\n"
        "    def to_json(self): pass\n"
        "class Rec:\n"
        "    def alpha(self): pass\n"
        "    def order(self): pass\n"
        "    def to_json(self): pass\n"
        "    def unique(self): pass\n"
        "def helper(): pass\n"
        "class Other:\n"
        "    def helper(self): pass\n"
    )
    (scripts / "show.py").write_text('parser.add_argument("--order", type=int)\n')
    assert shared_members(package, scripts) == [
        "Other.helper", "Params.to_json", "Rec.alpha", "Rec.order", "Rec.to_json"
    ]
    assert shared_members(package) == [
        "Other.helper", "Params.to_json", "Rec.alpha", "Rec.to_json"
    ]


def test_members_run_are_found():
    from meixnerops.exact import Poly

    assert {"Poly.of", "Poly.degree", "Poly.__init__"} <= members_run(lambda: Poly.of(1).degree)
    assert "Poly.derivative" not in members_run(lambda: Poly.of(1).degree)


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


def package_reads(*directories: Path) -> set[str]:
    """Names read off the package itself, as ``meixnerops.<name>`` or as
    ``from meixnerops import <name>``."""
    found = set()
    for path in (p for directory in directories for p in directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "meixnerops":
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "meixnerops":
                found.update(alias.name for alias in node.names)
    return found


def test_every_package_export_is_read_off_the_package():
    # ``__all__`` is the package's imports (test_all_lists_exactly_the_imported_names).
    unread = set(meixnerops.__all__) - package_reads(ROOT / "perfbench", ROOT / "scripts")
    assert unread == set()


def test_package_reads_are_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "import meixnerops\n"
        "import meixnerops.cli as cli\n"
        "from meixnerops import Poly\n"
        "from meixnerops.exact import parse_rat\n"
        "x = meixnerops.GradedOp, cli.main, other.Quadratic\n"
    )
    assert package_reads(tmp_path) == {"GradedOp", "Poly"}
