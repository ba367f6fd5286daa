"""The demo scripts run to completion, the public name list is sound, and
every module uses what it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dbecurves

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve_sorted_and_unique():
    names = dbecurves.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(dbecurves, n)] == []


# the package's __init__.py re-exports the names it imports
MODULES = sorted(p for p in (ROOT / "src" / "dbecurves").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_modules_use_every_name_they_import(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_private_definitions_are_used_in_the_package():
    # a module-level _name defined in src/dbecurves is referenced there outside
    # its own definition; helpers only tests use live in tests/
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in (ROOT / "src" / "dbecurves").glob("*.py")]
    refs = [(node, node.id if isinstance(node, ast.Name) else node.attr)
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for tree in trees:
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                inside = {id(n) for n in ast.walk(node)}
                if not any(name == node.name and id(ref) not in inside
                           for ref, name in refs):
                    unused.append(node.name)
    assert sorted(unused) == []


def test_cli_imports_no_private_constant_from_curves():
    # the curve parameter ranges live in curves, and build_extremal_curve alone
    # checks the curve flags
    tree = ast.parse((ROOT / "src" / "dbecurves" / "cli.py").read_text(encoding="utf-8"))
    taken = [a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "curves"
             for a in node.names if a.name.startswith("_") and a.name[1:].isupper()]
    assert taken == []
