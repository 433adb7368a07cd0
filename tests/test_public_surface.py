"""The package exports only what its own code or the acceptance tests call.

Every name ``corrgroup/__init__.py`` imports must be referenced, as a Name
or an Attribute node, in package code outside its own definition, or in
``tests/test_acceptance.py``. Text in docstrings and comments does not count,
nor does the import in ``__init__.py``. A name only the tests call belongs in
the tests, as an oracle. The one exception is a name perfbench's tracer still
reads by name, for as long as it does.

Likewise every module-level function and class whose name starts with
``_`` must be referenced by package code outside its own definition: a
private helper only the tests call is dead code, or an oracle.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "corrgroup"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
SPANS = ROOT / "perfbench" / "spans.py"

# Exports kept only because perfbench's traced run reads them by name; each
# goes with its export once the tracer stops naming it (ROADMAP item 1).
PERFBENCH_READS = {"estimate_lrf"}


def exported_names():
    """Every name ``__init__.py`` imports from a package module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def defines(node, name):
    """Whether the module-level statement ``node`` defines ``name``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == name for target in node.targets for t in ast.walk(target))
    return False


def references(tree, name, skip=None):
    """Whether ``tree`` reads ``name`` as a Name or an Attribute node,
    outside the module-level statement ``skip``."""
    return any(isinstance(node.ctx, ast.Load) and (node.id if isinstance(node, ast.Name) else node.attr) == name
               for statement in tree.body if statement is not skip
               for node in ast.walk(statement) if isinstance(node, (ast.Name, ast.Attribute)))


TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


@pytest.mark.parametrize("name", exported_names())
def test_every_export_has_a_caller(name):
    if name in PERFBENCH_READS:
        assert f'"{name}"' in SPANS.read_text(), f"perfbench no longer reads {name}; drop its export"
        return
    home, definition = next((tree, node) for tree in TREES.values() for node in tree.body if defines(node, name))
    callers = [stem for stem, tree in TREES.items()
               if stem != "__init__" and references(tree, name, definition if tree is home else None)]
    if references(ast.parse(ACCEPTANCE.read_text()), name):
        callers.append("test_acceptance")
    assert callers, f"corrgroup.{name} has no caller in the package or the acceptance tests"


def private_helpers():
    """(module, name) of every module-level function and class whose name starts with ``_``."""
    return [(stem, node.name) for stem, tree in TREES.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")]


@pytest.mark.parametrize("stem, name", private_helpers())
def test_every_private_helper_has_a_caller(stem, name):
    definition = next(node for node in TREES[stem].body if defines(node, name))
    assert any(references(tree, name, definition if other == stem else None) for other, tree in TREES.items()), \
        f"corrgroup.{stem}.{name} has no caller in the package"
