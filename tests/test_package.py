"""The package's public names and its imports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import zenolab

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "zenolab").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def test_every_exported_name_resolves():
    # a public name removed from a module must leave __all__ too
    assert len(set(zenolab.__all__)) == len(zenolab.__all__)
    assert [n for n in zenolab.__all__ if not hasattr(zenolab, n)] == []


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in a module-level `__all__ = [...]`, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", SOURCES + SCRIPTS + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # no linter runs in tier-1, and a deleted call site tends to leave its import behind
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert unused == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") and name != "_"


def _loaded(tree: ast.Module) -> set[str]:
    """The names and attribute names that a module loads."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def test_no_dead_private_names():
    # a private function, method, class or module constant that nothing in the
    # package loads is left over from a deleted call site
    defined, loaded = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded |= _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _private(node.name):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and _private(target.id):
                    defined.setdefault(target.id, f"{path.name}:{node.lineno}")
    dead = sorted(f"{name} ({where})" for name, where in defined.items() if name not in loaded)
    assert dead == []


def test_every_exported_name_has_a_caller():
    # a public name that only tests call is API kept for its own sake
    loaded = set()
    for path in SOURCES + SCRIPTS:
        if path.name != "__init__.py":
            loaded |= _loaded(ast.parse(path.read_text(), filename=str(path)))
    assert sorted(set(zenolab.__all__) - loaded) == []
