"""Static checks on the package sources."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "trifree").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _bound_names(body: list[ast.stmt]) -> list[str]:
    """Names that the statements of one module or class body define."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def test_no_unused_imports_or_private_names():
    # a package module's imports and private names are for its own use;
    # __init__.py's imports are the public API, so they are exempt
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loads = [n for n in ast.walk(tree) if isinstance(getattr(n, "ctx", None), ast.Load)]
        read = {n.id for n in loads if isinstance(n, ast.Name)}
        read |= {n.attr for n in loads if isinstance(n, ast.Attribute)}
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    if getattr(node, "module", None) == "__future__":
                        continue
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in read:
                            unused.append(f"{path.name}: import {name}")
        bodies = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for body in bodies:
            for name in _bound_names(body):
                if _private(name) and name not in read:
                    unused.append(f"{path.name}: {name}")
    assert len(SOURCES) > 5
    assert unused == []
