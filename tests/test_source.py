"""Static checks on the package sources."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "trifree").glob("*.py"))

# public names that no package module reads, each with the reason it stays
KEPT_UNREAD = {
    "harness.RunSummary.from_dict": "schema check on loading; perfbench/workloads.py uses it",
    "patterns.pattern_text": "perfbench/workloads.py writes its pattern files with it",
    "patterns.cycle_pattern": "acceptance criterion 6 (C4, C6); ROADMAP item 4",
    "patterns.complete_bipartite_pattern": "acceptance criteria 7 and 8 (K6,6); ROADMAP item 4",
    "patterns.max_edges_k_subset": "acceptance criterion 7's densest 12-subset; ROADMAP item 4",
    "patterns.classify_placement": "acceptance criterion 8 re-examines kept blocked placements",
    "process.StepResult.newly_closed": "perfbench/spans.py counts closed pairs; ROADMAP item 1",
    "trajectory.log_open_pair_envelope": "acceptance criterion 9's envelope branch check",
    "trajectory.finite_partial_vertex_curve": "acceptance criterion 4 and the trajectory tests",
}


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


def _read_names(tree: ast.Module) -> set[str]:
    """Names and attribute names that the module loads."""
    loads = [n for n in ast.walk(tree) if isinstance(getattr(n, "ctx", None), ast.Load)]
    read = {n.id for n in loads if isinstance(n, ast.Name)}
    return read | {n.attr for n in loads if isinstance(n, ast.Attribute)}


def test_no_unused_imports_or_private_names():
    # a package module's imports and private names are for its own use;
    # __init__.py's imports are the public API, so they are exempt
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read_names(tree)
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


def test_every_public_name_is_read_or_kept_for_a_reason():
    # public module-level functions and classes, and the public methods and
    # properties of public classes, outside __init__.py; dataclass fields
    # are left out, since asdict and fields read them
    read: set[str] = set()
    defined: dict[str, str] = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _read_names(tree)
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            qualified = f"{path.stem}.{node.name}"
            defined[qualified] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        defined[f"{qualified}.{member.name}"] = member.name
    unread = {qualified for qualified, name in defined.items() if name not in read}
    assert sorted(unread - KEPT_UNREAD.keys()) == []  # read it, delete it or list it
    assert sorted(KEPT_UNREAD.keys() - unread) == []  # stale entries
    # a name that only the tests read lives in tests/reference.py
    assert [name for name, why in KEPT_UNREAD.items() if why.startswith("test ")] == []
