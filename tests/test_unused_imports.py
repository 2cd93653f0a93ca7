"""Every imported name is used: a stdlib stand-in for ruff's F401.

Scans ``src`` and ``tests`` and flags any name an import binds that its
module never references.  Exempt, as ruff exempts them: names listed in
``__all__``, redundant aliases (``import x as x``), ``from __future__``
imports and lines marked ``# noqa: F401``.  Names inside string
annotations count as references.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _string_annotation_names(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.annotation is not None:
                    yield arg.annotation
            for arg in (args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(path: Path) -> list[str]:
    """``"file:line name"`` for each unused imported name in ``path``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        used |= _string_annotation_names(ann)
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
                exported |= {
                    e.value
                    for e in ast.walk(node.value)
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1] or (
            node.end_lineno and "noqa: F401" in lines[node.end_lineno - 1]
        ):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            if alias.asname is not None and alias.asname == alias.name:
                continue  # explicit re-export
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and bound not in exported:
                rel = path.relative_to(ROOT)
                found.append(f"{rel}:{node.lineno} {bound}")
    return found


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "tests").rglob("*.py")
    )
    unused = [hit for path in files for hit in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
