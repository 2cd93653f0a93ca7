"""One step loop: only the engine executes jobs.

A stdlib AST scan over ``src/repro``: ``sim/engine.py`` is the only
module that calls ``.execute(``.  A second loop that steps jobs on its
own drifts from the engine's model (speeds, churn, faults), so anything
that needs a schedule runs :func:`repro.sim.simulate` instead.  The fast
engine's lean kernel advances its own arrays and never calls it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def execute_callers(root: Path) -> set[str]:
    """Modules under ``root`` (relative paths) that call ``.execute(``."""
    callers = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "execute"
            for node in ast.walk(tree)
        ):
            callers.add(path.relative_to(root).as_posix())
    return callers


def test_only_the_engine_executes_jobs():
    assert execute_callers(SRC) == {"sim/engine.py"}
