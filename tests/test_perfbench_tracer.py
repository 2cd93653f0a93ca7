"""The benchmark tracer's contract with the program.

``perfbench/tracer.py`` times a run by replacing named program
attributes (most of them looked up as ``owner.__dict__[attr]``) with
wrappers and putting the originals back afterwards.  Renaming or moving
any of them breaks ``perfbench/run.py --trace 1`` with a ``KeyError``;
this test finds that in tier 1.  It reads ``perfbench/`` and changes
nothing under it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_module():
    """``perfbench/tracer.py``, imported the way the benchmark does
    (with ``perfbench/`` on ``sys.path``) and forgotten afterwards."""
    before = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("tracer", "common"):
            if name not in before:
                sys.modules.pop(name, None)


def test_every_traced_attribute_exists_and_is_restored(tracer_module):
    tracer = tracer_module.Tracer()
    try:
        tracer.install_service_layers()  # includes the engine layers
        patches = list(tracer._patches)
        assert patches
        for owner, attr, _orig in patches:
            assert vars(owner)[attr] is not _orig, (owner, attr)
    finally:
        tracer.uninstall()
    assert not tracer._patches
    for owner, attr, orig in patches:
        assert vars(owner)[attr] is orig, (owner, attr)
