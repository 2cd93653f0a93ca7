"""Public API surface tests: everything exported actually resolves."""

import importlib
import os
import re

import pytest

import repro


class TestTopLevelApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version_is_semver_ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_version_has_one_source(self):
        """pyproject reads the version from repro._version, and the
        latest CHANGELOG entry and CITATION.cff name that same version."""
        tomllib = pytest.importorskip("tomllib")
        root = os.path.join(os.path.dirname(__file__), "..")
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            doc = tomllib.load(fh)
        assert "version" not in doc["project"]
        assert "version" in doc["project"]["dynamic"]
        assert doc["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro._version.__version__"
        }
        with open(os.path.join(root, "CHANGELOG.md"), encoding="utf-8") as fh:
            latest = re.search(r"^## (\S+)", fh.read(), re.MULTILINE)
        assert latest.group(1) == repro.__version__
        with open(os.path.join(root, "CITATION.cff"), encoding="utf-8") as fh:
            cited = re.search(r"^version: (\S+)$", fh.read(), re.MULTILINE)
        assert cited.group(1) == repro.__version__

    @pytest.mark.parametrize(
        "module",
        [
            "repro.dag",
            "repro.jobs",
            "repro.machine",
            "repro.schedulers",
            "repro.sim",
            "repro.theory",
            "repro.analysis",
            "repro.viz",
            "repro.io",
            "repro.feedback",
            "repro.experiments",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} needs a module docstring"
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name} missing"


class TestRegistriesConsistent:
    def test_cli_descriptions_cover_registry(self):
        from repro.cli import _DESCRIPTIONS
        from repro.experiments import REGISTRY

        assert set(_DESCRIPTIONS) == set(REGISTRY)

    def test_scheduler_names_unique(self):
        from repro.schedulers import _REGISTRY

        assert len(_REGISTRY) == len({cls.name for cls in _REGISTRY.values()})

    def test_every_scheduler_instantiable_and_resettable(self):
        from repro.machine import KResourceMachine
        from repro.schedulers import _REGISTRY

        machine = KResourceMachine((2, 2))
        for name, cls in _REGISTRY.items():
            if name == "rad":
                continue  # K = 1 only
            sched = cls()
            sched.reset(machine)
            assert sched.machine is machine


class TestDocstrings:
    def test_public_classes_documented(self):
        from repro import (
            DagJob,
            JobSet,
            KRad,
            KResourceMachine,
            PhaseJob,
            SimulationResult,
            Simulator,
        )

        for obj in (
            DagJob,
            JobSet,
            KRad,
            KResourceMachine,
            PhaseJob,
            SimulationResult,
            Simulator,
        ):
            assert obj.__doc__ and len(obj.__doc__) > 20
