"""API-contract tests: the public surface stays importable and documented."""

import importlib
import inspect

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name}"

    def test_every_registered_policy_is_exported(self):
        """``--policy``/``Cluster(policy=...)`` accept these by name, so the
        classes are public too (``HorizonPolicy`` used to be missing)."""
        from repro.sched import POLICIES

        for cls in POLICIES.values():
            assert cls.__name__ in repro.__all__
            assert getattr(repro, cls.__name__) is cls

    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_public_callables_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not inspect.isclass(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_public_classes_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, f"missing class docstrings: {undocumented}"


SUBPACKAGES = [
    "repro.machine",
    "repro.machine.collectives",
    "repro.machine.collective_models",
    "repro.machine.memory",
    "repro.dist",
    "repro.dist.triangular",
    "repro.mm",
    "repro.inversion",
    "repro.trsm",
    "repro.trsm.prepared",
    "repro.tuning",
    "repro.analysis",
    "repro.analysis.sensitivity",
    "repro.analysis.export",
    "repro.util",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_module_importable_and_documented(module_name):
    mod = importlib.import_module(module_name)
    assert (mod.__doc__ or "").strip(), f"{module_name} lacks a module docstring"


class TestErrorTypes:
    def test_all_errors_share_base(self):
        from repro import GridError, ParameterError, ReproError, ShapeError

        for exc in (GridError, ShapeError, ParameterError):
            assert issubclass(exc, ReproError)
            assert issubclass(exc, Exception)

    def test_catching_base_catches_all(self):
        from repro import ReproError, trsm
        import numpy as np

        with pytest.raises(ReproError):
            trsm(np.ones((4, 4)), np.ones((4, 1)), p=4)  # not triangular
