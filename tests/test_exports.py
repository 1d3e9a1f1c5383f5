"""The package's export lists stay consistent with what it defines."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import corners


def test_exports_exist_and_the_package_imports_only_exports():
    modules = {
        info.name: importlib.import_module(f"corners.{info.name}")
        for info in pkgutil.iter_modules(corners.__path__)
        if info.name != "__main__"
    }
    for name, module in modules.items():
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)
    # the package resolves each of its names lazily, from the module its
    # name map gives, and only names that module exports
    assert corners.__all__
    for name in corners.__all__:
        module = modules[corners._MODULE_OF[name]]
        assert name in module.__all__, name
        assert getattr(corners, name) is getattr(module, name), name
    assert set(corners.__all__) <= set(dir(corners))
    with pytest.raises(AttributeError):
        corners.no_such_name


def test_every_traced_function_exists():
    # the benchmark tracer wraps these names with getattr, so a renamed or
    # deleted function breaks every traced op
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module_name, names in tracer.WRAPPED.items():
        module = importlib.import_module(module_name)
        missing = [n for n in names if not callable(getattr(module, n, None))]
        assert not missing, (module_name, missing)
