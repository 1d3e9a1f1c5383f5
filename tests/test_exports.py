"""The package's export lists stay consistent with what it defines."""

import ast
import importlib
import pkgutil
from pathlib import Path

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
    tree = ast.parse(Path(corners.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        exported = modules[node.module].__all__
        assert [a.name for a in node.names if a.name not in exported] == [], node.module
