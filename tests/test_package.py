"""The package's own shape: what its source may depend on."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import wareflow

SOURCE = Path(__file__).resolve().parents[1] / "src" / "wareflow"


def test_the_package_imports_the_standard_library_only():
    """Every absolute import in src/wareflow names a standard-library
    module, so the package installs and runs with no dependency."""
    files = sorted(SOURCE.glob("*.py"))
    assert files
    outside = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {(path.name, name) for name in names
                        if name.partition(".")[0]
                        not in sys.stdlib_module_names}
    assert not outside


def test_all_names_public_objects_and_no_module():
    """from wareflow import * binds every name __all__ lists and no
    submodule."""
    assert wareflow.__all__
    values = {name: getattr(wareflow, name) for name in wareflow.__all__}
    assert not [name for name, value in values.items()
                if isinstance(value, ModuleType)]
    assert "solve" in values and "Instance" in values
