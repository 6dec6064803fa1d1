import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bwvi
import bwvi.errors

MODULES = ["bwvi"] + [f"bwvi.{info.name}" for info in pkgutil.iter_modules(bwvi.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_runtime_imports_no_scipy():
    # in a fresh interpreter, so that the modules the tests import do not count
    code = (
        f"import sys; sys.path.insert(0, {str(Path(bwvi.__file__).resolve().parents[1])!r}); "
        "import bwvi, bwvi.cli; print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_every_error_class_is_raised():
    # an error class that nothing raises is a public name nothing needs
    raised = {
        node.exc.func.id
        for path in Path(bwvi.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
    }
    classes = {
        name for name, cls in inspect.getmembers(bwvi.errors, inspect.isclass)
        if issubclass(cls, bwvi.errors.BwviError) and cls is not bwvi.errors.BwviError
    }
    assert sorted(classes - raised) == []
