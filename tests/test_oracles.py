"""Import rules: the reference implementations stay independent of the
library, the library imports nothing but numpy and the standard library,
and every name a library module exports exists in it."""

import ast
import importlib
import sys
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")
LIBRARY = Path(__file__).parents[1] / "src" / "pointdet"


def test_oracles_do_not_import_pointdet():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(), str(ORACLES))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    bad = [m for m in imported if m.split(".")[0] == "pointdet" or m.startswith(".")]
    assert not bad, f"tests/oracles.py must share no code with pointdet, imports {bad}"


def test_library_imports_only_numpy_and_the_standard_library():
    sources = sorted(LIBRARY.glob("*.py"))
    assert len(sources) > 1
    bad = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [f"{path.name}: {name}" for name in names
                    if name.split(".")[0] != "numpy"
                    and name.split(".")[0] not in sys.stdlib_module_names]
    assert not bad, f"pointdet must depend on numpy alone, imports {bad}"


def test_every_exported_name_exists_in_its_module():
    modules = ["pointdet"] + [f"pointdet.{p.stem}" for p in sorted(LIBRARY.glob("*.py"))
                              if p.stem != "__init__"]
    missing = []
    for name in modules:
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), f"{name} declares no __all__"
        missing += [f"{name}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"__all__ names what the module does not define: {missing}"
