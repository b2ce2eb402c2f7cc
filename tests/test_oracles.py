"""The reference implementations stay independent of the library."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_do_not_import_pointdet():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(), str(ORACLES))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    bad = [m for m in imported if m.split(".")[0] == "pointdet" or m.startswith(".")]
    assert not bad, f"tests/oracles.py must share no code with pointdet, imports {bad}"
