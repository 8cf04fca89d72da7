"""A module's private names are its own: no module of the program imports
another module's underscored name."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "oraclesim"


def test_no_program_module_imports_a_private_name():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 10  # the walk reaches the program's modules
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("oraclesim")):
                found += [f"{path.relative_to(SRC)}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []
