"""Source-level rules for the package."""

import ast
import pathlib

import prunadag

SRC = pathlib.Path(prunadag.__file__).parent


def test_no_assert_statements():
    """Invariants are explicit errors: ``python -O`` strips asserts."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
