"""Source-level rules for the package."""

import ast
import dataclasses
import pathlib

import prunadag
from prunadag.core import TRACE_FIELDS, RunRecord

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


def test_every_trace_array_is_in_the_trace_table():
    """A per-iteration RunRecord field that TRACE_FIELDS does not list
    would silently miss the bundle."""
    arrays = [f.name for f in dataclasses.fields(RunRecord)
              if "ndarray" in str(f.type) and f.name != "x_final"]
    listed = [attr for attr, _, _ in TRACE_FIELDS]
    assert sorted(listed) == sorted(arrays)
    assert len(set(listed)) == len(listed)
