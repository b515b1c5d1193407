"""Source-level rules for the package."""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest

import prunadag
from prunadag.core import TRACE_DTYPE, TRACE_FIELDS, RunRecord

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


def test_every_trace_field_reads_as_its_column():
    """A RunRecord keeps its per-iteration values in the one trace
    array: each TRACE_FIELDS attribute reads as its column, as None when
    the column is untraced, and cannot be assigned."""
    arrays = [f.name for f in dataclasses.fields(RunRecord)
              if "ndarray" in str(f.type)]
    assert arrays == ["trace", "x_final"]
    trace = np.zeros(3, TRACE_DTYPE)
    for i, col in enumerate(TRACE_DTYPE.names):
        trace[col] = np.arange(3) + 10 * i
    rec = RunRecord(trace, np.zeros(4), "max iterations")
    listed = [attr for attr, _, _ in TRACE_FIELDS]
    assert len(set(listed)) == len(listed) == len(TRACE_DTYPE.names)
    for attr, col, dtype in TRACE_FIELDS:
        column = getattr(rec, attr)
        assert column.dtype == dtype, attr
        assert np.shares_memory(column, trace), attr
        assert column.tobytes() == trace[col].tobytes(), attr
        with pytest.raises(AttributeError):
            setattr(rec, attr, None)
    for attr, col, _ in TRACE_FIELDS:
        rec.untraced = (col,)
        assert getattr(rec, attr) is None, attr
        assert all(getattr(rec, other) is not None
                   for other, _, _ in TRACE_FIELDS if other != attr)
