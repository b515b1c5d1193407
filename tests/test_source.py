"""Source-level rules for the package."""

import ast
import dataclasses
import importlib
import pathlib
import re

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


def _dotted(node) -> str:
    """'np.linalg.norm' for the callee of ``np.linalg.norm(...)``."""
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def _is_full_svd(call: ast.Call) -> bool:
    """A call of numpy's SVD, or of the matrix 2-norm, which is one."""
    name = _dotted(call.func).rsplit(".", 1)[-1]
    if name != "norm":
        return name == "svd"
    ords = call.args[1:2] + [k.value for k in call.keywords if k.arg == "ord"]
    try:
        return any(ast.literal_eval(o) in (2, -2) for o in ords)
    except ValueError:
        return False


def test_no_full_svd_on_the_set_up_path():
    """Lipschitz constants come from problems.spectral_norm_sq, the top
    eigenvalue of the smaller Gram matrix; a full SVD (np.linalg.svd,
    np.linalg.norm(M, 2)) costs several times as much on a wide matrix."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and _is_full_svd(node)]
    assert not found, f"full SVDs in the package: {found}"
    for bad in ("np.linalg.svd(A)", "numpy.linalg.norm(A, 2)",
                "np.linalg.norm(A, ord=2)", "linalg.norm(A, -2)",
                "norm(A, 2)"):
        assert _is_full_svd(ast.parse(bad).body[0].value), bad
    for fine in ("np.linalg.norm(g)", "np.linalg.norm(A, 'fro')",
                 "np.linalg.norm(A, ord=1)", "np.linalg.eigvalsh(A)"):
        assert not _is_full_svd(ast.parse(fine).body[0].value), fine


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


def test_every_config_field_has_one_table_row():
    """Each ExperimentConfig field but the problem's parameters is read by
    one row of harness._KEYS, and each problem parameter row is a key of
    some kind in harness.PROBLEMS: a field or key added without its row
    fails here."""
    from prunadag import harness

    named = [name for name, *_ in harness._KEYS.values() if name is not None]
    assert len(set(named)) == len(named)
    assert set(named) | {"problem_kind", "problem_params"} == {
        f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    params = {key for (section, key), (name, *_) in harness._KEYS.items()
              if name is None}
    assert all(section == "problem" for section, key in harness._KEYS
               if key in params)
    assert params == {key for keys, *_ in harness.PROBLEMS.values()
                      for key in keys}


def test_every_problem_kind_has_one_builder_shape():
    """Each harness.PROBLEMS row is (keys, load, make): a kind loads its
    data once per grid and makes each seed's instance from it, so the
    harness keeps no per-kind stack slot mapping."""
    from prunadag import harness

    assert all(len(row) == 3 for row in harness.PROBLEMS.values())
    tree = ast.parse((SRC / "harness.py").read_text())
    assert "_slot" not in {getattr(node, "name", getattr(node, "id", None))
                           for node in ast.walk(tree)}


def test_every_grid_block_evaluates_through_its_stack():
    """Every problem kind builds a family instance, so the harness has
    one grid oracle path, the stack's block oracle: it names no
    ``row_oracle``. A seed is its ``(instance, test)`` pair: the harness
    has no ``ProblemInstance``, and neither it nor the CLI names
    ``Problem``. A built-in family is itself a problem: no class of
    problems.py defines ``problem``, and no module calls ``.problem()``."""
    from prunadag import harness

    tree = ast.parse((SRC / "harness.py").read_text())
    assert "row_oracle" not in {getattr(node, "attr", getattr(node, "id",
                                                              None))
                                for node in ast.walk(tree)}
    assert not hasattr(harness, "ProblemInstance")
    for module in ("harness.py", "cli.py"):
        nodes = list(ast.walk(ast.parse((SRC / module).read_text())))
        names = {getattr(node, "attr", getattr(node, "id", None))
                 for node in nodes} | {node.name for node in nodes
                                       if isinstance(node, ast.alias)}
        assert "Problem" not in names, module
    problems = ast.parse((SRC / "problems.py").read_text())
    assert not [node.name for node in problems.body
                if isinstance(node, ast.ClassDef)
                for f in node.body
                if isinstance(f, ast.FunctionDef) and f.name == "problem"]
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        assert not [node.lineno for node in ast.walk(ast.parse(
            path.read_text())) if isinstance(node, ast.Call)
            and _dotted(node.func).endswith(".problem")], path.name


def test_each_family_states_its_math_once():
    """A class of problems.py that defines ``block_oracle`` takes its
    one-vector ``gradient`` and ``value`` from the shared one-row
    wrapper and defines no per-vector math of its own."""
    tree = ast.parse((SRC / "problems.py").read_text())
    families = {node.name: {f.name for f in node.body
                            if isinstance(f, ast.FunctionDef)}
                for node in tree.body if isinstance(node, ast.ClassDef)}
    with_oracle = {name for name, defs in families.items()
                   if "block_oracle" in defs}
    assert {"LeastSquaresProblem", "SparseCodingProblem",
            "LogisticProblem"} <= with_oracle
    found = {name: sorted(families[name] & {"gradient", "value", "margins"})
             for name in with_oracle}
    assert not any(found.values()), f"math beside block_oracle: {found}"


def test_methods_are_named_only_in_their_tables():
    """harness.METHODS gives each method's step family and per-row
    parameter, and harness.FAMILIES each family's batch entry:
    ``_run_block`` and ``run_experiment`` read the tables and name no
    method or family, and verify picks its runs by their traced
    columns, without importing the harness."""
    from prunadag import harness

    assert {family for family, _ in harness.METHODS.values()} == set(
        harness.FAMILIES)
    names = set(harness.METHODS) | set(harness.FAMILIES)

    def named(node) -> list:
        return sorted({n.value for n in ast.walk(node)
                       if isinstance(n, ast.Constant)
                       and isinstance(n.value, str) and n.value in names})

    tree = ast.parse((SRC / "harness.py").read_text())
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    verify = ast.parse((SRC / "verify.py").read_text())
    found = {name: named(funcs[name])
             for name in ("_run_block", "run_experiment")}
    found["verify.py"] = named(verify)
    assert not any(found.values()), f"method or family literals: {found}"
    imported = [part for node in ast.walk(verify)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in [getattr(node, "module", None) or "",
                             *(alias.name for alias in node.names)]
                for part in name.split(".")]
    assert "harness" not in imported


def _drive() -> ast.FunctionDef:
    tree = ast.parse((SRC / "optimizer.py").read_text())
    drive, = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "drive"]
    return drive


def test_each_iterate_and_instance_is_evaluated_once():
    """``optimizer.drive`` evaluates every iterate, x_final included,
    through its one ``checked_oracles`` call, and a stack holds every
    array of its family per slot: problems.py names no ``SHARED`` second
    storage path."""
    drive = _drive()
    calls = [node for node in ast.walk(drive) if isinstance(node, ast.Call)
             and _dotted(node.func) == "checked_oracles"]
    assert len(calls) == 1
    problems = ast.parse((SRC / "problems.py").read_text())
    assert not [node.lineno for node in ast.walk(problems)
                if isinstance(node, ast.Name) and node.id == "SHARED"
                or isinstance(node, ast.Attribute) and node.attr == "SHARED"]


def test_drive_takes_no_trace_switch():
    """``optimizer.drive`` always records the objective and counts the
    entries below the one threshold ``optimizer.DELTA_TRACE``: it takes
    the block, its list of parts and oracle, and the stopping rule,
    nothing more."""
    args = _drive().args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] \
        == ["problems", "X0", "parts", "oracle", "grad_tol", "max_iters"]
    assert args.vararg is None and args.kwarg is None


def test_blocks_run_only_through_drive():
    """A block of runs is ``optimizer.drive`` over a list of parts: no
    optimizer module defines a ``*_batch`` wrapper around it."""
    found = [f"{name}:{node.name}" for name in ("optimizer.py", "baselines.py")
             for node in ast.walk(ast.parse((SRC / name).read_text()))
             if isinstance(node, ast.FunctionDef)
             and node.name.endswith("_batch")]
    assert not found, f"batch wrappers: {found}"


def test_oracles_take_no_objective_switch():
    """Every oracle call gives the gradient and the objective: no oracle
    signature takes an ``objective`` switch, and ``BlockOracle`` lays
    its rows out one way, with no second ``every`` layout."""
    def defs(node) -> dict:
        return {f.name: f for f in node.body
                if isinstance(f, (ast.FunctionDef, ast.ClassDef))}
    opt = defs(ast.parse((SRC / "optimizer.py").read_text()))
    prob = defs(ast.parse((SRC / "problems.py").read_text()))
    core = defs(ast.parse((SRC / "core.py").read_text()))
    oracles = {"checked_oracles": opt["checked_oracles"],
               "row_oracle.oracle": defs(opt["row_oracle"])["oracle"],
               "BlockOracle.__call__": defs(prob["BlockOracle"])["__call__"],
               "_Family.__call__": defs(prob["_Family"])["__call__"],
               "Problem.__call__": defs(core["Problem"])["__call__"]}
    oracles.update({f"{name}.block_oracle": defs(cls)["block_oracle"]
                    for name, cls in prob.items()
                    if isinstance(cls, ast.ClassDef)
                    and "block_oracle" in defs(cls)})
    assert len(oracles) == 8
    found = [name for name, f in oracles.items()
             if "objective" in {a.arg for a in f.args.posonlyargs
                                + f.args.args + f.args.kwonlyargs}]
    assert not found, f"oracles with an objective switch: {found}"
    assert not [node.lineno for node in ast.walk(prob["BlockOracle"])
                if isinstance(node, ast.Attribute) and node.attr == "every"]


def test_kernel_build_keeps_ieee_arithmetic():
    """The compiled kernel is bitwise the steps.py reference only if gcc
    neither fuses nor reassociates float operations, and the cached
    module runs on any machine only if it is not tuned to the one that
    built it."""
    from prunadag import _kernels

    flags = set(_kernels.CFLAGS)
    assert {"-ffp-contract=off", "-fno-fast-math"} <= flags
    assert not flags & {"-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                        "-march=native"}


def test_kernel_compiles_without_warnings(tmp_path):
    """The production build of the kernel source, with every common
    gcc warning as an error."""
    import subprocess
    import sysconfig

    from prunadag import _kernels

    cmd = [_kernels.CC, *_kernels.CFLAGS, "-Wall", "-Wextra", "-Werror",
           f"-I{sysconfig.get_paths()['include']}", str(_kernels.SOURCE),
           "-o", str(tmp_path / "kernel.so"), "-lm"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def readme_references(text: str) -> list:
    """The backticked ``prunadag.<module>.<name>`` and ``<module>.<name>``
    references of a README text, fenced code blocks and file names such
    as ``_kernels.c`` left out."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    modules = "|".join(p.stem for p in SRC.glob("*.py")
                       if p.stem != "__init__")
    name = re.compile(rf"(?<![\w./])(?:prunadag\.)?(?:{modules})"
                      rf"(?!\.(?:py|c)\b)(?:\.\w+)+")
    return sorted({ref for span in re.findall(r"`([^`]+)`", text)
                   for ref in name.findall(span)})


def test_readme_names_resolve():
    """Every module attribute that README.md names in backticks exists,
    so a removed or renamed function cannot stay documented; a config
    key such as ``pruning.sigma`` is not an attribute."""
    from prunadag import harness

    readme = (pathlib.Path(__file__).resolve().parents[1]
              / "README.md").read_text()
    refs = readme_references(readme)
    assert "optimizer.drive" in refs and "prunadag.core.TRACE_DTYPE" in refs
    assert readme_references("`prunadag.optimizer.gone`, `optimizer.py`, "
                             "`src/prunadag/_kernels.c`, `np.save`") == [
        "prunadag.optimizer.gone"]
    missing = []
    for ref in refs:
        module, *names = ref.removeprefix("prunadag.").split(".")
        if len(names) == 1 and (module, names[0]) in harness._KEYS:
            continue
        obj = importlib.import_module(f"prunadag.{module}")
        for attr in names:
            if not hasattr(obj, attr):
                missing.append(ref)
                break
            obj = getattr(obj, attr)
    assert not missing, f"README names that do not resolve: {missing}"


def test_readme_quick_start_runs():
    """The ``python`` block under "## Library quick start" in README.md
    runs as written, so the snippet cannot drift from the API."""
    readme = (pathlib.Path(__file__).resolve().parents[1]
              / "README.md").read_text()
    section = readme.split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    scope: dict = {}
    exec(compile(code, "README.md quick start", "exec"), scope)
    assert scope["rec"].reason == "gradient tolerance"
    assert np.isfinite([scope["rho"], scope["omega"]]).all()
