"""Smoke test of the benchmark itself, at a tiny run length.

Run with:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_reported_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "0.1", "--trace", str(trace),
                     "--max-iters", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared(trace)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_gate_rejects_a_config_that_stops_early(tmp_path):
    workload = workloads.WORKLOADS["ls_desk"]
    text = workload.config_text(0, str(tmp_path / "bundle"), 50)
    early = text.replace(f"grad_tol = {workloads.GRAD_TOL!r}", "grad_tol = 1e3")
    assert early != text
    cfg_path = tmp_path / "early.ini"
    cfg_path.write_text(early)
    rep = measure.one_repeat(str(cfg_path))
    stopped = [f for f in rep.failures
               if "of 50 iterations (gradient tolerance)" in f]
    assert len(stopped) == len(workload.methods.split(",")) * workload.seeds


def test_gate_rejects_a_changed_bundle():
    def rep(digest):
        return measure.Repeat(traced=False, grid_s=1.0, verify_s=1.0,
                              bundle_bytes=1, bundle_rows=1, digest=digest,
                              iterations={}, checks=1)

    checks, failures = measure.check_digests([rep("a"), rep("a"), rep("b")])
    assert checks == 3 and failures == ["repeat 2: bundle digest differs"]


def test_missing_wrap_point_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(spans, "WRAP_POINTS", spans.WRAP_POINTS + (
        ("kernels.gone", "prunadag._kernels", "no_such_kernel"),))
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["prunadag._kernels.no_such_kernel"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "--workload", "ls_desk", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
