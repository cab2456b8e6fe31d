import ast
import glob
import json
import os
import subprocess
import sys
from types import ModuleType

import pytest

import sphtor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_public_names_resolve_and_hold_no_modules():
    assert sphtor.__all__ == sorted(set(sphtor.__all__))
    for name in sphtor.__all__:
        assert not isinstance(getattr(sphtor, name), ModuleType), name
    for gone in (
        "db_functor", "NonConvergence", "report_window",
        "in_forward_hom", "in_backward_hom", "in_backward_ext", "interior_vertices",
        "extended_interval", "exray_leq", "middle_term_multi_by_iteration",
        "ExtendedInterval", "IntervalKind", "db_serre",
    ):
        assert gone not in sphtor.__all__
    for module in ("arcs", "closure", "errors", "extensions", "hammocks", "orbit", "tube"):
        assert module not in sphtor.__all__


@pytest.mark.parametrize(
    "module",
    sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(ROOT, "src", "sphtor", "*.py"))
        if not p.endswith("__init__.py")
    ),
)
def test_module_imports_are_used(module):
    # a deletion that leaves its import behind; only __init__.py re-exports
    with open(os.path.join(ROOT, "src", "sphtor", module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_benchmark_selftest_passes():
    # the benchmark's answer checks must accept the library's own answers
    result = subprocess.run(
        [sys.executable, os.path.join("bench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_benchmark_traced_run_reports_every_layer():
    # a rename of a traced function breaks bench/tracing.py's shims; no timing bound
    result = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "finite_closures",
         "--seed", "0", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [metric["name"] for metric in json.load(fh)["per_layer"]]
    assert len(declared) == 36
    assert set(declared) <= set(report["metrics"])


@pytest.mark.parametrize("workload", ["orbit_enumerate", "torsion_verdicts", "cli_requests"])
def test_benchmark_answers_check(workload):
    # every answer of one round must pass the benchmark's checks: torsion_classes
    # listings, verdicts with replayed witnesses, CLI payloads
    result = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0


@pytest.mark.parametrize(
    "demo", sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "demos", "*.py")))
)
def test_demo_runs(demo):
    # a renamed or removed public name breaks a demo; demo 06 writes under demos/out/
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join("demos", demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
