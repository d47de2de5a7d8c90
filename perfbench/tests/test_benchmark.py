"""Self-check of the benchmark: every workload at a tiny size, traced and not.

Each run happens in a copy of the checkout under ``tmp_path`` holding only
what git would commit for the benchmark and the library, as the benchmark is
run elsewhere.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
IGNORE = shutil.ignore_patterns("__pycache__", ".perfbench", ".pytest_cache")

# Per-layer metrics that must be positive because the workload runs that layer.
EXERCISED = {
    "table2": [
        "mesh.build_s", "mesh.edge_table_s", "femspace.dofmap_s", "assembly.system_s",
        "assembly.stiffness_s", "assembly.divergence_s", "assembly.stabilization_s",
        "assembly.mass_s", "assembly.load_s", "assembly.dirichlet_s",
        "assembly.constraints_s", "solver.solve_s", "solver.factor_s", "solver.lu_solve_s",
        "analysis.error_norms_s", "problems.callback_s", "mesh.triangles",
        "assembly.unknowns", "assembly.nnz", "solver.lu_solves", "solver.lu_fill",
    ],
    "serve-mix": [
        "mesh.build_s", "mesh.read_s", "mesh.edge_table_s", "femspace.dofmap_s",
        "assembly.system_s", "assembly.stiffness_s", "assembly.divergence_s",
        "assembly.stabilization_s", "assembly.mass_s", "assembly.load_s",
        "assembly.dirichlet_s", "assembly.constraints_s", "solver.solve_s",
        "solver.uzawa_s", "solver.factor_s", "solver.lu_solve_s", "problems.callback_s",
        "cli.vtk_s", "mesh.triangles", "assembly.unknowns", "assembly.nnz",
        "solver.lu_solves", "solver.lu_fill", "cli.vtk_bytes",
    ],
    "infsup": [
        "mesh.build_s", "mesh.edge_table_s", "femspace.dofmap_s", "assembly.stiffness_s",
        "assembly.divergence_s", "assembly.mass_s", "solver.factor_s", "solver.lu_solve_s",
        "analysis.infsup_s", "mesh.triangles", "solver.lu_solves", "solver.lu_fill",
    ],
}


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    for path in SPEC["paths"] + ["src"]:
        shutil.copytree(ROOT / path, root / path, ignore=IGNORE)
    return root


def run_bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", seconds,
                           "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_declared_metrics(checkout, workload, trace):
    proc = run_bench(checkout, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    expected_positive = EXERCISED[workload] if trace else list(values)
    assert [name for name in expected_positive if not values[name] > 0] == []

    records = list((checkout / ".perfbench" / "results").glob(f"{workload}-seed7-trace{trace}-*.json"))
    record = json.loads(records[-1].read_text(encoding="ascii"))
    env = record["env"]
    assert {"python", "numpy", "scipy", "blas", "blas_threads", "nproc"} <= set(env)
    assert 1 <= env["blas_threads"] <= env["nproc"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=IGNORE)
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_refuses_mixed_environments(tmp_path):
    for side, nproc in (("a", 1), ("b", 64)):
        record = {"workload": "table2", "trace": 0, "size": "full", "metrics": {},
                  "env": {"python": "3", "nproc": nproc}}
        (tmp_path / side).mkdir()
        (tmp_path / side / "r.json").write_text(json.dumps(record), encoding="ascii")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "compare.py"), str(tmp_path / "a"),
         str(tmp_path / "b")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "different environments" in proc.stderr
