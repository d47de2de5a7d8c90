import subprocess
import sys

import numpy as np
import pytest

from ncstokes.cli import main
from ncstokes.mesh import build_structured_mesh, write_mesh


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_convergence_two_levels(tmp_path):
    out = tmp_path / "conv.csv"
    code = run_cli(
        "convergence", "--pair", "ncp1-p1", "--problem", "mms1",
        "--levels", "4,8", "--out", str(out),
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["n", "h", "rel_l2_u", "rel_h1_u", "rel_l2_p", "rate_l2", "rate_h1", "rate_p"]
    assert len(rows) == 2
    assert rows[0][5] == rows[0][6] == rows[0][7] == ""
    assert float(rows[1][5]) > 1.5  # velocity L2 roughly second order
    assert int(rows[0][0]) == 4 and int(rows[1][0]) == 8


def test_convergence_single_level_has_empty_rates(tmp_path):
    out = tmp_path / "conv.csv"
    assert run_cli("convergence", "--levels", "10", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0][5] == "" and rows[0][6] == "" and rows[0][7] == ""


def test_convergence_output_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("convergence", "--levels", "2,4", "--out", str(out1))
    run_cli("convergence", "--levels", "2,4", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_pair_is_config_error(tmp_path):
    assert run_cli("convergence", "--pair", "p2-p1", "--levels", "2", "--out", str(tmp_path / "x.csv")) == 3


def test_bad_levels_are_config_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run_cli("convergence", "--levels", "", "--out", out) == 3
    assert run_cli("convergence", "--levels", "4,2", "--out", out) == 3
    assert run_cli("convergence", "--levels", "a,b", "--out", out) == 3
    assert run_cli("infsup", "--levels", "0", "--out", out) == 3


def test_problem_without_exact_solution_is_config_error(tmp_path):
    assert run_cli(
        "convergence", "--problem", "cavity", "--levels", "2,4", "--out", str(tmp_path / "x.csv")
    ) == 3


def test_unknown_problem_is_config_error(tmp_path):
    assert run_cli("convergence", "--problem", "nope", "--levels", "2", "--out", str(tmp_path / "x.csv")) == 3


def test_missing_output_directory_is_io_error(tmp_path):
    assert run_cli("solve", "--n", "2", "--out", str(tmp_path / "no_dir" / "x.vtk")) == 4


def test_stab_flag_resolution(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run_cli("convergence", "--pair", "ncp1-p1", "--stab", "on", "--levels", "2,4", "--out", out) == 0
    assert run_cli("convergence", "--pair", "ncp1-p0", "--stab", "on", "--levels", "2", "--out", out) == 3
    assert run_cli("convergence", "--pair", "p1-p1-stab", "--stab", "off", "--levels", "2", "--out", out) == 3


def test_infsup_sweep(tmp_path):
    out = tmp_path / "beta.csv"
    assert run_cli("infsup", "--pair", "ncp1-p0", "--levels", "4,8", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["n", "h", "beta_h"]
    betas = [float(r[2]) for r in rows]
    assert len(betas) == 2
    assert all(b > 0.5 for b in betas)


def test_infsup_continuous_pressure_reports_spurious_modes(tmp_path):
    # the structured-grid topology makes this pair singular: beta is zero up
    # to eigensolver noise, and the CSV records that honestly
    out = tmp_path / "beta.csv"
    assert run_cli("infsup", "--pair", "ncp1-p1", "--levels", "4,8", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert all(0.0 <= float(r[2]) <= 1e-6 for r in rows)


def parse_vtk(path):
    sections = {}
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    i = 4
    while i < len(lines):
        token = lines[i].split()
        if token and token[0] in ("POINTS", "CELLS", "CELL_TYPES", "CELL_DATA", "POINT_DATA"):
            sections[token[0]] = (int(token[1]), i)
        i += 1
    return sections, lines


def test_solve_cavity_writes_valid_vtk(tmp_path):
    out = tmp_path / "cavity.vtk"
    assert run_cli("solve", "--problem", "cavity", "--n", "16", "--out", str(out)) == 0
    sections, lines = parse_vtk(out)
    assert sections["POINTS"][0] == 17 * 17
    assert sections["CELLS"][0] == 512
    assert sections["CELL_TYPES"][0] == 512
    assert sections["CELL_DATA"][0] == 512
    assert sections["POINT_DATA"][0] == 289
    cells_at = sections["CELLS"][1]
    assert all(line.startswith("3 ") for line in lines[cells_at + 1 : cells_at + 1 + 512])
    types_at = sections["CELL_TYPES"][1]
    assert all(line == "5" for line in lines[types_at + 1 : types_at + 1 + 512])


def test_solve_p0_pressure_goes_to_cell_data(tmp_path):
    out = tmp_path / "cavity_p0.vtk"
    assert run_cli("solve", "--pair", "ncp1-p0", "--n", "4", "--out", str(out)) == 0
    text = out.read_text()
    assert "POINT_DATA" not in text
    assert text.count("SCALARS pressure double 1") == 1


def test_solve_mms_cell_averages_within_l2_bound(tmp_path):
    # cross-check the exported cell averages against the measured L2 error
    from ncstokes.analysis import error_norms
    from ncstokes.cli import solve_on_mesh
    from ncstokes.pairs import PairId
    from ncstokes.problems import mms_problem

    out = tmp_path / "mms.vtk"
    assert run_cli("solve", "--problem", "mms1", "--n", "8", "--out", str(out)) == 0

    mesh = build_structured_mesh(8)
    problem = mms_problem()
    _, solution = solve_on_mesh(mesh, PairId.NCP1_P1, problem)
    report = error_norms(mesh, solution, problem)

    sections, lines = parse_vtk(out)
    n_cells = mesh.n_triangles
    start = sections["CELL_DATA"][1] + 2
    written = np.array(
        [[float(tok) for tok in line.split()] for line in lines[start : start + n_cells]]
    )
    exact = np.asarray(problem.exact_u(mesh.centroids[:, 0], mesh.centroids[:, 1])).T
    max_err = np.abs(written[:, :2] - exact).max()
    assert max_err <= report.l2_u


def test_solve_from_imported_mesh(tmp_path):
    mesh_path = tmp_path / "square.mesh"
    write_mesh(build_structured_mesh(4), mesh_path)
    out = tmp_path / "imported.vtk"
    assert run_cli("solve", "--mesh", str(mesh_path), "--out", str(out)) == 0
    sections, _ = parse_vtk(out)
    assert sections["CELLS"][0] == 32


def test_solve_with_uzawa_flag(tmp_path):
    out = tmp_path / "uzawa.vtk"
    assert run_cli("solve", "--pair", "ncp1-p0", "--solver", "uzawa", "--n", "4", "--out", str(out)) == 0


def test_numerical_failure_is_reported_with_its_residual(tmp_path, monkeypatch, capsys):
    import ncstokes.solver

    monkeypatch.setattr(
        ncstokes.solver, "_projected_cg", lambda apply_op, b, **kw: np.zeros_like(b)
    )
    code = run_cli("solve", "--problem", "mms1", "--pair", "ncp1-p0", "--solver", "uzawa",
                   "--n", "4", "--out", str(tmp_path / "x.vtk"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: residual ")
    assert "above tolerance" in err and "after 3 corrections" in err


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "ncstokes", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "convergence" in proc.stdout
