import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncstokes
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


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "golden, args",
    [
        ("convergence_ncp1-p0_mms1_nu0.01.csv",
         ["convergence", "--pair", "ncp1-p0", "--problem", "mms1", "--levels", "10,20,30",
          "--nu", "0.01"]),
        ("solve_ncp1-p0_mms1_n12.vtk",
         ["solve", "--pair", "ncp1-p0", "--solver", "direct", "--problem", "mms1", "--n", "12"]),
        ("solve_ncp1-p0_cavity_n12.vtk",
         ["solve", "--pair", "ncp1-p0", "--solver", "direct", "--problem", "cavity", "--n", "12"]),
        # a continuous pressure (POINT_DATA) on an imported, jittered and flipped mesh
        ("solve_ncp1-p1_cavity_jittered_n6.vtk",
         ["solve", "--pair", "ncp1-p1", "--solver", "direct", "--problem", "cavity",
          "--mesh", str(DATA / "jittered_flipped_n6.mesh")]),
        ("infsup_ncp1-p0_n2-16.csv", ["infsup", "--pair", "ncp1-p0", "--levels", "2,4,8,16"]),
    ],
)
def test_output_matches_golden_bytes(tmp_path, golden, args):
    out = tmp_path / golden
    assert run_cli(*args, "--out", str(out)) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


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

    monkeypatch.setattr(ncstokes.solver, "_cg", lambda apply_op, b, **kw: np.zeros_like(b))
    code = run_cli("solve", "--problem", "mms1", "--pair", "ncp1-p0", "--solver", "uzawa",
                   "--n", "4", "--out", str(tmp_path / "x.vtk"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: residual ")
    assert "above tolerance" in err
    assert "after 3 corrections (A_II: MMD_AT_PLUS_A, static pivots)" in err


_NO_LEVELS = "error: levels must be a nonempty comma-separated list\n"
_NO_FILE = "i/o error: [Errno 2] No such file or directory: '{tmp}/"

# (arguments, exit code, exact stderr); "{tmp}" stands for the test's directory
FAILURE_CONTRACT = {
    "no-command": ([], 3, "error: the following arguments are required: command\n"),
    "missing-levels": (["convergence"], 3,
                       "error: the following arguments are required: --levels\n"),
    "bad-int": (["solve", "--n", "abc"], 3, "error: argument --n: invalid int value: 'abc'\n"),
    "bad-choice": (["solve", "--solver", "foo"], 3,
                   "error: argument --solver: invalid choice: 'foo' "
                   "(choose from 'direct', 'uzawa')\n"),
    "unknown-flag": (["solve", "--bogus"], 3, "error: unrecognized arguments: --bogus\n"),
    # the inf-sup sweep neither solves nor depends on the viscosity
    "infsup-nu": (["infsup", "--nu", "1", "--levels", "2"], 3,
                  "error: unrecognized arguments: --nu 1\n"),
    "infsup-solver": (["infsup", "--solver", "uzawa", "--levels", "2"], 3,
                      "error: unrecognized arguments: --solver uzawa\n"),
    "levels-empty": (["convergence", "--levels", ""], 3, _NO_LEVELS),
    "levels-blank": (["convergence", "--levels", " "], 3, _NO_LEVELS),
    "levels-not-int": (["convergence", "--levels", "a,b"], 3,
                       "error: levels must be integers, got 'a,b'\n"),
    "levels-zero": (["infsup", "--levels", "0"], 3, "error: levels must be positive\n"),
    "levels-decreasing": (["convergence", "--levels", "4,2"], 3,
                          "error: levels must be strictly increasing\n"),
    "unknown-pair": (["convergence", "--pair", "p2-p1", "--levels", "2"], 3,
                     "error: unknown pair 'p2-p1' "
                     "(choose from: ncp1-p0, ncp1-p1, ncp1-p1-stab, p1-p1-stab)\n"),
    "no-stab-variant": (["convergence", "--pair", "ncp1-p0", "--stab", "on", "--levels", "2"], 3,
                        "error: pair 'ncp1-p0' has no --stab on variant\n"),
    "no-unstab-variant": (["infsup", "--pair", "p1-p1-stab", "--stab", "off", "--levels", "2"], 3,
                          "error: pair 'p1-p1-stab' has no --stab off variant\n"),
    "unknown-problem": (["convergence", "--problem", "nope", "--levels", "2"], 3,
                        "error: unknown problem 'nope' (choose from: cavity, mms1)\n"),
    "no-exact-solution": (["convergence", "--problem", "cavity", "--levels", "2"], 3,
                          "error: problem 'cavity' has no exact solution\n"),
    "nu-zero": (["solve", "--nu", "0", "--n", "2"], 3, "error: viscosity must be positive\n"),
    "nu-negative": (["convergence", "--nu", "-1", "--levels", "2"], 3,
                    "error: viscosity must be positive\n"),
    "nu-nan": (["solve", "--nu", "nan", "--n", "2"], 3,
               "error: viscosity must be finite, got nan\n"),
    "nu-inf": (["solve", "--nu", "inf", "--n", "2"], 3,
               "error: viscosity must be finite, got inf\n"),
    "n-zero": (["solve", "--n", "0"], 3, "error: n must be a positive integer\n"),
    "missing-mesh": (["solve", "--mesh", "{tmp}/missing.mesh"], 4, _NO_FILE + "missing.mesh'\n"),
    "missing-out-dir": (["solve", "--n", "2", "--out", "{tmp}/no_dir/x.vtk"], 4,
                        _NO_FILE + "no_dir/x.vtk'\n"),
    "malformed-mesh": (["solve", "--mesh", "{tmp}/bad.mesh"], 3,
                       "error: line 4: vertex coordinates must be numbers\n"),
    "overflowing-index": (["solve", "--mesh", "{tmp}/overflow.mesh"], 3,
                          "error: line 5: number does not fit in int64\n"),
    "infinite-coordinate": (["solve", "--mesh", "{tmp}/infinite.mesh"], 3,
                            "error: line 3: vertex coordinates must be finite\n"),
    "non-ascii-mesh": (["solve", "--mesh", "{tmp}/accented.mesh"], 3,
                       "error: line 1: byte 0xc3 is not ASCII\n"),
    "folded-mesh": (["solve", "--mesh", "{tmp}/folded.mesh"], 3,
                    "error: edge (0, 1) has triangles 0 and 1 on the same side\n"),
    "doubled-triangle": (["solve", "--mesh", "{tmp}/doubled.mesh"], 3,
                         "error: edge (0, 1) has triangles 0 and 1 on the same side\n"),
    "unused-vertex": (["solve", "--mesh", "{tmp}/unused.mesh"], 3,
                      "error: vertex 4 is in no triangle\n"),
    "no-triangles": (["solve", "--mesh", "{tmp}/empty.mesh"], 3,
                     "error: mesh has no triangles\n"),
    "uzawa-failure": (["solve", "--problem", "mms1", "--pair", "ncp1-p0", "--solver", "uzawa",
                       "--n", "4"], 2,
                      "numerical failure: residual 4.176e-01 above tolerance 1.507e-09 "
                      "after 3 corrections (A_II: MMD_AT_PLUS_A, static pivots)\n"),
}


@pytest.mark.parametrize("case", FAILURE_CONTRACT)
def test_failure_contract(tmp_path, monkeypatch, capsys, case):
    import ncstokes.solver

    # Uzawa's inner solve returns zeros; only the uzawa row reaches it
    monkeypatch.setattr(ncstokes.solver, "_cg", lambda apply_op, b, **kw: np.zeros_like(b))
    (tmp_path / "bad.mesh").write_text("3 1\n0 0\n1 0\n0 x\n0 1 2\n")
    (tmp_path / "overflow.mesh").write_text("3 1\n0 0\n1 0\n0 1\n0 1 99999999999999999999\n")
    (tmp_path / "infinite.mesh").write_text("3 1\n0 0\n1e999 0\n0 1\n0 1 2\n")
    (tmp_path / "accented.mesh").write_bytes("# maillage généré\n3 1\n0 0\n1 0\n0 1\n0 1 2\n"
                                             .encode("utf-8"))
    (tmp_path / "folded.mesh").write_text("4 2\n0 0\n1 0\n0 1\n0.2 0.3\n0 1 2\n0 1 3\n")
    (tmp_path / "doubled.mesh").write_text("3 2\n0 0\n1 0\n0 1\n0 1 2\n0 1 2\n")
    (tmp_path / "unused.mesh").write_text("5 2\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n0 1 2\n0 2 3\n")
    (tmp_path / "empty.mesh").write_text("3 0\n0 0\n1 0\n0 1\n")
    args, code, stderr = FAILURE_CONTRACT[case]
    args = [a.format(tmp=tmp_path) for a in args]
    if args and "--out" not in args:
        args += ["--out", str(tmp_path / "out")]
    assert (run_cli(*args), capsys.readouterr().err) == (code, stderr.format(tmp=tmp_path))
    assert not (tmp_path / "out").exists()


def test_factor_breakdown_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    import ncstokes.solver

    def breakdown(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(ncstokes.solver.spla, "splu", breakdown)
    out = tmp_path / "beta.csv"
    assert run_cli("infsup", "--pair", "ncp1-p0", "--levels", "4", "--out", str(out)) == 2
    assert capsys.readouterr().err == ("numerical failure: factorization failed "
                                       "(MMD_AT_PLUS_A, static pivots): "
                                       "Factor is exactly singular\n")
    assert not out.exists()


def test_numerical_errors_share_one_base():
    from ncstokes import errors

    for cls in (errors.SingularSystemError, errors.IterationDivergenceError,
                errors.EigenNonConvergenceError):
        assert issubclass(cls, errors.NumericalError) and issubclass(cls, RuntimeError)


def test_every_public_name_resolves():
    # a removal that leaves its export behind fails here, not at a user's import
    names = ncstokes.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(ncstokes, name)] == []


def test_module_entry_point_help():
    # the subprocess imports the same package as this test, installed or not
    package_root = str(Path(ncstokes.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )}
    proc = subprocess.run(
        [sys.executable, "-m", "ncstokes", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "convergence" in proc.stdout
