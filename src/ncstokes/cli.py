"""Command-line interface: convergence studies, single solves, inf-sup sweeps.

Exit codes are a stable scripting contract: 0 success, 2 numerical failure
(``NumericalError``), 3 configuration error (``ValueError``, including
``MeshParseError`` and bad arguments), 4 I/O error (``OSError``).
"""

from __future__ import annotations

import argparse
import sys

from .analysis import ConvergenceRecord, convergence_rates, error_norms, estimate_infsup
from .assembly import apply_constraints, build_saddle_system
from .errors import NumericalError
from .femspace import SpaceKind
from .mesh import _format_rows, build_structured_mesh, read_mesh
from .pairs import PairId, parse_pair
from .problems import make_problem
from .solver import solve_saddle

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    # argparse's own exit status 2 would read as a numerical failure
    def error(self, message):
        raise ValueError(message)


def _parse_levels(text):
    if not text or not text.strip():
        raise ValueError("levels must be a nonempty comma-separated list")
    try:
        levels = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"levels must be integers, got '{text}'") from None
    if any(n < 1 for n in levels):
        raise ValueError("levels must be positive")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    return levels


def _resolve_pair(name, stab):
    pair = parse_pair(name)
    if stab is None or pair.stabilized == (stab == "on"):
        return pair
    swap = {PairId.NCP1_P1: PairId.NCP1_P1_STAB, PairId.NCP1_P1_STAB: PairId.NCP1_P1}
    if pair in swap:
        return swap[pair]
    raise ValueError(f"pair '{name}' has no --stab {stab} variant")


def solve_on_mesh(mesh, pair, problem, method="direct"):
    """Assemble, constrain, and solve one problem on one mesh."""
    system, bc = build_saddle_system(mesh, pair, problem)
    reduced = apply_constraints(system, bc)
    solution = solve_saddle(reduced, method=method)
    return system, solution


def run_convergence_study(pair, problem, levels, method=None):
    """Solve at every level and return records with rate columns filled.

    ``method`` is passed to ``solve_saddle``. ``None`` picks it from the pair:
    ``"uzawa"`` for a P0 pressure (``ncp1-p0``), whose saddle matrix has a
    zero pressure block and fills about ten times its size when factored,
    while the Schur CG factors only the scalar interior stiffness and takes
    a count of steps that does not grow with the level (about 25 at n = 10
    to 60); ``"direct"`` for a P1 pressure, where that count grows with the
    level.
    """
    if not problem.has_exact_solution:
        raise ValueError(f"problem '{problem.name}' has no exact solution")
    if method is None:
        method = "uzawa" if pair.pressure_space is SpaceKind.P0_SCALAR else "direct"
    records = []
    for n in levels:
        mesh = build_structured_mesh(n)
        _, solution = solve_on_mesh(mesh, pair, problem, method=method)
        records.append(
            ConvergenceRecord(n=n, h=mesh.h, errors=error_norms(mesh, solution, problem))
        )
    return convergence_rates(records)


def _fmt_err(x):
    return f"{x:.6g}"


def _fmt_rate(x):
    return "" if x is None else f"{x:.4f}"


def write_convergence_csv(path, records):
    lines = ["n,h,rel_l2_u,rel_h1_u,rel_l2_p,rate_l2,rate_h1,rate_p\n"]
    for r in records:
        e = r.errors
        lines.append(
            f"{r.n},{_fmt_err(r.h)},{_fmt_err(e.rel_l2_u)},{_fmt_err(e.rel_h1_u)},"
            f"{_fmt_err(e.rel_l2_p)},{_fmt_rate(r.rate_l2)},{_fmt_rate(r.rate_h1)},"
            f"{_fmt_rate(r.rate_p)}\n"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def write_infsup_csv(path, estimates):
    lines = ["n,h,beta_h\n"]
    for est in estimates:
        lines.append(f"{est.n},{_fmt_err(est.h)},{est.beta_h:.8g}\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def write_vtk(path, mesh, solution, title="ncstokes solution"):
    """Write the solution as a legacy ASCII VTK unstructured grid.

    The velocity is exported as per-cell vectors (element averages, since the
    midpoint-continuous field is discontinuous at vertices); a continuous
    linear pressure is written as point data, a piecewise constant one as
    cell data.
    """
    n_tri = mesh.n_triangles
    vel_dm = solution.u.dofmap
    cell_avg = solution.u.values[vel_dm.cell_dofs].reshape(n_tri, 3, 2).mean(axis=1)
    point_data = f"POINT_DATA {mesh.n_vertices}\n"
    if solution.p.space is SpaceKind.P0_SCALAR:
        point_data = ""
    text = (
        f"# vtk DataFile Version 2.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        f"POINTS {mesh.n_vertices} double\n"
        + _format_rows("%.12g %.12g 0.0\n", mesh.vertices)
        + f"CELLS {n_tri} {4 * n_tri}\n"
        + _format_rows("3 %d %d %d\n", mesh.triangles)
        + f"CELL_TYPES {n_tri}\n"
        + "5\n" * n_tri
        + f"CELL_DATA {n_tri}\nVECTORS velocity double\n"
        + _format_rows("%.12g %.12g 0.0\n", cell_avg)
        + f"{point_data}SCALARS pressure double 1\nLOOKUP_TABLE default\n"
        + _format_rows("%.12g\n", solution.p.values)
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def cmd_convergence(args):
    """Run a convergence study and write its CSV table."""
    problem = make_problem(args.problem, nu=args.nu)
    records = run_convergence_study(args.pair, problem, args.levels, method=args.solver)
    write_convergence_csv(args.out, records)
    return EXIT_OK


def cmd_solve(args):
    """Solve one problem and write the fields as legacy VTK."""
    problem = make_problem(args.problem, nu=args.nu)
    mesh = read_mesh(args.mesh) if args.mesh else build_structured_mesh(args.n)
    _, solution = solve_on_mesh(mesh, args.pair, problem, method=args.solver)
    write_vtk(args.out, mesh, solution, title=f"{problem.name} {args.pair.value}")
    return EXIT_OK


def cmd_infsup(args):
    """Estimate the inf-sup constant per level and write the CSV table."""
    estimates = [estimate_infsup(build_structured_mesh(n), args.pair, n=n) for n in args.levels]
    write_infsup_csv(args.out, estimates)
    return EXIT_OK


def _build_parser():
    parser = _Parser(prog="ncstokes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, solves=True, solver="direct"):
        p.add_argument("--pair", default="ncp1-p1", help="discretization pair")
        if solves:
            p.add_argument("--nu", type=float, default=1.0, help="viscosity (default 1)")
            p.add_argument("--solver", choices=("direct", "uzawa"), default=solver,
                           help="saddle solver (default: "
                           f"{solver or 'uzawa for a P0 pressure, direct otherwise'})")
        p.add_argument("--stab", choices=("on", "off"), default=None,
                       help="override the pair's stabilization")

    p = sub.add_parser("convergence", help="manufactured-solution convergence table")
    common(p, solver=None)  # run_convergence_study picks the solver from the pair
    p.add_argument("--problem", default="mms1")
    p.add_argument("--levels", required=True, help="comma-separated subdivisions")
    p.add_argument("--out", default="convergence.csv")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("solve", help="single solve written as legacy VTK")
    common(p)
    p.add_argument("--problem", default="cavity")
    p.add_argument("--n", type=int, default=16, help="structured mesh subdivisions")
    p.add_argument("--mesh", default="", help="path of an imported mesh file")
    p.add_argument("--out", default="solution.vtk")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("infsup", help="discrete inf-sup constant sweep")
    common(p, solves=False)
    p.add_argument("--levels", required=True, help="comma-separated subdivisions")
    p.add_argument("--out", default="infsup.csv")
    p.set_defaults(func=cmd_infsup)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.pair = _resolve_pair(args.pair, args.stab)
        if "levels" in args:
            args.levels = _parse_levels(args.levels)
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # before ValueError: io.UnsupportedOperation is both
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    sys.exit(main())
