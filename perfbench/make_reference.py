"""Regenerate perfbench/reference.json, the stored outputs the gates compare with.

Run from the root of the repository with the code whose outputs are the
reference (the reference in the tree was made from the seed):

    python3 perfbench/make_reference.py

It takes about five minutes on one core, most of it in the table2 studies.
"""

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncstokes.analysis import error_norms, estimate_infsup  # noqa: E402
from ncstokes.cli import run_convergence_study, solve_on_mesh  # noqa: E402
from ncstokes.mesh import build_structured_mesh  # noqa: E402
from ncstokes.pairs import PairId  # noqa: E402
from ncstokes.problems import make_problem  # noqa: E402

import workloads as wl  # noqa: E402


def _triple(errors):
    return [errors.rel_l2_u, errors.rel_h1_u, errors.rel_l2_p]


def table2_reference(levels):
    out = {}
    for k in range(wl.N_VISCOSITIES):
        nu = wl.viscosity(k)
        out[str(k)] = {
            pair.value: [
                _triple(r.errors)
                for r in run_convergence_study(pair, make_problem("mms1", nu=nu), list(levels))
            ]
            for pair in wl.TABLE2_PAIRS
        }
        print(f"table2 {levels[-1]} k={k} nu={nu:g}", file=sys.stderr, flush=True)
    return out


def serve_reference():
    out = {}
    sizes = sorted({n for sizes in wl.SERVE_SIZES.values() for n in sizes})
    for pair in PairId:
        for nu in wl.SERVE_NUS:
            for n in sizes:
                mesh = build_structured_mesh(n)
                problem = make_problem("mms1", nu=nu)
                _, solution = solve_on_mesh(mesh, pair, problem)
                out[f"{pair.value} {nu:g} {n}"] = _triple(error_norms(mesh, solution, problem))
    return out


def infsup_reference():
    levels = sorted({n for levels in wl.INFSUP_LEVELS.values() for n in levels})
    return {
        str(n): estimate_infsup(build_structured_mesh(n), wl.INFSUP_PAIR, n=n).beta_h
        for n in levels
    }


def main():
    reference = {
        "infsup": infsup_reference(),
        "serve-mix": serve_reference(),
        "table2": {size: table2_reference(wl.TABLE2_LEVELS[size]) for size in wl.SIZES},
    }
    with open(wl.REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
