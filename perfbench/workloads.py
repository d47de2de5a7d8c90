"""Seeded inputs, timed operations and correctness gates of the three workloads.

Each workload turns a seed into inputs during ``setup`` and then yields
groups of operations. An operation is what one user waits for: a two-pair
convergence study (``table2``), one ``ncstokes solve`` request
(``serve-mix``) or one inf-sup sweep (``infsup``). Only ``Op.run`` is timed;
``Op.check`` applies the correctness gates afterwards.

The library is reached through ``ncstokes.cli`` module attributes, the way
the command line reaches it, so the traced run can wrap those names. The
gates use functions bound at import time and are therefore never traced.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import ncstokes.cli as cli
from ncstokes.analysis import error_norms
from ncstokes.mesh import Mesh, write_mesh
from ncstokes.pairs import PairId
from ncstokes.problems import make_problem
from ncstokes.solver import divergence_residual

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance against the seed's stored errors and inf-sup constants.
# Direct and Uzawa solves of one system agree to 1.1e-8 in every norm.
ERROR_RTOL = 1e-6
BETA_RTOL = 1e-8
DIVERGENCE_LIMIT = 1e-9
# Imported (flipped and jittered) meshes have no stored errors; they must stay
# within this factor of the structured reference at the same n. Over 25 seeds
# of every mesh size the largest ratio measured on the seed was 4.9.
IMPORTED_ERROR_FACTOR = 10.0

SIZES = ("full", "tiny")

TABLE2_LEVELS = {"full": (10, 20, 30, 40, 50, 60), "tiny": (4, 8)}
TABLE2_PAIRS = (PairId.NCP1_P1, PairId.NCP1_P0)
# Final-row pressure rate gates of the paper's table; the tiny levels are too
# coarse for asymptotic rates and are checked against stored errors only.
TABLE2_RATE_P = {"full": {PairId.NCP1_P1: (1.9, math.inf), PairId.NCP1_P0: (0.95, 1.1)}}
# SuperLU's threshold pivoting makes the fill of one factorization jump by up
# to 1.6x under a 1e-9 relative change of the viscosity. A seeded draw of
# viscosities would measure the draw, so every run uses the same fixed,
# never-repeating sequence in blocks of VISCOSITY_BLOCK and the seed orders
# each block. A run measures whole blocks, and one block of seven studies fits
# a 40 s window at up to 5.7 s per study. Past N_VISCOSITIES studies in one
# run the sequence wraps.
VISCOSITY_BLOCK = 7
N_VISCOSITIES = 60

# On the seed, solve_saddle(method="uzawa") raises IterationDivergenceError,
# its final residual just above tol * ||rhs||, for mms1 at nu = 0.01 on
# structured meshes with ncp1-p1 at n = 6, 17, 21, 22 and ncp1-p1-stab at
# n = 15, 17, 19, 23 (and 32, 48), and on about 30% of imported meshes with
# ncp1-p1 or ncp1-p1-stab (rarely ncp1-p0). No operation of a run may fail, so
# the sizes avoid the structured cases and the imported class, for every
# pair, is left out of the deck.
SERVE_SIZES = {"full": (4, 8, 10, 12, 16, 18, 20, 24), "tiny": (4, 8)}
SERVE_PROBLEMS = ("cavity", "mms1")
SERVE_NUS = (1.0, 0.01)
SERVE_SOLVERS = ("direct", "uzawa")
MESH_KINDS = ("structured", "imported")
MESH_JITTER = 0.2

INFSUP_LEVELS = {"full": (8, 16, 24, 32), "tiny": (4, 8)}
INFSUP_PAIR = PairId.NCP1_P0


def viscosity(k):
    """The k-th table2 viscosity: golden-ratio points, log-uniform on [0.005, 0.02]."""
    u = (0.5 + (k % N_VISCOSITIES) * 0.6180339887498949) % 1.0
    return float(f"{0.005 * 4.0 ** u:.6g}")


def load_reference():
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


def _close(value, reference, rtol):
    return abs(value - reference) <= rtol * abs(reference)


def _error_triple(report):
    return (report.rel_l2_u, report.rel_h1_u, report.rel_l2_p)


@dataclass
class Op:
    """One timed operation.

    ``label`` names the request class in failure reports and ``key`` is the
    (mesh, pair, viscosity) identity used for the repeat share.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    key: Optional[tuple] = None


class Table2:
    """Closed loop over two-pair ``run_convergence_study`` calls on ``mms1``."""

    name = "table2"

    def __init__(self, size, reference):
        self.levels = TABLE2_LEVELS[size]
        self.rate_gates = TABLE2_RATE_P.get(size, {})
        self.reference = reference["table2"][size]

    def setup(self, rng, workdir):
        self.rng = rng

    def warm_up(self):
        for pair in TABLE2_PAIRS:
            cli.run_convergence_study(pair, make_problem("mms1", nu=0.01), [2, 4])

    def groups(self, wrap):
        for block in itertools.count():
            order = self.rng.permutation(VISCOSITY_BLOCK)
            yield [self._op(block * VISCOSITY_BLOCK + int(i), wrap) for i in order]

    def _op(self, k, wrap):
        nu = viscosity(k)

        def run():
            return {
                pair: cli.run_convergence_study(
                    pair, wrap(make_problem("mms1", nu=nu)), list(self.levels)
                )
                for pair in TABLE2_PAIRS
            }

        def check(records_by_pair):
            problems = []
            expected = self.reference[str(k % N_VISCOSITIES)]
            for pair, records in records_by_pair.items():
                for record, ref in zip(records, expected[pair.value], strict=True):
                    if not all(
                        _close(v, r, ERROR_RTOL)
                        for v, r in zip(_error_triple(record.errors), ref)
                    ):
                        problems.append(f"{pair.value} n={record.n} errors differ from reference")
                low, high = self.rate_gates.get(pair, (-math.inf, math.inf))
                if not low <= records[-1].rate_p <= high:
                    problems.append(f"{pair.value} rate_p {records[-1].rate_p:.4f} outside [{low}, {high}]")
            return problems

        return Op(label=f"study nu={nu:g}", run=run, check=check)


def perturbed_mesh(n, rng):
    """A unit-square mesh with seeded diagonal flips and interior jitter.

    Interior vertices move by at most ``MESH_JITTER * h / sqrt(2)`` per axis,
    which keeps every cell convex, so either diagonal gives counterclockwise
    triangles. The topology is generic, unlike the structured grid.
    """
    side = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(side, side)
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    interior = (
        (vertices[:, 0] > 0) & (vertices[:, 0] < 1) & (vertices[:, 1] > 0) & (vertices[:, 1] < 1)
    )
    vertices[interior] += rng.uniform(-MESH_JITTER, MESH_JITTER, (int(interior.sum()), 2)) / n
    flips = rng.random(n * n) < 0.5
    triangles = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10, v01 = v00 + 1, v00 + n + 1
            v11 = v01 + 1
            if flips[j * n + i]:
                triangles += [(v00, v10, v01), (v10, v11, v01)]
            else:
                triangles += [(v00, v10, v11), (v00, v11, v01)]
    return Mesh(vertices, np.asarray(triangles, dtype=np.int64))


class ServeMix:
    """Closed loop, one client, over independent ``solve`` requests.

    A deck holds one request of every (problem, pair, viscosity, solver, mesh
    kind) class but the failing one (see ``SERVE_SIZES``), 60 in all;
    structured classes get sizes and imported classes get pool meshes from
    balanced seeded shuffles, so every deck costs about the same. Decks are
    shuffled by the seed.
    """

    name = "serve-mix"

    def __init__(self, size, reference):
        self.sizes = SERVE_SIZES[size]
        self.reference = reference["serve-mix"]

    def setup(self, rng, workdir):
        self.rng = rng
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.mesh_paths = []
        for n in self.sizes:
            path = self.workdir / f"mesh-{n}.txt"
            write_mesh(perturbed_mesh(n, rng), path)
            self.mesh_paths.append(path)
        self.vtk_path = self.workdir / "request.vtk"

    def warm_up(self):
        mesh = cli.read_mesh(self.mesh_paths[0])
        for method in SERVE_SOLVERS:
            _, solution = cli.solve_on_mesh(
                mesh, PairId.NCP1_P1_STAB, make_problem("cavity", nu=1.0), method=method
            )
        cli.write_vtk(self.vtk_path, mesh, solution)

    def groups(self, wrap):
        classes = [
            (problem, pair, nu, solver, kind)
            for problem, pair, nu, solver, kind in itertools.product(
                SERVE_PROBLEMS, PairId, SERVE_NUS, SERVE_SOLVERS, MESH_KINDS
            )
            if (problem, nu, solver, kind) != ("mms1", 0.01, "uzawa", "imported")
        ]
        per_kind = {kind: sum(c[-1] == kind for c in classes) for kind in MESH_KINDS}
        while True:
            sizes = {
                kind: iter(self.rng.permutation(np.resize(np.arange(len(self.sizes)), count)))
                for kind, count in per_kind.items()
            }
            deck = [
                self._op(problem, pair, nu, solver, kind, int(next(sizes[kind])), wrap)
                for problem, pair, nu, solver, kind in classes
            ]
            yield [deck[int(i)] for i in self.rng.permutation(len(deck))]

    def _op(self, problem_name, pair, nu, solver, kind, slot, wrap):
        n = self.sizes[slot]
        imported = kind == "imported"
        path = self.mesh_paths[slot]
        title = f"{problem_name} {pair.value}"

        def run():
            mesh = cli.read_mesh(path) if imported else cli.build_structured_mesh(n)
            problem = wrap(make_problem(problem_name, nu=nu))
            system, solution = cli.solve_on_mesh(mesh, pair, problem, method=solver)
            cli.write_vtk(self.vtk_path, mesh, solution, title=title)
            return mesh, system, solution

        def check(result):
            mesh, system, solution = result
            problems = []
            residual = divergence_residual(system, solution)
            if not residual <= DIVERGENCE_LIMIT:
                problems.append(f"divergence residual {residual:.3e}")
            if problem_name == "mms1":
                errors = _error_triple(error_norms(mesh, solution, make_problem("mms1", nu=nu)))
                ref = self.reference[f"{pair.value} {nu:g} {n}"]
                if imported:
                    ok = all(e <= IMPORTED_ERROR_FACTOR * r for e, r in zip(errors, ref))
                else:
                    ok = all(_close(e, r, ERROR_RTOL) for e, r in zip(errors, ref))
                if not ok:
                    problems.append(f"mms1 errors {errors} outside the seed's bounds")
            return problems

        return Op(
            label=f"{kind} {problem_name} {pair.value} nu={nu:g} {solver} n={n}",
            run=run,
            check=check,
            key=(kind, n, pair.value, nu),
        )


class InfSup:
    """Closed loop over ``ncp1-p0`` inf-sup sweeps, one seeded start block each."""

    name = "infsup"

    def __init__(self, size, reference):
        self.levels = INFSUP_LEVELS[size]
        self.reference = reference["infsup"]

    def setup(self, rng, workdir):
        self.rng = rng

    def warm_up(self):
        mesh = cli.build_structured_mesh(4)
        cli.estimate_infsup(mesh, INFSUP_PAIR, n=4)
        cli.estimate_infsup(mesh, INFSUP_PAIR, n=4, method="iterative")

    def groups(self, wrap):
        while True:
            start_seed = int(self.rng.integers(2**31))

            def run(start_seed=start_seed):
                return [
                    cli.estimate_infsup(
                        cli.build_structured_mesh(n), INFSUP_PAIR, n=n, seed=start_seed
                    )
                    for n in self.levels
                ]

            yield [Op(label=f"sweep start={start_seed}", run=run, check=self._check)]

    def _check(self, estimates):
        return [
            f"n={est.n} beta_h {est.beta_h!r} differs from reference"
            for est in estimates
            if not _close(est.beta_h, self.reference[str(est.n)], BETA_RTOL)
        ]


WORKLOADS = {cls.name: cls for cls in (Table2, ServeMix, InfSup)}


def make_workload(name, size, reference):
    return WORKLOADS[name](size, reference)
