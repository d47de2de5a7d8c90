"""Spans around the calls into each ncstokes module, taken from outside it.

``from .x import y`` binds ``y`` in every importing module, so each function
is wrapped at the module attribute where its caller looks it up (for example
``ncstokes.assembly.build_dofmap`` and ``ncstokes.cli.solve_saddle``).
``scipy.sparse.linalg.splu`` is wrapped once for every caller; the factor it
returns is proxied so that each triangular solve becomes a span too.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists and
written out when the run ends. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
import time
from collections import defaultdict

import scipy.sparse.linalg

import ncstokes.analysis
import ncstokes.assembly
import ncstokes.cli
import ncstokes.mesh

_ASSEMBLY_FORMS = {
    "assemble_stiffness": "assembly.stiffness",
    "assemble_divergence": "assembly.divergence",
    "assemble_pressure_mass": "assembly.mass",
}

# (module, attribute, span name); the span name's prefix is the layer.
WRAPPED = [
    (ncstokes.cli, "run_convergence_study", "cli.run_convergence_study"),
    (ncstokes.cli, "solve_on_mesh", "cli.solve_on_mesh"),
    (ncstokes.cli, "write_vtk", "cli.write_vtk"),
    (ncstokes.cli, "build_structured_mesh", "mesh.build_structured_mesh"),
    (ncstokes.cli, "read_mesh", "mesh.read_mesh"),
    (ncstokes.mesh, "build_edge_table", "mesh.build_edge_table"),
    (ncstokes.assembly, "build_dofmap", "femspace.build_dofmap"),
    (ncstokes.analysis, "build_dofmap", "femspace.build_dofmap"),
    (ncstokes.cli, "build_saddle_system", "assembly.build_saddle_system"),
    (ncstokes.assembly, "assemble_stabilization", "assembly.stabilization"),
    (ncstokes.assembly, "assemble_load", "assembly.load"),
    (ncstokes.assembly, "dirichlet_from_field", "assembly.dirichlet"),
    (ncstokes.cli, "apply_constraints", "assembly.apply_constraints"),
    (ncstokes.cli, "solve_saddle", "solver.solve_saddle"),
    (ncstokes.cli, "error_norms", "analysis.error_norms"),
    (ncstokes.cli, "convergence_rates", "analysis.convergence_rates"),
    (ncstokes.cli, "estimate_infsup", "analysis.estimate_infsup"),
    (scipy.sparse.linalg, "splu", "solver.splu"),
] + [
    (module, attr, span)
    for module in (ncstokes.assembly, ncstokes.analysis)
    for attr, span in _ASSEMBLY_FORMS.items()
]

_PROBLEM_CALLABLES = ("f", "g", "exact_u", "exact_grad_u", "exact_p")

# Per-layer metric -> the span name whose self time it sums.
SELF_TIME_METRICS = {
    "mesh.build_s": "mesh.build_structured_mesh",
    "mesh.read_s": "mesh.read_mesh",
    "mesh.edge_table_s": "mesh.build_edge_table",
    "femspace.dofmap_s": "femspace.build_dofmap",
    "assembly.system_s": "assembly.build_saddle_system",
    "assembly.stiffness_s": "assembly.stiffness",
    "assembly.divergence_s": "assembly.divergence",
    "assembly.stabilization_s": "assembly.stabilization",
    "assembly.mass_s": "assembly.mass",
    "assembly.load_s": "assembly.load",
    "assembly.dirichlet_s": "assembly.dirichlet",
    "assembly.constraints_s": "assembly.apply_constraints",
    "solver.solve_s": "solver.solve_saddle[direct]",
    "solver.uzawa_s": "solver.solve_saddle[uzawa]",
    "solver.factor_s": "solver.splu",
    "solver.lu_solve_s": "solver.lu_solve",
    "analysis.error_norms_s": "analysis.error_norms",
    "analysis.infsup_s": "analysis.estimate_infsup",
    "problems.callback_s": "problems.callback",
    "cli.vtk_s": "cli.write_vtk",
}
COUNT_METRICS = (
    "mesh.triangles",
    "assembly.unknowns",
    "assembly.nnz",
    "solver.lu_solves",
    "cli.vtk_bytes",
)


class _TracedLU:
    """Factor proxy: each ``solve`` is a span, everything else is delegated."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        self._tracer.counts["solver.lu_solves"] += 1
        return self._tracer.call("solver.lu_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans and counts while installed; restores every name on ``uninstall``."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []
        self._saved = []

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            span = name
            if name == "solver.solve_saddle":
                span = f"{name}[{kwargs.get('method', args[1] if len(args) > 1 else 'direct')}]"
            result = self.call(span, fn, args, kwargs)
            self._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result):
        if name in ("mesh.build_structured_mesh", "mesh.read_mesh"):
            self.counts["mesh.triangles"] += result.n_triangles
        elif name == "assembly.apply_constraints":
            self.counts["assembly.unknowns"] += result.matrix.shape[0]
            self.counts["assembly.nnz"] += result.matrix.nnz
        elif name == "cli.write_vtk":
            self.counts["cli.vtk_bytes"] += os.path.getsize(args[0])

    def _wrap_splu(self, fn):
        def splu(A, *args, **kwargs):
            lu = self.call("solver.splu", fn, (A,) + args, kwargs)
            self.counts["lu_nnz"] += lu.L.nnz + lu.U.nnz
            self.counts["matrix_nnz"] += A.nnz
            return _TracedLU(self, lu)

        return splu

    def install(self):
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            traced = self._wrap_splu(original) if name == "solver.splu" else self._wrap(name, original)
            setattr(module, attr, traced)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def wrap_problem(self, problem):
        """A copy of ``problem`` whose callables record ``problems.callback`` spans."""
        fields = {
            attr: self._wrap("problems.callback", getattr(problem, attr))
            for attr in _PROBLEM_CALLABLES
            if getattr(problem, attr) is not None
        }
        return dataclasses.replace(problem, **fields)

    def self_times(self):
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            totals[name] += end - start - children
        return totals

    def layer_metrics(self, n_ops):
        """Per-operation self times and counts, plus the factorization fill ratio."""
        totals = self.self_times()
        metrics = {
            metric: (totals.get(span, 0.0) / n_ops, "s/op")
            for metric, span in SELF_TIME_METRICS.items()
        }
        for metric in COUNT_METRICS:
            metrics[metric] = (self.counts.get(metric, 0.0) / n_ops, "count/op")
        matrix_nnz = self.counts.get("matrix_nnz", 0.0)
        fill = self.counts["lu_nnz"] / matrix_nnz if matrix_nnz else 0.0
        metrics["solver.lu_fill"] = (fill, "ratio")
        return metrics

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent index, op id."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
