"""Benchmark problems on the unit square.

``mms_problem`` carries a manufactured solution built from the stream
function ``sin^2(pi x) sin^2(pi y)`` (hence exactly divergence free and zero
on the boundary) with pressure ``cos(pi x) cos(pi y)``; the body force is the
hard-coded symbolic derivative of the momentum equation. ``cavity_problem``
is the driven cavity with a unit horizontal lid velocity.

All fields take coordinate arrays and broadcast; vector fields return a
leading component axis of length two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_PI = np.pi


@dataclass
class ProblemSpec:
    """A Stokes problem: viscosity (finite, positive), body force, boundary data, and
    exact fields (all three or none)."""

    name: str
    nu: float
    f: Callable
    g: Callable
    exact_u: Optional[Callable] = None
    exact_grad_u: Optional[Callable] = None
    exact_p: Optional[Callable] = None

    def __post_init__(self):
        if not np.isfinite(self.nu):
            raise ValueError(f"viscosity must be finite, got {self.nu}")
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")
        missing = [name for name in ("exact_u", "exact_grad_u", "exact_p")
                   if getattr(self, name) is None]
        if 0 < len(missing) < 3:
            raise ValueError(f"exact solution is incomplete: missing {', '.join(missing)}")

    @property
    def has_exact_solution(self):
        return self.exact_u is not None


def mms_problem(nu=1.0):
    """Manufactured-solution problem with homogeneous Dirichlet data."""
    def exact_u(x, y):
        u1 = _PI * np.sin(_PI * x) ** 2 * np.sin(2 * _PI * y)
        u2 = -_PI * np.sin(2 * _PI * x) * np.sin(_PI * y) ** 2
        return np.stack([u1, u2])

    def exact_grad_u(x, y):
        s2x, s2y = np.sin(2 * _PI * x), np.sin(2 * _PI * y)
        d11 = _PI**2 * s2x * s2y
        d12 = 2 * _PI**2 * np.sin(_PI * x) ** 2 * np.cos(2 * _PI * y)
        d21 = -2 * _PI**2 * np.cos(2 * _PI * x) * np.sin(_PI * y) ** 2
        return np.stack([np.stack([d11, d12]), np.stack([d21, -d11])])

    def exact_p(x, y):
        return np.cos(_PI * x) * np.cos(_PI * y)

    def f(x, y):
        f1 = -nu * 2 * _PI**3 * np.sin(2 * _PI * y) * (
            2 * np.cos(2 * _PI * x) - 1
        ) - _PI * np.sin(_PI * x) * np.cos(_PI * y)
        f2 = nu * 2 * _PI**3 * np.sin(2 * _PI * x) * (
            2 * np.cos(2 * _PI * y) - 1
        ) - _PI * np.cos(_PI * x) * np.sin(_PI * y)
        return np.stack([f1, f2])

    def g(x, y):
        zero = np.zeros(np.broadcast(x, y).shape)
        return np.stack([zero, zero])

    return ProblemSpec(
        name="mms1",
        nu=float(nu),
        f=f,
        g=g,
        exact_u=exact_u,
        exact_grad_u=exact_grad_u,
        exact_p=exact_p,
    )


def cavity_problem(nu=1.0):
    """Driven cavity: zero body force, unit lid velocity along y = 1."""
    def f(x, y):
        zero = np.zeros(np.broadcast(x, y).shape)
        return np.stack([zero, zero])

    def g(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        u1 = np.where(np.abs(y - 1.0) < 1e-12, 1.0, 0.0)
        return np.stack([u1, np.zeros_like(u1)])

    return ProblemSpec(name="cavity", nu=float(nu), f=f, g=g)


PROBLEMS = {
    "mms1": mms_problem,
    "cavity": cavity_problem,
}


def make_problem(name, nu=1.0):
    """Instantiate a benchmark problem by name."""
    try:
        factory = PROBLEMS[name]
    except KeyError:
        known = ", ".join(sorted(PROBLEMS))
        raise ValueError(f"unknown problem '{name}' (choose from: {known})") from None
    return factory(nu=nu)
