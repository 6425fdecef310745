"""Monotone explicit finite-difference solver for the double-obstacle
Hamilton-Jacobi-Bellman-Isaacs equation

    min{ w - l_lo, max{ -dw/dt - H(t, x, w, Dw, D2w), w - l_hi } } = 0

with the pointwise Hamiltonian

    H = 1/2 trace(sigma sigma^T Gamma) + z . b + f(t, x, y, z . sigma, u, v)

optimised over the finite control grids in the requested order.  The
backward step uses central differences of the later time layer only, which
makes the update an affine combination of neighbouring values with the same
weights as the three-point lattice stencil; on matching grids the two
routes therefore agree to rounding whenever the generator does not feed on
(y, z) (the shipped presets).  At the two domain edges the missing
neighbour's weight is folded into the node, matching the lattice's
reflecting truncation, and the result is clamped into the obstacle corridor
after every step.

The sweep runs on a lattice from :func:`build_lattice` (``make_pde_grid`` is
an alias of it) with the drift and diffusion of the problem it was built for,
read through :meth:`Lattice.coefficients`.  Construction evaluated them on
every layer and checked each layer that differs from the one before it, so
the sweep is monotone without a check of its own; on a time-homogeneous
problem every layer reads the one set of coefficients the lattice keeps.
The solver's problem supplies the generator, terminal and obstacles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GameProblem, ProblemError, _control_pairs, _csv, _evaluate
from .game import (Lattice, ValueSurface, _check_grid, _check_order, _refine, _saddle,
                   backward_sweep, build_lattice, value_backward_induction)

__all__ = [
    "CrossCheckReport",
    "ResidualReport",
    "RefinementStudy",
    "make_pde_grid",
    "hamiltonian",
    "isaacs_hamiltonian",
    "solve_obstacle_pde",
    "viscosity_residual",
    "cross_check",
    "refinement_study",
]

make_pde_grid = build_lattice


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def hamiltonian(p: GameProblem, t, x, y, z, gamma_mat, u, v) -> float:
    """Pointwise Hamiltonian at one (t, x, y, z, Gamma, u, v) tuple.

    ``x`` and ``z`` are state-space vectors of length k, ``gamma_mat`` a
    symmetric k x k matrix; ``z . sigma`` is handed to the generator's
    z-slot as a d-vector.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    G = np.atleast_2d(np.asarray(gamma_mat, dtype=float))
    k = p.state_dim
    if x.shape != (k,) or z.shape != (k,) or G.shape != (k, k):
        raise ProblemError("hamiltonian arguments have inconsistent dimensions")
    if np.max(np.abs(G - G.T)) > 1e-12 * max(1.0, float(np.max(np.abs(G)))):
        raise ProblemError("gamma_mat must be symmetric")
    bv = np.asarray(p.drift(t, x, u, v), dtype=float)
    sv = np.asarray(p.diffusion(t, x, u, v), dtype=float)
    quad = 0.5 * float(np.trace(sv @ sv.T @ G))
    adv = float(z @ bv)
    fz = z @ sv
    fv = float(np.asarray(p.generator(t, x, float(y), fz, u, v)))
    return quad + adv + fv


def isaacs_hamiltonian(p: GameProblem, t, x, y, z, gamma_mat, order: str) -> float:
    """Optimise the Hamiltonian over the control grids in the given order.

    Ties resolve to the earliest grid index on both layers.
    """
    _check_order(order)
    table = np.empty((p.u_grid.size, p.v_grid.size))
    for u, v, cell, _ in _control_pairs(p):
        table[cell] = hamiltonian(p, t, x, y, z, gamma_mat, u, v)
    return float(_saddle(table, order))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _layer_derivatives(w, dx):
    """Central differences inside, edge-folded one-sided forms at the ends.

    The edge forms (w1 - w0)/dx^2 and (w1 - w0)/(2 dx) are exactly what the
    lattice's reflecting truncation produces for the curvature and gradient
    weights, so both routes share one boundary convention.
    """
    d2 = np.empty_like(w)
    dc = np.empty_like(w)
    d2[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (dx * dx)
    dc[1:-1] = (w[2:] - w[:-2]) / (2.0 * dx)
    d2[0] = (w[1] - w[0]) / (dx * dx)
    dc[0] = (w[1] - w[0]) / (2.0 * dx)
    d2[-1] = (w[-2] - w[-1]) / (dx * dx)
    dc[-1] = (w[-2] - w[-1]) / (-2.0 * dx)
    return d2, dc


def _hamiltonians(p, t, x_col, w, d2, dc, b, sig):
    """H per (u, v, node) from one layer's derivatives and coefficients."""
    fv = _evaluate(p, "generator", t, x_col, w, (dc * sig)[..., None])
    return 0.5 * sig * sig * d2 + b * dc + fv


def solve_obstacle_pde(p: GameProblem, g: Lattice, order: str) -> ValueSurface:
    """Explicit backward sweep with per-layer control optimisation.

    Drift and diffusion are ``g.problem``'s, from :meth:`Lattice.coefficients`
    (one set for every layer when the problem is time-homogeneous).
    :func:`build_lattice` checked every layer of them for nonnegative
    neighbour weights, so each update is a monotone affine combination of
    the next layer without a further check.  ``p`` supplies the generator,
    the terminal value and the obstacles.
    """
    _check_order(order)
    _check_grid(p, g)
    dt = g.dt
    dx = g.dx
    x_col = g.x_nodes[:, None]

    def step(j, t, w):
        d2, dc = _layer_derivatives(w, dx)
        return w + dt * _hamiltonians(p, t, x_col, w, d2, dc, *g.coefficients(t))

    W, _, _ = backward_sweep(p, g.knots, lambda j: x_col, step, order, pushes=False)
    return ValueSurface(grid=g.grid, x_nodes=g.x_nodes.copy(), W=W, kind="pde")


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ResidualReport:
    """Interior-node residual field of the double-obstacle equation."""

    times: np.ndarray
    x_inner: np.ndarray
    field: np.ndarray
    max_abs: float

    def to_csv(self, path):
        _csv(path, "time,x,residual", self.times[:, None], self.x_inner, self.field)


def viscosity_residual(p: GameProblem, g: Lattice, w: ValueSurface,
                       order: str) -> ResidualReport:
    """Same-layer finite-difference residual of the obstacle equation.

    At every interior node and every knot but the last it evaluates
    min{w - l_lo, max{-dt_w - H(t, x, w, Dw, D2w), w - l_hi}} with the time
    derivative taken forward and the space derivatives on the layer itself.
    For fields produced by the solver this is a consistency diagnostic of
    order dt + dx^2 on smooth regions; it vanishes identically where the
    solution sits on an obstacle or is flat.  Drift and diffusion come from
    :meth:`Lattice.coefficients`, as in :func:`solve_obstacle_pde`.
    """
    _check_order(order)
    _check_grid(p, g)
    if w.W.shape != (g.grid.n_steps + 1, g.n_nodes):
        raise ProblemError("surface does not live on the given grid")
    dt = g.dt
    knots = g.knots
    x_col = g.x_nodes[1:-1][:, None]

    field = np.empty((g.grid.n_steps, g.n_nodes - 2))
    for j in range(g.grid.n_steps):
        t = float(knots[j])
        wj = w.W[j]
        dt_w = (w.W[j + 1][1:-1] - wj[1:-1]) / dt
        d2, dc = _layer_derivatives(wj, g.dx)
        b, sig = (c[..., 1:-1] for c in g.coefficients(t))
        ham = _saddle(_hamiltonians(p, t, x_col, wj[1:-1], d2[1:-1], dc[1:-1],
                                   b, sig), order)
        lo = np.asarray(p.lower_obstacle(t, x_col), dtype=float)
        hi = np.asarray(p.upper_obstacle(t, x_col), dtype=float)
        inner = np.maximum(-dt_w - ham, wj[1:-1] - hi)
        field[j] = np.minimum(wj[1:-1] - lo, inner)
    return ResidualReport(times=knots[:-1].copy(), x_inner=g.x_nodes[1:-1].copy(),
                          field=field, max_abs=float(np.max(np.abs(field))))


@dataclass
class RefinementStudy:
    """Root values across successive (dt/4, dx/2) refinements."""

    resolutions: list
    roots: list

    @property
    def diffs(self):
        return [abs(b - a) for a, b in zip(self.roots, self.roots[1:])]

    def to_csv(self, path):
        _csv(path, "resolution,root_value,diff", self.resolutions, self.roots,
             [float("nan")] + self.diffs)


def refinement_study(p: GameProblem, g: Lattice, w: ValueSurface, order: str,
                     x0: float, levels: int = 3) -> RefinementStudy:
    """Root values at ``levels`` successive refinements of the grid ``g``.

    Level 0 is ``w``, solved by :func:`solve_obstacle_pde` on ``g`` in
    ``order``; each further level quarters dt and halves dx.  Every root
    is read at ``x0`` by :meth:`ValueSurface.root`.
    """
    if levels < 2:
        raise ProblemError("need at least 2 levels")
    if w.W.shape != (g.grid.n_steps + 1, g.n_nodes):
        raise ProblemError("surface does not live on the given grid")
    resolutions, roots = [], []
    for lvl in range(levels):
        if lvl:
            g = _refine(p, g)
            w = solve_obstacle_pde(p, g, order)
        resolutions.append(f"{g.grid.n_steps}x{g.n_nodes}")
        roots.append(w.root(x0))
    return RefinementStudy(resolutions=resolutions, roots=roots)


@dataclass
class CrossCheckReport:
    lattice_root: float
    pde_root: float
    rel_gap: float


def cross_check(p: GameProblem, lat: Lattice, order: str, x0: float) -> CrossCheckReport:
    """Lattice route vs finite-difference route on one lattice at the
    initial time.

    Both solvers run on ``lat`` and are read off at ``x0`` by
    :meth:`ValueSurface.root`.  Their updates are the same affine map, so
    the relative gap sits at rounding level, for a generator that does not
    read (y, z).  One that does gets (next layer, central difference times
    sigma) here but the stencil's (expectation, z-moment) on the lattice:
    a gap first order in dt (2.3e-4 for f = -0.5 y, 400 x 201).  The gap
    is normalised by max(1, |roots|) so flat zero solutions report zero.
    """
    v_lat = value_backward_induction(p, lat, order).root(x0)
    v_pde = solve_obstacle_pde(p, lat, order).root(x0)
    denom = max(1.0, abs(v_lat), abs(v_pde))
    return CrossCheckReport(lattice_root=v_lat, pde_root=v_pde,
                            rel_gap=abs(v_lat - v_pde) / denom)
