"""Backward solvers for the discretised doubly reflected equation.

Both solvers run the same explicit recursion per retained point:

    E      = conditional expectation of the next-layer Y
    Z      = conditional expectation of (next-layer Y * dW) / dt
    y_hat  = E + f(t, x, E, Z, u, v) * dt
    Y      = clamp(y_hat) into [l_lo(t,x), l_hi(t,x)]
    dK_lo  = (l_lo - y_hat)^+ ,  dK_hi = (y_hat - l_hi)^+

so each pushing process increments exactly by the clamp overshoot and the
discrete flat-off sums vanish identically: wherever dK_lo > 0 the clamped Y
equals the lower barrier (same for the upper side).  The lattice solver
computes the expectations from the transition stencils; the Monte Carlo
solver replaces them with cross-sectional least-squares projections on
basis functions of the state.

The explicit treatment of the generator is stable because gamma * dt < 1 is
enforced at lattice construction; it also makes the one-step map monotone
in the terminal data, the obstacles and the generator, which turns the
comparison theorem into an exactly assertable property in lattice mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GameProblem, NumericsError, ProblemError, _csv
from .game import (Lattice, _check_grid, _generator, _layer_stencils, _node_controls,
                   backward_sweep, lattice_occupancy)
from .paths import StatePaths, TimeGrid, _check_controls

__all__ = [
    "DrbsdeSolution",
    "OrderingReport",
    "StabilityReport",
    "RegressionError",
    "solve_drbsde_lattice",
    "solve_drbsde_lsmc",
    "check_flat_off",
    "compare_drbsde",
    "stability_gap",
]


class RegressionError(NumericsError):
    """Cross-sectional regression cannot be formed (too few paths, bad data)."""


@dataclass
class DrbsdeSolution:
    """Discrete (Y, Z, K_lo, K_hi) fields over (time knot, node or path).

    K_lo and K_hi are cumulative from t0 (first row zero, nondecreasing);
    the increment attributed to knot j is K[j + 1] - K[j].  LSMC solutions
    also carry ``se_root`` and the regression diagnostics ``lsmc_*`` (see
    ``solve_drbsde_lsmc``).
    """

    grid: TimeGrid
    Y: np.ndarray
    Z: np.ndarray
    K_lo: np.ndarray
    K_hi: np.ndarray
    mode: str
    se_root: float = None
    lsmc_rank_min: int = None
    lsmc_cond_max: float = None
    lsmc_fallbacks: int = None

    @property
    def root(self) -> float:
        return float(self.Y[0, 0]) if self.mode == "lsmc" else float(np.nan)

    def root_at(self, index: int) -> float:
        return float(self.Y[0, index])

    def to_csv(self) -> str:
        d = self.Z.shape[2]
        zcols = ",".join(f"Z{c}" for c in range(d))
        j, i = np.indices(self.Y.shape).reshape(2, -1)
        return _csv(f"time,point,Y,{zcols},K_lo,K_hi", self.grid.knots[j], i,
                    self.Y.ravel(), *self.Z.reshape(-1, d).T,
                    self.K_lo.ravel(), self.K_hi.ravel())


# ---------------------------------------------------------------------------
# lattice mode
# ---------------------------------------------------------------------------

def solve_drbsde_lattice(p: GameProblem, lat: Lattice, mu=0, nu=0) -> DrbsdeSolution:
    """Backward clamp recursion on the lattice under fixed node controls.

    ``mu``/``nu`` are either a single grid index (control frozen everywhere)
    or (n_steps, n_nodes) index tables into the control grids, which must be
    the ones ``lat`` was built with.
    """
    _check_grid(p, lat)
    n_steps, n = lat.grid.n_steps, lat.n_nodes
    mu = _node_controls(mu, n_steps, n, p.u_grid.size, "mu")
    nu = _node_controls(nu, n_steps, n, p.v_grid.size, "nu")

    dt = lat.dt
    xb = lat.x_nodes[:, None]
    Z = np.zeros((n_steps + 1, n, p.noise_dim))
    stencil = _layer_stencils(lat, mu, nu)

    def step(j, t, nxt):
        e, Z[j, :, 0] = lat.moments(stencil(j), nxt)
        return e + dt * _generator(p, t, xb, e, Z[j], mu[j], nu[j])

    Y, K_lo, K_hi = backward_sweep(p, lat.knots, lambda j: xb, step)
    return DrbsdeSolution(grid=lat.grid, Y=Y, Z=Z, K_lo=K_lo, K_hi=K_hi,
                          mode="lattice")


# ---------------------------------------------------------------------------
# least-squares Monte Carlo mode
# ---------------------------------------------------------------------------

# The batched fit works on Gram matrices scaled to unit diagonal, so both
# thresholds are relative to a spectrum of size about nb.  Eigenvalues below
# _RANK_TOL times the largest are exact collinearity (a constant obstacle
# column, an obstacle affine in x, an empty bins cell, the point
# cross-section at the initial layer); rounding puts those near 1e-16.  A
# Gram matrix squares the design's condition number, so a block whose kept
# spectrum spreads wider than _COND_MAX is refitted by lstsq on its design.
_RANK_TOL = 1e-12
_COND_MAX = 1e8


def _basis_matrix(p, t, x, basis, degree, n_bins, out=None):
    """Design matrix for the cross-sectional projection at one time layer.

    ``poly``: intercept, per-coordinate monomials up to ``degree``, and the
    two obstacle values at (t, x) as extra regressors (they carry the kink
    of the value function near the barriers).  Powers are built by repeated
    multiplication into a Fortran-order matrix (``out`` if given, so a
    sweep reuses one).  Columns that are collinear on the cross-section
    (constant obstacles, an obstacle affine in x, the point cross-section
    at the initial layer) are expected: the fit drops them.

    ``bins``: scalar state only; indicator columns of ``n_bins`` quantile
    cells, i.e. a piecewise-constant conditional-mean estimate.
    """
    n, k = x.shape
    if basis == "poly":
        A = np.empty((n, 3 + k * degree), order="F") if out is None else out
        A[:, 0] = 1.0
        for c in range(k * degree):
            i, power = divmod(c, degree)
            if power:
                np.multiply(A[:, c], x[:, i], out=A[:, c + 1])
            else:
                A[:, c + 1] = x[:, i]
        A[:, -2] = p.lower_obstacle(t, x)
        A[:, -1] = p.upper_obstacle(t, x)
        return A
    if basis == "bins":
        if k != 1:
            raise ProblemError("bins basis supports scalar states only")
        edges = np.quantile(x[:, 0], np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
        cell = np.digitize(x[:, 0], edges)
        design = np.zeros((n, n_bins))
        design[np.arange(n), cell] = 1.0
        return design
    raise ProblemError(f"unknown basis {basis!r}; use 'poly' or 'bins'")


def _fit(designs, targets, step):
    """Least-squares fitted values of each block's ``targets`` (m, r) on its
    design (m, nb), one block per pair.

    Each block contributes its Gram matrix and right-hand side; all blocks
    are solved by one batched eigendecomposition of the Gram matrices
    scaled to unit diagonal, keeping the eigenvalues above ``_RANK_TOL``
    times the largest.  Returns the fitted values per block, and per block
    the kept rank, the kept spectrum's condition number and whether the
    block fell back to ``lstsq``.
    """
    nb = designs[0].shape[1]
    gram = np.empty((len(designs), nb, nb))
    rhs = np.empty((len(designs), nb, targets[0].shape[1]))
    for b, (A, y) in enumerate(zip(designs, targets)):
        if A.shape[0] < nb:
            raise RegressionError(
                f"rank-deficient regression at step {step}: {A.shape[0]} paths "
                f"for {nb} basis functions"
            )
        if not np.all(np.isfinite(A)):
            raise RegressionError(f"non-finite design matrix at step {step}")
        gram[b] = A.T @ A
        rhs[b] = A.T @ y
    diag = np.diagonal(gram, axis1=1, axis2=2)
    s = np.divide(1.0, np.sqrt(diag), out=np.zeros_like(diag), where=diag > 0)
    w, V = np.linalg.eigh(gram * s[:, :, None] * s[:, None, :])
    keep = w > _RANK_TOL * w[:, -1:]
    rank = keep.sum(axis=1)
    if not rank.all():
        raise RegressionError(f"rank-deficient regression at step {step}")
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    proj = V.transpose(0, 2, 1) @ (s[:, :, None] * rhs)
    coef = s[:, :, None] * (V @ (inv[:, :, None] * proj))
    cond = w[:, -1] / np.min(np.where(keep, w, np.inf), axis=1)
    fallback = cond > _COND_MAX
    fits = []
    for b, (A, y) in enumerate(zip(designs, targets)):
        if fallback[b]:
            coef_b, _, rank[b], _ = np.linalg.lstsq(A, y, rcond=None)
            fits.append(A @ coef_b)
        else:
            fits.append(A @ coef[b])
    return fits, rank, cond, fallback


def _lsmc_backward(p, states, mu_vals, nu_vals, basis, degree, n_bins, edges, stats):
    """The recursion with one regression per step and block of paths
    [edges[b], edges[b + 1]); the clamp and the generator act per path.
    With the ``poly`` basis the clamp reads the obstacles from the design's
    last two columns, so each obstacle is evaluated once per step.

    Appends (smallest kept rank, largest condition number, lstsq
    fallbacks) over the blocks of each layer to ``stats``, except for the
    initial layer, whose point cross-section has rank 1 by construction.
    """
    X, dW, dt = states.X, states.ens.dW, states.grid.dt
    n_paths, n_plus1, d = X.shape[0], X.shape[1], dW.shape[2]
    Z = np.zeros((n_plus1, n_paths, d))
    e = np.empty(n_paths)
    targets = np.empty((n_paths, 1 + d), order="F")
    blocks = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    design = None

    def step(j, t, nxt):
        nonlocal design
        xj = np.ascontiguousarray(X[:, j])  # read the strided layer once
        targets[:, 0] = nxt
        np.multiply(nxt[:, None], dW[:, j], out=targets[:, 1:])
        if basis == "poly":  # one design per layer; bins cells are per block
            design = _basis_matrix(p, t, xj, basis, degree, n_bins, out=design)
            designs = [design[s] for s in blocks]
        else:
            designs = [_basis_matrix(p, t, xj[s], basis, degree, n_bins) for s in blocks]
        fits, rank, cond, fallback = _fit(designs, [targets[s] for s in blocks], j)
        if j:
            stats.append((rank.min(), cond.max(), fallback.sum()))
        for s, fit in zip(blocks, fits):
            e[s] = fit[:, 0]
            Z[j, s] = fit[:, 1:] / dt
        return e + dt * _generator(p, t, xj, e, Z[j], mu_vals[:, j], nu_vals[:, j])

    obstacles = (lambda j: (design[:, -2], design[:, -1])) if basis == "poly" else None
    Y, K_lo, K_hi = backward_sweep(p, states.grid.knots, lambda j: X[:, j], step,
                                   obstacles=obstacles)
    return Y, Z, K_lo, K_hi


def solve_drbsde_lsmc(p: GameProblem, states: StatePaths, mu, nu,
                      basis: str = "poly", degree: int = 3, n_bins: int = 25,
                      se_batches: int = 20) -> DrbsdeSolution:
    """Regression-based backward solve along simulated paths.

    Conditional expectations of Y_{j+1} (and of Y_{j+1} dW_j for Z) are
    least-squares projections on basis functions of X_j; clamping and the K
    increments proceed exactly as in lattice mode.  At the initial layer
    the cross-section is a point, so the projection degenerates to the
    plain sample mean, which is the correct conditional expectation there.

    ``se_batches > 0`` additionally runs the recursion on that many
    disjoint path batches and stores the batch-means standard error of the
    root value in ``se_root`` (this captures regression noise that a naive
    per-path estimate would miss).  Each step fits all blocks of a sweep,
    the batches or the one block of all paths, in one batched solve.

    Over every fit after the initial layer, the solution records the
    smallest kept rank (``lsmc_rank_min``), the largest condition number of
    a scaled Gram matrix (``lsmc_cond_max``) and the number of blocks
    refitted by ``lstsq`` (``lsmc_fallbacks``); with one step there is no
    such fit and they stay None.
    """
    if states.ens is None:
        raise ProblemError("states must carry their driving ensemble "
                           "(produce them with euler_forward)")
    n_paths = states.X.shape[0]
    _check_controls(p, mu, nu, (n_paths, states.grid.n_steps))
    stats = []
    args = (p, states, mu.values, nu.values, basis, degree, n_bins)

    se_root = None
    if se_batches and se_batches > 1 and n_paths >= 2 * se_batches:
        # before the root sweep, so the two sweeps' arrays never coexist
        edges = np.linspace(0, n_paths, se_batches + 1, dtype=int)
        roots = _lsmc_backward(*args, edges, stats)[0][0, edges[:-1]]
        se_root = float(np.std(roots, ddof=1) / np.sqrt(se_batches))
    Y, Z, K_lo, K_hi = _lsmc_backward(*args, (0, n_paths), stats)
    sol = DrbsdeSolution(grid=states.grid, Y=Y, Z=Z, K_lo=K_lo, K_hi=K_hi,
                         mode="lsmc", se_root=se_root)
    if stats:
        rank, cond, fallbacks = zip(*stats)
        sol.lsmc_rank_min = int(min(rank))
        sol.lsmc_cond_max = float(max(cond))
        sol.lsmc_fallbacks = int(sum(fallbacks))
    return sol


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def check_flat_off(sol: DrbsdeSolution, p: GameProblem, support):
    """Discrete flat-off residuals (max over points of the time sums).

    ``support`` supplies the state per (time, point): a Lattice in lattice
    mode, the StatePaths in Monte Carlo mode.  Both residuals vanish by
    construction because the K increments are defined as clamp overshoots.
    """
    n_time, n_pts = sol.Y.shape
    knots = sol.grid.knots
    s_lo = np.zeros(n_pts)
    s_hi = np.zeros(n_pts)
    for j in range(n_time - 1):
        t = float(knots[j])
        if isinstance(support, Lattice):
            xj = support.x_nodes[:, None]
        else:
            xj = support.X[:, j]
        lo = np.asarray(p.lower_obstacle(t, xj), dtype=float)
        hi = np.asarray(p.upper_obstacle(t, xj), dtype=float)
        s_lo += (sol.Y[j] - lo) * (sol.K_lo[j + 1] - sol.K_lo[j])
        s_hi += (hi - sol.Y[j]) * (sol.K_hi[j + 1] - sol.K_hi[j])
    return float(np.max(np.abs(s_lo))), float(np.max(np.abs(s_hi)))


@dataclass
class OrderingReport:
    max_violation: float
    terminal_violation: float
    mode: str


def compare_drbsde(sol1: DrbsdeSolution, sol2: DrbsdeSolution) -> OrderingReport:
    """Largest positive part of Y1 - Y2 over every retained point.

    The caller guarantees the data were ordered (terminal, obstacles and
    generator of the second dominating the first); the terminal layers are
    re-verified here since they are stored.  In lattice mode the monotone
    clamp recursion makes the reported violation exactly zero whenever the
    ordering hypothesis holds.
    """
    if sol1.Y.shape != sol2.Y.shape or sol1.grid != sol2.grid:
        raise ProblemError("solutions do not live on a common grid")
    if sol1.mode != sol2.mode:
        raise ProblemError("solutions were produced by different modes")
    diff = sol1.Y - sol2.Y
    return OrderingReport(
        max_violation=float(max(diff.max(), 0.0)),
        terminal_violation=float(max(diff[-1].max(), 0.0)),
        mode=sol1.mode,
    )


@dataclass
class StabilityReport:
    gap: float
    driver: float


def stability_gap(lat: Lattice, p1: GameProblem, sol1: DrbsdeSolution,
                  p2: GameProblem, sol2: DrbsdeSolution, varpi: float = 2.0,
                  mu=0, nu=0, root_index=None) -> StabilityReport:
    """Perturbation response of Y against the size of the data perturbation.

    ``gap`` is the largest (over time layers) occupancy-weighted mean of
    |Y1 - Y2|^varpi under the chain started at ``root_index``; ``driver``
    combines the terminal-data moment with the time-aggregated generator
    difference evaluated along the second solution, mirroring the a-priori
    bound this ratio is screened against.  Obstacles must agree between the
    two problems (checked on the grid), and both must have ``lat``'s control
    grids.
    """
    for p in (p1, p2):
        _check_grid(p, lat)
    if not 1.0 < varpi <= p1.holder_q:
        raise ProblemError(f"varpi must lie in (1, q], got {varpi}")
    if not (np.isscalar(mu) and np.isscalar(nu)):
        raise ProblemError("stability_gap supports frozen (scalar-index) controls")
    if sol1.Y.shape != sol2.Y.shape or sol1.grid != sol2.grid:
        raise ProblemError("solutions do not live on a common lattice grid")
    n_time, n = sol1.Y.shape
    knots = sol1.grid.knots
    xb = lat.x_nodes[:, None]
    for j in range(n_time):
        t = float(knots[j])
        if (np.max(np.abs(np.asarray(p1.lower_obstacle(t, xb)) -
                          np.asarray(p2.lower_obstacle(t, xb)))) > 1e-12 or
                np.max(np.abs(np.asarray(p1.upper_obstacle(t, xb)) -
                              np.asarray(p2.upper_obstacle(t, xb)))) > 1e-12):
            raise ProblemError("stability_gap requires identical obstacles")

    pi, _ = lattice_occupancy(lat, mu=mu, nu=nu, root_index=root_index)
    dY = np.abs(sol1.Y - sol2.Y) ** varpi
    gap = float(np.max(np.sum(pi * dY, axis=1)))

    term = float(np.sum(pi[-1] * np.abs(sol1.Y[-1] - sol2.Y[-1]) ** varpi))
    dt = sol1.grid.dt
    acc = 0.0
    for j in range(n_time - 1):
        t = float(knots[j])
        y2 = sol2.Y[j]
        z2 = sol2.Z[j]
        f1 = _generator(p1, t, xb, y2, z2, mu, nu)
        f2 = _generator(p2, t, xb, y2, z2, mu, nu)
        acc += dt * float(np.sum(pi[j] * np.abs(f1 - f2)))
    driver = term + acc ** varpi
    return StabilityReport(gap=gap, driver=driver)
