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

from .model import (GameProblem, NumericsError, ProblemError, _control_tables, _csv,
                    _evaluate, _integer, _point_index)
from .game import (Lattice, _check_grid, _clamp, _layer_stencils, backward_sweep,
                   lattice_occupancy)
from .paths import StatePaths, TimeGrid

__all__ = [
    "DrbsdeSolution",
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
    the increment attributed to knot j is K[j + 1] - K[j].  The K of an
    obstacle that never pushes is +0.0 everywhere and holds no resident
    memory until something writes it.  LSMC solutions
    also carry ``se_root`` and the regression diagnostics ``lsmc_*`` (see
    ``solve_drbsde_lsmc``).  ``root`` is Y at t0 of an LSMC solution, whose
    paths all start at x0; a lattice solution has one per node (``root_at``).
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
        if self.mode != "lsmc":
            raise ProblemError("a lattice solution has a root per node; use root_at")
        return float(self.Y[0, 0])

    def root_at(self, index: int) -> float:
        return float(self.Y[0, _point_index(index, self.Y.shape[1], "index")])

    def to_csv(self, path):
        d = self.Z.shape[2]
        zcols = ",".join(f"Z{c}" for c in range(d))
        _csv(path, f"time,point,Y,{zcols},K_lo,K_hi", self.grid.knots[:, None],
             np.arange(self.Y.shape[1]), self.Y, *np.moveaxis(self.Z, 2, 0),
             self.K_lo, self.K_hi)


# ---------------------------------------------------------------------------
# lattice mode
# ---------------------------------------------------------------------------

def solve_drbsde_lattice(p: GameProblem, lat: Lattice, mu=0, nu=0) -> DrbsdeSolution:
    """Backward clamp recursion on the lattice under fixed node controls.

    ``mu``/``nu`` are each one grid index (control frozen everywhere) or an
    (n_steps, n_nodes) index table into the control grids, which must be
    the ones ``lat`` was built with.
    """
    _check_grid(p, lat)
    n_steps, n = lat.grid.n_steps, lat.n_nodes
    mu, nu = _control_tables(p, mu, nu, (n_steps, n))

    dt = lat.dt
    xb = lat.x_nodes[:, None]
    Z = np.zeros((n_steps + 1, n, p.noise_dim))
    stencil = _layer_stencils(lat, mu, nu)

    def step(j, t, nxt):
        e, Z[j, :, 0] = lat.moments(stencil(j), nxt)
        return e + dt * _evaluate(p, "generator", t, xb, e, Z[j], ui=mu[j], vi=nu[j])

    Y, K_lo, K_hi = backward_sweep(p, lat.knots, lambda j: xb, step)
    return DrbsdeSolution(grid=lat.grid, Y=Y, Z=Z, K_lo=K_lo, K_hi=K_hi,
                          mode="lattice")


# ---------------------------------------------------------------------------
# least-squares Monte Carlo mode
# ---------------------------------------------------------------------------

# The batched fit works on Gram matrices scaled to unit diagonal, so both
# thresholds are relative to a spectrum of size about nb.  Eigenvalues below
# _RANK_TOL times the largest are exact collinearity (a constant obstacle
# column, a zero one, an obstacle affine in x, the point cross-section at
# the initial layer); rounding puts those near 1e-16.  A Gram matrix squares
# the design's condition number, so a block whose kept spectrum spreads
# wider than _COND_MAX is refitted by lstsq on its design.
_RANK_TOL = 1e-12
_COND_MAX = 1e8


def _basis_matrix(p, t, x, degree, out=None):
    """Design matrix for the cross-sectional projection at one time layer:
    intercept, per-coordinate monomials up to ``degree``, and the two
    obstacle values at (t, x) as extra regressors (they carry the kink of
    the value function near the barriers).  Powers are built by repeated
    multiplication into a Fortran-order matrix (``out`` if given, so a
    sweep reuses one).  Columns that are collinear on the cross-section
    (constant obstacles, an obstacle affine in x, the point cross-section
    at the initial layer) are expected: the fit drops them.
    """
    n, k = x.shape
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


def _fit(designs, targets, step):
    """Least-squares fit of each block's ``targets`` (m, r) on its design
    (m, nb), one block per pair; the fitted values overwrite the targets.

    Each block contributes its Gram matrix and right-hand side; all blocks
    are solved by one batched eigendecomposition of the Gram matrices
    scaled to unit diagonal, keeping the eigenvalues above ``_RANK_TOL``
    times the largest.  Returns per block the kept rank, the kept
    spectrum's condition number and whether the block fell back to
    ``lstsq``.  The designs must be finite.
    """
    nb = designs[0].shape[1]
    gram = np.empty((len(designs), nb, nb))
    rhs = np.empty((len(designs), nb, targets[0].shape[1]))
    for b, (A, y) in enumerate(zip(designs, targets)):
        if A.shape[0] < nb:
            raise RegressionError(f"rank-deficient regression at step {step}: "
                                  f"{A.shape[0]} paths for {nb} basis functions")
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
    for b, (A, y) in enumerate(zip(designs, targets)):
        if fallback[b]:
            coef_b, _, rank[b], _ = np.linalg.lstsq(A, y, rcond=None)
        # y = A coef, written transposed: numpy hands a C-order target to
        # BLAS, but fills a Fortran-order one by a loop ~40x slower
        np.matmul((coef_b if fallback[b] else coef[b]).T, A.T, out=y.T)
    return rank, cond, fallback


def _lsmc_backward(p, states, mu, nu, degree, edges, stats):
    """One sweep of the recursion over all paths (the root lane), whose
    steps also advance a batch lane: the recursion on each block of paths
    [edges[b], edges[b + 1]), keeping only its current layer.  Per step the
    lanes share the state layer, the design (each block's is a row slice),
    the obstacle bounds and one batched fit of all blocks.

    Returns Y, Z, K_lo, K_hi and the batch lane's initial layer (None
    without blocks).  Appends each step's (smallest kept rank, largest
    condition number, lstsq fallbacks) to ``stats``, except at the initial
    layer, whose point cross-section has rank 1 by construction.
    """
    X, dW, dt = states.X, states.ens.dW, states.grid.dt
    n_paths, n_plus1, d = X.shape[0], X.shape[1], dW.shape[2]
    Z = np.zeros((n_plus1, n_paths, d))
    blocks = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    fit = np.empty((n_paths, 1 + d), order="F")  # targets (y, y dW), then the fit
    fit_b = np.empty_like(fit) if blocks else None  # the batch lane's
    design = bounds = y_b = None

    def targets(out, y, dWj):
        out[:, 0] = y
        np.multiply(y[:, None], dWj, out=out[:, 1:])

    def candidate(j, t, xj, fit, z):  # fit: (E, E dW) -> E + f dt, with Z in z
        e, z = fit[:, 0], np.divide(fit[:, 1:], dt, out=z)
        return e + dt * _evaluate(p, "generator", t, xj, e, z, ui=mu[:, j], vi=nu[:, j])

    def step(j, t, nxt):
        nonlocal design, bounds, y_b
        xj, dWj = X[:, j], dW[:, j]  # both lanes share the layer
        targets(fit, nxt, dWj)
        if blocks:
            targets(fit_b, nxt if y_b is None else y_b, dWj)
        design = _basis_matrix(p, t, xj, degree, out=design)
        bounds = design[:, -2], design[:, -1]
        if not np.all(np.isfinite(design)):
            # an obstacle not finite on the layer still clamps, from a copy,
            # but regresses as a zero column, which the fit drops
            bounds = tuple(b.copy() for b in bounds)
            obstacles = design[:, -2:]
            obstacles[:, ~np.all(np.isfinite(obstacles), axis=0)] = 0.0
            if not np.all(np.isfinite(design)):
                raise RegressionError(f"non-finite design matrix at step {j}")
        rank, cond, fallback = _fit([design] + [design[s] for s in blocks],
                                    [fit] + [fit_b[s] for s in blocks], j)
        if j:
            stats.append((rank.min(), cond.max(), fallback.sum()))
        if blocks:
            y_b = _clamp(candidate(j, t, xj, fit_b, fit_b[:, 1:]), *bounds, j, out=y_b)
        return candidate(j, t, xj, fit, Z[j])

    Y, K_lo, K_hi = backward_sweep(p, states.grid.knots, lambda j: X[:, j], step,
                                   obstacles=lambda j: bounds)
    return Y, Z, K_lo, K_hi, y_b


def solve_drbsde_lsmc(p: GameProblem, states: StatePaths, mu, nu,
                      degree: int = 3, se_batches: int = 20) -> DrbsdeSolution:
    """Regression-based backward solve along simulated paths.

    Conditional expectations of Y_{j+1} (and of Y_{j+1} dW_j for Z) are
    least-squares projections on the monomials of X_j up to ``degree`` and
    the two obstacle values at X_j (one that is not finite on the layer
    regresses as a zero column, which the fit drops); clamping and the K
    increments proceed exactly as in lattice mode.  At the initial layer
    the cross-section is a point, so the projection degenerates to the
    plain sample mean, which is the correct conditional expectation there.
    ``mu``/``nu`` are each one grid index or an (n_paths, n_steps) index
    table, as for :func:`euler_forward`.

    ``se_batches > 1`` stores in ``se_root`` the batch-means standard error
    of the root over that many disjoint path batches (this captures
    regression noise that a naive per-path estimate would miss).  A batch
    lane of the one backward sweep gives each batch's root, bit for bit as
    a separate solve on the batch would, and leaves Y, Z and K unchanged.

    Over every fit after the initial layer, the solution records the
    smallest kept rank (``lsmc_rank_min``), the largest condition number of
    a scaled Gram matrix (``lsmc_cond_max``) and the number of blocks
    refitted by ``lstsq`` (``lsmc_fallbacks``), over the root and the
    batches; with one step there is no such fit and they stay None.
    """
    if _integer(degree, "degree") < 0:
        raise ProblemError(f"degree must be >= 0, got {degree}")
    if states.ens is None:
        raise ProblemError("states must carry their driving ensemble "
                           "(produce them with euler_forward)")
    X, dW, n_steps = states.X, states.ens.dW, states.grid.n_steps
    n_paths = X.shape[0]
    want_x, want_dw = (n_paths, n_steps + 1, p.state_dim), (n_paths, n_steps, p.noise_dim)
    if X.shape != want_x or dW.shape != want_dw or states.ens.grid != states.grid:
        raise ProblemError(f"states do not fit together: X {X.shape} and dW {dW.shape} "
                           f"on grids {states.grid} and {states.ens.grid}; need X "
                           f"{want_x} and dW {want_dw} on one grid")
    mu, nu = _control_tables(p, mu, nu, (n_paths, n_steps))
    edges, stats, se_root = (), [], None
    if se_batches and se_batches > 1 and n_paths >= 2 * se_batches:
        edges = np.linspace(0, n_paths, se_batches + 1, dtype=int)
    Y, Z, K_lo, K_hi, y_b = _lsmc_backward(p, states, mu, nu, degree, edges, stats)
    if y_b is not None:
        se_root = float(np.std(y_b[edges[:-1]], ddof=1) / np.sqrt(se_batches))
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
    A side whose K never leaves +0.0 reads 0.0 without evaluating its
    obstacle, which may be infinite there (inf * 0 would be nan).
    """
    knots = sol.grid.knots

    def residual(K, obstacle):
        if not K[-1].any():
            return 0.0
        s = np.zeros(sol.Y.shape[1])
        for j in range(len(knots) - 1):
            xj = support.x_nodes[:, None] if isinstance(support, Lattice) else support.X[:, j]
            bound = np.asarray(obstacle(float(knots[j]), xj), dtype=float)
            # (Y - bound) on both sides: negating every term negates the sum exactly
            s += (sol.Y[j] - bound) * (K[j + 1] - K[j])
        return float(np.max(np.abs(s)))

    return residual(sol.K_lo, p.lower_obstacle), residual(sol.K_hi, p.upper_obstacle)


def compare_drbsde(sol1: DrbsdeSolution, sol2: DrbsdeSolution) -> float:
    """Largest positive part of Y1 - Y2 over every retained point.

    The caller guarantees the data were ordered (terminal, obstacles and
    generator of the second dominating the first).  In lattice mode the
    monotone clamp recursion makes the violation exactly zero whenever the
    ordering hypothesis holds.
    """
    if sol1.Y.shape != sol2.Y.shape or sol1.grid != sol2.grid:
        raise ProblemError("solutions do not live on a common grid")
    if sol1.mode != sol2.mode:
        raise ProblemError("solutions were produced by different modes")
    return float(max((sol1.Y - sol2.Y).max(), 0.0))


@dataclass
class StabilityReport:
    gap: float
    driver: float


def stability_gap(lat: Lattice, p1: GameProblem, sol1: DrbsdeSolution,
                  p2: GameProblem, sol2: DrbsdeSolution, varpi: float = 2.0,
                  mu=0, nu=0, *, root_index) -> StabilityReport:
    """Perturbation response of Y against the size of the data perturbation.

    ``gap`` is the largest (over time layers) occupancy-weighted mean of
    |Y1 - Y2|^varpi under the chain started at ``root_index``; ``driver``
    combines the terminal-data moment with the time-aggregated generator
    difference evaluated along the second solution, mirroring the a-priori
    bound this ratio is screened against.  Obstacles must agree between the
    two problems (checked on the grid), and both must have ``lat``'s control
    grids.  ``mu``/``nu`` are the node controls of both solutions, as in
    :func:`solve_drbsde_lattice`.
    """
    for p in (p1, p2):
        _check_grid(p, lat)
    if not 1.0 < varpi <= p1.holder_q:
        raise ProblemError(f"varpi must lie in (1, q], got {varpi}")
    if sol1.Y.shape != sol2.Y.shape or sol1.grid != sol2.grid:
        raise ProblemError("solutions do not live on a common lattice grid")
    n_time, n = sol1.Y.shape
    mu, nu = _control_tables(p1, mu, nu, (n_time - 1, n))
    knots = sol1.grid.knots
    xb = lat.x_nodes[:, None]
    for t in map(float, knots):
        for l1, l2 in ((p1.lower_obstacle, p2.lower_obstacle),
                       (p1.upper_obstacle, p2.upper_obstacle)):
            if np.max(np.abs(np.asarray(l1(t, xb)) - np.asarray(l2(t, xb)))) > 1e-12:
                raise ProblemError("stability_gap requires identical obstacles")

    pi, _ = lattice_occupancy(lat, mu=mu, nu=nu, root_index=root_index)
    dY = np.abs(sol1.Y - sol2.Y) ** varpi
    gap = float(np.max(np.sum(pi * dY, axis=1)))

    term = float(np.sum(pi[-1] * np.abs(sol1.Y[-1] - sol2.Y[-1]) ** varpi))
    dt = sol1.grid.dt
    acc = 0.0
    for j in range(n_time - 1):
        f1, f2 = (_evaluate(q, "generator", float(knots[j]), xb, sol2.Y[j], sol2.Z[j],
                            ui=mu[j], vi=nu[j]) for q in (p1, p2))
        acc += dt * float(np.sum(pi[j] * np.abs(f1 - f2)))
    driver = term + acc ** varpi
    return StabilityReport(gap=gap, driver=driver)
