"""Time grids, Brownian ensembles and forward simulation of the controlled
state equation.

Randomness is counter-based: the increments of path ``p`` are the standard
normals of a Philox stream keyed ``(seed mod 2**64, p)``, reshaped to
``(n_steps, d)`` and scaled by ``sqrt(dt)``.  One generator is re-keyed for
each path, which draws exactly what a fresh ``Philox(key=(seed mod 2**64,
p))`` would.  The draw for one path never depends on how many other paths
exist or in which order they are filled, so output is bit-reproducible
across platforms and any worker layout.

Memory layout: ``PathEnsemble.dW`` and ``StatePaths.X`` keep their logical
path-first shapes (n_paths, n_steps, d) and (n_paths, n_steps + 1, k), but
are stored knot-major, as transposed views of (n_steps, n_paths, d) and
(n_steps + 1, n_paths, k) arrays.  So ``dW[:, j]`` and ``X[:, j]``, the
layers that the forward step and every backward sweep read one knot at a
time, are C-contiguous.  A hand-made path-major array works everywhere
too, but pays one strided copy per step.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .model import (GameProblem, NumericsError, ProblemError, _control_tables, _csv,
                    _evaluate, _indices)

__all__ = [
    "TimeGrid",
    "PathEnsemble",
    "StatePaths",
    "simulate_brownian",
    "euler_forward",
    "constant_controls",
]

_DRAW_CHUNK = 4096  # paths per contiguous draw buffer: 1.6 MB at 50 steps, d = 1


def _integer(value, what) -> int:
    """``value`` as a Python int; ProblemError for a bool, float or other
    non-integer (numpy integers are accepted)."""
    if isinstance(value, (bool, np.bool_)):
        raise ProblemError(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ProblemError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0 = knots[0] < ... < knots[n_steps] = T."""

    t0: float
    T: float
    n_steps: int

    def __post_init__(self):
        if _integer(self.n_steps, "n_steps") < 1:
            raise ProblemError("n_steps must be >= 1")
        if not self.T > self.t0:
            raise ProblemError(f"need T > t0, got t0={self.t0}, T={self.T}")

    @property
    def dt(self) -> float:
        return (self.T - self.t0) / self.n_steps

    @property
    def knots(self) -> np.ndarray:
        return np.linspace(self.t0, self.T, self.n_steps + 1)

    def index_of(self, s, tol=1e-9) -> int:
        """Index of the knot equal to ``s`` (error if ``s`` is off-grid)."""
        idx = int(round((s - self.t0) / self.dt))
        if idx < 0 or idx > self.n_steps or abs(self.t0 + idx * self.dt - s) > tol:
            raise ProblemError(f"{s!r} is not a knot of {self}")
        return idx


@dataclass
class PathEnsemble:
    """Brownian increments dW (n_paths, n_steps, d), variance dt each.

    ``simulate_brownian`` stores dW knot-major, as a transposed view of an
    (n_steps, n_paths, d) array, so each step's layer ``dW[:, j]`` is
    C-contiguous; a path-major dW works too, at one copy per step.
    ``n_paths`` and ``d`` are read from dW, so they cannot disagree with it.
    """

    grid: TimeGrid
    seed: int
    dW: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]

    @property
    def d(self) -> int:
        return self.dW.shape[2]

    def to_csv(self) -> str:
        return _csv("path,step,coord,value",
                    *np.indices(self.dW.shape).reshape(3, -1), self.dW.ravel())


@dataclass
class StatePaths:
    """Simulated states X (n_paths, n_steps + 1, k) with X[:, 0] = x0.

    ``euler_forward`` stores X knot-major, as a transposed view of an
    (n_steps + 1, n_paths, k) array, so each knot's layer ``X[:, j]`` is
    C-contiguous; a path-major X works too, at one copy per step.

    ``ens`` keeps a reference to the driving ensemble so backward solvers
    can reuse the same increments.
    """

    grid: TimeGrid
    X: np.ndarray
    ens: PathEnsemble = None

    def to_csv(self) -> str:
        return _csv("path,step,coord,value",
                    *np.indices(self.X.shape).reshape(3, -1), self.X.ravel())


def constant_controls(n_paths: int, n_steps: int, index: int = 0) -> np.ndarray:
    """Grid index ``index`` at every (path, step): a read-only zero-stride
    int64 table, so it takes no memory per path and is checked in O(1)."""
    return np.broadcast_to(_indices(index, "control index"), (n_paths, n_steps))


def simulate_brownian(grid: TimeGrid, n_paths: int, d: int, seed: int) -> PathEnsemble:
    """Draw the Brownian increment array for ``n_paths`` independent paths.

    ``n_paths``, ``d`` and ``seed`` are integers (numpy integers included);
    the seed keys the streams modulo 2**64.
    """
    if _integer(n_paths, "n_paths") < 1:
        raise ProblemError("n_paths must be >= 1")
    if _integer(d, "d") < 1:
        raise ProblemError("d must be >= 1")
    key = np.array([_integer(seed, "seed") % 2 ** 64, 0], dtype=np.uint64)
    dW = np.empty((grid.n_steps, n_paths, d)).transpose(1, 0, 2)
    # a path's normals fill a contiguous row of the buffer; each chunk of
    # paths is then scaled into the knot-major dW in one pass
    buf = np.empty((min(n_paths, _DRAW_CHUNK), grid.n_steps, d))
    sqrt_dt = np.sqrt(grid.dt)
    # one generator, re-keyed per path to the state of a fresh Philox keyed
    # (seed, p): zero counter, empty buffer; building a Philox per path took
    # about 70% of the draw at 50 steps
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for a in range(0, n_paths, _DRAW_CHUNK):
        b = min(a + _DRAW_CHUNK, n_paths)
        for ip in range(a, b):
            key[1] = ip
            bitgen.state = state
            gen.standard_normal(out=buf[ip - a])
        np.multiply(buf[:b - a], sqrt_dt, out=dW[a:b])
    return PathEnsemble(grid=grid, seed=seed, dW=dW)


def euler_forward(p: GameProblem, ens: PathEnsemble, x0, mu, nu) -> StatePaths:
    """Explicit forward step X_{j+1} = X_j + b dt + sigma dW_j along every path;
    each step calls drift and diffusion once for all paths, each path at its
    own control pair (once per distinct pair for array-valued points).
    ``mu``/``nu`` are each one grid index or an (n_paths, n_steps) index table.
    The path and step counts are those of ``ens.dW``, which must fit the
    ensemble's grid and the problem's noise dimension."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (p.state_dim,):
        raise ProblemError(f"x0 must have shape ({p.state_dim},)")
    shape = np.shape(ens.dW)
    if len(shape) != 3 or shape[1:] != (ens.grid.n_steps, p.noise_dim):
        raise ProblemError(f"ensemble dW {shape} does not fit its {ens.grid.n_steps}-step "
                           f"grid and noise dimension {p.noise_dim}")
    n_paths, n_steps, _ = shape
    mu, nu = _control_tables(p, mu, nu, (n_paths, n_steps))

    dt = ens.grid.dt
    knots = ens.grid.knots
    X = np.empty((n_steps + 1, n_paths, p.state_dim)).transpose(1, 0, 2)
    X[:, 0] = x0
    for j in range(n_steps):
        t = float(knots[j])
        xj = X[:, j]
        ui, vi = mu[:, j], nu[:, j]
        bv = _evaluate(p, "drift", t, xj, ui=ui, vi=vi)
        sv = _evaluate(p, "diffusion", t, xj, ui=ui, vi=vi)
        X[:, j + 1] = xj + bv * dt + np.einsum("mkd,md->mk", sv, ens.dW[:, j])
        bad = ~np.isfinite(X[:, j + 1]).all(axis=1)
        if bad.any():
            ip = int(np.nonzero(bad)[0][0])
            raise NumericsError(f"non-finite state at step {j + 1}, path {ip}")
    return StatePaths(grid=ens.grid, X=X, ens=ens)

