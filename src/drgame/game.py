"""Lattice approximation of the controlled diffusion and game values by
backward induction.

The chain is the classical three-point construction on a uniform space
grid: from node x the state moves up/down by dx or stays, with

    p_up   = (sig^2 dt / dx^2 + b dt / dx) / 2
    p_dn   = (sig^2 dt / dx^2 - b dt / dx) / 2
    p_stay = 1 - sig^2 dt / dx^2

so the first and second local moments match b dt and sig^2 dt exactly.
Under the CFL conditions dt * max(sig^2) <= dx^2 and dt * max|b| <= dx the
weights are probabilities (up to the drift-dominance corner, which is
reported as an error).  At the two domain edges the weight of the missing
neighbour is folded into the node itself (reflecting truncation); the
folded fractions are kept so occupancy-weighted diagnostics can verify the
domain was wide enough.  A lattice stores no per-step arrays: it keeps
its problem and computes a layer's stencil when the sweep asks for it.  When
the construction scan finds every layer's drift and diffusion bit-equal to
the first layer's (a time-homogeneous problem), the lattice keeps that one
all-pairs stencil instead, and every layer reads it: the chain has one
transition kernel, and a per-layer stencil would repeat the same arithmetic.
Drift and diffusion must therefore be deterministic: the same (t, x, u, v)
must give the same bits on every call.

Every backward route (this module's game induction, the DRBSDE lattice and
Monte Carlo solvers, the finite-difference sweep) runs through
:func:`backward_sweep`, which owns the saddle reduction, the obstacle clamp
with its K overshoots and the finiteness check; each route supplies only its
one-step operator.

Game values come from stepwise optimisation over the control grids:
``order='supinf'`` computes the lower value (outer sup over u of inner inf
over v), ``order='infsup'`` the upper value, and the result is clamped into
the obstacle corridor after every step.  With a vanishing generator and
singleton grids the same recursion is the optimal-stopping (Dynkin) value,
for which :func:`dynkin_brute_force` provides an independent oracle by
enumerating every adapted stopping-time pair on a small binary tree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (ControlGrid, GameProblem, NumericsError, ProblemError,
                    _control_tables, _csv, _evaluate, _one_index, _point_index)
from .paths import TimeGrid

__all__ = [
    "CflError",
    "Lattice",
    "Stencil",
    "ValueSurface",
    "BinaryTree",
    "DppReport",
    "OracleCase",
    "backward_sweep",
    "build_lattice",
    "value_backward_induction",
    "dynkin_brute_force",
    "dynkin_oracle_corpus",
    "enumerate_stopping_rules",
    "dpp_check",
    "dpp_cross_resolution",
    "lattice_occupancy",
]

_ORDERS = ("supinf", "infsup")


class CflError(NumericsError):
    """Time step too large for the space step (non-monotone stencil)."""


@dataclass
class ValueSurface:
    """Value field W over (time knot, space node)."""

    grid: TimeGrid
    x_nodes: np.ndarray
    W: np.ndarray
    kind: str

    def root(self, x0: float) -> float:
        """W(t0, x0), by linear interpolation between nodes (exact at a node)."""
        return _value_at(self.x_nodes, self.W[0], x0)

    def to_csv(self) -> str:
        j, i = np.indices(self.W.shape).reshape(2, -1)
        return _csv("time,x,value,kind", self.grid.knots[j], self.x_nodes[i],
                    self.W.ravel(), self.kind)


def _value_at(x_nodes, layer, x0) -> float:
    """``layer`` on ``x_nodes`` at the point ``x0``: linear interpolation,
    exact at a node.  The one root reader of the grid routes; an ``x0``
    outside [x_nodes[0], x_nodes[-1]], NaN included, is rejected."""
    lo, hi = float(x_nodes[0]), float(x_nodes[-1])
    if not lo <= x0 <= hi:
        raise ProblemError(f"x0 = {x0!r} outside the grid [{lo!r}, {hi!r}]")
    return float(np.interp(x0, x_nodes, layer))


# ---------------------------------------------------------------------------
# coefficients and the monotone scan
# ---------------------------------------------------------------------------

def _coefficients(p: GameProblem, t: float, xb: np.ndarray):
    """Scalar drift and diffusion of every control pair at knot ``t`` on the
    states ``xb`` (m, 1), each (nU, nV, m); per-node controls select from
    these tables (:meth:`Stencil.pair`), so no pair is called on a subset."""
    return (_evaluate(p, "drift", t, xb)[..., 0],
            _evaluate(p, "diffusion", t, xb)[..., 0, 0])


def _up_down(b, sig, dt, dx):
    """Unclipped up/down weights: sum sig^2 dt / dx^2, difference b dt / dx."""
    A = sig ** 2 * dt / (dx * dx)
    B = b * dt / dx
    return 0.5 * (A + B), 0.5 * (A - B)


def _check_monotone(b, sig, dt: float, dx: float):
    """Raise unless the three-point weights for (b, sig) are probabilities.

    That is the CFL pair dt * max(sig^2) <= dx^2 and dt * max|b| <= dx, and
    no drift-dominated node (|b| dx > sig^2).  The lattice stencil and the
    finite-difference update share these weights, so one check makes both
    monotone.  ``b`` and ``sig`` may have any common shape.  Returns the two
    CFL margins dt * max(sig^2) / dx^2 and dt * max|b| / dx.
    """
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(sig))):
        raise NumericsError("non-finite coefficient on the lattice grid")
    max_sig2 = float(np.max(sig ** 2))
    max_b = float(np.max(np.abs(b)))
    if dt * max_sig2 > dx * dx * (1 + 1e-12):
        raise CflError(
            f"CFL violation: dt*max(sigma^2) = {dt * max_sig2:.6g} exceeds "
            f"dx^2 = {dx * dx:.6g}"
        )
    if dt * max_b > dx * (1 + 1e-12):
        raise CflError(
            f"CFL violation: dt*max|b| = {dt * max_b:.6g} exceeds dx = {dx:.6g}"
        )
    p_up, p_dn = _up_down(b, sig, dt, dx)
    worst = min(float(p_up.min()), float(p_dn.min()))
    if worst < -1e-12:
        raise CflError(
            f"negative stencil probability {worst:.3e}: |b|*dx exceeds sigma^2 "
            "somewhere; widen sigma, shrink dx, or reduce the drift"
        )
    p_stay = 1.0 - np.maximum(p_up, 0.0) - np.maximum(p_dn, 0.0)
    if float(p_stay.min()) < -1e-12:
        raise CflError("stencil stay-probability went negative; tighten CFL")
    return dt * max_sig2 / (dx * dx), dt * max_b / dx


def _same_bits(a, b) -> bool:
    """Bitwise equality: unlike ``==`` it tells -0.0 from 0.0, whose signs
    can reach the z-moment, and needs no NaN rule."""
    return a.shape == b.shape and bool((a.view(np.int64) == b.view(np.int64)).all())


def _scan_grid(p: GameProblem, tgrid: TimeGrid, x_nodes: np.ndarray):
    """Check every layer of a lattice once, for both grid routes.

    Coefficients are evaluated at every knot for all control pairs, one
    layer at a time, so the scan holds O(nU nV n) memory at any step count.
    A layer whose drift and diffusion are bit-equal to the layer before it
    would give the same check result, so only the first layer and the
    layers that differ from their predecessor are checked.

    Returns ``(coefficients, margins)``: the first layer's (b, sig) when
    every layer is bit-equal to it (a time-homogeneous problem), else None;
    and the largest dt * sig^2 / dx^2 and dt * |b| / dx over all layers,
    which the checked layers attain.
    """
    if p.state_dim != 1 or p.noise_dim != 1:
        raise ProblemError("lattice and PDE solvers support state_dim = noise_dim = 1")
    dt = tgrid.dt
    dx = float(x_nodes[1] - x_nodes[0])
    xb = x_nodes[:, None]
    knots = tgrid.knots[:-1]
    first = prev = _coefficients(p, float(knots[0]), xb)
    margins = _check_monotone(*first, dt, dx)
    homogeneous = True
    for t in knots[1:]:
        cur = _coefficients(p, float(t), xb)
        if not (_same_bits(cur[0], prev[0]) and _same_bits(cur[1], prev[1])):
            margins = tuple(map(max, margins, _check_monotone(*cur, dt, dx)))
            homogeneous = False
        prev = cur
    if p.lipschitz * dt >= 1.0:
        raise CflError(
            f"gamma*dt = {p.lipschitz * dt:.6g} must be < 1; shrink the time step"
        )
    return (first if homogeneous else None), margins


def _space_grid(n_nodes, x_min, x_max):
    if n_nodes < 3:
        raise ProblemError("need at least 3 space nodes")
    if not x_min < x_max:
        raise ProblemError("need x_min < x_max")
    return np.linspace(x_min, x_max, n_nodes)


# ---------------------------------------------------------------------------
# the lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stencil:
    """Three-point weights out of one knot, per node on the last axis.

    Boundary folding is already applied (p_dn is zero on the first node,
    p_up on the last), with the folded amounts kept in fold_dn/fold_up for
    diagnostics.  dw_stay, dw_dn and dw_up are the Euler increments dW =
    (x_target - x - b dt) / sig of the three moves, with sig replaced by 1
    where the node does not move (``moves`` false, vanishing diffusion);
    ``all_move`` says that every node moves.  No move leaves the grid, so
    dw_dn on the first node and dw_up on the last are +1.0 placeholders:
    :meth:`Lattice.moments` multiplies them by a zero weight times a -0.0
    pad, and the -0.0 they give adds nothing.
    """

    p_up: np.ndarray
    p_dn: np.ndarray
    p_stay: np.ndarray
    b: np.ndarray
    sig: np.ndarray
    fold_dn: np.ndarray
    fold_up: np.ndarray
    dw_stay: np.ndarray
    dw_dn: np.ndarray
    dw_up: np.ndarray
    moves: np.ndarray
    all_move: bool

    def arrays(self) -> dict:
        return {name: v for name, v in vars(self).items() if isinstance(v, np.ndarray)}

    def pair(self, i, k) -> "Stencil":
        """Control pair (i, k) of an all-pairs stencil: a view, or with indices
        per node each node's own pair's weights (folds: the end nodes')."""
        if isinstance(i, int) and isinstance(k, int):
            sel = {name: v[i, k, ...] for name, v in self.arrays().items()}
        else:
            i, k = np.broadcast_arrays(i, k)
            cell = (i, k, np.arange(len(i)))
            sel = {name: v[cell] for name, v in self.arrays().items() if v.ndim == 3}
            sel.update(fold_dn=self.fold_dn[i[0], k[0]], fold_up=self.fold_up[i[-1], k[-1]])
        return replace(self, **sel, all_move=bool(sel["moves"].all()))


def _stencil(b, sig, dt: float, dx: float) -> Stencil:
    """Folded weights and move increments for coefficients of any shape."""
    p_up, p_dn = _up_down(b, sig, dt, dx)
    np.maximum(p_up, 0.0, out=p_up)
    np.maximum(p_dn, 0.0, out=p_dn)
    p_stay = np.maximum(1.0 - p_up - p_dn, 0.0)
    fold_dn, fold_up = p_dn[..., 0].copy(), p_up[..., -1].copy()
    p_stay[..., 0] += fold_dn
    p_dn[..., 0] = 0.0
    p_stay[..., -1] += fold_up
    p_up[..., -1] = 0.0
    moves = np.abs(sig) > 1e-14
    safe = np.where(moves, sig, 1.0)
    bdt = b * dt
    dw_dn, dw_up = (-dx - bdt) / safe, (dx - bdt) / safe
    dw_dn[..., 0] = 1.0
    dw_up[..., -1] = 1.0
    return Stencil(p_up, p_dn, p_stay, b, sig, fold_dn, fold_up,
                   -bdt / safe, dw_dn, dw_up, moves, bool(moves.all()))


@dataclass
class Lattice:
    """Controlled Markov chain on a uniform space grid.

    The lattice keeps the problem it was built from and computes a layer's
    stencil when asked (:meth:`stencil`), so it holds no per-step arrays.
    ``shared_stencil`` is derived, not a setting: :func:`build_lattice` sets it
    to the one all-pairs stencil, with read-only arrays, when its scan found
    every layer's coefficients bit-equal, and every layer then reads it.
    Without it (a time-dependent problem, or ``replace(lat,
    shared_stencil=None)``) each layer's all-pairs stencil is computed by the
    same function from that layer's coefficients, so both give the same
    numbers.  Either way, fixed or per-node controls select from the
    all-pairs stencil; no control pair is evaluated on its own.
    It is the finite-difference route's grid too: both routes step on that
    problem's drift and diffusion (:meth:`coefficients`), which
    :func:`build_lattice` checked.  ``cfl`` holds the scan's largest
    dt * sig^2 / dx^2 and dt * |b| / dx.  ``clock`` is the time grid it was
    built on and ``first`` the index of ``grid.t0`` among the clock's
    knots: the halves of :meth:`split` keep their parent's clock and
    stencil, so they step with the parent's dt, knots and weights.
    """

    grid: TimeGrid
    x_nodes: np.ndarray
    dx: float
    problem: GameProblem
    clock: TimeGrid
    first: int = 0
    shared_stencil: Stencil = None
    cfl: tuple = None

    @property
    def n_nodes(self) -> int:
        return len(self.x_nodes)

    @property
    def dt(self) -> float:
        return self.clock.dt

    @property
    def knots(self) -> np.ndarray:
        """The lattice's knots, taken from its clock."""
        return self.clock.knots[self.first:self.first + self.grid.n_steps + 1]

    def coefficients(self, t: float):
        """Drift and diffusion of every control pair at knot ``t``, each of
        shape (nU, nV, n)."""
        if self.shared_stencil is not None:
            return self.shared_stencil.b, self.shared_stencil.sig
        return _coefficients(self.problem, t, self.x_nodes[:, None])

    def stencil(self, t: float, ui=None, vi=None) -> Stencil:
        """Folded weights out of knot ``t`` of this lattice's problem.

        The all-pairs stencil, shape (nU, nV, n), is the shared one or else
        the one computed from :meth:`coefficients` at ``t``.  Without
        controls it is returned as is; with control indices ``ui``/``vi``,
        scalars or one per node, :meth:`Stencil.pair` selects from it arrays
        of shape (n,): a view for one pair used by every node, a gather for
        mixed per-node pairs.
        """
        st = self.shared_stencil
        if st is None:
            st = _stencil(*self.coefficients(t), self.dt, self.dx)
        return st if ui is None else st.pair(_one_index(ui), _one_index(vi))

    def moments(self, st: Stencil, vals):
        """One-step conditional expectation of next-layer values per node,
        and the moment E[next value * dW] / dt.

        dW is the Euler increment that produces each move; the mass folded
        at a boundary behaves like a stay move.  Nodes with vanishing
        diffusion report a zero moment.  The next layer is read through a
        copy padded with -0.0 at both ends, so every product spans all
        nodes; an edge node's missing neighbour has weight 0.0 and dW +1.0
        (:class:`Stencil`), and the -0.0 terms it adds leave every bit,
        signed zeros included.
        """
        pad = np.empty(len(vals) + 2)
        pad[0] = pad[-1] = -0.0
        pad[1:-1] = vals
        stay = st.p_stay * vals
        dn = st.p_dn * pad[:-2]
        up = st.p_up * pad[2:]
        z = stay * st.dw_stay
        stay += dn
        stay += up
        z += np.multiply(dn, st.dw_dn, out=dn)
        z += np.multiply(up, st.dw_up, out=up)
        z /= self.dt
        return stay, (z if st.all_move else np.where(st.moves, z, 0.0))

    def split(self, j_mid: int):
        """Head lattice on [t0, t_mid] and tail lattice on [t_mid, T]."""
        if not 0 < j_mid < self.grid.n_steps:
            raise ProblemError("split knot must be strictly interior")
        knots = self.grid.knots
        head_grid = TimeGrid(self.grid.t0, float(knots[j_mid]), j_mid)
        tail_grid = TimeGrid(float(knots[j_mid]), self.grid.T,
                             self.grid.n_steps - j_mid)
        return (replace(self, grid=head_grid),
                replace(self, grid=tail_grid, first=self.first + j_mid))


def build_lattice(p: GameProblem, n_steps: int, x_min: float, x_max: float,
                  n_nodes: int, t0: float = 0.0) -> Lattice:
    """Lattice for ``p`` after checking that every layer's stencil is monotone."""
    x_nodes = _space_grid(n_nodes, x_min, x_max)
    tgrid = TimeGrid(t0, p.horizon, n_steps)
    coeffs, margins = _scan_grid(p, tgrid, x_nodes)
    dx = float(x_nodes[1] - x_nodes[0])
    shared = None
    if coeffs is not None:
        shared = _stencil(*coeffs, tgrid.dt, dx)
        for a in shared.arrays().values():
            a.setflags(write=False)
    return Lattice(grid=tgrid, x_nodes=x_nodes, dx=dx, problem=p, clock=tgrid,
                   shared_stencil=shared, cfl=margins)


# ---------------------------------------------------------------------------
# the backward sweep
# ---------------------------------------------------------------------------

def _check_order(order: str):
    if order not in _ORDERS:
        raise ProblemError(f"order must be one of {_ORDERS}")


def _saddle(table, order: str):
    """Saddle value of a table whose first two axes are (u, v).

    ``supinf`` is the lower value (outer max over u of the inner min over
    v), ``infsup`` the upper one; ties resolve to the first grid index,
    which numpy's min/max ordering provides.
    """
    if order == "supinf":
        return table.min(axis=1).max(axis=0)
    return table.max(axis=0).min(axis=0)


def _clamp(cand, lo, hi, j, out=None):
    """Value layer ``j``: ``cand`` pulled into [lo, hi], into ``out`` if given."""
    w = np.minimum(hi, np.maximum(lo, cand), out=out)
    # a finite sum has finite terms; only a non-finite one needs the exact test
    if not np.isfinite(w.sum()) and not np.all(np.isfinite(w)):
        raise NumericsError(f"non-finite value layer at time index {j}")
    return w


def backward_sweep(p: GameProblem, knots, states, step, order=None,
                   terminal=None, obstacles=None, pushes=True):
    """The backward skeleton every route shares.

    ``states(j)`` gives the states (m, k) at knot j.  The last layer is
    ``terminal`` (default: ``p.terminal`` at the last knot's states, which
    must lie in [l_lo, l_hi] there, or the problem is rejected).  Each
    earlier layer j starts from ``step(j, t_j, next_layer)``: a (nU, nV, m)
    table of control-pair candidates reduced to its saddle value in
    ``order``, or, with ``order=None``, the (m,) candidate under fixed
    controls.  The candidate is clamped into [l_lo, l_hi] at (t_j, states),
    and the clamp overshoots are the pushes of K_lo and K_hi.  A step that
    has evaluated the obstacles at knot j already hands them over as
    ``obstacles(j) -> (l_lo, l_hi)``, called after the step.

    Returns (W, K_lo, K_hi), each of shape (n_knots, m); K is cumulative
    from the first knot (first row zero).  Each side's K rows are written
    and summed from its first push on; an obstacle that never pushes has a
    K of +0.0 (no sign bit) that holds no resident memory until something
    writes it.  The bits are those of a dense cumulative sum of every
    layer's overshoot.  A route that has no use for K passes
    ``pushes=False``: the sweep then neither forms nor stores the
    overshoots, and K_lo and K_hi are None.
    """
    n_steps = len(knots) - 1
    if terminal is None:
        x, T = states(n_steps), float(knots[-1])
        terminal = np.asarray(p.terminal(x), dtype=float)
        viol = np.max(np.maximum(p.lower_obstacle(T, x) - terminal,
                                 terminal - p.upper_obstacle(T, x)))
        if viol > 1e-12:
            raise ProblemError(f"h leaves [l_lo, l_hi] at the terminal layer by {viol:.3e}")
    W = np.empty((n_steps + 1,) + terminal.shape)
    W[-1] = terminal
    K_lo = K_hi = None
    if pushes:
        # np.zeros is calloc: rows that no push reaches stay unmapped pages
        K_lo, K_hi = np.zeros(W.shape), np.zeros(W.shape)
        push = np.empty((2,) + W.shape[1:])  # this layer's pushes, reused
        first = [None, None]  # first row of K_lo and K_hi with a push
    for j in range(n_steps - 1, -1, -1):
        t = float(knots[j])
        cand = step(j, t, W[j + 1])
        if order is not None:
            cand = _saddle(cand, order)
        if obstacles is None:
            x = states(j)
            lo, hi = p.lower_obstacle(t, x), p.upper_obstacle(t, x)
        else:
            lo, hi = obstacles(j)
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if pushes:
            np.subtract(lo, cand, out=push[0])
            np.subtract(cand, hi, out=push[1])
            np.maximum(push, 0.0, out=push)
            for side, K in enumerate((K_lo, K_hi)):
                # any nonzero bit, so a -0.0 push is stored with its sign
                if push[side].view(np.int64).any():
                    K[j + 1] = push[side]
                    first[side] = j + 1
        _clamp(cand, lo, hi, j, out=W[j])
    if pushes:
        for K, r0 in zip((K_lo, K_hi), first):
            if r0 is not None:
                # from the +0.0 row before r0, so row r0 rounds as 0.0 + push
                a = max(1, r0 - 1)
                np.cumsum(K[a:], axis=0, out=K[a:])
    return W, K_lo, K_hi


def _check_grid(p: GameProblem, lat: Lattice):
    """Reject a ``p`` whose control points differ, by value, from
    ``lat.problem``'s: the stencil steps with the lattice problem's points and
    the generator reads ``p``'s, so each table index must name one pair."""
    for mine, built in ((p.u_grid, lat.problem.u_grid), (p.v_grid, lat.problem.v_grid)):
        if mine.size != built.size or not all(map(np.array_equal, mine.points, built.points)):
            raise ProblemError("lattice was built for a different control grid")


def value_backward_induction(p: GameProblem, lat: Lattice, order: str,
                             terminal=None) -> ValueSurface:
    """Backward sup-inf (or inf-sup) induction with obstacle clamping.

    Per node and step, each control pair is scored by the one-step
    expectation plus the generator contribution f(t, x, E, Z) dt, where E is
    the stencil expectation itself and Z its dW-moment; the chosen order of
    optimisation then picks the saddle value, and the result is pulled back
    into [l_lo, l_hi].
    """
    _check_order(order)
    _check_grid(p, lat)
    if terminal is not None:
        terminal = np.asarray(terminal, dtype=float)
        if terminal.shape != (lat.n_nodes,):
            raise ProblemError("terminal override must have one value per node")
    dt = lat.dt
    xb = lat.x_nodes[:, None]

    def step(j, t, nxt):
        e, z = lat.moments(lat.stencil(t), nxt)
        return e + dt * _evaluate(p, "generator", t, xb, e, z[..., None])

    W, _, _ = backward_sweep(p, lat.knots, lambda j: xb, step, order, terminal,
                             pushes=False)
    kind = "lower-game" if order == "supinf" else "upper-game"
    return ValueSurface(grid=lat.grid, x_nodes=lat.x_nodes.copy(), W=W, kind=kind)


# ---------------------------------------------------------------------------
# Dynkin brute force on a binary tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinaryTree:
    """Non-recombining binary tree: from x the state moves to x +/- dx.

    Leaf paths are indexed move-major (first move is the most significant
    bit), so the first half of the leaves is the down-subtree.
    """

    grid: TimeGrid
    x0: float
    dx: float
    p_up: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.p_up < 1.0:
            raise ProblemError("p_up must lie in (0, 1)")

    @property
    def depth(self) -> int:
        return self.grid.n_steps

    def _moves(self) -> np.ndarray:
        """Up (1) or down (0) per (leaf, move), first move first."""
        return (np.arange(1 << self.depth)[:, None] >> np.arange(self.depth)[::-1]) & 1

    def leaf_states(self) -> np.ndarray:
        """X values per (leaf, level), shape (2**depth, depth + 1)."""
        steps = self.dx * (2 * self._moves() - 1)
        return np.cumsum(np.column_stack([np.full(len(steps), self.x0), steps]), axis=1)

    def leaf_weights(self) -> np.ndarray:
        ups = self._moves().sum(axis=1)
        return self.p_up ** ups * (1.0 - self.p_up) ** (self.depth - ups)


def enumerate_stopping_rules(depth: int) -> np.ndarray:
    """All adapted stopping rules as stop levels per leaf, move-major order.

    A rule stops at a node depending only on the path so far; equivalently
    it assigns every leaf the level at which its path stops (``depth``
    meaning: not stopped before T, with any flag below an already-stopped
    ancestor ignored).  Row r, column leaf: that level for rule r.  Counts
    follow S(m) = 1 + S(m-1)^2 with S(0) = 1, i.e. 2, 5, 26, 677 for
    depths 1-4.  Row 1 + a S(m-1) + b joins sub-rules a (down) and b (up).
    """
    if depth == 0:
        return np.zeros((1, 1), dtype=np.int64)
    sub = enumerate_stopping_rules(depth - 1) + 1
    pairs = np.hstack([np.repeat(sub, len(sub), axis=0), np.tile(sub, (len(sub), 1))])
    return np.vstack([np.zeros(2 * sub.shape[1], dtype=np.int64), pairs])


def dynkin_brute_force(tree: BinaryTree, l_lo, l_hi, h) -> float:
    """Exhaustive sup-inf value over all adapted stopping-time pairs.

    The maximiser collects l_lo where it stops first (ties included), the
    minimiser pays l_hi where it stops strictly first, and h(X_T) is paid
    when neither stops before T.  Asserts that sup-inf and inf-sup agree
    (the game has a saddle point when the barriers are separated) and
    returns the common value.  The payoff matrix over rule pairs is summed
    in blocks of 64 rows that stay in cache, leaf loop innermost, so each
    entry is the sequential sum over leaves 0, 1, ...
    """
    N = tree.depth
    if N > 4:
        raise ProblemError("brute-force enumeration is limited to depth <= 4")
    X, wts, knots = tree.leaf_states(), tree.leaf_weights(), tree.grid.knots

    # payoff per (leaf, maximiser stop level ta, minimiser stop level sb):
    # l_lo at ta <= sb, l_hi at sb < ta, h(X_T) when min(ta, sb) = N
    hT = h(X[:, [N]])
    LO, HI = (np.column_stack([bar(float(knots[m]), X[:, [m]]) for m in range(N)] + [hT])
              for bar in (l_lo, l_hi))
    ta, sb = np.indices((N + 1, N + 1))
    P = np.where(ta > sb, HI[:, sb], LO[:, ta])

    rules = enumerate_stopping_rules(N)
    cols = np.ascontiguousarray(rules.T)  # (leaf, rule): the rule's stop level
    # per (leaf, maximiser rule): the weighted payoffs over the minimiser's level
    rows = (wts[:, None, None] * P)[np.arange(len(X))[:, None], cols]
    M = np.zeros((len(rules), len(rules)))
    block = 64
    buf = np.empty((block, len(rules)))
    for r0 in range(0, len(rules), block):
        blk = M[r0:r0 + block]
        for leaf in range(len(X)):
            blk += np.take(rows[leaf, r0:r0 + len(blk)], cols[leaf], axis=1,
                           out=buf[:len(blk)], mode="clip")

    v_lo = float(M.min(axis=1).max())
    v_hi = float(M.max(axis=0).min())
    scale = max(1.0, abs(v_lo), abs(v_hi))
    if abs(v_lo - v_hi) > 1e-12 * scale:
        raise NumericsError(
            f"stopping game has no saddle point: supinf={v_lo!r}, infsup={v_hi!r}"
        )
    return v_lo


@dataclass
class OracleCase:
    """One corpus entry: a tree plus the equivalent lattice stopping problem.

    The lattice reproduces the tree dynamics exactly (saturated stencil,
    domain wide enough that edge folding cannot reach the tree cone), so
    the recursion root at ``root_index`` must equal the brute-force value.
    """

    tree: BinaryTree
    problem: GameProblem
    lattice: Lattice
    root_index: int

    def recursion_value(self) -> float:
        surf = value_backward_induction(self.problem, self.lattice, "supinf")
        return float(surf.W[0, self.root_index])

    def brute_force_value(self) -> float:
        return dynkin_brute_force(self.tree, self.problem.lower_obstacle,
                                  self.problem.upper_obstacle,
                                  self.problem.terminal)


def _affine_obstacle_problem(T, sig, b0, slope, mid, gap_lo, gap_hi, theta):
    """f = 0 stopping problem with same-slope affine barriers.

    The terminal value is the convex combination theta * l_lo(T, .) +
    (1 - theta) * l_hi(T, .), which sits strictly inside the corridor.
    """

    def l_lo(t, x):
        return slope * x[..., 0] + mid - gap_lo

    def l_hi(t, x):
        return slope * x[..., 0] + mid + gap_hi

    def h(x):
        return slope * x[..., 0] + mid - theta * gap_lo + (1 - theta) * gap_hi

    def drift(t, x, u, v):
        return np.full_like(x, b0)

    def diffusion(t, x, u, v):
        return np.full(np.shape(x)[:-1] + (1, 1), sig)

    def gen(t, x, y, z, u, v):
        return np.zeros(np.shape(x)[:-1])

    gamma = max(1.0, abs(b0) + sig, abs(slope))
    return GameProblem(
        state_dim=1, noise_dim=1, horizon=T, drift=drift, diffusion=diffusion,
        generator=gen, terminal=h, lower_obstacle=l_lo, upper_obstacle=l_hi,
        lipschitz=gamma, holder_q=2.0,
        u_grid=ControlGrid.singleton(), v_grid=ControlGrid.singleton(),
        name="oracle-case",
    )


def dynkin_oracle_corpus(n_trees: int = 24, seed: int = 2024):
    """Deterministic corpus of small stopping games with varied barriers.

    Depths cycle through 1-4; slopes, gaps, step sizes, centres and the
    up-probability vary with the seed.  Each case couples a binary tree to
    a lattice built so the two backward recursions are algebraically the
    same: saturated second-moment stencil (sigma = dx/sqrt(dt)), drift
    matching the tree's up-probability, and a two-node safety margin to the
    domain edge.
    """
    if n_trees < 1:
        raise ProblemError("n_trees must be >= 1")
    rng = np.random.default_rng(seed)
    dt = 0.2
    cases = []
    for i in range(n_trees):
        depth = 1 + i % 4
        dx = float(rng.uniform(0.3, 1.2))
        x0 = float(rng.uniform(-1.0, 1.0))
        slope = float(rng.choice([0.0, 0.5, -0.5, 1.0]))
        mid = float(rng.uniform(-0.5, 0.5))
        gap_lo = float(rng.uniform(0.2, 1.2))
        gap_hi = float(rng.uniform(0.2, 1.2))
        theta = float(rng.uniform(0.0, 1.0))
        p_up = float(rng.choice([0.4, 0.5, 0.5, 0.6]))

        T = dt * depth
        sig = dx / np.sqrt(dt)
        b0 = (2.0 * p_up - 1.0) * dx / dt
        prob = _affine_obstacle_problem(T, sig, b0, slope, mid, gap_lo,
                                        gap_hi, theta)
        margin = depth + 2
        lat = build_lattice(prob, n_steps=depth, x_min=x0 - margin * dx,
                            x_max=x0 + margin * dx, n_nodes=2 * margin + 1)
        tree = BinaryTree(grid=lat.grid, x0=x0, dx=dx, p_up=p_up)
        cases.append(OracleCase(tree=tree, problem=prob, lattice=lat,
                                root_index=margin))
    return cases


# ---------------------------------------------------------------------------
# dynamic programming identity
# ---------------------------------------------------------------------------

@dataclass
class DppReport:
    direct: float
    composed: float
    gap: float


def dpp_check(p: GameProblem, lat: Lattice, t_mid: float, order: str,
              x0: float) -> DppReport:
    """Solve-compose-compare at a deterministic intermediate knot.

    The direct route solves on [t0, T]; the composed route solves [t_mid, T]
    first and feeds W(t_mid, .) as terminal data to a solve on [t0, t_mid].
    The halves of a split step on the parent's clock, so the two recursions
    perform the same arithmetic and the reported gap is exactly zero.  Both
    roots are read at ``x0`` by :meth:`ValueSurface.root`.
    """
    head, tail = lat.split(lat.grid.index_of(t_mid))
    direct = value_backward_induction(p, lat, order).root(x0)
    tail_surf = value_backward_induction(p, tail, order)
    composed = value_backward_induction(p, head, order, terminal=tail_surf.W[0]).root(x0)
    return DppReport(direct=direct, composed=composed, gap=abs(direct - composed))


def dpp_cross_resolution(p: GameProblem, lat: Lattice, t_mid: float, order: str,
                         x0: float) -> DppReport:
    """Composed route with a (dx/2, dt/4) lattice on [t_mid, T].

    The fine continuation value is interpolated linearly onto the coarse
    nodes before the head solve, so the gap measures scheme consistency
    rather than an algebraic identity.  Both roots are read at ``x0``.
    """
    composed = _refined_composition(p, lat, t_mid, order).root(x0)
    direct = value_backward_induction(p, lat, order).root(x0)
    return DppReport(direct=direct, composed=composed, gap=abs(direct - composed))


def _refine(p: GameProblem, lat: Lattice) -> Lattice:
    """Lattice for ``p`` on ``lat``'s domain from its t0: 4x the steps and
    2n - 1 nodes, so dt / 4 and dx / 2."""
    return build_lattice(p, 4 * lat.grid.n_steps, float(lat.x_nodes[0]),
                         float(lat.x_nodes[-1]), 2 * lat.n_nodes - 1, t0=lat.grid.t0)


def _refined_composition(p: GameProblem, lat: Lattice, t_mid: float,
                         order: str) -> ValueSurface:
    """Head surface of the composed route of :func:`dpp_cross_resolution`."""
    head, tail = lat.split(lat.grid.index_of(t_mid))
    fine_tail = _refine(p, tail)
    tail_surf = value_backward_induction(p, fine_tail, order)
    terminal = np.interp(lat.x_nodes, fine_tail.x_nodes, tail_surf.W[0])
    return value_backward_induction(p, head, order, terminal=terminal)


# ---------------------------------------------------------------------------
# occupancy
# ---------------------------------------------------------------------------

def _layer_stencils(lat: Lattice, mu, nu):
    """j -> layer j's stencil under the validated (n_steps, n) control
    tables ``mu``/``nu``; one pair for every node and layer of a shared
    stencil is selected once, not once per layer."""
    ui, vi = _one_index(mu), _one_index(nu)
    if lat.shared_stencil is not None and isinstance(ui, int) and isinstance(vi, int):
        st = lat.shared_stencil.pair(ui, vi)
        return lambda j: st
    knots = lat.knots
    return lambda j: lat.stencil(float(knots[j]), mu[j], nu[j])


def lattice_occupancy(lat: Lattice, mu=0, nu=0, *, root_index):
    """Forward node-occupancy distribution from the node ``root_index``.

    Returns (pi, folded_fraction): pi[j, i] is the chain probability of node
    i at knot j starting from the root, and folded_fraction is the total
    occupancy-weighted probability mass reflected at the domain edges (small
    when the domain is wide enough).
    """
    n_steps, n = lat.grid.n_steps, lat.n_nodes
    mu, nu = _control_tables(lat.problem, mu, nu, (n_steps, n))
    pi = np.zeros((n_steps + 1, n))
    pi[0, _point_index(root_index, n, "root_index")] = 1.0
    folded = 0.0
    stencil = _layer_stencils(lat, mu, nu)
    for j in range(n_steps):
        st = stencil(j)
        cur = pi[j]
        nxt = pi[j + 1]
        nxt += cur * st.p_stay
        nxt[1:] += (cur * st.p_up)[:-1]
        nxt[:-1] += (cur * st.p_dn)[1:]
        folded += cur[0] * st.fold_dn + cur[-1] * st.fold_up
    return pi, float(folded)
