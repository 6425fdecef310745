"""Problem instances: controlled diffusions with a running reward and two
separating reflection barriers.

A :class:`GameProblem` bundles everything the solvers need:

* state dynamics ``b`` (drift) and ``sigma`` (diffusion), controlled by the
  two players through finite control grids,
* a generator ``f`` feeding the backward equation,
* a terminal reward ``h`` squeezed between a lower barrier ``l_lo`` and an
  upper barrier ``l_hi`` (``l_lo < l_hi`` everywhere, ``l_lo(T,.) <= h <=
  l_hi(T,.)``),
* the Lipschitz budget ``gamma`` and the regularity exponent ``holder_q``.

Coefficient callables are vectorised over a batch of states: the state
argument ``x`` always has shape ``(..., k)`` and results broadcast over the
leading axes.  Shapes:

    b(t, x, u, v)      -> (..., k)
    sigma(t, x, u, v)  -> (..., k, d)
    f(t, x, y, z, u, v)-> (...,)        y: (...,), z: (..., d)
    h(x), l_lo(t, x), l_hi(t, x) -> (...,)

``u`` and ``v`` are control points.  A callable with scalar control points
broadcasts over controls the same way it broadcasts over states: it gets
``u`` of shape ``(nU, 1) + (1,) * r`` and ``v`` of shape ``(1, nV) + (1,) *
r`` for every control pair at once (``r`` is the rank of one pair's result
on ``x`` of shape ``(m, k)``: drift 2, diffusion 3, generator 1), or the
points of one pair per state, of shape ``(m,) + (1,) * (r - 1)``, and must
give the per-pair bits, which :func:`validate_problem` checks.
Array-valued points are passed one pair at a time.

Each player's control is one grid index or an integer index table of the
route's shape, checked for every solver by one rule (:func:`_control_tables`).

The built-in catalog (:func:`make_preset`) covers four families; everything
else can be built by calling :class:`GameProblem` directly with custom maps.
Standing regularity assumptions are not provable for black-box callables, so
:func:`validate_problem` falsifies them on a reproducible random sample
instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np

__all__ = [
    "ControlGrid",
    "GameProblem",
    "ValidationReport",
    "ProblemError",
    "NumericsError",
    "make_preset",
    "preset_names",
    "validate_problem",
]


class ProblemError(ValueError):
    """Ill-posed problem data (bad preset parameters, violated invariants)."""


class NumericsError(RuntimeError):
    """Non-finite values or a numerically unusable configuration."""


# Rows per block of ``_csv``: large enough to amortise the per-block cost,
# small enough that a block's text and boxed values stay well under a MiB.
_CSV_BLOCK = 4096


def _csv_shape(shapes) -> tuple:
    """The table shape of ``_csv`` for columns of ``shapes``."""
    try:
        shape = np.broadcast_shapes(*shapes)
    except ValueError:
        shape = None
    if not shape or shape not in shapes or (len(shape) == 1 and len(set(shapes)) > 1):
        raise ProblemError(f"CSV columns of shapes {shapes} do not fit one table")
    return shape


def _csv(path, header: str, *columns):
    """Write the CSV file ``path``: the ``header`` line, then one line per
    cell of the table, in C order of its shape.

    A column is an array or sequence, or a bare ``str`` that every row
    repeats.  The table's shape is the largest column's shape.  Every other
    column must broadcast to it without making it larger, so callers pass
    their axes (``knots[:, None]``, ``x_nodes``) rather than expanded
    copies; a 1-d table needs columns of equal length.  Columns that do not
    fit raise ``ProblemError`` before the file is opened.

    Float columns print as ``%.17g`` (so ``inf``, ``-inf``, ``nan`` and
    ``-0`` for negative zero); every other column prints via ``str``.  A
    column smaller than the table is formatted once per element and enters
    the rows as text.  The file is written in blocks of about
    ``_CSV_BLOCK`` rows, walking the leading axis, so the table is never
    held as text.  This is the one CSV writer of the package.
    """
    columns = [c if isinstance(c, str) else np.asarray(c) for c in columns]
    shape = _csv_shape([c.shape for c in columns if not isinstance(c, str)])
    fields, data = [], []
    for col in columns:
        if isinstance(col, str):
            fields.append(col.replace("%", "%%"))
            continue
        fmt = "%.17g" if col.dtype.kind == "f" else "%s"
        if col.shape != shape:
            text = np.empty(col.size, dtype=object)
            text[:] = [fmt % v for v in col.ravel().tolist()]
            col, fmt = np.broadcast_to(text.reshape(col.shape), shape), "%s"
        fields.append(fmt)
        data.append(col)
    row = ",".join(fields) + "\n"
    step = max(1, _CSV_BLOCK // max(1, math.prod(shape[1:])))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for s in range(0, shape[0], step):
            block = [col[s:s + step].ravel().tolist() for col in data]
            fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def _point_distance(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sqrt(np.sum((a - b) ** 2)))


@dataclass(frozen=True)
class ControlGrid:
    """Finite ordered set of control points with a distinguished origin.

    ``norm(i)`` is the metric distance of point ``i`` from the origin point,
    the quantity the growth assumptions are phrased in.
    """

    points: tuple
    origin: int = 0

    def __post_init__(self):
        if len(self.points) == 0:
            raise ProblemError("control grid must be non-empty")
        if not 0 <= self.origin < len(self.points):
            raise ProblemError("control grid origin index out of range")
        if any(_point_distance(a, b) == 0.0 for a, b in combinations(self.points, 2)):
            raise ProblemError("control grid points must be distinct")

    @classmethod
    def singleton(cls):
        return cls(points=(0.0,))

    @property
    def size(self):
        return len(self.points)

    def point(self, i):
        return self.points[i]

    def norm(self, i):
        return _point_distance(self.points[i], self.points[self.origin])

    @cached_property
    def _scalars(self):
        """The points as one read-only 1-d array; None if any is array-valued."""
        if any(np.ndim(pt) for pt in self.points):
            return None
        a = np.asarray(self.points)
        a.setflags(write=False)
        return a


def _indices(values, what):
    """``values`` as int64 indices; ProblemError unless each is an integer."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu" and a.size:
        raise ProblemError(f"{what} must be integers, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False)


def _integer(value, what) -> int:
    """``value`` as a Python int; ProblemError for a bool, float or other
    non-integer (numpy integers are accepted)."""
    if isinstance(value, (bool, np.bool_)):
        raise ProblemError(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ProblemError(f"{what} must be an integer, got {value!r}") from None


def _point_index(i, n, name):
    """``i`` as a Python int when it is an integer index in [0, n);
    ProblemError otherwise."""
    i = _integer(i, name)
    if not 0 <= i < n:
        raise ProblemError(f"{name} must be an index in [0, {n}), got {i!r}")
    return i


def _control_table(ctrl, shape, size, name):
    """One player's controls as an int64 index table of ``shape``, indices in
    [0, size); one index becomes a read-only zero-stride view, range-checked
    by its one value."""
    a = _indices(ctrl, f"{name} control indices")
    table = np.broadcast_to(a, shape) if a.ndim == 0 else a
    if table.shape != shape:
        raise ProblemError(f"{name} controls of shape {a.shape} do not fit the "
                           f"tables {shape} of their route")
    one = table if any(table.strides) else table[:1, :1]
    if one.size and (one.min() < 0 or one.max() >= size):
        raise ProblemError(f"{name} control index out of range for its grid "
                           f"of {size} points")
    return table


def _control_tables(p, mu, nu, shape):
    """Both players' controls as index tables of ``shape`` into ``p``'s grids:
    (n_steps, n_nodes) on a lattice, (n_paths, n_steps) along paths.  Every
    solver checks its controls here and nowhere else."""
    return (_control_table(mu, shape, p.u_grid.size, "mu"),
            _control_table(nu, shape, p.v_grid.size, "nu"))


def _one_index(idx):
    """Control indices as one int when every position holds the same index."""
    if not isinstance(idx, np.ndarray):
        return int(idx)
    return int(idx.item(0)) if not any(idx.strides) or idx.min() == idx.max() else idx


def _control_pairs(p, ui=None, vi=None):
    """The control pairs in use as ``(u, v, cell, nodes)``, u and v points.

    Without indices: every pair, ``cell = (i, k)``, ``nodes = slice(None)``.
    With grid indices (scalars or 1-d, one per position): each distinct pair
    in lexicographic order, ``cell = nodes =`` its positions, or
    ``slice(None)`` when one pair is used everywhere."""
    U, V = p.u_grid.points, p.v_grid.points
    if ui is None:
        return [(u, v, (i, k), slice(None)) for i, u in enumerate(U) for k, v in enumerate(V)]
    ui, vi = _one_index(ui), _one_index(vi)
    if isinstance(ui, int) and isinstance(vi, int):
        return [(U[ui], V[vi], slice(None), slice(None))]
    codes = ui * len(V) + vi
    used = np.flatnonzero(np.bincount(codes))  # np.unique's first call imports numpy.ma
    sels = {c: np.flatnonzero(codes == c) for c in used.tolist()}
    return [(U[c // len(V)], V[c % len(V)], sel, sel) for c, sel in sels.items()]


@dataclass(frozen=True)
class GameProblem:
    """Immutable problem instance; all fields are read-only after creation.
    Its callables follow the contract of the module docstring."""

    state_dim: int
    noise_dim: int
    horizon: float
    drift: callable
    diffusion: callable
    generator: callable
    terminal: callable
    lower_obstacle: callable
    upper_obstacle: callable
    lipschitz: float
    holder_q: float
    u_grid: ControlGrid
    v_grid: ControlGrid
    name: str = "custom"

    def __post_init__(self):
        if self.state_dim < 1 or self.noise_dim < 1:
            raise ProblemError("state_dim and noise_dim must be positive")
        if not 0 < self.horizon < np.inf:
            raise ProblemError(f"horizon must be finite and positive, got {self.horizon}")
        if not self.lipschitz > 0:
            raise ProblemError("lipschitz constant must be positive")
        if not (1.0 < self.holder_q <= 2.0):
            raise ProblemError(f"holder_q must lie in (1, 2], got {self.holder_q}")


def _scalar_controls(p: GameProblem) -> bool:
    """True when every control point is a scalar: one call takes every pair."""
    return p.u_grid._scalars is not None and p.v_grid._scalars is not None


def _broadcast(p: GameProblem, name, t, x, args, ui=None, vi=None):
    """One call of ``p``'s callable ``name`` with the points of every control
    pair, or of each state's pair, shaped as in the module docstring."""
    k, d = p.state_dim, p.noise_dim
    one = x.shape[:-1] + {"drift": (k,), "diffusion": (k, d), "generator": ()}[name]
    U, V = p.u_grid._scalars, p.v_grid._scalars
    u, v = ((U[:, None, None], V[None, :, None]) if ui is None
            else (U[_one_index(ui)], V[_one_index(vi)]))
    pad = (1,) * (len(one) - 1)
    f = np.asarray(getattr(p, name)(t, x, *args, u.reshape(u.shape + pad),
                                    v.reshape(v.shape + pad)), dtype=float)
    shape = one if ui is not None else (len(U), len(V)) + one
    if f.shape == shape:
        return f
    table = np.empty(shape)  # far cheaper than np.broadcast_to on small tables
    table[...] = f
    return table


def _per_pair(p: GameProblem, name, t, x, args, ui=None, vi=None):
    """``p``'s callable ``name`` called once per control pair in use
    (:func:`_control_pairs`), each pair on its own states."""
    fn, out = getattr(p, name), None
    for u, v, cell, nodes in _control_pairs(p, ui, vi):
        f = np.asarray(fn(t, x[nodes], *[a[cell] if a.ndim > x.ndim else a[nodes]
                                         for a in args], u, v), dtype=float)
        if out is None:
            out = np.empty((p.u_grid.size, p.v_grid.size) + f.shape if ui is None
                           else (len(x),) + f.shape[1:])
        out[cell] = f
    return out


def _evaluate(p: GameProblem, name, t, x, *args, ui=None, vi=None):
    """``p``'s callable ``name`` (drift, diffusion or generator) at time ``t``
    on the states ``x`` (m, k), for every control pair as an (nU, nV) table
    or, with grid indices ``ui``/``vi`` (scalars or one per state), for each
    state's own pair.  ``args`` with more axes than ``x`` are (nU, nV) tables,
    the others shared.  Every solver passes control points through here."""
    return (_broadcast if _scalar_controls(p) else _per_pair)(p, name, t, x, args, ui, vi)


# ---------------------------------------------------------------------------
# preset catalog
# ---------------------------------------------------------------------------

def _const_obstacles(lo, hi):
    """Constant barriers; each returns one read-only array per state shape,
    so a sweep that asks at every layer allocates nothing."""
    def barrier(level):
        cache = {}

        def l(t, x):
            shape = np.shape(x)[:-1]
            if shape not in cache:
                cache[shape] = np.full(shape, level)
                cache[shape].flags.writeable = False
            return cache[shape]

        return l

    return barrier(float(lo)), barrier(float(hi))


_TERMINALS = {
    "square": lambda x: x[..., 0] ** 2,
    "neg-square": lambda x: -(x[..., 0] ** 2),
    "identity": lambda x: x[..., 0],
    "abs": lambda x: np.abs(x[..., 0]),
}


def _terminal_map(spec):
    """Named terminal function, or a constant if ``spec`` is a number."""
    if isinstance(spec, str):
        if spec not in _TERMINALS:
            raise ProblemError(
                f"unknown terminal function {spec!r}; "
                f"choose one of {sorted(_TERMINALS)} or pass a number"
            )
        return _TERMINALS[spec]
    c = float(spec)
    return lambda x: np.full(np.shape(x)[:-1], c)


def _zero_drift(t, x, u, v):
    return np.zeros_like(x)


def _zero_generator(t, x, y, z, u, v):
    return np.zeros(np.shape(x)[:-1])


# Per-preset documented parameter tables: key -> default.  Unknown keys are
# rejected, which keeps config typos loud.
PRESETS = {
    "dynkin-flat": {
        "l_lo": -1.0,
        "l_hi": 1.0,
        "h": 0.0,
        "T": 1.0,
        "sigma": 1.0,
        "q": 2.0,
    },
    "uncertain-volatility": {
        "sigma_lo": 1.0,
        "sigma_hi": 2.0,
        "h": "square",
        "T": 1.0,
        "drift": 0.0,
        "l_lo": -1.0e6,
        "l_hi": 1.0e6,
        "q": 2.0,
    },
    "bsb-convex": {
        "sigma_lo": 0.2,
        "sigma_hi": 0.4,
        "rate": 0.0,
        "h": "square",
        "T": 1.0,
        "l_lo": -1.0e6,
        "l_hi": 1.0e6,
        "q": 2.0,
    },
    "linear-quadratic": {
        "a": 0.0,
        "b_u": 1.0,
        "u_lo": -1.0,
        "u_hi": 1.0,
        "sigma_lo": 1.0,
        "sigma_hi": 2.0,
        "c_x": 0.5,
        "c_uv": 1.0,
        "h": "identity",
        "T": 1.0,
        "l_lo": -20.0,
        "l_hi": 20.0,
        "q": 2.0,
    },
}


def preset_names():
    return sorted(PRESETS)


def _merge_params(name, params):
    if name not in PRESETS:
        raise ProblemError(
            f"unknown preset {name!r}; known presets: {', '.join(preset_names())}"
        )
    table = dict(PRESETS[name])
    params = dict(params or {})
    unknown = sorted(set(params) - set(table))
    if unknown:
        raise ProblemError(
            f"preset {name!r} does not accept parameter(s) {unknown}; "
            f"documented keys: {sorted(table)}"
        )
    table.update(params)
    return table


def _require(cond, msg):
    if not cond:
        raise ProblemError(msg)


def make_preset(name, params=None) -> GameProblem:
    """Build a catalog problem.

    Every preset is one-dimensional with unit noise, horizon ``T``,
    ``holder_q = q`` (default 2), constant barriers ``l_lo < l_hi`` and a
    terminal ``h``: ``square``, ``neg-square``, ``identity``, ``abs`` or a
    constant in [l_lo, l_hi] (a named one is checked at T by every
    backward route).  Every numeric parameter but the barriers, a
    constant ``h`` included, must be finite.  Control points are scalars
    and the callables broadcast over them.  Drift and generator default to
    zero and the control grids to singletons; the presets differ in the
    rest:

    ``dynkin-flat``
        Pure stopping game: constant diffusion ``sigma``.
    ``uncertain-volatility``
        One controller picks the diffusion level directly, ``sigma(t,x,u) =
        u`` with ``u`` on the two-point grid ``{sigma_lo, sigma_hi}``; the
        drift is the constant ``drift``.
    ``bsb-convex``
        Geometric variant on the same grid: ``sigma(t,x,u) = u * x`` and
        drift ``rate * x``, the usual convex-payoff volatility-selection
        setup.
    ``linear-quadratic``
        Genuine two-player family: drift ``a*x + b_u*u`` steered by the
        first player, diffusion ``v`` picked by the second from
        ``{sigma_lo, sigma_hi}``, and a generator ``c_x*x + c_uv*u*(v -
        v_mid)`` whose bilinear coupling makes the stepwise sup-inf and
        inf-sup optima genuinely different (``v_mid`` is the midpoint of
        the diffusion grid).
    """
    p = _merge_params(name, params)
    for key, val in p.items():  # T and q are checked by GameProblem
        if key not in ("T", "q", "l_lo", "l_hi") and not isinstance(val, str):
            _require(np.isfinite(float(val)), f"parameter {key!r} must be finite, got {val}")
    T, q, lo, hi = (float(p[k]) for k in ("T", "q", "l_lo", "l_hi"))
    _require(lo < hi, f"obstacle separation violated: l_lo={lo} >= l_hi={hi}")
    if not isinstance(p["h"], str):
        hval = float(p["h"])
        _require(lo <= hval <= hi, f"terminal h={hval} not between obstacles [{lo}, {hi}]")
    drift, generator = _zero_drift, _zero_generator
    u_grid = v_grid = ControlGrid.singleton()

    if name == "dynkin-flat":
        sig = float(p["sigma"])
        _require(sig >= 0, "sigma must be nonnegative")
        gamma = max(1.0, sig)

        def diffusion(t, x, u, v):
            return np.full(np.shape(x)[:-1] + (1, 1), sig)

    elif name in ("uncertain-volatility", "bsb-convex"):
        s_lo, s_hi = float(p["sigma_lo"]), float(p["sigma_hi"])
        b0 = float(p["drift" if name == "uncertain-volatility" else "rate"])
        _require(0 < s_lo < s_hi, "need 0 < sigma_lo < sigma_hi")
        u_grid = ControlGrid(points=(s_lo, s_hi))
        gamma = max(1.0, abs(b0) + s_hi)
        if name == "uncertain-volatility":
            def drift(t, x, u, v):
                return np.full_like(x, b0)

            def diffusion(t, x, u, v):
                return u * np.ones(np.shape(x)[:-1] + (1, 1))
        else:
            def drift(t, x, u, v):
                return b0 * x

            def diffusion(t, x, u, v):
                return u * x[..., None]

    else:  # linear-quadratic
        a, b_u = float(p["a"]), float(p["b_u"])
        u_lo, u_hi = float(p["u_lo"]), float(p["u_hi"])
        s_lo, s_hi = float(p["sigma_lo"]), float(p["sigma_hi"])
        c_x, c_uv = float(p["c_x"]), float(p["c_uv"])
        _require(u_lo < u_hi, "need u_lo < u_hi")
        _require(0 < s_lo < s_hi, "need 0 < sigma_lo < sigma_hi")
        v_mid = 0.5 * (s_lo + s_hi)
        u_grid, v_grid = ControlGrid(points=(u_lo, u_hi)), ControlGrid(points=(s_lo, s_hi))

        def drift(t, x, u, v):
            return a * x + b_u * u

        def diffusion(t, x, u, v):
            return v * np.ones(np.shape(x)[:-1] + (1, 1))

        def generator(t, x, y, z, u, v):
            return c_x * x[..., 0] + c_uv * u * (v - v_mid)

        # gamma: covers |a| (x-Lipschitz of b), c_x (x-Lipschitz of f), the
        # growth of b and sigma at x = 0, and the coupling term's growth.
        u_span = u_hi - u_lo
        grow_b = abs(b_u) * max(abs(u_lo), abs(u_hi))
        grow_f = abs(c_uv) * max(abs(u_lo), abs(u_hi)) * (s_hi - v_mid)
        gamma = max(1.0, abs(a), abs(c_x), grow_b, s_hi, grow_f, abs(b_u) * u_span)

    l_lo, l_hi = _const_obstacles(lo, hi)
    return GameProblem(
        state_dim=1, noise_dim=1, horizon=T, drift=drift, diffusion=diffusion,
        generator=generator, terminal=_terminal_map(p["h"]), lower_obstacle=l_lo,
        upper_obstacle=l_hi, lipschitz=gamma, holder_q=q, u_grid=u_grid,
        v_grid=v_grid, name=name)


# ---------------------------------------------------------------------------
# sampled assumption checks
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """Per-assumption outcome of the sampled regularity checks.

    ``rows`` holds ``(assumption, max_ratio, passed)``.  For the quotient
    assumptions ``max_ratio`` is the largest observed quotient divided by
    its assumed bound (pass iff <= 1 up to relative slack 1e-9).  For the
    two ordering rows the column holds the largest signed violation margin
    instead: ``obstacle_separation`` passes iff ``max(l_lo - l_hi) < 0``
    strictly, ``terminal_between_obstacles`` iff the margin is <= 0.
    """

    rows: list

    SLACK = 1e-9

    @property
    def passed(self) -> bool:
        return all(ok for _, _, ok in self.rows)

    def ratio(self, assumption):
        return {name: r for name, r, _ in self.rows}[assumption]

    def to_csv(self, path):
        names, ratios, passed = zip(*self.rows)
        _csv(path, "assumption,max_ratio,pass", names, ratios,
             np.where(passed, "true", "false"))


def _nonfinite(name, t, x):
    return NumericsError(
        f"non-finite value from {name} at t={t!r}, x={np.asarray(x).ravel()!r}")


def _ratio(num, den, positive):
    """num / den where ``positive``; elsewhere inf if num > 0, else 0."""
    r = np.divide(num, den, out=np.zeros_like(num), where=positive)
    r[~positive & (num > 0)] = np.inf
    return r


def _worst(values, start=0.0):
    """max(start, v0, v1, ...) by Python's rule: the first of equal values."""
    return float(max(chain([start], values.tolist())))


_SAMPLE_RADIUS = 2.0  # validate_problem draws x, y and z from [-2, 2]


def _check_broadcast(p: GameProblem, t, x, y, z, rng):
    """Raise unless one call of drift, diffusion and generator at knot ``t``
    on ``x`` (m, k), ``y`` (m,) and ``z`` (m, d) gives the per-pair bits, for
    every control pair and for per-state grid indices drawn from ``rng``."""
    drawn = rng.integers(0, p.u_grid.size, len(x)), rng.integers(0, p.v_grid.size, len(x))
    for name, args in (("drift", ()), ("diffusion", ()), ("generator", (y, z))):
        for form, idx in (("every control pair", (None, None)),
                          ("a control pair per state", drawn)):
            want = _per_pair(p, name, t, x, args, *idx)
            try:  # a callable that cannot take arrays fails the check too
                got = _broadcast(p, name, t, x, args, *idx)
                same = np.array_equal(got.view(np.int64), want.view(np.int64))
            except (TypeError, ValueError):
                same = False
            if not same:
                raise ProblemError(
                    f"{name} declares broadcast controls by its scalar control points, "
                    f"but one call with {form} differs from the per-pair calls")


def validate_problem(p: GameProblem, samples: int, seed: int) -> ValidationReport:
    """Falsify the standing assumptions on a deterministic random sample.

    Draws ``samples`` tuples ``(t, x, x', y, y', z, z', u, v)`` from
    ``numpy.random.default_rng(seed)`` (each coordinate of x, y and z
    uniform on [-2, 2]) and reports, per assumption, the worst ratio of the
    observed difference quotient to its assumed bound.  The sample ignores
    the grids the routes run on: the assumptions, l_lo(T, .) <= h <=
    l_hi(T, .) included, are stated for every x, and a grid only truncates
    the routes.  Identical calls return identical reports.  Per sample,
    drift, diffusion and generator see the (3, k) batch of states (0, x,
    x') once each, the obstacles x; the first non-finite value, in sample
    order, raises.  With scalar control points, one call of each of the
    three with every control pair, and one with random per-state grid
    indices (drawn after the samples), must then give the per-pair bits on
    all sampled states at the first sampled time, or :class:`ProblemError`
    names the callable."""
    if samples < 1:
        raise ProblemError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    k, d, gam, q = p.state_dim, p.noise_dim, p.lipschitz, p.holder_q
    e = 2.0 / q

    ts = rng.uniform(0.0, p.horizon, size=samples)
    # per sample the rows (0, x, x'), (0, y, y') and (0, z, z'), drawn in
    # the order x, x', y, y', z, z'
    r = _SAMPLE_RADIUS
    X, Y, Z = (np.stack([np.zeros((samples,) + s), rng.uniform(-r, r, (samples,) + s),
                         rng.uniform(-r, r, (samples,) + s)], axis=1)
               for s in ((k,), (), (d,)))
    xs, xs2, ys, ys2, zs, zs2 = X[:, 1], X[:, 2], Y[:, 1], Y[:, 2], Z[:, 1], Z[:, 2]
    uis = rng.integers(0, p.u_grid.size, size=samples)
    vis = rng.integers(0, p.v_grid.size, size=samples)
    U, V = p.u_grid.points, p.v_grid.points
    B, S, F = np.empty((samples, 3, k)), np.empty((samples, 3, k, d)), np.empty((samples, 3))
    LO, HI = np.empty(samples), np.empty(samples)
    for n, (t, i, j) in enumerate(zip(ts.tolist(), uis.tolist(), vis.tolist())):
        u, v, x = U[i], V[j], X[n]
        B[n], S[n] = p.drift(t, x, u, v), p.diffusion(t, x, u, v)
        F[n] = p.generator(t, x, Y[n], Z[n], u, v)
        LO[n], HI[n] = p.lower_obstacle(t, x[1]), p.upper_obstacle(t, x[1])
    S = S.reshape(samples, 3, k * d)

    # finite checks in reporting order: coefficients, generator, obstacles
    fin = np.isfinite
    ok = np.stack([fin(B).all(axis=2), fin(S).all(axis=2)], axis=2).reshape(samples, 6)
    ok = np.column_stack([ok, fin(F[:, 0]), fin(F[:, 1:]).all(axis=1), fin(LO) & fin(HI)])
    if not ok.all():
        i, c = divmod(int(np.argmin(ok)), ok.shape[1])
        name = (("drift", "diffusion") * 3 + ("generator",) * 2 + ("obstacles",))[c]
        raise _nonfinite(name, float(ts[i]), X[i, (0, 0, 1, 1, 2, 2, 0, 1, 1)[c]])
    if _scalar_controls(p):
        _check_broadcast(p, float(ts[0]), X.reshape(-1, k), Y.ravel(), Z.reshape(-1, d), rng)

    def norm(a):  # Euclidean norm over the last axis
        return np.sqrt(np.sum(a ** 2, axis=-1))

    # grid norms and powers per sample; vectorised powers may round otherwise
    (nu, nue), (nv, nve) = (
        np.array([[g.norm(i), g.norm(i) ** e] for i in range(g.size)])[idx].T
        for g, idx in ((p.u_grid, uis), (p.v_grid, vis)))
    dx = norm(xs - xs2)
    grow = norm(B[:, 0]) + norm(S[:, 0])
    dnum = norm(B[:, 1] - B[:, 2]) + norm(S[:, 1] - S[:, 2])
    fden = gam * (np.array([a ** e for a in dx.tolist()]) + np.abs(ys - ys2) + norm(zs - zs2))
    worst = {
        "coefficient_growth": _worst(grow / (gam * (1.0 + nu + nv))),
        "coefficient_x_lipschitz": _worst(_ratio(dnum, gam * dx, dx > 0)),
        "generator_growth": _worst(np.abs(F[:, 0]) / (gam * (1.0 + nue + nve))),
        "generator_lipschitz": _worst(_ratio(np.abs(F[:, 1] - F[:, 2]), fden, fden > 0)),
    }
    sep_margin = _worst(LO - HI, -np.inf)

    # terminal sandwich at T over the sampled states
    T = p.horizon
    hv = np.asarray(p.terminal(xs), dtype=float)
    loT = np.asarray(p.lower_obstacle(T, xs), dtype=float)
    hiT = np.asarray(p.upper_obstacle(T, xs), dtype=float)
    if not np.all(fin(hv)):
        raise _nonfinite("terminal", T, xs[0])
    sandwich_margin = float(max(np.max(loT - hv), np.max(hv - hiT)))

    tol = 1.0 + ValidationReport.SLACK
    rows = [(name, r, r <= tol) for name, r in worst.items()]
    rows += [("obstacle_separation", sep_margin, sep_margin < 0.0),
             ("terminal_between_obstacles", sandwich_margin,
              bool(sandwich_margin <= ValidationReport.SLACK))]
    return ValidationReport(rows=rows)
