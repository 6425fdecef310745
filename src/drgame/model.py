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

``u`` and ``v`` are single points of the respective control grid (scalars or
small arrays), unless the problem sets ``broadcast_controls``.  That flag
declares that drift, diffusion and generator also accept arrays ``u`` and
``v`` that broadcast on leading axes, and it needs scalar control points.
The lattice and PDE routes then call each of them once for every control
pair, with ``u`` of shape ``(nU, 1) + (1,) * r`` and ``v`` of shape
``(1, nV) + (1,) * r``, where ``r`` is the rank of one pair's result (drift
2, diffusion 3, generator 1 on a batch ``x`` of shape ``(m, k)``); the
result is broadcast to the ``(nU, nV) + ...`` table.  With one control index
per state the generator gets the gathered points, of shape ``(m,)``.  The
result must have the bits of the per-pair calls, which
:func:`validate_problem` checks at its sampled states.

The built-in catalog (:func:`make_preset`) covers four families; everything
else can be built by calling :class:`GameProblem` directly with custom maps.
Standing regularity assumptions are not provable for black-box callables, so
:func:`validate_problem` falsifies them on a reproducible random sample
instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations

import numpy as np

__all__ = [
    "ControlGrid",
    "GameProblem",
    "ValidationReport",
    "ProblemError",
    "NumericsError",
    "PRESETS",
    "make_preset",
    "preset_names",
    "validate_problem",
]


class ProblemError(ValueError):
    """Ill-posed problem data (bad preset parameters, violated invariants)."""


class NumericsError(RuntimeError):
    """Non-finite values or a numerically unusable configuration."""


# Rows per formatting block of ``_csv``: large enough to amortise the
# per-block cost, small enough that the block's text and boxed values stay
# a few MiB next to the finished table.
_CSV_BLOCK = 4096


def _csv(header: str, *columns) -> str:
    """CSV text: the ``header`` line, then one line per row of ``columns``.

    A column is a 1-d array or sequence, or a bare ``str`` that every row
    repeats.  Float columns print as ``%.17g`` (so ``inf``, ``-inf``,
    ``nan`` and ``-0`` for negative zero); every other column prints via
    ``str``.  This is the one CSV writer of the package.
    """
    fields, data = [], []
    for col in columns:
        if isinstance(col, str):
            fields.append(col.replace("%", "%%"))
        else:
            col = np.asarray(col)
            fields.append("%.17g" if col.dtype.kind == "f" else "%s")
            data.append(col)
    row = ",".join(fields) + "\n"
    parts = [header + "\n"]
    for s in range(0, len(data[0]), _CSV_BLOCK):
        block = [col[s:s + _CSV_BLOCK].tolist() for col in data]
        parts.append(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))
    return "".join(parts)


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
    def singleton(cls, point=0.0):
        return cls(points=(point,))

    @property
    def size(self):
        return len(self.points)

    def point(self, i):
        return self.points[i]

    def norm(self, i):
        return _point_distance(self.points[i], self.points[self.origin])

    @cached_property
    def _array(self):
        """The points as one read-only array, made on first use."""
        a = np.asarray(self.points)
        a.setflags(write=False)
        return a


def _one_index(idx):
    """Control indices as one int when every position holds the same index."""
    if not isinstance(idx, np.ndarray):
        return int(idx)
    return int(idx.item(0)) if not any(idx.strides) or idx.min() == idx.max() else idx


def _broadcast_points(p, rank, ui=None, vi=None):
    """``u`` and ``v`` for one call of a callable that declares broadcast
    controls: every pair, as ``(nU, 1) + (1,) * rank`` and ``(1, nV) + (1,) *
    rank`` with ``rank`` that of one pair's result; or, with grid indices
    (scalars or 1-d, one per state), the points they pick."""
    U, V = p.u_grid._array, p.v_grid._array
    if ui is None:
        pad = (1,) * rank
        return U.reshape((-1, 1) + pad), V.reshape((1, -1) + pad)
    return U[ui], V[vi]


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
    sels = {c: np.flatnonzero(codes == c) for c in np.unique(codes).tolist()}
    return [(U[c // len(V)], V[c % len(V)], sel, sel) for c, sel in sels.items()]


@dataclass(frozen=True)
class GameProblem:
    """Immutable problem instance; all fields are read-only after creation.

    ``broadcast_controls`` declares that drift, diffusion and generator accept
    control arrays that broadcast on leading axes (see the module docstring);
    the default keeps black-box callables on one call per control pair.
    """

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
    params: dict = field(default_factory=dict)
    broadcast_controls: bool = False

    def __post_init__(self):
        if self.broadcast_controls and any(
                np.ndim(pt) for g in (self.u_grid, self.v_grid) for pt in g.points):
            raise ProblemError("broadcast_controls needs scalar control points")
        if self.state_dim < 1 or self.noise_dim < 1:
            raise ProblemError("state_dim and noise_dim must be positive")
        if not self.horizon > 0:
            raise ProblemError("horizon must be positive")
        if not self.lipschitz > 0:
            raise ProblemError("lipschitz constant must be positive")
        if not (1.0 < self.holder_q <= 2.0):
            raise ProblemError(f"holder_q must lie in (1, 2], got {self.holder_q}")


# ---------------------------------------------------------------------------
# preset catalog
# ---------------------------------------------------------------------------

def _const_obstacles(lo, hi):
    def l_lo(t, x):
        return np.full(np.shape(x)[:-1], float(lo))

    def l_hi(t, x):
        return np.full(np.shape(x)[:-1], float(hi))

    return l_lo, l_hi


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

    Presets (all one-dimensional, ``holder_q`` defaulting to 2, every one
    declaring ``broadcast_controls``):

    ``dynkin-flat``
        Pure stopping game: ``f = 0``, singleton control grids, unit noise
        and constant barriers ``l_lo < l_hi`` around a constant terminal
        value ``h``.
    ``uncertain-volatility``
        One controller picks the diffusion level directly, ``sigma(t,x,u) =
        u`` with ``u`` on the two-point grid ``{sigma_lo, sigma_hi}``; the
        drift is the constant ``drift`` and the other grid is a singleton.
    ``bsb-convex``
        Geometric variant: ``sigma(t,x,u) = u * x`` and drift ``rate * x``,
        the usual convex-payoff volatility-selection setup.
    ``linear-quadratic``
        Genuine two-player family: drift ``a*x + b_u*u`` steered by the
        first player, diffusion ``v`` picked by the second from
        ``{sigma_lo, sigma_hi}``, and a generator ``c_x*x + c_uv*u*(v -
        v_mid)`` whose bilinear coupling makes the stepwise sup-inf and
        inf-sup optima genuinely different (``v_mid`` is the midpoint of
        the diffusion grid).
    """
    p = _merge_params(name, params)
    T = float(p["T"])
    q = float(p["q"])
    _require(T > 0, f"T must be positive, got {T}")
    _require(1.0 < q <= 2.0, f"q must lie in (1, 2], got {q}")

    if name == "dynkin-flat":
        lo, hi, hval, sig = (float(p[k]) for k in ("l_lo", "l_hi", "h", "sigma"))
        _require(lo < hi, f"obstacle separation violated: l_lo={lo} >= l_hi={hi}")
        _require(lo <= hval <= hi, f"terminal h={hval} not between obstacles [{lo}, {hi}]")
        _require(sig >= 0, "sigma must be nonnegative")
        l_lo, l_hi = _const_obstacles(lo, hi)

        def diffusion(t, x, u, v):
            return np.full(np.shape(x)[:-1] + (1, 1), sig)

        return GameProblem(
            state_dim=1, noise_dim=1, horizon=T,
            drift=_zero_drift, diffusion=diffusion, generator=_zero_generator,
            terminal=_terminal_map(hval), lower_obstacle=l_lo, upper_obstacle=l_hi,
            lipschitz=max(1.0, sig), holder_q=q,
            u_grid=ControlGrid.singleton(), v_grid=ControlGrid.singleton(),
            name=name, params=p, broadcast_controls=True,
        )

    if name == "uncertain-volatility":
        s_lo, s_hi, b0 = float(p["sigma_lo"]), float(p["sigma_hi"]), float(p["drift"])
        lo, hi = float(p["l_lo"]), float(p["l_hi"])
        _require(0 < s_lo < s_hi, "need 0 < sigma_lo < sigma_hi")
        _require(lo < hi, f"obstacle separation violated: l_lo={lo} >= l_hi={hi}")
        l_lo, l_hi = _const_obstacles(lo, hi)

        def drift(t, x, u, v):
            return np.full_like(x, b0)

        def diffusion(t, x, u, v):
            return u * np.ones(np.shape(x)[:-1] + (1, 1))

        return GameProblem(
            state_dim=1, noise_dim=1, horizon=T,
            drift=drift, diffusion=diffusion, generator=_zero_generator,
            terminal=_terminal_map(p["h"]), lower_obstacle=l_lo, upper_obstacle=l_hi,
            lipschitz=max(1.0, abs(b0) + s_hi), holder_q=q,
            u_grid=ControlGrid(points=(s_lo, s_hi)), v_grid=ControlGrid.singleton(),
            name=name, params=p, broadcast_controls=True,
        )

    if name == "bsb-convex":
        s_lo, s_hi, rate = float(p["sigma_lo"]), float(p["sigma_hi"]), float(p["rate"])
        lo, hi = float(p["l_lo"]), float(p["l_hi"])
        _require(0 < s_lo < s_hi, "need 0 < sigma_lo < sigma_hi")
        _require(lo < hi, f"obstacle separation violated: l_lo={lo} >= l_hi={hi}")
        l_lo, l_hi = _const_obstacles(lo, hi)

        def drift(t, x, u, v):
            return rate * x

        def diffusion(t, x, u, v):
            return u * x[..., None]

        return GameProblem(
            state_dim=1, noise_dim=1, horizon=T,
            drift=drift, diffusion=diffusion, generator=_zero_generator,
            terminal=_terminal_map(p["h"]), lower_obstacle=l_lo, upper_obstacle=l_hi,
            lipschitz=max(1.0, abs(rate) + s_hi), holder_q=q,
            u_grid=ControlGrid(points=(s_lo, s_hi)), v_grid=ControlGrid.singleton(),
            name=name, params=p, broadcast_controls=True,
        )

    if name == "linear-quadratic":
        a, b_u = float(p["a"]), float(p["b_u"])
        u_lo, u_hi = float(p["u_lo"]), float(p["u_hi"])
        s_lo, s_hi = float(p["sigma_lo"]), float(p["sigma_hi"])
        c_x, c_uv = float(p["c_x"]), float(p["c_uv"])
        lo, hi = float(p["l_lo"]), float(p["l_hi"])
        _require(u_lo < u_hi, "need u_lo < u_hi")
        _require(0 < s_lo < s_hi, "need 0 < sigma_lo < sigma_hi")
        _require(lo < hi, f"obstacle separation violated: l_lo={lo} >= l_hi={hi}")
        v_mid = 0.5 * (s_lo + s_hi)
        l_lo, l_hi = _const_obstacles(lo, hi)

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

        return GameProblem(
            state_dim=1, noise_dim=1, horizon=T,
            drift=drift, diffusion=diffusion, generator=generator,
            terminal=_terminal_map(p["h"]), lower_obstacle=l_lo, upper_obstacle=l_hi,
            lipschitz=gamma, holder_q=q,
            u_grid=ControlGrid(points=(u_lo, u_hi)),
            v_grid=ControlGrid(points=(s_lo, s_hi)),
            name=name, params=p, broadcast_controls=True,
        )

    raise AssertionError("unreachable")


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

    def to_csv(self) -> str:
        names, ratios, passed = zip(*self.rows)
        return _csv("assumption,max_ratio,pass", names, ratios,
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


def _check_broadcast(p: GameProblem, t, x, y, z):
    """Raise unless one broadcast call of drift, diffusion and generator at
    knot ``t`` gives, for every control pair, the bits of that pair's call.

    ``x`` is (m, k), ``y`` (m,) and ``z`` (m, d), shared by every pair.
    """
    pairs = _control_pairs(p)
    for name, args, rank in (("drift", (x,), 2), ("diffusion", (x,), 3),
                             ("generator", (x, y, z), 1)):
        fn = getattr(p, name)
        want = np.array([np.asarray(fn(t, *args, u, v), dtype=float)
                         for u, v, _, _ in pairs])
        want = want.reshape((p.u_grid.size, p.v_grid.size) + want.shape[1:])
        try:  # a callable that cannot take arrays fails the check too
            got = np.broadcast_to(np.asarray(fn(t, *args, *_broadcast_points(p, rank)),
                                             dtype=float), want.shape)
        except (TypeError, ValueError):
            got = None
        if got is None or not np.array_equal(got.view(np.int64), want.view(np.int64)):
            raise ProblemError(
                f"{name} declares broadcast controls, but one call with every "
                "control pair differs from the per-pair calls")


def validate_problem(p: GameProblem, samples: int, seed: int) -> ValidationReport:
    """Falsify the standing assumptions on a deterministic random sample.

    Draws ``samples`` tuples ``(t, x, x', y, y', z, z', u, v)`` from
    ``numpy.random.default_rng(seed)`` (each coordinate of x, y and z
    uniform on [-2, 2]) and reports, per assumption, the worst ratio of the
    observed difference quotient to its assumed bound.  Identical calls
    return identical reports.  Per sample, drift, diffusion and generator
    see the (3, k) batch of states (0, x, x') once each, the obstacles x;
    the first non-finite value, in sample order, raises.  A problem that
    declares ``broadcast_controls`` must then give the per-pair bits from
    one broadcast call of each of the three, on all sampled states at the
    first sampled time, or :class:`ProblemError` names the callable.
    """
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
    if p.broadcast_controls:
        _check_broadcast(p, float(ts[0]), X.reshape(-1, k), Y.reshape(-1), Z.reshape(-1, d))

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
