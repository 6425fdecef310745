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
small arrays), never batched.

The built-in catalog (:func:`make_preset`) covers four families; everything
else can be built by calling :class:`GameProblem` directly with custom maps.
Standing regularity assumptions are not provable for black-box callables, so
:func:`validate_problem` falsifies them on a reproducible random sample
instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

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
        for i in range(len(self.points)):
            for j in range(i + 1, len(self.points)):
                if _point_distance(self.points[i], self.points[j]) == 0.0:
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
    sels = {c: np.flatnonzero(codes == c) for c in np.unique(codes).tolist()}
    return [(U[c // len(V)], V[c % len(V)], sel, sel) for c, sel in sels.items()]


@dataclass(frozen=True)
class GameProblem:
    """Immutable problem instance; all fields are read-only after creation."""

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

    def __post_init__(self):
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

    Presets (all one-dimensional, ``holder_q`` defaulting to 2):

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
            name=name, params=p,
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
            return np.full(np.shape(x)[:-1] + (1, 1), float(u))

        return GameProblem(
            state_dim=1, noise_dim=1, horizon=T,
            drift=drift, diffusion=diffusion, generator=_zero_generator,
            terminal=_terminal_map(p["h"]), lower_obstacle=l_lo, upper_obstacle=l_hi,
            lipschitz=max(1.0, abs(b0) + s_hi), holder_q=q,
            u_grid=ControlGrid(points=(s_lo, s_hi)), v_grid=ControlGrid.singleton(),
            name=name, params=p,
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
            return (float(u) * x)[..., None]

        return GameProblem(
            state_dim=1, noise_dim=1, horizon=T,
            drift=drift, diffusion=diffusion, generator=_zero_generator,
            terminal=_terminal_map(p["h"]), lower_obstacle=l_lo, upper_obstacle=l_hi,
            lipschitz=max(1.0, abs(rate) + s_hi), holder_q=q,
            u_grid=ControlGrid(points=(s_lo, s_hi)), v_grid=ControlGrid.singleton(),
            name=name, params=p,
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
            return a * x + b_u * float(u)

        def diffusion(t, x, u, v):
            return np.full(np.shape(x)[:-1] + (1, 1), float(v))

        def generator(t, x, y, z, u, v):
            return c_x * x[..., 0] + c_uv * float(u) * (float(v) - v_mid)

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
            name=name, params=p,
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
        for name, r, _ in self.rows:
            if name == assumption:
                return r
        raise KeyError(assumption)

    def to_csv(self) -> str:
        names, ratios, passed = zip(*self.rows)
        return _csv("assumption,max_ratio,pass", names, ratios,
                    np.where(passed, "true", "false"))


def _check_finite(name, arr, t, x):
    if not np.all(np.isfinite(arr)):
        raise NumericsError(
            f"non-finite value from {name} at t={t!r}, x={np.asarray(x).ravel()!r}"
        )


_SAMPLE_RADIUS = 2.0  # validate_problem draws x, y and z from [-2, 2]


def validate_problem(p: GameProblem, samples: int, seed: int) -> ValidationReport:
    """Falsify the standing assumptions on a deterministic random sample.

    Draws ``samples`` tuples ``(t, x, x', y, y', z, z', u, v)`` from
    ``numpy.random.default_rng(seed)`` (each coordinate of x, y and z
    uniform on [-2, 2]) and reports, per assumption, the worst ratio of the
    observed difference quotient to its assumed bound.  Identical calls
    return identical reports.
    """
    if samples < 1:
        raise ProblemError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    k, d, gam, q = p.state_dim, p.noise_dim, p.lipschitz, p.holder_q
    e = 2.0 / q

    ts = rng.uniform(0.0, p.horizon, size=samples)
    r = _SAMPLE_RADIUS
    xs = rng.uniform(-r, r, size=(samples, k))
    xs2 = rng.uniform(-r, r, size=(samples, k))
    ys = rng.uniform(-r, r, size=samples)
    ys2 = rng.uniform(-r, r, size=samples)
    zs = rng.uniform(-r, r, size=(samples, d))
    zs2 = rng.uniform(-r, r, size=(samples, d))
    uis = rng.integers(0, p.u_grid.size, size=samples)
    vis = rng.integers(0, p.v_grid.size, size=samples)

    r_growth = 0.0
    r_lip = 0.0
    r_fgrowth = 0.0
    r_flip = 0.0
    sep_margin = -np.inf
    x0 = np.zeros(k)

    for i in range(samples):
        t = float(ts[i])
        u = p.u_grid.point(int(uis[i]))
        v = p.v_grid.point(int(vis[i]))
        nu = p.u_grid.norm(int(uis[i]))
        nv = p.v_grid.norm(int(vis[i]))
        x, x2 = xs[i], xs2[i]

        b0 = np.asarray(p.drift(t, x0, u, v), dtype=float)
        s0 = np.asarray(p.diffusion(t, x0, u, v), dtype=float)
        _check_finite("drift", b0, t, x0)
        _check_finite("diffusion", s0, t, x0)
        grow = np.sqrt(np.sum(b0 ** 2)) + np.sqrt(np.sum(s0 ** 2))
        r_growth = max(r_growth, grow / (gam * (1.0 + nu + nv)))

        bx = np.asarray(p.drift(t, x, u, v), dtype=float)
        bx2 = np.asarray(p.drift(t, x2, u, v), dtype=float)
        sx = np.asarray(p.diffusion(t, x, u, v), dtype=float)
        sx2 = np.asarray(p.diffusion(t, x2, u, v), dtype=float)
        _check_finite("drift", bx, t, x)
        _check_finite("diffusion", sx, t, x)
        dx = np.sqrt(np.sum((x - x2) ** 2))
        dnum = np.sqrt(np.sum((bx - bx2) ** 2)) + np.sqrt(np.sum((sx - sx2) ** 2))
        if dx > 0:
            r_lip = max(r_lip, dnum / (gam * dx))
        elif dnum > 0:
            r_lip = np.inf

        f0 = float(np.asarray(p.generator(t, x0, 0.0, np.zeros(d), u, v)))
        _check_finite("generator", np.asarray(f0), t, x0)
        r_fgrowth = max(r_fgrowth, abs(f0) / (gam * (1.0 + nu ** e + nv ** e)))

        fa = float(np.asarray(p.generator(t, x, ys[i], zs[i], u, v)))
        fb = float(np.asarray(p.generator(t, x2, ys2[i], zs2[i], u, v)))
        _check_finite("generator", np.asarray([fa, fb]), t, x)
        dz = np.sqrt(np.sum((zs[i] - zs2[i]) ** 2))
        fden = gam * (dx ** e + abs(ys[i] - ys2[i]) + dz)
        fnum = abs(fa - fb)
        if fden > 0:
            r_flip = max(r_flip, fnum / fden)
        elif fnum > 0:
            r_flip = np.inf

        lo = float(np.asarray(p.lower_obstacle(t, x)))
        hi = float(np.asarray(p.upper_obstacle(t, x)))
        _check_finite("obstacles", np.asarray([lo, hi]), t, x)
        sep_margin = max(sep_margin, lo - hi)

    # terminal sandwich at T over the sampled states
    T = p.horizon
    hv = np.asarray(p.terminal(xs), dtype=float)
    loT = np.asarray(p.lower_obstacle(T, xs), dtype=float)
    hiT = np.asarray(p.upper_obstacle(T, xs), dtype=float)
    _check_finite("terminal", hv, T, xs[0])
    sandwich_margin = float(max(np.max(loT - hv), np.max(hv - hiT)))

    tol = 1.0 + ValidationReport.SLACK
    rows = [
        ("coefficient_growth", float(r_growth), bool(r_growth <= tol)),
        ("coefficient_x_lipschitz", float(r_lip), bool(r_lip <= tol)),
        ("generator_growth", float(r_fgrowth), bool(r_fgrowth <= tol)),
        ("generator_lipschitz", float(r_flip), bool(r_flip <= tol)),
        ("obstacle_separation", float(sep_margin), bool(sep_margin < 0.0)),
        ("terminal_between_obstacles", sandwich_margin,
         bool(sandwich_margin <= ValidationReport.SLACK)),
    ]
    return ValidationReport(rows=rows)
