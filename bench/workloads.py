"""The three benchmark workloads: inputs, one timed iteration, gates, counts.

Each workload is a class with four methods:

``setup(seed, size)``
    builds the inputs from the seed (cheap; counted in ``setup_s``);
``run(inp, tr, out_dir)``
    one timed iteration through the library's public functions, with a
    span around every layer call (``tr`` is a no-op tracer when tracing
    is off); returns the outputs the gates need;
``check(inp, out, out_dir)``
    the correctness gates, untimed; returns a list of failure messages;
``layer_metrics(inp, out, totals, out_dir)``
    per-layer figures of one traced iteration that are not plain span
    totals (counts, rates, gate values).

``instrument(tr)`` wraps library functions for tracing where the
workload does not call them itself (the batch runner).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import drgame.cli as cli
from drgame import drbsde, game, model, paths, pde
from drgame.cli import parse_config
from drgame.model import ControlGrid, GameProblem

BIG = 1e6

# Problem sizes per workload; "smoke" is for the benchmark's own tests.
SIZES = {
    "mc-lsmc": {
        "full": {"n_paths": 100_000, "n_steps": 50, "degree": 3, "se_batches": 20},
        "smoke": {"n_paths": 4_000, "n_steps": 20, "degree": 3, "se_batches": 20},
    },
    "lattice-game": {
        "full": {"n_steps": 6400, "n_nodes": 641, "x_min": -8.0, "x_max": 8.0},
        "smoke": {"n_steps": 400, "n_nodes": 41, "x_min": -8.0, "x_max": 8.0},
    },
    "cli-artifacts": {
        "full": {"grid": (800, 161), "pde_grid": (200, 81), "samples": 5_000,
                 "trees": 40, "trials": 250, "sim": (1000, 50)},
        "smoke": {"grid": (100, 21), "pde_grid": (25, 11), "samples": 200,
                  "trees": 20, "trials": 20, "sim": (100, 10)},
    },
}


def _rate(count, seconds):
    """Work per second; 0 when no span recorded the layer."""
    return count / seconds if seconds > 0 else 0.0


def _sandwich_violations(p, knots, x_nodes, surfaces):
    """Largest amount by which each surface leaves [l_lo, l_hi] (<= 0 passes).

    One knot at a time, so the check adds no surface-sized array to the
    process's peak memory.
    """
    xb = x_nodes[:, None]
    worst = dict.fromkeys(surfaces, -np.inf)
    for j, t in enumerate(knots):
        lo = np.asarray(p.lower_obstacle(float(t), xb), dtype=float)
        hi = np.asarray(p.upper_obstacle(float(t), xb), dtype=float)
        for label, W in surfaces.items():
            worst[label] = max(worst[label], float(np.max(lo - W[j])),
                               float(np.max(W[j] - hi)))
    return worst


# ---------------------------------------------------------------------------
# mc-lsmc
# ---------------------------------------------------------------------------

def _drift(t, x, u, v):
    return np.full_like(x, -0.5)


def _diffusion(t, x, u, v):
    return np.full(np.shape(x)[:-1] + (1, 1), 1.0)


def _zero_generator(t, x, y, z, u, v):
    return np.zeros(np.shape(x)[:-1])


def _identity(x):
    return x[..., 0]


def _lower_barrier(t, x):
    return x[..., 0] - 0.3


def _far_upper(t, x):
    return np.full(np.shape(x)[:-1], BIG)


def binding_barrier_problem():
    """b0 = -0.5, sigma = 1, h = x, l_lo = x - 0.3: the lower barrier binds."""
    return GameProblem(
        state_dim=1, noise_dim=1, horizon=1.0, drift=_drift,
        diffusion=_diffusion, generator=_zero_generator, terminal=_identity,
        lower_obstacle=_lower_barrier, upper_obstacle=_far_upper,
        lipschitz=1.5, holder_q=2.0, u_grid=ControlGrid.singleton(),
        v_grid=ControlGrid.singleton(), name="binding-lower-barrier")


class McLsmc:
    name = "mc-lsmc"

    def setup(self, seed, size):
        sz = SIZES[self.name][size]
        p = binding_barrier_problem()
        n_paths, n_steps = sz["n_paths"], sz["n_steps"]
        # CFL bound dx >= sqrt(dt) on [-6, 6]; an even number of cells puts
        # a node at x0 = 0 (criterion 12's reference lattice at 50 steps).
        cells = int(np.floor(12.0 / np.sqrt(p.horizon / n_steps)))
        return {
            "p": p, "seed": seed, **sz,
            "grid": paths.TimeGrid(0.0, p.horizon, n_steps),
            "mu": paths.constant_controls(n_paths, n_steps),
            "nu": paths.constant_controls(n_paths, n_steps),
            "ref_nodes": cells - cells % 2 + 1,
        }

    def run(self, inp, tr, out_dir):
        p, mu, nu = inp["p"], inp["mu"], inp["nu"]
        with tr.span("paths.simulate_brownian"):
            ens = paths.simulate_brownian(inp["grid"], inp["n_paths"], 1, inp["seed"])
        with tr.span("paths.euler_forward"):
            st = paths.euler_forward(p, ens, [0.0], mu, nu)
        with tr.span("drbsde.solve_drbsde_lsmc"):
            sol = drbsde.solve_drbsde_lsmc(p, st, mu, nu, degree=inp["degree"],
                                           se_batches=inp["se_batches"])
        with tr.span("drbsde.check_flat_off"):
            flat = drbsde.check_flat_off(sol, p, st)
        with tr.span("game.build_lattice"):
            lat = game.build_lattice(p, inp["n_steps"], -6.0, 6.0, inp["ref_nodes"])
        with tr.span("drbsde.solve_drbsde_lattice"):
            ref = drbsde.solve_drbsde_lattice(p, lat)
        return {"st": st, "sol": sol, "flat": flat,
                "ref_root": ref.root_at(inp["ref_nodes"] // 2)}

    def check(self, inp, out, out_dir):
        p, sol, X = inp["p"], out["sol"], out["st"].X
        fails = []
        if out["flat"] != (0.0, 0.0):
            fails.append(f"flat-off residuals {out['flat']} are not exactly 0")
        for j, t in enumerate(sol.grid.knots):
            xj = X[:, j]
            if np.any(sol.Y[j] < p.lower_obstacle(t, xj)) \
                    or np.any(sol.Y[j] > p.upper_obstacle(t, xj)):
                fails.append(f"Y leaves [l_lo, l_hi] at knot {j}")
                break
        if np.any(np.diff(sol.K_lo, axis=0) < 0) or np.any(np.diff(sol.K_hi, axis=0) < 0):
            fails.append("K is not nondecreasing")
        if not float(sol.K_lo[-1].max()) > 0.0:
            fails.append("the lower barrier never binds (K_lo = 0)")
        gap = abs(sol.root - out["ref_root"])
        if not gap <= 3.0 * sol.se_root + 1e-10:
            fails.append(f"|LSMC root - lattice root| = {gap:.3e} exceeds "
                         f"3 SE + 1e-10 = {3.0 * sol.se_root + 1e-10:.3e}")
        return fails

    def layer_metrics(self, inp, out, tot, out_dir):
        normals = inp["n_paths"] * inp["n_steps"]  # noise dimension d = 1
        lsmc_s = tot.get("drbsde.solve_drbsde_lsmc", 0.0)
        regressions = inp["n_steps"] * (1 + inp["se_batches"])
        st = out["st"]
        return {
            "paths.normals": normals,
            "paths.normals_per_s": _rate(normals, tot.get("paths.simulate_brownian", 0.0)),
            "paths.bytes": st.ens.dW.nbytes + st.X.nbytes,
            "drbsde.regressions": regressions,
            "drbsde.regression_ms": 1e3 * lsmc_s / regressions,
            "drbsde.flat_off_max": max(abs(r) for r in out["flat"]),
            "drbsde.lsmc_gap_se": abs(out["sol"].root - out["ref_root"]) / out["sol"].se_root,
        }


# ---------------------------------------------------------------------------
# lattice-game
# ---------------------------------------------------------------------------

class LatticeGame:
    name = "lattice-game"

    def setup(self, seed, size):
        # Deterministic grid solves: the seed has nothing to drive here.
        return {"p": model.make_preset("linear-quadratic"), **SIZES[self.name][size]}

    def run(self, inp, tr, out_dir):
        p = inp["p"]
        grid_args = (inp["n_steps"], inp["x_min"], inp["x_max"], inp["n_nodes"])
        with tr.span("game.build_lattice"):
            lat = game.build_lattice(p, *grid_args)
        with tr.span("game.value_backward_induction.supinf"):
            lower = game.value_backward_induction(p, lat, "supinf")
        with tr.span("game.value_backward_induction.infsup"):
            upper = game.value_backward_induction(p, lat, "infsup")
        with tr.span("pde.make_pde_grid"):
            g = pde.make_pde_grid(p, *grid_args)
        with tr.span("pde.solve_obstacle_pde"):
            w_pde = pde.solve_obstacle_pde(p, g, "supinf")
        with tr.span("drbsde.solve_drbsde_lattice"):
            sol = drbsde.solve_drbsde_lattice(p, lat)
        # Every array the Lattice holds, so the figure survives a change of
        # its layout (e.g. stencils computed per layer instead of baked).
        baked = [v for v in vars(lat).values() if isinstance(v, np.ndarray)]
        return {"lower": lower, "upper": upper, "pde": w_pde, "sol": sol,
                "lattice_bytes": sum(a.nbytes for a in baked)}

    @staticmethod
    def rel_gap(out):
        """Lattice vs PDE lower value over the whole initial layer."""
        a, b = out["lower"].W[0], out["pde"].W[0]
        denom = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        return float(np.max(np.abs(a - b))) / denom

    def check(self, inp, out, out_dir):
        p = inp["p"]
        knots, x = out["lower"].grid.knots, out["lower"].x_nodes
        fails = []
        if np.any(out["lower"].W > out["upper"].W):
            fails.append("lower value exceeds upper value at some node")
        gap = self.rel_gap(out)
        if not gap <= 1e-10:
            fails.append(f"lattice/PDE relative gap {gap:.3e} > 1e-10")
        surfaces = {"lower": out["lower"].W, "upper": out["upper"].W,
                    "pde": out["pde"].W, "drbsde": out["sol"].Y}
        for label, viol in _sandwich_violations(p, knots, x, surfaces).items():
            if viol > 0.0:
                fails.append(f"{label} surface leaves the obstacles by {viol:.3e}")
        return fails

    def layer_metrics(self, inp, out, tot, out_dir):
        induction_s = (tot.get("game.value_backward_induction.supinf", 0.0)
                       + tot.get("game.value_backward_induction.infsup", 0.0))
        p = inp["p"]
        updates = 2 * inp["n_steps"] * inp["n_nodes"] * p.u_grid.size * p.v_grid.size
        return {
            "game.lattice_bytes": out["lattice_bytes"],
            "game.node_updates_per_s": _rate(updates, induction_s),
            "pde.cross_check_rel_gap": self.rel_gap(out),
        }


# ---------------------------------------------------------------------------
# cli-artifacts
# ---------------------------------------------------------------------------

def _config_text(preset, grid, x_range=(-8.0, 8.0), **sections):
    lines = ["[problem]", f"preset = {preset}"]
    if preset == "uncertain-volatility":
        lines.append("h = square")
    lines += ["[grid]", f"n_steps = {grid[0]}", f"n_nodes = {grid[1]}",
              f"x_min = {x_range[0]}", f"x_max = {x_range[1]}"]
    for section, pairs in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in pairs.items()]
    return "\n".join(lines) + "\n"


def _manifest(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def _finite(v):
    return np.isfinite(float(v))


# Each subcommand's own manifest gate, on the run.txt result keys.
_MANIFEST_GATES = {
    "value": lambda m: _finite(m["result.root"]),
    "crosscheck": lambda m: float(m["result.rel_gap"]) <= 1e-10,
    "drbsde": lambda m: float(m["result.flat_off_lo"]) == 0.0
    and float(m["result.flat_off_hi"]) == 0.0,
    "pde": lambda m: _finite(m["result.root"]) and _finite(m["result.max_residual"]),
    "dpp-check": lambda m: float(m["result.matched_gap"]) <= 1e-12,
    "validate": lambda m: m["result.validation_passed"] == "true",
    "dynkin-oracle": lambda m: float(m["result.worst_abs_diff"]) <= 1e-12,
    "sqrt-check": lambda m: float(m["result.worst_residual"]) <= 1e-8,
    "simulate": lambda m: m["subcommand"] == "simulate",
}

# Library functions imported by drgame.cli, wrapped during a traced run.
_CLI_LAYERS = (
    ("make_preset", "model.make_preset"),
    ("validate_problem", "model.validate_problem"),
    ("simulate_brownian", "paths.simulate_brownian"),
    ("constant_controls", "paths.constant_controls"),
    ("euler_forward", "paths.euler_forward"),
    ("build_lattice", "game.build_lattice"),
    ("dpp_check", "game.dpp_check"),
    ("dpp_cross_resolution", "game.dpp_cross_resolution"),
    ("dynkin_oracle_corpus", "game.dynkin_oracle_corpus"),
    ("check_flat_off", "drbsde.check_flat_off"),
    ("solve_drbsde_lattice", "drbsde.solve_drbsde_lattice"),
    ("solve_drbsde_lsmc", "drbsde.solve_drbsde_lsmc"),
    ("cross_check", "pde.cross_check"),
    ("make_pde_grid", "pde.make_pde_grid"),
    ("refinement_study", "pde.refinement_study"),
    ("solve_obstacle_pde", "pde.solve_obstacle_pde"),
    ("viscosity_residual", "pde.viscosity_residual"),
    ("random_spd", "linalg.random_spd"),
    ("spd_sqrt_series", "linalg.spd_sqrt_series"),
    ("_csv", "cli._csv"),
    ("_write_text", "cli._write_text"),
)
_CSV_METHODS = (game.ValueSurface, drbsde.DrbsdeSolution, pde.ResidualReport,
                pde.RefinementStudy, model.ValidationReport, paths.PathEnsemble,
                paths.StatePaths)
_ORACLE_SPANS = ("game.dynkin_oracle_corpus", "game.OracleCase.recursion_value",
                 "game.OracleCase.brute_force_value")


class CliArtifacts:
    name = "cli-artifacts"

    def setup(self, seed, size):
        sz = SIZES[self.name][size]
        grid = sz["grid"]
        texts = {
            "value": _config_text("uncertain-volatility", grid),
            "crosscheck": _config_text("uncertain-volatility", grid),
            "drbsde": _config_text("uncertain-volatility", grid,
                                   solver={"mode": "lattice"}),
            "pde": _config_text("uncertain-volatility", sz["pde_grid"]),
            "dpp-check": _config_text("linear-quadratic", grid),
            "validate": _config_text("linear-quadratic", grid,
                                     mc={"samples": sz["samples"], "seed": seed}),
            "dynkin-oracle": _config_text("dynkin-flat", grid, mc={"seed": seed},
                                          solver={"trials": sz["trees"]}),
            "sqrt-check": _config_text("dynkin-flat", grid, mc={"seed": seed},
                                       solver={"trials": sz["trials"]}),
            "simulate": _config_text(
                "uncertain-volatility", (sz["sim"][1], 3),
                mc={"n_paths": sz["sim"][0], "seed": seed}),
        }
        return {"configs": {sub: parse_config(t) for sub, t in texts.items()},
                "samples": sz["samples"]}

    def instrument(self, tr):
        for attr, name in _CLI_LAYERS:
            tr.wrap(cli, attr, name)
        tr.wrap(cli, "value_backward_induction", "game.value_backward_induction",
                suffix_arg=2)
        for cls in _CSV_METHODS:
            tr.wrap(cls, "to_csv", f"{cls.__module__.split('.')[-1]}.{cls.__name__}.to_csv")
        for meth in ("recursion_value", "brute_force_value"):
            tr.wrap(game.OracleCase, meth, f"game.OracleCase.{meth}")

    def run(self, inp, tr, out_dir):
        status = {}
        for sub, cfg in inp["configs"].items():
            with tr.span(f"cli.run.{sub}"):
                status[sub] = cli.run(sub, replace(cfg, out_dir=str(out_dir / sub)))
        return {"status": status}

    def check(self, inp, out, out_dir):
        fails = []
        for sub, code in out["status"].items():
            manifest = out_dir / sub / "run.txt"
            if code != 0:
                fails.append(f"{sub} exited {code}")
            elif not manifest.is_file() or not _MANIFEST_GATES[sub](_manifest(manifest)):
                fails.append(f"{sub} misses its manifest gate")
        fails += self.check_surface(inp, out_dir)
        return fails

    def check_surface(self, inp, out_dir):
        """surface.csv of ``value`` parsed back must equal a direct solve bit for bit."""
        cfg = inp["configs"]["value"]
        p = model.make_preset(cfg.preset, cfg.problem_params)
        lat = game.build_lattice(p, cfg.n_steps, cfg.x_min, cfg.x_max, cfg.n_nodes)
        surf = game.value_backward_induction(p, lat, cfg.order)
        path = out_dir / "value" / "surface.csv"
        try:
            got = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2))
        except (OSError, ValueError) as exc:
            return [f"surface.csv unreadable: {exc}"]
        n_t, n_x = surf.W.shape
        want = np.column_stack([np.repeat(surf.grid.knots, n_x),
                                np.tile(surf.x_nodes, n_t), surf.W.ravel()])
        if got.shape != want.shape or not np.array_equal(got, want):
            return ["surface.csv differs from a direct library solve"]
        return []

    def layer_metrics(self, inp, out, tot, out_dir):
        csv_bytes = sum(f.stat().st_size for f in out_dir.rglob("*.csv"))
        to_csv_s = sum(v for k, v in tot.items() if k.endswith("to_csv") or k == "cli._csv")
        write_s = to_csv_s + tot.get("cli._write_text", 0.0)
        manifest = _manifest(out_dir / "crosscheck" / "run.txt")
        return {
            "game.dpp_check_s": tot.get("game.dpp_check", 0.0)
            + tot.get("game.dpp_cross_resolution", 0.0),
            "game.dynkin_oracle_s": sum(tot.get(k, 0.0) for k in _ORACLE_SPANS),
            "pde.cross_check_rel_gap": float(manifest["result.rel_gap"]),
            "model.samples_per_s": _rate(inp["samples"], tot.get("model.validate_problem", 0.0)),
            "cli.to_csv_s": to_csv_s,
            "cli.csv_bytes": csv_bytes,
            "cli.csv_mb_per_s": _rate(csv_bytes / 2 ** 20, write_s),
        }


WORKLOADS = {w.name: w for w in (McLsmc(), LatticeGame(), CliArtifacts())}
