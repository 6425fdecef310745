"""Batch entry point: config parsing, subcommand dispatch, CSV artifacts
and run manifests.

Configuration documents are line-oriented ``key = value`` pairs grouped
under bracketed section headers, with ``#`` starting a comment::

    [problem]
    preset = dynkin-flat
    l_lo = -1.0
    [grid]
    n_steps = 500

Sections and keys (case-sensitive; unknown keys are fatal):

    [problem]  preset (dynkin-flat) plus that preset's documented parameters
    [grid]     n_steps (500), n_nodes (41), x_min (-2.0), x_max (2.0), x0 (0.0)
    [mc]       n_paths (10000), seed (0), samples (1000)
    [solver]   order (supinf), mode (lattice), basis_degree (3),
               t_mid (0.5), trials (100)
    [output]   dir (out)

Every run writes its CSV artifacts plus a ``run.txt`` manifest echoing each
effective setting (so a run is re-executable from the manifest alone), the
tool version and the wall time; a run that fails with status 2 or 3 still
writes it, adding ``status`` and ``error``; an lsmc ``drbsde`` run adds the
regression diagnostics ``diag.lsmc_rank_min``, ``diag.lsmc_cond_max`` and
``diag.lsmc_fallbacks``, and ``value``, ``pde``, ``crosscheck``,
``dpp-check`` and a lattice ``drbsde`` add their lattice's diagnostics
``diag.cfl_diffusion`` (largest dt*sigma^2/dx^2), ``diag.cfl_drift``
(largest dt*|b|/dx), ``diag.gamma_dt``, ``diag.time_homogeneous`` and
``diag.broadcast_controls`` (whether the problem's callables took every
control pair in one call).
Exit status: 0 success, 1 a check failed, 2 numerical failure (CFL/NaN),
3 configuration error.
``--threads`` is accepted as a hint and recorded, but solvers are
deterministic and its value never changes any artifact.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .model import (NumericsError, PRESETS, ProblemError, _csv, make_preset,
                    validate_problem)
from .paths import TimeGrid, constant_controls, euler_forward, simulate_brownian
from .game import (_ORDERS, _refined_composition, build_lattice, dpp_check,
                   dynkin_oracle_corpus, value_backward_induction)
from .drbsde import check_flat_off, solve_drbsde_lattice, solve_drbsde_lsmc
from .pde import _refine, cross_check, solve_obstacle_pde, viscosity_residual
from .linalg import random_spd, spd_sqrt_series

__all__ = ["ConfigError", "RunConfig", "parse_config", "serialize_config",
           "run", "main", "SUBCOMMANDS"]

SUBCOMMANDS = ("validate", "simulate", "drbsde", "value", "pde",
               "dynkin-oracle", "dpp-check", "crosscheck", "sqrt-check")


class ConfigError(ValueError):
    """Malformed or inconsistent configuration document."""


# section -> key -> RunConfig field; the field's default fixes the value
# type (int, float or str).  The problem section is handled separately
# because its key set depends on the preset.
_SCHEMA = {
    "grid": {"n_steps": "n_steps", "n_nodes": "n_nodes", "x_min": "x_min",
             "x_max": "x_max", "x0": "x0"},
    "mc": {"n_paths": "n_paths", "seed": "seed", "samples": "samples"},
    "solver": {"order": "order", "mode": "mode", "basis_degree": "basis_degree",
               "t_mid": "t_mid", "trials": "trials"},
    "output": {"dir": "out_dir"},
}

_SECTIONS = ("problem",) + tuple(_SCHEMA)


@dataclass
class RunConfig:
    preset: str = "dynkin-flat"
    problem_params: dict = field(default_factory=dict)
    n_steps: int = 500
    n_nodes: int = 41
    x_min: float = -2.0
    x_max: float = 2.0
    x0: float = 0.0
    n_paths: int = 10000
    seed: int = 0
    samples: int = 1000
    order: str = "supinf"
    mode: str = "lattice"
    basis_degree: int = 3
    t_mid: float = 0.5
    trials: int = 100
    out_dir: str = "out"


def _convert(raw, fld, lineno, key):
    kind = type(getattr(RunConfig, fld))
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(
            f"line {lineno}: key {key!r} expects {noun}, got {raw!r}"
        ) from None


def _convert_problem_param(raw, key, preset, lineno):
    default = PRESETS[preset][key]
    if isinstance(default, str) or key == "h":
        # terminal spec may be a named function or a numeric constant
        try:
            return float(raw)
        except ValueError:
            return raw
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: key {key!r} expects a number, got {raw!r}"
        ) from None


def parse_config(text: str) -> RunConfig:
    """Parse a configuration document; unknown keys and sections are fatal."""
    section = None
    pairs = {}  # (section, key) -> (raw value, line number)
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(
                    f"line {lineno}: unknown section [{section}]; "
                    f"known sections: {', '.join(_SECTIONS)}"
                )
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any section")
        key, raw = (part.strip() for part in body.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if (section, key) in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        pairs[(section, key)] = (raw, lineno)

    cfg = RunConfig()

    preset_raw = pairs.pop(("problem", "preset"), None)
    if preset_raw is not None:
        cfg.preset = preset_raw[0]
    if cfg.preset not in PRESETS:
        lineno = preset_raw[1] if preset_raw else 0
        raise ConfigError(
            f"line {lineno}: unknown preset {cfg.preset!r}; "
            f"known presets: {', '.join(sorted(PRESETS))}"
        )
    table = PRESETS[cfg.preset]
    params = {}
    for (section, key), (raw, lineno) in list(pairs.items()):
        if section != "problem":
            continue
        if key not in table:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} for preset "
                f"{cfg.preset!r}; documented keys: {sorted(table)}"
            )
        params[key] = _convert_problem_param(raw, key, cfg.preset, lineno)
        del pairs[(section, key)]
    cfg.problem_params = params

    for (section, key), (raw, lineno) in pairs.items():
        schema = _SCHEMA[section]
        if key not in schema:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} in [{section}]; "
                f"documented keys: {sorted(schema)}"
            )
        setattr(cfg, schema[key], _convert(raw, schema[key], lineno, key))

    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig):
    def bad(key, msg):
        raise ConfigError(f"key {key!r} {msg}")

    if cfg.n_steps < 1:
        bad("n_steps", f"must be >= 1, got {cfg.n_steps}")
    if cfg.n_nodes < 3:
        bad("n_nodes", f"must be >= 3, got {cfg.n_nodes}")
    if not cfg.x_min < cfg.x_max:
        bad("x_min", f"must be < x_max, got [{cfg.x_min}, {cfg.x_max}]")
    if not cfg.x_min <= cfg.x0 <= cfg.x_max:
        bad("x0", f"must lie in [x_min, x_max], got {cfg.x0}")
    if cfg.n_paths < 1:
        bad("n_paths", f"must be >= 1, got {cfg.n_paths}")
    if cfg.samples < 1:
        bad("samples", f"must be >= 1, got {cfg.samples}")
    if cfg.trials < 1:
        bad("trials", f"must be >= 1, got {cfg.trials}")
    if cfg.basis_degree < 0:
        bad("basis_degree", f"must be >= 0, got {cfg.basis_degree}")
    if cfg.order not in _ORDERS:
        bad("order", f"must be supinf or infsup, got {cfg.order!r}")
    if cfg.mode not in ("lattice", "lsmc"):
        bad("mode", f"must be lattice or lsmc, got {cfg.mode!r}")
    q = cfg.problem_params.get("q")
    if q is not None and not (isinstance(q, float) and 1.0 < q <= 2.0):
        bad("q", f"must lie in (1, 2], got {q!r}")


def _fmt_value(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical document that reparses to an equal RunConfig."""
    lines = ["[problem]", f"preset = {cfg.preset}"]
    for key in sorted(cfg.problem_params):
        lines.append(f"{key} = {_fmt_value(cfg.problem_params[key])}")
    for section, schema in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, fld in schema.items():
            lines.append(f"{key} = {_fmt_value(getattr(cfg, fld))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _write_text(path: Path, text: str):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_manifest(out: Path, subcommand, cfg, threads, wall, extra=None):
    items = {
        "subcommand": subcommand,
        "tool_version": __version__,
        "threads": threads,
        "wall_time_s": f"{wall:.3f}",
        "problem.preset": cfg.preset,
    }
    for key in sorted(cfg.problem_params):
        items[f"problem.{key}"] = _fmt_value(cfg.problem_params[key])
    for section, schema in _SCHEMA.items():
        for key, fld in schema.items():
            items[f"{section}.{key}"] = _fmt_value(getattr(cfg, fld))
    for k, v in (extra or {}).items():
        items[k] = v
    lines = [f"{k}={items[k]}" for k in items]
    _write_text(out / "run.txt", "\n".join(lines) + "\n")


def _problem(cfg):
    return make_preset(cfg.preset, cfg.problem_params)


def _lattice(cfg, prob):
    return build_lattice(prob, cfg.n_steps, cfg.x_min, cfg.x_max, cfg.n_nodes)


def _lattice_diag(lat):
    """Manifest keys of the checks ``build_lattice`` made on ``lat``."""
    return {"diag.cfl_diffusion": f"{lat.cfl[0]:.17g}",
            "diag.cfl_drift": f"{lat.cfl[1]:.17g}",
            "diag.gamma_dt": f"{lat.problem.lipschitz * lat.dt:.17g}",
            "diag.time_homogeneous": str(lat.shared_stencil is not None).lower(),
            "diag.broadcast_controls": str(lat.problem.broadcast_controls).lower()}


def _snap_t_mid(cfg, grid: TimeGrid) -> float:
    j = int(round((cfg.t_mid - grid.t0) / grid.dt))
    j = min(max(j, 1), grid.n_steps - 1)
    return float(grid.knots[j])


# ---------------------------------------------------------------------------
# subcommand bodies (return process exit status)
# ---------------------------------------------------------------------------

def _cmd_validate(cfg, out):
    prob = _problem(cfg)
    rep = validate_problem(prob, samples=cfg.samples, seed=cfg.seed)
    _write_text(out / "validation.csv", rep.to_csv())
    return (0 if rep.passed else 1), {"result.validation_passed": str(rep.passed).lower()}

def _states(cfg, prob):
    """Euler paths from x0 under the first control pair, with its controls."""
    grid = TimeGrid(0.0, prob.horizon, cfg.n_steps)
    ens = simulate_brownian(grid, cfg.n_paths, prob.noise_dim, cfg.seed)
    mu = constant_controls(cfg.n_paths, cfg.n_steps)
    nu = constant_controls(cfg.n_paths, cfg.n_steps)
    return euler_forward(prob, ens, np.full(prob.state_dim, cfg.x0), mu, nu), mu, nu

def _cmd_simulate(cfg, out):
    states, _, _ = _states(cfg, _problem(cfg))
    _write_text(out / "increments.csv", states.ens.to_csv())
    _write_text(out / "states.csv", states.to_csv())
    return 0, {}

def _cmd_drbsde(cfg, out):
    prob = _problem(cfg)
    if cfg.mode == "lattice":
        lat = _lattice(cfg, prob)
        sol = solve_drbsde_lattice(prob, lat)
        res_lo, res_hi = check_flat_off(sol, prob, lat)
        diag = _lattice_diag(lat)
    else:
        states, mu, nu = _states(cfg, prob)
        sol = solve_drbsde_lsmc(prob, states, mu, nu, degree=cfg.basis_degree)
        res_lo, res_hi = check_flat_off(sol, prob, states)
        diag = {}
    _write_text(out / "drbsde.csv", sol.to_csv())
    extra = {"result.flat_off_lo": f"{res_lo:.17g}", "result.flat_off_hi": f"{res_hi:.17g}"}
    if sol.se_root is not None:
        extra["result.root_se"] = f"{sol.se_root:.17g}"
    if sol.lsmc_rank_min is not None:
        extra["diag.lsmc_rank_min"] = str(sol.lsmc_rank_min)
        extra["diag.lsmc_cond_max"] = f"{sol.lsmc_cond_max:.17g}"
        extra["diag.lsmc_fallbacks"] = str(sol.lsmc_fallbacks)
    return 0, {**extra, **diag}

def _cmd_value(cfg, out):
    prob = _problem(cfg)
    lat = _lattice(cfg, prob)
    surf = value_backward_induction(prob, lat, cfg.order)
    _write_text(out / "surface.csv", surf.to_csv())
    return 0, {"result.root": f"{surf.root():.17g}", **_lattice_diag(lat)}

def _cmd_pde(cfg, out):
    prob = _problem(cfg)
    g = _lattice(cfg, prob)
    surf = solve_obstacle_pde(prob, g, cfg.order)
    resid = viscosity_residual(prob, g, surf, cfg.order)
    study = _refine(prob, cfg.order, g, surf, levels=2, x0=cfg.x0)
    _write_text(out / "surface.csv", surf.to_csv())
    _write_text(out / "residual.csv", resid.to_csv())
    _write_text(out / "convergence.csv", study.to_csv())
    return 0, {"result.root": f"{surf.root():.17g}",
               "result.max_residual": f"{resid.max_abs:.17g}", **_lattice_diag(g)}

def _cmd_dynkin_oracle(cfg, out):
    cases = dynkin_oracle_corpus(n_trees=max(cfg.trials, 20), seed=cfg.seed + 2024)
    rec = np.array([case.recursion_value() for case in cases])
    bf = np.array([case.brute_force_value() for case in cases])
    diff = np.abs(rec - bf)
    worst = max(0.0, *diff.tolist())
    _write_text(out / "oracle.csv",
                _csv("tree,depth,recursion_value,brute_force_value,abs_diff",
                     range(len(cases)), [case.tree.depth for case in cases], rec, bf, diff))
    return (0 if worst <= 1e-12 else 1), {"result.worst_abs_diff": f"{worst:.17g}"}

def _cmd_dpp_check(cfg, out):
    prob = _problem(cfg)
    lat = _lattice(cfg, prob)
    t_mid = _snap_t_mid(cfg, lat.grid)
    rep = dpp_check(prob, lat, t_mid, cfg.order)
    # the refined variant of dpp_cross_resolution, reusing rep's direct solve
    refined = _refined_composition(prob, lat, t_mid, cfg.order).root()
    rows = [("matched", rep.direct, rep.composed, rep.gap),
            ("refined", rep.direct, refined, abs(rep.direct - refined))]
    _write_text(out / "dpp.csv", _csv("variant,direct,composed,gap", *zip(*rows)))
    return (0 if rep.gap <= 1e-12 else 1), {"result.matched_gap": f"{rep.gap:.17g}",
                                            **_lattice_diag(lat)}

def _cmd_crosscheck(cfg, out):
    prob = _problem(cfg)
    lat = _lattice(cfg, prob)
    rep = cross_check(prob, lat, lat, cfg.order, x0=cfg.x0)
    _write_text(out / "crosscheck.csv",
                _csv("lattice_root,pde_root,rel_gap",
                     [rep.lattice_root], [rep.pde_root], [rep.rel_gap]))
    return (0 if rep.rel_gap <= 1e-10 else 1), {"result.rel_gap": f"{rep.rel_gap:.17g}",
                                                **_lattice_diag(lat)}

def _cmd_sqrt_check(cfg, out):
    rng = np.random.default_rng(cfg.seed)
    mats = [random_spd(rng, 1 + trial % 4, float(10.0 ** rng.uniform(0.0, 2.0)),
                       scale=float(10.0 ** rng.uniform(-1.0, 1.0)))
            for trial in range(cfg.trials)]
    roots = {}
    for d in range(1, min(cfg.trials, 4) + 1):  # one stacked solve per dimension
        trials = range(d - 1, cfg.trials, 4)
        roots.update(zip(trials, spd_sqrt_series([mats[i] for i in trials])))
    resid = [float(np.linalg.norm(roots[i] @ roots[i] - g) / np.linalg.norm(g))
             for i, g in enumerate(mats)]
    worst = max(0.0, *resid)
    _write_text(out / "sqrt.csv", _csv("trial,residual", range(cfg.trials), resid))
    return (0 if worst <= 1e-8 else 1), {"result.worst_residual": f"{worst:.17g}"}


_BODIES = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "drbsde": _cmd_drbsde,
    "value": _cmd_value,
    "pde": _cmd_pde,
    "dynkin-oracle": _cmd_dynkin_oracle,
    "dpp-check": _cmd_dpp_check,
    "crosscheck": _cmd_crosscheck,
    "sqrt-check": _cmd_sqrt_check,
}


# exit status and stderr label per failure kind
_FAILURES = {ConfigError: (3, "config error"), ProblemError: (3, "config error"),
             NumericsError: (2, "numerical failure")}


def _failure(exc):
    return next(v for kind, v in _FAILURES.items() if isinstance(exc, kind))


def run(subcommand: str, cfg: RunConfig, threads: int = 1) -> int:
    """Execute one subcommand; writes artifacts and the run manifest (with
    ``status`` and ``error`` keys if a failure of status 2 or 3 propagates)."""
    if subcommand not in _BODIES:
        raise ConfigError(
            f"unknown subcommand {subcommand!r}; choose from {', '.join(SUBCOMMANDS)}"
        )
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        status, extra = _BODIES[subcommand](cfg, out)
    except tuple(_FAILURES) as exc:
        extra = {"status": _failure(exc)[0], "error": " ".join(str(exc).split())}
        _write_manifest(out, subcommand, cfg, threads, time.perf_counter() - start, extra)
        raise
    _write_manifest(out, subcommand, cfg, threads, time.perf_counter() - start, extra)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="drgame",
        description="Backward game-value solvers with doubly reflected payoffs",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="configuration document")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker hint; never changes output")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0

    try:
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}")
            cfg = parse_config(text)
        else:
            cfg = RunConfig()
        if args.out is not None:
            cfg.out_dir = args.out
        if args.seed is not None:
            cfg.seed = args.seed
        return run(args.subcommand, cfg, threads=args.threads)
    except tuple(_FAILURES) as exc:
        status, label = _failure(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
