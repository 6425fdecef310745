"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Criterion 6 checks the heat benchmark in two clauses.  The 1% clause runs
``h(x) = x^2`` on [-6, 6].  The refinement clause cannot use that data,
for two reasons.  First, the three-point stencil matches the first two
moments of the increment exactly, so it reproduces quadratic data with no
interior error at any resolution; the only root error left is the
reflecting fold at the domain edge, which depends on the half-width and not
on the mesh.  Second, the scheme is first order in dt, and halving dx with
dt = dx^2 / 2 quarters dt, so even data with a discretization error would
show a ratio near 1/4.  The refinement clause therefore runs
``h(x) = cos x`` (exact value e^{-1}) on [-10, 10], where the fold is
negligible, halves dt within CFL, and asks the error to halve.
"""

import time

import numpy as np
import pytest
from dataclasses import replace
from scipy.special import binom

import drgame as dg
from drgame import (BinaryTree, TimeGrid, build_lattice, check_flat_off,
                    compare_drbsde, constant_controls, cross_check, dpp_check,
                    dynkin_oracle_corpus, euler_forward,
                    lattice_occupancy, make_preset, make_pde_grid,
                    simulate_brownian, solve_drbsde_lattice,
                    solve_drbsde_lsmc, solve_obstacle_pde,
                    spd_sqrt_series, sqrt_coefficient, stability_gap,
                    value_backward_induction)
from drgame.cli import RunConfig, run as cli_run
from drgame.model import ControlGrid, GameProblem

BIG = 1e6
PRESET_NAMES = ("dynkin-flat", "uncertain-volatility", "bsb-convex",
                "linear-quadratic")


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    return ok


def scalar_problem(T=1.0, b0=0.0, sig=1.0, h=None, l_lo=None, l_hi=None,
                   f=None, gamma=None):
    h = h or (lambda x: x[..., 0])
    l_lo = l_lo or (lambda t, x: np.full(np.shape(x)[:-1], -BIG))
    l_hi = l_hi or (lambda t, x: np.full(np.shape(x)[:-1], BIG))
    f = f or (lambda t, x, y, z, u, v: np.zeros(np.shape(x)[:-1]))
    return GameProblem(
        state_dim=1, noise_dim=1, horizon=T,
        drift=lambda t, x, u, v: np.full_like(x, b0),
        diffusion=lambda t, x, u, v: np.full(np.shape(x)[:-1] + (1, 1), sig),
        generator=f, terminal=h, lower_obstacle=l_lo, upper_obstacle=l_hi,
        lipschitz=gamma or max(1.0, abs(b0) + sig), holder_q=2.0,
        u_grid=ControlGrid.singleton(), v_grid=ControlGrid.singleton())


def preset_lattice(name, params=None, steps=None, span=None, nodes=None):
    p = make_preset(name, params or {})
    defaults = {
        "dynkin-flat": (100, 4.0, 41),
        "uncertain-volatility": (256, 6.0, 49),
        "bsb-convex": (100, 4.0, 41),
        "linear-quadratic": (256, 6.0, 49),
    }[name]
    steps = steps or defaults[0]
    span = span or defaults[1]
    nodes = nodes or defaults[2]
    return p, build_lattice(p, steps, -span, span, nodes)


def test_criterion_01_dynkin_oracle_equivalence():
    start = time.perf_counter()
    cases = dynkin_oracle_corpus(n_trees=24, seed=2024)
    worst = max(abs(c.recursion_value() - c.brute_force_value()) for c in cases)
    elapsed = time.perf_counter() - start
    depths = sorted({c.tree.depth for c in cases})
    ok = worst <= 1e-12 and elapsed < 10.0 and len(cases) >= 20
    assert report(1, "dynkin oracle equivalence", ok,
                  f"24 trees, depths {depths}, worst {worst:.2e}, {elapsed:.1f}s")


def _flat_off_corpus():
    cases = []
    for name in PRESET_NAMES:
        p, lat = preset_lattice(name)
        cases.append((p, lat))
    binding = scalar_problem(b0=-0.5, l_lo=lambda t, x: x[..., 0] - 0.3)
    cases.append((binding, build_lattice(binding, 100, -4, 4, 41)))
    two_sided = scalar_problem(
        h=lambda x: np.sin(x[..., 0]),
        l_lo=lambda t, x: np.sin(x[..., 0]) - 0.05 - 0.4 * t,
        l_hi=lambda t, x: np.sin(x[..., 0]) + 0.05 + 0.4 * t)
    cases.append((two_sided, build_lattice(two_sided, 100, -4, 4, 41)))
    return cases


def test_criterion_02_flat_off_exactness():
    worst = 0.0
    n_binding = 0
    for p, lat in _flat_off_corpus():
        sol = solve_drbsde_lattice(p, lat)
        res_lo, res_hi = check_flat_off(sol, p, lat)
        worst = max(worst, res_lo, res_hi)
        if sol.K_lo[-1].max() > 0 or sol.K_hi[-1].max() > 0:
            n_binding += 1
    ok = worst <= 1e-12 and n_binding >= 2
    assert report(2, "flat-off exactness", ok,
                  f"worst residual {worst:.2e}, {n_binding} binding cases")


def test_criterion_03_comparison_theorem():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        b0 = float(rng.uniform(-0.4, 0.4))
        sig = float(rng.uniform(0.6, 1.4))
        c_y = float(rng.uniform(0.0, 0.5))
        d_xi = float(rng.uniform(0.0, 0.5))
        d_f = float(rng.uniform(0.0, 0.5))
        d_lo = float(rng.uniform(0.0, 0.3))
        d_hi = float(rng.uniform(0.0, 0.3))
        a_x = float(rng.uniform(-0.3, 0.3))

        def mk(s_h, s_f, s_lo, s_hi):
            return scalar_problem(
                b0=b0, sig=sig,
                h=lambda x: np.sin(x[..., 0]) + s_h,
                l_lo=lambda t, x: np.full(np.shape(x)[:-1], -2.0 + s_lo),
                l_hi=lambda t, x: np.full(np.shape(x)[:-1], 2.0 + s_hi),
                f=lambda t, x, y, z, u, v: c_y * y + a_x * np.cos(x[..., 0]) + s_f,
                gamma=2.0)

        p1 = mk(0.0, 0.0, 0.0, 0.0)
        p2 = mk(d_xi, d_f, d_lo, d_hi)
        lat = build_lattice(p1, 60, -3, 3, 31)
        violation = compare_drbsde(solve_drbsde_lattice(p1, lat),
                                   solve_drbsde_lattice(p2, lat))
        worst = max(worst, violation)
    ok = worst == 0.0
    assert report(3, "comparison theorem", ok,
                  f"50 ordered pairs, max violation {worst:.2e}")


def test_criterion_04_stability_bound():
    rng = np.random.default_rng(41)
    worst_ratio = 0.0
    for _ in range(30):
        b0 = float(rng.uniform(-0.3, 0.3))
        sig = float(rng.uniform(0.7, 1.3))
        c_y = float(rng.uniform(0.0, 0.5))
        eps = float(rng.uniform(0.05, 0.4)) * rng.choice([-1.0, 1.0])
        dlt = float(rng.uniform(0.05, 0.4)) * rng.choice([-1.0, 1.0])

        def mk(s_h, s_f):
            return scalar_problem(
                b0=b0, sig=sig,
                h=lambda x: np.cos(x[..., 0]) + s_h,
                l_lo=lambda t, x: np.full(np.shape(x)[:-1], -3.0),
                l_hi=lambda t, x: np.full(np.shape(x)[:-1], 3.0),
                f=lambda t, x, y, z, u, v: c_y * y + s_f,
                gamma=1.0)  # gamma * T = 1

        p1, p2 = mk(0.0, 0.0), mk(eps, dlt)
        lat = build_lattice(p1, 60, -4, 4, 33)
        s1 = solve_drbsde_lattice(p1, lat)
        s2 = solve_drbsde_lattice(p2, lat)
        rep = stability_gap(lat, p1, s1, p2, s2, varpi=2.0, root_index=16)
        assert rep.driver > 0.0
        worst_ratio = max(worst_ratio, rep.gap / rep.driver)
    ok = worst_ratio <= 5.0
    assert report(4, "a-priori stability bound", ok,
                  f"30 cases, worst gap/driver {worst_ratio:.2f}")


def _sandwich_violation(p, knots, x_nodes, field):
    worst = -np.inf
    xb = x_nodes[:, None]
    for j in range(field.shape[0]):
        lo = np.asarray(p.lower_obstacle(float(knots[j]), xb))
        hi = np.asarray(p.upper_obstacle(float(knots[j]), xb))
        worst = max(worst, float(np.max(lo - field[j])),
                    float(np.max(field[j] - hi)))
    return worst


def test_criterion_05_obstacle_sandwich():
    worst = -np.inf
    for name in PRESET_NAMES:
        p, lat = preset_lattice(name)
        for order in ("supinf", "infsup"):
            surf = value_backward_induction(p, lat, order)
            worst = max(worst, _sandwich_violation(p, surf.grid.knots,
                                                   surf.x_nodes, surf.W))
        sol = solve_drbsde_lattice(p, lat)
        worst = max(worst, _sandwich_violation(p, sol.grid.knots,
                                               lat.x_nodes, sol.Y))
    # Monte Carlo solution on a binding problem, pathwise obstacle values
    p = scalar_problem(b0=-0.5, l_lo=lambda t, x: x[..., 0] - 0.3)
    grid = TimeGrid(0.0, 1.0, 25)
    ens = simulate_brownian(grid, 2000, 1, seed=55)
    mu = constant_controls(2000, 25)
    nu = constant_controls(2000, 25)
    st = euler_forward(p, ens, [0.0], mu, nu)
    sol = solve_drbsde_lsmc(p, st, mu, nu, se_batches=0)
    for j in range(sol.Y.shape[0]):
        xj = st.X[:, j]
        t = float(grid.knots[j])
        worst = max(worst,
                    float(np.max(p.lower_obstacle(t, xj) - sol.Y[j])),
                    float(np.max(sol.Y[j] - p.upper_obstacle(t, xj))))
    ok = worst <= 0.0
    assert report(5, "obstacle sandwich", ok, f"worst violation {worst:.2e}")


def _heat_roots(dx):
    p = scalar_problem(sig=np.sqrt(2.0), h=lambda x: x[..., 0] ** 2,
                       gamma=np.sqrt(2.0))
    dt = dx * dx / 2.0
    n_steps = int(round(1.0 / dt))
    nodes = int(round(12.0 / dx)) + 1
    lat = build_lattice(p, n_steps, -6.0, 6.0, nodes)
    v_lat = value_backward_induction(p, lat, "supinf").root(0.0)
    g = make_pde_grid(p, n_steps, -6.0, 6.0, nodes)
    v_pde = solve_obstacle_pde(p, g, "supinf").root(0.0)
    return v_lat, v_pde


def _heat_cos_roots(n_steps):
    # sigma^2 = 2, T = 1, x0 = 0: the exact value is e^{-sigma^2 T / 2}.
    # Round the interval count down so that sigma^2 dt / dx^2 <= 1, and
    # keep it even so that x = 0 is a node.
    p = scalar_problem(sig=np.sqrt(2.0), h=lambda x: np.cos(x[..., 0]),
                       gamma=np.sqrt(2.0))
    intervals = int(np.floor(20.0 / np.sqrt(2.0 / n_steps)))
    nodes = intervals - intervals % 2 + 1
    lat = build_lattice(p, n_steps, -10.0, 10.0, nodes)
    v_lat = value_backward_induction(p, lat, "supinf").root(0.0)
    folded = lattice_occupancy(lat, root_index=nodes // 2)[1]
    g = make_pde_grid(p, n_steps, -10.0, 10.0, nodes)
    v_pde = solve_obstacle_pde(p, g, "supinf").root(0.0)
    return v_lat, v_pde, folded


def test_criterion_06_heat_kernel_benchmark():
    start = time.perf_counter()
    v_lat, v_pde = _heat_roots(0.05)
    err_lat = abs(v_lat - 2.0)
    err_pde = abs(v_pde - 2.0)
    within = err_lat <= 0.02 and err_pde <= 0.02
    exact = np.exp(-1.0)
    levels = [_heat_cos_roots(n) for n in (800, 1600)]
    errs = [(abs(vl - exact), abs(vp - exact)) for vl, vp, _ in levels]
    folded = [fold for _, _, fold in levels]
    truncation_ok = max(folded) <= 1e-8
    ratio_lat = errs[1][0] / errs[0][0]
    ratio_pde = errs[1][1] / errs[0][1]
    halves = all(0.4 <= r <= 0.6 for r in (ratio_lat, ratio_pde))
    elapsed = time.perf_counter() - start
    ok = within and elapsed < 30.0 and truncation_ok and halves
    report(6, "heat-kernel benchmark", ok,
           f"x^2 err {err_lat:.2e}/{err_pde:.2e} (<=1% ok: {within}); "
           f"cos x err lat {errs[0][0]:.3e}->{errs[1][0]:.3e}, "
           f"pde {errs[0][1]:.3e}->{errs[1][1]:.3e}, "
           f"folded {folded[0]:.1e}/{folded[1]:.1e}, "
           f"ratio lat {ratio_lat:.3f} pde {ratio_pde:.3f} "
           f"(target [0.4, 0.6]), {elapsed:.1f}s")
    assert within and elapsed < 30.0
    assert truncation_ok, (
        f"folded boundary mass {folded[0]:.2e}/{folded[1]:.2e} exceeds 1e-8: "
        "domain truncation would mask the discretization error")
    # x^2 cannot carry this clause: the stencil reproduces it exactly and
    # its root error is truncation at the fold.  Halving dx with
    # dt = dx^2 / 2 would also quarter dt, and the scheme is first order
    # in dt.  So the clause halves dt on cos x and expects the error to halve.
    assert halves, (
        f"refinement ratio lat {ratio_lat:.3f} / pde {ratio_pde:.3f} not in "
        "[0.4, 0.6]: halving dt on cos x should halve the error of a "
        "first-order-in-dt scheme"
    )


def test_criterion_07_uncertain_volatility_selection():
    dx = 0.05
    n_steps = int(round(1.0 / (dx * dx / 4.0)))
    span, nodes = 8.0, int(round(16.0 / dx)) + 1
    results = []
    for hname, ref_sig in (("square", 2.0), ("neg-square", 1.0)):
        p = make_preset("uncertain-volatility", {"h": hname})
        lat = build_lattice(p, n_steps, -span, span, nodes)
        v_game = value_backward_induction(p, lat, "supinf").root(0.0)
        sign = 1.0 if hname == "square" else -1.0
        single = scalar_problem(sig=ref_sig, gamma=ref_sig,
                                h=lambda x: sign * x[..., 0] ** 2)
        lat_s = build_lattice(single, n_steps, -span, span, nodes)
        v_single = value_backward_induction(single, lat_s, "supinf").root(0.0)
        rel = abs(v_game - v_single) / abs(v_single)
        results.append((hname, ref_sig, rel))
    ok = all(rel <= 0.01 for _, _, rel in results)
    detail = ", ".join(f"{h}->sigma={s} rel {r:.1e}" for h, s, r in results)
    assert report(7, "uncertain-volatility selection", ok, detail)


def test_criterion_08_dpp_identity():
    worst = 0.0
    for name in PRESET_NAMES:
        p, lat = preset_lattice(name)
        n = lat.grid.n_steps
        for j in (1, n // 2, n - 1):
            t_mid = float(lat.grid.knots[j])
            rep = dpp_check(p, lat, t_mid, "supinf", 0.0)
            worst = max(worst, abs(rep.direct - rep.matched))
    matched_ok = worst <= 1e-12

    p = replace(make_preset("uncertain-volatility", {}),
                terminal=lambda x: np.cos(x[..., 0]))
    gaps = []
    for dx, steps in ((0.2, 100), (0.1, 400)):
        lat = build_lattice(p, steps, -10, 10, int(round(20 / dx)) + 1)
        rep = dpp_check(p, lat, 0.5, "supinf", 0.0)
        gaps.append(abs(rep.direct - rep.refined))
    shrink_ok = gaps[1] <= gaps[0] / 2.0
    ok = matched_ok and shrink_ok
    assert report(8, "dynamic programming identity", ok,
                  f"matched gap {worst:.2e}, cross-res {gaps[0]:.1e}"
                  f"->{gaps[1]:.1e}")


def test_criterion_09_order_inequality():
    # b depends on u, sigma on v, and the generator couples them bilinearly,
    # so the pointwise Isaacs condition fails by construction
    p, lat = preset_lattice("linear-quadratic", steps=400, span=6.0, nodes=121)
    lo = value_backward_induction(p, lat, "supinf")
    hi = value_backward_induction(p, lat, "infsup")
    violation = float(np.max(lo.W - hi.W))
    gap = float(np.max(hi.W - lo.W))
    ok = violation <= 0.0 and gap > 0.0
    assert report(9, "order inequality (lower <= upper)", ok,
                  f"max violation {violation:.2e}, Isaacs gap {gap:.3f}")


def test_criterion_10_lattice_pde_equivalence():
    worst = 0.0
    for name in PRESET_NAMES:
        p, lat = preset_lattice(name)
        for order in ("supinf", "infsup"):
            rep = cross_check(p, lat, order, 0.0)
            worst = max(worst, rep.rel_gap)
    ok = worst <= 1e-10
    assert report(10, "lattice/PDE algebraic equivalence", ok,
                  f"worst rel gap {worst:.2e}")


def test_criterion_11_matrix_square_root():
    coeff_err = max(abs(sqrt_coefficient(j) - (-1.0) ** j * binom(0.5, j))
                    for j in range(1, 11))
    rng = np.random.default_rng(111)
    worst = 0.0
    for trial in range(100):
        d = 1 + trial % 4
        cond = float(10.0 ** rng.uniform(0.0, 2.0))
        g = dg.random_spd(rng, d, cond,
                          scale=float(10.0 ** rng.uniform(-1.0, 1.0)))
        r = spd_sqrt_series(g)
        worst = max(worst, float(np.linalg.norm(r @ r - g) / np.linalg.norm(g)))
    ok = worst <= 1e-8 and coeff_err <= 1e-15
    assert report(11, "series matrix square root", ok,
                  f"100 matrices, worst residual {worst:.2e}, "
                  f"coefficient error {coeff_err:.1e}")


def test_criterion_12_lsmc_consistency():
    start = time.perf_counter()
    n_paths, n_steps = 100_000, 50
    outcomes = []

    cases = [
        ("flat stopping game", make_preset("dynkin-flat", {}), 1201),
        ("drifted linear terminal", scalar_problem(b0=0.2), 1202),
        ("binding lower barrier",
         scalar_problem(b0=-0.5, l_lo=lambda t, x: x[..., 0] - 0.3), 1203),
    ]
    for label, p, seed in cases:
        dx = np.sqrt(p.horizon / n_steps)  # CFL bound; round the node count
        nodes = int(np.floor(12.0 / dx)) + 1  # down so the true dx is >= bound
        lat = build_lattice(p, n_steps, -6.0, 6.0, nodes)
        lat_root = solve_drbsde_lattice(p, lat).root_at(nodes // 2)
        grid = TimeGrid(0.0, p.horizon, n_steps)
        ens = simulate_brownian(grid, n_paths, 1, seed=seed)
        mu = constant_controls(n_paths, n_steps)
        nu = constant_controls(n_paths, n_steps)
        st = euler_forward(p, ens, [0.0], mu, nu)
        sol = solve_drbsde_lsmc(p, st, mu, nu)
        diff = abs(sol.root - lat_root)
        tol = 3.0 * sol.se_root + 1e-10
        outcomes.append((label, diff, tol))
    elapsed = time.perf_counter() - start
    ok = all(diff <= tol for _, diff, tol in outcomes) and elapsed < 120.0
    detail = "; ".join(f"{lbl}: |d|={d:.1e} tol={t:.1e}" for lbl, d, t in outcomes)
    assert report(12, "LSMC consistency at 1e5 paths", ok,
                  detail + f"; {elapsed:.0f}s")


def test_criterion_13_reproducibility(tmp_path):
    subs = ("validate", "value", "pde", "crosscheck", "dpp-check",
            "dynkin-oracle", "sqrt-check", "simulate", "drbsde")

    def sweep(root, threads):
        for i, sub in enumerate(subs):
            cfg = RunConfig(out_dir=str(root / f"{i}_{sub}"))
            cfg.n_steps, cfg.n_nodes = 25, 21
            cfg.n_paths, cfg.samples, cfg.trials = 150, 150, 20
            if sub == "drbsde":
                cfg.mode = "lsmc"
            assert cli_run(sub, cfg, threads=threads) == 0, sub

    def collect(root):
        return {f.relative_to(root).as_posix(): f.read_bytes()
                for f in sorted(root.rglob("*.csv"))}

    sweep(tmp_path / "a", threads=1)
    sweep(tmp_path / "b", threads=1)
    sweep(tmp_path / "c", threads=8)
    a, b, c = collect(tmp_path / "a"), collect(tmp_path / "b"), collect(tmp_path / "c")
    ok = bool(a) and a == b and a == c
    assert report(13, "bit-identical reproducibility", ok,
                  f"{len(a)} artifacts across {len(subs)} subcommands")
