from dataclasses import fields, replace

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from drgame import (ControlGrid, DrbsdeSolution, GameProblem, NumericsError,
                    ProblemError, TimeGrid, build_lattice, constant_controls,
                    euler_forward, lattice_occupancy, make_preset,
                    preset_names, simulate_brownian, solve_drbsde_lattice,
                    solve_drbsde_lsmc, stability_gap, validate_problem)
from drgame.model import _CSV_BLOCK, _control_pairs, _control_tables, _csv
from drgame.paths import StatePaths


def custom_problem(drift, gamma=1.0, sigma_const=1.0):
    return GameProblem(
        state_dim=1, noise_dim=1, horizon=1.0,
        drift=drift,
        diffusion=lambda t, x, u, v: np.full(np.shape(x)[:-1] + (1, 1), sigma_const),
        generator=lambda t, x, y, z, u, v: np.zeros(np.shape(x)[:-1]),
        terminal=lambda x: np.zeros(np.shape(x)[:-1]),
        lower_obstacle=lambda t, x: np.full(np.shape(x)[:-1], -10.0),
        upper_obstacle=lambda t, x: np.full(np.shape(x)[:-1], 10.0),
        lipschitz=gamma, holder_q=2.0,
        u_grid=ControlGrid.singleton(), v_grid=ControlGrid.singleton())


class TestExports:
    def test_every_exported_name_resolves(self):
        import drgame
        from drgame import cli, drbsde, game, linalg, model, paths, pde
        for mod in (drgame, cli, drbsde, game, linalg, model, paths, pde):
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name}"

    def test_package_surface_is_the_module_lists(self):
        import drgame
        from drgame import drbsde, game, linalg, model, paths, pde
        assert drgame.__all__ == ["__version__", *model.__all__, *paths.__all__,
                                  *game.__all__, *drbsde.__all__, *pde.__all__,
                                  *linalg.__all__]
        assert set(drgame.__all__) == {
            "__version__", "BinaryTree", "CflError", "ControlGrid", "CrossCheckReport",
            "DppReport", "DrbsdeSolution", "GameProblem", "Lattice", "NumericsError",
            "OracleCase", "PathEnsemble", "ProblemError", "RefinementStudy",
            "RegressionError", "ResidualReport", "SpdError", "StabilityReport",
            "StatePaths", "TimeGrid", "ValidationReport", "ValueSurface",
            "build_lattice", "check_flat_off", "check_spd", "compare_drbsde",
            "constant_controls", "cross_check", "dpp_check", "dynkin_brute_force",
            "dynkin_oracle_corpus", "enumerate_stopping_rules", "euler_forward",
            "hamiltonian", "isaacs_hamiltonian", "lattice_occupancy", "make_pde_grid",
            "make_preset", "preset_names", "random_spd", "refinement_study",
            "simulate_brownian", "solve_drbsde_lattice", "solve_drbsde_lsmc",
            "solve_obstacle_pde", "spd_sqrt_series", "sqrt_coefficient",
            "stability_gap", "validate_problem", "value_backward_induction",
            "viscosity_residual"}
        assert len(drgame.__all__) == 51

    def test_module_level_names_stay_importable_by_path(self):
        from drgame.game import Stencil, backward_sweep
        from drgame.model import PRESETS
        assert callable(backward_sweep) and callable(Stencil.pair)
        assert sorted(PRESETS) == preset_names()

    @pytest.mark.parametrize("name", ["dpp_cross_resolution", "_refined_composition",
                                      "OrderingReport"])
    def test_removed_names_are_gone(self, name):
        import drgame
        from drgame import drbsde, game
        for mod in (drgame, drbsde, game):
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"


class TestControlGrid:
    def test_origin_norm_is_zero(self):
        g = ControlGrid(points=(1.0, 2.0))
        assert g.norm(0) == 0.0
        assert g.norm(1) == 1.0

    def test_distinct_points_required(self):
        with pytest.raises(ProblemError):
            ControlGrid(points=(1.0, 1.0))

    def test_empty_rejected(self):
        with pytest.raises(ProblemError):
            ControlGrid(points=())


class TestPresets:
    def test_catalog_names(self):
        assert preset_names() == ["bsb-convex", "dynkin-flat",
                                  "linear-quadratic", "uncertain-volatility"]

    def test_dynkin_flat_fields(self):
        p = make_preset("dynkin-flat", {"l_lo": -1.0, "l_hi": 1.0, "h": 0.0, "T": 1.0})
        x = np.array([[0.3], [-0.7]])
        assert np.all(p.lower_obstacle(0.2, x) == -1.0)
        assert np.all(p.upper_obstacle(0.2, x) == 1.0)
        assert np.all(p.terminal(x) == 0.0)
        assert np.all(p.generator(0.1, x, np.ones(2), np.ones((2, 1)), 0.0, 0.0) == 0.0)
        assert p.u_grid.size == 1 and p.v_grid.size == 1

    def test_constant_obstacles_are_one_read_only_array_per_shape(self):
        p = make_preset("dynkin-flat", {"l_lo": -1.0, "l_hi": 1.0})
        x = np.zeros((4, 1))
        a, b = p.lower_obstacle(0.0, x), p.lower_obstacle(0.5, x + 1.0)
        assert a is b and np.array_equal(a, np.full(4, -1.0))
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
        assert np.array_equal(p.lower_obstacle(0.0, x), np.full(4, -1.0))
        assert np.array_equal(p.upper_obstacle(0.0, np.zeros((2, 3, 1))),
                              np.ones((2, 3)))

    def test_uncertain_volatility_structure(self):
        p = make_preset("uncertain-volatility", {"sigma_lo": 1.0, "sigma_hi": 2.0,
                                                 "h": "square"})
        assert tuple(p.u_grid.points) == (1.0, 2.0)
        assert p.v_grid.size == 1
        x = np.array([[0.5]])
        assert p.drift(0.0, x, 1.0, 0.0)[0, 0] == 0.0
        assert p.diffusion(0.0, x, 2.0, 0.0)[0, 0, 0] == 2.0
        assert p.terminal(x)[0] == 0.25

    def test_bsb_convex_structure(self):
        p = make_preset("bsb-convex", {"sigma_lo": 0.2, "sigma_hi": 0.4, "rate": 0.8})
        assert tuple(p.u_grid.points) == (0.2, 0.4)
        assert tuple(p.v_grid.points) == (0.0,)
        assert p.lipschitz == 0.8 + 0.4
        x = np.array([[1.5]])
        assert p.drift(0.0, x, 0.2, 0.0)[0, 0] == 0.8 * 1.5
        assert p.diffusion(0.0, x, 0.4, 0.0)[0, 0, 0] == 0.4 * 1.5
        assert p.generator(0.0, x, np.ones(1), np.ones((1, 1)), 0.4, 0.0)[0] == 0.0
        assert p.terminal(x)[0] == 2.25
        assert p.lower_obstacle(0.0, x)[0] == -1e6 and p.upper_obstacle(0.0, x)[0] == 1e6

    def test_linear_quadratic_structure(self):
        p = make_preset("linear-quadratic", {"a": 0.5, "b_u": 2.0, "u_lo": -1.0,
                                             "u_hi": 1.5, "sigma_lo": 1.0, "sigma_hi": 3.0,
                                             "c_x": 0.25, "c_uv": 2.0})
        assert tuple(p.u_grid.points) == (-1.0, 1.5)
        assert tuple(p.v_grid.points) == (1.0, 3.0)
        assert p.lipschitz == 5.0  # b_u * (u_hi - u_lo) dominates
        x = np.array([[2.0]])
        assert p.drift(0.0, x, 1.5, 3.0)[0, 0] == 0.5 * 2.0 + 2.0 * 1.5
        assert p.diffusion(0.0, x, 1.5, 3.0)[0, 0, 0] == 3.0
        # v_mid = 2: c_x x + c_uv u (v - v_mid)
        assert p.generator(0.0, x, np.ones(1), np.ones((1, 1)), 1.5, 3.0)[0] == 3.5
        assert p.terminal(x)[0] == 2.0
        assert p.lower_obstacle(0.0, x)[0] == -20.0 and p.upper_obstacle(0.0, x)[0] == 20.0

    @pytest.mark.parametrize("h", ["abs", "square"])
    def test_dynkin_flat_takes_a_named_terminal(self, h):
        # a named h is checked at T by the backward routes, not here
        p = make_preset("dynkin-flat", {"h": h})
        assert p.terminal(np.array([[-0.5]]))[0] == (0.25 if h == "square" else 0.5)

    def test_obstacle_separation_enforced(self):
        with pytest.raises(ProblemError, match="separation"):
            make_preset("dynkin-flat", {"l_lo": 1.0, "l_hi": 1.0})

    def test_terminal_must_sit_between_obstacles(self):
        for name in preset_names():  # a constant h, on every preset
            with pytest.raises(ProblemError, match="between"):
                make_preset(name, {"l_lo": -1.0, "l_hi": 1.0, "h": 5.0})

    def test_unknown_preset(self):
        with pytest.raises(ProblemError, match="unknown preset"):
            make_preset("nope", {})

    def test_unknown_parameter(self):
        with pytest.raises(ProblemError, match="does not accept"):
            make_preset("dynkin-flat", {"volatility": 2.0})

    def test_invalid_horizon(self):
        with pytest.raises(ProblemError):
            make_preset("dynkin-flat", {"T": -1.0})

    def test_horizon_must_be_finite(self):
        with pytest.raises(ProblemError, match="^horizon must be finite and positive, got inf$"):
            make_preset("dynkin-flat", {"T": np.inf})

    def test_q_range(self):
        with pytest.raises(ProblemError):
            make_preset("dynkin-flat", {"q": 2.5})

    @pytest.mark.parametrize("param, error", [
        ({"T": -1.0}, "^horizon must be finite and positive, got -1.0$"),
        ({"T": 0.0}, "^horizon must be finite and positive, got 0.0$"),
        ({"q": 2.5}, r"^holder_q must lie in \(1, 2\], got 2.5$"),
        ({"q": 1.0}, r"^holder_q must lie in \(1, 2\], got 1.0$")])
    def test_horizon_and_q_are_checked_by_the_problem(self, param, error):
        with pytest.raises(ProblemError, match=error):
            make_preset("linear-quadratic", param)

    @pytest.mark.parametrize("name", preset_names())
    def test_infinite_barriers_are_allowed(self, name):
        p = make_preset(name, {"l_lo": -np.inf, "l_hi": np.inf})
        assert p.upper_obstacle(0.0, np.zeros((1, 1)))[0] == np.inf

    def test_a_preset_keeps_no_parameter_table(self):
        p = make_preset("dynkin-flat", {"sigma": 0.5})
        assert not hasattr(p, "params")
        assert "params" not in {f.name for f in fields(GameProblem)}


class TestValidateProblem:
    def test_every_preset_passes(self):
        for name in preset_names():
            rep = validate_problem(make_preset(name, {}), samples=400, seed=3)
            assert rep.passed, f"{name}: {rep.rows}"

    def test_constant_coefficients_have_zero_ratios(self):
        rep = validate_problem(make_preset("dynkin-flat", {}), samples=1000, seed=0)
        assert rep.ratio("coefficient_x_lipschitz") == 0.0
        assert rep.ratio("generator_lipschitz") == 0.0

    def test_zero_drift_ratio(self):
        rep = validate_problem(make_preset("uncertain-volatility", {}),
                               samples=500, seed=1)
        # b and sigma are both constant in x, so the Lipschitz row is zero
        assert rep.ratio("coefficient_x_lipschitz") == 0.0
        assert rep.passed

    def test_lipschitz_violation_detected(self):
        # b(t,x) = 2x has difference quotient 2 against a budget of 1
        p = custom_problem(lambda t, x, u, v: 2.0 * x, gamma=1.0)
        rep = validate_problem(p, samples=2000, seed=7)
        ratio = rep.ratio("coefficient_x_lipschitz")
        assert abs(ratio - 2.0) < 1e-6
        assert not rep.passed

    def test_deterministic_given_seed(self):
        p = make_preset("linear-quadratic", {})
        r1 = validate_problem(p, samples=300, seed=42)
        r2 = validate_problem(p, samples=300, seed=42)
        assert r1.rows == r2.rows

    def test_nonfinite_coefficient_raises(self):
        p = custom_problem(lambda t, x, u, v: x * np.nan)
        with pytest.raises(NumericsError, match="non-finite"):
            validate_problem(p, samples=10, seed=0)

    def test_requires_at_least_one_sample(self):
        with pytest.raises(ProblemError):
            validate_problem(make_preset("dynkin-flat", {}), samples=0, seed=0)

    def test_csv_shape(self, tmp_path):
        rep = validate_problem(make_preset("dynkin-flat", {}), samples=50, seed=0)
        rep.to_csv(tmp_path / "validation.csv")
        lines = (tmp_path / "validation.csv").read_text().strip().split("\n")
        assert lines[0] == "assumption,max_ratio,pass"
        assert len(lines) == 7
        assert all(len(line.split(",")) == 3 for line in lines[1:])


def reference_validate(p, samples, seed):
    """validate_problem as a per-sample loop of single-state calls: the
    rows it must reproduce bit for bit (and its non-finite messages)."""
    rng = np.random.default_rng(seed)
    k, d, gam, e = p.state_dim, p.noise_dim, p.lipschitz, 2.0 / p.holder_q
    ts = rng.uniform(0.0, p.horizon, size=samples)
    xs = rng.uniform(-2.0, 2.0, size=(samples, k))
    xs2 = rng.uniform(-2.0, 2.0, size=(samples, k))
    ys = rng.uniform(-2.0, 2.0, size=samples)
    ys2 = rng.uniform(-2.0, 2.0, size=samples)
    zs = rng.uniform(-2.0, 2.0, size=(samples, d))
    zs2 = rng.uniform(-2.0, 2.0, size=(samples, d))
    uis = rng.integers(0, p.u_grid.size, size=samples)
    vis = rng.integers(0, p.v_grid.size, size=samples)

    def check(name, arr, t, x):
        if not np.all(np.isfinite(arr)):
            raise NumericsError(
                f"non-finite value from {name} at t={t!r}, x={np.asarray(x).ravel()!r}")

    def norm(a):
        return np.sqrt(np.sum(np.asarray(a, dtype=float) ** 2))

    r_growth = r_lip = r_fgrowth = r_flip = 0.0
    sep = -np.inf
    x0 = np.zeros(k)
    for i in range(samples):
        t = float(ts[i])
        u, v = p.u_grid.point(int(uis[i])), p.v_grid.point(int(vis[i]))
        nu, nv = p.u_grid.norm(int(uis[i])), p.v_grid.norm(int(vis[i]))
        x, x2 = xs[i], xs2[i]
        b0, s0 = p.drift(t, x0, u, v), p.diffusion(t, x0, u, v)
        check("drift", b0, t, x0)
        check("diffusion", s0, t, x0)
        r_growth = max(r_growth, (norm(b0) + norm(s0)) / (gam * (1.0 + nu + nv)))
        bx, bx2 = p.drift(t, x, u, v), p.drift(t, x2, u, v)
        sx, sx2 = p.diffusion(t, x, u, v), p.diffusion(t, x2, u, v)
        check("drift", bx, t, x)
        check("diffusion", sx, t, x)
        dx = norm(x - x2)
        dnum = norm(np.subtract(bx, bx2)) + norm(np.subtract(sx, sx2))
        if dx > 0:
            r_lip = max(r_lip, dnum / (gam * dx))
        elif dnum > 0:
            r_lip = np.inf
        f0 = float(np.asarray(p.generator(t, x0, 0.0, np.zeros(d), u, v)))
        check("generator", f0, t, x0)
        r_fgrowth = max(r_fgrowth, abs(f0) / (gam * (1.0 + nu ** e + nv ** e)))
        fa = float(np.asarray(p.generator(t, x, ys[i], zs[i], u, v)))
        fb = float(np.asarray(p.generator(t, x2, ys2[i], zs2[i], u, v)))
        check("generator", [fa, fb], t, x)
        fden = gam * (dx ** e + abs(ys[i] - ys2[i]) + norm(zs[i] - zs2[i]))
        if fden > 0:
            r_flip = max(r_flip, abs(fa - fb) / fden)
        elif abs(fa - fb) > 0:
            r_flip = np.inf
        lo = float(np.asarray(p.lower_obstacle(t, x)))
        hi = float(np.asarray(p.upper_obstacle(t, x)))
        check("obstacles", [lo, hi], t, x)
        sep = max(sep, lo - hi)
    return [float(r_growth), float(r_lip), float(r_fgrowth), float(r_flip), float(sep)]


def two_dim_problem():
    """k = d = 2, two-point u grid and a vector v grid off its origin."""
    def drift(t, x, u, v):
        return np.sin(x) * u + 0.1 * t * np.asarray(v)

    def diffusion(t, x, u, v):
        return np.stack([0.3 * x, np.cos(x) * np.asarray(v)], axis=-1) + 0.05 * u

    def generator(t, x, y, z, u, v):
        return 0.2 * np.sin(y) + 0.3 * np.abs(z).sum(-1) + 0.1 * x.sum(-1) * u + 0.05 * v[0]

    return GameProblem(
        state_dim=2, noise_dim=2, horizon=1.5, drift=drift, diffusion=diffusion,
        generator=generator, terminal=lambda x: np.cos(x).sum(-1),
        lower_obstacle=lambda t, x: np.sin(x).sum(-1) - 5.0,
        upper_obstacle=lambda t, x: x.sum(-1) ** 2 + 5.0,
        lipschitz=1.3, holder_q=1.3,
        u_grid=ControlGrid(points=(0.0, 1.0, -2.0)),
        v_grid=ControlGrid(points=((0.5, 1.0), (2.0, 0.0)), origin=1))


def nan_below(level):
    return lambda t, x, u, v: np.where(x < level, np.nan, 0.0)


class TestValidateGolden:
    """Rows and messages equal the per-sample loop of single-state calls."""

    CASES = [(name, {}) for name in preset_names()] + [("linear-quadratic", {"q": 1.25})]

    @pytest.mark.parametrize("seed", [0, 3, 1203])
    def test_rows_match_the_per_sample_loop_bit_for_bit(self, seed):
        problems = [make_preset(name, params) for name, params in self.CASES]
        for p in problems + [two_dim_problem()]:
            got = [r for _, r, _ in validate_problem(p, samples=300, seed=seed).rows[:5]]
            want = reference_validate(p, 300, seed)
            assert [r.hex() for r in got] == [r.hex() for r in want], p.name

    def test_single_samples_match_with_a_fractional_exponent(self):
        # one sample per seed: the row is that sample's own quotient, so the
        # |x - x'|^(2/q) of every draw must round as the scalar power does
        p = two_dim_problem()
        for seed in range(60):
            got = [r for _, r, _ in validate_problem(p, samples=1, seed=seed).rows[:5]]
            assert [r.hex() for r in got] == [r.hex() for r in reference_validate(p, 1, seed)]

    def test_two_dim_problem_exercises_every_row(self):
        rows = reference_validate(two_dim_problem(), 300, 0)
        assert all(r > 0 for r in rows[:4])

    @pytest.mark.parametrize("where", ["x0", "x"])
    def test_nonfinite_message_matches_the_per_sample_loop(self, where):
        base = two_dim_problem()
        # NaN drift at the origin only, or at states away from it only
        drift = ((lambda t, x, u, v: np.where(x == 0.0, np.nan, 0.0)) if where == "x0"
                 else (lambda t, x, u, v: np.where(x == 0.0, 0.0, np.nan)))
        p = replace(base, drift=drift)
        with pytest.raises(NumericsError) as want:
            reference_validate(p, 20, 4)
        with pytest.raises(NumericsError) as got:
            validate_problem(p, samples=20, seed=4)
        assert str(got.value) == str(want.value)
        assert ("x=array([0., 0.])" in str(got.value)) == (where == "x0")

    @staticmethod
    def second_state(seed):
        rng = np.random.default_rng(seed)
        rng.uniform(0.0, 1.0, size=1)
        rng.uniform(-2.0, 2.0, size=(1, 1))
        return float(rng.uniform(-2.0, 2.0, size=(1, 1))[0, 0])

    @pytest.mark.parametrize("callable_name", ["drift", "diffusion"])
    def test_nonfinite_coefficient_at_the_second_state_raises(self, callable_name):
        # dynkin-flat with a NaN only at the one x' that samples=1, seed=0 draws
        x2 = self.second_state(0)
        assert x2 == pytest.approx(-1.836, abs=1e-3)
        bad = nan_below(x2 + 1e-9)
        if callable_name == "diffusion":
            def bad(t, x, u, v, _f=nan_below(x2 + 1e-9)):
                return _f(t, x, u, v)[..., None] + 1.0
        p = replace(make_preset("dynkin-flat", {}), **{callable_name: bad})
        with pytest.raises(NumericsError, match="non-finite") as err:
            validate_problem(p, samples=1, seed=0)
        assert f"non-finite value from {callable_name}" in str(err.value)
        assert repr(x2)[:6] in str(err.value)


# Float spellings the writer must keep: signed zeros, non-finite values,
# the smallest subnormal and a larger one, and values that need 17 digits.
_SPECIAL_FLOATS = (-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 2.5e-310, 0.1,
                   -1e300, 1.0)


def _per_cell_csv(header, *columns):
    """The table ``_csv`` must write, cell by cell: every column broadcast
    to the table's shape and flattened whole, floats as ``%.17g``, the rest
    by ``str``."""
    arrays = [np.asarray(c) for c in columns if not isinstance(c, str)]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    cols = [[c] * int(np.prod(shape)) if isinstance(c, str)
            else [("%.17g" % v if c.dtype.kind == "f" else str(v))
                  for v in np.broadcast_to(c, shape).ravel().tolist()]
            for c in (c if isinstance(c, str) else np.asarray(c) for c in columns)]
    return "".join([header + "\n"] + [",".join(row) + "\n" for row in zip(*cols)])


def _sprinkled(rng, shape, specials):
    """Random floats across many decades with ``specials`` at random cells."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    if x.size:
        x.flat[rng.integers(0, x.size, len(specials))] = specials
    return x


class TestCsvWriter:
    """The one CSV writer: float spelling, column kinds, broadcast columns,
    row blocks, shape checks and bounded memory."""

    def test_golden_small_table(self, tmp_path):
        x = np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324, 0.1])
        _csv(tmp_path / "t.csv", "x,n,kind", x, np.arange(6), "5%")
        assert (tmp_path / "t.csv").read_text() == (
            "x,n,kind\n"
            "inf,0,5%\n"
            "-inf,1,5%\n"
            "nan,2,5%\n"
            "-0,3,5%\n"
            "4.9406564584124654e-324,4,5%\n"
            "0.10000000000000001,5,5%\n")

    def test_golden_drbsde_with_two_noise_columns(self, tmp_path):
        sol = DrbsdeSolution(
            grid=TimeGrid(0.0, 0.5, 1),
            Y=np.array([[1.0, 0.1], [-0.0, 2.5]]),
            Z=np.array([[[0.25, -1.0], [3.0, 4.0]],
                        [[0.0, 0.0], [np.nan, np.inf]]]),
            K_lo=np.array([[0.5, 0.0], [0.0, 0.0]]),
            K_hi=np.array([[0.0, 1e-300], [0.0, 0.0]]),
            mode="lattice")
        sol.to_csv(tmp_path / "drbsde.csv")
        assert (tmp_path / "drbsde.csv").read_text() == (
            "time,point,Y,Z0,Z1,K_lo,K_hi\n"
            "0,0,1,0.25,-1,0.5,0\n"
            "0,1,0.10000000000000001,3,4,0,1e-300\n"
            "0.5,0,-0,0,0,0,0\n"
            "0.5,1,2.5,nan,inf,0,0\n")

    def test_matches_a_per_cell_loop_across_blocks(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 2 * _CSV_BLOCK + 3
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        x[::97] = np.nan
        x[::89] = -0.0
        names = [f"r{k}" for k in range(n)]
        want = "a,b,c,d\n" + "".join(
            f"{k},{x[k]:.17g},{names[k]},lat\n" for k in range(n))
        _csv(tmp_path / "t.csv", "a,b,c,d", range(n), x, names, "lat")
        assert (tmp_path / "t.csv").read_text() == want

    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shape=st.sampled_from([  # 0 rows; one block; blocks straddling _CSV_BLOCK
               (0, 1), (0, 7), (3, 0), (1, 1), (2, 3), (5, 1000), (3, _CSV_BLOCK - 1),
               (2, _CSV_BLOCK + 1), (_CSV_BLOCK + 5, 1), (2 * _CSV_BLOCK // 3 + 1, 3)]),
           seed=st.integers(0, 2 ** 32 - 1),
           specials=st.lists(st.sampled_from(_SPECIAL_FLOATS) | st.floats(),
                             min_size=1, max_size=8))
    def test_broadcast_columns_match_a_per_cell_loop(self, tmp_path, shape, seed, specials):
        n_t, n_x = shape
        rng = np.random.default_rng(seed)
        knots = _sprinkled(rng, (n_t, 1), specials)  # broadcast along x
        x_nodes = _sprinkled(rng, n_x, specials)     # broadcast along time
        W = _sprinkled(rng, (n_t, n_x), specials)    # full size
        columns = (knots, x_nodes, W, np.arange(n_x), "lat%")
        _csv(tmp_path / "t.csv", "t,x,w,i,kind", *columns)
        assert (tmp_path / "t.csv").read_text() == _per_cell_csv("t,x,w,i,kind", *columns)

    @settings(max_examples=15, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(0, 6), n_steps=st.sampled_from([0, 1, 699, 1399]),
           k=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1),
           specials=st.lists(st.sampled_from(_SPECIAL_FLOATS), min_size=1, max_size=4))
    def test_knot_major_state_paths_match_a_per_cell_loop(self, tmp_path, n, n_steps,
                                                          k, seed, specials):
        rng = np.random.default_rng(seed)
        X = _sprinkled(rng, (n_steps + 1, n, k), specials).transpose(1, 0, 2)
        StatePaths(grid=TimeGrid(0.0, 1.0, max(n_steps, 1)), X=X).to_csv(tmp_path / "s.csv")
        want = _per_cell_csv("path,step,coord,value", np.arange(n)[:, None, None],
                             np.arange(n_steps + 1)[:, None], np.arange(k), X)
        assert (tmp_path / "s.csv").read_text() == want

    def test_an_all_constant_table_matches_a_per_cell_loop(self, tmp_path):
        n_t, n_x = 2 * _CSV_BLOCK // 7 + 2, 7  # rows straddle blocks
        for columns in (
                (np.full(2 * _CSV_BLOCK + 3, 0.5), np.full(2 * _CSV_BLOCK + 3, -0.0),
                 np.full(2 * _CSV_BLOCK + 3, np.nan), "lat"),
                (np.full((n_t, 1), 0.1), np.full(n_x, -np.inf),
                 np.broadcast_to(5e-324, (n_t, n_x)), np.zeros((n_t, n_x)))):
            _csv(tmp_path / "t.csv", "a,b,c,d", *columns)
            assert (tmp_path / "t.csv").read_text() == _per_cell_csv("a,b,c,d", *columns)

    def test_a_column_of_mixed_signed_zeros_matches_a_per_cell_loop(self, tmp_path):
        n = _CSV_BLOCK + 5
        mixed, first, last = np.zeros(n), np.zeros(n), np.zeros(n)
        mixed[1::7] = -0.0
        first[0] = last[-1] = -0.0
        _csv(tmp_path / "t.csv", "a,b,c,d", mixed, first, last, np.full(n, -0.0))
        text = (tmp_path / "t.csv").read_text()
        assert text == _per_cell_csv("a,b,c,d", mixed, first, last, np.full(n, -0.0))
        assert text.splitlines()[1:3] == ["0,-0,0,-0", "-0,0,0,-0"]

    def test_zero_row_tables_write_the_header_only(self, tmp_path):
        _csv(tmp_path / "a.csv", "a,b,kind", [], np.array([]), "lat")
        _csv(tmp_path / "b.csv", "t,x,w", np.zeros((0, 1)), np.arange(5.0),
             np.zeros((0, 5)))
        assert (tmp_path / "a.csv").read_text() == "a,b,kind\n"
        assert (tmp_path / "b.csv").read_text() == "t,x,w\n"

    @pytest.mark.parametrize("columns", [
        ([1], [1.0, 2.0]),                                 # 1-d, unequal lengths
        ([1.0, 2.0], [1]),                                 # the reversed order
        ([1.0], np.arange(3)),                             # no repeat in a 1-d table
        (np.zeros((3, 1)), np.zeros((2, 4))),              # does not broadcast
        (np.zeros((3, 1)), np.zeros(4)),                   # no column is the table
        (1.0, 2.0),                                        # no axis
        ("lat",),                                          # no array column
    ])
    def test_columns_that_do_not_fit_raise_before_the_file_opens(self, tmp_path, columns):
        path = tmp_path / "t.csv"
        with pytest.raises(ProblemError, match="do not fit one table"):
            _csv(path, "header", *columns)
        assert not path.exists()

    def test_a_large_table_streams_in_bounded_memory(self, tmp_path):
        X = np.random.default_rng(0).standard_normal((501, 2000, 1)).transpose(1, 0, 2)
        states = StatePaths(grid=TimeGrid(0.0, 1.0, 500), X=X)
        path = tmp_path / "states.csv"
        tracemalloc.start()
        try:
            states.to_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_text().count("\n") == 2000 * 501 + 1
        assert peak < path.stat().st_size / 10


class TestControlPairs:
    P = make_preset("linear-quadratic", {})
    U, V = P.u_grid.points, P.v_grid.points

    def test_every_pair_without_indices(self):
        pairs = _control_pairs(self.P)
        assert [(u, v, cell) for u, v, cell, _ in pairs] == [
            (u, v, (i, k)) for i, u in enumerate(self.U) for k, v in enumerate(self.V)]
        assert all(nodes == slice(None) for *_, nodes in pairs)

    def test_distinct_pairs_in_lexicographic_order_with_their_positions(self):
        ui = np.array([1, 0, 1, 0, 1])
        vi = np.array([1, 1, 0, 1, 1])
        got = [(u, v, cell.tolist(), nodes.tolist())
               for u, v, cell, nodes in _control_pairs(self.P, ui, vi)]
        assert got == [(self.U[0], self.V[1], [1, 3], [1, 3]),
                       (self.U[1], self.V[0], [2], [2]),
                       (self.U[1], self.V[1], [0, 4], [0, 4])]

    def test_one_pair_used_everywhere_is_one_slice(self):
        ones = np.ones(5, dtype=np.int64)
        for ui, vi in [(1, 0), (np.int64(1), np.zeros(5, dtype=np.int64)),
                       (ones, 0), (np.broadcast_to(np.int64(1), (5,)), 0 * ones)]:
            [(u, v, cell, nodes)] = _control_pairs(self.P, ui, vi)
            assert (u, v) == (self.U[1], self.V[0])
            assert cell == nodes == slice(None)



CONTROL_ERRORS = {"fraction": "mu control indices must be integers",
                  "negative": "mu control index out of range",
                  "past the grid": "mu control index out of range",
                  "wrong shape": "mu controls of shape .* do not fit the tables",
                  "3-d table": "mu controls of shape .* do not fit the tables"}
TABLE_ENTRIES = ("solve_drbsde_lattice", "lattice_occupancy", "stability_gap",
                 "euler_forward", "solve_drbsde_lsmc")


def bad_controls(kind, shape):
    """A mu of the given kind of fault for a route whose tables are ``shape``."""
    table = np.zeros(shape, dtype=np.int64)
    if kind == "fraction":
        return np.full(shape, 0.5)
    if kind in ("negative", "past the grid"):
        table[-1, -1] = -1 if kind == "negative" else 2
        return table
    return table[0] if kind == "wrong shape" else table[..., None]


class TestControlTables:
    """Node tables (n_steps, n_nodes) and path tables (n_paths, n_steps)
    follow one rule: the same bad controls raise the same ProblemError at
    every entry point that takes a table."""

    P = make_preset("uncertain-volatility", {})  # mu indexes a 2-point grid
    LAT = build_lattice(P, 16, -2.0, 2.0, 7)
    ENS = simulate_brownian(TimeGrid(0.0, 1.0, 4), 5, 1, seed=0)

    def call(self, entry, mu):
        """``entry`` called with ``mu``; returns nothing."""
        p, lat, ens = self.P, self.LAT, self.ENS
        if entry == "solve_drbsde_lattice":
            solve_drbsde_lattice(p, lat, mu=mu)
        elif entry == "lattice_occupancy":
            lattice_occupancy(lat, mu=mu, root_index=3)
        elif entry == "stability_gap":
            sol = solve_drbsde_lattice(p, lat)
            stability_gap(lat, p, sol, p, sol, mu=mu, root_index=3)
        elif entry == "euler_forward":
            euler_forward(p, ens, [0.0], mu, 0)
        else:
            solve_drbsde_lsmc(p, euler_forward(p, ens, [0.0], 0, 0), mu, 0)

    @pytest.mark.parametrize("entry,kind", [
        (entry, kind) for entry in TABLE_ENTRIES for kind in CONTROL_ERRORS])
    def test_same_bad_controls_same_error_everywhere(self, entry, kind):
        shape = (16, 7) if entry in TABLE_ENTRIES[:3] else (5, 4)
        with pytest.raises(ProblemError, match=CONTROL_ERRORS[kind]):
            self.call(entry, bad_controls(kind, shape))

    def test_one_index_is_a_read_only_zero_stride_table(self):
        for shape in ((16, 7), (5, 4)):
            mu, nu = _control_tables(self.P, 1, np.int32(0), shape)
            assert mu.shape == nu.shape == shape
            assert mu.strides == nu.strides == (0, 0)
            assert mu.dtype == nu.dtype == np.int64
            assert not mu.flags.writeable
            assert mu[0, 0] == 1 and nu[0, 0] == 0

    def test_a_constant_table_is_checked_in_constant_memory(self):
        tracemalloc.start()
        try:
            mu = constant_controls(100_000, 50)
            _control_tables(self.P, mu, mu, (100_000, 50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_a_constant_table_off_the_grid_is_rejected(self):
        for index in (-1, 2):
            with pytest.raises(ProblemError, match="out of range for its grid of 2"):
                euler_forward(self.P, self.ENS, [0.0], constant_controls(5, 4, index), 0)
