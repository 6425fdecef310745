import numpy as np
import pytest
from scipy.special import binom

from drgame import SpdError, check_spd, random_spd, spd_sqrt_series, sqrt_coefficient
from drgame.linalg import _stops


class TestCoefficients:
    def test_first_three_values(self):
        assert sqrt_coefficient(1) == -0.5
        assert abs(sqrt_coefficient(2) - (-0.125)) < 1e-16
        assert abs(sqrt_coefficient(3) - (-0.0625)) < 1e-16

    def test_matches_taylor_expansion_of_sqrt_one_minus_x(self):
        # independent oracle: (-1)^j * binom(1/2, j) is the j-th Maclaurin
        # coefficient of sqrt(1 - x)
        for j in range(1, 11):
            oracle = (-1.0) ** j * binom(0.5, j)
            assert abs(sqrt_coefficient(j) - oracle) <= 1e-15

    def test_partial_sums_converge_to_scalar_sqrt(self):
        x = 0.64
        acc = 1.0
        for j in range(1, 200):
            acc += sqrt_coefficient(j) * x ** j
        assert abs(acc - np.sqrt(1.0 - x)) < 1e-12

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            sqrt_coefficient(0)


class TestSpdSqrt:
    def test_identity(self):
        r = spd_sqrt_series(np.eye(2))
        assert np.allclose(r, np.eye(2), atol=1e-14)

    def test_diagonal(self):
        r = spd_sqrt_series(np.diag([4.0, 1.0]))
        assert np.allclose(r, np.diag([2.0, 1.0]), atol=1e-8)

    def test_random_spd_corpus(self):
        rng = np.random.default_rng(99)
        for trial in range(100):
            d = 1 + trial % 4
            cond = float(10.0 ** rng.uniform(0.0, 2.0))
            g = random_spd(rng, d, cond)
            r = spd_sqrt_series(g)
            resid = np.linalg.norm(r @ r - g) / np.linalg.norm(g)
            assert resid <= 1e-8, f"trial {trial}: residual {resid}"

    def test_result_is_spd(self):
        rng = np.random.default_rng(5)
        g = random_spd(rng, 4, 50.0)
        r = spd_sqrt_series(g)
        assert np.allclose(r, r.T)
        assert np.min(np.linalg.eigvalsh(r)) > 0

    def test_scaling_covariance(self):
        rng = np.random.default_rng(6)
        g = random_spd(rng, 3, 10.0)
        a = spd_sqrt_series(4.0 * g)
        b = 2.0 * spd_sqrt_series(g)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(SpdError, match="symmetric"):
            spd_sqrt_series(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(SpdError, match="definite"):
            spd_sqrt_series(np.diag([1.0, -1.0]))

    def test_singular_rejected(self):
        with pytest.raises(SpdError):
            spd_sqrt_series(np.diag([1.0, 0.0]))

    def test_budget_exhaustion_reports_residual(self):
        g = np.diag([1.0, 1e-6])  # condition 1e6: far past the default budget
        with pytest.raises(SpdError, match="did not converge"):
            spd_sqrt_series(g, n_terms=50)

    def test_check_spd_accepts_valid(self):
        sym = check_spd(np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert np.allclose(sym, sym.T)


def reference_sqrt(g, n_terms=5000, tol=1e-14):
    """The series root of one matrix, term by term, and the number of terms
    it took: the bits a stack member must reproduce.  (None, n_terms) when
    the budget runs out."""
    g = check_spd(g)
    nrm = float(np.linalg.norm(g))
    m = np.eye(len(g)) - g / nrm
    q, power, c = np.eye(len(g)), np.eye(len(g)), 1.0
    for j in range(1, n_terms + 1):
        c = -0.5 if j == 1 else c * ((2 * (j - 1) - 1) / (2.0 * j))
        power = power @ m
        term = c * power
        q += term
        if float(np.linalg.norm(term)) < tol:
            r = q * np.sqrt(nrm)
            return check_spd(0.5 * (r + r.T)), j
    return None, n_terms


class TestSpdSqrtStack:
    @staticmethod
    def corpus(d, n, seed):
        rng = np.random.default_rng(seed)
        conds = np.geomspace(1.0, 150.0, n)  # spread, so the stopping terms differ
        return np.array([random_spd(rng, d, float(c), scale=float(10.0 ** rng.uniform(-1, 1)))
                         for c in conds])

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stack_matches_one_by_one_bit_for_bit(self, d):
        mats = self.corpus(d, 12, 40 + d)
        stacked = spd_sqrt_series(mats)
        assert stacked.shape == mats.shape
        for g, r in zip(mats, stacked):
            one = spd_sqrt_series(g)
            assert one.shape == g.shape
            assert one.tobytes() == r.tobytes() == reference_sqrt(g)[0].tobytes()

    def test_two_dim_input_matches_the_term_by_term_loop(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 3, 4):
            g = random_spd(rng, d, 60.0)
            assert spd_sqrt_series(g).tobytes() == reference_sqrt(g)[0].tobytes()
            assert spd_sqrt_series(g, n_terms=3000, tol=1e-9).tobytes() \
                == reference_sqrt(g, n_terms=3000, tol=1e-9)[0].tobytes()

    def test_stopping_terms_differ_across_the_stack(self):
        # the members need different numbers of terms, so the stack shrinks
        mats = self.corpus(3, 12, 43)
        needed = [reference_sqrt(g)[1] for g in mats]
        assert len(set(needed)) == len(mats)

    def test_one_member_out_of_budget_raises_with_its_index(self):
        mats = self.corpus(2, 5, 9)
        mats[3] = np.diag([1.0, 1e-6])
        with pytest.raises(SpdError, match=r"did not converge within 5000 terms .*matrix 3 of the stack"):
            spd_sqrt_series(mats)
        assert reference_sqrt(mats[3])[0] is None

    def test_empty_stack(self):
        assert spd_sqrt_series(np.empty((0, 3, 3))).shape == (0, 3, 3)

    def test_stop_test_near_tol_is_the_norm_itself(self):
        # sums of squares that round to the other side of tol are overruled
        tol = 1e-14
        term = np.array([[[tol * (1 - 1e-13), 0.0], [0.0, 0.0]],
                         [[tol * (1 + 1e-13), 0.0], [0.0, 0.0]],
                         [[tol * 0.5, 0.0], [0.0, 0.0]]])
        off = np.array([(tol * (1 + 1e-12)) ** 2, (tol * (1 - 1e-12)) ** 2, (tol * 0.5) ** 2])
        assert _stops(term, off, tol).tolist() == [True, False, True]
