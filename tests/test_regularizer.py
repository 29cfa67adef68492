import math

import numpy as np
import pytest

from cginvert import regularizer
from cginvert.covariance import CovarianceParam
from cginvert.errors import DomainError
from cginvert.regularizer import (
    ScaleRegularizer,
    cost,
    data_misfit,
    map_equivalence_check,
)
from cginvert.scale_step import LinesearchConfig, ista_step
from cginvert.sensing import SensingModel, build_gaussian


def make_instance(m, n, seed):
    rng = np.random.default_rng(seed)
    model = SensingModel(rng.standard_normal((m, n)) / math.sqrt(n))
    y = rng.standard_normal(m)
    u = rng.standard_normal(n)
    z = rng.uniform(0.2, 2.0, n)
    return model, y, u, z


class TestCost:
    def test_zero_u_zero_reg_gives_half_y_norm(self):
        model, y, _, z = make_instance(5, 8, 0)
        p = CovarianceParam.scaled_identity(8, 1.0)
        f = cost(np.zeros(8), z, model, y, p, ScaleRegularizer.zero())
        assert f == pytest.approx(0.5 * float(y @ y), rel=1e-14)

    def test_exact_fit_with_weak_prior_is_near_zero(self):
        model, _, u, z = make_instance(5, 8, 1)
        y = model.apply(z * u)
        p = CovarianceParam.scaled_identity(8, 1e12)
        f = cost(u, z, model, y, p, ScaleRegularizer.zero())
        assert f < 1e-9

    def test_matches_scalar_loop_oracle(self):
        model, y, u, z = make_instance(4, 6, 2)
        p = CovarianceParam.diagonal(6, np.array([0.5, 1, 2, 3, 0.7, 1.3]))
        r = ScaleRegularizer.log_squared(0.8)
        # independent term-by-term evaluation with explicit loops
        a = model.dense_a()
        acc = 0.0
        for i in range(4):
            row = sum(a[i, k] * z[k] * u[k] for k in range(6))
            acc += 0.5 * (y[i] - row) ** 2
        pdiag = np.maximum(p.arrays["cov.diag"], p.eps)
        acc += sum(0.5 * u[k] ** 2 / pdiag[k] for k in range(6))
        acc += sum(0.8 * math.log(z[k]) ** 2 for k in range(6))
        assert cost(u, z, model, y, p, r) == pytest.approx(acc, rel=1e-12)

    def test_handed_in_residual_gives_the_same_bits(self, monkeypatch):
        model, y, u, z = make_instance(4, 6, 4)
        p = CovarianceParam.scaled_identity(6, 0.7)
        r = ScaleRegularizer.log_squared(0.8)
        f = cost(u, z, model, y, p, r)
        res = model.apply(z * u) - y
        monkeypatch.setattr(model, "apply", None)  # not formed again
        assert cost(u, z, model, y, p, r, res) == f

    def test_domain_error_outside_open_orthant(self):
        model, y, u, z = make_instance(4, 6, 3)
        p = CovarianceParam.scaled_identity(6, 1.0)
        z = z.copy()
        z[2] = 0.0
        with pytest.raises(DomainError):
            cost(u, z, model, y, p, ScaleRegularizer.log_squared(1.0))


class TestDataFitGradient:
    """The data-term gradient A_u^T (A_u z - y) that the z-steps descend
    along, read from one fixed proximal step on the zero regularizer:
    z' = max(z - eta * grad, 0), and z - eta * grad stays positive here."""

    @staticmethod
    def step(z, u, model, y, eta):
        return ista_step(z, u, model, y, ScaleRegularizer.zero(),
                         LinesearchConfig(mode="fixed", eta=eta))[0]

    def test_zero_u_gives_zero(self):
        model, y, _, z = make_instance(5, 8, 4)
        assert np.array_equal(self.step(z, np.zeros(8), model, y, 0.5), z)

    def test_finite_differences(self):
        model, y, u, z = make_instance(4, 5, 5)
        eta = 1e-3
        g = (z - self.step(z, u, model, y, eta)) / eta
        h = 1e-6
        for k in range(5):
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            num = (data_misfit(zp, u, model, y) - data_misfit(zm, u, model, y)) / (2 * h)
            assert abs(num - g[k]) <= 1e-6 * max(abs(num), 1.0)

    def test_zero_residual_gives_zero(self):
        model, _, u, z = make_instance(4, 5, 6)
        y = model.apply(u * z)
        assert np.array_equal(self.step(z, u, model, y, 0.5), z)


class TestLogSquared:
    def test_value_and_gradient_at_ones(self):
        r = ScaleRegularizer.log_squared(1.0)
        z = np.ones(4)
        assert r.value(z) == 0.0
        assert np.all(r.grad(z) == 0.0)

    def test_analytic_point(self):
        r = ScaleRegularizer.log_squared(1.0)
        z = np.array([math.e, 1.0, 1.0])
        assert r.value(z) == pytest.approx(1.0, rel=1e-14)
        assert r.grad(z) == pytest.approx([2.0 / math.e, 0.0, 0.0], rel=1e-14)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(7)
        r = ScaleRegularizer.log_squared(0.6)
        h = 1e-7
        for _ in range(100):
            z = rng.uniform(0.05, 5.0, 6)
            g = r.grad(z)
            for k in range(6):
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                num = (r.value(zp) - r.value(zm)) / (2 * h)
                assert abs(num - g[k]) <= 1e-6 * max(abs(num), 1.0)

    def test_domain_error(self):
        r = ScaleRegularizer.log_squared(1.0)
        with pytest.raises(DomainError):
            r.value(np.array([1.0, -0.5]))

    def test_coercivity_probe(self):
        mu = 0.7
        r = ScaleRegularizer.log_squared(mu)
        z_far = np.ones(4)
        z_far[1] = 1e6
        assert r.value(z_far) > r.value(np.ones(4)) + 10.0 * mu

    def test_bounded_below_sampling(self):
        rng = np.random.default_rng(8)
        r = ScaleRegularizer.log_squared(1.0)
        vals = [r.value(np.exp(rng.uniform(-8, 8, 5))) for _ in range(200)]
        assert min(vals) >= 0.0

    def test_curvature_bound_matches_grid_oracle(self):
        # at z = 10 the peak e^{3/2} lies inside (10/3, 30) above both end
        # values; at the floor both interval ends are clipped to it
        mu = 0.7
        r = ScaleRegularizer.log_squared(mu)
        rng = np.random.default_rng(9)
        for z in ([10.0], [r.floor], np.exp(rng.uniform(-6.0, 6.0, 5))):
            z = np.maximum(np.asarray(z), r.floor)
            t = np.geomspace(np.maximum(z / 3.0, r.floor), 3.0 * z, 200001)
            oracle = float((2.0 * mu * np.abs(1.0 - np.log(t)) / (t * t)).max())
            bound = r.curvature_bound(z)
            assert oracle * (1.0 - 1e-14) <= bound <= oracle * (1.0 + 1e-8), z


class CountingNumpy:
    """numpy whose log records the size of each call: each Newton pass of
    the prox takes one log of the coordinates it evaluates."""

    def __init__(self):
        self.logs = []

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x):
        self.logs.append(np.size(x))
        return np.log(x)


class TestProx:
    def test_fixed_point_at_one(self):
        r = ScaleRegularizer.log_squared(1.0)
        out = r.prox(np.ones(3), 0.5)
        assert out == pytest.approx(np.ones(3), abs=1e-12)

    def test_small_eta_limit(self):
        r = ScaleRegularizer.log_squared(1.0)
        v = np.array([0.1, 0.7, 2.0, 5.0])
        out = r.prox(v, 1e-10)
        assert out == pytest.approx(np.maximum(v, r.floor), rel=1e-6)

    def test_grid_search_oracle(self):
        rng = np.random.default_rng(9)
        mu, eta = 1.0, 0.3
        r = ScaleRegularizer.log_squared(mu)
        v = rng.uniform(0.1, 5.0, 5)
        out = r.prox(v, eta)
        grid = np.arange(1e-4, 8.0, 1e-4)
        lg2 = np.log(grid) ** 2
        for k in range(5):
            obj = 0.5 * (grid - v[k]) ** 2 + eta * mu * lg2
            best = grid[np.argmin(obj)]
            assert abs(out[k] - best) < 1e-3

    @staticmethod
    def assert_global_minimizer(out, v, a):
        """out matches the argmin of 0.5*(t - v)^2 + a*log(t)^2 on a fine grid."""
        grid = np.arange(1e-4, v.max() + 2.0, 1e-4)
        lg2 = np.log(grid) ** 2
        for k in range(v.size):
            obj = 0.5 * (grid - v[k]) ** 2 + a * lg2
            best = np.argmin(obj)
            assert abs(out[k] - grid[best]) < 1e-3
            f_out = 0.5 * (out[k] - v[k]) ** 2 + a * math.log(out[k]) ** 2
            assert f_out <= obj[best] + 1e-12

    def test_bimodal_grid_branch_oracle(self):
        # a = 40 > e^3: three stationary points for v in about (28.4, 32.3),
        # so picking the root nearest v can land in the wrong basin
        mu, eta = 1.0, 40.0
        v = np.array([0.5, 5.0, 20.0, 28.0, 29.0, 30.0, 31.0, 32.0, 33.0, 45.0])
        out = ScaleRegularizer.log_squared(mu).prox(v, eta)
        self.assert_global_minimizer(out, v, eta * mu)

    def test_nearly_flat_convex_branch_oracle(self):
        # a = 20 just below e^3: g' = 1 - a/e^3 ~ 4e-3 at t = e^{3/2}, the
        # root for v = e^{3/2} + 2a*3/2/e^{3/2} ~ 17.87
        a = 20.0
        t0 = math.exp(1.5)
        v = np.concatenate([t0 + np.linspace(-2.0, 2.0, 5),
                            t0 + 3.0 * a / t0 + np.linspace(-3.0, 3.0, 7)])
        out = ScaleRegularizer.log_squared(1.0).prox(v, a)
        self.assert_global_minimizer(out, v, a)

    @pytest.mark.parametrize("a", [1e-8, 1e-4, 0.05, 5.0])
    def test_fixed_points_next_to_hard_coordinates(self, a):
        r = ScaleRegularizer.log_squared(1.0)
        v = np.array([1.0, -3.0, 1.0, 0.0, 1.0, 50.0, 1.0, 80.0, 1.0, -0.5])
        out = r.prox(v, a)
        fixed = v == 1.0
        assert np.all(out[fixed] == 1.0)
        resid = (out - v) + a * r.grad(out)
        assert np.abs(resid[~fixed]).max() < 1e-12
        assert np.all(out > 0.0)

    def test_converged_coordinates_are_not_revisited(self, monkeypatch):
        counting = CountingNumpy()
        monkeypatch.setattr(regularizer, "np", counting)
        hard = np.array([-3.0, 0.0, 50.0, 80.0, -0.5])
        v = np.concatenate([np.ones(1000), hard])
        out = ScaleRegularizer.log_squared(1.0).prox(v, 0.05)
        assert np.all(out[:1000] == 1.0)
        assert sum(counting.logs) <= v.size + 100 * hard.size

    def test_non_positive_v_converges_in_few_passes(self, monkeypatch):
        # v <= 0 steps in log t from a small-t estimate of the root; from
        # the 1e-10 bracket end, Newton in t took 26-43 passes here
        v = np.linspace(-5.0, 0.0, 11)
        for a in np.geomspace(1e-8, 20.0, 8):
            counting = CountingNumpy()
            monkeypatch.setattr(regularizer, "np", counting)
            out = ScaleRegularizer.log_squared(1.0).prox(v, a)
            self.assert_global_minimizer(out, v, a)
            assert np.abs(out - v + 2.0 * a * np.log(out) / out).max() < 1e-13
            assert len(counting.logs) <= 8, (a, counting.logs)

    def test_first_order_condition(self):
        rng = np.random.default_rng(10)
        r = ScaleRegularizer.log_squared(0.8)
        for _ in range(100):
            v = rng.uniform(-1.0, 5.0, 4)
            eta = rng.uniform(0.01, 1.0)
            out = r.prox(v, eta)
            resid = (out - v) + eta * r.grad(out)
            assert np.abs(resid).max() < 1e-10
            assert np.all(out > 0.0)

    def test_zero_reg_prox_is_domain_projection(self):
        r = ScaleRegularizer.zero()
        v = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(r.prox(v, 0.7), np.array([0.0, 0.0, 2.0]))

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            ScaleRegularizer.log_squared(1.0).prox(np.ones(2), 0.0)


class TestMapEquivalence:
    def grids(self):
        return np.linspace(-2.0, 2.0, 41), np.geomspace(0.05, 5.0, 41)

    def test_matched_lognormal_agrees(self):
        rng = np.random.default_rng(11)
        model = SensingModel(np.array([[1.0]]))
        y = np.array([0.8])
        p = CovarianceParam.scaled_identity(1, 1.0)
        u_grid, z_grid = self.grids()
        rep = map_equivalence_check(model, y, p,
                                    ScaleRegularizer.log_squared(1.0),
                                    u_grid, z_grid, sigma=1.0)
        assert rep.agree
        assert not rep.boundary_warning

    def test_zero_reg_flat_prior_agrees(self):
        model = SensingModel(np.array([[1.0]]))
        y = np.array([0.5])
        p = CovarianceParam.scaled_identity(1, 2.0)
        u_grid, z_grid = self.grids()
        rep = map_equivalence_check(model, y, p, ScaleRegularizer.zero(),
                                    u_grid, z_grid, sigma=1.0)
        assert rep.agree

    def test_monotone_transform_keeps_argmax(self):
        model = SensingModel(np.array([[1.0]]))
        y = np.array([0.8])
        p = CovarianceParam.scaled_identity(1, 1.0)
        u_grid, z_grid = self.grids()
        rep = map_equivalence_check(model, y, p,
                                    ScaleRegularizer.log_squared(0.5),
                                    u_grid, z_grid, sigma=1.0)
        scaled = 3.7 * rep.log_posterior  # rescaled log density
        amax = np.unravel_index(np.argmax(scaled), scaled.shape)
        assert tuple(amax) == rep.posterior_argmax

    def test_rejects_large_instances(self):
        model = build_gaussian(3, 4, seed=0)
        with pytest.raises(ValueError):
            map_equivalence_check(model, np.zeros(3),
                                  CovarianceParam.scaled_identity(4, 1.0),
                                  ScaleRegularizer.zero(),
                                  np.linspace(-1, 1, 3), np.linspace(0.1, 1, 3))


class TestBoundaryWarning:
    def test_boundary_argmin_sets_flag(self):
        model = SensingModel(np.array([[1.0]]))
        y = np.array([5.0])  # optimum beyond the tiny grid
        p = CovarianceParam.scaled_identity(1, 1.0)
        rep = map_equivalence_check(
            model, y, p, ScaleRegularizer.zero(),
            np.linspace(-0.2, 0.2, 5), np.linspace(0.5, 1.0, 5), sigma=1.0)
        assert rep.boundary_warning
