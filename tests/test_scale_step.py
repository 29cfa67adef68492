import math

import numpy as np
import pytest

from cginvert.covariance import CovarianceParam
from cginvert.errors import LinesearchFailure
from cginvert.regularizer import ScaleRegularizer, data_misfit
from cginvert.scale_step import (
    LinesearchConfig,
    ista_step,
    pgd_step,
    stationarity_residual,
)
from cginvert.sensing import SensingModel


def make_instance(m, n, seed):
    rng = np.random.default_rng(seed)
    model = SensingModel(rng.standard_normal((m, n)) / math.sqrt(n))
    y = rng.standard_normal(m)
    u = rng.standard_normal(n)
    z = rng.uniform(0.3, 2.0, n)
    return model, y, u, z


def hessian_norm_along_segment(z_a, z_b, u, model, r, samples=80):
    """Oracle Lipschitz constant: max spectral norm of the z-Hessian of
    the smooth objective sampled densely on [z_a, z_b]."""
    au = model.dense_a() * u[None, :]
    base = au.T @ au
    worst = 0.0
    for t in np.linspace(0.0, 1.0, samples):
        z = (1 - t) * z_a + t * z_b
        h = base.copy()
        if r.kind == "logsq":
            h += np.diag(2.0 * r.mu * (1.0 - np.log(z)) / (z * z))
        worst = max(worst, float(np.linalg.norm(h, 2)))
    return worst


def objective(z, u, model, y, r):
    return data_misfit(z, u, model, y) + r.value(z)


class TestPgdStep:
    def test_stationary_point_is_fixed(self):
        # u = 0 kills the data term; with the zero regularizer every
        # interior point is stationary
        model, y, _, z = make_instance(4, 6, 0)
        r = ScaleRegularizer.zero()
        z_new, _ = pgd_step(z, np.zeros(6), model, y, r,
                            LinesearchConfig(mode="fixed", eta=0.5))
        assert np.array_equal(z_new, z)

    def test_projection_clamps_to_floor(self):
        model, y, u, z = make_instance(4, 6, 1)
        r = ScaleRegularizer.log_squared(1.0)
        # a huge step drives entries with positive gradient negative
        ls = LinesearchConfig(mode="fixed", eta=1e6)
        z_new, _ = pgd_step(z, u, model, y, r, ls)
        assert np.all(z_new >= r.floor)
        assert np.any(z_new == r.floor)

    def test_fixed_step_descent_bound_with_hessian_oracle(self):
        # Lemma-style bound: decrease >= (1/eta - L/2) ||dz||^2 with the
        # oracle L over the step segment
        for seed in range(20):
            model, y, u, z = make_instance(5, 8, 40 + seed)
            r = ScaleRegularizer.log_squared(0.5)
            probe, _ = pgd_step(z, u, model, y, r,
                                LinesearchConfig(mode="fixed", eta=1e-3))
            lip = 1.2 * hessian_norm_along_segment(z, probe, u, model, r)
            eta = 1.0 / lip
            z_new, _ = pgd_step(z, u, model, y, r,
                                LinesearchConfig(mode="fixed", eta=eta))
            lip_seg = 1.2 * hessian_norm_along_segment(z, z_new, u, model, r)
            eta = 1.0 / lip_seg
            z_new, used = pgd_step(z, u, model, y, r,
                                   LinesearchConfig(mode="fixed", eta=eta))
            decrease = objective(z, u, model, y, r) - objective(z_new, u, model, y, r)
            c = 1.0 / used - lip_seg / 2.0
            assert decrease >= c * float((z_new - z) @ (z_new - z)) - 1e-10

    def test_backtracking_sufficient_decrease_margin(self):
        ls = LinesearchConfig(mode="backtrack", alpha=0.3)
        for seed in range(50):
            model, y, u, z = make_instance(5, 8, 80 + seed)
            r = ScaleRegularizer.log_squared(0.5)
            z_new, eta = pgd_step(z, u, model, y, r, ls)
            assert eta <= 1.0
            assert eta >= ls.eta_init * ls.shrink ** ls.max_halvings
            decrease = objective(z, u, model, y, r) - objective(z_new, u, model, y, r)
            assert decrease >= ls.alpha * float((z_new - z) @ (z_new - z)) - 1e-10

    def test_linesearch_failure_from_stiff_floor_start(self):
        # starting at the domain floor, the log-squared curvature needs more
        # halvings than allowed
        model, y, u, _ = make_instance(5, 8, 3)
        r = ScaleRegularizer.log_squared(5.0)
        z = np.full(8, r.floor)
        with pytest.raises(LinesearchFailure):
            pgd_step(z, u, model, y, r, LinesearchConfig(mode="backtrack"))


class TestIstaStep:
    def test_zero_reg_reduces_to_clamped_gradient_step(self):
        model, y, u, z = make_instance(5, 8, 4)
        r = ScaleRegularizer.zero()
        eta = 0.3
        z_new, _ = ista_step(z, u, model, y, r,
                             LinesearchConfig(mode="fixed", eta=eta))
        grad = u * model.adjoint(model.apply(u * z) - y)
        expect = np.maximum(z - eta * grad, 0.0)
        assert np.array_equal(z_new, expect)

    def test_fixed_step_descent_bound(self):
        # convex regularizer: full 1/(2 eta) decrease at eta <= 1/L
        for seed in range(25):
            model, y, u, z = make_instance(5, 8, 120 + seed)
            r = ScaleRegularizer.zero()
            au = model.dense_a() * u[None, :]
            lip = float(np.linalg.norm(au.T @ au, 2))
            eta = 1.0 / lip
            z_new, used = ista_step(z, u, model, y, r,
                                    LinesearchConfig(mode="fixed", eta=eta))
            decrease = objective(z, u, model, y, r) - objective(z_new, u, model, y, r)
            assert decrease >= float((z_new - z) @ (z_new - z)) / (2 * used) - 1e-10

    def test_backtracking_margin(self):
        ls = LinesearchConfig(mode="backtrack", alpha=0.3)
        for seed in range(50):
            model, y, u, z = make_instance(5, 8, 200 + seed)
            r = ScaleRegularizer.log_squared(0.4)
            z_new, eta = ista_step(z, u, model, y, r, ls)
            assert eta <= 1.0
            decrease = objective(z, u, model, y, r) - objective(z_new, u, model, y, r)
            # prox optimality plus the accepted smooth-term test give at
            # least a nonnegative decrease for any regularizer
            assert decrease >= -1e-10

    def test_prox_fixed_point_reapplies(self):
        model, y, u, z = make_instance(5, 8, 5)
        r = ScaleRegularizer.log_squared(0.5)
        ls = LinesearchConfig(mode="backtrack")
        for _ in range(4000):
            z, _ = ista_step(z, u, model, y, r, ls)
        z_again, _ = ista_step(z, u, model, y, r, ls)
        assert np.linalg.norm(z_again - z) < 1e-8

    def test_matches_pgd_for_zero_reg(self):
        model, y, u, z = make_instance(5, 8, 6)
        r = ScaleRegularizer.zero()
        ls = LinesearchConfig(mode="fixed", eta=0.25)
        zp, zi = z.copy(), z.copy()
        for _ in range(20):
            zp, _ = pgd_step(zp, u, model, y, r, ls)
            zi, _ = ista_step(zi, u, model, y, r, ls)
        assert np.array_equal(zp, zi)


class TestHandedInResidual:
    """A step handed the residual A(u*z) - y at z returns the bits it
    returns without it, one apply fewer."""

    @pytest.mark.parametrize("step", [pgd_step, ista_step])
    @pytest.mark.parametrize("mode", ["fixed", "backtrack"])
    def test_same_step_one_apply_fewer(self, step, mode, monkeypatch):
        model, y, u, z = make_instance(8, 12, 9)
        r = ScaleRegularizer.log_squared(0.5)
        ls = LinesearchConfig(mode=mode)
        calls = []

        def counted(x, real=model.apply):
            calls.append(1)
            return real(x)

        res = model.apply(u * z) - y
        monkeypatch.setattr(model, "apply", counted)
        z_new, eta = step(z, u, model, y, r, ls)
        without = len(calls)
        z_res, eta_res = step(z, u, model, y, r, ls, res)
        assert z_res.tobytes() == z_new.tobytes() and eta_res == eta
        assert len(calls) - without == without - 1
        if mode == "backtrack":
            assert eta < ls.eta_init  # the linesearch halved


class TestStationarityResidual:
    def test_converged_iterate_is_stationary(self):
        model, y, u, z = make_instance(5, 8, 7)
        r = ScaleRegularizer.log_squared(0.5)
        ls = LinesearchConfig(mode="backtrack")
        for _ in range(6000):
            z, _ = ista_step(z, u, model, y, r, ls)
        res = stationarity_residual(z, u, model, y, r, 1.0, ista_step)
        assert res.absolute < 1e-6

    def test_generic_point_is_not_stationary(self):
        model, y, u, z = make_instance(5, 8, 8)
        r = ScaleRegularizer.log_squared(0.5)
        res = stationarity_residual(z, u, model, y, r, 0.5, pgd_step)
        assert res.absolute > 0.0
        assert res.relative == pytest.approx(
            res.absolute / np.max(np.abs(z)), rel=1e-12)

    def test_probe_validation(self):
        model, y, u, z = make_instance(4, 6, 9)
        with pytest.raises(ValueError):
            stationarity_residual(z, u, model, y, ScaleRegularizer.zero(), 0.0,
                                  pgd_step)


class TestConfigValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            LinesearchConfig(alpha=0.6)
        with pytest.raises(ValueError):
            LinesearchConfig(alpha=0.0)

    def test_eta_init_and_shrink(self):
        with pytest.raises(ValueError):
            LinesearchConfig(mode="bogus")
