import itertools
import math

import numpy as np
import pytest

from cginvert import data_metrics, gcgls
from cginvert.covariance import CovarianceParam
from cginvert.errors import DataError, NonMonotoneCostError, NumericalError
from cginvert.gcgls import SolverConfig, diagnostics, initial_scale, solve
from cginvert.regularizer import ScaleRegularizer
from cginvert.scale_step import LinesearchConfig
from cginvert.sensing import SensingModel, build_radon, measure
from cginvert.tikhonov import NagdConfig


def normalized_instance(m, n, seed):
    rng = np.random.default_rng(seed)
    model = SensingModel(rng.standard_normal((m, n)) / math.sqrt(n))
    return model, rng


class TestInitialScale:
    def test_clamp_to_box(self):
        model, rng = normalized_instance(6, 9, 0)
        y = rng.standard_normal(6) * 100.0
        z0 = initial_scale(model, y, 10.0)
        assert np.all(z0 >= 0.0)
        assert np.all(z0 <= 10.0)
        raw = model.adjoint(y) / model.a_norm
        inside = (raw > 0) & (raw < 10.0)
        assert np.array_equal(z0[inside], raw[inside])


class TestSolve:
    def test_zero_measurements_give_zero(self):
        model, _ = normalized_instance(6, 9, 1)
        p = CovarianceParam.scaled_identity(9, 1.0)
        rep = solve(model, np.zeros(6), p, ScaleRegularizer.zero(),
                    SolverConfig(K=3, J=2))
        assert np.array_equal(rep.c_star, np.zeros(9))

    def test_noiseless_rowspace_target_recovered(self):
        # ground-truth synthesis oracle: a target in the row space of A is
        # recovered to a few percent under a weak Gaussian factor prior
        for seed in range(3):
            rng = np.random.default_rng(seed)
            model = SensingModel(rng.standard_normal((12, 16)) / 4.0)
            w = rng.standard_normal(12)
            c_true = model.adjoint(w)
            c_true /= np.linalg.norm(c_true) / 2.0
            y = model.apply(c_true)
            p = CovarianceParam.scaled_identity(16, 1000.0)
            r = ScaleRegularizer.log_squared(2.0)
            rep = solve(model, y, p, r,
                        SolverConfig(K=50, J=3, zstep_method="ista"))
            err = np.linalg.norm(rep.c_star - c_true) / np.linalg.norm(c_true)
            assert err < 0.05

    def test_trace_monotone_and_convergent(self):
        model, rng = normalized_instance(12, 16, 2)
        c = rng.standard_normal(16)
        y = measure(model, c, 60.0, seed=3)
        p = CovarianceParam.scaled_identity(16, 1.0)
        r = ScaleRegularizer.log_squared(0.5)
        rep = solve(model, y, p, r, SolverConfig(K=200, J=3, zstep_method="ista"))
        f = np.array([t.f_value for t in rep.state.trace])
        assert np.all(np.diff(f) <= 1e-10)
        spread = f[-10:].max() - f[-10:].min()
        assert spread < 1e-8 * abs(f[-1])

    def test_trace_row_count(self):
        model, rng = normalized_instance(6, 9, 4)
        y = rng.standard_normal(6)
        p = CovarianceParam.scaled_identity(9, 1.0)
        for K, J in ((1, 1), (3, 4), (4, 3)):
            rep = solve(model, y, p, ScaleRegularizer.zero(),
                        SolverConfig(K=K, J=J))
            assert len(rep.state.trace) == 1 + K * (J + 1)

    def test_structure_independence_of_descent(self):
        model, rng = normalized_instance(8, 12, 5)
        y = rng.standard_normal(8)
        p = CovarianceParam.scaled_identity(12, 1.0)
        r = ScaleRegularizer.log_squared(0.5)
        for K, J in ((3, 4), (4, 3)):
            rep = solve(model, y, p, r,
                        SolverConfig(K=K, J=J, zstep_method="ista"))
            f = np.array([t.f_value for t in rep.state.trace])
            assert np.all(np.diff(f) <= 1e-10)
            assert diagnostics(rep)["telescoping_holds"]

    def test_reproducibility_bitwise(self):
        model, rng = normalized_instance(8, 12, 6)
        y = rng.standard_normal(8)
        p = CovarianceParam.scaled_identity(12, 1.0)
        r = ScaleRegularizer.log_squared(0.7)
        cfg = SolverConfig(K=20, J=2, zstep_method="ista")
        rep1 = solve(model, y, p, r, cfg)
        rep2 = solve(model, y, p, r, cfg)
        assert np.array_equal(rep1.c_star, rep2.c_star)
        assert rep1.f_final == rep2.f_final
        for t1, t2 in zip(rep1.state.trace, rep2.state.trace):
            assert t1.f_value == t2.f_value

    def test_open_domain_lift_count(self):
        model, rng = normalized_instance(6, 9, 7)
        y = rng.standard_normal(6)
        p = CovarianceParam.scaled_identity(9, 1.0)
        r = ScaleRegularizer.log_squared(0.5)
        rep = solve(model, y, p, r, SolverConfig(K=2, J=1, zstep_method="ista"))
        raw = np.clip(model.adjoint(y) / model.a_norm, 0.0, 10.0)
        assert rep.z0_lifted == int((raw < r.floor).sum())
        assert rep.z0_lifted > 0  # random adjoint has negative entries

    def test_early_exit_on_tolerance(self):
        model, rng = normalized_instance(8, 12, 8)
        y = rng.standard_normal(8)
        p = CovarianceParam.scaled_identity(12, 1.0)
        r = ScaleRegularizer.log_squared(0.5)
        rep = solve(model, y, p, r,
                    SolverConfig(K=500, J=2, zstep_method="ista", stop_tol=1e-9))
        assert rep.stop_reason == "tolerance"
        assert rep.iterations < 500

    def test_nagd_mode_runs_and_descends(self):
        model, rng = normalized_instance(8, 16, 10)
        y = rng.standard_normal(8)
        p = CovarianceParam.scaled_identity(16, 0.5)
        r = ScaleRegularizer.log_squared(0.5)
        cfg = SolverConfig(K=10, J=2, zstep_method="ista",
                           tikhonov_mode="nagd", nagd=NagdConfig(steps=150))
        rep = solve(model, y, p, r, cfg)
        f = np.array([t.f_value for t in rep.state.trace])
        assert np.all(np.diff(f) <= 1e-10)

    def test_huge_fixed_step_raises_numerical_error(self):
        model, rng = normalized_instance(8, 12, 11)
        y = rng.standard_normal(8)
        p = CovarianceParam.scaled_identity(12, 1.0)
        cfg = SolverConfig(K=5, J=2, zstep_method="pgd",
                           linesearch=LinesearchConfig(mode="fixed", eta=500.0))
        with pytest.raises(NumericalError):
            solve(model, y, p, ScaleRegularizer.zero(), cfg)

    @pytest.mark.parametrize("method", ["pgd", "ista"])
    def test_unset_fixed_step_descends_on_the_paper_operator(self, method):
        # Radon 32x32/15 solves as the radon-* benchmark runs them, with the
        # 0.95/L step in place of backtracking: the power-iteration estimate
        # of ||A_u||^2 is a lower bound, so only this margin and the
        # monotonicity guard stand behind it
        model = build_radon(32, 15)
        ds = data_metrics.gen_dataset("synthetic", model, 60.0, 2, 1)
        cfg = SolverConfig(K=10, J=3, zstep_method=method,
                           linesearch=LinesearchConfig(mode="fixed"))
        for y, _ in ds.pairs:
            rep = solve(model, y, CovarianceParam.scaled_identity(model.n, 1.0),
                        ScaleRegularizer.log_squared(0.05), cfg)
            dec = [t.decrease for t in rep.state.trace if t.block == "z"]
            assert len(dec) == 30 and min(dec) > 0.0

    # cost calls: 0 is the initial point, 1..J the z steps, J+1 the u step
    @pytest.mark.parametrize("nan_call, block", [(1, "z step"), (3, "u step")])
    def test_nan_cost_raises_non_monotone(self, monkeypatch, nan_call, block):
        model, rng = normalized_instance(6, 9, 13)
        y = rng.standard_normal(6)
        p = CovarianceParam.scaled_identity(9, 1.0)
        calls = itertools.count()
        real_cost = gcgls.cost

        def cost_with_nan(*args):
            return math.nan if next(calls) == nan_call else real_cost(*args)

        monkeypatch.setattr(gcgls, "cost", cost_with_nan)
        with pytest.raises(NonMonotoneCostError, match=block):
            solve(model, y, p, ScaleRegularizer.zero(), SolverConfig(K=1, J=2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_y_raises_data_error(self, bad):
        model, rng = normalized_instance(6, 9, 14)
        y = rng.standard_normal(6)
        y[2] = bad
        p = CovarianceParam.scaled_identity(9, 1.0)
        with pytest.raises(DataError, match="non-finite"):
            solve(model, y, p, ScaleRegularizer.log_squared(1.0),
                  SolverConfig(K=1, J=1))

    def test_c_star_is_elementwise_product(self):
        model, rng = normalized_instance(6, 9, 12)
        y = rng.standard_normal(6)
        p = CovarianceParam.scaled_identity(9, 1.0)
        rep = solve(model, y, p, ScaleRegularizer.zero(), SolverConfig(K=3, J=2))
        assert np.array_equal(rep.c_star, rep.state.z * rep.state.u)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(K=0)
        with pytest.raises(ValueError):
            SolverConfig(b=0.0)
        with pytest.raises(ValueError):
            SolverConfig(zstep_method="bogus")


class TestWorkCounts:
    def test_applies_of_one_woodbury_solve(self, monkeypatch):
        # the residual A(z*u) - y of each new iterate is formed once and
        # serves both F and the next z-step: one apply per block (init,
        # each z-step, each u-update; the sparse Woodbury route itself runs
        # only adjoints), one per backtracking candidate, and one each for
        # the final grad_u and the stationarity probe
        model = build_radon(16, 5)
        assert model.m < model.n
        [(y, _)] = data_metrics.gen_dataset("synthetic", model, 60.0, 1, 1).pairs
        p = CovarianceParam.scaled_identity(model.n, 1.0)
        K, J = 3, 2
        applies, etas = [], []

        def counted(x, real=model.apply):
            applies.append(1)
            return real(x)

        def step(*args, real=gcgls.pgd_step):
            out = real(*args)
            etas.append(out[1])
            return out

        monkeypatch.setattr(model, "apply", counted)
        monkeypatch.setattr(gcgls, "pgd_step", step)
        rep = solve(model, y, p, ScaleRegularizer.log_squared(1.0),
                    SolverConfig(K=K, J=J))
        assert rep.iterations == K and len(etas) == K * J + 1
        # the last step is the probe, one fixed step of size 1
        candidates = [round(-math.log2(eta)) + 1 for eta in etas[:-1]]
        assert sum(candidates) > K * J  # the linesearch halved
        blocks = 1 + K * J + K
        assert len(applies) == blocks + sum(candidates) + 2


class TestDiagnostics:
    def make_report(self, K=5, J=3, seed=13):
        model, rng = normalized_instance(8, 12, seed)
        y = rng.standard_normal(8)
        p = CovarianceParam.scaled_identity(12, 1.0)
        r = ScaleRegularizer.log_squared(0.5)
        return solve(model, y, p, r,
                     SolverConfig(K=K, J=J, zstep_method="ista"))

    def test_record_counts(self):
        rep = self.make_report(K=1, J=4)
        d = diagnostics(rep)
        assert d["z_steps"] == 4
        assert d["u_steps"] == 1

    def test_telescoping_bound(self):
        rep = self.make_report(K=30, J=3)
        d = diagnostics(rep)
        assert d["telescoping_holds"]
        assert d["telescoping_lhs"] <= d["telescoping_rhs"] + 1e-8

    def test_margins_nonnegative(self):
        rep = self.make_report(K=30, J=3)
        d = diagnostics(rep)
        assert d["worst_margin"] >= -1e-10

    def test_tight_run_stationarity(self):
        model, rng = normalized_instance(12, 16, 14)
        c = rng.standard_normal(16)
        y = measure(model, c, 60.0, seed=1)
        p = CovarianceParam.scaled_identity(16, 1.0)
        r = ScaleRegularizer.log_squared(0.5)
        rep = solve(model, y, p, r, SolverConfig(K=300, J=3, zstep_method="ista"))
        d = diagnostics(rep)
        assert d["final_grad_u_norm"] < 1e-6 * (1.0 + abs(rep.f_final))
        assert d["final_z_residual_abs"] < 1e-6


class TestStateInvariants:
    def test_scales_stay_nonnegative_and_steps_vanish(self):
        model, rng = normalized_instance(12, 16, 15)
        c = rng.standard_normal(16)
        y = measure(model, c, 60.0, seed=2)
        p = CovarianceParam.scaled_identity(16, 1.0)
        r = ScaleRegularizer.log_squared(0.5)
        rep = solve(model, y, p, r, SolverConfig(K=300, J=3, zstep_method="ista"))
        assert np.all(rep.state.z >= 0.0)
        z_steps = [t for t in rep.state.trace if t.block == "z"]
        u_steps = [t for t in rep.state.trace if t.block == "u"]
        assert z_steps[-1].step_norm < 1e-6
        assert u_steps[-1].step_norm < 1e-6

    def test_cost_under_product_preserving_swap(self):
        # moving scale between the factors keeps the data term bit-identical
        # while the quadratic and regularizer terms follow their formulas
        from cginvert.regularizer import cost, data_misfit

        model, rng = normalized_instance(6, 9, 16)
        y = rng.standard_normal(6)
        u = rng.standard_normal(9)
        z = rng.uniform(0.5, 2.0, 9)
        p = CovarianceParam.scaled_identity(9, 1.0)
        r = ScaleRegularizer.log_squared(0.7)
        t = 1.7
        u2, z2 = u * t, z / t
        assert data_misfit(z2, u2, model, y) == pytest.approx(
            data_misfit(z, u, model, y), rel=1e-12)
        expect = (data_misfit(z2, u2, model, y) + 0.5 * p.quad_inv(u2)
                  + r.value(z2))
        assert cost(u2, z2, model, y, p, r) == pytest.approx(expect, rel=1e-14)
