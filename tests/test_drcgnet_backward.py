import math

import numpy as np
import pytest

from cginvert.drcgnet import NetConfig, backward, forward, init_params
from cginvert.sensing import SensingModel, build_radon, measure


def fd_instance(seed=5, n=16, m=10):
    rng = np.random.default_rng(seed)
    model = SensingModel(rng.standard_normal((m, n)) / math.sqrt(n))
    c = np.abs(rng.standard_normal(n))
    y = measure(model, c, 40.0, seed=2).y
    return model, y, rng


def check_gradients(model, y, cfg, rng, h=1e-5, tol=1e-4, sample=12):
    """Central finite differences of <w, forward(y)> against backward."""
    params = init_params(cfg, model.n, seed=7, cov_init=0.5)
    w = rng.standard_normal(model.n)
    _, tape = forward(y, model, params)
    grads = backward(tape, w, params)

    def phi():
        out, _ = forward(y, model, params, want_tape=False)
        return float(w @ out)

    worst = 0.0
    for key, arr in params.values.items():
        flat = arr.reshape(-1) if arr.ndim else None
        if arr.size <= 16:
            idxs = range(arr.size)
        else:
            idxs = rng.choice(arr.size, sample, replace=False)
        for i in idxs:
            if arr.ndim == 0:
                orig = float(arr)
                arr[...] = orig + h
                fp = phi()
                arr[...] = orig - h
                fm = phi()
                arr[...] = orig
                ana = float(grads[key])
            else:
                orig = flat[i]
                flat[i] = orig + h
                fp = phi()
                flat[i] = orig - h
                fm = phi()
                flat[i] = orig
                ana = grads[key].reshape(-1)[i]
            num = (fp - fm) / (2.0 * h)
            rel = abs(num - ana) / max(abs(num), abs(ana), 1e-6)
            worst = max(worst, rel)
            assert rel < tol, f"{key}[{i}]: fd {num} vs backward {ana}"
    return worst


class TestFiniteDifferences:
    @pytest.mark.parametrize("variant", ["pgd", "ista"])
    @pytest.mark.parametrize("u_mode", ["exact", "nagd"])
    def test_all_parameter_classes(self, variant, u_mode):
        model, y, rng = fd_instance()
        cfg = NetConfig(K=2, J=2, depth=2, kernel=3, channels=(4, 1),
                        variant=variant, cov_kind="scaled_identity",
                        gamma_max=1e6, u_mode=u_mode, nagd_steps=8,
                        nagd_eta=0.05 if u_mode == "nagd" else None,
                        refine=True)
        check_gradients(model, y, cfg, rng)

    @pytest.mark.parametrize("cov", ["diagonal", "tridiagonal", "full"])
    def test_structured_covariances(self, cov):
        model, y, rng = fd_instance(seed=6)
        cfg = NetConfig(K=1, J=2, depth=2, kernel=3, channels=(3, 1),
                        variant="ista", cov_kind=cov, gamma_max=1e6,
                        refine=True)
        check_gradients(model, y, cfg, rng, sample=8)

    def test_direct_route(self):
        # m=20 > n=16: the exact u-update solves the n x n system
        model, y, rng = fd_instance(m=20)
        cfg = NetConfig(K=1, J=2, depth=2, kernel=3, channels=(3, 1),
                        variant="ista", cov_kind="scaled_identity",
                        gamma_max=1e6, refine=True)
        check_gradients(model, y, cfg, rng, sample=8)

    def test_sparse_radon_route(self):
        # m=27 < n=36 with sparse Psi and a diagonal P: the Woodbury system
        # is formed from the sparse Psi
        model = build_radon(6, 3)
        rng = np.random.default_rng(12)
        y = measure(model, rng.uniform(0.0, 1.0, model.n), 40.0, seed=2).y
        cfg = NetConfig(K=1, J=2, depth=2, kernel=3, channels=(3, 1),
                        variant="pgd", cov_kind="diagonal", gamma_max=1e6,
                        refine=True)
        check_gradients(model, y, cfg, rng, sample=8)
        assert model._dense_a is None

    def test_active_step_clamp(self):
        # gamma small enough that the normalized-step branch is active
        model, y, rng = fd_instance(seed=8)
        cfg = NetConfig(K=1, J=2, depth=2, kernel=3, channels=(3, 1),
                        variant="pgd", cov_kind="scaled_identity",
                        gamma_max=1e-3, refine=False)
        check_gradients(model, y, cfg, rng, sample=8)


class TestBackwardStructure:
    def test_zero_upstream_gives_zero_gradients(self):
        model, y, rng = fd_instance(seed=9)
        cfg = NetConfig(K=2, J=2, depth=2, kernel=3, channels=(4, 1),
                        variant="ista", refine=True)
        params = init_params(cfg, model.n, seed=3, cov_init=0.5)
        _, tape = forward(y, model, params)
        grads = backward(tape, np.zeros(model.n), params)
        for key, g in grads.items():
            assert np.all(g == 0.0), key

    def test_delta_gradient_single_parameter(self):
        # single unroll step, clamp inactive: the delta gradient matches a
        # one-parameter finite difference tightly
        model, y, rng = fd_instance(seed=10)
        cfg = NetConfig(K=1, J=1, depth=1, kernel=3, channels=(1,),
                        variant="pgd", gamma_max=1e9, refine=False)
        params = init_params(cfg, model.n, seed=4, cov_init=0.5)
        w = rng.standard_normal(model.n)
        _, tape = forward(y, model, params)
        ana = float(backward(tape, w, params)["delta"][0, 0])
        h = 1e-6
        vals = []
        for sgn in (+1.0, -1.0):
            params.values["delta"][0, 0] = 1.0 + sgn * h
            out, _ = forward(y, model, params, want_tape=False)
            vals.append(float(w @ out))
        params.values["delta"][0, 0] = 1.0
        num = (vals[0] - vals[1]) / (2.0 * h)
        assert ana == pytest.approx(num, rel=1e-6, abs=1e-9)

    def test_gradients_accumulate_shared_covariance(self):
        # the shared covariance receives contributions from every Tikhonov
        # block; removing unroll depth changes its gradient
        model, y, rng = fd_instance(seed=11)
        grads = []
        for K in (1, 3):
            cfg = NetConfig(K=K, J=1, depth=1, kernel=3, channels=(1,),
                            variant="ista", refine=False)
            params = init_params(cfg, model.n, seed=5, cov_init=0.5)
            _, tape = forward(y, model, params)
            g = backward(tape, np.ones(model.n), params)
            grads.append(float(g["cov.lam"][0]))
        assert grads[0] != grads[1]
