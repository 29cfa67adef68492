import math

import numpy as np
import pytest

from cginvert import covariance
from cginvert.covariance import CovarianceParam
from cginvert.drcgnet import NetConfig, backward, forward, init_params
from cginvert.sensing import SensingModel, build_radon, measure


def fd_instance(seed=5, n=16, m=10):
    rng = np.random.default_rng(seed)
    model = SensingModel(rng.standard_normal((m, n)) / math.sqrt(n))
    c = np.abs(rng.standard_normal(n))
    y = measure(model, c, 40.0, seed=2)
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
        y = measure(model, rng.uniform(0.0, 1.0, model.n), 40.0, seed=2)
        cfg = NetConfig(K=1, J=2, depth=2, kernel=3, channels=(3, 1),
                        variant="pgd", cov_kind="diagonal", gamma_max=1e6,
                        refine=True)
        check_gradients(model, y, cfg, rng, sample=8)
        assert model._dense_a is None

    def test_paper_channel_widths(self):
        # 32-channel layers meet: each ReLU mask comes from the next
        # layer's padded input instead of a stored pre-activation
        model, y, rng = fd_instance(seed=9, n=36, m=20)
        cfg = NetConfig(K=1, J=1, depth=8, kernel=3,
                        channels=(32,) * 7 + (1,), variant="pgd",
                        cov_kind="scaled_identity", gamma_max=1e6,
                        refine=True)
        check_gradients(model, y, cfg, rng, sample=6)

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


class TestBackwardWork:
    @pytest.mark.parametrize("m,per_block", [(20, 0), (10, 1)],
                             ids=["direct", "woodbury"])
    def test_sensing_calls_of_one_backward(self, monkeypatch, m, per_block):
        # A^T y once; one A and one A^T per scale update; two of each for
        # the z-gradient of every Tikhonov block but the first, whose z is a
        # constant of the input; and one of each per block's adjoint solve
        # on the Woodbury route (m < n)
        model, y, _ = fd_instance(seed=12, n=16, m=m)
        K, J = 2, 3
        cfg = NetConfig(K=K, J=J, depth=2, kernel=3, channels=(2, 1),
                        refine=True)
        params = init_params(cfg, model.n, seed=6, cov_init=0.5)
        _, tape = forward(y, model, params)
        calls = {"apply": 0, "adjoint": 0}
        for name, real in (("apply", model.apply), ("adjoint", model.adjoint)):
            def counted(v, real=real, name=name):
                calls[name] += 1
                return real(v)
            monkeypatch.setattr(model, name, counted)
        backward(tape, np.ones(model.n), params)
        updates = K * J + 1
        assert calls["apply"] == updates + 2 * K + per_block * (K + 1)
        assert calls["adjoint"] == 1 + updates + 2 * K + per_block * (K + 1)

    def test_calls_of_one_nagd_backward(self, monkeypatch):
        # each accelerated step of a block's reverse pass runs one A, one A^T
        # and one P^{-1} for the gradient w.r.t. its input iterate, two P^{-1}
        # for the covariance term and, past the first block, two A and two
        # A^T for the z-gradient; the first block's warm start is the zero
        # vector, so its j=0 step skips the input-iterate gradient
        model, y, _ = fd_instance(seed=15, n=16, m=10)
        K, J, steps = 2, 3, 5
        cfg = NetConfig(K=K, J=J, depth=2, kernel=3, channels=(2, 1),
                        u_mode="nagd", nagd_steps=steps, nagd_eta=0.05,
                        refine=True)
        params = init_params(cfg, model.n, seed=6, cov_init=0.5)
        _, tape = forward(y, model, params)
        calls = {"apply": 0, "adjoint": 0, "solve": 0}
        for owner, name in ((model, "apply"), (model, "adjoint"),
                            (CovarianceParam, "solve")):
            def counted(*args, real=getattr(owner, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, counted)
        backward(tape, np.ones(model.n), params)
        updates = K * J + 1
        applies = updates + 3 * K * steps + (steps - 1)
        assert calls["apply"] == applies
        assert calls["adjoint"] == 1 + applies
        assert calls["solve"] == 3 * (K + 1) * steps - 1

    @pytest.mark.parametrize("angles", [6, 3], ids=["direct", "woodbury"])
    def test_backward_reuses_the_forwards_covariance(self, monkeypatch,
                                                     angles):
        # a dense P: the forward builds L once for P itself, the backward
        # once per Tikhonov block for its P-gradient, and P is factored once
        # per pass, by the forward's P^{-1} on the direct route (m > n) and
        # by the backward's first P^{-1} on the Woodbury route
        model = build_radon(8, angles)
        y = measure(model, np.abs(np.random.default_rng(3).standard_normal(
            model.n)), 40.0, seed=2)
        cfg = NetConfig(K=2, J=2, depth=2, kernel=3, channels=(2, 1),
                        cov_kind="full", refine=True)
        params = init_params(cfg, model.n, seed=6, cov_init=0.5)
        calls = {"_l_matrix": 0, "_factor": 0}
        for owner, name in ((CovarianceParam, "_l_matrix"),
                            (covariance, "_factor")):
            def counted(*args, real=getattr(owner, name), key=name,
                        **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        _, tape = forward(y, model, params)
        backward(tape, np.ones(model.n), params)
        assert calls == {"_l_matrix": 1 + cfg.K + 1, "_factor": 1}

    def test_adds_into_a_passed_gradient_dict(self):
        # every array takes one term per call, so passing G0 gives the bits
        # of G0 + a fresh gradient: the contract the training worker's slot
        # relies on
        model, y, rng = fd_instance(seed=13)
        for cov_kind in ("scaled_identity", "diagonal", "tridiagonal", "full"):
            for u_mode in ("exact", "nagd"):
                cfg = NetConfig(K=2, J=1, depth=2, kernel=3, channels=(3, 1),
                                cov_kind=cov_kind, u_mode=u_mode, nagd_steps=5,
                                nagd_eta=0.05 if u_mode == "nagd" else None,
                                refine=True)
                params = init_params(cfg, model.n, seed=2, cov_init=0.5)
                _, tape = forward(y, model, params)
                w = rng.standard_normal(model.n)
                fresh = backward(tape, w, params)
                start = {key: rng.standard_normal(g.shape)
                         for key, g in fresh.items()}
                into = {key: g.copy() for key, g in start.items()}
                assert backward(tape, w, params, into) is into
                for key, g in fresh.items():
                    assert np.array_equal(into[key], start[key] + g), \
                        (cov_kind, u_mode, key)


class TestConvCallContract:
    def test_one_call_per_layer_and_the_tape_holds_each_buffer(self,
                                                               monkeypatch):
        # the benchmark's drcgnet.conv.* metrics wrap these two names in the
        # network module and read each forward's [1] as the layer's tape
        # buffer: a stack that bypassed them would report zeros
        from cginvert.drcgnet import network
        returned, read = [], []
        real_fwd, real_bwd = network.conv2d_forward, network.conv2d_backward

        def fwd(*args, **kwargs):
            out = real_fwd(*args, **kwargs)
            returned.append(out[1])
            return out

        def bwd(*args, **kwargs):
            read.append(args[1])
            return real_bwd(*args, **kwargs)

        monkeypatch.setattr(network, "conv2d_forward", fwd)
        monkeypatch.setattr(network, "conv2d_backward", bwd)
        model, y, _ = fd_instance(seed=14)
        K, J, depth = 2, 2, 3
        cfg = NetConfig(K=K, J=J, depth=depth, kernel=3, channels=(4, 4, 1),
                        refine=True)
        params = init_params(cfg, model.n, seed=1, cov_init=0.5)
        _, tape = forward(y, model, params)
        backward(tape, np.ones(model.n), params)
        # the scale updates sit between the Tikhonov records, every J+1-th
        # from U_0 on; the refinement is last
        updates = [tape.records[k * (J + 1) + j] for k in range(K)
                   for j in range(1, J + 1)] + [tape.records[-1]]
        held = [xp for rec in updates for xp in rec["cache"]]
        assert len(returned) == len(read) == len(held) == depth * (K * J + 1)
        assert all(a is b for a, b in zip(returned, held))
        assert all(a is b for a, b in zip(read, reversed(held)))
