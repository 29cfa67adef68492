import math

import numpy as np
import pytest
from scipy.signal import correlate2d

from cginvert.covariance import CovarianceParam
from cginvert.drcgnet import (
    NetConfig,
    conv2d_backward,
    conv2d_forward,
    forward,
    init_params,
    intermediate_map,
    param_count,
    subnet_forward,
)
from cginvert.gcgls import initial_scale
from cginvert.regularizer import grad_z_datafit
from cginvert.sensing import SensingModel, measure
from cginvert.tikhonov import tikhonov_solve


def small_model(m, n, seed):
    rng = np.random.default_rng(seed)
    return SensingModel(rng.standard_normal((m, n)) / math.sqrt(n)), rng


# (c_in, c_out, k, h, w): k in {1, 3, 5}, single-channel ends, h != w
CONV_CASES = [(1, 3, 3, 5, 5), (2, 4, 3, 6, 6), (3, 1, 5, 7, 7),
              (2, 3, 1, 4, 4), (1, 1, 5, 6, 6), (3, 2, 3, 5, 8)]


def conv_case(case, seed):
    cin, cout, k, h, w = case
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((cin, h, w)),
            rng.standard_normal((k, k, cin, cout)),
            rng.standard_normal((cout, h, w)))


class TestConv:
    def test_matches_scipy_correlate(self):
        for seed, case in enumerate(CONV_CASES):
            x, kern, _ = conv_case(case, seed)
            cin, cout, _, h, w = case
            out, _ = conv2d_forward(x, kern)
            assert out.shape == (cout, h, w)
            for co in range(cout):
                expect = sum(
                    correlate2d(x[ci], kern[:, :, ci, co], mode="same",
                                boundary="fill")
                    for ci in range(cin))
                assert np.allclose(out[co], expect, atol=1e-12)

    @pytest.mark.parametrize("case", CONV_CASES)
    def test_input_gradient_is_adjoint(self, case):
        # <conv(x), d> = <x, dx>: the backward is the forward's transpose
        x, kern, d = conv_case(case, 1)
        out, xp = conv2d_forward(x, kern)
        dx, _ = conv2d_backward(d, xp, kern, x.shape)
        assert dx.shape == x.shape
        lhs, rhs = float(np.vdot(out, d)), float(np.vdot(x, dx))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("case", CONV_CASES)
    def test_kernel_gradient_matches_loop(self, case):
        cin, cout, k, h, w = case
        x, kern, d = conv_case(case, 2)
        _, xp = conv2d_forward(x, kern)
        _, dkern = conv2d_backward(d, xp, kern, x.shape)
        pad = k // 2
        xpad = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        expect = np.zeros((k, k, cin, cout))
        for di in range(k):
            for dj in range(k):
                for ci in range(cin):
                    for co in range(cout):
                        for i in range(h):
                            for j in range(w):
                                expect[di, dj, ci, co] += \
                                    xpad[ci, i + di, j + dj] * d[co, i, j]
        assert np.allclose(dkern, expect, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", [(1, 32, 3, 32, 32), (32, 1, 3, 32, 32),
                                      (1, 8, 3, 8, 8), (8, 1, 3, 8, 8),
                                      (1, 1, 5, 6, 7)])
    def test_single_channel_ends_match_tap_loop(self, case):
        # a 1-channel input (forward) or output (input gradient) takes one
        # GEMM over the stacked tap slices instead of k*k rank-1 products
        cin, cout, k, h, w = case
        x, kern, d = conv_case(case, 3)
        out, xp = conv2d_forward(x, kern)
        dx, dkern = conv2d_backward(d, xp, kern, x.shape)
        pad = k // 2
        xpad = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        out_ref = np.zeros(out.shape)
        dxpad = np.zeros(xpad.shape)
        dkern_ref = np.empty(kern.shape)
        for di in range(k):
            for dj in range(k):
                window = xpad[:, di:di + h, dj:dj + w]
                out_ref += np.einsum("io,ihw->ohw", kern[di, dj], window)
                dxpad[:, di:di + h, dj:dj + w] += np.einsum(
                    "io,ohw->ihw", kern[di, dj], d)
                dkern_ref[di, dj] = np.einsum("ihw,ohw->io", window, d)
        dx_ref = dxpad[:, pad:pad + h, pad:pad + w]
        for got, ref in ((out, out_ref), (dx, dx_ref), (dkern, dkern_ref)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestSubnet:
    def test_zero_kernels_ista_is_identity(self):
        cfg = NetConfig(K=1, J=1, depth=2, kernel=3, channels=(4, 1),
                        variant="ista", refine=False)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(16)
        kernels = [np.zeros((3, 3, 1, 4)), np.zeros((3, 3, 4, 1))]
        assert np.array_equal(subnet_forward(kernels, x, 4, "ista"), x)

    def test_zero_kernels_pgd_is_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(16)
        kernels = [np.zeros((3, 3, 1, 4)), np.zeros((3, 3, 4, 1))]
        assert np.all(subnet_forward(kernels, x, 4, "pgd") == 0.0)

    def test_single_1x1_kernel_scales(self):
        # depth 1 means the only layer is the linear output layer
        rng = np.random.default_rng(3)
        x = rng.standard_normal(9)
        w = 0.73
        kernels = [np.full((1, 1, 1, 1), w)]
        assert subnet_forward(kernels, x, 3, "pgd") == pytest.approx(w * x)
        assert subnet_forward(kernels, x, 3, "ista") == pytest.approx(x + w * x)

    def test_hand_rolled_conv_oracle_on_3x3(self):
        # direct convolution loop with explicit zero padding
        rng = np.random.default_rng(4)
        x = rng.standard_normal(9)
        kern = rng.standard_normal((3, 3, 1, 1))
        out = subnet_forward([kern], x, 3, "pgd")
        img = x.reshape(3, 3)
        expect = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                acc = 0.0
                for di in range(3):
                    for dj in range(3):
                        ii, jj = i + di - 1, j + dj - 1
                        if 0 <= ii < 3 and 0 <= jj < 3:
                            acc += img[ii, jj] * kern[di, dj, 0, 0]
                expect[i, j] = acc
        assert out == pytest.approx(expect.reshape(-1), abs=1e-12)


class TestIntermediateMap:
    def test_zero_delta_zero_kernels_ista_is_relu(self):
        model, rng = small_model(6, 16, 5)
        y = rng.standard_normal(6)
        z = rng.standard_normal(16)  # signed on purpose
        u = rng.standard_normal(16)
        kernels = [np.zeros((3, 3, 1, 2)), np.zeros((3, 3, 2, 1))]
        out = intermediate_map(z, u, model, y, 0.0, 1.0, kernels, "ista")
        assert np.array_equal(out, np.maximum(z, 0.0))

    def test_step_clamp_inactive(self):
        model, rng = small_model(6, 16, 6)
        y = rng.standard_normal(6)
        z = rng.uniform(0.1, 1.0, 16)
        u = rng.standard_normal(16)
        g = grad_z_datafit(z, u, model, y)
        delta = 0.2
        gamma = 10.0 * np.linalg.norm(g)  # clamp inactive
        kernels = [np.zeros((3, 3, 1, 1))]
        out = intermediate_map(z, u, model, y, delta, gamma, kernels, "pgd")
        assert np.array_equal(out, np.maximum(z - delta * g, 0.0))

    def test_step_clamp_halves_at_twice_gamma(self):
        model, rng = small_model(6, 16, 7)
        y = rng.standard_normal(6)
        z = rng.uniform(0.1, 1.0, 16)
        u = rng.standard_normal(16)
        g = grad_z_datafit(z, u, model, y)
        gamma = float(np.linalg.norm(g)) / 2.0  # norm == 2 * gamma
        delta = 0.4
        kernels = [np.zeros((3, 3, 1, 1))]
        out = intermediate_map(z, u, model, y, delta, gamma, kernels, "pgd")
        expect = np.maximum(z - (delta * 0.5) * g, 0.0)
        assert out == pytest.approx(expect, rel=1e-12)


class TestForward:
    def test_neutralized_net_equals_clamped_tikhonov(self):
        # zero kernels and zero deltas freeze the scales at the clamped
        # initialization, leaving only the Tikhonov updates
        model, rng = small_model(10, 16, 8)
        s = rng.uniform(0, 1, 16)
        y = measure(model, s, 60.0, seed=1).y
        for variant in ("pgd", "ista"):
            cfg = NetConfig(K=2, J=3, depth=2, kernel=3, channels=(3, 1),
                            variant=variant, cov_kind="scaled_identity",
                            refine=False)
            params = init_params(cfg, 16, seed=0, cov_init=0.5)
            for key in params.values:
                if key.startswith("w."):
                    params.values[key][:] = 0.0
            params.values["delta"][:] = 0.0
            c_net, _ = forward(y, model, params)
            z0 = initial_scale(model, y, cfg.b)
            u = tikhonov_solve(z0, model, y, params.cov())
            assert np.array_equal(c_net, u * z0)

    def test_refinement_identity_on_nonnegative_signal(self):
        # identity-like sensing with positive data keeps C nonnegative, so a
        # neutralized ista refinement block returns C unchanged
        model = SensingModel(np.eye(16))
        y = np.abs(np.random.default_rng(9).standard_normal(16)) + 0.5
        cfg = NetConfig(K=1, J=1, depth=2, kernel=3, channels=(3, 1),
                        variant="ista", refine=True)
        params = init_params(cfg, 16, seed=0, cov_init=100.0)
        for key in params.values:
            if key.startswith("w."):
                params.values[key][:] = 0.0
        params.values["delta"][:] = 0.0
        params.values["delta.refine"][...] = 0.0
        out, tape = forward(y, model, params)
        had = [rec for kind, rec in tape.records if kind == "hadamard"][0]
        c = had["u"] * had["z"]
        assert np.all(c >= 0.0)
        assert np.array_equal(out, c)

    def test_tape_bookkeeping_32x32(self):
        side = 32
        n = side * side
        model = SensingModel(
            np.random.default_rng(10).standard_normal((100, n)) / side)
        y = np.random.default_rng(11).standard_normal(100)
        cfg = NetConfig(K=3, J=4, depth=2, kernel=3, channels=(2, 1),
                        variant="ista", refine=True)
        params = init_params(cfg, n, seed=0, cov_init=0.5)
        out, tape = forward(y, model, params)
        assert tape.count("gmap") == 3 * 4 + 1  # 12 scale states + refinement
        assert tape.count("tikhonov") == 4      # U_0..U_3
        assert tape.count("hadamard") == 1
        assert out.shape == (n,)

    def test_tape_keeps_only_padded_stack_inputs(self):
        # paper channel widths on a 6x6 image: each conv keeps its padded
        # input, never the (h*w, c_in, k, k) im2col matrix
        side, k = 6, 3
        channels = (32,) * 7 + (1,)
        model, rng = small_model(20, side * side, 13)
        cfg = NetConfig(K=1, J=1, depth=8, kernel=k, channels=channels,
                        variant="ista", refine=True)
        params = init_params(cfg, side * side, seed=0, cov_init=0.5)
        _, tape = forward(rng.standard_normal(20), model, params)

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, dict):
                for v in obj.values():
                    yield from arrays(v)
            elif isinstance(obj, (list, tuple)):
                for v in obj:
                    yield from arrays(v)

        pad = k // 2
        padded = (side + 2 * pad + 1) * (side + 2 * pad)
        stacks = [rec["cache"] for kind, rec in tape.records if kind == "gmap"]
        assert len(stacks) == 2
        for cache in stacks:
            assert len(cache) == 8
            for cin, entry in zip(cfg.layer_channels(), cache):
                assert sum(a.size for a in arrays(entry)) <= cin * padded
        for a in arrays(tape.records):
            assert not (a.ndim == 4 and a.shape[0] == side * side)

    def test_needs_square_signal(self):
        model, rng = small_model(4, 6, 12)
        cfg = NetConfig(K=1, J=1, depth=1, kernel=1, channels=(1,))
        params = init_params(cfg, 6, seed=0)
        with pytest.raises(ValueError):
            forward(rng.standard_normal(4), model, params)


class TestParamCount:
    def test_paper_scale_config(self):
        cfg = NetConfig(K=3, J=4, depth=8, kernel=3,
                        channels=(32, 32, 32, 32, 32, 32, 32, 1),
                        cov_kind="scaled_identity")
        assert param_count(cfg, 1024) == 726350

    def test_hand_counted_minimal_config(self):
        cfg = NetConfig(K=1, J=1, depth=1, kernel=1, channels=(1,),
                        cov_kind="scaled_identity")
        # 1 cov scalar + (1*1 + 1) * (1*1*1 + 1)
        assert param_count(cfg, 49) == 5

    def test_matches_materialized_scalars(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            depth = int(rng.integers(1, 4))
            channels = tuple(int(rng.integers(1, 6)) for _ in range(depth - 1)) + (1,)
            cfg = NetConfig(
                K=int(rng.integers(1, 4)),
                J=int(rng.integers(1, 4)),
                depth=depth,
                kernel=int(rng.choice([1, 3, 5])),
                channels=channels,
                cov_kind=str(rng.choice(["scaled_identity", "diagonal",
                                         "tridiagonal", "full"])),
                variant=str(rng.choice(["pgd", "ista"])),
                refine=bool(rng.integers(0, 2)),
            )
            n = int(rng.choice([4, 9, 16]))
            params = init_params(cfg, n, seed=1)
            assert params.total_scalars() == param_count(cfg, n)

    def test_cov_dimension_choices(self):
        base = dict(K=1, J=1, depth=1, kernel=1, channels=(1,))
        n = 9
        p_stack = 2 * (1 + 1)  # (KJ+1)(p+1) with p = 1
        assert param_count(NetConfig(cov_kind="scaled_identity", **base), n) == 1 + p_stack
        assert param_count(NetConfig(cov_kind="diagonal", **base), n) == n + p_stack
        assert param_count(NetConfig(cov_kind="tridiagonal", **base), n) == 2 * n - 1 + p_stack
        assert param_count(NetConfig(cov_kind="full", **base), n) == n * (n + 1) // 2 + p_stack


class TestConfigValidation:
    def test_kernel_must_be_odd(self):
        with pytest.raises(ValueError):
            NetConfig(kernel=2, depth=1, channels=(1,))

    def test_last_channel_must_be_one(self):
        with pytest.raises(ValueError):
            NetConfig(depth=2, channels=(4, 2))

    def test_nagd_requires_eta(self):
        with pytest.raises(ValueError):
            NetConfig(depth=1, channels=(1,), u_mode="nagd", nagd_eta=None)


class TestActivationInvariant:
    def test_scale_path_nonnegative_after_every_update(self):
        model, rng = small_model(10, 16, 20)
        y = rng.standard_normal(10)
        for variant in ("pgd", "ista"):
            cfg = NetConfig(K=2, J=3, depth=2, kernel=3, channels=(4, 1),
                            variant=variant, refine=True)
            params = init_params(cfg, 16, seed=3, cov_init=0.5)
            _, tape = forward(y, model, params)
            for kind, rec in tape.records:
                if kind == "gmap":
                    out = np.maximum(rec["pre"], 0.0)
                    assert np.all(out >= 0.0)
                if kind == "init":
                    assert np.all(rec["z0"] >= 0.0)
