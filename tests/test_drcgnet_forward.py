import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dtrttp
from scipy.signal import convolve2d, correlate2d

from cginvert.covariance import CovarianceParam
from cginvert.data_metrics import gen_dataset
from cginvert.drcgnet import (
    NetConfig,
    backward,
    conv2d_backward,
    conv2d_forward,
    forward,
    init_params,
    param_count,
)
from cginvert import tikhonov
from cginvert.drcgnet import conv, network
from cginvert.drcgnet.conv import body, interior, padded
from cginvert.drcgnet.network import _gmap_forward, _stack_backward, _stack_forward
from cginvert.gcgls import initial_scale
from cginvert.sensing import SensingModel, build_radon, measure
from cginvert.tikhonov import tikhonov_solve


# the README run.cfg network
README_NET = NetConfig(K=2, J=2, depth=2, channels=(8, 1))


def small_model(m, n, seed):
    rng = np.random.default_rng(seed)
    return SensingModel(rng.standard_normal((m, n)) / math.sqrt(n)), rng


# (c_in, c_out, k, h, w): k in {1, 3, 5}, single-channel ends, h != w
CONV_CASES = [(1, 3, 3, 5, 5), (2, 4, 3, 6, 6), (3, 1, 5, 7, 7),
              (2, 3, 1, 4, 4), (1, 1, 5, 6, 6), (3, 2, 3, 5, 8)]


def conv_case(case, seed):
    cin, cout, k, h, w = case
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((h, w, cin)),
            rng.standard_normal((k, k, cin, cout)),
            rng.standard_normal((h, w, cout)))


def conv_fwd(x, kern):
    """One linear layer on the (h, w, c_in) map x: (output map, its xp)."""
    h, w, _ = x.shape
    k = kern.shape[0]
    yp, xp = conv2d_forward(padded(x, k), kern, h, w, relu=False)
    return interior(yp, k, h, w), xp


def conv_bwd(d, xp, kern, x_shape):
    """Backward of conv_fwd for the (h, w, c_out) output gradient d:
    (input map gradient, kernel gradient)."""
    h, w, _ = x_shape
    k = kern.shape[0]
    dxp, dkern = conv2d_backward(body(padded(d, k), k, h, w), xp, kern, h, w)
    return interior(dxp, k, h, w), dkern


class TestConv:
    def test_matches_scipy_correlate(self):
        for seed, case in enumerate(CONV_CASES):
            x, kern, _ = conv_case(case, seed)
            cin, cout, _, h, w = case
            out, _ = conv_fwd(x, kern)
            assert out.shape == (h, w, cout)
            for co in range(cout):
                expect = sum(
                    correlate2d(x[:, :, ci], kern[:, :, ci, co], mode="same",
                                boundary="fill")
                    for ci in range(cin))
                assert np.allclose(out[:, :, co], expect, atol=1e-12)

    @pytest.mark.parametrize("case", CONV_CASES)
    def test_input_gradient_is_adjoint(self, case):
        # <conv(x), d> = <x, dx>: the backward is the forward's transpose
        x, kern, d = conv_case(case, 1)
        out, xp = conv_fwd(x, kern)
        dx, _ = conv_bwd(d, xp, kern, x.shape)
        assert dx.shape == x.shape
        lhs, rhs = float(np.vdot(out, d)), float(np.vdot(x, dx))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("case", CONV_CASES)
    def test_kernel_gradient_matches_loop(self, case):
        cin, cout, k, h, w = case
        x, kern, d = conv_case(case, 2)
        _, xp = conv_fwd(x, kern)
        _, dkern = conv_bwd(d, xp, kern, x.shape)
        pad = k // 2
        xpad = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
        expect = np.zeros((k, k, cin, cout))
        for di in range(k):
            for dj in range(k):
                for ci in range(cin):
                    for co in range(cout):
                        for i in range(h):
                            for j in range(w):
                                expect[di, dj, ci, co] += \
                                    xpad[i + di, j + dj, ci] * d[i, j, co]
        assert np.allclose(dkern, expect, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", [(1, 32, 3, 32, 32), (32, 1, 3, 32, 32),
                                      (1, 8, 3, 8, 8), (8, 1, 3, 8, 8),
                                      (1, 1, 5, 6, 7)])
    def test_single_channel_ends_match_tap_loop(self, case):
        # a 1-channel input (forward) or output (input gradient) takes one
        # GEMM over the stacked tap slices instead of k*k rank-1 products
        cin, cout, k, h, w = case
        x, kern, d = conv_case(case, 3)
        out, xp = conv_fwd(x, kern)
        dx, dkern = conv_bwd(d, xp, kern, x.shape)
        pad = k // 2
        xpad = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
        out_ref = np.zeros(out.shape)
        dxpad = np.zeros(xpad.shape)
        dkern_ref = np.empty(kern.shape)
        for di in range(k):
            for dj in range(k):
                window = xpad[di:di + h, dj:dj + w]
                out_ref += np.einsum("io,hwi->hwo", kern[di, dj], window)
                dxpad[di:di + h, dj:dj + w] += np.einsum(
                    "io,hwo->hwi", kern[di, dj], d)
                dkern_ref[di, dj] = np.einsum("hwi,hwo->io", window, d)
        dx_ref = dxpad[pad:pad + h, pad:pad + w]
        for got, ref in ((out, out_ref), (dx, dx_ref), (dkern, dkern_ref)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_taps_accumulate_in_place(self):
        # each multi-channel tap adds its product into the accumulator inside
        # BLAS, and the layers work on padded buffers, so the peak heap of a
        # pass is the arrays it returns plus less than one (c_out, span)
        # per-tap product: no padded copy, no separate output map
        cin = cout = 32
        k, h, w = 3, 32, 32
        x, kern, d = conv_case((cin, cout, k, h, w), 4)
        xp = padded(x, k)
        d = body(padded(d, k), k, h, w)
        slack = d.nbytes // 2
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            yp, _ = conv2d_forward(xp, kern, h, w, relu=True)
            fwd_peak = tracemalloc.get_traced_memory()[1] - base
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            dxp, dkern = conv2d_backward(d, xp, kern, h, w)
            bwd_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert fwd_peak < yp.nbytes + slack
        assert bwd_peak < dxp.nbytes + dkern.nbytes + slack


def per_tap_backward(d, xp, kern, h, w):
    """A multi-channel layer's backward as one kernel-gradient matmul and
    one input-gradient dgemm per tap, both in tap order, on one thread."""
    k, _, cin, cout = kern.shape
    wp = w + 2 * (k // 2)
    span = h * wp
    dxp = np.zeros(xp.shape)
    dkern = np.empty((k * k, cin, cout))
    flat_kern = kern.reshape(k * k, cin, cout)
    for t in range(k * k):
        o = (t // k) * wp + t % k
        np.matmul(xp[o:o + span].T, d, out=dkern[t])
        dgemm(1.0, flat_kern[t].T, d.T, beta=1.0, c=dxp.T[:, o:o + span],
              trans_a=1, overwrite_c=1)
    return dxp, dkern.reshape(kern.shape)


def layer_inputs(case, seed):
    """(d, xp, kern, h, w) of one conv2d_backward call."""
    k, h, w = case[2:]
    x, kern, d = conv_case(case, seed)
    return body(padded(d, k), k, h, w), padded(x, k), kern, h, w


class TestSplitBackward:
    # a multi-channel backward in its two halves: the kernel gradient in one
    # np.matmul over the tap windows, the input gradient in per-tap dgemms
    SPLIT_CASES = [(32, 32, 3, 32, 32), (32, 32, 3, 24, 40)]

    def test_taps_are_cached_offsets(self):
        assert conv._taps(3, 34) is conv._taps(3, 34)
        assert conv._taps(3, 34) == (0, 1, 2, 34, 35, 36, 68, 69, 70)

    @pytest.mark.parametrize("case", SPLIT_CASES)
    def test_split_equals_per_tap_loop(self, case):
        inputs = layer_inputs(case, 5)
        dxp, dkern = conv2d_backward(*inputs)
        ref_dxp, ref_dkern = per_tap_backward(*inputs)
        assert np.array_equal(dxp, ref_dxp)
        assert np.array_equal(dkern, ref_dkern)

    @pytest.mark.parametrize("case", SPLIT_CASES)
    def test_tap_windows_are_a_read_only_view(self, case):
        d, xp, kern, h, w = layer_inputs(case, 10)
        k = kern.shape[0]
        _, wp, span = conv._layout(k, h, w)
        windows = conv._windows(xp, k, wp, span)
        assert np.shares_memory(windows, xp)
        for t, o in enumerate(conv._taps(k, wp)):
            assert np.array_equal(windows[t // k, t % k], xp[o:o + span])
        with pytest.raises(ValueError, match="read-only"):
            windows[0, 0, 0, 0] = 1.0
        # the kernel gradient reads the view
        ref_dkern = per_tap_backward(d, xp, kern, h, w)[1]
        assert np.array_equal(conv2d_backward(d, xp, kern, h, w)[1],
                              ref_dkern)

    @pytest.mark.parametrize("case", CONV_CASES + [
        (1, 32, 3, 32, 32), (32, 1, 3, 32, 32), (16, 16, 3, 16, 16),
        (32, 32, 3, 16, 16)])
    def test_small_and_single_channel_layers_stay_serial(self, case):
        inputs = layer_inputs(case, 6)
        dxp, dkern = conv2d_backward(*inputs)
        if case[1] > 1:     # a 1-channel output keeps its stacked GEMMs
            ref_dxp, ref_dkern = per_tap_backward(*inputs)
            assert np.array_equal(dxp, ref_dxp)
            assert np.array_equal(dkern, ref_dkern)


def exact_stack_reference(x, kernels, dout):
    """Layer input maps (and the output), layer input gradients and kernel
    gradients of a conv stack (ReLU after every layer but the last) on
    integer maps, in int64 arithmetic: per-layer correlate2d on a freshly
    zero-padded map, ReLU as a new array, and the backward by the
    transposed correlations."""
    maps = [x]                      # the input map of every layer
    last = len(kernels) - 1
    for d, kern in enumerate(kernels):
        a = maps[-1]
        z = np.stack([sum(correlate2d(a[:, :, ci], kern[:, :, ci, co],
                                      mode="same")
                          for ci in range(kern.shape[2]))
                      for co in range(kern.shape[3])], axis=2)
        maps.append(z if d == last else np.maximum(z, 0))
    g = dout
    grads = [None] * len(kernels)   # the gradient of every layer's input map
    dkerns = [None] * len(kernels)
    for d in range(last, -1, -1):
        kern = kernels[d]
        pad = kern.shape[0] // 2
        xpad = np.pad(maps[d], ((pad, pad), (pad, pad), (0, 0)))
        dkerns[d] = np.stack([np.stack([correlate2d(xpad[:, :, ci], g[:, :, co],
                                                    mode="valid")
                                        for co in range(kern.shape[3])], axis=2)
                              for ci in range(kern.shape[2])], axis=2)
        g = np.stack([sum(convolve2d(g[:, :, co], kern[:, :, ci, co], mode="same")
                          for co in range(kern.shape[3]))
                      for ci in range(kern.shape[2])], axis=2)
        if d:
            g = g * (maps[d] > 0)
        grads[d] = g
    return maps, grads, dkerns


class TestStack:
    """The stack writes each layer's output into the padded buffer the next
    layer reads, ReLU in place; the backward masks the input gradient's body
    in place.  Integer-valued inputs and kernels keep every sum exact, so the
    comparison is bit for bit whatever the summation order."""

    @pytest.mark.parametrize("channels,side", [((4, 4, 1), 7),
                                               ((32,) * 7 + (1,), 10)])
    def test_matches_exact_reference_and_keeps_rings_zero(self, channels, side):
        k = 3
        rng = np.random.default_rng(len(channels))
        widths = (1,) + channels
        kernels = [rng.choice([-1] + [0] * 8 + [1], size=(k, k, cin, cout))
                   for cin, cout in zip(widths, widths[1:])]
        x = rng.integers(-3, 4, size=(side, side, 1))
        dout = rng.integers(-3, 4, size=(side, side, 1))
        maps, grads, dkerns_ref = exact_stack_reference(x, kernels, dout)
        # every float sum has at most `terms` terms, each a map or gradient
        # entry times a kernel entry in {-1, 0, 1}, or a map entry times a
        # gradient entry: all partial sums are integers below 2**53
        big = max(np.abs(a).max() for a in maps + grads + [dout])
        terms = max(k * k * max(widths), side * side)
        assert terms * big * big < 2 ** 53

        fk = [kern.astype(np.float64) for kern in kernels]
        out, cache = _stack_forward(fk, x.reshape(-1).astype(np.float64), side)
        dx, dkerns = _stack_backward(dout.reshape(-1).astype(np.float64), fk,
                                     cache, side)
        assert np.array_equal(out, maps[-1].reshape(-1))
        assert np.array_equal(dx, grads[0].reshape(-1))
        for got, ref in zip(dkerns, dkerns_ref):
            assert np.array_equal(got, ref)
        for xp, a in zip(cache, maps):
            assert np.array_equal(interior(xp, k, side, side), a)
            ring = xp.copy()
            interior(ring, k, side, side)[...] = 0.0
            assert not ring.any()


class TestSubnet:
    def test_zero_kernels_pgd_is_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(16)
        kernels = [np.zeros((3, 3, 1, 4)), np.zeros((3, 3, 4, 1))]
        out, _ = _stack_forward(kernels, x, 4)
        assert np.all(out == 0.0)

    def test_single_1x1_kernel_scales(self):
        # depth 1 means the only layer is the linear output layer
        rng = np.random.default_rng(3)
        x = rng.standard_normal(9)
        w = 0.73
        out, _ = _stack_forward([np.full((1, 1, 1, 1), w)], x, 3)
        assert out == pytest.approx(w * x)

    def test_hand_rolled_conv_oracle_on_3x3(self):
        # direct convolution loop with explicit zero padding
        rng = np.random.default_rng(4)
        x = rng.standard_normal(9)
        kern = rng.standard_normal((3, 3, 1, 1))
        out, _ = _stack_forward([kern], x, 3)
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


def scale_update(z, u, model, y, delta, gamma, kernels, variant):
    """Output of one scale update of the network, its record dropped."""
    side = int(math.isqrt(z.size))
    return _gmap_forward(z, u, model, y, delta, gamma, kernels, variant, side)[0]


class TestIntermediateMap:
    def test_zero_delta_zero_kernels_ista_is_relu(self):
        model, rng = small_model(6, 16, 5)
        y = rng.standard_normal(6)
        z = rng.standard_normal(16)  # signed on purpose
        u = rng.standard_normal(16)
        kernels = [np.zeros((3, 3, 1, 2)), np.zeros((3, 3, 2, 1))]
        out = scale_update(z, u, model, y, 0.0, 1.0, kernels, "ista")
        assert np.array_equal(out, np.maximum(z, 0.0))

    def test_step_clamp_inactive(self):
        model, rng = small_model(6, 16, 6)
        y = rng.standard_normal(6)
        z = rng.uniform(0.1, 1.0, 16)
        u = rng.standard_normal(16)
        g = u * model.adjoint(model.apply(u * z) - y)
        delta = 0.2
        gamma = 10.0 * np.linalg.norm(g)  # clamp inactive
        kernels = [np.zeros((3, 3, 1, 1))]
        out = scale_update(z, u, model, y, delta, gamma, kernels, "pgd")
        assert np.array_equal(out, np.maximum(z - delta * g, 0.0))

    def test_step_clamp_halves_at_twice_gamma(self):
        model, rng = small_model(6, 16, 7)
        y = rng.standard_normal(6)
        z = rng.uniform(0.1, 1.0, 16)
        u = rng.standard_normal(16)
        g = u * model.adjoint(model.apply(u * z) - y)
        gamma = float(np.linalg.norm(g)) / 2.0  # norm == 2 * gamma
        delta = 0.4
        kernels = [np.zeros((3, 3, 1, 1))]
        out = scale_update(z, u, model, y, delta, gamma, kernels, "pgd")
        expect = np.maximum(z - (delta * 0.5) * g, 0.0)
        assert out == pytest.approx(expect, rel=1e-12)


class TestForward:
    def test_neutralized_net_equals_clamped_tikhonov(self):
        # zero kernels and zero deltas freeze the scales at the clamped
        # initialization, leaving only the Tikhonov updates
        model, rng = small_model(10, 16, 8)
        s = rng.uniform(0, 1, 16)
        y = measure(model, s, 60.0, seed=1)
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
        last_tikhonov = tape.records[-2]  # the refinement record follows it
        c = last_tikhonov["u"] * last_tikhonov["z"]
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
        # U_0, then per k its 4 scale updates and its Tikhonov update, then
        # the refinement: 12 scale states + refinement, U_0..U_3
        assert len(tape.records) == 1 + 3 * (4 + 1) + 1
        tikhonov = [i for i, rec in enumerate(tape.records) if "cache" not in rec]
        assert tikhonov == [0, 5, 10, 15]
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
        # U_0, the scale update, U_1, the refinement
        assert len(tape.records) == 4
        stacks = [tape.records[i]["cache"] for i in (1, 3)]
        for cache in stacks:
            assert len(cache) == 8
            for cin, entry in zip(cfg.layer_channels(), cache):
                assert sum(a.size for a in arrays(entry)) <= cin * padded
        for a in arrays(tape.records):
            assert not (a.ndim == 4 and a.shape[0] == side * side)

    def test_tapeless_forward_holds_one_block(self):
        # the paper network on Radon 32x32/15: a taped forward keeps every
        # block's record (about 34 MB); without a tape only the block
        # being run holds any, so the peak is a small fraction of that
        model = build_radon(32, 15)
        y = gen_dataset("synthetic", model, 60.0, 1, 1).pairs[0][0]
        params = init_params(NetConfig(), model.n, seed=1, cov_init=0.1)

        def traced(want_tape):
            tracemalloc.start()
            try:
                out, tape = forward(y, model, params, want_tape=want_tape)
                return out, tape, tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()

        out, tape, taped_mb = traced(True)
        del tape
        bare, tape, bare_mb = traced(False)
        assert tape is None
        assert np.array_equal(bare, out)
        assert taped_mb > 30.0
        assert bare_mb < 8.0

    @pytest.mark.parametrize("case", ["paper", "readme-direct"])
    def test_exact_records_keep_packed_factors(self, case):
        # each exact block keeps the lower triangle of its order-r factor,
        # r(r+1)/2 floats: r = 612 live rows of the Woodbury system on Radon
        # 32x32/15, r = n = 64 on the README run.cfg's direct route
        side, angles, cfg, route, size = {
            "paper": (32, 15, NetConfig(), "woodbury", 187578),
            "readme-direct": (8, 6, README_NET, "direct", 2080)}[case]
        model = build_radon(side, angles)
        y = gen_dataset("synthetic", model, 60.0, 1, 1).pairs[0][0]
        params = init_params(cfg, model.n, seed=1, cov_init=0.1)
        _, tape = forward(y, model, params)
        factors = [rec["factor"] for rec in tape.records if "factor" in rec]
        assert len(factors) == cfg.K + 1
        for kept_route, packed, _ in factors:
            assert kept_route == route
            assert packed.dtype == np.float64 and packed.shape == (size,)

    @pytest.mark.parametrize("u_mode", ["exact", "nagd"])
    def test_tapeless_forward_runs_the_plain_solves(self, monkeypatch, u_mode):
        # no packed factor and no accelerated trace, and the taped bits
        packs, traces = [], []

        def pack(a, **kwargs):
            packs.append(a.shape)
            return dtrttp(a, **kwargs)

        def nagd(*args, real=network.tikhonov_nagd, **kwargs):
            traces.append(kwargs.get("want_trace", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(tikhonov, "_dtrttp", pack)
        monkeypatch.setattr(network, "tikhonov_nagd", nagd)
        model = build_radon(8, 6)
        y = gen_dataset("synthetic", model, 60.0, 1, 1).pairs[0][0]
        cfg = replace(README_NET, u_mode=u_mode, nagd_eta=2e-5, nagd_steps=3)
        params = init_params(cfg, model.n, seed=1, cov_init=0.1)
        blocks = cfg.K + 1
        bare, _ = forward(y, model, params, want_tape=False)
        assert packs == []
        assert traces == ([False] * blocks if u_mode == "nagd" else [])
        taped, _ = forward(y, model, params)
        if u_mode == "exact":
            assert packs == [(64, 64)] * blocks
        else:
            assert traces[blocks:] == [True] * blocks
        assert bare.tobytes() == taped.tobytes()

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
            assert sum(v.size for v in params.values.values()) == param_count(cfg, n)

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
            out, tape = forward(y, model, params)
            # the clamped initialization Z_0 and every update's output: each
            # Tikhonov record holds the scales it solved with, and each scale
            # update is fed the previous update's output
            for i, rec in enumerate(tape.records[:-1]):
                z = rec["z"] if i % (cfg.J + 1) == 0 else rec["z_in"]
                assert np.all(z >= 0.0)
            assert np.all(out >= 0.0)  # the refinement update's output
