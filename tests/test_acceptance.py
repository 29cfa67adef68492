"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from cginvert.cli import main
from cginvert.covariance import KINDS, CovarianceParam
from cginvert.data_metrics import gen_dataset, psnr
from cginvert.drcgnet import (
    NetConfig,
    TrainConfig,
    evaluate_mae,
    forward,
    init_params,
    param_count,
    train,
)
from cginvert.gcgls import SolverConfig, solve
from cginvert.regularizer import ScaleRegularizer, data_misfit, map_equivalence_check
from cginvert.scale_step import LinesearchConfig, ista_step, pgd_step
from cginvert.sensing import SensingModel, build_gaussian, build_radon, measure
from cginvert.tikhonov import (
    _tikhonov_direct_with_factor,
    _tikhonov_woodbury_with_factor,
    NagdConfig,
    tikhonov_nagd,
)

from test_drcgnet_backward import check_gradients
from test_tikhonov import random_cov


def report(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def test_c01_parameter_count_reproduction():
    cfg = NetConfig(K=3, J=4, depth=8, kernel=3,
                    channels=(32, 32, 32, 32, 32, 32, 32, 1),
                    cov_kind="scaled_identity")
    t0 = time.monotonic()
    count = param_count(cfg, 1024)
    elapsed = time.monotonic() - t0
    report("C1 parameter count", count == 726350 and elapsed < 1e-3,
           f"count={count}, {elapsed * 1e6:.1f} us")


def test_c02_radon_dimension_reproduction():
    t0 = time.monotonic()
    small = build_radon(32, 15)
    big = build_radon(128, 60)
    elapsed = time.monotonic() - t0
    ok = (small.m, small.n) == (690, 1024) and big.m == 10920 and elapsed < 5.0
    report("C2 radon dimensions", ok,
           f"32/15 -> m={small.m}, 128/60 -> m={big.m}, {elapsed:.2f} s")


def test_c03_woodbury_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for k, kind in enumerate(KINDS):
        for i in range(100):
            rng = np.random.default_rng((k, i))
            m, n = 6, 14
            model = SensingModel(rng.standard_normal((m, n)) / math.sqrt(n))
            y = rng.standard_normal(m)
            z = rng.uniform(0.2, 2.0, n)
            p = random_cov(kind, n, rng)
            ue = _tikhonov_direct_with_factor(z, model, y, p)[0]
            uw = _tikhonov_woodbury_with_factor(z, model, y, p)[0]
            rel = np.linalg.norm(ue - uw) / max(np.linalg.norm(ue), 1e-300)
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    report("C3 Woodbury equivalence", worst <= 1e-8 and elapsed < 30.0,
           f"400 instances, worst rel diff {worst:.2e}, {elapsed:.1f} s")


def test_c04_descent_lemma_suite():
    t0 = time.monotonic()
    slack = 1e-10
    violations = 0
    # 500 backtracking projected-gradient steps: decrease >= alpha*||dz||^2
    ls = LinesearchConfig(mode="backtrack", alpha=0.3)
    steps = 0
    for inst in range(50):
        rng = np.random.default_rng(1000 + inst)
        model = SensingModel(rng.standard_normal((5, 8)) / math.sqrt(8))
        y = rng.standard_normal(5)
        u = rng.standard_normal(8)
        z = rng.uniform(0.3, 2.0, 8)
        r = ScaleRegularizer.log_squared(0.5)
        for _ in range(10):
            f0 = data_misfit(z, u, model, y) + r.value(z)
            z_new, eta = pgd_step(z, u, model, y, r, ls)
            f1 = data_misfit(z_new, u, model, y) + r.value(z_new)
            dz2 = float((z_new - z) @ (z_new - z))
            if f0 - f1 < ls.alpha * dz2 - slack:
                violations += 1
            z = z_new
            steps += 1
    # 500 fixed-step proximal steps at eta <= 1/L: decrease >= ||dz||^2/(2 eta)
    for inst in range(50):
        rng = np.random.default_rng(2000 + inst)
        model = SensingModel(rng.standard_normal((5, 8)) / math.sqrt(8))
        y = rng.standard_normal(5)
        u = rng.standard_normal(8)
        z = rng.uniform(0.3, 2.0, 8)
        r = ScaleRegularizer.zero()
        au = model.dense_a() * u[None, :]
        lip = float(np.linalg.norm(au.T @ au, 2))
        ls_f = LinesearchConfig(mode="fixed", eta=1.0 / lip)
        for _ in range(10):
            f0 = data_misfit(z, u, model, y) + r.value(z)
            z_new, eta = ista_step(z, u, model, y, r, ls_f)
            f1 = data_misfit(z_new, u, model, y) + r.value(z_new)
            dz2 = float((z_new - z) @ (z_new - z))
            if f0 - f1 < dz2 / (2.0 * eta) - slack:
                violations += 1
            z = z_new
            steps += 1
    elapsed = time.monotonic() - t0
    report("C4 descent lemmas", violations == 0 and elapsed < 60.0,
           f"{steps} steps, {violations} violations, {elapsed:.1f} s")


def test_c05_gcgls_convergence_diagnostics():
    t0 = time.monotonic()
    worst = {"spread": 0.0, "grad_u": 0.0, "stat_z": 0.0}
    monotone = True
    for inst in range(20):
        rng = np.random.default_rng(100 + inst)
        model = SensingModel(rng.standard_normal((12, 16)) / 4.0)
        c = rng.standard_normal(16)
        y = measure(model, c, 60.0, seed=300 + inst)
        p = CovarianceParam.scaled_identity(16, 1.0)
        r = ScaleRegularizer.log_squared(0.5)
        rep = solve(model, y, p, r,
                    SolverConfig(K=400, J=3, zstep_method="ista"))
        f = np.array([t.f_value for t in rep.state.trace])
        monotone &= bool(np.all(np.diff(f) <= 1e-10))
        worst["spread"] = max(worst["spread"],
                              (f[-10:].max() - f[-10:].min()) / abs(f[-1]))
        worst["grad_u"] = max(worst["grad_u"],
                              rep.stationarity_u / (1.0 + abs(rep.f_final)))
        worst["stat_z"] = max(worst["stat_z"], rep.stationarity_z.absolute)
    elapsed = time.monotonic() - t0
    ok = (monotone and worst["spread"] < 1e-8 and worst["grad_u"] < 1e-6
          and worst["stat_z"] < 1e-6 and elapsed < 120.0)
    report("C5 solver convergence", ok,
           f"spread {worst['spread']:.1e}, grad_u {worst['grad_u']:.1e}, "
           f"stat_z {worst['stat_z']:.1e}, {elapsed:.1f} s")


def test_c06_nagd_matches_exact():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model = SensingModel(rng.standard_normal((8, 16)) / 4.0)
        y = rng.standard_normal(8)
        z = rng.uniform(0.2, 1.5, 16)
        p = CovarianceParam.scaled_identity(16, 0.5)
        u_star = _tikhonov_direct_with_factor(z, model, y, p)[0]
        u = tikhonov_nagd(np.zeros(16), z, model, y, p, NagdConfig(steps=100))
        worst = max(worst, np.linalg.norm(u - u_star) / np.linalg.norm(u_star))
    elapsed = time.monotonic() - t0
    report("C6 accelerated vs exact solve", worst <= 1e-4 and elapsed < 30.0,
           f"20 instances, worst rel err {worst:.2e}, {elapsed:.1f} s")


def test_c07_gradient_correctness():
    t0 = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(5)
    model = SensingModel(rng.standard_normal((10, 16)) / 4.0)
    c = np.abs(rng.standard_normal(16))
    y = measure(model, c, 40.0, seed=2)
    for variant in ("pgd", "ista"):
        for u_mode in ("exact", "nagd"):
            cfg = NetConfig(K=2, J=2, depth=2, kernel=3, channels=(4, 1),
                            variant=variant, cov_kind="scaled_identity",
                            gamma_max=1e6, u_mode=u_mode, nagd_steps=8,
                            nagd_eta=0.05 if u_mode == "nagd" else None,
                            refine=True)
            worst = max(worst, check_gradients(model, y, cfg, rng, h=1e-5,
                                               tol=1e-4, sample=10))
    elapsed = time.monotonic() - t0
    report("C7 gradient correctness", worst < 1e-4 and elapsed < 300.0,
           f"both variants x both solve modes, worst rel {worst:.1e}, "
           f"{elapsed:.1f} s")


def test_c08_toy_training():
    t0 = time.monotonic()
    model = build_radon(8, 6)
    # (a) single-pair overfit
    ds1 = gen_dataset("synthetic", model, 60.0, 1, seed=5)
    cfg_a = NetConfig(K=2, J=2, depth=2, kernel=3, channels=(8, 1),
                      variant="ista", cov_kind="scaled_identity",
                      gamma_max=10.0, refine=True)
    tcfg_a = TrainConfig(lr=2e-3, epochs=2000, seed=0)
    mae0 = evaluate_mae(ds1.pairs, model,
                        init_params(cfg_a, model.n, seed=0, cov_init=0.1))
    _, hist_a = train(ds1.pairs, model, cfg_a, tcfg_a, cov_init=0.1)
    overfit_ratio = min(hist_a["train_mae"]) / mae0

    # (b) 20 training samples, 20 held-out
    ds = gen_dataset("synthetic", model, 60.0, 40, seed=11)
    train_pairs, test_pairs = ds.pairs[:20], ds.pairs[20:]
    cfg_b = NetConfig(K=2, J=2, depth=2, kernel=3, channels=(8, 1),
                      variant="ista", cov_kind="scaled_identity",
                      gamma_max=1.0, refine=True)
    tcfg_b = TrainConfig(lr=2e-3, epochs=60, seed=0)
    params0 = init_params(cfg_b, model.n, seed=0, cov_init=0.1)
    mae0_b = evaluate_mae(train_pairs, model, params0)
    params_b, _ = train(train_pairs, model, cfg_b, tcfg_b, cov_init=0.1)
    reduction = 1.0 - evaluate_mae(train_pairs, model, params_b) / mae0_b

    def avg_psnr(pp):
        return float(np.mean([
            psnr(forward(y, model, pp, want_tape=False)[0], c)
            for y, c in test_pairs]))

    gain = avg_psnr(params_b) - avg_psnr(params0)
    elapsed = time.monotonic() - t0
    ok = overfit_ratio < 1e-2 and reduction >= 0.5 and gain >= 3.0 \
        and elapsed < 1200.0
    report("C8 toy training", ok,
           f"overfit ratio {overfit_ratio:.1e}, train-MAE cut "
           f"{100 * reduction:.0f}%, test PSNR gain {gain:.1f} dB, "
           f"{elapsed:.0f} s")


def test_c09_unrolled_equals_iterative():
    t0 = time.monotonic()
    identical = True
    for inst in range(10):
        rng = np.random.default_rng(40 + inst)
        n, m = 16, 10 if inst % 2 == 0 else 20
        model = SensingModel(rng.standard_normal((m, n)) / 4.0)
        s_true = rng.uniform(0, 1, n)
        y = measure(model, s_true, 60.0, seed=inst)
        variant = "pgd" if inst % 3 else "ista"
        u_mode = "nagd" if inst in (4, 7) else "exact"
        eta_fix = 0.3
        cfg = NetConfig(K=2, J=3, depth=2, kernel=3, channels=(3, 1),
                        variant=variant, cov_kind="scaled_identity",
                        gamma_max=np.inf, b=10.0, u_mode=u_mode, nagd_steps=30,
                        nagd_eta=0.05 if u_mode == "nagd" else None,
                        refine=False)
        params = init_params(cfg, n, seed=1, cov_init=0.7)
        for key in params.values:
            if key.startswith("w."):
                params.values[key][:] = 0.0
        params.values["delta"][:] = eta_fix
        c_net, _ = forward(y, model, params)
        scfg = SolverConfig(
            K=2, J=3, b=10.0, tikhonov_mode=u_mode,
            nagd=NagdConfig(steps=30, eta=0.05), zstep_method=variant,
            linesearch=LinesearchConfig(mode="fixed", eta=eta_fix))
        rep = solve(model, y, params.cov(), ScaleRegularizer.zero(), scfg)
        identical &= bool(np.array_equal(c_net, rep.c_star))
    elapsed = time.monotonic() - t0
    report("C9 unrolled equals iterative", identical and elapsed < 30.0,
           f"10 instances bit-identical, {elapsed:.1f} s")


def test_c10_map_correspondence():
    t0 = time.monotonic()
    u_grid = np.linspace(-3.0, 3.0, 41)
    z_grid = np.geomspace(0.02, 6.0, 41)
    agreements = 0
    settings = [(1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (2.0, 2.0), (1.5, 0.7)]
    for sigma, mu in settings:
        model = SensingModel(np.array([[1.0]]))
        y = np.array([0.8])
        p = CovarianceParam.scaled_identity(1, 1.0)
        rep = map_equivalence_check(model, y, p,
                                    ScaleRegularizer.log_squared(mu),
                                    u_grid, z_grid, sigma=sigma)
        agreements += int(rep.agree and not rep.boundary_warning)
    elapsed = time.monotonic() - t0
    report("C10 MAP correspondence", agreements == len(settings)
           and elapsed < 30.0,
           f"{agreements}/{len(settings)} settings agree, {elapsed:.1f} s")


# the README run.cfg with 3 angles: m = 36 < n = 64, the paper's regime
C11_CFG = """
sensing.kind = radon
sensing.side = 8
sensing.angles = 3
data.source = synthetic
data.samples = 20
data.snr_db = 60
reg.kind = logsq
reg.mu = 0.05
solver.K = 50
solver.J = 3
zstep.method = ista
net.K = 2
net.J = 2
net.depth = 2
net.channels = 8,1
train.lr = 0.002
train.epochs = 100
"""


def test_c11_trained_network_beats_the_solver(tmp_path, capsys):
    t0 = time.monotonic()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(C11_CFG)

    def cli(command, *args):
        assert main([command, "--config", str(cfg), *args]) == 0, command

    def mean_psnr(out):
        lines = (tmp_path / out / "metrics.csv").read_text().splitlines()
        col = lines[0].split(",").index("psnr")
        return float(np.mean([float(line.split(",")[col]) for line in lines[1:]]))

    cli("gen-data", "--seed", "1", "--out", str(tmp_path / "train_ds"))
    cli("gen-data", "--seed", "2", "--out", str(tmp_path / "test_ds"))
    # no --seed: train.seed keeps its default 0
    cli("train", "--dataset", str(tmp_path / "train_ds"),
        "--out", str(tmp_path / "ckpt"))
    cli("eval", "--dataset", str(tmp_path / "test_ds"),
        "--checkpoint", str(tmp_path / "ckpt"), "--out", str(tmp_path / "net"))
    cli("solve", "--dataset", str(tmp_path / "test_ds"),
        "--out", str(tmp_path / "gcgls"), "--repro")
    capsys.readouterr()
    net, solver = mean_psnr("net"), mean_psnr("gcgls")
    elapsed = time.monotonic() - t0
    report("C11 trained network beats G-CG-LS", net > solver,
           f"held-out PSNR {net:.2f} dB against {solver:.2f} dB on Radon "
           f"8x8/3, {elapsed:.1f} s")
