"""Operator-facing command surface.

Subcommands: gen-data, solve, train, eval, diagnose, param-count.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure, each with a one-line message.  Every subcommand takes --seed,
falling back to the CG_INVERT_SEED environment variable when unset.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields

# before NumPy loads: one BLAS thread, the bit contract's, unless exported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from . import config as cfgmod
from .data_metrics import (fingerprint, gen_dataset, load_dataset, psnr,
                           save_dataset, ssim)
from .drcgnet import forward, load_checkpoint, mae, param_count, save_checkpoint, train
from .errors import CgInvertError, ConfigError, DataError, NumericalError
from .gcgls import diagnostics, solve
from .imageio import write_pgm


def _fmt(x):
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CG_INVERT_SEED")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"CG_INVERT_SEED must be an integer, got {env!r}") from None


def _load_cfg(args):
    sets = list(args.set or [])
    seed = _resolve_seed(args)
    cfg = cfgmod.RunConfig.load(args.config, overrides=sets)
    if seed is not None:
        cfg.values["train.seed"] = seed
        cfg.values["data.seed"] = seed
    return cfg


def _load_run(args):
    """(config, sensing model, dataset) of a command that reads --dataset;
    a dataset made with or sized for another sensing model is a DataError."""
    cfg = _load_cfg(args)
    model = cfgmod.build_model(cfg)
    ds = load_dataset(args.dataset)
    fp = fingerprint(model.fingerprint_config())
    if fp != ds.model_fingerprint:
        raise DataError(
            f"dataset fingerprint {ds.model_fingerprint} does not match the "
            f"configured sensing model {fp}")
    if (ds.m, ds.n) != (model.m, model.n):
        raise DataError(f"dataset holds m={ds.m}, n={ds.n}; the configured sensing "
                        f"model has m={model.m}, n={model.n}")
    return cfg, model, ds


def _write_csv(path, header, rows):
    """Write the header line, then each row's values joined by commas."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _image_domain(model, c):
    return model.phi @ c if model.phi is not None else c


# -- subcommands -----------------------------------------------------------------

def cmd_gen_data(args):
    cfg = _load_cfg(args)
    if cfg.get("data.samples") < 1:
        raise ConfigError("data.samples must be >= 1")
    if cfg.get("data.seed") < 0:
        raise ConfigError("data.seed must be >= 0")
    if not cfg.get("data.snr_db") > -np.inf:
        raise ConfigError("data.snr_db must be a number or inf")
    model = cfgmod.build_model(cfg)
    ds = gen_dataset(cfg.get("data.source"), model, cfg.get("data.snr_db"),
                     cfg.get("data.samples"), cfg.get("data.seed"))
    save_dataset(ds, args.out)
    print(f"dataset {ds.dataset_fingerprint} ({len(ds)} samples) -> {args.out}")
    return 0


def _solve_one(i, pair, model, p, r, scfg, out_dir, repro):
    y, c_true = pair
    t0 = time.perf_counter()
    rep = solve(model, y, p, r, scfg)
    seconds = 0.0 if repro else time.perf_counter() - t0
    s_hat = _image_domain(model, rep.c_star)
    s_true = _image_domain(model, c_true)
    side = model.side
    write_pgm(os.path.join(out_dir, f"c_{i}.pgm"),
              np.clip(s_hat, 0.0, 1.0).reshape(side, side))
    rep.c_star.astype("<f8").tofile(os.path.join(out_dir, f"c_{i}.f64"))
    _write_csv(os.path.join(out_dir, f"trace_{i}.csv"),
               "iter,block,F,step_norm,eta",
               [(it, t.block, t.f_value, t.step_norm, t.eta)
                for it, t in enumerate(rep.state.trace)])
    return (i, psnr(s_hat, s_true), ssim(s_hat, s_true), rep.f_final,
            rep.stationarity_u, rep.stationarity_z.absolute, rep.iterations,
            seconds)


def cmd_solve(args):
    cfg, model, ds = _load_run(args)
    p, r, scfg = cfgmod.build_solver(cfg, model.n)
    os.makedirs(args.out, exist_ok=True)
    rows = [_solve_one(i, pair, model, p, r, scfg, args.out, args.repro)
            for i, pair in enumerate(ds.pairs)]
    _write_csv(os.path.join(args.out, "metrics.csv"),
               "id,psnr,ssim,F_final,stationarity_u,stationarity_z,iters,seconds",
               rows)
    print(f"solved {len(ds)} samples -> {args.out}/metrics.csv")
    return 0


def _split_validation(ds, fraction):
    if fraction < 0.0:
        raise ConfigError(f"train.val_fraction must be >= 0, got {fraction!r}")
    if fraction == 0.0:
        return ds.pairs, None
    # a fraction of 1 or more, inf or NaN leaves nothing to train on
    n_val = max(1, int(round(fraction * len(ds)))) if fraction < 1.0 else len(ds)
    if n_val >= len(ds):
        raise ConfigError(f"train.val_fraction={fraction!r} leaves no training "
                          f"samples out of {len(ds)}")
    return ds.pairs[:-n_val], ds.pairs[-n_val:]


def cmd_train(args):
    cfg, model, ds = _load_run(args)
    net_cfg = cfgmod.build_net_config(cfg)
    train_cfg = cfgmod.build_train_config(cfg)
    params = cfgmod.build_init_params(cfg, net_cfg, model.n)
    train_pairs, val_pairs = _split_validation(ds, cfg.get("train.val_fraction"))
    if train_cfg.patience is not None and val_pairs is None:
        raise ConfigError("train.patience needs train.val_fraction > 0")

    params, history = train(train_pairs, model, net_cfg, train_cfg,
                            val_pairs=val_pairs, params=params)
    losses = {"train_mae": history["train_mae"], "val_mae": history["val_mae"]}
    save_checkpoint(args.out, params, train_cfg=train_cfg,
                    epoch=len(history["train_mae"]), losses=losses,
                    extra={"model_fingerprint": ds.model_fingerprint})
    val = history["val_mae"]
    _write_csv(os.path.join(args.out, "loss_history.csv"),
               "epoch,train_mae,val_mae",
               [(e, tm, val[e] if e < len(val) else "")
                for e, tm in enumerate(history["train_mae"])])
    print(f"trained {len(history['train_mae'])} epochs; last epoch's mean batch "
          f"MAE {history['train_mae'][-1]:.6g} -> {args.out}")
    return 0


def cmd_eval(args):
    cfg, model, ds = _load_run(args)
    params, _ = load_checkpoint(args.checkpoint)
    net_cfg = cfgmod.build_net_config(cfg)
    if params.cfg != net_cfg:
        mismatched = [f.name for f in fields(net_cfg)
                      if getattr(params.cfg, f.name) != getattr(net_cfg, f.name)]
        raise ConfigError(
            f"checkpoint network config does not match: {', '.join(mismatched)}")
    if params.n != model.n:
        raise ConfigError(f"checkpoint is for signals of size n={params.n}, "
                          f"the operator has n={model.n}")
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for i, (y, c_true) in enumerate(ds.pairs):
        c_hat, _ = forward(y, model, params, want_tape=False)
        if not np.isfinite(c_hat).all():
            raise NumericalError(f"network output for sample {i} is not finite")
        s_hat = _image_domain(model, c_hat)
        s_true = _image_domain(model, c_true)
        rows.append((i, psnr(s_hat, s_true), ssim(s_hat, s_true),
                     mae(c_hat, c_true)))
    _write_csv(os.path.join(args.out, "metrics.csv"), "id,psnr,ssim,mae", rows)
    avg_mae = float(np.mean([row[-1] for row in rows]))
    print(f"eval MAE {avg_mae!r} over {len(rows)} samples -> {args.out}/metrics.csv")
    return 0


def cmd_diagnose(args):
    cfg, model, ds = _load_run(args)
    p, r, scfg = cfgmod.build_solver(cfg, model.n)
    if not 0 <= args.index < len(ds):
        raise ConfigError(f"--index {args.index} is outside [0, {len(ds)})")
    y, _ = ds.pairs[args.index]
    text = json.dumps(diagnostics(solve(model, y, p, r, scfg)), indent=1,
                      sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_param_count(args):
    cfg = _load_cfg(args)
    net_cfg = cfgmod.build_net_config(cfg)
    print(param_count(net_cfg, cfgmod.signal_size(cfg)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cginvert",
        description="Compound-Gaussian solvers for linear inverse problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=False, default=None)
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a configuration value")
        sp.add_argument("--seed", type=int, default=None,
                        help="train and data seed (fallback: CG_INVERT_SEED)")

    sp = sub.add_parser("gen-data", help="synthesize a measurement dataset")
    add_common(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("solve", help="run the iterative solver over a dataset")
    add_common(sp)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--repro", action="store_true",
                    help="write zero seconds for byte-stable outputs")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("train", help="train the unrolled network")
    add_common(sp)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint over a dataset")
    add_common(sp)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("diagnose", help="convergence diagnostics for one sample")
    add_common(sp)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser("param-count", help="print the learnable parameter count")
    add_common(sp)
    sp.set_defaults(func=cmd_param_count)

    args = parser.parse_args(argv)
    try:
        # every numerical failure has an explicit finite check, so NumPy's
        # floating-point warnings would only precede its one-line message
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output the command cannot create or write
        print(f"config error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except CgInvertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
