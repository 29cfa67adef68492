"""Deterministic training of the unrolled network on mean absolute error.

The batch gradient is the mean over samples, each sample's backward adding
its terms straight into the one batch dict in fixed sample order; no
shuffling, so a fixed seed reproduces the loss history bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import NanLossError
from .network import backward, forward
from .params import init_params

__all__ = ["Adam", "mae", "train", "evaluate_mae"]


class Adam:
    """Adaptive-moment optimizer over a dict of parameter arrays."""

    def __init__(self, lr, beta1, beta2, eps):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for key, val in params.items():
            g = grads[key]
            if key not in self.m:
                self.m[key] = np.zeros_like(val)
                self.v[key] = np.zeros_like(val)
            self.m[key] *= self.beta1
            self.m[key] += (1.0 - self.beta1) * g
            self.v[key] *= self.beta2
            self.v[key] += (1.0 - self.beta2) * (g * g)
            denom = np.sqrt(self.v[key] / bc2) + self.eps
            val -= self.lr * (self.m[key] / bc1) / denom


def mae(c_hat, c_true):
    """Per-sample mean absolute error (1/n) * ||c_hat - c_true||_1."""
    return float(np.abs(c_hat - c_true).sum()) / c_hat.size


def evaluate_mae(pairs, model, params):
    """Average MAE of the network over (y, c) pairs."""
    total = 0.0
    for y, c in pairs:
        c_hat, _ = forward(y, model, params, want_tape=False)
        total += mae(c_hat, c)
    return total / max(len(pairs), 1)


def _batches(n_samples, batch):
    size = n_samples if batch <= 0 else batch
    for start in range(0, n_samples, size):
        yield range(start, min(start + size, n_samples))


def train(pairs, model, cfg_net, cfg_train, val_pairs=None, cov_init=0.1,
          params=None, callback=None):
    """Train on (y, c) pairs; returns (params, history dict).

    history["train_mae"][e] is the mean per-sample MAE of epoch e's batches,
    each at the parameters before its update (at full batch, those after
    epoch e-1); history["val_mae"][e] is evaluated after epoch e's updates.
    With val_pairs and a patience setting, the best-validation parameters
    are kept and returned.
    """
    n = model.n
    if params is None:
        params = init_params(cfg_net, n, seed=cfg_train.seed, cov_init=cov_init)
    opt = Adam(cfg_train.lr, cfg_train.beta1, cfg_train.beta2, cfg_train.eps_adam)
    history = {"train_mae": [], "val_mae": []}
    best = (np.inf, None, -1)
    since_best = 0

    for epoch in range(cfg_train.epochs):
        epoch_loss = 0.0
        for batch in _batches(len(pairs), cfg_train.batch):
            grads = params.zero_grads()
            loss = 0.0
            inv = 1.0 / (len(batch) * n)

            def _dump():
                return {
                    "epoch": epoch,
                    "loss": loss,
                    "param_norms": {k: float(np.linalg.norm(v))
                                    for k, v in params.values.items()},
                }

            try:
                for idx in batch:
                    y, c = pairs[idx]
                    c_hat, tape = forward(y, model, params)
                    diff = c_hat - c
                    loss += np.abs(diff).sum() * inv
                    backward(tape, np.sign(diff) * inv, params, grads)
                    # free this sample's tape before the next forward builds one
                    del tape
            except np.linalg.LinAlgError as exc:
                # diverged parameters break the inner factorization before
                # the loss itself turns non-finite
                raise NanLossError(f"solver breakdown at epoch {epoch}: {exc}",
                                   dump=_dump())
            if not np.isfinite(loss):
                raise NanLossError(f"non-finite loss at epoch {epoch}",
                                   dump=_dump())
            opt.step(params.values, grads)
            if not all(np.isfinite(v).all() for v in params.values.values()):
                raise NanLossError(f"non-finite parameters after an update "
                                   f"at epoch {epoch}", dump=_dump())
            epoch_loss += loss * len(batch)

        history["train_mae"].append(epoch_loss / len(pairs))
        if val_pairs is not None:
            vm = evaluate_mae(val_pairs, model, params)
            history["val_mae"].append(vm)
            if cfg_train.patience is not None:
                if vm < best[0]:
                    best = (vm, params.copy(), epoch)
                    since_best = 0
                else:
                    since_best += 1
                    if since_best > cfg_train.patience:
                        break
        if callback is not None:
            callback(epoch, history)

    if cfg_train.patience is not None and best[1] is not None:
        return best[1], history
    return params, history
