"""Deterministic training of the unrolled network on mean absolute error.

The batch gradient is the mean over samples, each sample's backward adding
its terms straight into the one batch dict in fixed sample order; no
shuffling, so a fixed seed reproduces the loss history bit for bit.

Where the process may fork and use two CPUs and one sample's conv work
clears _FORK_MACS (_forks), a batch runs its samples in pairs on two
processes.  At the first batch of two or more samples, train forks one
worker process (_Worker); from then on the main process computes the first
sample of each pair as before while the worker computes the second, and a
lone last sample runs on the main process alone.  Pairs, rather than halves
of the batch, keep the worker to one gradient slot whatever the batch size.
The worker reads the parameters from a shared mirror that the main process
refills before each batch, and writes its sample's gradient, started from
zeros, to a shared slot; the main process then adds the slot into the batch
gradient.  Every array but the covariance's receives one term per sample,
so adding the slot gives the serial sum's bits; a covariance array receives
one term per Tikhonov block, so the worker sends those terms and the main
process adds them one at a time.  Loss histories, gradients and checkpoints
are thus the same bits as on one CPU.  While the worker lives, neither
process splits a conv layer across threads (conv.single_core), and it is
stopped and joined when train returns or raises, so no child outlives the
call.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import multiprocessing
import os
import signal

import numpy as np

from ..covariance import CovarianceParam
from ..errors import NanLossError, WorkerError
from . import conv
from .network import backward, forward
from .params import NetParams, init_params, param_count

__all__ = ["Adam", "mae", "train", "evaluate_mae"]

# A batch forks a worker from this many conv multiply-adds per sample
# forward (_conv_macs) on.  The fork, the worker's first page faults and the
# join cost 10-15 ms per train call.  One-epoch calls on 4 samples in
# batches of 2 (one BLAS thread, 8x8 and 16x16 images) lost or broke even
# with the worker up to 16M and took 0.75-0.95x the serial time from 19M to
# 63M; the paper configuration does 744M, the README run.cfg 46k.
_FORK_MACS = 30_000_000


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


def _sample(pair, model, params, inv, grads):
    """Add one sample's gradient of inv * ||c_hat - c||_1 into grads; return
    that loss term.  The sample's tape is freed on return."""
    y, c = pair
    c_hat, tape = forward(y, model, params)
    diff = c_hat - c
    backward(tape, np.sign(diff) * inv, params, grads)
    return np.abs(diff).sum() * inv


def _conv_macs(cfg, n):
    """Multiply-adds of the conv stacks in one sample's forward."""
    f = cfg.layer_channels()
    stacks = cfg.K * cfg.J + cfg.refine
    return stacks * n * cfg.kernel ** 2 * sum(a * b for a, b in zip(f, f[1:]))


def _replay_size(cfg, n):
    """Floats of the covariance terms one worker sample sends: one term per
    exact Tikhonov block, nagd_steps per accelerated one."""
    terms = (cfg.K + 1) * (1 if cfg.u_mode == "exact" else cfg.nagd_steps)
    shapes = CovarianceParam.array_shapes(cfg.cov_kind, n).values()
    return terms * sum(map(math.prod, shapes))


def _forks(cfg, n):
    """Whether a batch of two or more samples pays for a worker process: the
    process may fork and use two CPUs, a sample's conv work clears the
    floor, and its covariance terms are no larger than a gradient."""
    return (hasattr(os, "fork") and conv._CPUS > 1
            and _conv_macs(cfg, n) >= _FORK_MACS
            and _replay_size(cfg, n) <= param_count(cfg, n))


class _Terms(list):
    """Stands in for a covariance gradient in the worker: keeps each term
    added to it, in order."""

    def __iadd__(self, term):
        self.append(term)
        return self


def _views(flat, like):
    """(key, view) for each value of like, in order: a view of flat with the
    value's shape, the views laid out one after the other."""
    start = 0
    for key, val in like.items():
        yield key, flat[start:start + val.size].reshape(val.shape)
        start += val.size


def _serve(conn, parent_end, pairs, model, params, shared):
    """The worker's loop: compute each sample the pipe names until it
    closes.  The parent stops the worker; ^C is the parent's to handle."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()
    mirror, flat_slot = np.split(shared, 2)
    params = NetParams(params.cfg, params.n, dict(_views(mirror, params.values)))
    slot = dict(_views(flat_slot, params.values))
    cov_keys = CovarianceParam.array_shapes(params.cfg.cov_kind, params.n)
    while True:
        try:
            idx, inv = conn.recv()
        except EOFError:
            return
        flat_slot.fill(0.0)
        grads = {**slot, **{key: _Terms() for key in cov_keys}}
        try:
            loss = _sample(pairs[idx], model, params, inv, grads)
        except Exception as exc:  # the parent raises it, as one process would
            conn.send(exc)
        else:
            conn.send((loss, {key: grads[key] for key in cov_keys}))


class _Worker:
    """A forked process that computes one sample at a time for train.

    Shared memory holds a mirror of the parameters, which refresh() fills,
    and the slot the worker writes a sample's gradient to; the pipe carries
    the sample's index and scale there, and back its loss term and
    covariance terms, or the exception the sample raised.  It is forked,
    not spawned, so it inherits the samples and the operator unpickled; the
    one other thread the parent may have is conv's idle worker, which the
    child forgets (conv._forget_worker runs at fork) and whose lock it
    never takes.
    """

    def __init__(self, pairs, model, params):
        size = sum(v.size for v in params.values.values())
        shared = np.frombuffer(mmap.mmap(-1, 16 * size), dtype=np.float64)
        # the parent keeps the two flat halves, not 2 x len(values) views:
        # per-array views would raise its peak heap by about 30 kB
        self.mirror, self.slot = np.split(shared, 2)
        self.conn, child_end = multiprocessing.Pipe()
        self.proc = multiprocessing.get_context("fork").Process(
            target=_serve, name="cginvert-train", daemon=True,
            args=(child_end, self.conn, pairs, model, params, shared))
        try:
            self.proc.start()
        except OSError as exc:
            raise WorkerError(f"cannot start a training worker process: "
                              f"{exc.strerror}") from None
        finally:
            child_end.close()

    def _died(self):
        self.proc.join(1.0)
        return WorkerError(f"training worker process {self.proc.pid} ended "
                           f"with exit code {self.proc.exitcode}")

    def refresh(self, params):
        np.concatenate([v.ravel() for v in params.values.values()],
                       out=self.mirror)

    def submit(self, idx, inv):
        try:
            self.conn.send((idx, inv))
        except OSError:  # the worker has exited and closed its end
            raise self._died() from None

    def add_result(self, grads):
        """Wait for the submitted sample; add its gradient into grads, each
        covariance term on its own, and return its loss term."""
        try:
            msg = self.conn.recv()
        except EOFError:
            raise self._died() from None
        if isinstance(msg, Exception):
            raise msg
        loss, terms = msg
        # a covariance array takes the worker's terms one by one, any other
        # array the slot's one term
        for key, g in _views(self.slot, grads):
            for term in terms.get(key, (g,)):
                grads[key] += term
        return loss

    def close(self):
        """Stop the worker, whatever it is doing, and join it."""
        self.proc.terminate()
        self.proc.join()
        self.conn.close()


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
    forks = _forks(cfg_net, n)
    worker = None

    with contextlib.ExitStack() as stack:
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

                if worker is None and forks and len(batch) > 1:
                    # the child inherits the block, so neither process
                    # splits a conv layer while the worker lives
                    stack.enter_context(conv.single_core())
                    worker = _Worker(pairs, model, params)
                    stack.callback(worker.close)
                if worker is not None:
                    worker.refresh(params)
                todo = list(batch)
                try:
                    while todo:
                        if worker is not None and len(todo) > 1:
                            worker.submit(todo[1], inv)
                            loss += _sample(pairs[todo[0]], model, params, inv,
                                            grads)
                            loss += worker.add_result(grads)
                            del todo[:2]
                        else:
                            loss += _sample(pairs[todo.pop(0)], model, params,
                                            inv, grads)
                except np.linalg.LinAlgError as exc:
                    # diverged parameters break the inner factorization
                    # before the loss itself turns non-finite
                    raise NanLossError(f"solver breakdown at epoch {epoch}: "
                                       f"{exc}", dump=_dump())
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
