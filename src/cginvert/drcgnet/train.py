"""Deterministic training of the unrolled network on mean absolute error.

A train call, on one process or two, returning or raising, trains the
caller's NetParams in place: Adam updates its vector params.flat, and the
batch gradient is a vector laid out the same way, into whose views each
sample's backward adds its one term per array, in fixed sample order.  No
shuffling: a fixed seed reproduces the loss history bit for bit.

Where the process may fork and use two CPUs and the whole call's work
(epochs x samples x one sample's conv and Cholesky multiply-adds, floored
for a small net's per-call overhead) clears _FORK_MACS (_forks), batches
run in halves on two processes.  Per batch, the main process sends a
worker process (_Worker), forked before the first batch and reading the
parameters from the memory it shares, the indices of the last floor(B/2)
samples in one message, computes the first ceil(B/2), and reads the
worker's loss terms back in one reply; only then does Adam write the
parameters the worker reads.  The worker writes each sample's gradient,
started from zeros, to a slot of its own, and the main process adds the
slots in sample order to the batch gradient, which lies in the caller's
vector while the parameters lie in the worker's memory: as a sample's
backward adds one term to each array, that gives the serial sum's bits, so
histories, gradients and checkpoints are the same as on one CPU.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import signal

import numpy as np

from ..errors import DivergenceError, NanLossError, WorkerError
from .network import backward, forward
from .params import init_params

__all__ = ["Adam", "mae", "train", "evaluate_mae"]

# A train call forks a worker from this much work on: epochs x samples x one
# sample's forward multiply-adds (_sample_macs), a sample counting at least
# 1M.  The fork, the worker's first page faults and the join cost 10-15 ms
# per call.  Whole calls on two CPUs with one BLAS thread took, against the
# serial time: one epoch of 4 samples in batches of 2 of 8x8 nets of 3-12M
# per sample, 1.01x at 13.4M in all, 1.39x at 17.7M and 0.97x at 48.4M; the
# same nets on 20 samples in one batch, 0.69-0.79x; and 20 samples of the
# README run.cfg net (0.31M, counted 1M) in one batch, 0.98x for one epoch,
# 0.82x for two and 0.73-0.83x for 3 to 10.  The paper configuration does
# 1.18G per sample (744M of it conv); the README net on Radon 32x32/15,
# 329M, and its one-epoch calls on 4 samples in batches of 2 took 0.090 s
# with the worker against 0.144 s serial (medians of 12).
_FORK_MACS = 30_000_000
# CPUs this process may run on (sched_getaffinity is Linux-only); the gate
# assumes one BLAS thread per process, the CLI's default
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


class Adam:
    """Adaptive-moment optimizer over one parameter vector."""

    def __init__(self, lr, beta1, beta2, eps):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = self.v = 0.0  # vectors from the first step on
        self.t = 0

    def step(self, params, grad):
        """Update the vector params in place from its gradient grad."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * (grad * grad)
        denom = np.sqrt(self.v / bc2) + self.eps
        params -= self.lr * (self.m / bc1) / denom


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


def _sample_macs(cfg, m, n):
    """Multiply-adds of one sample's forward: its conv stacks, and r^3/3
    for the Cholesky factor of each exact Tikhonov block, r = min(m, n)."""
    f = cfg.layer_channels()
    stacks = cfg.K * cfg.J + cfg.refine
    convs = stacks * n * cfg.kernel ** 2 * sum(a * b for a, b in zip(f, f[1:]))
    factors = cfg.K + 1 if cfg.u_mode == "exact" else 0
    return convs + factors * min(m, n) ** 3 // 3


def _forks(cfg, m, n, epochs, samples):
    """Whether a call of `epochs` epochs over `samples` samples pays for a
    worker process: the process may fork and use two CPUs, and the call's
    work clears the floor.  A sample counts as at least 1M multiply-adds:
    a small net's time goes to NumPy's per-call overhead, which its
    multiply-adds leave out."""
    work = epochs * samples * max(_sample_macs(cfg, m, n), 1_000_000)
    return hasattr(os, "fork") and _CPUS > 1 and work >= _FORK_MACS


def _serve(conn, parent_end, pairs, model, params, mapped, slots):
    """The worker's loop: compute the samples each message names, at the
    shared parameters mapped, each into its own slot, until the pipe
    closes.  The parent stops the worker; ^C is the parent's to handle."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()
    params.bind(mapped)
    grads = [params.views(slot) for slot in slots]
    while True:
        try:
            todo, inv = conn.recv()
        except EOFError:
            return
        reply = []
        try:
            for idx, slot, grad in zip(todo, slots, grads):
                slot.fill(0.0)
                reply.append(_sample(pairs[idx], model, params, inv, grad))
        except Exception as exc:  # the parent raises it, as one process would
            reply = exc
        conn.send(reply)


class _Worker:
    """A forked process that computes part of each batch for train.

    It owns the memory it shares, one anonymous mapping: a copy of
    params.flat, to which both processes bind params once the fork has
    started and until close(), then n_slots gradient slots.  The worker
    writes each sample's gradient to its own slot; the pipe carries the
    samples' indices and scale there, and back their loss terms or the
    exception the first failing sample raised.  It is forked, not spawned,
    so it inherits the samples, the operator and params.
    """

    def __init__(self, pairs, model, params, n_slots):
        shared = mmap.mmap(-1, params.flat.nbytes * (n_slots + 1))
        mapped, *self.slots = np.frombuffer(shared).reshape(-1, params.flat.size)
        mapped[...] = params.flat
        self.conn, child_end = multiprocessing.Pipe()
        self.proc = multiprocessing.get_context("fork").Process(
            target=_serve, name="cginvert-train", daemon=True,
            args=(child_end, self.conn, pairs, model, params, mapped, self.slots))
        try:
            self.proc.start()
        except OSError as exc:
            raise WorkerError(f"cannot start a training worker process: "
                              f"{exc.strerror}") from None
        finally:
            child_end.close()
        self.params, self.flat = params, params.flat
        params.bind(mapped)

    def _died(self):
        self.proc.join(1.0)
        return WorkerError(f"training worker process {self.proc.pid} ended "
                           f"with exit code {self.proc.exitcode}")

    def submit(self, todo, inv):
        try:
            self.conn.send((todo, inv))
        except OSError:  # the worker has exited and closed its end
            raise self._died() from None

    def add_results(self, grad):
        """Wait for the submitted samples; add their gradients into the
        vector grad in sample order and return their loss terms."""
        try:
            losses = self.conn.recv()
        except EOFError:
            raise self._died() from None
        if isinstance(losses, Exception):
            raise losses
        for slot in self.slots[:len(losses)]:
            grad += slot
        return losses

    def close(self):
        """Stop and join the worker; params move back to the caller's vector."""
        self.proc.terminate()
        self.proc.join()
        self.conn.close()
        self.flat[...] = self.params.flat
        self.params.bind(self.flat)


def train(pairs, model, cfg_net, cfg_train, val_pairs=None, cov_init=0.1,
          params=None, callback=None):
    """Train on (y, c) pairs; returns (params, history dict).

    params (fresh from cfg_net and cfg_train.seed when None) are trained in
    place, through params.flat; their own cfg sets the network.
    history["train_mae"][e] is the mean per-sample MAE of epoch e's batches,
    each at the parameters before its update (at full batch, those after
    epoch e-1); history["val_mae"][e] is evaluated after epoch e's updates.
    With val_pairs and a patience setting, a copy of the best-validation
    parameters is kept and returned.
    """
    n = model.n
    if params is None:
        params = init_params(cfg_net, n, seed=cfg_train.seed, cov_init=cov_init)
    opt = Adam(cfg_train.lr, cfg_train.beta1, cfg_train.beta2, cfg_train.eps_adam)
    history = {"train_mae": [], "val_mae": []}
    best = (np.inf, None)
    since_best = 0
    # the first batch is the largest: the worker takes at most its last half
    most = len(next(_batches(len(pairs), cfg_train.batch), ())) // 2
    forks = most and _forks(params.cfg, model.m, n, cfg_train.epochs, len(pairs))
    worker = _Worker(pairs, model, params, most) if forks else None
    # the caller's vector, idle while the worker runs, holds the batch gradient
    grad = np.zeros_like(params.flat) if worker is None else worker.flat
    grads = params.views(grad)
    try:
        for epoch in range(cfg_train.epochs):
            epoch_loss = 0.0
            for batch in _batches(len(pairs), cfg_train.batch):
                grad.fill(0.0)
                loss = 0.0
                inv = 1.0 / (len(batch) * n)
                half = len(batch) // 2 if worker is not None else 0
                try:
                    if half:
                        worker.submit(list(batch[-half:]), inv)
                    for idx in batch[:len(batch) - half]:
                        loss += _sample(pairs[idx], model, params, inv, grads)
                    if half:
                        for term in worker.add_results(grad):
                            loss += term
                except (np.linalg.LinAlgError, DivergenceError) as exc:
                    # diverged parameters break the inner factorization, or
                    # an accelerated u-update, before the loss itself turns
                    # non-finite
                    raise NanLossError(f"solver breakdown at epoch {epoch}: "
                                       f"{exc}")
                if not np.isfinite(loss):
                    raise NanLossError(f"non-finite loss at epoch {epoch}")
                opt.step(params.flat, grad)
                if not np.isfinite(params.flat).all():
                    raise NanLossError(f"non-finite parameters after an update "
                                       f"at epoch {epoch}")
                epoch_loss += loss * len(batch)

            history["train_mae"].append(epoch_loss / len(pairs))
            if val_pairs is not None:
                try:
                    vm = evaluate_mae(val_pairs, model, params)
                except (np.linalg.LinAlgError, DivergenceError) as exc:
                    raise NanLossError(f"solver breakdown in validation after "
                                       f"epoch {epoch}: {exc}")
                history["val_mae"].append(vm)
                if cfg_train.patience is not None:
                    if vm < best[0]:
                        best = (vm, params.copy())
                        since_best = 0
                    else:
                        since_best += 1
                        if since_best > cfg_train.patience:
                            break
            if callback is not None:
                callback(epoch, history)
    finally:
        if worker is not None:
            worker.close()

    if cfg_train.patience is not None and best[1] is not None:
        return best[1], history
    return params, history
