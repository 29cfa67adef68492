"""The four benchmark workloads: their inputs, operations and checks.

Every workload runs closed-loop in one process: one operation after the
other, each started when the previous one (and its correctness checks) has
finished.  Inputs come from the workload seed alone; the program receives
only the generated operator, data and parameters.
"""

from __future__ import annotations

import gc
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field, replace

import numpy as np

from cginvert import data_metrics, gcgls
from cginvert.covariance import CovarianceParam
from cginvert.drcgnet import (
    NetConfig,
    NetParams,
    TrainConfig,
    backward,
    forward,
    init_params,
    param_count,
    train,
)
from cginvert.errors import NumericalError
from cginvert.regularizer import ScaleRegularizer
from cginvert.scale_step import LinesearchConfig
from cginvert.sensing import build_radon

import checks

# the paper configuration's learnable-scalar count (criterion C1)
PAPER_PARAMS = 726350
SNR_DB = 60.0
# Radon solves: log-squared regularizer weight and covariance P = LAM * I
MU = 0.05
LAM = 1.0
# network covariance initial value, the CLI default for the Radon operator
COV_INIT = 0.1
# failures the program reports for an operation; they count it as failed
OP_ERRORS = (NumericalError, np.linalg.LinAlgError)


@dataclass
class Ops:
    """Outcome of the timed operations of one run."""

    times: list = field(default_factory=list)    # seconds, per operation
    faults: list = field(default_factory=list)   # failed checks, per operation

    @property
    def attempted(self):
        return len(self.faults)

    @property
    def failed(self):
        return sum(1 for f in self.faults if f)

    def record(self, seconds, faults):
        self.times.append(seconds)
        self.faults.append(list(faults))

    def passed_times(self):
        return [t for t, f in zip(self.times, self.faults) if not f]


# A fixed NumPy/Python kernel timed between operations.  On the 2-core VM the
# benchmark was built on, identical solves ran 0.29-0.46 s in speed phases
# lasting seconds to minutes, with CPU time ~0.99 of wall time; over 15 s
# windows the ratio of operation time to this kernel's time spread a quarter
# to four fifths as much as the operation time itself.  Reported times are
# scaled by CAL_REF_S over the run's median kernel time: seconds at the speed
# where the kernel takes CAL_REF_S (the fast phase of that machine).
CAL_REF_S = 0.005
CAL_REPS = 3


class Calibration:
    """Timings of the calibration kernel over one run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mat = rng.standard_normal((256, 256))
        self._vec = rng.standard_normal(100_000)
        self.times = []

    def sample(self):
        for _ in range(CAL_REPS):
            t0 = time.perf_counter()
            for _ in range(4):
                self._mat @ self._mat
            for _ in range(10):
                np.sqrt(self._vec * self._vec + 1.0)
            acc = 0
            for i in range(5000):
                acc += i * i
            self.times.append(time.perf_counter() - t0)

    def scale(self):
        """Factor from this run's wall seconds to reference seconds."""
        return CAL_REF_S / statistics.median(self.times)


def peak_mb(fn):
    """Peak heap traced by tracemalloc while fn runs, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


# -- block solver on the Radon operator ------------------------------------------

@dataclass(frozen=True)
class RadonSpec:
    """One gcgls.solve per sample; a round is one solve of every sample."""

    method: str                 # z-step: "pgd" | "ista"
    side: int = 32
    angles: int = 15
    samples: int = 8
    K: int = 10
    J: int = 3


class RadonSolve:
    def __init__(self, spec):
        self.spec = spec

    def setup(self, seed):
        """Operator, samples and solver settings, then one warm-up solve."""
        s = self.spec
        model = build_radon(s.side, s.angles)
        ds = data_metrics.gen_dataset("synthetic", model, SNR_DB, s.samples, seed)
        st = {
            "model": model,
            "ys": [y for y, _ in ds.pairs],
            "p": CovarianceParam.scaled_identity(model.n, LAM),
            "r": ScaleRegularizer.log_squared(MU),
            "cfg": gcgls.SolverConfig(K=s.K, J=s.J, zstep_method=s.method),
        }
        self._op(st, 0)
        return st

    def _op(self, st, i):
        return gcgls.solve(st["model"], st["ys"][i], st["p"], st["r"], st["cfg"])

    def run_faults(self, st):
        # the checks' own dense copy of the operator
        st["a"] = st["model"].psi.toarray()
        return []

    def faults(self, st, i, report):
        return checks.solve_faults(report, st["a"], st["ys"][i], LAM, MU)

    def peak_mb(self, st):
        return peak_mb(lambda: self._op(st, 0))

    def measure(self, st, seconds, tracer, cal):
        ops = Ops()
        start = time.perf_counter()
        while True:
            for i in range(len(st["ys"])):
                cal.sample()
                tracer.op = ops.attempted
                t0 = time.perf_counter()
                try:
                    report = self._op(st, i)
                except OP_ERRORS as exc:
                    ops.record(time.perf_counter() - t0, [str(exc)])
                    continue
                dt = time.perf_counter() - t0
                with tracer.paused():
                    ops.record(dt, self.faults(st, i, report))
            if time.perf_counter() - start >= seconds:
                return ops


# -- unrolled network training ------------------------------------------------------

@dataclass(frozen=True)
class NetSpec:
    """One training epoch per operation, on a fixed set of Radon samples."""

    side: int
    angles: int
    samples: int
    batch: int                  # 0 -> full batch
    lr: float
    net: NetConfig
    fd_steps: tuple             # finite-difference steps of the gradient check
    fd_rtol: float
    replay: bool                # retrain from the seed, compare histories
    # with a count: check it and the C9 bit-identity once per run, and the
    # count after every epoch
    expected_params: int | None = None


class _Stop(Exception):
    """Raised from the epoch callback once the run has measured enough."""


class NetTrain:
    def __init__(self, spec):
        self.spec = spec

    def _train_cfg(self, seed, epochs):
        return TrainConfig(lr=self.spec.lr, epochs=epochs, batch=self.spec.batch,
                           seed=seed)

    def _fresh(self, st):
        return init_params(self.spec.net, st["model"].n, seed=st["seed"],
                           cov_init=COV_INIT)

    def _train(self, st, params, epochs, callback=None):
        return train(st["pairs"], st["model"], self.spec.net,
                     self._train_cfg(st["seed"], epochs),
                     cov_init=COV_INIT, params=params, callback=callback)

    def setup(self, seed):
        """Operator, samples and initial parameters, then one warm-up epoch."""
        s = self.spec
        model = build_radon(s.side, s.angles)
        ds = data_metrics.gen_dataset("synthetic", model, SNR_DB, s.samples, seed)
        st = {"model": model, "pairs": ds.pairs, "seed": seed}
        st["params"] = self._fresh(st)
        self._train(st, st["params"].copy(), 1)
        return st

    def run_faults(self, st):
        """Draw the gradient-check inputs; run the once-per-run checks."""
        rng = np.random.default_rng(st["seed"])
        st["upstream"] = rng.standard_normal(st["model"].n)
        st["direction"] = checks.rademacher(st["params"].values, rng)
        if self.spec.expected_params is None:
            return []
        found = [self.count_fault(st["params"]), self.c9_fault(st)]
        return [f for f in found if f is not None]

    def count_fault(self, params):
        return checks.param_count_fault(
            params.values, param_count(self.spec.net, params.n),
            self.spec.expected_params)

    def c9_outputs(self, st):
        """Network with zeroed kernels, fixed steps, no norm clamp and no
        refinement, next to gcgls.solve with the matching settings."""
        model, y = st["model"], st["pairs"][0][0]
        cfg = replace(self.spec.net, gamma_max=np.inf, refine=False)
        params = init_params(cfg, model.n, seed=st["seed"], cov_init=COV_INIT)
        eta = 0.1 / model.a_norm ** 2
        for key, val in params.values.items():
            if key.startswith("w."):
                val[...] = 0.0
        params.values["delta"][...] = eta
        c_net, _ = forward(y, model, params, want_tape=False)
        scfg = gcgls.SolverConfig(
            K=cfg.K, J=cfg.J, b=cfg.b, tikhonov_mode="exact",
            zstep_method=cfg.variant,
            linesearch=LinesearchConfig(mode="fixed", eta=eta))
        report = gcgls.solve(model, y, params.cov(), ScaleRegularizer.zero(), scfg)
        return c_net, report.c_star

    def c9_fault(self, st):
        return checks.bit_identical_fault(*self.c9_outputs(st))

    def gradient_inputs(self, st, params):
        """(loss, claimed gradient) of <upstream, forward> at params."""
        model, y = st["model"], st["pairs"][0][0]
        g = st["upstream"]

        def loss(values):
            out, _ = forward(y, model, NetParams(params.cfg, params.n, values),
                             want_tape=False)
            return float(g @ out)

        _, tape = forward(y, model, params)
        return loss, backward(tape, g, params)

    def gradient_fault(self, st, params):
        loss, grads = self.gradient_inputs(st, params)
        return checks.directional_fault(loss, params.values, grads,
                                        st["direction"], self.spec.fd_steps,
                                        self.spec.fd_rtol)

    def epoch_faults(self, st, params, history):
        found = [None if np.isfinite(history["train_mae"][-1])
                 else "non-finite training loss",
                 self.gradient_fault(st, params)]
        if self.spec.expected_params is not None:
            found.append(self.count_fault(params))
        return [f for f in found if f is not None]

    def peak_mb(self, st):
        return peak_mb(lambda: self._train(st, st["params"].copy(), 1))

    def measure(self, st, seconds, tracer, cal):
        ops = Ops()
        params = st["params"].copy()
        losses = []
        start = time.perf_counter()
        mark = start

        def on_epoch(epoch, history):
            nonlocal mark
            dt = time.perf_counter() - mark
            # epochs last seconds: calibrate on both sides of each
            cal.sample()
            losses.append(history["train_mae"][-1])
            with tracer.paused():
                ops.record(dt, self.epoch_faults(st, params, history))
            tracer.op = ops.attempted
            if time.perf_counter() - start >= seconds:
                raise _Stop
            cal.sample()
            mark = time.perf_counter()

        tracer.op = 0
        cal.sample()
        mark = time.perf_counter()
        try:
            self._train(st, params, 10 ** 9, on_epoch)
        except _Stop:
            pass
        except OP_ERRORS as exc:
            ops.record(time.perf_counter() - mark, [str(exc)])
            return ops
        if self.spec.replay:
            with tracer.paused():
                for e in self.replay_mismatches(st, losses):
                    ops.faults[e].append(f"epoch {e}: loss differs on a second training")
        return ops

    def replay_mismatches(self, st, losses):
        """Train again from the same seed for as many epochs; return the
        epochs whose loss differs from `losses`."""
        try:
            _, history = self._train(st, st["params"].copy(), len(losses))
            replay = history["train_mae"]
        except OP_ERRORS:
            replay = []
        return checks.differing_epochs(losses, replay)


# -- the workload table ----------------------------------------------------------------

RADON_PGD = RadonSpec(method="pgd")
RADON_ISTA = RadonSpec(method="ista")
NET_PAPER = NetSpec(side=32, angles=15, samples=4, batch=2, lr=1e-4,
                    net=NetConfig(), replay=False, expected_params=PAPER_PARAMS,
                    # 3.4M ReLUs: the nearest kink can lie within 1e-8 of
                    # the point, and crossing one moves the difference by
                    # ~2e-5 of the term sum, while flipping the largest
                    # gradient entry moves it by >= 3e-4
                    fd_steps=(1e-9, 1e-10), fd_rtol=1e-4)
TRAIN_TOY = NetSpec(side=8, angles=6, samples=20, batch=0, lr=2e-3,
                    net=NetConfig(K=2, J=2, depth=2, channels=(8, 1)),
                    replay=True, fd_steps=(1e-8, 1e-9), fd_rtol=1e-5)

WORKLOADS = {
    "radon-pgd": lambda: RadonSolve(RADON_PGD),
    "radon-ista": lambda: RadonSolve(RADON_ISTA),
    "net-paper": lambda: NetTrain(NET_PAPER),
    "train-toy": lambda: NetTrain(TRAIN_TOY),
}
