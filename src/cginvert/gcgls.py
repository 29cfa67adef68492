"""Block-coordinate solver alternating scale-variable descent steps with
Tikhonov updates of the Gaussian factor, plus convergence diagnostics.

Each outer iteration runs J descent steps in z (for fixed u) followed by one
minimization in u (exact solve or accelerated-gradient approximation).  The
cost trace is recorded after every block and asserted non-increasing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NonMonotoneCostError
from .regularizer import CGState, TraceRecord, cost
from .scale_step import (
    LinesearchConfig,
    StationarityResidual,
    ista_step,
    pgd_step,
    stationarity_residual,
)
from .tikhonov import NagdConfig, grad_u, tikhonov_nagd, tikhonov_solve

__all__ = [
    "SolverConfig",
    "SolveReport",
    "DiagnosticsSummary",
    "initial_scale",
    "solve",
    "diagnostics",
]

# floating-point slack allowed on the theoretically non-increasing cost trace;
# the guards are written so that a NaN cost fails them too
COST_INCREASE_TOL = 1e-10


@dataclass
class SolverConfig:
    """Settings for one solver run."""

    K: int = 50
    J: int = 3
    b: float = 10.0
    tikhonov_mode: str = "exact"       # "exact" | "nagd"
    nagd: NagdConfig = field(default_factory=NagdConfig)
    zstep_method: str = "pgd"          # "pgd" | "ista"
    linesearch: LinesearchConfig = field(default_factory=LinesearchConfig)
    stop_tol: float = 0.0
    max_wall: float | None = None
    eta_probe: float = 1.0

    def __post_init__(self):
        if self.K < 1 or self.J < 1:
            raise ValueError("K and J must be >= 1")
        if self.b <= 0:
            raise ValueError("init clamp bound b must be positive")
        if self.tikhonov_mode not in ("exact", "nagd"):
            raise ValueError(f"unknown tikhonov mode {self.tikhonov_mode!r}")
        if self.zstep_method not in ("pgd", "ista"):
            raise ValueError(f"unknown z-step method {self.zstep_method!r}")


@dataclass
class SolveReport:
    c_star: np.ndarray
    state: CGState
    converged: bool
    stop_reason: str
    f_init: float
    f_final: float
    stationarity_u: float
    stationarity_z: StationarityResidual
    iterations: int
    z0_lifted: int


def initial_scale(model, y, b):
    """Initial scale estimate: clamp of (A / ||A||_2)^T y onto [0, b]^n."""
    return np.clip(model.adjoint(y) / model.a_norm, 0.0, b)


def _margin_constant(method, ls, eta_used):
    if ls.mode == "backtrack":
        return ls.alpha
    if method == "ista":
        return 1.0 / (2.0 * eta_used)
    lip = ls.lipschitz_estimate
    if lip > 0.0:
        return max(1.0 / eta_used - lip / 2.0, 0.0)
    return 0.0  # no certified constant for fixed PGD without an L estimate


def _u_update(u_prev, z, model, y, p, cfg):
    if cfg.tikhonov_mode == "exact":
        return tikhonov_solve(z, model, y, p)
    return tikhonov_nagd(u_prev, z, model, y, p, cfg.nagd)


def solve(model, y, p, r, cfg):
    """Run the block-coordinate solver and return a SolveReport."""
    t_start = time.monotonic()
    step = pgd_step if cfg.zstep_method == "pgd" else ista_step

    z = initial_scale(model, y, cfg.b)
    lifted = 0
    if r.open_domain:
        mask = z < r.floor
        lifted = int(mask.sum())
        if lifted:
            z = np.where(mask, r.floor, z)
    u = _u_update(np.zeros(model.n), z, model, y, p, cfg)

    f_prev = cost(u, z, model, y, p, r)
    state = CGState(u=u, z=z, trace=[])
    state.trace.append(TraceRecord(0, "init", 0, 0, f_prev, float("nan"),
                                   float("nan"), 0.0, 0.0))
    f_init = f_prev

    idx = 0
    stop_reason = "iterations"
    converged = False
    iterations = 0
    for k in range(1, cfg.K + 1):
        for j in range(1, cfg.J + 1):
            z_new, eta = step(state.z, state.u, model, y, r, cfg.linesearch)
            f_now = cost(state.u, z_new, model, y, p, r)
            if not (f_now <= f_prev + COST_INCREASE_TOL):
                raise NonMonotoneCostError(
                    f"cost rose by {f_now - f_prev:.3e} on z step k={k}, j={j}"
                )
            idx += 1
            state.trace.append(TraceRecord(
                idx, "z", k, j, f_now,
                float(np.linalg.norm(z_new - state.z)), eta,
                f_prev - f_now,
                _margin_constant(cfg.zstep_method, cfg.linesearch, eta),
            ))
            state.z = z_new
            f_prev = f_now

        u_new = _u_update(state.u, state.z, model, y, p, cfg)
        f_now = cost(u_new, state.z, model, y, p, r)
        if not (f_now <= f_prev + COST_INCREASE_TOL):
            raise NonMonotoneCostError(
                f"cost rose by {f_now - f_prev:.3e} on u step k={k}"
            )
        du = float(np.linalg.norm(u_new - state.u))
        idx += 1
        state.trace.append(TraceRecord(idx, "u", k, 0, f_now, du,
                                       float("nan"), f_prev - f_now, 0.0))
        state.u = u_new
        f_prev = f_now
        iterations = k

        # combined step norm over the whole outer iteration
        z_steps = [t.step_norm for t in state.trace[-(cfg.J + 1):-1]]
        combined = float(np.hypot(np.linalg.norm(z_steps), du))
        if cfg.stop_tol > 0.0 and combined < cfg.stop_tol:
            converged = True
            stop_reason = "tolerance"
            break
        if cfg.max_wall is not None and time.monotonic() - t_start > cfg.max_wall:
            stop_reason = "wall_clock"
            break

    stat_u = float(np.linalg.norm(grad_u(state.u, state.z, model, y, p)))
    stat_z = stationarity_residual(state.z, state.u, model, y, r,
                                   cfg.eta_probe, cfg.zstep_method)
    return SolveReport(
        c_star=state.z * state.u,
        state=state,
        converged=converged,
        stop_reason=stop_reason,
        f_init=f_init,
        f_final=f_prev,
        stationarity_u=stat_u,
        stationarity_z=stat_z,
        iterations=iterations,
        z0_lifted=lifted,
    )


@dataclass
class DiagnosticsSummary:
    z_records: list
    u_records: list
    margins: list          # decrease - c * ||dz||^2 per z step (>= -1e-10)
    final_grad_u_norm: float
    final_z_residual: StationarityResidual
    telescoping_lhs: float
    telescoping_rhs: float
    telescoping_holds: bool


def diagnostics(report):
    """Summarize per-step sufficient-decrease margins and descent bounds.

    The cumulative bound sums c_j * ||dz_j||^2 over all z steps and checks it
    never exceeds the total cost drop from the initial point.
    """
    zrec = [t for t in report.state.trace if t.block == "z"]
    urec = [t for t in report.state.trace if t.block == "u"]
    margins = [t.decrease - t.margin_c * t.step_norm ** 2 for t in zrec]
    lhs = float(sum(t.margin_c * t.step_norm ** 2 for t in zrec))
    rhs = report.f_init - report.f_final
    return DiagnosticsSummary(
        z_records=zrec,
        u_records=urec,
        margins=margins,
        final_grad_u_norm=report.stationarity_u,
        final_z_residual=report.stationarity_z,
        telescoping_lhs=lhs,
        telescoping_rhs=rhs,
        telescoping_holds=lhs <= rhs + 1e-8,
    )
