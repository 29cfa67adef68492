"""Block-coordinate solver alternating scale-variable descent steps with
Tikhonov updates of the Gaussian factor, plus convergence diagnostics.

Each outer iteration runs J descent steps in z (for fixed u) followed by one
minimization in u (exact solve or accelerated-gradient approximation).  The
cost trace is recorded after every block and asserted non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NonMonotoneCostError
from .regularizer import cost
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
    "TraceRecord",
    "CGState",
    "SolveReport",
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

    def __post_init__(self):
        if self.K < 1 or self.J < 1:
            raise ValueError("K and J must be >= 1")
        if not self.b > 0:
            raise ValueError(f"init clamp bound b must be positive, got {self.b!r}")
        if self.tikhonov_mode not in ("exact", "nagd"):
            raise ValueError(f"unknown tikhonov mode {self.tikhonov_mode!r}")
        if self.zstep_method not in ("pgd", "ista"):
            raise ValueError(f"unknown z-step method {self.zstep_method!r}")
        if not self.stop_tol >= 0.0:
            raise ValueError(
                f"stop_tol must be >= 0 (0 turns the stop off), got {self.stop_tol!r}")


@dataclass
class TraceRecord:
    """One per-block record of the solver trace; its position in the trace
    is its index."""

    block: str           # "init" | "z" | "u"
    f_value: float
    step_norm: float
    eta: float
    decrease: float      # F before the block minus F after
    margin_c: float      # sufficient-decrease constant claimed for this step


@dataclass
class CGState:
    """The final iterate pair (u, z) plus the per-block trace."""

    u: np.ndarray
    z: np.ndarray
    trace: list


@dataclass
class SolveReport:
    c_star: np.ndarray
    state: CGState
    stop_reason: str         # "tolerance" | "iterations"
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
    return 0.0  # no certified constant for fixed PGD


def _u_update(u_prev, z, model, y, p, cfg):
    if cfg.tikhonov_mode == "exact":
        return tikhonov_solve(z, model, y, p)
    return tikhonov_nagd(u_prev, z, model, y, p, cfg.nagd)


def solve(model, y, p, r, cfg):
    """Run the block-coordinate solver and return a SolveReport; a
    non-finite y raises DataError."""
    if not np.isfinite(y).all():
        raise DataError("measurements y hold non-finite values")
    step = pgd_step if cfg.zstep_method == "pgd" else ista_step

    # entries of the clamp below R's floor (eps_z for logsq, 0 for zero) are lifted
    z = initial_scale(model, y, cfg.b)
    lifted = int((z < r.floor).sum())
    z = r.project(z)
    u = _u_update(np.zeros(model.n), z, model, y, p, cfg)

    # res = A(z*u) - y is formed once per iterate, for F and the next z-step
    res = model.apply(z * u) - y
    f = f_init = cost(u, z, model, y, p, r, res)
    trace = [TraceRecord("init", f, float("nan"), float("nan"), 0.0, 0.0)]
    stop_reason = "iterations"
    for k in range(1, cfg.K + 1):
        dz = []
        for j in range(1, cfg.J + 1):
            z_new, eta = step(z, u, model, y, r, cfg.linesearch, res)
            res = model.apply(z_new * u) - y
            f_now = cost(u, z_new, model, y, p, r, res)
            if not (f_now <= f + COST_INCREASE_TOL):
                raise NonMonotoneCostError(
                    f"cost rose by {f_now - f:.3e} on z step k={k}, j={j}"
                )
            dz.append(float(np.linalg.norm(z_new - z)))
            trace.append(TraceRecord(
                "z", f_now, dz[-1], eta, f - f_now,
                _margin_constant(cfg.zstep_method, cfg.linesearch, eta),
            ))
            z, f = z_new, f_now

        u_new = _u_update(u, z, model, y, p, cfg)
        res = model.apply(z * u_new) - y
        f_now = cost(u_new, z, model, y, p, r, res)
        if not (f_now <= f + COST_INCREASE_TOL):
            raise NonMonotoneCostError(
                f"cost rose by {f_now - f:.3e} on u step k={k}"
            )
        du = float(np.linalg.norm(u_new - u))
        trace.append(TraceRecord("u", f_now, du, float("nan"), f - f_now, 0.0))
        u, f = u_new, f_now

        # combined step norm over the whole outer iteration
        if cfg.stop_tol > 0.0 and np.hypot(np.linalg.norm(dz), du) < cfg.stop_tol:
            stop_reason = "tolerance"
            break

    return SolveReport(
        c_star=z * u,
        state=CGState(u=u, z=z, trace=trace),
        stop_reason=stop_reason,
        f_init=f_init,
        f_final=f,
        stationarity_u=float(np.linalg.norm(grad_u(u, z, model, y, p))),
        stationarity_z=stationarity_residual(z, u, model, y, r, 1.0, step),
        iterations=k,
        z0_lifted=lifted,
    )


def diagnostics(report):
    """The run's convergence record, as cginvert diagnose writes it.

    worst_margin is the least sufficient-decrease margin, decrease -
    c * ||dz||^2, over the z steps (None without z steps).  The telescoping
    bound sums c_j * ||dz_j||^2 over all z steps and checks it never exceeds
    the total cost drop from the initial point.
    """
    zrec = [t for t in report.state.trace if t.block == "z"]
    lhs = float(sum(t.margin_c * t.step_norm ** 2 for t in zrec))
    rhs = report.f_init - report.f_final
    return {
        "f_init": report.f_init,
        "f_final": report.f_final,
        "iterations": report.iterations,
        "final_grad_u_norm": report.stationarity_u,
        "final_z_residual_abs": report.stationarity_z.absolute,
        "final_z_residual_rel": report.stationarity_z.relative,
        "telescoping_lhs": lhs,
        "telescoping_rhs": rhs,
        "telescoping_holds": lhs <= rhs + 1e-8,
        "worst_margin": min((t.decrease - t.margin_c * t.step_norm ** 2
                             for t in zrec), default=None),
        "z_steps": len(zrec),
        "u_steps": sum(t.block == "u" for t in report.state.trace),
    }
