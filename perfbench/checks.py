"""Correctness checks on the outputs of each benchmark operation.

Each check either recomputes the result with plain dense NumPy, apart from
the program under test, or tests a property the method must have.  A check
returns None when it passes and a one-line reason when it fails.
"""

from __future__ import annotations

import numpy as np

# the block solver guarantees a non-increasing cost; allow rounding only
MONOTONE_SLACK = 1e-12
COST_RTOL = 1e-10
NORMAL_EQ_RTOL = 1e-8


def cost_trace_fault(report):
    """The recorded cost never rises and ends below where it started."""
    f = np.array([t.f_value for t in report.state.trace])
    if not np.all(np.diff(f) <= MONOTONE_SLACK * abs(f[0])):
        return "cost trace rises"
    if not report.f_final < report.f_init:
        return f"no decrease: f_final {report.f_final!r} >= f_init {report.f_init!r}"
    return None


def joint_cost(a, y, u, z, lam, mu):
    """F(u, z) = 0.5||y - A(z*u)||^2 + 0.5 u^T u / lam + mu sum(log(z)^2)."""
    res = y - a @ (z * u)
    lg = np.log(z)
    return 0.5 * float(res @ res) + 0.5 * float(u @ u) / lam + mu * float(lg @ lg)


def final_cost_fault(report, a, y, lam, mu):
    """The reported f_final equals F(u, z) recomputed from the final iterate."""
    f_ref = joint_cost(a, y, report.state.u, report.state.z, lam, mu)
    if abs(f_ref - report.f_final) > COST_RTOL * abs(f_ref):
        return f"f_final {report.f_final!r} differs from recomputed F {f_ref!r}"
    return None


def normal_equations_fault(u, z, a, y, lam):
    """u solves (A_z^T A_z + I/lam) u = A_z^T y, solved directly n x n."""
    az = a * z[None, :]
    gram = az.T @ az
    gram[np.diag_indices_from(gram)] += 1.0 / lam
    u_ref = np.linalg.solve(gram, az.T @ y)
    err = np.linalg.norm(u - u_ref) / np.linalg.norm(u_ref)
    if not err <= NORMAL_EQ_RTOL:
        return f"u off the normal equations by {err:.1e} (relative)"
    return None


def solve_faults(report, a, y, lam, mu):
    """All checks on one block-solver report; returns the failed ones."""
    found = [cost_trace_fault(report),
             final_cost_fault(report, a, y, lam, mu),
             normal_equations_fault(report.state.u, report.state.z, a, y, lam)]
    return [f for f in found if f is not None]


def rademacher(values, rng):
    """A +-1 direction with the layout of a dict of parameter arrays."""
    return {k: np.where(rng.random(np.shape(v)) < 0.5, -1.0, 1.0)
            for k, v in values.items()}


def directional_fault(loss, values, grads, direction, steps, rtol):
    """<grads, direction> matches the central difference of loss along it.

    loss maps a dict of parameter arrays to a float; values is the point and
    grads the claimed gradient there.  The error is taken relative to
    sum |grads * direction|, the size of the terms of the claimed derivative,
    so that cancellation among them does not inflate it.  The network is
    piecewise smooth (ReLU), and a difference whose step crosses a kink is
    off; the next, smaller step of `steps` is tried before the check fails.
    """
    terms = [grads[k] * direction[k] for k in values]
    claimed = sum(float(np.sum(t)) for t in terms)
    scale = sum(float(np.sum(np.abs(t))) for t in terms)
    for h in steps:
        plus = {k: v + h * direction[k] for k, v in values.items()}
        minus = {k: v - h * direction[k] for k, v in values.items()}
        fd = (loss(plus) - loss(minus)) / (2.0 * h)
        err = abs(claimed - fd) / max(scale, 1e-300)
        if err <= rtol:
            return None
    return (f"directional derivative {claimed!r} vs finite difference {fd!r} "
            f"(error {err:.1e} of its term sum at step {h:g})")


def bit_identical_fault(net_out, solver_out):
    """The zero-kernel network reproduces the block solver bit for bit."""
    if not np.array_equal(net_out, solver_out):
        diff = float(np.max(np.abs(net_out - solver_out)))
        return f"network output differs from the solver by up to {diff:.1e}"
    return None


def param_count_fault(values, closed_form, expected):
    """The closed-form count, the stored sizes and the paper figure agree."""
    stored = sum(int(np.size(v)) for v in values.values())
    if not closed_form == stored == expected:
        return f"parameter count {closed_form} (formula) / {stored} (arrays), " \
               f"expected {expected}"
    return None


def differing_epochs(first, second):
    """Two trainings from one seed give bit-identical loss histories; returns
    the epochs of `first` whose entry `second` lacks or does not repeat."""
    return [e for e, loss in enumerate(first)
            if e >= len(second) or second[e] != loss]
