"""Trajectory drivers for the closed loop, its baseline, and the average system.

Each driver picks between two equivalent paths:

* compiled kernels (:mod:`esc_lab._kernels`) when the cost is a builtin
  family and numba is enabled, and
* the generic numpy path (RK4 in :mod:`esc_lab.integrate` over the flat rhs
  closures of :mod:`esc_lab.dynamics` and :mod:`esc_lab.averaging`), which
  also handles parsed/user-defined costs.

Both paths validate the time span with :func:`esc_lab.integrate.step_grid`
and the average system reads its node tables from one
:class:`esc_lab.averaging.PeriodQuadrature`. ``force_path="numpy"`` /
``"kernel"`` pins a path explicitly (tests and benchmarks); the default
follows ``ESC_LAB_NUMBA``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _kernels
from .averaging import PeriodQuadrature, average_flat_rhs
from .cost import CostFunction
from .dynamics import EscParams, gesc_flat_rhs, rmspesc_flat_rhs
from .integrate import NonFiniteStateError, Trajectory, integrate_fixed, step_grid
from .signals import DitherConfig

__all__ = ["simulate_rmspesc", "simulate_gesc", "simulate_average"]


def _resolve_path(cost: CostFunction, force_path: Optional[str]) -> str:
    if force_path not in (None, "numpy", "kernel"):
        raise ValueError("force_path must be None, 'numpy', or 'kernel'")
    if force_path == "kernel":
        if cost.kernel is None:
            raise ValueError("no compiled kernel parameterization for this cost")
        return "kernel"
    if force_path == "numpy":
        return "numpy"
    if cost.kernel is not None and _kernels.numba_enabled():
        return "kernel"
    return "numpy"


def _run_kernel(loop, args, t0, t1, h, label, stride, dim):
    nsteps, n_rec = step_grid(t0, t1, h, stride)
    times = np.empty(n_rec)
    states = np.empty((n_rec, dim))
    fail_state = np.empty(dim)
    clamp_events, fail_step = loop(*args, float(t0), float(h), nsteps, int(stride),
                                   times, states, fail_state)
    if fail_step >= 0:
        raise NonFiniteStateError(t0 + fail_step * h, fail_state)
    return Trajectory(
        times=times,
        states=states,
        h=h,
        record_stride=stride,
        label=label,
        clamp_events=int(clamp_events),
    )


def simulate_rmspesc(
    cost: CostFunction,
    dither: DitherConfig,
    params: EscParams,
    state0,
    t0: float,
    t1: float,
    h: float,
    record_stride: int = 1,
    force_path: Optional[str] = None,
) -> Trajectory:
    """Integrate the RMSp loop from a flat state [theta (n), v (n), xi]."""
    state0 = np.asarray(state0, dtype=float).ravel()
    n = params.n
    if state0.shape != (2 * n + 1,):
        raise ValueError(f"expected flat initial state of length {2 * n + 1}")
    path = _resolve_path(cost, force_path)
    if path == "numpy":
        return integrate_fixed(
            rmspesc_flat_rhs(params, cost, dither),
            state0, t0, t1, h, record_stride,
            clamp_nonneg=range(n, 2 * n),
            label="rmspesc",
        )
    ks = cost.kernel
    args = (
        ks.kind, ks.j_opt, ks.theta_star, ks.hmat,
        dither.amplitudes, dither.rates.astype(float), dither.omega,
        params.k, params.epsilon, params.omega_l, params.omega_xi,
        state0,
    )
    return _run_kernel(_kernels.rmsp_loop, args, t0, t1, h, "rmspesc", record_stride, 2 * n + 1)


def simulate_gesc(
    cost: CostFunction,
    dither: DitherConfig,
    params: EscParams,
    state0,
    t0: float,
    t1: float,
    h: float,
    record_stride: int = 1,
    force_path: Optional[str] = None,
) -> Trajectory:
    """Integrate the plain-gradient baseline from a flat state [theta (n), xi]."""
    state0 = np.asarray(state0, dtype=float).ravel()
    n = params.n
    if state0.shape != (n + 1,):
        raise ValueError(f"expected flat initial state of length {n + 1}")
    path = _resolve_path(cost, force_path)
    if path == "numpy":
        return integrate_fixed(
            gesc_flat_rhs(params, cost, dither),
            state0, t0, t1, h, record_stride,
            label="gesc",
        )
    ks = cost.kernel
    args = (
        ks.kind, ks.j_opt, ks.theta_star, ks.hmat,
        dither.amplitudes, dither.rates.astype(float), dither.omega,
        params.k, params.omega_xi,
        state0,
    )
    return _run_kernel(_kernels.gesc_loop, args, t0, t1, h, "gesc", record_stride, n + 1)


def simulate_average(
    cost: CostFunction,
    dither: DitherConfig,
    params: EscParams,
    state0,
    t0: float,
    t1: float,
    h: float,
    record_stride: int = 1,
    n_q: Optional[int] = None,
    force_path: Optional[str] = None,
) -> Trajectory:
    """Integrate the autonomous average system from [theta_bar, v_bar, xi_bar]."""
    state0 = np.asarray(state0, dtype=float).ravel()
    n = params.n
    if state0.shape != (2 * n + 1,):
        raise ValueError(f"expected flat initial state of length {2 * n + 1}")
    path = _resolve_path(cost, force_path)
    if path == "numpy":
        return integrate_fixed(
            average_flat_rhs(params, cost, dither, n_q),
            state0, t0, t1, h, record_stride,
            clamp_nonneg=range(n, 2 * n),
            label="average",
        )
    ks = cost.kernel
    quad = PeriodQuadrature(dither, n_q)
    quad.check(cost)
    args = (
        ks.kind, ks.j_opt, ks.theta_star, ks.hmat,
        np.ascontiguousarray(quad.s), quad.m,
        params.k, params.epsilon, params.omega_l, params.omega_xi,
        state0,
    )
    return _run_kernel(_kernels.avg_loop, args, t0, t1, h, "average", record_stride, 2 * n + 1)
