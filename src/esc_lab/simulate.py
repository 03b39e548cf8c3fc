"""Trajectory drivers for the closed loop, its baseline, and the average system.

Each driver checks the shape of the flat initial state and runs classical RK4
(:func:`esc_lab.integrate.integrate_fixed`) from t = 0 over the system's flat
rhs closure: :func:`esc_lab.dynamics.rmspesc_flat_rhs`,
:func:`esc_lab.dynamics.gesc_flat_rhs` or
:func:`esc_lab.averaging.average_flat_rhs`. The same path serves every cost,
builtin or parsed. ``integrate_fixed`` validates the time span with
:func:`esc_lab.integrate.step_grid`, and the average system reads its node
tables from one :class:`esc_lab.averaging.PeriodQuadrature` per run.

The closures follow the integrator's row contract, ``rhs(t, rows) -> rows``
over member rows of Python floats. Each of the three functions here takes a
(d,) initial state or a (B, d) batch of them and steps the members in
lockstep, one RK4 loop for all of them; ``simulate`` mode runs its washout
seeds this way. The row loop suits the B <= 3 of the bundled configs; see
:mod:`esc_lab.integrate` for the trade-off at wide batches.
"""

from __future__ import annotations

import numpy as np

from .averaging import average_flat_rhs
from .cost import CostFunction
from .dynamics import EscParams, gesc_flat_rhs, rmspesc_flat_rhs
from .integrate import Trajectory, integrate_fixed
from .signals import DitherConfig

__all__ = ["simulate_rmspesc", "simulate_gesc", "simulate_average"]


def _flat_state(state0, dim: int) -> np.ndarray:
    """A (d,) state or a (B, d) batch of them."""
    state0 = np.array(state0, dtype=float, ndmin=1)
    if state0.shape[-1] != dim or state0.ndim > 2:
        raise ValueError(f"expected flat initial state of length {dim}, got shape {state0.shape}")
    return state0


def simulate_rmspesc(
    cost: CostFunction,
    dither: DitherConfig,
    params: EscParams,
    state0,
    t1: float,
    h: float,
    record_stride: int = 1,
) -> Trajectory:
    """Integrate the RMSp loop from a flat state [theta (n), v (n), xi], or a (B, d) batch."""
    n = params.n
    state0 = _flat_state(state0, 2 * n + 1)
    return integrate_fixed(rmspesc_flat_rhs(params, cost, dither), state0, 0.0, t1, h,
                           record_stride, clamp_nonneg=range(n, 2 * n))


def simulate_gesc(
    cost: CostFunction,
    dither: DitherConfig,
    params: EscParams,
    state0,
    t1: float,
    h: float,
    record_stride: int = 1,
) -> Trajectory:
    """Integrate the plain-gradient baseline from a flat state [theta (n), xi], or a (B, d) batch."""
    state0 = _flat_state(state0, params.n + 1)
    return integrate_fixed(gesc_flat_rhs(params, cost, dither), state0, 0.0, t1, h, record_stride)


def simulate_average(
    cost: CostFunction,
    dither: DitherConfig,
    params: EscParams,
    state0,
    t1: float,
    h: float,
    record_stride: int = 1,
) -> Trajectory:
    """Integrate the average system from [theta_bar, v_bar, xi_bar], or a (B, d) batch."""
    n = params.n
    state0 = _flat_state(state0, 2 * n + 1)
    return integrate_fixed(average_flat_rhs(params, cost, dither), state0, 0.0, t1, h,
                           record_stride, clamp_nonneg=range(n, 2 * n))
