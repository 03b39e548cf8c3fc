"""Trajectory drivers for the closed loop, its baseline, and the average system.

Each driver runs classical RK4 (:func:`esc_lab.integrate.integrate`) from
t = 0 on its system's spec:
:func:`esc_lab.dynamics.rmspesc_system`, :func:`esc_lab.dynamics.gesc_system`
or :func:`esc_lab.averaging.average_system`. The integrator emits one
straight-line step loop per run from that spec, with the gains, the dither
and the cost's measurement inlined. The full loop measures J through the
scalar form its ``f`` carries, for every builtin and parsed cost; the average
system evaluates closed-form maps, built once per run, for a polynomial cost
within :data:`esc_lab.averaging.MAX_TERMS` terms, and the node sums of one
:class:`esc_lab.averaging.PeriodQuadrature` per run for any other. The
integrator checks the initial state's shape against the spec's width and
validates the time span with :func:`esc_lab.integrate.step_grid`.

Each of the three functions here takes a (d,) initial state or a (B, d)
batch of them and steps the members in lockstep, one loop for all of them;
``simulate`` mode runs its washout seeds this way.

:func:`simulate_average` imports :mod:`esc_lab.averaging` when it is first
called, so the full-loop drivers, and ``simulate`` mode, never load it.
"""

from __future__ import annotations

from .cost import CostFunction
from .dynamics import EscParams, gesc_system, rmspesc_system
from .integrate import Trajectory, integrate
from .signals import DitherConfig

__all__ = ["simulate_rmspesc", "simulate_gesc", "simulate_average"]


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
    return integrate(rmspesc_system(params, cost, dither), state0, 0.0, t1, h, record_stride)


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
    return integrate(gesc_system(params, cost, dither), state0, 0.0, t1, h, record_stride)


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
    from .averaging import average_system

    return integrate(average_system(params, cost, dither), state0, 0.0, t1, h, record_stride)
