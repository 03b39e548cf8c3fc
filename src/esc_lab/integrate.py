"""Fixed-step classical Runge-Kutta integration with trajectory recording.

The closed loop is persistently oscillatory (the dither never settles), so an
adaptive controller would thrash; a fixed step chosen from the dither period
is predictable and testable. Rule of thumb used by the drivers:
``h <= T / (40 * r_max)``, at least 40 samples of the fastest dither harmonic
per period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["Trajectory", "NonFiniteStateError", "integrate_fixed", "fit_step", "oscillation_step",
           "step_grid"]


class NonFiniteStateError(RuntimeError):
    """Integration produced NaN/inf; carries the offending time and state."""

    def __init__(self, t: float, state: np.ndarray):
        super().__init__(f"non-finite state at t={t:.6g}: {np.array2string(state, precision=6)}")
        self.t = t
        self.state = state


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one integration run."""

    times: np.ndarray           # (m,), uniformly spaced by h * record_stride
    states: np.ndarray          # (m, d)
    h: float
    record_stride: int
    clamp_events: int = 0       # steps on which the nonnegativity clamp fired

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")


def fit_step(sample_dt: float, h_max: float) -> tuple[float, int]:
    """Largest step h <= h_max that divides ``sample_dt`` evenly, and its stride.

    Recorded times then land exactly on multiples of ``sample_dt``.
    """
    stride = max(1, int(np.ceil(sample_dt / h_max - 1e-12)))
    return sample_dt / stride, stride


def oscillation_step(period: float, r_max: int, sample_dt: float) -> tuple[float, int]:
    """Step size and recording stride for an oscillatory loop: h <= period / (40 * r_max)."""
    return fit_step(sample_dt, period / (40.0 * r_max))


def step_grid(t0: float, t1: float, h: float, record_stride: int) -> tuple[int, int]:
    """Validate a fixed-step span; returns (RK4 steps, recorded samples).

    Rejects an h whose step count (t1 - t0) / h is off an integer by more
    than 1e-9 per step: the last step then lands on t1 instead of stopping
    short of it or overshooting it.
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    if not h > 0:
        raise ValueError("step size h must be positive")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    span = (t1 - t0) / h
    nsteps = int(round(span))
    if nsteps < 1:
        raise ValueError("time span shorter than one step")
    if abs(span - nsteps) > 1e-9 * nsteps:
        raise ValueError(f"step size h={h:.6g} does not divide the span [{t0:.6g}, {t1:.6g}]")
    return nsteps, 1 + nsteps // record_stride + (1 if nsteps % record_stride else 0)


def integrate_fixed(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    state0,
    t0: float,
    t1: float,
    h: float,
    record_stride: int = 1,
    clamp_nonneg: Optional[Sequence[int]] = None,
) -> Trajectory:
    """Integrate ``rhs`` from t0 to t1 with classical RK4 steps of size h.

    States are recorded every ``record_stride`` steps plus the final state.
    ``clamp_nonneg`` lists state indices clamped to >= 0 after each step
    (filter states that must stay in the nonnegative orthant). Aborts with
    :class:`NonFiniteStateError` if the state leaves the finite floats.
    """
    nsteps, n_rec = step_grid(t0, t1, h, record_stride)
    y = np.array(state0, dtype=float).ravel()
    clamp = None if clamp_nonneg is None else np.asarray(clamp_nonneg, dtype=int)

    times = np.empty(n_rec)
    states = np.empty((n_rec, y.size))
    times[0] = t0
    states[0] = y
    rec = 1
    clamp_events = 0
    for j in range(nsteps):
        t = t0 + j * h
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if clamp is not None and np.any(y[clamp] < 0.0):
            y[clamp] = np.maximum(y[clamp], 0.0)
            clamp_events += 1
        t_next = t0 + (j + 1) * h
        if not np.all(np.isfinite(y)):
            raise NonFiniteStateError(t_next, y)
        if (j + 1) % record_stride == 0 or j + 1 == nsteps:
            times[rec] = t_next
            states[rec] = y
            rec += 1

    return Trajectory(times=times, states=states, h=h, record_stride=record_stride,
                      clamp_events=clamp_events)
