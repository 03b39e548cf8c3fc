"""Fixed-step classical Runge-Kutta integration with trajectory recording.

The closed loop is persistently oscillatory (the dither never settles), so an
adaptive controller would thrash; a fixed step chosen from the dither period
is predictable and testable. The CLI picks h by two rules: ``h <= T / (40 *
r_max)``, at least 40 samples of the fastest dither harmonic per period; and,
for the filters, ``h <= 2.5 / max(omega_l, omega_xi)`` (``cli._gain_step``),
inside RK4's real-axis stability limit of 2.785.

The state may carry leading batch axes: a state of shape (B, d) steps B
independent systems in lockstep through one loop, sharing t and h. Each
member's samples equal those of its own (d,) run bit for bit whenever the rhs
treats rows independently; the full-loop closures do, for every cost that
evaluates each point on its own (the two-channel builtin quadratic's
``einsum`` can round a point one ulp differently inside a batch of 3 or more).
``simulate`` mode runs its washout seeds this way; every other run is a
single (d,) state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["Trajectory", "NonFiniteStateError", "integrate_fixed", "fit_step", "oscillation_step",
           "step_grid"]


class NonFiniteStateError(RuntimeError):
    """Integration produced NaN/inf; carries the offending time and state.

    For a batched state, ``member`` is the flat index over the batch axes of
    the first member that is not finite, and the message shows that member's
    state under ``name`` (default "member <index>"); for a (d,) state it is None.
    """

    def __init__(self, t: float, state: np.ndarray, member: Optional[int] = None,
                 name: Optional[str] = None):
        shown, where = state, ""
        if member is not None:
            shown = state.reshape(-1, state.shape[-1])[member]
            where = f" of {name or f'member {member}'}"
        super().__init__(f"non-finite state{where} at t={t:.6g}: "
                         f"{np.array2string(shown, precision=6)}")
        self.t = t
        self.state = state
        self.member = member


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one integration run."""

    times: np.ndarray           # (m,), uniformly spaced by h * record_stride
    states: np.ndarray          # (m, d), or (m, *batch, d) for a batched run
    h: float
    record_stride: int
    clamp_events: int = 0       # steps on which the nonnegativity clamp fired, summed over members

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

    ``state0`` has shape (d,) or (*batch, d); ``rhs`` maps a state to a
    derivative of the same shape. States are recorded every ``record_stride``
    steps plus the final state. ``clamp_nonneg`` lists indices of the last
    axis clamped to >= 0 after each step (filter states that must stay in the
    nonnegative orthant). Aborts with :class:`NonFiniteStateError` as soon as
    any member leaves the finite floats.
    """
    nsteps, n_rec = step_grid(t0, t1, h, record_stride)
    y = np.array(state0, dtype=float, ndmin=1)
    clamp = None if clamp_nonneg is None else np.asarray(clamp_nonneg, dtype=int)

    times = np.empty(n_rec)
    states = np.empty((n_rec, *y.shape))
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
        if clamp is not None:
            low = y[..., clamp] < 0.0
            if low.any():
                y[..., clamp] = np.maximum(y[..., clamp], 0.0)
                clamp_events += int(np.count_nonzero(low.any(axis=-1)))
        t_next = t0 + (j + 1) * h
        if not np.isfinite(y).all():
            finite = np.isfinite(y).reshape(-1, y.shape[-1]).all(axis=-1)
            raise NonFiniteStateError(t_next, y, None if y.ndim == 1 else int(np.argmin(finite)))
        if (j + 1) % record_stride == 0 or j + 1 == nsteps:
            times[rec] = t_next
            states[rec] = y
            rec += 1

    return Trajectory(times=times, states=states, h=h, record_stride=record_stride,
                      clamp_events=clamp_events)
