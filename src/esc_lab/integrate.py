"""Fixed-step classical Runge-Kutta integration with trajectory recording.

The closed loop is persistently oscillatory (the dither never settles), so an
adaptive controller would thrash; a fixed step chosen from the dither period
is predictable and testable. The CLI picks h by two rules: ``h <= T / (40 *
r_max)`` (``DitherConfig.max_step``), at least 40 samples of the fastest
dither harmonic per period; and,
for the filters, ``h <= 2.5 / max(omega_l, omega_xi)`` (``cli._gain_step``),
inside RK4's real-axis stability limit of 2.785.

The state may carry leading batch axes: a state of shape (B, d) steps B
independent systems in lockstep through one loop, sharing t and h. The loop
holds the state as B member rows, each a list of d Python floats, and calls
``rhs(t, rows) -> rows`` with rows of the same layout. The bundled configs
and benchmark workloads step B <= 3 rows of d <= 5 floats, where a numpy
call's fixed cost exceeds its arithmetic, so the stages are float arithmetic
and the full loop's rhs calls numpy only to measure J (through
:func:`esc_lab.cost.row_form`: one power call for the quartic). The
trade-off is wide batches: per member-step on the quartic loop, the row loop
took 43 us at B = 1 and 14 us at B = 3 where a numpy loop over (B, d) arrays
took 120 and 47 us, but 8.7 and 9.5 us at B = 16 and 64 where the numpy loop
took 9.2 and 2.1 us
(``benchmarks/bench_layers.py`` on a shared 2-vCPU x86 host;
``BENCH_rowcost.json`` against ``BENCH_baseline.json``).

Each member's samples equal those of its own (d,) run bit for bit whenever the
rhs treats rows independently. The full-loop closures do for every cost that
evaluates each point on its own, which every builtin and parsed cost does, and
the average-system closure steps one row at a time. ``simulate`` mode runs its
washout seeds this way; the other modes run a single state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import isfinite
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["Trajectory", "NonFiniteStateError", "integrate_fixed", "nonneg", "fit_step",
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
        self.name = name


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one integration run."""

    times: np.ndarray           # (m,), the recorded times
    states: np.ndarray          # (m, d), or (m, *batch, d) for a batched run
    clamp_events: int = 0       # steps on which the nonnegativity clamp fired, summed over members

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")


def nonneg(x: float) -> float:
    """``x`` clamped to >= 0 as ``np.maximum(x, 0.0)`` does: -0.0 becomes +0.0, NaN stays."""
    return 0.0 if x <= 0.0 else x


def fit_step(sample_dt: float, h_max: float) -> tuple[float, int]:
    """Largest step h <= h_max that divides ``sample_dt`` evenly, and its stride.

    Recorded times then land exactly on multiples of ``sample_dt``.
    """
    stride = max(1, int(np.ceil(sample_dt / h_max - 1e-12)))
    return sample_dt / stride, stride


def step_grid(t0: float, t1: float, h: float, record_stride: int) -> tuple[int, int]:
    """Validate a fixed-step span; returns (RK4 steps, recorded samples).

    Rejects an h whose step count (t1 - t0) / h is off an integer by more
    than 1e-9 per step: the last step then lands on t1 instead of stopping
    short of it or overshooting it.
    """
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError("time span must be finite")
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
    rhs: Callable[[float, list[list[float]]], list[list[float]]],
    state0,
    t0: float,
    t1: float,
    h: float,
    record_stride: int = 1,
    clamp_nonneg: Optional[Sequence[int]] = None,
) -> Trajectory:
    """Integrate ``rhs`` from t0 to t1 with classical RK4 steps of size h.

    ``state0`` has shape (d,) or (*batch, d); ``rhs(t, rows)`` maps a list of
    member rows (lists of d floats) to their derivatives in the same layout.
    States are recorded every ``record_stride`` steps plus the final state,
    with ``state0``'s shape. ``clamp_nonneg`` lists indices of the last axis
    clamped to >= 0 after each step (filter states that must stay in the
    nonnegative orthant): whenever a member is low, those columns of every
    member go through :func:`nonneg`. Aborts with
    :class:`NonFiniteStateError` as soon as any member leaves the finite floats.
    """
    nsteps, n_rec = step_grid(t0, t1, h, record_stride)
    y0 = np.array(state0, dtype=float, ndmin=1)
    shape = y0.shape
    y = y0.reshape(-1, shape[-1]).tolist()
    clamp = [] if clamp_nonneg is None else [int(c) for c in clamp_nonneg]

    times = np.empty(n_rec)
    states = np.empty((n_rec, len(y), shape[-1]))
    times[0] = t0
    states[0] = y
    rec = 1
    clamp_events = 0
    half, sixth = 0.5 * h, h / 6.0
    for j in range(nsteps):
        t = t0 + j * h
        k1 = rhs(t, y)
        k2 = rhs(t + half, [[a + half * b for a, b in zip(r, k)] for r, k in zip(y, k1)])
        k3 = rhs(t + half, [[a + half * b for a, b in zip(r, k)] for r, k in zip(y, k2)])
        k4 = rhs(t + h, [[a + h * b for a, b in zip(r, k)] for r, k in zip(y, k3)])
        y = [[a + sixth * (((p + 2.0 * q) + 2.0 * r) + s) for a, p, q, r, s in zip(*m)]
             for m in zip(y, k1, k2, k3, k4)]
        if clamp:
            low = {b for b, r in enumerate(y) for c in clamp if r[c] < 0.0}
            if low:
                for r in y:
                    for c in clamp:
                        r[c] = nonneg(r[c])
                clamp_events += len(low)
        t_next = t0 + (j + 1) * h
        if not all(map(isfinite, chain.from_iterable(y))):
            bad = next(b for b, r in enumerate(y) if not all(map(isfinite, r)))
            raise NonFiniteStateError(t_next, np.array(y).reshape(shape),
                                      None if len(shape) == 1 else bad)
        if (j + 1) % record_stride == 0 or j + 1 == nsteps:
            times[rec] = t_next
            states[rec] = y
            rec += 1

    return Trajectory(times=times, states=states.reshape(n_rec, *shape),
                      clamp_events=clamp_events)
