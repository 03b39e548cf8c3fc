"""Fixed-step classical Runge-Kutta integration with trajectory recording.

The closed loop is persistently oscillatory (the dither never settles), so an
adaptive controller would thrash; a fixed step chosen from the dither period
is predictable and testable. The CLI picks h by two rules: ``h <= T / (40 *
r_max)`` (``DitherConfig.max_step``), at least 40 samples of the fastest
dither harmonic per period; and,
for the filters, ``h <= 2.5 / max(omega_l, omega_xi)`` (``cli._gain_step``),
inside RK4's real-axis stability limit of 2.785.

There is one RK4 loop, and :func:`integrate` emits it as Python source once
per run, from a :class:`System`: a spec whose stage writes each state entry's
derivative as straight-line code over scalar floats, with the gains and
dither constants as literals. The emitted loop holds every entry of every
member in a local variable and writes each stage out in full, in the order
``((p + 2q) + 2r) + s`` at the times ``t0 + j*h``, ``+ h/2`` and ``+ h``, so
it builds no list per stage or step and appends each sample to ``array('d')``
records, which a :class:`Trajectory` reads as numpy arrays only when asked.
The bundled configs step B <= 3 members of d <= 5 entries, where one numpy
call costs more than a stage's arithmetic.
:func:`integrate` is the only way to run a system; :func:`derivative` emits
one stage of the same code as ``rhs(t, rows) -> rows``, for evaluating a
system's right-hand side at given states.

The state is one member of ``system.width`` entries, or a (B, width) batch
of B >= 1 members, which one loop steps in lockstep, sharing t and h. Each
member's samples equal those of its own (width,) run bit for bit whenever
the stage treats members independently, which every stage in
:mod:`esc_lab.dynamics` and :mod:`esc_lab.averaging` does. ``simulate``
mode runs its washout seeds this way; the other modes run a single state.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import ceil, inf, isfinite, nan, pow, prod, sin, sqrt
from typing import Callable, Optional

__all__ = ["Trajectory", "NonFiniteStateError", "ConvergenceError", "System", "integrate",
           "derivative", "fit_step", "step_grid"]


class NonFiniteStateError(RuntimeError):
    """Integration produced NaN/inf; carries the offending time and state.

    For a (B, d) batch, ``member`` is the index of the first member that is
    not finite, and the message shows that member's state under ``name``
    (default "member <index>"); for a (d,) state it is None.
    """

    def __init__(self, t: float, state, member: Optional[int] = None,
                 name: Optional[str] = None):
        import numpy as np
        shown, where = state, ""
        if member is not None:
            shown = state[member]
            where = f" of {name or f'member {member}'}"
        super().__init__(f"non-finite state{where} at t={t:.6g}: "
                         f"{np.array2string(shown, precision=6)}")
        self.t = t
        self.state = state
        self.member = member
        self.name = name


class ConvergenceError(RuntimeError):
    """Equilibrium search failed to reach the gradient tolerance.

    Raised by :func:`esc_lab.averaging.equilibrium`, which re-exports it; it is
    defined here, beside :class:`NonFiniteStateError`, so that the CLI can
    catch both runtime aborts without importing the averaging module.
    """


class _Samples:
    """A :class:`Trajectory` field: a run's record, read as a numpy array made without a copy."""

    def __set_name__(self, owner, name):
        self.name, self.array = name, f"_{name}"

    def __get__(self, traj, owner=None):
        if traj is None:
            raise AttributeError(self.name)           # a field without a default
        if self.array not in traj.__dict__:
            import numpy as np
            traj.__dict__[self.array] = np.asarray(traj.__dict__[self.name])
        return traj.__dict__[self.array]

    def __set__(self, traj, value):
        traj.__dict__[self.name] = value


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one integration run."""

    times: _Samples = _Samples()    # (m,), the recorded times
    states: _Samples = _Samples()   # (m, d), or (m, B, d) for a batched run
    clamp_events: int = 0       # steps on which the nonnegativity clamp fired, summed over members

    def __post_init__(self):
        if len(self.__dict__["times"]) != len(self.__dict__["states"]):
            raise ValueError("times and states must have equal length")

    def __getstate__(self):             # a memoryview does not pickle; its numpy array does
        return {"times": self.times, "states": self.states, "clamp_events": self.clamp_events}

    def columns(self, member: int = 0) -> list:
        """The times, then each state entry of ``member``, as sequences of floats, no numpy."""
        states = self.__dict__["states"]
        if isinstance(states, memoryview):
            times, flat = self.__dict__["times"], states.obj
        else:                                       # arrays a caller passed
            times, flat, states = self.times.tolist(), self.states.ravel().tolist(), self.states
        stride, width = prod(states.shape[1:]), states.shape[-1]
        return [times, *(flat[member * width + i :: stride] for i in range(width))]


def fit_step(sample_dt: float, h_max: float) -> tuple[float, int]:
    """Largest step h <= h_max that divides ``sample_dt`` evenly, and its stride.

    Recorded times then land exactly on multiples of ``sample_dt``.
    """
    stride = max(1, ceil(sample_dt / h_max - 1e-12))
    return sample_dt / stride, stride


def step_grid(t0: float, t1: float, h: float, record_stride: int) -> tuple[int, int]:
    """Validate a fixed-step span; returns (RK4 steps, recorded samples).

    Rejects an h whose step count (t1 - t0) / h is off an integer by more
    than 1e-9 per step: the last step then lands on t1 instead of stopping
    short of it or overshooting it.
    """
    if not (isfinite(t0) and isfinite(t1)):
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


# Names of the members' entries, names[b][i]. The emitted code's own names (y, z and
# k<s>_ per entry, ts, tj, half, ...) stay clear of the names stages use: x<i>, t<k>,
# xi, j<b>, e, g, v, g<i>, q<i>, jb and the phase's s<i>, a<i>, m<i>.
Names = list[list[str]]


@dataclass(frozen=True)
class System:
    """An ODE over member states of ``width`` floats, as code for :func:`integrate` to emit.

    ``stage(y, k)`` returns the lines that set each entry ``k[b][i]`` of member
    b's derivative from the names ``y[b]`` holding its state at the stage time
    ``ts``. They may read what the ``phase`` lines compute from ``ts`` (run once
    per distinct stage time) and the objects in ``names``. The ``clamp`` entries
    (filter states that must stay in the nonnegative orthant) are clamped after
    each step: whenever a member's is below zero, those entries of every member
    become ``0.0 if x <= 0.0 else x``, as ``np.maximum(x, 0.0)`` does, and each
    low member counts one clamp event.
    """

    width: int
    stage: Callable[[Names, Names], list[str]]
    phase: tuple[str, ...] = ()
    clamp: tuple[int, ...] = ()
    names: dict = field(default_factory=dict)


def _names(prefix: str, members: int, width: int) -> Names:
    return [[f"{prefix}{b}_{i}" for i in range(width)] for b in range(members)]


def _rows(names: Names) -> str:
    """``[a, b], [c, d]``: the members' names as list displays, or as unpacking targets."""
    return ", ".join("[" + ", ".join(row) + "]" for row in names)


def _compile(system: System, lines: list[str], name: str, **names):
    namespace = {"sin": sin, "sqrt": sqrt, "pow": pow, "inf": inf, "nan": nan,
                 **system.names, **names}
    exec(compile("\n".join(lines) + "\n", f"<{name}>", "exec"), namespace)
    return namespace[name]


def _loop(system: System, members: int) -> list[str]:
    """The source of ``loop(state0, start, h, nsteps, stride, times, states) -> clamp
    events``, which appends every ``stride``-th step and the last to the records."""
    y, z = _names("y", members, system.width), _names("z", members, system.width)
    k1, k2, k3, k4 = (_names(f"k{s}_", members, system.width) for s in range(1, 5))
    flat = [name for row in y for name in row]
    step = ["tj = start + step * h", "ts = tj", *system.phase, *system.stage(y, k1),
            "ts = tj + half", *system.phase]
    for k_in, k_out, scale in ((k1, k2, "half"), (k2, k3, "half"), (k3, k4, "h")):
        if k_out is k4:
            step += ["ts = tj + h", *system.phase]
        step += [f"{c} = {a} + {scale} * {b}"
                 for rows in zip(y, k_in, z) for a, b, c in zip(*rows)]
        step += system.stage(z, k_out)
    step += [f"{a} = {a} + sixth * ({p} + 2.0 * {q} + 2.0 * {r} + {s})"
             for rows in zip(y, k1, k2, k3, k4) for a, p, q, r, s in zip(*rows)]
    if system.clamp:
        low = [" or ".join(f"{row[c]} < 0.0" for c in system.clamp) for row in y]
        step += [f"if {' or '.join(low)}:",
                 "    events += " + " + ".join(f"({test})" for test in low),
                 *(f"    {row[c]} = 0.0 if {row[c]} <= 0.0 else {row[c]}"
                   for row in y for c in system.clamp)]
    state = ", ".join(flat) + ","
    step += ["done = step + 1",
             # not finite where an entry is not (or where the finite sum overflows)
             f"total = {' + '.join(flat)}",
             "if total - total != 0.0:",
             f"    nonfinite(start + done * h, ({state}))",
             "if done % stride == 0 or done == nsteps:",
             "    times.append(start + done * h)",
             f"    states.extend(({state}))"]
    return ["def loop(state0, start, h, nsteps, stride, times, states):",
            f"    {state} = state0",
            "    half, sixth, events = 0.5 * h, h / 6.0, 0",
            "    for step in range(nsteps):",
            *(f"        {line}" for line in step),
            "    return events"]


def integrate(system: System, state0, t0: float, t1: float, h: float,
              record_stride: int = 1) -> Trajectory:
    """Integrate ``system`` from t0 to t1 with classical RK4 steps of size h.

    ``state0`` has shape (width,) or (B, width) with B >= 1. States are
    recorded every ``record_stride`` steps plus the final state, with
    ``state0``'s shape. Aborts with :class:`NonFiniteStateError` as soon as any
    member leaves the finite floats.
    """
    nsteps, n_rec = step_grid(t0, t1, h, record_stride)
    shape, y0 = _shape(state0), []
    if 0 < len(shape) < 3 and shape[-1] == system.width and shape[0]:
        y0 = [float(x) for row in (state0 if len(shape) == 2 else [state0]) for x in row]
    if len(y0) != prod(shape) or not y0:
        raise ValueError(f"expected flat initial state of length {system.width}, "
                         f"got shape {shape}")

    def nonfinite(t, values):
        import numpy as np
        y = np.array(values).reshape(shape)
        finite = np.isfinite(y).all(axis=-1)
        if not finite.all():
            raise NonFiniteStateError(t, y, None if y.ndim == 1 else int(np.argmin(finite)))

    loop = _compile(system, _loop(system, len(y0) // system.width), "loop", nonfinite=nonfinite)
    times, states = array("d", [t0]), array("d", y0)
    events = loop(y0, t0, h, nsteps, record_stride, times, states)
    return Trajectory(times=times, states=memoryview(states).cast("B").cast("d", (n_rec, *shape)),
                      clamp_events=events)


def _shape(value) -> tuple[int, ...]:
    """``np.shape(value)`` of an array, a number or nested lists and tuples, without numpy."""
    if isinstance(value, (list, tuple)):
        return (len(value), *(_shape(value[0]) if value else ()))
    return tuple(getattr(value, "shape", ()))


def derivative(system: System) -> Callable[[float, list[list[float]]], list[list[float]]]:
    """``rhs(t, rows) -> rows``: one stage of ``system`` on member rows of floats, the code
    :func:`integrate` inlines, emitted on the first call with each row count."""
    built = {}

    def rhs(t, rows):
        members = len(rows)
        if members not in built:
            z = _names("z", members, system.width)
            k = _names("k", members, system.width)
            built[members] = _compile(system, [
                "def rhs(ts, rows):",
                f"    {_rows(z)}, = rows",
                *(f"    {line}" for line in (*system.phase, *system.stage(z, k))),
                f"    return [{_rows(k)}]"], "rhs")
        return built[members](t, rows)

    return rhs

