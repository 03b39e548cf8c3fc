"""Right-hand sides of the closed-loop seeking dynamics.

Two controllers share the washout filter xi (a first-order low-pass whose
output is subtracted from the measurement, removing the DC component of J
before demodulation):

* RMSp controller: each parameter channel divides its demodulated gradient
  estimate by a running root-mean-square of that estimate,
  ``d theta_i/dt = -k * g_i / (sqrt(v_i) + eps)``.
* Plain-gradient baseline: ``d theta_i/dt = -k * g_i`` (no per-channel
  normalization), kept on the same washout filter so comparisons isolate
  the normalization.

Flat state layout used by the integrator: ``[theta_hat (n), v_hat (n), xi]``
for the RMSp loop and ``[theta_hat (n), xi]`` for the baseline. Each loop is
a :class:`esc_lab.integrate.System` (:func:`rmspesc_system`,
:func:`gesc_system`): straight-line float code per member, with the gains
and the dither as literals, which :func:`esc_lab.integrate.integrate` inlines
into its one RK4 loop; ``derivative(rmspesc_system(params, cost, dither))``
evaluates one stage of the same code as ``rhs(t, rows) -> rows``.

A stage measures J at theta + a sin(omega r t) through the scalar form that
the cost's ``f`` carries (``f.scalar``, which
:func:`esc_lab.expressions.compile_expression` records, inlined per member).
Where those floats raise, and for an ``f`` without a scalar form, that
member's J comes from ``f`` at its point. So a replaced ``f`` is what the
loop measures. The dither phase comes from
``math.sin``, once per distinct stage time (RK4's two midpoint stages share
one). The outputs equal those of :func:`esc_lab.signals.dither_value`'s
``np.sin`` only while the two round alike: they do on the numpy builds and
CPUs the tests ran on, and
``tests/test_properties.py::test_phase_matches_dither_signals`` is the guard
for any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .cost import CostFunction, measure_lines
from .expressions import _floats, _literal
from .integrate import Names, System
from .signals import DitherConfig

__all__ = ["EscParams", "rmspesc_system", "gesc_system"]


@dataclass(frozen=True)
class EscParams:
    """Controller gains: step gain k, regularizer eps, low-pass gains, washout gain."""

    k: float
    epsilon: float
    omega_l: tuple[float, ...]
    omega_xi: float

    def __post_init__(self):
        wl = _floats(self.omega_l)
        object.__setattr__(self, "omega_l", wl)
        if not 0 < self.k < inf:
            raise ValueError("gain k must be positive and finite")
        if not 0 < self.epsilon < inf:
            raise ValueError("regularizer epsilon must be positive and finite")
        if not wl or not all(0 < w < inf for w in wl):
            raise ValueError("low-pass gains omega_l must be positive and finite")
        if not 0 < self.omega_xi < inf:
            raise ValueError("washout gain omega_xi must be positive and finite")

    @property
    def n(self) -> int:
        return len(self.omega_l)


def _check_dims(params: EscParams, cost: CostFunction, dither: DitherConfig) -> None:
    if not params.n == cost.n == dither.n:
        raise ValueError("dimension mismatch between gains, cost, and dither")


def _dither_phase(dither: DitherConfig) -> tuple[str, ...]:
    """Lines setting, per channel i, ``s<i>`` = sin(omega r_i ts), the dither shift ``a<i>``
    = a_i s<i> and the demodulation weight ``m<i>`` = (2 / a_i) s<i>."""
    columns = zip(range(dither.n), dither.rates, dither.amplitudes)
    return tuple(line for i, r, a in columns for line in (
        f"s{i} = sin({_literal(dither.omega * r)} * ts)", f"a{i} = {_literal(a)} * s{i}",
        f"m{i} = {_literal(2.0 / a)} * s{i}"))


def _measure(cost: CostFunction, y: Names) -> list[str]:
    """Lines setting ``j<b>`` to J at member b's theta, ``y[b][:n]``, shifted by the dither."""
    return [line for b, row in enumerate(y) for line in (
        *(f"x{i} = {row[i]} + a{i}" for i in range(cost.n)), *measure_lines(cost, f"j{b}"))]


def _normalized_rates(params: EscParams, row: list[str], out: list[str], i: int, g: str,
                      g2: str) -> list[str]:
    """Lines setting channel i's rates of theta and v: -k g / (sqrt(v) + eps) and
    omega_l (g2 - v), with v = ``row[n + i]`` clamped to >= 0 (integration round-off can
    leave it slightly negative) and g, g2 the gradient estimate and its square."""
    n, v = params.n, row[params.n + i]
    return [f"v = 0.0 if {v} <= 0.0 else {v}",
            f"{out[i]} = {_literal(-float(params.k))} * {g} / (sqrt(v) + "
            f"{_literal(float(params.epsilon))})",
            f"{out[n + i]} = {_literal(float(params.omega_l[i]))} * ({g2} - v)"]


def rmspesc_system(params: EscParams, cost: CostFunction, dither: DitherConfig) -> System:
    """The RMSp loop over [theta, v, xi]; the integrator clamps v to >= 0 after each step."""
    _check_dims(params, cost, dither)
    n, wxi = params.n, _literal(float(params.omega_xi))

    def stage(y, k):
        lines = _measure(cost, y)
        for b, (row, out) in enumerate(zip(y, k)):
            lines.append(f"e = j{b} - {row[2 * n]}")           # measurement less washout
            for i in range(n):
                lines += [f"g = m{i} * e", *_normalized_rates(params, row, out, i, "g", "g * g")]
            lines.append(f"{out[2 * n]} = {wxi} * e")
        return lines

    return System(2 * n + 1, stage, _dither_phase(dither), tuple(range(n, 2 * n)),
                  {"f": cost.f})


def gesc_system(params: EscParams, cost: CostFunction, dither: DitherConfig) -> System:
    """The plain-gradient baseline over [theta, xi]."""
    _check_dims(params, cost, dither)
    n = params.n
    neg_k, wxi = _literal(-float(params.k)), _literal(float(params.omega_xi))

    def stage(y, k):
        lines = _measure(cost, y)
        for b, (row, out) in enumerate(zip(y, k)):
            lines += [f"e = j{b} - {row[n]}",
                      *(f"{out[i]} = {neg_k} * (m{i} * e)" for i in range(n)), f"{out[n]} = {wxi} * e"]
        return lines

    return System(n + 1, stage, _dither_phase(dither), names={"f": cost.f})

