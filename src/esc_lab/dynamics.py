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
for the RMSp loop and ``[theta_hat (n), xi]`` for the baseline. The closures
follow :func:`esc_lab.integrate.integrate_fixed`'s row contract: they map a
list of B member rows, each a list of d floats, to B derivative rows. Each
call makes one cost sweep over a (B, n) array of the members' measurement
points and does the per-channel arithmetic in floats; the dither phase comes
from ``np.sin`` once per distinct time (RK4's two midpoint stages share one).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .cost import CostFunction
from .integrate import nonneg
from .signals import DitherConfig

__all__ = ["EscParams", "rmspesc_flat_rhs", "gesc_flat_rhs"]


@dataclass(frozen=True)
class EscParams:
    """Controller gains: step gain k, regularizer eps, low-pass gains, washout gain."""

    k: float
    epsilon: float
    omega_l: np.ndarray
    omega_xi: float

    def __post_init__(self):
        wl = np.atleast_1d(np.asarray(self.omega_l, dtype=float))
        object.__setattr__(self, "omega_l", wl)
        if not self.k > 0:
            raise ValueError("gain k must be positive")
        if not self.epsilon > 0:
            raise ValueError("regularizer epsilon must be positive")
        if wl.ndim != 1 or wl.size < 1 or np.any(wl <= 0):
            raise ValueError("low-pass gains omega_l must be positive")
        if not self.omega_xi > 0:
            raise ValueError("washout gain omega_xi must be positive")
        wl.setflags(write=False)

    @property
    def n(self) -> int:
        return self.omega_l.size


def _check_dims(params: EscParams, cost: CostFunction, dither: DitherConfig) -> None:
    if not params.n == cost.n == dither.n:
        raise ValueError("dimension mismatch between gains, cost, and dither")


def _phase(dither: DitherConfig):
    """``phase(t)``: the dither shifts a_i sin(omega r_i t) and demodulation
    weights (2 / a_i) sin(omega r_i t) as float lists, kept for the last t."""
    amps, demod = dither.amplitudes.tolist(), (2.0 / dither.amplitudes).tolist()
    freqs = dither.omega * dither.rates
    last = [None, None]

    def phase(t: float):
        if last[0] != t:
            sin_t = np.sin(freqs * t).tolist()
            shift = [a * s for a, s in zip(amps, sin_t)]
            last[:] = t, (shift, [m * s for m, s in zip(demod, sin_t)])
        return last[1]

    return phase


def _measure(f, rows, shift) -> list[float]:
    """J at each row's theta + shift, in one cost sweep (zip stops after theta)."""
    return f(np.array([[x + s for x, s in zip(r, shift)] for r in rows])).tolist()


def rmspesc_flat_rhs(params: EscParams, cost: CostFunction, dither: DitherConfig):
    """Integrator-facing closure over rows [theta, v, xi].

    Clamps v to zero before the square root (:func:`esc_lab.integrate.nonneg`);
    round-off from integration can leave tiny negative filter states.
    """
    _check_dims(params, cost, dither)
    n = params.n
    neg_k, eps, wxi = -float(params.k), float(params.epsilon), float(params.omega_xi)
    wl = params.omega_l.tolist()
    phase, f = _phase(dither), cost.f

    def rhs(t: float, rows: list[list[float]]) -> list[list[float]]:
        shift, weight = phase(t)
        out = []
        for r, j in zip(rows, _measure(f, rows, shift)):
            err = j - r[2 * n]                   # measurement less washout
            d_theta, d_v = [], []
            for w, x, l in zip(weight, r[n : 2 * n], wl):
                g = w * err
                v = nonneg(x)
                d_theta.append(neg_k * g / (sqrt(v) + eps))
                d_v.append(l * (g * g - v))
            d_theta += d_v
            d_theta.append(wxi * err)
            out.append(d_theta)
        return out

    return rhs


def gesc_flat_rhs(params: EscParams, cost: CostFunction, dither: DitherConfig):
    """Integrator-facing closure over rows [theta, xi]."""
    _check_dims(params, cost, dither)
    n = params.n
    neg_k, wxi = -float(params.k), float(params.omega_xi)
    phase, f = _phase(dither), cost.f

    def rhs(t: float, rows: list[list[float]]) -> list[list[float]]:
        shift, weight = phase(t)
        out = []
        for r, j in zip(rows, _measure(f, rows, shift)):
            err = j - r[n]
            row = [neg_k * (w * err) for w in weight]
            row.append(wxi * err)
            out.append(row)
        return out

    return rhs
