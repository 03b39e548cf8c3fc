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
for the RMSp loop and ``[theta_hat (n), xi]`` for the baseline, along the last
axis. Leading axes index independent loops stepped in lockstep: a state of
shape (B, d) gives a rhs of shape (B, d), row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import CostFunction
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


def rmspesc_flat_rhs(params: EscParams, cost: CostFunction, dither: DitherConfig):
    """Integrator-facing closure over the flat state [theta, v, xi] (last axis).

    Clamps v to zero before the square root; round-off from integration can
    leave tiny negative filter states.
    """
    _check_dims(params, cost, dither)
    n = params.n
    k, eps, wl, wxi = params.k, params.epsilon, params.omega_l, params.omega_xi
    amps, freqs, demod = dither.amplitudes, dither.omega * dither.rates, 2.0 / dither.amplitudes
    f = cost.f

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        theta = y[..., :n]
        v = np.maximum(y[..., n : 2 * n], 0.0)
        sin_t = np.sin(freqs * t)
        err = f(theta + amps * sin_t) - y[..., 2 * n]     # measurement less washout, (...)
        g = demod * sin_t * err[..., None]
        out = np.empty(y.shape)
        out[..., :n] = -k * g / (np.sqrt(v) + eps)
        out[..., n : 2 * n] = wl * (g * g - v)
        out[..., 2 * n] = wxi * err
        return out

    return rhs


def gesc_flat_rhs(params: EscParams, cost: CostFunction, dither: DitherConfig):
    """Integrator-facing closure over the flat state [theta, xi] (last axis)."""
    _check_dims(params, cost, dither)
    n = params.n
    k, wxi = params.k, params.omega_xi
    amps, freqs, demod = dither.amplitudes, dither.omega * dither.rates, 2.0 / dither.amplitudes
    f = cost.f

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        theta = y[..., :n]
        sin_t = np.sin(freqs * t)
        err = f(theta + amps * sin_t) - y[..., n]
        g = demod * sin_t * err[..., None]
        out = np.empty(y.shape)
        out[..., :n] = -k * g
        out[..., n] = wxi * err
        return out

    return rhs
