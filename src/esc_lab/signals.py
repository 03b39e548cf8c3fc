"""Sinusoidal dither and demodulation signal vectors.

The perturbation added to the parameter estimate is ``s_i(t) = a_i * sin(omega * r_i * t)``
and the matching demodulation signal is ``m_i(t) = (2 / a_i) * sin(omega * r_i * t)``.
All rates ``r_i`` are distinct positive integers relative to the common base
frequency ``omega``, so every channel is periodic with the shared period
``T = 2 * pi / omega`` and the demodulation identity
``(1/T) * integral(m_i * s_j) = delta_ij`` holds over one period.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DitherConfig", "new_dither", "dither_value", "demod_value"]


@dataclass(frozen=True)
class DitherConfig:
    """Validated dither setup: amplitudes a_i, integer rates r_i, base frequency omega."""

    amplitudes: np.ndarray
    rates: np.ndarray
    omega: float
    period: float = field(init=False)
    a0: float = field(init=False)

    def __post_init__(self):
        amps = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        rates = np.atleast_1d(np.asarray(self.rates))
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must be a non-empty 1-d sequence")
        if rates.shape != amps.shape:
            raise ValueError(
                f"rates length {rates.size} does not match amplitudes length {amps.size}"
            )
        if np.any(amps == 0.0) or not np.all(np.isfinite(amps)):
            raise ValueError("dither amplitudes must be non-zero finite reals")
        if not np.all(rates == np.round(rates)):
            raise ValueError("dither rates must be integers")
        rates = rates.astype(np.int64)
        object.__setattr__(self, "rates", rates)
        if np.any(rates < 1):
            raise ValueError("dither rates must be positive integers (r_i >= 1)")
        if len(set(rates.tolist())) != rates.size:       # np.unique would import numpy.ma
            raise ValueError("dither rates must be pairwise distinct")
        if not (np.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError("base frequency omega must be a positive real")
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "period", 2.0 * np.pi / self.omega)
        object.__setattr__(self, "a0", float(np.sqrt(np.sum(amps**2))))
        amps.setflags(write=False)
        rates.setflags(write=False)

    @property
    def n(self) -> int:
        return self.amplitudes.size

    @property
    def r_max(self) -> int:
        return int(self.rates.max())

    @property
    def max_step(self) -> float:
        """Largest RK4 step for a loop driven by this dither: 40 steps per fastest cycle."""
        return self.period / (40.0 * self.r_max)

    def scaled(self, a0_new: float) -> "DitherConfig":
        """Rescale the overall dither magnitude, keeping the ratios a_i / a0 fixed."""
        if a0_new <= 0.0:
            raise ValueError("a0_new must be positive")
        return DitherConfig(self.amplitudes * (a0_new / self.a0), self.rates, self.omega)


def new_dither(amplitudes, rates, omega: float) -> DitherConfig:
    """Validate and build a dither configuration."""
    return DitherConfig(np.asarray(amplitudes, dtype=float), np.asarray(rates), omega)


def _sin_phase(cfg: DitherConfig, t) -> np.ndarray:
    """sin(omega * r_i * t), shape (..., n) for t of shape (...)."""
    return np.sin(cfg.omega * cfg.rates * np.asarray(t, dtype=float)[..., None])


def dither_value(cfg: DitherConfig, t) -> np.ndarray:
    """Perturbation s(t), component i equal to a_i * sin(omega * r_i * t).

    Broadcasts over an array of times: shape (..., n) for t of shape (...).
    """
    return cfg.amplitudes * _sin_phase(cfg, t)


def demod_value(cfg: DitherConfig, t) -> np.ndarray:
    """Demodulation m(t), component i equal to (2 / a_i) * sin(omega * r_i * t).

    Broadcasts over an array of times: shape (..., n) for t of shape (...).
    """
    return (2.0 / cfg.amplitudes) * _sin_phase(cfg, t)
