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
from math import isfinite, pi

from .expressions import _floats

__all__ = ["DitherConfig", "new_dither", "dither_value", "demod_value"]


@dataclass(frozen=True)
class DitherConfig:
    """Validated dither setup: amplitudes a_i, integer rates r_i, base frequency omega."""

    amplitudes: tuple[float, ...]
    rates: tuple[int, ...]
    omega: float
    period: float = field(init=False)

    def __post_init__(self):
        amps, rates = _floats(self.amplitudes), _floats(self.rates)
        object.__setattr__(self, "amplitudes", amps)
        if not amps:
            raise ValueError("amplitudes must be a non-empty 1-d sequence")
        if len(rates) != len(amps):
            raise ValueError(
                f"rates length {len(rates)} does not match amplitudes length {len(amps)}"
            )
        if not all(a != 0.0 and isfinite(a) for a in amps):
            raise ValueError("dither amplitudes must be non-zero finite reals")
        if not all(r.is_integer() for r in rates):
            raise ValueError("dither rates must be integers")
        rates = tuple(map(int, rates))
        object.__setattr__(self, "rates", rates)
        if min(rates) < 1:
            raise ValueError("dither rates must be positive integers (r_i >= 1)")
        if len(set(rates)) != len(rates):
            raise ValueError("dither rates must be pairwise distinct")
        if not (isfinite(self.omega) and self.omega > 0.0):
            raise ValueError("base frequency omega must be a positive real")
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "period", 2.0 * pi / self.omega)

    @property
    def a0(self) -> float:                  # ||a||, summed in numpy's order
        import numpy as np
        return float(np.sqrt(np.sum(np.square(self.amplitudes))))

    @property
    def n(self) -> int:
        return len(self.amplitudes)

    @property
    def r_max(self) -> int:
        return max(self.rates)

    @property
    def max_step(self) -> float:
        """Largest RK4 step for a loop driven by this dither: 40 steps per fastest cycle."""
        return self.period / (40.0 * self.r_max)

    def scaled(self, a0_new: float) -> "DitherConfig":
        """Rescale the overall dither magnitude, keeping the ratios a_i / a0 fixed."""
        if a0_new <= 0.0:
            raise ValueError("a0_new must be positive")
        factor = a0_new / self.a0
        return DitherConfig(tuple(a * factor for a in self.amplitudes), self.rates, self.omega)


def new_dither(amplitudes, rates, omega: float) -> DitherConfig:
    """Validate and build a dither configuration."""
    return DitherConfig(amplitudes, rates, omega)


def _sin_phase(cfg: DitherConfig, t):
    """sin(omega * r_i * t), shape (..., n) for t of shape (...)."""
    import numpy as np
    return np.sin(cfg.omega * np.array(cfg.rates) * np.asarray(t, dtype=float)[..., None])


def dither_value(cfg: DitherConfig, t):
    """Perturbation s(t), component i equal to a_i * sin(omega * r_i * t).

    Broadcasts over an array of times: shape (..., n) for t of shape (...).
    """
    return _sin_phase(cfg, t) * cfg.amplitudes


def demod_value(cfg: DitherConfig, t):
    """Demodulation m(t), component i equal to (2 / a_i) * sin(omega * r_i * t).

    Broadcasts over an array of times: shape (..., n) for t of shape (...).
    """
    return _sin_phase(cfg, t) * [2.0 / a for a in cfg.amplitudes]
