"""Period-averaged maps, the autonomous average system, and its equilibrium.

Averaging a T-periodic loop over one dither period produces an autonomous
system in (theta_bar, v_bar, xi_bar) driven by three maps:

* ``J_bar(theta)``       — average measured cost,
* ``g_bar(theta)``       — average gradient estimate (independent of xi_bar:
  the demodulation signal has zero mean over a period, so the washout state
  drops out),
* ``g2_bar(theta, xi)``  — average squared gradient estimate per channel.

All three are computed by composite trapezoid quadrature on one period with
uniform nodes, whose tables one :class:`PeriodQuadrature` holds per dither
and node count; for smooth periodic integrands that rule converges spectrally,
so modest node counts reproduce closed forms to near machine precision. The
integrands depend on time only through sin(omega * r_i * t), so the averages
are independent of omega itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cost import CostFunction, grad_cost
from .dynamics import _check_dims
from .signals import DitherConfig

__all__ = [
    "AverageMaps",
    "Equilibrium",
    "ErrorState",
    "ConvergenceError",
    "PeriodQuadrature",
    "avg_maps",
    "average_flat_rhs",
    "equilibrium",
    "to_error_coords",
    "from_error_coords",
    "convergence_sweep",
]


class ConvergenceError(RuntimeError):
    """Equilibrium search failed to reach the gradient tolerance."""


@dataclass(frozen=True)
class AverageMaps:
    j_bar: float
    g_bar: np.ndarray
    g2_bar: np.ndarray


@dataclass(frozen=True)
class Equilibrium:
    """Fixed point of the average system: g_bar(theta*) = 0, xi* = J_bar(theta*),
    v*_i = g2_bar_i(theta*, xi*)."""

    theta_star: np.ndarray
    xi_star: float
    v_star: np.ndarray
    grad_norm: float
    iterations: int

    @property
    def n(self) -> int:
        return self.theta_star.size

    def flat(self) -> np.ndarray:
        return np.concatenate([self.theta_star, self.v_star, [self.xi_star]])


@dataclass(frozen=True)
class ErrorState:
    """State relative to the equilibrium (componentwise subtraction)."""

    theta_err: np.ndarray
    v_err: np.ndarray
    xi_err: float

    def flat(self) -> np.ndarray:
        return np.concatenate([self.theta_err, self.v_err, [self.xi_err]])


class PeriodQuadrature:
    """Uniform-node trapezoid rule over one dither period, built once per (dither, n_q).

    Node j sits at phase 2*pi*j/n_q of the slowest harmonic; omega cancels.
    ``s`` (n_q, n) holds the dither at each node and ``m`` (n, n_q) the
    demodulation signal; ``m2 = m * m`` and ``r = mean(m2)`` (= 2 / a_i^2)
    serve the squared-estimate average (:meth:`g2_coeffs`). The default node
    count is ``256 * r_max`` and at least ``8 * r_max`` nodes are required.
    """

    def __init__(self, dither: DitherConfig, n_q: Optional[int] = None):
        n_q = 256 * dither.r_max if n_q is None else int(n_q)
        if n_q < 8 * dither.r_max:
            raise ValueError(f"need at least {8 * dither.r_max} quadrature nodes, got {n_q}")
        self.n = dither.n
        self.n_q = n_q
        phases = 2.0 * np.pi * np.arange(n_q) / n_q
        sin_rt = np.sin(dither.rates[:, None] * phases[None, :])  # (n, n_q)
        self.s = (dither.amplitudes[:, None] * sin_rt).T
        self.m = (2.0 / dither.amplitudes[:, None]) * sin_rt
        self.m2 = self.m * self.m
        self.r = np.mean(self.m2, axis=1)

    def check(self, cost: CostFunction) -> None:
        if cost.n != self.n:
            raise ValueError("dither and cost dimensions differ")

    def g2_coeffs(self, y_c: np.ndarray, channel: int) -> tuple[np.ndarray, np.ndarray]:
        """Quadratic-in-xi decomposition of one channel's squared-estimate average.

        ``y_c`` (..., n_q) holds the node residuals J(theta + s_j) - xi_ref.
        g2_bar_i(theta, xi_ref + eta) = p - 2*q*eta + r_i*eta^2 exactly,
        because xi enters the squared residual quadratically. Returns (p, q),
        each of shape (...); r is :attr:`r`. Centering at ``xi_ref`` keeps the
        coefficients small near an equilibrium.
        """
        m2 = self.m2[channel]
        return np.mean(m2 * (y_c * y_c), axis=-1), np.mean(m2 * y_c, axis=-1)


def avg_maps(
    cost: CostFunction,
    quad: PeriodQuadrature,
    theta_bar,
    xi_bar: float = 0.0,
) -> AverageMaps:
    """Evaluate (J_bar, g_bar, g2_bar) at one point of the average state space.

    g_bar subtracts J(theta_bar) inside the demodulated integrand; the
    subtraction is exact (the demodulation signal sums to zero on the uniform
    node grid) and removes the large DC term that would otherwise dominate
    the floating-point cancellation error.
    """
    quad.check(cost)
    theta_bar = np.atleast_1d(np.asarray(theta_bar, dtype=float))
    y = cost.f(theta_bar[None, :] + quad.s)          # (n_q,)
    j_bar = float(np.mean(y))
    y_centered = y - float(cost.f(theta_bar))
    g_bar = np.mean(quad.m * y_centered[None, :], axis=1)
    resid = quad.m * (y - float(xi_bar))[None, :]
    g2_bar = np.mean(resid * resid, axis=1)
    return AverageMaps(j_bar=j_bar, g_bar=g_bar, g2_bar=g2_bar)


def average_flat_rhs(params, cost: CostFunction, dither: DitherConfig, n_q: Optional[int] = None):
    """Integrator-facing closure for the autonomous average system.

    Clamps v to zero before the square root, like the full-loop closure.
    """
    _check_dims(params, cost, dither)
    n = params.n
    k, eps, wl, wxi = params.k, params.epsilon, params.omega_l, params.omega_xi
    quad = PeriodQuadrature(dither, n_q)

    def rhs(t: float, ybar: np.ndarray) -> np.ndarray:
        theta = ybar[:n]
        v = np.maximum(ybar[n : 2 * n], 0.0)
        xi = ybar[2 * n]
        maps = avg_maps(cost, quad, theta, xi)
        out = np.empty(2 * n + 1)
        out[:n] = -k * maps.g_bar / (np.sqrt(v) + eps)
        out[n : 2 * n] = wl * (maps.g2_bar - v)
        out[2 * n] = wxi * (maps.j_bar - xi)
        return out

    return rhs


def equilibrium(
    cost: CostFunction,
    dither: DitherConfig,
    theta_init=None,
    n_q: Optional[int] = None,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> Equilibrium:
    """Locate the average-system equilibrium by damped descent on J_bar.

    Backtracking line search along -g_bar with an Armijo factor of 0.5 and a
    doubling step recovery; stops when ||g_bar|| <= tol. xi* and v* follow by
    direct evaluation at theta*.
    """
    if theta_init is None:
        theta = (
            np.array(cost.theta_star, dtype=float)
            if cost.theta_star is not None
            else np.zeros(cost.n)
        )
    else:
        theta = np.atleast_1d(np.asarray(theta_init, dtype=float)).copy()

    quad = PeriodQuadrature(dither, n_q)

    def maps_at(th):
        return avg_maps(cost, quad, th, 0.0)

    alpha = 1.0
    it = 0
    for it in range(1, max_iter + 1):
        maps = maps_at(theta)
        gnorm = float(np.linalg.norm(maps.g_bar))
        if gnorm <= tol:
            break
        j0 = maps.j_bar
        # Once the true decrease per step falls below the float resolution of
        # J_bar, the Armijo comparison reads pure round-off; in that flat
        # regime accept on a plain gradient-norm contraction instead.
        noise = 4.0 * np.finfo(float).eps * (1.0 + abs(j0))
        accepted = False
        while alpha >= 1e-18:
            cand = theta - alpha * maps.g_bar
            cand_maps = maps_at(cand)
            armijo = cand_maps.j_bar <= j0 - 0.5 * alpha * gnorm * gnorm
            flat = abs(cand_maps.j_bar - j0) <= noise
            contracting = float(np.linalg.norm(cand_maps.g_bar)) <= 0.9 * gnorm
            if armijo or (flat and contracting):
                theta = cand
                alpha = min(alpha * 2.0, 1e12)
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise ConvergenceError(
                f"line search stalled at ||g_bar||={gnorm:.3e} after {it} iterations"
            )
    else:
        raise ConvergenceError(f"no convergence within {max_iter} iterations")

    final = avg_maps(cost, quad, theta, 0.0)
    xi_star = final.j_bar
    v_star = avg_maps(cost, quad, theta, xi_star).g2_bar
    return Equilibrium(
        theta_star=theta,
        xi_star=xi_star,
        v_star=v_star,
        grad_norm=float(np.linalg.norm(final.g_bar)),
        iterations=it,
    )


def to_error_coords(state, eq: Equilibrium) -> ErrorState:
    """Shift a flat average state [theta, v, xi] by the equilibrium."""
    state = np.asarray(state, dtype=float)
    n = eq.n
    if state.shape != (2 * n + 1,):
        raise ValueError(f"expected flat state of length {2 * n + 1}, got {state.shape}")
    return ErrorState(
        theta_err=state[:n] - eq.theta_star,
        v_err=state[n : 2 * n] - eq.v_star,
        xi_err=float(state[2 * n] - eq.xi_star),
    )


def from_error_coords(err: ErrorState, eq: Equilibrium) -> np.ndarray:
    """Inverse of :func:`to_error_coords`."""
    return np.concatenate(
        [err.theta_err + eq.theta_star, err.v_err + eq.v_star, [err.xi_err + eq.xi_star]]
    )


@dataclass(frozen=True)
class SweepRow:
    a0: float
    grad_error: float
    v_star_max: float


def convergence_sweep(
    cost: CostFunction,
    dither: DitherConfig,
    theta_bar,
    a0_list,
    n_q: Optional[int] = None,
) -> list[SweepRow]:
    """Shrink the dither and track how fast the averaged estimates converge.

    For each overall amplitude a0 (amplitude ratios held fixed), reports
    ||g_bar - grad J|| at ``theta_bar`` and the equilibrium magnitude
    max_i v*_i. Both vanish as a0 -> 0 for smooth costs.
    """
    a0_list = [float(a) for a in a0_list]
    if any(a <= 0 for a in a0_list):
        raise ValueError("a0 values must be positive")
    if any(b >= a for a, b in zip(a0_list, a0_list[1:])):
        raise ValueError("a0 values must be strictly decreasing")
    theta_bar = np.atleast_1d(np.asarray(theta_bar, dtype=float))
    true_grad = grad_cost(cost, theta_bar)
    rows = []
    for a0 in a0_list:
        cfg = dither.scaled(a0)
        maps = avg_maps(cost, PeriodQuadrature(cfg, n_q), theta_bar, 0.0)
        eq = equilibrium(cost, cfg, theta_init=None, n_q=n_q)
        rows.append(
            SweepRow(
                a0=a0,
                grad_error=float(np.linalg.norm(maps.g_bar - true_grad)),
                v_star_max=float(np.max(eq.v_star)),
            )
        )
    return rows
