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
are independent of omega itself. :func:`avg_maps`, :func:`equilibrium` and
:func:`average_flat_rhs` share one kernel, which evaluates J in one cost
sweep per call, over theta_bar and the n_q nodes together, and then sums all
2n + 1 integrands in one stacked reduction over reused buffers; a kernel is
therefore not reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Optional

import numpy as np

from .cost import CostFunction, grad_cost
from .dynamics import _check_dims
from .integrate import nonneg
from .signals import DitherConfig

__all__ = [
    "AverageMaps",
    "Equilibrium",
    "ConvergenceError",
    "PeriodQuadrature",
    "avg_maps",
    "average_flat_rhs",
    "equilibrium",
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

    def flat(self) -> np.ndarray:
        return np.concatenate([self.theta_star, self.v_star, [self.xi_star]])


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


def _map_sums(cost: CostFunction, quad: PeriodQuadrature):
    """The averaged maps' kernel: a function (theta_bar, xi_bar) -> sums, shape (2n+1,).

    ``sums`` holds n_q times (g_bar, g2_bar, J_bar): the node sums of
    m * (y - J(theta_bar)), of (m * (y - xi_bar))^2 and of y, where y are the
    costs at the nodes. Each call makes one cost sweep, over theta_bar and the
    n_q nodes together, and one stacked reduction: the 2n + 1 integrands sit
    as rows of one (2n+1, n_q) buffer, and ``add.reduce`` sums each row
    pairwise, the same sum a separate reduction of that row computes. The
    buffers are allocated once per kernel and reused by every call, so the
    function is not reentrant: one call must return before the next starts.
    The returned ``sums`` array is fresh on every call.

    The g_bar integrand subtracts J(theta_bar); the subtraction is exact (the
    demodulation signal sums to zero on the uniform node grid) and removes
    the large DC term that would otherwise dominate the floating-point
    cancellation error.
    """
    quad.check(cost)
    n, n_q = quad.n, quad.n_q
    f, m = cost.f, quad.m
    add, subtract, multiply, reduce = np.add, np.subtract, np.multiply, np.add.reduce
    points = np.empty((n_q + 1, n))
    theta_row = points[0]
    # theta_i + s_ji column by column: one broadcast add over the (n_q, n) nodes
    # would run its inner loop over only n entries at a time
    columns = list(zip(range(n), np.ascontiguousarray(quad.s.T), points[1:].T))
    ref = np.empty((2, 1))                            # [[J(theta_bar)], [xi_bar]]
    resid = np.empty((2, n_q))
    resid_3d = resid[:, None, :]
    work = np.empty((2 * n + 1, n_q))
    products = work[: 2 * n].reshape(2, n, n_q)       # m * (y - J(theta_bar)), m * (y - xi_bar)
    squares, y_row = work[n : 2 * n], work[2 * n]

    def sums(theta_bar, xi_bar: float) -> np.ndarray:
        theta_row[:] = theta_bar
        for i, s_i, node_i in columns:
            add(theta_row[i], s_i, out=node_i)
        y_all = f(points)                             # one sweep: J(theta_bar), then the nodes
        y = y_all[1:]
        ref[0, 0] = y_all[0]
        ref[1, 0] = xi_bar
        subtract(y, ref, out=resid)
        multiply(m, resid_3d, out=products)
        multiply(squares, squares, out=squares)
        y_row[:] = y
        return reduce(work, 1)

    return sums


def _as_maps(sums: np.ndarray, quad: PeriodQuadrature) -> AverageMaps:
    n, n_q = quad.n, quad.n_q
    return AverageMaps(j_bar=float(sums[2 * n]) / n_q, g_bar=sums[:n] / n_q,
                       g2_bar=sums[n : 2 * n] / n_q)


def avg_maps(
    cost: CostFunction,
    quad: PeriodQuadrature,
    theta_bar,
    xi_bar: float = 0.0,
) -> AverageMaps:
    """Evaluate (J_bar, g_bar, g2_bar) at one point of the average state space.

    One call of the :func:`_map_sums` kernel, which :func:`average_flat_rhs`
    runs too: one cost sweep and one stacked reduction, then each sum divided
    by n_q.
    """
    return _as_maps(_map_sums(cost, quad)(theta_bar, xi_bar), quad)


def average_flat_rhs(params, cost: CostFunction, dither: DitherConfig):
    """Integrator-facing closure for the autonomous average system, over rows
    [theta_bar, v_bar, xi_bar]: one :func:`_map_sums` call per row, so one
    cost sweep and one stacked reduction, with the division by n_q and the
    rest of the rhs in Python floats.

    The closure reuses its kernel's buffers and is not reentrant. Clamps v to
    zero before the square root, like the full-loop closure.
    """
    _check_dims(params, cost, dither)
    n = params.n
    neg_k, eps, wxi = -float(params.k), float(params.epsilon), float(params.omega_xi)
    wl = params.omega_l.tolist()
    quad = PeriodQuadrature(dither)
    sums, n_q = _map_sums(cost, quad), quad.n_q

    def rhs(t: float, rows: list[list[float]]) -> list[list[float]]:
        out = []
        for r in rows:
            xi = r[2 * n]
            total = sums(r[:n], xi).tolist()
            d_theta, d_v = [], []
            for g, g2, x, l in zip(total[:n], total[n : 2 * n], r[n : 2 * n], wl):
                v = nonneg(x)
                d_theta.append(neg_k * (g / n_q) / (sqrt(v) + eps))
                d_v.append(l * (g2 / n_q - v))
            d_theta += d_v
            d_theta.append(wxi * (total[2 * n] / n_q - xi))
            out.append(d_theta)
        return out

    return rhs


def equilibrium(
    cost: CostFunction,
    dither: DitherConfig,
    theta_init=None,
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

    quad = PeriodQuadrature(dither)
    sums = _map_sums(cost, quad)

    def maps_at(th, xi=0.0):
        return _as_maps(sums(th, xi), quad)

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

    final = maps_at(theta)
    xi_star = final.j_bar
    v_star = maps_at(theta, xi_star).g2_bar
    return Equilibrium(
        theta_star=theta,
        xi_star=xi_star,
        v_star=v_star,
        grad_norm=float(np.linalg.norm(final.g_bar)),
        iterations=it,
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
        maps = avg_maps(cost, PeriodQuadrature(cfg), theta_bar, 0.0)
        eq = equilibrium(cost, cfg)
        rows.append(
            SweepRow(
                a0=a0,
                grad_error=float(np.linalg.norm(maps.g_bar - true_grad)),
                v_star_max=float(np.max(eq.v_star)),
            )
        )
    return rows
