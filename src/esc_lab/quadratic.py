"""Closed-form averaging analysis for the scalar quadratic cost.

For J(theta) = j_opt + 0.5 * H * theta^2 perturbed by a single sinusoidal
dither of amplitude ``a``, the measured cost is a finite Fourier series

    J(t) = b0 + b1 * sin(w t) + b2 * cos(2 w t),
    b0 = j_opt + 0.5 * H * theta^2 + a^2 * H / 4,
    b1 = a * H * theta,
    b2 = -a^2 * H / 4,

which makes every averaged quantity and the linearization of the average
system around its equilibrium available in closed form. These expressions
double as exact oracles for the quadrature-based machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import EscParams

__all__ = ["QuadraticModel", "JacobianReport", "fourier_coeffs", "quad_avg_maps", "quad_jacobian"]


@dataclass(frozen=True)
class QuadraticModel:
    h: float
    j_opt: float
    a: float

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("curvature H must be positive")
        if self.a == 0:
            raise ValueError("dither amplitude must be non-zero")


@dataclass(frozen=True)
class JacobianReport:
    """Linearization of the average system in error coordinates (theta, xi, v)."""

    matrix: np.ndarray          # 3x3, lower triangular
    eigenvalues: np.ndarray     # = diagonal entries
    hurwitz: bool
    steep_limit: float          # theta-eigenvalue limit as H -> inf: -4k/|a|
    shallow_limit: float        # theta-eigenvalue asymptote -(k/eps)*H as H -> 0


def fourier_coeffs(model: QuadraticModel, theta_hat):
    """Fourier coefficients (b0, b1, b2) of the measured quadratic cost; broadcasts."""
    b0 = model.j_opt + 0.5 * model.h * theta_hat**2 + 0.25 * model.a**2 * model.h
    b1 = model.a * model.h * theta_hat
    b2 = -0.25 * model.a**2 * model.h
    return b0, b1, b2


def quad_avg_maps(model: QuadraticModel, theta_bar, xi_bar):
    """Closed-form (g_bar, g2_bar) for the quadratic; broadcasts over inputs."""
    theta_bar = np.asarray(theta_bar, dtype=float)
    xi_bar = np.asarray(xi_bar, dtype=float)
    b0, b1, b2 = fourier_coeffs(model, theta_bar)
    g_bar = model.h * theta_bar
    g2_bar = (4.0 / model.a**2) * (
        0.5 * (b0 - 0.5 * b2 - xi_bar) ** 2 + 1.5 * (0.5 * b1) ** 2 + 0.5 * (0.5 * b2) ** 2
    )
    return g_bar, g2_bar


def quad_jacobian(model: QuadraticModel, params: EscParams) -> JacobianReport:
    """Jacobian of the average system at its equilibrium, plus eigenvalue limits.

    Error-coordinate ordering (theta, xi, v). The matrix is lower triangular,
    so the eigenvalues are the diagonal entries: the designer assigns two of
    them through the filter gains, while the theta eigenvalue
    -k*H / (|a|*H/4 + eps) interpolates between -(k/eps)*H for shallow
    curvatures and the floor -4k/|a| for steep ones.
    """
    if params.n != 1:
        raise ValueError("closed-form Jacobian is scalar; pass single-channel gains")
    k, eps = params.k, params.epsilon
    wl = float(params.omega_l[0])
    wxi = params.omega_xi
    h, a = model.h, abs(model.a)
    matrix = np.array(
        [
            [-k * h / (0.25 * a * h + eps), 0.0, 0.0],
            [0.0, -wxi, 0.0],
            [0.0, -0.5 * wl * h, -wl],
        ]
    )
    eigenvalues = np.diag(matrix).copy()
    return JacobianReport(
        matrix=matrix,
        eigenvalues=eigenvalues,
        hurwitz=bool(np.all(eigenvalues < 0.0)),
        steep_limit=-4.0 * k / a,
        shallow_limit=-(k / eps) * h,
    )
