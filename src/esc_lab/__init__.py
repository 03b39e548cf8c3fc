"""Extremum seeking with RMSprop-normalized updates: simulation and analysis tools."""

from .averaging import (
    AverageMaps,
    ConvergenceError,
    Equilibrium,
    ErrorState,
    PeriodQuadrature,
    avg_maps,
    convergence_sweep,
    equilibrium,
    from_error_coords,
    to_error_coords,
)
from .cost import (
    AssumptionReport,
    CostFunction,
    check_assumptions,
    eval_cost,
    grad_cost,
    parse_cost,
    quadratic_cost,
    quartic_cost,
    shifted_quartic_cost,
)
from .dynamics import EscParams
from .integrate import NonFiniteStateError, Trajectory, integrate_fixed, oscillation_step
from .lyapunov import (
    BoxEscapeError,
    DescentReport,
    LevelSetOracle,
    LevelSpec,
    LyapunovReport,
    monitor_descent,
    v_theta,
)
from .quadratic import JacobianReport, QuadraticModel, fourier_coeffs, quad_avg_maps, quad_jacobian
from .signals import DitherConfig, demod_value, dither_value, new_dither
from .simulate import simulate_average, simulate_gesc, simulate_rmspesc

__version__ = "0.1.0"

__all__ = [
    "AverageMaps",
    "AssumptionReport",
    "BoxEscapeError",
    "ConvergenceError",
    "CostFunction",
    "DescentReport",
    "DitherConfig",
    "Equilibrium",
    "ErrorState",
    "EscParams",
    "JacobianReport",
    "LevelSetOracle",
    "LevelSpec",
    "LyapunovReport",
    "NonFiniteStateError",
    "PeriodQuadrature",
    "QuadraticModel",
    "Trajectory",
    "avg_maps",
    "check_assumptions",
    "convergence_sweep",
    "demod_value",
    "dither_value",
    "equilibrium",
    "eval_cost",
    "fourier_coeffs",
    "from_error_coords",
    "grad_cost",
    "integrate_fixed",
    "monitor_descent",
    "new_dither",
    "oscillation_step",
    "parse_cost",
    "quad_avg_maps",
    "quad_jacobian",
    "quadratic_cost",
    "quartic_cost",
    "shifted_quartic_cost",
    "simulate_average",
    "simulate_gesc",
    "simulate_rmspesc",
    "to_error_coords",
    "v_theta",
]
