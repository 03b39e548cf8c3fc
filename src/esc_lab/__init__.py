"""Extremum seeking with RMSprop-normalized updates: simulation and analysis tools.

Importing the package loads none of its submodules. Each name in ``__all__``
is looked up in the submodule that defines it on first access (PEP 562), so a
program loads only what it uses: ``esc-lab simulate`` runs on ``config``,
``cost``, ``expressions``, ``signals``, ``dynamics``, ``integrate`` and
``simulate``, never on ``averaging``, ``lyapunov``, ``quadratic``,
``plotting`` or numpy; :mod:`esc_lab.cli` lists what each mode loads.
``from esc_lab import *`` binds every exported name.
"""

from importlib import import_module

__version__ = "0.1.0"

# the submodule that defines each exported name
_EXPORTS = {
    "averaging": ("AverageMaps", "Equilibrium", "PeriodQuadrature", "avg_maps",
                  "convergence_sweep", "equilibrium"),
    "cost": ("CostFunction", "eval_cost", "grad_cost", "parse_cost", "quadratic_cost",
             "quartic_cost", "shifted_quartic_cost"),
    "dynamics": ("EscParams",),
    "integrate": ("ConvergenceError", "NonFiniteStateError", "Trajectory"),
    "lyapunov": ("BoxEscapeError", "DescentReport", "LevelSetOracle", "LevelSpec",
                 "monitor_descent"),
    "quadratic": ("JacobianReport", "QuadraticModel", "fourier_coeffs", "quad_avg_maps",
                  "quad_jacobian"),
    "signals": ("DitherConfig", "demod_value", "dither_value", "new_dither"),
    "simulate": ("simulate_average", "simulate_gesc", "simulate_rmspesc"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
