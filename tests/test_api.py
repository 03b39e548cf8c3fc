import importlib.util
import inspect
from dataclasses import fields, is_dataclass

import esc_lab
from esc_lab import averaging, cli, cost, dynamics, integrate, lyapunov, signals, simulate

# Names folded into one API per layer: the structured rhs (the flat closures
# remain), the one-shot Lyapunov wrappers (LevelSetOracle remains), the
# per-call quadrature builder and the point-wise g2 decomposition
# (PeriodQuadrature and its g2_coeffs remain), the thread pool and the
# compiled-loop fork of the drivers (the numpy path remains), the time-grid
# dither methods (dither_value and demod_value broadcast), and members of
# result and config classes that nothing read; the oracle's per-target
# copies of the field math and radius search (one _radii remains).
REMOVED = {
    dynamics: ["EscState", "EscDerivative", "rmspesc_rhs", "gesc_rhs", "grad_estimate"],
    averaging: ["average_rhs", "default_nodes", "_node_signals", "avg_g2_coeffs"],
    lyapunov: ["radius_xi", "radius_v", "lyapunov_value", "_as_equilibrium"],
    cli: ["_parallel", "_max_workers", "ThreadPoolExecutor"],
    simulate: ["_resolve_path", "_run_kernel"],
    cost: ["CostKernelSpec", "KERNEL_QUADRATIC", "KERNEL_QUARTIC"],
    integrate.Trajectory: ["column", "label"],
    signals.DitherConfig: ["phase_grid", "dither_matrix", "demod_matrix"],
    averaging.AverageMaps: ["n_q"],
    lyapunov.LevelSetOracle: ["_batch_fields", "_radii_chunk", "_eta_abs_max"],
}


def test_every_exported_name_resolves():
    assert len(set(esc_lab.__all__)) == len(esc_lab.__all__)
    for module in (esc_lab, *REMOVED):
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"


def test_removed_names_are_gone():
    for owner, names in REMOVED.items():
        # a dataclass field without a default is no class attribute
        members = {f.name for f in fields(owner)} if is_dataclass(owner) else set()
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
            assert name not in members, f"{owner.__name__}.{name}"
            assert name not in esc_lab.__all__
            assert not hasattr(esc_lab, name)
    assert "label" not in inspect.signature(integrate.integrate_fixed).parameters


def test_kernel_module_is_gone():
    assert importlib.util.find_spec("esc_lab._kernels") is None
    assert "kernel" not in {f.name for f in fields(cost.CostFunction)}


def test_level_spec_fields():
    # the eta direction is solved exactly; only the theta grid has a resolution
    assert [f.name for f in fields(lyapunov.LevelSpec)] == ["box", "grid_theta", "n_samples"]
