import importlib.util
from dataclasses import fields

import esc_lab
from esc_lab import averaging, cli, cost, dynamics, lyapunov, simulate

# Names folded into one API per layer: the structured rhs (the flat closures
# remain), the one-shot Lyapunov wrappers (LevelSetOracle remains), the
# per-call quadrature builder (PeriodQuadrature remains), the thread pool and
# the compiled-loop fork of the drivers (the numpy path remains).
REMOVED = {
    dynamics: ["EscState", "EscDerivative", "rmspesc_rhs", "gesc_rhs", "grad_estimate"],
    averaging: ["average_rhs", "default_nodes", "_node_signals"],
    lyapunov: ["radius_xi", "radius_v", "lyapunov_value", "_as_equilibrium"],
    cli: ["_parallel", "_max_workers", "ThreadPoolExecutor"],
    simulate: ["_resolve_path", "_run_kernel"],
    cost: ["CostKernelSpec", "KERNEL_QUADRATIC", "KERNEL_QUARTIC"],
}


def test_every_exported_name_resolves():
    assert len(set(esc_lab.__all__)) == len(esc_lab.__all__)
    for module in (esc_lab, *REMOVED):
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in esc_lab.__all__
            assert not hasattr(esc_lab, name)


def test_kernel_module_is_gone():
    assert importlib.util.find_spec("esc_lab._kernels") is None
    assert "kernel" not in {f.name for f in fields(cost.CostFunction)}


def test_level_spec_fields():
    # the eta direction is solved exactly; only the theta grid has a resolution
    assert [f.name for f in fields(lyapunov.LevelSpec)] == ["box", "grid_theta", "n_samples"]
