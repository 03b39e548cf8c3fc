import esc_lab
from esc_lab import averaging, cli, dynamics, lyapunov

# Names folded into one API per layer: the structured rhs (the flat closures
# remain), the one-shot Lyapunov wrappers (LevelSetOracle remains), the
# per-call quadrature builder (PeriodQuadrature remains) and the thread pool.
REMOVED = {
    dynamics: ["EscState", "EscDerivative", "rmspesc_rhs", "gesc_rhs", "grad_estimate"],
    averaging: ["average_rhs", "default_nodes", "_node_signals"],
    lyapunov: ["radius_xi", "radius_v", "lyapunov_value", "_as_equilibrium"],
    cli: ["_parallel", "_max_workers", "ThreadPoolExecutor"],
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
