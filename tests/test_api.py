import ast
import importlib.util
import inspect
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import esc_lab
from esc_lab import (averaging, cli, config, cost, dynamics, expressions, integrate, lyapunov,
                     signals, simulate)

# Names folded into one API per layer: the structured rhs, the one-shot
# Lyapunov wrappers (LevelSetOracle remains), the per-call quadrature builder
# and the point-wise g2 decomposition (PeriodQuadrature and its g2_coeffs
# remain), the thread pool and the
# compiled-loop fork of the drivers (the numpy path remains), the time-grid
# dither methods (dither_value and demod_value broadcast), and members of
# result and config classes that nothing read; the oracle's per-target
# copies of the field math and radius search (one _radii remains); the
# oracle's per-level entry points and their report class (_radii and
# _evaluate answer every query in batches) and the r_xi envelope that no
# query of V reached; the recursive expression walker (each parsed cost is
# one compiled function); settings that only ever took their default (the
# CLI's node-count reader, the cost label); the grid heuristics for the
# standing assumptions on J, which no mode ran; the second statement of the
# oscillatory step rule (DitherConfig.max_step holds it); the error-coordinate
# layer with the Equilibrium.n it alone read, and the one-point V_theta, which
# only tests reached (monitor_descent slices the error states and
# LevelSetOracle._v_theta takes batches); the flat equilibrium state and the
# quadrature's dimension check, each with one caller (tests build the state
# row, and the map kernel checks the dimensions); the trajectory's step and
# record stride, which no program code read; compare's process-pool worker,
# which rebuilt the average run from the config values, and its one-caller
# grid helper (compare runs both systems in process, on one setup); the full
# loop's row form of J, its dither phase closure and the clamp helper (the
# integrator emits one straight-line loop per system, with J's scalar form,
# the phase and the clamp inlined); the second way to run a system, an opaque
# rhs through a stage that called it, and the flat rhs wrappers around
# derivative(<system>), which no program path called; the drivers' state
# shape check (integrate checks the state against the system's width); the
# float code's compiler, which only the expansion-based gradient called, and
# its one-caller source helper (the jet fold gives every gradient, and the
# closed-form maps read the lines and terms themselves); the term cap in
# expressions (the closed-form maps own it as averaging.MAX_TERMS); the cost's
# expression text beside its f (every layer reads the parse tree that f
# carries) and the expansion's constant reader (the parser folds literals).
REMOVED = {
    dynamics: ["EscState", "EscDerivative", "rmspesc_rhs", "gesc_rhs", "grad_estimate", "_phase",
               "rmspesc_flat_rhs", "gesc_flat_rhs"],
    averaging: ["average_rhs", "default_nodes", "_node_signals", "avg_g2_coeffs", "ErrorState",
                "to_error_coords", "from_error_coords", "average_flat_rhs"],
    lyapunov: ["radius_xi", "radius_v", "lyapunov_value", "_as_equilibrium", "LyapunovReport",
               "v_theta"],
    cli: ["_parallel", "_max_workers", "ThreadPoolExecutor", "_n_q", "_concurrently",
          "_average_run", "_average_grid"],
    simulate: ["_resolve_path", "_run_kernel", "_flat_state"],
    cost: ["CostKernelSpec", "KERNEL_QUADRATIC", "KERNEL_QUARTIC", "Verdict", "AssumptionReport",
           "_grid_points", "_local_minima_mask", "_connected_components", "check_assumptions",
           "row_form"],
    integrate: ["oscillation_step", "nonneg", "integrate_fixed", "_call_rhs"],
    cost.CostFunction: ["name", "grad", "f_rows", "__post_init__", "expr"],
    integrate.Trajectory: ["column", "label", "h", "record_stride"],
    signals.DitherConfig: ["phase_grid", "dither_matrix", "demod_matrix"],
    averaging.AverageMaps: ["n_q"],
    averaging.Equilibrium: ["n", "flat"],
    averaging.PeriodQuadrature: ["check"],
    lyapunov.LevelSetOracle: ["_batch_fields", "_radii_chunk", "_eta_abs_max", "radius_xi",
                              "radius_v", "value", "_env_r_xi"],
    expressions: ["_evaluate", "MAX_TERMS", "_constant"],
    expressions.FloatCode: ["function", "source"],
}


def test_every_exported_name_resolves():
    assert len(set(esc_lab.__all__)) == len(esc_lab.__all__)
    for module in (esc_lab, *REMOVED):
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"


def test_lazy_exports_are_listed_and_star_imported():
    # the package resolves its exports on first access; dir() and import * still see all
    assert set(esc_lab.__all__) <= set(dir(esc_lab))
    namespace = {}
    exec("from esc_lab import *", namespace)
    assert {name: namespace.get(name) for name in esc_lab.__all__} == {
        name: getattr(esc_lab, name) for name in esc_lab.__all__}
    # the equilibrium search's error is the integrator's runtime-abort class, re-exported
    assert averaging.ConvergenceError is integrate.ConvergenceError is esc_lab.ConvergenceError


def test_removed_names_are_gone():
    for owner, names in REMOVED.items():
        # a dataclass field without a default is no class attribute
        members = {f.name for f in fields(owner)} if is_dataclass(owner) else set()
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
            assert name not in members, f"{owner.__name__}.{name}"
            assert name not in esc_lab.__all__
            assert not hasattr(esc_lab, name)


def test_oracle_keeps_no_envelope_tables():
    # instance attributes are no class members, so REMOVED cannot see them; the oracle
    # keeps no copy of the dither or the search geometry it was built from either
    quartic, dither = cost.quartic_cost(), signals.new_dither([0.1], [1], 10.0)
    oracle = lyapunov.LevelSetOracle(quartic, dither, averaging.equilibrium(quartic, dither),
                                     lyapunov.LevelSpec(box=[[-1.0, 1.0]], grid_theta=11))
    for name in ("_vt_env", "_vt_sorted", "_r_xi_prefix", "dither", "spec"):
        assert not hasattr(oracle, name), name


def test_levels_are_always_quantized():
    # V takes its radii at quantized levels on every path; no function switches that off
    functions = [f for _, cls in inspect.getmembers(lyapunov, inspect.isclass)
                 if cls.__module__ == lyapunov.__name__
                 for _, f in inspect.getmembers(cls, inspect.isfunction)]
    functions += [f for _, f in inspect.getmembers(lyapunov, inspect.isfunction)
                  if f.__module__ == lyapunov.__name__]
    assert lyapunov.LevelSetOracle._evaluate in functions
    for func in functions:
        assert "quantize" not in inspect.signature(func).parameters, func.__qualname__


def test_fixed_settings_take_no_parameter():
    # every consumer of the averaged maps builds the default PeriodQuadrature
    for func in (simulate.simulate_average, averaging.average_system, averaging.equilibrium,
                 averaging.convergence_sweep, lyapunov.LevelSetOracle, lyapunov.monitor_descent):
        assert "n_q" not in inspect.signature(func).parameters, func.__name__
    assert "tol" not in inspect.signature(lyapunov.monitor_descent).parameters
    # the equilibrium search starts at the known minimizer or the origin, with a fixed
    # tolerance and a fixed cap of Newton iterations; the quadrature sizes itself from the
    # cost, in equilibrium's argument order; golden section 64 steps
    assert list(inspect.signature(averaging.equilibrium).parameters) == ["cost", "dither"]
    assert list(inspect.signature(averaging.PeriodQuadrature).parameters) == ["cost", "dither"]
    assert list(inspect.signature(lyapunov._golden_max).parameters) == ["f", "lo", "hi"]
    assert "name" not in inspect.signature(cost.shifted_quartic_cost).parameters
    assert "n" not in inspect.signature(cost.quadratic_cost).parameters
    # J is evaluated through cost.f or eval_cost; a cost object is not a function
    assert not callable(cost.quartic_cost())


def test_run_layers_take_what_runs_use():
    # runs start at t = 0, and the monitor reads the equilibrium from the oracle it is given
    for func in (simulate.simulate_rmspesc, simulate.simulate_gesc, simulate.simulate_average):
        assert "t0" not in inspect.signature(func).parameters, func.__name__
    assert list(inspect.signature(lyapunov.monitor_descent).parameters) == ["oracle",
                                                                             "avg_trajectory"]


def test_emit_computes_a_repeated_operation_once():
    source, constants, scalar = expressions._emit(
        expressions._Parser("(theta1 - 1)^2 + (theta1 - 1)^2", 1).parse())
    # one subtraction and one power, whose value the sum reads twice, in the numpy
    # source and in its scalar form alike
    operations = [line.strip() for line in source.splitlines() if line.startswith("    t")]
    assert operations == ["t0 = x0 - c0", "t1 = power(absolute(t0), c1)", "t2 = t1 + t1"]
    assert constants == {"c0": 1.0, "c1": 2.0}
    assert scalar == (("t0 = x0 - 1.0", "t1 = t0 ** 2.0", "t2 = t1 + t1"), "t2")


def test_kernel_module_is_gone():
    assert importlib.util.find_spec("esc_lab._kernels") is None
    assert "kernel" not in {f.name for f in fields(cost.CostFunction)}


def test_cost_function_fields():
    # a plain record: every layer reads J's parse tree and scalar form from the f it holds
    assert [f.name for f in fields(cost.CostFunction)] == ["n", "f", "theta_star"]


def test_level_spec_fields():
    # the eta direction is solved exactly; only the theta grid has a resolution
    assert [f.name for f in fields(lyapunov.LevelSpec)] == ["box", "grid_theta", "n_samples"]


_ACCESSORS = {"has", "raw", "string", "number", "integer", "number_list", "string_list"}


def _keys_read() -> set[str]:
    """First string-literal argument of every config accessor call in the CLI and config code."""
    keys = set()
    for module in (cli, config):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ACCESSORS and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                keys.add(node.args[0].value)
    return keys


def _keys_documented() -> set[str]:
    """Backticked names in the first column of README's config key table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### Config format", 1)[1].split("\n### ", 1)[0]
    keys = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return keys


def test_readme_config_table_lists_exactly_the_keys_read():
    read, documented = _keys_read(), _keys_documented()
    assert "time.t1" in read and "lyapunov.box_halfwidth" in read
    assert documented == read, (f"documented, never read: {sorted(documented - read)}; "
                                f"read, undocumented: {sorted(read - documented)}")
