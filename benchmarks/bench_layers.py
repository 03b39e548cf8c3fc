#!/usr/bin/env python3
"""Time the simulation layers in process.

Times the quartic closed-loop run, the same run as a lockstep batch of B
members for B in (1, 3, 16, 64) (washout seeds spread over [0, 2 y0], as in
the bundled fig1 config), its plain-gradient baseline, the average-system
counterpart, the same batches of the average system over a tenth of the
horizon, the level-set oracle build, one batched radius pass per filter
target kind, the descent monitor and CSV writing, and prints the median and
the quartiles of the repeats for each. The oracle rows use the quartic
average run of t1 = 25 s, sample_dt = 0.05 (501 samples) and box +-4: the
build tabulates the radius grid; the radius rows run one ``_radii`` pass for
xi and one for v_1 over the monitor's 501 (quantized) levels; the monitor row
evaluates V at every sample on the oracle already built, so it leaves out the
build. The batch rows add their cost per member-step,
the radius and monitor rows per sample. The CSV row writes the closed-loop
trajectory recorded every 0.01 s (10,001 rows at t1 = 100) with
``esc_lab.cli.write_trajectory_csv`` into a temporary directory. The two sweep
rows measure the quartic at the 3 member rows of a fig1 batch, per call, as the
full loop measures it each rhs stage: through the cost's row form
(``CostFunction.f_rows``), and through ``f`` on the stacked points (the row
form a cost without one gets). The parsed-cost
rows evaluate the 2-D expression of the ``compare_expr2d`` benchmark workload
(dither rates 1, 2, so 512 quadrature nodes) on one (2,) point and on the
(513, 2) array one average-system rhs call sweeps, and call that average rhs,
each per call; the quartic average-rhs row calls the average rhs of the
closed-loop settings above, whose one cost sweep covers a (257, 1) array. The two compare rows run ``esc_lab.cli.main`` end to end on
seed 0 of the ``compare_expr2d`` benchmark workload (``perfbench/workloads.py``):
once as shipped, the average system in a forked child beside the full loop,
and once with ``os.fork`` hidden, so the CLI runs the two one after another.
The host's speed is measured with perfbench's calibration loop
(``perfbench/run.py``'s ``calibration_s``, imported read-only) right before
the first row and right after the last; the header reports the scale
``REFERENCE_S`` / (mean of the two loop times), the factor that takes this
run's times to the speed perfbench's reference host had. The rows print
once that second loop has run, and stay unscaled: multiply a row by the
scale before comparing it with a file from another run.
``--json PATH`` also writes every row's median and quartiles, the scale and
the two loop times, the Python and numpy versions, the CPU count and the
integrator path that ran to PATH. Run from the repo root:

    python3 benchmarks/bench_layers.py [--t1 SECONDS] [--repeats N] [--json PATH]
"""

import argparse
import contextlib
import io
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import esc_lab as el
from esc_lab.averaging import average_flat_rhs
from esc_lab.cli import main as cli_main
from esc_lab.cli import write_trajectory_csv
from esc_lab.integrate import fit_step
from esc_lab.lyapunov import _quantize_up

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from run import REFERENCE_S, calibration_s  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

# the integrator path every trajectory row below runs through
PATH = "esc_lab.integrate.integrate_fixed: one RK4 loop over member rows of Python floats"


def timings(repeats, fn):
    """(median, first quartile, third quartile) of ``repeats`` wall times."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return med, q1, q3


def fmt(stats):
    med, q1, q3 = (1e3 * x for x in stats)
    return f"{med:9.1f} ms [{q1:.1f}, {q3:.1f}]"


@contextlib.contextmanager
def fork_hidden():
    """Run the body as on a platform without ``os.fork``."""
    fork = os.__dict__.pop("fork")
    try:
        yield
    finally:
        os.fork = fork


def compare_run(config, out_dir, sequential=False):
    """One quiet ``esc-lab compare`` invocation, in process."""
    def run():
        with contextlib.redirect_stdout(io.StringIO()), \
                (fork_hidden() if sequential else contextlib.nullcontext()):
            assert cli_main(["compare", "--config", str(config), "--out", str(out_dir)]) == 0
    return run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t1", type=float, default=100.0, help="simulated horizon (default 100)")
    ap.add_argument("--repeats", type=int, default=5, help="timing repeats (default 5)")
    ap.add_argument("--json", metavar="PATH", help="also write the results as JSON to PATH")
    args = ap.parse_args()

    cost = el.quartic_cost()
    dither = el.new_dither([0.02], [1], 10.0)
    params = el.EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)
    state0 = np.array([2.0, 0.81, 0.0])
    h, stride = fit_step(0.05, dither.max_step)
    nsteps = int(round(args.t1 / h))
    avg_t1 = args.t1 / 10
    avg_steps = int(round(avg_t1 / 0.0125))

    avg = el.simulate_average(cost, dither, params, state0, 25.0, 0.01, 5)
    eq = el.equilibrium(cost, dither)
    spec = el.LevelSpec(box=[[-4.0, 4.0]])
    m = len(avg.times)
    oracle = el.LevelSetOracle(cost, dither, eq, spec)
    xi, v1 = oracle._targets[:2]
    levels = _quantize_up(np.maximum(oracle._v_theta(avg.states[:, :1] - eq.theta_star), 0.0))
    v_xi = np.maximum(oracle._radii(xi, levels), np.abs(avg.states[:, 2] - eq.xi_star))
    c_xi = _quantize_up(v_xi)
    h_csv, stride_csv = fit_step(0.01, dither.max_step)
    loop = el.simulate_rmspesc(cost, dither, params, state0, args.t1, h_csv, stride_csv)
    csv_dir = tempfile.TemporaryDirectory()
    csv_path = Path(csv_dir.name, "trajectory.csv")
    compare_cfg = Path(csv_dir.name, "compare_expr2d.cfg")
    compare_cfg.write_text(config_text(WORKLOADS["compare_expr2d"], 0))

    expr_cost = el.parse_cost(
        "theta1^4 + 2*theta2^4 + theta1^2*theta2^2 + 0.5*(theta1 - theta2)^2", 2)
    expr_dither = el.new_dither([0.02, 0.02], [1, 2], 10.0)
    expr_params = el.EscParams(k=1.0, epsilon=0.05, omega_l=[0.25, 0.25], omega_xi=1.0)
    expr_state = np.array([1.5, -1.0, 0.81, 0.81, 0.0])
    expr_point = expr_state[:2]
    expr_sweep = np.vstack([expr_point, expr_point + el.PeriodQuadrature(expr_dither).s])
    expr_rhs = average_flat_rhs(expr_params, expr_cost, expr_dither)
    quartic_rhs = average_flat_rhs(params, cost, dither)
    quartic_nodes = el.PeriodQuadrature(dither).n_q + 1

    def batch(size):
        states = np.tile(state0, (size, 1))
        states[:, 2] = np.linspace(0.0, 2.0 * cost.f(state0[:1]), size)
        return states

    calls = 1000
    sweep_rows = batch(3).tolist()
    sweep_shift = el.dither_value(dither, 0.1).tolist()
    stacked = el.CostFunction(cost.n, cost.f).f_rows

    def repeat(fn, *args):
        def run():
            for _ in range(calls):
                fn(*args)
        return run

    cases = [
        (
            f"closed loop ({nsteps} RK4 steps)",
            lambda: el.simulate_rmspesc(cost, dither, params, state0, args.t1, h, stride),
            None,
        ),
        *(
            (
                f"closed loop, B = {size} lockstep",
                lambda states=batch(size): el.simulate_rmspesc(cost, dither, params, states,
                                                               args.t1, h, stride),
                (size * nsteps, "member-step"),
            )
            for size in (1, 3, 16, 64)
        ),
        (
            f"baseline loop ({nsteps} RK4 steps)",
            lambda: el.simulate_gesc(cost, dither, params, state0[[0, 2]], args.t1, h, stride),
            None,
        ),
        (
            "average system (quadrature rhs)",
            lambda: el.simulate_average(cost, dither, params, state0, args.t1, 0.0125, 4),
            None,
        ),
        *(
            (
                f"average system, B = {size} lockstep",
                lambda states=batch(size): el.simulate_average(cost, dither, params, states,
                                                               avg_t1, 0.0125, 4),
                (size * avg_steps, "member-step"),
            )
            for size in (1, 3, 16, 64)
        ),
        ("quartic sweep, 3 rows, row form", repeat(cost.f_rows, sweep_rows, sweep_shift),
         (calls, "call")),
        ("quartic sweep, 3 rows, f stacked", repeat(stacked, sweep_rows, sweep_shift),
         (calls, "call")),
        ("parsed cost, (2,) point", repeat(expr_cost.f, expr_point), (calls, "call")),
        (f"parsed cost, {expr_sweep.shape} sweep", repeat(expr_cost.f, expr_sweep),
         (calls, "call")),
        ("average rhs, parsed 2-D cost", repeat(expr_rhs, 0.0, [expr_state.tolist()]),
         (calls, "call")),
        (f"average rhs, quartic ({quartic_nodes}, 1) sweep",
         repeat(quartic_rhs, 0.0, [state0.tolist()]), (calls, "call")),
        (
            f"oracle build ({len(oracle._points)}-point grid)",
            lambda: el.LevelSetOracle(cost, dither, eq, spec),
            None,
        ),
        (f"radius pass xi ({m} levels)", lambda: oracle._radii(xi, levels),
         (m, "sample")),
        (f"radius pass v_1 ({m} levels)", lambda: oracle._radii(v1, levels, c_xi), (m, "sample")),
        (
            f"descent monitor ({m} samples)",
            lambda: el.monitor_descent(oracle, avg),
            (m, "sample"),
        ),
        (
            f"CSV writing ({len(loop.times)} rows)",
            lambda: write_trajectory_csv(csv_path, loop, cost, with_v=True),
            None,
        ),
        ("compare_expr2d, forked average run", compare_run(compare_cfg, csv_dir.name), None),
        ("compare_expr2d, one after another",
         compare_run(compare_cfg, csv_dir.name, sequential=True), None),
    ]

    rows, lines = [], []
    with csv_dir:
        before = calibration_s()
        for name, run, per in cases:
            stats = timings(args.repeats, run)
            extra = f"   {1e6 * stats[0] / per[0]:.1f} us per {per[1]}" if per else ""
            lines.append(f"{name:38s} {fmt(stats):>30s}{extra}")
            med, q1, q3 = (1e3 * float(x) for x in stats)
            row = {"name": name, "median_ms": med, "q1_ms": q1, "q3_ms": q3}
            if per:
                row.update(per=per[1], us_per=1e6 * stats[0] / per[0])
            rows.append(row)
        after = calibration_s()
    scale = 2 * REFERENCE_S / (before + after)
    print(f"median [q1, q3] of {args.repeats} repeats; speed scale {scale:.3f} "
          f"(calibration loop {before:.3f} s before, {after:.3f} s after, "
          f"reference {REFERENCE_S} s)")
    print("\n".join(lines))
    if args.json:
        record = {"path": PATH, "python": platform.python_version(), "numpy": np.__version__,
                  "machine": platform.machine(), "nproc": os.cpu_count(), "t1": args.t1,
                  "repeats": args.repeats, "scale": scale, "calibration_s": [before, after],
                  "reference_s": REFERENCE_S, "rows": rows}
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
