#!/usr/bin/env python3
"""Benchmark the compiled simulation kernels against the numpy fallback.

Times the quartic closed-loop run, its plain-gradient baseline and the
average-system counterpart on both paths, and prints the median and the
quartiles of the repeats for each. Without numba the kernel column says so
instead of timing the uncompiled loops. A last row times the level-set
descent monitor (numpy only) on the quartic average run of t1 = 25 s,
sample_dt = 0.05 (501 samples), box +-4, and adds its cost per sample.
Run from the repo root:

    python3 benchmarks/bench_kernels.py [--t1 SECONDS] [--repeats N]
"""

import argparse
import time

import numpy as np

import esc_lab as el
from esc_lab._kernels import numba_available


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t1", type=float, default=100.0, help="simulated horizon (default 100)")
    ap.add_argument("--repeats", type=int, default=5, help="timing repeats (default 5)")
    args = ap.parse_args()

    cost = el.quartic_cost()
    dither = el.new_dither([0.02], [1], 10.0)
    params = el.EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)
    state0 = np.array([2.0, 0.81, 0.0])
    h, stride = el.oscillation_step(dither.period, dither.r_max, 0.05)
    nsteps = int(round(args.t1 / h))

    cases = [
        (
            f"closed loop ({nsteps} RK4 steps)",
            lambda path: el.simulate_rmspesc(
                cost, dither, params, state0, 0.0, args.t1, h, stride, force_path=path
            ),
        ),
        (
            f"baseline loop ({nsteps} RK4 steps)",
            lambda path: el.simulate_gesc(
                cost, dither, params, state0[[0, 2]], 0.0, args.t1, h, stride, force_path=path
            ),
        ),
        (
            "average system (quadrature rhs)",
            lambda path: el.simulate_average(
                cost, dither, params, state0, 0.0, args.t1, 0.0125, 4, force_path=path
            ),
        ),
    ]

    compiled = numba_available()
    print(f"median [q1, q3] of {args.repeats} repeats")
    print(f"{'case':38s} {'numpy':>30s}   {'kernel':>30s}")
    for name, run in cases:
        t_np = timings(args.repeats, lambda: run("numpy"))
        if not compiled:
            print(f"{name:38s} {fmt(t_np):>30s}   kernel: numba unavailable")
            continue
        run("kernel")  # compile outside the timed region
        ref = run("numpy")
        jit = run("kernel")
        if not np.allclose(ref.states[-1], jit.states[-1], rtol=1e-9, atol=1e-12):
            raise AssertionError(f"paths disagree for {name}")
        t_nb = timings(args.repeats, lambda: run("kernel"))
        print(f"{name:38s} {fmt(t_np):>30s}   {fmt(t_nb):>30s} {t_np[0] / t_nb[0]:6.1f}x")

    avg = el.simulate_average(cost, dither, params, state0, 0.0, 25.0, 0.01, 5)
    eq = el.equilibrium(cost, dither)
    spec = el.LevelSpec(box=[[-4.0, 4.0]])
    m = len(avg.times)
    t_mon = timings(args.repeats, lambda: el.monitor_descent(avg, cost, dither, eq, spec))
    name = f"descent monitor ({m} samples)"
    print(f"{name:38s} {fmt(t_mon):>30s}   {1e6 * t_mon[0] / m:.0f} us per sample")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
