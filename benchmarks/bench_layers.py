#!/usr/bin/env python3
"""Time the simulation layers in process, or in child processes against a second tree.

Each row has a fixed key, listed below, and is built only when it runs. The
rows time:

* ``loop``, ``loop_b{1,3,16,64}``, ``baseline``: the quartic closed-loop run,
  the same run as a lockstep batch of B members (washout seeds spread over
  [0, 2 y0], as in the bundled fig1 config) and its plain-gradient baseline;
* ``average``, ``average_b{1,3,16,64}``: the average-system counterpart, and
  the same batches of it over a tenth of the horizon;
* ``oracle``, ``radius_xi``, ``radius_v1``, ``monitor``, ``monitor_x16``: on
  the quartic average run of t1 = 25 s, sample_dt = 0.05 (501 samples) and
  box +-4, the level-set oracle build (it tabulates the radius grid), one
  batched ``_radii`` pass for xi and one for v_1 over the monitor's 501
  (quantized) levels, the descent monitor evaluating V at every sample on
  the oracle already built, and the monitor on 16 copies of that run in one
  trajectory (8,016 samples, the scale of a many-start certificate). Each
  radius pass has two stages: the masked grid argmax over the 401-point
  grid, in chunks of ``_CHUNK_ELEMENTS`` grid entries (163 samples), then
  the golden-section refinement, in chunks of ``_CHUNK_ELEMENTS`` quadrature
  entries: one pass for each row here (a tree that refines inside the grid
  chunks takes one pass per 163 samples);
* ``csv``: the closed-loop trajectory recorded every 0.01 s (10,001 rows at
  t1 = 100) written with ``esc_lab.cli.write_trajectory_csv`` into a
  temporary directory;
* ``stepper_build``: what a fig1 run of 3 members builds before its first
  step: the emitted RK4 loop, compiled (``esc_lab.integrate._loop``; a tree
  without it, one stage of the rmspesc system, emitted by
  ``esc_lab.integrate.derivative`` on its first call);
* ``sweep_rows``, ``sweep_stacked``: the quartic at the 3 member rows of a
  fig1 batch, per call, as the full loop measures it each stage: through
  the scalar form its ``f`` carries, compiled on its own from the lines the
  loop inlines (``esc_lab.dynamics._measure``; a tree without it, the row
  form ``esc_lab.cost.row_form`` or the cost's ``f_rows``), and through
  ``f`` once on the stacked points (an ``f`` without a scalar form is
  called once per member instead);
* ``cost_point``, ``cost_sweep``, ``rhs_expr2d``: the 2-D expression of the
  ``compare_expr2d`` benchmark workload evaluated on one (2,) point and on
  the (n_q + 1, 2) array one quadrature rhs call sweeps (n_q = 21 at dither
  rates 1, 2), and its average rhs, each per call; ``rhs_quartic``: the
  average rhs of the closed-loop settings above, per call;
* ``compare``, ``compare_average``: seed 0 of the ``compare_expr2d``
  workload (``perfbench/workloads.py``), once through ``esc_lab.cli.main``
  end to end, config loading and CSV writing included; and its average run
  alone: ``simulate_average`` on the run ``esc_lab.cli._setup`` builds, at
  compare's average-system grid; ``lyapunov`` and ``fig1``: seed 0 of the
  ``descent_quartic`` and ``closed_loop_fig1`` workloads through
  ``esc_lab.cli.main`` end to end;
* ``startup_simulate``, ``startup_compare``, ``startup_lyapunov``: one fresh
  interpreter per repeat that imports ``esc_lab.cli`` and the modules the
  mode loads on top of it (averaging for compare, averaging and lyapunov for
  lyapunov), from the tree under test, so each tree's own import graph is
  timed, interpreter and numpy start-up included. With
  ``PYTHONDONTWRITEBYTECODE=1`` (the record notes its value) each start
  compiles every imported module from source;
* ``cli_simulate``, ``cli_lyapunov``, ``cli_compare``: one fresh
  ``python -m esc_lab.cli <mode>`` per repeat, on the seed-0 config of
  ``closed_loop_fig1``, ``descent_quartic`` or ``compare_expr2d``, from the
  tree under test, stdout discarded;
* ``dense{2..8}``: a short average run (250 RK4 steps, 1,000 stages) of a
  dense n-D quadratic (theta* != 0, rates 1..n), its build included, with
  the closed-form term cap (``esc_lab.averaging.MAX_TERMS``) lifted where
  the tree has one, so the closed form runs at every n; the label gives its
  term count, the node count of the quadrature and, on a tree with the
  emitted stepper, the time of the build alone; ``power{16,24,28,32,40}``:
  the same for the 1-D cost (theta1 - 0.5)^d, whose quadrature makes the
  fewest numpy calls per term of its closed form; ``quad_dense{2..8}`` and
  ``quad_power{...}``: the same runs on the period quadrature
  (``_closed_form_maps`` patched to give none). Each ratio of a row to its
  ``quad_`` row is closed form over quadrature, and the term count where it
  crosses 1 sets the cap;
* ``fallback_dense8``, ``fallback_power40``: the same short run of the dense
  8-D quadratic and of (theta1/2)^40 + (theta1 - 1)^2, both over the term
  cap, at the cap the tree has: against a tree without the closed form, the
  ratio is what trying the closed form and giving up adds to such a run.

The batch rows add their cost per member-step, the radius and monitor rows
per sample, the per-call rows per call. Labels print the node and term
counts of the tree that ran. The rows that start processes (``startup_*``
and ``cli_*``) also report the CPU time of each repeat's child, user plus
system, from ``getrusage(RUSAGE_CHILDREN)``: the CPU time of every thread it
ran, where the wall time shows only the longest. Every child process this
script starts runs without ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS``
and ``OMP_NUM_THREADS`` (the record lists them), so each tree's own BLAS
thread default is what runs.

Alone, the script times every row (or the ``--rows`` named) ``--repeats``
times in this process and prints the median and the quartiles of each. The
host's speed is measured with perfbench's calibration loop
(``perfbench/run.py``'s ``calibration_s``, imported read-only) right before
the first row and right after the last; the header reports the scale
``REFERENCE_S`` / (mean of the two loop times), the factor that takes this
run's times to the speed perfbench's reference host had. The rows stay
unscaled: multiply a row by the scale before comparing it with a file from
another run. ``--json PATH`` also writes every row's median and quartiles,
the scale and the two loop times, the Python and numpy versions, the CPU
count and the integrator path that ran to PATH.

``--against TREE`` compares this checkout with another one (a ``git
archive`` export of a parent commit, say): for each row in turn it runs
``--pairs`` pairs of child processes, one per tree, with ``src`` of that tree
first on ``PYTHONPATH`` and this script's row definitions, alternating which
tree goes first. Each child reports the median of its ``--repeats``
timings. Per row it prints each tree's median and quartiles over the
pairs, the ratio this / TREE of the two medians, and the quartiles of the
per-pair ratios: an unchanged row's ratio sits within them, whatever the
host's drift between rows; a row that starts processes gets the same for
its children's CPU time. ``--json`` writes all of it. Run from the repo
root:

    python3 benchmarks/bench_layers.py [--t1 SECONDS] [--repeats N] [--rows KEY,...] [--json PATH]
    python3 benchmarks/bench_layers.py --against TREE [--pairs K] [--rows KEY,...] [--json PATH]
"""

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import esc_lab as el
from esc_lab import averaging, cli
from esc_lab.averaging import average_system
from esc_lab.cli import write_trajectory_csv
from esc_lab.config import ExperimentConfig, load_config
from esc_lab.integrate import derivative, fit_step

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from run import REFERENCE_S, calibration_s  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

# the integrator path every trajectory row below runs through
PATH = ("esc_lab.integrate.integrate: one RK4 loop per run, emitted as straight-line code over "
        "scalar floats from the system's spec")
CALLS = 1000          # calls per timing of a per-call row, and stages of a short average run
BUILDS = 100          # builds per timing of stepper_build
BATCHES = (1, 3, 16, 64)
# the modules a mode loads beyond what importing esc_lab.cli loads
STARTUP = {"simulate": (), "compare": ("averaging",), "lyapunov": ("averaging", "lyapunov")}
# the workload whose seed-0 config each cli_<mode> row runs
CLI_WORKLOADS = {"simulate": "closed_loop_fig1", "lyapunov": "descent_quartic",
                 "compare": "compare_expr2d"}
# BLAS thread settings removed from every child's environment, so that each tree's own
# default is what runs
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
DENSE = range(2, 9)
POWERS = (16, 24, 28, 32, 40)


def children_cpu_s():
    """User plus system CPU time of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timings(repeats, fn):
    """(median, first quartile, third quartile) of ``repeats`` wall times, and the same of
    the CPU time of the child processes each repeat waited for (zeros for a row that
    starts none)."""
    times, cpus = [], []
    for _ in range(repeats):
        c0 = children_cpu_s()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        cpus.append(children_cpu_s() - c0)
    return tuple(np.percentile(x, [50, 25, 75]) for x in (times, cpus))


def child_env(src):
    """This environment with ``src`` first on ``PYTHONPATH`` and no BLAS thread setting."""
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def fmt(stats):
    med, q1, q3 = (1e3 * x for x in stats)
    return f"{med:9.1f} ms [{q1:.1f}, {q3:.1f}]"


def repeat(fn, *args, times=CALLS):
    def run():
        for _ in range(times):
            fn(*args)
    return run


class Rows:
    """Every row's inputs, built on first use; :meth:`build` returns (label, run, per)."""

    def __init__(self, t1: float, tmp: Path):
        self.t1, self.tmp = t1, Path(tmp)
        self.cost = el.quartic_cost()
        self.dither = el.new_dither([0.02], [1], 10.0)
        self.params = el.EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)
        self.state0 = np.array([2.0, 0.81, 0.0])
        self.h, self.stride = fit_step(0.05, self.dither.max_step)
        self.nsteps = int(round(t1 / self.h))
        self.avg_t1 = t1 / 10
        self.avg_steps = int(round(self.avg_t1 / 0.0125))
        self.expr_cost = el.parse_cost(
            "theta1^4 + 2*theta2^4 + theta1^2*theta2^2 + 0.5*(theta1 - theta2)^2", 2)
        self.expr_dither = el.new_dither([0.02, 0.02], [1, 2], 10.0)
        self.expr_params = el.EscParams(k=1.0, epsilon=0.05, omega_l=[0.25, 0.25], omega_xi=1.0)
        self.expr_state = np.array([1.5, -1.0, 0.81, 0.81, 0.0])

    def keys(self):
        return (["loop", *(f"loop_b{b}" for b in BATCHES), "baseline", "average",
                 *(f"average_b{b}" for b in BATCHES), "stepper_build", "sweep_rows",
                 "sweep_stacked",
                 "cost_point", "cost_sweep", "rhs_expr2d", "rhs_quartic", "oracle", "radius_xi",
                 "radius_v1", "monitor", "monitor_x16", "csv", "compare", "compare_average",
                 "lyapunov", "fig1", *(f"startup_{mode}" for mode in STARTUP),
                 *(f"cli_{mode}" for mode in CLI_WORKLOADS),
                 *(f"dense{n}" for n in DENSE), *(f"quad_dense{n}" for n in DENSE),
                 *(f"power{d}" for d in POWERS), *(f"quad_power{d}" for d in POWERS),
                 "fallback_dense8", "fallback_power40"])

    def build(self, key):
        if key.startswith("startup_"):
            return self.startup(key[len("startup_"):])
        if key.startswith("cli_"):
            return self.cli_mode(key[len("cli_"):])
        for prefix in ("loop_b", "average_b", "quad_dense", "quad_power", "dense", "power"):
            if key.startswith(prefix):
                return getattr(self, prefix)(int(key[len(prefix):]))
        return getattr(self, key)()

    def batch(self, size):
        states = np.tile(self.state0, (size, 1))
        states[:, 2] = np.linspace(0.0, 2.0 * self.cost.f(self.state0[:1]), size)
        return states

    # -- trajectories --------------------------------------------------------

    def loop(self):
        return (f"closed loop ({self.nsteps} RK4 steps)",
                lambda: el.simulate_rmspesc(self.cost, self.dither, self.params, self.state0,
                                            self.t1, self.h, self.stride), None)

    def loop_b(self, size):
        states = self.batch(size)
        return (f"closed loop, B = {size} lockstep",
                lambda: el.simulate_rmspesc(self.cost, self.dither, self.params, states,
                                            self.t1, self.h, self.stride),
                (size * self.nsteps, "member-step"))

    def baseline(self):
        return (f"baseline loop ({self.nsteps} RK4 steps)",
                lambda: el.simulate_gesc(self.cost, self.dither, self.params,
                                         self.state0[[0, 2]], self.t1, self.h, self.stride), None)

    def average(self):
        steps = int(round(self.t1 / 0.0125))
        return (f"average system ({steps} RK4 steps)",
                lambda: el.simulate_average(self.cost, self.dither, self.params, self.state0,
                                            self.t1, 0.0125, 4), None)

    def average_b(self, size):
        states = self.batch(size)
        return (f"average system, B = {size} lockstep",
                lambda: el.simulate_average(self.cost, self.dither, self.params, states,
                                            self.avg_t1, 0.0125, 4),
                (size * self.avg_steps, "member-step"))

    # -- cost evaluations, rhs calls and builds --------------------------------

    def stepper_build(self):
        states, integrate = self.batch(3), el.integrate
        if hasattr(integrate, "_loop"):
            system = el.dynamics.rmspesc_system(self.params, self.cost, self.dither)

            def build():
                integrate._compile(system, integrate._loop(system, len(states)), "loop",
                                   nonfinite=None)
            return ("stepper build, fig1 loop of 3 members", repeat(build, times=BUILDS),
                    (BUILDS, "build"))
        rows = states.tolist()

        def build():  # derivative emits its stage on the first call
            derivative(el.dynamics.rmspesc_system(self.params, self.cost, self.dither))(0.0, rows)
        return ("rhs build, fig1 loop", repeat(build, times=BUILDS), (BUILDS, "build"))

    def sweep_rows(self):
        rows = self.batch(3).tolist()
        shift = el.dither_value(self.dither, 0.1).tolist()
        measure = getattr(el.dynamics, "_measure", None)
        if measure is None:
            row_form = getattr(el.cost, "row_form", None)
            measure = row_form(self.cost.f) if row_form else self.cost.f_rows
            return ("quartic sweep, 3 rows, row form", repeat(measure, rows, shift),
                    (CALLS, "call"))
        # the lines the loop inlines, as one function of the members' theta and the shift
        y = [[f"y{b}"] for b in range(len(rows))]
        lines = [f"def sweep({', '.join(r[0] for r in y)}, a0):", *(f"    {line}" for line in
                 measure(self.cost, y)), f"    return {', '.join(f'j{b}' for b in range(len(y)))}"]
        namespace = {"f": self.cost.f, "array": np.array}
        exec("\n".join(lines), namespace)
        return ("quartic sweep, 3 rows, scalar form", repeat(namespace["sweep"],
                *(r[0] for r in rows), shift[0]), (CALLS, "call"))

    def sweep_stacked(self):
        rows = self.batch(3).tolist()
        shift = el.dither_value(self.dither, 0.1).tolist()
        f = self.cost.f

        def stacked(rows, shift):   # one call of f over the members' stacked points
            return f(np.array([[x + s for x, s in zip(r, shift)] for r in rows])).tolist()
        return ("quartic sweep, 3 rows, f stacked", repeat(stacked, rows, shift), (CALLS, "call"))

    def cost_point(self):
        return ("parsed cost, (2,) point", repeat(self.expr_cost.f, self.expr_state[:2]),
                (CALLS, "call"))

    def cost_sweep(self):
        point = self.expr_state[:2]
        sweep = np.vstack([point, point + el.PeriodQuadrature(self.expr_cost, self.expr_dither).s])
        return (f"parsed cost, {sweep.shape} sweep", repeat(self.expr_cost.f, sweep),
                (CALLS, "call"))

    def rhs_expr2d(self):
        rhs = derivative(average_system(self.expr_params, self.expr_cost, self.expr_dither))
        return ("average rhs, parsed 2-D cost", repeat(rhs, 0.0, [self.expr_state.tolist()]),
                (CALLS, "call"))

    def rhs_quartic(self):
        rhs = derivative(average_system(self.params, self.cost, self.dither))
        return ("average rhs, quartic", repeat(rhs, 0.0, [self.state0.tolist()]), (CALLS, "call"))

    @staticmethod
    def dense_case(n):
        """A dense n-D quadratic with theta* != 0 at rates 1 .. n, and an rhs row."""
        rng = np.random.default_rng(n)
        a = rng.uniform(-1.0, 1.0, (n, n))
        cost = el.quadratic_cost(a @ a.T + n * np.eye(n), 0.5, rng.uniform(-1.0, 1.0, n))
        dither = el.new_dither(np.linspace(0.02, 0.04, n), np.arange(1, n + 1), 10.0)
        return cost, dither, [*rng.uniform(-2.0, 2.0, n), *[0.81] * n, 0.5]

    def dense(self, n):
        return self.average_run(f"dense {n}-D quadratic", *self.dense_case(n), "uncapped")

    def quad_dense(self, n):
        return self.average_run(f"dense {n}-D quadratic", *self.dense_case(n), "quadrature")

    def power(self, degree):
        cost = el.parse_cost(f"(theta1 - 0.5)^{degree}", 1)
        return self.average_run(f"(theta1 - 0.5)^{degree}", cost, self.dither, [0.9, 0.3, 0.1],
                                "uncapped")

    def quad_power(self, degree):
        cost = el.parse_cost(f"(theta1 - 0.5)^{degree}", 1)
        return self.average_run(f"(theta1 - 0.5)^{degree}", cost, self.dither, [0.9, 0.3, 0.1],
                                "quadrature")

    def fallback_dense8(self):
        return self.average_run("dense 8-D quadratic", *self.dense_case(8))

    def fallback_power40(self):
        cost = el.parse_cost("(theta1/2)^40 + (theta1 - 1)^2", 1)
        return self.average_run("1-D, degree 40", cost, self.dither, [2.0, 0.81, 0.0])

    @staticmethod
    def average_run(what, cost, dither, state, path="capped"):
        """A short average run of ``cost`` (CALLS stages), its build included, on the path the
        tree's term cap gives (``capped``), with the cap lifted where the tree has one
        (``uncapped``), or on the quadrature (``quadrature``). The label counts the closed
        form's terms and the quadrature's nodes, and times the build alone."""
        n = cost.n
        params = el.EscParams(k=1.0, epsilon=0.05, omega_l=[0.25] * n, omega_xi=1.0)
        steps, h = CALLS // 4, 0.0125
        codes, patch = [], {}
        if path == "uncapped" and hasattr(averaging, "MAX_TERMS"):
            code_class = averaging.FloatCode
            patch = {"MAX_TERMS": 10**6,
                     "FloatCode": lambda: codes.append(code_class()) or codes[-1]}
        elif path == "quadrature":
            patch = {"_closed_form_maps": lambda *_: None}

        def patched(fn):
            saved = {name: getattr(averaging, name) for name in patch}
            for name, value in patch.items():
                setattr(averaging, name, value)
            try:
                return fn()
            finally:
                for name, value in saved.items():
                    setattr(averaging, name, value)

        def run():
            patched(lambda: el.simulate_average(cost, dither, params, state, steps * h, h, steps))

        run()
        if codes:
            path = f"closed form, {codes[-1].terms} terms"
        elif path != "quadrature":
            closed = getattr(averaging, "_closed_form_maps", lambda *_: None)(cost, dither)
            path = "closed form" if closed else "quadrature"
        if hasattr(averaging, "average_system"):     # the build alone: the system and its loop
            integrate = el.integrate

            def build():
                system = averaging.average_system(params, cost, dither)
                integrate._compile(system, integrate._loop(system, 1), "loop", nonfinite=None)
            path += f", build {1e3 * timings(3, lambda: patched(build))[0][0]:.1f} ms"
        n_q = el.PeriodQuadrature(cost, dither).n_q
        return (f"average run + build, {what} ({path}, {n_q} nodes)", run, (CALLS, "stage"))

    # -- the level-set oracle --------------------------------------------------

    @functools.cached_property
    def oracle_setup(self):
        avg = el.simulate_average(self.cost, self.dither, self.params, self.state0, 25.0, 0.01, 5)
        eq = el.equilibrium(self.cost, self.dither)
        spec = el.LevelSpec(box=[[-4.0, 4.0]])
        oracle = el.LevelSetOracle(self.cost, self.dither, eq, spec)
        levels = oracle._theta_levels(avg.states[:, :1] - eq.theta_star)[1]
        return avg, eq, spec, oracle, levels

    def oracle(self):
        avg, eq, spec, oracle, _ = self.oracle_setup
        return (f"oracle build ({len(oracle._points)}-point grid)",
                lambda: el.LevelSetOracle(self.cost, self.dither, eq, spec), None)

    def radius_xi(self):
        avg, _, _, oracle, levels = self.oracle_setup
        m = len(avg.times)
        return (f"radius pass xi ({m} levels)", lambda: oracle._radii(oracle._targets[0], levels),
                (m, "sample"))

    def radius_v1(self):
        from esc_lab.lyapunov import _quantize_up

        avg, eq, _, oracle, levels = self.oracle_setup
        xi, v1 = oracle._targets[:2]
        v_xi = np.maximum(oracle._radii(xi, levels), np.abs(avg.states[:, 2] - eq.xi_star))
        c_xi, m = _quantize_up(v_xi), len(avg.times)
        return (f"radius pass v_1 ({m} levels)", lambda: oracle._radii(v1, levels, c_xi),
                (m, "sample"))

    def monitor(self):
        avg, _, _, oracle, _ = self.oracle_setup
        m = len(avg.times)
        return (f"descent monitor ({m} samples)", lambda: el.monitor_descent(oracle, avg),
                (m, "sample"))

    def monitor_x16(self):
        avg, _, _, oracle, _ = self.oracle_setup
        copies = el.integrate.Trajectory(times=np.tile(avg.times, 16),
                                         states=np.tile(avg.states, (16, 1)))
        m = len(copies.times)
        return (f"descent monitor, 16 copies ({m} samples)",
                lambda: el.monitor_descent(oracle, copies), (m, "sample"))

    # -- CSV writing, compare and lyapunov ------------------------------------

    def csv(self):
        h, stride = fit_step(0.01, self.dither.max_step)
        loop = el.simulate_rmspesc(self.cost, self.dither, self.params, self.state0, self.t1,
                                   h, stride)
        path = self.tmp / "trajectory.csv"
        return (f"CSV writing ({len(loop.times)} rows)",
                lambda: write_trajectory_csv(path, loop, self.cost, with_v=True), None)

    def workload_config(self, name):
        """Seed 0 of a benchmark workload's config, written into the temporary directory."""
        path = self.tmp / f"{name}.cfg"
        path.write_text(config_text(WORKLOADS[name], 0))
        return path

    @functools.cached_property
    def compare_config(self):
        return self.workload_config("compare_expr2d")

    def end_to_end(self, mode, config):
        """One quiet ``esc-lab`` invocation, in process."""
        argv = [mode, "--config", str(config), "--out", str(self.tmp)]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
        return run

    def compare(self):
        return "compare_expr2d, end to end", self.end_to_end("compare", self.compare_config), None

    def lyapunov(self):
        return ("descent_quartic, end to end",
                self.end_to_end("lyapunov", self.workload_config("descent_quartic")), None)

    def fig1(self):
        return ("closed_loop_fig1, end to end",
                self.end_to_end("simulate", self.workload_config("closed_loop_fig1")), None)

    @staticmethod
    def spawn(cmd):
        """Run ``cmd`` in a fresh interpreter on the imported tree's src, quietly."""
        env = child_env(Path(el.__file__).resolve().parents[1])
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which would
        # round every timing up to that grain
        return lambda: subprocess.run([sys.executable, *cmd], env=env, check=True,
                                      stdout=subprocess.DEVNULL)

    def startup(self, mode):
        """A fresh interpreter importing what ``mode`` loads."""
        modules = ", ".join(["esc_lab.cli", *(f"esc_lab.{name}" for name in STARTUP[mode])])
        return f"start-up, {mode}: import {modules}", self.spawn(["-c", f"import {modules}"]), None

    def cli_mode(self, mode):
        """``python -m esc_lab.cli <mode>`` on its workload's seed-0 config, in a fresh
        interpreter."""
        name = CLI_WORKLOADS[mode]
        cmd = ["-m", "esc_lab.cli", mode, "--config", str(self.workload_config(name)),
               "--out", str(self.tmp / f"cli_{mode}")]
        return f"{name}, python -m esc_lab.cli {mode}", self.spawn(cmd), None

    def compare_average(self):
        """compare's average run: the full loop's sample times, stepped at most a quarter
        sample apart and within the gain step."""
        setup = cli._setup(ExperimentConfig(load_config(str(self.compare_config))),
                           oscillatory=True)
        t1, h, stride = setup.grid
        sample_dt = h * stride
        grid = (t1, *fit_step(sample_dt, min(sample_dt / 4, cli._gain_step(setup.params)[0])))
        state0 = setup.state0(setup.washout[1])
        return ("compare_expr2d, average run",
                lambda: el.simulate_average(*setup.system, state0, *grid), None)


def time_rows(rows: Rows, keys, repeats):
    """Time each row; returns the JSON rows and the printed lines."""
    out, lines = [], []
    for key in keys:
        name, run, per = rows.build(key)
        stats, cpu = timings(repeats, run)
        extra = f"   {1e6 * stats[0] / per[0]:.1f} us per {per[1]}" if per else ""
        med, q1, q3 = (1e3 * float(x) for x in stats)
        row = {"key": key, "name": name, "median_ms": med, "q1_ms": q1, "q3_ms": q3}
        if per:
            row.update(per=per[1], us_per=1e6 * stats[0] / per[0])
        if cpu.any():
            extra += f"   children's CPU {fmt(cpu)}"
            med, q1, q3 = (1e3 * float(x) for x in cpu)
            row.update(cpu_median_ms=med, cpu_q1_ms=q1, cpu_q3_ms=q3)
        lines.append(f"{name:56s} {fmt(stats):>30s}{extra}")
        out.append(row)
    return out, lines


def quartiles(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "values": values}


def child_row(tree: Path, key: str, args) -> dict:
    """Time one row in a child process that imports ``esc_lab`` from ``tree``/src."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--rows", key,
           "--repeats", str(args.repeats), "--t1", str(args.t1)]
    done = subprocess.run(cmd, env=child_env(tree / "src"), capture_output=True, text=True,
                          timeout=1800)
    if done.returncode != 0:
        raise RuntimeError(f"{key} on {tree} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])[0]


def run_against(args, keys) -> dict:
    trees = {"this": ROOT, "against": Path(args.against).resolve()}
    report = []
    print(f"{args.pairs} pairs of children per row, {args.repeats} repeats each; "
          f"this = {ROOT}, against = {trees['against']}")
    print(f"{'row':52s} {'this ms [q1, q3]':>26s} {'against ms [q1, q3]':>26s} "
          f"{'ratio':>7s} {'[q1, q3]':>16s}")
    for key in keys:
        rows = {"this": [], "against": []}
        for k in range(args.pairs):
            for side in (("this", "against") if k % 2 == 0 else ("against", "this")):
                rows[side].append(child_row(trees[side], key, args))
        name = rows["this"][-1]["name"]
        entry = {"key": key, "name": name, "name_against": rows["against"][-1]["name"]}
        # wall time, and the children's CPU time of a row that starts processes
        for prefix, field, label in (("", "median_ms", name[:52]),
                                     ("cpu_", "cpu_median_ms", "  children's CPU")):
            if field not in rows["this"][-1]:
                continue
            this, other = ([row[field] for row in rows[side]] for side in ("this", "against"))
            ratios = quartiles([a / b for a, b in zip(this, other)])
            this, other = quartiles(this), quartiles(other)
            ratio = this["median"] / other["median"]
            entry.update({f"{prefix}this_ms": this, f"{prefix}against_ms": other,
                          f"{prefix}ratio": ratio, f"{prefix}pair_ratios": ratios})
            print(f"{label:52s} "
                  f"{this['median']:9.3f} [{this['q1']:.3f}, {this['q3']:.3f}] "
                  f"{other['median']:9.3f} [{other['q1']:.3f}, {other['q3']:.3f}] "
                  f"{ratio:7.3f} [{ratios['q1']:.3f}, {ratios['q3']:.3f}]")
        report.append(entry)
    return {"against": str(trees["against"]), "pairs": args.pairs, "rows": report}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--t1", type=float, default=100.0, help="simulated horizon (default 100)")
    ap.add_argument("--repeats", type=int, default=5, help="timing repeats (default 5)")
    ap.add_argument("--rows", help="comma-separated row keys (default: every row)")
    ap.add_argument("--against", metavar="TREE", help="compare with the checkout at TREE")
    ap.add_argument("--pairs", type=int, default=10, help="child pairs per row (default 10)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--json", metavar="PATH", help="also write the results as JSON to PATH")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        rows = Rows(args.t1, tmp)
        keys = args.rows.split(",") if args.rows else rows.keys()
        unknown = sorted(set(keys) - set(rows.keys()))
        if unknown:
            ap.error(f"unknown row keys: {', '.join(unknown)}")
        if args.child:
            print(json.dumps(time_rows(rows, keys, args.repeats)[0]))
            return 0
        record = {"path": PATH, "python": platform.python_version(), "numpy": np.__version__,
                  "machine": platform.machine(), "nproc": os.cpu_count(), "t1": args.t1,
                  "repeats": args.repeats,
                  "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                  "removed_from_child_env": list(THREAD_VARIABLES)}
        if args.against:
            record.update(run_against(args, keys))
        else:
            before = calibration_s()
            out, lines = time_rows(rows, keys, args.repeats)
            after = calibration_s()
            scale = 2 * REFERENCE_S / (before + after)
            print(f"median [q1, q3] of {args.repeats} repeats; speed scale {scale:.3f} "
                  f"(calibration loop {before:.3f} s before, {after:.3f} s after, "
                  f"reference {REFERENCE_S} s)")
            print("\n".join(lines))
            record.update(scale=scale, calibration_s=[before, after], reference_s=REFERENCE_S,
                          rows=out)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
