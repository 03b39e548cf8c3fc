"""Experiment runner: ``esc-lab <mode> --config <path> [--set key=value ...] --out <dir>``.

Modes
-----
simulate   closed-loop trajectories (one CSV per initial washout entry)
average    average-system trajectory CSV
compare    full vs average trajectories plus a deviation summary
quadratic  closed-form Jacobian/eigenvalue report for a quadratic cost
converge   dither-shrinking sweep CSV (a0, gradient error, equilibrium v*)
lyapunov   average trajectory + composite-V descent monitoring
plot       render CSV columns to an SVG

Runs start at t = 0, where the dither is zero, so ``y0`` in init.xi is
J(init.theta) in every mode. The average system, its equilibrium and the
descent monitor run at their library defaults (the quadrature node count
derived from the cost, LevelSpec's grid, the fixed descent tolerance); no
config key sets them. lyapunov reads its box, searches for the equilibrium,
builds the level-set oracle and checks that the initial state's V_theta level
stays in the box (without evaluating V) before it integrates the average
system, so a bad box, a failed search, a box on which the fields are not
finite or one the initial state escapes exits before the run.

The washout seeds of simulate (one per init.xi entry) run as one lockstep
batch: a single RK4 loop steps one member row per seed, and each member's CSV
is bit-identical to a run of that seed alone. An abort in any member stops the
whole batch before any CSV is written. The stdout summary of simulate, average
and compare reports each run's clamp events: steps on which the v >= 0 clamp
fired, summed over the members (gesc has no v and reports 0). compare runs the
full loop and then its average system in this process, on the same setup; an
abort of the full run is reported before the average run starts.

Each mode imports only the modules it runs: importing this module loads
config, cost, expressions, signals, dynamics, integrate and simulate, which
simulate mode needs; average and compare add averaging (on their first
average run), converge adds averaging, lyapunov averaging and lyapunov,
quadratic the quadratic module and plot the plotting module. numpy's
floating-point warnings are silenced during a run: a non-finite state, y0
or search box ends the run with one of the errors below, which names it.

A run uses one thread. Loaded by numpy, OpenBLAS would start nproc - 1 worker
threads that spin for about 0.13 s of CPU each and are never given work (a
run's only BLAS calls are norms of n-vectors and eigvalsh of an n x n
Hessian), so importing this module sets OPENBLAS_NUM_THREADS=1 first. It does
so only where the caller has not set the variable and numpy is not loaded yet:
in a process that already loaded numpy the variable would act only on its
children.

Exit codes: 0 success, 2 configuration/validation error (including cost,
dither and gains of different dimensions in a trajectory mode: simulate,
average, compare or lyapunov; a non-finite number in a list setting, a gain,
cost.j_opt or init.xi; a step size that does not divide time.sample_dt, or
that exceeds 2.5 / max(omega_l, omega_xi); a time.t1 that the step of a grid
the mode runs (compare's average grid too) does not divide, or of more than
MAX_STEPS = 1e8 RK4 steps of the largest step allowed, each found before any
run and named with the keys that set the step; a lyapunov search box on
which J or an averaged filter target is not finite; two init.xi entries that
would write the same CSV name; more than one init.xi entry in average,
compare or lyapunov mode; and a quadratic report given more than one
curvature or amplitude), 3 runtime abort (non-finite state, or an
equilibrium search that stalls or outruns the dither's resolution).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

# one thread (see the module docstring): OpenBLAS reads the variable as numpy loads.
# Once numpy is loaded it no longer acts on this process and would only reach the
# children, which an A/B timing of two trees spawns; the caller's value stands.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .config import MODES, ConfigError, ExperimentConfig, apply_overrides, load_config
from .cost import CostFunction
from .dynamics import EscParams
from .integrate import ConvergenceError, NonFiniteStateError, Trajectory, fit_step, step_grid
from .signals import DitherConfig
from .simulate import simulate_average, simulate_gesc, simulate_rmspesc

__all__ = ["main", "run_experiment"]


def _sanitize(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.+-]", "", label) or "x"


# Rows formatted per ``%`` call and write in write_csv: a 10,001 x 5 table takes about
# a third less time than at one row per call, and larger blocks save nothing more
# while they hold more text at once.
_CSV_BLOCK = 128


def write_csv(path: Path, header: list[str], table) -> Path:
    """Write a header line, then one line per table row, values as ``.12g``;
    formats and writes a block of rows at a time, so no text copy of the whole
    table is held at once."""
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.12g"] * table.shape[-1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _CSV_BLOCK):
            block = table[start:start + _CSV_BLOCK]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))
    return path


def write_trajectory_csv(path: Path, traj: Trajectory, cost: CostFunction, with_v: bool) -> Path:
    """Schema: t, theta_1..theta_n, v_1..v_n, xi, J (J evaluated at theta)."""
    n = cost.n
    theta = traj.states[:, :n]
    v = traj.states[:, n : 2 * n] if with_v else np.zeros_like(theta)
    xi = traj.states[:, 2 * n if with_v else n]
    header = ["t", *(f"theta_{i + 1}" for i in range(n)), *(f"v_{i + 1}" for i in range(n)),
              "xi", "J"]
    table = np.column_stack([traj.times, theta, v, xi, np.atleast_1d(cost.f(theta))])
    return write_csv(path, header, table)


def _gain_step(params: EscParams) -> tuple[float, str]:
    """Largest step for the filters: RK4 is stable on the real axis only for
    h * omega <= 2.785, so h <= 2.5 / omega for the fastest filter gain."""
    gain, name = max((float(np.max(params.omega_l)), "gains.omega_l"),
                     (float(params.omega_xi), "gains.omega_xi"))
    return 2.5 / gain, name


# Most RK4 steps a run may take. A span beyond it is a mistyped setting, not an
# experiment: 1e8 full-loop steps of one member take over an hour.
MAX_STEPS = 10**8


def _check_grid(grid: tuple[float, float, int], key: str, h_max: float, keys: str):
    """``grid`` = (t1, h, stride) if a run takes it: at most MAX_STEPS steps of the largest
    step ``h_max`` (bounded by ``keys``), and h (set by ``key``) dividing t1 as step_grid asks."""
    t1, h, _ = grid
    if not t1 <= MAX_STEPS * h_max:     # also an h_max that underflowed to 0
        raise ConfigError(f"field 'time.t1' = {t1:.6g} takes more than {MAX_STEPS:.0e} RK4 "
                          f"steps of h <= {h_max:.6g}, bounded by {keys}")
    try:
        step_grid(0.0, *grid)
    except ValueError:
        raise ConfigError(f"field 'time.t1' = {t1:.6g}: the RK4 step h = {h:.6g}, set by "
                          f"{key}, does not divide the span [0, {t1:.6g}]") from None
    return grid


def _time_grid(cfg: ExperimentConfig, params: EscParams, dither: DitherConfig, oscillatory: bool):
    """Runs start at t = 0; returns (t1, h, record stride), checked by :func:`_check_grid`."""
    t1 = cfg.number("time.t1")
    if not 0 < t1 < np.inf:
        raise ConfigError("field 'time.t1' must be positive and finite")
    sample_dt = cfg.number("time.sample_dt", 0.05)
    if not 0 < sample_dt <= t1:
        raise ConfigError("field 'time.sample_dt' must be positive and fit the time span")
    h_gain, gain_name = _gain_step(params)
    if cfg.has("time.h"):
        h = cfg.number("time.h")
        if not 0 < h <= sample_dt:
            raise ConfigError("field 'time.h' must be positive and at most time.sample_dt")
        span = sample_dt / h
        stride = round(span)
        if abs(span - stride) > 1e-9 * stride:
            raise ConfigError(f"field 'time.h' = {h:.6g} must divide time.sample_dt = {sample_dt:.6g}")
        if h > h_gain:
            raise ConfigError(f"field 'time.h' = {h:.6g} exceeds 2.5 / {gain_name} = {h_gain:.6g}; "
                              "RK4 is unstable for the filters beyond that step")
        return _check_grid((t1, h, stride), "time.h", h, "time.h")
    h_max, keys = min((dither.max_step, "dither.omega and dither.rates")
                      if oscillatory else (0.01, "the average system's 0.01 cap"),
                      (h_gain, gain_name), (sample_dt, "time.sample_dt"))
    return _check_grid((t1, *fit_step(sample_dt, h_max)), "time.sample_dt", h_max, keys)


@dataclass(frozen=True)
class _Run:
    """The validated setup every trajectory mode starts from."""

    cost: CostFunction
    dither: DitherConfig
    params: EscParams
    theta0: np.ndarray
    v0: np.ndarray
    grid: tuple[float, float, int]          # t1, h, record stride
    washouts: list[tuple[str, float]]       # (label, xi0) per init.xi entry

    @property
    def system(self) -> tuple[CostFunction, DitherConfig, EscParams]:
        return self.cost, self.dither, self.params

    @property
    def washout(self) -> tuple[str, float]:
        """The one init.xi entry of a mode that runs a single trajectory."""
        if len(self.washouts) != 1:
            raise ConfigError("field 'init.xi' must have 1 entry in a mode that runs one "
                              f"trajectory, got {len(self.washouts)}")
        return self.washouts[0]

    def state0(self, xi0: float, with_v: bool = True) -> np.ndarray:
        return np.concatenate([self.theta0, self.v0, [xi0]] if with_v else [self.theta0, [xi0]])


def _setup(cfg: ExperimentConfig, oscillatory: bool) -> _Run:
    """Build and cross-check cost, dither, gains, initial state and time grid.

    ``oscillatory`` selects the full-loop step rule; the average system steps
    at most 0.01. y0 = J(theta0) in every mode: the dither is zero at t = 0.
    """
    cost, dither, params = cfg.cost(), cfg.dither(), cfg.gains()
    if not cost.n == dither.n == params.n:
        raise ConfigError("cost, dither, and gains dimensions must agree")
    n = cost.n
    theta0 = cfg.number_list("init.theta")
    if theta0.size != n:
        raise ConfigError(f"field 'init.theta' must have {n} entries")
    v0 = cfg.number_list("init.v", ",".join(["0"] * n))
    if v0.size != n:
        raise ConfigError(f"field 'init.v' must have {n} entries")
    if np.any(v0 < 0):
        raise ConfigError("field 'init.v' entries must be nonnegative")
    grid = _time_grid(cfg, params, dither, oscillatory)
    y0 = float(cost.f(theta0))
    return _Run(cost, dither, params, theta0, v0, grid, cfg.initial_washouts(y0))


def _washout_csv_names(cfg: ExperimentConfig, labels: list[str]) -> list[str]:
    """One CSV name per init.xi entry; two entries that sanitize alike are an error."""
    if len(labels) == 1:
        return ["trajectory.csv"]
    names = [f"trajectory_xi0_{_sanitize(label)}.csv" for label in labels]
    entries = cfg.string_list("init.xi")
    for i, name in enumerate(names):
        first = names.index(name)
        if first < i:
            raise ConfigError(f"field 'init.xi' entries {entries[first]!r} and {entries[i]!r} "
                              f"would both write {name}")
    return names


def _mode_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    algorithm = cfg.string("algorithm", "rmspesc", choices=("rmspesc", "gesc"))
    run = _setup(cfg, oscillatory=True)
    with_v = algorithm == "rmspesc"
    simulate = simulate_rmspesc if with_v else simulate_gesc
    labels = [label for label, _ in run.washouts]
    names = _washout_csv_names(cfg, labels)
    state0 = np.stack([run.state0(xi0, with_v) for _, xi0 in run.washouts])
    try:
        batch = simulate(*run.system, state0, *run.grid)
    except NonFiniteStateError as exc:
        raise NonFiniteStateError(exc.t, exc.state, exc.member,
                                  f"init.xi={labels[exc.member]}") from None
    for b, (label, name) in enumerate(zip(labels, names)):
        traj = replace(batch, states=batch.states[:, b])
        path = write_trajectory_csv(out_dir / name, traj, run.cost, with_v)
        final_theta = traj.states[-1, : run.cost.n]
        print(
            f"{algorithm} xi0={label}: wrote {path} "
            f"({len(traj.times)} samples, final theta {np.array2string(final_theta, precision=5)})"
        )
    print(f"{algorithm}: {batch.clamp_events} clamp events, summed over the init.xi entries")
    return 0


def _mode_average(cfg: ExperimentConfig, out_dir: Path) -> int:
    run = _setup(cfg, oscillatory=False)
    label, xi0 = run.washout
    traj = simulate_average(*run.system, run.state0(xi0), *run.grid)
    path = write_trajectory_csv(out_dir / "trajectory_average.csv", traj, run.cost, with_v=True)
    print(f"average xi0={label}: wrote {path} ({len(traj.times)} samples, "
          f"{traj.clamp_events} clamp events)")
    return 0


def _mode_compare(cfg: ExperimentConfig, out_dir: Path) -> int:
    run = _setup(cfg, oscillatory=True)
    cost, state0 = run.cost, run.state0(run.washout[1])
    t1, h, stride = run.grid
    # the average system at the full loop's sample times, stepped at most a
    # quarter sample apart and within the gain step; checked before either run
    sample_dt, key = h * stride, "time.sample_dt for the average system"
    avg_grid = (t1, *fit_step(sample_dt, min(sample_dt / 4, _gain_step(run.params)[0])))
    _check_grid(avg_grid, key, avg_grid[1], key)
    full = simulate_rmspesc(*run.system, state0, *run.grid)
    avg = simulate_average(*run.system, state0, *avg_grid)
    if len(full.times) != len(avg.times) or not np.allclose(full.times, avg.times, atol=1e-9):
        raise RuntimeError("full and average runs recorded different time grids")
    path_full = write_trajectory_csv(out_dir / "trajectory_full.csv", full, cost, with_v=True)
    path_avg = write_trajectory_csv(out_dir / "trajectory_average.csv", avg, cost, with_v=True)
    gaps = np.max(np.abs(full.states[:, : cost.n] - avg.states[:, : cost.n]), axis=0)
    lines = [
        f"time span: [0, {t1:.6g}], samples: {len(full.times)}",
        f"full-system step h = {h:.6g}, average-system step h = {avg_grid[1]:.6g}",
    ]
    for i in range(cost.n):
        lines.append(f"sup |theta_{i + 1}(full) - theta_{i + 1}(average)| = {gaps[i]:.6g}")
    (out_dir / "deviation_summary.txt").write_text("\n".join(lines) + "\n")
    print(f"wrote {path_full}, {path_avg}")
    print(f"clamp events: full {full.clamp_events}, average {avg.clamp_events}")
    for line in lines:
        print(line)
    return 0


def _mode_quadratic(cfg: ExperimentConfig, out_dir: Path) -> int:
    from .quadratic import QuadraticModel, quad_jacobian

    h = cfg.number_list("cost.h")
    if h.size != 1:
        raise ConfigError("field 'cost.h' must be a single curvature for the quadratic report")
    a = cfg.number_list("dither.amplitudes")
    if a.size != 1:
        raise ConfigError("field 'dither.amplitudes' must be a single amplitude for the "
                          "quadratic report")
    model = QuadraticModel(h=float(h[0]), j_opt=cfg.number("cost.j_opt", 0.0), a=float(a[0]))
    params = cfg.gains()
    report = quad_jacobian(model, params)
    eig = ", ".join(f"{v:.6f}" for v in report.eigenvalues)
    lines = [
        "average-system Jacobian in error coordinates (theta, xi, v):",
        np.array2string(report.matrix, precision=6, suppress_small=True),
        f"eigenvalues: {eig}",
        f"hurwitz: {'yes' if report.hurwitz else 'no'}",
        f"steep-curvature eigenvalue limit (-4k/|a|): {report.steep_limit:.6g}",
        f"shallow-curvature eigenvalue asymptote (-(k/eps)*H): {report.shallow_limit:.6g}",
    ]
    text = "\n".join(lines) + "\n"
    (out_dir / "jacobian.txt").write_text(text)
    print(text, end="")
    return 0


def _mode_converge(cfg: ExperimentConfig, out_dir: Path) -> int:
    from .averaging import convergence_sweep

    cost, dither = cfg.cost(), cfg.dither()
    a0_list = cfg.number_list("converge.a0")
    key = "converge.theta" if cfg.has("converge.theta") else "init.theta"
    theta = cfg.number_list(key)
    if theta.size != cost.n:
        raise ConfigError(f"field {key!r} must have {cost.n} entries")
    if np.any(a0_list <= 0) or np.any(np.diff(a0_list) >= 0):
        raise ConfigError("field 'converge.a0' entries must be positive and strictly decreasing")
    rows = convergence_sweep(cost, dither, theta, list(a0_list))
    path = write_csv(out_dir / "converge.csv", ["a0", "grad_error", "v_star_max"],
                     [[row.a0, row.grad_error, row.v_star_max] for row in rows])
    print(f"wrote {path} ({len(rows)} amplitudes)")
    return 0


def _mode_lyapunov(cfg: ExperimentConfig, out_dir: Path) -> int:
    from .averaging import equilibrium
    from .lyapunov import LevelSetOracle, LevelSpec, monitor_descent

    run = _setup(cfg, oscillatory=False)
    cost, dither = run.cost, run.dither
    state0 = run.state0(run.washout[1])
    hw = None
    if cfg.has("lyapunov.box_halfwidth"):
        hw = cfg.number_list("lyapunov.box_halfwidth")
        if hw.size == 1:
            hw = np.full(cost.n, float(hw[0]))
        if hw.size != cost.n:
            raise ConfigError("field 'lyapunov.box_halfwidth' must have "
                              + ("1 entry" if cost.n == 1 else f"1 or {cost.n} entries"))
        if np.any(hw <= 0):
            raise ConfigError("field 'lyapunov.box_halfwidth' entries must be positive")
    eq = equilibrium(cost, dither)
    if hw is None:
        hw = np.maximum(1.0, 2.0 * np.abs(run.theta0 - eq.theta_star))
    oracle = LevelSetOracle(cost, dither, eq, LevelSpec(box=np.stack([-hw, hw], axis=-1)))
    # a box the initial state's V_theta level escapes raises BoxEscapeError here, before
    # the run, and without evaluating V
    oracle._theta_levels(state0[None, :cost.n] - eq.theta_star)
    traj = simulate_average(*run.system, state0, *run.grid)
    report = monitor_descent(oracle, traj)

    header = ["t", "V", "V_theta", "V_xi"] + [f"V_v_{i + 1}" for i in range(cost.n)]
    table = np.column_stack([report.times, report.values, report.v_theta_terms,
                             report.v_xi_terms, report.v_v_terms])
    path = write_csv(out_dir / "lyapunov.csv", header, table)
    verdict = report.summary()
    (out_dir / "lyapunov_verdict.txt").write_text(verdict + "\n")
    print(f"wrote {path}")
    print(verdict)
    return 0


def _mode_plot(cfg: ExperimentConfig, out_dir: Path) -> int:
    from .plotting import emit_plot

    csv_path = cfg.raw("plot.csv")
    columns = cfg.string_list("plot.columns")
    out_name = cfg.raw("plot.out", "plot.svg")
    path = emit_plot(csv_path, columns, out_dir / out_name)
    print(f"wrote {path}")
    return 0


_HANDLERS = {
    "simulate": _mode_simulate,
    "average": _mode_average,
    "compare": _mode_compare,
    "quadratic": _mode_quadratic,
    "converge": _mode_converge,
    "lyapunov": _mode_lyapunov,
    "plot": _mode_plot,
}


def run_experiment(config_path: str, overrides: list[str], mode: str | None = None,
                   out_dir: str = ".") -> int:
    """Load a config, apply overrides, dispatch one experiment. Returns the exit code."""
    values = apply_overrides(load_config(config_path), overrides)
    cfg = ExperimentConfig(values)
    resolved = cfg.mode(mode)
    if resolved not in MODES:
        raise ConfigError(f"unknown mode {resolved!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a non-finite value aborts the run with the program's own error (a non-finite state,
    # y0 or an init.xi entry, the oracle's box check), which numpy's warnings would only echo
    with np.errstate(all="ignore"):
        return _HANDLERS[resolved](cfg, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="esc-lab",
        description="Run extremum-seeking experiments from a config file.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="config file path or bundled config name")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config field")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    args = parser.parse_args(argv)
    try:
        return run_experiment(args.config, args.overrides, args.mode, args.out)
    except ValueError as exc:       # ConfigError and plotting's PlotError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteStateError, ConvergenceError) as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
