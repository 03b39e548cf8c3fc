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

Independent runs within one invocation (the washout seeds of simulate, the
full and average runs of compare) execute one after another.

Exit codes: 0 success, 2 configuration/validation error (including a step
size that does not divide the time span or time.sample_dt, or that exceeds
2.5 / max(omega_l, omega_xi)), 3 runtime abort (non-finite state or a
stalled equilibrium search).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from .averaging import ConvergenceError, convergence_sweep, equilibrium
from .config import MODES, ConfigError, ExperimentConfig, apply_overrides, load_config
from .cost import CostFunction
from .integrate import NonFiniteStateError, Trajectory
from .lyapunov import LevelSpec, monitor_descent
from .plotting import PlotError, emit_plot
from .quadratic import QuadraticModel, quad_jacobian
from .signals import dither_value
from .simulate import simulate_average, simulate_gesc, simulate_rmspesc

__all__ = ["main", "run_experiment"]


def _sanitize(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.+-]", "", label) or "x"


def write_trajectory_csv(path: Path, traj: Trajectory, cost: CostFunction, with_v: bool) -> Path:
    """Schema: t, theta_1..theta_n, v_1..v_n, xi, J (J evaluated at theta)."""
    n = cost.n
    theta = traj.states[:, :n]
    if with_v:
        v = traj.states[:, n : 2 * n]
        xi = traj.states[:, 2 * n]
    else:
        v = np.zeros_like(theta)
        xi = traj.states[:, n]
    j = np.atleast_1d(cost.f(theta))
    header = (
        ["t"]
        + [f"theta_{i + 1}" for i in range(n)]
        + [f"v_{i + 1}" for i in range(n)]
        + ["xi", "J"]
    )
    lines = [",".join(header)]
    for row in range(len(traj.times)):
        fields = [f"{traj.times[row]:.12g}"]
        fields += [f"{theta[row, i]:.12g}" for i in range(n)]
        fields += [f"{v[row, i]:.12g}" for i in range(n)]
        fields += [f"{xi[row]:.12g}", f"{j[row]:.12g}"]
        lines.append(",".join(fields))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def _gain_step(params) -> tuple[float, str]:
    """Largest step for the filters: RK4 is stable on the real axis only for
    h * omega <= 2.785, so h <= 2.5 / omega for the fastest filter gain."""
    gain, name = max((float(np.max(params.omega_l)), "gains.omega_l"),
                     (float(params.omega_xi), "gains.omega_xi"))
    return 2.5 / gain, name


def _time_grid(cfg: ExperimentConfig, params, period: float, r_max: int, oscillatory: bool):
    t0 = cfg.number("time.t0", 0.0)
    t1 = cfg.number("time.t1")
    if not t1 > t0:
        raise ConfigError("field 'time.t1' must exceed 'time.t0'")
    sample_dt = cfg.number("time.sample_dt", 0.05)
    if not 0 < sample_dt <= t1 - t0:
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
        return t0, t1, h, stride
    h_max = min(period / (40.0 * r_max) if oscillatory else 0.01, h_gain)
    stride = max(1, int(np.ceil(sample_dt / h_max - 1e-12)))
    return t0, t1, sample_dt / stride, stride


def _initial_state(cfg: ExperimentConfig, n: int):
    theta0 = cfg.number_list("init.theta")
    if theta0.size != n:
        raise ConfigError(f"field 'init.theta' must have {n} entries")
    v0 = cfg.number_list("init.v", ",".join(["0"] * n))
    if v0.size != n:
        raise ConfigError(f"field 'init.v' must have {n} entries")
    if np.any(v0 < 0):
        raise ConfigError("field 'init.v' entries must be nonnegative")
    return theta0, v0


def _mode_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    cost = cfg.cost()
    dither = cfg.dither()
    params = cfg.gains()
    if not cost.n == dither.n == params.n:
        raise ConfigError("cost, dither, and gains dimensions must agree")
    algorithm = cfg.string("algorithm", "rmspesc", choices=("rmspesc", "gesc"))
    theta0, v0 = _initial_state(cfg, cost.n)
    t0, t1, h, stride = _time_grid(cfg, params, dither.period, dither.r_max, oscillatory=True)
    y0 = float(cost.f(theta0 + dither_value(dither, t0)))
    variants = cfg.initial_washouts(y0)

    for label, xi0 in variants:
        if algorithm == "rmspesc":
            state0 = np.concatenate([theta0, v0, [xi0]])
            traj = simulate_rmspesc(cost, dither, params, state0, t0, t1, h, stride)
        else:
            state0 = np.concatenate([theta0, [xi0]])
            traj = simulate_gesc(cost, dither, params, state0, t0, t1, h, stride)
        name = f"trajectory_xi0_{_sanitize(label)}.csv" if len(variants) > 1 else "trajectory.csv"
        path = write_trajectory_csv(out_dir / name, traj, cost, with_v=(algorithm == "rmspesc"))
        final_theta = traj.states[-1, : cost.n]
        print(
            f"{algorithm} xi0={label}: wrote {path} "
            f"({len(traj.times)} samples, final theta {np.array2string(final_theta, precision=5)})"
        )
    return 0


def _mode_average(cfg: ExperimentConfig, out_dir: Path) -> int:
    cost = cfg.cost()
    dither = cfg.dither()
    params = cfg.gains()
    theta0, v0 = _initial_state(cfg, cost.n)
    t0, t1, h, stride = _time_grid(cfg, params, dither.period, dither.r_max, oscillatory=False)
    y0 = float(cost.f(theta0))
    label, xi0 = cfg.initial_washouts(y0)[0]
    n_q = cfg.integer("average.n_q", 0) or None
    state0 = np.concatenate([theta0, v0, [xi0]])
    traj = simulate_average(cost, dither, params, state0, t0, t1, h, stride, n_q=n_q)
    path = write_trajectory_csv(out_dir / "trajectory_average.csv", traj, cost, with_v=True)
    print(f"average xi0={label}: wrote {path} ({len(traj.times)} samples)")
    return 0


def _mode_compare(cfg: ExperimentConfig, out_dir: Path) -> int:
    cost = cfg.cost()
    dither = cfg.dither()
    params = cfg.gains()
    theta0, v0 = _initial_state(cfg, cost.n)
    t0, t1, h, stride = _time_grid(cfg, params, dither.period, dither.r_max, oscillatory=True)
    y0 = float(cost.f(theta0 + dither_value(dither, t0)))
    _, xi0 = cfg.initial_washouts(y0)[0]
    n_q = cfg.integer("average.n_q", 0) or None
    state0 = np.concatenate([theta0, v0, [xi0]])
    sample_dt = h * stride
    avg_stride = max(4, int(np.ceil(sample_dt / _gain_step(params)[0] - 1e-12)))
    h_avg = sample_dt / avg_stride
    full = simulate_rmspesc(cost, dither, params, state0, t0, t1, h, stride)
    avg = simulate_average(cost, dither, params, state0, t0, t1, h_avg, avg_stride, n_q=n_q)
    if len(full.times) != len(avg.times) or not np.allclose(full.times, avg.times, atol=1e-9):
        raise RuntimeError("full and average runs recorded different time grids")
    path_full = write_trajectory_csv(out_dir / "trajectory_full.csv", full, cost, with_v=True)
    path_avg = write_trajectory_csv(out_dir / "trajectory_average.csv", avg, cost, with_v=True)
    gaps = np.max(np.abs(full.states[:, : cost.n] - avg.states[:, : cost.n]), axis=0)
    lines = [
        f"time span: [{t0:.6g}, {t1:.6g}], samples: {len(full.times)}",
        f"full-system step h = {h:.6g}, average-system step h = {h_avg:.6g}",
    ]
    for i in range(cost.n):
        lines.append(f"sup |theta_{i + 1}(full) - theta_{i + 1}(average)| = {gaps[i]:.6g}")
    summary = out_dir / "deviation_summary.txt"
    summary.parent.mkdir(parents=True, exist_ok=True)
    summary.write_text("\n".join(lines) + "\n")
    print(f"wrote {path_full}, {path_avg}")
    for line in lines:
        print(line)
    return 0


def _mode_quadratic(cfg: ExperimentConfig, out_dir: Path) -> int:
    h = cfg.number_list("cost.h")
    if h.size != 1:
        raise ConfigError("field 'cost.h' must be a single curvature for the quadratic report")
    model = QuadraticModel(h=float(h[0]), j_opt=cfg.number("cost.j_opt", 0.0),
                           a=float(cfg.number_list("dither.amplitudes")[0]))
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
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "jacobian.txt").write_text(text)
    print(text, end="")
    return 0


def _mode_converge(cfg: ExperimentConfig, out_dir: Path) -> int:
    cost = cfg.cost()
    dither = cfg.dither()
    a0_list = cfg.number_list("converge.a0")
    theta = cfg.number_list("converge.theta" if cfg.has("converge.theta") else "init.theta")
    if theta.size != cost.n:
        raise ConfigError(f"field 'converge.theta' must have {cost.n} entries")
    n_q = cfg.integer("average.n_q", 0) or None
    rows = convergence_sweep(cost, dither, theta, list(a0_list), n_q=n_q)
    lines = ["a0,grad_error,v_star_max"]
    for row in rows:
        lines.append(f"{row.a0:.12g},{row.grad_error:.12g},{row.v_star_max:.12g}")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "converge.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(rows)} amplitudes)")
    return 0


def _mode_lyapunov(cfg: ExperimentConfig, out_dir: Path) -> int:
    cost = cfg.cost()
    dither = cfg.dither()
    params = cfg.gains()
    theta0, v0 = _initial_state(cfg, cost.n)
    t0, t1, h, stride = _time_grid(cfg, params, dither.period, dither.r_max, oscillatory=False)
    y0 = float(cost.f(theta0))
    _, xi0 = cfg.initial_washouts(y0)[0]
    n_q = cfg.integer("average.n_q", 0) or None
    state0 = np.concatenate([theta0, v0, [xi0]])
    traj = simulate_average(cost, dither, params, state0, t0, t1, h, stride, n_q=n_q)

    eq = equilibrium(cost, dither, n_q=n_q)
    err0 = np.abs(theta0 - eq.theta_star)
    if cfg.has("lyapunov.box_halfwidth"):
        hw = cfg.number_list("lyapunov.box_halfwidth")
        if hw.size == 1:
            hw = np.full(cost.n, float(hw[0]))
        if hw.size != cost.n:
            raise ConfigError(f"field 'lyapunov.box_halfwidth' must have 1 or {cost.n} entries")
    else:
        hw = np.maximum(1.0, 2.0 * err0)
    spec = LevelSpec(
        box=np.stack([-hw, hw], axis=-1),
        grid_theta=cfg.integer("lyapunov.grid_theta", 401),
    )
    tol = cfg.number("lyapunov.tol", -1.0)
    report = monitor_descent(traj, cost, dither, eq, spec, tol=None if tol < 0 else tol, n_q=n_q)

    lines = ["t,V,V_theta,V_xi," + ",".join(f"V_v_{i + 1}" for i in range(cost.n))]
    for j in range(len(report.times)):
        fields = [
            f"{report.times[j]:.12g}",
            f"{report.values[j]:.12g}",
            f"{report.v_theta_terms[j]:.12g}",
            f"{report.v_xi_terms[j]:.12g}",
        ]
        fields += [f"{report.v_v_terms[j, i]:.12g}" for i in range(cost.n)]
        lines.append(",".join(fields))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "lyapunov.csv"
    path.write_text("\n".join(lines) + "\n")
    verdict = report.summary()
    (out_dir / "lyapunov_verdict.txt").write_text(verdict + "\n")
    print(f"wrote {path}")
    print(verdict)
    return 0


def _mode_plot(cfg: ExperimentConfig, out_dir: Path) -> int:
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
    except (ConfigError, PlotError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteStateError, ConvergenceError) as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
