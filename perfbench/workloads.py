"""Workload definitions: the config each seed generates and the work it implies.

Each workload is one ``esc-lab`` mode on a fixed config template. The seed
draws ``init.theta`` and ``init.v`` from a band of +-10% around the template
values; everything else is fixed, so the RK4 step counts, the CSV row counts
and the set of layers exercised are the same for every seed.

The templates are kept here, not read from the package's bundled configs, so
that a change to a bundled config cannot silently change a workload.
``descent_quartic`` pins ``lyapunov.box_halfwidth`` to the value the bundled
config derives (2 |theta0 - theta*| = 4): left to be derived from each seed's
theta0, the radius grid changed with the seed and so did which side of the
symmetric quartic each radius search refined; ``x ** 4`` on a 256-node array
took 15x longer on negative bases (numpy 2.4.6, x86-64), so run time varied
by 35% across seeds.

Horizons are shortened against the bundled runs where one invocation would
otherwise take 10-20 s; a run then holds several invocations and reports
their median.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

BAND = 0.10          # relative half-width of the seed band
DEFAULT_SEED = 0     # the seed whose outputs are pinned in reference.json

_LOOP_GAINS = """\
gains.k = 1
gains.epsilon = 0.05
gains.omega_xi = 1
"""


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    why: str
    template: str           # config text without the init.theta / init.v lines
    theta: tuple[float, ...]
    v: tuple[float, ...]
    omega: float
    r_max: int
    t1: float
    sample_dt: float
    cost: Callable[[np.ndarray], np.ndarray]   # J on rows of theta, written out independently

    @property
    def n(self) -> int:
        return len(self.theta)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="closed_loop_fig1",
            mode="simulate",
            why="full RMSp loop, 3 washout seeds x 10,000 RK4 steps on 2 pool threads: "
                "stresses cost, dynamics, integrate and CSV writing; no averaging or lyapunov",
            template="""\
mode = simulate
algorithm = rmspesc
cost.kind = quartic
dither.amplitudes = 0.02
dither.rates = 1
dither.omega = 10
gains.omega_l = 0.25
""" + _LOOP_GAINS + """\
init.xi = 0, y0, 2*y0
time.t1 = 100
time.sample_dt = 0.01
""",
            theta=(2.0,), v=(0.81,), omega=10.0, r_max=1, t1=100.0, sample_dt=0.01,
            cost=lambda th: th[:, 0] ** 4 / 24.0,
        ),
        Workload(
            name="descent_quartic",
            mode="lyapunov",
            why="average system (256-node quadrature) then the level-set descent monitor: "
                "stresses averaging and lyapunov; bypasses the full-loop rhs",
            template="""\
mode = lyapunov
cost.kind = quartic
dither.amplitudes = 0.02
dither.rates = 1
dither.omega = 10
gains.omega_l = 0.25
""" + _LOOP_GAINS + """\
init.xi = 0
time.t1 = 25
time.sample_dt = 0.05
lyapunov.box_halfwidth = 4
""",
            theta=(2.0,), v=(0.81,), omega=10.0, r_max=1, t1=25.0, sample_dt=0.05,
            cost=lambda th: th[:, 0] ** 4 / 24.0,
        ),
        Workload(
            name="compare_expr2d",
            mode="compare",
            why="parsed 2-D cost, rates 1,2 (512-node quadrature), full loop and average "
                "system as 2 pool jobs: n>1, the expression evaluator, two integrators",
            template="""\
mode = compare
cost.kind = expr
cost.n = 2
cost.expr = theta1^4 + 2*theta2^4 + theta1^2*theta2^2 + 0.5*(theta1 - theta2)^2
dither.amplitudes = 0.02, 0.02
dither.rates = 1, 2
dither.omega = 10
gains.omega_l = 0.25, 0.25
""" + _LOOP_GAINS + """\
init.xi = 0
time.t1 = 50
time.sample_dt = 0.05
""",
            theta=(1.5, -1.0), v=(0.81, 0.81), omega=10.0, r_max=2, t1=50.0, sample_dt=0.05,
            cost=lambda th: (th[:, 0] ** 4 + 2.0 * th[:, 1] ** 4 + th[:, 0] ** 2 * th[:, 1] ** 2
                             + 0.5 * (th[:, 0] - th[:, 1]) ** 2),
        ),
    )
}


def draw_init(workload: Workload, seed: int) -> tuple[list[float], list[float]]:
    """Initial theta and v for a seed, each scaled by a factor in [1 - BAND, 1 + BAND]."""
    rng = random.Random(f"{workload.name}:{seed}")
    theta = [x * rng.uniform(1.0 - BAND, 1.0 + BAND) for x in workload.theta]
    v = [x * rng.uniform(1.0 - BAND, 1.0 + BAND) for x in workload.v]
    return theta, v


def config_text(workload: Workload, seed: int) -> str:
    theta, v = draw_init(workload, seed)
    return (
        f"# esc-lab benchmark workload {workload.name}, seed {seed}\n"
        + workload.template
        + "init.theta = " + ", ".join(repr(x) for x in theta) + "\n"
        + "init.v = " + ", ".join(repr(x) for x in v) + "\n"
    )


def _grid(t1: float, h: float, stride: int) -> tuple[int, int]:
    """RK4 steps and recorded rows for one integrator run (mirrors the CLI's rule)."""
    nsteps = int(round(t1 / h))
    rows = 1 + nsteps // stride + (1 if nsteps % stride else 0)
    return nsteps, rows


def _oscillatory(w: Workload) -> tuple[float, int]:
    h_rule = (2.0 * math.pi / w.omega) / (40.0 * w.r_max)
    stride = max(1, int(math.ceil(w.sample_dt / h_rule - 1e-12)))
    return w.sample_dt / stride, stride


def expected_work(w: Workload) -> dict:
    """RK4 steps over all integrator runs of one invocation, and rows per output CSV."""
    if w.mode == "simulate":
        h, stride = _oscillatory(w)
        nsteps, rows = _grid(w.t1, h, stride)
        files = ["trajectory_xi0_0.csv", "trajectory_xi0_y0.csv", "trajectory_xi0_2y0.csv"]
        return {"steps": 3 * nsteps, "rows": {f: rows for f in files}}
    if w.mode == "lyapunov":
        stride = max(1, int(math.ceil(w.sample_dt / 0.01 - 1e-12)))
        nsteps, rows = _grid(w.t1, w.sample_dt / stride, stride)
        return {"steps": nsteps, "rows": {"lyapunov.csv": rows}}
    if w.mode == "compare":
        h, stride = _oscillatory(w)
        full_steps, rows = _grid(w.t1, h, stride)
        avg_steps, _ = _grid(w.t1, h * stride / 4, 4)
        return {
            "steps": full_steps + avg_steps,
            "rows": {"trajectory_full.csv": rows, "trajectory_average.csv": rows},
        }
    raise ValueError(f"no work model for mode {w.mode!r}")
