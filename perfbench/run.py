#!/usr/bin/env python3
"""esc-lab benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``esc_lab`` is imported from its
``src/``. From the seed the benchmark writes the config the program
receives (see ``workloads.py``). It then:

* times set-up (``setup_s``): ``probe.py`` children that start Python,
  import ``esc_lab.cli``, load and validate the config and build the cost,
  dither and gains, then exit; the median of several;
* runs ``esc-lab`` as a fresh child process, one invocation at a time (a
  closed loop with a single client), for S seconds, and checks every
  invocation's outputs (``checks.py``);
* takes out of each child's wall time the time the hypervisor kept this
  VM's CPUs from running (``steal_s``), times a fixed calibration loop
  before and after every child, and reports end-to-end times scaled to the
  CPU speed the loop had when the baseline was taken (``calibration_s``);
  the raw times are in the run record;
* with ``--trace 1``, alternates those untraced invocations with traced
  ones (``tracer.py``) and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (``{"run_record": ...}``): seed, generated config, the
simulation path and why, versions, nproc, the pool size, and the check
results, including ``fail_rate`` and ``max_rel_err``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from checks import check_outputs, load_reference  # noqa: E402
from tracer import LAYER_UNITS, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, config_text, expected_work  # noqa: E402

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 90.0
OUT_ROOT = ROOT / ".bench_out"

# CPU seconds ``calibration_s`` took on the 2-vCPU host the baseline was taken
# on, at its usual speed; end-to-end times are reported at that speed.
REFERENCE_S = 0.18
CALIBRATION_ITERS = 6000
CLOCK_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "steps_per_s": "1/s"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Invocation:
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stolen_s: float = 0.0
    scale: float = 1.0
    problems: list[str] = field(default_factory=list)
    derived_rel_err: float = 0.0
    ref_rel_err: float = 0.0
    trace: dict | None = None


def steal_s() -> float:
    """Seconds the hypervisor has kept this VM's CPUs from running, per CPU.

    Read from the ``steal`` column of ``/proc/stat``, which sums all CPUs;
    0 where that is missing. Per CPU, because steal accrues on every CPU
    about evenly, also while the child runs on one of them.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if len(fields) <= 8:
        return 0.0
    return int(fields[8]) * CLOCK_TICK_S / (os.cpu_count() or 1)


def calibration_s() -> float:
    """CPU time of a fixed loop of the small numpy and Python operations esc-lab is made of.

    The shared host the benchmark was built on changes speed by up to 2x
    within minutes: its CPUs slow down, which moves a child's CPU time, and
    it withholds them (``steal_s``), which moves only the wall time. Timing
    this loop on the CPU clock right before and after each child gives the
    child a scale, ``REFERENCE_S`` / (mean of the two loop times); scaling a
    run's median times by its median scale divides most of the slow-down
    out. The loop does not use ``esc_lab``, so a change to the program does
    not move it.
    """
    x = np.linspace(-1.0, 1.0, 256)
    small = np.zeros(3)
    acc = 0.0
    start = time.thread_time()
    for i in range(CALIBRATION_ITERS):
        y = x * 0.5 + i * 1e-7
        small = small + np.array([acc, 1.0, 2.0]) * 1e-9
        acc += float(np.sum(y ** 4)) + math.sin(acc * 1e-9) + float(small[0])
    return time.thread_time() - start


def child_env() -> dict[str, str]:
    """The caller's environment with ``src/`` first on the path and no esc-lab tuning."""
    env = dict(os.environ)
    env.pop("ESC_LAB_THREADS", None)
    env.pop("ESC_LAB_NUMBA", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], log: Path, env: dict[str, str]):
    """Run one child to completion; returns (wall seconds, rusage, exit code, stolen seconds)."""
    with log.open("wb") as fh:
        stolen = steal_s()
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        stolen = steal_s() - stolen
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode, stolen


class Bench:
    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.w = workload
        self.dir = work_dir
        self.cfg = work_dir / "config.cfg"
        self.out = work_dir / "out"
        self.env = child_env()
        self.reference = load_reference().get(workload.name) if seed == DEFAULT_SEED else None

    def probe(self, record: bool) -> tuple[float, str]:
        """One probe child; returns its wall time less the time stolen from it, and its output."""
        args = [sys.executable, str(HERE / "probe.py"), str(self.cfg)]
        log = self.dir / "probe.log"
        wall, _, rc, stolen = spawn(args + (["--record"] if record else []), log, self.env)
        text = log.read_text()
        if rc != 0:
            raise BenchError(f"set-up probe exited with {rc}:\n{text}")
        return wall - stolen, text

    def setup(self) -> tuple[dict, list[float], list[float]]:
        """One recording probe (also warms the byte-code cache), then timed probes.

        Returns the run record's fields, each probe's wall time less stolen
        time, and its scale.
        """
        _, text = self.probe(record=True)
        record = json.loads(text.strip().splitlines()[-1])
        src = (ROOT / "src").resolve()
        if not Path(record["esc_lab_file"]).resolve().is_relative_to(src):
            raise BenchError(f"esc_lab imported from {record['esc_lab_file']}, not from {src}")
        record["esc_lab_file"] = str(Path(record["esc_lab_file"]).resolve().relative_to(ROOT))
        walls, scales = [], []
        before = calibration_s()
        for _ in range(SETUP_REPEATS):
            walls.append(self.probe(record=False)[0])
            after = calibration_s()
            scales.append(2 * REFERENCE_S / (before + after))
            before = after
        return record, walls, scales

    def invoke(self, traced: bool) -> Invocation:
        shutil.rmtree(self.out, ignore_errors=True)
        cli_args = [self.w.mode, "--config", str(self.cfg), "--out", str(self.out)]
        trace_path = self.dir / "trace.json"
        if traced:
            trace_path.unlink(missing_ok=True)
            args = [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--"] + cli_args
        else:
            args = [sys.executable, "-m", "esc_lab.cli"] + cli_args
        wall, usage, rc, stolen = spawn(args, self.dir / "invoke.log", self.env)
        inv = Invocation(traced, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                         stolen)
        if rc != 0:
            tail = (self.dir / "invoke.log").read_text()[-400:]
            inv.problems.append(f"exit code {rc}: {tail}")
            return inv
        checked = check_outputs(self.w, self.out, self.reference)
        inv.problems += checked.problems
        inv.derived_rel_err, inv.ref_rel_err = checked.derived_rel_err, checked.ref_rel_err
        if traced:
            if trace_path.is_file():
                inv.trace = json.loads(trace_path.read_text())
            else:
                inv.problems.append("traced run wrote no trace")
        return inv

    def measure(self, seconds: float, trace: bool) -> list[Invocation]:
        """Invocations one after another until the next would overrun ``seconds``."""
        runs: list[Invocation] = []
        start = time.perf_counter()
        before = calibration_s()
        while True:
            runs.append(self.invoke(traced=trace and len(runs) % 2 == 1))
            after = calibration_s()
            runs[-1].scale = 2 * REFERENCE_S / (before + after)
            before = after
            elapsed = time.perf_counter() - start
            longest = max(r.wall_s for r in runs[-2:])
            if elapsed + longest > seconds and (not trace or len(runs) >= 2):
                return runs


def end_to_end(runs: list[Invocation], setup_walls: list[float], setup_scales: list[float],
               steps: int) -> dict:
    """Medians over the untraced invocations, times the run's median scale.

    Wall times are less the time stolen from the VM. Scaling the median
    rather than each invocation keeps one calibration loop's own jitter out
    of the result.
    """
    plain = [r for r in runs if not r.traced]
    scale = statistics.median(r.scale for r in plain)
    wall = statistics.median(r.wall_s - r.stolen_s for r in plain) * scale
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup_walls) * statistics.median(setup_scales),
        "cpu_s": statistics.median(r.cpu_s for r in plain) * scale,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
        "steps_per_s": steps / wall,
    }


TRACE_UNITS = {
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.overhead_share": "ratio", "trace.setup_s": "s", "trace.self_sum_s": "s",
    "trace.remainder_s": "s", "trace.remainder_share": "ratio",
    "check.fail_rate": "ratio", "check.max_rel_err": "ratio",
}


def per_layer(runs: list[Invocation], setup_s: float, checks: dict) -> dict:
    """Layer metrics of the median traced invocation, with the trace's own accounting.

    Wall times here are less the time stolen from the VM, as ``setup_s`` is,
    and not scaled. Every metric is present; they read 0 when no traced
    invocation left a trace.
    """
    traced = sorted((r for r in runs if r.traced and r.trace), key=lambda r: r.wall_s - r.stolen_s)
    plain_wall = statistics.median(r.wall_s - r.stolen_s for r in runs if not r.traced)
    if traced:
        pick = traced[(len(traced) - 1) // 2]
        trace, wall = pick.trace, pick.wall_s - pick.stolen_s
        overhead = statistics.median(r.wall_s - r.stolen_s for r in traced) - plain_wall
    else:
        trace, wall, overhead = {"self_s": {}, "incl": {}, "count": {}}, 0.0, 0.0
    metrics = layer_metrics(trace)
    # setup_s already times loading and building the config, so the config
    # layer is left out here to count that work once.
    self_sum = sum(v for layer, v in trace["self_s"].items() if layer != "config")
    remainder = wall - setup_s - self_sum if traced else 0.0
    metrics.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / plain_wall,
        "trace.setup_s": setup_s,
        "trace.self_sum_s": self_sum,
        "trace.remainder_s": remainder,
        "trace.remainder_share": remainder / wall if wall else 0.0,
        "check.fail_rate": checks["fail_rate"],
        "check.max_rel_err": checks["max_rel_err"],
    })
    return metrics


def reference_state(seed: int, reference: dict | None) -> str:
    if seed != DEFAULT_SEED:
        return f"not compared: only seed {DEFAULT_SEED} has reference values"
    return "compared" if reference else "not compared: workload missing from reference.json"


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "esc_lab" / "cli.py").is_file():
        raise BenchError(f"no esc-lab source under {ROOT / 'src'}; run from a source checkout")
    work_dir = OUT_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        (work_dir / "config.cfg").write_text(config_text(workload, seed))
        bench = Bench(workload, seed, work_dir)
        record, setup_walls, setup_scales = bench.setup()
        runs = bench.measure(seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [r for r in runs if r.problems]
    checks = {
        "attempted": len(runs),
        "failed": len(failed),
        "fail_rate": len(failed) / len(runs),
        "max_rel_err": max(max(r.derived_rel_err, r.ref_rel_err) for r in runs),
        "derived_rel_err": max(r.derived_rel_err for r in runs),
        "reference": reference_state(seed, bench.reference),
        "ref_rel_err": max(r.ref_rel_err for r in runs),
        "problems": [p for r in failed for p in r.problems][:5],
    }
    setup_s = statistics.median(setup_walls)
    steps = expected_work(workload)["steps"]
    if trace:
        values = per_layer(runs, setup_s, checks)
        units = {**LAYER_UNITS, **TRACE_UNITS}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        values = end_to_end(runs, setup_walls, setup_scales, steps)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record.update({
        "workload": workload.name,
        "seed": seed,
        "config": config_text(workload, seed),
        "rk4_steps_per_invocation": steps,
        "seconds": seconds,
        "trace": trace,
        "reference_s": REFERENCE_S,
        "invocations": [{"traced": r.traced, "wall_s": r.wall_s, "stolen_s": r.stolen_s,
                         "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb, "scale": r.scale}
                        for r in runs],
        "setup_walls_less_stolen_s": setup_walls,
        "setup_scales": setup_scales,
        "checks": checks,
    })
    traces = [r.trace for r in runs if r.trace]
    if traces:
        record["trace_runs"] = traces[0]["runs"]
        record["trace_missing_hooks"] = traces[0]["missing"]
    result = {"correct": not failed, "attempted": len(runs), "failed": len(failed),
              "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for problem in record["checks"]["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
