"""Traced ``esc-lab`` run: spans around each layer, recorded from outside ``src/``.

    python3 perfbench/tracer.py TRACE_JSON -- MODE --config CFG --out DIR

Installs wrappers around the public functions and methods of each layer,
calls ``esc_lab.cli.main`` in process, and writes the spans' totals to
TRACE_JSON. Nothing under ``src/`` changes.

Spans are timed with the calling thread's CPU clock (``time.thread_time``).
The CLI's pool runs jobs on threads that share the interpreter lock, so a
wall-clock span in one thread would also count the time it waited for the
other; CPU time counts only the work, and the self times of all layers then
add up to the process's busy time. A layer's self time is its spans' time
minus the time of the spans nested inside them in the same thread.

A wrapper whose target no longer exists is skipped and named under
``missing``; its metrics then read 0.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter, thread_time

LAYERS = ("cost", "dynamics", "integrate", "simulate", "averaging", "lyapunov", "cli", "config")


class _ThreadTotals:
    """One thread's span stack and totals; only its own thread writes to it."""

    def __init__(self):
        self.stack: list[list[float]] = []   # [start, nested span time, cost calls at entry]
        self.self_s = defaultdict(float)      # layer -> self time
        self.incl = defaultdict(float)        # key -> time of outermost spans with that key
        self.count = defaultdict(float)       # key -> calls, and named counters
        self.depth = defaultdict(int)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadTotals] = []
        self.runs: list[dict] = []
        self.missing: list[str] = []

    def thread(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = _ThreadTotals()
            self._local.totals = totals
            with self._lock:
                self._threads.append(totals)
        return totals

    def wrap(self, fn, layer: str, key: str, post=None):
        """Wrap ``fn`` in a span of ``layer``; ``post(totals, frame, args, kwargs, result)``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t = tracer.thread()
            frame = [thread_time(), 0.0, t.count["cost"]]
            t.stack.append(frame)
            t.depth[key] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = thread_time() - frame[0]
                t.stack.pop()
                t.depth[key] -= 1
                t.self_s[layer] += dur - frame[1]
                if t.stack:
                    t.stack[-1][1] += dur
                t.count[key] += 1
                if not t.depth[key]:
                    t.incl[key] += dur
            if post is not None:
                post(t, frame, args, kwargs, result)
            return result

        return traced

    def totals(self) -> dict:
        merged = {"self_s": defaultdict(float), "incl": defaultdict(float),
                  "count": defaultdict(float)}
        with self._lock:
            threads = list(self._threads)
        for t in threads:
            for name in merged:
                for key, value in getattr(t, name).items():
                    merged[name][key] += value
        return {name: dict(values) for name, values in merged.items()}


def _patch(tracer: Tracer, owner, name: str, make) -> None:
    original = getattr(owner, name, None)
    if original is None:
        tracer.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return
    setattr(owner, name, make(original))


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points, looked up where their callers find them."""
    import esc_lab.averaging as averaging
    import esc_lab.cli as cli
    import esc_lab.lyapunov as lyapunov
    import esc_lab.simulate as simulate
    from esc_lab.config import ExperimentConfig

    from probe import path_and_reason

    wrap = tracer.wrap

    # cost: every evaluation of J, counted per evaluated point.
    def count_points(n):
        def post(t, frame, args, kwargs, result):
            t.count["cost.points"] += getattr(args[0], "size", n) // n
        return post

    def traced_cost(build):
        def cost(self):
            c = build(self)
            try:
                return dataclasses.replace(c, f=wrap(c.f, "cost", "cost", count_points(c.n)))
            except TypeError:
                tracer.missing.append("CostFunction.f")
                return c
        return wrap(cost, "config", "config.build")

    _patch(tracer, ExperimentConfig, "cost", traced_cost)
    for name in ("dither", "gains"):
        _patch(tracer, ExperimentConfig, name, lambda f: wrap(f, "config", "config.build"))
    _patch(tracer, cli, "load_config", lambda f: wrap(f, "config", "config.load"))

    # dynamics and averaging: the rhs closures the simulate_* functions hand to the integrator.
    def traced_factory(layer, key):
        return lambda factory: functools.wraps(factory)(
            lambda *a, **k: wrap(factory(*a, **k), layer, key))

    for name in ("rmspesc_flat_rhs", "gesc_flat_rhs"):
        _patch(tracer, simulate, name, traced_factory("dynamics", "dynamics.rhs"))
    _patch(tracer, simulate, "average_flat_rhs", traced_factory("averaging", "averaging.rhs"))
    _patch(tracer, averaging, "avg_maps", lambda f: wrap(f, "averaging", "averaging.maps"))

    def equilibrium_post(t, frame, args, kwargs, result):
        t.count["averaging.equilibrium_iters"] += getattr(result, "iterations", 0)

    _patch(tracer, cli, "equilibrium",
           lambda f: wrap(f, "averaging", "averaging.equilibrium", equilibrium_post))

    # integrate: one span per integrator run; steps from its arguments.
    def traced_integrate(f):
        sig = inspect.signature(f)

        def post(t, frame, args, kwargs, result):
            bound = sig.bind(*args, **kwargs).arguments
            try:
                t.count["integrate.steps"] += int(round((bound["t1"] - bound["t0"]) / bound["h"]))
            except KeyError:
                pass
            t.count["integrate.clamp_events"] += getattr(result, "clamp_events", 0)
        return wrap(f, "integrate", "integrate", post)

    _patch(tracer, simulate, "integrate_fixed", traced_integrate)

    # simulate: the simulate_* functions the CLI calls, with the path each run took.
    def traced_simulate(f):
        def post(t, frame, args, kwargs, result):
            cost = args[0] if args else kwargs.get("cost")
            try:
                path, reason = path_and_reason(cost, kwargs.get("force_path"))
            except (AttributeError, ImportError, ValueError) as exc:
                path, reason = "unknown", str(exc)
            tracer.runs.append({"function": f.__name__, "path": path, "reason": reason})
        return wrap(f, "simulate", "simulate", post)

    for name in ("simulate_rmspesc", "simulate_gesc", "simulate_average"):
        _patch(tracer, cli, name, traced_simulate)

    # lyapunov: oracle construction, the descent monitor, V and radius queries.
    def monitor_post(t, frame, args, kwargs, result):
        t.count["lyapunov.samples"] += len(getattr(result, "times", ()))

    def radius_post(t, frame, args, kwargs, result):
        if t.count["cost"] == frame[2]:
            t.count["lyapunov.cache_hits"] += 1

    _patch(tracer, cli, "monitor_descent",
           lambda f: wrap(f, "lyapunov", "lyapunov.monitor", monitor_post))
    oracle = getattr(lyapunov, "LevelSetOracle", None)
    if oracle is None:
        tracer.missing.append("esc_lab.lyapunov.LevelSetOracle")
    else:
        _patch(tracer, oracle, "__init__", lambda f: wrap(f, "lyapunov", "lyapunov.oracle"))
        _patch(tracer, oracle, "value", lambda f: wrap(f, "lyapunov", "lyapunov.value"))
        for name in ("radius_xi", "radius_v"):
            _patch(tracer, oracle, name,
                   lambda f: wrap(f, "lyapunov", "lyapunov.radius", radius_post))

    # cli: the entry point, CSV writing, and the worker pool.
    _patch(tracer, cli, "main", lambda f: wrap(f, "cli", "cli.main"))
    _patch(tracer, cli, "write_trajectory_csv", lambda f: wrap(f, "cli", "cli.csv"))

    def traced_pool(f):
        def parallel(fn, jobs):
            start = perf_counter()
            try:
                return f(wrap(fn, "cli", "cli.pool_job"), jobs)
            finally:
                t = tracer.thread()
                t.count["cli.pool_wall_s"] += perf_counter() - start
                t.count["cli.pool_jobs"] += len(jobs)
                workers = getattr(cli, "_max_workers", None)
                if workers is not None and len(jobs) > 1:
                    t.count["cli.pool_threads"] = max(t.count["cli.pool_threads"],
                                                      workers(len(jobs)))
        return wrap(parallel, "cli", "cli.pool")

    _patch(tracer, cli, "_parallel", traced_pool)


def _csv_totals(out_dir: Path) -> tuple[int, int]:
    rows = size = 0
    for path in sorted(out_dir.glob("*.csv")):
        data = path.read_bytes()
        size += len(data)
        rows += max(data.count(b"\n") - 1, 0)
    return rows, size


LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cost.calls": "count", "cost.points": "count", "cost.ns_per_point": "ns",
    "dynamics.rhs_calls": "count", "dynamics.rhs_us": "us",
    "integrate.steps": "count", "integrate.us_per_step": "us", "integrate.clamp_events": "count",
    "simulate.runs": "count", "simulate.s": "s",
    "averaging.rhs_calls": "count", "averaging.maps_calls": "count", "averaging.maps_us": "us",
    "averaging.equilibrium_s": "s", "averaging.equilibrium_iters": "count",
    "lyapunov.oracle_build_s": "s", "lyapunov.samples": "count", "lyapunov.value_ms": "ms",
    "lyapunov.radius_calls": "count", "lyapunov.cache_hits": "count",
    "lyapunov.cache_hit_ratio": "ratio",
    "cli.csv_rows": "count", "cli.csv_bytes": "B", "cli.csv_s": "s", "cli.pool_jobs": "count",
    "cli.pool_threads": "count", "cli.pool_speedup": "ratio",
    "config.load_s": "s",
}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from one traced run's totals, named ``<module>.<metric>``."""
    self_s, incl, count = trace["self_s"], trace["incl"], trace["count"]

    def c(key):
        return float(count.get(key, 0.0))

    def per(total, calls, scale):
        return scale * total / calls if calls else 0.0

    m = {f"{layer}.self_s": float(self_s.get(layer, 0.0)) for layer in LAYERS}
    m.update({
        "cost.calls": c("cost"),
        "cost.points": c("cost.points"),
        "cost.ns_per_point": per(incl.get("cost", 0.0), c("cost.points"), 1e9),
        "dynamics.rhs_calls": c("dynamics.rhs"),
        "dynamics.rhs_us": per(incl.get("dynamics.rhs", 0.0), c("dynamics.rhs"), 1e6),
        "integrate.steps": c("integrate.steps"),
        "integrate.us_per_step": per(incl.get("integrate", 0.0), c("integrate.steps"), 1e6),
        "integrate.clamp_events": c("integrate.clamp_events"),
        "simulate.runs": c("simulate"),
        "simulate.s": incl.get("simulate", 0.0),
        "averaging.rhs_calls": c("averaging.rhs"),
        "averaging.maps_calls": c("averaging.maps"),
        "averaging.maps_us": per(incl.get("averaging.maps", 0.0), c("averaging.maps"), 1e6),
        "averaging.equilibrium_s": incl.get("averaging.equilibrium", 0.0),
        "averaging.equilibrium_iters": c("averaging.equilibrium_iters"),
        "lyapunov.oracle_build_s": incl.get("lyapunov.oracle", 0.0),
        "lyapunov.samples": c("lyapunov.samples"),
        "lyapunov.value_ms": per(incl.get("lyapunov.value", 0.0), c("lyapunov.value"), 1e3),
        "lyapunov.radius_calls": c("lyapunov.radius"),
        "lyapunov.cache_hits": c("lyapunov.cache_hits"),
        "lyapunov.cache_hit_ratio": per(c("lyapunov.cache_hits"), c("lyapunov.radius"), 1.0),
        "cli.csv_rows": c("cli.csv_rows"),
        "cli.csv_bytes": c("cli.csv_bytes"),
        "cli.csv_s": incl.get("cli.csv", 0.0),
        "cli.pool_jobs": c("cli.pool_jobs"),
        "cli.pool_threads": c("cli.pool_threads"),
        "cli.pool_speedup": per(incl.get("cli.pool_job", 0.0), c("cli.pool_wall_s"), 1.0),
        "config.load_s": incl.get("config.load", 0.0) + incl.get("config.build", 0.0),
    })
    return m


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- MODE --config CFG --out DIR", file=sys.stderr)
        return 2
    trace_path, cli_args = Path(argv[0]), argv[2:]
    tracer = Tracer()
    install(tracer)
    import esc_lab.cli as cli

    rc = cli.main(cli_args)
    trace = tracer.totals()
    out_dir = Path(cli_args[cli_args.index("--out") + 1]) if "--out" in cli_args else Path(".")
    trace["count"]["cli.csv_rows"], trace["count"]["cli.csv_bytes"] = _csv_totals(out_dir)
    trace.update(runs=tracer.runs, missing=tracer.missing)
    trace_path.write_text(json.dumps(trace))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
