"""Set-up probe: the work every ``esc-lab`` invocation does before it simulates.

    python3 perfbench/probe.py CONFIG [--record]

Starts Python, imports ``esc_lab.cli``, loads and validates CONFIG, builds
the cost, dither and gains, and exits. The benchmark times this child from
outside as ``setup_s``. With ``--record`` it also prints, as one JSON line,
what the run record needs from inside the program: where ``esc_lab`` was
imported from, the simulation path ``esc_lab.simulate`` would take and why, the
versions, and the pool size the CLI would use.
"""

import sys


def path_and_reason(cost, force_path=None) -> tuple[str, str]:
    """The simulation path ``esc_lab.simulate`` picks for this cost, and the reason."""
    from esc_lab import _kernels
    from esc_lab import simulate

    path = simulate._resolve_path(cost, force_path)
    if force_path is not None:
        return path, f"forced by force_path={force_path!r}"
    if path == "kernel":
        return path, "numba enabled and the cost is a builtin family"
    reasons = []
    if not _kernels.numba_available():
        reasons.append("numba unavailable")
    elif not _kernels.numba_enabled():
        reasons.append("kernels disabled by ESC_LAB_NUMBA")
    if cost.kernel is None:
        reasons.append("cost has no kernel parameterization")
    return path, "; ".join(reasons) or "unknown"


def _record(cost, jobs: int) -> dict:
    import os
    import platform

    import numpy as np

    import esc_lab
    import esc_lab.cli as cli

    try:
        from esc_lab._kernels import numba_available
        kernel = "numba available" if numba_available() else "numba unavailable"
    except ImportError:
        kernel = "no kernel layer"
    try:
        path, reason = path_and_reason(cost)
    except (ImportError, AttributeError) as exc:
        path, reason = "unknown", f"path selection not inspectable: {exc}"
    max_workers = getattr(cli, "_max_workers", None)
    return {
        "esc_lab_file": esc_lab.__file__,
        "path": path,
        "path_reason": reason,
        "kernel": kernel,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pool_jobs": jobs,
        "pool_threads": max_workers(jobs) if max_workers and jobs > 1 else 1,
    }


def main(argv: list[str]) -> int:
    from esc_lab import cli  # noqa: F401  (the import is part of the measured set-up)
    from esc_lab.config import ExperimentConfig, load_config

    cfg = ExperimentConfig(load_config(argv[0]))
    mode = cfg.mode()
    cost, dither, gains = cfg.cost(), cfg.dither(), cfg.gains()
    if not cost.n == dither.n == gains.n:
        print("error: cost, dither, and gains dimensions differ", file=sys.stderr)
        return 2
    if "--record" in argv[1:]:
        import json

        jobs = {"simulate": len(cfg.string_list("init.xi", "0")), "compare": 2}.get(mode, 1)
        print(json.dumps(_record(cost, jobs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
