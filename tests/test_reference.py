"""The benchmark workloads' pinned outputs, checked in the test suite.

Runs the seed-0 config of every workload in ``perfbench/workloads.py``
through ``esc_lab.cli.main`` and checks the files it writes with
``perfbench/checks.py`` against ``perfbench/reference.json``: the invariants
of every run, and the pinned values to 1e-12 relative plus one unit in the
12th printed digit. An output drift the benchmark would reject fails here
too. Each workload also runs as the benchmark's traced run, through
``perfbench/tracer.py`` in a child process, and its outputs are checked the
same way. The perfbench modules are imported and run as they are, without
writing bytecode next to them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from esc_lab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import checks
        import workloads
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(PERFBENCH))
    return checks, workloads


checks, workloads = _perfbench_modules()
REFERENCE = checks.load_reference()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_seed0_matches_reference(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    cfg = tmp_path / "workload.cfg"
    cfg.write_text(workloads.config_text(workload, workloads.DEFAULT_SEED))
    assert main([workload.mode, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert name in REFERENCE
    result = checks.check_outputs(workload, tmp_path / "out", REFERENCE[name])
    assert result.ok, result.problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_seed0_traced_matches_reference(name, tmp_path):
    # the traced run differs from a plain one: it calls cli.main in process, imports the
    # averaging, lyapunov and simulate modules before cli, and swaps each cost's f for a
    # functools.wraps wrapper through dataclasses.replace
    workload = workloads.WORKLOADS[name]
    cfg = tmp_path / "workload.cfg"
    cfg.write_text(workloads.config_text(workload, workloads.DEFAULT_SEED))
    root, out = PERFBENCH.parent, tmp_path / "out"
    path = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(path)}
    args = [str(PERFBENCH / "tracer.py"), str(tmp_path / "trace.json"), "--",
            workload.mode, "--config", str(cfg), "--out", str(out)]
    run = subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert (tmp_path / "trace.json").is_file()
    result = checks.check_outputs(workload, out, REFERENCE[name])
    assert result.ok, result.problems
