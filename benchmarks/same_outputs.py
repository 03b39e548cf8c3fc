#!/usr/bin/env python3
"""Check that this checkout writes the same output files as a parent commit.

Exports PARENT_REF with ``git archive`` into a temporary directory, then runs
every bundled config, seeds 0 and 3 of each benchmark workload
(``perfbench/workloads.py``, imported read-only for its config text) and six
bundled configs with ``--set`` overrides (2-D and 3-D builtin costs in
``average``; a parsed cost in ``lyapunov``, whose equilibrium search starts at
the origin and iterates; the plain-gradient baseline in ``simulate``; and a
2-D quadratic in ``lyapunov``, which builds the 2-D level-set oracle; no
bundled config or workload has these) through ``python -m esc_lab.cli``, once
from the parent's ``src`` and once from this checkout's, each run into its own output
directory. The two trees run side by side, one process each. Every file
either run wrote is compared byte for byte, and so is the exit code. Prints
one line per run; exits 1 if any run differs. Run from anywhere inside the
repo:

    python3 benchmarks/same_outputs.py PARENT_REF
"""

import argparse
import filecmp
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 3)
TWO_CHANNELS = ["dither.amplitudes=0.02,0.02", "dither.rates=1,2", "gains.omega_l=0.25,0.25",
                "init.theta=1.5,-0.5", "init.v=0.81,0.81", "time.t1=20"]
THREE_CHANNELS = ["dither.amplitudes=0.02,0.03,0.02", "dither.rates=1,2,3",
                  "gains.omega_l=0.25,0.25,0.4", "init.theta=1.5,-0.5,0.2",
                  "init.v=0.81,0.81,0.81", "time.t1=20"]
OVERRIDE_RUNS = {    # label: (mode, bundled config, overrides)
    "2-D quadratic, theta* != 0": ("average", "quartic_average", TWO_CHANNELS + [
        "cost.kind=quadratic", "cost.h=2,0.5", "cost.j_opt=1", "cost.theta_star=0.3,-0.7"]),
    "2-D shifted_quartic": ("average", "quartic_average", TWO_CHANNELS + [
        "cost.kind=shifted_quartic", "cost.theta_star=0.5,-1"]),
    "3-D diagonal quadratic, theta*!=0": ("average", "quartic_average", THREE_CHANNELS + [
        "cost.kind=quadratic", "cost.h=2,0.5,1.5", "cost.j_opt=1", "cost.theta_star=0.3,-0.7,1"]),
    "parsed quadratic, searched eq.": ("lyapunov", "quadratic_lyapunov", [
        "cost.kind=expr", "cost.expr=3 + 0.5*(theta1 - 1)^2", "time.t1=10"]),
    "gesc baseline": ("simulate", "quartic_fig1", ["algorithm=gesc"]),
    "2-D quadratic, 2-D oracle": ("lyapunov", "quadratic_lyapunov", [
        "cost.h=1,2", "dither.amplitudes=0.2,0.2", "dither.rates=1,2", "gains.omega_l=0.25,0.25",
        "init.theta=2,-1", "init.v=0.81,0.81", "time.t1=5"]),
}

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, config_text  # noqa: E402


def export(ref: str, dest: Path) -> None:
    """The tree of ``ref`` in ``dest``, through ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def runs(config_dir: Path):
    """(label, mode, config, overrides) for every bundled config, workload seed and override run."""
    for cfg in sorted((ROOT / "src" / "esc_lab" / "configs").glob("*.cfg")):
        mode = re.search(r"^mode\s*=\s*(\w+)", cfg.read_text(), re.M).group(1)
        yield cfg.stem, mode, cfg.stem, []
    for name, w in WORKLOADS.items():
        for seed in SEEDS:
            path = config_dir / f"{name}_{seed}.cfg"
            path.write_text(config_text(w, seed))
            yield f"{name} seed {seed}", w.mode, str(path), []
    for label, (mode, config, sets) in OVERRIDE_RUNS.items():
        yield label, mode, config, sets


def start(src: Path, mode: str, config: str, sets: list[str], out: Path) -> subprocess.Popen:
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, "-m", "esc_lab.cli", mode, "--config", config,
                             *(f"--set={kv}" for kv in sets), "--out", str(out)], cwd=out, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def differences(a: Path, b: Path) -> list[str]:
    """Names of the files that only one directory holds or that differ in a byte."""
    names_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diff = sorted(str(p) for p in names_a ^ names_b)
    diff += sorted(str(p) for p in names_a & names_b
                   if not filecmp.cmp(a / p, b / p, shallow=False))
    return diff


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_ref", metavar="PARENT_REF", help="git ref of the parent commit")
    args = ap.parse_args()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        (tmp / "parent").mkdir()
        export(args.parent_ref, tmp / "parent")
        trees = {"parent": tmp / "parent" / "src", "this": ROOT / "src"}
        for i, (label, mode, config, sets) in enumerate(runs(tmp)):
            outs = {k: tmp / "out" / str(i) / k for k in trees}
            procs = {k: start(src, mode, config, sets, outs[k]) for k, src in trees.items()}
            codes = {k: p.wait() for k, p in procs.items()}
            diff = differences(outs["parent"], outs["this"])
            files = sum(1 for p in outs["this"].rglob("*") if p.is_file())
            if codes["parent"] != codes["this"]:
                diff.insert(0, f"exit code {codes['parent']} -> {codes['this']}")
            status = "differs: " + ", ".join(diff) if diff else "identical"
            print(f"{label:34s} {mode:9s} exit {codes['this']}, {files} files {status}",
                  flush=True)
            failed += bool(diff)
    print(f"{failed} run(s) differ" if failed else "all runs identical")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
