#!/usr/bin/env python3
"""Check that this checkout writes the same output files as a parent commit.

Exports PARENT_REF with ``git archive`` into a temporary directory, then runs
every bundled config, seeds 0 and 3 of each benchmark workload
(``perfbench/workloads.py``, imported read-only for its config text) and eleven
bundled configs with ``--set`` overrides (2-D and 3-D builtin costs in
``average``; a parsed cost in ``lyapunov``, whose equilibrium search starts at
the origin and iterates; the plain-gradient baseline in ``simulate``; a
2-D quadratic in ``lyapunov``, which builds the 2-D level-set oracle; a
``compare`` whose full and average runs start from a ``y0`` washout at an
overridden initial theta; in ``average``, a parsed cost that is no
polynomial and a polynomial whose closed form would exceed the term cap, whose
average systems run on the period quadrature where every other polynomial
cost's runs on closed-form maps; and in ``converge``, the quartic parsed once
as a polynomial, whose exact gradient is read from its parse tree, and once
with an exponent that has no degree by the syntax rule, whose gradient is
taken by finite differences; no bundled config or workload has these) through
``python -m esc_lab.cli``, once from the parent's ``src`` and once from this
checkout's, each run into its own output directory. The two trees run side
by side, one process each. Every file either run wrote is compared byte for
byte, and so is the exit code. Prints
one line per run, and under it one line per differing column of each
differing CSV that both runs wrote with the same header and shape: the worst
relative and the worst absolute difference, each with the parent's magnitude
there, and whether every cell of the column is within the rule by which
``perfbench/checks.py`` (imported read-only) compares a run with
``reference.json``: 1e-12 relative plus one unit in the 12th significant
digit of the parent's value, since the CSVs print 12 digits and a last-digit
flip of a small leading digit alone reads as up to 1e-11 relative. Exits 1 if
any run differs in any byte. Run from anywhere inside the repo:

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

import numpy as np

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
    "compare, y0 washout at theta 1.7": ("compare", "quartic_compare", [
        "init.xi=2*y0", "init.theta=1.7"]),
    "non-polynomial parsed cost": ("average", "quartic_average", [
        "cost.kind=expr", "cost.expr=theta1^2 + 1/(1 + theta1^2)", "time.t1=20"]),
    "polynomial over the term cap": ("average", "quartic_average", [
        "cost.kind=expr", "cost.expr=(theta1/2)^40 + (theta1 - 1)^2", "time.t1=20"]),
    "parsed quartic, exact gradient": ("converge", "quartic_converge", [
        "cost.kind=expr", "cost.expr=theta1^4/24", "converge.a0=0.08,0.01,0.001,0.0001"]),
    "parsed quartic without a degree": ("converge", "quartic_converge", [
        "cost.kind=expr", "cost.expr=theta1^(2 + 2)/24", "converge.a0=0.08,0.01,0.001,0.0001"]),
}

sys.path.insert(0, str(ROOT / "perfbench"))
from checks import REF_RTOL, _print_unit  # noqa: E402
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


def column_moves(a: Path, b: Path) -> list[str]:
    """One line per column that differs between CSV files ``a`` (parent) and ``b``.

    Each line gives the worst relative difference |b - a| / |a| and the worst
    absolute one, each with |a| at that row, and then either "within the pin" when
    every cell is within REF_RTOL |a| plus one unit in the 12th digit of a, or the
    count of cells beyond that. Empty when the two files do not share a header and
    a table shape, or do not parse as numbers.
    """
    try:
        header = a.read_text().partition("\n")[0]
        if b.read_text().partition("\n")[0] != header:
            return []
        old, new = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (a, b))
    except (OSError, ValueError):     # one run wrote no such file, or it holds no numbers
        return []
    header = header.split(",")
    if old.shape != new.shape or old.shape[1] != len(header):
        return []
    lines = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for name, x, y in zip(header, old.T, new.T):
            same = (x == y) | (np.isnan(x) & np.isnan(y))
            diff = np.where(same, 0.0, np.nan_to_num(np.abs(y - x), nan=np.inf))
            if not diff.any():
                continue
            rel = np.where(same, 0.0, np.nan_to_num(diff / np.abs(x), nan=np.inf))
            i, j = int(np.argmax(rel)), int(np.argmax(diff))
            limit = np.where(np.isfinite(x), REF_RTOL * np.abs(x) + _print_unit(x), 0.0)
            beyond = int(np.count_nonzero(diff > limit))
            pin = f"{beyond} of {len(x)} cells beyond the pin" if beyond else "within the pin"
            lines.append(f"    {a.name} {name}: relative {rel[i]:.2g} at |parent| "
                         f"{abs(x[i]):.3g}, absolute {diff[j]:.2g} at |parent| {abs(x[j]):.3g}; "
                         f"{pin}")
    return lines


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
            print(f"{label:34s} {mode:9s} exit {codes['this']}, {files} files {status}")
            for name in diff:
                for line in column_moves(outs["parent"] / name, outs["this"] / name):
                    print(line)
            sys.stdout.flush()
            failed += bool(diff)
    print(f"{failed} run(s) differ" if failed else "all runs identical")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
