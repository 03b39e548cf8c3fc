"""Output checks for one ``esc-lab`` invocation.

Every seed is checked for invariants: the expected files and row counts,
finite values, ``v >= 0`` in every trajectory row, a ``PASS`` descent
verdict, and consistency of derived columns with values recomputed here
(the ``J`` column from theta, ``V`` from its terms, the deviation summary
from the two trajectories). The default seed is also compared with the
values recorded in ``reference.json``.

The reference tolerance is 1e-12 relative plus one unit in the 12th
significant digit, because the CLI prints 12 significant digits: a change
of one ulp in a double can move the printed value by that unit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import Workload, expected_work

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REF_RTOL = 1e-12
DERIVED_RTOL = 1e-8      # recomputing from 12-digit printed inputs
SUMMARY_RTOL = 1e-5      # the deviation summary is printed with 6 digits


@dataclass
class CheckResult:
    problems: list[str] = field(default_factory=list)
    derived_rel_err: float = 0.0     # largest deviation of a recomputed value
    ref_rel_err: float = 0.0         # largest deviation from reference.json (default seed)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def max_rel_err(self) -> float:
        return max(self.derived_rel_err, self.ref_rel_err)


def _rel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| / |b|, falling back to |a - b| where b is exactly zero."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    diff = np.abs(a - b)
    return np.where(b == 0.0, diff, diff / np.where(b == 0.0, 1.0, np.abs(b)))


def _print_unit(b: np.ndarray) -> np.ndarray:
    """One unit in the 12th significant digit of b (0 where b is 0)."""
    b = np.abs(np.asarray(b, dtype=float))
    safe = np.where(b > 0.0, b, 1.0)
    return np.where(b > 0.0, 10.0 ** (np.floor(np.log10(safe)) - 11.0), 0.0)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def sample_rows(n_rows: int) -> list[int]:
    """Row indices pinned in the reference: the start, a log-spaced spread, the end."""
    picks = {0, 1, 10, 100, 1000, n_rows // 2, n_rows - 1}
    return sorted(i for i in picks if 0 <= i < n_rows)


def snapshot(w: Workload, out_dir: Path) -> dict:
    """The values of one invocation that reference.json pins."""
    snap: dict = {"rows": {}}
    for name in expected_work(w)["rows"]:
        _, data = read_csv(out_dir / name)
        snap["rows"][name] = {str(i): data[i].tolist() for i in sample_rows(len(data))}
        if name == "lyapunov.csv":
            snap["V"] = data[:, 1].tolist()
    if w.mode == "compare":
        snap["summary"] = _summary_gaps(out_dir / "deviation_summary.txt")
    return snap


def _summary_gaps(path: Path) -> list[float]:
    gaps = []
    for line in path.read_text().splitlines():
        if line.startswith("sup |theta_"):
            gaps.append(float(line.rsplit("=", 1)[1]))
    return gaps


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


class _Checker:
    def __init__(self):
        self.result = CheckResult()

    def fail(self, message: str):
        self.result.problems.append(message)

    def derived(self, what: str, got, want, rtol: float, record: bool = True):
        """Compare with a recomputed value; ``record`` feeds ``derived_rel_err``."""
        err = _rel(got, want)
        worst = float(np.max(err)) if err.size else 0.0
        if record:
            self.result.derived_rel_err = max(self.result.derived_rel_err, worst)
        if not worst <= rtol:
            self.fail(f"{what}: recomputed value deviates by {worst:.3e} relative (limit {rtol:g})")

    def reference(self, what: str, got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.fail(f"{what}: shape {got.shape} differs from reference {want.shape}")
            return
        err = _rel(got, want)
        if err.size:
            self.result.ref_rel_err = max(self.result.ref_rel_err, float(np.max(err)))
        limit = REF_RTOL * np.abs(want) + _print_unit(want)
        bad = int(np.count_nonzero(~(np.abs(got - want) <= limit)))
        if bad:
            self.fail(f"{what}: {bad} value(s) differ from the reference beyond 1e-12 relative")


def check_outputs(w: Workload, out_dir: Path, reference: dict | None) -> CheckResult:
    """Check the files one invocation wrote; ``reference`` is None for non-default seeds."""
    chk = _Checker()
    expected = expected_work(w)["rows"]
    n = w.n
    tables = {}
    for name, rows in expected.items():
        path = out_dir / name
        if not path.is_file():
            chk.fail(f"missing output {name}")
            continue
        try:
            header, data = read_csv(path)
        except ValueError as exc:
            chk.fail(f"{name}: unreadable CSV ({exc})")
            continue
        tables[name] = (header, data)
        if len(data) != rows:
            chk.fail(f"{name}: {len(data)} rows, expected {rows}")
        if not np.all(np.isfinite(data)):
            chk.fail(f"{name}: non-finite values")
            continue
        if name == "lyapunov.csv":
            want_header = ["t", "V", "V_theta", "V_xi"] + [f"V_v_{i + 1}" for i in range(n)]
            if header != want_header:
                chk.fail(f"{name}: header {header}")
                continue
            if np.any(data[:, 2:] < 0.0):
                chk.fail(f"{name}: negative V term")
            chk.derived(f"{name} V = sum of terms", data[:, 1], np.sum(data[:, 2:], axis=1),
                        DERIVED_RTOL)
        else:
            want_header = (["t"] + [f"theta_{i + 1}" for i in range(n)]
                           + [f"v_{i + 1}" for i in range(n)] + ["xi", "J"])
            if header != want_header:
                chk.fail(f"{name}: header {header}")
                continue
            if np.any(data[:, 1 + n : 1 + 2 * n] < 0.0):
                chk.fail(f"{name}: v < 0 in some row")
            chk.derived(f"{name} J column", data[:, -1], w.cost(data[:, 1 : 1 + n]),
                        DERIVED_RTOL)

    if w.mode == "lyapunov":
        verdict = out_dir / "lyapunov_verdict.txt"
        if not verdict.is_file() or not verdict.read_text().startswith("PASS"):
            chk.fail("descent verdict is not PASS")
    if w.mode == "compare":
        summary = out_dir / "deviation_summary.txt"
        if not summary.is_file():
            chk.fail("missing output deviation_summary.txt")
        elif len(tables) == 2:
            full = tables["trajectory_full.csv"][1]
            avg = tables["trajectory_average.csv"][1]
            gaps = _summary_gaps(summary)
            if len(gaps) != n or full.shape != avg.shape:
                chk.fail("deviation summary does not match the trajectories")
            else:
                want = np.max(np.abs(full[:, 1 : 1 + n] - avg[:, 1 : 1 + n]), axis=0)
                # Printed with 6 digits, so its rounding would swamp max_rel_err.
                chk.derived("deviation summary", gaps, want, SUMMARY_RTOL, record=False)

    if reference is not None and not chk.result.problems:
        got = snapshot(w, out_dir)
        for name, rows in reference["rows"].items():
            for idx, values in rows.items():
                chk.reference(f"{name} row {idx}", got["rows"][name].get(idx, []), values)
        for key in ("V", "summary"):
            if key in reference:
                chk.reference(key, got.get(key, []), reference[key])
    return chk.result
