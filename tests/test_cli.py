import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from esc_lab import cli, lyapunov
from esc_lab.cli import main, run_experiment, write_csv, write_trajectory_csv
from esc_lab.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    bundled_config_names,
    load_config,
    parse_config_text,
)
from esc_lab.integrate import NonFiniteStateError
from esc_lab.plotting import PlotError, emit_plot, read_csv_columns


# -- config parsing -----------------------------------------------------------

def test_parse_config_text():
    text = """
    # a comment
    mode = simulate
    dither.omega = 10
    init.xi = 0, y0, 2*y0
    """
    values = parse_config_text(text)
    assert values["mode"] == "simulate"
    assert values["dither.omega"] == "10"
    assert values["init.xi"] == "0, y0, 2*y0"


def test_parse_config_errors_carry_position():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a = 1\nbroken line\n")
    with pytest.raises(ConfigError, match="malformed key"):
        parse_config_text("3bad.key = 1\n")
    with pytest.raises(ConfigError, match="empty value"):
        parse_config_text("key =\n")


def test_overrides_take_precedence():
    base = {"dither.omega": "10", "gains.k": "1"}
    merged = apply_overrides(base, ["dither.omega=40", "time.t1=5"])
    assert merged["dither.omega"] == "40"
    assert merged["gains.k"] == "1"
    assert merged["time.t1"] == "5"
    with pytest.raises(ConfigError):
        apply_overrides(base, ["no-equals-sign"])


def test_typed_accessors_name_the_field():
    cfg = ExperimentConfig({"gains.k": "not-a-number"})
    with pytest.raises(ConfigError, match="gains.k"):
        cfg.number("gains.k")
    with pytest.raises(ConfigError, match="cost.kind"):
        cfg.string("cost.kind")


def test_washout_entries():
    cfg = ExperimentConfig({"init.xi": "0, y0, 2*y0, -1.5"})
    entries = cfg.initial_washouts(0.7)
    assert entries[0] == ("0", 0.0)
    assert entries[1] == ("y0", pytest.approx(0.7))
    assert entries[2][1] == pytest.approx(1.4)
    assert entries[3][1] == pytest.approx(-1.5)
    with pytest.raises(ConfigError, match="init.xi"):
        ExperimentConfig({"init.xi": "oops"}).initial_washouts(1.0)


def test_load_config_resolves_bundled_names(tmp_path):
    values = load_config("quartic_fig1")
    assert values["cost.kind"] == "quartic"
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.cfg"))
    with pytest.raises(ConfigError, match="bundled"):
        load_config("no_such_bundle")


def test_bundled_catalog():
    names = bundled_config_names()
    for expected in (
        "quartic_fig1",
        "quartic_average",
        "quartic_compare",
        "quadratic_jacobian",
        "quartic_converge",
        "quadratic_lyapunov",
        "quartic_lyapunov",
    ):
        assert expected in names


# -- experiment modes ---------------------------------------------------------

def test_missing_cost_field_exit_code_2(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("mode = simulate\ndither.omega = 10\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "cost.kind" in capsys.readouterr().err


@pytest.mark.parametrize("mode, config", [
    ("average", "quartic_average"),
    ("compare", "quartic_compare"),
    ("lyapunov", "quartic_lyapunov"),
])
def test_mismatched_dimensions_exit_code_2(mode, config, tmp_path, capsys):
    # two low-pass gains against a one-channel cost and dither
    code = main([mode, "--config", config, "--set", "gains.omega_l=0.25,0.25", "--out", str(tmp_path)])
    assert code == 2
    assert "dimensions must agree" in capsys.readouterr().err


def test_simulate_writes_three_csvs(tmp_path):
    code = main([
        "simulate", "--config", "quartic_fig1",
        "--set", "time.t1=2", "--set", "time.sample_dt=0.05",
        "--out", str(tmp_path),
    ])
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("trajectory_xi0_*.csv"))
    assert files == [
        "trajectory_xi0_0.csv",
        "trajectory_xi0_2y0.csv",
        "trajectory_xi0_y0.csv",
    ]
    header, cols = read_csv_columns(tmp_path / "trajectory_xi0_0.csv")
    assert header == ["t", "theta_1", "v_1", "xi", "J"]
    assert cols[0][0] == 0.0
    assert cols[1][0] == 2.0  # theta starts at 2
    assert cols[2][0] == 0.81


def test_gesc_simulation_zero_v_columns(tmp_path):
    code = main([
        "simulate", "--config", "quartic_fig1",
        "--set", "algorithm=gesc", "--set", "init.xi=0",
        "--set", "time.t1=1", "--out", str(tmp_path),
    ])
    assert code == 0
    header, cols = read_csv_columns(tmp_path / "trajectory.csv")
    assert header == ["t", "theta_1", "v_1", "xi", "J"]
    assert all(v == 0.0 for v in cols[header.index("v_1")])


def test_quadratic_mode_prints_eigenvalues(tmp_path, capsys):
    code = main(["quadratic", "--config", "quadratic_jacobian", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "-57.142857" in out
    assert "hurwitz: yes" in out
    assert (tmp_path / "jacobian.txt").exists()


def test_quadratic_mode_rejects_several_amplitudes(tmp_path, capsys):
    code = main(["quadratic", "--config", "quadratic_jacobian",
                 "--set", "dither.amplitudes=0.02, 0.5", "--out", str(tmp_path)])
    assert code == 2
    assert "dither.amplitudes" in capsys.readouterr().err
    assert not (tmp_path / "jacobian.txt").exists()


@pytest.mark.parametrize("mode, config, csv", [
    ("simulate", "quartic_fig1", "trajectory_xi0_0.csv"),
    ("average", "quartic_average", "trajectory_average.csv"),
])
def test_constant_expression_cost_runs(mode, config, csv, tmp_path, capsys):
    code = main([mode, "--config", config, "--set", "cost.kind=expr", "--set", "cost.n=1",
                 "--set", "cost.expr=3", "--set", "time.t1=1", "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    header, cols = read_csv_columns(tmp_path / csv)
    assert cols[header.index("J")] == [3.0] * len(cols[0])


def test_deep_expression_cost_exits_2(tmp_path, capsys):
    expr = "(" * 400 + "theta1" + ")" * 400 + "^4/24"
    code = main(["simulate", "--config", "quartic_fig1", "--set", "cost.kind=expr",
                 "--set", f"cost.expr={expr}", "--set", "time.t1=1", "--out", str(tmp_path)])
    assert code == 2
    assert "nesting deeper than 100 levels at position 101" in capsys.readouterr().err


@pytest.mark.parametrize("mode, config", [
    ("lyapunov", "quartic_lyapunov"),
    ("simulate", "quartic_fig1"),
])
def test_literal_division_by_zero_exits_2(mode, config, tmp_path, capsys):
    # compiling folds literals to Python floats, a power of literals too, so a division
    # of literals by zero is found before any run
    for expr in ("theta1^4/24 + 1/(2-2)", "theta1^4/24 + 2^2/0"):
        code = main([mode, "--config", config, "--set", "cost.kind=expr",
                     "--set", f"cost.expr={expr}", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cost.expr" in err and "divides by zero" in err
        assert not list(tmp_path.iterdir())


def test_long_sum_expression_cost_runs(tmp_path, capsys):
    expr = " + ".join(["theta1"] * 1500)
    code = main(["simulate", "--config", "quartic_fig1", "--set", "cost.kind=expr",
                 "--set", f"cost.expr={expr}", "--set", "time.t1=1", "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    header, cols = read_csv_columns(tmp_path / "trajectory_xi0_0.csv")
    theta, j = cols[header.index("theta_1")], cols[header.index("J")]
    assert j == pytest.approx([1500.0 * x for x in theta], rel=1e-9)


def test_retired_keys_are_ignored(tmp_path):
    args = ["lyapunov", "--config", "quadratic_lyapunov", "--set", "time.t1=1"]
    retired = ["average.n_q=16", "time.t0=5", "lyapunov.grid_theta=3", "lyapunov.tol=1"]
    assert main([*args, "--out", str(tmp_path / "plain")]) == 0
    assert main([*args, *(f"--set={kv}" for kv in retired), "--out", str(tmp_path / "set")]) == 0
    for name in ("lyapunov.csv", "lyapunov_verdict.txt"):
        assert (tmp_path / "set" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_converge_mode_csv(tmp_path):
    code = main(["converge", "--config", "quartic_converge", "--out", str(tmp_path)])
    assert code == 0
    header, cols = read_csv_columns(tmp_path / "converge.csv")
    assert header == ["a0", "grad_error", "v_star_max"]
    assert cols[0] == [0.08, 0.04, 0.02, 0.01]
    errs = cols[1]
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_parsed_quartic_converges_like_the_builtin(tmp_path):
    # both read grad J exactly from the same parse tree, so the parsed cost's grad_error
    # carries no finite-difference error, which at a0 = 1e-4 would be 12 % of it
    a0 = ["--set", "converge.a0=0.08,0.01,0.001,0.0001"]
    parsed = ["--set", "cost.kind=expr", "--set", "cost.expr=theta1^4/24"]
    for name, sets in (("builtin", a0), ("parsed", a0 + parsed)):
        assert main(["converge", "--config", "quartic_converge", *sets,
                     "--out", str(tmp_path / name)]) == 0
    csv = [(tmp_path / name / "converge.csv").read_bytes() for name in ("builtin", "parsed")]
    assert csv[0] == csv[1]


@pytest.mark.parametrize("key", ["converge.theta", "init.theta"])
def test_converge_theta_size_error_names_key_read(key, tmp_path, capsys):
    # converge.theta falls back to init.theta; the size error names whichever was read
    cfg = tmp_path / "converge.cfg"
    cfg.write_text(
        "mode = converge\ncost.kind = quartic\ndither.amplitudes = 0.08\n"
        f"dither.rates = 1\ndither.omega = 10\nconverge.a0 = 0.08, 0.04\n{key} = 1, 2\n"
    )
    code = main(["converge", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert f"field '{key}' must have 1 entries" in capsys.readouterr().err


def test_compare_mode(tmp_path, capsys):
    code = main([
        "compare", "--config", "quartic_compare",
        "--set", "time.t1=5", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "trajectory_full.csv").exists()
    assert (tmp_path / "trajectory_average.csv").exists()
    summary = (tmp_path / "deviation_summary.txt").read_text()
    assert "sup |theta_1" in summary



# -- compare's full and average runs, one after the other in process ----------

def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_compare_csvs_match_in_process_runs(tmp_path):
    from esc_lab import EscParams, new_dither, quartic_cost, simulate_average, simulate_rmspesc
    from esc_lab.integrate import fit_step

    assert main(["compare", "--config", "quartic_compare", "--set", "time.t1=5",
                 "--set", "init.theta=1.7", "--out", str(tmp_path / "cli")]) == 0
    assert_no_child_left()
    cost = quartic_cost()
    dither = new_dither([0.02], [1], 10.0)
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)
    state0 = np.array([1.7, 0.81, 0.0])
    h, stride = fit_step(0.05, dither.max_step)
    h_avg, avg_stride = fit_step(0.05, 0.05 / 4)
    runs = {
        "trajectory_full.csv": simulate_rmspesc(cost, dither, params, state0, 5.0, h, stride),
        "trajectory_average.csv": simulate_average(cost, dither, params, state0, 5.0, h_avg,
                                                   avg_stride),
    }
    for name, traj in runs.items():
        expected = write_trajectory_csv(tmp_path / name, traj, cost, with_v=True).read_bytes()
        assert (tmp_path / "cli" / name).read_bytes() == expected


@pytest.mark.parametrize("mode, config, driver, line", [
    ("simulate", "quartic_fig1", "simulate_rmspesc",
     "rmspesc: 7 clamp events, summed over the init.xi entries"),
    ("average", "quartic_average", "simulate_average",
     "average xi0=0: wrote {out}/trajectory_average.csv (21 samples, 7 clamp events)"),
    ("compare", "quartic_compare", "simulate_average", "clamp events: full 0, average 7"),
])
def test_summary_reports_clamp_events(mode, config, driver, line, tmp_path, monkeypatch, capsys):
    # the printed count is the run's Trajectory.clamp_events, here set to 7
    real = getattr(cli, driver)
    monkeypatch.setattr(cli, driver, lambda *args: replace(real(*args), clamp_events=7))
    assert main([mode, "--config", config, "--set", "time.t1=1", "--out", str(tmp_path)]) == 0
    assert line.format(out=tmp_path) in capsys.readouterr().out.splitlines()


def test_compare_average_abort_exit_code_3(tmp_path, monkeypatch, capsys):
    def abort(*args):
        raise NonFiniteStateError(1.5, np.array([[1.0, np.inf, 0.0], [2.0, 0.5, 0.0]]), 0,
                                  "init.xi=0")

    monkeypatch.setattr(cli, "simulate_average", abort)
    args = ["compare", "--config", "quartic_compare", "--set", "time.t1=1", "--out", str(tmp_path)]
    assert main(args) == 3
    assert capsys.readouterr().err == ("runtime abort: non-finite state of init.xi=0 at t=1.5: "
                                       "[ 1. inf  0.]\n")
    assert_no_child_left()
    assert not list(tmp_path.glob("*.csv"))


def test_compare_full_abort_exits_promptly(tmp_path, monkeypatch, capsys):
    def abort(*args):
        raise NonFiniteStateError(0.25, np.array([np.nan, 0.0, 0.0]))

    monkeypatch.setattr(cli, "simulate_rmspesc", abort)
    start = time.perf_counter()
    # the average run alone would take several seconds at this horizon
    code = main(["compare", "--config", "quartic_compare", "--set", "time.t1=1000",
                 "--out", str(tmp_path)])
    assert time.perf_counter() - start < 3.0
    assert code == 3
    assert "runtime abort: non-finite state at t=0.25" in capsys.readouterr().err
    assert_no_child_left()


def test_compare_full_abort_spares_the_callers_children(tmp_path, monkeypatch, capsys):
    import multiprocessing

    def abort(*args):
        raise NonFiniteStateError(0.25, np.array([np.nan, 0.0, 0.0]))

    monkeypatch.setattr(cli, "simulate_rmspesc", abort)
    own = multiprocessing.Process(target=time.sleep, args=(60,))
    own.start()
    try:
        assert main(["compare", "--config", "quartic_compare", "--set", "time.t1=1000",
                     "--out", str(tmp_path)]) == 3
        assert multiprocessing.active_children() == [own]
        assert own.is_alive()
    finally:
        own.kill()
        own.join()
    assert "runtime abort: non-finite state at t=0.25" in capsys.readouterr().err
    assert_no_child_left()


def test_lyapunov_mode(tmp_path, capsys):
    code = main([
        "lyapunov", "--config", "quadratic_lyapunov",
        "--set", "time.t1=10", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    header, cols = read_csv_columns(tmp_path / "lyapunov.csv")
    assert header[:2] == ["t", "V"]
    v = cols[1]
    assert v[-1] <= v[0] + 1e-9


@pytest.mark.parametrize("config, sets", [
    ("quadratic_lyapunov", []),
    ("quartic_lyapunov", []),
    ("quadratic_lyapunov", ["cost.h=1,2", "dither.amplitudes=0.2,0.2", "dither.rates=1,2",
                            "gains.omega_l=0.25,0.25", "init.theta=2,-1", "init.v=0.81,0.81",
                            "time.t1=5"]),
])
def test_lyapunov_evaluates_v_once(config, sets, tmp_path, monkeypatch, capsys):
    # the box check before the run reads the initial state's V_theta level alone; V is
    # evaluated once, on the whole trajectory, with one refinement pass per target
    evaluations, passes = [], []
    evaluate, golden = lyapunov.LevelSetOracle._evaluate, lyapunov._golden_max

    def counted_evaluate(self, theta_err, *errs):
        evaluations.append(len(theta_err))
        return evaluate(self, theta_err, *errs)

    def counted_golden(f, lo, hi):
        passes.append(len(lo))
        return golden(f, lo, hi)

    monkeypatch.setattr(lyapunov.LevelSetOracle, "_evaluate", counted_evaluate)
    monkeypatch.setattr(lyapunov, "_golden_max", counted_golden)
    assert main(["lyapunov", "--config", config, *(f"--set={kv}" for kv in sets),
                 "--out", str(tmp_path)]) == 0
    header, cols = read_csv_columns(tmp_path / "lyapunov.csv")
    targets = 1 + sum(name.startswith("V_v_") for name in header)   # xi, v_1 .. v_n
    assert evaluations == [len(cols[0])]
    assert passes == [len(cols[0])] * targets
    assert "PASS" in capsys.readouterr().out


def test_lyapunov_run_leaves_numpy_ma_unimported(tmp_path):
    # importing numpy.ma took 10-14 ms of every run's set-up; np.unique was its one importer
    script = (
        "import sys\n"
        "from esc_lab.cli import main\n"
        f"code = main(['lyapunov', '--config', 'quartic_lyapunov', '--set', 'time.t1=1', "
        f"'--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_compare_run_starts_no_process(tmp_path):
    # compare runs its full loop and average system in this process: no process pool,
    # so neither pool module is imported and no child is left to reap
    script = (
        "import os, sys\n"
        "from esc_lab.cli import main\n"
        f"code = main(['compare', '--config', 'quartic_compare', '--set', 'time.t1=1', "
        f"'--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('compare left a child process')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_each_mode_imports_only_the_modules_it_runs(tmp_path):
    # import esc_lab loads no submodule; simulate never loads the averaging, Lyapunov,
    # quadratic-report or plotting modules, compare adds averaging, lyapunov adds lyapunov
    script = (
        "import sys\n"
        "import esc_lab\n"
        "def loaded(names):\n"
        "    return [f'esc_lab.{name}' for name in names if f'esc_lab.{name}' in sys.modules]\n"
        "submodules = [m for m in sys.modules if m.startswith('esc_lab.')]\n"
        "assert not submodules, submodules\n"
        "from esc_lab.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "for mode, config, unused in [\n"
        "        ('simulate', 'quartic_fig1', ('averaging', 'lyapunov', 'quadratic', 'plotting')),\n"
        "        ('compare', 'quartic_compare', ('lyapunov', 'quadratic', 'plotting')),\n"
        "        ('lyapunov', 'quartic_lyapunov', ('quadratic', 'plotting'))]:\n"
        "    code = main([mode, '--config', config, '--set', 'time.t1=1', '--out', out])\n"
        "    assert code == 0, (mode, code)\n"
        "    assert not loaded(unused), (mode, loaded(unused))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _run_without_thread_variables(script, **extra):
    """Run ``script`` in a fresh interpreter on this tree's src, with none of the BLAS
    thread variables set except those in ``extra``; returns its stdout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {key: value for key, value in os.environ.items() if key not in _THREAD_VARIABLES}
    env.update(extra, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="/proc/self/task does not exist, so threads cannot be counted")
def test_cli_process_runs_on_one_thread():
    # OpenBLAS would start nproc - 1 idle workers as numpy loads; the CLI sets
    # OPENBLAS_NUM_THREADS=1 before it imports numpy
    out = _run_without_thread_variables(
        "import esc_lab.cli, os; print(len(os.listdir('/proc/self/task')))")
    assert out.split() == ["1"]


def test_cli_keeps_the_callers_blas_threads():
    out = _run_without_thread_variables(
        "import esc_lab.cli, os; print(os.environ['OPENBLAS_NUM_THREADS'])",
        OPENBLAS_NUM_THREADS="2")
    assert out.split() == ["2"]


def test_cli_imported_after_numpy_leaves_the_environment_alone():
    # the variable can no longer act on a process that loaded numpy, only on its children
    out = _run_without_thread_variables(
        "import os, numpy\n"
        "before = dict(os.environ)\n"
        "import esc_lab.cli\n"
        "print(dict(os.environ) == before)\n")
    assert out.split() == ["True"]


def test_runtime_abort_exit_code_3(tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main([
            "simulate", "--config", "quartic_fig1",
            "--set", "algorithm=gesc", "--set", "gains.k=1e12",
            "--set", "init.xi=0", "--set", "time.t1=5",
            "--set", "time.h=0.05", "--set", "time.sample_dt=0.05",
            "--out", str(tmp_path),
        ])
    assert code == 3
    assert "runtime abort" in capsys.readouterr().err


@pytest.mark.parametrize("args, line", [
    (["simulate", "--config", "quartic_fig1", "--set", "algorithm=gesc", "--set", "gains.k=1e12",
      "--set", "init.xi=0", "--set", "time.t1=5", "--set", "time.h=0.05",
      "--set", "time.sample_dt=0.05"],
     "runtime abort: non-finite state of init.xi=0 at t=0.1: [nan nan]"),
    (["average", "--config", "quartic_average", "--set", "cost.kind=expr",
      "--set", "cost.expr=1/theta1", "--set", "init.theta=0", "--set", "time.t1=1"],
     "runtime abort: non-finite state at t=0.01: [nan nan nan]"),
])
def test_runtime_abort_prints_one_line(args, line, tmp_path):
    # numpy's overflow and invalid-value warnings on the way to the abort stay off stderr
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "esc_lab.cli", *args, "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert done.stderr == line + "\n"


# Python floats raise where numpy returns inf or NaN: / by zero, ** past the largest
# float, math.pow of a negative base. The full loop then measures that point's J
# through f, so each run ends as numpy's J makes it: theta1^400 overflows from
# theta1 = -6 on, and 1/inf = 0 leaves J = theta1^2; the other two abort.
ABORT_AT_FIRST_STEP = "runtime abort: non-finite state of init.xi=0 at t=0.01: [nan nan nan]"


@pytest.mark.parametrize("expr, theta, code, outcome", [
    ("1/(theta1^400) + theta1^2", "-2", 0, -4.80570113564),
    ("1/(theta1^400) + theta1^2", "-6", 0, -9.20651291013),
    ("theta1/0", "-2", 3, ABORT_AT_FIRST_STEP),
    ("theta1^0.5", "-2", 3, ABORT_AT_FIRST_STEP),
])
def test_float_errors_in_j_follow_numpy(expr, theta, code, outcome, tmp_path, capsys):
    with np.errstate(all="ignore"):
        assert main(["simulate", "--config", "quartic_fig1", "--set", "cost.kind=expr",
                     "--set", "cost.n=1", "--set", f"cost.expr={expr}",
                     "--set", f"init.theta={theta}", "--set", "init.xi=0",
                     "--set", "time.t1=1", "--out", str(tmp_path)]) == code
    if code:
        assert capsys.readouterr().err.strip() == outcome
        assert not list(tmp_path.glob("*.csv"))
    else:
        header, columns = read_csv_columns(tmp_path / "trajectory.csv")
        assert columns[header.index("theta_1")][-1] == pytest.approx(outcome, rel=1e-10)


@pytest.mark.parametrize("k, xi, member", [
    # both seeds blow up on the first step; the first one is named
    ("1e12", "0, 1", "init.xi=0"),
    # only the second seed blows up; its run used to follow a finished first
    # seed, whose CSV was left behind
    ("1", "y0, 1e30", "init.xi=1e30"),
    # a lone seed runs as a (d,) state and is named all the same
    ("1e12", "1", "init.xi=1"),
])
def test_batched_abort_names_member_and_writes_nothing(k, xi, member, tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main([
            "simulate", "--config", "quartic_fig1", "--set", "algorithm=gesc",
            "--set", f"gains.k={k}", "--set", f"init.xi={xi}", "--set", "time.t1=1",
            "--out", str(tmp_path),
        ])
    assert code == 3
    err = capsys.readouterr().err
    assert f"runtime abort: non-finite state of {member} at t=" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("xi, first, second", [
    ("2*y0, 2 * y0, 1", "2*y0", "2 * y0"),
    ("0, 0", "0", "0"),
])
def test_colliding_washout_labels_exit_code_2(xi, first, second, tmp_path, capsys):
    code = main([
        "simulate", "--config", "quartic_fig1", "--set", "time.t1=0.2",
        "--set", f"init.xi={xi}", "--out", str(tmp_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"entries {first!r} and {second!r}" in err
    assert not list(tmp_path.glob("*.csv"))


def test_batched_seeds_match_single_seed_runs(tmp_path):
    # one lockstep run of three seeds writes the bytes of three one-seed runs
    common = ["--config", "quartic_fig1", "--set", "time.t1=2"]
    assert main(["simulate", *common, "--out", str(tmp_path / "batch")]) == 0
    for entry, label in (("0", "0"), ("y0", "y0"), ("2*y0", "2y0")):
        single = tmp_path / f"single_{label}"
        assert main(["simulate", *common, "--set", f"init.xi={entry}", "--out", str(single)]) == 0
        expected = (single / "trajectory.csv").read_bytes()
        assert (tmp_path / "batch" / f"trajectory_xi0_{label}.csv").read_bytes() == expected


@pytest.mark.parametrize("t1", ["inf", "nan"])
def test_non_finite_horizon_exit_code_2(t1, tmp_path, capsys):
    code = main(["average", "--config", "quartic_average", "--set", f"time.t1={t1}",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "error: field 'time.t1' must be positive and finite" in capsys.readouterr().err

_QUADRATIC = ["cost.kind=quadratic", "cost.h=1"]


@pytest.mark.parametrize("mode, config, sets, field", [
    ("simulate", "quartic_fig1", ["gains.omega_xi=inf"], "omega_xi"),
    ("simulate", "quartic_fig1", ["gains.omega_l=inf"], "gains.omega_l"),
    ("simulate", "quartic_fig1", ["gains.k=inf"], "gain k"),
    ("simulate", "quartic_fig1", ["init.theta=inf"], "init.theta"),
    ("simulate", "quartic_fig1", ["init.v=nan"], "init.v"),
    ("simulate", "quartic_fig1", ["init.xi=nan"], "init.xi"),
    ("simulate", "quartic_fig1", ["cost.kind=quadratic", "cost.h=nan"], "cost.h"),
    ("simulate", "quartic_fig1", ["cost.kind=quadratic", "cost.h=inf"], "cost.h"),
    ("simulate", "quartic_fig1", [*_QUADRATIC, "cost.theta_star=nan"], "cost.theta_star"),
    ("simulate", "quartic_fig1", [*_QUADRATIC, "cost.j_opt=inf"], "cost.j_opt"),
    ("converge", "quartic_converge", ["converge.theta=nan"], "converge.theta"),
    ("lyapunov", "quadratic_lyapunov", ["lyapunov.box_halfwidth=nan"], "lyapunov.box_halfwidth"),
    ("lyapunov", "quadratic_lyapunov", ["lyapunov.box_halfwidth=inf"], "lyapunov.box_halfwidth"),
])
def test_non_finite_setting_exit_code_2(mode, config, sets, field, tmp_path, capsys):
    # each of these used to crash, abort at run time, or write a CSV of NaNs
    with np.errstate(all="ignore"):
        code = main([mode, "--config", config, *(f"--set={kv}" for kv in sets),
                     "--set", "time.t1=1", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "finite" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mode, config, sets, keys", [
    ("simulate", "quartic_fig1", ["dither.omega=1e300", "time.t1=1"], "dither.omega"),
    ("average", "quartic_average", ["time.sample_dt=1e-300"], "time.sample_dt"),
    ("simulate", "quartic_fig1", ["time.h=1e-300", "time.sample_dt=1e-300", "time.t1=1"],
     "time.h"),
    ("compare", "quartic_compare", ["gains.omega_l=1e300", "time.t1=1"], "gains.omega_l"),
    ("lyapunov", "quartic_lyapunov", ["time.t1=1e300"], "cap"),
])
def test_step_count_ceiling_exit_code_2(mode, config, sets, keys, tmp_path, capsys):
    # each of these used to run until killed, or to fail in numpy naming no key
    start = time.perf_counter()
    code = main([mode, "--config", config, *(f"--set={kv}" for kv in sets),
                 "--out", str(tmp_path)])
    assert time.perf_counter() - start < 5.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field 'time.t1'") and f"{cli.MAX_STEPS:.0e} RK4 steps" in err
    assert keys in err
    assert not list(tmp_path.iterdir())


def test_lyapunov_box_overflowing_the_fields_exit_code_2(tmp_path, capsys):
    # J overflows on the grid of this box: the check used to report a verdict and exit 0
    with np.errstate(all="ignore"):
        code = main(["lyapunov", "--config", "quadratic_lyapunov",
                     "--set", "lyapunov.box_halfwidth=1e300", "--set", "time.t1=1",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "not finite on the level-set grid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mode, config, sets, message", [
    # the factor 'e' used to reach float() and print "could not convert string to float"
    ("simulate", "quartic_fig1", ["init.xi=e*y0"],
     "field 'init.xi' entries must be numbers or '<factor>*y0', got 'e*y0'"),
    # these used to print the library's message, which names no key
    ("lyapunov", "quadratic_lyapunov", ["lyapunov.box_halfwidth=0"],
     "field 'lyapunov.box_halfwidth' entries must be positive"),
    ("lyapunov", "quadratic_lyapunov", ["lyapunov.box_halfwidth=-2"],
     "field 'lyapunov.box_halfwidth' entries must be positive"),
    ("converge", "quartic_converge", ["converge.a0=0.01,0.02"],
     "field 'converge.a0' entries must be positive and strictly decreasing"),
    # these used to name cost.expr, and to ask for "1 or 1 entries"
    ("average", "quartic_average", ["cost.kind=expr", "cost.expr=theta1^2", "cost.n=0"],
     "field 'cost.n' must be at least 1, got 0"),
    ("lyapunov", "quadratic_lyapunov", ["lyapunov.box_halfwidth=1,2"],
     "field 'lyapunov.box_halfwidth' must have 1 entry"),
    # a list that splits to no entries: an IndexError traceback and exit 1; a header-only
    # converge.csv and exit 0; and numpy's "need at least one array to stack", no key named
    ("simulate", "quartic_fig1", ["cost.kind=quadratic", "cost.h=,"],
     "field 'cost.h' must list at least one entry, got ','"),
    ("converge", "quartic_converge", ["converge.a0=,"],
     "field 'converge.a0' must list at least one entry, got ','"),
    ("simulate", "quartic_fig1", ["init.xi=,"], "field 'init.xi' must list at least one entry, got ','"),
])
def test_invalid_setting_error_names_the_key(mode, config, sets, message, tmp_path, capsys):
    code = main([mode, "--config", config, *(f"--set={kv}" for kv in sets),
                 "--set", "time.t1=1", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("config, sets, code, message", [
    ("quadratic_lyapunov", ["lyapunov.box_halfwidth=0"], 2,
     "error: field 'lyapunov.box_halfwidth' entries must be positive"),
    ("quartic_lyapunov", ["cost.kind=expr", "cost.expr=theta1^3"], 3,
     "runtime abort: g_bar vanished at theta = [-"),
    # the initial state escapes the box, which V at that state shows once the oracle is built
    ("quadratic_lyapunov", ["lyapunov.box_halfwidth=0.5"], 2,
     "error: sublevel set V_theta <= 2.00101 reaches the search box boundary "
     "(min boundary level 0.125); widen the box"),
])
def test_lyapunov_fails_before_it_integrates(config, sets, code, message, tmp_path, monkeypatch,
                                             capsys):
    # at the bundled horizon: the box and the equilibrium search used to run only after
    # the whole average trajectory had been integrated
    def integrate(*args):
        raise AssertionError("simulate_average ran")

    monkeypatch.setattr(cli, "simulate_average", integrate)
    with np.errstate(all="ignore"):
        assert main(["lyapunov", "--config", config, *(f"--set={kv}" for kv in sets),
                     "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mode, config", [
    ("converge", "quartic_converge"),
    ("lyapunov", "quartic_lyapunov"),
])
def test_unresolvable_dither_exit_code_3(mode, config, tmp_path, capsys):
    # J = theta1^3 walks the equilibrium search out to |theta| ~ 1e31, where
    # theta + a rounds to theta and g_bar reads 0; converge used to exit 0 with
    # v_star_max = 9.4e156, lyapunov to exit 2 asking for a wider box
    with np.errstate(all="ignore"):
        code = main([mode, "--config", config, "--set", "cost.kind=expr",
                     "--set", "cost.expr=theta1^3", "--set", "time.t1=1", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("runtime abort: g_bar vanished at theta = [-")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mode, config", [
    ("average", "quartic_average"),
    ("compare", "quartic_compare"),
    ("lyapunov", "quadratic_lyapunov"),
])
def test_single_trajectory_modes_reject_several_washouts(mode, config, tmp_path, capsys):
    code = main([mode, "--config", config, "--set", "init.xi=0, 1", "--set", "time.t1=1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "field 'init.xi' must have 1 entry" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_step_not_dividing_span_exit_code_2(tmp_path, capsys):
    code = main([
        "simulate", "--config", "quartic_fig1",
        "--set", "time.t1=1", "--set", "time.h=0.03", "--set", "time.sample_dt=0.03",
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert "does not divide" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("mode, config, t1, h", [
    ("simulate", "quartic_fig1", "1", "0.015"),
    # the full loop's h = 0.015 divides 20.01, the average system's h = 0.075 does not
    ("compare", "quartic_compare", "20.01", "0.075"),
])
def test_grid_checked_before_any_run(mode, config, t1, h, tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a driver ran")
    monkeypatch.setattr(cli, "simulate_rmspesc", no_run)
    code = main([mode, "--config", config, "--set", "time.sample_dt=0.3",
                 "--set", f"time.t1={t1}", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: field 'time.t1' = {t1}: the RK4 step h = {h}, set by time.sample_dt"
        f"{' for the average system' if mode == 'compare' else ''}, does not divide the span "
        f"[0, {t1}]\n")
    assert not list(tmp_path.iterdir())


def test_step_not_dividing_sample_dt_exit_code_2(tmp_path, capsys):
    # h = 0.03 divides t1 = 0.6 but not sample_dt = 0.05: samples would land on 0.06, 0.12, ...
    code = main([
        "simulate", "--config", "quartic_fig1",
        "--set", "time.t1=0.6", "--set", "time.h=0.03", "--set", "time.sample_dt=0.05",
        "--set", "init.xi=0", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "must divide time.sample_dt" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_step_rule_respects_filter_gains(tmp_path, capsys):
    # omega_l = 300 puts the v filter's RK4 pole beyond the stability region at the
    # dither rule's h = 0.0157 (the run used to abort at t = 0.17); the cap picks h = 0.005.
    code = main([
        "simulate", "--config", "quartic_fig1", "--set", "gains.omega_l=300",
        "--set", "time.t1=1", "--out", str(tmp_path),
    ])
    assert code == 0, capsys.readouterr().err
    paths = sorted(tmp_path.glob("*.csv"))
    assert len(paths) == 3
    for path in paths:
        header, cols = read_csv_columns(path)
        assert len(cols[0]) == 101
        assert all(np.all(np.isfinite(c)) for c in cols)

    code = main([
        "simulate", "--config", "quartic_fig1", "--set", "gains.omega_l=300",
        "--set", "time.t1=1", "--set", "time.h=0.01", "--out", str(tmp_path / "explicit"),
    ])
    assert code == 2
    assert "gains.omega_l" in capsys.readouterr().err


def test_every_bundled_config_runs_clean(tmp_path):
    for name in bundled_config_names():
        start = time.monotonic()
        mode = load_config(name)["mode"]
        code = run_experiment(name, [], mode, str(tmp_path / name))
        elapsed = time.monotonic() - start
        assert code == 0, name
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"


# -- plotting -----------------------------------------------------------------

@pytest.fixture()
def sample_csv(tmp_path):
    path = tmp_path / "data.csv"
    lines = ["t,theta_1,v_1,xi,J"]
    for i in range(50):
        t = i * 0.1
        lines.append(f"{t},{np.sin(t)},{0.5 * t},{np.cos(t)},{t * t}")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_emit_plot_single_polyline(sample_csv, tmp_path):
    out = emit_plot(sample_csv, ["theta_1"], tmp_path / "one.svg")
    svg = out.read_text()
    assert svg.count("<polyline") == 1
    assert 'version="1.1"' in svg


def test_emit_plot_three_polylines_with_legend(sample_csv, tmp_path):
    out = emit_plot(sample_csv, ["theta_1", "xi", "J"], tmp_path / "three.svg")
    svg = out.read_text()
    assert svg.count("<polyline") == 3
    for name in ("theta_1", "xi", "J"):
        assert f">{name}</text>" in svg


def test_emit_plot_deterministic(sample_csv, tmp_path):
    a = emit_plot(sample_csv, ["theta_1"], tmp_path / "a.svg").read_bytes()
    b = emit_plot(sample_csv, ["theta_1"], tmp_path / "b.svg").read_bytes()
    assert a == b


def test_emit_plot_unknown_column(sample_csv, tmp_path):
    with pytest.raises(PlotError, match="unknown column 'nope'"):
        emit_plot(sample_csv, ["nope"], tmp_path / "x.svg")


def test_malformed_csv_row_reports_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,a\n0,1\n1\n")
    with pytest.raises(PlotError, match="row 3"):
        read_csv_columns(path)
    path.write_text("t,a\n0,1\n1,zzz\n")
    with pytest.raises(PlotError, match="row 3"):
        read_csv_columns(path)


def test_plot_accepts_every_produced_csv(tmp_path):
    # simulate + lyapunov + converge outputs all round-trip through the plotter
    assert main(["simulate", "--config", "quartic_fig1",
                 "--set", "time.t1=1", "--set", "init.xi=0",
                 "--out", str(tmp_path)]) == 0
    assert main(["converge", "--config", "quartic_converge", "--out", str(tmp_path)]) == 0
    for csv_file, column in [
        (tmp_path / "trajectory.csv", "theta_1"),
        (tmp_path / "converge.csv", "grad_error"),
    ]:
        out = emit_plot(csv_file, [column], csv_file.with_suffix(".svg"))
        assert out.exists()


def test_plot_mode_via_cli(sample_csv, tmp_path):
    code = main([
        "plot", "--config", "quartic_fig1",
        "--set", f"plot.csv={sample_csv}",
        "--set", "plot.columns=theta_1,xi",
        "--set", "plot.out=out.svg",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "out.svg").read_text().count("<polyline") == 2


def test_write_trajectory_csv_round_trip(tmp_path):
    from esc_lab import EscParams, new_dither, quartic_cost, simulate_rmspesc

    cost = quartic_cost()
    dither = new_dither([0.02], [1], 10.0)
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)
    traj = simulate_rmspesc(cost, dither, params, [2.0, 0.81, 0.0], 1.0, 0.01, 10)
    path = write_trajectory_csv(tmp_path / "t.csv", traj, cost, with_v=True)
    header, cols = read_csv_columns(path)
    assert header == ["t", "theta_1", "v_1", "xi", "J"]
    np.testing.assert_allclose(cols[0], traj.times, rtol=1e-10)
    np.testing.assert_allclose(cols[1], traj.states[:, 0], rtol=1e-10)


def test_write_trajectory_csv_text(tmp_path):
    from esc_lab import Trajectory, quadratic_cost

    cost = quadratic_cost(2.0)  # J = theta^2
    times = np.array([0.0, 1.0 / 3.0])
    with_v = Trajectory(times=times, states=np.array([[-0.0, 1e-13, 123456789012.5],
                                                      [1.0 / 3.0, 123456789012.5, -0.0]]))
    path = write_trajectory_csv(tmp_path / "v.csv", with_v, cost, with_v=True)
    assert path.read_text() == (
        "t,theta_1,v_1,xi,J\n"
        "0,-0,1e-13,123456789012,0\n"
        "0.333333333333,0.333333333333,123456789012,-0,0.111111111111\n"
    )
    without_v = Trajectory(times=times, states=np.array([[-0.0, 1e-13],
                                                         [1.0 / 3.0, 123456789012.5]]))
    path = write_trajectory_csv(tmp_path / "g.csv", without_v, cost, with_v=False)
    assert path.read_text() == (
        "t,theta_1,v_1,xi,J\n"
        "0,-0,0,1e-13,0\n"
        "0.333333333333,0.333333333333,0,123456789012,0.111111111111\n"
    )


def write_csv_row_at_a_time(path, header, table):
    """The reference writer: one ``%`` call and one write per row."""
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.12g"] * table.shape[-1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(line % tuple(row.tolist()))
    return path


# signed zeros and infinities, NaN, subnormals, and the points where %.12g switches
# between fixed and exponent notation, with their neighbours
CSV_EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -2.5e-320,
                   1e-5, 9.99999999999e-6, 1e-4, 9.999999999995e-5, -1e-4, 1e12, 999999999999.5,
                   1e13, 9999999999999.0, -1e13, 1.0, -1.0 / 3.0]


@pytest.mark.parametrize("rows", [0, 1, 127, 128, 129, 10_001])
def test_write_csv_matches_the_row_at_a_time_writer(rows, tmp_path):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(-320, 300, (rows, 5))
    edges = rng.random(table.shape) < 0.25
    table[edges] = rng.choice(CSV_EDGE_VALUES, int(edges.sum()))
    table.ravel()[: len(CSV_EDGE_VALUES)] = CSV_EDGE_VALUES[: table.size]
    header = ["t", "theta_1", "v_1", "xi", "J"]
    expected = write_csv_row_at_a_time(tmp_path / "rows.csv", header, table).read_bytes()
    assert write_csv(tmp_path / "blocks.csv", header, table).read_bytes() == expected


@pytest.mark.parametrize("table", [
    [],
    [[0.5, 1e-5, -0.0]],
    [[a0, e, v] for a0, e, v in zip([0.4, 0.2, 0.1, 0.05], CSV_EDGE_VALUES, CSV_EDGE_VALUES[4:])],
])
def test_write_csv_matches_the_row_at_a_time_writer_on_lists(table, tmp_path):
    # converge writes a list of [a0, grad_error, v_star_max] rows, empty for no amplitudes
    header = ["a0", "grad_error", "v_star_max"]
    expected = write_csv_row_at_a_time(tmp_path / "rows.csv", header, table).read_bytes()
    assert write_csv(tmp_path / "blocks.csv", header, table).read_bytes() == expected
