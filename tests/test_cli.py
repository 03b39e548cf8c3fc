import time

import numpy as np
import pytest

from esc_lab.cli import main, run_experiment, write_trajectory_csv
from esc_lab.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    bundled_config_names,
    load_config,
    parse_config_text,
)
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


def test_converge_mode_csv(tmp_path):
    code = main(["converge", "--config", "quartic_converge", "--out", str(tmp_path)])
    assert code == 0
    header, cols = read_csv_columns(tmp_path / "converge.csv")
    assert header == ["a0", "grad_error", "v_star_max"]
    assert cols[0] == [0.08, 0.04, 0.02, 0.01]
    errs = cols[1]
    assert errs[0] > errs[1] > errs[2] > errs[3]


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


def test_step_not_dividing_span_exit_code_2(tmp_path, capsys):
    code = main([
        "simulate", "--config", "quartic_fig1",
        "--set", "time.t1=1", "--set", "time.h=0.03", "--set", "time.sample_dt=0.03",
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert "does not divide" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


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
    traj = simulate_rmspesc(cost, dither, params, [2.0, 0.81, 0.0], 0.0, 1.0, 0.01, 10)
    path = write_trajectory_csv(tmp_path / "t.csv", traj, cost, with_v=True)
    header, cols = read_csv_columns(path)
    assert header == ["t", "theta_1", "v_1", "xi", "J"]
    np.testing.assert_allclose(cols[0], traj.times, rtol=1e-10)
    np.testing.assert_allclose(cols[1], traj.states[:, 0], rtol=1e-10)
