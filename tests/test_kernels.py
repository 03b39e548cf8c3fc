import numpy as np
import pytest

from esc_lab import (
    EscParams,
    NonFiniteStateError,
    new_dither,
    parse_cost,
    quadratic_cost,
    quartic_cost,
    simulate_average,
    simulate_gesc,
    simulate_rmspesc,
)
from esc_lab import _kernels

FIG1 = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)

# Without numba the kernels run as plain Python, so force_path="kernel" still
# exercises them; only tests that need the compiled path itself are skipped.
needs_numba = pytest.mark.skipif(not _kernels.numba_available(), reason="numba not importable")


@needs_numba
def test_env_flag_selects_fallback(monkeypatch):
    monkeypatch.setenv("ESC_LAB_NUMBA", "0")
    assert not _kernels.numba_enabled()
    monkeypatch.setenv("ESC_LAB_NUMBA", "off")
    assert not _kernels.numba_enabled()
    monkeypatch.setenv("ESC_LAB_NUMBA", "1")
    assert _kernels.numba_enabled()
    monkeypatch.delenv("ESC_LAB_NUMBA")
    assert _kernels.numba_enabled()


@needs_numba
def test_flag_routes_simulation(monkeypatch):
    cost = quartic_cost()
    dither = new_dither([0.02], [1], 10.0)
    monkeypatch.setenv("ESC_LAB_NUMBA", "0")
    a = simulate_rmspesc(cost, dither, FIG1, [2.0, 0.81, 0.0], 0.0, 1.0, 0.01, 10)
    monkeypatch.setenv("ESC_LAB_NUMBA", "1")
    b = simulate_rmspesc(cost, dither, FIG1, [2.0, 0.81, 0.0], 0.0, 1.0, 0.01, 10)
    np.testing.assert_allclose(a.states, b.states, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("cost_factory", [quartic_cost, lambda: quadratic_cost(1.0, 3.0)])
def test_rmsp_paths_agree(cost_factory):
    cost = cost_factory()
    dither = new_dither([0.05], [1], 10.0)
    state0 = [1.5, 0.3, 0.1]
    kernel = simulate_rmspesc(cost, dither, FIG1, state0, 0.0, 10.0, 0.005, 20, force_path="kernel")
    plain = simulate_rmspesc(cost, dither, FIG1, state0, 0.0, 10.0, 0.005, 20, force_path="numpy")
    np.testing.assert_allclose(kernel.times, plain.times, atol=1e-12)
    np.testing.assert_allclose(kernel.states, plain.states, rtol=1e-9, atol=1e-12)
    assert kernel.clamp_events == plain.clamp_events


def test_gesc_paths_agree():
    cost = quartic_cost()
    dither = new_dither([0.02], [1], 10.0)
    kernel = simulate_gesc(cost, dither, FIG1, [2.0, 0.0], 0.0, 10.0, 0.005, 20, force_path="kernel")
    plain = simulate_gesc(cost, dither, FIG1, [2.0, 0.0], 0.0, 10.0, 0.005, 20, force_path="numpy")
    np.testing.assert_allclose(kernel.states, plain.states, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("t1", [2.0, pytest.param(20.0, marks=needs_numba)])
def test_average_paths_agree(t1):
    cost = quadratic_cost(2.0, 1.0)
    dither = new_dither([0.1], [1], 10.0)
    state0 = [1.0, 0.2, 0.0]
    kernel = simulate_average(cost, dither, FIG1, state0, 0.0, t1, 0.01, 10, force_path="kernel")
    plain = simulate_average(cost, dither, FIG1, state0, 0.0, t1, 0.01, 10, force_path="numpy")
    np.testing.assert_allclose(kernel.states, plain.states, rtol=1e-8, atol=1e-11)


def test_multichannel_paths_agree():
    cost = quadratic_cost([[2.0, 0.3], [0.3, 1.0]], 0.5, [0.2, -0.4])
    dither = new_dither([0.05, 0.04], [1, 3], 10.0)
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25, 0.5], omega_xi=1.0)
    state0 = [1.0, -1.0, 0.1, 0.2, 0.0]
    kernel = simulate_rmspesc(cost, dither, params, state0, 0.0, 5.0, 0.002, 25, force_path="kernel")
    plain = simulate_rmspesc(cost, dither, params, state0, 0.0, 5.0, 0.002, 25, force_path="numpy")
    np.testing.assert_allclose(kernel.states, plain.states, rtol=1e-9, atol=1e-12)


def test_parsed_cost_requires_numpy_path():
    cost = parse_cost("theta1^4 / 24", 1)
    dither = new_dither([0.02], [1], 10.0)
    with pytest.raises(ValueError, match="kernel"):
        simulate_rmspesc(cost, dither, FIG1, [2.0, 0.81, 0.0], 0.0, 1.0, 0.01, 1, force_path="kernel")
    traj = simulate_rmspesc(cost, dither, FIG1, [2.0, 0.81, 0.0], 0.0, 1.0, 0.01, 10)
    ref = simulate_rmspesc(quartic_cost(), dither, FIG1, [2.0, 0.81, 0.0], 0.0, 1.0, 0.01, 10)
    np.testing.assert_allclose(traj.states, ref.states, rtol=1e-9, atol=1e-12)


def test_kernel_nonfinite_abort():
    # gigantic gain on the baseline loop blows the state up in a few steps
    cost = quadratic_cost(1.0)
    dither = new_dither([0.001], [1], 10.0)
    params = EscParams(k=1e12, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError):
            simulate_gesc(cost, dither, params, [5.0, 0.0], 0.0, 10.0, 0.1, 1, force_path="kernel")
        with pytest.raises(NonFiniteStateError):
            simulate_gesc(cost, dither, params, [5.0, 0.0], 0.0, 10.0, 0.1, 1, force_path="numpy")


def test_recording_layout_matches_generic_integrator():
    cost = quartic_cost()
    dither = new_dither([0.02], [1], 10.0)
    # stride that does not divide the step count: final partial interval recorded
    kernel = simulate_rmspesc(cost, dither, FIG1, [1.0, 0.1, 0.0], 0.0, 1.0, 0.01, 7, force_path="kernel")
    plain = simulate_rmspesc(cost, dither, FIG1, [1.0, 0.1, 0.0], 0.0, 1.0, 0.01, 7, force_path="numpy")
    np.testing.assert_allclose(kernel.times, plain.times, atol=1e-12)
    assert kernel.times[-1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("path", ["kernel", "numpy"])
def test_step_must_divide_span(path):
    cost = quartic_cost()
    dither = new_dither([0.02], [1], 10.0)
    with pytest.raises(ValueError, match="divide"):
        simulate_rmspesc(cost, dither, FIG1, [1.0, 0.1, 0.0], 0.0, 1.0, 0.03, 1, force_path=path)
    with pytest.raises(ValueError, match="divide"):
        simulate_average(cost, dither, FIG1, [1.0, 0.1, 0.0], 0.0, 1.0, 0.03, 1, force_path=path)
