import numpy as np
import pytest

from esc_lab import (
    EscParams,
    NonFiniteStateError,
    integrate_fixed,
    new_dither,
    oscillation_step,
    quadratic_cost,
)
from esc_lab.dynamics import rmspesc_flat_rhs


def decay(t, y):
    return -y


def test_exponential_decay():
    traj = integrate_fixed(decay, [1.0], 0.0, 1.0, 0.1)
    assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_zero_rhs_keeps_state_exact():
    y0 = np.array([1.5, -2.25, 0.125])
    traj = integrate_fixed(lambda t, y: np.zeros_like(y), y0, 0.0, 3.0, 0.25)
    np.testing.assert_array_equal(traj.states[-1], y0)


def test_step_count_and_final_time():
    traj = integrate_fixed(decay, [1.0], 0.0, 2.0, 0.125)
    nsteps = round(2.0 / 0.125)
    assert len(traj.times) == nsteps + 1
    assert abs(traj.times[-1] - 2.0) <= 0.125 * 1e-9
    assert traj.h == 0.125


def test_record_stride():
    traj = integrate_fixed(decay, [1.0], 0.0, 1.0, 0.1, record_stride=5)
    np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0], atol=1e-12)
    dense = integrate_fixed(decay, [1.0], 0.0, 1.0, 0.1)
    assert traj.states[1, 0] == pytest.approx(dense.states[5, 0], rel=1e-15)


def test_order_four_convergence():
    # halving h cuts the final error by ~2^4
    errors = []
    for h in (0.2, 0.1, 0.05):
        traj = integrate_fixed(decay, [1.0], 0.0, 1.0, h)
        errors.append(abs(traj.states[-1, 0] - np.exp(-1.0)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 <= coarse / fine <= 18.0


def test_nonfinite_abort_carries_diagnostics():
    blowup = lambda t, y: y * y  # finite-time escape from y0 = 3
    with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as err:
        integrate_fixed(blowup, [3.0], 0.0, 10.0, 0.05)
    assert err.value.t > 0.0
    assert "t=" in str(err.value)


def test_clamp_nonneg():
    pull_down = lambda t, y: np.array([-1.0])
    traj = integrate_fixed(pull_down, [0.05], 0.0, 1.0, 0.1, clamp_nonneg=[0])
    assert np.all(traj.states[:, 0] >= 0.0)
    assert traj.clamp_events > 0
    assert traj.states[-1, 0] == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        integrate_fixed(decay, [1.0], 1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        integrate_fixed(decay, [1.0], 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        integrate_fixed(decay, [1.0], 0.0, 1.0, 0.1, record_stride=0)
    # h must divide the span: 1 / 0.3 steps would stop short of t1 at 0.9
    with pytest.raises(ValueError, match="divide"):
        integrate_fixed(decay, [1.0], 0.0, 1.0, 0.3)
    with pytest.raises(ValueError, match="divide"):
        integrate_fixed(decay, [1.0], 0.0, 1.0, 0.1 * (1.0 + 1e-8))


def test_oscillation_step_rule():
    cfg = new_dither([0.02], [1], 10.0)
    h, stride = oscillation_step(cfg.period, cfg.r_max, 0.05)
    assert h <= cfg.period / (40 * cfg.r_max) + 1e-15
    assert stride * h == pytest.approx(0.05, rel=1e-12)
    cfg_fast = new_dither([0.02, 0.01], [1, 4], 40.0)
    h2, stride2 = oscillation_step(cfg_fast.period, cfg_fast.r_max, 0.05)
    assert h2 <= cfg_fast.period / (40 * cfg_fast.r_max) + 1e-15
    assert stride2 * h2 == pytest.approx(0.05, rel=1e-12)


def test_clamp_never_fires_on_quadratic_loop_with_step_rule():
    cost = quadratic_cost(1.0, 3.0)
    dither = new_dither([0.2], [1], 10.0)
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)
    h, stride = oscillation_step(dither.period, dither.r_max, 0.05)
    traj = integrate_fixed(
        rmspesc_flat_rhs(params, cost, dither),
        [2.0, 0.81, 0.0], 0.0, 20.0, h, stride,
        clamp_nonneg=[1],
    )
    assert traj.clamp_events == 0
    assert np.all(traj.states[:, 1] >= 0.0)
