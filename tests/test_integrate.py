import numpy as np
import pytest

from esc_lab import (
    EscParams,
    NonFiniteStateError,
    integrate_fixed,
    new_dither,
    oscillation_step,
    parse_cost,
    quadratic_cost,
    quartic_cost,
    simulate_average,
    simulate_gesc,
    simulate_rmspesc,
)
from esc_lab.averaging import average_flat_rhs
from esc_lab.dynamics import gesc_flat_rhs, rmspesc_flat_rhs
from esc_lab.integrate import fit_step

FIG1 = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)


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


def test_nonfinite_abort_names_first_batch_member():
    blowup = lambda t, y: y * y
    with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as err:
        integrate_fixed(blowup, [[0.0], [3.0], [3.0]], 0.0, 10.0, 0.05)
    assert err.value.member == 1
    assert err.value.state.shape == (3, 1)
    assert "non-finite state of member 1 at t=" in str(err.value)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as err:
        integrate_fixed(blowup, [3.0], 0.0, 10.0, 0.05)
    assert err.value.member is None
    assert str(err.value).startswith("non-finite state at t=")


def test_batched_clamp_counts_each_member():
    # member 0 is clamped on every step, member 1 never, member 2 from t = 0.5 on
    pull_down = lambda t, y: np.array([[-1.0], [1.0], [-1.0]])
    traj = integrate_fixed(pull_down, [[0.0], [0.0], [0.55]], 0.0, 1.0, 0.1, clamp_nonneg=[0])
    assert traj.states.shape == (11, 3, 1)
    assert traj.clamp_events == 10 + 0 + 5
    assert type(traj.clamp_events) is int
    single = integrate_fixed(lambda t, y: np.array([-1.0]), [0.55], 0.0, 1.0, 0.1, clamp_nonneg=[0])
    np.testing.assert_array_equal(traj.states[:, 2], single.states)
    assert single.clamp_events == 5


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
    assert (h2, stride2) == fit_step(0.05, cfg_fast.period / (40 * cfg_fast.r_max))
    # the compare mode's average-system grid, at least 4 steps per sample and
    # h <= h_gain, was written max(4, ceil(sample_dt / h_gain)); h_gain runs
    # from above sample_dt / 4, through it, to below it
    for sample_dt in (0.05, 0.01, 0.1, 1.0 / 3.0):
        for scale in (1.5, 1.0 + 1e-9, 1.0, 1.0 - 1e-9, 0.6, 0.05):
            h_gain = scale * sample_dt / 4
            old = max(4, int(np.ceil(sample_dt / h_gain - 1e-12)))
            assert fit_step(sample_dt, min(sample_dt / 4, h_gain)) == (sample_dt / old, old)


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


def test_simulate_gesc_nonfinite_abort():
    # gigantic gain on the baseline loop blows the state up in a few steps
    params = EscParams(k=1e12, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteStateError):
        simulate_gesc(quadratic_cost(1.0), new_dither([0.001], [1], 10.0), params,
                      [5.0, 0.0], 0.0, 10.0, 0.1, 1)


def test_simulate_record_layout_partial_stride():
    # stride 7 does not divide the 100 steps: the final partial interval is recorded
    cost, dither = quartic_cost(), new_dither([0.02], [1], 10.0)
    traj = simulate_rmspesc(cost, dither, FIG1, [1.0, 0.1, 0.0], 0.0, 1.0, 0.01, 7)
    np.testing.assert_allclose(traj.times, [*(0.07 * np.arange(15)), 1.0], atol=1e-12)
    dense = simulate_rmspesc(cost, dither, FIG1, [1.0, 0.1, 0.0], 0.0, 1.0, 0.01)
    np.testing.assert_array_equal(traj.states, dense.states[[*range(0, 100, 7), 100]])


def test_step_must_divide_span():
    cost, dither = quartic_cost(), new_dither([0.02], [1], 10.0)
    with pytest.raises(ValueError, match="divide"):
        simulate_rmspesc(cost, dither, FIG1, [1.0, 0.1, 0.0], 0.0, 1.0, 0.03, 1)
    with pytest.raises(ValueError, match="divide"):
        simulate_average(cost, dither, FIG1, [1.0, 0.1, 0.0], 0.0, 1.0, 0.03, 1)


def test_parsed_quartic_matches_builtin():
    dither = new_dither([0.02], [1], 10.0)
    traj = simulate_rmspesc(parse_cost("theta1^4 / 24", 1), dither, FIG1,
                            [2.0, 0.81, 0.0], 0.0, 1.0, 0.01, 10)
    ref = simulate_rmspesc(quartic_cost(), dither, FIG1, [2.0, 0.81, 0.0], 0.0, 1.0, 0.01, 10)
    np.testing.assert_allclose(traj.states, ref.states, rtol=1e-9, atol=1e-12)


# Two channels with distinct rates and a coupled curvature: each driver is one
# integrate_fixed run over its flat rhs closure, bit for bit.
MULTI_COST = quadratic_cost([[2.0, 0.3], [0.3, 1.0]], 0.5, [0.2, -0.4])
MULTI_DITHER = new_dither([0.05, 0.04], [1, 3], 10.0)
MULTI_PARAMS = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25, 0.5], omega_xi=1.0)


@pytest.mark.parametrize("driver, rhs, state0, clamp", [
    (simulate_rmspesc, rmspesc_flat_rhs, [1.0, -1.0, 0.1, 0.2, 0.0], [2, 3]),
    # xi0 = J(theta0): from xi0 = 0 the unnormalized baseline diverges within 0.1 s
    (simulate_gesc, gesc_flat_rhs, [1.0, -1.0, 1.176], None),
    (simulate_average, average_flat_rhs, [1.0, -1.0, 0.1, 0.2, 0.0], [2, 3]),
    # a (2, d) batch of the full loops is one run as well
    (simulate_rmspesc, rmspesc_flat_rhs, [[1.0, -1.0, 0.1, 0.2, 0.0], [0.5, 0.3, 0.0, 1.0, 2.0]],
     [2, 3]),
    (simulate_gesc, gesc_flat_rhs, [[1.0, -1.0, 1.176], [0.5, 0.3, 0.9]], None),
])
def test_driver_is_one_integrator_run(driver, rhs, state0, clamp):
    traj = driver(MULTI_COST, MULTI_DITHER, MULTI_PARAMS, state0, 0.0, 1.0, 0.002, 25)
    ref = integrate_fixed(rhs(MULTI_PARAMS, MULTI_COST, MULTI_DITHER), state0, 0.0, 1.0, 0.002, 25,
                          clamp_nonneg=clamp)
    np.testing.assert_array_equal(traj.times, ref.times)
    np.testing.assert_array_equal(traj.states, ref.states)
    assert traj.clamp_events == ref.clamp_events


def test_simulate_average_rejects_mismatched_gains():
    # two low-pass gains against a one-channel cost and dither; the state
    # length 2 * 2 + 1 fits the gains, so only the dimension check catches it
    params = EscParams(1.0, 0.05, [0.25, 0.25], 1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        simulate_average(quartic_cost(), new_dither([0.02], [1], 10), params,
                         [2, 2, 0.81, 0.81, 0], 0, 1, 0.01, 10)


def test_simulate_rejects_state_length():
    cost, dither = quartic_cost(), new_dither([0.02], [1], 10.0)
    for driver, state0 in ((simulate_rmspesc, [1.0, 0.1]), (simulate_gesc, [1.0, 0.1, 0.0]),
                           (simulate_average, [1.0, 0.1, 0.0, 0.0]),
                           (simulate_rmspesc, [[1.0, 0.1], [1.0, 0.1]]),
                           (simulate_rmspesc, np.zeros((2, 2, 3))),
                           # the average system takes a single state only
                           (simulate_average, [[1.0, 0.1, 0.0], [1.0, 0.1, 0.0]])):
        with pytest.raises(ValueError, match="initial state of length"):
            driver(cost, dither, FIG1, state0, 0.0, 1.0, 0.01)
