import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esc_lab import (
    EscParams,
    NonFiniteStateError,
    PeriodQuadrature,
    Trajectory,
    avg_maps,
    new_dither,
    parse_cost,
    quadratic_cost,
    quartic_cost,
    simulate_average,
    simulate_gesc,
    simulate_rmspesc,
)
from esc_lab.averaging import average_system
from esc_lab.dynamics import gesc_system, rmspesc_system
from esc_lab.expressions import _literal
from esc_lab.integrate import System, derivative, fit_step, integrate, step_grid

FIG1 = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)


def scalar(rate):
    """The system x' = ``rate(x)`` on one entry, with ``rate`` mapping x's name to code."""
    return System(1, lambda y, k: [f"{out[0]} = {rate(row[0])}" for row, out in zip(y, k)])


def constant(rates, clamp=()):
    """The system whose rates are the constants ``rates``, one row per member, as literal
    stage lines (``_literal`` keeps a -0.0)."""
    rows = np.array(rates, dtype=float, ndmin=2)
    return System(rows.shape[-1], lambda y, k: [f"{d} = {_literal(float(r))}"
                                                for out, row in zip(k, rows)
                                                for d, r in zip(out, row)], clamp=clamp)


DECAY = scalar(lambda x: f"-{x}")
BLOWUP = scalar(lambda x: f"{x} * {x}")  # finite-time escape from y0 = 3


def test_exponential_decay():
    traj = integrate(DECAY, [1.0], 0.0, 1.0, 0.1)
    assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_zero_rhs_keeps_state_exact():
    y0 = np.array([1.5, -2.25, 0.125])
    traj = integrate(constant([0.0, 0.0, 0.0]), y0, 0.0, 3.0, 0.25)
    np.testing.assert_array_equal(traj.states[-1], y0)


def test_step_count_and_final_time():
    traj = integrate(DECAY, [1.0], 0.0, 2.0, 0.125)
    nsteps = round(2.0 / 0.125)
    assert len(traj.times) == nsteps + 1
    assert abs(traj.times[-1] - 2.0) <= 0.125 * 1e-9


def test_trajectory_pickles_and_copies():
    # a run's records are array('d') behind a memoryview, which does not pickle
    traj = integrate(DECAY, [[1.0], [2.0]], 0.0, 1.0, 0.1, record_stride=5)
    for copied in (pickle.loads(pickle.dumps(traj)), copy.deepcopy(traj)):
        np.testing.assert_array_equal(copied.times, traj.times)
        np.testing.assert_array_equal(copied.states, traj.states)
        assert copied.states.shape == (3, 2, 1) and copied.clamp_events == traj.clamp_events
        assert list(copied.columns(1)[1]) == list(traj.columns(1)[1])


def test_record_stride():
    traj = integrate(DECAY, [1.0], 0.0, 1.0, 0.1, record_stride=5)
    np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0], atol=1e-12)
    dense = integrate(DECAY, [1.0], 0.0, 1.0, 0.1)
    assert traj.states[1, 0] == pytest.approx(dense.states[5, 0], rel=1e-15)


def test_order_four_convergence():
    # halving h cuts the final error by ~2^4
    errors = []
    for h in (0.2, 0.1, 0.05):
        traj = integrate(DECAY, [1.0], 0.0, 1.0, h)
        errors.append(abs(traj.states[-1, 0] - np.exp(-1.0)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 <= coarse / fine <= 18.0


def test_nonfinite_abort_carries_diagnostics():
    with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as err:
        integrate(BLOWUP, [3.0], 0.0, 10.0, 0.05)
    assert err.value.t > 0.0
    assert "t=" in str(err.value)


def test_nonfinite_abort_names_first_batch_member():
    with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as err:
        integrate(BLOWUP, [[0.0], [3.0], [3.0]], 0.0, 10.0, 0.05)
    assert err.value.member == 1
    assert err.value.state.shape == (3, 1)
    assert "non-finite state of member 1 at t=" in str(err.value)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as err:
        integrate(BLOWUP, [3.0], 0.0, 10.0, 0.05)
    assert err.value.member is None
    assert str(err.value).startswith("non-finite state at t=")


def test_batched_clamp_counts_each_member():
    # member 0 is clamped on every step, member 1 never, member 2 from t = 0.5 on
    pull_down = constant([[-1.0], [1.0], [-1.0]], clamp=(0,))
    traj = integrate(pull_down, [[0.0], [0.0], [0.55]], 0.0, 1.0, 0.1)
    assert traj.states.shape == (11, 3, 1)
    assert traj.clamp_events == 10 + 0 + 5
    assert type(traj.clamp_events) is int
    single = integrate(constant([-1.0], clamp=(0,)), [0.55], 0.0, 1.0, 0.1)
    np.testing.assert_array_equal(traj.states[:, 2], single.states)
    assert single.clamp_events == 5


def test_clamp_nonneg():
    traj = integrate(constant([-1.0], clamp=(0,)), [0.05], 0.0, 1.0, 0.1)
    assert np.all(traj.states[:, 0] >= 0.0)
    assert traj.clamp_events > 0
    assert traj.states[-1, 0] == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        integrate(DECAY, [1.0], 1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        integrate(DECAY, [1.0], 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        integrate(DECAY, [1.0], 0.0, 1.0, 0.1, record_stride=0)
    # h must divide the span: 1 / 0.3 steps would stop short of t1 at 0.9
    with pytest.raises(ValueError, match="divide"):
        integrate(DECAY, [1.0], 0.0, 1.0, 0.3)
    with pytest.raises(ValueError, match="divide"):
        integrate(DECAY, [1.0], 0.0, 1.0, 0.1 * (1.0 + 1e-8))


@pytest.mark.parametrize("t0, t1", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)])
def test_step_grid_rejects_non_finite_span(t0, t1):
    with pytest.raises(ValueError, match="finite"):
        step_grid(t0, t1, 0.1, 1)


def test_oscillation_step_rule():
    cfg = new_dither([0.02], [1], 10.0)
    h, stride = fit_step(0.05, cfg.max_step)
    assert h <= cfg.period / (40 * cfg.r_max) + 1e-15
    assert stride * h == pytest.approx(0.05, rel=1e-12)
    cfg_fast = new_dither([0.02, 0.01], [1, 4], 40.0)
    h2, stride2 = fit_step(0.05, cfg_fast.max_step)
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
    h, stride = fit_step(0.05, dither.max_step)
    traj = simulate_rmspesc(cost, dither, params, [2.0, 0.81, 0.0], 20.0, h, stride)
    assert traj.clamp_events == 0
    assert np.all(traj.states[:, 1] >= 0.0)


def test_simulate_gesc_nonfinite_abort():
    # gigantic gain on the baseline loop blows the state up in a few steps
    params = EscParams(k=1e12, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteStateError):
        simulate_gesc(quadratic_cost(1.0), new_dither([0.001], [1], 10.0), params,
                      [5.0, 0.0], 10.0, 0.1, 1)


def test_simulate_record_layout_partial_stride():
    # stride 7 does not divide the 100 steps: the final partial interval is recorded
    cost, dither = quartic_cost(), new_dither([0.02], [1], 10.0)
    traj = simulate_rmspesc(cost, dither, FIG1, [1.0, 0.1, 0.0], 1.0, 0.01, 7)
    np.testing.assert_allclose(traj.times, [*(0.07 * np.arange(15)), 1.0], atol=1e-12)
    dense = simulate_rmspesc(cost, dither, FIG1, [1.0, 0.1, 0.0], 1.0, 0.01)
    np.testing.assert_array_equal(traj.states, dense.states[[*range(0, 100, 7), 100]])


def test_step_must_divide_span():
    cost, dither = quartic_cost(), new_dither([0.02], [1], 10.0)
    with pytest.raises(ValueError, match="divide"):
        simulate_rmspesc(cost, dither, FIG1, [1.0, 0.1, 0.0], 1.0, 0.03, 1)
    with pytest.raises(ValueError, match="divide"):
        simulate_average(cost, dither, FIG1, [1.0, 0.1, 0.0], 1.0, 0.03, 1)


def test_parsed_quartic_matches_builtin():
    dither = new_dither([0.02], [1], 10.0)
    for driver in (simulate_rmspesc, simulate_average):
        traj = driver(parse_cost("theta1^4 / 24", 1), dither, FIG1, [2.0, 0.81, 0.0], 1.0, 0.01,
                      10)
        ref = driver(quartic_cost(), dither, FIG1, [2.0, 0.81, 0.0], 1.0, 0.01, 10)
        assert np.array_equal(traj.states, ref.states), driver.__name__


# Two channels with distinct rates and a coupled curvature: each driver is the
# numpy RK4 oracle (numpy_integrate, below) over its system's stage, bit for bit.
MULTI_COST = quadratic_cost([[2.0, 0.3], [0.3, 1.0]], 0.5, [0.2, -0.4])
MULTI_DITHER = new_dither([0.05, 0.04], [1, 3], 10.0)
MULTI_PARAMS = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25, 0.5], omega_xi=1.0)


# The ids are the names these six cases have always run under, from when each
# driver was checked against a flat rhs closure, so their results compare across runs.
@pytest.mark.parametrize("driver, make, state0, clamp", [
    pytest.param(simulate_rmspesc, rmspesc_system, [1.0, -1.0, 0.1, 0.2, 0.0], [2, 3],
                 id="simulate_rmspesc-rmspesc_flat_rhs-state00-clamp0"),
    # xi0 = J(theta0): from xi0 = 0 the unnormalized baseline diverges within 0.1 s
    pytest.param(simulate_gesc, gesc_system, [1.0, -1.0, 1.176], None,
                 id="simulate_gesc-gesc_flat_rhs-state01-None"),
    pytest.param(simulate_average, average_system, [1.0, -1.0, 0.1, 0.2, 0.0], [2, 3],
                 id="simulate_average-average_flat_rhs-state02-clamp2"),
    # a (2, d) batch is one run as well
    pytest.param(simulate_rmspesc, rmspesc_system,
                 [[1.0, -1.0, 0.1, 0.2, 0.0], [0.5, 0.3, 0.0, 1.0, 2.0]], [2, 3],
                 id="simulate_rmspesc-rmspesc_flat_rhs-state03-clamp3"),
    pytest.param(simulate_gesc, gesc_system, [[1.0, -1.0, 1.176], [0.5, 0.3, 0.9]], None,
                 id="simulate_gesc-gesc_flat_rhs-state04-None"),
    pytest.param(simulate_average, average_system,
                 [[1.0, -1.0, 0.1, 0.2, 0.0], [0.5, 0.3, 0.0, 1.0, 2.0]], [2, 3],
                 id="simulate_average-average_flat_rhs-state05-clamp5"),
])
def test_driver_is_one_integrator_run(driver, make, state0, clamp):
    traj = driver(MULTI_COST, MULTI_DITHER, MULTI_PARAMS, state0, 1.0, 0.002, 25)
    ref = numpy_integrate(stage_rhs(make(MULTI_PARAMS, MULTI_COST, MULTI_DITHER)), state0, 0.0,
                          1.0, 0.002, 25, clamp)
    np.testing.assert_array_equal(traj.times, ref.times)
    np.testing.assert_array_equal(traj.states, ref.states)
    assert traj.clamp_events == ref.clamp_events


def test_simulate_average_rejects_mismatched_gains():
    # two low-pass gains against a one-channel cost and dither; the state
    # length 2 * 2 + 1 fits the gains, so only the dimension check catches it
    params = EscParams(1.0, 0.05, [0.25, 0.25], 1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        simulate_average(quartic_cost(), new_dither([0.02], [1], 10), params,
                         [2, 2, 0.81, 0.81, 0], 1, 0.01, 10)


def test_integrate_checks_state_against_width():
    # a (width,) state or a (B, width) batch with B >= 1; anything else is named before
    # the loop is emitted
    for state0 in ([1.0, 2.0], [[1.0, 2.0]], [], np.zeros((0, 1)), np.zeros((1, 1, 1))):
        with pytest.raises(ValueError) as err:
            integrate(DECAY, state0, 0.0, 1.0, 0.1)
        assert str(err.value) == ("expected flat initial state of length 1, "
                                  f"got shape {np.shape(state0)}")
    assert integrate(DECAY, [[1.0]], 0.0, 1.0, 0.1).states.shape == (11, 1, 1)


def test_simulate_rejects_state_length():
    cost, dither = quartic_cost(), new_dither([0.02], [1], 10.0)
    for driver, state0 in ((simulate_rmspesc, [1.0, 0.1]), (simulate_gesc, [1.0, 0.1, 0.0]),
                           (simulate_average, [1.0, 0.1, 0.0, 0.0]),
                           (simulate_rmspesc, [[1.0, 0.1], [1.0, 0.1]]),
                           (simulate_rmspesc, np.zeros((2, 2, 3))),
                           (simulate_average, np.zeros((2, 2, 3)))):
        with pytest.raises(ValueError, match="initial state of length"):
            driver(cost, dither, FIG1, state0, 1.0, 0.01)


# The numpy oracle: the RK4 loop and the rhs math as they ran on (..., d) arrays
# before the integrator moved to member rows of floats. The loop that the drivers
# emit, with every stage inlined, must reproduce it bit for bit.
def numpy_integrate(rhs, state0, t0, t1, h, stride=1, clamp=None):
    nsteps, n_rec = step_grid(t0, t1, h, stride)
    y = np.array(state0, dtype=float, ndmin=1)
    times, states = np.empty(n_rec), np.empty((n_rec, *y.shape))
    times[0], states[0], rec, events = t0, y, 1, 0
    for j in range(nsteps):
        t = t0 + j * h
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if clamp is not None:
            low = y[..., clamp] < 0.0
            if low.any():
                y[..., clamp] = np.maximum(y[..., clamp], 0.0)
                events += int(np.count_nonzero(low.any(axis=-1)))
        if not np.isfinite(y).all():
            finite = np.isfinite(y).reshape(-1, y.shape[-1]).all(axis=-1)
            raise NonFiniteStateError(t0 + (j + 1) * h, y,
                                      None if y.ndim == 1 else int(np.argmin(finite)))
        if (j + 1) % stride == 0 or j + 1 == nsteps:
            times[rec], states[rec], rec = t0 + (j + 1) * h, y, rec + 1
    return Trajectory(times, states, events)


def stage_rhs(system):
    """One stage of ``system`` (:func:`derivative`) as ``rhs(t, y)`` on a (d,) or (B, d) array."""
    stage = derivative(system)
    return lambda t, y: np.array(stage(t, y.reshape(-1, y.shape[-1]).tolist())).reshape(y.shape)


def numpy_rhs(system, params, cost, dither, drift=None):
    """The rhs of ``system`` on (..., d) arrays; "drift" returns the constant ``drift``."""
    n = params.n
    k, eps, wl, wxi = params.k, params.epsilon, np.array(params.omega_l), params.omega_xi
    amps, rates = np.array(dither.amplitudes), np.array(dither.rates)
    freqs, demod = dither.omega * rates, 2.0 / amps
    quad = PeriodQuadrature(cost, dither)

    def average_row(y):
        v = np.maximum(y[n : 2 * n], 0.0)
        maps = avg_maps(cost, quad, y[:n], y[2 * n])
        return np.concatenate([-k * maps.g_bar / (np.sqrt(v) + eps), wl * (maps.g2_bar - v),
                               [wxi * (maps.j_bar - y[2 * n])]])

    def rhs(t, y):
        if system == "drift":
            return drift
        if system == "average":
            return np.stack([average_row(r) for r in y.reshape(-1, y.shape[-1])]).reshape(y.shape)
        sin_t = np.sin(freqs * t)
        err = cost.f(y[..., :n] + amps * sin_t) - y[..., -1]
        g = demod * sin_t * err[..., None]
        if system == "gesc":
            return np.concatenate([-k * g, (wxi * err)[..., None]], axis=-1)
        v = np.maximum(y[..., n : 2 * n], 0.0)
        return np.concatenate([-k * g / (np.sqrt(v) + eps), wl * (g * g - v),
                               (wxi * err)[..., None]], axis=-1)

    return rhs


PARSED_2D = parse_cost("theta1^4 + 2*theta2^4 + theta1^2*theta2^2 + 0.5*(theta1 - theta2)^2", 2)
ORACLE_COSTS = {
    "quartic": (quartic_cost(), new_dither([0.02], [1], 10.0)),
    "quadratic2d": (MULTI_COST, MULTI_DITHER),
    "parsed2d": (PARSED_2D, new_dither([0.02, 0.02], [1, 2], 10.0)),
}
DRIVERS = {"rmsp": simulate_rmspesc, "gesc": simulate_gesc, "average": simulate_average}
# v entries: both zeros, and values a step can push below zero
V_VALUES = st.sampled_from([-0.0, 0.0, 1e-4, 0.81]) | st.floats(0.0, 2.0)


@st.composite
def oracle_cases(draw):
    """A system, a cost, a (d,) or (B, d) initial state for B = 1 ... 5, and a short grid.

    One member may start with negative v entries, and one with an overflowing
    theta (the run then aborts); the drift system, whose rates are literal
    constants drawn per member with -0.0 among their entries, is the one
    where a v of -0.0 survives a step and meets the clamp of another member.
    """
    system = draw(st.sampled_from(["rmsp", "gesc", "average", "drift"]))
    cost_name = "quartic" if system == "drift" else draw(st.sampled_from(sorted(ORACLE_COSTS)))
    n = ORACLE_COSTS[cost_name][0].n
    size = draw(st.integers(1, 5))
    rows = []
    for _ in range(size):
        theta = [draw(st.floats(-2.0, 2.0)) for _ in range(n)]
        v = [draw(V_VALUES) for _ in range(n)]
        rows.append(theta + (v if system != "gesc" else []) + [draw(st.floats(-1.0, 3.0))])
    state0 = np.array(rows)
    if system != "gesc" and draw(st.booleans()):
        state0[draw(st.integers(0, size - 1)), n : 2 * n] = -draw(st.floats(1e-9, 0.5))
    if draw(st.integers(0, 4)) == 0:
        state0[draw(st.integers(0, size - 1)), 0] = 1e200
    drift = None
    if system == "drift":
        entries = st.sampled_from([-0.0, 0.0, -1.0, 0.5, 1e308])
        drift = np.array([[draw(entries) for _ in range(state0.shape[1])] for _ in range(size)])
    if size == 1 and draw(st.booleans()):
        state0, drift = state0[0], None if drift is None else drift[0]
    # gains off the powers of two, so that a reordered product or sum rounds differently
    gain = st.floats(0.1, 3.0)
    params = EscParams(k=draw(gain | st.just(1e12)), epsilon=draw(st.floats(0.01, 0.2)),
                       omega_l=[draw(gain) for _ in range(n)], omega_xi=draw(gain))
    return dict(system=system, cost_name=cost_name, state0=state0, drift=drift, params=params,
                nsteps=draw(st.integers(1, 12)), stride=draw(st.integers(1, 5)))


def same_bits(a, b):
    np.testing.assert_array_equal(np.ascontiguousarray(a).view(np.uint64),
                                  np.ascontiguousarray(b).view(np.uint64))


# member 0 keeps v = -0.0 under a -0.0 drift while member 1 is clamped: the
# clamp must rewrite member 0's v to +0.0, as np.maximum does
@example(dict(system="drift", cost_name="quartic",
              state0=np.array([[1.0, -0.0, 0.0], [1.0, 0.001, 0.0]]),
              drift=np.array([[0.5, -0.0, 0.0], [0.5, -1.0, 0.0]]), params=FIG1, nsteps=2,
              stride=1))
@settings(deadline=None, max_examples=200)
@given(oracle_cases())
def test_row_loop_matches_numpy_oracle(case):
    cost, dither = ORACLE_COSTS[case["cost_name"]]
    n = cost.n
    params, state0, drift, system = case["params"], case["state0"], case["drift"], case["system"]
    if system != "drift":
        # the oracle measures J through f, and its average rhs takes avg_maps, the
        # quadrature: so must the loop, which measures J through f where f carries no
        # scalar form, and takes the quadrature for an f without a parse tree
        f = cost.f
        cost = replace(cost, f=lambda x: f(x))
    clamp = None if system == "gesc" else list(range(n, 2 * n))
    t1, h, stride = 0.01 * case["nsteps"], 0.01, case["stride"]

    def run(integrate_case):
        try:
            with np.errstate(all="ignore"):
                return integrate_case(), None
        except NonFiniteStateError as exc:
            return None, exc

    if system == "drift":
        drifting = constant(drift, clamp=tuple(clamp))
        got, got_err = run(lambda: integrate(drifting, state0, 0.0, t1, h, stride))
    else:
        got, got_err = run(lambda: DRIVERS[system](cost, dither, params, state0, t1, h, stride))
    ref, ref_err = run(lambda: numpy_integrate(numpy_rhs(system, params, cost, dither, drift),
                                               state0, 0.0, t1, h, stride, clamp))
    assert (got_err is None) == (ref_err is None)
    if ref_err is not None:
        assert (got_err.t, got_err.member) == (ref_err.t, ref_err.member)
        np.testing.assert_array_equal(got_err.state, ref_err.state)
        return
    same_bits(got.times, ref.times)
    assert got.states.shape == ref.states.shape
    same_bits(got.states, ref.states)
    assert got.clamp_events == ref.clamp_events
