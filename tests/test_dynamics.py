from dataclasses import replace

import numpy as np
import pytest

from esc_lab import (
    EscParams,
    PeriodQuadrature,
    avg_maps,
    dither_value,
    new_dither,
    parse_cost,
    quadratic_cost,
    quartic_cost,
    shifted_quartic_cost,
)
from esc_lab.dynamics import gesc_system, rmspesc_system
from esc_lab.integrate import derivative

FIG1 = dict(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)
UNIT_GAIN = EscParams(**FIG1)  # k = 1: the baseline's d theta/dt is -g


def grad_estimate(t, theta, xi, cost, dither):
    """Demodulated estimate g = m(t) * (J(theta + s(t)) - xi), read off the baseline rhs."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    params = EscParams(**{**FIG1, "omega_l": np.full(theta.size, 0.25)})
    row = np.append(theta, xi).tolist()
    return -np.array(derivative(gesc_system(params, cost, dither))(t, [row])[0])[: theta.size]


def rmsp(t, theta, v, xi, cost, dither, params=UNIT_GAIN):
    row = np.array([*theta, *v, xi], dtype=float).tolist()
    return np.array(derivative(rmspesc_system(params, cost, dither))(t, [row])[0])


def test_params_validation():
    with pytest.raises(ValueError):
        EscParams(k=0.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)
    with pytest.raises(ValueError):
        EscParams(k=1.0, epsilon=0.0, omega_l=[0.25], omega_xi=1.0)
    with pytest.raises(ValueError):
        EscParams(k=1.0, epsilon=0.05, omega_l=[0.0], omega_xi=1.0)
    with pytest.raises(ValueError):
        EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=-1.0)
    for bad in (np.inf, np.nan):
        for gains in ({"k": bad}, {"epsilon": bad}, {"omega_l": [0.25, bad]}, {"omega_xi": bad}):
            with pytest.raises(ValueError, match="finite"):
                EscParams(**{**FIG1, "omega_l": [0.25, 0.25], **gains})


def test_grad_estimate_zero_residual():
    cost = quadratic_cost(1.0)
    dither = new_dither([0.2], [1], 10.0)
    t = 0.123
    theta = np.array([0.7])
    s = np.array(dither.amplitudes) * np.sin(dither.omega * t)
    xi = float(cost.f(theta + s))
    np.testing.assert_allclose(grad_estimate(t, theta, xi, cost, dither), [0.0], atol=1e-15)


def test_grad_estimate_direct_substitution():
    # quadratic H=1, J*=0, theta=1, a=0.2, r=1, omega*t=pi/2, xi=0:
    # m = 10, J(1.2) = 0.72, estimate = 7.2
    cost = quadratic_cost(1.0)
    dither = new_dither([0.2], [1], 10.0)
    t = np.pi / 20.0
    g = grad_estimate(t, [1.0], 0.0, cost, dither)
    assert g == pytest.approx([7.2], rel=1e-12)


def test_grad_estimate_time_average_matches_average_map():
    cost = quartic_cost()
    dither = new_dither([0.02], [1], 10.0)
    theta = np.array([1.3])
    xi = 0.4
    ts = np.linspace(0.0, dither.period, 8193)
    vals = np.array([grad_estimate(t, theta, xi, cost, dither)[0] for t in ts])
    time_avg = np.trapezoid(vals, ts) / dither.period
    maps = avg_maps(cost, PeriodQuadrature(cost, dither), theta, xi)
    assert time_avg == pytest.approx(maps.g_bar[0], abs=1e-9)


def test_rmspesc_rhs_substitution():
    # With g = 7.2 (from the case above), v = 0.81, Fig.-1 gains.
    cost = quadratic_cost(1.0)
    dither = new_dither([0.2], [1], 10.0)
    d = rmsp(np.pi / 20.0, [1.0], [0.81], 0.0, cost, dither)
    assert d[0] == pytest.approx(-7.2 / 0.95, rel=1e-12)
    assert d[1] == pytest.approx(0.25 * (7.2**2 - 0.81), rel=1e-12)
    assert d[2] == pytest.approx(0.72, rel=1e-12)


def test_rmspesc_flat_rhs_clamps_negative_v():
    # integration round-off can leave v slightly negative; the rhs reads it as 0
    cost = quadratic_cost(1.0)
    dither = new_dither([0.2], [1], 10.0)
    t = np.pi / 20.0
    d_neg = rmsp(t, [1.0], [-1e-3], 0.0, cost, dither)
    d_zero = rmsp(t, [1.0], [0.0], 0.0, cost, dither)
    np.testing.assert_array_equal(d_neg, d_zero)
    assert d_zero[0] == pytest.approx(-7.2 / 0.05, rel=1e-12)


def test_nonnegative_orthant_forward_invariant_boundary():
    cost = quadratic_cost(1.0)
    dither = new_dither([0.2], [1], 10.0)
    # v = 0 and g = 0 (zero residual at t=0 since sin(0)=0 and xi=J(theta)):
    theta = np.array([0.5])
    xi = float(cost.f(theta))
    d0 = rmsp(0.0, theta, [0.0], xi, cost, dither)
    assert d0[1] == pytest.approx(0.0, abs=1e-15)
    # v = 0 and g != 0 pushes v upward:
    d1 = rmsp(np.pi / 20.0, [1.0], [0.0], 0.0, cost, dither)
    assert d1[1] > 0.0


def test_rhs_periodic_in_time_for_frozen_state():
    cost = quartic_cost()
    dither = new_dither([0.02], [1], 10.0)
    for t in np.linspace(0.0, dither.period, 17):
        a = rmsp(t, [1.5], [0.3], 0.2, cost, dither)
        b = rmsp(t + dither.period, [1.5], [0.3], 0.2, cost, dither)
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_estimate_linear_in_xi_with_demod_slope():
    cost = quartic_cost()
    dither = new_dither([0.02], [1], 10.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = rng.uniform(0, 10)
        theta = rng.uniform(-2, 2, 1)
        xi1, xi2 = rng.uniform(-3, 3, 2)
        g1 = grad_estimate(t, theta, xi1, cost, dither)
        g2 = grad_estimate(t, theta, xi2, cost, dither)
        phase = np.sin(dither.omega * np.array(dither.rates) * t)
        m = (2.0 / np.array(dither.amplitudes)) * phase
        np.testing.assert_allclose(g1 - g2, m * (xi2 - xi1), rtol=1e-10, atol=1e-12)


def test_gesc_rhs():
    cost = quadratic_cost(1.0)
    dither = new_dither([0.2], [1], 10.0)
    rhs = derivative(gesc_system(UNIT_GAIN, cost, dither))
    t = np.pi / 20.0
    dtheta, dxi = rhs(t, [[1.0, 0.0]])[0]
    assert dtheta == pytest.approx(-7.2, rel=1e-12)
    # stationary when the estimate vanishes
    theta = 0.5
    xi = float(cost.f(np.array([theta])))
    assert rhs(0.0, [[theta, xi]])[0][0] == pytest.approx(0.0, abs=1e-15)
    # shared washout filter
    d_rmsp = rmsp(t, [1.0], [0.81], 0.37, cost, dither)
    assert rhs(t, [[1.0, 0.37]])[0][1] == pytest.approx(d_rmsp[2], rel=1e-14)


def test_dimension_mismatch_rejected():
    cost = quadratic_cost(1.0)
    dither = new_dither([0.2, 0.1], [1, 2], 10.0)
    with pytest.raises(ValueError, match="dimension"):
        derivative(gesc_system(UNIT_GAIN, cost, dither))
    with pytest.raises(ValueError, match="dimension"):
        derivative(rmspesc_system(UNIT_GAIN, cost, dither))


# the numpy functions a full-loop stage reached or reaches, counted per call
_NUMPY_CALLS = ("array", "asarray", "power", "abs", "absolute", "sin")


@pytest.mark.parametrize("build", [quartic_cost, lambda: shifted_quartic_cost([0.5, -1.0, 2.0])])
def test_full_loop_stage_numpy_calls(build, monkeypatch):
    # at the few rows of few floats the loop steps, a numpy call costs more than its
    # arithmetic: a quartic stage measures J through f's scalar form, and calls no numpy
    seen = []
    for name in _NUMPY_CALLS:
        def counted(*args, _real=getattr(np, name), _name=name, **kwargs):
            seen.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    cost = build()
    n = cost.n
    dither = new_dither([0.02] * n, list(range(1, n + 1)), 10.0)
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25] * n, omega_xi=1.0)
    rows = [[1.5] * n + [0.81] * n + [0.0], [-0.5] * n + [0.0] * n + [0.3]]
    for make, width in ((rmspesc_system, 2 * n + 1), (gesc_system, n + 1)):
        rhs = derivative(make(params, cost, dither))
        member_rows = [r[:n] + r[2 * n:] for r in rows] if width == n + 1 else rows
        for t in (0.1, 0.1, 0.35):   # a new time, the same one again, a new one
            seen.clear()
            rhs(t, member_rows)
            assert seen == [], (make.__name__, t)


@pytest.mark.parametrize("build", [lambda: parse_cost("theta1^2 + theta1*theta2", 2),
                                   lambda: shifted_quartic_cost([0.5, -1.0])])
def test_replaced_f_is_what_the_loop_measures(build):
    # the loop knows J only through its measurements: a cost whose f is replaced
    # must feed the rhs the new J, whatever row form the old f had
    cost = build()

    def g(x):
        return cost.f(x) + 1.0

    replaced = replace(cost, f=g)
    dither = new_dither([0.02, 0.03], [1, 2], 10.0)
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25, 0.25], omega_xi=0.7)
    t, theta, xi = 0.1, [1.0, -0.4], 0.3
    want = 0.7 * (float(g(np.array(theta) + dither_value(dither, t))) - xi)
    rmsp_rhs = derivative(rmspesc_system(params, replaced, dither))
    got_rmsp = rmsp_rhs(t, [[*theta, 0.8, 0.8, xi]])[0][-1]
    got_gesc = derivative(gesc_system(params, replaced, dither))(t, [[*theta, xi]])[0][-1]
    assert got_rmsp == pytest.approx(want, rel=1e-12)
    assert got_gesc == pytest.approx(want, rel=1e-12)
