from dataclasses import replace
from math import sqrt

import numpy as np
import pytest

import esc_lab.averaging as averaging

from esc_lab import (
    ConvergenceError,
    EscParams,
    PeriodQuadrature,
    avg_maps,
    convergence_sweep,
    equilibrium,
    new_dither,
    parse_cost,
    quadratic_cost,
    quartic_cost,
)
from esc_lab.averaging import average_flat_rhs

FIG1 = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)


def average_rhs(state, params, cost, dither):
    row = np.asarray(state, dtype=float).tolist()
    return np.array(average_flat_rhs(params, cost, dither)(0.0, [row])[0])


def quad_setup():
    return quadratic_cost(1.0, 3.0), new_dither([0.2], [1], 10.0)


def quartic_setup():
    return quartic_cost(), new_dither([0.02], [1], 10.0)


def closed_form_g2(h, j_opt, a, theta, xi):
    b0 = j_opt + 0.5 * h * theta**2 + 0.25 * a * a * h
    b1 = a * h * theta
    b2 = -0.25 * a * a * h
    return (4 / a**2) * (0.5 * (b0 - 0.5 * b2 - xi) ** 2 + 1.5 * (0.5 * b1) ** 2 + 0.5 * (0.5 * b2) ** 2)


def test_quadratic_closed_forms():
    cost, dither = quad_setup()
    maps = avg_maps(cost, PeriodQuadrature(dither), [1.0], 0.0)
    assert maps.j_bar == pytest.approx(3.51, rel=1e-12)       # b0 at theta=1
    assert maps.g_bar == pytest.approx([1.0], rel=1e-12)      # H*theta
    # at theta=0, xi = equilibrium washout value, the squared average is b2^2/a^2
    eq = equilibrium(cost, dither, theta_init=[1.0])
    m0 = avg_maps(cost, PeriodQuadrature(dither), [0.0], eq.xi_star)
    assert m0.g2_bar == pytest.approx([0.0025], abs=1e-12)


def test_quartic_average_gradient_analytic():
    cost, dither = quartic_setup()
    maps = avg_maps(cost, PeriodQuadrature(dither), [2.0], 0.0)
    expected = 2.0**3 / 6.0 + 0.02**2 * 2.0 / 8.0   # cubic term plus a^2*theta/8 bias
    assert maps.g_bar == pytest.approx([expected], rel=1e-12)
    # quadrature already converged: a much denser rule agrees
    dense = avg_maps(cost, PeriodQuadrature(dither, n_q=4096), [2.0], 0.0)
    assert maps.g_bar == pytest.approx(dense.g_bar, rel=1e-13)
    assert maps.j_bar == pytest.approx(dense.j_bar, rel=1e-13)


def test_g_bar_independent_of_xi():
    cost, dither = quartic_setup()
    a = avg_maps(cost, PeriodQuadrature(dither), [1.7], -4.0)
    b = avg_maps(cost, PeriodQuadrature(dither), [1.7], 12.0)
    np.testing.assert_allclose(a.g_bar, b.g_bar, atol=1e-12)


def test_g2_nonnegative_and_xi_dependent():
    cost, dither = quad_setup()
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta = rng.uniform(-3, 3, 1)
        xi = rng.uniform(-5, 5)
        maps = avg_maps(cost, PeriodQuadrature(dither), theta, xi)
        assert maps.g2_bar[0] >= 0.0
    a = avg_maps(cost, PeriodQuadrature(dither), [1.0], 0.0)
    b = avg_maps(cost, PeriodQuadrature(dither), [1.0], 1.0)
    assert abs(a.g2_bar[0] - b.g2_bar[0]) > 1e-6


def test_g2_quadratic_in_xi_decomposition():
    quad2d = quadratic_cost([[1.0, 0.3], [0.3, 2.0]], 0.5), new_dither([0.1, 0.05], [1, 3], 7.0)
    cases = [
        (quartic_setup(), [[1.2]]),
        (quartic_setup(), [[1.2], [-0.4], [0.0], [2.5]]),
        (quad2d, [[0.4, -0.3], [1.5, 0.2], [-2.0, 1.0]]),
    ]
    xi_ref = 0.7
    for (cost, dither), thetas in cases:
        quad = PeriodQuadrature(dither)
        thetas = np.asarray(thetas, dtype=float)
        y_c = cost.f(thetas[:, None, :] + quad.s) - xi_ref  # (B, n_q)
        np.testing.assert_allclose(quad.r, 2.0 / dither.amplitudes**2, rtol=1e-12)
        for i in range(cost.n):
            p, q = quad.g2_coeffs(y_c, i)
            assert p.shape == q.shape == (len(thetas),)
            for b, theta in enumerate(thetas):
                # a batch row equals a per-point call bit for bit
                p1, q1 = quad.g2_coeffs(cost.f(theta + quad.s) - xi_ref, i)
                assert p1 == p[b] and q1 == q[b]
                for eta in (-0.9, 0.0, 0.4, 2.5):
                    direct = avg_maps(cost, quad, theta, xi_ref + eta).g2_bar[i]
                    model = p1 - 2.0 * q1 * eta + quad.r[i] * eta**2
                    assert model == pytest.approx(direct, rel=1e-10, abs=1e-12)


def two_sweep_maps(cost, quad, theta_bar, xi_bar):
    """The formulation avg_maps replaced: J at the nodes and at theta_bar as two
    sweeps, and np.mean for every average."""
    theta_bar = np.atleast_1d(np.asarray(theta_bar, dtype=float))
    y = cost.f(theta_bar[None, :] + quad.s)
    g_bar = np.mean(quad.m * (y - float(cost.f(theta_bar)))[None, :], axis=1)
    resid = quad.m * (y - float(xi_bar))[None, :]
    return float(np.mean(y)), g_bar, np.mean(resid * resid, axis=1)


@pytest.mark.parametrize("cost, dither", [
    (quartic_cost(), new_dither([0.02], [1], 10.0)),
    (parse_cost("theta1^4 + 2*theta2^4 + theta1^2*theta2^2 + 0.5*(theta1 - theta2)^2", 2),
     new_dither([0.02, 0.02], [1, 2], 10.0)),
    (quadratic_cost([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 3.0]], 0.5, [0.2, -0.4, 1.0]),
     new_dither([0.05, 0.04, 0.03], [1, 2, 3], 10.0)),
], ids=["quartic", "expr2d", "quadratic3d"])
def test_avg_maps_equals_two_sweep_formulation(cost, dither):
    quad = PeriodQuadrature(dither)
    rng = np.random.default_rng(5)
    for _ in range(50):
        theta, xi = rng.uniform(-3.0, 3.0, cost.n), rng.uniform(-2.0, 2.0)
        maps = avg_maps(cost, quad, theta, xi)
        j_bar, g_bar, g2_bar = two_sweep_maps(cost, quad, theta, xi)
        assert maps.j_bar == j_bar
        assert np.array_equal(maps.g_bar, g_bar) and np.array_equal(maps.g2_bar, g2_bar)


# the costs of test_avg_maps_equals_two_sweep_formulation, as (cost, dither, params)
RHS_CASES = [
    (quartic_cost(), new_dither([0.02], [1], 10.0), FIG1),
    (parse_cost("theta1^4 + 2*theta2^4 + theta1^2*theta2^2 + 0.5*(theta1 - theta2)^2", 2),
     new_dither([0.02, 0.02], [1, 2], 10.0),
     EscParams(k=1.3, epsilon=0.05, omega_l=[0.25, 0.4], omega_xi=0.7)),
    (quadratic_cost([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 3.0]], 0.5, [0.2, -0.4, 1.0]),
     new_dither([0.05, 0.04, 0.03], [1, 2, 3], 10.0),
     EscParams(k=0.8, epsilon=0.02, omega_l=[0.25, 0.5, 0.3], omega_xi=2.0)),
]
RHS_IDS = ["quartic", "expr2d", "quadratic3d"]


def rhs_rows(n, count=12):
    """Average-system rows [theta, v, xi]: some v negative (clamped), xi of both signs."""
    rng = np.random.default_rng(11)
    rows = []
    for j in range(count):
        v = rng.uniform(-0.5, 1.0, n)
        if j % 3 == 0:
            v[j % n] = -0.25
        xi = (-1.0) ** j * rng.uniform(0.1, 2.0)
        rows.append([*rng.uniform(-2.0, 2.0, n).tolist(), *v.tolist(), xi])
    return rows


@pytest.mark.parametrize("cost, dither, params", RHS_CASES, ids=RHS_IDS)
def test_average_flat_rhs_equals_rhs_of_two_sweep_maps(cost, dither, params):
    n, quad = cost.n, PeriodQuadrature(dither)
    rows = rhs_rows(n)
    assert any(x < 0.0 for r in rows for x in r[n : 2 * n])
    assert any(r[-1] > 0.0 for r in rows) and any(r[-1] < 0.0 for r in rows)
    expected = []
    for r in rows:
        xi = r[2 * n]
        j_bar, g_bar, g2_bar = two_sweep_maps(cost, quad, r[:n], xi)
        v = [0.0 if x <= 0.0 else x for x in r[n : 2 * n]]
        d_theta = [-float(params.k) * g / (sqrt(x) + params.epsilon)
                   for g, x in zip(g_bar.tolist(), v)]
        d_v = [l * (g2 - x) for l, g2, x in zip(params.omega_l.tolist(), g2_bar.tolist(), v)]
        expected.append(d_theta + d_v + [params.omega_xi * (j_bar - xi)])
    rhs = average_flat_rhs(params, cost, dither)
    assert rhs(0.0, rows) == expected
    assert [rhs(0.0, [r])[0] for r in rows] == expected


class _CountingAdd:
    """``np.add`` with a count of its ``reduce`` calls."""

    def __init__(self):
        self.reduces = 0

    def __call__(self, *args, **kwargs):
        return np.add(*args, **kwargs)

    def reduce(self, *args, **kwargs):
        self.reduces += 1
        return np.add.reduce(*args, **kwargs)


class _CountingNumpy:
    def __init__(self):
        self.add = _CountingAdd()

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("cost, dither, params", RHS_CASES, ids=RHS_IDS)
def test_average_flat_rhs_one_sweep_and_one_reduction_per_row(cost, dither, params,
                                                              monkeypatch):
    sweeps = []
    counted = replace(cost, f=lambda x: sweeps.append(x.shape) or cost.f(x))
    counting_np = _CountingNumpy()
    monkeypatch.setattr(averaging, "np", counting_np)
    rhs = average_flat_rhs(params, counted, dither)
    rows = rhs_rows(cost.n, count=5)
    out = rhs(0.0, rows)
    monkeypatch.undo()
    n_q = PeriodQuadrature(dither).n_q
    assert sweeps == [(n_q + 1, cost.n)] * len(rows)
    assert counting_np.add.reduces == len(rows)
    assert out == average_flat_rhs(params, cost, dither)(0.0, rows)


def test_invalid_node_count():
    _, dither = quad_setup()
    with pytest.raises(ValueError, match="nodes"):
        PeriodQuadrature(dither, n_q=4)


def test_quadrature_tables():
    dither = new_dither([0.2, 0.05], [1, 3], 10.0)
    assert PeriodQuadrature(dither).n_q == 256 * 3
    quad = PeriodQuadrature(dither, n_q=24)
    assert quad.s.shape == (24, 2) and quad.m.shape == (2, 24)
    np.testing.assert_allclose(quad.r, 2.0 / dither.amplitudes**2, rtol=1e-12)
    with pytest.raises(ValueError, match="dimensions"):
        avg_maps(quadratic_cost(1.0), quad, [1.0])


def test_average_rhs_at_equilibrium_vanishes():
    cost, dither = quad_setup()
    eq = equilibrium(cost, dither, theta_init=[1.0])
    d = average_rhs(eq.flat(), FIG1, cost, dither)
    np.testing.assert_allclose(d, np.zeros(3), atol=1e-9)


def test_average_rhs_substitution():
    cost, dither = quad_setup()
    eq = equilibrium(cost, dither, theta_init=[1.0])
    state = np.array([1.0, 0.0, eq.xi_star])
    d = average_rhs(state, FIG1, cost, dither)
    assert d[0] == pytest.approx(-1.0 / 0.05, rel=1e-10)  # -k*g/(sqrt(0)+eps)


def test_average_rhs_washout_sign():
    cost, dither = quartic_setup()
    rng = np.random.default_rng(13)
    for _ in range(10):
        theta = rng.uniform(-2, 2, 1)
        xi = rng.uniform(-2, 2)
        state = np.array([theta[0], 0.1, xi])
        d = average_rhs(state, FIG1, cost, dither)
        j_bar = avg_maps(cost, PeriodQuadrature(dither), theta, xi).j_bar
        assert np.sign(d[2]) == np.sign(FIG1.omega_xi * (j_bar - xi))


def test_average_flat_rhs_clamps_negative_v():
    # integration round-off can leave v_bar slightly negative; the rhs reads it as 0
    cost, dither = quad_setup()
    d_neg = average_rhs([1.0, -0.1, 0.0], FIG1, cost, dither)
    d_zero = average_rhs([1.0, 0.0, 0.0], FIG1, cost, dither)
    np.testing.assert_array_equal(d_neg, d_zero)
    assert d_zero[0] == pytest.approx(-1.0 / 0.05, rel=1e-10)


def test_equilibrium_quadratic_closed_form():
    cost, dither = quad_setup()
    eq = equilibrium(cost, dither, theta_init=[1.0])
    assert abs(eq.theta_star[0]) <= 1e-9
    assert eq.xi_star == pytest.approx(3.01, abs=1e-9)       # j_opt + a^2 H / 4
    assert eq.v_star == pytest.approx([0.0025], abs=1e-9)    # a^2 H^2 / 16


def test_equilibrium_quartic():
    cost, dither = quartic_setup()
    eq = equilibrium(cost, dither, theta_init=[0.5])
    assert eq.xi_star == pytest.approx(0.02**4 / 64.0, rel=1e-4)
    assert eq.v_star[0] <= 1e-12
    assert eq.grad_norm <= 1e-10


def test_equilibrium_washout_approaches_true_minimum_as_dither_shrinks():
    cost, dither = quartic_setup()
    j_min = float(cost.f(cost.theta_star))
    gaps = []
    for a0 in (0.08, 0.02, 0.005):
        eq = equilibrium(cost, dither.scaled(a0), theta_init=[0.3])
        gaps.append(abs(eq.xi_star - j_min))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 1e-10


def test_equilibrium_default_start_uses_known_minimizer():
    cost = quadratic_cost(2.0, 1.0, [1.5])
    dither = new_dither([0.1], [1], 10.0)
    eq = equilibrium(cost, dither)  # no theta_init
    assert eq.theta_star == pytest.approx([1.5], abs=1e-9)
    assert eq.iterations <= 2


def test_equilibrium_failure_reported():
    # a cost whose averaged slope never meets the tolerance inside the budget
    cost, dither = quartic_setup()
    with pytest.raises(ConvergenceError):
        equilibrium(cost, dither, theta_init=[2.0], tol=1e-16, max_iter=5)


def test_sweep_quadratic_estimate_is_exact():
    cost, dither = quad_setup()
    rows = convergence_sweep(cost, dither, [1.3], [0.4, 0.2, 0.1])
    for row in rows:
        assert row.grad_error <= 1e-12


def test_sweep_quartic_second_order_rate():
    cost, dither = quartic_setup()
    rows = convergence_sweep(cost, dither, [2.0], [0.08, 0.04, 0.02, 0.01])
    for coarse, fine in zip(rows, rows[1:]):
        ratio = coarse.grad_error / fine.grad_error
        assert 3.8 <= ratio <= 4.2
    v = [row.v_star_max for row in rows]
    assert all(a > b for a, b in zip(v, v[1:]))
    assert v[-1] < 1e-10


def test_sweep_requires_decreasing_amplitudes():
    cost, dither = quartic_setup()
    with pytest.raises(ValueError, match="decreasing"):
        convergence_sweep(cost, dither, [1.0], [0.01, 0.02])
    with pytest.raises(ValueError, match="positive"):
        convergence_sweep(cost, dither, [1.0], [0.02, -0.01])
