import numpy as np
import pytest

from esc_lab import (
    EscParams,
    PeriodQuadrature,
    QuadraticModel,
    avg_maps,
    equilibrium,
    fourier_coeffs,
    new_dither,
    quad_avg_maps,
    quad_jacobian,
    quadratic_cost,
)
from esc_lab.averaging import average_system
from esc_lab.integrate import derivative

FIG1 = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)


def test_model_validation():
    with pytest.raises(ValueError):
        QuadraticModel(h=0.0, j_opt=0.0, a=0.1)
    with pytest.raises(ValueError):
        QuadraticModel(h=1.0, j_opt=0.0, a=0.0)


def test_fourier_coeffs_substitution():
    model = QuadraticModel(h=1.0, j_opt=3.0, a=0.2)
    b0, b1, b2 = fourier_coeffs(model, 1.0)
    assert b0 == pytest.approx(3.51, rel=1e-14)
    assert b1 == pytest.approx(0.2, rel=1e-14)
    assert b2 == pytest.approx(-0.01, rel=1e-14)
    assert fourier_coeffs(model, 0.0)[1] == 0.0


def test_fourier_coeffs_against_dft_oracle():
    # Sample the measured cost over one period and extract the harmonics.
    model = QuadraticModel(h=2.7, j_opt=-1.2, a=0.13)
    theta = 0.85
    omega = 10.0
    n = 512
    ts = 2.0 * np.pi / omega * np.arange(n) / n
    y = model.j_opt + 0.5 * model.h * (theta + model.a * np.sin(omega * ts)) ** 2
    b0 = np.mean(y)
    b1 = 2.0 * np.mean(y * np.sin(omega * ts))
    b2 = 2.0 * np.mean(y * np.cos(2.0 * omega * ts))
    expected = fourier_coeffs(model, theta)
    assert (b0, b1, b2) == pytest.approx(expected, abs=1e-10)


def test_quad_avg_maps_values():
    model = QuadraticModel(h=1.0, j_opt=3.0, a=0.2)
    g, _ = quad_avg_maps(model, 1.5, 0.0)
    assert g == pytest.approx(1.5, rel=1e-14)
    b0_at_0 = fourier_coeffs(model, 0.0)[0]
    _, g2 = quad_avg_maps(model, 0.0, b0_at_0)
    assert g2 == pytest.approx(0.0025, rel=1e-12)  # b2^2 / a^2


def test_quad_avg_maps_matches_quadrature():
    model = QuadraticModel(h=1.0, j_opt=3.0, a=0.2)
    cost = quadratic_cost(model.h, model.j_opt)
    dither = new_dither([model.a], [1], 10.0)
    maps = avg_maps(cost, PeriodQuadrature(cost, dither), [0.7], 1.1)
    g, g2 = quad_avg_maps(model, 0.7, 1.1)
    assert maps.g_bar[0] == pytest.approx(g, abs=1e-10)
    assert maps.g2_bar[0] == pytest.approx(g2, rel=1e-10)


def test_quad_avg_maps_matches_quadrature_random():
    rng = np.random.default_rng(23)
    for _ in range(50):
        h = rng.uniform(0.1, 10)
        a = rng.uniform(0.01, 0.5)
        theta = rng.uniform(-3, 3)
        xi = rng.uniform(-5, 5)
        model = QuadraticModel(h=h, j_opt=0.0, a=a)
        cost = quadratic_cost(h)
        dither = new_dither([a], [1], 10.0)
        maps = avg_maps(cost, PeriodQuadrature(cost, dither), [theta], xi)
        g, g2 = quad_avg_maps(model, theta, xi)
        assert maps.g_bar[0] == pytest.approx(g, rel=1e-9, abs=1e-12)
        assert maps.g2_bar[0] == pytest.approx(g2, rel=1e-9)


def test_jacobian_example():
    model = QuadraticModel(h=4.0, j_opt=3.0, a=0.02)
    report = quad_jacobian(model, FIG1)
    np.testing.assert_allclose(
        report.eigenvalues, [-4.0 / 0.07, -1.0, -0.25], rtol=1e-12
    )
    assert report.eigenvalues[0] == pytest.approx(-57.142857142857, rel=1e-10)
    assert report.matrix[2, 1] == pytest.approx(-0.5, rel=1e-14)
    assert report.hurwitz
    off = report.matrix.copy()
    off[np.diag_indices(3)] = 0.0
    off[2, 1] = 0.0
    assert np.all(off == 0.0)


def test_jacobian_is_lower_triangular_with_diagonal_eigenvalues():
    model = QuadraticModel(h=0.37, j_opt=1.0, a=0.11)
    report = quad_jacobian(model, FIG1)
    assert np.all(np.triu(report.matrix, 1) == 0.0)
    np.testing.assert_allclose(report.eigenvalues, np.diag(report.matrix), rtol=1e-15)


def test_eigenvalue_limits():
    report = quad_jacobian(QuadraticModel(h=1e4, j_opt=0.0, a=0.02), FIG1)
    assert report.steep_limit == pytest.approx(-200.0, rel=1e-14)
    assert report.matrix[0, 0] == pytest.approx(-200.0, rel=0.05)
    report = quad_jacobian(QuadraticModel(h=1e-3, j_opt=0.0, a=0.02), FIG1)
    assert report.shallow_limit == pytest.approx(-0.02, rel=1e-14)
    assert report.matrix[0, 0] == pytest.approx(-0.02, rel=0.01)


def test_hurwitz_across_curvatures():
    for h in (1e-3, 1.0, 1e3):
        report = quad_jacobian(QuadraticModel(h=h, j_opt=0.0, a=0.2), FIG1)
        assert report.hurwitz
        assert np.all(report.eigenvalues < 0.0)


def test_theta_eigenvalue_monotone_in_curvature_and_bounded():
    k, a = FIG1.k, 0.2
    entries = []
    for h in np.logspace(-3, 4, 30):
        report = quad_jacobian(QuadraticModel(h=h, j_opt=0.0, a=a), FIG1)
        entries.append(report.matrix[0, 0])
        assert report.matrix[0, 0] > -4.0 * k / a  # stays above the steep limit
    assert all(x > y for x, y in zip(entries, entries[1:]))


def test_jacobian_matches_central_difference_of_average_rhs():
    model = QuadraticModel(h=1.0, j_opt=3.0, a=0.2)
    cost = quadratic_cost(model.h, model.j_opt)
    dither = new_dither([model.a], [1], 10.0)
    eq = equilibrium(cost, dither)
    stage = derivative(average_system(FIG1, cost, dither))
    rhs = lambda t, y: np.array(stage(t, [y.tolist()])[0])
    x0 = np.array([*eq.theta_star, *eq.v_star, eq.xi_star])  # flat layout (theta, v, xi)
    num = np.zeros((3, 3))
    for j in range(3):
        step = 1e-6 * (1.0 + abs(x0[j]))
        e = np.zeros(3)
        e[j] = step
        num[:, j] = (rhs(0.0, x0 + e) - rhs(0.0, x0 - e)) / (2.0 * step)
    perm = [0, 2, 1]  # reorder to (theta, xi, v)
    report = quad_jacobian(model, FIG1)
    np.testing.assert_allclose(num[np.ix_(perm, perm)], report.matrix, atol=1e-6)


def test_jacobian_needs_scalar_gains():
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25, 0.25], omega_xi=1.0)
    with pytest.raises(ValueError):
        quad_jacobian(QuadraticModel(h=1.0, j_opt=0.0, a=0.1), params)
