import re
from dataclasses import replace
from functools import wraps
from math import sqrt
from time import perf_counter

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
    grad_cost,
    new_dither,
    parse_cost,
    quadratic_cost,
    quartic_cost,
    shifted_quartic_cost,
)
from esc_lab.averaging import average_system
from esc_lab.cost import finite_difference_gradient
from esc_lab.expressions import compile_expression
from esc_lab.integrate import derivative
from esc_lab.quadratic import QuadraticModel, fourier_coeffs, quad_avg_maps

FIG1 = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)


def opaque(cost):
    """The same J behind an f that carries no parse tree, a black box to every layer."""
    f = cost.f
    return replace(cost, f=lambda x: f(x))


def average_rhs(state, params, cost, dither):
    row = np.asarray(state, dtype=float).tolist()
    return np.array(derivative(average_system(params, cost, dither))(0.0, [row])[0])


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
    maps = avg_maps(cost, PeriodQuadrature(cost, dither), [1.0], 0.0)
    assert maps.j_bar == pytest.approx(3.51, rel=1e-12)       # b0 at theta=1
    assert maps.g_bar == pytest.approx([1.0], rel=1e-12)      # H*theta
    # at theta=0, xi = equilibrium washout value, the squared average is b2^2/a^2
    eq = equilibrium(cost, dither)
    m0 = avg_maps(cost, PeriodQuadrature(cost, dither), [0.0], eq.xi_star)
    assert m0.g2_bar == pytest.approx([0.0025], abs=1e-12)


def test_quartic_average_gradient_analytic():
    cost, dither = quartic_setup()
    theta, a = 2.0, 0.02
    maps = avg_maps(cost, PeriodQuadrature(cost, dither), [theta], 0.0)
    # mean of (theta + a sin)^4 / 24 and its demodulated slope: the cubic term plus a^2*theta/8
    j_bar = (theta**4 + 3 * a**2 * theta**2 + 3 * a**4 / 8) / 24
    g_bar = theta**3 / 6 + a**2 * theta / 8
    assert maps.g_bar == pytest.approx([g_bar], rel=1e-13)
    assert maps.j_bar == pytest.approx(j_bar, rel=1e-13)


def test_g_bar_independent_of_xi():
    cost, dither = quartic_setup()
    a = avg_maps(cost, PeriodQuadrature(cost, dither), [1.7], -4.0)
    b = avg_maps(cost, PeriodQuadrature(cost, dither), [1.7], 12.0)
    np.testing.assert_allclose(a.g_bar, b.g_bar, atol=1e-12)


def test_g2_nonnegative_and_xi_dependent():
    cost, dither = quad_setup()
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta = rng.uniform(-3, 3, 1)
        xi = rng.uniform(-5, 5)
        maps = avg_maps(cost, PeriodQuadrature(cost, dither), theta, xi)
        assert maps.g2_bar[0] >= 0.0
    a = avg_maps(cost, PeriodQuadrature(cost, dither), [1.0], 0.0)
    b = avg_maps(cost, PeriodQuadrature(cost, dither), [1.0], 1.0)
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
        quad = PeriodQuadrature(cost, dither)
        thetas = np.asarray(thetas, dtype=float)
        y_c = cost.f(thetas[:, None, :] + quad.s) - xi_ref  # (B, n_q)
        np.testing.assert_allclose(quad.r, 2.0 / np.array(dither.amplitudes)**2, rtol=1e-12)
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
    quad = PeriodQuadrature(cost, dither)
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


def two_sweep_rhs(cost, quad, params, rows):
    """The average rhs of ``rows`` written out on :func:`two_sweep_maps`."""
    n, out = cost.n, []
    for r in rows:
        xi = r[2 * n]
        j_bar, g_bar, g2_bar = two_sweep_maps(cost, quad, r[:n], xi)
        v = [0.0 if x <= 0.0 else x for x in r[n : 2 * n]]
        d_theta = [-float(params.k) * g / (sqrt(x) + params.epsilon)
                   for g, x in zip(g_bar.tolist(), v)]
        d_v = [l * (g2 - x) for l, g2, x in zip(params.omega_l, g2_bar.tolist(), v)]
        out.append(d_theta + d_v + [params.omega_xi * (j_bar - xi)])
    return out


@pytest.mark.parametrize("cost, dither, params", RHS_CASES, ids=RHS_IDS)
def test_average_flat_rhs_equals_rhs_of_two_sweep_maps(cost, dither, params):
    # without its parse tree a cost takes the quadrature path, as a non-polynomial one does
    cost = opaque(cost)
    n, quad = cost.n, PeriodQuadrature(cost, dither)
    rows = rhs_rows(n)
    assert any(x < 0.0 for r in rows for x in r[n : 2 * n])
    assert any(r[-1] > 0.0 for r in rows) and any(r[-1] < 0.0 for r in rows)
    expected = two_sweep_rhs(cost, quad, params, rows)
    rhs = derivative(average_system(params, cost, dither))
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
    rows = rhs_rows(cost.n, count=5)
    # the closed form of a polynomial cost evaluates no J at all
    polynomial = replace(cost, f=wraps(cost.f)(lambda x: sweeps.append(x.shape) or cost.f(x)))
    derivative(average_system(params, polynomial, dither))(0.0, rows)
    assert sweeps == []
    # the quadrature path, which a cost without its parse tree takes
    cost = opaque(cost)
    counted = replace(cost, f=lambda x: sweeps.append(x.shape) or cost.f(x))
    counting_np = _CountingNumpy()
    monkeypatch.setattr(averaging, "np", counting_np)
    rhs = derivative(average_system(params, counted, dither))
    out = rhs(0.0, rows)
    monkeypatch.undo()
    n_q = PeriodQuadrature(cost, dither).n_q
    assert sweeps == [(n_q + 1, cost.n)] * len(rows)
    assert counting_np.add.reduces == len(rows)
    assert out == derivative(average_system(params, cost, dither))(0.0, rows)


# (cost, dither, params, theta offset, xi offset from J(theta) or None for rhs_rows' xi)
CLOSED_FORM_CASES = {
    "quartic": (*RHS_CASES[0], 0.0, None),
    "shifted_quartic_100": (shifted_quartic_cost([100.0]), new_dither([0.02], [1], 10.0), FIG1,
                            100.0, None),
    "parsed_quartic_100": (parse_cost("(theta1 - 100)^4/24", 1), new_dither([0.02], [1], 10.0),
                           FIG1, 100.0, None),
    "quadratic3d": (*RHS_CASES[2], 0.0, None),
    "quadratic_xi_far": (quadratic_cost(1.0, 3.0), new_dither([0.2], [1], 10.0), FIG1, 0.0, 10.0),
    "quadratic_xi_far_below": (quadratic_cost(1.0, 3.0), new_dither([0.2], [1], 10.0), FIG1, 0.0,
                               -10.0),
    "expr2d": (*RHS_CASES[1], 0.0, None),
    "folded_constants": (parse_cost("2^2*theta1^2/(1 + 1)", 1), new_dither([0.3], [1], 10.0), FIG1,
                         0.0, None),
}


def closed_form_rows(cost, theta_offset, xi_offset):
    rows = rhs_rows(cost.n)
    for r in rows:
        r[: cost.n] = [x + theta_offset for x in r[: cost.n]]
        if xi_offset is not None:
            r[-1] = float(cost.f(np.array(r[: cost.n]))) + xi_offset
    return rows


@pytest.mark.parametrize("case", CLOSED_FORM_CASES)
def test_closed_form_rhs_matches_reference_quadrature(case):
    cost, dither, params, theta_offset, xi_offset = CLOSED_FORM_CASES[case]
    n, calls = cost.n, []
    counted = replace(cost, f=wraps(cost.f)(lambda x: calls.append(x) or cost.f(x)))
    rhs = derivative(average_system(params, counted, dither))
    # the reference is the same cost without its parse tree: 256 * r_max nodes
    ref = derivative(average_system(params, opaque(cost), dither))

    def close(a, b):  # relative to the norm of the reference vector
        return np.linalg.norm(np.subtract(a, b)) <= 1e-13 * np.linalg.norm(b)

    for r in closed_form_rows(cost, theta_offset, xi_offset):
        (got,), (exact,) = rhs(0.0, [r]), ref(0.0, [r])
        for block in (slice(0, n), slice(n, 2 * n), slice(2 * n, None)):
            assert close(got[block], exact[block]), (r, got, exact)
    assert calls == []


def test_closed_form_rhs_matches_scalar_quadratic_closed_forms():
    model = QuadraticModel(h=1.0, j_opt=3.0, a=0.2)
    cost, dither = quadratic_cost(model.h, model.j_opt), new_dither([model.a], [1], 10.0)
    rhs = derivative(average_system(FIG1, cost, dither))
    for theta, v, xi in rhs_rows(1):
        got = rhs(0.0, [[theta, v, xi]])[0]
        g_bar, g2_bar = quad_avg_maps(model, theta, xi)
        b0, _, _ = fourier_coeffs(model, theta)
        v = max(v, 0.0)
        expected = [-FIG1.k * g_bar / (sqrt(v) + FIG1.epsilon), FIG1.omega_l[0] * (g2_bar - v),
                    FIG1.omega_xi * (b0 - xi)]
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)


def dense_quadratic(n):
    """A dense n-D quadratic with theta* != 0, dithered at rates 1 .. n."""
    rng = np.random.default_rng(n)
    a = rng.uniform(-1.0, 1.0, (n, n))
    cost = quadratic_cost(a @ a.T + n * np.eye(n), 0.5, rng.uniform(-1.0, 1.0, n))
    return cost, new_dither(np.linspace(0.02, 0.04, n), np.arange(1, n + 1), 10.0)


# (cost, dither, node count): a cost that is no polynomial gets 256 * r_max nodes,
# a polynomial whose closed form would exceed MAX_TERMS terms its derived count
QUADRATURE_CASES = {
    "non_polynomial": (parse_cost("theta1^2 + 1/(1 + theta1^2)", 1), new_dither([0.2], [1], 10.0),
                       256),
    "power40": (parse_cost("(theta1 - 0.5)^40", 1), new_dither([0.02], [1], 10.0), 83),
    "dense8": (*dense_quadratic(8), 64),
}


@pytest.mark.parametrize("case", QUADRATURE_CASES)
def test_cost_without_closed_form_takes_the_quadrature(case):
    cost, dither, n_q = QUADRATURE_CASES[case]
    n, quad = cost.n, PeriodQuadrature(cost, dither)
    assert quad.n_q == n_q
    assert averaging._closed_form_maps(cost, dither) is None
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25] * n, omega_xi=1.0)
    calls = []
    counted = replace(cost, f=wraps(cost.f)(lambda x: calls.append(x.shape) or cost.f(x)))
    rows = rhs_rows(n, count=4)
    out = derivative(average_system(params, counted, dither))(0.0, rows)
    assert calls == [(n_q + 1, n)] * len(rows)
    assert out == two_sweep_rhs(cost, quad, params, rows)


def test_quadrature_tables():
    dither = new_dither([0.2, 0.05], [1, 3], 10.0)
    # degree 4 at r_max = 3: (2*4 + 2)*3 + 1 nodes
    quad = PeriodQuadrature(parse_cost("theta1^4 + theta2^2", 2), dither)
    assert quad.n_q == 31
    assert quad.s.shape == (31, 2) and quad.m.shape == (2, 31)
    np.testing.assert_allclose(quad.r, 2.0 / np.array(dither.amplitudes)**2, rtol=1e-12)
    with pytest.raises(ValueError, match="dimensions"):
        avg_maps(quadratic_cost(1.0), quad, [1.0])


@pytest.mark.parametrize("expr, n_q", [
    ("theta1 + theta2", 24),              # (2*1 + 2)*3 + 1 = 13, raised to the 8 * r_max floor
    ("theta1^2 * theta2", 25),            # degree 3
    ("theta1^40", 247),
    ("theta1^200", 768),                  # capped at 256 * r_max
    ("theta1^0.5 + theta2", 768),         # no degree: 256 * r_max, as before
    ("theta1^-2", 768),
    ("1/(1 + theta1^2)", 768),
    (None, 768),                          # an f without a parse tree
])
def test_node_count_from_degree(expr, n_q):
    dither = new_dither([0.2, 0.05], [1, 3], 10.0)
    cost = opaque(parse_cost("theta1", 2)) if expr is None else parse_cost(expr, 2)
    assert PeriodQuadrature(cost, dither).n_q == n_q


def test_every_layer_reads_a_replaced_f():
    # the record's f is 3 theta^2, compiled with its own tree; the theta^2 it replaced is
    # gone from every layer: g_bar = 6 theta and J_bar = 3 (theta^2 + a^2 / 2) exactly
    cost = replace(parse_cost("theta1^2", 1), f=compile_expression("3*theta1^2", 1))
    dither = new_dither([0.2], [1], 10.0)
    stage = average_rhs([1.0, 0.81, 0.0], FIG1, cost, dither)
    assert stage[0] == pytest.approx(-6.0 / (0.9 + 0.05), rel=1e-13)
    assert stage[2] == pytest.approx(3.06, rel=1e-13)
    maps = avg_maps(cost, PeriodQuadrature(cost, dither), [1.0])
    assert maps.g_bar == pytest.approx([6.0], rel=1e-13) and maps.j_bar == pytest.approx(3.06)
    assert grad_cost(cost, [1.0]).tolist() == [6.0]


def test_only_an_f_without_a_tree_is_a_black_box():
    cost, dither = quartic_setup()
    f, theta = cost.f, np.array([0.7])
    # a plain wrapper carries no tree: finite differences, 256 * r_max nodes, the quadrature
    black_box = replace(cost, f=lambda x: f(x))
    assert black_box.tree is None
    fd = finite_difference_gradient(cost, theta)
    assert grad_cost(black_box, theta).tobytes() == fd.tobytes()
    assert PeriodQuadrature(black_box, dither).n_q == 256
    assert averaging._closed_form_maps(black_box, dither) is None
    # a functools.wraps wrapper keeps the tree: the jet fold, the derived count, the closed form
    wrapped = replace(cost, f=wraps(f)(lambda x: f(x)))
    assert grad_cost(wrapped, theta).tobytes() == grad_cost(cost, theta).tobytes()
    assert PeriodQuadrature(wrapped, dither).n_q == 11
    closed = averaging._closed_form_maps(wrapped, dither)
    assert closed is not None and closed == averaging._closed_form_maps(cost, dither)


# the quartic, a 3-D quadratic with theta* != 0 and compare_expr2d's parsed cost,
# with their derived node counts; amplitudes large enough that an aliased harmonic
# would move the averages far beyond rounding
EXACT_CASES = [
    (quartic_cost(), new_dither([0.3], [1], 10.0), 11),
    (quadratic_cost([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 3.0]], 0.5, [0.2, -0.4, 1.0]),
     new_dither([0.3, 0.2, 0.25], [1, 2, 3], 10.0), 24),
    (parse_cost("theta1^4 + 2*theta2^4 + theta1^2*theta2^2 + 0.5*(theta1 - theta2)^2", 2),
     new_dither([0.3, 0.2], [1, 2], 10.0), 21),
]


@pytest.mark.parametrize("cost, dither, n_q", EXACT_CASES, ids=["quartic", "quadratic3d", "expr2d"])
def test_derived_node_count_is_exact(cost, dither, n_q):
    # the reference is the same cost without its parse tree: 256 * r_max nodes
    quad, ref = PeriodQuadrature(cost, dither), PeriodQuadrature(opaque(cost), dither)
    assert quad.n_q == n_q and ref.n_q == 256 * dither.r_max

    def close(a, b):  # relative to the norm of the reference vector
        return np.linalg.norm(np.subtract(a, b)) <= 1e-13 * np.linalg.norm(b)

    rng = np.random.default_rng(17)
    for _ in range(100):
        theta, xi = rng.uniform(-2.0, 2.0, cost.n), rng.uniform(-2.0, 2.0)
        maps, exact = avg_maps(cost, quad, theta, xi), avg_maps(cost, ref, theta, xi)
        assert close(maps.j_bar, exact.j_bar)
        assert close(maps.g_bar, exact.g_bar) and close(maps.g2_bar, exact.g2_bar)
        for i in range(cost.n):
            p, q = quad.g2_coeffs(cost.f(theta + quad.s) - xi, i)
            p_ref, q_ref = ref.g2_coeffs(cost.f(theta + ref.s) - xi, i)
            assert close(p, p_ref) and close(q, q_ref)


def trapezoid_g2(cost, dither, theta, xi, nodes):
    """g2_bar by the trapezoid rule on ``nodes`` uniform nodes, written out."""
    phases = 2.0 * np.pi * np.arange(nodes) / nodes
    amps = np.array(dither.amplitudes)[:, None]
    sin_rt = np.sin(np.array(dither.rates)[:, None] * phases)
    y = cost.f(theta + (amps * sin_rt).T) - xi
    m = (2.0 / amps) * sin_rt
    return np.mean((m * y) ** 2, axis=1)


@pytest.mark.parametrize("expr, rates, channel", [
    ("theta1^4", [1], 0),
    ("theta2^4", [1, 2], 1),              # m_2^2 J^2 has degree 2*2 + 8*2 = 20
])
def test_one_node_fewer_aliases_g2(expr, rates, channel):
    # at theta = 0, xi = 0 the integrand's top harmonic carries a fixed share of g2_bar
    cost, dither = parse_cost(expr, len(rates)), new_dither([0.5] * len(rates), rates, 10.0)
    theta, quad = np.zeros(cost.n), PeriodQuadrature(cost, dither)
    n_q, g2 = quad.n_q, avg_maps(cost, quad, theta, 0.0).g2_bar
    np.testing.assert_allclose(trapezoid_g2(cost, dither, theta, 0.0, n_q), g2, rtol=1e-14)
    fewer = trapezoid_g2(cost, dither, theta, 0.0, n_q - 1)
    assert abs(fewer[channel] / g2[channel] - 1.0) > 1e-3


def test_average_rhs_at_equilibrium_vanishes():
    cost, dither = quad_setup()
    eq = equilibrium(cost, dither)
    d = average_rhs([*eq.theta_star, *eq.v_star, eq.xi_star], FIG1, cost, dither)
    np.testing.assert_allclose(d, np.zeros(3), atol=1e-9)


def test_average_rhs_substitution():
    cost, dither = quad_setup()
    eq = equilibrium(cost, dither)
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
        j_bar = avg_maps(cost, PeriodQuadrature(cost, dither), theta, xi).j_bar
        assert np.sign(d[2]) == np.sign(FIG1.omega_xi * (j_bar - xi))


def test_average_flat_rhs_clamps_negative_v():
    # integration round-off can leave v_bar slightly negative; the rhs reads it as 0
    cost, dither = quad_setup()
    d_neg = average_rhs([1.0, -0.1, 0.0], FIG1, cost, dither)
    d_zero = average_rhs([1.0, 0.0, 0.0], FIG1, cost, dither)
    np.testing.assert_array_equal(d_neg, d_zero)
    assert d_zero[0] == pytest.approx(-1.0 / 0.05, rel=1e-10)


# parsed costs have no known minimizer, so the search starts at the origin, as
# every parsed-cost run does
def test_equilibrium_quadratic_closed_form():
    cost, dither = parse_cost("3 + 0.5*(theta1 - 1)^2", 1), new_dither([0.2], [1], 10.0)
    eq = equilibrium(cost, dither)
    assert eq.iterations > 1
    assert abs(eq.theta_star[0] - 1.0) <= 1e-9
    assert eq.xi_star == pytest.approx(3.01, abs=1e-9)       # j_opt + a^2 H / 4
    assert eq.v_star == pytest.approx([0.0025], abs=1e-9)    # a^2 H^2 / 16


def test_equilibrium_quartic():
    cost, dither = parse_cost("(theta1 - 0.5)^4 / 24", 1), new_dither([0.02], [1], 10.0)
    eq = equilibrium(cost, dither)
    assert eq.iterations > 1
    assert eq.xi_star == pytest.approx(0.02**4 / 64.0, rel=1e-4)
    assert eq.v_star[0] <= 1e-12
    assert eq.grad_norm <= 1e-10


def test_equilibrium_washout_approaches_true_minimum_as_dither_shrinks():
    cost, dither = parse_cost("(theta1 - 0.3)^4 / 24", 1), new_dither([0.02], [1], 10.0)
    gaps = []
    for a0 in (0.08, 0.02, 0.005):
        eq = equilibrium(cost, dither.scaled(a0))
        gaps.append(eq.xi_star)                                 # min J = 0
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 1e-10


def test_equilibrium_default_start_uses_known_minimizer():
    cost = quadratic_cost(2.0, 1.0, [1.5])
    dither = new_dither([0.1], [1], 10.0)
    eq = equilibrium(cost, dither)
    assert eq.theta_star == pytest.approx([1.5], abs=1e-9)
    assert eq.iterations <= 2


def test_equilibrium_failure_reported():
    # an unbounded cost has no zero of g_bar: J_bar falls along every step, until theta +
    # a rounds to theta, where every node rounds onto theta and g_bar is exactly 0, or
    # until the iterations run out (the damped descent before Newton walked theta1^3 out
    # to -8.8e31 in 12 iterations and theta1 to -2.8e14 in 301)
    dither = new_dither([0.02], [1], 10.0)
    for expr, message in (
            ("theta1^3", "g_bar vanished at theta = [-1.968607e+17] after 62 iterations, where "
                         "theta + a rounds to theta: the dither cannot resolve the cost there"),
            ("theta1", "no convergence within 100 iterations")):
        with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}$"):
            equilibrium(parse_cost(expr, 1), dither)


def test_unresolvable_start_is_reported():
    # at theta = 1e20 every node rounds onto theta, so g_bar is exactly 0 on any cost
    with pytest.raises(ConvergenceError, match=re.escape(
            "g_bar vanished at theta = [1.e+20] after 1 iterations, where theta + a rounds to "
            "theta: the dither cannot resolve the cost there")):
        equilibrium(quadratic_cost(1.0, 0.0, [1e20]), new_dither([0.02], [1], 10.0))


@pytest.mark.parametrize("expr, n", [("-theta1^2", 1), ("theta1^2*theta2^2 - theta1^2", 2)])
def test_maximum_or_saddle_is_no_equilibrium(expr, n):
    # g_bar vanishes at the origin, a maximum and a saddle of J_bar, which the search
    # used to return as equilibria after 1 iteration
    dither = new_dither([0.02] * n, list(range(1, n + 1)), 10.0)
    with pytest.raises(ConvergenceError, match=re.escape(
            f"g_bar vanished at theta = [{' '.join(['0.'] * n)}] after 1 iterations, where its "
            "Jacobian has an eigenvalue of real part -2.000e+00: a saddle or maximum of J_bar, "
            "not a minimum")):
        equilibrium(parse_cost(expr, n), dither)


def test_equilibrium_on_a_kink_of_j():
    # the minimum of |theta1| + theta1^2 sits on its kink, and so does the node at phase 0,
    # where the jet fold reads dJ/dtheta as NaN: the Jacobian's verdict stays open there
    dither = new_dither([0.1], [1], 10.0)
    eq = equilibrium(parse_cost("(theta1^2)^0.5 + theta1^2", 1), dither)
    assert eq.theta_star.tolist() == [0.0] and eq.grad_norm == 0.0
    # from the origin on the kink, the NaN Jacobian gives way to a -g_bar step (the damped
    # descent before Newton ran out of its 100,000 iterations here)
    eq = equilibrium(parse_cost("(theta1^2)^0.5 + (theta1 - 0.3)^2", 1), dither)
    assert eq.grad_norm <= 1e-10 and 0.0 < eq.theta_star[0] < 0.3


def test_flat_minimum_far_from_the_start_is_reached():
    # at a minimum of degree 20 a Newton step still cuts ||g_bar|| by about e, so from
    # ||g_bar|| = 3.8e14 at the origin the search stops within its cap, after 57 steps
    eq = equilibrium(parse_cost("(theta1 - 5)^20", 1), new_dither([0.02], [1], 10.0))
    assert eq.grad_norm <= 1e-10 and eq.iterations > 50
    assert 4.7 < eq.theta_star[0] < 5.0


def _rotated_quadratic():
    """0.5 (theta - (1, -1))' H (theta - (1, -1)), H of eigenvalues 1 and 100 rotated by 30
    degrees, with no known minimizer, so the search starts at the origin."""
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    rotation = np.array([[c, -s], [s, c]])
    quadratic = quadratic_cost(rotation @ np.diag([1.0, 100.0]) @ rotation.T, 0.0, [1.0, -1.0])
    return replace(quadratic, theta_star=None)


@pytest.mark.parametrize("cost", [
    _rotated_quadratic(),
    parse_cost("0.005*(theta1 - 1)^2 + 50*(theta2 + 1)^2", 2),
    parse_cost("0.5*(theta1 - 1)^2 + 15*(theta2 + 1)^2", 2),
    parse_cost("(theta1 - 1)^4 + (theta2 + 1)^4 + 0.1*theta1*theta2", 2),
    parse_cost("(theta1 - 1)^2 + 10*(theta2 - theta1^2)^2 + 0.5*(theta3 + 2)^4", 3),
    parse_cost("theta1^2 + 1/(1 + (theta1 - 0.7)^2)", 1),
    opaque(parse_cost("(theta1 - 1)^4 + (theta2 + 1)^4 + 0.1*theta1*theta2", 2)),
], ids=["rotated (1, 100)", "diagonal (1e-2, 1e2)", "diagonal (1, 30)", "coupled quartic",
        "3-D valley", "non-polynomial", "coupled quartic, black box"])
def test_equilibrium_from_the_origin_converges_fast(cost):
    # each of these ran into the damped descent's 100,000-iteration cap after 5-8 s
    n = cost.n
    dither = new_dither([0.1] * n, list(range(1, n + 1)), 10.0)
    t0 = perf_counter()
    eq = equilibrium(cost, dither)
    assert perf_counter() - t0 < 0.05
    assert eq.grad_norm <= 1e-10
    # g_bar's Jacobian by central differences: a minimum's eigenvalues have positive real part
    quad, h = PeriodQuadrature(cost, dither), 1e-5
    columns = [avg_maps(cost, quad, eq.theta_star + h * e).g_bar
               - avg_maps(cost, quad, eq.theta_star - h * e).g_bar for e in np.eye(n)]
    assert np.all(np.linalg.eigvals(np.array(columns).T / (2 * h)).real > 0)


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
