import numpy as np
import pytest

from esc_lab import (
    eval_cost,
    grad_cost,
    parse_cost,
    quadratic_cost,
    quartic_cost,
    shifted_quartic_cost,
)
from esc_lab.cost import finite_difference_gradient


def test_quartic_values():
    q = quartic_cost()
    assert eval_cost(q, [2.0]) == pytest.approx(2.0**4 / 24.0, rel=1e-15)
    assert eval_cost(q, [0.0]) == 0.0


def test_quadratic_values():
    c = quadratic_cost(1.0, j_opt=3.0)
    assert eval_cost(c, [1.0]) == pytest.approx(3.5, rel=1e-15)
    assert eval_cost(c, [0.0]) == pytest.approx(3.0, rel=1e-15)


def test_minimizer_evaluation():
    for c in (quartic_cost(), quadratic_cost([2.0, 0.5], 1.0, [0.3, -0.7]),
              shifted_quartic_cost([1.0, -2.0])):
        assert eval_cost(c, c.theta_star) == pytest.approx(c.f(c.theta_star), rel=1e-15)


def test_gradients():
    q = quartic_cost()
    assert grad_cost(q, [2.0]) == pytest.approx([2.0**3 / 6.0], rel=1e-14)
    c = quadratic_cost(1.0)
    assert grad_cost(c, [1.0]) == pytest.approx([1.0], rel=1e-14)


def test_fd_matches_analytic_gradient():
    q = quartic_cost()
    fd = finite_difference_gradient(q, np.array([0.7]))
    assert fd == pytest.approx(grad_cost(q, [0.7]), abs=1e-6)


def test_fd_gradient_accuracy_at_random_points():
    rng = np.random.default_rng(7)
    for cost in (quadratic_cost([[2.0, 0.3], [0.3, 1.0]], 5.0, [0.2, -0.1]),
                 quartic_cost(), shifted_quartic_cost([0.5, -1.5])):
        for _ in range(100):
            theta = rng.uniform(-3, 3, cost.n)
            g_true = grad_cost(cost, theta)
            g_fd = finite_difference_gradient(cost, theta)
            tol = 1e-6 * (1.0 + np.linalg.norm(g_true))
            assert np.max(np.abs(g_fd - g_true)) <= tol


def test_dimension_mismatch():
    q = quartic_cost()
    with pytest.raises(ValueError):
        eval_cost(q, [1.0, 2.0])
    with pytest.raises(ValueError):
        grad_cost(q, [1.0, 2.0])


def test_positive_definite_required():
    with pytest.raises(ValueError):
        quadratic_cost(-1.0)
    with pytest.raises(ValueError):
        quadratic_cost([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1


def test_vectorized_evaluation():
    c = quadratic_cost([1.0, 4.0], 2.0)
    pts = np.random.default_rng(0).normal(size=(50, 2))
    vals = c.f(pts)
    assert vals.shape == (50,)
    assert vals[3] == pytest.approx(eval_cost(c, pts[3]), rel=1e-14)


# -- expression parsing -------------------------------------------------------

def test_parse_quartic_matches_builtin():
    # both raise |theta| to the 4th power, so they agree bit for bit
    parsed = parse_cost("theta1^4 / 24", 1)
    q = quartic_cost()
    theta = np.random.default_rng(1).uniform(-3, 3, (100, 1))
    assert np.array_equal(parsed.f(theta), q.f(theta))


def test_parse_quadratic_matches_builtin():
    parsed = parse_cost("3 + 0.5*theta1^2", 1)
    c = quadratic_cost(1.0, 3.0)
    rng = np.random.default_rng(2)
    for _ in range(100):
        theta = rng.uniform(-3, 3, 1)
        assert eval_cost(parsed, theta) == pytest.approx(eval_cost(c, theta), abs=1e-12)


def test_builtin_expressions_round_trip():
    rng = np.random.default_rng(3)
    costs = [
        quadratic_cost(1.0, 3.0),
        quadratic_cost([[2.0, 0.4], [0.4, 1.5]], -1.0, [0.25, -0.5]),
        quartic_cost(),
        shifted_quartic_cost([1.5, -0.5]),
    ]
    for cost in costs:
        parsed = parse_cost(cost.expr, cost.n)
        for _ in range(100):
            theta = rng.uniform(-3, 3, cost.n)
            assert eval_cost(parsed, theta) == pytest.approx(
                eval_cost(cost, theta), rel=1e-12, abs=1e-12
            )


def test_syntax_error_reports_position():
    with pytest.raises(ValueError, match="position 11"):
        parse_cost("theta1 + (", 1)


def test_unknown_identifier():
    with pytest.raises(ValueError, match="unknown identifier"):
        parse_cost("theta1 + foo", 1)


def test_out_of_range_variable():
    with pytest.raises(ValueError, match="out of range"):
        parse_cost("theta2", 1)


def test_unexpected_character_position():
    with pytest.raises(ValueError, match="position 8"):
        parse_cost("theta1 % 2", 1)


def test_power_binds_tightest_and_right_associative():
    assert eval_cost(parse_cost("-theta1^2", 1), [3.0]) == pytest.approx(-9.0)
    assert eval_cost(parse_cost("2^3^2", 1), [0.0]) == pytest.approx(512.0)
    assert eval_cost(parse_cost("2*theta1^2", 1), [3.0]) == pytest.approx(18.0)
    assert eval_cost(parse_cost("theta1^-1", 1), [4.0]) == pytest.approx(0.25)


def test_division_and_parentheses():
    assert eval_cost(parse_cost("(1 + theta1) / (1 - theta1)", 1), [0.5]) == pytest.approx(3.0)


def test_parsed_cost_uses_fd_gradient():
    parsed = parse_cost("theta1^4 / 24", 1)
    assert parsed.grad is None
    assert grad_cost(parsed, [2.0]) == pytest.approx([2.0**3 / 6.0], abs=1e-6)


def test_overflowing_literal_is_infinite():
    assert eval_cost(parse_cost("1e999", 1), [0.0]) == np.inf
    assert eval_cost(parse_cost("theta1 * 1e999", 1), [-2.0]) == -np.inf


def test_constant_expression_gives_one_value_per_point():
    for n in (1, 3):
        cost = parse_cost("3", n)
        one, five = cost.f(np.zeros(n)), cost.f(np.ones((5, n)))
        assert one.shape == () and one == 3.0
        assert five.shape == (5,) and np.all(five == 3.0)
        assert eval_cost(cost, np.zeros(n)) == 3.0


def test_odd_power_keeps_sign_of_negative_base():
    cost = parse_cost("theta1^3 + theta2^5", 2)
    assert eval_cost(cost, [-2.0, -1.5]) == -8.0 - 1.5**5
    assert eval_cost(parse_cost("theta1^1", 1), [-3.0]) == -3.0


def test_negative_base_to_non_integer_power_is_nan():
    with np.errstate(invalid="ignore"):
        assert np.isnan(parse_cost("(-2)^0.5", 1).f([0.0]))
        assert np.isnan(eval_cost(parse_cost("theta1^1.5", 1), [-2.0]))


def test_even_power_of_negated_point_is_identical():
    cost = parse_cost("theta1^4 + 2*theta2^4 + theta1^2*theta2^2 + 0.5*(theta1 - theta2)^2", 2)
    x = np.random.default_rng(4).uniform(-3, 3, (200, 2))
    assert np.array_equal(cost.f(-x), cost.f(x))
