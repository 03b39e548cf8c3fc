import functools
from dataclasses import replace

import numpy as np
import pytest

from esc_lab import (
    CostFunction,
    eval_cost,
    grad_cost,
    parse_cost,
    quadratic_cost,
    quartic_cost,
    shifted_quartic_cost,
)
from esc_lab.cost import _offsets, finite_difference_gradient, row_form
from esc_lab.expressions import MAX_NESTING, ExpressionError, polynomial_degree


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
    # a builtin's f is its expression compiled, so parsing the text back gives the same bits
    rng = np.random.default_rng(3)
    costs = [
        quadratic_cost(1.0, 3.0),
        quadratic_cost([[2.0, 0.4], [0.4, 1.5]], -1.0, [0.25, -0.5]),
        quadratic_cost([[2.0, -0.3, 0.0], [-0.3, 1.0, 0.2], [0.0, 0.2, 3.0]], 0.5,
                       [1.0, 0.0, -2.0]),
        quartic_cost(),
        shifted_quartic_cost([1.5, -0.5]),
        shifted_quartic_cost(np.linspace(-1.0, 1.0, 9)),
    ]
    for cost in costs:
        theta = rng.uniform(-3, 3, (100, cost.n))
        assert parse_cost(cost.expr, cost.n).f(theta).tobytes() == cost.f(theta).tobytes()


def test_quadratic_leaves_out_zero_entries_with_the_same_bits():
    # the sum starts with (d_1*H_11)*d_1 >= +0 and is never -0, so a +-0 term changes nothing
    hmat = np.array([[2.0, 0.0, -0.3], [0.0, 1.0, 0.0], [-0.3, 0.0, 3.0]])
    star = np.array([0.5, 0.0, -1.0])
    c = quadratic_cost(hmat, 0.25, star)
    assert c.expr.count("*theta") + c.expr.count("*(theta") == 5 and "*0.0)" not in c.expr
    d, rows = _offsets(star), hmat.tolist()
    every = " + ".join(f"({d[i]}*{rows[i][j]!r})*{d[j]}" for i in range(3) for j in range(3))
    theta = np.random.default_rng(6).uniform(-3, 3, (300, 3))
    theta[:100, 0], theta[50:150, 1], theta[100:200:2, 1] = 0.5, 0.0, -0.0   # d_i = +-0
    theta[120:180, 2] = -1.0
    assert parse_cost(f"0.25 + 0.5*({every})", 3).f(theta).tobytes() == c.f(theta).tobytes()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("build, name", [
    (lambda v: quadratic_cost(1.0, v), "j_opt"),
    (lambda v: quadratic_cost([1.0, v]), "h"),
    (lambda v: quadratic_cost([[1.0, v], [v, 1.0]]), "h"),
    (lambda v: quadratic_cost(1.0, 0.0, [v]), "theta_star"),
    (lambda v: shifted_quartic_cost([0.5, v]), "theta_star"),
])
def test_builders_reject_non_finite_parameters(build, name, value):
    # repr(inf) is "inf", which the expression grammar would read as an unknown identifier
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build(value)


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


def test_long_flat_sum_compiles():
    # a left-nested chain of 1,499 additions: parsed, lowered and read by loops, not recursion
    parsed = parse_cost(" + ".join(["theta1"] * 1500), 1)
    assert eval_cost(parsed, [2.0]) == 3000.0
    assert polynomial_degree(parsed.expr, 1) == 1
    assert np.array_equal(parsed.f(np.array([[1.0], [-0.5]])), [1500.0, -750.0])
    assert parse_cost(" - ".join(["1"] * 1500), 1).f(np.zeros((2, 1))).tolist() == [-1498.0] * 2


def test_builtin_degrees():
    # every builtin's f is its expression compiled, so the rule reads the builtins too
    assert polynomial_degree(quartic_cost().expr, 1) == 4
    assert polynomial_degree(shifted_quartic_cost([1.5, -0.5]).expr, 2) == 4
    for cost in (quadratic_cost(1.0, 3.0),
                 quadratic_cost([[2.0, 0.4], [0.4, 1.5]], -1.0, [0.25, -0.5])):
        assert polynomial_degree(cost.expr, cost.n) == 2


@pytest.mark.parametrize("expr, degree", [
    ("theta1^4 + 2*theta2^4 + theta1^2*theta2^2 + 0.5*(theta1 - theta2)^2", 4),
    ("3", 0),
    ("2^0.5 / 3^-1", 0),                           # names no variable: a constant
    ("theta2^0", 0),
    ("-theta1 * theta2 * theta1", 3),
    ("(theta1 - 1)^3 / 6 - theta2", 3),
    ("theta1 / (2 - 2^0.5)", 1),                    # a divisor that names no variable
    ("((theta1 + 1)^2)^3", 6),
    ("theta1^2 - theta1^2", 2),                     # the rule reads syntax, not values
])
def test_polynomial_degree(expr, degree):
    assert polynomial_degree(expr, 2) == degree


NON_POLYNOMIALS = [
    "theta1^0.5", "theta1^-2", "1/(1 + theta1^2)", "theta1 / theta2", "2^theta1",
    "theta1^theta2", "theta1^(1 + 1)", "theta1^0.5 * 0", "theta2 + (theta1^0.5)^2",
]


@pytest.mark.parametrize("expr", NON_POLYNOMIALS)
def test_non_polynomials_have_no_degree(expr):
    assert polynomial_degree(expr, 2) is None


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", ""), ("1^", "")])
def test_nesting_beyond_the_limit_is_rejected_with_its_position(opener, closer):
    def nested(depth):
        return opener * depth + "theta1" + closer * depth

    assert eval_cost(parse_cost(nested(MAX_NESTING), 1), [1.0]) == 1.0
    with pytest.raises(ExpressionError, match="nesting deeper than") as info:
        parse_cost(nested(MAX_NESTING + 1), 1)
    assert info.value.position == (MAX_NESTING + 1) * len(opener)
    with pytest.raises(ExpressionError, match="nesting deeper than"):
        parse_cost(nested(4 * MAX_NESTING), 1)


def test_parsed_polynomial_gets_the_builtins_exact_gradient():
    parsed = grad_cost(parse_cost("theta1^4 / 24", 1), [2.0])
    assert parsed.tobytes() == grad_cost(quartic_cost(), [2.0]).tobytes()
    assert parsed.tolist() == [2.0**3 / 6.0]


def test_builtin_gradients_match_their_closed_forms():
    # the closed forms the builtins once carried as hand-written gradients
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        for _ in range(20):
            a = rng.uniform(-2, 2, (n, n))
            hmat, star = a @ a.T + 0.1 * np.eye(n), rng.uniform(-2, 2, n)
            quadratic, quartic = quadratic_cost(hmat, 1.0, star), shifted_quartic_cost(star)
            theta = rng.uniform(-3, 3, n)
            d = theta - star
            for cost, want, scale in ((quadratic, d @ hmat, np.abs(d) @ np.abs(hmat)),
                                      (quartic, d**3 / 6.0, np.abs(d) ** 3 / 6.0)):
                assert np.all(np.abs(grad_cost(cost, theta) - want) <= 1e-14 * scale), cost.expr


@pytest.mark.parametrize("expr", NON_POLYNOMIALS + ["(theta1 - 0.5)^400"])   # one over the cap
def test_gradient_falls_back_to_finite_differences(expr):
    cost, theta = parse_cost(expr, 2), np.array([1.5, 0.75])
    with np.errstate(all="ignore"):
        assert grad_cost(cost, theta).tobytes() == finite_difference_gradient(cost, theta).tobytes()


def test_cost_without_expr_gets_finite_differences():
    quartic = quartic_cost()
    bare, theta = CostFunction(n=1, f=quartic.f), np.array([0.7])
    assert grad_cost(bare, theta).tobytes() == finite_difference_gradient(quartic, theta).tobytes()


def test_folded_nans_keep_their_sign_bits():
    # (-1)^0.5 folds to a NaN, and its negation to a NaN of the other sign with the same
    # repr; the second drops out under ^0, so J is theta1 plus the first, sign bit and all
    with np.errstate(invalid="ignore"):
        j = parse_cost("(theta1 + -((-1)^0.5)) * ((-1)^0.5 + theta1)^0", 1).f([[0.0]])
        want = np.array([0.0]) + -float(np.power(-1.0, 0.5))
    assert j.tobytes() == want.tobytes()


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


def test_row_form_travels_with_f():
    # the quartic's row form is f's own: a record copy and a functools.wraps wrapper keep
    # it, and any other f, a plain wrapper of the quartic's f included, gets f stacked
    quartic = shifted_quartic_cost([0.5, -1.0])
    f, rows, shift = quartic.f, [[1.0, 2.0, 0.3], [-0.2, 0.4, 0.0]], [0.01, -0.02]
    assert row_form(f) is f.rows
    assert row_form(replace(quartic, expr=None).f) is f.rows
    assert row_form(functools.wraps(f)(lambda x: f(x))) is f.rows
    stacked = row_form(lambda x: f(x))
    assert stacked is not f.rows and stacked(rows, shift) == f.rows(rows, shift)
    assert not hasattr(parse_cost("theta1^4", 1).f, "rows")
