import functools
import math
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
from esc_lab.cost import _offsets, finite_difference_gradient
from esc_lab.expressions import MAX_NESTING, ExpressionError, gradient, polynomial_degree


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


def quadratic_text(hmat, j_opt, star, every=False):
    """The builtin quadratic's expression, as README states it; with ``every``, zero entries too."""
    star = tuple(np.asarray(star, dtype=float).tolist())
    d, rows = _offsets(star), np.asarray(hmat, dtype=float).tolist()
    products = " + ".join(f"({d[i]}*{rows[i][j]!r})*{d[j]}" for i in range(len(rows))
                          for j in range(len(rows)) if every or rows[i][j] != 0.0)
    return f"{float(j_opt)!r} + 0.5*({products})"


def quartic_text(star):
    """The builtin shifted quartic's expression, as README states it."""
    star = tuple(np.asarray(star, dtype=float).tolist())
    return "(" + " + ".join(f"{d}^4" for d in _offsets(star)) + ") / 24"


def test_builtin_expressions_round_trip():
    # a builtin's f is its expression compiled, so parsing the text gives its tree and its bits
    rng = np.random.default_rng(3)
    h2, h3 = [[2.0, 0.4], [0.4, 1.5]], [[2.0, -0.3, 0.0], [-0.3, 1.0, 0.2], [0.0, 0.2, 3.0]]
    costs = [
        (quadratic_cost(1.0, 3.0), quadratic_text([[1.0]], 3.0, [0.0])),
        (quadratic_cost(h2, -1.0, [0.25, -0.5]), quadratic_text(h2, -1.0, [0.25, -0.5])),
        (quadratic_cost(h3, 0.5, [1.0, 0.0, -2.0]), quadratic_text(h3, 0.5, [1.0, 0.0, -2.0])),
        (quartic_cost(), quartic_text([0.0])),
        (shifted_quartic_cost([1.5, -0.5]), quartic_text([1.5, -0.5])),
        (shifted_quartic_cost(np.linspace(-1.0, 1.0, 9)), quartic_text(np.linspace(-1.0, 1.0, 9))),
    ]
    for cost, text in costs:
        theta = rng.uniform(-3, 3, (100, cost.n))
        parsed = parse_cost(text, cost.n)
        assert parsed.tree == cost.tree
        assert parsed.f(theta).tobytes() == cost.f(theta).tobytes()


def test_quadratic_leaves_out_zero_entries_with_the_same_bits():
    # the sum starts with (d_1*H_11)*d_1 >= +0 and is never -0, so a +-0 term changes nothing
    hmat = np.array([[2.0, 0.0, -0.3], [0.0, 1.0, 0.0], [-0.3, 0.0, 3.0]])
    star = np.array([0.5, 0.0, -1.0])
    c = quadratic_cost(hmat, 0.25, star)
    assert parse_cost(quadratic_text(hmat, 0.25, star), 3).tree == c.tree   # 5 products
    every = quadratic_text(hmat, 0.25, star, every=True)
    theta = np.random.default_rng(6).uniform(-3, 3, (300, 3))
    theta[:100, 0], theta[50:150, 1], theta[100:200:2, 1] = 0.5, 0.0, -0.0   # d_i = +-0
    theta[120:180, 2] = -1.0
    assert parse_cost(every, 3).f(theta).tobytes() == c.f(theta).tobytes()


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
    assert polynomial_degree(parsed.tree) == 1
    assert np.array_equal(parsed.f(np.array([[1.0], [-0.5]])), [1500.0, -750.0])
    assert parse_cost(" - ".join(["1"] * 1500), 1).f(np.zeros((2, 1))).tolist() == [-1498.0] * 2


def test_builtin_degrees():
    # every builtin's f is its expression compiled, so the rule reads the builtins too
    assert polynomial_degree(quartic_cost().tree) == 4
    assert polynomial_degree(shifted_quartic_cost([1.5, -0.5]).tree) == 4
    for cost in (quadratic_cost(1.0, 3.0),
                 quadratic_cost([[2.0, 0.4], [0.4, 1.5]], -1.0, [0.25, -0.5])):
        assert polynomial_degree(cost.tree) == 2


@pytest.mark.parametrize("expr, degree", [
    ("theta1^4 + 2*theta2^4 + theta1^2*theta2^2 + 0.5*(theta1 - theta2)^2", 4),
    ("3", 0),
    ("2^0.5 / 3^-1", 0),                           # names no variable: a constant
    ("theta2^0", 0),
    ("-theta1 * theta2 * theta1", 3),
    ("(theta1 - 1)^3 / 6 - theta2", 3),
    ("theta1 / (2 - 2^0.5)", 1),                    # a divisor that names no variable
    ("((theta1 + 1)^2)^3", 6),
    ("theta1^2 - theta1^2", 2),                     # the rule reads the tree, not values
    ("theta1^(1 + 1)", 2),                          # the parser folds literal arithmetic
])
def test_polynomial_degree(expr, degree):
    assert polynomial_degree(parse_cost(expr, 2).tree) == degree


NON_POLYNOMIALS = [
    "theta1^0.5", "theta1^-2", "1/(1 + theta1^2)", "theta1 / theta2", "2^theta1",
    "theta1^theta2", "theta1^0.5 * 0", "theta2 + (theta1^0.5)^2",
]


@pytest.mark.parametrize("expr", NON_POLYNOMIALS)
def test_non_polynomials_have_no_degree(expr):
    assert polynomial_degree(parse_cost(expr, 2).tree) is None


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
                assert np.all(np.abs(grad_cost(cost, theta) - want) <= 1e-14 * scale), cost.tree


def _written_gradient(expr, t1, t2):
    """dJ/dtheta of each expression at (t1, t2), written out."""
    return {
        "theta1^0.5": [0.5 / t1**0.5, 0.0],
        "theta1^-2": [-2.0 / t1**3, 0.0],
        "1/(1 + theta1^2)": [-2.0 * t1 / (1.0 + t1**2) ** 2, 0.0],
        "theta1 / theta2": [1.0 / t2, -t1 / t2**2],
        "2^theta1": [2.0**t1 * math.log(2.0), 0.0],
        "theta1^theta2": [t2 * t1 ** (t2 - 1.0), t1**t2 * math.log(t1)],
        "theta1^(1 + 1)": [2.0 * t1, 0.0],
        "theta1^0.5 * 0": [0.0, 0.0],
        "theta2 + (theta1^0.5)^2": [1.0, 1.0],
        "(theta1 - 0.5)^400": [400.0 * (t1 - 0.5) ** 399, 0.0],
    }[expr]


@pytest.mark.parametrize("expr", NON_POLYNOMIALS + ["theta1^(1 + 1)", "(theta1 - 0.5)^400"])
def test_gradient_of_any_parsed_cost_is_exact(expr):
    cost, theta = parse_cost(expr, 2), np.array([1.25, 0.75])
    got = grad_cost(cost, theta)
    np.testing.assert_allclose(got, _written_gradient(expr, *theta), rtol=1e-14, atol=0.0)
    # central differences at step h ~ 2.25e-5 err by h^2 J''' / 6, which is 2.4e-5 of
    # the derivative for the 400th power and below 1e-9 of it for the others
    fd = finite_difference_gradient(cost, theta)
    assert np.all(np.abs(got - fd) <= 1e-4 * np.abs(got) + 1e-10), (got, fd)


def test_gradient_folds_a_batch_of_points():
    # every partial takes the batch's shape: a variable the tree does not name used to
    # give a scalar 0 beside (3,) partials, and a bare variable one 1.0 for the batch
    points = np.array([[0.5, -1.0], [2.0, 3.0], [-0.25, 1e-3]])
    assert gradient(parse_cost("theta1^2 + 3", 2).tree, points.T).tolist() == [
        [1.0, 4.0, -0.5], [0.0, 0.0, 0.0]]
    assert gradient(parse_cost("theta1", 1).tree, points[:, :1].T).tolist() == [[1.0, 1.0, 1.0]]


@pytest.mark.parametrize("expr", NON_POLYNOMIALS + ["theta1^2 + 3", "theta1*theta2^3 - theta2"])
def test_grad_cost_of_a_batch_is_its_points_gradients(expr):
    cost = parse_cost(expr, 2)
    points = np.random.default_rng(5).uniform(0.25, 2.0, (16, 2))
    for c in (cost, CostFunction(n=2, f=lambda x: cost.f(x))):     # jet fold, then black box
        batch = grad_cost(c, points)
        assert batch.shape == (16, 2)
        assert batch.tobytes() == np.array([grad_cost(c, p) for p in points]).tobytes()


def test_gradient_of_a_degree_40_polynomial_is_exact():
    got = grad_cost(parse_cost("(theta1/2)^40 + (theta1 - 1)^2", 1), [1.3])
    assert got == pytest.approx([20.0 * 0.65**39 + 0.6], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("expr, want", [
    ("theta1^0.5 * theta2", [np.inf, 0.0]),
    ("theta1^0.5 + theta2", [np.inf, 1.0]),
    ("theta2 / theta1^0.5", [-np.inf, np.inf]),
    ("theta1^0.5 - 2^theta2", [np.inf, -4.0 * math.log(2.0)]),
])
def test_infinite_partial_leaves_the_others_alone(expr, want):
    # a partial for a variable a subtree does not name is an exact 0 that no rule
    # multiplies, so the infinite d/dtheta1 at 0 makes no inf * 0 = NaN beside it
    assert grad_cost(parse_cost(expr, 2), [0.0, 2.0]).tolist() == want


def test_literal_arithmetic_folds_as_it_is_parsed():
    # a subexpression of literals is one literal in the tree every rule folds
    assert parse_cost("theta1^(2 + 2)/24", 1).tree == parse_cost("theta1^4/24", 1).tree
    assert parse_cost("(1 + 1)*theta1 - 2^-1", 1).tree == parse_cost("2*theta1 - 0.5", 1).tree
    assert parse_cost("-(3 - 1)", 1).tree == ("const", -2.0)


def test_gradient_of_a_zeroth_power_is_zero():
    assert grad_cost(parse_cost("theta1^0", 1), [0.0]).tolist() == [0.0]


def test_cost_without_expr_gets_finite_differences():
    # an f that carries no parse tree is a black box: only its values are known
    quartic = quartic_cost()
    bare, theta = CostFunction(n=1, f=lambda x: quartic.f(x)), np.array([0.7])
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
    x = np.random.default_rng(4).uniform(-3, 3, (200, 2))
    # the second cost's exponents are even integer literals once the parser folds them
    for expr in ("theta1^4 + 2*theta2^4 + theta1^2*theta2^2 + 0.5*(theta1 - theta2)^2",
                 "theta1^-2 + theta2^(1 + 1)"):
        cost = parse_cost(expr, 2)
        assert np.array_equal(cost.f(-x), cost.f(x)), expr


def test_scalar_form_travels_with_f():
    # every compiled f carries its parse tree and its operations over floats as text: a
    # record copy and a functools.wraps wrapper keep them, and any other f, a plain
    # wrapper of the quartic's f included, has neither, so the loop measures it through
    # f itself
    quartic = shifted_quartic_cost([0.5, -1.0])
    f = quartic.f
    assert f.scalar == (("t0 = x0 - 0.5", "t1 = t0 ** 4.0", "t2 = x1 - (-1.0)",
                         "t3 = t2 ** 4.0", "t4 = t1 + t3", "t5 = t4 / 24.0"), "t5")
    assert replace(quartic, theta_star=None).f.scalar is f.scalar
    wrapped = functools.wraps(f)(lambda x: f(x))
    assert wrapped.scalar is f.scalar and wrapped.tree is f.tree
    assert replace(quartic, f=wrapped).tree is quartic.tree is f.tree
    assert not hasattr(lambda x: f(x), "scalar") and not hasattr(lambda x: f(x), "tree")
    assert parse_cost("theta1^4", 1).f.scalar == (("t0 = x0 ** 4.0",), "t0")
    assert parse_cost("2^3", 1).f.scalar == ((), "8.0")