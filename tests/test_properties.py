"""Property tests over drawn inputs (hypothesis)."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from esc_lab import (
    EscParams,
    NonFiniteStateError,
    demod_value,
    dither_value,
    new_dither,
    parse_cost,
    quadratic_cost,
    quartic_cost,
    shifted_quartic_cost,
    simulate_average,
    simulate_gesc,
    simulate_rmspesc,
)
from esc_lab.cost import row_form
from esc_lab.dynamics import _phase

coords = st.floats(-3.0, 3.0)


@st.composite
def builtin_cost_and_forms(draw):
    """A builtin cost, its closed form, and the sum of the magnitudes of its terms at a point.

    Off-diagonal curvature terms may cancel, so the rounding error of two
    evaluations is bounded relative to that sum, not to J itself.
    """
    family = draw(st.sampled_from(["quadratic", "quartic", "shifted_quartic"]))
    n = 1 if family == "quartic" else draw(st.integers(1, 3))
    star = np.zeros(1) if family == "quartic" else draw(
        arrays(float, n, elements=st.floats(-2.0, 2.0)))
    if family != "quadratic":
        cost = quartic_cost() if family == "quartic" else shifted_quartic_cost(star)

        def quartic(x):
            return np.sum((x - star) ** 4, axis=-1) / 24.0

        return cost, quartic, quartic
    a = draw(arrays(float, (n, n), elements=st.floats(-2.0, 2.0)))
    j_opt = draw(st.floats(-5.0, 5.0))
    hmat = a @ a.T + 0.1 * np.eye(n)

    def closed_form(x):
        d = x - star
        return j_opt + 0.5 * np.einsum("...i,ij,...j->...", d, hmat, d)

    def scale(x):
        d = np.abs(x - star)
        return abs(j_opt) + 0.5 * np.einsum("...i,ij,...j->...", d, np.abs(hmat), d)

    return quadratic_cost(hmat, j_opt, star), closed_form, scale


@settings(deadline=None)
@given(builtin_cost_and_forms(), st.data())
def test_parsed_expression_matches_builtin(cost_and_forms, data):
    cost, closed_form, scale = cost_and_forms
    pts = data.draw(arrays(float, (data.draw(st.integers(1, 5)), cost.n), elements=coords))
    err = np.abs(cost.f(pts) - closed_form(pts))
    # Where J underflows (x = 4.8e-159 on 0.05*theta1^2 gives J ~ 1e-318), a product
    # rounds to the fixed subnormal spacing u, not relative to its size, so the two
    # evaluation orders can differ by whole units of u. There every |d_j| is tiny too
    # (H >= 0.1 I), so a rounding error of at most u/2 only shrinks when multiplied
    # further, and sums of subnormals are exact: each side errs by at most 0.5u per
    # entry of H and 0.5u for the halving, 5u for n = 3, so the two differ by under
    # 16u (the quartics, one power per term on both sides, by under 2u). A sampled
    # search over 150,000 such points for n = 1..3 found them equal.
    subnormal = 16 * np.finfo(float).smallest_subnormal
    assert np.all(err <= 1e-12 * scale(pts) + subnormal), (cost.expr, pts)


# Expression trees as the parser builds them: ("const", value), ("var", index),
# ("neg", a) and (op, a, b) for op in add, sub, mul, div, pow.
_BINARY = {"add": ("+", operator.add), "sub": ("-", operator.sub),
           "mul": ("*", operator.mul), "div": ("/", operator.truediv)}
literals = st.one_of(st.integers(0, 6).map(float), st.floats(0.0, 50.0)).map(lambda v: ("const", v))


def expression_trees(n):
    leaves = st.one_of(literals, st.integers(0, n - 1).map(lambda i: ("var", i)))

    def extend(children):
        return st.one_of(
            children.map(lambda a: ("neg", a)),
            st.tuples(st.sampled_from(sorted(_BINARY)), children, children),
            st.tuples(st.just("pow"), children, st.one_of(literals, children)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def render(node):
    op = node[0]
    if op == "const":
        return repr(node[1])
    if op == "var":
        return f"theta{node[1] + 1}"
    if op == "neg":
        return f"-({render(node[1])})"
    symbol = "^" if op == "pow" else _BINARY[op][0]
    return f"({render(node[1])}) {symbol} ({render(node[2])})"


def walk(node, x):
    """Reference evaluator: a recursive walk of the tree, one numpy call per node."""
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        return x[..., node[1]]
    if op == "neg":
        return -walk(node[1], x)
    a, b = walk(node[1], x), walk(node[2], x)
    if op != "pow":
        return _BINARY[op][1](a, b)
    if node[2][0] == "const" and node[2][1] % 2 == 0:
        value = np.power(np.abs(a), b)     # an even integer literal exponent raises |base|
    else:
        value = np.power(a, b)
    # a power of two literals folds to a Python float, as compiling folds it
    return float(value) if type(a) is float and type(b) is float else value


def _outcome(evaluate, x):
    with np.errstate(all="ignore"):
        return np.asarray(evaluate(x), dtype=float)


def _parsed(tree, n):
    """parse_cost of the rendered tree, or None where building rejects it.

    The walk combines literals as Python floats, so a literal-only subtree divided
    by a literal-only zero raises ZeroDivisionError at any point; building must
    reject exactly those.
    """
    try:
        _outcome(lambda pts: walk(tree, pts), np.zeros(n))
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="divides by zero"):
            parse_cost(render(tree), n)
        return None
    return parse_cost(render(tree), n)


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    expression_trees(n), arrays(float, st.tuples(st.integers(1, 4), st.just(n)), elements=coords))))
def test_compiled_expression_matches_tree_walk(tree_and_points):
    tree, x = tree_and_points
    cost = _parsed(tree, x.shape[1])
    if cost is None:
        return
    got = _outcome(cost.f, x)
    # J is one value per point, also for a tree that names no variable
    want = _outcome(lambda pts: np.broadcast_to(walk(tree, pts), pts.shape[:-1]), x)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), render(tree)


loop_states = st.tuples(
    st.floats(-2.5, 2.5),            # theta0
    st.floats(0.0, 2.0),             # v0
    st.floats(-2.0, 2.0),            # xi0
    st.floats(0.1, 260.0),           # omega_l: the clamp fires once h * omega_l > 2.5
)


def _params(omega_l):
    return EscParams(k=1.0, epsilon=0.05, omega_l=[omega_l], omega_xi=1.0)


@settings(deadline=None, max_examples=25)
@given(loop_states)
def test_rmspesc_filter_state_stays_nonnegative(state):
    theta0, v0, xi0, omega_l = state
    traj = simulate_rmspesc(quartic_cost(), new_dither([0.2], [1], 10.0), _params(omega_l),
                            [theta0, v0, xi0], 1.0, 0.01)
    assert np.all(traj.states[:, 1] >= 0.0)


@settings(deadline=None, max_examples=25)
@given(loop_states)
def test_average_filter_state_stays_nonnegative(state):
    theta0, v0, xi0, omega_l = state
    traj = simulate_average(quartic_cost(), new_dither([0.2], [1], 10.0), _params(omega_l),
                            [theta0, v0, xi0], 1.0, 0.05)
    assert np.all(traj.states[:, 1] >= 0.0)


def _run_or_abort(driver, *args):
    try:
        return driver(*args)
    except NonFiniteStateError as exc:
        return exc


@st.composite
def batch_costs(draw):
    """The quartic, or a builtin quadratic of 1..4 coupled channels."""
    if draw(st.booleans()):
        return quartic_cost()
    n = draw(st.integers(1, 4))
    a = draw(arrays(float, (n, n), elements=st.floats(-2.0, 2.0)))
    star = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    return quadratic_cost(a @ a.T + 0.1 * np.eye(n), draw(st.floats(-5.0, 5.0)), star)


@settings(deadline=None, max_examples=25)
@given(batch_costs(), st.data(), st.floats(0.1, 260.0))
def test_batched_run_equals_single_runs(cost, data, omega_l):
    # a (B, d) run steps B members in lockstep; each member's samples are its
    # own run's bit for bit, and the clamp counts add up over members
    n = cost.n
    members = data.draw(st.lists(st.tuples(
        arrays(float, n, elements=st.floats(-2.5, 2.5)),     # theta0
        arrays(float, n, elements=st.floats(0.0, 2.0)),      # v0
        st.floats(-2.0, 2.0),                                # xi0
    ), min_size=1, max_size=5))
    rows = np.array([np.concatenate([theta, v, [xi]]) for theta, v, xi in members])
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[omega_l] * n, omega_xi=1.0)
    system = (cost, new_dither([0.2] * n, list(range(1, n + 1)), 10.0), params)
    for driver, state0 in ((simulate_rmspesc, rows), (simulate_gesc, rows[:, [*range(n), 2 * n]]),
                           (simulate_average, rows)):
        with np.errstate(over="ignore", invalid="ignore"):
            batch = _run_or_abort(driver, *system, state0, 1.0, 0.01)
            singles = [_run_or_abort(driver, *system, s, 1.0, 0.01) for s in state0]
        aborts = [s.t if isinstance(s, NonFiniteStateError) else np.inf for s in singles]
        if isinstance(batch, NonFiniteStateError):
            # the batch stops at the earliest abort and names the first member aborting then
            assert batch.t == min(aborts)
            assert batch.member == aborts.index(min(aborts))
            continue
        assert min(aborts) == np.inf
        for b, single in enumerate(singles):
            assert np.array_equal(batch.states[:, b], single.states)
        assert batch.clamp_events == sum(s.clamp_events for s in singles)
        assert type(batch.clamp_events) is int


@settings(deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 6), st.just(1)), elements=st.floats(-10.0, 10.0)))
def test_quartic_cost_is_even(phi):
    cost = quartic_cost()
    assert np.array_equal(cost.f(phi), cost.f(-phi))


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    arrays(float, n, elements=st.floats(-2.0, 2.0)),
    arrays(float, (4, n), elements=coords),
)))
def test_shifted_quartic_matches_signed_power(shift_and_points):
    shift, x = shift_and_points
    reference = np.sum((x - shift) ** 4, axis=-1) / 24.0
    got = shifted_quartic_cost(shift).f(x)
    assert np.all(np.abs(got - reference) <= 1e-15 * reference)


# The row form: J at rows r[:n] + shift, bit for bit f's values on the stacked points.
def _same_as_f(cost, rows, shift):
    points = np.array([[x + s for x, s in zip(r, shift)] for r in rows])
    want = _outcome(cost.f, points)
    with np.errstate(all="ignore"):
        got = row_form(cost.f)(rows, shift)
    assert type(got) is list and all(type(v) is float for v in got)
    assert np.array(got).tobytes() == want.tobytes(), (cost.expr, rows, shift)


def member_rows(n):
    """1 ... 5 member rows of n coordinates and 0 ... 2 trailing states, and a shift."""
    values = coords | st.floats(-1e80, 1e80)
    extra = st.integers(0, 2)
    return st.tuples(
        extra.flatmap(lambda e: st.lists(st.lists(values, min_size=n + e, max_size=n + e),
                                         min_size=1, max_size=5)),
        st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n),
    )


@settings(deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    arrays(float, n, elements=st.floats(-2.0, 2.0)), member_rows(n))))
def test_quartic_row_form_matches_f(case):
    star, (rows, shift) = case
    _same_as_f(shifted_quartic_cost(star), rows, shift)


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    arrays(float, (n, n), elements=st.floats(-2.0, 2.0)),
    arrays(float, n, elements=st.floats(-2.0, 2.0)),
    st.floats(-5.0, 5.0),
    member_rows(n))))
def test_quadratic_row_form_matches_f(case):
    a, star, j_opt, (rows, shift) = case
    _same_as_f(quadratic_cost(a @ a.T + 0.1 * np.eye(len(star)), j_opt, star), rows, shift)


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(expression_trees(n), member_rows(n))))
def test_expression_row_form_matches_f(case):
    tree, (rows, shift) = case
    cost = _parsed(tree, len(shift))
    if cost is not None:
        _same_as_f(cost, rows, shift)


# numpy rounds a negative base's fourth power apart from the positive base's, and
# a reordered sum rounds apart, each in a few percent of random draws; drawn
# examples seldom meet those cases with such values, so these rows do.
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9])
def test_quartic_row_form_matches_f_on_random_rows(n):
    cost = shifted_quartic_cost(np.linspace(-1.0, 1.0, n))
    rng = np.random.default_rng(0)
    for _ in range(400):
        rows = rng.uniform(-3.0, 3.0, (rng.integers(1, 6), cost.n + 1)).tolist()
        _same_as_f(cost, rows, rng.uniform(-0.5, 0.5, cost.n).tolist())


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.floats(1e-3, 5.0) | st.floats(-5.0, -1e-3), min_size=n, max_size=n),
    st.lists(st.integers(1, 9), min_size=n, max_size=n, unique=True),
    st.floats(0.1, 1e3),
    st.floats(0.0, 100.0), st.floats(1e-5, 0.1), st.integers(0, 10**6),
    st.sampled_from([0.0, 0.5, 1.0]))))
def test_phase_matches_dither_signals(case):
    # at the times the RK4 loop passes: t0 + j * h, then + h / 2 and + h
    amplitudes, rates, omega, t0, h, j, stage = case
    dither = new_dither(amplitudes, rates, omega)
    t = t0 + j * h
    t = t + stage * h if stage else t
    shift, weight = _phase(dither)(t)
    assert np.array(shift).tobytes() == dither_value(dither, t).tobytes()
    assert np.array(weight).tobytes() == demod_value(dither, t).tobytes()
