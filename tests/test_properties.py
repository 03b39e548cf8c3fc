"""Property tests over drawn inputs (hypothesis)."""

import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from esc_lab import (
    EscParams,
    NonFiniteStateError,
    new_dither,
    parse_cost,
    quadratic_cost,
    quartic_cost,
    shifted_quartic_cost,
    simulate_average,
    simulate_gesc,
    simulate_rmspesc,
)

coords = st.floats(-3.0, 3.0)


@st.composite
def builtin_cost_and_scale(draw):
    """A builtin cost and the sum of the magnitudes of its terms at a point.

    Off-diagonal curvature terms may cancel, so the rounding error of two
    evaluations is bounded relative to that sum, not to J itself.
    """
    family = draw(st.sampled_from(["quadratic", "quartic", "shifted_quartic"]))
    if family == "quartic":
        cost = quartic_cost()
        return cost, cost.f
    n = draw(st.integers(1, 3))
    star = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    if family == "shifted_quartic":
        cost = shifted_quartic_cost(star)
        return cost, cost.f
    a = draw(arrays(float, (n, n), elements=st.floats(-2.0, 2.0)))
    j_opt = draw(st.floats(-5.0, 5.0))
    hmat = a @ a.T + 0.1 * np.eye(n)
    cost = quadratic_cost(hmat, j_opt, star)
    abs_h = np.abs(hmat)

    def scale(x):
        d = np.abs(x - star)
        return abs(j_opt) + 0.5 * np.einsum("...i,ij,...j->...", d, abs_h, d)

    return cost, scale


@settings(deadline=None)
@given(builtin_cost_and_scale(), st.data())
def test_parsed_expression_matches_builtin(cost_and_scale, data):
    cost, scale = cost_and_scale
    pts = data.draw(arrays(float, (data.draw(st.integers(1, 5)), cost.n), elements=coords))
    parsed = parse_cost(cost.expr, cost.n)
    err = np.abs(parsed.f(pts) - cost.f(pts))
    assert np.all(err <= 1e-12 * scale(pts)), (cost.expr, pts)


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
        return np.power(np.abs(a), b)      # an even integer literal exponent raises |base|
    return np.power(a, b)


def _outcome(evaluate, x):
    try:
        with np.errstate(all="ignore"):
            return np.asarray(evaluate(x), dtype=float)
    except ZeroDivisionError:        # a literal divided by a literal zero
        return "ZeroDivisionError"


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    expression_trees(n), arrays(float, st.tuples(st.integers(1, 4), st.just(n)), elements=coords))))
def test_compiled_expression_matches_tree_walk(tree_and_points):
    tree, x = tree_and_points
    got = _outcome(parse_cost(render(tree), x.shape[1]).f, x)
    # J is one value per point, also for a tree that names no variable
    want = _outcome(lambda pts: np.broadcast_to(walk(tree, pts), pts.shape[:-1]), x)
    if isinstance(want, str):
        assert got == want
    else:
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
                            [theta0, v0, xi0], 0.0, 1.0, 0.01)
    assert np.all(traj.states[:, 1] >= 0.0)


@settings(deadline=None, max_examples=25)
@given(loop_states)
def test_average_filter_state_stays_nonnegative(state):
    theta0, v0, xi0, omega_l = state
    traj = simulate_average(quartic_cost(), new_dither([0.2], [1], 10.0), _params(omega_l),
                            [theta0, v0, xi0], 0.0, 1.0, 0.05)
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
    for driver, state0 in ((simulate_rmspesc, rows), (simulate_gesc, rows[:, [*range(n), 2 * n]])):
        with np.errstate(over="ignore", invalid="ignore"):
            batch = _run_or_abort(driver, *system, state0, 0.0, 1.0, 0.01)
            singles = [_run_or_abort(driver, *system, s, 0.0, 1.0, 0.01) for s in state0]
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
