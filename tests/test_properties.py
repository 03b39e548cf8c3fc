"""Property tests over drawn inputs (hypothesis)."""

import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from esc_lab import (
    EscParams,
    NonFiniteStateError,
    demod_value,
    dither_value,
    grad_cost,
    new_dither,
    parse_cost,
    quadratic_cost,
    quartic_cost,
    shifted_quartic_cost,
    simulate_average,
    simulate_gesc,
    simulate_rmspesc,
)
from esc_lab.dynamics import gesc_system, rmspesc_system
from esc_lab.integrate import derivative

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
    # an even integer literal exponent raises |base|; the parser folds a literal-only
    # exponent such as -(2.0) to one literal, which the walk computes as a Python float
    if type(b) is float and b.is_integer() and b % 2 == 0:
        value = np.power(np.abs(a), b)
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
# (((theta1)^(0.5))^(1.0))^(-(2.0)) at -1: the NaN's sign bit is the even exponent's
@example(tree_and_points=(("pow", ("pow", ("pow", ("var", 0), ("const", 0.5)), ("const", 1.0)),
                           ("neg", ("const", 2.0))), np.array([[-1.0]])))
def test_compiled_expression_matches_tree_walk(tree_and_points):
    tree, x = tree_and_points
    cost = _parsed(tree, x.shape[1])
    if cost is None:
        return
    got = _outcome(cost.f, x)
    # J is one value per point, also for a tree that names no variable
    want = _outcome(lambda pts: np.broadcast_to(walk(tree, pts), pts.shape[:-1]), x)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), render(tree)


# The complex step: J over complex numbers at theta + i h e_k has imaginary part
# h dJ/dtheta_k up to h^3 J''' / 6, wherever J is analytic (Squire & Trapp, SIAM
# Review 40, 1998), and it subtracts nothing, so it rounds like J itself.
STEP = 1e-100


class _NoStep(Exception):
    pass


def complex_walk(node, z):
    """``walk`` over Python complex numbers, every ``^`` a plain ``**``, and m.

    m bounds the magnitudes of the terms of the derivative along the step: the
    jet rules with every term taken in absolute value. Raises _NoStep where J is
    not real on both sides of the point (a base <= 0 under an exponent that is
    no integer or names a variable), where a value is not 0 and not within
    1e+-100 (then the products inside an integer power, from 1e-100 up, times
    the step stay normal floats) and where the step times m underflows.
    """
    op = node[0]
    if op == "const":
        return complex(node[1]), 0.0
    if op == "var":
        return z[node[1]], abs(z[node[1]].imag) / STEP
    if op == "neg":
        a, m = complex_walk(node[1], z)
        return -a, m
    (a, ma), (b, mb) = complex_walk(node[1], z), complex_walk(node[2], z)
    u, v = a.real, b.real
    if op in ("add", "sub"):
        value, m = _BINARY[op][1](a, b), ma + mb
    elif op == "mul":
        value, m = a * b, ma * abs(v) + abs(u) * mb
    elif op == "div":
        value, m = a / b, (ma + abs(u / v) * mb) / abs(v)
    else:
        if u <= 0 and (mb or b.imag or not v.is_integer()):
            raise _NoStep
        value = a**b
        m = ((abs(v * u ** (v - 1)) * ma if ma else 0.0)
             + (abs(value.real * math.log(u)) * mb if mb else 0.0))
    if value.real and not 1e-100 <= abs(value.real) <= 1e100 or m and m * STEP < 1e-290:
        raise _NoStep
    return value, m


# 0 or at least 1e-30 from it, so that the step is small beside every coordinate
step_points = coords.filter(lambda c: c == 0.0 or abs(c) >= 1e-30)


# every rule the fold has, at a point where the step applies
@example((("pow", ("var", 0), ("var", 1)), np.array([1.5, 0.75])))
@example((("div", ("neg", ("var", 0)), ("add", ("const", 1.0), ("pow", ("var", 0), ("const", 3.0)))),
          np.array([0.7])))
@example((("mul", ("sub", ("const", 2.0), ("var", 0)), ("var", 0)), np.array([0.5])))
@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    expression_trees(n), arrays(float, n, elements=step_points))))
def test_gradient_matches_complex_step(case):
    # Bound: |fold - step| <= 1e-11 m + 1e-150. Each side rounds by a few units of
    # 1e-16 in m, times the condition of a power's value (|v ln u|, up to about 700);
    # the worst of 40,000 drawn cases was 5.9e-14 m. 1e-150 covers the step's
    # h^2 J''' / 6 where m is 0, as for theta1^3 at 0.
    tree, x = case
    cost = _parsed(tree, len(x))
    if cost is None:
        return
    got = grad_cost(cost, x)
    try:
        value = complex_walk(tree, [complex(c) for c in x])[0]
        steps = [complex_walk(tree, [complex(c, STEP * (j == k)) for j, c in enumerate(x)])
                 for k in range(len(x))]
    except (ZeroDivisionError, OverflowError, _NoStep):
        return
    step = np.array([z.imag / STEP for z, _ in steps])
    m = np.array([m for _, m in steps])
    if value.imag == 0.0 and np.all(np.isfinite([value.real, *got, *step, *m])):
        assert np.all(np.abs(got - step) <= 1e-11 * m + 1e-150), (render(tree), x, got, step)


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


# The full loop measures J through the scalar form f carries: the tree's operations
# on Python floats, where ** (an integral literal exponent) and math.pow (any other)
# round as libm's pow does, and numpy's power may round 1 ulp apart; where those
# floats raise, the loop takes f's value at that point.
def _loop_j(cost, points):
    """J at each point as the full loop measures it: the baseline's xi rate at t = 0, where
    the dither shift is +0.0 (so a point's -0.0 reads +0.0), with xi = 0 and unit gains."""
    n = cost.n
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25] * n, omega_xi=1.0)
    dither = new_dither([0.1] * n, list(range(1, n + 1)), 10.0)
    rhs = derivative(gesc_system(params, cost, dither))
    with np.errstate(all="ignore"):
        return [row[-1] for row in rhs(0.0, [[*p, 0.0] for p in points])]


def float_walk(node, x):
    """(J, names a variable) by a recursive walk of the tree over Python floats, with the
    scalar form's rule for ``^``; an operation on literals only folds as compiling folds it."""
    op = node[0]
    if op == "const":
        return node[1], False
    if op == "var":
        return x[node[1]], True
    if op == "neg":
        a, var = float_walk(node[1], x)
        return -a, var
    (a, var_a), (b, var_b) = float_walk(node[1], x), float_walk(node[2], x)
    if op != "pow":
        return _BINARY[op][1](a, b), var_a or var_b
    if not (var_a or var_b):
        with np.errstate(all="ignore"):
            return float(walk(node, np.zeros(0))), False
    if node[2][0] == "const" and node[2][1].is_integer():
        return a ** b, True
    return math.pow(a, b), True


def _has_power(node) -> bool:
    return node[0] == "pow" or any(_has_power(c) for c in node[1:] if isinstance(c, tuple))


def _bits(values):
    return np.array(values, dtype=float).tobytes()


# a literal-only tree folds to numpy's NaN, whose sign bit is set
@example((("pow", ("neg", ("const", 1.0)), ("const", 1.5)), [[0.0]]))
@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    expression_trees(n),
    st.lists(st.lists(coords | st.floats(-1e80, 1e80), min_size=n, max_size=n),
             min_size=1, max_size=4))))
def test_loop_measures_j_by_the_float_walk(case):
    tree, points = case
    cost = _parsed(tree, len(points[0]))
    if cost is None:
        return
    points = [[x + 0.0 for x in p] for p in points]
    want = []
    for p in points:
        try:
            want.append(float_walk(tree, p)[0])
        except (ZeroDivisionError, OverflowError, ValueError):
            want.append(float(_outcome(cost.f, np.array(p))))
    got = _loop_j(cost, points)
    assert _bits(got) == _bits(want), (render(tree), points)
    if not _has_power(tree):                 # then J is f's, bit for bit
        assert _bits(got) == _outcome(cost.f, np.array(points)).tobytes(), render(tree)


@settings(deadline=None)
@given(st.floats(-1e3, 1e3), st.integers(0, 60).map(float) | st.floats(-60.0, 60.0))
def test_float_power_within_one_ulp_of_numpy(base, exponent):
    # the one operation whose rounding the scalar form does not share with f
    with np.errstate(all="ignore"):
        want = np.power(abs(base) if exponent % 2 == 0 else base, exponent)
    for power in ((operator.pow, math.pow) if exponent.is_integer() else (math.pow,)):
        try:
            got = power(base, exponent)
        except (ZeroDivisionError, OverflowError, ValueError):
            continue                         # the loop takes f's value there
        assert np.nextafter(want, -np.inf) <= got <= np.nextafter(want, np.inf), power


# J's terms are nonnegative: each of the n fourth powers differs from f's by at most
# 1 ulp, and either side's n - 1 additions and its division by 24 round by at most
# half an ulp of J each, so the two differ by at most (n + 1) eps J.
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9])
def test_loop_quartic_within_ulps_of_f(n):
    cost = shifted_quartic_cost(np.linspace(-1.0, 1.0, n))
    points = np.random.default_rng(0).uniform(-3.0, 3.0, (2000, n))
    want, got = cost.f(points), np.array(_loop_j(cost, points.tolist()))
    assert np.all(np.abs(got - want) <= (n + 1) * np.finfo(float).eps * want)


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
    # the phase lines the loop inlines, run at stage time ts
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25] * dither.n, omega_xi=1.0)
    phase = {"sin": math.sin, "ts": t}
    exec("\n".join(rmspesc_system(params, quadratic_cost([1.0] * dither.n), dither).phase), phase)
    shift = [phase[f"a{i}"] for i in range(dither.n)]
    weight = [phase[f"m{i}"] for i in range(dither.n)]
    assert np.array(shift).tobytes() == dither_value(dither, t).tobytes()
    assert np.array(weight).tobytes() == demod_value(dither, t).tobytes()
