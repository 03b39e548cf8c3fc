import numpy as np
import pytest

import esc_lab.lyapunov as lyapunov

from esc_lab import (
    BoxEscapeError,
    Equilibrium,
    EscParams,
    LevelSetOracle,
    LevelSpec,
    PeriodQuadrature,
    avg_maps,
    equilibrium,
    monitor_descent,
    new_dither,
    quadratic_cost,
    quartic_cost,
    shifted_quartic_cost,
    simulate_average,
)
from esc_lab.integrate import Trajectory

FIG1 = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)


@pytest.fixture(scope="module")
def quad_ctx():
    cost = quadratic_cost(1.0, 3.0)
    dither = new_dither([0.2], [1], 10.0)
    eq = equilibrium(cost, dither)
    spec = LevelSpec(box=[[-4.0, 4.0]])
    return cost, dither, eq, spec


@pytest.fixture(scope="module")
def quartic_ctx():
    cost = quartic_cost()
    dither = new_dither([0.02], [1], 10.0)
    eq = equilibrium(cost, dither)
    spec = LevelSpec(box=[[-4.0, 4.0]])
    return cost, dither, eq, spec


def _xi_radii(oracle, levels):
    """r_xi at each level, through the batched radius routine."""
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    return oracle._radii(oracle._targets[0], levels)


def _v_radii(oracle, c_theta, c_xi, channel=0):
    """r_v of one channel at each (c_theta, c_xi) pair; a scalar level broadcasts."""
    c_theta, c_xi = np.broadcast_arrays(np.atleast_1d(np.asarray(c_theta, dtype=float)),
                                        np.atleast_1d(np.asarray(c_xi, dtype=float)))
    return oracle._radii(oracle._targets[1 + channel], c_theta, c_xi)


def _error_states(oracle, states):
    """The (theta, v, xi) error coordinates of flat states, one row each, as the
    descent monitor slices them."""
    eq, n = oracle.eq, oracle.cost.n
    states = np.atleast_2d(np.asarray(states, dtype=float))
    return (states[:, :n] - eq.theta_star, states[:, n : 2 * n] - eq.v_star,
            states[:, 2 * n] - eq.xi_star)


_TERMS = ("v_theta", "r_xi", "v_xi", "r_v", "v_v", "v_total")


def _value(oracle, state):
    """V and its terms at one flat state, through the batched evaluator."""
    terms = oracle._evaluate(*_error_states(oracle, state))
    return {name: term[0] for name, term in zip(_TERMS, terms)}


def _v_theta_about_origin(cost, phis):
    """V_theta at error points (one row each) about theta* = 0, through the oracle."""
    zero = np.zeros(cost.n)
    eq = Equilibrium(theta_star=zero, xi_star=float(cost.f(zero)), v_star=zero, grad_norm=0.0,
                     iterations=0)
    oracle = LevelSetOracle(cost, new_dither([0.2], [1], 10.0), eq, LevelSpec(box=[[-4.0, 4.0]]))
    return oracle._v_theta(np.asarray(phis, dtype=float))


def test_v_theta_values():
    quad = _v_theta_about_origin(quadratic_cost(1.0, 3.0), [[0.0], [1.0]])
    assert quad[0] == 0.0
    assert quad[1] == pytest.approx(0.5, rel=1e-14)
    quartic = _v_theta_about_origin(quartic_cost(), [[2.0]])
    assert quartic[0] == pytest.approx(2.0**4 / 24.0, rel=1e-14)


def test_level_spec_validation():
    with pytest.raises(ValueError, match="degenerate"):
        LevelSpec(box=[[1.0, 1.0]])
    with pytest.raises(ValueError, match="origin"):
        LevelSpec(box=[[0.5, 2.0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            LevelSpec(box=[[-bad, bad]])
    with pytest.raises(ValueError, match="resolutions"):
        LevelSpec(box=[[-1.0, 1.0]], grid_theta=2)
    with pytest.raises(ValueError, match="n_samples"):
        LevelSpec(box=[[-1.0, 1.0]] * 3, n_samples=0)


def test_radius_xi_zero_level(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    assert _xi_radii(LevelSetOracle(cost, dither, eq, spec), 0.0)[0] == pytest.approx(0.0, abs=1e-9)


def test_radius_xi_quadratic_identity(quad_ctx):
    # For the quadratic, the averaged-cost error over {V_theta <= c} equals c.
    cost, dither, eq, spec = quad_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    levels = [0.1, 0.5, 1.0]
    for c, r in zip(levels, _xi_radii(oracle, levels)):
        assert r == pytest.approx(c, rel=2e-3)


def test_radius_xi_monotone_on_quartic(quartic_ctx):
    cost, dither, eq, spec = quartic_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    values = _xi_radii(oracle, np.linspace(0.0, 2.0, 10))
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9 * (1.0 + abs(lo))
    assert values[-1] > values[0]


def test_radius_xi_box_escape(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    with pytest.raises(BoxEscapeError):
        _xi_radii(oracle, 100.0)  # sublevel set wider than [-4, 4]


def test_radius_v_zero_levels(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    r = _v_radii(LevelSetOracle(cost, dither, eq, spec), 0.0, 0.0)[0]
    assert r == pytest.approx(0.0, abs=1e-9)


def test_radius_v_against_dense_grid_oracle(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    r = _v_radii(oracle, 0.5, 0.5)[0]

    # brute-force 2-d scan at 4x resolution using the closed-form averages
    phis = np.linspace(-4.0, 4.0, 4 * 401 + 1)
    etas = np.linspace(-0.5, 0.5, 4 * 201 + 1)
    feasible = 0.5 * phis**2 <= 0.5
    ph = phis[feasible]
    b0 = 3.0 + 0.5 * ph**2 + 0.01
    b1 = 0.2 * ph
    b2 = -0.01
    xi = eq.xi_star + etas[None, :]
    g2 = (4.0 / 0.04) * (
        0.5 * (b0[:, None] - 0.5 * b2 - xi) ** 2 + 1.5 * (0.5 * b1[:, None]) ** 2 + 0.5 * (0.5 * b2) ** 2
    )
    dense = float(np.max(np.abs(g2 - eq.v_star[0])))
    assert r == pytest.approx(dense, rel=0.02)
    assert r >= dense - 1e-9  # refinement may only sharpen the grid search


def test_radius_v_monotone_in_each_level(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    for c_xi in (0.2, 1.0):
        vals = _v_radii(oracle, np.linspace(0.0, 2.0, 10), c_xi)
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-9 * (1.0 + abs(lo))
    for c_theta in (0.2, 1.0):
        vals = _v_radii(oracle, c_theta, np.linspace(0.0, 2.0, 10))
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-9 * (1.0 + abs(lo))


def test_radius_v_channel_validation(quad_ctx):
    # the cascade holds xi and one v target per channel, and no level may be negative
    cost, dither, eq, spec = quad_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    assert len(oracle._targets) == 1 + cost.n
    with pytest.raises(ValueError):
        _v_radii(oracle, 0.1, -0.1)


def test_radii_read_exactly_the_upstream_levels(quad_ctx):
    # xi reads no level upstream of it and each v_i reads c_xi: a level too many or too few
    # is an error, not silently ignored
    cost, dither, eq, spec = quad_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    xi, v = oracle._targets
    levels = np.array([0.1, 0.5])
    with pytest.raises(TypeError):
        oracle._radii(xi, levels, levels)
    with pytest.raises(TypeError):
        oracle._radii(v, levels)
    with pytest.raises(ValueError, match="nonnegative"):
        oracle._radii(v, levels, -levels)
    with pytest.raises(ValueError, match="nonnegative"):
        oracle._radii(xi, -levels)


def test_lyapunov_value_at_origin(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    state = [*eq.theta_star, *eq.v_star, eq.xi_star]
    report = _value(LevelSetOracle(cost, dither, eq, spec), state)
    assert report["v_total"] == pytest.approx(0.0, abs=1e-9)


def test_lyapunov_value_breakdown(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    state = np.array([1.0 + eq.theta_star[0], eq.v_star[0], eq.xi_star])
    report = _value(LevelSetOracle(cost, dither, eq, spec), state)
    assert report["v_theta"] == pytest.approx(0.5, rel=1e-9)
    # r_xi(c) = c for this cost, taken at the level 0.5 rounded up onto the quantization grid
    assert report["r_xi"] == pytest.approx(lyapunov._quantize_level(0.5), rel=2e-3)
    assert report["v_total"] == pytest.approx(
        report["v_theta"] + report["v_xi"] + report["v_v"].sum(), rel=1e-14
    )
    assert report["v_total"] >= report["v_theta"]


def test_lyapunov_value_dominates_theta_term(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    rng = np.random.default_rng(3)
    for _ in range(5):
        state = np.array([rng.uniform(-1.5, 1.5), rng.uniform(0, 2), rng.uniform(-1, 1)])
        report = _value(oracle, state)
        vt = oracle._v_theta(np.array([[state[0] - eq.theta_star[0]]]))[0]
        assert report["v_total"] >= vt - 1e-12


def test_sublevel_sets_connected(quad_ctx, quartic_ctx):
    # one connected component per tested level (flood fill on the sign grid)
    for cost, dither, eq, spec in (quad_ctx, quartic_ctx):
        phis = np.linspace(-4.0, 4.0, 801)
        vt = cost.f(phis[:, None] + eq.theta_star) - cost.f(eq.theta_star)
        for c in (0.1, 0.5, 1.0, 2.0):
            mask = vt <= c
            # count maximal runs of True (1-d connected components)
            runs = np.diff(np.concatenate([[0], mask.astype(int), [0]]))
            assert np.sum(runs == 1) == 1


def test_sublevel_sets_connected_two_dimensional():
    from scipy.ndimage import label

    cost = quadratic_cost([[1.0, 0.4], [0.4, 2.0]], 0.0)
    ax = np.linspace(-3.0, 3.0, 161)
    mesh = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vt = (cost.f(pts) - 0.0).reshape(161, 161)
    for c in (0.2, 1.0, 3.0):
        _, components = label(vt <= c)
        assert components == 1


def test_quantized_radius_levels(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    levels = np.array([0.37, 1.234])
    quantized_levels = lyapunov._quantize_up(levels)
    for exact, quantized, again in zip(_xi_radii(oracle, levels),
                                       _xi_radii(oracle, quantized_levels),
                                       _xi_radii(oracle, quantized_levels)):
        # levels round upward, radii are monotone => one-sided error
        assert exact - 1e-12 <= quantized <= exact * 1.002 + 1e-12
        assert again == quantized
    rv_exact = _v_radii(oracle, 0.5, 0.5)[0]
    rv_quant = _v_radii(oracle, *lyapunov._quantize_up([0.5, 0.5]))[0]
    assert rv_exact - 1e-12 <= rv_quant <= rv_exact * 1.005 + 1e-12


def test_monitor_descent_from_equilibrium(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    traj = simulate_average(cost, dither, FIG1, [*eq.theta_star, *eq.v_star, eq.xi_star],
                            5.0, 0.0125, 40)
    report = monitor_descent(LevelSetOracle(cost, dither, eq, spec), traj)
    assert report.passed
    assert np.all(np.abs(report.values) <= 1e-6)


def test_monitor_descent_short_quadratic(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    traj = simulate_average(cost, dither, FIG1, [2.0, 0.81, 0.0], 20.0, 0.0125, 4)
    report = monitor_descent(LevelSetOracle(cost, dither, eq, spec), traj)
    assert report.passed, report.summary()
    assert report.values[-1] < report.values[0]
    assert "PASS" in report.summary()


def test_monitor_flags_artificial_violation(quad_ctx):
    # feed a trajectory that walks away from the equilibrium
    cost, dither, eq, spec = quad_ctx
    times = np.linspace(0.0, 1.0, 11)
    states = np.stack([
        np.linspace(0.2, 2.0, 11),          # theta drifting outward
        np.full(11, eq.v_star[0]),
        np.full(11, eq.xi_star),
    ], axis=1)
    traj = Trajectory(times=times, states=states)
    report = monitor_descent(LevelSetOracle(cost, dither, eq, spec), traj)
    assert not report.passed
    assert report.first_violation is not None
    assert "FAIL" in report.summary()


def test_monitor_rejects_states_of_another_layout(quad_ctx):
    # the monitor slices each state as (theta, v, xi), so a record must be (m, 2n + 1)
    cost, dither, eq, spec = quad_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    times = np.linspace(0.0, 1.0, 4)
    for states in (np.zeros((4, 2)), np.zeros((4, 5)), np.zeros(4), np.zeros((4, 3, 1))):
        traj = Trajectory(times=times, states=states)
        with pytest.raises(ValueError, match="flat states of length 3"):
            monitor_descent(oracle, traj)


def test_two_dimensional_grid_radii():
    cost = quadratic_cost([1.0, 2.0], 0.0)
    dither = new_dither([0.1, 0.08], [1, 2], 10.0)
    eq = equilibrium(cost, dither)
    spec = LevelSpec(box=[[-3.0, 3.0], [-3.0, 3.0]], grid_theta=101)
    oracle = LevelSetOracle(cost, dither, eq, spec)

    # diagonal quadratic: the averaged-cost error equals V_theta, so r_xi(c) = c
    for c, r in zip((0.25, 1.0), _xi_radii(oracle, [0.25, 1.0])):
        assert r == pytest.approx(c, rel=5e-3)

    # cross-check one r_v value against a coarse scan of the quadrature maps
    quad = PeriodQuadrature(cost, dither)
    c_theta, c_xi, channel = 0.5, 0.5, 1
    r = _v_radii(oracle, c_theta, c_xi, channel)[0]
    best = 0.0
    grid = np.linspace(-1.2, 1.2, 41)
    for p1 in grid:
        for p2 in grid:
            phi = np.array([p1, p2])
            if cost.f(eq.theta_star + phi) - cost.f(eq.theta_star) > c_theta:
                continue
            for eta in np.linspace(-c_xi, c_xi, 21):
                g2 = avg_maps(cost, quad, eq.theta_star + phi, eq.xi_star + eta).g2_bar
                best = max(best, abs(g2[channel] - eq.v_star[channel]))
    assert r >= best - 1e-9
    assert r <= best * 1.15  # coarse scan undershoots the boundary maximum

    vals = _v_radii(oracle, np.linspace(0.0, 1.5, 6), 1.0)
    assert all(b >= a - 1e-9 * (1 + abs(a)) for a, b in zip(vals, vals[1:]))


def test_sampled_fallback_above_two_dimensions():
    cost = quadratic_cost([1.0, 2.0, 0.5], 0.0)
    dither = new_dither([0.1, 0.1, 0.1], [1, 2, 3], 10.0)
    eq = equilibrium(cost, dither)
    spec = LevelSpec(box=[[-2, 2]] * 3, n_samples=4000)
    oracle = LevelSetOracle(cost, dither, eq, spec)
    r1, r2 = _xi_radii(oracle, [0.5, 1.0])
    assert 0.0 < r1 <= r2
    # sampling approximates the true sublevel max (= c for quadratic V_theta ~ J_bar err)
    assert r1 == pytest.approx(0.5, rel=0.1)


def test_sampled_box_escape():
    # n > 2: V_theta on the faces of [-1, 1]^3 is never below 0.25 (the faces theta3 = +-1)
    cost = quadratic_cost([1.0, 2.0, 0.5], 0.0)
    dither = new_dither([0.1, 0.1, 0.1], [1, 2, 3], 10.0)
    eq = equilibrium(cost, dither)
    oracle = LevelSetOracle(cost, dither, eq, LevelSpec(box=[[-1, 1]] * 3, n_samples=4000))
    # the sampled face minimum bounds the true one from above, so detection is one-sided
    assert 0.25 <= oracle._vt_boundary_min < 0.26
    with pytest.raises(BoxEscapeError):
        _xi_radii(oracle, 100.0)
    with pytest.raises(BoxEscapeError):
        _v_radii(oracle, 0.3, 0.1, 2)
    assert _xi_radii(oracle, 0.2)[0] == pytest.approx(0.2, rel=0.1)


def test_targets_refine_with_the_grid_tables(quad_ctx, quartic_ctx):
    # the refinement path (field of the node residuals, then sup) reproduces every
    # target's grid heights bit for bit, so grid search and refinement share one definition
    cost2 = shifted_quartic_cost([0.3, -0.2])
    dither2 = new_dither([0.1, 0.08], [1, 2], 10.0)
    spec2 = LevelSpec(box=[[-3.0, 3.0], [-3.0, 3.0]], grid_theta=31)
    rng = np.random.default_rng(5)
    for cost, dither, eq, spec in (quad_ctx, quartic_ctx,
                                   (cost2, dither2, equilibrium(cost2, dither2), spec2)):
        oracle = LevelSetOracle(cost, dither, eq, spec)
        assert len(oracle._targets) == 1 + cost.n
        idx = rng.choice(len(oracle._points), size=40, replace=False)
        c_xi = rng.uniform(0.0, 2.0, size=(40, 1))
        xi, *vs = oracle._targets
        for target, upstream in [(xi, ())] + [(v, (c_xi,)) for v in vs]:
            table = oracle._tables[target]
            grid = np.broadcast_to(target.sup(table, *upstream), (40, len(oracle._points)))
            refined = target.sup(target.field(oracle._residuals(oracle._points[idx])),
                                 *(c[:, 0] for c in upstream))
            assert np.array_equal(refined, grid[np.arange(40), idx])
        assert np.array_equal(oracle._v_theta(oracle._points[idx]), oracle._vt[idx])


def _assert_monitor_matches_single_samples(traj, cost, dither, eq, spec):
    """The lockstep monitor equals one batch-of-one evaluation per sample, bit for bit."""
    oracle = LevelSetOracle(cost, dither, eq, spec)
    report = monitor_descent(oracle, traj)
    singles = [_value(oracle, state) for state in traj.states]
    assert np.array_equal(report.values, [r["v_total"] for r in singles])
    assert np.array_equal(report.v_theta_terms, [r["v_theta"] for r in singles])
    assert np.array_equal(report.v_xi_terms, [r["v_xi"] for r in singles])
    assert np.array_equal(report.v_v_terms, np.stack([r["v_v"] for r in singles]))
    return oracle


def test_monitor_matches_single_samples(quad_ctx, quartic_ctx):
    for cost, dither, eq, spec in (quad_ctx, quartic_ctx):
        traj = simulate_average(cost, dither, FIG1, [2.0, 0.81, 0.0], 5.0, 0.0125, 4)
        _assert_monitor_matches_single_samples(traj, cost, dither, eq, spec)


def _across_chunks_case():
    """2-D grid path: 101^2 grid points leave room for 6 samples per chunk, so 61 samples
    span 11. Returns (trajectory, cost, dither, eq, spec)."""
    cost = shifted_quartic_cost([0.3, -0.2])
    dither = new_dither([0.1, 0.08], [1, 2], 10.0)
    eq = equilibrium(cost, dither)
    spec = LevelSpec(box=[[-3.0, 3.0], [-3.0, 3.0]], grid_theta=101)
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25, 0.25], omega_xi=1.0)
    traj = simulate_average(cost, dither, params, [1.2, -1.0, 0.5, 0.5, 0.0], 3.0, 0.0125, 4)
    return traj, cost, dither, eq, spec


def test_monitor_matches_single_samples_across_chunks(monkeypatch):
    # the grid stage runs in 11 chunks; the refinement runs once per target for each
    # _evaluate: once over all 61 samples for the monitor, then once per single sample
    traj, cost, dither, eq, spec = _across_chunks_case()
    passes, golden = [], lyapunov._golden_max

    def counted_golden(f, lo, hi):
        passes.append(len(lo))
        return golden(f, lo, hi)

    monkeypatch.setattr(lyapunov, "_golden_max", counted_golden)
    oracle = _assert_monitor_matches_single_samples(traj, cost, dither, eq, spec)
    m, targets = len(traj.times), len(oracle._targets)
    assert m > lyapunov._CHUNK_ELEMENTS // len(oracle._vt)
    assert passes == [m] * targets + [1] * (targets * m)


def _escape_cases(quad_ctx):
    """(oracle, start inside the box, start whose level escapes it) on the 1-D grid, the 2-D
    grid and the sampled n = 3 path, as flat states."""
    yield LevelSetOracle(*quad_ctx), [0.5, 0.81, 0.0], [5.0, 0.81, 0.0]
    traj, cost, dither, eq, spec = _across_chunks_case()
    yield (LevelSetOracle(cost, dither, eq, spec), traj.states[0],
           [3.0, 3.0, 0.5, 0.5, 0.0])
    cost = quadratic_cost([1.0, 2.0, 0.5], 0.0)
    dither = new_dither([0.1, 0.1, 0.1], [1, 2, 3], 10.0)
    spec = LevelSpec(box=[[-2, 2]] * 3, n_samples=4000)
    yield (LevelSetOracle(cost, dither, equilibrium(cost, dither), spec),
           [0.6, -0.4, 0.5, 0.5, 0.5, 0.5, 0.0], [1.5, 1.5, 1.5, 0.5, 0.5, 0.5, 0.0])


def test_level_check_raises_what_v_raises(quad_ctx):
    # the box check the CLI runs before it integrates reads only the quantized V_theta
    # level of the start; it raises exactly the error V raises at that start
    for oracle, inside, outside in _escape_cases(quad_ctx):
        inside, outside = _error_states(oracle, inside), _error_states(oracle, outside)
        level_in, level_out = (lyapunov._quantize_up(np.maximum(oracle._v_theta(errs[0]), 0.0))
                               for errs in (inside, outside))
        assert oracle._check_levels(level_in) is None
        assert np.array_equal(oracle._theta_levels(inside[0])[1], level_in)
        assert np.all(np.isfinite(oracle._evaluate(*inside)[-1]))
        with pytest.raises(BoxEscapeError) as checked:
            oracle._check_levels(level_out)
        with pytest.raises(BoxEscapeError) as started:
            oracle._theta_levels(outside[0])
        with pytest.raises(BoxEscapeError) as evaluated:
            oracle._evaluate(*outside)
        assert str(checked.value) == str(started.value) == str(evaluated.value)
        assert str(checked.value).startswith(f"sublevel set V_theta <= {level_out[0]:.6g} ")


def test_monitor_matches_single_samples_sampled_path():
    cost = quadratic_cost([1.0, 2.0, 0.5], 0.0)
    dither = new_dither([0.1, 0.1, 0.1], [1, 2, 3], 10.0)
    eq = equilibrium(cost, dither)
    spec = LevelSpec(box=[[-2, 2]] * 3, n_samples=4000)
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25] * 3, omega_xi=1.0)
    state0 = [0.6, -0.4, 0.5, 0.5, 0.5, 0.5, 0.0]
    traj = simulate_average(cost, dither, params, state0, 1.0, 0.0125, 4)
    _assert_monitor_matches_single_samples(traj, cost, dither, eq, spec)


def _monitor_levels(oracle, traj):
    """The descent monitor's quantized V_theta levels and the error states, per sample."""
    errs = _error_states(oracle, traj.states)
    return lyapunov._quantize_up(np.maximum(oracle._v_theta(errs[0]), 0.0)), errs


def _refinement_cases(quad_ctx, quartic_ctx):
    for cost, dither, eq, spec in (quad_ctx, quartic_ctx):
        traj = simulate_average(cost, dither, FIG1, [2.0, 0.81, 0.0], 5.0, 0.0125, 4)
        yield traj, cost, dither, eq, spec
    yield _across_chunks_case()


def _monitor_c_xi(oracle, levels, errs):
    """Per sample, the c_xi the monitor queries the v radii at."""
    r_xi = oracle._radii(oracle._targets[0], levels)
    return lyapunov._quantize_up(np.maximum(r_xi, np.abs(errs[2])))


def test_refinement_sweeps_feasible_probes_only(quad_ctx, quartic_ctx, monkeypatch):
    # every probe whose node residuals are swept satisfies V_theta <= c_theta of its own
    # sample; the rest are never swept
    for traj, cost, dither, eq, spec in _refinement_cases(quad_ctx, quartic_ctx):
        oracle = LevelSetOracle(cost, dither, eq, spec)
        levels, errs = _monitor_levels(oracle, traj)
        xi, *vs = oracle._targets
        c_xi = _monitor_c_xi(oracle, levels, errs)
        swept, probes, level = [], [], {}
        residuals, theta_level = oracle._residuals, oracle._v_theta

        def checked_residuals(phi):
            assert np.all(theta_level(phi) <= level["c_theta"])
            swept.append(len(phi))
            return residuals(phi)

        def counted_v_theta(phi):
            probes.append(len(phi))
            return theta_level(phi)

        monkeypatch.setattr(oracle, "_residuals", checked_residuals)
        monkeypatch.setattr(oracle, "_v_theta", counted_v_theta)
        for j in range(0, len(levels), 7):
            level["c_theta"] = levels[j]
            oracle._radii(xi, levels[j : j + 1])
            for v in vs:
                oracle._radii(v, levels[j : j + 1], c_xi[j : j + 1])
        monkeypatch.undo()
        assert 0 < sum(swept) < sum(probes)


def test_monitor_c_xi_covers_r_xi(quad_ctx, quartic_ctx, monkeypatch):
    # The paper's r_v also bounds r_xi(V_theta(phi)) <= c_xi; _radii drops that bound
    # because V never queries a c_xi at which it could exclude a point. Every v query the
    # monitor makes has c_xi >= r_xi(c_theta) >= the xi height of every grid point with
    # V_theta <= c_theta. The slack: _quantize_level takes 1e-12 grid steps off before its
    # ceil, so that a level already on the grid stays there; that can round a level down
    # by up to 1e-12 * log1p(1e-3), about 1e-15 relative, which 1e-14 covers. The bound
    # is vacuous on the grid exactly when c_xi >= grid_max, which is checked with no slack.
    for traj, cost, dither, eq, spec in _refinement_cases(quad_ctx, quartic_ctx):
        oracle = LevelSetOracle(cost, dither, eq, spec)
        levels, errs = _monitor_levels(oracle, traj)
        calls, radii = [], oracle._radii

        def recorded(target, c_theta, *upstream):
            out = radii(target, c_theta, *upstream)
            calls.append((target, c_theta, upstream, out))
            return out

        monkeypatch.setattr(oracle, "_radii", recorded)
        oracle._evaluate(*errs)
        monkeypatch.undo()
        (xi, xi_levels, xi_upstream, r_xi), *v_calls = calls
        assert xi is oracle._targets[0] and np.array_equal(xi_levels, levels)
        assert xi_upstream == ()
        heights = np.abs(oracle._tables[xi][0])
        grid_max = np.max(np.where(oracle._vt <= levels[:, None], heights, 0.0), axis=1)
        assert np.all(r_xi >= grid_max)
        assert [call[0] for call in v_calls] == oracle._targets[1:]
        for _, c_theta, (c_xi,), _ in v_calls:
            assert np.array_equal(c_theta, levels)
            assert np.all(c_xi >= r_xi * (1.0 - 1e-14))
            assert np.all(c_xi >= grid_max)


def _sweep_every_probe(self, target, base, axis, ct, upstream):
    """The refinement objective that sweeps every probe and masks the infeasible ones."""
    rows = np.arange(len(base))

    def objective(x):
        phi = base.copy()
        phi[rows, axis] = x
        ok = self._v_theta(phi) <= ct
        val = target.sup(target.field(self._residuals(phi)), *upstream)
        return np.where(ok, val, -np.inf)

    return objective


def test_feasible_probe_sweep_equals_sweeping_every_probe(quad_ctx, quartic_ctx, monkeypatch):
    for traj, cost, dither, eq, spec in _refinement_cases(quad_ctx, quartic_ctx):
        oracle = LevelSetOracle(cost, dither, eq, spec)
        errs = _monitor_levels(oracle, traj)[1]
        shipped = oracle._evaluate(*errs)
        with monkeypatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(LevelSetOracle, "_line_objective", _sweep_every_probe)
            every = oracle._evaluate(*errs)
        for a, b in zip(shipped, every):
            assert np.array_equal(a, b)
