import numpy as np
import pytest

import esc_lab.lyapunov as lyapunov

from esc_lab import (
    BoxEscapeError,
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
    to_error_coords,
    v_theta,
)

FIG1 = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)


@pytest.fixture(scope="module")
def quad_ctx():
    cost = quadratic_cost(1.0, 3.0)
    dither = new_dither([0.2], [1], 10.0)
    eq = equilibrium(cost, dither, theta_init=[1.0])
    spec = LevelSpec(box=[[-4.0, 4.0]])
    return cost, dither, eq, spec


@pytest.fixture(scope="module")
def quartic_ctx():
    cost = quartic_cost()
    dither = new_dither([0.02], [1], 10.0)
    eq = equilibrium(cost, dither, theta_init=[0.5])
    spec = LevelSpec(box=[[-4.0, 4.0]])
    return cost, dither, eq, spec


def test_v_theta_values():
    quad = quadratic_cost(1.0, 3.0)
    assert v_theta(quad, [0.0], [0.0]) == 0.0
    assert v_theta(quad, [0.0], [1.0]) == pytest.approx(0.5, rel=1e-14)
    quartic = quartic_cost()
    assert v_theta(quartic, [0.0], [2.0]) == pytest.approx(2.0**4 / 24.0, rel=1e-14)
    with pytest.raises(ValueError):
        v_theta(quad, [0.0], [1.0, 2.0])


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
    assert LevelSetOracle(cost, dither, eq, spec).radius_xi(0.0) == pytest.approx(0.0, abs=1e-9)


def test_radius_xi_quadratic_identity(quad_ctx):
    # For the quadratic, the averaged-cost error over {V_theta <= c} equals c.
    cost, dither, eq, spec = quad_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    for c in (0.1, 0.5, 1.0):
        assert oracle.radius_xi(c) == pytest.approx(c, rel=2e-3)


def test_radius_xi_monotone_on_quartic(quartic_ctx):
    cost, dither, eq, spec = quartic_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    values = [oracle.radius_xi(c) for c in np.linspace(0.0, 2.0, 10)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9 * (1.0 + abs(lo))
    assert values[-1] > values[0]


def test_radius_xi_box_escape(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    with pytest.raises(BoxEscapeError):
        oracle.radius_xi(100.0)  # sublevel set wider than [-4, 4]


def test_radius_v_zero_levels(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    r = LevelSetOracle(cost, dither, eq, spec).radius_v(0.0, 0.0, 0)
    assert r == pytest.approx(0.0, abs=1e-9)


def test_radius_v_against_dense_grid_oracle(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    r = oracle.radius_v(0.5, 0.5, 0)

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
        vals = [oracle.radius_v(c, c_xi, 0) for c in np.linspace(0.0, 2.0, 10)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-9 * (1.0 + abs(lo))
    for c_theta in (0.2, 1.0):
        vals = [oracle.radius_v(c_theta, c, 0) for c in np.linspace(0.0, 2.0, 10)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-9 * (1.0 + abs(lo))


def test_radius_v_channel_validation(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    with pytest.raises(ValueError):
        oracle.radius_v(0.1, 0.1, 3)
    with pytest.raises(ValueError):
        oracle.radius_v(0.1, -0.1, 0)


def test_lyapunov_value_at_origin(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    err = to_error_coords(eq.flat(), eq)
    report = LevelSetOracle(cost, dither, eq, spec).value(err, quantize=False)
    assert report.v_total == pytest.approx(0.0, abs=1e-9)


def test_lyapunov_value_breakdown(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    err = to_error_coords(
        np.array([1.0 + eq.theta_star[0], eq.v_star[0], eq.xi_star]), eq
    )
    report = LevelSetOracle(cost, dither, eq, spec).value(err, quantize=False)
    assert report.v_theta == pytest.approx(0.5, rel=1e-9)
    assert report.r_xi == pytest.approx(0.5, rel=2e-3)   # r_xi(0.5) = 0.5 for this cost
    assert report.v_total == pytest.approx(
        report.v_theta + report.v_xi + report.v_v.sum(), rel=1e-14
    )
    assert report.v_total >= report.v_theta


def test_lyapunov_value_dominates_theta_term(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    oracle = LevelSetOracle(cost, dither, eq, spec)
    rng = np.random.default_rng(3)
    for _ in range(5):
        state = np.array([rng.uniform(-1.5, 1.5), rng.uniform(0, 2), rng.uniform(-1, 1)])
        report = oracle.value(to_error_coords(state, eq), quantize=False)
        assert report.v_total >= v_theta(cost, eq.theta_star, [state[0] - eq.theta_star[0]]) - 1e-12


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
    for c in (0.37, 1.234):
        exact = oracle.radius_xi(c)
        quantized = oracle.radius_xi(c, quantize=True)
        # levels round upward, radii are monotone => one-sided error
        assert exact - 1e-12 <= quantized <= exact * 1.002 + 1e-12
        assert oracle.radius_xi(c, quantize=True) == quantized
    rv_exact = oracle.radius_v(0.5, 0.5, 0)
    rv_quant = oracle.radius_v(0.5, 0.5, 0, quantize=True)
    assert rv_exact - 1e-12 <= rv_quant <= rv_exact * 1.005 + 1e-12


def test_monitor_descent_from_equilibrium(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    traj = simulate_average(cost, dither, FIG1, eq.flat(), 0.0, 5.0, 0.0125, 40)
    report = monitor_descent(traj, cost, dither, eq, spec)
    assert report.passed
    assert np.all(np.abs(report.values) <= 1e-6)


def test_monitor_descent_short_quadratic(quad_ctx):
    cost, dither, eq, spec = quad_ctx
    traj = simulate_average(cost, dither, FIG1, [2.0, 0.81, 0.0], 0.0, 20.0, 0.0125, 4)
    report = monitor_descent(traj, cost, dither, eq, spec)
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
    from esc_lab.integrate import Trajectory
    traj = Trajectory(times=times, states=states, h=0.1, record_stride=1)
    report = monitor_descent(traj, cost, dither, eq, spec)
    assert not report.passed
    assert report.first_violation is not None
    assert "FAIL" in report.summary()


def test_two_dimensional_grid_radii():
    cost = quadratic_cost([1.0, 2.0], 0.0)
    dither = new_dither([0.1, 0.08], [1, 2], 10.0)
    eq = equilibrium(cost, dither, theta_init=[0.4, -0.3])
    spec = LevelSpec(box=[[-3.0, 3.0], [-3.0, 3.0]], grid_theta=101)
    oracle = LevelSetOracle(cost, dither, eq, spec)

    # diagonal quadratic: the averaged-cost error equals V_theta, so r_xi(c) = c
    for c in (0.25, 1.0):
        assert oracle.radius_xi(c) == pytest.approx(c, rel=5e-3)

    # cross-check one r_v value against a coarse scan of the quadrature maps
    quad = PeriodQuadrature(dither)
    c_theta, c_xi, channel = 0.5, 0.5, 1
    r = oracle.radius_v(c_theta, c_xi, channel)
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

    vals = [oracle.radius_v(c, 1.0, 0) for c in np.linspace(0.0, 1.5, 6)]
    assert all(b >= a - 1e-9 * (1 + abs(a)) for a, b in zip(vals, vals[1:]))


def test_sampled_fallback_above_two_dimensions():
    cost = quadratic_cost([1.0, 2.0, 0.5], 0.0)
    dither = new_dither([0.1, 0.1, 0.1], [1, 2, 3], 10.0)
    eq = equilibrium(cost, dither, theta_init=[0.2, -0.1, 0.3])
    spec = LevelSpec(box=[[-2, 2]] * 3, n_samples=4000)
    oracle = LevelSetOracle(cost, dither, eq, spec)
    r1 = oracle.radius_xi(0.5)
    r2 = oracle.radius_xi(1.0)
    assert 0.0 < r1 <= r2
    # sampling approximates the true sublevel max (= c for quadratic V_theta ~ J_bar err)
    assert r1 == pytest.approx(0.5, rel=0.1)


def test_sampled_box_escape():
    # n > 2: V_theta on the faces of [-1, 1]^3 is never below 0.25 (the faces theta3 = +-1)
    cost = quadratic_cost([1.0, 2.0, 0.5], 0.0)
    dither = new_dither([0.1, 0.1, 0.1], [1, 2, 3], 10.0)
    eq = equilibrium(cost, dither, theta_init=[0.2, -0.1, 0.3])
    oracle = LevelSetOracle(cost, dither, eq, LevelSpec(box=[[-1, 1]] * 3, n_samples=4000))
    # the sampled face minimum bounds the true one from above, so detection is one-sided
    assert 0.25 <= oracle._vt_boundary_min < 0.26
    with pytest.raises(BoxEscapeError):
        oracle.radius_xi(100.0)
    with pytest.raises(BoxEscapeError):
        oracle.radius_v(0.3, 0.1, 2)
    assert oracle.radius_xi(0.2) == pytest.approx(0.2, rel=0.1)


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
        for target in oracle._targets:
            table = oracle._tables[target]
            grid = np.broadcast_to(target.sup(c_xi, table), (40, len(oracle._points)))
            refined = target.sup(c_xi[:, 0], target.field(oracle._residuals(oracle._points[idx])))
            assert np.array_equal(refined, grid[np.arange(40), idx])
        assert np.array_equal(oracle._v_theta(oracle._points[idx]), oracle._vt[idx])


def _assert_monitor_matches_single_samples(traj, cost, dither, eq, spec):
    """The lockstep monitor equals one LevelSetOracle.value call per sample, bit for bit."""
    report = monitor_descent(traj, cost, dither, eq, spec)
    oracle = LevelSetOracle(cost, dither, eq, spec)
    singles = [oracle.value(to_error_coords(state, eq), quantize=True) for state in traj.states]
    assert np.array_equal(report.values, [r.v_total for r in singles])
    assert np.array_equal(report.v_theta_terms, [r.v_theta for r in singles])
    assert np.array_equal(report.v_xi_terms, [r.v_xi for r in singles])
    assert np.array_equal(report.v_v_terms, np.stack([r.v_v for r in singles]))
    return oracle


def test_monitor_matches_single_samples(quad_ctx, quartic_ctx):
    for cost, dither, eq, spec in (quad_ctx, quartic_ctx):
        traj = simulate_average(cost, dither, FIG1, [2.0, 0.81, 0.0], 0.0, 5.0, 0.0125, 4)
        _assert_monitor_matches_single_samples(traj, cost, dither, eq, spec)


def _across_chunks_case():
    """2-D grid path: 101^2 grid points leave room for 6 samples per chunk, so 61 samples
    span 11. Returns (trajectory, cost, dither, eq, spec)."""
    cost = shifted_quartic_cost([0.3, -0.2])
    dither = new_dither([0.1, 0.08], [1, 2], 10.0)
    eq = equilibrium(cost, dither)
    spec = LevelSpec(box=[[-3.0, 3.0], [-3.0, 3.0]], grid_theta=101)
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25, 0.25], omega_xi=1.0)
    traj = simulate_average(cost, dither, params, [1.2, -1.0, 0.5, 0.5, 0.0], 0.0, 3.0, 0.0125, 4)
    return traj, cost, dither, eq, spec


def test_monitor_matches_single_samples_across_chunks():
    traj, cost, dither, eq, spec = _across_chunks_case()
    oracle = _assert_monitor_matches_single_samples(traj, cost, dither, eq, spec)
    assert len(traj.times) > lyapunov._CHUNK_ELEMENTS // len(oracle._vt)


def test_monitor_matches_single_samples_sampled_path():
    cost = quadratic_cost([1.0, 2.0, 0.5], 0.0)
    dither = new_dither([0.1, 0.1, 0.1], [1, 2, 3], 10.0)
    eq = equilibrium(cost, dither, theta_init=[0.2, -0.1, 0.3])
    spec = LevelSpec(box=[[-2, 2]] * 3, n_samples=4000)
    params = EscParams(k=1.0, epsilon=0.05, omega_l=[0.25] * 3, omega_xi=1.0)
    state0 = [0.6, -0.4, 0.5, 0.5, 0.5, 0.5, 0.0]
    traj = simulate_average(cost, dither, params, state0, 0.0, 1.0, 0.0125, 4)
    _assert_monitor_matches_single_samples(traj, cost, dither, eq, spec)


def _monitor_levels(oracle, traj):
    """The descent monitor's quantized V_theta levels and the error states, per sample."""
    eq, n = oracle.eq, oracle.cost.n
    states = np.asarray(traj.states)
    errs = (states[:, :n] - eq.theta_star, states[:, n : 2 * n] - eq.v_star,
            states[:, 2 * n] - eq.xi_star)
    return lyapunov._quantize_up(np.maximum(oracle._v_theta(errs[0]), 0.0)), errs


def _refinement_cases(quad_ctx, quartic_ctx):
    for cost, dither, eq, spec in (quad_ctx, quartic_ctx):
        traj = simulate_average(cost, dither, FIG1, [2.0, 0.81, 0.0], 0.0, 5.0, 0.0125, 4)
        yield traj, cost, dither, eq, spec
    yield _across_chunks_case()


def _xi_levels(oracle, levels, errs):
    """Per sample, the monitor's c_xi and a c_xi below r_xi, where the envelope bound binds."""
    r_xi = oracle._radii(oracle._targets[0], levels, np.full(len(levels), np.inf))
    return lyapunov._quantize_up(np.maximum(r_xi, np.abs(errs[2]))), 0.5 * r_xi


def test_refinement_sweeps_feasible_probes_only(quad_ctx, quartic_ctx, monkeypatch):
    # every probe whose node residuals are swept satisfies V_theta <= c_theta and the
    # envelope bound env_r_xi(V_theta) <= c_xi of its own sample; the rest are never swept
    for traj, cost, dither, eq, spec in _refinement_cases(quad_ctx, quartic_ctx):
        oracle = LevelSetOracle(cost, dither, eq, spec)
        levels, errs = _monitor_levels(oracle, traj)
        xi, *vs = oracle._targets
        monitor_c_xi, binding_c_xi = _xi_levels(oracle, levels, errs)
        swept, probes, level = [], [], {}
        residuals, v_theta = oracle._residuals, oracle._v_theta

        def checked_residuals(phi):
            vt = v_theta(phi)
            assert np.all(vt <= level["c_theta"])
            assert np.all(oracle._env_r_xi(vt) <= level["c_xi"])
            swept.append(len(phi))
            return residuals(phi)

        def counted_v_theta(phi):
            probes.append(len(phi))
            return v_theta(phi)

        monkeypatch.setattr(oracle, "_residuals", checked_residuals)
        monkeypatch.setattr(oracle, "_v_theta", counted_v_theta)
        for j in range(0, len(levels), 7):
            for target, cx in [(xi, np.inf)] + [(v, c_xi[j]) for v in vs
                                                for c_xi in (monitor_c_xi, binding_c_xi)]:
                level.update(c_theta=levels[j], c_xi=cx)
                oracle._radii(target, levels[j : j + 1], np.array([cx]))
        monkeypatch.undo()
        assert 0 < sum(swept) < sum(probes)


def _sweep_every_probe(self, target, base, axis, ct, cx):
    """The refinement objective that sweeps every probe and masks the infeasible ones."""
    rows = np.arange(len(base))

    def objective(x):
        phi = base.copy()
        phi[rows, axis] = x
        vt = self._v_theta(phi)
        ok = (vt <= ct) & (self._env_r_xi(vt) <= cx)
        val = target.sup(cx, target.field(self._residuals(phi)))
        return np.where(ok, val, -np.inf)

    return objective


def test_feasible_probe_sweep_equals_sweeping_every_probe(quad_ctx, quartic_ctx, monkeypatch):
    for traj, cost, dither, eq, spec in _refinement_cases(quad_ctx, quartic_ctx):
        oracle = LevelSetOracle(cost, dither, eq, spec)
        levels, errs = _monitor_levels(oracle, traj)
        binding_c_xi = _xi_levels(oracle, levels, errs)[1]

        def radii():
            return [*oracle._evaluate(*errs, quantize=True),
                    *(oracle._radii(v, levels, binding_c_xi) for v in oracle._targets[1:])]

        shipped = radii()
        with monkeypatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(LevelSetOracle, "_line_objective", _sweep_every_probe)
            every = radii()
        for a, b in zip(shipped, every):
            assert np.array_equal(a, b)
