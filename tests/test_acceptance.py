"""Acceptance gate: every criterion prints one PASS/FAIL line (run with -s)."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import esc_lab as el
from esc_lab.averaging import average_flat_rhs
from esc_lab.dynamics import gesc_flat_rhs, rmspesc_flat_rhs
from esc_lab.integrate import fit_step
from esc_lab.lyapunov import LevelSetOracle

FIG1 = el.EscParams(k=1.0, epsilon=0.05, omega_l=[0.25], omega_xi=1.0)


@contextmanager
def criterion(num: int, desc: str, limit_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL — {desc}")
        raise
    elapsed = time.monotonic() - t0
    ok = elapsed < limit_s
    verdict = "PASS" if ok else "FAIL (runtime)"
    print(f"[criterion {num}] {verdict} — {desc} ({elapsed:.2f}s, limit {limit_s:.0f}s)")
    assert ok, f"criterion {num} exceeded its runtime limit: {elapsed:.2f}s >= {limit_s}s"


_CACHE: dict = {}


def _descent_runs():
    """Average trajectories, equilibria, oracles and monitors shared by criteria 7 and 8."""
    if "descent" in _CACHE:
        return _CACHE["descent"]
    runs = {}
    for name, cost, dither in (
        ("quadratic", el.quadratic_cost(1.0, 3.0), el.new_dither([0.2], [1], 10.0)),
        ("quartic", el.quartic_cost(), el.new_dither([0.02], [1], 10.0)),
    ):
        eq = el.equilibrium(cost, dither)
        oracle = LevelSetOracle(cost, dither, eq, el.LevelSpec(box=[[-4.0, 4.0]]))
        traj = el.simulate_average(cost, dither, FIG1, [2.0, 0.81, 0.0], 100.0, 0.0125, 4)
        report = el.monitor_descent(oracle, traj)
        runs[name] = (cost, eq, oracle, traj, report)
    _CACHE["descent"] = runs
    return runs


def test_criterion_1_quadratic_closed_form_agreement():
    with criterion(1, "numerical averages match the quadratic closed forms (rel 1e-9)", 5.0):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            h = rng.uniform(0.1, 10.0)
            a = rng.uniform(0.01, 0.5)
            theta = rng.uniform(-3.0, 3.0)
            xi = rng.uniform(-5.0, 5.0)
            model = el.QuadraticModel(h=h, j_opt=0.0, a=a)
            cost = el.quadratic_cost(h)
            dither = el.new_dither([a], [1], 10.0)
            maps = el.avg_maps(cost, el.PeriodQuadrature(dither), [theta], xi)
            b0 = el.fourier_coeffs(model, theta)[0]
            g_cf, g2_cf = el.quad_avg_maps(model, theta, xi)
            for num, ref in ((maps.j_bar, b0), (maps.g_bar[0], g_cf), (maps.g2_bar[0], g2_cf)):
                worst = max(worst, abs(num - ref) / max(abs(ref), 1e-300))
        assert worst <= 1e-9, f"max relative error {worst:.3e}"


def test_criterion_2_equilibrium_values():
    with criterion(2, "quadratic equilibrium (theta*, xi*, v*) = (1, 3.01, 0.0025)", 1.0):
        cost = el.parse_cost("3 + 0.5*(theta1 - 1)^2", 1)   # searched from the origin
        dither = el.new_dither([0.2], [1], 10.0)
        eq = el.equilibrium(cost, dither)
        assert abs(eq.theta_star[0] - 1.0) <= 1e-9
        assert abs(eq.xi_star - 3.01) <= 1e-9
        assert abs(eq.v_star[0] - 0.0025) <= 1e-9


def test_criterion_3_jacobian_and_eigenvalue_asymptotes():
    with criterion(3, "closed-form Jacobian vs finite differences + eigenvalue limits", 5.0):
        model = el.QuadraticModel(h=4.0, j_opt=3.0, a=0.02)
        cost = el.quadratic_cost(model.h, model.j_opt)
        dither = el.new_dither([model.a], [1], 10.0)
        eq = el.equilibrium(cost, dither)
        flat_rhs = average_flat_rhs(FIG1, cost, dither)
        rhs = lambda t, y: np.array(flat_rhs(t, [y.tolist()])[0])
        x0 = np.array([*eq.theta_star, *eq.v_star, eq.xi_star])
        num = np.zeros((3, 3))
        for j in range(3):
            step = 1e-6 * (1.0 + abs(x0[j]))
            e = np.zeros(3)
            e[j] = step
            num[:, j] = (rhs(0.0, x0 + e) - rhs(0.0, x0 - e)) / (2.0 * step)
        perm = [0, 2, 1]  # flat (theta, v, xi) -> report order (theta, xi, v)
        report = el.quad_jacobian(model, FIG1)
        assert np.max(np.abs(num[np.ix_(perm, perm)] - report.matrix)) <= 1e-6

        steep = el.quad_jacobian(el.QuadraticModel(h=1e4, j_opt=0.0, a=0.02), FIG1)
        assert abs(steep.matrix[0, 0] - (-200.0)) <= 0.05 * 200.0
        shallow = el.quad_jacobian(el.QuadraticModel(h=1e-3, j_opt=0.0, a=0.02), FIG1)
        target = -(FIG1.k / FIG1.epsilon) * 1e-3
        assert abs(shallow.matrix[0, 0] - target) <= 0.01 * abs(target)


def test_criterion_4_dither_shrinking_rates():
    with criterion(4, "gradient-error ratio ~4 per halving; equilibrium v* -> 0", 30.0):
        cost = el.quartic_cost()
        dither = el.new_dither([0.08], [1], 10.0)
        rows = el.convergence_sweep(cost, dither, [2.0], [0.08, 0.04, 0.02, 0.01])
        for coarse, fine in zip(rows, rows[1:]):
            ratio = coarse.grad_error / fine.grad_error
            assert 3.8 <= ratio <= 4.2, f"ratio {ratio:.3f} outside [3.8, 4.2]"
        v = [row.v_star_max for row in rows]
        assert all(a > b for a, b in zip(v, v[1:])), "v* not strictly decreasing"
        assert v[-1] < 1e-10


def test_criterion_5_averaging_validity():
    with criterion(5, "full-vs-average sup gap shrinks monotonically in omega", 60.0):
        cost = el.quartic_cost()
        state0 = [2.0, 0.81, 0.0]
        sample_dt = 0.05
        avg = None
        gaps = []
        for omega in (10.0, 20.0, 40.0):
            dither = el.new_dither([0.02], [1], omega)
            h, stride = fit_step(sample_dt, dither.max_step)
            full = el.simulate_rmspesc(cost, dither, FIG1, state0, 100.0, h, stride)
            if avg is None:
                avg = el.simulate_average(cost, dither, FIG1, state0, 100.0, sample_dt / 4, 4)
            assert np.allclose(full.times, avg.times, atol=1e-9)
            gaps.append(float(np.max(np.abs(full.states[:, 0] - avg.states[:, 0]))))
        assert gaps[0] > gaps[1] > gaps[2], f"gaps not monotone: {gaps}"


def test_criterion_6_qualitative_trajectory_reproduction():
    with criterion(6, "caption-parameter runs converge; normalized loop moves slower early", 60.0):
        cost = el.quartic_cost()
        dither = el.new_dither([0.02], [1], 10.0)
        h, stride = fit_step(0.01, dither.max_step)
        y0 = el.eval_cost(cost, [2.0])

        rmsp_zero = None
        for xi0 in (0.0, y0, 2.0 * y0):
            traj = el.simulate_rmspesc(cost, dither, FIG1, [2.0, 0.81, xi0], 100.0, h, stride)
            final = abs(traj.states[-1, 0])
            assert final < 0.3, f"|theta(100)| = {final:.3f} for xi0={xi0}"
            assert final < 2.0 / 4.0
            if xi0 == 0.0:
                rmsp_zero = traj

        mask = rmsp_zero.times <= 5.0
        rhs_r = rmspesc_flat_rhs(FIG1, cost, dither)
        rmsp_rate = max(
            abs(rhs_r(t, [s.tolist()])[0][0])
            for t, s in zip(rmsp_zero.times[mask], rmsp_zero.states[mask])
        )
        gesc = el.simulate_gesc(cost, dither, FIG1, [2.0, 0.0], 100.0, h, stride)
        rhs_g = gesc_flat_rhs(FIG1, cost, dither)
        gesc_rate = max(
            abs(rhs_g(t, [s.tolist()])[0][0]) for t, s in zip(gesc.times[mask], gesc.states[mask])
        )
        assert rmsp_rate < gesc_rate, f"rmsp {rmsp_rate:.2f} !< gesc {gesc_rate:.2f}"


def test_criterion_7_lyapunov_descent_and_radii_monotonicity():
    with criterion(7, "composite V non-increasing on both runs; radii monotone", 120.0):
        runs = _descent_runs()
        for name in ("quadratic", "quartic"):
            report = runs[name][-1]
            assert report.passed, f"{name}: {report.summary()}"
            assert report.tol == pytest.approx(1e-6 * report.values[0] + 1e-12)

        for name in ("quadratic", "quartic"):
            oracle = runs[name][2]
            xi, v0 = oracle._targets[:2]
            slack = lambda r: 1e-9 * (1.0 + abs(r))
            levels, ones = np.linspace(0.0, 2.0, 10), np.ones(10)
            r_xi = oracle._radii(xi, levels)
            assert all(b >= a - slack(a) for a, b in zip(r_xi, r_xi[1:])), name
            r_v_theta = oracle._radii(v0, levels, ones)
            assert all(b >= a - slack(a) for a, b in zip(r_v_theta, r_v_theta[1:])), name
            r_v_xi = oracle._radii(v0, ones, levels)
            assert all(b >= a - slack(a) for a, b in zip(r_v_xi, r_v_xi[1:])), name


def test_criterion_8_filter_error_boundedness():
    with criterion(8, "washout and RMS filter errors stay inside their initial bounds", 120.0):
        runs = _descent_runs()
        for name in ("quadratic", "quartic"):
            cost, eq, oracle, traj, _ = runs[name]
            n = cost.n
            theta_err0 = traj.states[0, :n] - eq.theta_star
            vt0 = oracle._v_theta(theta_err0[None, :])
            xi_err = traj.states[:, 2 * n] - eq.xi_star
            r_xi0 = float(oracle._radii(oracle._targets[0], vt0)[0])
            bound_xi = max(abs(xi_err[0]), r_xi0) + 1e-6
            assert np.max(np.abs(xi_err)) <= bound_xi, name

            v_xi0 = np.array([max(r_xi0, abs(xi_err[0]))])
            for i in range(n):
                v_err = traj.states[:, n + i] - eq.v_star[i]
                r_v0 = float(oracle._radii(oracle._targets[1 + i], vt0, v_xi0)[0])
                bound_v = max(abs(v_err[0]), r_v0) + 1e-6
                assert np.max(np.abs(v_err)) <= bound_v, name


def test_criterion_9_integrator_order():
    with criterion(9, "RK4 error shrinks ~16x per step halving", 1.0):
        errors = []
        for h in (0.2, 0.1, 0.05):
            traj = el.integrate_fixed(lambda t, rows: [[-x for x in r] for r in rows], [1.0],
                                      0.0, 1.0, h)
            errors.append(abs(traj.states[-1, 0] - np.exp(-1.0)))
        for coarse, fine in zip(errors, errors[1:]):
            factor = coarse / fine
            assert 14.0 <= factor <= 18.0, f"reduction factor {factor:.2f}"
