"""Level-set Lyapunov machinery for the average system.

The composite function in error coordinates is

    V = V_theta(te) + max{r_xi(V_theta(te)), |xe|}
        + sum_i max{r_v_i(V_theta(te), V_xi), |ve_i|}

where ``V_theta(te) = J(te + theta*) - J(theta*)`` and the radii are the
smallest bounding balls for the images of the averaged filter targets over
sublevel sets of V_theta:

    r_xi(c)        = max |J_bar(theta* + phi) - xi*|      s.t. V_theta(phi) <= c
    r_v_i(c, cxi)  = max |g2_bar_i(theta* + phi, xi* + eta) - v*_i|
                     s.t. V_theta(phi) <= c,  max{r_xi(V_theta(phi)), |eta|} <= cxi

The filter errors are low-pass states attracted to those images, so along
average-system trajectories V should be non-increasing; :func:`monitor_descent`
checks that numerically on recorded samples.

Radii are evaluated by dense grid search over the parameter error plus one
golden-section refinement along the best grid axis. The eta direction is
exact: the squared-estimate average is a convex quadratic in eta, so its
absolute value over an interval peaks at an endpoint or at the vertex.
Levels are memoized with a relative quantization of 1e-3, rounded upward;
the radii are monotone in their levels, so the quantization error is bounded
and one-sided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .averaging import Equilibrium, ErrorState, PeriodQuadrature, avg_g2_coeffs, to_error_coords
from .cost import CostFunction
from .integrate import Trajectory
from .signals import DitherConfig

__all__ = [
    "LevelSpec",
    "LyapunovReport",
    "DescentReport",
    "BoxEscapeError",
    "LevelSetOracle",
    "v_theta",
    "monitor_descent",
]

_QUANT_STEP = math.log1p(1e-3)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class BoxEscapeError(ValueError):
    """A sublevel set of V_theta reaches the search box boundary."""


@dataclass(frozen=True)
class LevelSpec:
    """Search geometry for the radius problems.

    ``box`` is an (n, 2) array of [lo, hi] bounds per parameter-error axis
    and must contain the origin. Grid search is exhaustive for n <= 2; for
    higher dimensions ``n_samples`` random points stand in for the grid and
    the result is only an approximation (no refinement pass).
    """

    box: np.ndarray
    grid_theta: int = 401
    grid_eta: int = 201
    n_samples: int = 20_000

    def __post_init__(self):
        box = np.asarray(self.box, dtype=float)
        if box.ndim == 1:
            box = box[None, :]
        if box.ndim != 2 or box.shape[1] != 2:
            raise ValueError("box must have shape (n, 2)")
        if np.any(box[:, 1] <= box[:, 0]):
            raise ValueError("degenerate box: every axis needs lo < hi")
        if np.any(box[:, 0] > 0.0) or np.any(box[:, 1] < 0.0):
            raise ValueError("box must contain the origin of the error coordinates")
        box.setflags(write=False)
        object.__setattr__(self, "box", box)
        if self.grid_theta < 3 or self.grid_eta < 3:
            raise ValueError("grid resolutions must be at least 3")

    @property
    def n(self) -> int:
        return self.box.shape[0]


@dataclass(frozen=True)
class LyapunovReport:
    v_theta: float
    r_xi: float
    r_v: np.ndarray
    v_xi: float
    v_v: np.ndarray
    v_total: float


@dataclass(frozen=True)
class DescentReport:
    times: np.ndarray
    values: np.ndarray
    tol: float
    passed: bool
    first_violation: Optional[int]       # sample index j with V[j+1] > V[j] + tol
    v_theta_terms: np.ndarray
    v_xi_terms: np.ndarray
    v_v_terms: np.ndarray                # (m, n)

    def summary(self) -> str:
        if self.passed:
            return f"PASS: V non-increasing within tol={self.tol:.3e} over {len(self.times)} samples"
        j = self.first_violation
        dv = self.values[j + 1] - self.values[j]
        return (
            f"FAIL: V increased by {dv:.3e} (tol {self.tol:.3e}) "
            f"between t={self.times[j]:.6g} and t={self.times[j + 1]:.6g}"
        )


def v_theta(cost: CostFunction, theta_star, theta_err) -> float:
    """Cost suboptimality V_theta(te) = J(te + theta*) - J(theta*)."""
    theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    theta_err = np.atleast_1d(np.asarray(theta_err, dtype=float))
    if theta_err.shape != theta_star.shape or theta_star.size != cost.n:
        raise ValueError("dimension mismatch between error, minimizer, and cost")
    return float(cost.f(theta_err + theta_star) - cost.f(theta_star))


def _quantize_up(c: float) -> tuple:
    """Round a level up onto a geometric grid with 1e-3 relative spacing."""
    if c <= 0.0:
        return (0, 0.0)
    k = math.ceil(math.log(c) / _QUANT_STEP - 1e-12)
    return (k, math.exp(k * _QUANT_STEP))


def _golden_max(f, lo: float, hi: float, iters: int = 64) -> float:
    """Golden-section maximization; returns the best value seen (may be -inf)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best = max(f(a), f(b), fc, fd)
    for _ in range(iters):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
            best = max(best, fd)
        else:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
            best = max(best, fc)
    return best


class LevelSetOracle:
    """Grid-backed evaluator for the radii and the composite Lyapunov function.

    Precomputes V_theta, the averaged-cost error, and the per-channel
    quadratic-in-eta coefficients of the squared-estimate average on the
    parameter-error grid, then answers level queries by masked maxima.
    The memoization cache is not locked; confine one oracle to one
    monitoring run (all other state is read-only after construction).
    """

    def __init__(
        self,
        cost: CostFunction,
        dither: DitherConfig,
        eq: Equilibrium,
        spec: LevelSpec,
        n_q: Optional[int] = None,
    ):
        if spec.n != cost.n or dither.n != cost.n:
            raise ValueError("spec, dither, and cost dimensions differ")
        self.cost = cost
        self.dither = dither
        self.eq = eq
        self.spec = spec
        self.quad = PeriodQuadrature(dither, n_q)
        self._j_star = float(cost.f(eq.theta_star))

        self._sampled = cost.n > 2
        if self._sampled:
            rng = np.random.default_rng(0)
            pts = rng.uniform(spec.box[:, 0], spec.box[:, 1], size=(spec.n_samples, cost.n))
            pts[0] = 0.0
            self._axes = None
            self._points = pts
            self._boundary_mask = np.zeros(len(pts), dtype=bool)  # no boundary notion
        else:
            axes = []
            for i in range(cost.n):
                ax = np.linspace(spec.box[i, 0], spec.box[i, 1], spec.grid_theta)
                if not np.any(ax == 0.0):
                    ax = np.sort(np.append(ax, 0.0))
                axes.append(ax)
            self._axes = axes
            mesh = np.meshgrid(*axes, indexing="ij")
            self._grid_shape = mesh[0].shape
            self._points = np.stack([m.ravel() for m in mesh], axis=-1)
            onb = np.zeros(len(self._points), dtype=bool)
            for i in range(cost.n):
                onb |= (self._points[:, i] == axes[i][0]) | (self._points[:, i] == axes[i][-1])
            self._boundary_mask = onb

        pts = self._points
        self._vt = np.asarray(
            cost.f(pts + eq.theta_star[None, :]) - self._j_star, dtype=float
        ).ravel()
        self._jbar_err, self._g2_p, self._g2_q = self._batch_fields(pts)

        if self._sampled:
            self._vt_boundary_min = np.inf
        else:
            self._vt_boundary_min = float(np.min(self._vt[self._boundary_mask]))

        # Monotone envelope of the grid radius: sort by level, prefix-max the
        # objective. env(c) = max{|jbar_err(p)| : vt(p) <= c} in O(log N).
        order = np.argsort(self._vt, kind="stable")
        self._vt_sorted = self._vt[order]
        self._jerr_prefix = np.maximum.accumulate(np.abs(self._jbar_err[order]))

        self._cache_xi: dict = {}
        self._cache_v: dict = {}

    # -- quadrature helpers -------------------------------------------------

    def _batch_fields(self, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Averaged fields on a batch of error points, one cost sweep per chunk.

        Returns J_bar(theta*+phi) - xi* plus the per-channel (p, q) of the
        decomposition g2_bar(theta*+phi, xi*+eta) = p - 2q eta + r eta^2.
        """
        n = self.cost.n
        jerr = np.empty(len(phis))
        p = np.empty((len(phis), n))
        q = np.empty((len(phis), n))
        m2 = self.quad.m2
        chunk = max(1, 2_000_000 // self.quad.n_q)
        base = self.eq.theta_star[None, None, :] + self.quad.s[None, :, :]
        for lo in range(0, len(phis), chunk):
            hi = min(lo + chunk, len(phis))
            y_c = self.cost.f(phis[lo:hi, None, :] + base) - self.eq.xi_star  # (m, n_q)
            jerr[lo:hi] = np.mean(y_c, axis=-1)
            p[lo:hi] = np.mean(m2[None, :, :] * (y_c * y_c)[:, None, :], axis=-1)
            q[lo:hi] = np.mean(m2[None, :, :] * y_c[:, None, :], axis=-1)
        return jerr, p, q

    def _point_g2_coeffs(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p, q, _ = avg_g2_coeffs(self.cost, self.quad, self.eq.theta_star + phi, self.eq.xi_star)
        return p, q

    def _point_jbar_err(self, phi: np.ndarray) -> float:
        y = self.cost.f(self.eq.theta_star + phi[None, :] + self.quad.s)
        return float(np.mean(y)) - self.eq.xi_star

    def _point_vt(self, phi: np.ndarray) -> float:
        return float(self.cost.f(self.eq.theta_star + phi) - self._j_star)

    def _env_r_xi(self, level) -> np.ndarray:
        """Grid envelope of r_xi, used inside the r_v feasibility constraint."""
        idx = np.searchsorted(self._vt_sorted, level, side="right") - 1
        idx = np.asarray(idx)
        out = np.where(idx >= 0, self._jerr_prefix[np.maximum(idx, 0)], 0.0)
        return out

    # -- eta direction (exact) ----------------------------------------------

    def _eta_abs_max(self, p, q, r: float, v_star_c: float, c_xi: float,
                     include_grid: bool = False):
        """sup over |eta| <= c_xi of |p - 2 q eta + r eta^2 - v*| for one channel.

        The quadratic is convex in eta, so the sup sits at an endpoint or at
        the vertex eta = q / r when that falls inside the interval. The
        documented eta grid adds nothing beyond those candidates; it is
        scanned only when asked, as a cross-check.
        """
        f_lo = np.abs(p + 2.0 * q * c_xi + r * c_xi**2 - v_star_c)
        f_hi = np.abs(p - 2.0 * q * c_xi + r * c_xi**2 - v_star_c)
        out = np.maximum(f_lo, f_hi)
        vertex = q / r
        inside = np.abs(vertex) <= c_xi
        f_vx = np.abs(p - vertex * q - v_star_c)  # p - 2q*e + r*e^2 at e=q/r is p - q^2/r
        out = np.where(inside, np.maximum(out, f_vx), out)
        if include_grid and c_xi > 0:
            etas = np.linspace(-c_xi, c_xi, self.spec.grid_eta)
            vals = np.abs(
                p[..., None] - 2.0 * q[..., None] * etas + r * etas**2 - v_star_c
            )
            out = np.maximum(out, vals.max(axis=-1))
        return out

    # -- radii ---------------------------------------------------------------

    def _check_box(self, c_theta: float):
        if c_theta < 0:
            raise ValueError("levels must be nonnegative")
        if c_theta >= self._vt_boundary_min:
            raise BoxEscapeError(
                f"sublevel set V_theta <= {c_theta:.6g} reaches the search box "
                f"boundary (min boundary level {self._vt_boundary_min:.6g}); widen the box"
            )

    def _best_axis_bracket(self, flat_idx: int, feasible_flat: np.ndarray, values: np.ndarray):
        """Pick the refinement axis/interval around a grid argmax."""
        if self._sampled:
            return None
        idx = np.unravel_index(flat_idx, self._grid_shape)
        best = None
        for axis in range(self.cost.n):
            for step in (-1, 1):
                nb = list(idx)
                nb[axis] += step
                if not 0 <= nb[axis] < self._grid_shape[axis]:
                    continue
                nb_flat = np.ravel_multi_index(tuple(nb), self._grid_shape)
                if not feasible_flat[nb_flat]:
                    continue
                gain = abs(values[nb_flat] - values[flat_idx])
                if best is None or gain > best[0]:
                    best = (gain, axis)
        if best is None:
            axis = 0
        else:
            axis = best[1]
        ax = self._axes[axis]
        j = idx[axis]
        lo = ax[max(j - 1, 0)]
        hi = ax[min(j + 1, len(ax) - 1)]
        return axis, lo, hi

    def radius_xi(self, c_theta: float, quantize: bool = False) -> float:
        """Bounding-ball radius for the averaged-cost error over {V_theta <= c}."""
        if quantize:
            key, c_theta = _quantize_up(c_theta)
            hit = self._cache_xi.get(key)
            if hit is not None:
                return hit
        else:
            key = None
        self._check_box(c_theta)
        feasible = self._vt <= c_theta
        vals = np.where(feasible, np.abs(self._jbar_err), -np.inf)
        flat_idx = int(np.argmax(vals))
        result = float(vals[flat_idx])
        if not self._sampled:
            bracket = self._best_axis_bracket(flat_idx, feasible, np.abs(self._jbar_err))
            axis, lo, hi = bracket
            base = self._points[flat_idx].copy()

            def objective(x: float) -> float:
                phi = base.copy()
                phi[axis] = x
                if self._point_vt(phi) > c_theta:
                    return -np.inf
                return abs(self._point_jbar_err(phi))

            result = max(result, _golden_max(objective, lo, hi))
        result = max(result, 0.0)
        if key is not None:
            self._cache_xi[key] = result
        return result

    def radius_v(self, c_theta: float, c_xi: float, channel: int = 0, quantize: bool = False) -> float:
        """Bounding-ball radius for one squared-estimate channel under both levels."""
        if not 0 <= channel < self.cost.n:
            raise ValueError(f"channel must be in [0, {self.cost.n})")
        if c_xi < 0:
            raise ValueError("levels must be nonnegative")
        if quantize:
            key_t, c_theta = _quantize_up(c_theta)
            key_x, c_xi = _quantize_up(c_xi)
            key = (key_t, key_x, channel)
            hit = self._cache_v.get(key)
            if hit is not None:
                return hit
        else:
            key = None
        self._check_box(c_theta)
        feasible = (self._vt <= c_theta) & (self._env_r_xi(self._vt) <= c_xi)
        p = self._g2_p[:, channel]
        q = self._g2_q[:, channel]
        r = float(self.quad.r[channel])
        v_star_c = float(self.eq.v_star[channel])
        heights = self._eta_abs_max(p, q, r, v_star_c, c_xi)
        vals = np.where(feasible, heights, -np.inf)
        flat_idx = int(np.argmax(vals))
        result = float(vals[flat_idx])
        if not self._sampled:
            bracket = self._best_axis_bracket(flat_idx, feasible, heights)
            axis, lo, hi = bracket
            base = self._points[flat_idx].copy()

            def objective(x: float) -> float:
                phi = base.copy()
                phi[axis] = x
                vt = self._point_vt(phi)
                if vt > c_theta or float(self._env_r_xi(vt)) > c_xi:
                    return -np.inf
                pp, qq = self._point_g2_coeffs(phi)
                return float(self._eta_abs_max(pp[channel], qq[channel], r, v_star_c, c_xi))

            result = max(result, _golden_max(objective, lo, hi))
        result = max(result, 0.0)
        if key is not None:
            self._cache_v[key] = result
        return result

    # -- composite function ---------------------------------------------------

    def value(self, err: ErrorState, quantize: bool = True) -> LyapunovReport:
        vt = v_theta(self.cost, self.eq.theta_star, err.theta_err)
        vt_for_levels = max(vt, 0.0)
        r_xi = self.radius_xi(vt_for_levels, quantize=quantize)
        v_xi_term = max(r_xi, abs(err.xi_err))
        r_v = np.empty(self.cost.n)
        v_v_terms = np.empty(self.cost.n)
        for i in range(self.cost.n):
            r_v[i] = self.radius_v(vt_for_levels, v_xi_term, i, quantize=quantize)
            v_v_terms[i] = max(r_v[i], abs(err.v_err[i]))
        return LyapunovReport(
            v_theta=vt,
            r_xi=r_xi,
            r_v=r_v,
            v_xi=v_xi_term,
            v_v=v_v_terms,
            v_total=vt + v_xi_term + float(np.sum(v_v_terms)),
        )


def monitor_descent(
    avg_trajectory: Trajectory,
    cost: CostFunction,
    dither: DitherConfig,
    eq: Equilibrium,
    spec: LevelSpec,
    tol: Optional[float] = None,
    n_q=None,
) -> DescentReport:
    """Evaluate V along a recorded average-system trajectory and check descent.

    Verdict is PASS when V(t_{j+1}) <= V(t_j) + tol for every consecutive
    pair; the default tolerance 1e-6 * V(t_0) + 1e-12 absorbs grid and
    quantization jitter in the radii.
    """
    oracle = LevelSetOracle(cost, dither, eq, spec, n_q)
    states = avg_trajectory.states
    m = len(states)
    values = np.empty(m)
    vt_terms = np.empty(m)
    vxi_terms = np.empty(m)
    vv_terms = np.empty((m, cost.n))
    for j in range(m):
        report = oracle.value(to_error_coords(states[j], eq), quantize=True)
        values[j] = report.v_total
        vt_terms[j] = report.v_theta
        vxi_terms[j] = report.v_xi
        vv_terms[j] = report.v_v
    if tol is None:
        tol = 1e-6 * values[0] + 1e-12
    diffs = np.diff(values)
    bad = np.nonzero(diffs > tol)[0]
    first = int(bad[0]) if bad.size else None
    return DescentReport(
        times=avg_trajectory.times,
        values=values,
        tol=float(tol),
        passed=first is None,
        first_violation=first,
        v_theta_terms=vt_terms,
        v_xi_terms=vxi_terms,
        v_v_terms=vv_terms,
    )
