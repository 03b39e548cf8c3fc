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

The filter cascade is an ordered list of targets, xi and then v_1 ... v_n.
Each target maps the cost residuals at the quadrature nodes to its averaged
field (J_bar - xi* for xi; the (p, q) decomposition of the squared-estimate
average from :meth:`PeriodQuadrature.g2_coeffs` for v_i) and the field to
the exact sup of its error over the eta interval: |J_bar - xi*| for xi, and
for v_i the endpoint or vertex of a convex quadratic in eta. One radius
routine serves every target: a dense grid search over the parameter error,
fed by one cost sweep that tabulates all targets, plus one golden-section
refinement along the best grid axis that applies the same field and sup off
the grid. The descent monitor rounds each sample's levels upward with a
relative quantization of 1e-3 (the radii are monotone in their levels, so
the error is bounded and one-sided) and then evaluates all samples in
lockstep: one masked grid argmax per sample, and one batched golden-section
refinement in which every iteration tests all samples' probes against the
sublevel and envelope constraints and then makes a single cost sweep over
the quadrature nodes of the feasible probes only (an infeasible probe
cannot raise a sup, so it scores -inf unswept). Nothing is memoized;
consecutive samples almost never share a level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .averaging import Equilibrium, ErrorState, PeriodQuadrature
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
# Entries per batched array (512 KB of float64): the monitor's temporaries stay
# cache-sized and its peak memory near that of a per-sample loop.
_CHUNK_ELEMENTS = 1 << 16


class BoxEscapeError(ValueError):
    """A sublevel set of V_theta reaches the search box boundary."""


@dataclass(frozen=True)
class LevelSpec:
    """Search geometry for the radius problems.

    ``box`` is an (n, 2) array of [lo, hi] bounds per parameter-error axis
    and must contain the origin. Grid search is exhaustive for n <= 2; for
    higher dimensions ``n_samples`` random points stand in for the grid and
    the result is only an approximation (no refinement pass). A level at or
    above the minimum of V_theta on the box faces raises
    :class:`BoxEscapeError`. For n > 2 that minimum is taken over the samples
    moved onto their nearest face; it is at least the true face minimum, so
    the check is one-sided: a level between the two escapes undetected.
    """

    box: np.ndarray
    grid_theta: int = 401
    n_samples: int = 20_000

    def __post_init__(self):
        box = np.asarray(self.box, dtype=float)
        if box.ndim == 1:
            box = box[None, :]
        if box.ndim != 2 or box.shape[1] != 2:
            raise ValueError("box must have shape (n, 2)")
        if not np.all(np.isfinite(box)):
            raise ValueError("box bounds must be finite")
        if np.any(box[:, 1] <= box[:, 0]):
            raise ValueError("degenerate box: every axis needs lo < hi")
        if np.any(box[:, 0] > 0.0) or np.any(box[:, 1] < 0.0):
            raise ValueError("box must contain the origin of the error coordinates")
        box.setflags(write=False)
        object.__setattr__(self, "box", box)
        if self.grid_theta < 3:
            raise ValueError("grid resolutions must be at least 3")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")

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


def _quantize_level(c: float) -> float:
    """Round a level up onto a geometric grid with 1e-3 relative spacing."""
    if c <= 0.0:
        return 0.0
    return math.exp(math.ceil(math.log(c) / _QUANT_STEP - 1e-12) * _QUANT_STEP)


# Elementwise over arrays of levels. It keeps the scalar math.log/math.exp:
# np.log/np.exp can differ by an ulp and move a level to the next grid point.
_quantize_up = np.vectorize(_quantize_level, otypes=[float])


def _golden_max(f, lo: np.ndarray, hi: np.ndarray, iters: int = 64) -> np.ndarray:
    """Golden-section maximization on every bracket [lo_k, hi_k] in lockstep.

    ``f`` maps an array of abscissae (one per bracket) to objective values.
    Returns the best value seen per bracket (may be -inf).
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best = np.maximum.reduce([f(a), f(b), fc, fd])
    for _ in range(iters):
        right = fc < fd  # keep [c, b] and probe a new d; else keep [a, d] and probe a new c
        a, b = np.where(right, c, a), np.where(right, b, d)
        c, d = np.where(right, d, b - _GOLDEN * (b - a)), np.where(right, a + _GOLDEN * (b - a), c)
        fx = f(np.where(right, d, c))
        fc, fd = np.where(right, fd, fx), np.where(right, fx, fc)
        best = np.maximum(best, fx)
    return best


def _eta_abs_max(p, q, r: float, v_star_c: float, c_xi):
    """sup over |eta| <= c_xi of |p - 2 q eta + r eta^2 - v*| for one channel.

    The quadratic is convex in eta, so the sup sits at an endpoint or at
    the vertex eta = q / r when that falls inside the interval; no eta
    grid is needed. Broadcasts over arrays of (p, q) and of c_xi.
    """
    f_lo = np.abs(p + 2.0 * q * c_xi + r * c_xi**2 - v_star_c)
    f_hi = np.abs(p - 2.0 * q * c_xi + r * c_xi**2 - v_star_c)
    out = np.maximum(f_lo, f_hi)
    vertex = q / r
    inside = np.abs(vertex) <= c_xi
    f_vx = np.abs(p - vertex * q - v_star_c)  # p - 2q*e + r*e^2 at e=q/r is p - q^2/r
    return np.where(inside, np.maximum(out, f_vx), out)


class _Target(NamedTuple):
    """One filter of the cascade: ``field`` maps node residuals (k, n_q) to a tuple of
    (k, ...) arrays, ``sup(c_xi, field)`` gives the exact sup of the filter error there."""

    field: Callable
    sup: Callable


def _onto_nearest_face(points: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Each point with its coordinate nearest a box face (in box units) moved onto that face."""
    width = box[:, 1] - box[:, 0]
    gaps = np.concatenate([(points - box[:, 0]) / width, (box[:, 1] - points) / width], axis=1)
    side, axis = np.divmod(np.argmin(gaps, axis=1), points.shape[1])
    out = points.copy()
    out[np.arange(len(out)), axis] = box[axis, side]
    return out


class LevelSetOracle:
    """Grid-backed evaluator for the radii and the composite Lyapunov function.

    The filter cascade is an ordered list of targets: xi (field J_bar - xi*,
    sup its absolute value), then v_1 ... v_n (field the (p, q) of
    :meth:`PeriodQuadrature.g2_coeffs`, sup :func:`_eta_abs_max`). One cost
    sweep over the parameter-error grid tabulates V_theta and every target's
    field; :meth:`_radii` answers any target's level queries from those tables.
    Queries are batched over samples; the scalar methods are the one-sample
    case. All state is read-only after construction. Building raises
    ValueError when V_theta or a field is not finite anywhere on the grid (a
    box so large that J overflows, or a cost singular in it): no radius or
    verdict would mean anything.
    """

    def __init__(
        self,
        cost: CostFunction,
        dither: DitherConfig,
        eq: Equilibrium,
        spec: LevelSpec,
    ):
        if spec.n != cost.n or dither.n != cost.n:
            raise ValueError("spec, dither, and cost dimensions differ")
        self.cost = cost
        self.dither = dither
        self.eq = eq
        self.spec = spec
        self.quad = PeriodQuadrature(dither)
        self._j_star = float(cost.f(eq.theta_star))
        self._node_base = eq.theta_star[None, :] + self.quad.s  # theta* + s_j, (n_q, n)
        xi = _Target(lambda y_c: (np.mean(y_c, axis=-1),), lambda c_xi, f: np.abs(f[0]))
        self._targets = [xi] + [self._v_target(i) for i in range(cost.n)]

        if cost.n > 2:
            rng = np.random.default_rng(0)
            pts = rng.uniform(spec.box[:, 0], spec.box[:, 1], size=(spec.n_samples, cost.n))
            pts[0] = 0.0
            self._axes = None
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
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
        self._points = pts
        self._vt = self._v_theta(pts)
        self._tables = self._fields(pts)
        if not (np.all(np.isfinite(self._vt))
                and all(np.all(np.isfinite(a)) for table in self._tables.values() for a in table)):
            raise ValueError("J or an averaged filter target is not finite on the level-set "
                             f"grid over the box {spec.box.tolist()}: J overflows there or "
                             "is singular in it")
        # On the grid the moved points are exactly the boundary points; sampled,
        # their minimum is at least the true minimum over the faces.
        self._vt_boundary_min = float(np.min(self._v_theta(_onto_nearest_face(pts, spec.box))))

        # Monotone envelope of the grid radius: sort by level, prefix-max the
        # xi target's heights. env(c) = max{|jbar_err(p)| : vt(p) <= c} in O(log N).
        order = np.argsort(self._vt, kind="stable")
        self._vt_sorted = self._vt[order]
        self._r_xi_prefix = np.maximum.accumulate(xi.sup(np.inf, self._tables[xi])[order])

        self._vt_env = self._env_r_xi(self._vt)

    # -- fields on batches of error points -------------------------------------

    def _v_theta(self, phi: np.ndarray) -> np.ndarray:
        """V_theta on a batch of error points (one row each)."""
        return self.cost.f(phi + self.eq.theta_star) - self._j_star

    def _residuals(self, phi: np.ndarray) -> np.ndarray:
        """Node residuals y_c = J(theta* + phi + s_j) - xi* on a batch of error points, (k, n_q)."""
        return self.cost.f(phi[:, None, :] + self._node_base) - self.eq.xi_star

    def _v_target(self, channel: int) -> _Target:
        """v_channel: field (p, q) of ``g2_coeffs``, sup over eta by :func:`_eta_abs_max`."""
        r, v_star_c = float(self.quad.r[channel]), float(self.eq.v_star[channel])
        return _Target(partial(self.quad.g2_coeffs, channel=channel),
                       lambda c_xi, f: _eta_abs_max(f[0], f[1], r, v_star_c, c_xi))

    def _fields(self, phis: np.ndarray) -> dict:
        """Every target's field on a batch of error points, one cost sweep per chunk."""
        step = max(1, _CHUNK_ELEMENTS // self.quad.n_q)
        chunks = (phis[lo:lo + step] for lo in range(0, len(phis), step))
        parts = [[t.field(y_c) for t in self._targets] for y_c in map(self._residuals, chunks)]
        return {t: tuple(map(np.concatenate, zip(*col)))
                for t, col in zip(self._targets, zip(*parts))}

    def _env_r_xi(self, level) -> np.ndarray:
        """Grid envelope of r_xi, used inside the r_v feasibility constraint."""
        idx = np.searchsorted(self._vt_sorted, level, side="right") - 1
        return np.where(idx >= 0, self._r_xi_prefix[np.maximum(idx, 0)], 0.0)

    # -- radii ---------------------------------------------------------------

    def _best_axis_bracket(self, idx: np.ndarray, feasible: np.ndarray, heights: np.ndarray):
        """Per sample, the refinement axis and interval around its grid argmax.

        The axis is the one whose feasible grid neighbour changes the
        objective most (the first such axis on ties, axis 0 if none is
        feasible); the interval spans the neighbours on that axis.
        """
        rows = np.arange(len(idx))
        sub = np.array(np.unravel_index(idx, self._grid_shape))  # (n, k)
        h0 = heights[rows, idx]
        best_gain = np.full(len(idx), -np.inf)
        axis = np.zeros(len(idx), dtype=int)
        for a, size in enumerate(self._grid_shape):
            for step in (-1, 1):
                nb = sub.copy()
                nb[a] += step
                inside = (nb[a] >= 0) & (nb[a] < size)
                nb[a] = np.clip(nb[a], 0, size - 1)
                nb_flat = np.ravel_multi_index(tuple(nb), self._grid_shape)
                gain = np.abs(heights[rows, nb_flat] - h0)
                take = inside & feasible[rows, nb_flat] & (gain > best_gain)
                best_gain = np.where(take, gain, best_gain)
                axis = np.where(take, a, axis)
        j = sub[axis, rows]
        lo = np.empty(len(idx))
        hi = np.empty(len(idx))
        for a, ax in enumerate(self._axes):
            on = axis == a
            lo[on] = ax[np.maximum(j[on] - 1, 0)]
            hi[on] = ax[np.minimum(j[on] + 1, len(ax) - 1)]
        return axis, lo, hi

    def _line_objective(self, target: _Target, base: np.ndarray, axis: np.ndarray,
                        ct: np.ndarray, cx: np.ndarray) -> Callable:
        """The refinement objective of a chunk of k samples: x (k,) -> the target's error sup
        at ``base`` with coordinate ``axis`` set to x, or -inf where the point is infeasible.

        V_theta and the envelope test run on all k probes; the node residuals, the field
        and the sup only on the feasible ones. Each row's value is independent of the
        others, so it is the same as a sweep over every probe would give.
        """
        rows = np.arange(len(base))

        def objective(x: np.ndarray) -> np.ndarray:
            phi = base.copy()
            phi[rows, axis] = x
            vt = self._v_theta(phi)
            ok = (vt <= ct) & (self._env_r_xi(vt) <= cx)
            val = np.full(len(x), -np.inf)
            val[ok] = target.sup(cx[ok], target.field(self._residuals(phi[ok])))
            return val

        return objective

    def _radii(self, target: _Target, c_theta: np.ndarray, c_xi: np.ndarray) -> np.ndarray:
        """One target's radii for a batch of levels: the sup of its error over the points
        with V_theta <= c_theta and env_r_xi(V_theta) <= c_xi (xi is queried with c_xi = inf,
        which makes that constraint vacuous).

        Samples run in chunks of at most ``_CHUNK_ELEMENTS`` grid (or quadrature) entries:
        a masked grid argmax each, then on the grid path one lockstep golden-section
        refinement along each sample's best axis (:meth:`_line_objective`). Every
        iteration tests all samples' probes for feasibility and applies the target's
        field and sup to one cost sweep over the quadrature nodes of the feasible probes
        only; an infeasible probe scores -inf without a sweep.
        """
        if np.any(c_theta < 0):
            raise ValueError("levels must be nonnegative")
        escaped = np.nonzero(c_theta >= self._vt_boundary_min)[0]
        if escaped.size:
            raise BoxEscapeError(
                f"sublevel set V_theta <= {c_theta[escaped[0]]:.6g} reaches the search box "
                f"boundary (min boundary level {self._vt_boundary_min:.6g}); widen the box"
            )
        table = self._tables[target]
        out = np.empty(len(c_theta))
        chunk = max(1, _CHUNK_ELEMENTS // max(len(self._vt), self.quad.n_q * self.cost.n))
        for lo in range(0, len(c_theta), chunk):
            sl = slice(lo, lo + chunk)
            ct, cx = c_theta[sl], c_xi[sl]
            feasible = (self._vt <= ct[:, None]) & (self._vt_env <= cx[:, None])
            heights = np.broadcast_to(target.sup(cx[:, None], table), feasible.shape)
            vals = np.where(feasible, heights, -np.inf)
            idx = np.argmax(vals, axis=1)
            rows = np.arange(len(idx))
            best = vals[rows, idx]
            if self._axes is not None:
                axis, a, b = self._best_axis_bracket(idx, feasible, heights)
                objective = self._line_objective(target, self._points[idx], axis, ct, cx)
                best = np.maximum(best, _golden_max(objective, a, b))
            out[sl] = np.maximum(best, 0.0)
            del feasible, heights, vals  # free this chunk's (k, N) arrays before the next allocates
        return out

    def radius_xi(self, c_theta: float, quantize: bool = False) -> float:
        """Bounding-ball radius for the averaged-cost error over {V_theta <= c}."""
        levels = np.array([c_theta], dtype=float)
        if quantize:
            levels = _quantize_up(levels)
        return float(self._radii(self._targets[0], levels, np.full(1, np.inf))[0])

    def radius_v(self, c_theta: float, c_xi: float, channel: int = 0, quantize: bool = False) -> float:
        """Bounding-ball radius for one squared-estimate channel under both levels."""
        if not 0 <= channel < self.cost.n:
            raise ValueError(f"channel must be in [0, {self.cost.n})")
        if c_xi < 0:
            raise ValueError("levels must be nonnegative")
        levels = np.array([c_theta, c_xi], dtype=float)
        if quantize:
            levels = _quantize_up(levels)
        return float(self._radii(self._targets[1 + channel], levels[:1], levels[1:])[0])

    # -- composite function ---------------------------------------------------

    def _evaluate(self, theta_err: np.ndarray, v_err: np.ndarray, xi_err: np.ndarray,
                  quantize: bool):
        """V and its terms for a batch of error states (one row per sample).

        Returns (V_theta, r_xi, V_xi, r_v, V_v, V); r_v and V_v are (m, n).
        """
        vt = self._v_theta(theta_err)
        levels = np.maximum(vt, 0.0)
        if quantize:
            levels = _quantize_up(levels)
        xi, *vs = self._targets
        r_xi = self._radii(xi, levels, np.full(len(levels), np.inf))
        v_xi = np.maximum(r_xi, np.abs(xi_err))
        c_xi = _quantize_up(v_xi) if quantize else v_xi
        r_v = np.stack([self._radii(v, levels, c_xi) for v in vs], axis=1)
        v_v = np.maximum(r_v, np.abs(v_err))
        return vt, r_xi, v_xi, r_v, v_v, vt + v_xi + np.sum(v_v, axis=1)

    def value(self, err: ErrorState, quantize: bool = True) -> LyapunovReport:
        vt, r_xi, v_xi, r_v, v_v, total = self._evaluate(
            err.theta_err[None, :], err.v_err[None, :], np.array([err.xi_err]), quantize
        )
        return LyapunovReport(
            v_theta=float(vt[0]),
            r_xi=float(r_xi[0]),
            r_v=r_v[0],
            v_xi=float(v_xi[0]),
            v_v=v_v[0],
            v_total=float(total[0]),
        )


def monitor_descent(
    avg_trajectory: Trajectory,
    cost: CostFunction,
    dither: DitherConfig,
    eq: Equilibrium,
    spec: LevelSpec,
) -> DescentReport:
    """Evaluate V along a recorded average-system trajectory and check descent.

    Verdict is PASS when V(t_{j+1}) <= V(t_j) + tol for every consecutive
    pair. The tolerance is fixed at tol = 1e-6 * V(t_0) + 1e-12, which absorbs
    grid and quantization jitter in the radii; no caller can loosen it, and
    :attr:`DescentReport.tol` reports it.
    """
    oracle = LevelSetOracle(cost, dither, eq, spec)
    states = np.asarray(avg_trajectory.states, dtype=float)
    n = cost.n
    if states.ndim != 2 or states.shape[1] != 2 * n + 1:
        raise ValueError(f"expected flat states of length {2 * n + 1}, got shape {states.shape}")
    vt_terms, _, vxi_terms, _, vv_terms, values = oracle._evaluate(
        states[:, :n] - eq.theta_star,
        states[:, n : 2 * n] - eq.v_star,
        states[:, 2 * n] - eq.xi_star,
        quantize=True,
    )
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
