"""Level-set Lyapunov machinery for the average system.

The composite function in error coordinates is

    V = V_theta(te) + max{r_xi(V_theta(te)), |xe|}
        + sum_i max{r_v_i(V_theta(te), V_xi), |ve_i|}

where ``V_theta(te) = J(te + theta*) - J(theta*)`` and the radii are the
smallest bounding balls for the images of the averaged filter targets over
sublevel sets of V_theta:

    r_xi(c)        = max |J_bar(theta* + phi) - xi*|      s.t. V_theta(phi) <= c
    r_v_i(c, cxi)  = max |g2_bar_i(theta* + phi, xi* + eta) - v*_i|
                     s.t. V_theta(phi) <= c,  |eta| <= cxi

The paper constrains r_v_i further, by max{r_xi(V_theta(phi)), |eta|} <= cxi.
V queries r_v_i only at cxi = V_xi >= r_xi(c), and r_xi is monotone, so there
r_xi(V_theta(phi)) <= r_xi(c) <= cxi for every phi with V_theta(phi) <= c: the
extra bound is vacuous and the two definitions agree on the domain V uses. On
the grid it is vacuous exactly when cxi >= the largest xi height under c; if
the monitor's level rounding (about 1e-15 relative) puts V_xi below that, r_v_i
here is the unconstrained sup, slightly above the constrained one.

The filter errors are low-pass states attracted to those images, so along
average-system trajectories V should be non-increasing; :func:`monitor_descent`
checks that numerically on recorded samples.

The filter cascade is an ordered list of targets, xi and then v_1 ... v_n.
Each target maps the cost residuals at the quadrature nodes to its averaged
field (J_bar - xi* for xi; the (p, q) decomposition of the squared-estimate
average from :meth:`PeriodQuadrature.g2_coeffs` for v_i). Its sup maps the
field and the levels upstream of the target in the cascade to the exact sup
of its error: xi reads no upstream level, and its sup is |J_bar - xi*|; v_i
reads cxi, and its sup over |eta| <= cxi sits at an endpoint or at the vertex
of a convex quadratic in eta. Every target's sublevel set reads c. One radius
routine serves every target: a dense grid search over the parameter error,
fed by one cost sweep that tabulates all targets, plus one golden-section
refinement along the best grid axis that applies the same field and sup off
the grid. :meth:`LevelSetOracle._radii` answers radius queries and
:meth:`LevelSetOracle._evaluate` evaluates V; both take batches. V rounds
each sample's levels upward with a relative quantization of 1e-3 (the radii
are monotone in their levels, so the error is bounded and one-sided) and
then evaluates all samples in lockstep, in two stages per target: a masked
grid argmax per sample, in chunks sized by the grid, then one batched
golden-section refinement over all samples, in which every iteration tests
every probe against the sublevel constraint and makes a single cost sweep
over the quadrature nodes of the feasible probes only (an infeasible probe
cannot raise a sup, so it scores -inf unswept). Nothing is memoized;
consecutive samples almost never share a level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .averaging import Equilibrium, PeriodQuadrature
from .cost import CostFunction
from .integrate import Trajectory
from .signals import DitherConfig

__all__ = [
    "LevelSpec",
    "DescentReport",
    "BoxEscapeError",
    "LevelSetOracle",
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


def _quantize_level(c: float) -> float:
    """Round a level up onto a geometric grid with 1e-3 relative spacing."""
    if c <= 0.0:
        return 0.0
    return math.exp(math.ceil(math.log(c) / _QUANT_STEP - 1e-12) * _QUANT_STEP)


# Elementwise over arrays of levels. It keeps the scalar math.log/math.exp:
# np.log/np.exp can differ by an ulp and move a level to the next grid point.
_quantize_up = np.vectorize(_quantize_level, otypes=[float])


def _golden_max(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Golden-section maximization on every bracket [lo_k, hi_k] in lockstep, 64 steps.

    ``f`` maps an array of abscissae (one per bracket) to objective values.
    Returns the best value seen per bracket (may be -inf).
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best = np.maximum.reduce([f(a), f(b), fc, fd])
    for _ in range(64):
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
    (k, ...) arrays; ``sup(field, *upstream)`` gives the exact sup of the filter error
    there, given the levels of the targets upstream of it: none for xi, c_xi for v_i."""

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
    field; :meth:`_radii` answers any target's level queries from those tables,
    and :meth:`_evaluate` evaluates V. Both take a batch of samples; a single
    query is a batch of one. All state is read-only after construction.
    Building raises ValueError when V_theta or a field is not finite anywhere
    on the grid (a box so large that J overflows, or a cost singular in it):
    no radius or verdict would mean anything.
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
        self.eq = eq
        self.quad = PeriodQuadrature(cost, dither)
        self._j_star = float(cost.f(eq.theta_star))
        self._node_base = eq.theta_star[:, None] + self.quad.s.T  # theta* + s_j, (n, n_q)
        xi = _Target(lambda y_c: (np.mean(y_c, axis=-1),), lambda f: np.abs(f[0]))
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

    # -- fields on batches of error points -------------------------------------

    def _v_theta(self, phi: np.ndarray) -> np.ndarray:
        """V_theta on a batch of error points (one row each)."""
        return self.cost.f(phi + self.eq.theta_star) - self._j_star

    def _residuals(self, phi: np.ndarray) -> np.ndarray:
        """Node residuals y_c = J(theta* + phi + s_j) - xi* on a batch of error points, (k, n_q)."""
        # one add per channel into contiguous columns: a broadcast add over the
        # (k, n_q, n) points would run its inner loop over only n entries at a time
        points = np.empty((self.cost.n, len(phi), self.quad.n_q))
        for i, base_i in enumerate(self._node_base):
            np.add(phi[:, i, None], base_i, out=points[i])
        return self.cost.f(np.moveaxis(points, 0, -1)) - self.eq.xi_star

    def _v_target(self, channel: int) -> _Target:
        """v_channel: field (p, q) of ``g2_coeffs``, sup over eta by :func:`_eta_abs_max`."""
        r, v_star_c = float(self.quad.r[channel]), float(self.eq.v_star[channel])
        return _Target(partial(self.quad.g2_coeffs, channel=channel),
                       lambda f, c_xi: _eta_abs_max(f[0], f[1], r, v_star_c, c_xi))

    def _fields(self, phis: np.ndarray) -> dict:
        """Every target's field on a batch of error points, one cost sweep per chunk."""
        step = max(1, _CHUNK_ELEMENTS // self.quad.n_q)
        chunks = (phis[lo:lo + step] for lo in range(0, len(phis), step))
        parts = [[t.field(y_c) for t in self._targets] for y_c in map(self._residuals, chunks)]
        return {t: tuple(map(np.concatenate, zip(*col)))
                for t, col in zip(self._targets, zip(*parts))}

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
                        ct: np.ndarray, upstream: list) -> Callable:
        """The refinement objective of k samples (all of a pass, up to ``_CHUNK_ELEMENTS``
        quadrature entries): x (k,) -> the target's error sup at ``base`` with coordinate
        ``axis`` set to x, given their ``upstream`` levels, or -inf where V_theta exceeds ``ct``.

        V_theta runs on all k probes; the node residuals, the field and the sup only on
        the feasible ones. Each row's value is independent of the others, so it is the
        same as a sweep over every probe would give.
        """
        rows = np.arange(len(base))

        def objective(x: np.ndarray) -> np.ndarray:
            phi = base.copy()
            phi[rows, axis] = x
            ok = self._v_theta(phi) <= ct
            val = np.full(len(x), -np.inf)
            val[ok] = target.sup(target.field(self._residuals(phi[ok])), *(c[ok] for c in upstream))
            return val

        return objective

    def _check_levels(self, c_theta: np.ndarray) -> None:
        """Raise BoxEscapeError at the first level whose sublevel set of V_theta reaches the
        search box boundary: no radius there is a sup over the whole set."""
        escaped = np.nonzero(c_theta >= self._vt_boundary_min)[0]
        if escaped.size:
            raise BoxEscapeError(
                f"sublevel set V_theta <= {c_theta[escaped[0]]:.6g} reaches the search box "
                f"boundary (min boundary level {self._vt_boundary_min:.6g}); widen the box"
            )

    def _theta_levels(self, theta_err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """V_theta on a batch of error points and the levels V takes its radii at: V_theta
        rounded up by :func:`_quantize_level`. Raises the BoxEscapeError that :meth:`_evaluate`
        raises for those points, before any radius is taken."""
        vt = self._v_theta(theta_err)
        levels = _quantize_up(np.maximum(vt, 0.0))
        self._check_levels(levels)
        return vt, levels

    def _radii(self, target: _Target, c_theta: np.ndarray, *upstream: np.ndarray) -> np.ndarray:
        """One target's radii for a batch of levels: the sup of its error over the points
        with V_theta <= c_theta, given the levels ``upstream`` of it, one array each: none
        for xi, and c_xi for a v target, whose sup runs over |eta| <= c_xi as well. That
        is the paper's r_v on the domain c_xi >= r_xi(c_theta), the only one V queries
        (see the module docstring). A level the target does not read, or one it lacks,
        raises TypeError; a level that escapes the box raises BoxEscapeError.

        Two stages, each over chunks of at most ``_CHUNK_ELEMENTS`` entries. The masked
        grid argmax, chunked by the grid size, leaves each sample's argmax, best grid value
        and, on the grid path, refinement axis and bracket. Then one lockstep golden-section
        refinement along each sample's axis (:meth:`_line_objective`), chunked by n_q * n,
        one pass for any bundled run. Rows are independent, so no chunk size moves a bit.
        """
        if any(np.any(c < 0) for c in (c_theta, *upstream)):
            raise ValueError("levels must be nonnegative")
        self._check_levels(c_theta)
        table, m = self._tables[target], len(c_theta)
        idx, best = np.empty(m, dtype=int), np.empty(m)
        axis, a, b = np.empty(m, dtype=int), np.empty(m), np.empty(m)
        chunk = max(1, _CHUNK_ELEMENTS // len(self._vt))
        for sl in (slice(lo, lo + chunk) for lo in range(0, m, chunk)):
            feasible = self._vt <= c_theta[sl, None]
            heights = np.broadcast_to(target.sup(table, *(c[sl, None] for c in upstream)),
                                      feasible.shape)
            vals = np.where(feasible, heights, -np.inf)
            idx[sl] = np.argmax(vals, axis=1)
            best[sl] = vals[np.arange(len(vals)), idx[sl]]
            if self._axes is not None:
                axis[sl], a[sl], b[sl] = self._best_axis_bracket(idx[sl], feasible, heights)
            del feasible, heights, vals  # free this chunk's (k, N) arrays before the next allocates
        if self._axes is not None:
            chunk = max(1, _CHUNK_ELEMENTS // (self.quad.n_q * self.cost.n))
            for sl in (slice(lo, lo + chunk) for lo in range(0, m, chunk)):
                objective = self._line_objective(target, self._points[idx[sl]], axis[sl],
                                                 c_theta[sl], [c[sl] for c in upstream])
                best[sl] = np.maximum(best[sl], _golden_max(objective, a[sl], b[sl]))
        return np.maximum(best, 0.0)

    # -- composite function ---------------------------------------------------

    def _evaluate(self, theta_err: np.ndarray, v_err: np.ndarray, xi_err: np.ndarray):
        """V and its terms for a batch of error states (one row per sample).

        The radii are taken at the levels V_theta and V_xi rounded up by
        :func:`_quantize_level`. Returns (V_theta, r_xi, V_xi, r_v, V_v, V); r_v and
        V_v are (m, n).
        """
        vt, levels = self._theta_levels(theta_err)
        xi, *vs = self._targets
        r_xi = self._radii(xi, levels)
        v_xi = np.maximum(r_xi, np.abs(xi_err))
        c_xi = _quantize_up(v_xi)
        r_v = np.stack([self._radii(v, levels, c_xi) for v in vs], axis=1)
        v_v = np.maximum(r_v, np.abs(v_err))
        return vt, r_xi, v_xi, r_v, v_v, vt + v_xi + np.sum(v_v, axis=1)


def monitor_descent(oracle: LevelSetOracle, avg_trajectory: Trajectory) -> DescentReport:
    """Evaluate V along a recorded average-system trajectory and check descent.

    ``oracle`` holds the equilibrium and the radius tables; one oracle serves
    any number of trajectories. Verdict is PASS when V(t_{j+1}) <= V(t_j) + tol
    for every consecutive pair. The tolerance is fixed at
    tol = 1e-6 * V(t_0) + 1e-12, which absorbs grid and quantization jitter in
    the radii; no caller can loosen it, and :attr:`DescentReport.tol` reports it.
    """
    eq = oracle.eq
    states = np.asarray(avg_trajectory.states, dtype=float)
    n = oracle.cost.n
    if states.ndim != 2 or states.shape[1] != 2 * n + 1:
        raise ValueError(f"expected flat states of length {2 * n + 1}, got shape {states.shape}")
    vt_terms, _, vxi_terms, _, vv_terms, values = oracle._evaluate(
        states[:, :n] - eq.theta_star,
        states[:, n : 2 * n] - eq.v_star,
        states[:, 2 * n] - eq.xi_star,
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
