"""Cost functions: builtin families, gradients, and heuristic assumption checks.

A :class:`CostFunction` bundles a scalar field J with an optional analytic
gradient and an optional known minimizer. Evaluators are vectorized: they
accept arrays of shape (..., n) and return shape (...).

The closed loop only ever observes J through measurements, so the assumption
checks here (smoothness, unique minimum, unique stationary point, radial
growth) are grid heuristics: they can produce concrete counterexamples but
never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expressions import compile_expression

__all__ = [
    "CostFunction",
    "AssumptionReport",
    "Verdict",
    "quadratic_cost",
    "quartic_cost",
    "shifted_quartic_cost",
    "eval_cost",
    "grad_cost",
    "finite_difference_gradient",
    "check_assumptions",
    "parse_cost",
]

@dataclass(frozen=True)
class CostFunction:
    n: int
    f: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    theta_star: Optional[np.ndarray] = None
    name: str = "cost"
    expr: Optional[str] = None

    def __call__(self, theta) -> np.ndarray:
        return self.f(np.asarray(theta, dtype=float))


def eval_cost(cost: CostFunction, theta) -> float:
    """Evaluate J(theta) for a single parameter vector."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (cost.n,):
        raise ValueError(f"expected parameter vector of length {cost.n}, got shape {theta.shape}")
    return float(cost.f(theta))


def finite_difference_gradient(cost: CostFunction, theta: np.ndarray) -> np.ndarray:
    """Central finite differences with per-component step 1e-5 * (1 + |theta_i|)."""
    theta = np.asarray(theta, dtype=float)
    h = 1e-5 * (1.0 + np.abs(theta))
    plus = theta[None, :] + np.diag(h)
    minus = theta[None, :] - np.diag(h)
    return (cost.f(plus) - cost.f(minus)) / (2.0 * h)


def grad_cost(cost: CostFunction, theta) -> np.ndarray:
    """Gradient of J: analytic when available, otherwise central finite differences."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (cost.n,):
        raise ValueError(f"expected parameter vector of length {cost.n}, got shape {theta.shape}")
    if cost.grad is not None:
        return np.asarray(cost.grad(theta), dtype=float)
    return finite_difference_gradient(cost, theta)


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------

def _format_num(x: float) -> str:
    return repr(float(x))


def quadratic_cost(h, j_opt: float = 0.0, theta_star=None, n: Optional[int] = None) -> CostFunction:
    """J(theta) = j_opt + 0.5 * (theta - theta*)' H (theta - theta*), H symmetric positive definite.

    ``h`` may be a scalar, a vector of diagonal curvatures, or a full matrix.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim == 0:
        n = n or 1
        hmat = np.eye(n) * float(h)
    elif h.ndim == 1:
        n = h.size
        hmat = np.diag(h)
    else:
        if h.shape[0] != h.shape[1]:
            raise ValueError("curvature matrix must be square")
        n = h.shape[0]
        hmat = 0.5 * (h + h.T)
    eigs = np.linalg.eigvalsh(hmat)
    if np.any(eigs <= 0.0):
        raise ValueError("curvature matrix must be positive definite")
    star = np.zeros(n) if theta_star is None else np.asarray(theta_star, dtype=float)
    if star.shape != (n,):
        raise ValueError(f"theta_star must have length {n}")

    def f(x):
        d = x - star
        return j_opt + 0.5 * np.einsum("...i,ij,...j->...", d, hmat, d)

    def grad(x):
        return (x - star) @ hmat

    terms = [_format_num(j_opt)]
    for i in range(n):
        for j in range(i, n):
            c = hmat[i, j] if i == j else 2.0 * hmat[i, j]
            if c == 0.0:
                continue
            xi = f"theta{i + 1}" if star[i] == 0 else f"(theta{i + 1} - {_format_num(star[i])})"
            xj = f"theta{j + 1}" if star[j] == 0 else f"(theta{j + 1} - {_format_num(star[j])})"
            if i == j:
                terms.append(f"0.5*{_format_num(c)}*{xi}^2")
            else:
                terms.append(f"0.5*{_format_num(c)}*{xi}*{xj}")
    return CostFunction(
        n=n,
        f=f,
        grad=grad,
        theta_star=star,
        name="quadratic",
        expr=" + ".join(terms),
    )


def quartic_cost() -> CostFunction:
    """Scalar quartic J(theta) = theta^4 / 24, flat at its minimizer."""
    return shifted_quartic_cost(np.zeros(1), name="quartic")


def shifted_quartic_cost(theta_star, name: str = "shifted_quartic") -> CostFunction:
    """J(theta) = sum_i (theta_i - theta*_i)^4 / 24.

    ``f`` raises |theta - theta*| rather than theta - theta* to the fourth
    power. The value is the same to an ulp, but numpy's vectorized power is
    fast only for positive bases: a negative base goes through a scalar
    ``pow`` call, about 35 times slower (150 vs 4.3 ns per point on a
    (501, 256) array, 2-vCPU AVX-512 x86 host). The abs also makes J exactly
    even about theta*.
    """
    star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    n = star.size

    def f(x):
        return np.sum(np.abs(x - star) ** 4, axis=-1) / 24.0

    def grad(x):
        return (x - star) ** 3 / 6.0

    pieces = []
    for i in range(n):
        xi = f"theta{i + 1}" if star[i] == 0 else f"(theta{i + 1} - {_format_num(star[i])})"
        pieces.append(f"{xi}^4 / 24")
    return CostFunction(
        n=n,
        f=f,
        grad=grad,
        theta_star=star,
        name=name,
        expr=" + ".join(pieces),
    )


def parse_cost(expr: str, n: int) -> CostFunction:
    """Build a cost from an arithmetic expression over theta1..thetaN.

    The gradient falls back to central finite differences.
    """
    evaluate = compile_expression(expr, n)
    return CostFunction(n=n, f=evaluate, grad=None, theta_star=None, name="expr", expr=expr)


# ---------------------------------------------------------------------------
# Assumption checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    status: str  # "pass" | "fail" | "indeterminate"
    witness: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.status == "fail" and self.witness is None:
            raise ValueError("a fail verdict requires a witness point")


@dataclass(frozen=True)
class AssumptionReport:
    smooth: Verdict                 # J continuously differentiable
    unique_minimum: Verdict         # single global minimizer
    unique_stationary_point: Verdict  # gradient vanishes only at the minimizer
    radially_unbounded: Verdict     # growth along boundary rays (heuristic)
    box: np.ndarray
    grid_n: int

    @property
    def all_ok(self) -> bool:
        return (
            self.smooth.status == "pass"
            and self.unique_minimum.status == "pass"
            and self.unique_stationary_point.status == "pass"
            and self.radially_unbounded.status != "fail"
        )


def _grid_points(box: np.ndarray, grid_n: int):
    axes = [np.linspace(lo, hi, grid_n) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    return axes, points


def _local_minima_mask(jgrid: np.ndarray) -> np.ndarray:
    """Strictly below every axis neighbor (missing neighbors treated as +inf)."""
    mask = np.ones_like(jgrid, dtype=bool)
    for axis in range(jgrid.ndim):
        hi = np.full_like(jgrid, np.inf)
        lo = np.full_like(jgrid, np.inf)
        sl_all = [slice(None)] * jgrid.ndim
        sl_fwd, sl_bwd = list(sl_all), list(sl_all)
        sl_fwd[axis] = slice(None, -1)
        sl_bwd[axis] = slice(1, None)
        hi[tuple(sl_fwd)] = jgrid[tuple(sl_bwd)]
        lo[tuple(sl_bwd)] = jgrid[tuple(sl_fwd)]
        mask &= (jgrid < hi) & (jgrid < lo)
    return mask


def _connected_components(mask: np.ndarray) -> np.ndarray:
    """Axis-adjacency labeling of a boolean grid; 0 marks background."""
    labels = np.zeros(mask.shape, dtype=np.int32)
    current = 0
    for start in zip(*np.nonzero(mask & (labels == 0))):
        if labels[start]:
            continue
        current += 1
        frontier = [start]
        labels[start] = current
        while frontier:
            idx = frontier.pop()
            for axis in range(mask.ndim):
                for step in (-1, 1):
                    nb = list(idx)
                    nb[axis] += step
                    if not 0 <= nb[axis] < mask.shape[axis]:
                        continue
                    nb = tuple(nb)
                    if mask[nb] and not labels[nb]:
                        labels[nb] = current
                        frontier.append(nb)
    return labels


def check_assumptions(cost: CostFunction, box, grid_n: int) -> AssumptionReport:
    """Grid-based spot check of the standing assumptions on J.

    Returns per-assumption verdicts; failures carry a witness point. The
    radial-growth check can only ever report pass/indeterminate/fail on the
    sampled box, never a proof.
    """
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = box[None, :]
    if box.shape != (cost.n, 2):
        raise ValueError(f"box must have shape ({cost.n}, 2)")
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("degenerate box: every axis needs lo < hi")
    if grid_n < 3:
        raise ValueError("grid_n must be at least 3 per axis")

    axes, points = _grid_points(box, grid_n)
    shape = (grid_n,) * cost.n
    jvals = cost.f(points)
    jgrid = jvals.reshape(shape)
    spacing = np.array([(hi - lo) / (grid_n - 1) for lo, hi in box])

    # A1: central differences at step h and h/2 should agree for a C1 field.
    def fd(step_scale):
        h = step_scale * (1.0 + np.abs(points))
        g = np.empty_like(points)
        for i in range(cost.n):
            shift = np.zeros_like(points)
            shift[:, i] = h[:, i]
            g[:, i] = (cost.f(points + shift) - cost.f(points - shift)) / (2.0 * h[:, i])
        return g

    g_h = fd(1e-5)
    g_h2 = fd(5e-6)
    scale = 1.0 + np.linalg.norm(g_h2, axis=-1)
    mismatch = np.linalg.norm(g_h - g_h2, axis=-1) / scale
    worst = int(np.argmax(mismatch))
    if mismatch[worst] > 1e-2:
        smooth = Verdict("fail", points[worst])
    else:
        smooth = Verdict("pass")

    # A2: every strict local minimum must sit in one small cluster.
    argmin_flat = int(np.argmin(jvals))
    argmin_point = points[argmin_flat]
    minima_idx = np.nonzero(_local_minima_mask(jgrid).ravel())[0]
    competing = Verdict("pass")
    if minima_idx.size:
        min_points = points[minima_idx]
        dist = np.max(np.abs(min_points - argmin_point) / spacing, axis=-1)
        far = dist > 2.0
        if np.any(far):
            witness = min_points[np.argmax(dist)]
            competing = Verdict("fail", witness)

    # A3: stationary regions (small gradient) must form one connected component.
    gmag = np.linalg.norm(g_h2, axis=-1)
    tau = 1e-3 * (1.0 + gmag.max())
    stationary = gmag < tau
    stationary[argmin_flat] = True
    labels = _connected_components(stationary.reshape(shape))
    n_components = labels.max()
    if n_components <= 1:
        stationary_verdict = Verdict("pass")
    else:
        argmin_label = labels.ravel()[argmin_flat]
        other = (labels.ravel() != argmin_label) & (labels.ravel() > 0)
        cand = points[other]
        witness = cand[np.argmax(np.linalg.norm(cand - argmin_point, axis=-1))]
        stationary_verdict = Verdict("fail", witness)

    # A4: J should keep growing toward the box boundary along rays from the minimizer.
    center = argmin_point if cost.theta_star is None else np.asarray(cost.theta_star, float)
    on_boundary = np.zeros(len(points), dtype=bool)
    for i in range(cost.n):
        on_boundary |= np.isclose(points[:, i], box[i, 0]) | np.isclose(points[:, i], box[i, 1])
    bpoints = points[on_boundary]
    mids = center + 0.5 * (bpoints - center)
    growth = (cost.f(bpoints) - cost.f(mids)) / (1.0 + np.abs(cost.f(mids)))
    worst_b = int(np.argmin(growth))
    if growth[worst_b] < -1e-2:
        radial = Verdict("fail", bpoints[worst_b])
    elif growth[worst_b] > 1e-2:
        radial = Verdict("pass")
    else:
        radial = Verdict("indeterminate", bpoints[worst_b])

    return AssumptionReport(
        smooth=smooth,
        unique_minimum=competing,
        unique_stationary_point=stationary_verdict,
        radially_unbounded=radial,
        box=box,
        grid_n=grid_n,
    )
