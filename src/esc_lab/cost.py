"""Cost functions: builtin families and gradients.

A :class:`CostFunction` bundles a scalar field J with an optional known
minimizer. Every cost's evaluator is compiled from its expression text by
:func:`~esc_lab.expressions.compile_expression`, a builtin's as
:func:`parse_cost` compiles it, so J has one evaluator. It is vectorized
(arrays (..., n) to (...)), and it carries J's parse tree (``f.tree``),
which every rule over J folds, and its operations over Python floats as text
(``f.scalar``), which the full loop inlines. So a replaced ``f`` is what
every layer reads. The gradient has one rule too (:func:`grad_cost`): a jet
fold over the tree, and central finite differences only for a black-box ``f``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expressions import compile_expression, gradient

__all__ = [
    "CostFunction",
    "quadratic_cost",
    "quartic_cost",
    "shifted_quartic_cost",
    "eval_cost",
    "grad_cost",
    "finite_difference_gradient",
    "parse_cost",
]

@dataclass(frozen=True)
class CostFunction:
    """J on arrays (``f``, compiled by ``compile_expression`` for every builtin and parsed
    cost) and what is known of it."""

    n: int
    f: Callable[[np.ndarray], np.ndarray]
    theta_star: Optional[np.ndarray] = None

    @property
    def tree(self):
        """J's parse tree, which a compiled ``f`` carries; None for a black-box ``f``."""
        return getattr(self.f, "tree", None)


def _point(cost: CostFunction, theta) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (cost.n,):
        raise ValueError(f"expected parameter vector of length {cost.n}, got shape {theta.shape}")
    return theta


def eval_cost(cost: CostFunction, theta) -> float:
    """Evaluate J(theta) for a single parameter vector."""
    return float(cost.f(_point(cost, theta)))


def finite_difference_gradient(cost: CostFunction, theta: np.ndarray) -> np.ndarray:
    """Central finite differences with per-component step 1e-5 * (1 + |theta_i|), at one
    point (n,) or at each row of an (m, n) batch."""
    theta = np.asarray(theta, dtype=float)
    h = 1e-5 * (1.0 + np.abs(theta))
    steps = np.where(np.eye(cost.n, dtype=bool), h[..., None, :], 0.0)   # row i steps theta_i
    return (cost.f(theta[..., None, :] + steps) - cost.f(theta[..., None, :] - steps)) / (2.0 * h)


def grad_cost(cost: CostFunction, theta) -> np.ndarray:
    """Gradient of J at one point (n,), or at each row of an (m, n) batch in one call:
    :func:`~esc_lab.expressions.gradient`'s jet fold over the parse tree, exact up to
    rounding; central finite differences for an ``f`` without one."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != cost.n:
        theta = _point(cost, theta)
    if cost.tree is None:
        return finite_difference_gradient(cost, theta)
    return gradient(cost.tree, theta.T).T


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------

def _finite(**values) -> None:
    # repr(inf) is "inf", which the expression grammar cannot read back
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")


def _offsets(star: np.ndarray) -> list[str]:
    """theta_i - theta*_i as expression text per channel; bare ``theta<i>`` where theta*_i = 0."""
    return [f"theta{i}" if c == 0 else f"(theta{i} - {c!r})"
            for i, c in enumerate(star.tolist(), 1)]


def quadratic_cost(h, j_opt: float = 0.0, theta_star=None) -> CostFunction:
    """J(theta) = j_opt + 0.5 * (theta - theta*)' H (theta - theta*), H symmetric positive definite.

    ``h`` may be a scalar (n = 1), a vector of diagonal curvatures, or a full matrix.
    The expression sums (d_i * H_ij) * d_j over the nonzero entries of H in C order, with
    d = theta - theta*. The sum starts at (d_1 * H_11) * d_1 >= +0 and is never -0,
    so a left-out +-0 term would not change a finite value's bits.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim == 0:
        n = 1
        hmat = np.eye(n) * float(h)
    elif h.ndim == 1:
        n = h.size
        hmat = np.diag(h)
    else:
        if h.shape[0] != h.shape[1]:
            raise ValueError("curvature matrix must be square")
        n = h.shape[0]
        hmat = 0.5 * (h + h.T)
    star = np.zeros(n) if theta_star is None else np.asarray(theta_star, dtype=float)
    if star.shape != (n,):
        raise ValueError(f"theta_star must have length {n}")
    _finite(h=h, j_opt=j_opt, theta_star=star)
    if np.any(np.linalg.eigvalsh(hmat) <= 0.0):
        raise ValueError("curvature matrix must be positive definite")

    d, rows = _offsets(star), hmat.tolist()
    products = " + ".join(f"({d[i]}*{rows[i][j]!r})*{d[j]}" for i in range(n) for j in range(n)
                          if rows[i][j] != 0.0)
    expr = f"{float(j_opt)!r} + 0.5*({products})"
    return CostFunction(n=n, f=compile_expression(expr, n), theta_star=star)


def quartic_cost() -> CostFunction:
    """Scalar quartic J(theta) = theta^4 / 24, flat at its minimizer."""
    return shifted_quartic_cost(np.zeros(1))


def shifted_quartic_cost(theta_star) -> CostFunction:
    """J(theta) = sum_i (theta_i - theta*_i)^4 / 24, written ``(d_1^4 + ... + d_n^4) / 24``."""
    star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    _finite(theta_star=star)
    n = star.size
    expr = "(" + " + ".join(f"{d}^4" for d in _offsets(star)) + ") / 24"
    return CostFunction(n=n, f=compile_expression(expr, n), theta_star=star)


def parse_cost(expr: str, n: int) -> CostFunction:
    """Build a cost from an arithmetic expression over theta1..thetaN.

    Its gradient is :func:`grad_cost`'s, as for every builtin.
    """
    return CostFunction(n=n, f=compile_expression(expr, n))
