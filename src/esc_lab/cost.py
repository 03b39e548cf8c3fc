"""Cost functions: builtin families and gradients.

A :class:`CostFunction` bundles a scalar field J with an optional known
minimizer. Every cost's evaluator is compiled from its expression text by
:func:`~esc_lab.expressions.compile_expression`: the builtins write their
``expr`` and compile it as :func:`parse_cost` does, so J has one evaluator.
It is vectorized: it accepts arrays of shape (..., n) and returns shape
(...). The full loop, which holds its members as rows of floats, measures J
through :func:`row_form`, derived from that evaluator. The gradient has one
rule too (:func:`grad_cost`): exact from the expression's parse tree for a
polynomial, central finite differences for any other cost.
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
    "row_form",
]

@dataclass(frozen=True)
class CostFunction:
    """J on arrays (``f``, ``compile_expression(expr, n)`` for every builtin and parsed
    cost) and what is known of it."""

    n: int
    f: Callable[[np.ndarray], np.ndarray]
    theta_star: Optional[np.ndarray] = None
    expr: Optional[str] = None


def row_form(f: Callable[[np.ndarray], np.ndarray]):
    """J on member rows: ``rows(rows, shift)`` takes rows of floats whose first n entries
    are theta, and n dither shifts, and returns ``f(np.array(points)).tolist()`` for the
    points ``[x + s for x, s in zip(row, shift)]``: that expression, or the row form ``f``
    carries as ``f.rows``, equal to it bit for bit (``functools.wraps`` copies it)."""

    def stacked(rows, shift):
        return f(np.array([[x + s for x, s in zip(r, shift)] for r in rows])).tolist()

    return getattr(f, "rows", stacked)


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
    """Gradient of J: exact where :func:`~esc_lab.expressions.gradient` reads one from
    ``expr``; central finite differences for a cost without ``expr``, for one that is no
    polynomial, and for one over the term cap.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (cost.n,):
        raise ValueError(f"expected parameter vector of length {cost.n}, got shape {theta.shape}")
    exact = None if cost.expr is None else gradient(cost.expr, cost.n)
    if exact is None:
        return finite_difference_gradient(cost, theta)
    return np.array(exact(theta.tolist()))


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
    ``expr`` sums (d_i * H_ij) * d_j over the nonzero entries of H in C order, with
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
    return CostFunction(n=n, f=compile_expression(expr, n), theta_star=star, expr=expr)


def quartic_cost() -> CostFunction:
    """Scalar quartic J(theta) = theta^4 / 24, flat at its minimizer."""
    return shifted_quartic_cost(np.zeros(1))


def shifted_quartic_cost(theta_star) -> CostFunction:
    """J(theta) = sum_i (theta_i - theta*_i)^4 / 24; ``expr`` is ``(d_1^4 + ... + d_n^4) / 24``."""
    star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    _finite(theta_star=star)
    n = star.size

    # f's row form (see row_form): at the full loop's few rows a numpy call costs more than
    # its arithmetic, so one power call, with f's scalar exponent, over |theta - theta*| of
    # every channel (outer) and row (inner); then each row summed left to right, as f sums.
    # Bit equality rests on numpy's power rounding an element alike wherever it sits in the
    # array; tests/test_properties.py guards it
    channels, star_list = range(n), star.tolist()

    def rows_j(rows, shift):
        powers = np.power([abs(r[i] + s - c) for i, s, c in zip(channels, shift, star_list)
                           for r in rows], 4.0).tolist()
        b = len(rows)
        total = powers[:b]
        for i in range(b, n * b, b):
            total = [a + p for a, p in zip(total, powers[i : i + b])]
        return [a / 24.0 for a in total]

    expr = "(" + " + ".join(f"{d}^4" for d in _offsets(star)) + ") / 24"
    f = compile_expression(expr, n)
    f.rows = rows_j
    return CostFunction(n=n, f=f, theta_star=star, expr=expr)


def parse_cost(expr: str, n: int) -> CostFunction:
    """Build a cost from an arithmetic expression over theta1..thetaN.

    Its gradient is :func:`grad_cost`'s, as for every builtin.
    """
    return CostFunction(n=n, f=compile_expression(expr, n), expr=expr)
