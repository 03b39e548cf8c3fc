"""Cost functions: builtin families and gradients.

A :class:`CostFunction` bundles a scalar field J with an optional analytic
gradient and an optional known minimizer. Evaluators are vectorized: they
accept arrays of shape (..., n) and return shape (...). Each cost also has a
row form for the full loop, which holds its members as rows of floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .expressions import compile_expression

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
    """J on arrays (``f``), on member rows (``f_rows``), and what is known of it.

    ``f_rows(rows, shift)`` takes member rows, sequences of floats whose first
    n entries are theta, and n dither shifts; it returns one J value per row,
    equal bit for bit to ``f(np.array(points)).tolist()`` for the points
    ``[x + s for x, s in zip(row, shift)]``. A builder that gives no row form
    gets exactly that expression. :func:`shifted_quartic_cost` gives float
    code with one numpy power call instead: at the full loop's few rows of few
    floats, a numpy call's fixed cost exceeds its arithmetic. Its bit equality
    rests on numpy's power rounding an element the same wherever it sits in
    the array; that holds on the numpy builds and CPUs the tests ran on, and
    ``tests/test_properties.py`` is the guard for any other.
    """

    n: int
    f: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    theta_star: Optional[np.ndarray] = None
    expr: Optional[str] = None
    f_rows: Optional[Callable[[Sequence[Sequence[float]], Sequence[float]], list[float]]] = None

    def __post_init__(self):
        if self.f_rows is None:
            f = self.f

            def f_rows(rows, shift):
                return f(np.array([[x + s for x, s in zip(r, shift)] for r in rows])).tolist()

            object.__setattr__(self, "f_rows", f_rows)


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


def quadratic_cost(h, j_opt: float = 0.0, theta_star=None) -> CostFunction:
    """J(theta) = j_opt + 0.5 * (theta - theta*)' H (theta - theta*), H symmetric positive definite.

    ``h`` may be a scalar (n = 1), a vector of diagonal curvatures, or a full matrix.
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
    eigs = np.linalg.eigvalsh(hmat)
    if np.any(eigs <= 0.0):
        raise ValueError("curvature matrix must be positive definite")
    star = np.zeros(n) if theta_star is None else np.asarray(theta_star, dtype=float)
    if star.shape != (n,):
        raise ValueError(f"theta_star must have length {n}")

    def f(x):
        # elementwise products summed per row, in C order: unlike einsum, a row's
        # value depends neither on the other rows nor on the memory layout of x
        d = np.ascontiguousarray(x - star)
        return j_opt + 0.5 * np.sum((d[..., :, None] * hmat) * d[..., None, :], axis=(-2, -1))

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
        expr=" + ".join(terms),
    )


def quartic_cost() -> CostFunction:
    """Scalar quartic J(theta) = theta^4 / 24, flat at its minimizer."""
    return shifted_quartic_cost(np.zeros(1))


def shifted_quartic_cost(theta_star) -> CostFunction:
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
        return np.add.reduce(np.abs(x - star) ** 4, axis=-1) / 24.0

    def grad(x):
        return (x - star) ** 3 / 6.0

    f_rows = None
    if n < 8:
        # one power call, with f's scalar exponent, over |theta - theta*| of every
        # channel (outer) and row (inner); then each row summed left to right, as
        # numpy sums fewer than 8 terms
        channels, star_list = range(n), star.tolist()

        def f_rows(rows, shift):
            powers = np.power([abs(r[i] + s - c) for i, s, c in zip(channels, shift, star_list)
                               for r in rows], 4.0).tolist()
            b = len(rows)
            total = powers[:b]
            for i in range(b, n * b, b):
                total = [a + p for a, p in zip(total, powers[i : i + b])]
            return [a / 24.0 for a in total]

    pieces = []
    for i in range(n):
        xi = f"theta{i + 1}" if star[i] == 0 else f"(theta{i + 1} - {_format_num(star[i])})"
        pieces.append(f"{xi}^4 / 24")
    return CostFunction(
        n=n,
        f=f,
        grad=grad,
        theta_star=star,
        expr=" + ".join(pieces),
        f_rows=f_rows,
    )


def parse_cost(expr: str, n: int) -> CostFunction:
    """Build a cost from an arithmetic expression over theta1..thetaN.

    The gradient falls back to central finite differences.
    """
    evaluate = compile_expression(expr, n)
    return CostFunction(n=n, f=evaluate, grad=None, theta_star=None, expr=expr)
