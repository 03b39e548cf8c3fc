"""Cost functions: builtin families and gradients.

A :class:`CostFunction` bundles a scalar field J with an optional known
minimizer. Every cost's evaluator is compiled from its expression text by
:func:`~esc_lab.expressions.compile_expression`, a builtin's as
:func:`parse_cost` compiles it, so J has one evaluator. It is vectorized
(arrays (..., n) to (...)), and it carries J's parse tree (``f.tree``),
which every rule over J folds, and its operations over Python floats as text
(``f.scalar``), which the full loop inlines and :func:`point_cost` compiles.
So a replaced ``f`` is what every layer reads. The gradient has one rule too
(:func:`grad_cost`): a jet fold over the tree, and central finite
differences only for a black-box ``f``. numpy loads only in the array
functions and where the scalar code falls back to ``f``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, nan, pow
from typing import Callable, Optional

from .expressions import _floats, compile_expression, gradient

__all__ = [
    "CostFunction",
    "quadratic_cost",
    "quartic_cost",
    "shifted_quartic_cost",
    "eval_cost",
    "grad_cost",
    "finite_difference_gradient",
    "parse_cost",
    "point_cost",
]

@dataclass(frozen=True)
class CostFunction:
    """J on arrays (``f``, compiled by ``compile_expression`` for every builtin and parsed
    cost) and what is known of it: a minimizer, as a tuple of floats."""

    n: int
    f: Callable
    theta_star: Optional[tuple[float, ...]] = None

    @property
    def tree(self):
        """J's parse tree, which a compiled ``f`` carries; None for a black-box ``f``."""
        return getattr(self.f, "tree", None)


def measure_lines(cost: CostFunction, target: str) -> list[str]:
    """Lines setting ``target`` to J at ``x0`` .. ``x{n-1}``: the scalar form ``f`` carries, and
    ``f`` on the point's array where those floats raise (numpy: inf or NaN) or it has none,
    which imports numpy there."""
    scalar = getattr(cost.f, "scalar", None)
    by_f = ["from numpy import array",
            f"{target} = float(f(array(({', '.join(f'x{i}' for i in range(cost.n))},))))"]
    if scalar is None:
        return by_f
    lines, value = scalar
    return ["try:", *(f"    {line}" for line in lines), f"    {target} = {value}",
            "except (ZeroDivisionError, OverflowError, ValueError):", *(f"    {x}" for x in by_f)]


def point_cost(cost: CostFunction) -> Callable[..., float]:
    """J at one point, ``point_cost(cost)(*theta)``: the full loop's, by :func:`measure_lines`."""
    namespace = {"f": cost.f, "pow": pow, "inf": inf, "nan": nan}
    exec("\n".join([f"def j({', '.join(f'x{i}' for i in range(cost.n))}):",
                    *(f"    {line}" for line in measure_lines(cost, "j")), "    return j"]),
         namespace)
    return namespace["j"]


def _point(cost: CostFunction, theta):
    import numpy as np
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (cost.n,):
        raise ValueError(f"expected parameter vector of length {cost.n}, got shape {theta.shape}")
    return theta


def eval_cost(cost: CostFunction, theta) -> float:
    """Evaluate J(theta) for a single parameter vector."""
    return float(cost.f(_point(cost, theta)))


def finite_difference_gradient(cost: CostFunction, theta):
    """Central finite differences with per-component step 1e-5 * (1 + |theta_i|), at one
    point (n,) or at each row of an (m, n) batch."""
    import numpy as np
    theta = np.asarray(theta, dtype=float)
    h = 1e-5 * (1.0 + np.abs(theta))
    steps = np.where(np.eye(cost.n, dtype=bool), h[..., None, :], 0.0)   # row i steps theta_i
    return (cost.f(theta[..., None, :] + steps) - cost.f(theta[..., None, :] - steps)) / (2.0 * h)


def grad_cost(cost: CostFunction, theta):
    """Gradient of J at one point (n,), or at each row of an (m, n) batch in one call:
    :func:`~esc_lab.expressions.gradient`'s jet fold over the parse tree, exact up to
    rounding; central finite differences for an ``f`` without one."""
    import numpy as np
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
        if not all(map(isfinite, value)):
            raise ValueError(f"{name} must be finite")


def _offsets(star: tuple[float, ...]) -> list[str]:
    """theta_i - theta*_i as expression text per channel; bare ``theta<i>`` where theta*_i = 0."""
    return [f"theta{i}" if c == 0 else f"(theta{i} - {c!r})" for i, c in enumerate(star, 1)]


def quadratic_cost(h, j_opt: float = 0.0, theta_star=None) -> CostFunction:
    """J(theta) = j_opt + 0.5 * (theta - theta*)' H (theta - theta*), H symmetric positive definite.

    ``h`` may be a scalar (n = 1), a vector of diagonal curvatures, or a full matrix.
    The expression sums (d_i * H_ij) * d_j over the nonzero entries of H in C order, with
    d = theta - theta*. The sum starts at (d_1 * H_11) * d_1 >= +0 and is never -0,
    so a left-out +-0 term would not change a finite value's bits.
    """
    rows = h.tolist() if hasattr(h, "tolist") else h
    full = isinstance(rows, (list, tuple)) and any(isinstance(r, (list, tuple)) for r in rows)
    if full:
        import numpy as np
        h = np.asarray(rows, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("curvature matrix must be square")
        rows = (0.5 * (h + h.T)).tolist()
    else:
        diagonal = _floats(rows)
        rows = [[x if i == j else 0.0 for j in range(len(diagonal))]
                for i, x in enumerate(diagonal)]
    n = len(rows)
    star = (0.0,) * n if theta_star is None else _floats(theta_star)
    if len(star) != n:
        raise ValueError(f"theta_star must have length {n}")
    _finite(h=[x for row in rows for x in row], j_opt=[j_opt], theta_star=star)
    positive = np.linalg.eigvalsh(rows) > 0.0 if full else [rows[i][i] > 0.0 for i in range(n)]
    if not all(positive):
        raise ValueError("curvature matrix must be positive definite")

    d = _offsets(star)
    products = " + ".join(f"({d[i]}*{rows[i][j]!r})*{d[j]}" for i in range(n) for j in range(n)
                          if rows[i][j] != 0.0)
    expr = f"{float(j_opt)!r} + 0.5*({products})"
    return CostFunction(n=n, f=compile_expression(expr, n), theta_star=star)


def quartic_cost() -> CostFunction:
    """Scalar quartic J(theta) = theta^4 / 24, flat at its minimizer."""
    return shifted_quartic_cost((0.0,))


def shifted_quartic_cost(theta_star) -> CostFunction:
    """J(theta) = sum_i (theta_i - theta*_i)^4 / 24, written ``(d_1^4 + ... + d_n^4) / 24``."""
    star = _floats(theta_star)
    _finite(theta_star=star)
    n = len(star)
    expr = "(" + " + ".join(f"{d}^4" for d in _offsets(star)) + ") / 24"
    return CostFunction(n=n, f=compile_expression(expr, n), theta_star=star)


def parse_cost(expr: str, n: int) -> CostFunction:
    """Build a cost from an arithmetic expression over theta1..thetaN.

    Its gradient is :func:`grad_cost`'s, as for every builtin.
    """
    return CostFunction(n=n, f=compile_expression(expr, n))
