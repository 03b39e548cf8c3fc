"""Period-averaged maps, the autonomous average system, and its equilibrium.

Averaging a T-periodic loop over one dither period produces an autonomous
system in (theta_bar, v_bar, xi_bar) driven by three maps:

* ``J_bar(theta)``       — average measured cost,
* ``g_bar(theta)``       — average gradient estimate (independent of xi_bar:
  the demodulation signal has zero mean over a period, so the washout state
  drops out),
* ``g2_bar(theta, xi)``  — average squared gradient estimate per channel.

All three are computed by composite trapezoid quadrature on one period with
uniform nodes, whose tables one :class:`PeriodQuadrature` holds per cost and
dither. On N nodes that rule is exact for trigonometric polynomials of degree
below N, and every integrand is one when J is a polynomial, so a polynomial
cost gets enough nodes to make all three averages exact; any other cost gets
256 * r_max, where the rule's spectral convergence for smooth periodic
integrands reproduces closed forms to near machine precision. The
integrands depend on time only through sin(omega * r_i * t), so the averages
are independent of omega itself. :func:`avg_maps`, :func:`equilibrium`,
:func:`convergence_sweep` and the level-set oracle run on one kernel, which
evaluates J in one cost sweep per call, over theta_bar and the n_q nodes
together, and then sums all 2n + 1 integrands in one stacked reduction over
reused buffers; a kernel is therefore not reentrant. :func:`equilibrium` finds
the zero of g_bar by Newton's method, whose Jacobian, the node mean of
m_i * dJ/dtheta_j, takes the gradient of J at every node in one call.

The average system (:func:`average_system`) is a spec for the integrator's
one emitted RK4 loop, and ``derivative(average_system(params, cost,
dither))`` evaluates one stage of it. For a polynomial cost within
:data:`MAX_TERMS` terms the averages are finite sums of the period means of
products of sines, so it builds them once per run as straight-line float code
(:func:`_closed_form_maps`), which the loop inlines: no J evaluation and no
node sweep per stage. A cost that is no polynomial, over the cap, or whose
``f`` carries no parse tree calls the kernel once per member and stage instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, hypot, isfinite

import numpy as np

from .cost import CostFunction, grad_cost
from .dynamics import _check_dims, _normalized_rates
from .expressions import FloatCode, _literal, dither_expansion, polynomial_degree
from .integrate import ConvergenceError, System
from .signals import DitherConfig

__all__ = [
    "AverageMaps",
    "Equilibrium",
    "ConvergenceError",
    "PeriodQuadrature",
    "avg_maps",
    "average_system",
    "equilibrium",
    "convergence_sweep",
]

# The closed form costs about one multiply-add per term and stage, after a build that
# grows faster than its terms; the quadrature about one numpy call per operation and
# stage. On 1,000-stage average runs, build included (BENCH_maxterms.json), dense 2-D to
# 8-D quadratics (33-435 terms) run in 0.09-0.42 of the quadrature's time, and
# (theta1 - 0.5)^d in 0.71 of it at 206 terms but 1.4 at 268 and 1.8 at 338, where a
# 9-20 ms build outweighs the stages; per stage alone it breaks even between 338 (0.82)
# and 502 terms (1.12). The cap sits at that crossover of the modes' long runs.
MAX_TERMS = 350


@dataclass(frozen=True)
class AverageMaps:
    j_bar: float
    g_bar: np.ndarray
    g2_bar: np.ndarray


@dataclass(frozen=True)
class Equilibrium:
    """Fixed point of the average system: g_bar(theta*) = 0, xi* = J_bar(theta*),
    v*_i = g2_bar_i(theta*, xi*)."""

    theta_star: np.ndarray
    xi_star: float
    v_star: np.ndarray
    grad_norm: float
    iterations: int


class PeriodQuadrature:
    """Uniform-node trapezoid rule over one dither period, built once per cost and dither.

    N uniform nodes integrate a trigonometric polynomial of degree below N
    exactly (Trefethen & Weideman, SIAM Review 56, 2014). For a cost whose
    parse tree is a polynomial of degree d (:func:`polynomial_degree`), J at the
    nodes has degree at most d * r_max in the phase, and the highest-degree
    integrand, g2_bar's m_i^2 (J - xi)^2, at most (2d + 2) * r_max. So
    n_q = (2d + 2) * r_max + 1 nodes give every average exactly up to
    rounding, with a floor of 8 * r_max and a cap of 256 * r_max. A cost with
    no parse tree, or one the rule finds no degree for, gets the cap. Node j
    sits at phase 2*pi*j/n_q of the slowest harmonic, and omega cancels.
    ``s`` (n_q, n) holds the dither at each node and ``m`` (n, n_q) the
    demodulation signal; ``m2 = m * m`` and ``r = mean(m2)`` (= 2 / a_i^2)
    serve the squared-estimate average (:meth:`g2_coeffs`).
    """

    def __init__(self, cost: CostFunction, dither: DitherConfig):
        self.n = dither.n
        r_max = dither.r_max
        degree = None if cost.tree is None else polynomial_degree(cost.tree)
        self.n_q = n_q = (256 * r_max if degree is None
                          else max(8 * r_max, min(256 * r_max, (2 * degree + 2) * r_max + 1)))
        phases = 2.0 * np.pi * np.arange(n_q) / n_q
        sin_rt = np.sin(np.array(dither.rates)[:, None] * phases[None, :])  # (n, n_q)
        self.s = (np.array(dither.amplitudes)[:, None] * sin_rt).T
        self.m = (2.0 / np.array(dither.amplitudes)[:, None]) * sin_rt
        self.m2 = self.m * self.m
        self.r = np.mean(self.m2, axis=1)

    def g2_coeffs(self, y_c: np.ndarray, channel: int) -> tuple[np.ndarray, np.ndarray]:
        """Quadratic-in-xi decomposition of one channel's squared-estimate average.

        ``y_c`` (..., n_q) holds the node residuals J(theta + s_j) - xi_ref.
        g2_bar_i(theta, xi_ref + eta) = p - 2*q*eta + r_i*eta^2 exactly,
        because xi enters the squared residual quadratically. Returns (p, q),
        each of shape (...); r is :attr:`r`. Centering at ``xi_ref`` keeps the
        coefficients small near an equilibrium.
        """
        m2 = self.m2[channel]
        return np.mean(m2 * (y_c * y_c), axis=-1), np.mean(m2 * y_c, axis=-1)


def _map_sums(cost: CostFunction, quad: PeriodQuadrature):
    """The averaged maps' kernel: a function (theta_bar, xi_bar) -> sums, shape (2n+1,).

    ``sums`` holds n_q times (g_bar, g2_bar, J_bar): the node sums of
    m * (y - J(theta_bar)), of (m * (y - xi_bar))^2 and of y, where y are the
    costs at the nodes. Each call makes one cost sweep, over theta_bar and the
    n_q nodes together, and one stacked reduction: the 2n + 1 integrands sit
    as rows of one (2n+1, n_q) buffer, and ``add.reduce`` sums each row
    pairwise, the same sum a separate reduction of that row computes. The
    buffers are allocated once per kernel and reused by every call, so the
    function is not reentrant: one call must return before the next starts.
    The returned ``sums`` array is fresh on every call.

    The g_bar integrand subtracts J(theta_bar); the subtraction is exact (the
    demodulation signal sums to zero on the uniform node grid) and removes
    the large DC term that would otherwise dominate the floating-point
    cancellation error.
    """
    if cost.n != quad.n:
        raise ValueError("dither and cost dimensions differ")
    n, n_q = quad.n, quad.n_q
    f, m = cost.f, quad.m
    add, subtract, multiply, reduce = np.add, np.subtract, np.multiply, np.add.reduce
    points = np.empty((n_q + 1, n))
    theta_row = points[0]
    # theta_i + s_ji column by column: one broadcast add over the (n_q, n) nodes
    # would run its inner loop over only n entries at a time
    columns = list(zip(range(n), np.ascontiguousarray(quad.s.T), points[1:].T))
    ref = np.empty((2, 1))                            # [[J(theta_bar)], [xi_bar]]
    resid = np.empty((2, n_q))
    resid_3d = resid[:, None, :]
    work = np.empty((2 * n + 1, n_q))
    products = work[: 2 * n].reshape(2, n, n_q)       # m * (y - J(theta_bar)), m * (y - xi_bar)
    squares, y_row = work[n : 2 * n], work[2 * n]

    def sums(theta_bar, xi_bar: float) -> np.ndarray:
        theta_row[:] = theta_bar
        for i, s_i, node_i in columns:
            add(theta_row[i], s_i, out=node_i)
        y_all = f(points)                             # one sweep: J(theta_bar), then the nodes
        y = y_all[1:]
        ref[0, 0] = y_all[0]
        ref[1, 0] = xi_bar
        subtract(y, ref, out=resid)
        multiply(m, resid_3d, out=products)
        multiply(squares, squares, out=squares)
        y_row[:] = y
        return reduce(work, 1)

    return sums


def _as_maps(sums: np.ndarray, quad: PeriodQuadrature) -> AverageMaps:
    n, n_q = quad.n, quad.n_q
    return AverageMaps(j_bar=float(sums[2 * n]) / n_q, g_bar=sums[:n] / n_q,
                       g2_bar=sums[n : 2 * n] / n_q)


def avg_maps(
    cost: CostFunction,
    quad: PeriodQuadrature,
    theta_bar,
    xi_bar: float = 0.0,
) -> AverageMaps:
    """Evaluate (J_bar, g_bar, g2_bar) at one point of the average state space.

    One call of the :func:`_map_sums` kernel, which the average system's stage
    runs too for a cost without closed-form maps: one cost sweep and one
    stacked reduction, then each sum divided by n_q.
    """
    return _as_maps(_map_sums(cost, quad)(theta_bar, xi_bar), quad)


def _sine_mean(rates: list[int], beta: tuple[int, ...]) -> float:
    """The exact period mean of prod_i sin(r_i * phi)^beta_i.

    (2i sin(r phi))^b = sum_j (-1)^j C(b, j) e^{i r (b - 2j) phi}, so the
    product times (2i)^k, k = sum(beta), is a sum of exponentials with
    integer coefficients, and its mean is the coefficient of frequency 0. The
    factors are multiplied out but for the last, of which only the terms
    that cancel a frequency are taken. The mean is 0 for odd k, where the
    product is an odd function of phi.

    The means of :class:`PeriodQuadrature`'s tables are not exact enough to
    stand in. Where a mean is 0 they leave rounding, up to 1.9e-16 on the
    tables of the ``compare_expr2d`` benchmark's 2-D cost. Snapped to the
    multiples of 2^-k, on which the exact mean lies, they read a wrong count
    from k = 50 on: measured on the 1-D tables of (theta1 - 0.5)^24, whose
    g2_bar needs k up to 50, while the term cap admits (theta1 - 0.5)^32,
    whose g2_bar needs k = 66.
    """
    k = sum(beta)
    if k % 2:
        return 0.0
    factors = [[(r * (b - 2 * j), (-1) ** j * comb(b, j)) for j in range(b + 1)]
               for r, b in zip(rates, beta) if b]
    counts = {0: 1}                                   # frequency -> integer coefficient
    for factor in factors[:-1]:
        step: dict[int, int] = {}
        for shift, w in factor:
            for f, c in counts.items():
                step[f + shift] = step.get(f + shift, 0) + w * c
        counts = step
    count = sum(w * counts.get(-shift, 0) for shift, w in factors[-1]) if factors else 1
    return (-1) ** (k // 2) * count / 2**k if count else 0.0


def _closed_form_maps(cost: CostFunction, dither: DitherConfig):
    """The averaged maps of a polynomial cost as straight-line float code, or None.

    :func:`~esc_lab.expressions.dither_expansion` gives J(theta + a * sigma)
    as sum_alpha c_alpha(theta) * sigma^alpha, each c_alpha float code in
    theta. With M(beta) the exact period mean of sigma^beta
    (:func:`_sine_mean`), e_i the i-th unit exponent and d the coefficients
    with d_0 = J(theta) - xi_bar (centred as :func:`_map_sums` centres its
    residual):

    * J_bar = sum_alpha M(alpha) c_alpha;
    * g_bar_i = (2 / a_i) sum_alpha M(alpha + e_i) c_alpha;
    * g2_bar_i = (4 / a_i^2) sum_{alpha, beta} M(alpha + beta + 2 e_i) d_alpha d_beta.

    Returns (lines, results): the lines, over the names ``x0`` .. ``x{n-1}``
    for theta_bar and ``xi`` for xi_bar, and the expressions of [g_bar,
    g2_bar, J_bar] that read them (:meth:`~esc_lab.expressions.FloatCode.text`).
    Returns None for a cost without a parse tree, where the expansion finds no
    polynomial, and where the code would exceed :data:`MAX_TERMS` terms; the
    expansion and the g2_bar pair loop each stop at the first term over.
    """
    if cost.tree is None:
        return None
    n, code = cost.n, FloatCode()
    amps, rates = dither.amplitudes, dither.rates
    poly = dither_expansion(cost.tree, amps, code, MAX_TERMS)
    if poly is None:
        return None
    means: dict[tuple, float] = {}

    def mean(alpha, i=0, k=0):                        # M(alpha + k e_i)
        beta = alpha[:i] + (alpha[i] + k,) + alpha[i + 1 :]
        if beta not in means:
            means[beta] = _sine_mean(rates, beta)
        return means[beta]

    j_bar, g_bar = {}, [{} for _ in range(n)]
    for alpha, c in poly.items():
        j_bar = code.add(j_bar, c, mean(alpha))
        for i, a in enumerate(amps):
            g_bar[i] = code.add(g_bar[i], c, 2.0 / a * mean(alpha, i, 1))
    zero = (0,) * n
    resid = {**poly, zero: code.add(poly.get(zero, {}), {("xi",): 1.0}, -1.0)}
    resid = [(alpha, *code.atom(d).items()) for alpha, d in resid.items() if d]
    # the terms left for g2_bar: its pair loop gives up once a new key overdraws them
    budget = MAX_TERMS - code.terms - sum(1 for total in (j_bar, *g_bar) for key in total if key)
    g2_bar = []
    for i, a in enumerate(amps):
        total: dict[tuple, float] = {}
        for j, (alpha, (k1, w1)) in enumerate(resid):
            for beta, (k2, w2) in resid[j:]:
                m = mean(tuple(x + y for x, y in zip(alpha, beta)), i, 2)
                if m:
                    key, w = code.key(k1, k2), (4.0 if beta == alpha else 8.0) / (a * a) * m
                    if key not in total:
                        budget -= bool(key)
                        if budget < 0:
                            return None
                    total[key] = total.get(key, 0.0) + w * w1 * w2
        g2_bar.append(code.add({}, total))
    results = [*g_bar, *g2_bar, j_bar]
    if not all(isfinite(w) for total in results for w in total.values()):
        return None                                   # an amplitude too small for 4 / a_i^2
    return tuple(code.lines), [code.text(total) for total in results]


def _quadrature_maps(cost: CostFunction, dither: DitherConfig):
    """The averaged maps as a function of a row, through one :func:`_map_sums` call.

    Returns [g_bar, g2_bar, J_bar] as Python floats; shares the kernel's
    buffers, so it is not reentrant.
    """
    quad = PeriodQuadrature(cost, dither)
    sums, n, n_q = _map_sums(cost, quad), quad.n, quad.n_q

    def maps(r):
        return (sums(r[:n], r[2 * n]) / n_q).tolist()

    return maps


def average_system(params, cost: CostFunction, dither: DitherConfig) -> System:
    """The autonomous average system over [theta_bar, v_bar, xi_bar], for the integrator.

    A polynomial cost whose float code stays within :data:`MAX_TERMS` terms
    gets the closed-form maps of :func:`_closed_form_maps`, built once here
    and inlined per member and stage: no call of ``cost.f`` and no
    quadrature. Every other cost (no parse tree, not a polynomial, or above the
    cap) gets one :func:`_quadrature_maps` call per member and stage, so one
    cost sweep and one stacked reduction, through a kernel whose buffers make
    the stage non-reentrant. The rest of the stage is Python floats on either
    path, with v clamped to >= 0 before the square root, as in the full loop.
    """
    _check_dims(params, cost, dither)
    n, wxi = params.n, _literal(float(params.omega_xi))
    maps = [*(f"g{i}" for i in range(n)), *(f"q{i}" for i in range(n)), "jb"]
    closed = _closed_form_maps(cost, dither)
    names = {} if closed else {"maps": _quadrature_maps(cost, dither)}

    def stage(y, k):
        lines = []
        for row, out in zip(y, k):
            if closed:
                code, results = closed
                lines += [*(f"x{i} = {row[i]}" for i in range(n)), f"xi = {row[2 * n]}", *code,
                          *(f"{name} = {value}" for name, value in zip(maps, results))]
            else:
                lines.append(f"{', '.join(maps)}, = maps(({', '.join(row)},))")
            for i in range(n):
                lines += _normalized_rates(params, row, out, i, f"g{i}", f"q{i}")
            lines.append(f"{out[2 * n]} = {wxi} * (jb - {row[2 * n]})")
        return lines

    return System(2 * n + 1, stage, clamp=tuple(range(n, 2 * n)), names=names)


def equilibrium(cost: CostFunction, dither: DitherConfig) -> Equilibrium:
    """Locate the average-system equilibrium by Newton's method on g_bar(theta) = 0.

    Starts at ``cost.theta_star``, or at the origin when none is known, and stops at
    ||g_bar|| <= 1e-10 within 100 iterations. The Jacobian dg_bar_i/dtheta_j, the node mean
    of m_i * dJ/dtheta_j(theta + s), takes one batched :func:`grad_cost` call; Newton ESC
    estimates it online (Ghaffari, Krstic & Nesic, Automatica 48, 2012). Where the solve
    fails or its step does not descend J_bar, whose gradient g_bar estimates, the step is
    -g_bar; a step is halved until J_bar or ||g_bar|| falls, and the search fails once it
    rounds away. A zero fails where theta_i + a_i == theta_i, since every node rounds onto
    theta there and g_bar is exactly 0 on any cost, and where its Jacobian has an
    eigenvalue of real part <= 0: a saddle or maximum of J_bar. xi* and v* follow by
    direct evaluation at theta*.
    """
    theta = np.zeros(cost.n) if cost.theta_star is None else np.array(cost.theta_star, dtype=float)
    quad = PeriodQuadrature(cost, dither)
    sums = _map_sums(cost, quad)

    def maps_at(th, xi=0.0):
        return _as_maps(sums(th, xi), quad)

    def jacobian(th):
        return quad.m @ grad_cost(cost, th + quad.s) / quad.n_q

    # a Newton step cuts ||g_bar|| by about e even at a flat minimum: 100 reach 1e-10 from 1e30
    maps, max_iter = maps_at(theta), 100
    for it in range(1, max_iter + 1):
        g = maps.g_bar
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-10:
            break
        try:
            step = np.linalg.solve(jacobian(theta), -g)
        except np.linalg.LinAlgError:
            step = -g
        if not (np.all(np.isfinite(step)) and step @ g < 0):
            step = -g
        cand = maps_at(theta + step)
        while not (cand.j_bar < maps.j_bar or np.linalg.norm(cand.g_bar) < gnorm):
            if not np.isfinite(gnorm) or np.all(theta + step == theta):
                raise ConvergenceError(
                    f"line search stalled at ||g_bar||={gnorm:.3e} after {it} iterations")
            step = step / 2
            cand = maps_at(theta + step)
        theta, maps = theta + step, cand
    else:
        raise ConvergenceError(f"no convergence within {max_iter} iterations")

    def vanished(why):
        return ConvergenceError(f"g_bar vanished at theta = {np.array2string(theta, precision=6)} "
                                f"after {it} iterations, where {why}")

    if np.any(theta + np.array(dither.amplitudes) == theta):
        raise vanished("theta + a rounds to theta: the dither cannot resolve the cost there")
    jac = jacobian(theta)
    # NaN where a node sits on a kink of J, such as |theta1|'s at 0: then the test cannot tell
    lowest = np.min(np.linalg.eigvals(jac).real) if np.all(np.isfinite(jac)) else np.nan
    if lowest <= 0:
        raise vanished(f"its Jacobian has an eigenvalue of real part {lowest:.3e}: a saddle or "
                       "maximum of J_bar, not a minimum")
    xi_star = maps.j_bar
    return Equilibrium(theta_star=theta, xi_star=xi_star, v_star=maps_at(theta, xi_star).g2_bar,
                       grad_norm=gnorm, iterations=it)


@dataclass(frozen=True)
class SweepRow:
    a0: float
    grad_error: float
    v_star_max: float


def convergence_sweep(
    cost: CostFunction,
    dither: DitherConfig,
    theta_bar,
    a0_list,
) -> list[SweepRow]:
    """Shrink the dither and track how fast the averaged estimates converge.

    For each overall amplitude a0 (amplitude ratios held fixed), reports
    ||g_bar - grad J|| at ``theta_bar`` and the equilibrium magnitude
    max_i v*_i. Both vanish as a0 -> 0 for smooth costs. The norm is
    ``math.hypot``'s, which does not overflow where a finite error's square would.
    """
    a0_list = [float(a) for a in a0_list]
    if any(a <= 0 for a in a0_list):
        raise ValueError("a0 values must be positive")
    if any(b >= a for a, b in zip(a0_list, a0_list[1:])):
        raise ValueError("a0 values must be strictly decreasing")
    theta_bar = np.atleast_1d(np.asarray(theta_bar, dtype=float))
    true_grad = grad_cost(cost, theta_bar)
    rows = []
    for a0 in a0_list:
        cfg = dither.scaled(a0)
        maps = avg_maps(cost, PeriodQuadrature(cost, cfg), theta_bar, 0.0)
        eq = equilibrium(cost, cfg)
        rows.append(SweepRow(a0=a0, grad_error=hypot(*(maps.g_bar - true_grad).tolist()),
                             v_star_max=float(np.max(eq.v_star))))
    return rows
