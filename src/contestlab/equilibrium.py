"""Symmetric monotone equilibrium of the rank-order contest.

Strategies are summarised by the mean-fitness schedule ``mu*(theta)``:
facing opponents who play the schedule, a player of type theta picks the
fitness target maximising

    expected prizes + mu - C(mu, theta),

where the expected prize at target mu integrates the rank weights against
the player's own performance distribution H_mu and the opponents'
performance mixture G (their noise mixed over types and the schedule).

``solve_equilibrium`` finds the fixed point of the best-response map on
a type grid by Anderson mixing: each step combines the last few best
responses so as to cancel the last few residuals, which converges in a
handful of sweeps where a damped iteration needs about twenty.  Each
iterate is projected onto non-decreasing schedules (the monotone
envelope is where the fixed point lives) and kept at or above the
no-contest schedule it starts from, which downstream dominance checks
rely on.

Each best response is found in two stages.  A coarse sweep over a fixed
grid of targets picks the best cell for every type, which keeps the
search global when the payoff has several peaks.  Inside that cell's
neighbours the first-order condition

    gain'(mu) + 1 = dC/dmu

is solved by a bracketed root finder: ``GainTable.slope`` supplies the
exact slope of the tabulated gain ``GainTable.gain`` and the allocation
supplies the marginal cost.  The table is C1 (cubic Hermite in the
score, on the exact derivative of the prize weight), so the gap is
continuous and the root finder converges superlinearly.  That root is
the best response unless the coarse cell pays strictly more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._isotonic import isotonic_projection
from ._rootfind import bisect_vec, expand_upper
from .baseline import BaselineGrid, baseline_grid
from .costmin import allocate_grid
from .errors import DomainError, SolverError, UnconvergedProfileError
from .model import Scenario, TypeDistribution

Array = np.ndarray

_THETA_NODES = 64
_COARSE_POINTS = 200     # best-response sweep resolution on [0, mu_max]
_FOC_TOL = 1e-9          # bracket width of the first-order-condition root
_GAIN_NODES = 96
_WEIGHT_GRID = 1025
_ANDERSON_MEMORY = 3     # residual differences mixed in each fixed-point step
_DAMPING = 0.5           # best-response weight of the first step after a restart
_STALL_SWEEPS = 10       # sweeps without a new best residual before giving up
_MAX_ITER = 500          # iterations before an unconverged solve stops


@dataclass(frozen=True)
class StrategyProfile:
    """A symmetric strategy: mean-fitness targets on a type grid.

    The type grid is the one of ``baseline``, the no-contest optima the
    solver started from.  Off-grid types interpolate linearly; the
    schedule is non-decreasing by construction.  ``residual`` is the
    sup-norm best-response gap of ``mu_star`` and ``tol`` the solve's
    tolerance; ``converged`` is computed from the two.
    """

    scenario: Scenario
    baseline: BaselineGrid
    mu_star: Array
    iterations: int
    residual: float
    tol: float

    def __post_init__(self) -> None:
        if np.shape(self.mu_star) != self.theta_grid.shape:
            raise DomainError(
                f"mu_star has shape {np.shape(self.mu_star)}, the baseline's "
                f"type grid {self.theta_grid.shape}")
        self.theta_grid.setflags(write=False)
        self.mu_star.setflags(write=False)

    @property
    def theta_grid(self) -> Array:
        return self.baseline.theta

    @property
    def converged(self) -> bool:
        return self.residual <= self.tol

    def require_converged(self) -> None:
        """Raise :class:`UnconvergedProfileError` unless ``converged``."""
        if not self.converged:
            raise UnconvergedProfileError(
                f"equilibrium did not converge (residual {self.residual:.3e})")

    def mu_at(self, theta) -> Array | float:
        theta = np.asarray(theta, dtype=float)
        out = np.interp(theta, self.theta_grid, self.mu_star)
        return float(out) if out.ndim == 0 else out


@cache
def _unit_rule(n: int) -> tuple[Array, Array]:
    """The n-point Gauss-Legendre rule on [-1, 1], computed once per n and
    read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(n: int, lo: float, hi: float) -> tuple[Array, Array]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [lo, hi]."""
    x, w = _unit_rule(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _opponent_nodes(types: TypeDistribution, theta_grid: Array,
                    mu: Array) -> tuple[Array, Array]:
    """Weights and targets of opponents playing ``mu`` on ``theta_grid``: a
    Gauss-Legendre rule over the type support, one node for a point mass."""
    if types.degenerate:
        return np.ones(1), np.interp([types.lo], theta_grid, mu)
    th, w = gauss_legendre(_THETA_NODES, types.lo, types.hi)
    wf = w * types.pdf(th)
    wf = wf / wf.sum()  # keep the mixture an exact probability
    return wf, np.interp(th, theta_grid, mu)


@cache
def _log_choose(n: int) -> Array:
    """log C(n, j) for j = 0..n, each the log of the exact integer."""
    out = np.array([math.log(math.comb(n, j)) for j in range(n + 1)])
    out.setflags(write=False)
    return out


def _binom_pmf(k: Array, n: int, p: Array) -> Array:
    """Binomial pmf of ``k`` (integers in [0, n]) in ``n`` trials of ``p``.

    The exp of a sum of logs, where a zero count contributes 0 in place of
    0 * log 0: the result is exactly 1 at n = 0 and exactly 0 or 1 at
    p = 0 and p = 1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        hits = np.where(k > 0, k * np.log(p), 0.0)
        misses = np.where(n - k > 0, (n - k) * np.log1p(-p), 0.0)
    return np.exp(_log_choose(n)[k] + hits + misses)


class GainTable:
    """Fast expected-prize evaluator against opponents playing ``mu`` on ``theta_grid``.

    Tabulates the conditional prize weight W(s) = E[prize | own score s]
    and its exact derivative on a uniform score grid, and interpolates W
    by cubic Hermite segments, so the gain is C1 and its slope continuous.
    One constant segment below the grid (everyone ahead) and one above it
    (nobody ahead) extend W to every score.  The expectation over own
    noise uses a fixed Gauss-Legendre rule in quantile space.  loc and
    scale are affine in mu for every noise kind, so each node's grid
    position is affine in mu too.  ``gain`` and ``slope`` are the two
    evaluators; each row of a call is summed on its own, so a one-target
    call equals the same target's value in a longer call bit for bit.
    Shared by the solver and the public best response so both optimise
    the identical payoff.
    """

    def __init__(self, scenario: Scenario, theta_grid: Array, mu: Array, mu_max: float):
        # the schedule is interpolated, which needs one target per type
        # and strictly increasing types
        theta_grid, mu = np.asarray(theta_grid, dtype=float), np.asarray(mu, dtype=float)
        if theta_grid.ndim != 1 or mu.shape != theta_grid.shape:
            raise DomainError(f"mu has shape {mu.shape}, the type grid {theta_grid.shape}")
        if not np.all(np.diff(theta_grid) > 0):
            raise DomainError("the type grid must strictly increase")
        if not np.all(np.isfinite(mu)):
            raise DomainError("mu must be finite")
        noise, players, prizes = scenario.noise, scenario.players, scenario.prizes
        self.noise = noise
        # the bottom prize is sure: only ranks paid more are tabulated, and
        # with none (an equal ladder, zero prizes, one player) the gain is flat
        paid = prizes.padded(players)
        ranks = np.nonzero(paid > paid[-1])[0] + 1
        self.sure = float(paid[-1]) if ranks.size == 0 else None
        if self.sure is not None:
            return
        weights, opp_mus = _opponent_nodes(scenario.types, theta_grid, mu)
        lo0, sc0 = noise.loc_scale(np.array(0.0))
        lo1, sc1 = noise.loc_scale(np.array(mu_max))
        z_lo, z_hi = float(noise.z_ppf(1e-9)), float(noise.z_ppf(1.0 - 1e-9))
        # loc rises with mu and no target is negative, so zero's quantile is lowest
        s_lo = float(lo0 + sc0 * z_lo)
        s_hi = float(lo1 + sc1 * z_hi)
        s_grid, h = np.linspace(s_lo, s_hi, _WEIGHT_GRID, retstep=True)
        # the opponents' score CDF G and density G'
        g = np.einsum("ij,j->i", noise.cdf(s_grid[:, None], opp_mus[None, :]), weights)
        # the weighted sum can round an ulp above 1, where the binomial
        # rank weights in 1 - G are NaN
        g = np.minimum(g, 1.0)
        dens = np.einsum("ij,j->i", noise.pdf(s_grid[:, None], opp_mus[None, :]),
                         weights)
        # rank k means k - 1 of the players - 1 opponents score higher, each
        # independently with probability 1 - G: a binomial pmf
        rank_pmf = _binom_pmf(ranks[None, :] - 1, players - 1, (1.0 - g)[:, None])
        w = paid[-1] + rank_pmf @ (paid[ranks - 1] - paid[-1])
        # dW/ds = (n-1) G'(s) sum_j binom(j; n-2, 1-G) (paid_{j+1} - paid_{j+2})
        drop = (paid[:-1] - paid[1:])[:ranks[-1]]
        beaten = _binom_pmf(np.arange(drop.size)[None, :], players - 2,
                            (1.0 - g)[:, None])
        m = h * (players - 1) * dens * (beaten @ drop)   # slope per unit t
        # cubic Hermite segments in t = (s - s_i) / h, Horner order c0..c3,
        # between a constant segment at each end
        dw = np.diff(w)
        below = [paid[players - 1], 0.0, 0.0, 0.0]   # everyone ahead
        above = [paid[0], 0.0, 0.0, 0.0]             # nobody ahead
        self.coef = np.column_stack([below, np.stack(
            [w[:-1], m[:-1], 3.0 * dw - 2.0 * m[:-1] - m[1:],
             m[:-1] + m[1:] - 2.0 * dw]), above])
        # dW/dt in Horner order: c1, 2 c2, 3 c3
        self.dcoef = self.coef[1:] * np.array([[1.0], [2.0], [3.0]])
        u, wu = gauss_legendre(_GAIN_NODES, 0.0, 1.0)
        z = noise.z_ppf(u)
        # a unit step in mu gives the slopes of loc and scale; a node's
        # position counts segments from the constant one below the grid
        lo_unit, sc_unit = noise.loc_scale(np.array(1.0))
        self.pos_base = (lo0 + sc0 * z - s_lo) / h + 1.0
        self.pos_rate = ((lo_unit - lo0) + (sc_unit - sc0) * z) / h
        self.z_weights = wu
        self.slope_weights = wu * self.pos_rate

    def gain(self, mu) -> Array:
        """Expected prize at each target ``mu``."""
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if self.sure is not None:
            return np.full_like(mu, self.sure)
        return self._integrate(mu, self.coef, self.z_weights)

    def slope(self, mu) -> Array:
        """Exact derivative in ``mu`` of :meth:`gain` at each target."""
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if self.sure is not None:
            return np.zeros_like(mu)
        return self._integrate(mu, self.dcoef, self.slope_weights)

    def _integrate(self, mu: Array, coef: Array, weights: Array) -> Array:
        """Weighted node sum, at each ``mu``, of the segment polynomials
        ``coef`` (Horner order, lowest degree first)."""
        if self.noise.kind == "exponential" and np.any(mu < 0):
            raise DomainError("exponential noise needs non-negative mean")
        pos = mu[:, None] * self.pos_rate
        pos += self.pos_base
        seg = np.clip(pos, 0.0, _WEIGHT_GRID).astype(np.intp)
        t = np.subtract(pos, seg, out=pos)
        c = np.take(coef, seg, axis=1)
        acc = c[-1]
        for ck in c[-2::-1]:
            acc *= t
            acc += ck
        # einsum, not BLAS, whose summation order depends on the row count
        return np.einsum("ij,j->i", acc, weights)


def _mu_upper_bound(scenario: Scenario, base: BaselineGrid) -> float:
    """Bracket above the best response of every type, doubled for slack.

    A target mu pays at most R_1 + mu - C(mu, theta) and the no-contest
    target pays at least s(theta), the no-contest payoff, so the top type
    responds below the root of C(mu, theta_hi) - mu + s - R_1 above its
    no-contest target, and lower types no higher (increasing
    differences; Milgrom & Shannon 1994).
    """
    hi = np.array([scenario.support[1]])
    floor = float(np.max(base.payoff)) - scenario.prizes.top
    mu_lo = np.array([float(np.max(base.mu))])

    def surplus_gap(mu: Array) -> Array:
        return allocate_grid(scenario, mu, hi).cost - mu + floor

    probe = expand_upper(surplus_gap, np.maximum(mu_lo, 1.0),
                         what="the best response: the top prize can buy back "
                              "any target of the top type")
    root = float(bisect_vec(surplus_gap, mu_lo, probe, tol=1e-6 * probe[0])[0])
    return 2.0 * root


def _coarse_grid(scenario: Scenario, thetas: Array,
                 mu_max: float) -> tuple[Array, Array]:
    """The coarse target sweep on [0, mu_max] and its cost for every type."""
    mu_grid = np.linspace(0.0, mu_max, _COARSE_POINTS)
    return mu_grid, allocate_grid(scenario, mu_grid[:, None], thetas[None, :]).cost


def _best_response_grid(scenario: Scenario, table: GainTable, thetas: Array,
                        mu_grid: Array, cost_matrix: Array) -> Array:
    """Best responses for every type against a fixed gain table.

    ``cost_matrix`` holds C(mu_grid[i], thetas[j]).  The coarse sweep
    picks the best cell; inside its two neighbouring cells, the
    first-order condition gain'(mu) + 1 = dC/dmu is solved to ``_FOC_TOL``
    by the bracketed root finder.  That root is returned unless the cell
    pays strictly more (a corner optimum).  A non-finite coarse payoff
    raises :class:`SolverError`, since ``argmax`` would pick it.
    """
    gains = table.gain(mu_grid)
    payoff_matrix = gains[:, None] + mu_grid[:, None] - cost_matrix
    if not np.all(np.isfinite(payoff_matrix)):
        raise SolverError("best-response payoff is not finite on the coarse grid")
    idx = np.argmax(payoff_matrix, axis=0)
    lo = mu_grid[np.maximum(idx - 1, 0)]
    hi = mu_grid[np.minimum(idx + 1, mu_grid.size - 1)]

    def foc_gap(mu: Array) -> Array:
        return (allocate_grid(scenario, mu, thetas).marginal_cost - 1.0
                - table.slope(mu))

    root = bisect_vec(foc_gap, lo, hi, tol=_FOC_TOL)
    root_payoff = table.gain(root) + root - allocate_grid(scenario, root, thetas).cost
    cell_payoff = payoff_matrix[idx, np.arange(thetas.size)]
    return np.where(cell_payoff > root_payoff, mu_grid[idx], root)


def best_response_grid(profile: StrategyProfile, thetas) -> Array:
    """Best responses of many types against a profile, sharing one gain table.

    The bracket comes from ``profile.baseline``, so one type's best
    response ``best_response_grid(profile, [theta])[0]`` is its grid value.
    It holds for types in the support only; others raise DomainError.
    """
    scenario = profile.scenario
    thetas = np.asarray(thetas, dtype=float)
    scenario.check_theta(thetas)
    mu_max = _mu_upper_bound(scenario, profile.baseline)
    mu_grid, cost_matrix = _coarse_grid(scenario, thetas, mu_max)
    table = GainTable(scenario, profile.theta_grid, profile.mu_star, mu_max)
    return _best_response_grid(scenario, table, thetas, mu_grid, cost_matrix)


def solve_equilibrium(scenario: Scenario, *, grid_size: int = 201,
                      tol: float = 1e-5) -> StrategyProfile:
    """Anderson-accelerated fixed point for the symmetric equilibrium schedule.

    Iterates on the best-response map g from the no-contest schedule.
    Each step is type-II Anderson mixing (Anderson 1965; Walker & Ni
    2011) over the last ``_ANDERSON_MEMORY`` differences: with f = g - x,
    the next iterate is g_k - dG gamma, where gamma is the least-squares
    solution of dF gamma = f_k.  The history restarts when the residual
    rises; the first step after each restart is the best response damped
    by ``_DAMPING``.  The target bracket is ``_mu_upper_bound``, proven to
    hold every best response, so it never widens.
    Every iterate is clipped from below at the starting schedule and
    projected onto non-decreasing schedules, which keeps it above the
    no-contest schedule.

    Stops when the sup-norm best-response residual is at most ``tol``,
    when ``_STALL_SWEEPS`` sweeps in a row fail to improve on the best
    residual, or after ``_MAX_ITER`` iterations.  The returned schedule is
    the iterate with the smallest measured residual and ``residual`` is
    its residual; the profile keeps ``tol``, and its ``converged`` (never
    raised here) says whether the residual is at most ``tol``.
    """
    thetas = scenario.types.grid(grid_size)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tol must be finite and non-negative, got {tol}")
    base = baseline_grid(scenario, thetas)
    floor = isotonic_projection(base.mu)
    mu = floor
    mu_max = _mu_upper_bound(scenario, base)
    mu_grid, cost_matrix = _coarse_grid(scenario, thetas, mu_max)

    best_residual, best_mu = math.inf, mu
    last_residual = math.inf
    stalled = 0
    g_hist: list[Array] = []   # best responses since the last restart
    f_hist: list[Array] = []   # their residuals g - x
    iterations = 0
    while iterations < _MAX_ITER:
        iterations += 1
        br = _best_response_grid(scenario, GainTable(scenario, thetas, mu, mu_max),
                                 thetas, mu_grid, cost_matrix)
        f = br - mu
        residual = float(np.max(np.abs(f)))
        if residual < best_residual:
            best_residual, best_mu, stalled = residual, mu, 0
        else:
            stalled += 1
        if residual <= tol or stalled >= _STALL_SWEEPS:
            break
        if residual > last_residual:
            g_hist, f_hist = [], []
        last_residual = residual
        g_hist = [*g_hist[-_ANDERSON_MEMORY:], br]
        f_hist = [*f_hist[-_ANDERSON_MEMORY:], f]
        if len(g_hist) == 1:
            step = (1.0 - _DAMPING) * mu + _DAMPING * br
        else:
            d_g = np.diff(np.array(g_hist), axis=0).T
            d_f = np.diff(np.array(f_hist), axis=0).T
            gamma = np.linalg.lstsq(d_f, f, rcond=None)[0]
            step = br - d_g @ gamma
        mu = isotonic_projection(np.maximum(step, floor))
    return StrategyProfile(scenario, base, best_mu, iterations, best_residual, tol)
