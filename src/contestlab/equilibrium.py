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

is solved by a bracketed root finder: ``GainTable.gain_and_slope``
supplies the exact slope of the tabulated gain and the allocation
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
from ._quadrature import adaptive_simpson, gauss_legendre
from ._rootfind import bisect_vec, expand_upper
from .baseline import BaselineGrid, baseline_grid
from .costmin import allocate_grid
from .errors import DomainError, SolverError, UnconvergedProfileError
from .model import NoiseFamily, Scenario

Array = np.ndarray

_THETA_NODES = 64
_COARSE_POINTS = 200     # best-response sweep resolution on [0, mu_max]
_FOC_TOL = 1e-9          # bracket width of the first-order-condition root
_RANK_TOL = 1e-9         # total quadrature error of a rank distribution
_GAIN_NODES = 96
_WEIGHT_GRID = 1025
_ANDERSON_MEMORY = 3     # residual differences mixed in each fixed-point step
_DAMPING = 0.5           # best-response weight of the first step after a restart
_STALL_SWEEPS = 10       # sweeps without a new best residual before giving up


@dataclass(frozen=True)
class StrategyProfile:
    """A symmetric strategy: mean-fitness targets on a type grid.

    The type grid is the one of ``baseline``, the no-contest optima the
    solver started from.  Off-grid types interpolate linearly; the
    schedule is non-decreasing by construction.  ``converged`` reports
    whether the solver met its tolerance, ``residual`` is the sup-norm
    best-response gap of ``mu_star``.
    """

    scenario: Scenario
    baseline: BaselineGrid
    mu_star: Array
    converged: bool
    iterations: int
    residual: float

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

    def require_converged(self) -> None:
        """Raise :class:`UnconvergedProfileError` unless ``converged``."""
        if not self.converged:
            raise UnconvergedProfileError(
                f"equilibrium did not converge (residual {self.residual:.3e})")

    def mu_at(self, theta) -> Array | float:
        theta = np.asarray(theta, dtype=float)
        out = np.interp(theta, self.theta_grid, self.mu_star)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class OpponentMixture:
    """Performance distribution of one opponent: noise mixed over types."""

    weights: Array
    mus: Array
    noise: NoiseFamily

    def cdf(self, s) -> Array:
        s = np.asarray(s, dtype=float)
        flat = np.atleast_1d(s)
        out = self.noise.cdf(flat[:, None], self.mus[None, :]) @ self.weights
        # the weighted sum can round an ulp above 1, where the binomial
        # rank weights in 1 - G are NaN
        out = np.minimum(out, 1.0)
        return out.reshape(s.shape) if s.shape else out[0]


def opponent_mixture(profile: StrategyProfile) -> OpponentMixture:
    """Discretise the opponents' performance mixture over types."""
    types = profile.scenario.types
    if types.degenerate:
        return OpponentMixture(np.ones(1), np.atleast_1d(profile.mu_at(types.lo)),
                               profile.scenario.noise)
    th, w = gauss_legendre(_THETA_NODES, types.lo, types.hi)
    wf = w * types.pdf(th)
    wf = wf / wf.sum()  # keep the mixture an exact probability
    return OpponentMixture(wf, np.interp(th, profile.theta_grid, profile.mu_star),
                           profile.scenario.noise)


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


def _rank_pmf(g: Array, players: int, ranks: Array) -> Array:
    """P(exactly rank k) weights at opponent CDF values ``g``.

    Rank k means k - 1 of the ``players - 1`` opponents score higher,
    each independently with probability 1 - g: a binomial pmf.
    """
    return _binom_pmf(ranks[None, :] - 1, players - 1, (1.0 - g)[:, None])


def rank_probabilities(mu: float, profile: StrategyProfile) -> Array:
    """Distribution of the final rank for a player targeting ``mu``.

    Integrates the binomial rank weights against the player's own
    performance density by adaptive Simpson quadrature; the total error
    across all rank entries is at most 1e-9, so the vector sums to one
    at that accuracy.
    """
    if mu < 0:
        raise DomainError(f"fitness target must be non-negative, got {mu!r}")
    players = profile.scenario.players
    if players == 1:
        return np.ones(1)
    mix = opponent_mixture(profile)
    noise = profile.scenario.noise
    ranks = np.arange(1, players + 1)

    def integrand(s: Array) -> Array:
        dens = noise.pdf(s, mu)
        return _rank_pmf(mix.cdf(s), players, ranks) * dens[:, None]

    lo = float(noise.ppf(1e-12, mu))
    hi = float(noise.ppf(1.0 - 1e-12, mu))
    return adaptive_simpson(integrand, lo, hi, tol=_RANK_TOL)


def contest_gain(mu: float, profile: StrategyProfile) -> float:
    """Expected prize money for a player targeting ``mu``."""
    scenario = profile.scenario
    if scenario.prizes.is_zero:
        return 0.0
    p = rank_probabilities(mu, profile)
    return float(p @ scenario.prizes.padded(scenario.players))


class GainTable:
    """Fast expected-prize evaluator against a fixed profile's opponents.

    Tabulates the conditional prize weight W(s) = E[prize | own score s]
    and its exact derivative on a uniform score grid, and interpolates W
    by cubic Hermite segments, so the gain is C1 and its slope continuous.
    The expectation over own noise uses a fixed Gauss-Legendre rule in
    quantile space.  Shared by the solver and the public best response so
    both optimise the identical payoff.
    """

    def __init__(self, profile: StrategyProfile, mu_max: float):
        scenario = profile.scenario
        noise, players, prizes = scenario.noise, scenario.players, scenario.prizes
        self.noise = noise
        self.zero = prizes.is_zero or players == 1
        if self.zero:
            return
        paid = prizes.padded(players)
        ranks = np.nonzero(paid > 0)[0] + 1
        mixture = opponent_mixture(profile)
        lo0, sc0 = noise.loc_scale(np.array(0.0))
        lo1, sc1 = noise.loc_scale(np.array(mu_max))
        z_lo, z_hi = float(noise.z_ppf(1e-9)), float(noise.z_ppf(1.0 - 1e-9))
        mus = np.concatenate([np.atleast_1d(mixture.mus), [0.0, mu_max]])
        s_lo = min(float(lo0 + sc0 * z_lo),
                   float(np.min(noise.loc_scale(mus)[0])))
        s_hi = float(lo1 + sc1 * z_hi)
        s_grid, h = np.linspace(s_lo, s_hi, _WEIGHT_GRID, retstep=True)
        self.s_lo, self.s_step = s_lo, h
        g = mixture.cdf(s_grid)
        w = _rank_pmf(g, players, ranks) @ paid[ranks - 1]
        # dW/ds = (n-1) G'(s) sum_j binom(j; n-2, 1-G) (paid_{j+1} - paid_{j+2})
        drop = (paid[:-1] - paid[1:])[:ranks[-1]]
        dens = (mixture.noise.pdf(s_grid[:, None], mixture.mus[None, :])
                @ mixture.weights)
        beaten = _binom_pmf(np.arange(drop.size)[None, :], players - 2,
                            (1.0 - g)[:, None])
        m = h * (players - 1) * dens * (beaten @ drop)   # slope per unit t
        # cubic Hermite segments in t = (s - s_i) / h, Horner order c0..c3
        dw = np.diff(w)
        self.coef = np.stack([w[:-1], m[:-1], 3.0 * dw - 2.0 * m[:-1] - m[1:],
                              m[:-1] + m[1:] - 2.0 * dw])
        # loc and scale are affine in mu, so a unit step gives their slopes
        lo_unit, sc_unit = noise.loc_scale(np.array(1.0))
        self.dloc, self.dscale = float(lo_unit - lo0), float(sc_unit - sc0)
        self.w_lo = float(paid[players - 1])   # everyone ahead
        self.w_hi = float(paid[0])             # nobody ahead
        u, wu = gauss_legendre(_GAIN_NODES, 0.0, 1.0)
        self.z_nodes = noise.z_ppf(u)
        self.z_weights = wu

    def gain(self, mu) -> Array:
        return self.gain_and_slope(mu)[0]

    def gain_and_slope(self, mu) -> tuple[Array, Array]:
        """Expected prize at each ``mu`` and its exact derivative in ``mu``.

        W is a cubic Hermite spline on the uniform score grid, so each
        node's segment comes from index arithmetic and its slope is the
        derivative of that cubic times ds/dmu = dloc/dmu + z * dscale/dmu
        (loc and scale are affine in mu for every noise kind).
        """
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if self.zero:
            return np.zeros_like(mu), np.zeros_like(mu)
        loc, scale = self.noise.loc_scale(mu)
        s = loc[:, None] + scale[:, None] * self.z_nodes[None, :]
        pos = (s - self.s_lo) / self.s_step
        seg = np.clip(np.floor(pos), 0, _WEIGHT_GRID - 2).astype(np.intp)
        t = pos - seg
        c0, c1, c2, c3 = np.take(self.coef, seg, axis=1)
        w = ((c3 * t + c2) * t + c1) * t + c0
        slope = ((3.0 * c3 * t + 2.0 * c2) * t + c1) / self.s_step
        below, above = pos < 0.0, pos > _WEIGHT_GRID - 1
        w = np.where(below, self.w_lo, np.where(above, self.w_hi, w))
        slope = np.where(below | above, 0.0, slope)
        ds = self.dloc + self.dscale * self.z_nodes
        # row sums, not BLAS, whose summation order depends on the row count
        return (w * self.z_weights).sum(1), (slope * (self.z_weights * ds)).sum(1)


def _mu_upper_bound(scenario: Scenario, base: BaselineGrid) -> float:
    """Bracket above every best response, doubled for slack."""
    lo, hi = scenario.support
    top = scenario.prizes.top
    base_cap = float(np.max(base.mu)) if base.mu.size else 1.0
    if scenario.nu.kind == "saturating":
        cap = float(scenario.nu.sup(hi)) + float(scenario.xi.invert(top)) + 1.0
        return max(cap, 2.0 * base_cap + 1.0)
    h_max = scenario.noise.max_density(max(base_cap, 1e-2))
    target = 1.0 + top * h_max

    def mc_gap(mu: Array) -> Array:
        return allocate_grid(scenario, mu, np.array([hi])).marginal_cost - target

    probe = expand_upper(mc_gap, np.array([max(base_cap, 1.0)]),
                         what="the best response: marginal cost never reaches "
                              "the contest-gain bound")
    root = float(bisect_vec(mc_gap, np.zeros(1), probe, tol=1e-6 * probe[0])[0])
    return max(2.0 * root, 2.0 * base_cap + 1.0, 1e-6)


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
        slope = table.gain_and_slope(mu)[1]
        return allocate_grid(scenario, mu, thetas).marginal_cost - 1.0 - slope

    root = bisect_vec(foc_gap, lo, hi, tol=_FOC_TOL)
    root_payoff = table.gain(root) + root - allocate_grid(scenario, root, thetas).cost
    cell_payoff = payoff_matrix[idx, np.arange(thetas.size)]
    return np.where(cell_payoff > root_payoff, mu_grid[idx], root)


def best_response_grid(profile: StrategyProfile, thetas) -> Array:
    """Best responses of many types against a profile, sharing one gain table.

    The bracket comes from ``profile.baseline``, so one type's best
    response ``best_response_grid(profile, [theta])[0]`` is its grid value.
    """
    scenario = profile.scenario
    thetas = np.asarray(thetas, dtype=float)
    mu_max = _mu_upper_bound(scenario, profile.baseline)
    mu_grid, cost_matrix = _coarse_grid(scenario, thetas, mu_max)
    return _best_response_grid(scenario, GainTable(profile, mu_max), thetas,
                               mu_grid, cost_matrix)


def solve_equilibrium(scenario: Scenario, *, grid_size: int = 201,
                      tol: float = 1e-5, max_iter: int = 500) -> StrategyProfile:
    """Anderson-accelerated fixed point for the symmetric equilibrium schedule.

    Iterates on the best-response map g from the no-contest schedule.
    Each step is type-II Anderson mixing (Anderson 1965; Walker & Ni
    2011) over the last ``_ANDERSON_MEMORY`` differences: with f = g - x,
    the next iterate is g_k - dG gamma, where gamma is the least-squares
    solution of dF gamma = f_k.  The history restarts when the residual
    rises and when the target bracket ``mu_max`` is extended; the first
    step after each restart is the best response damped by ``_DAMPING``.
    Every iterate is clipped from below at the starting schedule and
    projected onto non-decreasing schedules, which keeps it above the
    no-contest schedule.

    Stops when the sup-norm best-response residual is at most ``tol``,
    when ``_STALL_SWEEPS`` sweeps in a row fail to improve on the best
    residual, or after ``max_iter`` iterations.  The returned schedule is
    the iterate with the smallest measured residual and ``residual`` is
    its residual; ``converged`` (never raised here) says whether it is at
    most ``tol``.
    """
    if grid_size < 2:
        raise DomainError(f"grid_size must be at least 2, got {grid_size}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tol must be finite and non-negative, got {tol}")
    lo, hi = scenario.support
    if scenario.types.degenerate:
        thetas = np.array([lo])
    else:
        thetas = np.linspace(lo, hi, grid_size)
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
    extensions = 0
    while iterations < max_iter:
        iterations += 1
        profile = StrategyProfile(scenario, base, mu.copy(), False, iterations,
                                  math.inf)
        br = _best_response_grid(scenario, GainTable(profile, mu_max), thetas,
                                 mu_grid, cost_matrix)
        if float(np.max(br)) > mu_max - 2.0 * mu_grid[1]:
            if extensions >= 12:
                raise SolverError(
                    f"best responses keep escaping the bracket (mu_max={mu_max:.4g})")
            extensions += 1
            mu_max *= 1.6
            mu_grid, cost_matrix = _coarse_grid(scenario, thetas, mu_max)
            g_hist, f_hist = [], []
            continue
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
    return StrategyProfile(scenario, base, best_mu, best_residual <= tol,
                           iterations, best_residual)
