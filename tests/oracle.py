"""Independent expected-prize oracle that checks ``GainTable``.

``GainTable`` is the package's one expected-prize evaluator: it mixes
the opponents' noise over a 64-node Gauss rule on the type support and
tabulates the prize weight on a score grid.  This oracle shares neither
step.  Its opponents mix the noise over Gauss nodes on each linear cell
of the schedule interpolant, where the integrand is smooth in the type,
so the mixture is exact to rounding; and it integrates scipy's binomial
rank weights against the player's own density by adaptive Simpson
quadrature to a stated total error.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.stats import binom

from contestlab import DomainError, Scenario

RANK_TOL = 1e-9         # total quadrature error of a rank distribution
CELL_NODES = 3          # Gauss nodes on each cell of the schedule interpolant
MAX_INTERVALS = 200_000


def adaptive_simpson(func: Callable[[np.ndarray], np.ndarray], lo: float,
                     hi: float, *, tol: float) -> np.ndarray:
    """Integrate a vector-valued ``func`` over [lo, hi] adaptively.

    ``func`` maps abscissae of shape (n,) to values of shape (n, m) and
    is always called on whole batches of intervals.  Returns shape (m,).
    An interval is accepted once the summed absolute Richardson error of
    all components falls below its width-proportional share of ``tol``.
    Raises RuntimeError once ``MAX_INTERVALS`` intervals are spent.
    """
    if hi <= lo:
        probe = np.atleast_2d(func(np.array([lo])))
        return np.zeros(probe.shape[1])

    total_width = hi - lo

    def _batch_eval(points: np.ndarray) -> np.ndarray:
        out = np.asarray(func(points), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        return out

    # start from a uniform partition: a single panel can silently accept
    # integrands whose support falls between its five probe points
    edges = np.linspace(lo, hi, 17)
    a = edges[:-1]
    b = edges[1:]
    fa = _batch_eval(a)
    fb = _batch_eval(b)
    fm = _batch_eval(0.5 * (a + b))
    whole = (b - a)[:, None] / 6.0 * (fa + 4.0 * fm + fb)

    result = np.zeros(whole.shape[1])
    spent = 0
    while a.size:
        spent += a.size
        if spent > MAX_INTERVALS:
            raise RuntimeError(f"adaptive Simpson exceeded {MAX_INTERVALS} "
                               f"intervals on [{lo:.6g}, {hi:.6g}]")
        mid = 0.5 * (a + b)
        lm = _batch_eval(0.5 * (a + mid))
        rm = _batch_eval(0.5 * (mid + b))
        h6 = (mid - a)[:, None] / 6.0
        left = h6 * (fa + 4.0 * lm + fm)
        right = h6 * (fm + 4.0 * rm + fb)
        err = np.abs(left + right - whole).sum(axis=1)
        budget = tol * (b - a) / total_width
        done = err <= budget
        if np.any(done):
            refined = left[done] + right[done]
            # one extra Richardson step per accepted interval
            refined += (refined - whole[done]) / 15.0
            result += refined.sum(axis=0)
        keep = ~done
        a = np.concatenate([a[keep], mid[keep]])
        b = np.concatenate([mid[keep], b[keep]])
        fa = np.concatenate([fa[keep], fm[keep]])
        fb = np.concatenate([fm[keep], fb[keep]])
        fm = np.concatenate([lm[keep], rm[keep]])
        whole = np.concatenate([left[keep], right[keep]])
    return result


class RankOracle:
    """Rank distribution and expected prize against opponents who play
    the schedule ``mu`` on ``theta_grid``, as ``GainTable`` takes them.

    The opponents' mixture is built once, on construction: ``weights``
    are the probabilities of the type nodes and ``mus`` their targets.
    The schedule is linear between grid types, so each grid cell (split
    at the support's ends) gets ``CELL_NODES`` Gauss nodes; a point-mass
    type law gets one node.
    """

    def __init__(self, scenario: Scenario, theta_grid, mu):
        self.scenario = scenario
        self.noise = scenario.noise
        types = scenario.types
        theta_grid = np.asarray(theta_grid, dtype=float)
        if types.degenerate:
            self.weights = np.ones(1)
            self.mus = np.interp([types.lo], theta_grid, mu)
            return
        grid = np.clip(theta_grid, types.lo, types.hi)
        edges = np.unique(np.concatenate([[types.lo], grid, [types.hi]]))
        x, w = np.polynomial.legendre.leggauss(CELL_NODES)
        half = 0.5 * np.diff(edges)[:, None]
        theta = (edges[:-1, None] + half * (x + 1.0)).ravel()
        mass = (half * w).ravel() * types.pdf(theta)
        self.weights = mass / mass.sum()
        self.mus = np.interp(theta, theta_grid, mu)

    def cdf(self, s) -> np.ndarray:
        """One opponent's score CDF G at each score ``s``."""
        s = np.asarray(s, dtype=float)
        flat = np.atleast_1d(s)
        out = np.einsum("ij,j->i", self.noise.cdf(flat[:, None], self.mus[None, :]),
                        self.weights)
        # the weighted sum can round an ulp above 1, where the binomial
        # rank weights in 1 - G are NaN
        out = np.minimum(out, 1.0)
        return out.reshape(s.shape) if s.shape else out[0]

    def rank_probabilities(self, mu: float) -> np.ndarray:
        """Distribution of the final rank for a player targeting ``mu``.

        The total quadrature error across all rank entries is at most
        ``RANK_TOL``, so the vector sums to one at that accuracy.
        """
        if mu < 0:
            raise DomainError(f"fitness target must be non-negative, got {mu!r}")
        players = self.scenario.players
        if players == 1:
            return np.ones(1)
        ranks = np.arange(1, players + 1)

        def integrand(s: np.ndarray) -> np.ndarray:
            # rank k: k - 1 of the players - 1 opponents score higher
            beaten_by = binom.pmf(ranks[None, :] - 1, players - 1, 1.0 - self.cdf(s)[:, None])
            return beaten_by * self.noise.pdf(s, mu)[:, None]

        loc, scale = self.noise.loc_scale(mu)
        lo, hi = (float(loc + scale * self.noise.z_ppf(q)) for q in (1e-12, 1.0 - 1e-12))
        return adaptive_simpson(integrand, lo, hi, tol=RANK_TOL)

    def contest_gain(self, mu: float) -> float:
        """Expected prize money for a player targeting ``mu``."""
        scenario = self.scenario
        if scenario.prizes.total == 0.0:
            return 0.0
        p = self.rank_probabilities(mu)
        return float(p @ scenario.prizes.padded(scenario.players))
