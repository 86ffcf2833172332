"""Benchmark-hacking verdicts and prize-structure comparative statics.

A type "hacks" when the contest pushes it to raise mechanistic effort
above its no-contest level without raising creative effort.  Each type's
band is read off its two allocations: a type whose equilibrium
allocation is mech-only is a pure mechanizer; otherwise its no-contest
case names the band, mech-only giving a contest creator (it creates only
because of the contest), interior a dual-channel type (both efforts
rise) and create-only a pure creator.  ``theta_star`` and the baseline
cutoffs locate the band edges as numbers.

Prize vectors are ordered by adjacent gaps: R dominates R' when every
gap R_k - R_{k+1} is at least the corresponding gap of R'.  Under that
partial order equilibrium schedules move up pointwise and the mass of
hacking types shrinks; :func:`skewness_sweep` measures both and flags
violations instead of hiding them.

Verdicts are read off a profile alone, which must have converged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rootfind import bisect_vec
from .baseline import baseline_grid
from .costmin import CREATE_ONLY, INTERIOR, MECH_ONLY, AllocationGrid, allocate_grid
from .equilibrium import StrategyProfile, solve_equilibrium
from .errors import DomainError
from .model import PrizeVector, Scenario, TypeDistribution

Array = np.ndarray

# strictness margin: efforts this close count as unchanged
EFFORT_TOL = 1e-6
# schedule drops and hacking-mass rises up to these sizes are not violations
DOMINANCE_TOL = 1e-4
MEASURE_TOL = 1e-12
# prize gaps this close count as equal
GAP_TOL = 1e-12

PURE_MECHANIZER = "pure-mechanizer"
CONTEST_CREATOR = "contest-creator"
DUAL_CHANNEL = "dual-channel"
PURE_CREATOR = "pure-creator"
# band of a type that does not mechanise only in equilibrium, by its no-contest case
_BAND_OF_BASELINE = {MECH_ONLY: CONTEST_CREATOR, INTERIOR: DUAL_CHANNEL,
                     CREATE_ONLY: PURE_CREATOR}


def compare_prize_vectors(r1: PrizeVector, r2: PrizeVector, players: int) -> str:
    """Order two prize vectors by their adjacent gaps.

    Returns ``"geq"``, ``"leq"``, ``"equal"`` or ``"incomparable"``.  The
    vectors are compared over ranks 1..players-1: vectors are treated as
    spanning the whole contest.
    """
    g1 = r1.gaps(players)
    g2 = r2.gaps(players)
    ge = bool(np.all(g1 >= g2 - GAP_TOL))
    le = bool(np.all(g2 >= g1 - GAP_TOL))
    if ge and le:
        return "equal"
    if ge:
        return "geq"
    if le:
        return "leq"
    return "incomparable"


@dataclass(frozen=True)
class HackingProfile:
    """Verdicts along the type grid of a solved profile.

    ``allocation`` is the least-cost split of the equilibrium targets; the
    no-contest side, with its band cutoffs, is ``profile.baseline``.
    ``hacks`` flags each grid type, ``band`` names its hacking band, and
    ``measure`` is the probability mass of the hacking types under the
    profile's type distribution.
    """

    profile: StrategyProfile
    allocation: AllocationGrid
    hacks: np.ndarray
    band: tuple[str, ...]
    theta_star: float
    measure: float


def hacking_threshold(profile: StrategyProfile) -> float:
    """Largest type that fully mechanises its equilibrium target.

    Solves xi'(xi^{-1}(mu*(theta))) = nu_a(0, theta); -inf when even the
    lowest type prefers some creation, +inf when every type mechanises.
    """
    profile.require_converged()
    scenario = profile.scenario
    lo, hi = scenario.support
    xi, nu = scenario.xi, scenario.nu

    def gap(theta):
        return nu.deriv_a(0.0, theta) - xi.deriv(xi.invert(profile.mu_at(theta)))

    if gap(lo) > 0:
        return -np.inf
    if gap(hi) <= 0:
        return np.inf
    return float(bisect_vec(gap, np.array([lo]), np.array([hi]), tol=1e-11)[0])


def _bands(contest_case: Array, base_case: Array) -> tuple[str, ...]:
    """Band of each type from its equilibrium and no-contest case codes."""
    return tuple(PURE_MECHANIZER if case == MECH_ONLY else _BAND_OF_BASELINE[base]
                 for case, base in zip(contest_case.tolist(), base_case.tolist()))


def _type_mass(types: TypeDistribution, theta: Array, hacks: Array) -> float:
    """Mass of the flagged grid types, each owning the cell to its midpoints."""
    if theta.size == 1:
        return float(hacks[0])
    edges = np.concatenate([[types.lo], 0.5 * (theta[1:] + theta[:-1]), [types.hi]])
    masses = np.diff(types.cdf(edges))
    return float(np.sum(masses[hacks]))


def hacking_verdicts(profile: StrategyProfile) -> HackingProfile:
    """Classify every grid type of an equilibrium profile."""
    theta_star = hacking_threshold(profile)   # raises unless converged
    scenario, theta = profile.scenario, profile.theta_grid
    alloc = allocate_grid(scenario, profile.mu_star, theta)
    base = profile.baseline
    hacks = (alloc.a <= base.a + EFFORT_TOL) & (alloc.b > base.b + EFFORT_TOL)
    return HackingProfile(profile, alloc, hacks, _bands(alloc.case, base.case),
                          theta_star, _type_mass(scenario.types, theta, hacks))


@dataclass(frozen=True)
class SweepResult:
    """Equilibria and hacking measures across ordered prize vectors."""

    prize_vectors: tuple[PrizeVector, ...]
    relations: tuple[tuple[int, int, str], ...]
    verdicts: tuple[HackingProfile, ...]

    @property
    def hack_measures(self) -> tuple[float, ...]:
        return tuple(v.measure for v in self.verdicts)

    def _ordered_pairs(self):
        """(dominant, dominated) index pairs of the comparable prize vectors."""
        for i, j, rel in self.relations:
            if rel == "geq":
                yield i, j
            elif rel == "leq":
                yield j, i

    def dominance_violations(self) -> list[dict]:
        """Pointwise schedule drops where the prize order demands a rise."""
        out = []
        for hi_idx, lo_idx in self._ordered_pairs():
            hi, lo = self.verdicts[hi_idx].profile, self.verdicts[lo_idx].profile
            gap = lo.mu_star - hi.mu_star
            worst = int(np.argmax(gap))
            if gap[worst] > DOMINANCE_TOL:
                out.append({
                    "dominant": hi_idx, "dominated": lo_idx,
                    "theta": float(hi.theta_grid[worst]),
                    "shortfall": float(gap[worst]),
                })
        return out

    def measure_violations(self) -> list[dict]:
        """Hacking-mass increases where the prize order demands a drop."""
        out = []
        measures = self.hack_measures
        for hi_idx, lo_idx in self._ordered_pairs():
            if measures[hi_idx] > measures[lo_idx] + MEASURE_TOL:
                out.append({"dominant": hi_idx, "dominated": lo_idx,
                            "excess": measures[hi_idx] - measures[lo_idx]})
        return out


def skewness_sweep(scenario: Scenario, prize_vectors, *, grid_size: int = 201,
                   tol: float = 1e-5) -> SweepResult:
    """Solve the contest under each prize vector and compare outcomes.

    Each vector must fit the player count, or the first that does not is
    named, and all must be pairwise comparable under the gap order, or
    the offending pair is named.  Violations of the expected monotone
    comparative statics are recorded on the result, never silently repaired.
    """
    scenarios = []
    for i, prizes in enumerate(prize_vectors):
        pv = prizes if isinstance(prizes, PrizeVector) else PrizeVector(tuple(prizes))
        if len(pv) > scenario.players:
            shown = ", ".join(f"{v:g}" for v in pv.values)
            raise DomainError(f"prize vector {i} ({shown}) has {len(pv)} prizes "
                              f"for {scenario.players} players")
        scenarios.append(scenario.with_prizes(pv))
    if not scenarios:
        raise DomainError("need at least one prize vector")
    pvs = [s.prizes for s in scenarios]
    relations = []
    for i in range(len(pvs)):
        for j in range(i + 1, len(pvs)):
            rel = compare_prize_vectors(pvs[i], pvs[j], scenario.players)
            if rel == "incomparable":
                raise DomainError(
                    f"prize vectors {i} and {j} are incomparable: "
                    f"{pvs[i].values} vs {pvs[j].values}")
            relations.append((i, j, rel))
    verdicts = tuple(hacking_verdicts(solve_equilibrium(s, grid_size=grid_size, tol=tol))
                     for s in scenarios)
    return SweepResult(tuple(pvs), tuple(relations), verdicts)
