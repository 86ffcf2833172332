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
from .baseline import BaselineThresholds, baseline_grid
from .costmin import CASE_NAMES, CREATE_ONLY, INTERIOR, MECH_ONLY, allocate_grid
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
_BAND_OF_BASELINE = {CASE_NAMES[MECH_ONLY]: CONTEST_CREATOR,
                     CASE_NAMES[INTERIOR]: DUAL_CHANNEL,
                     CASE_NAMES[CREATE_ONLY]: PURE_CREATOR}


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
    """Verdicts along a type grid plus the band cutoffs.

    ``measure`` is the probability mass of the hacking types under the
    profile's type distribution.
    """

    theta: Array
    hacks: np.ndarray
    region: tuple[str, ...]
    theta_star: float
    measure: float
    thresholds: BaselineThresholds
    a_star: Array
    b_star: Array
    a_base: Array
    b_base: Array
    mu_star: Array
    mu_base: Array


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


def _bands(contest_case: Array, base_region: tuple[str, ...]) -> tuple[str, ...]:
    """Band of each type from its equilibrium case and no-contest region."""
    return tuple(PURE_MECHANIZER if case == MECH_ONLY else _BAND_OF_BASELINE[region]
                 for case, region in zip(contest_case.tolist(), base_region))


def _type_mass(types: TypeDistribution, theta: Array, hacks: Array) -> float:
    """Mass of the flagged grid types, each owning the cell to its midpoints."""
    if theta.size == 1:
        return float(hacks[0])
    edges = np.concatenate([[types.lo], 0.5 * (theta[1:] + theta[:-1]), [types.hi]])
    masses = np.diff(types.cdf(edges))
    return float(np.sum(masses[hacks]))


def hacking_verdicts(profile: StrategyProfile) -> HackingProfile:
    """Classify every grid type of an equilibrium profile."""
    profile.require_converged()
    scenario, theta = profile.scenario, profile.theta_grid
    alloc = allocate_grid(scenario, profile.mu_star, theta)
    base = baseline_grid(scenario, theta)
    theta_star = hacking_threshold(profile)
    hacks = (alloc.a <= base.a + EFFORT_TOL) & (alloc.b > base.b + EFFORT_TOL)
    return HackingProfile(theta, hacks, _bands(alloc.case, base.region), theta_star,
                          _type_mass(scenario.types, theta, hacks),
                          base.thresholds, alloc.a, alloc.b,
                          base.a, base.b, profile.mu_star, base.mu)


@dataclass(frozen=True)
class SweepResult:
    """Equilibria and hacking measures across ordered prize vectors."""

    prize_vectors: tuple[PrizeVector, ...]
    relations: tuple[tuple[int, int, str], ...]
    profiles: tuple[StrategyProfile, ...]
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
            gap = self.profiles[lo_idx].mu_star - self.profiles[hi_idx].mu_star
            worst = int(np.argmax(gap))
            if gap[worst] > DOMINANCE_TOL:
                out.append({
                    "dominant": hi_idx, "dominated": lo_idx,
                    "theta": float(self.profiles[hi_idx].theta_grid[worst]),
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

    def rows(self) -> list[dict]:
        """Flat per-(prize vector, type) records for tabular export."""
        out = []
        for idx, (prof, verd) in enumerate(zip(self.profiles, self.verdicts)):
            for k in range(prof.theta_grid.size):
                out.append({
                    "prizes": idx,
                    "theta": float(prof.theta_grid[k]),
                    "mu_star": float(prof.mu_star[k]),
                    "a_star": float(verd.a_star[k]),
                    "b_star": float(verd.b_star[k]),
                    "hacks": int(verd.hacks[k]),
                    "region": verd.region[k],
                })
        return out


def skewness_sweep(scenario: Scenario, prize_vectors, *, grid_size: int = 201,
                   tol: float = 1e-5) -> SweepResult:
    """Solve the contest under each prize vector and compare outcomes.

    All vectors must be pairwise comparable under the gap order; the
    offending pair is named otherwise.  Violations of the expected
    monotone comparative statics are recorded on the result, never
    silently repaired.
    """
    pvs = [pv if isinstance(pv, PrizeVector) else PrizeVector(tuple(pv))
           for pv in prize_vectors]
    if not pvs:
        raise DomainError("need at least one prize vector")
    relations = []
    for i in range(len(pvs)):
        for j in range(i + 1, len(pvs)):
            rel = compare_prize_vectors(pvs[i], pvs[j], scenario.players)
            if rel == "incomparable":
                raise DomainError(
                    f"prize vectors {i} and {j} are incomparable: "
                    f"{pvs[i].values} vs {pvs[j].values}")
            relations.append((i, j, rel))
    profiles = []
    verdicts = []
    for pv in pvs:
        prof = solve_equilibrium(scenario.with_prizes(pv), grid_size=grid_size,
                                 tol=tol)
        profiles.append(prof)
        verdicts.append(hacking_verdicts(prof))
    return SweepResult(tuple(pvs), tuple(relations), tuple(profiles),
                       tuple(verdicts))
