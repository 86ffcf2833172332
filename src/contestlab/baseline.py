"""Private optimum without a contest: max nu(a, theta) + xi(b) - c(a + b).

The optimum splits its fitness at least cost, so it maximises
mu - C(mu, theta) over the target alone: it is the best response to a
contest that pays nothing.  ``baseline_grid`` solves that first-order
condition, dC/dmu = 1, with the least-cost split of ``costmin`` (the
same solver that splits equilibrium targets), so both sides of a
hacking verdict come from one allocation rule.

The type space splits into three regions separated by two thresholds.
Below ``mech_upper`` even the first unit of creative effort earns less
than the mechanistic margin at the one-channel optimum, so only b is
used; above ``create_lower`` the creative margin at the one-channel
optimum still beats xi'(0), so only a is used; in between both channels
are active and share a common marginal product equal to marginal cost.

Thresholds solve single-crossing equations in theta and are reported as
-inf/+inf when the defining equation has no root inside the support.
Types exactly on a threshold resolve to the interior region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rootfind import bisect_vec, expand_upper
from .costmin import CASE_NAMES, CREATE_ONLY, INTERIOR, MECH_ONLY, allocate_grid
from .errors import DomainError, SolverError
from .model import Scenario

Array = np.ndarray


@dataclass(frozen=True)
class BaselineThresholds:
    """Type cutoffs of the no-contest regions.

    ``mech_upper``: types strictly below use only the mechanistic channel.
    ``create_lower``: types strictly above use only the creative channel.
    """

    mech_upper: float
    create_lower: float

    def region(self, theta: float) -> str:
        return CASE_NAMES[int(_region_codes(self, theta))]


def _region_codes(thr: BaselineThresholds, thetas) -> Array:
    """Region codes (``costmin.CASE_NAMES``) of types, elementwise."""
    thetas = np.asarray(thetas, dtype=float)
    return np.where(thetas < thr.mech_upper, MECH_ONLY,
                    np.where(thetas > thr.create_lower, CREATE_ONLY, INTERIOR))


@dataclass(frozen=True)
class BaselineGrid:
    """Vectorised no-contest optima along a type grid."""

    theta: Array
    a: Array
    b: Array
    mu: Array
    payoff: Array
    region: tuple[str, ...]
    thresholds: BaselineThresholds


def _root_from_zero(gap, like: Array, what: str, tol: float) -> Array:
    """Root of a gap increasing in effort on [0, inf); 0 where gap(0) >= 0."""
    zero = np.zeros_like(like)
    hi = expand_upper(gap, np.ones_like(like), what=what)
    return bisect_vec(gap, zero, np.where(gap(zero) < 0.0, hi, 0.0), tol=tol)


def _mech_optimum(scenario: Scenario) -> float:
    """Effort b solving xi'(b) = c'(b); 0 if mechanization never pays."""
    xi, cost = scenario.xi, scenario.cost
    return float(_root_from_zero(lambda b: cost.deriv(b) - xi.deriv(b), np.zeros(1),
                                 "mechanistic one-channel optimum", 1e-12)[0])


def _creative_optimum(scenario: Scenario, thetas: Array) -> Array:
    """Efforts a solving nu_a(a, theta) = c'(a), elementwise (0 at corner)."""
    nu, cost = scenario.nu, scenario.cost
    return _root_from_zero(lambda a: cost.deriv(a) - nu.deriv_a(a, thetas), thetas,
                           "creative one-channel optimum", 1e-12)


def baseline_thresholds(scenario: Scenario) -> BaselineThresholds:
    """Region cutoffs; -inf / +inf when a region fills the whole support.

    Raises :class:`DomainError` for a flat or unbounded no-contest optimum.
    """
    reason = scenario.unbounded_reason()
    if reason is not None:
        raise DomainError(reason)
    lo, hi = scenario.support
    nu, xi, cost = scenario.nu, scenario.xi, scenario.cost
    b_mech = _mech_optimum(scenario)
    mech_margin = float(xi.deriv(b_mech))

    def low_gap(theta):
        return nu.deriv_a(0.0, theta) - mech_margin

    if low_gap(lo) >= 0:
        mech_upper = -np.inf
    elif low_gap(hi) < 0:
        mech_upper = np.inf
    else:
        mech_upper = bisect_vec(low_gap, np.array([lo]), np.array([hi]), tol=1e-11)[0]

    xi0 = float(xi.deriv(0.0))
    if not np.isfinite(xi0):
        create_lower = np.inf
    else:
        def high_gap(theta):
            theta = np.atleast_1d(theta)
            a_dag = _creative_optimum(scenario, theta)
            margin = nu.deriv_a(a_dag, theta)
            return np.where(np.isfinite(margin), margin, cost.deriv(a_dag)) - xi0

        if high_gap(hi)[0] <= 0:
            create_lower = np.inf
        elif high_gap(lo)[0] > 0:
            create_lower = -np.inf
        else:
            create_lower = bisect_vec(high_gap, np.array([lo]), np.array([hi]),
                                      tol=1e-11)[0]

    if mech_upper > create_lower:  # pragma: no cover - guarded by concavity
        raise SolverError(
            f"inconsistent thresholds: mech_upper={mech_upper!r} "
            f"exceeds create_lower={create_lower!r}")
    return BaselineThresholds(float(mech_upper), float(create_lower))


def baseline_grid(scenario: Scenario, thetas) -> BaselineGrid:
    """No-contest optima for a whole grid of types.

    Each type's target is the root of dC/dmu - 1 on [0, expand_upper]; a
    type whose marginal cost already reaches 1 at mu = 0 stays there.
    Region labels come from the thresholds.  The grid keeps a copy of
    ``thetas``, so the caller's array stays its own.
    """
    thetas = np.array(thetas, dtype=float)
    for t in (thetas.min(), thetas.max()) if thetas.size else ():
        scenario.check_theta(float(t))
    thr = baseline_thresholds(scenario)
    codes = _region_codes(thr, thetas)

    def gap(mu: Array) -> Array:
        return allocate_grid(scenario, mu, thetas).marginal_cost - 1.0

    mu_star = _root_from_zero(gap, thetas, "no-contest optimum", 1e-10)
    alloc = allocate_grid(scenario, mu_star, thetas)
    a, b = alloc.a, alloc.b
    mu = scenario.nu.value(a, thetas) + scenario.xi.value(b)
    payoff = mu - scenario.cost.value(a + b)
    regions = tuple(CASE_NAMES[c] for c in codes.tolist())
    return BaselineGrid(thetas, a, b, mu, payoff, regions, thr)
