"""Private optimum without a contest: max nu(a, theta) + xi(b) - c(a + b).

The optimum splits its fitness at least cost, so it maximises
mu - C(mu, theta) over the target alone: it is the best response to a
contest that pays nothing.  ``baseline_grid`` solves that first-order
condition, dC/dmu = 1, with the least-cost split of ``costmin`` (the
same solver that splits equilibrium targets), so both sides of a
hacking verdict come from one allocation rule.  Each type's region is
the case of that allocation (its ``costmin`` code), so labels follow
``costmin``'s tie rule: a type on a boundary takes the corner case.

Two cutoffs summarise the regions.  Below ``mech_upper`` even the first
unit of creative effort earns less than the mechanistic margin at the
one-channel optimum, so only b is used; above ``create_lower`` the
creative margin at the one-channel optimum still beats xi'(0), so only
a is used; in between both channels share a common marginal product.
Every production kind scales its margin with the type,
nu_a(a, theta) = theta * nu_a(a, 1), so each cutoff is a margin over a
creative slope:

- ``mech_upper`` = xi'(b_m) / nu_a(0, 1), with b_m solving xi'(b) = c'(b);
- ``create_lower`` = xi'(0) / nu_a(a_0, 1), with a_0 the least effort
  whose marginal cost reaches xi'(0) (0 when c'(0) already does).

Concavity orders them, since xi'(b_m) <= xi'(0) and nu_a(a_0, 1) <=
nu_a(0, 1).  A cutoff outside the support, read off the sign of its
margin gap at the support's ends, is reported as -inf or +inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rootfind import bisect_vec, expand_upper
from .costmin import allocate_grid
from .errors import DomainError
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


@dataclass(frozen=True)
class BaselineGrid:
    """Vectorised no-contest optima along a type grid."""

    theta: Array
    a: Array
    b: Array
    mu: Array
    payoff: Array
    case: Array            # int8 codes of each type's region, see costmin.CASE_NAMES


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


def baseline_thresholds(scenario: Scenario) -> BaselineThresholds:
    """Region cutoffs; -inf / +inf when a region fills the whole support.

    Raises :class:`DomainError` for a flat or unbounded no-contest optimum.
    """
    reason = scenario.unbounded_reason()
    if reason is not None:
        raise DomainError(reason)
    ends = np.array(scenario.support)
    nu, xi, cost = scenario.nu, scenario.xi, scenario.cost

    mech_margin = float(xi.deriv(_mech_optimum(scenario)))
    low_gap = nu.deriv_a(0.0, ends) - mech_margin
    if low_gap[0] >= 0:
        mech_upper = -np.inf
    elif low_gap[1] < 0:
        mech_upper = np.inf
    else:
        mech_upper = mech_margin / float(nu.deriv_a(0.0, 1.0))

    xi0 = float(xi.deriv(0.0))
    create_lower = np.inf
    if np.isfinite(xi0):
        a_0 = float(_root_from_zero(lambda a: cost.deriv(a) - xi0, np.zeros(1),
                                    "creative cutoff effort", 1e-12)[0])
        high_gap = nu.deriv_a(a_0, ends) - xi0
        if high_gap[0] > 0:
            create_lower = -np.inf
        elif high_gap[1] > 0:
            create_lower = xi0 / float(nu.deriv_a(a_0, 1.0))
    return BaselineThresholds(float(mech_upper), float(create_lower))


def baseline_grid(scenario: Scenario, thetas) -> BaselineGrid:
    """No-contest optima for a whole grid of types.

    Each type's target is the root of dC/dmu - 1 on [0, expand_upper]; a
    type whose marginal cost already reaches 1 at mu = 0 stays there.
    The root stops within 1e-10 of the optimum; where it pays less than
    the zero target, which pays exactly 0, the zero target is within that
    tolerance too and is taken instead.  Regions are the case codes of
    those allocations; the grid keeps a copy of ``thetas``.  A flat or
    unbounded optimum raises :class:`DomainError`.
    """
    thetas = np.array(thetas, dtype=float)
    scenario.check_theta(thetas)
    reason = scenario.unbounded_reason()
    if reason is not None:
        raise DomainError(reason)

    def gap(mu: Array) -> Array:
        return allocate_grid(scenario, mu, thetas).marginal_cost - 1.0

    def optimum(mu_star: Array) -> BaselineGrid:
        alloc = allocate_grid(scenario, mu_star, thetas)
        a, b = alloc.a, alloc.b
        mu = scenario.nu.value(a, thetas) + scenario.xi.value(b)
        payoff = mu - scenario.cost.value(a + b)
        return BaselineGrid(thetas, a, b, mu, payoff, alloc.case)

    mu_star = _root_from_zero(gap, thetas, "no-contest optimum", 1e-10)
    grid = optimum(mu_star)
    if np.any(grid.payoff < 0.0):
        grid = optimum(np.where(grid.payoff < 0.0, 0.0, mu_star))
    return grid
