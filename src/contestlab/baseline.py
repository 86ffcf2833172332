"""Private optimum without a contest: max nu(a, theta) + xi(b) - c(a + b).

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
from .costmin import CASE_NAMES, CREATE_ONLY, INTERIOR, MECH_ONLY
from .errors import SolverError
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


def _mech_optimum(scenario: Scenario) -> float:
    """Effort b solving xi'(b) = c'(b); 0 if mechanization never pays."""
    xi, cost = scenario.xi, scenario.cost
    if float(xi.deriv(0.0)) <= float(cost.deriv(0.0)):
        return 0.0

    def gap(b: Array) -> Array:
        return cost.deriv(b) - xi.deriv(b)

    hi = expand_upper(gap, np.array([1.0]), what="mechanistic one-channel optimum")
    return float(bisect_vec(gap, np.zeros(1), hi, tol=1e-12)[0])


def _creative_optimum(scenario: Scenario, thetas: Array) -> Array:
    """Efforts a solving nu_a(a, theta) = c'(a), elementwise (0 at corner)."""
    nu, cost = scenario.nu, scenario.cost

    def gap(a: Array) -> Array:
        return cost.deriv(a) - nu.deriv_a(a, thetas)

    active = np.asarray(nu.deriv_a(np.zeros_like(thetas), thetas)
                        > cost.deriv(np.zeros_like(thetas)))
    out = np.zeros_like(thetas)
    if np.any(active):
        idx = np.nonzero(active)[0]
        th = thetas[idx]

        def gap_i(a: Array) -> Array:
            return cost.deriv(a) - nu.deriv_a(a, th)

        hi = expand_upper(gap_i, np.ones_like(th), what="creative one-channel optimum")
        out[idx] = bisect_vec(gap_i, np.zeros_like(th), hi, tol=1e-12)
    return out


def _interior_split(scenario: Scenario, e: Array, thetas: Array) -> tuple[Array, Array]:
    """Best (a, common margin) for fixed total effort ``e``."""
    nu, xi = scenario.nu, scenario.xi
    zeros = np.zeros_like(e)
    f_lo = xi.deriv(e) - nu.deriv_a(zeros, thetas)          # margin gap at a=0
    f_hi = float(xi.deriv(0.0)) - nu.deriv_a(e, thetas)     # margin gap at a=e
    all_mech = f_lo >= 0
    all_create = ~all_mech & (f_hi <= 0)
    mixed = ~all_mech & ~all_create

    a = np.where(all_mech, 0.0, np.where(all_create, e, np.nan))
    if np.any(mixed):
        idx = np.nonzero(mixed)[0]
        e_i, th_i = e[idx], thetas[idx]

        def gap(x: Array) -> Array:
            return xi.deriv(e_i - x) - nu.deriv_a(x, th_i)

        # _joint_optimum root-finds through this split, which amplifies
        # its error (about 400-fold at theta = 0.05 on example2), so it
        # runs 100 times tighter than that outer search
        a_mid = bisect_vec(gap, np.zeros_like(e_i), e_i, tol=1e-13)
        a[idx] = a_mid

    margin = np.where(all_mech, xi.deriv(e),
                      np.where(all_create, nu.deriv_a(np.where(all_create, e, 0.0), thetas),
                               nu.deriv_a(np.where(mixed, a, 1.0), thetas)))
    return a, margin


def _joint_optimum(scenario: Scenario, thetas: Array) -> tuple[Array, Array]:
    """Total effort and its split at the two-channel optimum."""
    cost = scenario.cost

    def outer_gap(e: Array) -> Array:
        _, margin = _interior_split(scenario, e, thetas)
        return cost.deriv(e) - margin

    hi = expand_upper(outer_gap, np.ones_like(thetas), what="joint effort optimum")
    e_star = bisect_vec(outer_gap, np.zeros_like(thetas), hi, tol=1e-11)
    a_star, _ = _interior_split(scenario, e_star, thetas)
    return e_star, a_star


def baseline_thresholds(scenario: Scenario) -> BaselineThresholds:
    """Region cutoffs; -inf / +inf when a region fills the whole support."""
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
    """No-contest optima for a whole grid of types."""
    thetas = np.asarray(thetas, dtype=float)
    for t in (thetas.min(), thetas.max()) if thetas.size else ():
        scenario.check_theta(float(t))
    thr = baseline_thresholds(scenario)
    codes = _region_codes(thr, thetas)

    a = np.zeros_like(thetas)
    b = np.zeros_like(thetas)

    mech = codes == MECH_ONLY
    if np.any(mech):
        b[mech] = _mech_optimum(scenario)

    create = codes == CREATE_ONLY
    if np.any(create):
        a[create] = _creative_optimum(scenario, thetas[create])

    interior = codes == INTERIOR
    if np.any(interior):
        e_star, a_star = _joint_optimum(scenario, thetas[interior])
        a[interior] = a_star
        b[interior] = e_star - a_star

    mu = scenario.nu.value(a, thetas) + scenario.xi.value(b)
    payoff = mu - scenario.cost.value(a + b)
    regions = tuple(CASE_NAMES[c] for c in codes.tolist())
    return BaselineGrid(thetas, a, b, mu, payoff, regions, thr)
