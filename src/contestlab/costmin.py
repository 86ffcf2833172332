"""Least-cost split of a fitness target across the two effort channels.

For a target mean fitness ``mu`` and type ``theta`` the problem is

    C(mu, theta) = min c(a + b)  s.t.  nu(a, theta) + xi(b) = mu,  a, b >= 0.

Since the cost depends on efforts only through their sum, the optimum
equalises marginal products where it can.  Writing

    psi(y) = xi'(xi^{-1}(mu - nu(y, theta)))

for the mechanistic margin left after committing creative effort ``y``,
psi is increasing in y while the creative margin nu_a(y, theta) is
decreasing, so exactly one of three regimes applies:

- mech-only:    psi(0)  >= nu_a(0, theta)        (a = 0)
- create-only:  xi'(0)  <= nu_a(a_bar, theta)    (b = 0, nu alone reaches mu)
- interior:     the single crossing psi(y) = nu_a(y, theta)

Ties at the boundary tests resolve to the corner regimes.  Where one
channel's marginal product is constant, the crossing fixes the other
channel's effort whatever the target, in closed form:

- linear (or alpha = 1 power) nu, power xi: nu_a = theta, so
  xi'(b) = theta fixes b and a = (mu - xi(b)) / theta;
- linear xi with power or saturating nu: xi' = 1, so nu_a(a, theta) = 1
  fixes a and b = mu - nu(a, theta).

Linear nu against linear xi has no interior.  Only pairs where neither
margin is constant (power or saturating nu against power xi) locate the
crossing with the bracketed root finder of ``_rootfind``, to 1e-10 in y,
and recover b by exact inversion.  Either way the split satisfies the
fitness constraint to 1e-8.  Input is validated once, on entry: every
later argument is non-negative by construction, so the solver calls the
forms' unchecked kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rootfind import bisect_vec, expand_upper
from .errors import DomainError
from .model import MechanizationForm, ProductionForm, Scenario

Array = np.ndarray

MECH_ONLY, INTERIOR, CREATE_ONLY = 1, 2, 3
CASE_NAMES = {MECH_ONLY: "mech-only", INTERIOR: "interior", CREATE_ONLY: "create-only"}


@dataclass(frozen=True)
class AllocationGrid:
    """Vectorised allocations on a broadcast (mu, theta) grid."""

    mu: Array
    theta: Array
    a: Array
    b: Array
    case: Array            # int8 codes, see CASE_NAMES
    cost: Array
    shadow_price: Array
    marginal_cost: Array

    def case_names(self) -> np.ndarray:
        return np.vectorize(CASE_NAMES.get)(self.case)


def allocate_grid(scenario: Scenario, mu, theta) -> AllocationGrid:
    """Solve the allocation problem elementwise on broadcast arrays.

    One (mu, theta) point is the one-element call
    ``allocate_grid(s, [mu], [theta])``.  Interior elements are split in
    closed form when nu or xi has a constant margin and by one bracketed
    root over all of them otherwise (see the module docstring).  Raises
    :class:`DomainError` on negative or non-finite targets and on
    non-finite types.
    """
    mu_in = np.asarray(mu, dtype=float)
    th_in = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(mu_in)):
        raise DomainError("fitness targets must be finite")
    if np.any(mu_in < 0):
        raise DomainError("fitness targets must be non-negative")
    if not np.all(np.isfinite(th_in)):
        raise DomainError("types must be finite")
    mu_b, th_b = np.broadcast_arrays(mu_in, th_in)
    mu_f = np.ascontiguousarray(mu_b, dtype=float).ravel()
    th_f = np.ascontiguousarray(th_b, dtype=float).ravel()

    nu_form, xi, cost = scenario.nu, scenario.xi, scenario.cost
    xi0 = float(xi._deriv(np.zeros(())))

    b_bar = xi._invert(mu_f)
    a_bar = nu_form._invert(mu_f, th_f)
    psi0 = xi._deriv(b_bar)
    nua0 = nu_form._deriv_a(np.zeros_like(mu_f), th_f)

    mech = psi0 >= nua0
    a_bar_safe = np.where(np.isfinite(a_bar), a_bar, 0.0)
    nua_full = np.where(np.isfinite(a_bar),
                        nu_form._deriv_a(a_bar_safe, th_f), -np.inf)
    create = ~mech & np.isfinite(a_bar) & (xi0 <= nua_full)
    interior = ~mech & ~create

    a = np.where(mech, 0.0, np.where(create, a_bar_safe, np.nan))
    b = np.where(mech, b_bar, np.where(create, 0.0, np.nan))

    if np.any(interior):
        idx = np.nonzero(interior)[0]
        a[idx], b[idx] = _interior_split(nu_form, xi, mu_f[idx], th_f[idx], a_bar[idx])

    with np.errstate(divide="ignore"):
        lam_mech = 1.0 / xi._deriv(b)
        lam_create = 1.0 / nu_form._deriv_a(np.where(create, a, 0.0), th_f)
    lam = np.where(create, lam_create, lam_mech)

    effort = a + b
    case = np.where(mech, MECH_ONLY,
                    np.where(create, CREATE_ONLY, INTERIOR)).astype(np.int8)
    grid = AllocationGrid(
        mu=mu_f.reshape(mu_b.shape),
        theta=th_f.reshape(mu_b.shape),
        a=a.reshape(mu_b.shape),
        b=b.reshape(mu_b.shape),
        case=case.reshape(mu_b.shape),
        cost=cost._value(effort).reshape(mu_b.shape),
        shadow_price=lam.reshape(mu_b.shape),
        marginal_cost=(cost._deriv(effort) * lam).reshape(mu_b.shape),
    )
    return grid


def _interior_split(nu_form: ProductionForm, xi: MechanizationForm, mu: Array,
                    theta: Array, a_bar: Array) -> tuple[Array, Array]:
    """Split (a, b) of interior targets, where nu_a(a, theta) = xi'(b)."""
    if nu_form._constant_margin:
        # nu_a = theta: the mechanistic margin alone must reach theta
        b = xi._inv_deriv(theta)
        a = (mu - xi._value(b)) / theta
    elif xi.kind == "linear":
        # xi' = 1: the creative margin alone must fall to 1
        a = nu_form._inv_deriv_a(np.ones_like(mu), theta)
        b = mu - nu_form._value(a, theta)
    else:
        a = _interior_root(nu_form, xi, mu, theta, a_bar)
        b = xi._invert(np.maximum(mu - nu_form._value(a, theta), 0.0))
    # a rounding step at a regime boundary must not give a negative effort
    return np.maximum(a, 0.0), np.maximum(b, 0.0)


def _interior_root(nu_form: ProductionForm, xi: MechanizationForm, mu: Array,
                   theta: Array, a_bar: Array) -> Array:
    """Creative effort at the crossing psi(y) = nu_a(y, theta), to 1e-10 in y."""

    def margin_gap(y: Array) -> Array:
        remainder = np.maximum(mu - nu_form._value(y, theta), 0.0)
        psi = xi._deriv(xi._invert(remainder))
        return psi - nu_form._deriv_a(y, theta)

    hi = a_bar
    unbounded = ~np.isfinite(hi)
    if np.any(unbounded):
        start = np.where(unbounded, 1.0, hi)
        hi = np.where(unbounded,
                      expand_upper(lambda y: np.where(unbounded, margin_gap(y), 0.0),
                                   start, what="interior allocation"),
                      hi)
    return bisect_vec(margin_gap, np.zeros_like(hi), hi, tol=1e-10)
