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

Ties at the boundary tests resolve to the corner regimes.  An interior
split has one common marginal product m = nu_a(a, theta) = xi'(b), and
given m both efforts follow from the forms' inverse-marginal kernels,
a = nu_a^{-1}(m; theta) and b = xi'^{-1}(m).  The target they reach,
mu(m) = nu(a(m), theta) + xi(b(m)), falls as m rises, so finding the
split means finding m.  Three pairs give m, or the split, in closed form:

- linear (or alpha = 1 power) nu, power xi: m = theta, so b = xi'^{-1}(theta)
  and a = (mu - xi(b)) / theta;
- linear xi with power or saturating nu: m = 1, so a = nu_a^{-1}(1; theta)
  and b = mu - nu(a, theta);
- power nu and power xi with one exponent alpha:
  mu = (m/alpha)^q (theta^(1-q) + 1) with q = alpha/(alpha-1), so
  b = (mu / (theta^(1-q) + 1))^(1/alpha) and a = b theta^(1/(1-alpha)).

Linear nu against linear xi has no interior.  Every other pair (unequal
exponents, saturating nu against power xi) solves mu(m) = mu with the
bracketed root finder of ``_rootfind`` in x = log m, to 1e-13 in x, on a
closed-form bracket, and recovers b by exact inversion.  Either way the
split satisfies the fitness constraint to 1e-8.  Input is validated once,
on entry: every later argument is non-negative by construction, so the
solver calls the forms' unchecked kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rootfind import bisect_vec
from .errors import DomainError
from .model import MechanizationForm, ProductionForm, Scenario

Array = np.ndarray

MECH_ONLY, INTERIOR, CREATE_ONLY = 1, 2, 3
CASE_NAMES = {MECH_ONLY: "mech-only", INTERIOR: "interior", CREATE_ONLY: "create-only"}

# bracket width in log m at which the interior root stops: about 3e-10
# in an effort of 1000 when nu's exponent is 0.7
_LOG_MARGIN_TOL = 1e-13


@dataclass(frozen=True)
class AllocationGrid:
    """Vectorised allocations on a broadcast (mu, theta) grid.

    It holds the solution only; the targets and types are the caller's.
    """

    a: Array
    b: Array
    case: Array            # int8 codes, see CASE_NAMES
    cost: Array
    shadow_price: Array
    marginal_cost: Array


def allocate_grid(scenario: Scenario, mu, theta) -> AllocationGrid:
    """Solve the allocation problem elementwise on broadcast arrays.

    One (mu, theta) point is the one-element call
    ``allocate_grid(s, [mu], [theta])``.  Interior elements are split at
    their common margin, in closed form for constant margins and equal
    power exponents and by one bracketed root in log m over all of them
    otherwise (see the module docstring).  Raises
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
        # neither channel works up to the effort that reaches mu alone, so
        # the common margin exceeds both channels' margins there
        m_lo = np.maximum(psi0[idx], nua_full[idx])
        a[idx], b[idx] = _interior_split(nu_form, xi, mu_f[idx], th_f[idx], m_lo)

    with np.errstate(divide="ignore"):
        lam_mech = 1.0 / xi._deriv(b)
        lam_create = 1.0 / nu_form._deriv_a(np.where(create, a, 0.0), th_f)
    lam = np.where(create, lam_create, lam_mech)

    effort = a + b
    case = np.where(mech, MECH_ONLY,
                    np.where(create, CREATE_ONLY, INTERIOR)).astype(np.int8)
    grid = AllocationGrid(
        a=a.reshape(mu_b.shape),
        b=b.reshape(mu_b.shape),
        case=case.reshape(mu_b.shape),
        cost=cost._value(effort).reshape(mu_b.shape),
        shadow_price=lam.reshape(mu_b.shape),
        marginal_cost=(cost._deriv(effort) * lam).reshape(mu_b.shape),
    )
    return grid


def _interior_split(nu_form: ProductionForm, xi: MechanizationForm, mu: Array,
                    theta: Array, m_lo: Array) -> tuple[Array, Array]:
    """Split (a, b) of interior targets at their common margin
    m = nu_a(a, theta) = xi'(b), which exceeds ``m_lo``."""
    if nu_form._constant_margin:
        # m = theta: the mechanistic margin alone must reach theta
        b = xi._inv_deriv(theta)
        a = (mu - xi._value(b)) / theta
    elif xi.kind == "linear":
        # m = 1: the creative margin alone must fall to 1
        a = nu_form._inv_deriv_a(np.ones_like(mu), theta)
        b = mu - nu_form._value(a, theta)
    elif nu_form.kind == "power" and nu_form.alpha == xi.alpha:
        # mu = (m/alpha)^q (theta^(1-q) + 1) with q = alpha/(alpha-1), and
        # the efforts keep the ratio a/b = theta^(1-q) = theta^(1/(1-alpha))
        ratio = np.power(theta, 1.0 / (1.0 - xi.alpha))
        b = np.power(mu / (ratio + 1.0), 1.0 / xi.alpha)
        a = b * ratio
    else:
        m = np.exp(_log_margin(nu_form, xi, mu, theta, m_lo))
        a = nu_form._inv_deriv_a(m, theta)
        b = xi._invert(np.maximum(mu - nu_form._value(a, theta), 0.0))
    # a rounding step at a regime boundary must not give a negative effort
    return np.maximum(a, 0.0), np.maximum(b, 0.0)


def _log_margin(nu_form: ProductionForm, xi: MechanizationForm, mu: Array,
                theta: Array, m_lo: Array) -> Array:
    """log m where the efforts of margin m reach mu, to _LOG_MARGIN_TOL."""
    # one channel makes at least half the target, so its margin, and
    # hence m, is at most that channel's margin at half the target
    half = 0.5 * mu
    m_hi = np.maximum(nu_form._deriv_a(nu_form._invert(half, theta), theta),
                      xi._deriv(xi._invert(half)))
    # and a > 0 caps m below nu_a(0, theta), which is theta when saturating
    m_hi = np.minimum(m_hi, nu_form._deriv_a(np.zeros_like(mu), theta))

    def shortfall(x: Array) -> Array:
        m = np.exp(x)
        reached = nu_form._value(nu_form._inv_deriv_a(m, theta), theta) \
            + xi._value(xi._inv_deriv(m))
        return mu - reached

    lo, hi = np.log(m_lo), np.log(m_hi)
    return bisect_vec(shortfall, lo, hi, tol=_LOG_MARGIN_TOL,
                      f_lo=shortfall(lo), f_hi=shortfall(hi))
