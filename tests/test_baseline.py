"""Tests for the no-contest (private) optimum and its type regions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from helpers import random_scenario

from contestlab import (
    CREATE_ONLY,
    INTERIOR,
    MECH_ONLY,
    DomainError,
    StrategyProfile,
    baseline_grid,
    baseline_thresholds,
    example_scenario,
)

GOLDEN_THRESHOLDS = {
    # linear ties break at the type whose slope matches the channel
    "example1": (1.0, 1.0),
    # infinite margins at zero effort keep both channels active for
    # every positive type; only the degenerate theta = 0 cannot create
    "example2": (0.0, math.inf),
    "example3": (0.5 ** (2.0 / 3.0), math.inf),
    "example4": (1.0, math.e**2),
}


def _bounded_random_scenarios(count: int, seed: int = 2301) -> list:
    """The first ``count`` random scenarios with a bounded no-contest optimum."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        scn = random_scenario(rng)
        if scn.unbounded_reason() is None:
            out.append(scn)
    return out


def _power_creation_scenario():
    """Power nu (alpha 0.9), linear xi and linear cost kappa 1.8 on U[0, 2]."""
    return example_scenario(
        "example1", nu={"kind": "power", "alpha": 0.9},
        cost={"kind": "linear", "kappa": 1.8},
        types={"kind": "uniform", "support": [0.0, 2.0]})


PARTITION_CASES = (
    [pytest.param(example_scenario(name), id=name) for name in sorted(GOLDEN_THRESHOLDS)]
    + [pytest.param(scn, id=f"random-{k}")
       for k, scn in enumerate(_bounded_random_scenarios(50))])


class TestThresholds:
    @pytest.mark.parametrize("name", sorted(GOLDEN_THRESHOLDS))
    def test_golden_values(self, name):
        thr = baseline_thresholds(example_scenario(name))
        lo, hi = GOLDEN_THRESHOLDS[name]
        if math.isfinite(lo):
            assert thr.mech_upper == pytest.approx(lo, abs=1e-10)
        else:
            assert thr.mech_upper == lo
        if math.isfinite(hi):
            assert thr.create_lower == pytest.approx(hi, abs=1e-10)
        else:
            assert thr.create_lower == hi

    def test_power_creation_cutoffs_are_exact(self):
        # nu_a(0, theta) is infinite for every positive type, and linear
        # cost kappa 1.8 beats xi' = 1 from the first unit, so every
        # positive type creates only: both cutoffs sit at 0, exactly
        thr = baseline_thresholds(_power_creation_scenario())
        assert thr.mech_upper == 0.0
        assert thr.create_lower == 0.0

    @pytest.mark.parametrize("name, kappa, message", [
        ("example1", 0.8, "linear cost kappa=0.8 does not exceed the linear mechanistic margin 1"),
        ("example3", 2.0, "does not exceed the top type's constant creative margin 3"),
    ], ids=["mechanistic", "creative"])
    def test_unbounded_optimum_rejected(self, name, kappa, message):
        scn = example_scenario(name, cost={"kind": "linear", "kappa": kappa})
        with pytest.raises(DomainError) as info:
            baseline_thresholds(scn)
        assert message in str(info.value)

    def test_tiny_optimum_is_create_only_and_pays_at_least_zero(self):
        # the cutoffs above put every positive type on the creative
        # channel, and doing nothing pays 0; types 0.01-0.15, whose best
        # effort a = (theta/2)^10 is below the root's 1e-10 tolerance,
        # take the zero target
        base = baseline_grid(_power_creation_scenario(), np.linspace(0.0, 2.0, 201))
        assert np.all(base.payoff >= 0.0)
        assert np.all(base.case[base.theta > 0.0] == CREATE_ONLY)


class TestClosedFormPoints:
    def test_example1_two_sides(self):
        scn = example_scenario("example1")
        low = baseline_grid(scn, [0.5])
        assert (low.mu[0], low.a[0], low.b[0]) == pytest.approx((1.0, 0.0, 1.0), abs=1e-9)
        assert low.case.tolist() == [MECH_ONLY]
        high = baseline_grid(scn, [2.0])
        assert (high.mu[0], high.a[0], high.b[0]) == pytest.approx((4.0, 2.0, 0.0), abs=1e-9)
        assert high.case.tolist() == [CREATE_ONLY]
        assert high.payoff[0] == pytest.approx(4.0 - 0.5 * 4.0, abs=1e-9)

    def test_example2_interior_formulas(self):
        scn = example_scenario("example2")
        for theta in (0.5, 1.0, 2.5):
            pt = baseline_grid(scn, [theta])
            assert pt.case.tolist() == [INTERIOR]
            assert pt.a[0] == pytest.approx(theta**2 / 4.0, abs=1e-8)
            assert pt.b[0] == pytest.approx(0.25, abs=1e-8)
            assert pt.mu[0] == pytest.approx(0.5 * theta**2 + 0.5, abs=1e-8)

    def test_example2_interior_split_on_a_grid(self):
        # near theta = 0 the creative margin is steep in a, so the split's
        # root error is largest there; b = 1/4 must still hold to 1e-10
        scn = example_scenario("example2")
        grid = baseline_grid(scn, np.linspace(0.0, 10.0, 201))
        interior = grid.case == INTERIOR
        assert interior.sum() == 200
        np.testing.assert_allclose(grid.b[interior], 0.25, rtol=0, atol=1e-10)

    def test_example3_mech_region_effort(self):
        # below the cutoff only the mechanistic channel runs: b solves
        # xi'(b) = c'(b), here 0.5 / sqrt(b) = b, so b = 0.5**(2/3)
        scn = example_scenario("example3")
        pt = baseline_grid(scn, [0.2])
        assert pt.case.tolist() == [MECH_ONLY]
        assert pt.a[0] == 0.0
        assert pt.b[0] == pytest.approx(0.5 ** (2.0 / 3.0), abs=1e-8)


    def test_grid_keeps_its_own_types(self):
        # the grid copies the caller's array: a later write to it moves
        # neither the grid nor a profile built on it, and the caller's
        # array stays writable
        scn = example_scenario("example2")
        th = np.linspace(0.5, 3.0, 5)
        grid = baseline_grid(scn, th)
        before = {f: getattr(grid, f).copy() for f in ("theta", "a", "b", "mu", "payoff")}
        StrategyProfile(scn, grid, grid.mu.copy(), 0, 0.0, 1e-5)
        assert th.flags.writeable
        th[0] = 99.0
        for field, values in before.items():
            np.testing.assert_array_equal(getattr(grid, field), values, err_msg=field)


class TestGridInvariants:
    @pytest.mark.parametrize("name", sorted(GOLDEN_THRESHOLDS))
    def test_positive_total_effort(self, name):
        scn = example_scenario(name)
        lo, hi = scn.support
        grid = baseline_grid(scn, np.linspace(lo, hi, 201))
        assert np.all(grid.a + grid.b > 0)

    @pytest.mark.parametrize("name", sorted(GOLDEN_THRESHOLDS))
    def test_mu_monotone_in_type(self, name):
        scn = example_scenario(name)
        lo, hi = scn.support
        grid = baseline_grid(scn, np.linspace(lo, hi, 201))
        assert np.all(np.diff(grid.mu) >= -1e-9)

    @pytest.mark.parametrize("scn", PARTITION_CASES)
    def test_region_partition_matches_thresholds(self, scn):
        # the labels come from the allocations and the cutoffs from closed
        # forms; away from the cutoffs the two must agree
        lo, hi = scn.support
        thetas = np.linspace(lo, hi, 201)
        grid, thr = baseline_grid(scn, thetas), baseline_thresholds(scn)
        assert thr.mech_upper <= thr.create_lower
        cell = thetas[1] - thetas[0]
        for theta, region in zip(thetas, grid.case.tolist()):
            # skip the single ambiguous cell at each cutoff
            if min(abs(theta - thr.mech_upper), abs(theta - thr.create_lower)) < cell:
                continue
            if theta < thr.mech_upper:
                assert region == MECH_ONLY
            elif theta > thr.create_lower:
                assert region == CREATE_ONLY
            else:
                assert region == INTERIOR

    @pytest.mark.parametrize("name", sorted(GOLDEN_THRESHOLDS))
    def test_first_order_conditions(self, name):
        # KKT of max nu(a) + xi(b) - c(a + b) from the primitive forms
        # alone: a used channel's marginal product equals marginal cost,
        # an unused one's does not exceed it
        scn = example_scenario(name)
        lo, hi = scn.support
        thetas = np.linspace(lo, hi, 201)
        grid = baseline_grid(scn, thetas)
        mc = scn.cost.deriv(grid.a + grid.b)
        with np.errstate(divide="ignore"):
            margins = {"a": scn.nu.deriv_a(grid.a, thetas), "b": scn.xi.deriv(grid.b)}
        for channel, margin in margins.items():
            used = getattr(grid, channel) > 0
            ratio = margin / mc
            np.testing.assert_allclose(ratio[used], 1.0, rtol=0, atol=1e-7,
                                       err_msg=f"{name}: {channel}")
            assert np.all(ratio[~used] <= 1.0 + 1e-7), (name, channel)

    @pytest.mark.parametrize("name", sorted(GOLDEN_THRESHOLDS))
    def test_lattice_dominance(self, name):
        # the returned point must beat every lattice (a, b) candidate
        scn = example_scenario(name)
        lo, hi = scn.support
        a_grid = np.linspace(0.0, 6.0, 121)
        b_grid = np.linspace(0.0, 6.0, 121)
        aa, bb = np.meshgrid(a_grid, b_grid)
        for theta in np.linspace(lo + 1e-3, hi, 7):
            payoff = (scn.nu.value(aa, theta) + scn.xi.value(bb)
                      - scn.cost.value(aa + bb))
            best = float(np.max(payoff))
            pt = baseline_grid(scn, [float(theta)])
            assert pt.payoff[0] >= best - 1e-4, (name, theta)

    def test_grid_agrees_with_scalar_solver(self, rng):
        scn = example_scenario("example4")
        thetas = np.sort(rng.uniform(0.0, 9.0, size=17))
        grid = baseline_grid(scn, thetas)
        for k, theta in enumerate(thetas):
            pt = baseline_grid(scn, [float(theta)])
            assert grid.a[k] == pytest.approx(pt.a[0], abs=1e-9)
            assert grid.b[k] == pytest.approx(pt.b[0], abs=1e-9)
            assert grid.payoff[k] == pytest.approx(pt.payoff[0], abs=1e-9)
