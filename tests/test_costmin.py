"""Tests for the least-cost effort allocation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from helpers import cost_property_violations, lattice_cost, random_cost_triple

from contestlab import (
    CREATE_ONLY,
    INTERIOR,
    MECH_ONLY,
    DomainError,
    allocate_grid,
    example_scenario,
)


class TestInvertProduction:
    def test_example_values(self):
        scn = example_scenario("example1")
        assert float(scn.nu.invert(4.0, 2.0)) == pytest.approx(2.0)
        assert float(scn.xi.invert(4.0)) == pytest.approx(4.0)

    def test_saturating_channel_caps_out(self):
        scn = example_scenario("example4")
        assert math.isinf(float(scn.nu.invert(5.0, 2.0)))
        assert float(scn.xi.invert(5.0)) == pytest.approx(5.0)

    def test_negative_target_rejected(self):
        scn = example_scenario("example1")
        with pytest.raises(DomainError):
            scn.nu.invert(-0.1, 1.0)
        with pytest.raises(DomainError):
            scn.xi.invert(-0.1)
        with pytest.raises(DomainError):
            allocate_grid(scn, [-0.1], [1.0])

    @pytest.mark.parametrize("target", [math.inf, math.nan])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(DomainError):
            allocate_grid(example_scenario("example1"), [target], [1.0])


class TestClosedFormAllocations:
    def test_example1_corner_cases(self):
        # linear production against linear mechanization: the better
        # marginal product takes the whole target
        scn = example_scenario("example1")
        low = allocate_grid(scn, [2.0], [0.5])
        assert low.case[0] == MECH_ONLY
        assert low.b[0] == pytest.approx(2.0, abs=1e-10)
        assert low.cost[0] == pytest.approx(0.5 * 2.0**2, abs=1e-9)
        high = allocate_grid(scn, [2.0], [2.0])
        assert high.case[0] == CREATE_ONLY
        assert high.a[0] == pytest.approx(1.0, abs=1e-10)
        assert high.cost[0] == pytest.approx(0.5 * 1.0**2, abs=1e-9)

    def test_example2_interior_ratio(self):
        # power/power margins equalise at a/b = theta**2
        scn = example_scenario("example2")
        for theta in (0.5, 1.0, 2.0, 3.0):
            pt = allocate_grid(scn, [1.5], [theta])
            assert pt.case[0] == INTERIOR
            assert pt.a[0] / pt.b[0] == pytest.approx(theta**2, rel=1e-6)

    def test_example3_mech_floor(self):
        # interior mechanistic effort solves xi'(b) = theta exactly
        scn = example_scenario("example3")
        pt = allocate_grid(scn, [2.0], [1.0])
        assert pt.case[0] == INTERIOR
        assert pt.b[0] == pytest.approx(0.25, abs=1e-9)

    def test_constraint_always_met(self):
        for name in ("example1", "example2", "example3", "example4"):
            scn = example_scenario(name)
            for mu, theta in ((0.3, 0.7), (1.4, 1.1), (2.6, 2.2)):
                pt = allocate_grid(scn, [mu], [theta])
                reached = float(scn.nu.value(pt.a[0], theta)
                                + scn.xi.value(pt.b[0]))
                assert reached == pytest.approx(mu, abs=1e-8)

    def test_zero_target_costs_nothing(self):
        pt = allocate_grid(example_scenario("example4"), [0.0], [1.0])
        assert pt.cost[0] == 0.0
        assert pt.a[0] + pt.b[0] == 0.0


class TestAllocateGrid:
    def test_matches_scalar_solver(self, rng):
        scn = example_scenario("example4")
        mu = rng.uniform(0.1, 3.0, size=12)
        theta = rng.uniform(0.3, 8.0, size=12)
        grid = allocate_grid(scn, mu, theta)
        for k in range(12):
            pt = allocate_grid(scn, [float(mu[k])], [float(theta[k])])
            assert grid.a[k] == pytest.approx(pt.a[0], abs=1e-9)
            assert grid.b[k] == pytest.approx(pt.b[0], abs=1e-9)
            assert grid.cost[k] == pytest.approx(pt.cost[0], abs=1e-10)

    def test_broadcasting(self):
        scn = example_scenario("example2")
        grid = allocate_grid(scn, np.linspace(0.5, 2.0, 4)[:, None],
                             np.array([1.0, 2.0])[None, :])
        assert grid.cost.shape == (4, 2)
        assert grid.case_names().shape == (4, 2)

    def test_case_codes_cover_nonlinear_regimes(self):
        # types below 1 never create here; types above 1 start creative
        # and blend as the target grows
        scn = example_scenario("example4")
        seen: set[int] = set()
        for theta in (0.5, 2.0):
            grid = allocate_grid(scn, np.linspace(0.05, 6.0, 400), theta)
            seen |= {int(c) for c in np.unique(grid.case)}
        assert seen == {MECH_ONLY, INTERIOR, CREATE_ONLY}

    def test_case_sequence_never_leaves_interior(self):
        # with a strictly concave creative margin, corner regimes cannot
        # reappear after the margins have crossed once
        for name in ("example2", "example3", "example4"):
            scn = example_scenario(name)
            for theta in (0.6, 1.2, 2.4):
                grid = allocate_grid(scn, np.linspace(0.01, 6.0, 500), theta)
                seen_interior = False
                for code in grid.case:
                    if code == INTERIOR:
                        seen_interior = True
                    elif seen_interior:
                        pytest.fail(f"{name}: left interior regime at theta={theta}")

    def test_marginal_cost_matches_finite_difference(self):
        h = 1e-5
        for name in ("example1", "example2", "example3", "example4"):
            scn = example_scenario(name)
            mu = np.linspace(0.4, 2.8, 25)
            grid = allocate_grid(scn, mu, 1.3)
            up = allocate_grid(scn, mu + h, 1.3)
            dn = allocate_grid(scn, mu - h, 1.3)
            fd = (up.cost - dn.cost) / (2.0 * h)
            np.testing.assert_allclose(grid.marginal_cost, fd, rtol=1e-4,
                                       atol=1e-7, err_msg=name)


class TestPropertySuite:
    def test_forty_random_triples(self):
        # the acceptance suite runs 200 of these; keep the unit loop short
        rng = np.random.default_rng(11)
        for _ in range(40):
            scn, mu, theta = random_cost_triple(rng)
            violations = cost_property_violations(scn, mu, theta, rng)
            assert not violations, f"{scn.to_dict()}: {violations}"

    def test_lattice_oracle_on_known_value(self):
        # example1 at theta=2: create-only, C = 0.5 * (mu / theta)**2
        scn = example_scenario("example1")
        assert lattice_cost(scn, 2.0, 2.0) == pytest.approx(0.5, abs=1e-4)

    def test_unreachable_target_raises_cleanly(self):
        # saturating production with a type of zero leaves only the
        # mechanistic channel, which still reaches any target
        scn = example_scenario("example4")
        pt = allocate_grid(scn, [2.0], [0.0])
        assert pt.case[0] == MECH_ONLY
        assert pt.b[0] == pytest.approx(2.0, abs=1e-10)
