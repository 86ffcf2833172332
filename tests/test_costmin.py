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
    costmin,
    example_scenario,
)
from contestlab._rootfind import bisect_vec, expand_upper


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

    @pytest.mark.parametrize("name", ["example1", "example3"])
    @pytest.mark.parametrize("theta", [math.inf, math.nan])
    def test_non_finite_type_rejected(self, name, theta):
        with pytest.raises(DomainError, match="types must be finite"):
            allocate_grid(example_scenario(name), [1.0], [theta])


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
        assert grid.case.shape == (4, 2)

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


def _power_pair(nu_alpha, xi_alpha):
    return example_scenario("example2", nu={"kind": "power", "alpha": nu_alpha},
                            xi={"kind": "power", "alpha": xi_alpha})


# every kind of pair with an interior: (scenario, target at the interior's
# boundary as a function of theta, from the pair's own first-order
# condition, or None where every positive target at a positive type is
# interior)
INTERIOR_PAIRS = {
    # constant margins
    # nu_a = theta meets xi'(b) = 1 / (2 sqrt b) at b = 1 / (4 theta^2)
    "linear-nu x power-xi": (
        lambda: example_scenario("example3"), lambda th: 1.0 / (2.0 * th)),
    # nu_a = theta / (2 sqrt a) = 1 at a = theta^2 / 4
    "power-nu x linear-xi": (
        lambda: example_scenario("example2", xi={"kind": "linear"}),
        lambda th: th * th / 2.0),
    # nu_a = theta exp(-a) = 1 at a = log(theta)
    "saturating-nu x linear-xi": (
        lambda: example_scenario("example4"), lambda th: th - 1.0),
    # alpha = 1 is linear: the same boundary as example3
    "power-nu(alpha=1) x power-xi": (
        lambda: example_scenario("example2", nu={"kind": "power", "alpha": 1.0}),
        lambda th: 1.0 / (2.0 * th)),
    # equal exponents: the closed form a/b = theta^(1/(1-alpha))
    "power x power(alpha=0.3)": (lambda: _power_pair(0.3, 0.3), None),
    "power x power(alpha=0.5)": (lambda: example_scenario("example2"), None),
    "power x power(alpha=0.8)": (lambda: _power_pair(0.8, 0.8), None),
    # the root in log m
    "power(0.3) x power(0.7)": (lambda: _power_pair(0.3, 0.7), None),
    "power(0.7) x power(0.3)": (lambda: _power_pair(0.7, 0.3), None),
    # nu_a(0) = theta meets xi'(b) = 1 / (2 sqrt b) as for example3
    "saturating-nu x power-xi": (
        lambda: example_scenario("example4", xi={"kind": "power", "alpha": 0.5}),
        lambda th: 1.0 / (2.0 * th)),
}


def _interior_root(nu_form, xi, mu, theta, a_bar):
    """Creative effort at the crossing psi(y) = nu_a(y, theta), where
    psi(y) = xi'(xi^{-1}(mu - nu(y, theta))) is the mechanistic margin left
    after committing y, bracketed on [0, a_bar] (doubled where a_bar is
    infinite).

    Its tolerance is 0, so each bracket closes to adjacent floats or runs
    out of steps: at an absolute 1e-10 in y, a creative effort of 7e-11 at
    theta = 9 under nu alpha = 0.3 would leave b off by 9e-5.
    """

    def margin_gap(y):
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
    return bisect_vec(margin_gap, np.zeros_like(hi), hi, tol=0.0)


def _oracle_split(scn, mu, theta):
    """Interior split by a bracketed root in creative effort."""
    a_bar = scn.nu._invert(mu, theta)
    a = _interior_root(scn.nu, scn.xi, mu, theta, a_bar)
    b = scn.xi._invert(np.maximum(mu - scn.nu._value(a, theta), 0.0))
    return a, b


def _no_root(*args, **kwargs):
    raise AssertionError("interior split reached the bracketed root")


class TestInteriorClosedForm:
    @pytest.mark.parametrize("pair", sorted(INTERIOR_PAIRS))
    def test_matches_bracketed_root(self, pair):
        make, boundary = INTERIOR_PAIRS[pair]
        scn = make()
        rng = np.random.default_rng(17)
        lo, hi = scn.types.lo, scn.types.hi
        theta = np.concatenate([rng.uniform(lo, hi, 2000), np.repeat([lo, hi], 5)])
        mu = rng.uniform(0.0, 1.5 * hi, theta.size)
        if boundary is not None:
            # targets straddling the boundary between interior and corner,
            # down to a few ulps, where a and b may round to either side of 0
            rel = np.array([-1e-6, -1e-12, -4.4e-16, -2.2e-16, 0.0, 2.2e-16, 4.4e-16,
                            1e-12, 1e-9, 1e-6, 1e-3])
            edge = np.repeat(np.array([0.7, 1.3, 2.9, hi]), rel.size)
            rel = np.tile(rel, 4)
            theta = np.concatenate([theta, edge])
            mu = np.concatenate([mu, np.maximum(boundary(edge) * (1.0 + rel), 0.0)])
        else:
            # the interior reaches down to zero targets and zero types
            tiny = np.array([1e-12, 1e-9, 1e-6, 1e-3])
            theta = np.concatenate([theta, np.repeat(tiny, 4), np.tile([0.7, 2.9], 4)])
            mu = np.concatenate([mu, np.tile(tiny, 4), np.repeat(tiny, 2)])
        if scn.nu.kind == "saturating":
            # targets near theta: a_bar is infinite from theta - 1e-6 up
            th_sat = rng.uniform(1.5, hi, 200)
            theta = np.concatenate([theta, th_sat])
            mu = np.concatenate([mu, th_sat + rng.uniform(-3e-6, 3e-6, 200)])

        grid = allocate_grid(scn, mu, theta)
        assert np.all(grid.a >= 0.0) and np.all(grid.b >= 0.0)
        inner = grid.case == INTERIOR
        assert inner.sum() > 500
        a_ref, b_ref = _oracle_split(scn, mu[inner], theta[inner])
        np.testing.assert_allclose(grid.a[inner], a_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(grid.b[inner], b_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(grid.cost[inner], scn.cost.value(a_ref + b_ref),
                                   rtol=0, atol=1e-9)
        reached = scn.nu.value(grid.a, theta) + scn.xi.value(grid.b)
        np.testing.assert_allclose(reached, mu, rtol=0, atol=1e-8)

    def test_fast_path_skips_the_root(self, monkeypatch):
        monkeypatch.setattr(costmin, "bisect_vec", _no_root)
        mu = np.linspace(0.0, 8.0, 161)[:, None]
        panel = example_scenario("example3",
                                 types={"kind": "uniform", "support": [0.5, 1.5]})
        for scn in (example_scenario("example2"), example_scenario("example3"),
                    example_scenario("example4"), panel):
            theta = np.linspace(scn.types.lo, scn.types.hi, 201)[None, :]
            grid = allocate_grid(scn, mu, theta)
            assert np.mean(grid.case == INTERIOR) > 0.3
            assert np.all(np.isfinite(grid.cost))

    @pytest.mark.parametrize("scn", [
        _power_pair(0.3, 0.7),
        example_scenario("example4", xi={"kind": "power", "alpha": 0.5}),
    ], ids=["power x power", "saturating x power"])
    def test_other_pairs_still_take_the_root(self, scn, monkeypatch):
        monkeypatch.setattr(costmin, "bisect_vec", _no_root)
        with pytest.raises(AssertionError, match="bracketed root"):
            allocate_grid(scn, np.linspace(0.5, 6.0, 12), 2.0)

    def test_alpha_one_power_is_linear(self, monkeypatch):
        monkeypatch.setattr(costmin, "bisect_vec", _no_root)
        mu = np.linspace(0.0, 6.0, 61)[:, None]
        theta = np.linspace(0.0, 3.0, 31)[None, :]
        with np.errstate(all="raise"):
            unit = allocate_grid(example_scenario(
                "example3", nu={"kind": "power", "alpha": 1.0}), mu, theta)
        linear = allocate_grid(example_scenario("example3"), mu, theta)
        assert np.any(unit.case == INTERIOR)
        np.testing.assert_array_equal(unit.case, linear.case)
        np.testing.assert_allclose(unit.a, linear.a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(unit.b, linear.b, rtol=0, atol=1e-12)

    def test_linear_pair_has_no_interior(self):
        scn = example_scenario("example1")
        theta = np.concatenate([np.linspace(0.0, 3.0, 301), [1.0 - 1e-15, 1.0 + 1e-15]])
        grid = allocate_grid(scn, np.linspace(0.0, 5.0, 101)[:, None], theta[None, :])
        assert not np.any(grid.case == INTERIOR)

    def test_zero_type_under_linear_nu_is_mech_only(self):
        for name in ("example1", "example3"):
            mu = np.linspace(0.0, 4.0, 41)
            with np.errstate(all="raise"):
                grid = allocate_grid(example_scenario(name), mu, 0.0)
            assert np.all(grid.case == MECH_ONLY)
            assert np.all(grid.a == 0.0)
            np.testing.assert_allclose(example_scenario(name).xi.value(grid.b), mu,
                                       rtol=0, atol=1e-12)
