"""Tests for hacking classification and prize-structure comparative statics."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from helpers import effort_region_violations
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contestlab import (
    DomainError,
    PrizeVector,
    StrategyProfile,
    SweepResult,
    UnconvergedProfileError,
    allocate_grid,
    baseline_grid,
    baseline_thresholds,
    compare_prize_vectors,
    example_scenario,
    hacking_threshold,
    hacking_verdicts,
    skewness_sweep,
    solve_equilibrium,
)
from contestlab import equilibrium, hacking


def prize_vectors(max_len: int = 4):
    # non-increasing non-negative tuples, built from sorted draws
    return st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1, max_size=max_len,
    ).map(lambda xs: PrizeVector(tuple(sorted(xs, reverse=True))))


class TestGapOrder:
    def test_known_relations(self):
        players = 3
        assert compare_prize_vectors(PrizeVector((4.0, 0.0)),
                                     PrizeVector((2.0, 0.0)), players) == "geq"
        assert compare_prize_vectors(PrizeVector((2.0, 0.0)),
                                     PrizeVector((4.0, 0.0)), players) == "leq"
        # equal gaps at different levels compare as equal
        assert compare_prize_vectors(PrizeVector((3.0, 1.0, 0.0)),
                                     PrizeVector((4.0, 2.0, 1.0)), players) == "equal"
        # one gap bigger, the other smaller
        assert compare_prize_vectors(PrizeVector((3.0, 1.0, 0.0)),
                                     PrizeVector((2.0, 2.0, 0.0)),
                                     players) == "incomparable"

    @given(prize_vectors(), prize_vectors())
    # a gap of 3.8e-12 against 0 is a strict difference at 1e-12, even
    # next to a gap of 4
    @example(PrizeVector((1.0, 3.776312707881728e-12)), PrizeVector((4.0,)))
    @settings(max_examples=200, deadline=None)
    def test_relation_matches_gap_arithmetic(self, r1, r2):
        players = 4
        rel = compare_prize_vectors(r1, r2, players)
        g1, g2 = r1.gaps(players), r2.gaps(players)
        if rel == "geq":
            assert np.all(g1 >= g2 - 1e-12)
        elif rel == "leq":
            assert np.all(g1 <= g2 + 1e-12)
        elif rel == "equal":
            np.testing.assert_allclose(g1, g2, atol=1e-12)
        else:
            assert np.any(g1 > g2 + 1e-12) and np.any(g1 < g2 - 1e-12)

    @given(prize_vectors(), prize_vectors())
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry_up_to_equality(self, r1, r2):
        players = 4
        ab = compare_prize_vectors(r1, r2, players)
        ba = compare_prize_vectors(r2, r1, players)
        flip = {"geq": "leq", "leq": "geq",
                "equal": "equal", "incomparable": "incomparable"}
        assert ba == flip[ab]
        if ab == "geq" and ba == "geq":
            np.testing.assert_allclose(r1.gaps(players), r2.gaps(players),
                                       atol=1e-12)

    def test_reflexive(self):
        pv = PrizeVector((2.0, 1.0, 0.0))
        assert compare_prize_vectors(pv, pv, 3) == "equal"


class TestHackingThreshold:
    def test_example1_cutoff_is_one(self, equilibria):
        assert hacking_threshold(equilibria("example1")) == pytest.approx(
            1.0, abs=1e-4)

    def test_linear_mechanization_pins_cutoff_to_baseline(self, equilibria):
        # a constant mechanistic margin makes theta1* = theta1_dag exactly
        profile = equilibria("example4")
        thr = baseline_thresholds(profile.scenario)
        assert hacking_threshold(profile) == pytest.approx(thr.mech_upper,
                                                           abs=1e-6)

    def test_concave_mechanization_pulls_cutoff_strictly_down(self, equilibria):
        profile = equilibria("example3", prizes=(2.0, 0.0))
        thr = baseline_thresholds(profile.scenario)
        star = hacking_threshold(profile)
        assert star < thr.mech_upper - 1e-4
        assert star > 0.0

    def test_unconverged_profile_rejected(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "_MAX_ITER", 2)
        profile = solve_equilibrium(example_scenario("example1"), tol=1e-13)
        with pytest.raises(UnconvergedProfileError):
            hacking_threshold(profile)


class TestVerdicts:
    def test_verdicts_match_raw_effort_comparison(self, equilibria):
        # the published flag must equal the inequality recomputed from
        # the raw allocation and baseline arrays
        profile = equilibria("example3", prizes=(2.0, 0.0))
        verdicts = hacking_verdicts(profile)
        scn = profile.scenario
        alloc = allocate_grid(scn, profile.mu_star, profile.theta_grid)
        base = baseline_grid(scn, profile.theta_grid)
        raw = (alloc.a <= base.a + 1e-6) & (alloc.b > base.b + 1e-6)
        np.testing.assert_array_equal(verdicts.hacks, raw)

    def test_baseline_read_from_the_profile(self, equilibria, monkeypatch):
        # the solve already holds the no-contest schedule of its type
        # grid; the verdicts compare against it instead of solving it again
        profile = equilibria("example3", prizes=(2.0, 0.0))

        def resolve(*args, **kwargs):
            raise AssertionError("hacking_verdicts solved the baseline again")

        monkeypatch.setattr(hacking, "baseline_grid", resolve)
        verdicts = hacking_verdicts(profile)
        assert verdicts.profile is profile
        np.testing.assert_array_equal(verdicts.profile.baseline.mu, profile.baseline.mu)

    def test_some_hacking_below_cutoff_none_above(self, equilibria):
        profile = equilibria("example3", prizes=(2.0, 0.0))
        verdicts = hacking_verdicts(profile)
        thr = baseline_thresholds(profile.scenario).mech_upper
        below = verdicts.hacks[profile.theta_grid < thr - 0.05]
        above = verdicts.hacks[profile.theta_grid > thr + 0.05]
        assert below.any()
        assert not above.any()

    @pytest.mark.parametrize("support, theta_star, measure, band", [
        ([1.5, 3.0], -np.inf, 0.0, "pure-creator"),
        ([0.0, 0.5], np.inf, 1.0, "pure-mechanizer"),
        ([0.5, 0.5], np.inf, 1.0, "pure-mechanizer"),
    ], ids=["above-cutoff", "below-cutoff", "point-mass"])
    def test_support_on_one_side_of_the_cutoff(self, support, theta_star, measure,
                                               band):
        # example1's cutoffs are all 1: no type above it hacks, every type
        # below it hacks, and a point mass carries the whole measure
        scn = example_scenario("example1",
                               types={"kind": "uniform", "support": support})
        verdicts = hacking_verdicts(solve_equilibrium(scn, grid_size=41))
        assert verdicts.theta_star == theta_star
        assert verdicts.measure == pytest.approx(measure, abs=1e-12)
        np.testing.assert_array_equal(verdicts.hacks, measure == 1.0)
        assert set(verdicts.band) == {band}

    def test_measure_is_type_mass(self, equilibria):
        profile = equilibria("example3", prizes=(2.0, 0.0))
        verdicts = hacking_verdicts(profile)
        measure = verdicts.measure
        # uniform types on [0, 3]: mass of hacking cells ~ width / 3
        frac = verdicts.hacks.mean()
        assert measure == pytest.approx(frac, abs=0.01)
        assert 0.0 < measure < 1.0


class TestEffortRegions:
    def test_example1_region_inequalities(self, equilibria):
        violations = effort_region_violations(equilibria("example1"))
        assert not violations, violations[:5]

    def test_example3_region_inequalities(self, equilibria):
        violations = effort_region_violations(
            equilibria("example3", prizes=(2.0, 0.0)))
        assert not violations, violations[:5]


class TestSkewnessSweep:
    def test_two_vector_sweep_orders_outcomes(self):
        scn = example_scenario("example3")
        sweep = skewness_sweep(scn, [(1.0, 0.0), (2.0, 0.0)])
        assert sweep.relations == ((0, 1, "leq"),)
        assert sweep.dominance_violations() == []
        assert sweep.measure_violations() == []
        # steeper prizes push every type weakly up
        assert np.all(sweep.verdicts[1].profile.mu_star
                      >= sweep.verdicts[0].profile.mu_star - 1e-4)

    def test_violations_follow_the_prize_order(self):
        # both orientations of the order; the equal pair would violate
        # in one orientation, so it must be skipped
        theta = np.array([0.0, 1.0, 2.0])
        mus = [np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.5, 3.0]),
               np.array([1.0, 2.0, 2.5])]
        sweep = SweepResult(
            prize_vectors=(),
            relations=((0, 1, "geq"), (0, 2, "leq"), (1, 2, "equal")),
            verdicts=tuple(SimpleNamespace(
                profile=SimpleNamespace(theta_grid=theta, mu_star=m), measure=v)
                for m, v in zip(mus, (0.5, 0.2, 0.7))))
        assert sweep.dominance_violations() == [
            {"dominant": 0, "dominated": 1, "theta": 1.0, "shortfall": 0.5},
            {"dominant": 2, "dominated": 0, "theta": 2.0, "shortfall": 0.5},
        ]
        assert sweep.measure_violations() == [
            {"dominant": 0, "dominated": 1, "excess": 0.5 - 0.2},
            {"dominant": 2, "dominated": 0, "excess": 0.7 - 0.5},
        ]

    @pytest.mark.parametrize("vectors, message", [
        ([], "need at least one prize vector"),
        ([(1.0, 2.0, 0.0)], "non-increasing"),
    ], ids=["none", "increasing"])
    def test_bad_prize_vectors_rejected(self, vectors, message):
        scn = example_scenario("example1", players=3, prizes=[1.0, 0.0, 0.0])
        with pytest.raises(DomainError, match=message):
            skewness_sweep(scn, vectors)

    def test_incomparable_vectors_rejected(self):
        scn = example_scenario("example1", players=3, prizes=[1.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="incomparable"):
            skewness_sweep(scn, [(3.0, 1.0, 0.0), (2.0, 2.0, 0.0)])
