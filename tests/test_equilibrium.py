"""Tests for the symmetric-contest fixed point and its rank calculus."""

from __future__ import annotations

import math

import numpy as np
import pytest
from helpers import nan_at_fourth_point, sample_types
from oracle import RankOracle
from scipy import integrate, optimize, special, stats

from contestlab import (
    DomainError,
    GainTable,
    NoiseFamily,
    PrizeVector,
    Scenario,
    SolverError,
    StrategyProfile,
    TypeDistribution,
    baseline_grid,
    best_response_grid,
    example_scenario,
    run_contest,
    solve_equilibrium,
)
from contestlab import equilibrium
from contestlab.costmin import allocate_grid
from contestlab.equilibrium import _mu_upper_bound

NOISE_KINDS = ("normal", "gumbel", "exponential")


def point_mass_schedule(mu_opp: float, players: int = 2,
                        prizes=(1.0, 0.0), dispersion: float = 1.0,
                        theta: float = 1.0) -> tuple[Scenario, np.ndarray, np.ndarray]:
    """A one-type scenario, its type grid and a schedule on it at which
    every opponent targets one known fitness level."""
    scn = example_scenario(
        "example1",
        players=players,
        prizes=list(prizes),
        types={"kind": "uniform", "support": [theta, theta]},
        noise={"kind": "normal", "dispersion": dispersion},
    )
    return scn, np.array([theta]), np.array([float(mu_opp)])


def oracle_of(profile: StrategyProfile) -> RankOracle:
    """The oracle against a solved profile's opponents."""
    return RankOracle(profile.scenario, profile.theta_grid, profile.mu_star)


def table_of(profile: StrategyProfile, mu_max: float) -> GainTable:
    """The gain table against a solved profile's opponents."""
    return GainTable(profile.scenario, profile.theta_grid, profile.mu_star, mu_max)


@pytest.mark.parametrize("n", [0, 1, 2, 19, 199, 399])
def test_binom_pmf_matches_scipy(n, rng):
    p = np.concatenate([[0.0, 1e-300], rng.random(20), [1.0 - 1e-16, 1.0]])
    k = np.arange(n + 1)
    got = equilibrium._binom_pmf(k[None, :], n, p[:, None])
    want = stats.binom.pmf(k[None, :], n, p[:, None])
    big = want > 1e-200
    np.testing.assert_allclose(got[big], want[big], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got[~big], want[~big], rtol=0.0, atol=1e-200)
    # exact at p = 0 and p = 1 (a one at k = 0 or k = n, zeros elsewhere)
    np.testing.assert_array_equal(got[[0, -1]], want[[0, -1]])
    if n == 0:
        assert np.all(got == 1.0)


class TestRankProbabilities:
    def test_sums_to_one(self, equilibria):
        oracle = oracle_of(equilibria("example1", players=5, prizes=(1.0, 0.5, 0.0)))
        for mu in (0.3, 1.0, 2.4, 5.0):
            p = oracle.rank_probabilities(mu)
            assert p.size == 5
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(p >= -1e-12)

    def test_two_player_closed_form(self):
        # with one opponent fixed at mu_o, the win chance is
        # Phi((mu - mu_o) / (sigma * sqrt(2)))
        oracle = RankOracle(*point_mass_schedule(1.5, dispersion=0.8))
        for mu in (0.5, 1.5, 3.0):
            p = oracle.rank_probabilities(mu)
            want = special.ndtr((mu - 1.5) / (0.8 * math.sqrt(2.0)))
            assert p[0] == pytest.approx(want, abs=1e-8)
            assert p[1] == pytest.approx(1.0 - want, abs=1e-8)

    def test_three_player_quadrature_oracle(self):
        schedule = point_mass_schedule(1.0, players=3, prizes=(1.0, 0.0, 0.0))
        mu = 1.7
        p = RankOracle(*schedule).rank_probabilities(mu)

        def win(s):
            return stats.norm.pdf(s, mu) * stats.norm.cdf(s, 1.0) ** 2

        want, _ = integrate.quad(win, -8.0, 12.0)
        assert p[0] == pytest.approx(want, abs=1e-7)

    def test_rank_cdf_fosd_in_mu(self, equilibria):
        oracle = oracle_of(equilibria("example1", players=5, prizes=(1.0, 0.5, 0.0)))
        lo = np.cumsum(oracle.rank_probabilities(1.0))
        hi = np.cumsum(oracle.rank_probabilities(2.0))
        assert np.all(hi >= lo - 1e-6)

    def test_monte_carlo_agreement_small(self, equilibria, rng):
        # the acceptance suite reruns this at 1e6 draws
        profile = equilibria("example1", players=5, prizes=(1.0, 0.5, 0.0))
        mu_probe = 2.0
        p = oracle_of(profile).rank_probabilities(mu_probe)
        n = 200_000
        theta = sample_types(profile.scenario.types, rng, 4 * n).reshape(n, 4)
        opp = rng.normal(profile.mu_at(theta), 1.0)
        own = rng.normal(mu_probe, 1.0, size=(n, 1))
        ranks = 1 + (opp > own).sum(axis=1)
        freq = np.bincount(ranks, minlength=6)[1:] / n
        se = np.sqrt(p * (1.0 - p) / n)
        assert np.all(np.abs(freq - p) <= 3.0 * se + 1e-12)

    def test_single_player_trivial(self):
        oracle = RankOracle(*point_mass_schedule(1.0, players=1, prizes=(1.0,)))
        np.testing.assert_array_equal(oracle.rank_probabilities(0.7), [1.0])

    def test_negative_target_rejected(self, equilibria):
        oracle = oracle_of(equilibria("example1"))
        with pytest.raises(DomainError):
            oracle.rank_probabilities(-0.5)


class TestGainTable:
    def test_matches_adaptive_quadrature(self, equilibria):
        profile = equilibria("example1", players=5, prizes=(1.0, 0.5, 0.0))
        table = table_of(profile, mu_max=12.0)
        oracle = oracle_of(profile)
        for mu in (0.2, 1.1, 2.7, 4.4):
            direct = oracle.contest_gain(mu)
            assert table.gain(mu)[0] == pytest.approx(direct, abs=2e-5)

    def test_gain_increasing_in_mu(self, equilibria):
        table = table_of(equilibria("example1"), mu_max=12.0)
        gains = table.gain(np.linspace(0.0, 8.0, 50))
        assert np.all(np.diff(gains) >= -1e-10)

    @staticmethod
    def _table(profile, noise_kind, players=None, prizes=None):
        """The profile's schedule, replayed under another noise family
        (and, if given, another number of players and prize vector)."""
        scn = profile.scenario
        noisy = example_scenario(
            "example1", players=players or scn.players,
            prizes=list(prizes or scn.prizes.values),
            noise={"kind": noise_kind, "dispersion": 1.0})
        return GainTable(noisy, profile.theta_grid, profile.mu_star, mu_max=12.0)

    @pytest.mark.parametrize("noise_kind", NOISE_KINDS)
    @pytest.mark.parametrize("players, prizes", [(2, (1.0, 0.0)), (5, (1.0, 0.5, 0.0))])
    def test_gain_and_slope_oracles(self, equilibria, noise_kind, players, prizes):
        # the slope is the exact derivative of the C1 piecewise-cubic
        # gain, so a central difference with a step far below the W grid
        # spacing matches it to rounding everywhere
        table = self._table(equilibria("example1", players=players, prizes=prizes),
                            noise_kind)
        mu = np.linspace(0.05, 8.0, 400)
        slope = table.slope(mu)
        h = 1e-7
        central = (table.gain(mu + h) - table.gain(mu - h)) / (2.0 * h)
        err = np.abs(slope - central)
        assert float(np.max(err)) < 1e-8
        assert float(np.median(err)) < 1e-8
        assert float(np.max(np.abs(slope))) > 0.1

    @pytest.mark.parametrize("noise_kind", ["normal", "gumbel"])
    def test_constant_beyond_the_grid(self, equilibria, noise_kind):
        # under a location family every node of a target far past either
        # end of the score grid lands on the constant end segment: nobody
        # ahead above, everyone ahead below.  The gain is then the same
        # for every such target, with slope exactly 0, and it is that
        # prize up to the rounding of the quadrature weights' sum
        paid = (1.0, 0.5, 0.25)
        table = self._table(equilibria("example1"), noise_kind, players=3,
                            prizes=paid)
        for far, prize in (([1e3, 1e6], paid[0]), ([-1e3, -1e6], paid[-1])):
            gain = table.gain(far)
            assert gain[0] == gain[1]
            assert gain[0] == pytest.approx(prize, rel=5e-16, abs=0.0)
            np.testing.assert_array_equal(table.slope(far), [0.0, 0.0])

    @pytest.mark.parametrize("noise_kind", NOISE_KINDS)
    def test_one_target_equals_grid_call(self, equilibria, noise_kind):
        # each row is summed on its own, so a target's gain and slope do
        # not depend on the other targets in the call
        table = self._table(equilibria("example1"), noise_kind)
        mu = np.linspace(0.0, 12.0, 201)
        gains, slopes = table.gain(mu), table.slope(mu)
        for j, m in enumerate(mu):
            assert table.gain([m])[0] == gains[j]
            assert table.slope([m])[0] == slopes[j]

    def test_exponential_negative_target_rejected(self, equilibria):
        table = self._table(equilibria("example1"), "exponential")
        for evaluate in (table.gain, table.slope):
            with pytest.raises(DomainError, match="non-negative mean"):
                evaluate([0.5, -0.5])

    def test_zero_prizes_zero_gain(self, equilibria):
        profile = equilibria("example1")
        unpaid = profile.scenario.with_prizes(PrizeVector(()))
        table = GainTable(unpaid, profile.theta_grid, profile.mu_star, mu_max=10.0)
        np.testing.assert_array_equal(table.gain([0.5, 1.5]), [0.0, 0.0])

    def test_one_player_gain_is_the_sure_prize(self, equilibria):
        # a lone player takes the top prize whatever its score, as a
        # simulated contest pays it
        profile = equilibria("example1", players=1, prizes=(1.0,), grid_size=21)
        table = table_of(profile, mu_max=10.0)
        np.testing.assert_array_equal(table.gain([0.5, 2.0]), [1.0, 1.0])
        np.testing.assert_array_equal(table.slope([0.5, 2.0]), [0.0, 0.0])
        np.testing.assert_array_equal(run_contest(profile, seed=3).prize, [1.0])

    @pytest.mark.parametrize("noise_kind", NOISE_KINDS)
    def test_equal_ladder_gain_is_the_sure_prize(self, equilibria, noise_kind):
        # every rank of an equal ladder pays the same prize, so the gain is
        # that prize whatever the score, with no rounding of rank weights
        table = self._table(equilibria("example1"), noise_kind, players=4,
                            prizes=(0.5,) * 4)
        mu = [0.0, 0.5, 2.0, 8.0]
        np.testing.assert_array_equal(table.gain(mu), [0.5] * 4)
        np.testing.assert_array_equal(table.slope(mu), [0.0] * 4)


# cells where the table is off the oracle by more than the cross-check's
# bound, with the measured gap: under exponential noise the 1025-point
# score grid of W spans [0, the top target's 1 - 1e-9 quantile], which is
# coarse where low targets score
_COARSE_SCORE_GRID = {("example1", "exponential", 5): 1.2e-4,
                      ("example2", "exponential", 2): 4.1e-3,
                      ("example3", "exponential", 5): 2.0e-4}


def _cross_check_cells():
    for name in ("example1", "example2", "example3", "example4"):
        for noise_kind in NOISE_KINDS:
            for players, prizes in ((2, (1.0,)), (5, (1.0, 0.5))):
                gap = _COARSE_SCORE_GRID.get((name, noise_kind, players))
                marks = () if gap is None else pytest.mark.xfail(
                    strict=True, reason=f"table off the oracle by {gap:.1e}")
                yield pytest.param(name, noise_kind, players, prizes, marks=marks,
                                   id=f"{name}-{noise_kind}-{players}")


@pytest.mark.parametrize("name, noise_kind, players, prizes", _cross_check_cells())
def test_gain_table_matches_independent_oracle(name, noise_kind, players, prizes):
    # the table against the oracle's own mixture, at the targets of types
    # at 10%, 50% and 90% of the support; 1e-4 is about 2.5 times the
    # gap of the table's 64-node type rule on example1
    noise = {"kind": noise_kind}
    if noise_kind != "exponential":
        noise["dispersion"] = 1.0
    scn = example_scenario(name, players=players, prizes=list(prizes), noise=noise)
    profile = solve_equilibrium(scn, grid_size=51)
    table = table_of(profile, _mu_upper_bound(scn, profile.baseline))
    oracle = oracle_of(profile)
    lo, hi = scn.support
    for mu in profile.mu_at(lo + np.array([0.1, 0.5, 0.9]) * (hi - lo)):
        assert table.gain(mu)[0] == pytest.approx(oracle.contest_gain(mu), abs=1e-4)


class TestOpponentMixture:
    def test_weights_are_a_distribution(self, equilibria):
        # the table's nodes and the oracle's
        profile = equilibria("example1")
        nodes = equilibrium._opponent_nodes(profile.scenario.types, profile.theta_grid,
                                            profile.mu_star)
        for weights in (nodes[0], oracle_of(profile).weights):
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(weights > 0)

    def test_cdf_monotone_and_normalised(self, equilibria):
        oracle = oracle_of(equilibria("example1"))
        s = np.linspace(-6.0, 16.0, 300)
        cdf = oracle.cdf(s)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] < 1e-4 and cdf[-1] > 1.0 - 1e-4

    def test_cdf_independent_of_batch(self, equilibria):
        # G at a point must not depend on the batch it is evaluated in:
        # adaptive quadrature calls it on batches of every size
        oracle = oracle_of(equilibria("example1"))
        s = np.linspace(-6.0, 16.0, 301)
        batch = oracle.cdf(s)
        np.testing.assert_array_equal(batch, [oracle.cdf(x) for x in s])


@pytest.mark.parametrize("players, prizes", [
    (2, [1.0]), (5, [3.0, 1.0]), (20, [1.0, 0.6, 0.3]), (2, [8.0])])
@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4"])
@pytest.mark.parametrize("noise_kind", NOISE_KINDS)
def test_target_bracket_holds_every_best_response(noise_kind, name, players,
                                                  prizes):
    # the bound holds against any schedule; against the no-contest one,
    # the global best response on a sweep over twice the bracket stays
    # in the bracket's lower half, the slack the solver keeps
    noise = {"kind": noise_kind}
    if noise_kind != "exponential":
        noise["dispersion"] = 1.0
    scn = example_scenario(name, players=players, prizes=prizes, noise=noise)
    thetas = np.linspace(*scn.support, 21)
    base = baseline_grid(scn, thetas)
    mu_max = _mu_upper_bound(scn, base)
    table = GainTable(scn, thetas, base.mu, 2.0 * mu_max)
    mus = np.linspace(0.0, 2.0 * mu_max, 4001)
    payoff = (table.gain(mus)[:, None] + mus[:, None]
              - allocate_grid(scn, mus[:, None], thetas[None, :]).cost)
    assert np.max(mus[np.argmax(payoff, axis=0)]) <= 0.5 * mu_max


class TestSolveEquilibrium:
    def test_example1_basic_properties(self, equilibria):
        profile = equilibria("example1")
        scn = profile.scenario
        assert profile.converged
        assert profile.residual < 1e-4
        assert np.all(np.diff(profile.mu_star) >= -1e-12)
        base = baseline_grid(scn, profile.theta_grid)
        assert np.all(profile.mu_star >= base.mu - 1e-4)

    def test_fixed_point_residual_pointwise(self, equilibria):
        # converged schedules must reproduce themselves through the
        # public best responses, not only through the solver internals
        profile = equilibria("example1")
        br = best_response_grid(profile, profile.theta_grid)
        assert float(np.max(np.abs(br - profile.mu_star))) < 1e-4

    def test_scalar_best_response_agrees(self, equilibria):
        profile = equilibria("example1")
        for theta in (0.3, 1.2, 2.7):
            br = best_response_grid(profile, [theta])[0]
            assert br == pytest.approx(float(profile.mu_at(theta)), abs=1e-4)
        # the bracket comes from the profile, not from the types asked for,
        # so a one-type call returns the grid call's value for that type
        thetas = profile.theta_grid
        grid_br = best_response_grid(profile, thetas)
        for j in (0, 37, 100, 163, thetas.size - 1):
            one = best_response_grid(profile, [thetas[j]])[0]
            assert one == pytest.approx(grid_br[j], abs=1e-12)

    @pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4"])
    def test_best_response_ignores_bracket_stretch(self, equilibria, name):
        # the best response is the first-order root, a function of the
        # schedule: stretching the target bracket by 1e-6 relative moves
        # the coarse grid but not the root it brackets
        profile = equilibria(name)
        scn, thetas = profile.scenario, profile.theta_grid
        mu_max = _mu_upper_bound(scn, profile.baseline)
        table = table_of(profile, mu_max)

        def best_response(top):
            mu_grid, cost_matrix = equilibrium._coarse_grid(scn, thetas, top)
            return equilibrium._best_response_grid(scn, table, thetas,
                                                   mu_grid, cost_matrix)

        stretched = best_response(mu_max * (1.0 + 1e-6))
        assert np.max(np.abs(stretched - best_response(mu_max))) <= 5e-9

    @pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4"])
    def test_best_response_beats_fine_grid(self, equilibria, name):
        # the coarse sweep plus the first-order-condition refinement must
        # reach every point of a grid ten times finer than the sweep
        profile = equilibria(name)
        scn, thetas = profile.scenario, profile.theta_grid
        mu_max = _mu_upper_bound(scn, baseline_grid(scn, thetas))
        table = table_of(profile, mu_max)

        def payoff(mu, th):
            gain = table.gain(mu.ravel()).reshape(mu.shape)
            return gain + mu - allocate_grid(scn, mu, th).cost

        br = best_response_grid(profile, thetas)
        fine = np.linspace(0.0, mu_max, 2000)
        fine_best = np.max(payoff(fine[:, None], thetas[None, :]), axis=0)
        assert np.all(payoff(br, thetas) >= fine_best - 1e-9)

    def test_types_outside_the_support_rejected(self, equilibria):
        profile = equilibria("example1", grid_size=51)
        for theta in (5.0, 100.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="outside support"):
                best_response_grid(profile, [1.0, theta])

    def test_example1_best_response_matches_exact_foc(self, equilibria):
        # two players, N(0, 1) noise and one unit prize: the gain against
        # the opponent mixture is sum_j w_j Phi((mu - mu_j) / sqrt 2), so
        # the exact best response solves dC/dmu = 1 + its derivative
        profile = equilibria("example1")
        scn, thetas = profile.scenario, profile.theta_grid
        weights, mus = equilibrium._opponent_nodes(scn.types, thetas, profile.mu_star)

        def foc(mu, th):
            slope = weights @ stats.norm.pdf(mu, mus, math.sqrt(2.0))
            mc = allocate_grid(scn, np.array([mu]), np.array([th])).marginal_cost
            return float(mc[0]) - 1.0 - float(slope)

        br = best_response_grid(profile, thetas)
        err = []
        for mu, th in zip(br, thetas):
            lo, hi = max(mu - 1e-3, 0.0), mu + 1e-3
            assert foc(lo, th) < 0.0 < foc(hi, th)
            err.append(abs(optimize.brentq(foc, lo, hi, args=(th,),
                                           xtol=1e-13) - mu))
        assert max(err) < 2e-5

    def test_twenty_player_skewed_cell_converges(self, monkeypatch):
        # the skewed prize-value-40 cell of demos/panel_experiment.py at 20
        # players; it used to cycle between two best responses
        scn = example_scenario(
            "example3", players=20, prizes=[20.0, 12.0, 8.0],
            types={"kind": "uniform", "support": [0.5, 1.5]},
            noise={"kind": "normal", "dispersion": 3.0},
        )
        base = baseline_grid(scn, np.linspace(0.5, 1.5, 201))
        # an undamped first step makes plain iteration oscillate here
        for damping in (0.5, 1.0):
            monkeypatch.setattr(equilibrium, "_DAMPING", damping)
            monkeypatch.setattr(equilibrium, "_MAX_ITER", 150)
            profile = solve_equilibrium(scn)
            assert profile.converged
            assert profile.residual <= 1e-5
            assert np.all(np.diff(profile.mu_star) >= 0.0)
            assert np.all(profile.mu_star >= base.mu - 1e-9)

    def test_zero_prizes_equal_baseline(self):
        scn = example_scenario("example1")
        profile = solve_equilibrium(scn.with_prizes(()))
        base = baseline_grid(scn, profile.theta_grid)
        assert profile.converged
        np.testing.assert_allclose(profile.mu_star, base.mu, atol=1e-4)

    def test_prizes_raise_the_schedule_strictly_somewhere(self, equilibria):
        profile = equilibria("example1")
        base = baseline_grid(profile.scenario, profile.theta_grid)
        assert float(np.max(profile.mu_star - base.mu)) > 0.05

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(DomainError, match="tol"):
            solve_equilibrium(example_scenario("example1"), tol=tol)

    @pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4"])
    def test_few_iterations(self, equilibria, name):
        # plain damped iteration needs 17-19 here; Anderson mixing needs 6
        profile = equilibria(name)
        assert profile.converged
        assert profile.iterations <= 10

    def test_unreachable_tolerance_stops_on_a_stall(self):
        profile = solve_equilibrium(example_scenario("example1"), grid_size=21,
                                    tol=0.0)
        assert not profile.converged
        assert profile.iterations < 50
        # best responses free of rounding-level ties let the fixed point
        # go far below the default tolerance before it stalls
        assert profile.residual < 1e-9
        # the residual belongs to the schedule returned
        br = best_response_grid(profile, profile.theta_grid)
        assert profile.residual == pytest.approx(
            float(np.max(np.abs(br - profile.mu_star))), rel=1e-12)

    def test_flat_marginal_cost_above_one_converges(self):
        # linear cost kappa 1.2 with linear nu: the top type's marginal
        # cost is flat at 1.2, yet mu - C still falls without bound
        scn = example_scenario(
            "example1", nu={"kind": "linear"},
            xi={"kind": "power", "alpha": 0.5},
            cost={"kind": "linear", "kappa": 1.2},
            types={"kind": "uniform", "support": [0.0, 1.0]})
        profile = solve_equilibrium(scn)
        assert profile.converged and profile.residual <= 1e-5

    def test_runaway_best_response_raises(self):
        # linear cost at or below a margin that never decays (linear xi,
        # or linear nu at the top type 3): mu - C is flat or rising, so
        # nothing bounds the no-contest optimum or the best response
        for name, kappa in (("example4", 1.0), ("example3", 2.0), ("example3", 3.0)):
            scn = example_scenario(name, cost={"kind": "linear", "kappa": kappa})
            with pytest.raises(DomainError, match="no bounded no-contest optimum"):
                solve_equilibrium(scn, grid_size=21)

    def test_degenerate_types_single_node(self):
        scn = example_scenario(
            "example1",
            types={"kind": "uniform", "support": [2.0, 2.0]},
        )
        profile = solve_equilibrium(scn)
        assert profile.theta_grid.size == 1
        assert profile.converged

    def test_unconverged_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "_MAX_ITER", 3)
        profile = solve_equilibrium(example_scenario("example1"), tol=1e-13)
        assert not profile.converged
        assert profile.iterations == 3
        assert math.isfinite(profile.residual)

    def test_non_finite_payoff_raises(self, monkeypatch):
        # argmax would pick the NaN cell; the solver must stop at once
        monkeypatch.setattr(GainTable, "gain", nan_at_fourth_point(GainTable.gain))
        with pytest.raises(SolverError, match="not finite"):
            solve_equilibrium(example_scenario("example1"), grid_size=21)

    @pytest.mark.parametrize("types", [
        {"kind": "uniform", "support": [0.0, 3.0]},
        {"kind": "truncated-normal", "support": [0.0, 3.0], "loc": 1.0, "scale": 0.8},
    ], ids=["uniform", "truncnorm"])
    @pytest.mark.parametrize("noise_kind", NOISE_KINDS)
    @pytest.mark.parametrize("players, prizes", [(2, [1.0]), (20, [1.0, 0.6, 0.3])])
    def test_equilibrium_properties(self, noise_kind, players, prizes, types):
        # example1's forms under other noise, type laws and player counts
        scn = example_scenario("example1", players=players, prizes=prizes,
                               types=types,
                               noise={"kind": noise_kind, "dispersion": 1.0})
        profile = solve_equilibrium(scn, grid_size=51)
        assert profile.converged and profile.residual <= 1e-5
        assert np.all(np.diff(profile.mu_star) >= 0.0)
        base = baseline_grid(scn, profile.theta_grid)
        assert np.all(profile.mu_star >= base.mu - 1e-9)
        flat = solve_equilibrium(scn.with_prizes(()), grid_size=51)
        assert flat.converged
        np.testing.assert_allclose(flat.mu_star, base.mu, atol=1e-9)

    def test_mu_at_interpolates(self, equilibria):
        profile = equilibria("example1")
        grid = profile.theta_grid
        mid = 0.5 * (grid[10] + grid[11])
        want = 0.5 * (profile.mu_star[10] + profile.mu_star[11])
        assert profile.mu_at(mid) == pytest.approx(want, abs=1e-12)

    def test_schedule_must_match_the_baseline_grid(self):
        scn = example_scenario("example1")
        base = baseline_grid(scn, np.linspace(*scn.support, 5))
        with pytest.raises(DomainError, match="type grid"):
            StrategyProfile(scn, base, np.ones(4), 0, 0.0, 1e-5)
