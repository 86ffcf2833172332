"""Tests for trend statistics, contest simulation, and panel regressions."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contestlab import (
    DomainError,
    PanelCell,
    PanelSpec,
    SolverError,
    StrategyProfile,
    UnconvergedProfileError,
    add_interactions,
    add_type_bins,
    example_scenario,
    fe_ols,
    mann_kendall,
    panel_cells,
    panel_regressions,
    rank_probabilities,
    run_contest,
    solve_equilibrium,
    synthetic_panel,
    type_bin_edges,
)
from contestlab import equilibrium
from contestlab._quadrature import gauss_legendre
from contestlab.costmin import INTERIOR, allocate_grid
from contestlab.simulate import (
    CONTEST_COLUMNS,
    _contest_batch,
    _householder_r,
    _mk_batch,
    _streams,
    _trajectory_matrix,
)


@pytest.fixture(scope="module")
def small_game(equilibria):
    profile = equilibria("example1", players=5,
                         prizes=(1.0, 0.5, 0.0, 0.0, 0.0))
    return profile.scenario, profile


@pytest.fixture(scope="module")
def small_cells():
    scn = example_scenario(
        "example3",
        types={"kind": "uniform", "support": [0.5, 1.5]},
        noise={"kind": "normal", "dispersion": 3.0},
    )
    return scn, panel_cells(scn, players=8, prize_values=(1.0, 4.0),
                            skew_weights=(0.5, 0.3, 0.2), grid_size=41)


def mk_oracle(series) -> tuple[int, float]:
    """Pairwise enumeration of S and the tie-corrected variance."""
    x = np.asarray(series, dtype=float)
    n = x.size
    s = 0
    for i in range(n - 1):
        s += int(np.sign(x[i + 1:] - x[i]).sum())   # the pairs (i, j > i)
    ties = sum(t * (t - 1) * (2 * t + 5)
               for t in Counter(x.tolist()).values() if t > 1)
    var = (n * (n - 1) * (2 * n + 5) - ties) / 18.0
    return s, var


class TestMannKendall:
    def test_short_ascending_series(self):
        mk = mann_kendall([1.0, 2.0, 3.0, 4.0])
        assert mk.s == 6
        assert mk.var_s == pytest.approx(156.0 / 18.0)
        assert mk.z == pytest.approx(5.0 / math.sqrt(156.0 / 18.0))

    def test_constant_series(self):
        mk = mann_kendall([2.0] * 6)
        assert mk.s == 0
        assert mk.var_s == 0.0
        assert mk.z == 0.0

    @pytest.mark.parametrize("series,s,var", [
        # hand-computed tie corrections: sum t(t-1)(2t+5) over tie groups
        ([1, 2, 2, 3, 5, 5, 5], 17, 714.0 / 18.0),
        ([1, 2, 2, 4, 3], 7, 282.0 / 18.0),
        ([2, 2, 3, 3, 3, 1], 1, 426.0 / 18.0),
    ])
    def test_tie_fixtures(self, series, s, var):
        mk = mann_kendall(series)
        assert mk.s == s
        assert mk.var_s == pytest.approx(var, abs=1e-12)
        oracle_s, oracle_var = mk_oracle(series)
        assert (mk.s, mk.var_s) == (oracle_s, pytest.approx(oracle_var))

    def test_matches_oracle_on_random_tied_series(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 15))
            series = rng.integers(0, 5, size=n).astype(float)
            mk = mann_kendall(series)
            s, var = mk_oracle(series)
            assert mk.s == s
            assert mk.var_s == pytest.approx(var, abs=1e-12)

    @given(st.lists(st.integers(min_value=-3, max_value=3),
                    min_size=2, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_antisymmetric_under_reversal(self, values):
        fwd = mann_kendall([float(v) for v in values])
        rev = mann_kendall([float(v) for v in reversed(values)])
        assert fwd.s == -rev.s
        assert fwd.var_s == pytest.approx(rev.var_s, abs=1e-12)
        assert fwd.z == pytest.approx(-rev.z, abs=1e-12)

    def test_z_continuity_correction_signs(self):
        up = mann_kendall([1.0, 2.0, 3.0])
        dn = mann_kendall([3.0, 2.0, 1.0])
        assert up.z > 0 > dn.z

    def test_batch_matches_scalar(self, rng):
        scores = rng.integers(0, 4, size=(50, 9)).astype(float)
        s, var, z = _mk_batch(scores)
        for k in range(50):
            oracle_s, oracle_var = mk_oracle(scores[k])
            if oracle_var <= 0.0 or oracle_s == 0:
                oracle_z = 0.0
            else:
                oracle_z = (oracle_s - math.copysign(1, oracle_s)) / math.sqrt(oracle_var)
            assert s[k] == oracle_s
            assert var[k] == pytest.approx(oracle_var, abs=1e-12)
            assert z[k] == pytest.approx(oracle_z, abs=1e-12)
        # one long series with many ties: runs of up to ~130 equal values
        long = rng.integers(0, 60, size=(1, 4000)).astype(float)
        s, var, _ = _mk_batch(long)
        oracle_s, oracle_var = mk_oracle(long[0])
        assert s[0] == oracle_s
        assert var[0] == oracle_var

    def test_input_validation(self):
        with pytest.raises(DomainError):
            mann_kendall([1.0])
        with pytest.raises(DomainError):
            mann_kendall([1.0, math.nan, 2.0])


def trajectory(a, b, length, drift_scale=0.3, noise_scale=2.0, seed=0,
               *, base=75.0, stream=0):
    """One player's submission trajectory, drawn from Philox (seed, stream)."""
    eps = np.random.Generator(np.random.Philox(key=[seed, stream])).standard_normal((1, length))
    return _trajectory_matrix(np.array([a]), np.array([b]), length,
                              drift_scale, noise_scale, np.array([base]), eps)[0]


class TestTrajectories:
    def test_deterministic_in_seed_and_stream(self):
        t1 = trajectory(1.0, 0.5, 10, seed=42, stream=3)
        t2 = trajectory(1.0, 0.5, 10, seed=42, stream=3)
        t3 = trajectory(1.0, 0.5, 10, seed=42, stream=4)
        np.testing.assert_array_equal(t1, t2)
        assert not np.array_equal(t1, t3)

    def test_scores_clamped_and_sized(self):
        scores = trajectory(5.0, 0.0, 40, drift_scale=50.0, seed=1)
        assert scores.shape == (40,)
        assert np.all((scores >= 0.0) & (scores <= 100.0))

    def test_zero_effort_is_flat(self):
        scores = trajectory(0.0, 0.0, 8, seed=5, base=33.0)
        np.testing.assert_array_equal(scores, np.full(8, 33.0))

    def test_pure_creative_share_trends_up(self):
        scores = trajectory(2.0, 0.0, 12, drift_scale=0.5, seed=9)
        assert mann_kendall(scores).z > 0
        assert np.all(np.diff(scores) > 0)

    def test_mean_z_increases_with_creative_share(self):
        # shares 0, 1/2 and 1 with total effort and scales held fixed
        reps, length = 1500, 12
        means = []
        for a, b in ((0.0, 2.0), (1.0, 1.0), (2.0, 0.0)):
            eps = np.random.Generator(
                np.random.Philox(key=[7, 0])).standard_normal((reps, length))
            scores = _trajectory_matrix(
                np.full(reps, a), np.full(reps, b), length, 0.3, 2.0,
                np.full(reps, 60.0), eps)
            means.append(float(_mk_batch(scores)[2].mean()))
        assert means[0] < means[1] < means[2]
        assert means[2] - means[0] > 1.0

    def test_no_drift_is_trendless(self):
        reps, length = 10_000, 10
        eps = np.random.Generator(
            np.random.Philox(key=[11, 0])).standard_normal((reps, length))
        scores = _trajectory_matrix(
            np.zeros(reps), np.ones(reps), length, 0.3, 2.0,
            np.full(reps, 50.0), eps)
        z = _mk_batch(scores)[2]
        assert abs(float(z.mean())) < 0.05


class TestStreams:
    PAIRS = [(0, 0), (0, 1), (7, 3), (7, 0), (2**40 + 5, 123_456), (1, 2**63), (0, 1)]

    @staticmethod
    def draws(rng):
        # every draw kind the simulator uses, plus 32-bit draws that leave
        # half a word buffered in the bit generator
        return np.concatenate([
            rng.random(3),
            rng.standard_normal(5),
            rng.gumbel(0.0, 1.0, 2),
            rng.standard_exponential(2),
            rng.integers(0, 2**31, size=3, dtype=np.uint32).astype(float),
        ])

    def test_reused_generator_matches_fresh_philox(self):
        by_seed = {}
        for seed, stream in self.PAIRS:
            by_seed.setdefault(seed, []).append(stream)
        for seed, streams in by_seed.items():
            for stream, rng in zip(streams, _streams(seed, streams)):
                fresh = np.random.Generator(np.random.Philox(key=[seed, stream]))
                np.testing.assert_array_equal(self.draws(rng), self.draws(fresh),
                                              err_msg=f"seed {seed}, stream {stream}")

    def test_partly_used_stream_does_not_leak_into_the_next(self):
        gen = _streams(5, [1, 2])
        next(gen).integers(0, 10, size=1, dtype=np.uint32)
        fresh = np.random.Generator(np.random.Philox(key=[5, 2]))
        np.testing.assert_array_equal(
            next(gen).integers(0, 2**31, size=4, dtype=np.uint32),
            fresh.integers(0, 2**31, size=4, dtype=np.uint32))

    @pytest.mark.parametrize("seed, streams", [(-1, [0]), (0, [2, -1])])
    def test_negative_key_rejected(self, seed, streams):
        with pytest.raises(DomainError, match="non-negative"):
            list(_streams(seed, streams))


class TestRunContest:
    def test_payoff_identity_exact(self, small_game):
        scn, profile = small_game
        out = run_contest(profile, seed=1, replication=7)
        recomputed = out.prize + out.score - scn.cost.value(out.a + out.b)
        np.testing.assert_array_equal(out.payoff, recomputed)

    def test_ranks_are_a_permutation_paying_prizes(self, small_game):
        scn, profile = small_game
        out = run_contest(profile, seed=2)
        assert sorted(out.rank.tolist()) == [1, 2, 3, 4, 5]
        np.testing.assert_array_equal(out.prize,
                                      scn.prizes.padded(5)[out.rank - 1])
        # rank 1 is the best score
        assert out.score[out.rank == 1][0] == out.score.max()

    def test_deterministic_per_replication(self, small_game):
        scn, profile = small_game
        a = run_contest(profile, seed=3, replication=0)
        b = run_contest(profile, seed=3, replication=0)
        c = run_contest(profile, seed=3, replication=1)
        np.testing.assert_array_equal(a.score, b.score)
        assert not np.array_equal(a.score, c.score)

    def test_unconverged_profile_rejected(self, small_game, monkeypatch):
        scn, _ = small_game
        monkeypatch.setattr(equilibrium, "_MAX_ITER", 2)
        bad = solve_equilibrium(scn, tol=1e-13)
        with pytest.raises(UnconvergedProfileError, match="did not converge"):
            run_contest(bad, seed=0)

    def test_columns_export(self, small_game):
        # a one-cell panel carries each contest's outcome columns, row for
        # row the same as the contests run on their own
        scn, profile = small_game
        cell = PanelCell(prize_value=scn.prizes.total, prize_skew=1,
                         profile=profile)
        panel = synthetic_panel(scn, n_contests=3, players=5, cells=(cell,),
                                seed=8, traj_length=4)
        cols = panel.columns
        assert cols["contest_id"].tolist() == [0] * 5 + [1] * 5 + [2] * 5
        assert cols["player_id"].tolist() == list(range(5)) * 3
        assert cols["rank"].dtype == np.int64
        outs = [run_contest(profile, 8, r) for r in range(3)]
        for name, field in (("type", "theta"), ("mu", "mu"), ("score", "score"),
                            ("rank", "rank"), ("prize", "prize"),
                            ("payoff", "payoff")):
            np.testing.assert_array_equal(
                cols[name], np.concatenate([getattr(o, field) for o in outs]),
                err_msg=name)

    @pytest.mark.parametrize("noise, types", [
        ({"kind": "normal", "dispersion": 3.0}, {"kind": "uniform", "support": [0.5, 1.5]}),
        ({"kind": "gumbel", "dispersion": 2.0}, {"kind": "uniform", "support": [0.5, 1.5]}),
        ({"kind": "exponential"}, {"kind": "uniform", "support": [0.5, 1.5]}),
        ({"kind": "normal", "dispersion": 3.0},
         {"kind": "truncated-normal", "support": [0.5, 1.5], "loc": 1.0, "scale": 0.3}),
    ], ids=["normal", "gumbel", "exponential", "truncated-normal"])
    def test_batch_rows_equal_single_contests(self, noise, types):
        # bit for bit, a and b included: a contest's interior allocation
        # must not depend on the other contests of its batch
        scn = example_scenario("example3", players=6, prizes=[1.0, 0.5],
                               noise=noise, types=types)
        profile = solve_equilibrium(scn, grid_size=21)
        assert profile.converged
        reps = [9, 0, 4, 17, 2, 11, 5, 30]
        batch = _contest_batch(profile, 21, reps)
        grid = allocate_grid(scn, batch["mu"], batch["theta"])
        assert np.mean(grid.case == INTERIOR) > 0.5
        for i, r in enumerate(reps):
            out = run_contest(profile, 21, r)
            for name, values in batch.items():
                np.testing.assert_array_equal(values[i], getattr(out, name),
                                              err_msg=f"{name}, contest {r}")

    def test_rank_frequencies_match_analytic_distribution(self, small_game):
        # condition on a top type bin and compare the simulated rank
        # frequencies with the quadrature rank distribution averaged
        # over the same bin
        scn, profile = small_game
        n = 100_000
        batch = _contest_batch(profile, 13, range(n))
        # row r is replication r
        for r in (0, 1, 4321, n - 1):
            out = run_contest(profile, 13, r)
            assert out.replication == r
            assert out.seed == 13
            for name, values in batch.items():
                np.testing.assert_array_equal(values[r], getattr(out, name), err_msg=name)
        theta0 = batch["theta"][:, 0]
        rank0 = batch["rank"][:, 0]
        lo, hi = 2.4, 3.0
        inside = (theta0 >= lo) & (theta0 <= hi)
        freq = np.bincount(rank0[inside], minlength=6)[1:] / inside.sum()

        nodes, weights = gauss_legendre(32, lo, hi)
        dens = profile.scenario.types.pdf(nodes) * weights
        dens /= dens.sum()
        ref = np.zeros(5)
        for w, th in zip(dens, nodes):
            ref += w * rank_probabilities(float(profile.mu_at(th)), profile)
        se = np.sqrt(ref * (1.0 - ref) / inside.sum())
        assert np.all(np.abs(freq - ref) <= 3.0 * se + 1e-12), (freq, ref)


class TestFixedEffectsOLS:
    @staticmethod
    def toy_panel(rng, n_groups=30, per_group=40, noise=0.0):
        g = np.repeat(np.arange(n_groups), per_group)
        x1 = rng.normal(size=g.size)
        x2 = rng.normal(size=g.size)
        effects = rng.normal(scale=3.0, size=n_groups)
        y = 2.0 * x1 - 3.0 * x2 + effects[g] + noise * rng.normal(size=g.size)
        return {"g": g, "x1": x1, "x2": x2, "y": y}, effects

    def test_exact_recovery(self, rng):
        panel, effects = self.toy_panel(rng)
        res = fe_ols(panel, PanelSpec("y", ("x1", "x2"), group="g"))
        assert res["x1"] == pytest.approx(2.0, abs=1e-10)
        assert res["x2"] == pytest.approx(-3.0, abs=1e-10)
        assert res.r_squared == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(res.group_effects, effects, atol=1e-10)
        assert res.df_resid == panel["y"].size - 30 - 2

    def test_noisy_recovery_within_confidence(self, rng):
        panel, _ = self.toy_panel(rng, n_groups=50, per_group=80, noise=1.0)
        res = fe_ols(panel, PanelSpec("y", ("x1", "x2"), group="g"))
        assert abs(res["x1"] - 2.0) < 4.0 * res.se_of("x1")
        assert abs(res["x2"] + 3.0) < 4.0 * res.se_of("x2")
        assert res.se_of("x1") > 0

    def test_group_shift_invariance(self, rng):
        # adding any per-group constant to the outcome must not move the
        # slopes: that is the whole point of the within transform
        panel, _ = self.toy_panel(rng, noise=0.7)
        res1 = fe_ols(panel, PanelSpec("y", ("x1", "x2"), group="g"))
        shifted = dict(panel)
        shifted["y"] = panel["y"] + np.repeat(rng.normal(scale=10.0, size=30), 40)
        res2 = fe_ols(shifted, PanelSpec("y", ("x1", "x2"), group="g"))
        np.testing.assert_allclose(res1.coef, res2.coef, atol=1e-10)

    def test_collinear_columns_named(self, rng):
        panel, _ = self.toy_panel(rng)
        panel["dup"] = 2.0 * panel["x1"]
        with pytest.raises(SolverError, match="dup|x1"):
            fe_ols(panel, PanelSpec("y", ("x1", "x2", "dup"), group="g"))

    def test_group_constant_regressor_is_degenerate(self, rng):
        # a column fixed within every group is absorbed by the effects
        panel, _ = self.toy_panel(rng)
        panel["const_in_g"] = panel["g"].astype(float) * 5.0
        with pytest.raises(SolverError, match="const_in_g"):
            fe_ols(panel, PanelSpec("y", ("x1", "const_in_g"), group="g"))

    def test_missing_column_rejected(self, rng):
        panel, _ = self.toy_panel(rng)
        with pytest.raises(DomainError, match="missing"):
            fe_ols(panel, PanelSpec("y", ("x1", "nope"), group="g"))

    def test_needs_regressors(self, rng):
        panel, _ = self.toy_panel(rng)
        with pytest.raises(DomainError):
            fe_ols(panel, PanelSpec("y", (), group="g"))

    @staticmethod
    def reference_fit(panel, spec):
        """Dummy-free within OLS from lstsq and inv(X'X), column by column."""
        labels, inverse = np.unique(panel[spec.group], return_inverse=True)

        def demean(v):
            v = np.asarray(v, dtype=float)
            means = np.array([v[inverse == g].mean() for g in range(labels.size)])
            return v - means[inverse], means

        y, y_means = demean(panel[spec.outcome])
        pairs = [demean(panel[c]) for c in spec.regressors]
        x = np.column_stack([p[0] for p in pairs])
        x_means = np.column_stack([p[1] for p in pairs])
        beta = np.linalg.lstsq(x, y, rcond=None)[0]
        resid = y - x @ beta
        df = y.size - labels.size - x.shape[1]
        cov = (resid @ resid) / df * np.linalg.inv(x.T @ x)
        r2 = 1.0 - (resid @ resid) / (y @ y)
        return beta, np.sqrt(np.diag(cov)), r2, y_means - x_means @ beta

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
    def test_matches_lstsq_oracle(self, k):
        rng = np.random.default_rng(1000 + k)
        sizes = rng.integers(2, 30, size=25)
        g = rng.permutation(np.repeat(np.arange(sizes.size) * 7 + 3, sizes))
        x = rng.normal(size=(g.size, k)) * rng.uniform(0.1, 10.0, size=k)
        x[:, 0] = rng.random(g.size) < 0.3       # a dummy, like the type bins
        y = x @ rng.normal(size=k) + rng.normal(size=g.size) + g * 0.1
        panel = {"g": g, "y": y, **{f"x{j}": x[:, j] for j in range(k)}}
        spec = PanelSpec("y", tuple(f"x{j}" for j in range(k)), group="g")
        res = fe_ols(panel, spec)
        beta, se, r2, effects = self.reference_fit(panel, spec)
        np.testing.assert_allclose(res.coef, beta, rtol=1e-10, atol=0)
        np.testing.assert_allclose(res.se, se, rtol=1e-10, atol=0)
        assert res.r_squared == pytest.approx(r2, rel=1e-10)
        np.testing.assert_allclose(res.group_effects, effects, rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(res.group_labels, np.unique(g))
        assert res.df_resid == g.size - sizes.size - k

    def test_non_finite_column_rejected(self, rng):
        panel, _ = self.toy_panel(rng)
        panel["x2"] = panel["x2"].copy()
        panel["x2"][5] = np.nan
        with pytest.raises(DomainError, match="x2"):
            fe_ols(panel, PanelSpec("y", ("x1", "x2"), group="g"))

    def test_panel_regressions_equal_independent_fits(self, rng):
        n_contests, players = 60, 12
        cid = np.repeat(np.arange(n_contests), players)
        panel = {
            "contest_id": cid,
            "type": rng.uniform(0.5, 1.5, cid.size),
            "prize_value": np.array([2.0, 10.0, 40.0])[cid % 3],
            "prize_skew": (cid % 2).astype(np.int64),
            "mu": rng.normal(size=cid.size),
            "mk_Z": rng.normal(size=cid.size),
        }
        edges = np.array([0.7, 0.9, 1.1, 1.3])
        regs = panel_regressions(panel, edges)
        dummies = ("T2", "T3", "T4", "T5")
        data = add_interactions(add_type_bins(panel, edges), dummies,
                                {"PV": "prize_value", "PS": "prize_skew"})
        interactions = tuple(f"{d}x{a}" for a in ("PV", "PS") for d in dummies)
        for label, outcome in (("fitness", "mu"), ("mk", "mk_Z")):
            for suffix, regressors in (("type", dummies),
                                       ("interactions", dummies + interactions)):
                alone = fe_ols(data, PanelSpec(outcome, regressors))
                shared = regs[f"{label}_{suffix}"]
                assert shared.names == alone.names
                assert shared.to_dict() == alone.to_dict()
                np.testing.assert_array_equal(shared.group_effects, alone.group_effects)

    @staticmethod
    def householder_cases():
        rng = np.random.default_rng(24)
        tall = rng.normal(size=(400, 6)) * rng.uniform(0.1, 10.0, size=6)
        tall[:, 0] = rng.random(400) < 0.3      # a 0/1 dummy, like the type bins
        zero = tall.copy()
        zero[:, 2] = 0.0
        dup = np.column_stack([tall, tall[:, 3]])   # last, so R stays unique
        return {"tall": tall, "zero_column": zero, "duplicate_column": dup,
                "short": rng.normal(size=(4, 7))}

    @pytest.mark.parametrize("case", ["tall", "zero_column", "duplicate_column", "short"])
    def test_householder_r_matches_lapack(self, case):
        import scipy.linalg
        a = self.householder_cases()[case]
        m, n = a.shape
        ref = scipy.linalg.qr(a, mode="r")[0][:n]
        r = _householder_r(np.asfortranarray(a))
        assert r.shape == (n, n)
        np.testing.assert_array_equal(r, np.triu(r))
        np.testing.assert_array_equal(r[m:], 0.0)
        # R is unique up to the sign of each row: align on its largest entry
        lead = np.argmax(np.abs(ref), axis=1)
        rows = np.arange(ref.shape[0])
        signs = np.where(r[rows, lead] * ref[rows, lead] < 0.0, -1.0, 1.0)
        np.testing.assert_allclose(signs[:, None] * r[:ref.shape[0]], ref,
                                   rtol=0, atol=1e-13 * np.abs(ref).max())

    def test_fits_give_scipy_only_small_operands(self, rng, monkeypatch):
        # the tall factor is numpy's: BLAS sees at most (k+1)-row operands
        # and no matrix right-hand side, so it never starts worker threads
        import scipy.linalg
        calls = []

        def watch(module, name):
            real = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls.append((name, [np.shape(v) for v in (*args, *kwargs.values())
                                     if isinstance(v, np.ndarray)]))
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)

        watch(scipy.linalg, "qr")
        watch(scipy.linalg, "solve_triangular")
        watch(scipy.linalg.lapack, "dtrtri")
        n_contests, players = 60, 50
        cid = np.repeat(np.arange(n_contests), players)
        panel = {
            "contest_id": cid,
            "type": rng.uniform(0.5, 1.5, cid.size),
            "prize_value": np.array([2.0, 10.0, 40.0])[cid % 3],
            "prize_skew": (cid % 2).astype(np.int64),
            "mu": rng.normal(size=cid.size),
            "mk_Z": rng.normal(size=cid.size),
            "x": rng.normal(size=cid.size),
        }
        fe_ols(panel, PanelSpec("mu", ("x", "type")))
        fe_calls = len(calls)
        panel_regressions(panel, np.array([0.7, 0.9, 1.1, 1.3]))
        assert fe_calls > 0 and len(calls) > fe_calls
        for i, (name, shapes) in enumerate(calls):
            max_rows = 3 if i < fe_calls else 13    # k + 1 of the widest fit
            assert all(s[0] <= max_rows for s in shapes if s), (name, shapes)
            if name == "solve_triangular":
                assert len(shapes[1]) == 1, shapes

    def test_too_few_observations(self):
        panel = {"g": np.zeros(3), "x1": np.array([0.0, 1.0, 2.0]),
                 "x2": np.array([0.0, 0.0, 3.0]), "y": np.array([1.0, -2.0, 0.5])}
        with pytest.raises(SolverError, match="not enough observations"):
            fe_ols(panel, PanelSpec("y", ("x1", "x2"), group="g"))

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_fewer_rows_than_columns_is_rank_deficient(self, rows):
        # one group demeaned leaves rank rows - 1 < k = 3 regressors
        rng = np.random.default_rng(rows)
        panel = {"g": np.zeros(rows), "y": rng.normal(size=rows),
                 **{f"x{j}": rng.normal(size=rows) for j in range(3)}}
        with pytest.raises(SolverError, match="rank deficient"):
            fe_ols(panel, PanelSpec("y", ("x0", "x1", "x2"), group="g"))


class TestPanelConstruction:
    def test_type_bin_edges_uniform(self):
        scn = example_scenario(
            "example3", types={"kind": "uniform", "support": [0.5, 1.5]})
        np.testing.assert_allclose(type_bin_edges(scn, bins=5),
                                   [0.7, 0.9, 1.1, 1.3], atol=1e-12)

    def test_add_type_bins_and_dummies(self):
        panel = {"type": np.array([0.55, 0.75, 0.95, 1.15, 1.35, 1.45])}
        edges = np.array([0.7, 0.9, 1.1, 1.3])
        data = add_type_bins(panel, edges)
        assert data["type_bin"].tolist() == [1, 2, 3, 4, 5, 5]
        for b in range(2, 6):
            np.testing.assert_array_equal(
                data[f"T{b}"], (data["type_bin"] == b).astype(float))
        # dummy rows are mutually exclusive; bin 1 is the reference
        stacked = np.stack([data[f"T{b}"] for b in range(2, 6)])
        assert np.all(stacked.sum(axis=0) <= 1)
        assert stacked[:, 0].sum() == 0

    def test_add_interactions_names_and_values(self):
        panel = {"T2": np.array([0.0, 1.0]), "prize_value": np.array([3.0, 5.0])}
        data = add_interactions(panel, ("T2",), {"PV": "prize_value"})
        np.testing.assert_array_equal(data["T2xPV"], [0.0, 5.0])


class TestSyntheticPanel:
    def test_cells_layout(self, small_cells):
        scn, cells = small_cells
        assert [(c.prize_value, c.prize_skew) for c in cells] == [
            (1.0, 1), (1.0, 0), (4.0, 1), (4.0, 0)]
        skewed = cells[0].profile.scenario.prizes
        assert skewed.values == (0.5, 0.3, 0.2)
        diffuse = cells[1].profile.scenario.prizes
        assert len(diffuse) == 8
        assert diffuse.total == pytest.approx(1.0)

    def test_diffuse_prizes_leave_baseline_unmoved(self, small_cells):
        # equal prizes at every rank make the gain flat, so the best
        # response is the private optimum from the first sweep
        scn, cells = small_cells
        for cell in cells:
            if cell.prize_skew == 0:
                assert cell.profile.iterations == 1
                assert cell.profile.converged

    @pytest.mark.parametrize("name", ["drift_scale", "noise_scale",
                                      "score_base", "score_gain"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_scales_rejected(self, small_cells, name, value):
        scn, cells = small_cells
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            synthetic_panel(scn, n_contests=2, players=8, cells=cells,
                            **{name: value})

    def test_panel_shape_and_determinism(self, small_cells):
        scn, cells = small_cells
        kwargs = dict(n_contests=6, players=8, cells=cells, traj_length=6)
        p1 = synthetic_panel(scn, seed=4, **kwargs)
        p2 = synthetic_panel(scn, seed=4, **kwargs)
        p3 = synthetic_panel(scn, seed=5, **kwargs)
        assert p1.n_rows == 48
        for col, arr in p1.columns.items():
            np.testing.assert_array_equal(arr, p2.columns[col], err_msg=col)
        assert not np.array_equal(p1.columns["score_final"],
                                  p3.columns["score_final"])

    def test_contest_columns_do_not_depend_on_panel_size(self, small_cells):
        scn, cells = small_cells
        kwargs = dict(players=8, cells=cells, seed=3, traj_length=6)
        short = synthetic_panel(scn, n_contests=6, **kwargs).columns
        long = synthetic_panel(scn, n_contests=12, **kwargs).columns
        for name in CONTEST_COLUMNS:
            np.testing.assert_array_equal(short[name], long[name][:48], err_msg=name)

    def test_contests_cycle_through_cells(self, small_cells):
        scn, cells = small_cells
        panel = synthetic_panel(scn, n_contests=6, players=8, cells=cells,
                                seed=0, traj_length=6)
        per_contest = panel.columns["prize_value"].reshape(6, 8)[:, 0]
        np.testing.assert_array_equal(per_contest, [1.0, 1.0, 4.0, 4.0, 1.0, 1.0])
        skew = panel.columns["prize_skew"].reshape(6, 8)[:, 0]
        np.testing.assert_array_equal(skew, [1, 0, 1, 0, 1, 0])

    def test_cell_refuses_unconverged_profile(self, small_cells, monkeypatch):
        scn, _ = small_cells
        monkeypatch.setattr(equilibrium, "_MAX_ITER", 2)
        bad = solve_equilibrium(scn.with_players(8), grid_size=21)
        with pytest.raises(UnconvergedProfileError, match="did not converge"):
            PanelCell(prize_value=scn.prizes.total, prize_skew=1, profile=bad)

    def test_players_must_match_cells(self, small_cells):
        scn, cells = small_cells
        with pytest.raises(DomainError, match="8"):
            synthetic_panel(scn, n_contests=2, players=4, cells=cells)

    def test_csv_round_trip(self, small_cells, tmp_path):
        from contestlab._tables import read_csv_columns

        scn, cells = small_cells
        panel = synthetic_panel(scn, n_contests=4, players=8, cells=cells,
                                seed=2, traj_length=6)
        path = tmp_path / "panel.csv"
        panel.to_csv(path)
        back = read_csv_columns(path)
        assert back["contest_id"].dtype == np.int64
        np.testing.assert_array_equal(back["mk_S"], panel.columns["mk_S"])
        np.testing.assert_allclose(back["mk_Z"], panel.columns["mk_Z"],
                                   rtol=0, atol=0)

    def test_regression_pipeline_keys(self, small_cells):
        scn, cells = small_cells
        panel = synthetic_panel(scn, n_contests=40, players=8, cells=cells,
                                seed=1, traj_length=6)
        regs = panel_regressions(panel.columns, type_bin_edges(scn, bins=3))
        assert set(regs) == {"fitness_type", "fitness_interactions",
                             "mk_type", "mk_interactions"}
        assert regs["fitness_type"].names == ("T2", "T3")
        assert regs["mk_interactions"].names == (
            "T2", "T3", "T2xPV", "T3xPV", "T2xPS", "T3xPS")
        assert regs["fitness_type"].n_groups == 40
