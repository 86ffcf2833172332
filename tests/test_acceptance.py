"""End-to-end acceptance checks, one test per release criterion.

The conftest terminal hook prints a PASS/FAIL line per criterion with
its wall-clock time; every test also asserts its own runtime budget so
a pathological slowdown fails loudly instead of silently dragging CI.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    assert_replay_identical,
    cost_property_violations,
    effort_region_violations,
    random_cost_triple,
    sample_noise,
    sample_types,
)

from contestlab import (
    PrizeVector,
    baseline_grid,
    example_scenario,
    golden_suite,
    hacking_verdicts,
    mann_kendall,
    panel_cells,
    panel_regressions,
    rank_probabilities,
    skewness_sweep,
    synthetic_panel,
    type_bin_edges,
)
from contestlab.cli import main as cli_main


class Stopwatch:
    def __init__(self, budget_seconds: float):
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def check(self) -> None:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, (
            f"ran {elapsed:.1f}s, budget {self.budget:.0f}s")


def test_criterion_1():
    """Golden examples match their closed forms (abs 1e-4, ratios 1%)."""
    clock = Stopwatch(60)
    checks = golden_suite()
    failed = [f"{c.example}/{c.name}: {c.detail}" for c in checks if not c.passed]
    assert not failed, "\n".join(failed)
    assert len(checks) >= 16
    clock.check()


def test_criterion_2():
    """Cost minimiser properties hold on 200 random form mixtures."""
    clock = Stopwatch(120)
    rng = np.random.default_rng(2024)
    failures = []
    for i in range(200):
        scn, mu, theta = random_cost_triple(rng)
        for message in cost_property_violations(scn, mu, theta, rng):
            failures.append(f"triple {i} ({scn.scenario_id}): {message}")
    assert not failures, "\n".join(failures[:20])
    clock.check()


# (players, prize vectors): winner-take-all and a graded split
EQUILIBRIUM_CASES = [
    (name, players, prizes)
    for name in ("example1", "example2")
    for players, vectors in (
        (2, ((1.0, 0.0), (2.0, 1.0))),
        (5, ((1.0, 0.0, 0.0, 0.0, 0.0), (2.0, 1.0, 0.0, 0.0, 0.0))),
    )
    for prizes in vectors
]


def _mc_rank_frequencies(profile, theta0: float, n_draws: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Empirical rank distribution for a type-theta0 entrant."""
    scn = profile.scenario
    opponents = scn.players - 1
    theta_opp = sample_types(scn.types, rng, n_draws * opponents).reshape(n_draws, opponents)
    score_opp = sample_noise(scn.noise, rng, profile.mu_at(theta_opp))
    mu0 = float(profile.mu_at(theta0))
    score_own = sample_noise(scn.noise, rng, np.full(n_draws, mu0))
    ranks = 1 + (score_opp > score_own[:, None]).sum(axis=1)
    return np.bincount(ranks, minlength=scn.players + 1)[1:] / n_draws


def test_criterion_3(equilibria):
    """Equilibria are monotone, dominate the baseline, and price ranks exactly."""
    clock = Stopwatch(600)
    rng = np.random.default_rng(31)
    n_draws = 1_000_000
    for name, players, prizes in EQUILIBRIUM_CASES:
        label = f"{name} I={players} prizes={prizes}"
        profile = equilibria(name, players=players, prizes=prizes)
        assert profile.converged, label
        assert profile.residual < 1e-4, label

        mu = profile.mu_star
        assert np.all(np.diff(mu) >= -1e-4), f"{label}: mu* not monotone"
        base = baseline_grid(profile.scenario, profile.theta_grid)
        assert np.all(mu >= base.mu - 1e-4), f"{label}: mu* below baseline"

        lo, hi = profile.scenario.support
        theta0 = lo + 0.6 * (hi - lo)
        probs = rank_probabilities(float(profile.mu_at(theta0)), profile)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6), label
        assert np.all(probs >= -1e-12), label

        freq = _mc_rank_frequencies(profile, theta0, n_draws, rng)
        se = np.sqrt(np.clip(probs * (1.0 - probs), 0.0, None) / n_draws)
        gap = np.abs(freq - probs)
        assert np.all(gap <= 3.0 * se + 2.0 / n_draws), (
            f"{label}: rank frequencies off by {gap.max():.2e} "
            f"(3 SE = {(3 * se).max():.2e})")

    # with nothing to win, the contest should change nothing
    for name, players in itertools.product(("example1", "example2"), (2, 5)):
        profile = equilibria(name, players=players, prizes=(0.0,) * players)
        base = baseline_grid(profile.scenario, profile.theta_grid)
        gap = np.max(np.abs(profile.mu_star - base.mu))
        assert gap <= 1e-4, f"{name} I={players}: zero-prize gap {gap:.2e}"
    clock.check()


def test_criterion_4(equilibria):
    """Observed efforts partition the type axis into the classified bands."""
    clock = Stopwatch(300)
    cases = [("example1", (1.0, 0.0)), ("example3", (2.0, 0.0))]
    for name, prizes in cases:
        profile = equilibria(name, prizes=prizes)
        violations = effort_region_violations(profile, tol=1e-5)
        assert not violations, f"{name}: " + "; ".join(violations[:10])
        verdicts = hacking_verdicts(profile)
        assert verdicts.theta_star <= verdicts.thresholds.mech_upper + 1e-5
    clock.check()


def test_criterion_5():
    """Steeper prize gradients raise fitness pointwise and never add hacking."""
    clock = Stopwatch(900)
    sweep = skewness_sweep(
        example_scenario("example3"),
        [PrizeVector((1.0, 0.0)), PrizeVector((2.0, 0.0)), PrizeVector((4.0, 0.0))],
    )
    assert all(p.converged for p in sweep.profiles)
    dominance = sweep.dominance_violations()
    assert not dominance, dominance[:10]
    measures = sweep.measure_violations()
    assert not measures, measures[:10]
    clock.check()


def _strictly_increasing_from_zero(result, names) -> bool:
    coefs = [result[n] for n in names]
    return all(later > earlier
               for earlier, later in zip([0.0] + coefs[:-1], coefs))


def test_criterion_6():
    """Synthetic panels reproduce the qualitative regression signs."""
    clock = Stopwatch(1200)
    scn = example_scenario(
        "example3",
        types={"kind": "uniform", "support": [0.5, 1.5]},
        noise={"kind": "normal", "dispersion": 3.0},
    )
    cells = panel_cells(scn, players=200, prize_values=(2.0, 10.0, 40.0),
                        skew_weights=(0.5, 0.3, 0.2))
    edges = type_bin_edges(scn, bins=5)
    dummies = tuple(f"T{b}" for b in range(2, 6))
    interactions = tuple(f"{d}x{alias}" for alias in ("PV", "PS") for d in dummies)

    agree = {"fitness_gradient": 0, "trend_gradient": 0, "interaction_signs": 0}
    seeds = range(5)
    for seed in seeds:
        panel = synthetic_panel(
            scn, n_contests=500, players=200, seed=seed, cells=cells,
            traj_length=10, drift_scale=0.3, noise_scale=2.0,
            score_base=60.0, score_gain=1.0,
        )
        regs = panel_regressions(panel.columns, edges)
        if _strictly_increasing_from_zero(regs["fitness_type"], dummies):
            agree["fitness_gradient"] += 1
        if _strictly_increasing_from_zero(regs["mk_type"], dummies):
            agree["trend_gradient"] += 1
        if all(regs[table][n] > 0.0
               for table in ("fitness_interactions", "mk_interactions")
               for n in interactions):
            agree["interaction_signs"] += 1

    for claim, count in agree.items():
        assert count >= 4, f"{claim}: {count}/{len(seeds)} seeds agree"
    clock.check()


def _mk_oracle(series):
    """Pairwise enumeration of the trend statistic and its tie-corrected variance."""
    x = np.asarray(series, dtype=float)
    n = x.size
    s = sum(np.sign(x[j] - x[i]) for i in range(n) for j in range(i + 1, n))
    var = n * (n - 1) * (2 * n + 5) / 18.0
    _, counts = np.unique(x, return_counts=True)
    var -= sum(t * (t - 1) * (2 * t + 5) for t in counts) / 18.0
    return int(s), var


def test_criterion_7():
    """Trend statistic matches hand values and enumeration, ties included."""
    clock = Stopwatch(60)
    result = mann_kendall([1.0, 2.0, 3.0, 4.0])
    assert result.s == 6
    assert result.var_s == pytest.approx(156.0 / 18.0)

    flat = mann_kendall(np.full(7, 3.25))
    assert flat.s == 0 and flat.var_s == 0.0 and flat.z == 0.0

    fixtures = [
        [1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0],
        [1.0, 2.0, 2.0, 4.0, 3.0],
        [2.0, 2.0, 3.0, 3.0, 3.0, 1.0],
    ]
    for series in fixtures:
        got = mann_kendall(series)
        s, var = _mk_oracle(series)
        assert got.s == s, series
        assert got.var_s == pytest.approx(var, rel=1e-12), series
        flipped = mann_kendall([-v for v in series])
        assert flipped.s == -s
        assert flipped.z == pytest.approx(-got.z, rel=1e-12)
    clock.check()


TREND_CSV = str(Path(__file__).resolve().parents[1] / "fixtures" / "trend.csv")

REPLAY_COMMANDS = {
    "validate": ["validate", "--scenario", "example1"],
    "cost": ["cost", "--scenario", "example3", "--theta", "1.0",
             "--mu-max", "2.0", "--points", "41"],
    "baseline": ["baseline", "--scenario", "example4", "--grid", "41"],
    "equilibrium": ["equilibrium", "--scenario", "example1", "--grid", "41"],
    "hacking": ["hacking", "--scenario", "example1", "--grid", "41"],
    "sweep": ["sweep", "--scenario", "example3", "--prizes", "1,0;2,0",
              "--grid", "41"],
    "simulate": ["simulate", "--scenario", "example1", "--seed", "7",
                 "--contests", "4", "--traj-length", "5", "--grid", "41"],
    "mk": ["mk", "--input", TREND_CSV, "--column", "score"],
    "examples": ["examples"],
}


def test_criterion_8(tmp_path):
    """Every artifact command replays byte-identically from its manifest."""
    clock = Stopwatch(600)
    for command, argv in REPLAY_COMMANDS.items():
        out = tmp_path / command
        assert cli_main(argv + ["--out", str(out)]) == 0, command
        assert_replay_identical(out, tmp_path)

    # regress consumes the simulate panel, closing the pipeline loop
    panel_csv = tmp_path / "simulate" / "panel.csv"
    out = tmp_path / "regress"
    argv = ["regress", "--input", str(panel_csv), "--outcome", "mu",
            "--dummies", "type", "--group", "contest_id"]
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert_replay_identical(out, tmp_path)
    result = json.loads((out / "regress.json").read_text())
    assert math.isfinite(result["coefficients"]["type"])
    clock.check()
