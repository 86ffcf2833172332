"""Oracles and generators shared between unit and acceptance tests.

The cost-side checks here are deliberately independent of the library's
own solver path: the lattice oracle only uses the primitive forms, so an
allocation bug cannot hide behind itself.
"""

from __future__ import annotations

import numpy as np

from contestlab import (
    CostForm,
    MechanizationForm,
    NoiseFamily,
    PrizeVector,
    ProductionForm,
    Scenario,
    TypeDistribution,
    allocate_grid,
    hacking_verdicts,
)
from contestlab.cli import MANIFEST_NAME, main as cli_main

LATTICE_STEP = 1e-3
PROP_TOL = 1e-8
REGION_TOL = 1e-5


def nan_at_fourth_point(gain):
    """A ``GainTable.gain`` replacement with the fourth target's gain NaN."""
    def patched(self, mu):
        out = np.array(gain(self, mu), dtype=float)
        out[3] = np.nan
        return out
    return patched


def sample_types(types: TypeDistribution, rng: np.random.Generator, size) -> np.ndarray:
    """Inverse-transform draws of a type distribution, in ``rng``'s stream order."""
    return types.ppf(rng.random(size))


def sample_noise(noise: NoiseFamily, rng: np.random.Generator, mu) -> np.ndarray:
    """One performance draw per entry of ``mu``: loc + scale * Z."""
    mu = np.asarray(mu, dtype=float)
    loc, scale = noise.loc_scale(mu)
    return loc + scale * noise._standard_draws(rng, mu.shape)


def random_scenario(rng: np.random.Generator) -> Scenario:
    """A structurally valid scenario with randomly mixed primitive forms."""
    nu_kind = rng.choice(["linear", "power", "saturating"])
    if nu_kind == "power":
        nu = ProductionForm("power", alpha=float(rng.uniform(0.35, 0.9)))
    else:
        nu = ProductionForm(str(nu_kind))
    if rng.random() < 0.5:
        xi = MechanizationForm("linear")
    else:
        xi = MechanizationForm("power", alpha=float(rng.uniform(0.35, 0.7)))
    if rng.random() < 0.5:
        cost = CostForm("linear", kappa=float(rng.uniform(0.5, 2.0)))
    else:
        cost = CostForm("quadratic", kappa=float(rng.uniform(0.25, 1.0)))
    lo = float(rng.uniform(0.1, 1.0))
    hi = lo + float(rng.uniform(0.5, 2.0))
    types = TypeDistribution("uniform", lo, hi)
    return Scenario(nu, xi, cost, types, NoiseFamily("normal", 1.0),
                    players=2, prizes=PrizeVector((1.0, 0.0)))


def random_cost_triple(rng: np.random.Generator):
    """(scenario, mu, theta) with theta interior and mu reachable."""
    scn = random_scenario(rng)
    lo, hi = scn.support
    theta = float(rng.uniform(lo + 0.05 * (hi - lo), hi))
    mu = float(rng.uniform(0.05, 3.0))
    return scn, mu, theta


def lattice_cost(scn: Scenario, mu: float, theta: float,
                 step: float = LATTICE_STEP) -> float:
    """Brute-force minimum cost over a creative-effort lattice.

    Any candidate beyond min(a_bar, b_bar) is dominated: a_bar already
    reaches mu alone, and a total above b_bar costs more than pure
    mechanization, so the truncation is lossless.
    """
    a_bar = float(scn.nu.invert(mu, theta))
    b_bar = float(scn.xi.invert(mu))
    cap = min(a_bar, b_bar)
    grid = np.arange(0.0, cap + step, step)
    grid = np.minimum(grid, cap)
    if np.isfinite(a_bar) and a_bar <= cap:
        grid = np.append(grid, a_bar)
    residual = np.maximum(mu - np.asarray(scn.nu.value(grid, theta)), 0.0)
    b = scn.xi.invert(residual)
    return float(np.min(scn.cost.value(grid + b)))


def cost_property_violations(scn: Scenario, mu: float, theta: float,
                             rng: np.random.Generator,
                             tol: float = PROP_TOL) -> list[str]:
    """All cost-function property violations at one random triple."""
    lo, hi = scn.support
    out: list[str] = []

    def C(m: float, t: float) -> float:
        return float(allocate_grid(scn, [m], [t]).cost[0])

    # C(0, theta) = 0
    c0 = C(0.0, theta)
    if abs(c0) > tol:
        out.append(f"C(0, {theta:.4f}) = {c0!r}, expected 0")

    # convexity in mu at the midpoint of a random pair
    mu2 = mu + float(rng.uniform(0.1, 1.0))
    mid = 0.5 * (mu + mu2)
    gap = C(mid, theta) - 0.5 * (C(mu, theta) + C(mu2, theta))
    if gap > tol:
        out.append(f"convexity violated by {gap:.3e} at mu ({mu:.4f}, {mu2:.4f})")

    # higher types pay weakly less for the same increment
    theta_lo = float(rng.uniform(lo, theta))
    if theta - theta_lo > 1e-9:
        diff_hi = C(mu2, theta) - C(mu, theta)
        diff_lo = C(mu2, theta_lo) - C(mu, theta_lo)
        if diff_hi > diff_lo + tol:
            out.append(
                f"incremental cost rises with type: {diff_hi:.6f} > {diff_lo:.6f} "
                f"at theta ({theta_lo:.4f}, {theta:.4f})")
        # level monotonicity in theta
        if C(mu, theta) > C(mu, theta_lo) + tol:
            out.append(f"C increases with type at mu={mu:.4f}")

    # lattice agreement: solver never beaten, never off by a step
    c_solver = C(mu, theta)
    c_brute = lattice_cost(scn, mu, theta)
    if c_solver > c_brute + tol:
        out.append(f"solver cost {c_solver:.8f} above lattice {c_brute:.8f}")
    if c_brute > c_solver + LATTICE_STEP:
        out.append(f"lattice {c_brute:.8f} more than one step above "
                   f"solver {c_solver:.8f}")
    return out


def effort_region_violations(profile, tol: float = REGION_TOL) -> list[str]:
    """Contest-vs-baseline effort inequalities along the type bands.

    Strictly below theta1*: no creative effort and strictly more
    mechanistic effort than the baseline.  Between theta1* and the
    baseline cutoff: still more mechanistic effort, now with positive
    creative effort against a baseline of none.  Between the two
    baseline cutoffs: both efforts weakly higher.  Grid cells adjacent
    to any cutoff are skipped; the labels there are legitimately
    ambiguous at finite resolution.
    """
    verdicts = hacking_verdicts(profile)
    thetas = verdicts.theta
    cell = float(thetas[1] - thetas[0]) if thetas.size > 1 else 0.0
    cutoffs = [c for c in (verdicts.theta_star, verdicts.thresholds.mech_upper,
                           verdicts.thresholds.create_lower) if np.isfinite(c)]
    out: list[str] = []
    for k, theta in enumerate(thetas):
        if any(abs(theta - c) <= cell for c in cutoffs):
            continue
        a_s, b_s = verdicts.a_star[k], verdicts.b_star[k]
        a_d, b_d = verdicts.a_base[k], verdicts.b_base[k]
        region = verdicts.region[k]
        if theta < verdicts.theta_star:
            if region != "pure-mechanizer":
                out.append(f"theta={theta:.4f}: region {region}, expected pure-mechanizer")
            if a_s > tol:
                out.append(f"theta={theta:.4f}: a*={a_s:.2e} below theta1*")
            if b_s <= b_d - tol:
                out.append(f"theta={theta:.4f}: b*={b_s:.6f} not above b_dag={b_d:.6f}")
            if b_d <= 0.0:
                out.append(f"theta={theta:.4f}: baseline b_dag={b_d:.2e} not positive")
        elif theta < verdicts.thresholds.mech_upper:
            if region != "contest-creator":
                out.append(f"theta={theta:.4f}: region {region}, expected contest-creator")
            if b_s <= b_d - tol:
                out.append(f"theta={theta:.4f}: b*={b_s:.6f} not above b_dag={b_d:.6f}")
            if a_s <= 0.0:
                out.append(f"theta={theta:.4f}: a*={a_s:.2e} not positive")
            if a_d > tol:
                out.append(f"theta={theta:.4f}: baseline a_dag={a_d:.2e} not zero")
        elif theta <= verdicts.thresholds.create_lower:
            if region != "dual-channel":
                out.append(f"theta={theta:.4f}: region {region}, expected dual-channel")
            if a_s < a_d - tol:
                out.append(f"theta={theta:.4f}: a*={a_s:.6f} below a_dag={a_d:.6f}")
            if b_s < b_d - tol:
                out.append(f"theta={theta:.4f}: b*={b_s:.6f} below b_dag={b_d:.6f}")
        else:
            if region != "pure-creator":
                out.append(f"theta={theta:.4f}: region {region}, expected pure-creator")
    if verdicts.theta_star > verdicts.thresholds.mech_upper + tol:
        out.append(
            f"theta1*={verdicts.theta_star:.6f} exceeds baseline cutoff "
            f"{verdicts.thresholds.mech_upper:.6f}")
    return out


def artifact_bytes(directory) -> dict[str, bytes]:
    """All output files except the run manifest, keyed by name."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.name != MANIFEST_NAME}


def assert_replay_identical(out_dir, scratch) -> None:
    """Replay ``out_dir``'s manifest into a sibling and compare bytes."""
    replay_dir = scratch / (out_dir.name + "_replay")
    code = cli_main(["replay", str(out_dir / MANIFEST_NAME),
                     "--out", str(replay_dir)])
    assert code == 0
    original = artifact_bytes(out_dir)
    replayed = artifact_bytes(replay_dir)
    assert original.keys() == replayed.keys()
    for name in original:
        assert original[name] == replayed[name], f"{name} differs under replay"
