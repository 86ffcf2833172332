"""Tests for the scenario primitives: forms, distributions, validation."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from helpers import sample_noise, sample_types
from scipy import stats

from contestlab import (
    EXAMPLE_CONFIGS,
    CostForm,
    DomainError,
    MechanizationForm,
    NoiseFamily,
    PrizeVector,
    ProductionForm,
    Scenario,
    TypeDistribution,
    example_scenario,
    load_scenario,
    scenario_from_dict,
    validate_assumptions,
)

ALL_NU = (
    ProductionForm("linear"),
    ProductionForm("power", alpha=0.5),
    ProductionForm("power", alpha=0.8),
    ProductionForm("saturating"),
)
ALL_XI = (MechanizationForm("linear"), MechanizationForm("power", alpha=0.5))
ALL_NOISE = (
    NoiseFamily("normal", 1.3),
    NoiseFamily("gumbel", 0.7),
    NoiseFamily("exponential"),
)


class TestProductionForm:
    def test_values(self):
        assert ProductionForm("linear").value(2.0, 3.0) == pytest.approx(6.0)
        assert ProductionForm("power", alpha=0.5).value(4.0, 3.0) == pytest.approx(6.0)
        assert ProductionForm("saturating").value(1.0, 2.0) == pytest.approx(
            2.0 * (1.0 - math.exp(-1.0)))

    @pytest.mark.parametrize("nu", ALL_NU, ids=lambda f: f"{f.kind}-{f.alpha}")
    def test_supermodular_cross_partial(self, nu, rng):
        # finite-difference cross partial must be positive, h = 1e-4
        h = 1e-4
        a = rng.uniform(0.05, 4.0, size=200)
        th = rng.uniform(0.1, 3.0, size=200)
        cross = (nu.value(a + h, th + h) - nu.value(a + h, th)
                 - nu.value(a, th + h) + nu.value(a, th)) / h**2
        assert np.all(cross > 0)

    @pytest.mark.parametrize("nu", ALL_NU, ids=lambda f: f"{f.kind}-{f.alpha}")
    def test_margin_strictly_increasing_in_type(self, nu):
        # the supermodularity that validate_assumptions no longer samples:
        # it holds on the whole accepted type range, theta = 0 included
        a = np.linspace(0.05, 5.0, 25)
        th = np.linspace(0.0, 3.0, 61)
        margins = nu.deriv_a(a[None, :], th[:, None])
        assert np.all(np.diff(margins, axis=0) > 0)

    @pytest.mark.parametrize("nu", ALL_NU, ids=lambda f: f"{f.kind}-{f.alpha}")
    def test_margin_scales_with_type(self, nu):
        # nu_a(a, theta) = theta * nu_a(a, 1), the identity the baseline
        # cutoffs rest on; a zero type has no creative margin at all
        a = np.linspace(0.0, 5.0, 26)
        th = np.linspace(0.0, 3.0, 31)[1:]
        np.testing.assert_array_equal(nu.deriv_a(a[None, :], th[:, None]),
                                      th[:, None] * nu.deriv_a(a, 1.0)[None, :])
        np.testing.assert_array_equal(nu.deriv_a(a, 0.0), 0.0)

    @pytest.mark.parametrize("nu", ALL_NU, ids=lambda f: f"{f.kind}-{f.alpha}")
    def test_deriv_matches_finite_difference(self, nu, rng):
        h = 1e-6
        a = rng.uniform(0.1, 4.0, size=100)
        th = rng.uniform(0.2, 3.0, size=100)
        fd = (nu.value(a + h, th) - nu.value(a - h, th)) / (2.0 * h)
        np.testing.assert_allclose(nu.deriv_a(a, th), fd, rtol=1e-6)

    @pytest.mark.parametrize("nu", ALL_NU, ids=lambda f: f"{f.kind}-{f.alpha}")
    def test_invert_roundtrip(self, nu, rng):
        a = rng.uniform(0.0, 3.0, size=50)
        th = rng.uniform(0.2, 3.0, size=50)
        target = nu.value(a, th)
        np.testing.assert_allclose(nu.invert(target, th), a, atol=1e-8)

    def test_saturating_unreachable_target_is_inf(self):
        nu = ProductionForm("saturating")
        assert np.isinf(nu.invert(2.5, 2.0))
        assert nu.value(50.0, 2.0) == pytest.approx(2.0)   # the least upper bound

    def test_zero_type_cannot_create(self):
        for nu in ALL_NU:
            assert nu.value(5.0, 0.0) == pytest.approx(0.0)
            assert np.isinf(nu.invert(1.0, 0.0))

    def test_bad_parameters_raise(self):
        with pytest.raises(DomainError):
            ProductionForm("cubic")
        with pytest.raises(DomainError):
            ProductionForm("power")
        with pytest.raises(DomainError):
            ProductionForm("linear", alpha=0.5)
        with pytest.raises(DomainError):
            ProductionForm("linear").value(-1.0, 1.0)


class TestMechanizationForm:
    @pytest.mark.parametrize("xi", ALL_XI, ids=lambda f: f.kind)
    def test_invert_roundtrip(self, xi, rng):
        b = rng.uniform(0.0, 5.0, size=50)
        np.testing.assert_allclose(xi.invert(xi.value(b)), b, atol=1e-9)

    @pytest.mark.parametrize("xi", ALL_XI, ids=lambda f: f.kind)
    def test_deriv_matches_finite_difference(self, xi, rng):
        h = 1e-6
        b = rng.uniform(0.1, 5.0, size=100)
        fd = (xi.value(b + h) - xi.value(b - h)) / (2.0 * h)
        np.testing.assert_allclose(xi.deriv(b), fd, rtol=1e-6)

    def test_power_marginal_product_diverges_at_zero(self):
        assert np.isinf(MechanizationForm("power", alpha=0.5).deriv(0.0))

    def test_power_alpha_one_rejected(self):
        # alpha = 1 would never satisfy the vanishing-margin limit
        with pytest.raises(DomainError):
            MechanizationForm("power", alpha=1.0)


class TestCostForm:
    def test_values_and_derivs(self):
        lin = CostForm("linear", kappa=2.0)
        quad = CostForm("quadratic", kappa=0.5)
        assert lin.value(3.0) == pytest.approx(6.0)
        assert quad.value(3.0) == pytest.approx(4.5)
        assert lin.deriv(3.0) == pytest.approx(2.0)
        assert quad.deriv(3.0) == pytest.approx(3.0)
        assert quad.value(0.0) == 0.0

    def test_bad_kappa(self):
        with pytest.raises(DomainError):
            CostForm("linear", kappa=0.0)


class TestTypeDistribution:
    @pytest.mark.parametrize("dist", [
        TypeDistribution("uniform", 0.5, 2.5),
        TypeDistribution("truncated-normal", 0.0, 3.0, loc=1.0, scale=0.8),
    ], ids=lambda d: d.kind)
    def test_cdf_ppf_inverse(self, dist, rng):
        q = rng.uniform(0.01, 0.99, size=200)
        np.testing.assert_allclose(dist.cdf(dist.ppf(q)), q, atol=1e-9)

    @pytest.mark.parametrize("dist", [
        TypeDistribution("uniform", 0.5, 2.5),
        TypeDistribution("truncated-normal", 0.0, 3.0, loc=1.0, scale=0.8),
    ], ids=lambda d: d.kind)
    def test_samples_inside_support_and_match_cdf(self, dist, rng):
        draws = sample_types(dist, rng, 40_000)
        assert np.all((draws >= dist.lo) & (draws <= dist.hi))
        # one-sample KS-style check at a handful of points, 4 sigma slack
        for q in (0.2, 0.5, 0.8):
            x = float(dist.ppf(q))
            freq = np.mean(draws <= x)
            se = math.sqrt(q * (1 - q) / draws.size)
            assert abs(freq - q) < 4.0 * se

    def test_degenerate_point_mass(self):
        dist = TypeDistribution("uniform", 2.0, 2.0)
        assert dist.degenerate
        assert dist.ppf(0.3) == 2.0
        assert dist.cdf(1.9) == 0.0 and dist.cdf(2.0) == 1.0
        with pytest.raises(DomainError):
            dist.pdf(2.0)

    def test_grid(self):
        np.testing.assert_array_equal(TypeDistribution("uniform", 0.0, 3.0).grid(4),
                                      [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(TypeDistribution("uniform", 2.0, 2.0).grid(5), [2.0])

    def test_pdf_integrates_to_one(self):
        dist = TypeDistribution("truncated-normal", 0.0, 3.0, loc=1.0, scale=0.8)
        grid = np.linspace(0.0, 3.0, 20_001)
        assert np.trapezoid(dist.pdf(grid), grid) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("lo, hi, loc, scale", [
        (0.0, 3.0, 1.0, 0.8),
        (0.5, 1.5, 1.0, 0.3),
        (4.0, 6.0, 0.0, 1.0),
        (3.0, 6.0, 11.0, 1.0),
    ], ids=["wide", "narrow", "upper-tail", "lower-tail"])
    def test_truncated_normal_matches_scipy(self, lo, hi, loc, scale):
        dist = TypeDistribution("truncated-normal", lo, hi, loc=loc, scale=scale)
        ref = stats.truncnorm((lo - loc) / scale, (hi - loc) / scale,
                              loc=loc, scale=scale)
        pad = 0.1 * (hi - lo)
        theta = np.concatenate([[lo - pad], np.linspace(lo, hi, 101), [hi + pad]])
        q = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(dist.pdf(theta), ref.pdf(theta), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(dist.cdf(theta), ref.cdf(theta), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(dist.ppf(q), ref.ppf(q), rtol=1e-12, atol=0.0)

    def test_invalid_configs(self):
        with pytest.raises(DomainError):
            TypeDistribution("truncated-normal", 40.0, 41.0, loc=0.0, scale=1.0)
        with pytest.raises(DomainError):
            TypeDistribution("uniform", 2.0, 1.0)
        with pytest.raises(DomainError):
            TypeDistribution("uniform", 0.0, math.inf)
        with pytest.raises(DomainError):
            TypeDistribution("truncated-normal", 0.0, 1.0, loc=0.5, scale=0.0)
        with pytest.raises(DomainError, match="non-negative"):
            TypeDistribution("uniform", -0.5, 1.0)
        for loc, scale in ((math.nan, 1.0), (0.5, math.inf), (0.5, math.nan)):
            with pytest.raises(DomainError, match="finite"):
                TypeDistribution("truncated-normal", 0.0, 1.0, loc=loc, scale=scale)


class TestNoiseFamily:
    @pytest.mark.parametrize("noise", ALL_NOISE, ids=lambda f: f.kind)
    def test_mean_is_mu(self, noise, rng):
        mu = np.full(400_000, 1.7)
        draws = sample_noise(noise, rng, mu)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.7) < 4.0 * se

    @pytest.mark.parametrize("noise", ALL_NOISE, ids=lambda f: f.kind)
    def test_cdf_ppf_inverse(self, noise, rng):
        q = rng.uniform(0.01, 0.99, size=100)
        mu = rng.uniform(0.5, 3.0, size=100)
        loc, scale = noise.loc_scale(mu)
        np.testing.assert_allclose(noise.cdf(loc + scale * noise.z_ppf(q), mu), q,
                                   atol=1e-9)

    @pytest.mark.parametrize("noise", ALL_NOISE, ids=lambda f: f.kind)
    def test_pdf_matches_cdf_slope(self, noise):
        h = 1e-5
        s = np.linspace(0.3, 4.0, 40)
        fd = (noise.cdf(s + h, 1.2) - noise.cdf(s - h, 1.2)) / (2.0 * h)
        np.testing.assert_allclose(noise.pdf(s, 1.2), fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("noise", ALL_NOISE, ids=lambda f: f.kind)
    def test_fosd_empirical(self, noise):
        # 1e5 seeded draws per mean; no CDF crossing beyond 0.01
        rng_hi = np.random.default_rng(7)
        rng_lo = np.random.default_rng(7)
        hi = sample_noise(noise, rng_hi, np.full(100_000, 2.0))
        lo = sample_noise(noise, rng_lo, np.full(100_000, 1.0))
        grid = np.linspace(min(lo.min(), hi.min()), max(lo.max(), hi.max()), 201)
        cdf_hi = np.searchsorted(np.sort(hi), grid) / hi.size
        cdf_lo = np.searchsorted(np.sort(lo), grid) / lo.size
        assert np.all(cdf_hi <= cdf_lo + 0.01)

    @pytest.mark.parametrize("noise", ALL_NOISE, ids=lambda f: f.kind)
    def test_fosd_analytic(self, noise):
        # the performance order that validate_assumptions no longer
        # samples: the CDF is non-increasing in the mean at every score
        mu = np.linspace(0.0 if noise.kind == "exponential" else -2.0, 6.0, 41)
        s = np.linspace(-8.0, 16.0, 481)
        cdfs = noise.cdf(s[None, :], mu[:, None])
        assert np.all(np.diff(cdfs, axis=0) <= 0.0)

    def test_exponential_pdf_at_zero_mean_is_quiet(self):
        noise = NoiseFamily("exponential")
        with np.errstate(all="raise"):
            pdf = noise.pdf([0.0, 1.0], [0.0, 1.0])
            grid = noise.pdf(np.linspace(-1.0, 3.0, 9)[:, None], [0.0, 0.5, 2.0])
        np.testing.assert_array_equal(pdf, [0.0, math.exp(-1.0)])
        assert np.all(grid[:, 0] == 0.0)
        s = np.linspace(0.0, 3.0, 7)[:, None]
        np.testing.assert_allclose(grid[2:, 1:], np.exp(-s / [0.5, 2.0]) / [0.5, 2.0])
        assert np.all(grid[:2] == 0.0)

    def test_exponential_rejects_negative_mean(self):
        with pytest.raises(DomainError):
            NoiseFamily("exponential").loc_scale(-1.0)


class TestPrizeVector:
    def test_padding_and_gaps(self):
        pv = PrizeVector((5.0, 3.0, 0.0))
        np.testing.assert_array_equal(pv.padded(5), [5.0, 3.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(pv.gaps(5), [2.0, 3.0, 0.0, 0.0])
        assert pv.total == 8.0 and pv.top == 5.0

    def test_empty_vector_is_zero(self):
        pv = PrizeVector(())
        assert pv.total == 0.0 and pv.top == 0.0
        np.testing.assert_array_equal(pv.padded(3), np.zeros(3))

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            PrizeVector((1.0, 2.0))
        with pytest.raises(DomainError):
            PrizeVector((1.0, -0.5))
        with pytest.raises(DomainError):
            PrizeVector((1.0, 0.0)).padded(1)


class TestScenario:
    def test_roundtrip_through_dict(self):
        scn = example_scenario("example2", players=5, prizes=[2.0, 1.0, 0.0])
        again = scenario_from_dict(scn.to_dict())
        assert again.scenario_id == scn.scenario_id
        assert again == scn

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(example_scenario("example3").to_dict()))
        assert load_scenario(path).scenario_id == example_scenario("example3").scenario_id

    @pytest.mark.parametrize("name", sorted(EXAMPLE_CONFIGS))
    def test_shipped_scenario_file_matches_preset(self, name):
        path = Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json"
        assert json.loads(path.read_text()) == EXAMPLE_CONFIGS[name]
        assert load_scenario(path) == example_scenario(name)

    def test_unknown_fields_rejected(self):
        cfg = example_scenario("example1").to_dict()
        cfg["types"]["hi"] = 2.0
        with pytest.raises(DomainError, match="unknown field"):
            scenario_from_dict(cfg)

    def test_missing_section_rejected(self):
        cfg = example_scenario("example1").to_dict()
        del cfg["cost"]
        with pytest.raises(DomainError, match="cost"):
            scenario_from_dict(cfg)

    def test_check_theta(self):
        scn = example_scenario("example1")
        scn.check_theta(1.5)
        scn.check_theta(np.array([0.0, 1.5, 3.0]))
        scn.check_theta(np.array([]))
        for theta in (3.5, np.array([0.0, 3.5, 1.0]), np.array([-0.5, 1.0]), np.nan):
            with pytest.raises(DomainError, match=r"outside support \[0.0, 3.0\]"):
                scn.check_theta(theta)

    def test_more_prizes_than_players_rejected(self):
        with pytest.raises(DomainError):
            example_scenario("example1", players=2, prizes=[1.0, 0.5, 0.0])

    def test_with_prizes_preserves_rest(self):
        scn = example_scenario("example1", players=3, cost={"kind": "linear", "kappa": 2.0},
                               noise={"kind": "gumbel", "dispersion": 0.7})
        scn2 = scn.with_prizes((3.0, 1.0))
        assert scn2.prizes.values == (3.0, 1.0)
        scn3 = scn.with_players(5)
        assert scn3.players == 5 and scn3.prizes == scn.prizes
        for other in (scn2, scn3):
            assert other.nu == scn.nu and other.xi == scn.xi and other.cost == scn.cost
            assert other.types == scn.types and other.noise == scn.noise
        assert scn2.players == 3
        # the copies still run Scenario's checks: example1 pays two prizes
        with pytest.raises(DomainError, match="more prizes than players"):
            scn.with_players(1)

    def test_omitted_fields_take_the_documented_defaults(self):
        # the defaults README's "Scenario files" section lists
        minimal = {"nu": {"kind": "power"}, "xi": {"kind": "power"},
                   "cost": {"kind": "quadratic"},
                   "types": {"kind": "truncated-normal", "support": [1.0, 3.0]}}
        scn = scenario_from_dict(minimal)
        assert scn.nu == ProductionForm("power", 0.5)
        assert scn.xi == MechanizationForm("power", 0.5)
        assert scn.cost == CostForm("quadratic", 0.5)
        assert scn.types == TypeDistribution("truncated-normal", 1.0, 3.0, loc=2.0, scale=0.5)
        assert scn.noise == NoiseFamily("normal", 1.0)
        assert scn.players == 2 and scn.prizes == PrizeVector((1.0,))
        linear = scenario_from_dict({**minimal, "cost": {"kind": "linear"},
                                     "noise": {"kind": "gumbel"}})
        assert linear.cost == CostForm("linear", 1.0)
        assert linear.noise == NoiseFamily("gumbel", 1.0)


class TestValidation:
    @pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4"])
    def test_canonical_examples_have_no_failures(self, name):
        report = validate_assumptions(example_scenario(name))
        assert report.ok, report.summary()

    def test_linear_mechanization_warns_but_passes(self):
        report = validate_assumptions(example_scenario("example1"))
        assert any(c.status == "warn" for c in report.checks)

    @pytest.mark.parametrize("theta", [0.3, 0.0])
    def test_point_mass_passes(self, theta):
        scn = example_scenario("example1", nu={"kind": "power", "alpha": 0.5},
                               types={"kind": "uniform", "support": [theta, theta]})
        report = validate_assumptions(scn)
        assert report.ok, report.summary()

    @pytest.mark.parametrize("name, kappa", [("example4", 1.0), ("example3", 2.0),
                                             ("example3", 3.0)])
    def test_unbounded_optimum_fails(self, name, kappa):
        scn = example_scenario(name, cost={"kind": "linear", "kappa": kappa})
        report = validate_assumptions(scn)
        failed = [(c.check_id, c.detail) for c in report.checks if c.status == "fail"]
        assert failed == [
            ("bounded-optimum", scn.unbounded_reason())]
        assert scn.unbounded_reason().startswith("no bounded no-contest optimum")

    def test_bounded_optimum_rule(self):
        # bounded just above each constant margin, and whenever the cost
        # is convex or no channel's margin stays constant
        assert example_scenario("example4", cost={"kind": "linear", "kappa": 1.01}
                                ).unbounded_reason() is None
        assert example_scenario("example3", cost={"kind": "linear", "kappa": 3.01}
                                ).unbounded_reason() is None
        for name in EXAMPLE_CONFIGS:
            assert example_scenario(name).unbounded_reason() is None
        alpha_one = example_scenario("example3", nu={"kind": "power", "alpha": 1.0},
                                     cost={"kind": "linear", "kappa": 3.0})
        assert alpha_one.unbounded_reason() is not None

    def test_report_serialises(self):
        report = validate_assumptions(example_scenario("example4"))
        d = report.to_dict()
        assert d["ok"] is True
        assert {c["status"] for c in d["checks"]} <= {"pass", "warn", "fail"}


def _config(**changes) -> dict:
    cfg = example_scenario("example1").to_dict()
    cfg.update(changes)
    return cfg


@pytest.mark.parametrize("build, message", [
    (lambda: MechanizationForm("cubic"), "unknown mechanization kind"),
    (lambda: MechanizationForm("linear", 0.5), "linear mechanization takes no alpha"),
    (lambda: CostForm("cubic", 1.0), "unknown cost kind"),
    (lambda: TypeDistribution("beta", 0.0, 1.0), "unknown type distribution"),
    (lambda: TypeDistribution("truncated-normal", 1.0, 1.0, loc=1.0, scale=1.0),
     "truncated-normal needs a proper interval"),
    (lambda: TypeDistribution("uniform", 0.0, 1.0).ppf([0.5, 1.5]),
     "quantile level outside [0, 1]"),
    (lambda: TypeDistribution("uniform", 0.0, 1.0).grid(1), "at least 2 points, got 1"),
    (lambda: TypeDistribution("uniform", 1.0, 1.0).grid(0), "at least 2 points, got 0"),
    (lambda: NoiseFamily("cauchy"), "unknown noise kind"),
    (lambda: dataclasses.replace(example_scenario("example1"), players=True),
     "players must be a positive integer"),
    (lambda: dataclasses.replace(example_scenario("example1"), players=0),
     "players must be a positive integer"),
    (lambda: scenario_from_dict([]), "scenario config must be a JSON object"),
    (lambda: scenario_from_dict(_config(types={"kind": "uniform", "support": [0.0]})),
     "types.support must be a [lo, hi] pair"),
    (lambda: scenario_from_dict(_config(types={"kind": "uniform", "support": [0, 1],
                                               "loc": 0.5})),
     "loc/scale only apply to truncated-normal"),
    (lambda: scenario_from_dict(_config(prizes=1.0)), "prizes must be a list of numbers"),
    (lambda: scenario_from_dict(_config(players=True)), "players must be a positive integer"),
    (lambda: scenario_from_dict(_config(players=2.0)), "players must be a positive integer"),
    (lambda: scenario_from_dict(_config(players="3")), "players must be a positive integer"),
], ids=["xi-kind", "xi-linear-alpha", "cost-kind", "types-kind", "tnorm-point",
        "ppf-level", "grid-1", "point-mass-grid-0", "noise-kind", "players-bool",
        "players-0", "config-not-object", "support-not-pair", "uniform-loc",
        "prizes-not-list", "config-players-bool", "config-players-float",
        "config-players-text"])
def test_input_check_raises(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert message in str(info.value)


@pytest.mark.parametrize("name, overrides, error, message", [
    ("example5", {}, KeyError, "unknown example 'example5'"),
    ("example1", {"budget": 1.0}, DomainError, "unknown field(s) ['budget']"),
], ids=["unknown-example", "unknown-override"])
def test_example_scenario_rejects(name, overrides, error, message):
    with pytest.raises(error) as info:
        example_scenario(name, **overrides)
    assert message in str(info.value)
