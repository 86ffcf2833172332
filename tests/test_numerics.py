"""Unit tests for the shared numerical helpers."""

from __future__ import annotations

import statistics

import numpy as np
import pytest
from oracle import adaptive_simpson
from scipy import integrate

from contestlab._isotonic import isotonic_projection
from contestlab._normal import ndtr, ndtri
from contestlab._rootfind import bisect_vec, expand_upper
from contestlab.equilibrium import gauss_legendre
from contestlab.errors import SolverError


class TestIsotonicProjection:
    def test_known_small_cases(self):
        np.testing.assert_allclose(isotonic_projection(np.array([3.0, 1.0, 2.0])),
                                   [2.0, 2.0, 2.0])
        np.testing.assert_allclose(isotonic_projection(np.array([1.0, 3.0, 2.0])),
                                   [1.0, 2.5, 2.5])
        np.testing.assert_allclose(isotonic_projection(np.array([4.0, 3.0, 2.0, 1.0])),
                                   [2.5, 2.5, 2.5, 2.5])

    def test_monotone_input_is_fixed_point(self, rng):
        x = np.sort(rng.normal(size=50))
        np.testing.assert_array_equal(isotonic_projection(x), x)

    def test_output_monotone_and_idempotent(self, rng):
        x = rng.normal(size=200)
        p = isotonic_projection(x)
        assert np.all(np.diff(p) >= 0)
        np.testing.assert_allclose(isotonic_projection(p), p, atol=1e-12)

    def test_mean_preserved(self, rng):
        x = rng.normal(size=123)
        assert isotonic_projection(x).mean() == pytest.approx(x.mean(), abs=1e-12)

    def test_order_preserving(self, rng):
        x = rng.normal(size=80)
        y = x + rng.uniform(0.0, 1.0, size=80)
        assert np.all(isotonic_projection(x) <= isotonic_projection(y) + 1e-12)

    def test_is_l2_projection(self, rng):
        # the projection must beat every other monotone candidate
        x = rng.normal(size=60)
        p = isotonic_projection(x)
        best = np.sum((x - p) ** 2)
        for _ in range(20):
            q = np.sort(rng.normal(size=60))
            assert best <= np.sum((x - q) ** 2) + 1e-12

    def test_input_not_modified(self):
        x = np.array([2.0, 1.0])
        isotonic_projection(x)
        np.testing.assert_array_equal(x, [2.0, 1.0])


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        # an n-point rule integrates degree 2n-1 exactly
        for n in (2, 5, 12):
            x, w = gauss_legendre(n, -1.0, 3.0)
            for k in range(2 * n):
                exact = (3.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
                assert w @ x**k == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_interval_mapping(self):
        x, w = gauss_legendre(8, 2.0, 5.0)
        assert np.all((x > 2.0) & (x < 5.0))
        assert w.sum() == pytest.approx(3.0, rel=1e-14)


class TestAdaptiveSimpson:
    def test_scalar_integrand_matches_quad(self):
        f = lambda s: np.exp(-(s**2))[:, None]
        got = adaptive_simpson(f, -4.0, 6.0, tol=1e-10)
        ref, _ = integrate.quad(lambda s: np.exp(-(s**2)), -4.0, 6.0)
        assert got[0] == pytest.approx(ref, abs=1e-9)

    def test_vector_integrand_componentwise(self):
        ks = np.arange(1.0, 6.0)

        def f(s):
            return np.cos(ks[None, :] * s[:, None])

        got = adaptive_simpson(f, 0.0, 2.0, tol=1e-11)
        ref = np.sin(2.0 * ks) / ks
        np.testing.assert_allclose(got, ref, atol=1e-9)

    def test_needle_is_found(self):
        # narrow bump far from the midpoint, the classic adaptive test
        f = lambda s: np.exp(-4000.0 * (s - 0.17) ** 2)[:, None]
        got = adaptive_simpson(f, 0.0, 1.0, tol=1e-10)
        ref, _ = integrate.quad(lambda s: np.exp(-4000.0 * (s - 0.17) ** 2),
                                0.0, 1.0, epsabs=1e-13)
        assert got[0] == pytest.approx(ref, abs=1e-8)

    def test_empty_interval(self):
        f = lambda s: np.ones((s.size, 3))
        np.testing.assert_array_equal(adaptive_simpson(f, 1.0, 1.0, tol=1e-9),
                                      np.zeros(3))


class TestRootfind:
    def test_bisect_vec_one_element(self):
        root = bisect_vec(lambda x: x**3 - 2.0, np.zeros(1), np.full(1, 4.0), tol=1e-12)
        assert root[0] == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)

    def test_bisect_vec_batch(self):
        targets = np.array([1.0, 4.0, 9.0, 100.0])
        roots = bisect_vec(lambda x: x * x - targets, np.zeros(4),
                           np.full(4, 20.0), tol=1e-12)
        np.testing.assert_allclose(roots, np.sqrt(targets), atol=1e-10)
        # each element stops at its own tol, so the batch result equals the
        # one-element calls bit for bit, whatever the brackets around it
        targets = np.array([1e-3, 2.0, 9.0, 100.0, 3.7e5, 5.0])
        hi = np.array([0.5, 2.0, 6000.0, 20.0, 1e3, 0.0])
        lo = np.array([0.0, 0.0, 0.0, 9.5, 0.0, 0.0])
        roots = bisect_vec(lambda x: x**3 - targets, lo, hi, tol=1e-10)
        for k in range(targets.size):
            one = bisect_vec(lambda x: x**3 - targets[k], lo[k:k + 1], hi[k:k + 1],
                             tol=1e-10)
            assert roots[k] == one[0], k

    def test_bisect_vec_degenerate_bracket_passthrough(self):
        roots = bisect_vec(lambda x: x - 1.0, np.array([3.0]), np.array([3.0]))
        assert roots[0] == 3.0

    def test_bisect_vec_never_evaluates_endpoints(self):
        def func(x):
            if np.any((x == 0.0) | (x == 4.0)):
                raise AssertionError(f"endpoint evaluated: {x}")
            return x - 1.3

        root = bisect_vec(func, np.zeros(1), np.full(1, 4.0), tol=1e-12)
        assert root[0] == pytest.approx(1.3, abs=1e-12)

    def test_bisect_vec_infinite_end_value(self):
        # log is -inf at the lower end; the root is still found to tol
        c = 0.7
        with np.errstate(divide="ignore"):
            root = bisect_vec(lambda x: np.log(x) - c, np.zeros(1), np.full(1, 4.0),
                              tol=1e-12)
        assert abs(root[0] - np.exp(c)) <= 0.5e-12 + 1e-15
        # an end value that is -inf after evaluation: still converges to tol
        step = lambda x: np.where(x < 1.4, -np.inf, x - 1.5)
        root = bisect_vec(step, np.zeros(1), np.full(1, 4.0), tol=1e-12)
        assert abs(root[0] - 1.5) <= 0.5e-12

    def test_bisect_vec_overflowing_secant_bisects(self):
        # end values a few subnormals apart: width / (f_hi - f_lo)
        # overflows and 0 * inf would make the secant point NaN
        probes = []

        def func(x):
            probes.append(x.copy())
            return x - 0.5

        root = bisect_vec(func, [0.0], [1.0], f_lo=[-2.1e-322], f_hi=[0.0])
        assert np.all(np.isfinite(np.concatenate(probes)))
        assert root[0] == pytest.approx(0.5, abs=1e-10)

    def test_bisect_vec_fewer_evaluations_than_bisection(self):
        # halving [0, 4] to 1e-12 takes 42 evaluations
        calls = []

        def func(x):
            calls.append(x)
            return x**3 - 2.0

        root = bisect_vec(func, np.zeros(1), np.full(1, 4.0), tol=1e-12)
        assert abs(root[0] - 2.0 ** (1.0 / 3.0)) <= 0.5e-12 + 1e-15
        assert len(calls) == 10

    def test_bisect_vec_end_values_skip_the_halving(self):
        # a root 1e-9 above the lower end: without end values every probe
        # lands above it until the bracket has halved down to it
        def count(f_lo=None, f_hi=None):
            calls = []

            def func(x):
                calls.append(x)
                return np.expm1(x) - 1e-9

            root = bisect_vec(func, np.zeros(1), np.full(1, 4.0), tol=1e-13,
                              f_lo=f_lo, f_hi=f_hi)
            assert abs(root[0] - np.log1p(1e-9)) <= 0.5e-13
            return len(calls)

        assert count() >= 30
        assert count(f_lo=[-1e-9], f_hi=[np.expm1(4.0) - 1e-9]) <= 15

    def test_expand_upper_finds_bracket(self):
        hi = expand_upper(lambda x: x - 1000.0, np.array([1.0]))
        assert hi[0] >= 1000.0

    def test_expand_upper_bracket_is_cheap_for_a_root_on_a_probe(self):
        # the root of x - 1 sits on the first doubling probe; the bracket
        # must enclose it strictly, or the root finder never learns the
        # upper end's value and halves to tol (35 evaluations)
        calls = []

        def func(x):
            calls.append(x)
            return x - 1.0

        hi = expand_upper(func, np.array([1.0]))
        root = bisect_vec(func, np.zeros(1), hi)
        assert abs(root[0] - 1.0) <= 1e-10
        assert len(calls) <= 12

    def test_expand_upper_raises_when_hopeless(self):
        with pytest.raises(SolverError, match="bracket"):
            expand_upper(lambda x: -np.ones_like(x), np.array([1.0]))


class TestNdtr:
    @pytest.mark.parametrize("lo, hi, rtol", [(-8.0, 8.3, 2e-14), (-37.5, -8.0, 5e-13)],
                             ids=["body", "lower-tail"])
    def test_matches_mpmath(self, lo, hi, rtol, rng):
        mpmath = pytest.importorskip("mpmath")
        z = np.concatenate([np.linspace(lo, hi, 1001)[:-1], rng.uniform(lo, hi, 1000)])
        got = ndtr(z)
        with mpmath.workdps(40):
            err = [abs((mpmath.mpf(float(g)) - want) / want)
                   for g, want in zip(got, map(mpmath.ncdf, z.tolist()))]
        assert max(err) <= rtol

    def test_exact_values(self):
        one = np.array([8.3, np.nextafter(8.3, 9.0), 9.0, 37.5, 1e300, np.inf])
        assert np.all(ndtr(one) == 1.0)
        assert ndtr(0.0) == 0.5 and ndtr(-0.0) == 0.5
        assert ndtr(-np.inf) == 0.0 and ndtr(-1e300) == 0.0
        assert np.isnan(ndtr(np.nan))
        assert np.isnan(ndtr(np.array([1.0, np.nan, -1.0]))[1])
        assert isinstance(ndtr(0.5), float)   # a scalar for a scalar
        assert ndtr(np.zeros((3, 2))).shape == (3, 2)

    def test_monotone_and_symmetric(self):
        z = np.linspace(-40.0, 10.0, 400_001)
        assert np.all(np.diff(ndtr(z)) >= 0.0)
        z = np.linspace(0.0, 8.3, 100_001)
        assert np.max(np.abs(ndtr(z) + ndtr(-z) - 1.0)) <= 2 * np.spacing(1.0)


# the two interior levels where a numpy port of AS241 rounded its last
# steps differently from the standard library, by up to 3 ulps
PORT_MISSES = [0.9937813840712412, 0.9501922016735428]
LEVELS = np.concatenate([np.linspace(0.0, 1.0, 20_001)[1:-1], np.logspace(-300, -1, 301),
                         1.0 - np.logspace(-16, -1, 300), PORT_MISSES])


def _quantile_50_digits(mpmath, level: float, start: float):
    """Phi^-1(level) to 50 digits: Newton's method on ncdf(x) = level."""
    with mpmath.workdps(50):
        x = mpmath.mpf(start)
        for _ in range(10):
            step = (mpmath.ncdf(x) - level) / mpmath.npdf(x)
            x -= step
            # convergence is quadratic: the error left is near step**2
            if abs(step) <= 1e-25 * abs(x):
                return x
    raise AssertionError(f"Newton did not settle at level {level!r}")


class TestNdtri:
    def test_matches_statistics_bit_for_bit(self):
        inv_cdf = statistics.NormalDist().inv_cdf
        want = np.array([inv_cdf(v) for v in LEVELS.tolist()])
        assert ndtri(LEVELS).tobytes() == want.tobytes()

    def test_matches_mpmath_within_four_eps(self):
        # AS241's rational approximations are good to about 1e-16 relative,
        # and its Horner steps and quotient add a few roundings of eps / 2
        mpmath = pytest.importorskip("mpmath")
        got = ndtri(LEVELS)
        want = [_quantile_50_digits(mpmath, level, x) for level, x in
                zip(LEVELS.tolist(), got.tolist())]
        rel = [abs(mpmath.mpf(g) / w - 1) for g, w in zip(got.tolist(), want) if w != 0]
        assert max(rel) <= 4 * np.finfo(float).eps

    def test_edges(self):
        got = ndtri(np.array([0.0, 1.0, -0.1, 1.1, -np.inf, np.nan]))
        assert got[0] == -np.inf and got[1] == np.inf
        assert np.all(np.isnan(got[2:]))
        assert ndtri(0.5) == 0.0 and isinstance(ndtri(0.5), float)
        assert ndtri(np.full((3, 2), 0.25)).shape == (3, 2)
        assert ndtri(np.array([])).shape == (0,)
