"""Closed-form verification suite for the four canonical examples.

Each shipped example admits hand-derived solutions (thresholds, baseline
allocations, cost segments, an equilibrium effort ratio); this module
recomputes them numerically and reports pass/fail per fact.  The CLI
``examples`` subcommand prints these lines, and the acceptance tests
assert them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baseline import baseline_grid, baseline_thresholds
from .costmin import CASE_NAMES, MECH_ONLY, allocate_grid
from .equilibrium import solve_equilibrium
from .hacking import hacking_threshold
from .presets import example_scenario

ABS_TOL = 1e-4
RATIO_TOL = 1e-2


@dataclass(frozen=True)
class GoldenCheck:
    """One verified fact about a canonical example."""

    example: str
    name: str
    passed: bool
    detail: str


def _check(results: list[GoldenCheck], example: str, name: str,
           actual, expected, tol: float = ABS_TOL, relative: bool = False) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if relative:
        err = np.max(np.abs(actual - expected) / np.maximum(np.abs(expected), 1e-300))
    else:
        err = np.max(np.abs(actual - expected))
    results.append(GoldenCheck(
        example=example,
        name=name,
        passed=bool(err <= tol),
        detail=f"max {'rel ' if relative else ''}err {err:.2e} (tol {tol:g})",
    ))


def _example1(results: list[GoldenCheck]) -> None:
    # linear creation and mechanization, quadratic cost: everything is 1
    scn = example_scenario("example1")
    th = baseline_thresholds(scn)
    _check(results, "example1", "mech threshold = 1", th.mech_upper, 1.0)
    _check(results, "example1", "create threshold = 1", th.create_lower, 1.0)

    low = np.array([0.25, 0.5, 0.75])
    high = np.array([1.5, 2.0, 3.0])
    grid_low = baseline_grid(scn, low)
    grid_high = baseline_grid(scn, high)
    _check(results, "example1", "mech region (mu,a,b) = (1,0,1)",
           np.stack([grid_low.mu, grid_low.a, grid_low.b]),
           np.stack([np.ones(3), np.zeros(3), np.ones(3)]))
    _check(results, "example1", "create region (mu,a,b) = (th^2,th,0)",
           np.stack([grid_high.mu, grid_high.a, grid_high.b]),
           np.stack([high ** 2, high, np.zeros(3)]))

    profile = solve_equilibrium(scn)
    _check(results, "example1", "mechanization cutoff = 1",
           hacking_threshold(profile), 1.0)


def _example2(results: list[GoldenCheck]) -> None:
    # square-root channels, linear cost: interior for every positive type
    scn = example_scenario("example2")
    thetas = np.array([0.5, 1.0, 2.0, 5.0, 9.0])
    grid = baseline_grid(scn, thetas)
    _check(results, "example2", "baseline a = th^2/4", grid.a, thetas ** 2 / 4.0)
    _check(results, "example2", "baseline b = 1/4", grid.b, np.full(5, 0.25))
    _check(results, "example2", "baseline mu = (th^2+1)/2", grid.mu,
           (thetas ** 2 + 1.0) / 2.0)

    profile = solve_equilibrium(scn)
    alloc = allocate_grid(scn, profile.mu_star, profile.theta_grid)
    keep = profile.theta_grid >= 0.5   # the ratio is 0/0 as types vanish
    ratio = alloc.a[keep] / alloc.b[keep]
    _check(results, "example2", "equilibrium a/b = th^2",
           ratio, profile.theta_grid[keep] ** 2, tol=RATIO_TOL, relative=True)


def _example3(results: list[GoldenCheck]) -> None:
    # linear creation, sqrt mechanization, quadratic cost
    scn = example_scenario("example3")
    th = baseline_thresholds(scn)
    _check(results, "example3", "mech threshold = 2^(-2/3)", th.mech_upper, 0.5 ** (2.0 / 3.0))
    results.append(GoldenCheck(
        "example3", "create threshold = +inf", math.isinf(th.create_lower)
        and th.create_lower > 0, f"got {th.create_lower!r}"))

    # mech-only segment: cost of mu is mu^4/2 whenever mu <= 1/(2 theta)
    thetas = np.array([0.3, 0.3, 0.3, 0.5, 0.5])
    mus = np.array([0.4, 0.9, 1.4, 0.3, 0.8])
    grid = allocate_grid(scn, mus, thetas)
    names = [CASE_NAMES[c] for c in grid.case.tolist()]
    results.append(GoldenCheck(
        "example3", "mech-only case on the segment",
        bool(np.all(grid.case == MECH_ONLY)), f"cases {names}"))
    _check(results, "example3", "segment cost = mu^4/2", grid.cost, mus ** 4 / 2.0)


def _example4(results: list[GoldenCheck]) -> None:
    # saturating creation, linear mechanization, flat quadratic cost
    scn = example_scenario("example4")
    th = baseline_thresholds(scn)
    _check(results, "example4", "mech threshold = 1", th.mech_upper, 1.0)
    _check(results, "example4", "create threshold = e^2", th.create_lower, math.e ** 2)

    # interior segment: cost is (mu - theta + 1 + ln theta)^2 / 4
    thetas = np.array([2.0, 2.0, 4.0, 4.0])
    mus = np.array([2.5, 3.0, 3.5, 5.0])
    grid = allocate_grid(scn, mus, thetas)
    expected = 0.25 * (mus - thetas + 1.0 + np.log(thetas)) ** 2
    _check(results, "example4", "interior segment cost", grid.cost, expected)


def golden_suite() -> list[GoldenCheck]:
    """Run every canonical-example check; order follows the examples."""
    results: list[GoldenCheck] = []
    _example1(results)
    _example2(results)
    _example3(results)
    _example4(results)
    return results
