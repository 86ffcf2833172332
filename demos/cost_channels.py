"""Trace the least-cost channel split as the fitness target rises.

At small targets the minimiser leans on whichever channel is cheap at
zero effort; the shadow price grows with the target and effort spills
into the other channel until a corner regime takes over for good.
Watching the case column flip is the quickest way to see where a type
sits relative to the regime cutoffs.
"""

import argparse

import numpy as np

from contestlab import CASE_NAMES, allocate_grid, example_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="example3",
                        help="example name (example1..example4)")
    parser.add_argument("--theta", type=float, nargs="+",
                        default=[0.5, 1.0, 2.0], help="types to profile")
    parser.add_argument("--mu-max", type=float, default=3.0)
    parser.add_argument("--rows", type=int, default=12)
    args = parser.parse_args()

    scenario = example_scenario(args.scenario)
    mus = np.linspace(0.0, args.mu_max, args.rows)
    for theta in args.theta:
        scenario.check_theta(theta)
        grid = allocate_grid(scenario, mus, np.full(mus.shape, theta))
        names = [CASE_NAMES[c] for c in grid.case.tolist()]
        print(f"\n{args.scenario}, theta = {theta:g}")
        print(f"{'mu':>7} {'a':>8} {'b':>8} {'cost':>9} {'dC/dmu':>9}  case")
        for k in range(mus.size):
            print(f"{mus[k]:7.3f} {grid.a[k]:8.4f} {grid.b[k]:8.4f} "
                  f"{grid.cost[k]:9.5f} {grid.marginal_cost[k]:9.5f}  {names[k]}")


if __name__ == "__main__":
    main()
