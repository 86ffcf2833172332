"""Solve one contest equilibrium and set it against the no-contest schedule.

The printed table samples the type grid; the hacks column marks types
that drop creative effort below their baseline while pushing the
mechanistic channel harder. Their mass under the type density is the
headline hacking measure.
"""

import argparse

import numpy as np

from contestlab import (
    baseline_thresholds,
    example_scenario,
    hacking_verdicts,
    solve_equilibrium,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="example3")
    parser.add_argument("--players", type=int, default=2)
    parser.add_argument("--prizes", default="2,0",
                        help="comma-separated prize vector")
    parser.add_argument("--grid", type=int, default=201)
    parser.add_argument("--rows", type=int, default=15)
    args = parser.parse_args()

    prizes = [float(v) for v in args.prizes.split(",")]
    scenario = example_scenario(args.scenario, players=args.players,
                                prizes=prizes)
    profile = solve_equilibrium(scenario, grid_size=args.grid)
    print(f"{args.scenario}, I={args.players}, prizes={prizes}: "
          f"converged={profile.converged} in {profile.iterations} iterations "
          f"(residual {profile.residual:.2e})")

    verdicts = hacking_verdicts(profile)
    alloc, base = verdicts.allocation, profile.baseline
    take = np.linspace(0, profile.theta_grid.size - 1, args.rows).astype(int)
    print(f"\n{'theta':>7} {'mu_base':>9} {'mu*':>9} {'a*':>8} {'b*':>8} "
          f"{'hacks':>5}  band")
    for k in take:
        print(f"{profile.theta_grid[k]:7.3f} {base.mu[k]:9.4f} "
              f"{profile.mu_star[k]:9.4f} {alloc.a[k]:8.4f} "
              f"{alloc.b[k]:8.4f} {str(bool(verdicts.hacks[k])):>5}  "
              f"{verdicts.band[k]}")

    print(f"\nhacking cutoff theta1* = {verdicts.theta_star:.4f} "
          f"(baseline mech band ends at {baseline_thresholds(scenario).mech_upper:.4f})")
    print(f"hacking measure = {verdicts.measure:.4f}")


if __name__ == "__main__":
    main()
