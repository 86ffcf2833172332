"""Comparative statics of the prize gradient.

Sweeps ordered prize vectors through the equilibrium solver and reports
what steeper gradients do to the fitness schedule and to the mass of
hacking types. The two violation lists are the monotonicity claims the
acceptance suite enforces; both should print empty.
"""

import argparse

from contestlab import PrizeVector, example_scenario, skewness_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="example3")
    parser.add_argument("--prizes", default="1,0;2,0;4,0",
                        help="semicolon-separated prize vectors")
    parser.add_argument("--grid", type=int, default=201)
    args = parser.parse_args()

    vectors = [PrizeVector(tuple(float(v) for v in chunk.split(",")))
               for chunk in args.prizes.split(";")]
    scenario = example_scenario(args.scenario)
    sweep = skewness_sweep(scenario, vectors, grid_size=args.grid)

    print(f"{args.scenario}: {len(vectors)} prize vectors")
    for idx, (vec, verd) in enumerate(zip(sweep.prize_vectors, sweep.verdicts)):
        measure = sweep.hack_measures[idx]
        print(f"  [{idx}] prizes={list(vec.values)}  theta1*={verd.theta_star:.4f}  "
              f"hacking measure={measure:.4f}")

    print("\ngap-order relations (i, j, relation):")
    for i, j, rel in sweep.relations:
        print(f"  ({i}, {j}): {rel}")

    print(f"\ndominance violations: {sweep.dominance_violations()}")
    print(f"measure violations:   {sweep.measure_violations()}")


if __name__ == "__main__":
    main()
