"""Map the no-contest regions of the canonical examples.

Prints each example's cutoffs and an ascii strip over the type support:
m = mech-only, i = interior, c = create-only.
"""

import argparse

import numpy as np

from contestlab import (
    CREATE_ONLY,
    EXAMPLE_CONFIGS,
    INTERIOR,
    MECH_ONLY,
    baseline_grid,
    baseline_thresholds,
    example_scenario,
)

LETTER = {MECH_ONLY: "m", INTERIOR: "i", CREATE_ONLY: "c"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--width", type=int, default=61,
                        help="strip resolution in grid points")
    args = parser.parse_args()

    for name in sorted(EXAMPLE_CONFIGS):
        scenario = example_scenario(name)
        lo, hi = scenario.support
        grid = baseline_grid(scenario, np.linspace(lo, hi, args.width))
        strip = "".join(LETTER[c] for c in grid.case.tolist())
        th = baseline_thresholds(scenario)
        print(f"{name}: support [{lo:g}, {hi:g}]  "
              f"mech_upper={th.mech_upper:.4g}  create_lower={th.create_lower:.4g}")
        print(f"  {strip}")


if __name__ == "__main__":
    main()
