#!/usr/bin/env python3
"""Fleet sizing: how many mobile chargers does a deployment need?

A question the paper leaves to the operator: the algorithms work for any
``q``, but each depot/vehicle costs money. This example sweeps
``q = 1 .. 8`` on a fixed 200-sensor deployment and reports the service
cost of MinTotalDistance and Greedy at each fleet size, plus the marginal
saving of each extra charger — the knee of that curve is the economic
fleet size.

(Also exercises the q-rooted machinery at its q=1 degenerate point, where
Algorithm 1 is a plain MST and Algorithm 2 the classic double-tree TSP
approximation.)

Run:  python examples/fleet_sizing.py
"""

from repro import ExperimentConfig, sweep
from repro.reporting import format_table

HORIZON = 1000.0


def main() -> None:
    base = ExperimentConfig(n=200, horizon=HORIZON, algorithms=("mtd", "greedy"),
                            n_topologies=3, seed=77)
    print(f"sweeping fleet size on: {base.describe()}\n")
    result = sweep(base, "q", list(range(1, 9)))
    _, mtd = result.series("mtd")
    _, greedy = result.series("greedy")
    ratios = result.ratio_series("mtd", "greedy")
    savings = [float("nan"), *(mtd[:-1] - mtd[1:])]
    rows = [list(row) for row in
            zip(result.values, mtd, greedy, ratios, savings)]

    print(format_table(
        ["q", "MTD cost (m)", "Greedy cost (m)", "MTD/Greedy", "marginal saving (m)"],
        rows, precision=3))
    print("\nreading: MinTotalDistance is remarkably insensitive to fleet "
          "size — depot #1 sits on the base station next to the hottest "
          "sensors, and the power-of-two batching already amortises the "
          "long hauls, so extra random depots shave little. Greedy benefits "
          "more from extra depots (its unbatched emergency tours are the "
          "ones long hauls hurt). For this deployment, one well-placed "
          "charger is nearly as good as eight.")


if __name__ == "__main__":
    main()
