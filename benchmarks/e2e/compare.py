"""Compare benchmark runs of two commits by the pair rule.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py --base B1.json B2.json ... --new N1.json N2.json ...

Each file is a ``run.py --out`` result. Run i of ``--base`` is paired with
run i of ``--new``; alternate which commit runs first. For every workload
and end-to-end metric it reports each side's median and quartiles and one
verdict, with bounds and directions read from ``BENCHMARK.json``:

* ``gain``: the new commit wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the base's quartile spread;
* ``REGRESSION``: the new median is worse than the base median by more
  than the metric's bound;
* ``unresolved``: the spread of either side is wider than the bound,
  unless every new run is better than every base run;
* ``ok``: none of the above.

It prints one row per workload and exits 1 when any metric regressed.
It uses only the values the runs recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _values(files: list[Path]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for path in files:
        for workload, res in json.loads(path.read_text())["workloads"].items():
            for metric, value in res["metrics"].items():
                out.setdefault((workload, metric), []).append(float(value))
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _summary(values: list[float]) -> str:
    q1, med, q3 = _quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(base: list[float], new: list[float], *, lower_better: bool,
            bound: float) -> tuple[str, float]:
    """The pair-rule verdict and the relative change of the medians
    (positive = worse)."""
    sign = 1.0 if lower_better else -1.0
    b1, bmed, b3 = _quartiles(base)
    n1, nmed, n3 = _quartiles(new)
    worse = sign * (nmed - bmed) / bmed
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if worse < 0 and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > b3 - b1:
        return "gain", worse
    if worse > bound:
        return "REGRESSION", worse
    spread = max((b3 - b1) / bmed, (n3 - n1) / nmed)
    all_better = max(sign * n for n in new) < min(sign * b for b in base)
    if spread > bound and not all_better:
        return "unresolved", worse
    return "ok", worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    base, new = _values(args.base), _values(args.new)
    workloads = sorted({w for w, _ in base} & {w for w, _ in new})
    regressed = False
    print(f"{len(args.base)} base run(s), {len(args.new)} new run(s); "
          "cell = base median [quartiles] -> new median [quartiles] "
          "(change of the medians, + is worse) verdict")
    for workload in workloads:
        cells = []
        for metric, m in spec.items():
            b, n = base.get((workload, metric)), new.get((workload, metric))
            if not b or not n:
                cells.append(f"{metric}: missing")
                continue
            v, worse = verdict(b, n, lower_better=m["better"] == "lower",
                               bound=float(m["bound"]))
            regressed |= v == "REGRESSION"
            cells.append(f"{metric}: {_summary(b)} -> {_summary(n)} ({worse:+.1%}) {v}")
        print(f"{workload:18s} | " + " | ".join(cells))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
