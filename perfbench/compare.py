"""Compare a parent and a change from alternating benchmark runs.

Read the ``.bench_results`` directories of a parent and a change checkout,
each run with the same seeds in alternating order, and pair their runs by
workload and seed:

    python3 perfbench/compare.py PARENT/.bench_results CHANGE/.bench_results

For every workload and metric it prints each side's median and quartiles,
the share of pairs the change won, and a verdict.  A gain needs at least
nine tenths of the pairs won and a median gap larger than the parent's
interquartile range; a regression is a median worse than the parent's by
more than the metric's bound in BENCHMARK.json.  A metric whose parent
spread exceeds its bound is unresolved unless every change run beats every
parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

MIN_WIN_SHARE = 0.9


def load_results(directory: Path) -> dict:
    """{(workload, trace): {seed: record}} from every results file in a directory."""
    out = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        out[(record["workload"], record["trace"])][record["seed"]] = record
    return out


def failed_share(records: list[dict]) -> float:
    return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> tuple[str, float]:
    """(verdict, share of pairs won by the change) for paired samples."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    share = wins / len(parent)
    q1, med_p, q3 = stats.quartiles(parent)
    med_c = statistics.median(change)
    gain = sign * (med_c - med_p)
    if share >= MIN_WIN_SHARE and gain > q3 - q1:
        return "gain", share
    if bound is None:
        return "no gain", share
    if -gain > bound * abs(med_p):
        return "REGRESSION", share
    if (q3 - q1) > bound * abs(med_p):
        all_better = (min(change) > max(parent) if sign > 0 else max(change) < min(parent))
        if not all_better:
            return "unresolved", share
    return "no regression", share


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    parent, change = load_results(parent_dir), load_results(change_dir)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressions, gains = [], []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        runs_p = [parent[key][s] for s in seeds]
        runs_c = [change[key][s] for s in seeds]
        # A gain does not count where more operations fail than at the parent.
        fail_p, fail_c = failed_share(runs_p), failed_share(runs_c)
        print(f"\n{workload} ({'traced' if trace else 'untraced'}), {len(seeds)} pairs;"
              f" failed operations: parent {fail_p:.2%}, change {fail_c:.2%}")
        print(f"{'metric':<34} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
              f" {'won':>5}  verdict")
        names = sorted(set(runs_p[0]["metrics"]) & set(runs_c[0]["metrics"]))
        for name in names:
            meta = declared.get(name, {"better": "lower"})
            p = [r["metrics"][name]["value"] for r in runs_p]
            c = [r["metrics"][name]["value"] for r in runs_c]
            word, share = verdict(p, c, meta["better"], meta.get("bound"))
            if word == "gain" and fail_c > fail_p:
                word = "no gain (more failed)"
            pq, cq = stats.quartiles(p), stats.quartiles(c)
            print(f"{name:<34} {pq[1]:>12.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
                  f"{'':>2} {cq[1]:>12.5g} [{cq[0]:.5g}, {cq[2]:.5g}] {share:>5.0%}  {word}")
            if word == "REGRESSION":
                regressions.append(f"{workload}/{name}")
            elif word == "gain" and "bound" in meta:
                gains.append(f"{workload}/{name}")
    print()
    print("regressions: " + (", ".join(regressions) or "none"))
    print("gains: " + (", ".join(gains) or "none"))
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's results directory")
    parser.add_argument("change", type=Path, help="the change's results directory")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return compare(args.parent, args.change, spec)


if __name__ == "__main__":
    sys.exit(main())
