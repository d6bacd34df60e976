"""``python -m bench compare PARENT.jsonl CHANGE.jsonl``: a change against its parent.

Each file holds run documents as ``bench/out/latest.json`` stores them,
one per line, so appending the ``latest.json`` of each run to a file
collects them. Per workload, a parent run pairs with a change run of the
same seed, in file order; runs without a partner are left out. Collect
the runs alternately (parent, change, change, parent, ...) with the same
seeds on both sides.

Each end-to-end metric of ``BENCHMARK.json`` gets one verdict per workload:

* ``gain``: at least 10 pairs, the change wins at least 9 in 10 of them,
  and the medians differ by more than the parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by more
  than the bound, and either the parent's own spread (IQR / median) is
  within the bound or every change run is worse than every parent run;
* ``unresolved``: fewer than 10 pairs; or the parent's spread is wider
  than the bound, and the change runs neither all beat nor all lose to
  the parent runs;
* ``ok``: none of these.

The simulated outcomes of each pair must be identical, and the change
may not fail a larger share of its repeats than the parent.

Exit status: 1 on any regression, changed simulated outcome or larger
failure share; else 2 if any verdict is unresolved; else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from bench import load_spec

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Workload name -> its run documents, in file order."""
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            for name, doc in json.loads(line)["workloads"].items():
                runs.setdefault(name, []).append(doc)
    return runs


def pair_by_seed(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """The k-th parent run of each seed with the k-th change run of that seed."""
    by_seed: dict[int, list[dict]] = {}
    for doc in change:
        by_seed.setdefault(doc["seed"], []).append(doc)
    pairs = []
    for doc in parent:
        partners = by_seed.get(doc["seed"])
        if partners:
            pairs.append((doc, partners.pop(0)))
    return pairs


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, float]:
    """``(verdict, relative change of the median)`` of one metric over
    paired runs: ``parent[i]`` and ``change[i]`` share a seed."""
    sign = 1.0 if better == "lower" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    delta = (mc - mp) / mp
    if len(parent) < MIN_PAIRS:
        return "unresolved", delta
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    iqr = _iqr(parent)
    if wins >= WIN_SHARE * len(parent) and abs(mc - mp) > iqr:
        return "gain", delta
    gaps = [sign * (c - p) for p in parent for c in change]  # > 0: change worse
    all_worse, all_better = min(gaps) > 0, max(gaps) < 0
    wide = iqr / mp > bound
    if sign * delta > bound and (not wide or all_worse):
        return "regression", delta
    if wide and not (all_better or all_worse):
        return "unresolved", delta
    return "ok", delta


def compare(
    parent: dict[str, list[dict]], change: dict[str, list[dict]]
) -> tuple[list[str], int]:
    """One printed row per workload and a summary line; the exit status."""
    spec = load_spec()
    rows: list[str] = []
    verdicts: list[str] = []
    bad = False
    for w in spec["workloads"]:
        name = w["name"]
        pairs = pair_by_seed(parent.get(name, []), change.get(name, []))
        if not pairs:
            rows.append(f"{name:<16} no parent and change runs of the same seed")
            verdicts.append("unresolved")
            continue
        cells = [f"{len(pairs)} pairs"]
        for m in spec["end_to_end"]:
            measured = [
                (p["metrics"][m["name"]]["value"], c["metrics"][m["name"]]["value"])
                for p, c in pairs
                if m["name"] in p["metrics"] and m["name"] in c["metrics"]
            ]
            if not measured:
                v, delta = "unresolved", float("nan")
            else:
                v, delta = verdict(
                    [p for p, _ in measured], [c for _, c in measured],
                    m["better"], m["bound"],
                )
            verdicts.append(v)
            cells.append(f"{m['name']} {v} {delta:+.1%}")
        changed = sum(p["sim"] != c["sim"] for p, c in pairs)
        cells.append(f"simulated {'changed in ' + str(changed) if changed else 'identical'}")
        shares = []
        for side in zip(*pairs):
            attempted = sum(r["attempted"] for r in side)
            shares.append(sum(r["failed"] for r in side) / attempted)
        cells.append(f"failed {shares[0]:.1%} -> {shares[1]:.1%}")
        bad |= bool(changed) or shares[1] > shares[0]
        rows.append(f"{name:<16} " + " | ".join(cells))
    counts = {v: verdicts.count(v) for v in ("gain", "ok", "regression", "unresolved")}
    rows.append("summary: " + ", ".join(f"{n} {v}" for v, n in counts.items()))
    if bad or counts["regression"]:
        return rows, 1
    return rows, 2 if counts["unresolved"] else 0


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="python -m bench compare", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    rows, status = compare(load_runs(args.parent), load_runs(args.change))
    print("\n".join(rows))
    return status
