"""``--compare BASE.json NEW.json``: one row per (end-to-end metric,
workload) and an equality check on every exact count.

A verdict is ``same`` when the medians differ by no more than the
metric's bound in ``BENCHMARK.json``, otherwise ``better`` or ``worse``
— unless the two sides' quartile ranges overlap by more than the bound
(as a share of the base median), which reads ``unresolved``: the runs
spread wider than the difference they would have to show.
"""

from __future__ import annotations

import json
from typing import Dict

from . import declared


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    b, n = base["value"], new["value"]
    worse_by = (n - b) / b if better == "lower" else (b - n) / b
    if abs(worse_by) <= bound:
        return "same"
    overlap = min(base["q3"], new["q3"]) - max(base["q1"], new["q1"])
    if overlap / b > bound:
        return "unresolved"
    return "worse" if worse_by > 0 else "better"


def compare(base_path: str, new_path: str) -> int:
    with open(base_path) as fh:
        base = json.load(fh)["workloads"]
    with open(new_path) as fh:
        new = json.load(fh)["workloads"]
    bad = 0
    print(f"{'workload':14s} {'metric':15s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    for workload in base:
        if workload not in new:
            continue
        b_run, n_run = base[workload], new[workload]
        for m in declared()["end_to_end"]:
            b = b_run["end_to_end"][m["name"]]
            n = n_run["end_to_end"][m["name"]]
            v = verdict(b, n, m["better"], m["bound"])
            bad += v == "worse"
            print(f"{workload:14s} {m['name']:15s} {b['value']:12.5g} "
                  f"{n['value']:12.5g} {n['value'] / b['value']:9.3f} "
                  f"{m['bound']:6.2f}  {v}")
        b_fail = b_run["failed"] / b_run["attempted"]
        n_fail = n_run["failed"] / n_run["attempted"]
        rose = n_fail > b_fail
        bad += rose
        print(f"{workload:14s} {'fail_ratio':15s} {b_fail:12.5g} "
              f"{n_fail:12.5g} {'':9s} {'0':>6s}  "
              f"{'worse' if rose else 'same'}")
        bad += exact_differences(workload, b_run, n_run)
    return 1 if bad else 0


def exact_differences(workload: str, base: dict, new: dict) -> int:
    """Counts marked exact must be equal on both sides."""
    b_vals: Dict[str, float] = base.get("per_layer", {})
    n_vals: Dict[str, float] = new.get("per_layer", {})
    names = set(base.get("exact", ())) & set(new.get("exact", ()))
    differ = sorted(k for k in names if b_vals[k] != n_vals[k])
    for k in differ:
        print(f"{workload:14s} exact count {k} differs: "
              f"{b_vals[k]} != {n_vals[k]}")
    return len(differ)
