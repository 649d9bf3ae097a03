"""Compare mode: judge a change's run records against its parent's.

For each (workload, end-to-end metric) pair the verdict is one of:

* unresolved -- the parent's own spread (interquartile range over median)
  exceeds the metric's bound, and not every change run beats every parent
  run;
* worse -- the change's median is worse than the parent's by more than the
  bound;
* better -- the change wins at least 9/10 of the run pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range;
* unchanged -- otherwise.

Runs pair up by seed where both sides ran the same seed, otherwise in the
order their records sort.  Metrics a run reads exactly for its seed (the
failure fraction and the output-quality metrics) are judged on seed-matched
pairs alone: any pair that moved beyond roundoff decides the verdict.
Finally every recorded output value that changed beyond roundoff between
seed-matched runs is listed.  The exit code is 1 when any pair is worse or
any output changed.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

ROUNDOFF = 1e-9

# End-to-end metrics beyond BENCHMARK.json's, all exact for a seed: the
# failure fraction, which reads 0 on a healthy program, and one output-quality
# metric per workload.  They are printed and recorded, and compare mode judges
# them.  BENCHMARK.json cannot list them: every workload reports each metric
# listed there, and none of those may read 0.
EXACT_METRICS = {
    "fail_frac": {"unit": "1", "better": "lower"},
    "cost_ratio.mean": {"unit": "1", "better": "lower"},
    "ratio_lower.mean": {"unit": "1", "better": "higher"},
    "piplus_gap.max": {"unit": "1", "better": "lower"},
}


def load_records(directory) -> dict:
    """workload -> list of untraced run records, sorted by seed."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if isinstance(rec, dict) and rec.get("trace") == 0 and "metrics" in rec:
            runs[rec["workload"]].append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def quartile_spread(values) -> float:
    """Interquartile range of the values (0 for fewer than two)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def pair_up(parent, change):
    """Pairs of (parent, change) records: same seed first, else in order."""
    by_seed = {r["seed"]: r for r in change}
    seeded = [(p, by_seed[p["seed"]]) for p in parent if p["seed"] in by_seed]
    if seeded:
        return seeded, True
    return list(zip(parent, change)), False


def _gain(p: float, c: float, better: str) -> float:
    return (p - c) if better == "lower" else (c - p)


def verdict(parent_vals, change_vals, pairs, better: str, bound: float) -> str:
    """The section-8 rule for one (workload, metric) pair; see module doc."""
    pm, cm = statistics.median(parent_vals), statistics.median(change_vals)
    iqr = quartile_spread(parent_vals)
    scale = abs(pm) if pm else 1.0
    if iqr / scale > bound:
        all_better = all(_gain(p, c, better) > 0 for p in parent_vals for c in change_vals)
        return "better" if all_better else "unresolved"
    if _gain(pm, cm, better) < -bound * scale:
        return "worse"
    wins = sum(_gain(p, c, better) > 0 for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > iqr:
        return "better"
    return "unchanged"


def exact_verdict(pairs, better: str) -> str:
    """Verdict for a value that repeats exactly for a seed."""
    moved = [_gain(p, c, better) for p, c in pairs
             if not math.isclose(p, c, rel_tol=ROUNDOFF, abs_tol=ROUNDOFF)]
    if not pairs:
        return "unresolved"
    if any(g < 0 for g in moved):
        return "worse"
    return "better" if moved else "unchanged"


def changed_outputs(pairs) -> list:
    """Every recorded op output that moved beyond roundoff between runs of
    the same workload and seed."""
    lines = []
    for p, c in pairs:
        c_ops = {op["label"]: op for op in c["ops"]}
        for op in p["ops"]:
            other = c_ops.get(op["label"])
            if other is None:
                lines.append(f"seed {p['seed']} {op['label']}: missing in change")
                continue
            moved = False
            for key, pv in (op["values"] or {}).items():
                cv = (other["values"] or {}).get(key)
                same = (math.isclose(pv, cv, rel_tol=ROUNDOFF, abs_tol=ROUNDOFF)
                        if isinstance(pv, float) and isinstance(cv, float)
                        else pv == cv)
                if not same:
                    moved = True
                    lines.append(f"seed {p['seed']} {op['label']} {key}: {pv!r} -> {cv!r}")
            if op["digest"] != other["digest"] and not moved:
                lines.append(f"seed {p['seed']} {op['label']}: output hash changed "
                             "(values within roundoff)")
    return lines


def compare(parent_dir, change_dir, spec: dict) -> tuple:
    """(table rows, changed-output lines) for two directories of records."""
    timed = {m["name"]: m for m in spec["end_to_end"]}
    exact = EXACT_METRICS
    parent, change = load_records(parent_dir), load_records(change_dir)
    rows, changed = [], []
    for workload in sorted(set(parent) & set(change)):
        pairs, seeded = pair_up(parent[workload], change[workload])
        for name in list(timed) + list(exact):
            p_vals = [r["metrics"][name]["value"] for r in parent[workload]
                      if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for r in change[workload]
                      if name in r["metrics"]]
            if not p_vals or not c_vals:
                continue
            val_pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                         for p, c in pairs
                         if name in p["metrics"] and name in c["metrics"]]
            if name in timed:
                m = timed[name]
                v = verdict(p_vals, c_vals, val_pairs, m["better"], m["bound"])
            else:
                v = exact_verdict(val_pairs if seeded else [], exact[name]["better"])
            rows.append((workload, name, statistics.median(p_vals),
                         statistics.median(c_vals), len(val_pairs), v))
        if seeded:
            changed += [f"{workload} {line}" for line in changed_outputs(pairs)]
    return rows, changed


def main(parent_dir, change_dir, spec_path) -> int:
    spec = json.loads(Path(spec_path).read_text())
    rows, changed = compare(parent_dir, change_dir, spec)
    if not rows:
        print("no workload has untraced records on both sides")
        return 1
    print(f"{'workload':<20} {'metric':<20} {'parent':>14} {'change':>14} "
          f"{'pairs':>5}  verdict")
    for workload, name, pm, cm, n, v in rows:
        print(f"{workload:<20} {name:<20} {pm:>14.6g} {cm:>14.6g} {n:>5}  {v}")
    if changed:
        print("changed outputs:")
        for line in changed:
            print(f"  {line}")
    else:
        print("changed outputs: none")
    worse = any(r[-1] == "worse" for r in rows)
    return 1 if worse or changed else 0
