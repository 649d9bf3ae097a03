"""l1gram benchmark: one seeded workload per run, checked outputs, metrics.

    python3 bench/run.py --workload decompose --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --compare PARENT_DIR CHANGE_DIR

A run sets up the workload's inputs from ``--seed`` and runs one warm-up
op.  With ``--trace 0`` it then runs whole passes over the workload's ops
until ``--seconds`` have gone by and reports the end-to-end metrics.  With
``--trace 1`` it alternates untimed passes with passes in which every public
l1gram function is wrapped (see tracing.py), for ``--seconds``, and reports
the per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object; the full record of the run (every metric, op times, output
values and hashes, and the environment) goes to a JSON file under
``--out-dir``.

While ops are timed, a fixed reference kernel samples the machine's speed,
and the end-to-end times are reported at reference speed (see
reference.py); the wall-clock figures are printed and recorded beside them
as ``wall.<name>``.
The package runs serially (``L1GRAM_THREADS`` is removed from the
environment) with one BLAS thread, from ``src/`` of the checkout this script
sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
PROBES = 5
MIN_PASSES = 2
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
THREAD_VARS = ("L1GRAM_THREADS",) + BLAS_THREAD_VARS



def percentile(values, q: float) -> float:
    """Inclusive-method percentile (q in (0, 100)) of a non-empty sample."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(q) - 1])


def cold_start_probes(probe: dict) -> tuple:
    """Run probe.py in PROBES fresh interpreters; their set-up times
    (import plus cold-start excess of the first call, floored at 0), as
    measured and at reference speed."""
    import reference

    def gauge():
        return statistics.median(reference.measure() for _ in range(3))

    setups, scaled = [], []
    before = gauge()
    for _ in range(PROBES):
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), json.dumps(probe)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        after = gauge()
        t = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(t["import_s"] + max(0.0, t["first_s"] - t["second_s"]))
        scaled.append(reference.scale(setups[-1], before, after))
        before = after
    return setups, scaled


def git_commit() -> str:
    """The checkout's commit read from .git, or 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        "lapack": config.get("Build Dependencies", {}).get("lapack"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": git_commit(),
    }


class OpRecord:
    """Times, values and output hash of every call of one op."""

    def __init__(self, label):
        self.label = label
        self.cold_s = None
        self.warm_s = []
        self.scaled_s = []  # warm times at reference speed
        self.traced_s = []
        self.values = None
        self.digest = None
        self.failures = []


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.records = {op.label: OpRecord(op.label) for op in workload.ops}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.speeds = []  # the gauge's samples over the warm passes

    def run_op(self, op, phase: str, gauge=None) -> float:
        """Run one op, check its output, record it; return its time.

        Under a gauge, the time its samples took is left out and the op's
        time at reference speed is recorded too.
        """
        from workloads import CheckError

        for path in op.outputs:
            if os.path.exists(path):
                os.remove(path)
        rec = self.records[op.label]
        self.attempted += 1
        error = None
        spent = gauge.spent if gauge else 0.0
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op
            error = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        elapsed = t1 - t0
        if gauge:
            elapsed -= gauge.spent - spent
            rec.scaled_s.append(elapsed * gauge.speed(t0, t1))
        if error is None:
            try:
                values, blob = op.check(result)
                digest = hashlib.sha256(blob).hexdigest()
                if rec.digest is None:
                    rec.values, rec.digest = values, digest
                elif digest != rec.digest:
                    error = "output differs from the op's first call"
            except CheckError as exc:
                error = f"check failed: {exc}"
            except Exception as exc:  # unreadable output is a failed check
                error = f"check failed: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            rec.failures.append(f"{phase}: {error}")
            self.problems.append(f"{op.label} ({phase}): {error}")
        if phase == "cold":
            rec.cold_s = elapsed
        elif phase == "warm":
            rec.warm_s.append(elapsed)
        else:
            rec.traced_s.append(elapsed)
        return elapsed

    def run_pass(self, phase: str, gauge=None) -> float:
        """Run every op once; return their summed time."""
        return sum(self.run_op(op, phase, gauge) for op in self.workload.ops)

    def run_passes(self, seconds: float) -> list:
        """Whole warm passes under a speed gauge until `seconds` have gone
        by, and at least MIN_PASSES; returns each pass's summed op time."""
        import reference

        walls = []
        with reference.Gauge() as gauge:
            start = time.perf_counter()
            while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
                walls.append(self.run_pass("warm", gauge))
        self.speeds = gauge.speeds
        return walls

    def warm_times(self, scaled: bool = False):
        return [t for rec in self.records.values()
                for t in (rec.scaled_s if scaled else rec.warm_s)]


def end_to_end(runner, setups, scaled_setups, walls) -> dict:
    """All nine end-to-end metrics (quality: only the workload's own).

    Times are at reference speed (see reference.py); the same figures as
    measured on the wall clock are kept under ``wall.<name>``.
    """
    times = runner.warm_times()
    scaled = runner.warm_times(scaled=True)
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "throughput_ops_s": (len(scaled) / sum(scaled), "1/s"),
        "op_ms.p50": (1000.0 * percentile(scaled, 50), "ms"),
        "op_ms.p90": (1000.0 * percentile(scaled, 90), "ms"),
        "wall.setup_s": (statistics.median(setups), "s"),
        "wall.throughput_ops_s": (len(times) / sum(walls), "1/s"),
        "wall.op_ms.p50": (1000.0 * percentile(times, 50), "ms"),
        "wall.op_ms.p90": (1000.0 * percentile(times, 90), "ms"),
        "gauge_speed.p50": (statistics.median(runner.speeds), "1"),
        "fail_frac": (runner.failed / runner.attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    values = {label: rec.values for label, rec in runner.records.items()}
    if None not in values.values():
        metrics[runner.workload.quality] = (runner.workload.quality_of(values), "1")
    return metrics


STAT_UNITS = {"busy_s": "s", "self_s": "s", "bytes": "B"}


def per_layer(setup_stats, pass_stats, untraced_walls, traced_walls) -> dict:
    """Layer metrics for one set-up plus one pass, and the tracing overhead.

    Times of the traced passes are averaged; counts are those of any one
    traced pass (run() checks that they repeat exactly).
    """
    out = {}
    names = set(setup_stats) | {n for stats in pass_stats for n in stats}
    for name in sorted(names):
        keys = set(setup_stats.get(name, {}))
        for stats in pass_stats:
            keys |= set(stats.get(name, {}))
        for key in sorted(keys):
            per_pass = [stats.get(name, {}).get(key, 0) for stats in pass_stats]
            value = setup_stats.get(name, {}).get(key, 0) + (
                statistics.fmean(per_pass) if key in ("busy_s", "self_s") else per_pass[0])
            unit = STAT_UNITS.get(key, "count")
            out[f"{name}.{key}"] = (value, unit)
    overhead = statistics.fmean(traced_walls) - statistics.fmean(untraced_walls)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def repeating_counts(stats) -> dict:
    """The stats of one pass that must repeat exactly: all but the times."""
    return {(name, key): v for name, st in stats.items() for key, v in st.items()
            if key not in ("busy_s", "self_s")}


def run(args) -> int:
    if not (SRC / "l1gram" / "__init__.py").is_file():
        print(f"error: the l1gram package is missing under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Serial package, one BLAS thread: set before numpy is first imported.
    os.environ.pop("L1GRAM_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import l1gram.decompose
    import tracing
    import workloads

    if args.workload not in workloads.SETUP:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    if not out_dir.is_absolute():
        out_dir = ROOT / out_dir
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    workdir = out_dir / f"work-{run_id}"
    workdir.mkdir(parents=True)
    try:
        tracer = tracing.Tracer()
        if args.trace:
            tracer.install()
        try:
            workload = workloads.SETUP[args.workload](args.seed, workdir)
        finally:
            tracer.restore()
        setup_spans, setup_counts = tracer.take()
        setups, scaled_setups = ([], []) if args.trace else cold_start_probes(workload.probe)

        runner = Runner(workload)
        runner.run_op(workload.ops[0], "cold")
        spans_path = None
        if not args.trace:
            walls = runner.run_passes(args.seconds)
            metrics = end_to_end(runner, setups, scaled_setups, walls)
        else:
            # Untraced and traced passes alternate, so drift over the run
            # falls on both sides of the overhead estimate.
            original = l1gram.decompose.greedy_peel
            walls, traced_walls, pass_stats = [], [], []
            segments = {"setup": setup_spans}
            start = time.perf_counter()
            while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
                walls.append(runner.run_pass("warm"))
                with tracer:
                    traced_walls.append(runner.run_pass("traced"))
                spans, counts = tracer.take()
                pass_stats.append(tracing.aggregate(spans, counts))
                segments[f"pass{len(pass_stats) - 1}"] = spans
            if l1gram.decompose.greedy_peel is not original:
                runner.problems.append("tracer left a wrapper in place")
            if any(repeating_counts(s) != repeating_counts(pass_stats[0])
                   for s in pass_stats[1:]):
                runner.problems.append("computed counts differ between traced passes")
            metrics = per_layer(tracing.aggregate(setup_spans, setup_counts),
                                pass_stats, walls, traced_walls)
            spans_path = out_dir / f"{run_id}.spans.json.gz"
            tracing.write_spans(spans_path, segments)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = not runner.problems
    for problem in runner.problems:
        print(f"problem: {problem}")
    # a layer function that never ran reads 0; end-to-end metrics must exist
    missing = [] if args.trace else [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed, "problems": runner.problems,
        "passes": len(walls), "op_samples": len(runner.warm_times()),
        "setup_probes_s": setups, "setup_probes_scaled_s": scaled_setups,
        "gauge_speeds": runner.speeds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": [{"label": r.label, "cold_s": r.cold_s, "warm_s": r.warm_s,
                 "scaled_s": r.scaled_s, "traced_s": r.traced_s, "values": r.values,
                 "digest": r.digest, "failures": r.failures}
                for r in runner.records.values()],
        "spans": str(spans_path) if spans_path else None,
        "environment": environment(args.seed),
    }
    result_path = out_dir / f"{run_id}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print_report(args, record, metrics, spec)
    print(f"record: {result_path}")
    final = {m["name"]: {"value": metrics.get(m["name"], (0, m["unit"]))[0],
                         "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": final}))
    return 0


def print_report(args, record, metrics, spec) -> None:
    """Human-readable lines: every metric of the mode, with its unit."""
    from compare import EXACT_METRICS

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload}: {why[args.workload]}")
    print(f"seed {args.seed}, {record['passes']} warm passes, "
          f"{record['op_samples']} warm op samples, "
          f"{record['attempted']} ops attempted, {record['failed']} failed")
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        absent = "0 (not called)"
    else:
        names = [m["name"] for m in spec["end_to_end"]] + list(EXACT_METRICS) + [
            "wall.setup_s", "wall.throughput_ops_s", "wall.op_ms.p50", "wall.op_ms.p90",
            "gauge_speed.p50"]
        absent = "n/a (not this workload's)"
    for name in names:
        if name in metrics:
            value, unit = metrics[name]
            print(f"  {name:<44} {value:>16.6g} {unit}")
        else:
            print(f"  {name:<44} {absent:>16}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", default=".bench_out",
                   help="where run records go (relative to the checkout root)")
    p.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"),
                   help="judge two sets of run records instead of running")
    args = p.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
