"""Tests of the benchmark itself: metric names, span arithmetic, wrapper
restoration, computed counts, seeded inputs and the speed gauge."""

import json
import math
import re
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import l1gram  # noqa: E402
import l1gram.cli  # noqa: E402
import l1gram.decompose  # noqa: E402
import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_plain():
    names = [m["name"] for key in ("end_to_end", "per_layer", "workloads")
             for m in SPEC[key]]
    names += list(compare.EXACT_METRICS)
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    assert len(set(names)) == len(names)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.SETUP)
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]


def test_per_layer_metrics_name_traced_functions():
    layers = set(tracing.LAYERS) | {"trace"}
    for m in SPEC["per_layer"]:
        assert m["name"].split(".")[0] in layers, m["name"]


def span(sid, parent, start, end, name="f"):
    return (sid, parent, name, start, end, False)


def test_self_time_of_nested_spans():
    spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 3.0), span(3, 2, 1.5, 2.5),
             span(4, 1, 5.0, 9.0)]
    own = tracing.self_times(spans)
    assert own == {1: 10.0 - 2.0 - 4.0, 2: 2.0 - 1.0, 3: 1.0, 4: 4.0}


def test_self_time_of_overlapping_and_overhanging_children():
    # children overlap each other and one reaches past the parent's end
    spans = [span(1, 0, 0.0, 10.0), span(2, 1, 2.0, 6.0), span(3, 1, 4.0, 8.0),
             span(4, 1, 9.0, 12.0)]
    own = tracing.self_times(spans)
    assert math.isclose(own[1], 10.0 - 6.0 - 1.0)
    assert tracing.union_length([(0, 1), (1, 2), (5, 4)], 0, 10) == 2


def test_aggregate_sums_calls_busy_self_failed_and_counts():
    spans = [span(1, 0, 0.0, 4.0, "a"), span(2, 1, 1.0, 2.0, "b"),
             (3, 0, "b", 5.0, 6.0, True)]
    stats = tracing.aggregate(spans, {"b": {"bytes": 7}})
    assert stats["a"] == {"calls": 1, "busy_s": 4.0, "self_s": 3.0, "failed": 0}
    assert stats["b"] == {"calls": 2, "busy_s": 2.0, "self_s": 2.0, "failed": 1,
                          "bytes": 7}


def _bindings():
    """Every attribute of every l1gram module and patched class."""
    snap = {}
    for name, mod in sys.modules.items():
        if name == "l1gram" or name.startswith("l1gram."):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (l1gram.Rng, l1gram.GramMatrix):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def test_tracer_restores_every_original(tmp_path):
    original = l1gram.decompose.greedy_peel
    before = _bindings()
    A = l1gram.sample_wishart(6, l1gram.Rng(3))
    l1gram.save_matrix(tmp_path / "a.txt", A)
    with tracing.Tracer() as tracer:
        assert l1gram.decompose.greedy_peel is not original
        assert l1gram.greedy_peel is l1gram.decompose.greedy_peel
        assert l1gram.cli.greedy_peel is l1gram.decompose.greedy_peel
        rc = workloads.run_cli(["decompose", str(tmp_path / "a.txt"),
                                "--out", str(tmp_path / "d.txt")])
    assert rc == 0
    stats = tracing.aggregate(*tracer.take())
    assert stats["decompose.greedy_peel"]["calls"] == 1
    assert stats["cli.main"]["calls"] == 1
    assert stats["linalg.GramMatrix"]["calls"] >= 6
    assert l1gram.decompose.greedy_peel is original
    assert _bindings() == before


def test_setup_calls_are_traced(tmp_path):
    with tracing.Tracer() as tracer:
        workloads.SETUP["bounds"](1, tmp_path)
    stats = tracing.aggregate(*tracer.take())
    assert stats["randcert.build_T"]["calls"] == 5  # T30, three T12, the T4 probe
    assert stats["matio.save_matrix"]["calls"] == 6


def test_wrapper_records_failures_and_reraises():
    with tracing.Tracer() as tracer:
        with pytest.raises(ValueError):
            l1gram.Rng(1).u64(-1)
    stats = tracing.aggregate(*tracer.take())
    assert stats["rng.Rng.u64"]["failed"] == 1


def _computed_counts(tmp_path):
    A = l1gram.sample_wishart(7, l1gram.Rng(5))
    path = tmp_path / "a.txt"
    l1gram.save_matrix(path, A)
    W = l1gram.sample_W(9, l1gram.Rng(2))
    with tracing.Tracer() as tracer:
        B = l1gram.load_matrix(path)
        dec = l1gram.greedy_peel(B)
        l1gram.save_decomposition(tmp_path / "d.txt", dec)
        l1gram.rho1_exact(l1gram.build_T(5, l1gram.Rng(1)))
        l1gram.max_restricted_norm(W, 3)
        l1gram.max_restricted_norm(W, 4, mode="monte_carlo", samples=11,
                                   rng=l1gram.Rng(4))
        l1gram.Rng(9).normal(5)
    return tracing.aggregate(*tracer.take())


def test_computed_counts_follow_arguments_and_repeat(tmp_path):
    stats = _computed_counts(tmp_path)
    assert stats["matio.load_matrix"]["bytes"] == (tmp_path / "a.txt").stat().st_size
    assert stats["matio.save_decomposition"]["bytes"] == (tmp_path / "d.txt").stat().st_size
    assert stats["decompose.peel_step"]["calls"] == 7
    assert stats["bounds.rho1_exact"]["systems"] == sum(
        math.comb(5, k) * 2 ** (k - 1) for k in range(2, 6))
    assert stats["randcert.max_restricted_norm"]["subsets"] == math.comb(9, 3) + 11
    assert stats["randcert.max_restricted_norm"]["exhaustive_calls"] == 1
    # build_T(5): 10 words; Monte Carlo subsets: 11 * 4; normal(5): 2 * 3
    assert stats["rng.Rng.u64"]["words"] == 10 + 44 + 6
    again = _computed_counts(tmp_path)
    assert run.repeating_counts(again) == run.repeating_counts(stats)


@pytest.mark.parametrize("name", sorted(workloads.SETUP))
def test_seed_changes_inputs(tmp_path, name):
    inputs = []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        wl = workloads.SETUP[name](seed, workdir)
        assert wl.ops and len({op.label for op in wl.ops}) >= 3
        inputs.append({p.name: p.read_bytes() for p in sorted(workdir.iterdir())})
    assert inputs[0].keys() == inputs[1].keys()
    assert inputs[0] != inputs[1]


def test_seed_keeps_metric_names(tmp_path):
    names = []
    for seed in (1, 2):
        assert run.main(["--workload", "scaling-exact", "--seed", str(seed),
                         "--seconds", "0", "--trace", "1",
                         "--out-dir", str(tmp_path)]) == 0
        (record,) = [json.loads(p.read_text()) for p in tmp_path.glob(f"*seed{seed}-*.json")]
        assert record["correct"] and record["failed"] == 0
        names.append(set(record["metrics"]))
    assert names[0] == names[1]
    assert {"bounds.rho1_exact.systems", "trace.overhead_s"} <= names[0]
    assert "decompose.greedy_peel.calls" not in names[0]


def _record(seed, value, digest="x"):
    return {"workload": "w", "seed": seed, "trace": 0,
            "metrics": {"op_ms.p50": {"value": value, "unit": "ms"},
                        "fail_frac": {"value": 0.0, "unit": "1"}},
            "ops": [{"label": "a", "values": {"v": 1.0}, "digest": digest}]}


def _write(directory, records):
    directory.mkdir()
    for i, rec in enumerate(records):
        (directory / f"{i}.json").write_text(json.dumps(rec))


def test_compare_verdicts(tmp_path):
    spec = {"end_to_end": [{"name": "op_ms.p50", "unit": "ms", "better": "lower",
                            "bound": 0.1}]}
    parent = [_record(s, 100.0 + s % 3) for s in range(10)]
    _write(tmp_path / "p", parent)
    _write(tmp_path / "same", [_record(s, 100.0 + (s + 1) % 3) for s in range(10)])
    _write(tmp_path / "fast", [_record(s, 80.0) for s in range(10)])
    _write(tmp_path / "slow", [_record(s, 120.0, digest="y") for s in range(10)])
    verdicts = {}
    for side in ("same", "fast", "slow"):
        rows, changed = compare.compare(tmp_path / "p", tmp_path / side, spec)
        verdicts[side] = {r[1]: r[-1] for r in rows}
        assert bool(changed) == (side == "slow")
    assert verdicts["same"]["op_ms.p50"] == "unchanged"
    assert verdicts["fast"]["op_ms.p50"] == "better"
    assert verdicts["slow"]["op_ms.p50"] == "worse"
    assert verdicts["same"]["fail_frac"] == "unchanged"


def test_compare_reports_wide_spread_as_unresolved():
    parent = [50.0, 150.0, 100.0, 60.0, 140.0]
    change = [90.0, 95.0, 120.0, 100.0, 70.0]
    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, [1.0] * 5, pairs, "lower", 0.1) == "better"


def test_percentile_matches_inclusive_quantiles():
    values = list(np.linspace(1.0, 2.0, 11))
    assert math.isclose(run.percentile(values, 50), 1.5)
    assert math.isclose(run.percentile(values, 90), 1.9)
    assert run.percentile([3.0], 90) == 3.0


def test_gauge_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with reference.Gauge() as gauge:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(gauge.starts) == len(gauge.speeds) >= 3
    assert gauge.starts == sorted(gauge.starts)
    assert gauge.spent > 0 and all(v > 0 for v in gauge.speeds)


def test_gauge_speed_is_the_mean_over_the_widened_window():
    gauge = reference.Gauge()
    gauge.starts = [0.0, 1.0, 1.5, 2.1, 9.0]
    gauge.speeds = [4.0, 1.0, 0.5, 0.6, 2.0]
    margin = reference.WINDOW_MARGIN_S
    assert 0.0 < margin < 0.25
    assert math.isclose(gauge.speed(1.0, 2.1), (1.0 + 0.5 + 0.6) / 3)
    assert math.isclose(gauge.speed(0.0, 0.0), 4.0)
    assert gauge.speed(1.01 + margin, 1.49 - margin) == 1.0  # no sample: unscaled
    assert math.isclose(reference.scale(2.0, 1.0, 3.0),
                        2.0 * reference.NOMINAL_UNIT_S * reference.MEASURE_UNITS / 2.0)
