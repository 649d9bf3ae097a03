import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import l1gram
from l1gram import GramMatrix, save_matrix
from l1gram.cli import _PARSER, build_parser, main
from l1gram.decompose import ValidationReport
from l1gram.experiments import (
    ExperimentRow,
    fit_loglog_exponent,
    rows_to_csv_text,
    run_compare,
    run_lemmas,
    run_scaling,
)


def write_ones(tmp_path, n=3):
    p = tmp_path / "ones.txt"
    save_matrix(p, GramMatrix(np.ones((n, n))))
    return p


def strict_json(text):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def strip_wall_time(csv_text):
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in csv_text.strip().splitlines())


class TestDecomposeCommand:
    def test_all_ones_cost_and_margin(self, tmp_path, capsys):
        p = write_ones(tmp_path)
        code = main(["decompose", str(p), "--out", str(tmp_path / "dec.txt")])
        out = capsys.readouterr().out
        assert code == 0
        assert "total_cost      9" in out
        assert "bound_margin    0" in out
        assert (tmp_path / "dec.txt").exists()
        report = json.loads((tmp_path / "dec.txt.report.json").read_text())
        assert report["total_cost"] == 9.0
        assert report["bound_margin"] == 0.0
        assert report["reconstruction_ok"] is True

    def test_report_keys_follow_the_dataclasses(self, tmp_path, capsys):
        p = write_ones(tmp_path)
        assert main(["decompose", str(p), "--out", str(tmp_path / "dec.txt")]) == 0
        report = json.loads((tmp_path / "dec.txt.report.json").read_text())
        assert list(report) == [
            "n", "vectors", "total_cost", "source", "residual_trace",
            *(f.name for f in dataclasses.fields(ValidationReport))]

    @pytest.mark.parametrize("method", ["peel", "eigen"])
    def test_overflowing_input_exits_3_with_strict_report(self, method,
                                                          tmp_path, capsys):
        # tr A and ||A||_1 overflow, so nothing bounds the reconstruction
        # error; peeling stops with no vector peeled
        p = tmp_path / "big.txt"
        p.write_text("2\n1e308 0\n0 1e308\n")
        out = tmp_path / "dec.txt"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["decompose", str(p), "--method", method,
                         "--out", str(out)])
        assert code == 3
        report = strict_json((tmp_path / "dec.txt.report.json").read_text())
        assert report["reconstruction_ok"] is False
        assert report["reconstruction_allowance"] is None
        assert report["n_times_trace"] is None
        assert "not finite" in report["messages"][0]
        assert "not finite" in capsys.readouterr().err

    def test_diagonal_cost_equals_trace(self, tmp_path, capsys):
        p = tmp_path / "diag.txt"
        save_matrix(p, GramMatrix(np.diag([1.0, 2.0, 4.0])))
        assert main(["decompose", str(p)]) == 0
        assert "total_cost      7" in capsys.readouterr().out

    def test_eigen_method(self, tmp_path, capsys):
        p = write_ones(tmp_path)
        assert main(["decompose", str(p), "--method", "eigen"]) == 0
        assert "vectors         1" in capsys.readouterr().out

    def test_asymmetric_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "asym.txt"
        p.write_text("2\n1 2\n3 1\n")
        assert main(["decompose", str(p)]) == 2

    def test_non_psd_exits_2(self, tmp_path, capsys):
        p = tmp_path / "npsd.txt"
        p.write_text("2\n0 1\n1 0\n")
        assert main(["decompose", str(p)]) == 2
        assert "not positive semidefinite" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path):
        p = tmp_path / "trunc.txt"
        p.write_text("3\n1 0 0\n")
        assert main(["decompose", str(p)]) == 2

    @pytest.mark.parametrize("text", ["2\n1 0\n0 nan\n", "2\n1 0\n0 1e400\n",
                                      "2\n1 0\n0 x\n"])
    def test_bad_entry_names_file_and_line(self, text, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        assert main(["decompose", str(p)]) == 2
        assert f"error: {p}:3: " in capsys.readouterr().err

    @pytest.mark.parametrize("data, line", [(b"2\xff\n1 0\n0 1\n", 1),
                                            (b"2\n1 \xff\n0 1\n", 2)],
                             ids=["header", "body"])
    def test_non_ascii_byte_names_file_and_line(self, data, line, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_bytes(data)
        assert main(["decompose", str(p)]) == 2
        assert f"error: {p}:{line}: non-ASCII byte 0xff" in capsys.readouterr().err

    def test_pivot_choices_in_order(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["decompose", "--help"])
        assert ("--pivot {min_cost_per_trace,max_diagonal,max_trace_removal,"
                "random_order}\n") in capsys.readouterr().out
        p = write_ones(tmp_path)
        for pivot in ("min_cost_per_trace", "max_diagonal", "max_trace_removal",
                      "random_order"):
            assert main(["decompose", str(p), "--pivot", pivot]) == 0
        with pytest.raises(SystemExit):
            main(["decompose", str(p), "--pivot", "fixed_order"])


class TestCompareCommand:
    def test_csv_deterministic_apart_from_wall_time(self, tmp_path):
        args = ["compare", "--n", "6", "--trials", "4", "--seed", "9",
                "--ensemble", "wishart", "--format", "csv"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert strip_wall_time(out1.read_text()) == strip_wall_time(out2.read_text())

    def test_all_ones_ratio_one(self, tmp_path):
        out = tmp_path / "ones.csv"
        assert main(["compare", "--n", "5", "--trials", "2", "--ensemble",
                     "all_ones", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        ratios = [float(l.split(",")[4]) for l in lines[1:]
                  if l.split(",")[3] == "cost_ratio"]
        assert all(r == pytest.approx(1.0, rel=1e-9) for r in ratios)

    def test_json_format(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["compare", "--n", "4", "--trials", "2", "--format", "json",
                     "--out", str(out)]) == 0
        rows = strict_json(out.read_text())
        assert {"experiment", "n", "seed", "quantity", "value", "method",
                "certificate", "wall_time_ms"} <= set(rows[0])

    def test_circulant_ensemble_peeling_wins(self, tmp_path):
        # near-diagonal circulants have delocalized eigenvectors, so the
        # eigen route pays ~n * tr(A) while peeling pays ~tr(A)
        out = tmp_path / "circ.csv"
        assert main(["compare", "--n", "16", "--trials", "3", "--ensemble",
                     "circulant", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()[1:]
        win = [float(l.split(",")[4]) for l in lines
               if l.split(",")[3] == "peel_win_rate"]
        assert win == [1.0]
        ratios = [float(l.split(",")[4]) for l in lines
                  if l.split(",")[3] == "cost_ratio"]
        assert all(r < 0.25 for r in ratios)


class TestScalingCommand:
    def test_exact_mode_matches_certify_ratio(self, tmp_path):
        from l1gram import certify_ratio
        out = tmp_path / "s.csv"
        assert main(["scaling", "--n", "4,6", "--seeds", "2", "--seed", "11",
                     "--mode", "exact", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()[1:]
        got = {}
        for l in lines:
            f = l.split(",")
            if f[3] == "ratio":
                got[(int(f[1]), int(f[2]))] = float(f[4])
        # seeds expand as base + flat index over the (n, seed) grid
        expect = {(4, 11): certify_ratio(4, 11, mode="exact").ratio.lower,
                  (4, 12): certify_ratio(4, 12, mode="exact").ratio.lower,
                  (6, 13): certify_ratio(6, 13, mode="exact").ratio.lower,
                  (6, 14): certify_ratio(6, 14, mode="exact").ratio.lower}
        assert got == expect

    def test_exact_mode_rejects_large_n(self):
        assert main(["scaling", "--n", "20", "--mode", "exact"]) == 2

    def test_single_n_exponent_flagged(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["scaling", "--n", "6", "--seeds", "3", "--mode", "exact",
                     "--out", str(out)]) == 0
        row = [l for l in out.read_text().splitlines()
               if "scaling_exponent" in l][0]
        fields = row.split(",")
        assert fields[5] == "loglog_fit_undefined"
        assert fields[4] == "nan"

    @pytest.mark.parametrize("argv, nulls", [
        (["--n", "4", "--seeds", "1", "--mode", "exact"], {"scaling_exponent"}),
        # at n = 1 there is no witness, so the ratio is NaN as well
        (["--n", "1", "--seeds", "1", "--mode", "heuristic"],
         {"ratio", "scaling_exponent"}),
    ], ids=["exact", "heuristic-n1"])
    def test_json_writes_non_finite_values_as_null(self, argv, nulls, capsys):
        assert main(["scaling", *argv, "--format", "json"]) == 0
        rows = strict_json(capsys.readouterr().out)
        assert {r["quantity"] for r in rows if r["value"] is None} == nulls
        assert main(["scaling", *argv]) == 0
        csv_nan = {l.split(",")[3] for l in capsys.readouterr().out.splitlines()
                   if l.split(",")[4] == "nan"}
        assert csv_nan == nulls


class TestLemmasCommand:
    def test_runs_and_reports(self, tmp_path):
        out = tmp_path / "l.csv"
        assert main(["lemmas", "--n", "12,24", "--trials", "3", "--seed", "2",
                     "--c", "1.5", "--out", str(out)]) == 0
        text = out.read_text()
        assert "witness_large_fraction" in text
        assert "bai_yin_mean" in text
        assert "tail_bound" in text
        assert "witness_c_threshold" in text


class TestBoundsCommand:
    def test_small_matrix_reports(self, tmp_path, capsys):
        p = tmp_path / "t.txt"
        save_matrix(p, GramMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert main(["bounds", str(p)]) == 0
        reports = json.loads(capsys.readouterr().out)
        by_method = {r["method"]: r for r in reports}
        assert by_method["exact_enumeration"]["upper"] == pytest.approx(0.5)
        assert by_method["rank1_witness"]["lower"] == pytest.approx(0.5)
        assert by_method["dual_ap"]["upper"] <= 1.0 + 1e-6

    def test_large_matrix_uses_multistart(self, tmp_path, capsys):
        from l1gram import Rng, sample_wishart
        p = tmp_path / "big.txt"
        save_matrix(p, sample_wishart(15, Rng(4)))
        assert main(["bounds", str(p)]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["method"] == "multistart"

    def test_zero_matrix_has_two_sided_dual_bracket(self, tmp_path, capsys):
        # piplus(0) = 0 exactly: A = 0 is feasible and Y = 0 is dual feasible
        p = tmp_path / "zero.txt"
        save_matrix(p, GramMatrix(np.zeros((3, 3))))
        assert main(["bounds", str(p)]) == 0
        dual = json.loads(capsys.readouterr().out)[2]
        assert dual["method"] == "dual_ap"
        assert dual["lower"] == 0.0 and dual["upper"] == 0.0


    def test_overflowing_input_writes_strict_json(self, tmp_path, capsys):
        p = tmp_path / "big.txt"
        p.write_text("2\n1e308 0\n0 1e308\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["bounds", str(p)]) == 0
        reports = strict_json(capsys.readouterr().out)
        assert reports[0]["lower"] == reports[0]["upper"] == 1e308
        assert reports[2]["upper"] is None  # inf: the dual is inconclusive


def rows_digest(rows):
    items = [(r.experiment, r.n, r.seed, r.quantity, repr(float(r.value)),
              r.method, r.certificate) for r in rows]
    return hashlib.sha256(repr(items).encode()).hexdigest()


FROZEN_RUNS = {
    "compare-wishart": lambda: run_compare([5, 7], 3, "wishart", 11),
    "compare-circulant": lambda: run_compare([5, 7], 3, "circulant", 11),
    "compare-all_ones": lambda: run_compare([5, 7], 3, "all_ones", 11),
    "compare-diagonal": lambda: run_compare([5, 7], 3, "diagonal", 11),
    "scaling-exact": lambda: run_scaling([4, 5, 6], 2, 3, mode="exact"),
    "scaling-heuristic": lambda: run_scaling([30, 40], 2, 4, mode="heuristic"),
    "lemmas": lambda: run_lemmas([8, 12, 30], 3, 5, c=1.5),
}
FROZEN_DIGESTS = {
    "compare-wishart":
        "35e44837428975e7842e8a027d122508726d7fe937641e8631d97de72b7a2cc2",
    "compare-circulant":
        "b6dcf169f546027e826558d271c49d7220fe5f573d1fc94ccc194613f5cfcd34",
    "compare-all_ones":
        "e9762799679a516b68248c334368584711dc0cba4447f6dd745fb269933fa074",
    "compare-diagonal":
        "f82e9d81298cfd7d1e087334d0f5ccdba92778ec53edb1e918c54298e11ed9fb",
    "scaling-exact":
        "2a40d68079aa87e1f2373ad8b0ee482285799b23a30411fa8bc042340997217e",
    # re-recorded when piplus_lower became the certified pick of
    # certify_ratio; was f44595c7afaab22451c0ac1444b1f1e034e7c589c3443b3ca2eec29b965a3ca4
    # re-recorded when the multistart gradient became 8-row gemm blocks
    # against a 32-padded T; was da1a438c226f3986aa946b6f6f480c5295444df5c56f9d8180ec9990ac3fa44a
    # re-recorded when run_scaling lost restarts/steps, so the case moved
    # from 4 x 50 to the fixed 64 x 500; was 7eb097a119574f2fd0c70d267840e198ea332c1ec12b5060a8653761286d7ac5
    # re-recorded when the multistart began its face jumps; was
    # 3949b7dbeef79cc446e41d60283a4ddf2216d757e1971104581a59e619a19280
    "scaling-heuristic":
        "9b6eb36338a2ed3cb7315be991715160b5538de471ceb051b15156ba3b076cd8",
    # re-recorded when each n's Bai-Yin trials, restricted-norm W and subsets
    # came from disjoint children of one per-n root; was ff3e8d0016db27ba137cf04d8ee914c7b7a233e3701f23bc88a63c987a1429f7
    "lemmas":
        "17a4dc6350494e86a1de4978bc85e12de20baffcf74fc121ce10702c7fe8d37a",
}


class TestFrozenExperiments:
    """SHA-256 of experiment rows (wall_time_ms dropped, values by repr),
    recorded before the suites shared one grid expander and one ensemble
    factory."""

    @pytest.mark.parametrize("run", sorted(FROZEN_RUNS))
    def test_rows_digest(self, run):
        assert rows_digest(FROZEN_RUNS[run]()) == FROZEN_DIGESTS[run]


def test_lemmas_draws_no_word_twice(monkeypatch):
    # each n draws its Bai-Yin trials, its restricted-norm W and its subsets
    # from disjoint streams; n = 50's size-5 subsets once shared a stream
    # with n = 52's Bai-Yin trial 5
    drawn = []
    real_u64 = l1gram.Rng.u64

    def u64(self, count):
        drawn.extend((self.seed, self.counter + j) for j in range(count))
        return real_u64(self, count)

    monkeypatch.setattr(l1gram.Rng, "u64", u64)
    run_lemmas([50, 52], 6, 1)
    assert drawn and len(set(drawn)) == len(drawn)


@pytest.mark.parametrize("argv", [
    ["lemmas", "--n", "12", "--trials", "0"],
    ["compare", "--n", "0", "--ensemble", "circulant"],
    ["compare", "--trials", "-3"],
    ["scaling", "--seeds", "-1"],
    ["compare", "--n", ""],
    ["scaling", "--n", ","],
    ["lemmas", "--n", ""],
], ids=["lemmas-trials0", "compare-n0", "compare-trials-3", "scaling-seeds-1",
        "compare-n-empty", "scaling-n-comma", "lemmas-n-empty"])
def test_grid_counts_below_one_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_lemmas_repeated_n_exits_2(capsys):
    # each n's Bai-Yin and restricted-norm rows draw from Rng(seed).child(n),
    # so a repeated n could only print the same rows twice under one key
    assert main(["lemmas", "--n", "12,12", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize("c", ["nan", "inf", "-3"])
@pytest.mark.parametrize("argv", [
    ["scaling", "--n", "4", "--seeds", "1", "--mode", "exact"],
    ["scaling", "--n", "20", "--seeds", "1", "--mode", "heuristic"],
    ["lemmas", "--n", "12", "--trials", "1"],
    # at n = 1 no witness is built, so c is checked before the grid runs
    ["scaling", "--n", "1", "--seeds", "1", "--mode", "exact"],
    ["scaling", "--n", "1", "--seeds", "1", "--mode", "heuristic"],
    ["lemmas", "--n", "1", "--trials", "1"],
], ids=["scaling-exact", "scaling-heuristic", "lemmas", "scaling-exact-n1",
        "scaling-heuristic-n1", "lemmas-n1"])
def test_non_finite_witness_c_exits_2(argv, c, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(argv + ["--c", c, "--out", str(out)]) == 2
    assert "error: c must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["decompose-missing", "bounds-directory",
                                  "decompose-out", "compare-out"])
def test_unreadable_or_unwritable_file_exits_2(case, tmp_path, capsys):
    # an OSError is a validation failure, not a traceback with exit 1
    gone = tmp_path / "no-such-dir" / "out.txt"
    argv = {"decompose-missing": ["decompose", str(tmp_path / "missing.txt")],
            "bounds-directory": ["bounds", str(tmp_path)],
            "decompose-out": ["decompose", str(write_ones(tmp_path)),
                              "--out", str(gone)],
            "compare-out": ["compare", "--n", "3", "--trials", "1",
                            "--out", str(gone)]}[case]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _must_not_run(*args, **kwargs):
    raise AssertionError("the work ran before --out was checked")


BAD_OUT_CASES = [(command, out)
                 for out in ("missing-dir", "directory", "unwritable",
                             "read-only", "empty")
                 for command in ("decompose", "bounds", "compare", "scaling",
                                 "lemmas")]
BAD_OUT_CASES.append(("decompose", "report-directory"))


@pytest.mark.parametrize("command, out", BAD_OUT_CASES,
                         ids=[f"{command}-{out}" for command, out in BAD_OUT_CASES])
def test_bad_out_exits_2_before_any_work(command, out, tmp_path, capsys,
                                         monkeypatch):
    # a missing parent directory, a directory, an unwritable directory, a
    # read-only file or an empty path as --out is found before the grid, the
    # peeling or the solver runs, and no file is made or changed; so is a
    # directory where decompose would write its report
    monkeypatch.setattr(l1gram.experiments, "_run_grid", _must_not_run)
    monkeypatch.setattr(l1gram.cli, "greedy_peel", _must_not_run)
    monkeypatch.setattr(l1gram.cli, "piplus_dual_upper", _must_not_run)
    target = {"missing-dir": tmp_path / "no-such-dir" / "out.txt",
              "directory": tmp_path / "outdir",
              "unwritable": tmp_path / "outdir" / "out.txt",
              "read-only": tmp_path / "outdir" / "out.txt",
              "report-directory": tmp_path / "outdir" / "out.txt",
              "empty": ""}[out]
    if out not in ("missing-dir", "empty"):
        (tmp_path / "outdir").mkdir()
    if out == "report-directory":
        (tmp_path / "outdir" / "out.txt.report.json").mkdir()
    if out == "read-only":
        target.write_text("kept\n")
    if out in ("unwritable", "read-only"):
        # root ignores mode bits, so the permission answer is faked: the
        # directory in one case, the existing file in the other
        denied = str(target.parent if out == "unwritable" else target)
        real_access = os.access
        monkeypatch.setattr(l1gram.cli.os, "access",
                            lambda path, mode: path != denied
                            and real_access(path, mode))
    M = tmp_path / "m.txt"
    save_matrix(M, l1gram.build_T(4, l1gram.Rng(3)) if command == "bounds"
                else GramMatrix(np.ones((3, 3))))
    argv = {"decompose": ["decompose", str(M)],
            "bounds": ["bounds", str(M)],
            "compare": ["compare", "--n", "3", "--trials", "1"],
            "scaling": ["scaling", "--n", "4", "--seeds", "1"],
            "lemmas": ["lemmas", "--n", "6", "--trials", "1"]}[command]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert sorted(tmp_path.rglob("*")) == before
    if out == "read-only":
        assert target.read_text() == "kept\n"


def _raise_lapack_failure(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("solver,command", [
    ("eigh", "bounds"),
    ("eigvalsh", "bounds"),
    ("eigh", "decompose-eigen"),
    ("eigvalsh", "lemmas"),
])
def test_every_lapack_failure_exits_3(solver, command, tmp_path, capsys,
                                      monkeypatch):
    # LinAlgError subclasses ValueError; it must still map to the numerical
    # exit code, whichever call site raises it
    T = tmp_path / "t.txt"
    save_matrix(T, l1gram.build_T(6, l1gram.Rng(3)))
    out = tmp_path / "out.txt"
    argv = {"bounds": ["bounds", str(T)],
            "decompose-eigen": ["decompose", str(write_ones(tmp_path)),
                                "--method", "eigen"],
            "lemmas": ["lemmas", "--n", "6", "--trials", "1"]}[command]
    monkeypatch.setattr(np.linalg, solver, _raise_lapack_failure)
    assert main(argv + ["--out", str(out)]) == 3
    assert "numerical error: Eigenvalues did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_certificate_tags_consistent_with_methods():
    rows = (run_compare([5], 3, "wishart", 2)
            + run_scaling([4, 5], 2, 3, mode="exact")
            + run_scaling([30], 2, 4, mode="heuristic")
            + run_lemmas([12], 3, 5, c=1.5))
    for r in rows:
        if "exact_enumeration" in r.method:
            assert r.certificate == "exact", r
        if ("monte_carlo" in r.method or "multistart" in r.method
                or "loglog" in r.method):
            assert r.certificate == "heuristic", r
        assert r.certificate in ("exact", "certified_bound", "heuristic"), r


def test_heuristic_piplus_lower_is_certified():
    # the row is a certified lower bound on piplus, and the rank-one witness
    # of the multistart point already gives piplus >= rho1_value
    rows = run_scaling([2, 30, 40], 2, 4, mode="heuristic")
    cells = {}
    for r in rows:
        cells.setdefault((r.n, r.seed), {})[r.quantity] = r
    for (n, seed), cell in cells.items():
        if n == 0:
            continue
        pi = cell["piplus_lower"]
        assert pi.certificate == "certified_bound"
        assert pi.value >= cell["rho1_value"].value, (n, seed)


def test_row_keys_unique_within_each_run():
    for rows in (run_compare([5, 6], 3, "wishart", 2),
                 run_scaling([4, 5], 3, 3, mode="exact"),
                 run_lemmas([8, 12], 3, 5, c=1.5)):
        keys = [(r.experiment, r.n, r.seed, r.quantity, r.method) for r in rows]
        assert len(keys) == len(set(keys))


def test_compare_summarises_each_block():
    # a repeated n gets one peel_win_rate row per block, over that block's
    # trials; at base seed 2 the blocks' rates are 0 and 1/3
    def win_rates(rows):
        return [(r.n, r.value, r.method) for r in rows
                if r.quantity == "peel_win_rate"]

    first = run_compare([5], 3, "diagonal", 2)
    second = run_compare([5], 3, "diagonal", 5)
    assert win_rates(first) != win_rates(second)
    both = run_compare([5, 5], 3, "diagonal", 2)
    assert win_rates(both) == win_rates(first) + win_rates(second)


def test_fit_loglog_exponent_basics():
    assert fit_loglog_exponent([10, 1000], [1.0, 10.0]) == pytest.approx(0.5)
    assert np.isnan(fit_loglog_exponent([10, 10], [1.0, 2.0]))
    assert np.isnan(fit_loglog_exponent([10, 100], [-1.0, 0.0]))


def test_console_entry_point_runs():
    # run from the directory that holds the imported package, so the child
    # finds it whether it came from PYTHONPATH, pytest's pythonpath or site
    proc = subprocess.run([sys.executable, "-m", "l1gram.cli", "--version"],
                          capture_output=True, text=True,
                          cwd=Path(l1gram.__file__).parents[1])
    assert proc.returncode == 0
    assert "l1gram" in proc.stdout


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    # main parses with the parser built at import: no call constructs one,
    # and neither another command nor an argparse exit changes what the
    # next call sees
    scaling = ["scaling", "--n", "4", "--seeds", "1", "--out"]
    assert main(scaling + [str(tmp_path / "a.csv")]) == 0
    M = tmp_path / "t.txt"
    save_matrix(M, l1gram.build_T(4, l1gram.Rng(3)))
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["bounds", str(M), "--out", str(tmp_path / "t.json")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["scaling", "--no-such-option"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert main(scaling + [str(tmp_path / "b.csv")]) == 0
    assert built == []
    assert (strip_wall_time((tmp_path / "a.csv").read_text())
            == strip_wall_time((tmp_path / "b.csv").read_text()))


def test_help_is_sized_when_printed(capsys, monkeypatch):
    # argparse reads COLUMNS when it formats help, not when it builds the
    # parser, so the parser built at import prints what a fresh one prints
    helps = []
    for columns in ("60", "100"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["scaling", "--help"])
        helps.append(capsys.readouterr().out)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scaling", "--help"])
        assert capsys.readouterr().out == helps[-1]
    assert helps[0] != helps[1]


def test_parser_defaults_are_hashable():
    # every call's Namespace shares the one parser's default objects, so
    # none may be a mutable container that a handler could change for the
    # calls after it
    subparsers = [a for a in _PARSER._actions
                  if isinstance(a, argparse._SubParsersAction)]
    parsers = [_PARSER, *subparsers[0].choices.values()]
    assert len(parsers) == 6
    unhashable = []
    for parser in parsers:
        for action in parser._actions:
            try:
                hash(action.default)
            except TypeError:
                unhashable.append((parser.prog, action.dest))
    assert unhashable == []


def test_csv_schema_order():
    row = ExperimentRow("x", 1, 2, "q", 0.5, "m", "exact", 7)
    text = rows_to_csv_text([row])
    assert text.splitlines()[0] == \
        "experiment,n,seed,quantity,value,method,certificate,wall_time_ms"
    assert text.splitlines()[1] == "x,1,2,q,0.5,m,exact,7"
