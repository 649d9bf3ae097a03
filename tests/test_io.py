
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import l1gram
from l1gram import (
    AsymmetricMatrixError,
    Decomposition,
    GramMatrix,
    ParseError,
    PivotRule,
    Rng,
    greedy_peel,
    load_matrix,
    rho1_exact,
    sample_wishart,
    save_decomposition,
    save_matrix,
)
from l1gram.cli import _report_to_dict


def write_raw(path, text):
    """Write text with its line endings exactly as given."""
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


class TestMatrixRoundTrip:
    def test_identity_exact(self, tmp_path):
        p = tmp_path / "i5.txt"
        save_matrix(p, GramMatrix(np.eye(5)))
        assert np.array_equal(load_matrix(p).entries, np.eye(5))

    def test_random_exact_to_all_digits(self, tmp_path):
        A = sample_wishart(7, Rng(3))
        p = tmp_path / "w.txt"
        save_matrix(p, A)
        assert np.array_equal(load_matrix(p).entries, A.entries)

    def test_scientific_notation_accepted(self, tmp_path):
        p = tmp_path / "sci.txt"
        p.write_text("2\n1e0 2.5E-3\n2.5e-3 -1.25e+1\n")
        A = load_matrix(p)
        assert A.entries[0, 1] == 2.5e-3
        assert A.entries[1, 1] == -12.5


class TestParseErrors:
    def test_truncated_file_line_number(self, tmp_path):
        p = tmp_path / "trunc.txt"
        p.write_text("3\n1 0 0\n0 1 0\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert exc.value.line == 3

    def test_zero_dimension_rejected(self, tmp_path):
        p = tmp_path / "zero.txt"
        p.write_text("0\n")
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_bad_token_and_wrong_count(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2\n1 x\n0 1\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert exc.value.line == 2
        p.write_text("2\n1 0 3\n0 1\n")
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_extra_rows_rejected(self, tmp_path):
        p = tmp_path / "extra.txt"
        p.write_text("1\n1\n2\n")
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_asymmetric_content_rejected(self, tmp_path):
        p = tmp_path / "asym.txt"
        p.write_text("2\n1 2\n3 1\n")
        with pytest.raises(AsymmetricMatrixError):
            load_matrix(p)


# (file text, line, message) recorded with the line-by-line parser that
# preceded the bulk one; the bulk parser must report the same.
PARSE_PARITY = {
    "truncated": ("3\n1 0 0\n0 1 0\n", 3, "expected 3 rows, found 2"),
    "header_only": ("3\n", 1, "expected 3 rows, found 0"),
    "blank_lines": ("\n\n3\n1 0 0\n\n0 1\n\n0 0 1\n", 6,
                    "expected 3 values, found 2"),
    "crlf": ("3\r\n1 0 0\r\n0 x 0\r\n0 0 1\r\n", 3,
             "bad scalar: could not convert string to float: 'x'"),
    "tabs": ("3\n1\t0\t0\n0\t1\n0 0\t\t1\n", 3, "expected 3 values, found 2"),
    "short_row_mid": ("3\n1 0 0\n0 1\n0 0 1\n", 3, "expected 3 values, found 2"),
    "bad_token_last_row": ("3\n1 0 0\n0 1 0\n0 0 x1\n", 4,
                           "bad scalar: could not convert string to float: 'x1'"),
    "extra_row_after_blank": ("3\n1 0 0\n0 1 0\n0 0 1\n\n7\n", 6,
                              "unexpected content after 3 rows"),
    "long_row": ("3\n1 0 0\n0 1 0 5\n0 0 1\n", 3, "expected 3 values, found 4"),
    "hash_comment": ("3\n1 0 0\n0 1 0 # c\n0 0 1\n", 3,
                     "expected 3 values, found 5"),
    "hash_token": ("3\n1 0 0\n0 1 #\n0 0 1\n", 3,
                   "bad scalar: could not convert string to float: '#'"),
    "bad_header": ("x\n1\n", 1, "expected the dimension n, got 'x'"),
    "negative_header": ("\n-1\n", 2, "dimension must be positive, got -1"),
    "empty": ("", 1, "empty file"),
}

# Files the line-by-line parser and the bulk one both read as the 3 x 3 identity.
IDENTITY_LAYOUTS = {
    "blank_lines": "\n\n3\n1 0 0\n\n0 1 0\n\n\n0 0 1\n\n",
    "crlf": "3\r\n1 0 0\r\n0 1 0\r\n0 0 1\r\n",
    "cr": "3\r1 0 0\r0 1 0\r0 0 1\r",
    "tabs": "3\n1\t0\t0\n0\t1 \t0\n0 0\t\t1\n",
    "padding_no_final_newline": "  3 \n 1 0 0\t\n0 1e-0 0\n0 0 +1.",
}


class TestParseParity:
    @pytest.mark.parametrize("name", sorted(PARSE_PARITY))
    def test_line_and_message(self, tmp_path, name):
        text, line, message = PARSE_PARITY[name]
        p = write_raw(tmp_path / f"{name}.txt", text)
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert (exc.value.line, str(exc.value)) == (line, f"{p}:{line}: {message}")

    @pytest.mark.parametrize("name", sorted(IDENTITY_LAYOUTS))
    def test_layouts_read_as_identity(self, tmp_path, name):
        p = write_raw(tmp_path / f"{name}.txt", IDENTITY_LAYOUTS[name])
        assert np.array_equal(load_matrix(p).entries, np.eye(3))


class TestTokenGrammar:
    """Lines end in \\n, \\r\\n or \\r; tokens are separated by spaces
    or tabs; numbers are ASCII decimal or scientific, and finite."""

    @pytest.mark.parametrize("text, line", [
        ("2\n1_0 0\n0 1\n", 2),          # float() reads 10
        ("2\n1 0\f0 1\n", 2),            # str.splitlines splits at \f
        ("2\n1\v0\n0 1\n", 2),          # ... and at \v
        ("2\n1 0\n0 1\f\n", 3),
        ("2\n1 0\n0\u00a01\n", 3),      # no-break space
        ("1\n\u0661\n", 2),              # Arabic-Indic digit one
        ("1\n0x1\n", 2),
        ("0_1\n5\n", 1),                # int() reads 1
    ])
    def test_rejected_at_its_line(self, tmp_path, text, line):
        p = write_raw(tmp_path / "m.txt", text)
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert exc.value.line == line

    @pytest.mark.parametrize("data, line, byte", [
        (b"2\xff\n1 0\n0 1\n", 1, 0xFF),           # header, not UTF-8
        (b"\n\xc3\xa9\n1 0\n0 1\n", 2, 0xC3),      # header, UTF-8
        (b"2\n1 \xff\n0 1\n", 2, 0xFF),            # body, not UTF-8
        (b"2\n1 0\n0\xc2\xa01\n", 3, 0xC2),        # body, UTF-8 no-break space
        (b"2\r\n1 0\r\n0 1\x80\r\n", 3, 0x80),
    ], ids=["header", "header-utf8", "body", "body-utf8", "body-crlf"])
    def test_non_ascii_byte_names_its_line(self, tmp_path, data, line, byte):
        p = tmp_path / "m.txt"
        p.write_bytes(data)
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert str(exc.value) == f"{p}:{line}: non-ASCII byte 0x{byte:02x}"

    @pytest.mark.parametrize("text, line", [
        ("3\n1 0 0\n0 1 0\n0 0 nan\n", 4),
        ("2\n1 1e400\n1e400 1\n", 2),
        ("\n2\n\n1 0\n-inf 1\n", 5),
        ("2\nInfinity 0\n0 NaN\n", 2),
    ])
    def test_non_finite_entry_names_its_line(self, tmp_path, text, line):
        p = write_raw(tmp_path / "m.txt", text)
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert exc.value.line == line
        assert "finite" in str(exc.value)

    def test_random_tokens_follow_float(self, tmp_path):
        # a token is read iff it is ASCII, has no underscore and float()
        # takes it; its value is float()'s
        rng = np.random.default_rng(14)
        alphabet = list("0123456789.eE+-_nafity") + ["inf", "nan", "1e308", "9e9"]
        p = tmp_path / "t.txt"
        for _ in range(400):
            tok = "".join(rng.choice(alphabet, size=rng.integers(1, 6)))
            write_raw(p, f"1\n{tok}\n")
            try:
                want = float(tok) if "_" not in tok else None
            except ValueError:
                want = None
            if want is not None and np.isfinite(want):
                got = load_matrix(p).entries[0, 0]
                assert got == want and np.signbit(got) == np.signbit(want), tok
            else:
                with pytest.raises(ParseError) as exc:
                    load_matrix(p)
                assert exc.value.line == 2, tok

    def test_signed_zero_kept(self, tmp_path):
        p = write_raw(tmp_path / "z.txt", "1\n-0.0\n")
        assert np.signbit(load_matrix(p).entries[0, 0])


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def wishart400():
    return sample_wishart(400, Rng(5))


class TestFrozenWriterBytes:
    """Digests recorded with the per-value writer that preceded the per-row
    one; the files must not change by a byte."""

    def test_save_matrix_wishart(self, tmp_path, wishart400):
        p = tmp_path / "w.txt"
        save_matrix(p, wishart400)
        assert _sha256(p) == (
            "e109e7a5b360e13d58413cbd9278bde3d7bb367d2032f67fe527899a38fba747")
        assert np.array_equal(load_matrix(p).entries, wishart400.entries)

    def test_save_decomposition_greedy(self, tmp_path, wishart400):
        p = tmp_path / "g.txt"
        save_decomposition(p, greedy_peel(wishart400))
        assert _sha256(p) == (
            "a20dd82219f3cf109ef10a5d1e35869255874b8b4699ea84997e821a6ff6a77e")

    @pytest.mark.parametrize("rule, digest", [
        (PivotRule("max_diagonal"),
         "9351a37e78a0faf9218c3b1dc6ebf56b2e27efcf1e5484b091df191339c2bf94"),
        (PivotRule("max_trace_removal"),
         "32d448b3ffd48a7a3f8c1b8ec73c2b89915bcd7a344c23d75691e96896a187e5"),
        (PivotRule.random_order(7),
         "b32391408ba2778227bcdde955e8cc98bf6e5303b513bce3877b502595b1b96d"),
    ], ids=["max_diagonal", "max_trace_removal", "random_order(7)"])
    def test_save_decomposition_greedy_rules(self, tmp_path, wishart400, rule,
                                             digest):
        # recorded on the n x n residual, before greedy_peel's live block
        p = tmp_path / "g.txt"
        save_decomposition(p, greedy_peel(wishart400, rule))
        assert _sha256(p) == digest

    def test_save_decomposition_greedy_rank_deficient(self, tmp_path):
        # FROZEN_INPUTS["rank60"] of test_decompose: k = 60 < n = 96 rows,
        # and the live block compacts along the way
        dec = greedy_peel(sample_wishart(96, Rng(2026), p=60))
        assert dec.vectors.shape == (60, 96)
        p = tmp_path / "r.txt"
        save_decomposition(p, dec)
        assert _sha256(p) == (
            "652e42a46837f225c8446432a5e1fbe08a8c0023798548d6b7697c197fc2e2dc")

    def test_save_decomposition_eigen(self, tmp_path):
        # eigh's bytes change with the OpenBLAS thread count (2 to 4 threads
        # give this digest, 1 thread another), so the export is made in a
        # child pinned to 4 threads, run from the directory that holds the
        # imported package so that it imports the same l1gram
        p = tmp_path / "e.txt"
        code = (
            "import sys\n"
            "from l1gram import Rng, eigen_decomposer, sample_wishart, save_decomposition\n"
            "save_decomposition(sys.argv[1], eigen_decomposer(sample_wishart(400, Rng(5))))\n"
        )
        subprocess.run([sys.executable, "-c", code, str(p)], check=True,
                       cwd=Path(l1gram.__file__).parents[1],
                       env=dict(os.environ, OPENBLAS_NUM_THREADS="4"))
        assert _sha256(p) == (
            "533e61c40368711e8a474274e3b94d57b5817a899de5193f9b448c14bdce4c3e")

    def test_golden_extremes(self, tmp_path):
        values = [-0.0, 5e-324, 1e308, 0.1, 1.0]
        p = tmp_path / "m.txt"
        save_matrix(p, GramMatrix(np.diag(values)))
        assert p.read_text() == (
            "5\n"
            "-0 0 0 0 0\n"
            "0 4.9406564584124654e-324 0 0 0\n"
            "0 0 1e+308 0 0\n"
            "0 0 0 0.10000000000000001 0\n"
            "0 0 0 0 1\n")
        back = load_matrix(p).entries
        assert np.array_equal(back, np.diag(values))
        assert np.signbit(back[0, 0])
        d = tmp_path / "d.txt"
        save_decomposition(d, Decomposition(
            vectors=np.array([values, values[::-1]]), costs=np.array([0.1, 3.0]),
            total_cost=3.1, source="golden"))
        assert d.read_text() == (
            "5 2 3.1000000000000001 golden\n"
            "0 0.10000000000000001 -0 4.9406564584124654e-324 1e+308 "
            "0.10000000000000001 1\n"
            "1 3 1 0.10000000000000001 1e+308 4.9406564584124654e-324 -0\n")


class TestDecompositionExport:
    def test_header_and_rows(self, tmp_path):
        A = sample_wishart(4, Rng(1))
        dec = greedy_peel(A)
        p = tmp_path / "dec.txt"
        save_decomposition(p, dec)
        lines = p.read_text().splitlines()
        n, k, total, source = lines[0].split()
        assert int(n) == 4 and int(k) == dec.k
        assert float(total) == dec.total_cost
        assert source == dec.source
        assert len(lines) == 1 + dec.k
        first = lines[1].split()
        assert int(first[0]) == 0
        assert float(first[1]) == dec.costs[0]
        assert np.array_equal([float(t) for t in first[2:]], dec.vectors[0])


class TestReportJson:
    def test_dict_without_witness(self):
        rep = rho1_exact(GramMatrix(np.eye(2)))
        d = _report_to_dict(rep)
        assert set(d) == {"quantity", "lower", "upper", "method", "certificate",
                          "witness_path"}
        assert d["witness_path"] is None
        assert (d["quantity"], d["certificate"]) == ("rho1", "exact")
        assert d["lower"] == d["upper"] == 1.0
