
import numpy as np
import pytest

from l1gram import (
    AsymmetricMatrixError,
    GramMatrix,
    ParseError,
    Rng,
    greedy_peel,
    load_matrix,
    rho1_exact,
    sample_wishart,
    save_decomposition,
    save_matrix,
)
from l1gram.matio import report_to_dict


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
        d = report_to_dict(rep)
        assert set(d) == {"quantity", "lower", "upper", "method", "certificate",
                          "witness_path"}
        assert d["witness_path"] is None
        assert (d["quantity"], d["certificate"]) == ("rho1", "exact")
        assert d["lower"] == d["upper"] == 1.0
