import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from projrates.matio import (
    MatrixFormatError,
    format_matrix,
    parse_matrix,
    read_matrix,
    read_vector,
    write_matrix,
)


def test_parse_simple():
    a = parse_matrix("2 3\n1 2 3\n4 5 6\n")
    assert a.shape == (2, 3)
    np.testing.assert_array_equal(a, [[1, 2, 3], [4, 5, 6]])


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\n2 2\n# rows\n1 0\n\n0 1\n"
    np.testing.assert_array_equal(parse_matrix(text), np.eye(2))


def test_scientific_notation_and_negatives():
    a = parse_matrix("1 3\n-1.5e-3 2E+2 .25\n")
    np.testing.assert_allclose(a, [[-1.5e-3, 200.0, 0.25]])


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty file"),
        ("2\n1 2\n", "header must be 'n m'"),
        ("a b\n", "must be integers"),
        ("0 2\n", "sizes must be positive"),
        ("2 2\n1 2\n", "expected 2 data rows"),
        ("1 3\n1 2\n", "expected 3 entries, found 2"),
        ("1 2\n1 x\n", "could not parse 'x'"),
    ],
)
def test_parse_errors_cite_position(text, fragment):
    with pytest.raises(MatrixFormatError, match=fragment):
        parse_matrix(text, name="f.mat")


def test_bad_entry_reports_row_and_col():
    with pytest.raises(MatrixFormatError, match=r"line 3 \(row 2, col 2\)"):
        parse_matrix("2 2\n1 2\n3 oops\n", name="f.mat")


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_non_finite_entry_rejected_with_position(token):
    with pytest.raises(MatrixFormatError, match=rf"line 3 \(row 2, col 1\): non-finite entry '{token}'"):
        parse_matrix(f"2 2\n1 2\n{token} 4\n", name="f.mat")


def test_comment_lines_do_not_shift_reported_lineno():
    text = "2 2\n# note\n1 2\n3 bad\n"
    with pytest.raises(MatrixFormatError, match=r"line 4 \(row 2, col 2\)"):
        parse_matrix(text)


@settings(max_examples=50)
@given(
    hnp.arrays(
        dtype=float,
        shape=hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
        elements=st.floats(
            min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
        ),
    )
)
def test_format_parse_round_trip(a):
    np.testing.assert_array_equal(parse_matrix(format_matrix(a)), a)


def test_file_round_trip(tmp_path):
    a = np.array([[1.25, -3.5], [0.0, 7.125e-4]])
    path = tmp_path / "m.mat"
    write_matrix(path, a)
    np.testing.assert_array_equal(read_matrix(path), a)


def test_read_vector_accepts_row_or_column(tmp_path):
    col = tmp_path / "c.mat"
    col.write_text("3 1\n1\n2\n3\n")
    row = tmp_path / "r.mat"
    row.write_text("1 3\n1 2 3\n")
    np.testing.assert_array_equal(read_vector(col), [1, 2, 3])
    np.testing.assert_array_equal(read_vector(row), [1, 2, 3])


def test_read_vector_rejects_matrix(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("2 2\n1 2\n3 4\n")
    with pytest.raises(MatrixFormatError, match="expected a vector"):
        read_vector(path)
