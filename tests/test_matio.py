import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import projrates.matio
from oracles import loop_parse_matrix
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


#: tokens that parse, among them '1_0' and non-ASCII digits, which float()
#: reads; then tokens float() reads as non-finite, and tokens it refuses
GOOD_TOKENS = ("1", "-2.5", "1e3", ".25", "-0", "+3", "1e-320", "1_0", "١٢", "１２")
BAD_TOKENS = (
    "nan", "NaN", "inf", "-inf", "Infinity", "1e999",
    "0x10", "1__0", "_1", "x", "1#2", "#", "1,5", "--1",
)


@st.composite
def token_soups(draw):
    """Matrix texts that are mostly well formed; a row is spoiled with a bad
    token, made short or long, or a row goes missing or extra, now and then."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    header = draw(st.sampled_from([f"{n} {m}"] * 6 + [f" {n}\t{m}", f"{n} {m} 1", f"{n}", "a b"]))
    lines = [header]
    for _ in range(n + draw(st.sampled_from([0] * 8 + [-1, 1]))):
        width = m + draw(st.sampled_from([0] * 10 + [-1, 1]))
        tokens = draw(st.lists(st.sampled_from(GOOD_TOKENS), min_size=width, max_size=width))
        if tokens and draw(st.sampled_from([False] * 5 + [True])):
            tokens[draw(st.integers(0, width - 1))] = draw(st.sampled_from(BAD_TOKENS))
        sep = draw(st.sampled_from([" ", "\t", "  ", "\u00a0"]))
        lines.append(sep.join(tokens))
        lines.extend(draw(st.lists(st.sampled_from(["", "   ", "# note", "  # x 1"]), max_size=1)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=400, deadline=None)
@given(token_soups())
def test_parse_matches_token_loop_oracle(text):
    try:
        expected = loop_parse_matrix(text, name="f.mat")
    except MatrixFormatError as exc:
        with pytest.raises(MatrixFormatError) as got:
            parse_matrix(text, name="f.mat")
        assert str(got.value) == str(exc)
    else:
        a = parse_matrix(text, name="f.mat")
        assert a.shape == expected.shape
        assert a.tobytes() == expected.tobytes()


def test_parse_takes_no_token_loop_on_good_input(monkeypatch):
    def refuse(*args):
        raise AssertionError("slow path taken")

    monkeypatch.setattr(projrates.matio, "_raise_first_bad_entry", refuse)
    text = "# c\n2 3\n1 -0 1_0\n\n  4e-320 5 6  \n"
    assert parse_matrix(text).tobytes() == loop_parse_matrix(text).tobytes()
