"""Plain-text matrix files.

Format: a header line ``n m`` with the row and column counts, followed by
``n`` lines of ``m`` whitespace-separated decimal entries, all finite
(``nan`` and ``inf`` are rejected).  Blank lines and lines starting with
``#`` are ignored.
"""

from __future__ import annotations

import math

import numpy as np


class MatrixFormatError(ValueError):
    """Raised when a text matrix cannot be parsed; message cites the position."""


def parse_matrix(text: str, name: str = "<matrix>") -> np.ndarray:
    """Parse the ``n m`` + rows text format into a float array.

    Each row is converted with one ``map(float, ...)``; only a file with a
    bad row or a non-finite entry takes the token-by-token slow path, which
    names the line, row and column of its first problem."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, stripped))
    if not lines:
        raise MatrixFormatError(f"{name}: empty file, expected an 'n m' header")

    header_lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise MatrixFormatError(
            f"{name}, line {header_lineno}: header must be 'n m', got {header!r}"
        )
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixFormatError(
            f"{name}, line {header_lineno}: header entries must be integers, got {header!r}"
        ) from None
    if n < 1 or m < 1:
        raise MatrixFormatError(f"{name}, line {header_lineno}: sizes must be positive")

    rows = lines[1:]
    if len(rows) != n:
        raise MatrixFormatError(
            f"{name}: expected {n} data rows after the header, found {len(rows)}"
        )

    out = np.empty((n, m), dtype=float)
    try:
        for i, (_, row) in enumerate(rows):
            values = list(map(float, row.split()))
            if len(values) != m:
                break
            out[i] = values
        else:
            if np.isfinite(out).all():
                return out
    except ValueError:
        pass
    _raise_first_bad_entry(rows, m, name)


def _raise_first_bad_entry(rows, m: int, name: str) -> None:
    """The slow path of ``parse_matrix``: walk the rows token by token and
    raise for the first short or long row, unparsable token or non-finite
    entry, naming its line, row and column."""
    for i, (lineno, row) in enumerate(rows):
        entries = row.split()
        if len(entries) != m:
            raise MatrixFormatError(
                f"{name}, line {lineno} (row {i + 1}): expected {m} entries, found {len(entries)}"
            )
        for j, token in enumerate(entries):
            try:
                value = float(token)
            except ValueError:
                value = None
            if value is None or not math.isfinite(value):
                problem = "could not parse" if value is None else "non-finite entry"
                raise MatrixFormatError(
                    f"{name}, line {lineno} (row {i + 1}, col {j + 1}): "
                    f"{problem} {token!r}; expected a finite number"
                )
    raise AssertionError("the fast path of parse_matrix failed on rows that parse")


def format_matrix(a: np.ndarray) -> str:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read(), name=str(path))


def write_matrix(path, a: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(a))


def read_vector(path) -> np.ndarray:
    """Read a vector stored as an ``n 1`` (or ``1 n``) matrix file."""
    a = read_matrix(path)
    if 1 not in a.shape:
        raise MatrixFormatError(f"{path}: expected a vector, got shape {a.shape}")
    return a.ravel()
