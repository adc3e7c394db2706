"""emit_csv writes, from a table's columns, the bytes of csv.writer over its rows of
per-cell text, for any table."""

import csv
import io
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest

from pvrefine import cli

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _reference_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    return str(v)


def _reference_csv(cols, header) -> bytes:
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(header)
    for r in zip(*cols):
        w.writerow([_reference_cell(v) for v in r])
    return buf.getvalue().encode("utf-8")


_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324])
_CELLS = {
    "float": st.floats() | _SPECIAL_FLOATS,
    "float64": (st.floats() | _SPECIAL_FLOATS).map(np.float64),
    "int": st.integers() | st.just(10**20),
    "int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "none": st.none(),
    "complex": st.complex_numbers(),
    "text": st.text(st.sampled_from("ab1.- "), min_size=1, max_size=4),
    # the cells csv.writer quotes, one kind per character, and the empty string
    "empty": st.just(""),
}
_CELLS.update({"has%r" % ch: st.sampled_from([ch, "a%sb" % ch]) for ch in ',"\r\n'})


@st.composite
def _tables(draw):
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, 9))
    cols = []
    for _ in range(ncols):
        # one kind per column, as the commands write, or a mix
        kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=3, unique=True))
        cell = st.one_of(*(_CELLS[k] for k in kinds))
        cols.append(draw(st.lists(cell, min_size=nrows, max_size=nrows)))
    return cols, ["c%d" % k for k in range(ncols)]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_tables(), st.integers(1, 5))
def test_emit_csv_matches_csv_writer(table, block_rows):
    cols, header = table
    with tempfile.TemporaryDirectory() as d, mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        path = os.path.join(d, "t.csv")
        cli.emit_csv(cols, header, path)
        with open(path, "rb") as fh:
            assert fh.read() == _reference_csv(cols, header)


def _columns(rows, ncols):
    return [[r[k] for r in rows] for k in range(ncols)]


@pytest.mark.parametrize("rows", [
    [],                                      # zero rows
    [[None], [1.5], [""]],                   # one column: csv.writer quotes an empty row
    [[10**20, 2.5], [np.int64(-3), np.float64(-0.0)]],
    [[1.0, None, ""], [2.0, None, "x"]],     # an empty text cell
    [[1.0, 'say "hi"'], [2.0, "plain"]],     # each quote-worthy character alone
    [[1.0, "a,b"], [2.0, "plain"]],
    [[1.0, "two\nlines"], [2.0, "plain"]],
    [[1.0, "cr\r"], [2.0, "plain"]],
    [[None, None]] * 5,                      # all-None columns
    [[True, 1 + 2j, math.nan, -math.inf]] * 9000,  # more rows than one block
])
def test_emit_csv_matches_csv_writer_examples(tmp_path, rows):
    # each example is written as rows and passed as columns
    cols = _columns(rows, len(rows[0]) if rows else 2)
    header = ["c%d" % k for k in range(len(cols))]
    cli.emit_csv(cols, header, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == _reference_csv(cols, header)


@pytest.mark.parametrize("rows", [
    [[0.0, 1.5], [-0.0, 1.5], [0.0, 1.5]],             # 0.0 and -0.0 compare equal, print apart
    [[-0.0, 2.0], [-0.0, 2.0]],                        # an all -0.0 column
    [[math.nan, 1], [math.nan, 2]],                    # nan != nan: an all-NaN column
    [[float("nan"), 3.0]] * 3,                         # one NaN object repeated
    [[1e-300, np.float64(1e-300), 7.25]] * 4,          # all-equal columns, float and float64 mixed
    [[math.inf, -math.inf, 5e-324]] * 3,               # constant infinities and a subnormal
    [[2.5, 3.5, 4.5]],                                 # one row: every column constant
    [[0.1, "x"], [0.1, "y"]],                          # a constant column beside text
    [[0.1, 1.0], [0.1, 1.0 + 2**-52]],                 # nearly equal is not equal
])
def test_emit_csv_constant_columns_match_csv_writer(tmp_path, rows):
    cols = _columns(rows, len(rows[0]))
    header = ["c%d" % k for k in range(len(cols))]
    for block in (1, 2, 4096):
        with mock.patch.object(cli, "_BLOCK_ROWS", block):
            cli.emit_csv(cols, header, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == _reference_csv(cols, header)


def test_emit_csv_array_columns_match_their_lists(tmp_path):
    # the commands pass numpy columns, which read as their tolist() values
    z = np.exp(1j * np.linspace(0.0, 3.0, 7))
    cols = [np.linspace(0.0, 1.0, 7), z.real, z.imag, np.arange(7), np.full(7, 0.5), [None] * 7]
    header = ["c%d" % k for k in range(len(cols))]
    cli.emit_csv(cols, header, tmp_path / "t.csv")
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in cols]
    assert (tmp_path / "t.csv").read_bytes() == _reference_csv(lists, header)
