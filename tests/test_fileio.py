"""Tests for the CSV writer.

The per-value writer that write_csv replaced is kept here as the reference:
every table must come out byte-identical to it.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sounder_sim.fileio import write_csv, write_paths_csv


def reference_csv(header, rows):
    lines = [header]
    lines.extend(",".join(format(float(v), ".12g") for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def written(header, columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write_csv(str(path), header, columns)
        return path.read_bytes()


SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300,
           math.inf, -math.inf, math.nan, 0.1, 1 / 3, 123456789012.5]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_subnormal=True))


@st.composite
def tables(draw):
    """Float columns as arrays, plus an optional integer flag list (paths.csv)."""
    rows = draw(st.integers(0, 30))
    width = draw(st.integers(1, 4))
    columns = [np.array(draw(st.lists(values, min_size=rows, max_size=rows)))
               for _ in range(width)]
    if draw(st.booleans()):
        columns.append(draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)))
    return columns


@settings(max_examples=200, deadline=None)
@given(tables())
def test_matches_per_value_writer(columns):
    header = ",".join(f"c{k}" for k in range(len(columns)))
    assert written(header, columns) == reference_csv(header, zip(*columns))


def test_empty_table_is_header_only():
    assert written("a,b", (np.empty(0), np.empty(0))) == b"a,b\n"


def test_no_paths_is_header_only(tmp_path):
    path = tmp_path / "paths.csv"
    write_paths_csv(str(path), [])
    assert path.read_bytes() == reference_csv("delay_ns,power_db,sidelobe_suspect", [])
