import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casebound.errors import (
    EmptyStratum,
    MissingColumn,
    NonBinaryOutcome,
    ValidationError,
    ZeroCell,
)
from casebound.fixtures import count_table
from casebound.model import (
    ColumnSchema,
    CountTable2x2,
    Design,
    ObservedDataset,
    export_csv,
    ingest_csv,
    odds_ratio_2x2,
)

# exact cross ratios recomputed by integer arithmetic
TABLE_CASES = [
    ("top_income_population", (10533, 6362, 397, 524), 2.19),
    ("top_income_case_control", (527, 318, 397, 524), 2.19),
    ("top_income_case_population", (547, 345, 397, 524), 2.10),
    ("university_private_school", (151, 332, 51, 155), 1.38),
]


@pytest.mark.parametrize("name, cells, headline", TABLE_CASES)
def test_bundled_tables_match_exact_ratio(name, cells, headline):
    n00, n01, n10, n11 = cells
    table = count_table(name)
    assert (table.n00, table.n01, table.n10, table.n11) == cells
    exact = (n11 * n00) / (n01 * n10)
    assert odds_ratio_2x2(table) == pytest.approx(exact, abs=1e-12)
    # the rounded case-population counts land at 2.093, not the 2.10 headline;
    # the exact projection does (covered in test_oracle)
    if name != "top_income_case_population":
        assert abs(odds_ratio_2x2(table) - headline) < 0.005


def test_symmetric_table_is_exactly_one():
    assert odds_ratio_2x2(CountTable2x2(7, 7, 7, 7)) == 1.0


def test_zero_cell_rejected():
    with pytest.raises(ZeroCell):
        odds_ratio_2x2(CountTable2x2(0, 3, 2, 5))


counts = st.integers(min_value=1, max_value=5000)


@given(counts, counts, counts, counts)
@settings(max_examples=100, deadline=None)
def test_swap_invariance(a, b, c, d):
    table = CountTable2x2(a, b, c, d)
    # rows (y) and columns (t) exchanged
    assert odds_ratio_2x2(table) == odds_ratio_2x2(CountTable2x2(a, c, b, d))


@given(counts, counts, counts, counts)
@settings(max_examples=100, deadline=None)
def test_product_margins_give_unit_odds_ratio(r0, r1, c0, c1):
    table = CountTable2x2(r0 * c0, r0 * c1, r1 * c0, r1 * c1)
    assert odds_ratio_2x2(table) == 1.0


@pytest.mark.parametrize("y, shown", [
    (np.array(["1", "0", "1", "0"]), "'1', '0'"),
    (np.array([1.0, 0.0, np.nan, 0.0]), "nan"),
    (np.array([1, 0, None, 0], dtype=object), "None"),
    (np.array([2, 0, 2, 3]), "2, 3"),
])
def test_non_binary_outcome_names_offending_values(y, shown):
    message = re.escape(f"y contains values outside {{0, 1}}: {shown}") + "$"
    with pytest.raises(NonBinaryOutcome, match=message):
        ObservedDataset(y=y, t=np.array([0, 1, 0, 1]), x=np.zeros((4, 1)),
                        design=Design.CASE_CONTROL)


def test_boolean_outcome_and_treatment_accepted():
    data = ObservedDataset(y=np.array([True, False, True, False]),
                           t=np.array([False, True, True, False]),
                           x=np.zeros((4, 1)), design=Design.CASE_CONTROL)
    assert data.y.dtype == np.int8 and data.y.tolist() == [1, 0, 1, 0]
    assert data.t.tolist() == [0, 1, 1, 0]


def test_table_to_dataset_counts():
    data = count_table("university_private_school").to_dataset(Design.CASE_CONTROL)
    assert data.n == 689
    assert int(data.y.sum()) == 206
    assert int((1 - data.y).sum()) == 483
    assert data.n_covariates == 0


def test_dataset_validation():
    with pytest.raises(NonBinaryOutcome):
        ObservedDataset(y=np.array([1, 2]), t=np.array([0, 1]),
                        x=np.zeros((2, 1)), design=Design.CASE_CONTROL)
    with pytest.raises(EmptyStratum):
        ObservedDataset(y=np.zeros(4), t=np.array([0, 1, 0, 1]),
                        x=np.zeros((4, 1)), design=Design.CASE_CONTROL)
    with pytest.raises(ValidationError):
        ObservedDataset(y=np.array([0, 1]), t=np.array([0, 1]),
                        x=np.array([[np.nan], [0.0]]), design=Design.CASE_CONTROL)
    with pytest.raises(ValidationError):
        ObservedDataset(y=np.array([0, 1]), t=np.array([0, 1]),
                        x=np.zeros((2, 1)), design=Design.CASE_CONTROL, h0=1.0)


def test_h0_estimated_from_sample():
    data = ObservedDataset(y=np.array([1, 0, 0, 0]), t=np.array([0, 1, 0, 1]),
                           x=np.zeros((4, 0)), design=Design.CASE_CONTROL)
    assert data.h0 == 0.25
    assert data.h0_estimated
    fixed = ObservedDataset(y=np.array([1, 0, 0, 0]), t=np.array([0, 1, 0, 1]),
                            x=np.zeros((4, 0)), design=Design.CASE_CONTROL, h0=0.4)
    assert fixed.h0 == 0.4 and not fixed.h0_estimated


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_ingest_university_style_file(tmp_path):
    table = count_table("university_private_school")
    rows = ["vsu,private,income"]
    for (y, t, n) in [(0, 0, table.n00), (0, 1, table.n01),
                      (1, 0, table.n10), (1, 1, table.n11)]:
        rows += [f"{y},{t},{100 + y + t}"] * n
    path = _write(tmp_path / "univ.csv", "\n".join(rows) + "\n")
    schema = ColumnSchema(y="vsu", t="private", x=("income",))
    data, report = ingest_csv(path, schema, Design.CASE_CONTROL)
    assert data.n == 689
    assert int(data.y.sum()) == 206
    assert report.n_dropped == 0


def test_ingest_drops_incomplete_rows_and_reports_indices(tmp_path):
    text = "y,t,x\n1,0,1.5\n1,1,\n0,1,2.0\n,1,3.0\n0,0,oops\n0,1,4.0\n"
    path = _write(tmp_path / "messy.csv", text)
    data, report = ingest_csv(path, ColumnSchema(y="y", t="t", x=("x",)),
                              Design.CASE_CONTROL)
    assert data.n == 3
    assert report.dropped_rows == (1, 3, 4)
    # a short row, nan, inf, a whitespace-only covariate, digit-group
    # underscores and non-ASCII digits (which Python's float reads as 1000
    # and 12) are dropped too
    text = ("y,t,x\n1,0\n0,1,nan\n1,0,1.5\n1,1,inf\n0,0,  \n0,1,2.0\n1,1,-inf\n"
            "0,1,1_000\n1,0,\u0661\u0662\n0,0, -2.5e-1 \n")
    path = _write(tmp_path / "messier.csv", text)
    data, report = ingest_csv(path, ColumnSchema(y="y", t="t", x=("x",)),
                              Design.CASE_CONTROL)
    assert data.x[:, 0].tolist() == [1.5, 2.0, -0.25]
    assert report.dropped_rows == (0, 1, 3, 4, 6, 7, 8)


def test_ingest_skips_a_utf8_byte_order_mark(tmp_path):
    # spreadsheets save "CSV UTF-8" with a BOM before the first header
    text = "y,t,x\n1,0,1.5\n0,1,2.0\n1,1,0.5\n0,0,1.0\n"
    schema = ColumnSchema(y="y", t="t", x=("x",))
    plain, _ = ingest_csv(_write(tmp_path / "plain.csv", text), schema, Design.CASE_CONTROL)
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
    bom, _ = ingest_csv(tmp_path / "bom.csv", schema, Design.CASE_CONTROL)
    for field in ("y", "t", "x"):
        assert np.array_equal(getattr(bom, field), getattr(plain, field))
    export_csv(bom, tmp_path / "out.csv", schema)
    assert (tmp_path / "out.csv").read_bytes().startswith(b"y,t,x")


def test_ingest_skips_blank_lines_without_moving_indices(tmp_path):
    # a blank line is no record: it is not reported, but it keeps its index,
    # so the rows after it are reported where the reader counted them
    text = "y,t,x\n1,0,1.5\n\n0,1,\n0,1,2.0\n1,1,0.5\n\n"
    path = _write(tmp_path / "blank.csv", text)
    data, report = ingest_csv(path, ColumnSchema(y="y", t="t", x=("x",)),
                              Design.CASE_CONTROL)
    assert data.n == 3
    assert report.dropped_rows == (2,)


def test_ingest_refuses_a_mapped_column_named_twice(tmp_path):
    path = _write(tmp_path / "dup.csv", "y,t,x1,x1\n1,0,1.0,2.0\n0,1,3.0,4.0\n")
    with pytest.raises(ValidationError, match="'x1' appears more than once"):
        ingest_csv(path, ColumnSchema(y="y", t="t", x=("x1",)), Design.CASE_CONTROL)
    # a repeated column the schema does not map is never read
    path = _write(tmp_path / "other.csv", "y,t,z,z\n1,0,a,b\n0,1,c,d\n")
    data, _ = ingest_csv(path, ColumnSchema(y="y", t="t"), Design.CASE_CONTROL)
    assert data.n == 2


def test_ingest_error_cases(tmp_path):
    path = _write(tmp_path / "a.csv", "y,t\n1,0\n0,1\n")
    with pytest.raises(MissingColumn):
        ingest_csv(path, ColumnSchema(y="y", t="t", x=("zz",)), Design.CASE_CONTROL)
    path = _write(tmp_path / "b.csv", "y,t\n2,0\n0,1\n")
    with pytest.raises(NonBinaryOutcome):
        ingest_csv(path, ColumnSchema(y="y", t="t"), Design.CASE_CONTROL)
    path = _write(tmp_path / "c.csv", "y,t\n0,0\n0,1\n")
    with pytest.raises(EmptyStratum):
        ingest_csv(path, ColumnSchema(y="y", t="t"), Design.CASE_CONTROL)


def test_ingest_export_roundtrip(tmp_path):
    text = "y,t,x1,x2\n1,0,1.25,-3.5\n0,1,0.125,7.0\n1,1,2.0,0.0\n0,0,-1.0,2.5\n"
    path = _write(tmp_path / "in.csv", text)
    schema = ColumnSchema(y="y", t="t", x=("x1", "x2"))
    data, _ = ingest_csv(path, schema, Design.CASE_POPULATION, h0=0.3)
    out = tmp_path / "out.csv"
    export_csv(data, out, schema)
    again, report = ingest_csv(out, schema, Design.CASE_POPULATION, h0=0.3)
    assert report.n_dropped == 0
    assert np.array_equal(again.y, data.y)
    assert np.array_equal(again.t, data.t)
    assert np.array_equal(again.x, data.x)


def test_design_parse():
    assert Design.parse("case-control") is Design.CASE_CONTROL
    assert Design.parse("CASE_POPULATION") is Design.CASE_POPULATION
    with pytest.raises(ValidationError):
        Design.parse("cohort")
