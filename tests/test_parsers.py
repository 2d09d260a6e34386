"""File-format round trips and malformed-input diagnostics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from motifclust import (
    BASES,
    CountMatrix,
    MotifParseError,
    MotifRecord,
    load_records,
    parse_jaspar,
    parse_transfac,
    records_from_json,
    records_to_json,
    sniff_format,
    write_jaspar,
)

from conftest import MA0011_JASPAR, ma0011_counts, records_doc

MA0011_TRANSFAC = """\
AC MA0011
ID br_Z1
XX
P0      A      C      G      T
01      3      1      1      7      T
02      5      2      1      4      A
03      0     10      0      2      C
04      0      1      0     11      T
05     12      0      0      0      A
06      1      1      2      8      T
07      2      0      1      9      T
08      1      2      1      8      T
XX
//
"""


def test_parse_jaspar_reference(ma0011):
    records = parse_jaspar(MA0011_JASPAR)
    assert len(records) == 1
    rec = records[0]
    assert rec.id == "MA0011"
    assert rec.name == "br_Z1"
    assert rec.matrix == ma0011


def test_parse_jaspar_bare_four_rows(ma0011):
    text = "\n".join(
        line for line in MA0011_JASPAR.splitlines() if not line.startswith(">")
    )
    records = parse_jaspar(text)
    assert len(records) == 1
    assert records[0].id == "matrix"
    assert records[0].matrix == ma0011


def test_parse_jaspar_bare_rows_before_header():
    bare = "\n".join(MA0011_JASPAR.splitlines()[1:])
    with pytest.raises(MotifParseError, match="line 5: bare four-row layout"):
        parse_jaspar(bare + "\n>M1\n" + bare)


def test_parse_jaspar_row_order_free(ma0011):
    lines = MA0011_JASPAR.splitlines()
    text = "\n".join([lines[0], lines[4], lines[3], lines[2], lines[1]])
    assert parse_jaspar(text)[0].matrix == ma0011


def test_parse_jaspar_empty_input():
    assert parse_jaspar("") == []
    assert parse_jaspar("\n# comment only\n") == []


def test_parse_jaspar_missing_row():
    text = ">x\nA [ 1 2 ]\nC [ 1 2 ]\nG [ 1 2 ]\n"
    with pytest.raises(MotifParseError, match="missing base row"):
        parse_jaspar(text)


def test_parse_jaspar_unequal_rows():
    text = ">x\nA [ 1 2 ]\nC [ 1 2 ]\nG [ 1 2 ]\nT [ 1 2 3 ]\n"
    with pytest.raises(MotifParseError, match="unequal row lengths"):
        parse_jaspar(text)


def test_parse_jaspar_non_integer_token_names_line():
    text = ">x\nA [ 1 2 ]\nC [ 1 oops ]\nG [ 1 2 ]\nT [ 1 2 ]\n"
    with pytest.raises(MotifParseError, match="line 3.*oops"):
        parse_jaspar(text)


def test_parse_jaspar_duplicate_id():
    text = MA0011_JASPAR + MA0011_JASPAR
    with pytest.raises(MotifParseError, match="duplicate motif id 'MA0011'"):
        parse_jaspar(text)


def test_parse_jaspar_negative_count_names_record_line():
    text = ">a\nA [ 1 2 ]\nC [ 1 2 ]\nG [ 1 2 ]\nT [ 1 2 ]\n>x\nA [ 1 2 ]\nC [ 1 -2 ]\nG [ 1 2 ]\nT [ 1 2 ]\n"
    with pytest.raises(MotifParseError, match="^line 6: record 'x': counts must be non-negative$"):
        parse_jaspar(text)


def test_jaspar_write_parse_round_trip(ma0011_record):
    text = write_jaspar([ma0011_record])
    back = parse_jaspar(text)
    assert back == [ma0011_record]


@st.composite
def _record_strategy(draw, idx=0):
    width = draw(st.integers(min_value=1, max_value=12))
    counts = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=500), min_size=4, max_size=4),
            min_size=width,
            max_size=width,
        )
    )
    name = draw(st.one_of(st.none(), st.just("some name")))
    return MotifRecord(
        id=f"M{draw(st.integers(min_value=0, max_value=10 ** 6))}_{idx}",
        matrix=CountMatrix(np.array(counts, dtype=np.int64)),
        name=name,
    )


@given(st.lists(st.integers(), min_size=0, max_size=4).flatmap(
    lambda seeds: st.tuples(*(_record_strategy(idx=i) for i in range(len(seeds))))
))
def test_jaspar_round_trip_property(records):
    records = list(records)
    text = write_jaspar(records)
    assert parse_jaspar(text) == records


def test_parse_transfac_matches_jaspar(ma0011):
    records = parse_transfac(MA0011_TRANSFAC)
    assert len(records) == 1
    rec = records[0]
    assert rec.id == "MA0011"
    assert rec.name == "br_Z1"
    assert rec.matrix == ma0011


def test_parse_transfac_column_order_respected():
    text = (
        "AC x1\nP0 T G C A\n01 7 1 1 3\n02 4 1 2 5\n//\n"
    )
    rec = parse_transfac(text)[0]
    assert rec.matrix.counts.tolist() == [[3, 1, 1, 7], [5, 2, 1, 4]]


def test_parse_transfac_skips_blocks_without_p0():
    text = "AC nothing_here\nXX\n//\n" + MA0011_TRANSFAC
    warnings: list[str] = []
    records = parse_transfac(text, warnings=warnings)
    assert [r.id for r in records] == ["MA0011"]
    assert any("nothing_here" in w and "P0" in w for w in warnings)


def test_parse_transfac_p0_without_rows_is_error():
    text = "AC x\nP0 A C G T\nXX\n//\n"
    with pytest.raises(MotifParseError, match="no count rows"):
        parse_transfac(text)


def test_parse_transfac_row_gap_is_error():
    text = "AC x\nP0 A C G T\n01 1 1 1 1\n03 1 1 1 1\n//\n"
    with pytest.raises(MotifParseError, match="non-consecutive"):
        parse_transfac(text)


def test_parse_transfac_short_row_is_error():
    text = "AC x\nP0 A C G T\n01 1 1 1\n//\n"
    with pytest.raises(MotifParseError, match="fewer than 4"):
        parse_transfac(text)


def test_parse_transfac_decimal_counts_round_half_up():
    text = "AC x\nP0 A C G T\n01 1.5 0.2 0.5 2.5\n//\n"
    warnings: list[str] = []
    rec = parse_transfac(text, warnings=warnings)[0]
    assert rec.matrix.counts.tolist() == [[2, 0, 1, 3]]
    assert any("half-up" in w for w in warnings)


@pytest.mark.parametrize(
    "token, refusal",
    [("inf", "counts must be finite"), ("nan", "counts must be finite"),
     ("-1", "counts must be non-negative")],
)
def test_parse_transfac_refusals_name_record_line(token, refusal):
    text = f"XX\n//\nAC x\nP0 A C G T\n01 1 1 1 1\n02 1 {token} 1 1\n//\n"
    with pytest.raises(MotifParseError, match=f"^line 3: record 'x': {refusal}$"):
        parse_transfac(text)


@pytest.mark.parametrize(
    "parse, text, where",
    [
        (parse_transfac, "AC x\nP0 A C G T\n01 1 1 1e300 1\n//\n", "line 1"),
        (parse_transfac, "AC x\nP0 A C G T\n01 1 1 1e19 1\n//\n", "line 1"),
        (parse_jaspar, ">x\nA [ 1 ]\nC [ 1 ]\nG [ 10000000000000000000 ]\nT [ 1 ]\n", "line 1"),
        (parse_jaspar, ">x\nA [ 1 ]\nC [ 1 ]\nG [ 100000000000000000000 ]\nT [ 1 ]\n", "line 1"),
        (records_from_json, records_doc({"id": "x", "counts": [[1], [1], [1e19], [1]]}),
         "records entry 0"),
    ],
    ids=["transfac-1e300", "transfac-1e19", "jaspar-1e19", "jaspar-1e20", "json-1e19"],
)
def test_counts_of_2_63_or_more_are_refused_before_the_int64_cast(parse, text, where):
    # refused as too large, not wrapped by the cast into a negative count
    with pytest.raises(MotifParseError, match=rf"^{where}: record 'x': count too large"):
        parse(text)


DISTRIBUTED_PREAMBLE = "VV  TRANSFAC MATRIX TABLE, Rel.3.2 26-06-1997\nXX\n//\n"


def test_transfac_distributed_layout_is_sniffed_and_parsed(ma0011):
    text = DISTRIBUTED_PREAMBLE + MA0011_TRANSFAC
    assert sniff_format(text) == "transfac"
    warnings: list[str] = []
    records = parse_transfac(text, warnings=warnings)
    assert [(r.id, r.matrix) for r in records] == [("MA0011", ma0011)]
    assert warnings == ["skipped block at line 1: no P0 count section"]


@st.composite
def _transfac_cases(draw):
    """Records, each with a P0 column order and whether to write counts as 3.0."""
    records = [draw(_record_strategy(idx=i)) for i in range(draw(st.integers(0, 4)))]
    return [(rec, draw(st.permutations(BASES)), draw(st.booleans())) for rec in records]


def _transfac_text(cases):
    """A distributed TRANSFAC file: the preamble, then one block per record."""
    out = [DISTRIBUTED_PREAMBLE]
    for rec, order, decimal in cases:
        out.append(f"AC  {rec.id}\nXX\n")
        if rec.name:
            out.append(f"NA  {rec.name}\n")
        out.append("P0  " + "  ".join(order) + "\n")
        for j, row in enumerate(rec.matrix.counts, start=1):
            vals = (f"{row[BASES.index(b)]}{'.0' if decimal else ''}" for b in order)
            out.append(f"{j:02d}  " + "  ".join(vals) + "  N\n")
        out.append("XX\n//\n")
    return "".join(out)


@given(_transfac_cases())
def test_transfac_parse_property(cases):
    warnings: list[str] = []
    parsed = parse_transfac(_transfac_text(cases), warnings=warnings)
    assert parsed == parse_jaspar(write_jaspar([rec for rec, _, _ in cases]))
    assert warnings == ["skipped block at line 1: no P0 count section"]


def test_parse_transfac_two_blocks_keep_order():
    second = MA0011_TRANSFAC.replace("MA0011", "MA0012")
    records = parse_transfac(MA0011_TRANSFAC + second)
    assert [r.id for r in records] == ["MA0011", "MA0012"]


def test_json_round_trip(ma0011_record):
    other = MotifRecord(
        id="x2",
        matrix=CountMatrix(np.array([[1, 2, 3, 4]])),
        family="bZIP",
        species="Mus musculus",
    )
    text = records_to_json([ma0011_record, other])
    assert records_from_json(text) == [ma0011_record, other]


def test_json_rejects_wrong_version(ma0011_record):
    text = records_to_json([ma0011_record]).replace('"version": 1', '"version": 99')
    with pytest.raises(MotifParseError, match="version"):
        records_from_json(text)


@pytest.mark.parametrize(
    "entries, refusal",
    [
        ([{"id": 5}], "records entry 0: motif id must be a non-empty string, not 5"),
        ([{"id": ""}], "records entry 0: motif id must be a non-empty string, not ''"),
        ([{"id": "a", "counts": [[1.5, 2], [3, 4], [5, 6], [7, 8]]}],
         "records entry 0: record 'a': counts must be integers"),
        ([{"id": "a"}, {"id": "b"}, {"id": "a"}],
         r"records entry 2: duplicate motif id 'a' \(first seen at records entry 0\)"),
    ],
    ids=["numeric-id", "empty-id", "fractional-count", "duplicate-id"],
)
def test_records_from_json_refusals_name_entry(tmp_path, entries, refusal):
    text = records_doc(*entries)
    with pytest.raises(MotifParseError, match=f"^{refusal}$"):
        records_from_json(text)
    path = tmp_path / "records.json"
    path.write_text(text)
    with pytest.raises(MotifParseError, match=f"^{refusal}$"):
        load_records(path)


def test_transfac_records_round_trip_via_json(ma0011):
    records = parse_transfac(MA0011_TRANSFAC)
    assert records_from_json(records_to_json(records)) == records


def test_sniff_format():
    assert sniff_format(MA0011_JASPAR) == "jaspar"
    assert sniff_format(MA0011_TRANSFAC) == "transfac"
    assert sniff_format("A [ 1 2 ]\nC [ 1 2 ]\nG [ 1 2 ]\nT [ 1 2 ]\n") == "jaspar"
    assert sniff_format(records_to_json([])) == "json"
