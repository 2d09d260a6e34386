"""Count-matrix types and the quantities derived from them."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from motifclust import (
    CountMatrix,
    MotifRecord,
    consensus_string,
    filter_min_width,
    frequency_matrix,
    information_content,
    information_profile,
    validate_records,
)

from conftest import ma0011_counts, record_from_rows


def test_count_matrix_width_and_totals(ma0011):
    assert ma0011.width == 8
    assert np.all(ma0011.position_totals() == 12)
    assert ma0011.has_equal_position_totals()


def test_count_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        CountMatrix(np.zeros((0, 4), dtype=int))
    with pytest.raises(ValueError):
        CountMatrix(np.zeros((3, 3), dtype=int))
    with pytest.raises(ValueError):
        CountMatrix(np.array([[1, 2, 3, -1]]))
    with pytest.raises(ValueError):
        CountMatrix(np.array([[0.5, 0.5, 0, 0]]))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_count_matrix_refuses_non_finite_counts(value):
    with pytest.raises(ValueError, match="^counts must be finite$"):
        CountMatrix(np.array([[1.0, 2.0, value, 3.0]]))


def test_count_matrix_range_ends_at_int64_max():
    assert CountMatrix(np.array([[2**63 - 1, 0, 0, 0]], dtype=np.uint64)).counts[0, 0] == 2**63 - 1
    for counts in (np.array([[2**63, 0, 0, 0]], dtype=np.uint64), [[2**64, 0, 0, 0]]):
        with pytest.raises(ValueError, match="^count too large"):
            CountMatrix(counts)


def test_count_matrix_counts_are_row_major():
    counts = np.arange(12).reshape(4, 3).T
    assert not counts.flags.c_contiguous
    stored = CountMatrix(counts).counts
    assert stored.flags.c_contiguous and stored.tolist() == counts.tolist()


def test_count_matrix_is_immutable(ma0011):
    with pytest.raises(ValueError):
        ma0011.counts[0, 0] = 99


def test_core_view_bounds(ma0011):
    core = ma0011.core(2, 6)
    assert core.shape == (6, 4)
    assert np.all(core == ma0011.counts[2:8])
    with pytest.raises(ValueError):
        ma0011.core(3, 6)
    with pytest.raises(ValueError):
        ma0011.core(-1, 4)


def test_frequency_matrix_reference_values(ma0011):
    fm = frequency_matrix(ma0011)
    # first position: 3/12, 1/12, 1/12, 7/12
    assert np.round(fm.freqs[0], 2).tolist() == [0.25, 0.08, 0.08, 0.58]
    # unanimous position
    assert fm.freqs[4].tolist() == [1.0, 0.0, 0.0, 0.0]
    expected = np.array(
        [
            [0.25, 0.08, 0.08, 0.58],
            [0.42, 0.17, 0.08, 0.33],
            [0.00, 0.83, 0.00, 0.17],
            [0.00, 0.08, 0.00, 0.92],
            [1.00, 0.00, 0.00, 0.00],
            [0.08, 0.08, 0.17, 0.67],
            [0.17, 0.00, 0.08, 0.75],
            [0.08, 0.17, 0.08, 0.67],
        ]
    )
    assert np.all(np.round(fm.freqs, 2) == expected)


def test_frequency_matrix_rejects_zero_total():
    m = CountMatrix(np.array([[1, 1, 1, 1], [0, 0, 0, 0]]))
    with pytest.raises(ValueError, match="position 1"):
        frequency_matrix(m)


def test_information_content_reference_values():
    assert information_content([1, 0, 0, 0]) == pytest.approx(2.0)
    assert information_content([0.25, 0.25, 0.25, 0.25]) == pytest.approx(0.0)
    assert information_content([0.5, 0.5, 0.0, 0.0]) == pytest.approx(1.0)
    # matching a non-uniform background also gives zero
    theta = (0.4, 0.1, 0.1, 0.4)
    assert information_content(theta, theta) == pytest.approx(0.0)


@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=4, max_size=4).filter(
        lambda c: sum(c) > 0
    )
)
def test_information_content_nonnegative_for_uniform_background(counts):
    f = np.asarray(counts, dtype=float) / sum(counts)
    ic = information_content(f)
    assert ic >= -1e-12
    if np.max(np.abs(f - 0.25)) > 1e-9:
        assert ic > 0.0


def test_information_profile_length(ma0011):
    prof = information_profile(frequency_matrix(ma0011))
    assert prof.shape == (8,)
    assert prof[4] == pytest.approx(2.0)  # unanimous position carries 2 bits


def test_consensus_reference_string(ma0011):
    # position 7 has T at exactly 9/12 = 0.75: strictly-greater rule keeps it lowercase
    assert consensus_string(ma0011) == "taCTAttt"


def test_consensus_edge_cases():
    unanimous = CountMatrix(np.array([[12, 0, 0, 0]]))
    assert consensus_string(unanimous) == "A"
    tie = CountMatrix(np.array([[3, 3, 3, 3]]))
    assert consensus_string(tie) == "a"
    tie_cg = CountMatrix(np.array([[0, 5, 5, 0]]))
    assert consensus_string(tie_cg) == "c"


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0))
def test_consensus_length_matches_width(width, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 9, size=(width, 4))
    counts[:, 0] += 1  # keep totals positive
    s = consensus_string(CountMatrix(counts))
    assert len(s) == width
    assert all(ch.upper() in "ACGT" for ch in s)


def _rec(rec_id: str, width: int) -> MotifRecord:
    counts = np.ones((width, 4), dtype=np.int64)
    return MotifRecord(id=rec_id, matrix=CountMatrix(counts))


def test_filter_min_width_splits_and_reports():
    records = [_rec("a", 4), _rec("b", 6), _rec("c", 8)]
    kept, dropped = filter_min_width(records, 6)
    assert [r.id for r in kept] == ["b", "c"]
    assert len(dropped) == 1
    assert dropped[0].record.id == "a"
    assert "width 4" in dropped[0].reason and "6" in dropped[0].reason


def test_filter_min_width_one_keeps_everything():
    records = [_rec("a", 1), _rec("b", 2)]
    kept, dropped = filter_min_width(records, 1)
    assert len(kept) == 2 and not dropped


def test_filter_matches_snapshot_bookkeeping():
    records = [_rec(f"m{i:03d}", 5 if i < 5 else 9) for i in range(111)]
    kept, dropped = filter_min_width(records, 6)
    assert len(kept) == 106
    assert len(dropped) == 5


def test_validate_records_duplicate_and_sums(ma0011_record):
    validate_records([ma0011_record])
    with pytest.raises(ValueError, match="duplicate"):
        validate_records([ma0011_record, ma0011_record])
    uneven = record_from_rows(
        "x", {"A": [5, 1], "C": [1, 1], "G": [1, 1], "T": [1, 1]}
    )
    validate_records([uneven])  # accepted by default
    with pytest.raises(ValueError, match="unequal"):
        validate_records([uneven], require_equal_position_totals=True)


def test_validate_records_refuses_a_position_without_counts(ma0011_record):
    hollow = record_from_rows(
        "h", {"A": [5, 0, 1], "C": [1, 0, 1], "G": [1, 0, 1], "T": [1, 0, 1]}
    )
    with pytest.raises(ValueError, match="motif 'h' position 1 has zero total count"):
        validate_records([ma0011_record, hollow])
