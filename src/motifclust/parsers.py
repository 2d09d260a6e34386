"""Readers and writers for motif count-matrix files.

Supported inputs: JASPAR flat files (bracketed or bare four-row variant) and
TRANSFAC flat files (// delimited blocks with a P0 count section).  Output
formats: JASPAR flat files and a versioned JSON document used as the
canonical internal serialization.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .matrices import BASES, CountMatrix, MotifRecord

RECORDS_FORMAT = "motifclust-records"
RECORDS_VERSION = 1


class MotifParseError(ValueError):
    """Malformed motif file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _parse_count_token(tok: str, line_no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise MotifParseError(f"non-integer count token {tok!r}", line_no) from None


_JASPAR_ROW = re.compile(r"^([ACGTacgt])\s*[:|]?\s*\[?\s*([^\[\]]*?)\s*\]?\s*$")


def parse_jaspar(text: str, warnings: list[str] | None = None) -> list[MotifRecord]:
    """Parse a JASPAR flat file into records, preserving file order.

    Accepts the bracketed four-row layout under `>id name` headers, and a
    bare four-row variant without a header when the text holds one matrix
    (such records get the id "matrix").
    """
    records: list[MotifRecord] = []
    seen_ids: dict[str, int] = {}
    lines = text.splitlines()

    header: tuple[str, str | None, int] | None = None
    rows: dict[str, np.ndarray] = {}

    def flush(end_line: int) -> None:
        nonlocal header, rows
        if header is None and not rows:
            return
        if header is None:
            rec_id, rec_name, at_line = "matrix", None, end_line
        else:
            rec_id, rec_name, at_line = header
        missing = [b for b in BASES if b not in rows]
        if missing:
            raise MotifParseError(
                f"record {rec_id!r} is missing base row(s) {', '.join(missing)}", at_line
            )
        lengths = {b: len(rows[b]) for b in BASES}
        if len(set(lengths.values())) != 1:
            raise MotifParseError(
                f"record {rec_id!r} has unequal row lengths {lengths}", at_line
            )
        if lengths["A"] == 0:
            raise MotifParseError(f"record {rec_id!r} has empty count rows", at_line)
        if rec_id in seen_ids:
            raise MotifParseError(
                f"duplicate motif id {rec_id!r} (first seen at line {seen_ids[rec_id]})",
                at_line,
            )
        seen_ids[rec_id] = at_line
        counts = np.stack([rows[b] for b in BASES], axis=1)
        records.append(MotifRecord(id=rec_id, matrix=CountMatrix(counts), name=rec_name))
        header, rows = None, {}

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(">"):
            if header is None and rows:
                raise MotifParseError(
                    "bare four-row layout may only hold a single matrix", line_no
                )
            flush(line_no)
            body = line[1:].strip()
            if not body:
                raise MotifParseError("empty header: no motif id after '>'", line_no)
            parts = body.split(None, 1)
            header = (parts[0], parts[1].strip() if len(parts) > 1 else None, line_no)
            continue
        m = _JASPAR_ROW.match(line)
        if m is None:
            raise MotifParseError(f"unrecognized line {line!r}", line_no)
        base = m.group(1).upper()
        if base in rows:
            raise MotifParseError(f"repeated base row {base!r}", line_no)
        toks = m.group(2).split()
        rows[base] = np.array(
            [_parse_count_token(t, line_no) for t in toks], dtype=np.int64
        )

    flush(len(lines) + 1)
    return records


def write_jaspar(records: list[MotifRecord]) -> str:
    """Serialize records to a JASPAR flat file (bracketed rows)."""
    out: list[str] = []
    for rec in records:
        head = f">{rec.id}"
        if rec.name:
            head += f" {rec.name}"
        out.append(head)
        cols = rec.matrix.counts
        widths = max(len(str(int(v))) for v in cols.ravel())
        for k, base in enumerate(BASES):
            vals = " ".join(f"{int(v):>{widths}d}" for v in cols[:, k])
            out.append(f"{base} [ {vals} ]")
    return "\n".join(out) + ("\n" if out else "")


_TRANSFAC_ROW = re.compile(r"^(\d+)\s+(.*)$")


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def parse_transfac(text: str, warnings: list[str] | None = None) -> list[MotifRecord]:
    """Parse a TRANSFAC flat file: one record per // block with a P0 section.

    Blocks without a P0 section are skipped with a warning.  Decimal counts
    are accepted and rounded half-up to integers, with the rounding recorded
    as a warning.
    """
    records: list[MotifRecord] = []
    seen_ids: dict[str, int] = {}

    block: list[tuple[int, str]] = []

    def flush_block() -> None:
        nonlocal block
        if not any(line.strip() for _, line in block):
            block = []
            return
        lines, block = block, []
        acc = ident = name = species = None
        first_line = lines[0][0]
        col_order: list[str] | None = None
        p0_line: int | None = None
        row_values: list[list[float]] = []
        row_indices: list[int] = []
        for line_no, raw in lines:
            line = raw.rstrip()
            if not line:
                continue
            tag = line[:2].upper()
            rest = line[2:].strip()
            if tag == "AC" and acc is None:
                acc = rest
            elif tag == "ID" and ident is None:
                ident = rest
            elif tag == "NA" and name is None:
                name = rest
            elif tag == "OS" and species is None:
                species = rest
            elif tag in ("P0", "PO"):
                headers = [h.upper() for h in rest.split()]
                if len(headers) < 4:
                    raise MotifParseError(
                        f"P0 header has fewer than 4 base columns: {headers}", line_no
                    )
                col_order = headers[:4]
                if sorted(col_order) != sorted(BASES):
                    raise MotifParseError(
                        f"P0 header columns {col_order} are not a permutation of A C G T",
                        line_no,
                    )
                p0_line = line_no
            elif col_order is not None and (m := _TRANSFAC_ROW.match(line.strip())):
                idx = int(m.group(1))
                toks = m.group(2).split()
                if len(toks) < 4:
                    raise MotifParseError(
                        f"matrix row has fewer than 4 base columns: {line.strip()!r}",
                        line_no,
                    )
                vals = []
                for t in toks[:4]:
                    try:
                        vals.append(float(t))
                    except ValueError:
                        raise MotifParseError(
                            f"non-numeric count token {t!r}", line_no
                        ) from None
                if any(v < 0 for v in vals):
                    raise MotifParseError(f"negative count in row {idx}", line_no)
                row_indices.append(idx)
                row_values.append(vals)
        rec_id = acc or ident
        if col_order is None:
            tag = rec_id or f"block at line {first_line}"
            if warnings is not None:
                warnings.append(f"skipped {tag}: no P0 count section")
            return
        if rec_id is None:
            raise MotifParseError("block has a P0 section but no AC or ID line", p0_line)
        if not row_values:
            raise MotifParseError(
                f"record {rec_id!r} has a P0 header but no count rows", p0_line
            )
        expected = list(range(row_indices[0], row_indices[0] + len(row_indices)))
        if row_indices != expected:
            raise MotifParseError(
                f"record {rec_id!r} has non-consecutive row indices {row_indices}",
                p0_line,
            )
        if rec_id in seen_ids:
            raise MotifParseError(
                f"duplicate motif id {rec_id!r} (first seen at line {seen_ids[rec_id]})",
                first_line,
            )
        seen_ids[rec_id] = first_line
        raw_arr = np.array(row_values, dtype=float)
        if not np.all(np.equal(np.mod(raw_arr, 1), 0)):
            if warnings is not None:
                warnings.append(
                    f"record {rec_id!r}: decimal counts rounded to integers (half-up)"
                )
            arr = np.vectorize(_round_half_up)(raw_arr).astype(np.int64)
        else:
            arr = raw_arr.astype(np.int64)
        # reorder columns into A, C, G, T
        order = [col_order.index(b) for b in BASES]
        counts = arr[:, order]
        rec_name = name if name is not None else (ident if acc and ident else None)
        records.append(
            MotifRecord(
                id=rec_id,
                matrix=CountMatrix(counts),
                name=rec_name,
                species=species,
            )
        )

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw.strip().startswith("//"):
            flush_block()
        else:
            block.append((line_no, raw))
    flush_block()
    return records


def records_to_json(records: list[MotifRecord]) -> str:
    """Canonical serialization: versioned JSON, one entry per record.

    Counts are stored as a 4 x width grid in base order A, C, G, T.
    """
    payload = {
        "format": RECORDS_FORMAT,
        "version": RECORDS_VERSION,
        "bases": BASES,
        "records": [
            {
                "id": rec.id,
                "name": rec.name,
                "family": rec.family,
                "species": rec.species,
                "counts": rec.matrix.counts.T.tolist(),
            }
            for rec in records
        ],
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def records_from_json(text: str) -> list[MotifRecord]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MotifParseError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != RECORDS_FORMAT:
        raise MotifParseError(f"not a {RECORDS_FORMAT} document")
    if payload.get("version") != RECORDS_VERSION:
        raise MotifParseError(f"unsupported records version {payload.get('version')!r}")
    if not isinstance(payload.get("records"), list):
        raise MotifParseError("no records list")
    records = []
    for k, entry in enumerate(payload["records"]):
        if not isinstance(entry, dict) or "id" not in entry or "counts" not in entry:
            raise MotifParseError(f"records entry {k} lacks an id or counts")
        try:
            matrix = CountMatrix(np.array(entry["counts"], dtype=np.int64).T)
        except (TypeError, ValueError) as exc:
            raise MotifParseError(f"records entry {k}: bad counts: {exc}") from None
        records.append(
            MotifRecord(
                id=entry["id"],
                matrix=matrix,
                name=entry.get("name"),
                family=entry.get("family"),
                species=entry.get("species"),
            )
        )
    return records


def sniff_format(text: str) -> str:
    """Guess the input format: '>' headers mean JASPAR, AC/ID/P0 tags mean TRANSFAC."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(">"):
            return "jaspar"
        tag = line[:2].upper()
        if tag in ("AC", "ID", "P0", "PO", "NA") or line.startswith("//"):
            return "transfac"
        if line.startswith("{"):
            return "json"
        return "jaspar"
    return "jaspar"


def parse_records(
    text: str, fmt: str, warnings: list[str] | None = None
) -> list[MotifRecord]:
    """Parse motif text in format fmt: 'jaspar', 'transfac' or 'json'."""
    if fmt == "jaspar":
        return parse_jaspar(text, warnings=warnings)
    if fmt == "transfac":
        return parse_transfac(text, warnings=warnings)
    if fmt == "json":
        return records_from_json(text)
    raise ValueError(f"unknown format {fmt!r}")


def load_records(
    path: str | Path, fmt: str = "auto", warnings: list[str] | None = None
) -> list[MotifRecord]:
    """Read one motif file; fmt is 'auto' (see sniff_format) or a format
    parse_records reads."""
    text = Path(path).read_text()
    return parse_records(text, sniff_format(text) if fmt == "auto" else fmt, warnings)
