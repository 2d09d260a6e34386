"""Readers and writers for motif count-matrix files.

Supported inputs: JASPAR flat files (bracketed or bare four-row variant),
TRANSFAC flat files (// delimited blocks with a P0 count section) and the
versioned JSON records document.  The text readers walk their input through
`_content`, and every reader admits each record through `_admit`, so all
three refuse the same things and name the line or JSON entry at fault.
Output formats: JASPAR flat files and the JSON document, the canonical
internal serialization.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterator

import numpy as np

from .matrices import BASES, CountMatrix, MotifRecord

RECORDS_FORMAT = "motifclust-records"
RECORDS_VERSION = 1


class MotifParseError(ValueError):
    """Malformed motif file; names where, when known: a 1-based line number
    or a JSON records entry."""

    def __init__(self, message: str, line: int | str | None = None):
        self.line = line
        if line is not None:
            message = f"{_at(line)}: {message}"
        super().__init__(message)


def _at(where: int | str) -> str:
    return f"line {where}" if isinstance(where, int) else where


def _content(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) of every line that is neither
    blank nor a `#` comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _admit(records: list[MotifRecord], seen: dict[str, int | str], where: int | str,
           rec_id, counts, **meta) -> None:
    """The record check every reader shares: the id must be a new, non-empty
    str, and `counts` (one row per base, A C G T) go to CountMatrix as read.
    A refusal is a MotifParseError naming `where`, a line or a JSON entry."""
    if not isinstance(rec_id, str) or not rec_id:
        raise MotifParseError(f"motif id must be a non-empty string, not {rec_id!r}", where)
    if rec_id in seen:
        raise MotifParseError(
            f"duplicate motif id {rec_id!r} (first seen at {_at(seen[rec_id])})", where
        )
    try:
        matrix = CountMatrix(np.transpose(counts))
    except (TypeError, ValueError, OverflowError) as exc:
        raise MotifParseError(f"record {rec_id!r}: {exc}", where) from None
    seen[rec_id] = where
    records.append(MotifRecord(id=rec_id, matrix=matrix, **meta))


_JASPAR_ROW = re.compile(r"^([ACGTacgt])\s*[:|]?\s*\[?\s*([^\[\]]*?)\s*\]?\s*$")


def parse_jaspar(text: str, warnings: list[str] | None = None) -> list[MotifRecord]:
    """Parse a JASPAR flat file into records, preserving file order.

    Accepts the bracketed four-row layout under `>id name` headers, and a
    bare four-row variant without a header when the text holds one matrix
    (such records get the id "matrix").
    """
    # (line, id or None for the bare layout, name, base -> counts) per record
    blocks: list[tuple[int, str | None, str | None, dict[str, list[int]]]] = []
    for line_no, line in _content(text):
        if line.startswith(">"):
            if blocks and blocks[-1][1] is None:
                raise MotifParseError(
                    "bare four-row layout may only hold a single matrix", line_no
                )
            parts = line[1:].split(None, 1)
            if not parts:
                raise MotifParseError("empty header: no motif id after '>'", line_no)
            blocks.append((line_no, parts[0], parts[1] if len(parts) > 1 else None, {}))
            continue
        m = _JASPAR_ROW.match(line)
        if m is None:
            raise MotifParseError(f"unrecognized line {line!r}", line_no)
        if not blocks:
            blocks.append((line_no, None, None, {}))
        rows = blocks[-1][3]
        base = m.group(1).upper()
        if base in rows:
            raise MotifParseError(f"repeated base row {base!r}", line_no)
        try:
            rows[base] = [int(t) for t in m.group(2).split()]
        except ValueError as exc:
            raise MotifParseError(f"bad count token: {exc}", line_no) from None

    records: list[MotifRecord] = []
    seen: dict[str, int | str] = {}
    for at, rec_id, name, rows in blocks:
        rec_id = "matrix" if rec_id is None else rec_id
        missing = [b for b in BASES if b not in rows]
        if missing:
            raise MotifParseError(
                f"record {rec_id!r} is missing base row(s) {', '.join(missing)}", at
            )
        lengths = {b: len(rows[b]) for b in BASES}
        if len(set(lengths.values())) != 1:
            raise MotifParseError(f"record {rec_id!r} has unequal row lengths {lengths}", at)
        _admit(records, seen, at, rec_id, [rows[b] for b in BASES], name=name)
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


def parse_transfac(text: str, warnings: list[str] | None = None) -> list[MotifRecord]:
    """Parse a TRANSFAC flat file: one record per // block with a P0 section.

    A block's first AC, ID, NA and OS fields give the record's id (AC, else
    ID), name (NA, else ID when AC is the id) and species.  The P0 header
    orders the columns, a permutation of A C G T, and each numbered row
    below it holds one position; anything past a row's fourth count (the
    consensus letter) is ignored.  Blocks without a P0 section, such as the
    `VV` preamble of a distributed file, are skipped with a warning.
    Decimal counts are rounded half-up to integers, with the rounding
    recorded as a warning.
    """
    records: list[MotifRecord] = []
    seen: dict[str, int | str] = {}
    block: list[tuple[int, str]] = []
    for line_no, line in _content(text):
        if line.startswith("//"):
            _transfac_block(block, records, seen, warnings)
            block = []
        else:
            block.append((line_no, line))
    _transfac_block(block, records, seen, warnings)
    return records


def _transfac_block(block: list[tuple[int, str]], records: list[MotifRecord],
                    seen: dict[str, int | str], warnings: list[str] | None) -> None:
    if not block:
        return
    fields: dict[str, str] = {}
    order: list[str] | None = None
    p0_line = None
    index: list[int] = []
    rows: list[list[float]] = []
    for line_no, line in block:
        tag = line[:2].upper()
        if tag in ("AC", "ID", "NA", "OS"):
            fields.setdefault(tag, line[2:].strip())
        elif tag in ("P0", "PO"):
            order = [h.upper() for h in line[2:].split()][:4]
            if sorted(order) != sorted(BASES):
                raise MotifParseError(
                    f"P0 header columns {order} are not a permutation of A C G T", line_no
                )
            p0_line = line_no
        elif order is not None and (m := _TRANSFAC_ROW.match(line)):
            toks = m.group(2).split()
            if len(toks) < 4:
                raise MotifParseError(
                    f"matrix row has fewer than 4 base columns: {line!r}", line_no
                )
            try:
                rows.append([float(t) for t in toks[:4]])
            except ValueError as exc:
                raise MotifParseError(f"bad count token: {exc}", line_no) from None
            index.append(int(m.group(1)))
    rec_id = fields.get("AC") or fields.get("ID")
    if order is None:
        if warnings is not None:
            warnings.append(f"skipped {rec_id or f'block at line {block[0][0]}'}: "
                            "no P0 count section")
        return
    if rec_id is None:
        raise MotifParseError("block has a P0 section but no AC or ID line", p0_line)
    if not rows:
        raise MotifParseError(f"record {rec_id!r} has a P0 header but no count rows", p0_line)
    if index != list(range(index[0], index[0] + len(index))):
        raise MotifParseError(
            f"record {rec_id!r} has non-consecutive row indices {index}", p0_line
        )
    name = fields.get("NA")
    if name is None and fields.get("AC"):
        name = fields.get("ID") or None
    raw = np.array(rows)
    # negatives stay as read, so that CountMatrix refuses them
    counts = np.where(raw < 0, raw, np.floor(raw + 0.5))
    _admit(records, seen, block[0][0], rec_id, counts[:, [order.index(b) for b in BASES]].T,
           name=name, species=fields.get("OS"))
    if warnings is not None and np.any(counts != raw):
        warnings.append(f"record {rec_id!r}: decimal counts rounded to integers (half-up)")


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
    records: list[MotifRecord] = []
    seen: dict[str, int | str] = {}
    for k, entry in enumerate(payload["records"]):
        if not isinstance(entry, dict) or "id" not in entry or "counts" not in entry:
            raise MotifParseError(f"records entry {k} lacks an id or counts")
        _admit(records, seen, f"records entry {k}", entry["id"], entry["counts"],
               name=entry.get("name"), family=entry.get("family"),
               species=entry.get("species"))
    return records


# a TRANSFAC field tag (AC, ID, P0, VV, XX, ...) or a block end; a JASPAR
# row opens with one base letter, followed by a space, bracket or digit
_TRANSFAC_START = re.compile(r"[A-Z]{2}|P0|//", re.IGNORECASE)


def sniff_format(text: str) -> str:
    """Guess the input format from the first line with content: '{' means
    JSON, a TRANSFAC field tag or '//' means TRANSFAC, and anything else
    ('>' headers, bare rows) JASPAR."""
    for _, line in _content(text):
        if line.startswith("{"):
            return "json"
        return "transfac" if _TRANSFAC_START.match(line) else "jaspar"
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
