"""Batch machinery: the output table, the scan driver, convergence studies,
and `emit`, the one writer of every command's CSV/JSON, to stdout or to a
file with its run manifest.

Every command's output is a `Table` of columns: float columns as (values,
none) arrays, the others as lists of str or int cells. Scans evaluate one
quantity of `quantities.QUANTITIES` on a rectangular parameter grid in
row-major axis order; per-point numeric-domain failures become rows with a
non-ok status instead of aborting (branch-cut regions are expected and
interesting), while a parameter that is missing or of the wrong kind
refuses the whole scan before any output. The grid is evaluated in this
process, in chunks of SCAN_CHUNK points: `run_scan` gives a `ScanTable`,
whose chunk tables are evaluated one at a time as they are read. Output
bytes are deterministic: fixed column order, shortest round-trip float
formatting, LF line endings, and grid-order emission. `render_blocks`
makes the bytes of csv.writer and json.dumps(indent=2) from a table's text
columns, chunk by chunk in blocks of RENDER_BLOCK rows; each distinct
float of a block is formatted once, across all of the block's float
columns, unless the block before formatted it. Neither the output nor a
scan's table is ever held whole: `emit` writes each block to stdout, or to
a file and into its manifest's digest, as it is made, before the next chunk
is evaluated, so a 1e6-point mode_report scan peaks at 36 MB RSS to a file
and 33 MB to stdout, not the 255 MB of holding the scan's table (one CPU).

This module is the output path of every command, so it imports neither
the evaluators nor their physics modules: a `ScanTable` imports
`quantities` when it is built, and `json` and `hashlib` are imported by
the JSON output and the manifest that use them.
"""

from __future__ import annotations

import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidInput, Lanes, OnePoint, RefusedTooLarge
from .evolution import (DEFAULT_GRID_CAP, UnitSystem, coerce_param, continuous_propagator,
                        domain_check, step_map, symmetric_hamiltonian)
from .linalg2 import power2

SCHEMA_VERSION = 1
FORMATS = ("csv", "json")
# Grid points per batched evaluation, a multiple of RENDER_BLOCK so that
# every block of a scan but its last is RENDER_BLOCK rows. A scan holds one
# chunk's table and evaluation temporaries at a time (0.8 MB traced for
# 1024 mode_report points); smaller chunks cost more per point (a 5e3-point
# mode_report grid evaluates in 7.6 ms at 1024 points per chunk, 9.8 ms at
# 512 and 14.9 ms at 256, one CPU).
SCAN_CHUNK = 1024
# Rows per block of `render_blocks`. One block's cell texts and bytes are
# held at a time, so a larger block formats a repeated value fewer times but
# raises the peak memory (1024 rows added 0.3 MB to the peak RSS of a
# 2000-row `evolve`).
RENDER_BLOCK = 256


# ---------------------------------------------------------------------------
# output table and scan driver

class Table:
    """An output table: named columns of equal length, in output order.

    A float column is a (values, none) pair of arrays, `none` marking the
    cells that are None; any other column is a list of str or int cells.
    len() is the row count. Iterating or indexing gives row dicts, as a
    list of rows would (a slice gives a list of them); `block(c, start,
    stop)` gives a slice of column c, which is how `render_blocks` reads it,
    from `chunks()`: a table is its own single chunk, as a `ScanTable` is
    a sequence of them.
    """

    def __init__(self, columns: dict):
        self.columns = columns

    def __len__(self) -> int:
        col = next(iter(self.columns.values()), [])
        return len(col[0] if isinstance(col, tuple) else col)

    def block(self, c: str, start: int, stop: int):
        col = self.columns[c]
        return tuple(a[start:stop] for a in col) if isinstance(col, tuple) else col[start:stop]

    def chunks(self):
        return iter((self,))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return {c: (None if col[1][i] else float(col[0][i])) if isinstance(col, tuple)
                else col[i] for c, col in self.columns.items()}

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def float_column(values: np.ndarray) -> tuple:
    """The (values, none) pair of a float column without None cells."""
    return values, np.zeros(len(values), dtype=bool)


def stack_columns(pairs) -> tuple:
    """One (values, none) column of the rows of the columns `pairs`, in order."""
    return tuple(map(np.concatenate, zip(*pairs)))


def run_scan(spec, workers: int = 1) -> "ScanTable":
    """The table of a `quantities.ScanSpec`'s grid in row-major axis order,
    evaluated in this process chunk by chunk as it is read; `workers` must
    be at least 1 and changes nothing. The first chunk is evaluated here,
    so that a spec refused for what it holds fails before any output."""
    if workers < 1:
        raise InvalidInput(f"workers must be at least 1, got {workers}")
    total = spec.total_points
    cap = min(spec.max_points, DEFAULT_GRID_CAP)
    if total > cap:
        raise RefusedTooLarge(f"scan has {total} points, cap is {cap}")
    return ScanTable(spec)


class ScanTable:
    """A scan's table, never held whole: `columns` are its column names,
    those of its first chunk, len() is its point count, and `chunks()`
    gives one `Table` of each SCAN_CHUNK points in grid order, evaluated
    by `quantities.evaluate_chunk` (both names are read when the table is
    built, which evaluates the first chunk) as it is reached. Iterating
    gives row dicts."""

    def __init__(self, spec):
        from .quantities import evaluate_chunk
        self._spec, self._evaluate, self._size = spec, evaluate_chunk, SCAN_CHUNK
        self._names = [ax.name for ax in spec.grid]
        self._axes = [ax.values() for ax in spec.grid]
        self._first = self._chunk(0)
        self.columns = list(self._first.columns)

    def __len__(self) -> int:
        return self._spec.total_points

    def _chunk(self, start: int) -> Table:
        values = []
        if self._axes:  # a grid with no axes is one point; unravel_index needs a shape
            points = np.arange(start, min(start + self._size, len(self)))
            index = np.unravel_index(points, [len(v) for v in self._axes])
            values = [v[i] for v, i in zip(self._axes, index)]
        cols, status = self._evaluate(self._spec.quantity, self._spec.fixed, self._names,
                                      values)
        return Table({**{name: float_column(v) for name, v in zip(self._names, values)},
                      **cols, "status": status.tolist()})

    def chunks(self):
        yield self._first
        for start in range(self._size, len(self), self._size):
            yield self._chunk(start)

    def __iter__(self):
        return (row for chunk in self.chunks() for row in chunk)


# ---------------------------------------------------------------------------
# convergence study

def convergence_study(energy: float, t_max: float, m_list, hbar: float = 1.0) -> Table:
    """Error of the m-fold composed step map against the exact propagator:
    a table of m, max_entry_error, observed_order and status.

    `power2` gives U^m of the float U = I - i H (t_max / m) / hbar in closed
    form, for every m in one stacked call; m is at most 2**53, past which a
    double power is not the integer. observed_order between consecutive
    valid rows is log(err_prev / err) / log(m / m_prev), ~1 for this
    forward-difference scheme. Rows whose U or U^m is not finite are
    flagged invalid and skipped in the order bookkeeping, not fatal.
    Its energy and t_max must lie in their `evolution.PARAMETERS` domains,
    as the `converge` flags must: the error of a real symmetric H depends on
    |energy| alone, so a negative coupling would show nothing new.
    """
    m_list = [coerce_param("m_list", m, int) for m in m_list]
    if not m_list:
        raise InvalidInput("m_list names no step count")
    if any(m < 2 for m in m_list) or m_list != sorted(m_list):
        raise InvalidInput("m_list must be ascending integers >= 2")
    if m_list[-1] > 2 ** 53:  # power2 takes its powers as doubles
        raise InvalidInput("m_list must not exceed 2**53, the largest exact double integer")
    domain_check(OnePoint, "energy", energy)
    domain_check(OnePoint, "t_max", t_max)
    h = symmetric_hamiltonian(energy)
    target = continuous_propagator(h, t_max, UnitSystem(hbar=hbar))
    m, lanes = np.array(m_list, dtype=float), Lanes(len(m_list))
    err = np.abs(power2(step_map(h, t_max / m, hbar), m, lanes) - target).max(axis=(-2, -1))
    order, prev = np.full(len(m), np.nan), None  # prev: (m, err) of the last valid row
    for i, e in zip(np.flatnonzero(lanes.ok).tolist(), err[lanes.ok].tolist()):
        if prev is not None and e > 0 and prev[1] > 0 and m_list[i] != prev[0]:
            order[i] = math.log(prev[1] / e) / math.log(m_list[i] / prev[0])
        prev = (m_list[i], e)
    return Table({"m": m_list, "max_entry_error": (err, ~lanes.ok),
                  "observed_order": (order, np.isnan(order)),
                  "status": ["ok" if x else "invalid" for x in lanes.ok.tolist()]})


# ---------------------------------------------------------------------------
# emission and manifests

def _csv_text(v) -> str:
    """The CSV field of a str or int cell, as csv.writer writes it with
    QUOTE_MINIMAL: a string with ',', '"' or a newline in quotes, its
    quotes doubled."""
    if not isinstance(v, str):
        return str(v)
    if "," in v or '"' in v or "\n" in v:
        return '"' + v.replace('"', '""') + '"'
    return v


def _cell_text(fmt: str):
    """The text rule of a str or int cell in `fmt`: `_csv_text`, or the
    JSON text that json.dumps writes (json is imported for JSON output
    only)."""
    if fmt == "csv":
        return _csv_text
    from json.encoder import encode_basestring_ascii
    return lambda v: encode_basestring_ascii(v) if isinstance(v, str) else str(v)


def _column(cells: list, text) -> list[str]:
    """The texts by the cell rule `text` of a column of str and int cells
    (the header, and a table's columns that are not float columns), each
    distinct cell made text once."""
    texts = {c: text(c) for c in set(cells)}
    return list(map(texts.__getitem__, cells))


def _block_texts(cols: list, fmt: str, text, carry) -> tuple[list[list[str]], tuple]:
    """The texts of one block's columns, from `Table.block`, in `fmt`, and
    the carry of the next block.

    The float columns, (values, none) pairs, are formatted together: each
    distinct value of the block, after -0.0 is folded to 0.0, once by its
    shortest round-trip repr (repeats are common: axis values, and cells
    that two modes share); a value that is not finite gives 'inf', '-inf'
    or 'nan', quoted in JSON (which keeps the JSON strictly valid), and a
    cell marked in `none` the text of None. `carry` is the sorted distinct
    values and texts of the previous block's floats, or None; a value found
    there takes its text instead of being formatted again, as neighbouring
    blocks share axis values. Any other column is made text by `_column`
    with the cell rule `text`.
    """
    floats = [col for col in cols if isinstance(col, tuple)]
    float_texts = iter(())
    if floats:
        values = np.stack([v for v, _ in floats])
        values += 0.0
        unique, inverse = np.unique(values, return_inverse=True)
        texts = np.empty(len(unique) + 1, dtype=object)
        new = np.ones(len(unique), dtype=bool)
        if carry is not None:
            seen, seen_texts = carry
            at = np.minimum(np.searchsorted(seen, unique), len(seen) - 1)
            new = seen[at] != unique  # nan is never found, and formatted again
            texts[:-1][~new] = seen_texts[at[~new]]
        fresh = list(map(float.__repr__, unique[new].tolist()))
        if fmt == "json":
            for i in np.flatnonzero(~np.isfinite(unique[new])).tolist():
                fresh[i] = f'"{fresh[i]}"'
        texts[:-1][new] = fresh
        texts[-1] = "" if fmt == "csv" else "null"
        carry = unique, texts[:-1]
        inverse = inverse.reshape(values.shape)  # NumPy 1.x and 2.x differ
        inverse[np.stack([none for _, none in floats])] = len(texts) - 1
        float_texts = iter(texts[inverse].tolist())
    return [next(float_texts) if isinstance(col, tuple) else _column(col, text)
            for col in cols], carry


def _csv_rows(texts: list[list[str]]) -> bytes:
    """The CSV lines of the rows whose column texts are `texts`."""
    if len(texts) == 1:  # csv.writer writes a lone empty field as ""
        texts = [[t or '""' for t in texts[0]]]
    return ("\n".join(map(",".join, zip(*texts))) + "\n").encode("utf-8")


def render_blocks(rows: Table | ScanTable, fmt: str = "csv"):
    """The bytes of a table in CSV (RFC 4180, LF endings, the bytes of
    csv.writer) or JSON (the bytes of json.dumps(indent=2) plus a newline),
    its columns in the table's order, as an iterator of encoded blocks: the
    CSV header or the JSON opening bracket, one block per RENDER_BLOCK rows
    of each of the table's `chunks()` in turn, and the JSON closing bracket.
    The format is checked by this call, before any block is made.

    Only one chunk and one block's texts are held at a time, so a scan's
    chunk is evaluated, rendered and written before the next: `_block_texts`
    makes the block's column texts (each distinct float of the block
    formatted once, or taken from the block before), and rows are joined
    from them with ',' (CSV) or one row template of the indented JSON
    layout. The header's texts come from `_column`.
    """
    coerce_param("format", fmt, FORMATS)
    return _blocks(rows, fmt)


def _blocks(rows: Table | ScanTable, fmt: str):
    columns = list(rows.columns)
    text = _cell_text(fmt)
    if fmt == "csv":
        yield _csv_rows([[t] for t in _column(columns, text)])
    elif not len(rows):
        yield b"[]\n"
        return
    else:
        template = "  {\n" + ",\n".join(
            f"    {text(c).replace('%', '%%')}: %s" for c in columns) + "\n  }"
        yield b"[\n"
    carry, lead = None, ""
    for chunk in rows.chunks():
        for start in range(0, len(chunk), RENDER_BLOCK):
            texts, carry = _block_texts(
                [chunk.block(c, start, start + RENDER_BLOCK) for c in columns], fmt, text, carry)
            if fmt == "csv":
                yield _csv_rows(texts)
                continue
            # every block but the grid's first follows a ",\n"
            yield (lead + ",\n".join(map(template.__mod__, zip(*texts)))).encode("utf-8")
            lead = ",\n"
    if fmt == "json":
        yield b"\n]\n"


def render(rows: Table | ScanTable, fmt: str = "csv") -> bytes:
    """The whole output of `render_blocks` as one bytes object."""
    return b"".join(render_blocks(rows, fmt))


def emit(rows: Table | ScanTable, fmt: str = "csv", out=None, parameters=None) -> None:
    """Write a table block by block as `render_blocks` makes it, so that the
    output is never held whole: to stdout (its binary buffer after a flush,
    or each block decoded where stdout has no buffer, as an io.StringIO has
    not) if `out` is None or empty, else to the file `out` with a manifest
    beside it, `<out>.manifest.json`: the schema version, the time, the run's
    `parameters`, the package version and the SHA-256 of the blocks as they
    were written. An earlier run's manifest is removed before the file is
    opened and the manifest is written after the data, so a write that fails
    part way leaves no manifest beside the partial file.
    """
    blocks = render_blocks(rows, fmt)  # refuses a bad format before anything is written
    if not out:
        if hasattr(sys.stdout, "buffer"):  # not an io.StringIO
            sys.stdout.flush()
            sys.stdout.buffer.writelines(blocks)
        else:
            sys.stdout.writelines(block.decode("utf-8") for block in blocks)
        return
    import hashlib
    import json
    manifest = manifest_path_for(out)
    manifest.unlink(missing_ok=True)
    digest = hashlib.sha256()
    with open(out, "wb") as f:
        for block in blocks:
            f.write(block)
            digest.update(block)
    manifest.write_text(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "parameters": parameters, "artifact_version": __version__,
        "outputs": {Path(out).name: digest.hexdigest()}}, indent=2) + "\n", encoding="utf-8")


def manifest_path_for(out_path) -> Path:
    out = Path(out_path)
    return out.with_name(out.name + ".manifest.json")
