"""Batch machinery: the output table, the scan driver, convergence studies,
CSV/JSON emission and run manifests.

Every command's output is a `Table` of columns: float columns as (values,
none) arrays, the others as lists of str or int cells. Scans evaluate one
quantity of `quantities.QUANTITIES` on a rectangular parameter grid in
row-major axis order; per-point numeric-domain failures become rows with a
non-ok status instead of aborting (branch-cut regions are expected and
interesting). The grid is evaluated in this process, in chunks of
SCAN_CHUNK points, each written into result columns allocated once for the
whole grid. Output bytes are deterministic: fixed column order, shortest
round-trip float formatting, LF line endings, and grid-order emission.
`render_blocks` makes the bytes of csv.writer and json.dumps(indent=2)
from a table's text columns, in blocks of RENDER_BLOCK rows; each distinct
float of a block is formatted once, across all of the block's float
columns. The output is never held whole: `emit` writes each block to
stdout or a file as it is made, and into the manifest's digest, so a
1e6-point mode_report scan to a file peaks at 317 MB RSS, not the 971 MB
of holding the output and a second copy of the table (one CPU).

This module is the output path of every command, so it imports neither
the evaluators nor their physics modules: `run_scan` imports `quantities`
when it runs, and `json` and `hashlib` are imported by the JSON output and
the manifest that use them.
"""

from __future__ import annotations

import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidInput, RefusedTooLarge
from .evolution import (DEFAULT_GRID_CAP, UnitSystem, continuous_propagator, step_map,
                        symmetric_hamiltonian)
from .record import Record

SCHEMA_VERSION = 1
# Grid points per batched evaluation.
SCAN_CHUNK = 4096
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
    stop)` gives a slice of column c, which is how `render_blocks` reads it.
    """

    def __init__(self, columns: dict):
        self.columns = columns

    def __len__(self) -> int:
        col = next(iter(self.columns.values()), [])
        return len(col[0] if isinstance(col, tuple) else col)

    def block(self, c: str, start: int, stop: int):
        col = self.columns[c]
        return tuple(a[start:stop] for a in col) if isinstance(col, tuple) else col[start:stop]

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


def run_scan(spec, workers: int = 1) -> Table:
    """Evaluate the grid of a `quantities.ScanSpec` in row-major axis order,
    in chunks of SCAN_CHUNK points, in this process; `workers` must be at
    least 1 and changes nothing."""
    from .quantities import QUANTITY_COLUMNS, evaluate_chunk
    if workers < 1:
        raise InvalidInput(f"workers must be at least 1, got {workers}")
    total = spec.total_points
    cap = min(spec.max_points, DEFAULT_GRID_CAP)
    if total > cap:
        raise RefusedTooLarge(f"scan has {total} points, cap is {cap}")
    names = [ax.name for ax in spec.grid]
    grid = [g.ravel() for g in np.meshgrid(*(ax.values() for ax in spec.grid),
                                           indexing="ij")]
    columns = {name: float_column(g) for name, g in zip(names, grid)}
    # each result column is allocated once for the whole grid and filled
    # chunk by chunk, so the table is never held twice
    results = {c: (np.empty(total), np.empty(total, dtype=bool))
               for c in QUANTITY_COLUMNS[spec.quantity]}
    status = []
    for i in range(0, total, SCAN_CHUNK):
        cols, chunk_status = evaluate_chunk(spec.quantity, spec.fixed, names,
                                            [g[i:i + SCAN_CHUNK] for g in grid])
        for c, (values, none) in results.items():
            values[i:i + SCAN_CHUNK], none[i:i + SCAN_CHUNK] = cols[c]
        status += chunk_status.tolist()
    return Table({**columns, **results, "status": status})


# ---------------------------------------------------------------------------
# convergence study

def convergence_study(energy: float, t_max: float, m_list, hbar: float = 1.0) -> Table:
    """Error of the m-fold composed step map against the exact propagator:
    a table of m, max_entry_error, observed_order and status.

    observed_order between consecutive valid rows is
    log(err_prev / err) / log(m / m_prev), ~1 for this forward-difference
    scheme. Rows where the composition overflows are flagged invalid and
    skipped in the order bookkeeping, not fatal.
    """
    m_list = [int(m) for m in m_list]
    if not m_list:
        raise InvalidInput("m_list names no step count")
    if any(m < 2 for m in m_list) or m_list != sorted(m_list):
        raise InvalidInput("m_list must be ascending integers >= 2")
    if m_list[-1] > sys.float_info.max:  # t_max / m would raise OverflowError
        raise InvalidInput("m_list must not exceed the largest double, about 1.8e308")
    if not math.isfinite(t_max):
        raise InvalidInput("t_max must be finite")
    units = UnitSystem(hbar=hbar)
    h = symmetric_hamiltonian(energy)
    target = continuous_propagator(h, t_max, units)
    k = len(m_list)
    err, order = np.zeros(k), np.zeros(k)
    invalid, no_order = np.ones(k, dtype=bool), np.ones(k, dtype=bool)
    prev = None  # (m, err) of the last valid row
    for i, m in enumerate(m_list):
        u = step_map(h, t_max / m, hbar)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an invalid row
            composed = np.linalg.matrix_power(u, m)
        if not np.all(np.isfinite(composed)):
            continue
        err[i] = e = float(np.max(np.abs(composed - target)))
        invalid[i] = False
        if prev is not None and e > 0 and prev[1] > 0 and m != prev[0]:
            order[i] = math.log(prev[1] / e) / math.log(m / prev[0])
            no_order[i] = False
        prev = (m, e)
    return Table({"m": m_list, "max_entry_error": (err, invalid),
                  "observed_order": (order, no_order),
                  "status": ["invalid" if x else "ok" for x in invalid.tolist()]})


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


def _block_texts(cols: list, fmt: str, text) -> list[list[str]]:
    """The texts of one block's columns, from `Table.block`, in `fmt`.

    The float columns, (values, none) pairs, are formatted together: each
    distinct value of the block, after -0.0 is folded to 0.0, once by its
    shortest round-trip repr (repeats are common: axis values, and cells
    that two modes share); a value that is not finite gives 'inf', '-inf'
    or 'nan', quoted in JSON (which keeps the JSON strictly valid), and a
    cell marked in `none` the text of None. Any other column is made text
    by `_column` with the cell rule `text`.
    """
    floats = [col for col in cols if isinstance(col, tuple)]
    float_texts = iter(())
    if floats:
        values = np.stack([v for v, _ in floats])
        values += 0.0
        unique, inverse = np.unique(values, return_inverse=True)
        texts = list(map(float.__repr__, unique.tolist()))
        if fmt == "json":
            for i in np.flatnonzero(~np.isfinite(unique)).tolist():
                texts[i] = f'"{texts[i]}"'
        texts.append("" if fmt == "csv" else "null")
        inverse = inverse.reshape(values.shape)  # NumPy 1.x and 2.x differ
        inverse[np.stack([none for _, none in floats])] = len(texts) - 1
        float_texts = iter(np.array(texts, dtype=object)[inverse].tolist())
    return [next(float_texts) if isinstance(col, tuple) else _column(col, text)
            for col in cols]


def _csv_rows(texts: list[list[str]]) -> bytes:
    """The CSV lines of the rows whose column texts are `texts`."""
    if len(texts) == 1:  # csv.writer writes a lone empty field as ""
        texts = [[t or '""' for t in texts[0]]]
    return ("\n".join(map(",".join, zip(*texts))) + "\n").encode("utf-8")


def render_blocks(rows: Table, fmt: str = "csv"):
    """The bytes of a table in CSV (RFC 4180, LF endings, the bytes of
    csv.writer) or JSON (the bytes of json.dumps(indent=2) plus a newline),
    its columns in the table's order, as an iterator of encoded blocks: the
    CSV header or the JSON opening bracket, one block per RENDER_BLOCK rows,
    and the JSON closing bracket. The format is checked by this call, before
    any block is made.

    Only one block's cells and texts are held at a time: `_block_texts`
    makes the block's column texts (each distinct float of the block
    formatted once), and rows are joined from them with ',' (CSV) or one
    row template of the indented JSON layout. The header's texts come from
    `_column`.
    """
    _require_format(fmt)
    return _blocks(rows, fmt)


def _require_format(fmt: str) -> None:
    if fmt not in ("csv", "json"):
        raise InvalidInput(f"format must be csv or json, got {fmt!r}")


def _blocks(rows: Table, fmt: str):
    columns = list(rows.columns)
    starts = range(0, len(rows), RENDER_BLOCK)
    text = _cell_text(fmt)
    blocks = (_block_texts([rows.block(c, start, start + RENDER_BLOCK) for c in columns],
                           fmt, text) for start in starts)
    if fmt == "csv":
        yield _csv_rows([[t] for t in _column(columns, text)])
        yield from map(_csv_rows, blocks)
        return
    if not starts:
        yield b"[]\n"
        return
    template = "  {\n" + ",\n".join(
        f"    {text(c).replace('%', '%%')}: %s" for c in columns) + "\n  }"
    yield b"[\n"
    for start, texts in zip(starts, blocks):
        block = ",\n".join(map(template.__mod__, zip(*texts)))
        yield (",\n" + block if start else block).encode("utf-8")
    yield b"\n]\n"


def render(rows: Table, fmt: str = "csv") -> bytes:
    """The whole output of `render_blocks` as one bytes object."""
    return b"".join(render_blocks(rows, fmt))


def emit(rows: Table, fmt: str = "csv", destination=None, digest=None) -> None:
    """Write a table block by block as `render_blocks` makes it, so that the
    output is never held whole: destination None writes to stdout (its
    binary buffer after a flush, or each block decoded where stdout has no
    buffer, as an io.StringIO has not), a path-like writes the file. Each
    block written is also fed to `digest`, a hashlib object, if given.
    """
    blocks = render_blocks(rows, fmt)
    if destination is not None:
        with open(destination, "wb") as f:
            _write_blocks(blocks, f.write, digest)
        return
    if hasattr(sys.stdout, "buffer"):  # not an io.StringIO
        sys.stdout.flush()
        write = sys.stdout.buffer.write
    else:
        def write(block):
            sys.stdout.write(block.decode("utf-8"))
    _write_blocks(blocks, write, digest)


def _write_blocks(blocks, write, digest) -> None:
    for block in blocks:
        write(block)
        if digest is not None:
            digest.update(block)


class RunManifest(Record):
    __slots__ = ("schema_version", "timestamp", "parameters", "artifact_version", "outputs")

    def __init__(self, schema_version: int, timestamp: str, parameters: dict,
                 artifact_version: str, outputs: dict):
        super().__init__(schema_version, timestamp, parameters, artifact_version, outputs)

    def to_json(self) -> str:
        import json
        return json.dumps(dict(zip(self.__slots__, self._values())), indent=2) + "\n"


def build_manifest(parameters: dict, outputs: dict) -> RunManifest:
    return RunManifest(
        schema_version=SCHEMA_VERSION,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        parameters=parameters,
        artifact_version=__version__,
        outputs=outputs,
    )


def manifest_path_for(out_path) -> Path:
    out = Path(out_path)
    return out.with_name(out.name + ".manifest.json")


def new_digest():
    """The digest a manifest records of an output: a SHA-256 hashlib object,
    fed the output's bytes block by block."""
    import hashlib
    return hashlib.sha256()


def emit_with_manifest(rows: Table, fmt: str, out_path, parameters: dict) -> RunManifest:
    """Write a table to out_path plus `<out>.manifest.json` beside it.

    The manifest is written after the data, with the digest of the blocks
    as they were written, and any manifest of an earlier run is removed
    first: a write that fails part way leaves no manifest beside the
    partial file.
    """
    _require_format(fmt)  # before an earlier manifest is removed
    manifest_file = manifest_path_for(out_path)
    manifest_file.unlink(missing_ok=True)
    digest = new_digest()
    emit(rows, fmt, out_path, digest)
    manifest = build_manifest(parameters, {Path(out_path).name: digest.hexdigest()})
    manifest_file.write_text(manifest.to_json(), encoding="utf-8")
    return manifest
