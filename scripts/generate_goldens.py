#!/usr/bin/env python3
"""Regenerate the committed golden CSVs under tests/golden/.

Run from the repository root after an intentional change to the emission
format or the underlying numerics, then review the diff before committing.
For each file it prints "unchanged", or every changed column with the
largest relative change of its numeric cells against the previous bytes.
"""

import csv
import io
import json
import sys
from pathlib import Path


def _rel_change(old: str, new: str) -> float:
    """|new - old| / |old| of two numeric cells (inf for a change from 0)."""
    a, b = float(old), float(new)
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a else float("inf")


def _table(data: bytes) -> list[list[str]]:
    """The rows of CSV bytes, or of a JSON array of row objects with its
    keys as the header row."""
    text = data.decode("utf-8")
    if not text.startswith("["):
        return list(csv.reader(io.StringIO(text)))
    rows = json.loads(text)
    header = list(rows[0]) if rows else []
    return [header] + [["" if row[c] is None else str(row[c]) for c in header]
                       for row in rows]


def describe_change(old: bytes, new: bytes) -> list[str]:
    """One line per changed column of two CSV or two JSON row outputs;
    ["unchanged"] for identical bytes."""
    if old == new:
        return ["unchanged"]
    old_rows, new_rows = _table(old), _table(new)
    if (len(old_rows) != len(new_rows) or not old_rows
            or old_rows[0] != new_rows[0]):
        return ["header or row count changed"]
    lines = []
    for j, name in enumerate(old_rows[0]):
        cells = [(o[j], n[j]) for o, n in zip(old_rows[1:], new_rows[1:])
                 if o[j] != n[j]]
        if not cells:
            continue
        try:
            worst = max(_rel_change(o, n) for o, n in cells)
        except ValueError:
            lines.append(f"{name}: {len(cells)} non-numeric cells changed")
            continue
        lines.append(f"{name}: {len(cells)} cells changed, "
                     f"max relative change {worst:.3g}")
    return lines


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from golden_defs import GOLDEN_BUILDERS, GOLDEN_DIR

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, builder in GOLDEN_BUILDERS.items():
        path = GOLDEN_DIR / name
        old = path.read_bytes() if path.exists() else None
        new = builder()
        path.write_bytes(new)
        if old is None:
            print(f"wrote {path}: new file")
            continue
        for line in describe_change(old, new):
            print(f"wrote {path}: {line}")


if __name__ == "__main__":
    main()
