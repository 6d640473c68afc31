#!/usr/bin/env python3
"""Regenerate the committed golden CSVs under tests/golden/.

Run from the repository root after an intentional change to the emission
format or the underlying numerics, then review the diff before committing.
For each file it prints "unchanged", or every changed column with the
largest relative change of its numeric cells against the previous bytes.
"""

import csv
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from golden_defs import GOLDEN_BUILDERS, GOLDEN_DIR  # noqa: E402


def _rel_change(old: str, new: str) -> float:
    """|new - old| / |old| of two numeric cells (inf for a change from 0)."""
    a, b = float(old), float(new)
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a else float("inf")


def describe_change(old: bytes, new: bytes) -> list[str]:
    """One line per changed column; ["unchanged"] for identical bytes."""
    if old == new:
        return ["unchanged"]
    old_rows = list(csv.reader(io.StringIO(old.decode("utf-8"))))
    new_rows = list(csv.reader(io.StringIO(new.decode("utf-8"))))
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
