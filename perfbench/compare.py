"""Compare two benchmark result records from ``.perfbench/results/``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's base value, new value and relative change.  Refuses
(exit status 2) to compare records that differ in host (CPU model and
count, Python and numpy versions), backend, scale, workload or trace
mode: such numbers answer a different question.
"""

from __future__ import annotations

import json
import sys

#: provenance fields that must match for two results to be comparable
SAME = ("cpu_model", "cpu_count", "python", "numpy", "backend", "scale")


def compare(base: dict, new: dict) -> list:
    """``[(metric, base, new, relative change)]``; raises ``ValueError``
    naming the first field that makes the records incomparable."""
    for field in SAME:
        if base["provenance"][field] != new["provenance"][field]:
            raise ValueError(
                "%s differs: %r vs %r"
                % (field, base["provenance"][field], new["provenance"][field])
            )
    if base["workload"] != new["workload"] or set(base["result"]["metrics"]) != set(
        new["result"]["metrics"]
    ):
        raise ValueError("different workload or trace mode")
    rows = []
    for name, entry in base["result"]["metrics"].items():
        old = entry["value"]
        value = new["result"]["metrics"][name]["value"]
        rows.append((name, old, value, (value - old) / old if old else float("nan")))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as handle:
            records.append(json.load(handle))
    try:
        rows = compare(*records)
    except ValueError as exc:
        print("compare: refused: %s" % exc, file=sys.stderr)
        return 2
    for name, old, value, change in rows:
        print("%-32s %14.6g %14.6g %+8.1f%%" % (name, old, value, 100 * change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
