"""Fail when README.md or DESIGN.md quote a benchmark result file that is
not committed under benchmarks/results/.

Usage:  python tools/check_bench_refs.py

Every ``BENCH_<name>.json`` the two documents name must exist, so a quoted
number can always be traced to the committed data it came from.  Exits 0
when all are present, 1 (listing each missing file and where it is named)
otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
DOCS = ("README.md", "DESIGN.md")
REF = re.compile(r"BENCH_\w+\.json")


def missing_refs(root: Path = ROOT) -> list:
    """``(document, line number, file name)`` for every missing result."""
    out = []
    for doc in DOCS:
        lines = (root / doc).read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            for name in REF.findall(line):
                if not (root / "benchmarks" / "results" / name).is_file():
                    out.append((doc, lineno, name))
    return out


def main() -> int:
    missing = missing_refs()
    for doc, lineno, name in missing:
        print(f"{doc}:{lineno}: {name} is not in "
              f"{RESULTS.relative_to(ROOT)}/", file=sys.stderr)
    if missing:
        return 1
    print(f"all BENCH_*.json named in {' and '.join(DOCS)} are committed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
