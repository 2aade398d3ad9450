#!/usr/bin/env python3
"""Write tests/golden_corpus.json.gz, the outcomes the library gives on
the fixed-seed inputs of ``tests/support.py``.

Today the corpus holds its cuboid slice: for each input of
``support.golden_cuboids``, the outcomes that ``support.cuboid_outcomes``
records.  The file is gzip-compressed JSON, one case per line, so that
about 2,000 cases fit in well under 300 KB; ``zcat`` shows it.
``tests/test_golden.py`` compares the library with it.  Run from the
repository root:

    PYTHONPATH=src python scripts/write_golden_corpus.py

It prints the labels of the cases whose outcomes changed.  A change that
alters an outcome on purpose rewrites the file and lists each changed
case in CHANGES.md.
"""

import gzip
import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"
GOLDEN = TESTS / "golden_corpus.json.gz"
sys.path.insert(0, str(TESTS))

from addsys.cuboid import Cuboid  # noqa: E402
from support import GOLDEN_SEED, cuboid_outcomes, golden_cuboids  # noqa: E402


def main() -> int:
    cases = [
        [label, *cuboid_outcomes(Cuboid(dims, tuple(entries)))]
        for label, dims, entries in golden_cuboids()
    ]
    if GOLDEN.exists():
        old = json.loads(gzip.decompress(GOLDEN.read_bytes()))["cuboid"]
        old = {case[0]: case for case in old}
        for case in cases:
            if old.get(case[0]) != case:
                print(f"changed: {case[0]}")
    body = ",\n".join(json.dumps(case, sort_keys=True, separators=(",", ":")) for case in cases)
    text = f'{{"seed": {GOLDEN_SEED}, "cuboid": [\n{body}\n]}}\n'
    data = gzip.compress(text.encode(), compresslevel=9, mtime=0)
    GOLDEN.write_bytes(data)
    print(f"{len(cases)} cuboid cases, {len(data)} bytes ({len(text)} uncompressed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
