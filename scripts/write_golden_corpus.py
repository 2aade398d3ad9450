#!/usr/bin/env python3
"""Write tests/golden_corpus.json.gz, the outcomes the library gives on
the fixed-seed inputs of ``tests/support.py``.

The corpus holds two slices: ``"cuboid"``, the outcomes that
``support.cuboid_outcomes`` records for each input of
``support.golden_cuboids``, and ``"square"``, those of
``support.square_outcomes`` for each input of ``support.golden_squares``.
The file is gzip-compressed JSON, one case per line, so that a few
thousand cases fit in well under 300 KB; ``zcat`` shows it.
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
from support import (  # noqa: E402
    GOLDEN_SEED,
    cuboid_outcomes,
    golden_cuboids,
    golden_squares,
    square_outcomes,
)


def main() -> int:
    slices = {
        "cuboid": [
            [label, *cuboid_outcomes(Cuboid(dims, tuple(entries)))]
            for label, dims, entries in golden_cuboids()
        ],
        "square": [[label, *square_outcomes(rows)] for label, rows in golden_squares()],
    }
    old = json.loads(gzip.decompress(GOLDEN.read_bytes())) if GOLDEN.exists() else {}
    for name, cases in slices.items():
        before = {case[0]: case for case in old.get(name, [])}
        for case in cases:
            if before.get(case[0]) != case:
                print(f"changed: {name} {case[0]}")
    bodies = (
        f'"{name}": [\n'
        + ",\n".join(json.dumps(case, sort_keys=True, separators=(",", ":")) for case in cases)
        + "\n]"
        for name, cases in slices.items()
    )
    text = f'{{"seed": {GOLDEN_SEED}, {", ".join(bodies)}}}\n'
    data = gzip.compress(text.encode(), compresslevel=9, mtime=0)
    GOLDEN.write_bytes(data)
    counts = ", ".join(f"{len(cases)} {name}" for name, cases in slices.items())
    print(f"{counts} cases, {len(data)} bytes ({len(text)} uncompressed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
