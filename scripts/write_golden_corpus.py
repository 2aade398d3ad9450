#!/usr/bin/env python3
"""Write tests/golden_corpus.json.gz, the outcomes the library gives on
the fixed-seed inputs of ``tests/support.py``.

The corpus holds one key per row of ``support.GOLDEN_SLICES``: the
``"cuboid"``, ``"square"``, ``"sumsystem"``, ``"sds"`` and ``"jof"`` slices, each
the outcomes that the row's outcome function records for each input of
its generator.  The file is gzip-compressed JSON, one case per line, so
that a few thousand cases fit in a few hundred KB; ``zcat`` shows it.
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

from support import GOLDEN_SEED, GOLDEN_SLICES  # noqa: E402


def main() -> int:
    slices = {
        name: [[label, *outcomes(*args)] for label, *args in inputs()]
        for name, (inputs, outcomes, _) in GOLDEN_SLICES.items()
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
