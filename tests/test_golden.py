"""The library's outcomes on the golden corpus equal the ones on file.

``tests/golden_corpus.json.gz`` was written by
``scripts/write_golden_corpus.py`` from the fixed-seed inputs of
``support.golden_cuboids``: the report, JOF or exception of every cuboid
verifier and decomposer, certificate route and ordered scan alike.
"""

import gzip
import json
from pathlib import Path

from addsys.cuboid import Cuboid
from support import GOLDEN_SEED, cuboid_outcomes, golden_cuboids

GOLDEN = Path(__file__).with_name("golden_corpus.json.gz")


def test_cuboid_outcomes_match_the_corpus():
    corpus = json.loads(gzip.decompress(GOLDEN.read_bytes()))
    assert corpus["seed"] == GOLDEN_SEED
    cases = corpus["cuboid"]
    labels = []
    for (label, dims, entries), case in zip(golden_cuboids(), cases, strict=True):
        assert label == case[0]
        if [label, *cuboid_outcomes(Cuboid(dims, tuple(entries)))] != case:
            labels.append(label)
    assert not labels, f"{len(labels)} of {len(cases)} outcomes changed, first {labels[:10]}"
    assert len(cases) > 2000
