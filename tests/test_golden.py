"""The library's outcomes on the golden corpus equal the ones on file.

``tests/golden_corpus.json.gz`` was written by
``scripts/write_golden_corpus.py`` from the fixed-seed inputs of the
slices in ``support.GOLDEN_SLICES``: the report, JOF or exception of every
cuboid verifier and decomposer, certificate route and ordered scan alike;
of ``verify_square`` under every kind; of the sum-system verifier,
decomposer and polynomial check, with the route that answered; of the
SDS verifiers and maps, with the route that answered; and of
``validate_jof``, ``format_jof`` and ``parse_jof``.
"""

import gzip
import json
from pathlib import Path

import pytest

from support import GOLDEN_SEED, GOLDEN_SLICES

GOLDEN = Path(__file__).with_name("golden_corpus.json.gz")


@pytest.fixture(scope="module")
def corpus():
    corpus = json.loads(gzip.decompress(GOLDEN.read_bytes()))
    assert corpus["seed"] == GOLDEN_SEED
    return corpus


@pytest.mark.parametrize("name", GOLDEN_SLICES)
def test_outcomes_match_the_corpus(corpus, name):
    inputs, outcomes, least = GOLDEN_SLICES[name]
    cases = corpus[name]
    labels = []
    for (label, *args), case in zip(inputs(), cases, strict=True):
        assert label == case[0]
        if [label, *outcomes(*args)] != case:
            labels.append(label)
    assert not labels, f"{len(labels)} of {len(cases)} outcomes changed, first {labels[:10]}"
    assert len(cases) > least


def test_square_slice_pins_late_packed_fields(corpus):
    # ``verify_square`` names a column by the first differing 64-bit field
    # of packed rows.  A row's deviations under every packed clause sum to
    # 0, so no clause can first name the last column alone, and diagonal
    # pairs repeat with period n/2; the other clauses name columns past 64.
    columns = {}
    for case in corpus["square"]:
        for report in case[1:] if case[0].startswith("packed") else ():
            invariant, witness = report.get("violated_invariant"), report.get("witness")
            if invariant in ("column-sum", "associated-pairs", "block-sums", "diagonal-pairs"):
                column = witness[1] if isinstance(witness, list) else witness
                columns[invariant] = max(columns.get(invariant, 0), column)
    assert columns == {"column-sum": 127, "associated-pairs": 125, "block-sums": 126, "diagonal-pairs": 62}
