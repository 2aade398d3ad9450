"""The stage walk and the routes built on it agree with the ordered scans.

Sum systems are verified by the stage walk at every size, the scan
answering only where the walk names no witness, and sum-and-distance
systems through the bijection to sum systems; both public verifiers are
held to their scans on small systems and on large ones.  Cuboids keep a
size rule and try the walk first only when their dims product is at
least ``cuboid._CERTIFICATE_RATIO`` times their sum; above it they are
held to the ordered scan and to ``support.cuboid_scan_reference``, which
shares no code with the library.  The walk itself is held to
``support.walk_reference``, the walk it replaced.
"""

import math
import operator

import pytest
from hypothesis import assume, given, settings, strategies as st

import addsys.cuboid
import addsys.sds
import addsys.sumsystem
from addsys.core import (
    InputError,
    InternalContradictionError,
    SumSystem,
    VerificationFailedError,
    VerificationReport,
)
from addsys.cuboid import (
    _CERTIFICATE_RATIO,
    Cuboid,
    _scan_reversible,
    build_cuboid,
    decompose_cuboid,
    multi_index,
    verify_reversible,
)
from addsys.factorisation import (
    JointOrderedFactorisation,
    _walk_stages,
    canonicalise,
    enumerate_jofs,
    validate_jof,
)
from addsys.sds import (
    FLAVOURS,
    SdsSystem,
    _scan_sds,
    sumsys_to_sds_inclusive,
    sumsys_to_sds_noninclusive,
    verify_sds,
)
from addsys.sumsystem import (
    _scan_sum_system,
    _walk_stop,
    build_sum_system,
    decompose_sum_system,
    polynomial_check,
    verify_sum_system,
)
from conftest import DIMS_E4, E4_PARTS, JOF_E4
from support import cuboid_scan_reference, divisors_ge2, vertex_reference, walk_reference

#: Dims whose product is at least the cuboid ratio times their sum.
ABOVE_RATIO = [(2,) * 11, (3,) * 7, (4,) * 6, (8, 8, 8, 8)]


def above_ratio(dims) -> bool:
    return math.prod(dims) >= _CERTIFICATE_RATIO * sum(dims)


@st.composite
def small_jofs(draw, sizes=st.integers(2, 6)):
    dims = draw(
        st.lists(sizes, min_size=1, max_size=3).filter(lambda d: math.prod(d) <= 240)
    )
    options = list(enumerate_jofs(tuple(dims)))
    return options[draw(st.integers(0, len(options) - 1))]


@st.composite
def large_ratio_jofs(draw, dims=st.sampled_from(ABOVE_RATIO), first=None):
    """A random JOF of dims above the ratio, drawn step by step; ``first``,
    a 0-based direction (-1 for the last), fixes its first step."""
    dims = draw(dims)
    quotients = list(dims)
    steps = []
    last = None
    while any(q > 1 for q in quotients):
        open_dirs = [j for j, q in enumerate(quotients) if q > 1 and j != last]
        assume(open_dirs)
        if first is not None and not steps:
            j = first % len(dims)
        else:
            j = draw(st.sampled_from(open_dirs))
        f = draw(st.sampled_from(divisors_ge2(quotients[j])))
        quotients[j] //= f
        steps.append((j + 1, f))
        last = j
    return JointOrderedFactorisation(tuple(steps), dims)


def bump_part(draw, ss: SumSystem) -> SumSystem:
    """Move one non-zero element of one part by +-1, keeping it a set."""
    parts = [list(p) for p in ss.parts]
    i = draw(st.integers(0, len(parts) - 1))
    k = draw(st.integers(1, len(parts[i]) - 1))
    parts[i][k] += draw(st.sampled_from([-1, 1]))
    row = parts[i]
    assume(row[k] > row[k - 1] and (k + 1 == len(row) or row[k] < row[k + 1]))
    return SumSystem(tuple(tuple(p) for p in parts))


@st.composite
def maybe_mutated(draw, jofs):
    ss = build_sum_system(draw(jofs))
    return bump_part(draw, ss) if draw(st.booleans()) else ss


@st.composite
def stage_mutated(draw, jofs):
    """A built system with one to three elements moved, each in a drawn stage.

    Every step of the factorisation is equally likely to be hit, early
    stages included.  A move either bumps the element by +-k or sets it
    to an element of another part that fits between its neighbours, so
    that two parts tie; a bump is clamped between the neighbours.
    """
    jof = draw(jofs)
    parts = [list(p) for p in build_sum_system(jof).parts]
    for _ in range(draw(st.integers(1, 3))):
        s = draw(st.integers(0, len(jof.steps) - 1))
        j, f = jof.steps[s]
        base = math.prod(g for i, g in jof.steps[:s] if i == j)
        row = parts[j - 1]
        k = draw(st.integers(base, base * f - 1))
        low = row[k - 1] + 1
        high = row[k + 1] - 1 if k + 1 < len(row) else row[k] + 100
        ties = [x for i, p in enumerate(parts) if i != j - 1 for x in p if low <= x <= high]
        if ties and draw(st.booleans()):
            row[k] = draw(st.sampled_from(ties))
        else:
            bump = draw(st.sampled_from([-1, 1])) * draw(st.sampled_from([1, 2, 3, 7, 50]))
            row[k] = min(max(row[k] + bump, low), high)
    return SumSystem(tuple(tuple(p) for p in parts))


@pytest.fixture(scope="module")
def e4_cuboid():
    return build_cuboid(JointOrderedFactorisation(JOF_E4, DIMS_E4))


def walk_witness(ss: SumSystem):
    """The stage walk's witness, "complete" when it completes."""
    stop = _walk_stop(ss.parts, ss.dims)
    return "complete" if stop is None else stop.witness


#: One system per branch of the rejection rule in
#: ``factorisation._walk_stages``, with the witness the walk names
#: (None where it leaves the answer to the scan).
RULE_BRANCHES = {
    # both parts continue with 1 at the first stage
    "tie": (((0, 1, 4, 5), (0, 1)), 1),
    # (0, 1, 4, 5), (0, 2) with 4 moved to 3: the third stage starts below P = 4
    "s-below-P": (((0, 1, 3, 5), (0, 2)), 3),
    # ... with 4 moved to 5 and 5 to 6: c(4) = 0, the next sum is 5
    "s-above-P": (((0, 1, 5, 6), (0, 2)), 5),
    # 12 moved to 10 in copy 2 of part 1's second stage: 10 is counted twice
    "copy-bump-down": (((0, 1, 2, 6, 7, 8, 10, 13, 14), (0, 3)), 10),
    # 14 moved to 16: c(14) = 0 and 15 = 12 + 3 decodes to part-1 index 0
    "copy-bump-up-gap": (((0, 1, 2, 6, 7, 8, 12, 13, 16), (0, 3)), 15),
    # part 1 stops at the fence 8 one element into copy 1; 6 = 4 + 2 is known
    "ragged-at-fence": (((0, 1, 4, 9), (0, 2, 8, 10)), 6),
    # part 1 runs out one element into copy 2; 10 = 8 + 2 is known
    "ragged-at-end": (((0, 1, 4, 5, 8), (0, 2)), 10),
    # the fence 5 is the missing value and part 1 also holds it next
    "fence-and-found-equal": (((0, 1, 4, 5), (0, 2, 5, 7)), 5),
    # the fence 5 is the missing value but part 1 holds 6: silent
    "silent": (((0, 1, 4, 6), (0, 2, 5, 7)), None),
    # 120 moved to 294: the next known sum, 144, lies more than
    # sum(dims) = 15 values above 120, so the search gives up: silent
    "silent-search-budget": (((0, 1), (0, 24, 96, 294), (0, 2, 4, 6), (0, 8, 16), (0, 48)), None),
    # 24 starts copy 2 of part 2 but 168 stands there: no known sum lies
    # above 24, so 168 is the witness however far it is
    "copy-start-far": (((0, 2), (0, 12, 168), (0, 4, 8), (0, 1)), 168),
}

#: A silent system above the ratio: the "silent" parts, then base-2 parts.
SILENT_ABOVE_RATIO = ((0, 1, 4, 6), (0, 2, 5, 7), *((0, 2**k) for k in range(4, 11)))


def assert_named_without_scan(parts, monkeypatch):
    """The public verdicts on ``parts`` equal the scan's, with the scan refused."""
    ss = SumSystem(tuple(tuple(p) for p in parts))
    expected = _scan_sum_system(ss)

    def refuse(*args):
        raise AssertionError("the ordered scan ran")

    monkeypatch.setattr(addsys.sumsystem, "_scan_sum_system", refuse)
    assert verify_sum_system(ss) == expected
    with pytest.raises(VerificationFailedError) as failed:
        decompose_sum_system(ss)
    assert failed.value.report == expected


class TestSumSystem:
    @given(maybe_mutated(small_jofs()))
    @settings(max_examples=300, deadline=None)
    def test_certificate_scan_and_polynomial_agree(self, ss):
        verdict = _scan_sum_system(ss).passed
        assert (_walk_stop(ss.parts, ss.dims) is None) == verdict
        assert polynomial_check(ss).passed == verdict
        if verdict:
            walked = _walk_stages(ss.parts, ss.dims)
            assert validate_jof(walked.steps, walked.dims).passed
            assert canonicalise(walked.steps, walked.dims) == walked

    @given(maybe_mutated(large_ratio_jofs()))
    @settings(max_examples=60, deadline=None)
    def test_public_report_equals_scan_above_ratio(self, ss):
        assert verify_sum_system(ss) == _scan_sum_system(ss)

    @given(stage_mutated(large_ratio_jofs()))
    @settings(max_examples=300, deadline=None)
    def test_public_report_equals_scan_every_stage(self, ss):
        assert verify_sum_system(ss) == _scan_sum_system(ss)

    @given(stage_mutated(small_jofs()))
    @settings(max_examples=300, deadline=None)
    def test_walk_witness_is_scan_witness(self, ss):
        scan = _scan_sum_system(ss)
        assert verify_sum_system(ss) == scan
        witness = walk_witness(ss)
        if witness == "complete":
            assert scan.passed
        elif witness is not None:
            assert scan == VerificationReport.fail("target-mismatch", witness=witness)

    @pytest.mark.parametrize("branch", sorted(RULE_BRANCHES))
    def test_rule_branch(self, branch):
        parts, witness = RULE_BRANCHES[branch]
        ss = SumSystem(parts)
        assert walk_witness(ss) == witness
        scan = _scan_sum_system(ss)
        assert scan.violated_invariant == "target-mismatch"
        if witness is not None:
            assert scan.witness == witness

    def test_silent_rule_falls_back_to_scan(self, monkeypatch):
        ss = SumSystem(SILENT_ABOVE_RATIO)
        assert walk_witness(ss) is None
        calls = []

        def counted(*args):
            calls.append(args)
            return _scan_sum_system(*args)

        monkeypatch.setattr(addsys.sumsystem, "_scan_sum_system", counted)
        report = verify_sum_system(ss)
        assert len(calls) == 1 and not report.passed
        assert report == _scan_sum_system(ss)

    def test_large_reject_without_scan(self, monkeypatch):
        parts = [list(p) for p in E4_PARTS]
        parts[4][6] += 1
        assert_named_without_scan(parts, monkeypatch)

    def test_copy_start_reject_without_scan(self, monkeypatch):
        # 4480 starts a copy of part 4; 4590 lies far above it
        parts = [list(p) for p in E4_PARTS]
        parts[3][8] = 4590
        assert_named_without_scan(parts, monkeypatch)


@st.composite
def mutated_large_cuboids(draw):
    """Built cuboids above the ratio, left alone or mutated one way.

    ``unit`` inserts a dimension of size 1, which keeps the flat entries;
    ``shift`` adds 1 everywhere, which keeps monotonicity and vertex
    sums but breaks the entry set; ``bool`` makes the root False.
    """
    M = build_cuboid(draw(large_ratio_jofs()))
    dims = M.dims
    entries = list(M.entries)
    kind = draw(st.sampled_from(["none", "unit", "swap", "bump", "root", "shift", "bool"]))
    if kind == "unit":
        at = draw(st.integers(0, len(dims)))
        dims = dims[:at] + (1,) + dims[at:]
    elif kind == "swap":
        a = draw(st.integers(0, M.size - 1))
        b = draw(st.integers(0, M.size - 1))
        entries[a], entries[b] = entries[b], entries[a]
    elif kind == "bump":
        entries[draw(st.integers(1, M.size - 1))] += draw(st.sampled_from([-1, 1]))
    elif kind == "root":
        entries[0] = 1
    elif kind == "shift":
        entries = [x + 1 for x in entries]
    elif kind == "bool":
        entries[0] = False
    if draw(st.booleans()) and kind != "none":
        # a second, independent change further on
        entries[draw(st.integers(1, M.size - 1))] += draw(st.sampled_from([-2, 2]))
    return Cuboid(dims, tuple(entries))


def outcome(verify, M):
    try:
        return verify(M)
    except InputError as exc:
        return str(exc)


def decompose_report(M):
    try:
        decompose_cuboid(M)
    except VerificationFailedError as exc:
        return exc.report
    return VerificationReport.ok()


def reference_outcome(M):
    """``support.cuboid_scan_reference``'s report, or InputError where the
    library must raise it: a non-integer entry, or an int subclass in a
    cuboid that would pass."""
    if not all(isinstance(x, int) for x in M.entries):
        return InputError
    report = cuboid_scan_reference(M.dims, M.entries)
    if report.passed and not all(type(x) is int for x in M.entries):
        return InputError
    return report


def typed_outcome(verify, M):
    try:
        return verify(M)
    except InputError:
        return InputError


@st.composite
def dirty_block_cuboids(draw):
    """Built cuboids above the ratio, faulted around last-direction blocks.

    ``later-tie``: an entry off every axis moved by +-1 where every line
    still increases (a vertex-sums fault alone), and a direction-1 tie in
    a later block.  ``boundary``: the first step is in the last direction
    m, with factor f, so block k is block k - 1 plus 1 wherever f does
    not divide k, and every other line steps by a multiple of f.  One end
    of such a direction-m pair takes the other's value, which breaks that
    pair alone, across a clean/dirty boundary from below or from above.
    ``odd``: the vertex-sums fault, and an entry of a later block (or of
    any block) set to -1, 2**70 or True, or a second vertex-sums fault in
    a later block.  Dims of order 2 are included, and a unit dimension
    may be put first or last.
    """
    kind = draw(st.sampled_from(["later-tie", "boundary", "odd"]))
    dims = st.sampled_from(ABOVE_RATIO + [(130, 130)])
    jof = draw(large_ratio_jofs(dims, first=-1 if kind == "boundary" else None))
    M = build_cuboid(jof)
    dims, entries = M.dims, list(M.entries)
    width, m = M.size // dims[-1], len(dims)
    strides = [math.prod(dims[:j]) for j in range(m)]

    def off_axis(p):
        return sum(p // s % n > 0 for s, n in zip(strides, dims)) >= 2

    if kind == "boundary":
        # the last axis starts 0, 1, .., f - 1 for the first factor f
        k = draw(st.sampled_from([k for k in range(1, dims[-1]) if k % jof.steps[0][1]]))
        i = (k - 1) * width + draw(st.integers(1, width - 1))
        # p in block k, or in block k - 1, takes the value of its partner q
        p, q = (i + width, i) if draw(st.booleans()) else (i, i + width)
        assume(off_axis(p))
        entries[p] = entries[q]
    else:

        def bump_in_block(k):  # +1 where no line stops increasing
            bumps = []
            for p in range(k * width, (k + 1) * width):
                ups = [entries[p + s] for s, n in zip(strides, dims) if p // s % n < n - 1]
                if off_axis(p) and all(y > entries[p] + 1 for y in ups):
                    bumps.append(p)
            assume(bumps)
            entries[draw(st.sampled_from(bumps))] += 1

        k = draw(st.integers(0, dims[-1] - 2))
        bump_in_block(k)
        later = st.integers((k + 1) * width, M.size - 1)
        if kind == "later-tie":
            q = draw(later.filter(lambda q: q % dims[0] and off_axis(q)))
            entries[q] = entries[q - 1]
        elif draw(st.booleans()):
            q = draw(later | st.integers(1, M.size - 1))
            entries[q] = draw(st.sampled_from([-1, 2**70, True]))
        else:  # a second vertex-sums fault, in a later block
            bump_in_block(draw(st.integers(k + 1, dims[-1] - 1)))
    unit = draw(st.sampled_from([None, "first", "last"]))
    dims = {"first": (1, *dims), "last": (*dims, 1), None: dims}[unit]
    return kind, Cuboid(dims, tuple(entries))


@st.composite
def block_faulted_cuboids(draw):
    """Built cuboids above the ratio, faulted in one to three last-direction
    blocks: sparse bumps, a swap, two bumps 63 or 64 entries apart (one
    either side of the 64-entry join), a negative entry, an entry beyond
    int64, a bool or float, or + 2**40, which moves only a field's high
    half.  A fault may land on an axis, which moves the closed form."""
    M = build_cuboid(draw(large_ratio_jofs(st.sampled_from(ABOVE_RATIO + [(130, 130)]))))
    entries = list(M.entries)
    width = M.size // M.dims[-1]
    blocks = st.lists(st.integers(0, M.dims[-1] - 1), min_size=1, max_size=3, unique=True)
    kinds = ["bump", "swap", "gap", "negative", "beyond", "odd", "high"]
    for k in draw(blocks):
        kind, start = draw(st.sampled_from(kinds)), k * width
        at = st.integers(start, start + width - 1)
        p = draw(at)
        if kind == "bump":
            for q in [p, *draw(st.lists(at, max_size=2))]:
                entries[q] += draw(st.sampled_from([-2, -1, 1, 2]))
        elif kind == "swap":
            q = draw(at)
            entries[p], entries[q] = entries[q], entries[p]
        elif kind == "gap":
            gap = draw(st.sampled_from([63, 64]))
            p = draw(st.integers(start, start + width - 1 - gap))
            entries[p] += draw(st.sampled_from([-1, 1]))
            entries[p + gap] += draw(st.sampled_from([-1, 1]))
        elif kind == "negative":
            entries[p] = draw(st.sampled_from([-1, -entries[p] - 1]))
        elif kind == "beyond":
            entries[p] = draw(st.sampled_from([2**63, 2**70, -(2**63) - 1]))
        elif kind == "odd":
            entries[p] = draw(st.sampled_from([True, False, entries[p] + 0.5, float(entries[p])]))
        else:
            entries[p] += 2**40
    return Cuboid(M.dims, tuple(entries))


def count_descent_reads(monkeypatch, M: Cuboid) -> tuple[list, list]:
    """Lists that ``cuboid._descent`` fills, once patched, with the pairs of
    each range it is given and the length of each slice it takes of M."""
    pairs, read = [], []

    class Counted(tuple):
        def __getitem__(self, key):
            if isinstance(key, slice):
                read.append(len(range(*key.indices(len(self)))))
            return tuple.__getitem__(self, key)

    entries = Counted(M.entries)

    def counted(_, step, block, lo, hi):
        pairs.append(hi - lo)
        return descent(entries, step, block, lo, hi)

    descent = addsys.cuboid._descent
    monkeypatch.setattr(addsys.cuboid, "_descent", counted)
    return pairs, read


def closed_form(dims, entries) -> list:
    """Every entry's sum of axis projections less (m - 1) times the root."""
    strides = [math.prod(dims[:j]) for j in range(len(dims))]
    root = entries[0]
    return [
        sum(entries[p // s % n * s] for s, n in zip(strides, dims)) - (len(dims) - 1) * root
        for p in range(len(entries))
    ]


class TestCuboid:
    @given(mutated_large_cuboids())
    @settings(max_examples=150, deadline=None)
    def test_public_report_equals_scan_above_ratio(self, M):
        assert above_ratio(M.dims)
        assert outcome(verify_reversible, M) == outcome(_scan_reversible, M)
        assert typed_outcome(verify_reversible, M) == reference_outcome(M)

    @given(mutated_large_cuboids())
    @settings(max_examples=150, deadline=None)
    def test_decompose_agrees_with_scan(self, M):
        assert outcome(decompose_report, M) == outcome(_scan_reversible, M)
        assert typed_outcome(decompose_report, M) == reference_outcome(M)

    @given(dirty_block_cuboids())
    @settings(max_examples=150, deadline=None)
    def test_dirty_block_faults_match_the_reference(self, case):
        kind, M = case
        assert above_ratio(M.dims)
        expected = reference_outcome(M)
        assert typed_outcome(verify_reversible, M) == expected
        assert typed_outcome(decompose_report, M) == expected
        if kind == "later-tie":
            assert expected.violated_invariant == "monotonicity"
        if kind == "boundary":
            direction = M.order - (M.dims[-1] == 1)
            assert expected.witness["direction"] == direction

    @given(block_faulted_cuboids())
    @settings(max_examples=120, deadline=None)
    def test_dirty_spans_are_the_runs_that_differ(self, M):
        spans = list(addsys.cuboid._dirty_spans(M))
        width = M.size // M.dims[-1]
        differ = [x != v for x, v in zip(M.entries, closed_form(M.dims, M.entries))]
        assert (spans[0][0] if spans else None) == vertex_reference(M.dims, M.entries)
        assert all(lo < hi for lo, hi in spans)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            # ascending and disjoint; within a block, runs closer than 64 are joined
            assert hi <= lo and (lo - hi >= 64 or lo // width != (hi - 1) // width)
        inside = [False] * M.size
        for lo, hi in spans:
            # a span starts at an entry that differs and ends at one, or at its block's end
            assert differ[lo] and (differ[hi - 1] or hi % width == 0)
            inside[lo:hi] = [True] * (hi - lo)
        assert all(map(operator.le, differ, inside))
        assert typed_outcome(verify_reversible, M) == reference_outcome(M)
        assert typed_outcome(decompose_report, M) == reference_outcome(M)

    def test_narrow_spans_are_read_in_flat_order(self):
        # entry (i, k) is 256 (i - 1) + k - 1: direction 2 steps by 1, so +1 at
        # (11, 2) ties (11, 3), and -1 at (6, 3) ties (6, 2).  The later
        # span's pair (6, 2)-(6, 3) comes first in flat order.
        dims = (256, 256)
        entries = [256 * i + k for k in range(256) for i in range(256)]
        entries[10 + 256] += 1
        entries[5 + 2 * 256] -= 1
        M = Cuboid(dims, tuple(entries))
        assert list(addsys.cuboid._dirty_spans(M)) == [(266, 267), (517, 518)]
        witness = {"direction": 2, "index": [6, 2]}
        expected = VerificationReport.fail("monotonicity", witness=witness)
        assert cuboid_scan_reference(dims, entries) == expected
        assert verify_reversible(M) == expected

    @given(st.lists(st.integers(0, 200), max_size=12, unique=True), st.integers(1, 40))
    def test_pair_ranges_cover_the_touching_pairs_in_order(self, cuts, step):
        cuts.sort()
        spans = list(zip(cuts[::2], cuts[1::2]))
        ranges = addsys.cuboid._pair_ranges(spans, step)
        assert [lo for lo, _ in ranges] == sorted(lo for lo, _ in ranges)
        touching = {i for lo, hi in spans for i in range(lo - step, hi) if i < hi - step or i >= lo}
        assert {i for lo, hi in ranges for i in range(lo, hi)} == touching

    def test_unpacked_block_spans_to_its_end(self):
        # 2**70 does not pack: its block is compared entry by entry, and
        # spans from its first mismatch to its end, the bumped last entry
        M = build_cuboid(JointOrderedFactorisation(((1, 8), (2, 8), (3, 8), (4, 8)), (8,) * 4))
        entries = list(M.entries)
        entries[2 * 512 + 100] = 2**70
        entries[3 * 512 - 1] += 1
        M = Cuboid(M.dims, tuple(entries))
        assert list(addsys.cuboid._dirty_spans(M)) == [(2 * 512 + 100, 3 * 512)]
        entries[2 * 512 + 100] = M.entries[2 * 512 + 99] + 1
        M = Cuboid(M.dims, tuple(entries))
        assert list(addsys.cuboid._dirty_spans(M)) == [(3 * 512 - 1, 3 * 512)]

    def test_e4_vertex_reject_reads_only_its_block(self, monkeypatch, e4_cuboid):
        # [7, 3, 4, 5, 6] is off every axis, and +1 leaves every line increasing
        width = e4_cuboid.size // DIMS_E4[-1]
        p = 6 + 2 * 28 + 3 * 560 + 4 * 16800 + 5 * width
        entries = list(e4_cuboid.entries)
        entries[p] += 1
        bumped = Cuboid(DIMS_E4, tuple(entries))
        pairs, read = count_descent_reads(monkeypatch, bumped)
        report = verify_reversible(bumped)
        assert report == VerificationReport.fail("vertex-sums", witness=[7, 3, 4, 5, 6])
        # p alone differs: each direction reads its two pairs (p - s_j, p) and
        # (p, p + s_j), not the s_j pairs between them, nor the entries between
        assert sum(pairs) == 2 * len(DIMS_E4)
        assert sum(read) == 2 * sum(pairs)

    def test_e4_scattered_vertex_faults_read_only_their_pairs(self, monkeypatch, e4_cuboid):
        # one +-1 fault in each window of 12,000 entries, off every axis and
        # leaving every line increasing: 303 one-entry spans in all 12 blocks,
        # read as their own pairs, not as the whole tensor in each direction
        strides = [math.prod(DIMS_E4[:j]) for j in range(len(DIMS_E4))]
        entries = list(e4_cuboid.entries)
        faults = []
        for q in range(0, e4_cuboid.size, 12_000):
            for p in range(q, q + 500):
                index, x = multi_index(DIMS_E4, p), entries[p]
                if sum(k > 1 for k in index) < 2:
                    continue
                if all(entries[p + s] > x + 1 for s, k, n in zip(strides, index, DIMS_E4) if k < n):
                    entries[p] += 1
                elif all(entries[p - s] < x - 1 for s, k in zip(strides, index) if k > 1):
                    entries[p] -= 1
                else:
                    continue
                faults.append(p)
                break
        M = Cuboid(DIMS_E4, tuple(entries))
        assert list(addsys.cuboid._dirty_spans(M)) == [(p, p + 1) for p in faults]
        pairs, read = count_descent_reads(monkeypatch, M)
        witness = list(multi_index(DIMS_E4, faults[0]))
        assert verify_reversible(M) == VerificationReport.fail("vertex-sums", witness=witness)
        assert sum(pairs) <= 2 * len(DIMS_E4) * len(faults)
        assert sum(read) <= 2 * sum(pairs)

    def test_e4_direction_1_tie_returns_before_later_blocks(self, monkeypatch, e4_cuboid):
        # a direction-1 tie at last index 6 and a bump at last index 10: the
        # tie is named from the first span, its one differing entry, alone,
        # before block 7 is compared
        width = e4_cuboid.size // DIMS_E4[-1]
        entries = list(e4_cuboid.entries)
        entries[5 * width + 29] = entries[5 * width + 28]
        entries[9 * width + 100] += 1
        M = Cuboid(DIMS_E4, tuple(entries))
        spans = []

        def recorded(M):
            for span in dirty_spans(M):
                spans.append(span)
                yield span

        dirty_spans = addsys.cuboid._dirty_spans
        monkeypatch.setattr(addsys.cuboid, "_dirty_spans", recorded)
        report = verify_reversible(M)
        witness = {"direction": 1, "index": [1, 2, 1, 1, 6]}
        assert report == VerificationReport.fail("monotonicity", witness=witness)
        assert spans == [(5 * width + 29, 5 * width + 30)]

    def test_unit_dimension_both_routes(self):
        M = build_cuboid(JointOrderedFactorisation(tuple((j, 2) for j in range(1, 12)), (2,) * 11))
        for dims in ((1,) + M.dims, M.dims + (1,), M.dims[:5] + (1,) + M.dims[5:]):
            unit = Cuboid(dims, M.entries)
            assert above_ratio(dims)
            assert verify_reversible(unit).passed
            assert _scan_reversible(unit).passed
            broken = Cuboid(dims, M.entries[:-1] + (M.entries[-1] + 1,))
            assert verify_reversible(broken) == _scan_reversible(broken)
            assert not verify_reversible(broken).passed

    def test_off_axis_float_rejected(self):
        M = build_cuboid(JointOrderedFactorisation(tuple((j, 2) for j in range(1, 12)), (2,) * 11))
        entries = list(M.entries)
        entries[3] = float(entries[3])
        with pytest.raises(InputError, match=r"3\.0 at index \[2, 2, 1"):
            verify_reversible(Cuboid(M.dims, tuple(entries)))


@st.composite
def mutated_sds(draw, jofs):
    """SDS systems from built sum systems, maybe mutated; ``jofs`` must
    give dims of one parity.

    ``max`` moves one part's maximum; ``lift`` moves one maximum up and
    another down by the same amount, which keeps the sum of the maxima;
    ``even`` and ``odd`` set an element to a free value below the part's
    maximum, of the maximum's parity or of the other one, which breaks
    the parity the non-inclusive map needs; ``flavour`` swaps the
    flavour.  Parts are sorted again after the moves.
    """
    ss = build_sum_system(draw(jofs))
    maps = (sumsys_to_sds_noninclusive, sumsys_to_sds_inclusive)
    s = maps[ss.dims[0] % 2](ss, check=False)
    parts = [list(p) for p in s.parts]
    flavour = s.flavour
    kinds = st.sampled_from(["max", "lift", "odd", "even", "even", "flavour"])
    for kind in draw(st.lists(kinds, max_size=2)):
        sign = draw(st.sampled_from([-1, 1]))
        if kind == "max":
            draw(st.sampled_from(parts))[-1] += sign * draw(st.sampled_from([1, 2, 7]))
        elif kind == "lift":
            step = sign * draw(st.sampled_from([1, 2, 7]))
            draw(st.sampled_from(parts))[-1] += step
            draw(st.sampled_from(parts))[-1] -= step
        elif kind == "flavour":
            flavour = FLAVOURS[1 - FLAVOURS.index(flavour)]
        else:
            row = draw(st.sampled_from(parts))
            top = max(row)
            free = [x for x in range(1 + (top + (kind == "odd")) % 2, top, 2) if x not in row]
            if free and len(row) > 1:
                below = draw(st.sampled_from(sorted(row)[:-1]))
                row[row.index(below)] = draw(st.sampled_from(free))
    assume(all(min(p) > 0 and len(set(p)) == len(p) for p in parts))
    return SdsSystem(tuple(tuple(sorted(p)) for p in parts), flavour)


class TestSds:
    @given(mutated_sds(large_ratio_jofs()))
    @settings(max_examples=200, deadline=None)
    def test_public_report_equals_scan_above_ratio(self, s):
        assert verify_sds(s) == _scan_sds(s)

    @given(mutated_sds(small_jofs(st.sampled_from([2, 4, 6]))))
    @settings(max_examples=300, deadline=None)
    def test_public_report_equals_scan_small_even(self, s):
        assert verify_sds(s) == _scan_sds(s)

    @given(mutated_sds(small_jofs(st.sampled_from([3, 5]))))
    @settings(max_examples=300, deadline=None)
    def test_public_report_equals_scan_small_odd(self, s):
        assert verify_sds(s) == _scan_sds(s)

    def test_e4_sds_reject_without_scan(self, monkeypatch, e4_sds_reject):
        def refuse(*args):
            raise AssertionError("the ordered scan ran")

        monkeypatch.setattr(addsys.sds, "_scan_sds", refuse)
        monkeypatch.setattr(addsys.sumsystem, "_scan_sum_system", refuse)
        report = verify_sds(e4_sds_reject)
        assert report == VerificationReport.fail("target-mismatch", witness=-3_386_881)


def walk_outcome(walk, axes, dims):
    try:
        return walk(axes, dims)
    except InternalContradictionError as stop:
        return str(stop), stop.witness


@st.composite
def unsorted_axes(draw):
    """Axes a cuboid may hold: a built system's parts with entries
    swapped or overwritten, so unsorted and repeating, and maybe a unit
    dimension whose axis is the root alone."""
    jof = draw(st.one_of(small_jofs(), large_ratio_jofs()))
    axes = [list(p) for p in build_sum_system(jof).parts]
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.sampled_from(axes))
        a = draw(st.integers(0, len(row) - 1))
        if draw(st.booleans()):
            b = draw(st.integers(0, len(row) - 1))
            row[a], row[b] = row[b], row[a]
        else:
            row[a] = draw(st.integers(0, 2 * max(row) + 2))
    if draw(st.booleans()):
        axes.insert(draw(st.integers(0, len(axes))), [0])
    return tuple(tuple(row) for row in axes)


class TestWalkReference:
    """The walk gives the reference walk's JOF, or its message and witness."""

    @given(st.one_of(small_jofs(), large_ratio_jofs()))
    @settings(max_examples=100, deadline=None)
    def test_built_parts(self, jof):
        parts = build_sum_system(jof).parts
        assert _walk_stages(parts, jof.dims) == walk_reference(parts, jof.dims) == jof

    @given(st.one_of(stage_mutated(small_jofs()), stage_mutated(large_ratio_jofs())))
    @settings(max_examples=400, deadline=None)
    def test_stage_mutated_parts(self, ss):
        expected = walk_outcome(walk_reference, ss.parts, ss.dims)
        assert walk_outcome(_walk_stages, ss.parts, ss.dims) == expected

    @given(unsorted_axes())
    @settings(max_examples=400, deadline=None)
    def test_unsorted_cuboid_axes(self, axes):
        dims = tuple(map(len, axes))
        assert walk_outcome(_walk_stages, axes, dims) == walk_outcome(walk_reference, axes, dims)
