"""Dense integer tensors with the reversible-square symmetries.

A cuboid here is an order-m tensor of non-negative integers stored as a
flat row-major array with direction 1 varying fastest.  A principal
reversible cuboid additionally satisfies the vertex cross sum property
(opposite corners of every axis-aligned rectangle slice have equal pair
sums), carries the entry set 0 .. prod(dims) - 1, and increases
strictly along every line in every direction; line reversal symmetry
then follows.  Such cuboids are in bijection with sum systems (read the
coordinate axes) and are generated by chains of building operators that
stack offset copies of a smaller cuboid along one direction.
"""

from __future__ import annotations

import operator
import re
import struct
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, compress, count, product
from math import prod
from typing import Iterable, Iterator, Sequence

from .core import (
    DEFAULT_CAP,
    INT64_MAX,
    InputError,
    InternalContradictionError,
    SumSystem,
    VerificationReport,
    _are_ints,
    _document,
    _entry_set_witness,
    _frozen,
    _outer_sums,
    _require_cap,
    _require_ints,
    _require_passed,
    _shown,
    ensure_int64,
)
from .factorisation import JointOrderedFactorisation, _require_buildable, _walk_stages
from .sumsystem import _build_sum_system, _walk_stop, verify_sum_system


@dataclass(frozen=True)
class Cuboid:
    """Flat row-major tensor, direction 1 fastest, all indices 1-based."""

    dims: tuple[int, ...]
    entries: tuple[int, ...]
    #: Set by ``_of_ints`` alone (``_tabulated`` for a ``SumSystem``'s outer sums).
    _ints: bool = field(default=False, init=False, repr=False, compare=False)
    _tabulated: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Freeze both fields: slices of the entries must be tuples, and
        # the cuboid hashable.  ``tuple(t) is t`` for a tuple.
        object.__setattr__(self, "dims", _frozen(self.dims, "dims"))
        object.__setattr__(self, "entries", _frozen(self.entries, "entries"))
        # Entries are not read here: the verifiers and building operators ``_gate`` them.
        if not self.dims or not _are_ints(self.dims, lo=1):
            raise InputError(f"dims must be positive integers, got {_shown(list(self.dims))}")
        total = prod(self.dims)
        if len(self.entries) != total:
            raise InputError(
                f"entry count {len(self.entries)} does not match dims product {total}"
            )

    @classmethod
    def _of_ints(cls, dims: tuple[int, ...], entries: tuple[int, ...], tabulated=False) -> Cuboid:
        """The cuboid of entries already proved ints in 0 .. INT64_MAX, marked so."""
        M = cls(dims, entries)
        object.__setattr__(M, "_ints", True)
        object.__setattr__(M, "_tabulated", tabulated)
        return M

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return len(self.entries)


def _strides(dims: Sequence[int]) -> tuple[int, ...]:
    return tuple(accumulate(dims[:-1], operator.mul, initial=1)) if dims else ()


def multi_index(dims: Sequence[int], flat: int) -> tuple[int, ...]:
    """1-based multiindex of a flat position."""
    _require_ints(dims, "dims must be positive integers", lo=1)
    _require_ints((flat,), "flat position must be an integer")
    if not 0 <= flat < prod(dims):
        raise InputError(f"flat position {flat} outside 0..{prod(dims) - 1}")
    out = []
    for n in dims:
        flat, k = divmod(flat, n)
        out.append(k + 1)
    return tuple(out)


def trivial_cuboid(order: int) -> Cuboid:
    """The one-entry cuboid (0) every building chain starts from, of order <= ``DEFAULT_CAP``."""
    _require_ints((order,), "order must be a positive integer", lo=1)
    _require_cap(order, "cuboid directions", DEFAULT_CAP)
    return Cuboid((1,) * order, (0,))


def kron_dir(v: Sequence[int], j: int, M: Cuboid) -> Cuboid:
    """Direction-j Kronecker product: stack len(v) copies of M scaled by v.

    Copy l (0-based) occupies index range l*n_j + 1 .. (l+1)*n_j in
    direction j and holds v[l] times the entries of M, exact ``int``s;
    at most ``DEFAULT_CAP`` entries in all.
    """
    if not (_are_ints((j,)) and 1 <= j <= M.order):
        raise InputError(f"direction {j} outside 1..{M.order}")
    weights = tuple(v)
    if not weights:
        raise InputError("weight vector is empty")
    _require_ints(weights, "weights must be non-negative integers", lo=0)
    _gate(M, VerificationReport.ok())
    _require_cap(len(weights) * M.size, "cuboid entries", DEFAULT_CAP)
    ensure_int64(max(weights) * max(M.entries), "scaled entry")
    ensure_int64(max(weights) * min(M.entries), "scaled entry")
    return _stacked(M, j, [partial(operator.mul, w) for w in weights])


def building_op(j: int, k: int, M: Cuboid) -> Cuboid:
    """Stack k copies of M along direction j, copy l offset by l * size; M's
    entries are exact ``int``s, and it makes at most ``DEFAULT_CAP`` entries, as in ``kron_dir``."""
    if not (_are_ints((j,)) and 1 <= j <= M.order):
        raise InputError(f"direction {j} outside 1..{M.order}")
    _require_ints((k,), "copy count must be a positive integer", lo=1)
    _gate(M, VerificationReport.ok())
    total = M.size
    _require_cap(k * total, "cuboid entries", DEFAULT_CAP)
    ensure_int64((k - 1) * total + max(M.entries), "offset entry")
    return _stacked(M, j, [partial(operator.add, l * total) for l in range(k)])


def _stacked(M: Cuboid, j: int, maps: list) -> Cuboid:
    """Copies of M stacked along direction j, copy l holding ``maps[l]`` of each entry."""
    block = _strides(M.dims)[j - 1] * M.dims[j - 1]
    out: list[int] = []
    for start in range(0, M.size, block):
        chunk = M.entries[start : start + block]
        for f in maps:
            out.extend(map(f, chunk))
    dims = list(M.dims)
    dims[j - 1] *= len(maps)
    return Cuboid(tuple(dims), tuple(out))


def build_cuboid(jof: JointOrderedFactorisation, cap: int = DEFAULT_CAP) -> Cuboid:
    """The building chain's cuboid: the outer sums of the JOF's sum system."""
    _require_buildable(jof)
    _require_cap(prod(jof.dims), "cuboid entries", cap)  # before any part is built
    return cuboid_from_sumsystem(_build_sum_system(jof), cap=cap, check=False)


def _axes(M: Cuboid) -> list[tuple[int, ...]]:
    """Entries along every coordinate axis, root included, one slice each."""
    return [M.entries[0 : s * n : s] for s, n in zip(_strides(M.dims), M.dims)]


def axis_sets(M: Cuboid, check: bool = True) -> SumSystem:
    """The sum system sitting on the coordinate axes of a reversible cuboid."""
    if check:
        _require_passed(verify_reversible(M), "axis_sets input")
    return SumSystem(tuple(_axes(M)))


def cuboid_from_sumsystem(ss: SumSystem, cap: int = DEFAULT_CAP, check: bool = True) -> Cuboid:
    """Tabulate a sum system as the tensor of all elementwise sums.

    Inverse of ``axis_sets``: entry at multiindex k is the sum of the
    k_j-th elements of the parts.
    """
    if check:
        _require_passed(verify_sum_system(ss, cap=cap), "cuboid_from_sumsystem input")
    _require_cap(ss.target_size, "cuboid entries", cap)
    ensure_int64(sum(p[-1] for p in ss.parts), "largest entry")
    # A ``SumSystem``'s parts are gated non-negative ints: so are their sums.
    make = partial(Cuboid._of_ints, tabulated=True) if type(ss) is SumSystem else Cuboid
    return make(ss.dims, tuple(_outer_sums(ss.parts)))


def verify_property_V(M: Cuboid) -> VerificationReport:
    """Vertex cross sum property, checked through its closed form.

    Every entry must equal the sum of its axis projections less
    (order - 1) times the root, which need not be 0.  The entries pass
    ``_gate`` before the check and with its report, as in ``verify_reversible``.
    """
    _gate(M)
    return _gate(M, _vertex_report(M, _vertex_mismatch(M)))


def _vertex_report(M: Cuboid, p: int | None) -> VerificationReport:
    if p is None:
        return VerificationReport.ok()
    return VerificationReport.fail("vertex-sums", witness=list(multi_index(M.dims, p)))


def _vertex_mismatch(M: Cuboid) -> int | None:
    """First flat position that is not the closed form of its axes, or None."""
    return next(_dirty_spans(M), (None,))[0]


def _packing(n: int) -> tuple[struct.Struct, int]:
    """Rows of n int64 fields, a row read as the int Σ v_J 2^(64J); and ONES."""
    return struct.Struct(f"<{n}q"), int.from_bytes(b"\1\0\0\0\0\0\0\0" * n, "little")


#: Runs of nonzero bytes, joined across gaps of fewer than 64 zero bytes.
_RUNS = re.compile(rb"[^\0]+(?:\0{1,63}[^\0]+)*")


def _dirty_spans(M: Cuboid) -> Iterator[tuple[int, int]]:
    """Flat spans (lo, hi), ascending and disjoint, each from an entry that
    differs from V, the closed form of M's axes; outside them M is V.

    Block k of the last direction must be ``inner`` (the outer sums of the
    other axes, less (order - 2) * root) plus offset k of the last axis.
    With int axes and all such values in 0 .. INT64_MAX (the sums of the
    axes' minima and maxima, less (order - 1) * root), ``base`` packs
    ``inner`` as Σ inner[J] 2^(64J) straight from the axes: the packed sums
    so far plus each element of the next axis less its minimum, times a 1
    per field, joined as bytes, then the constant times ``ones`` once.  No
    field leaves 0 .. INT64_MAX, so none carries or borrows.  A block that
    packs as int64 (a negative entry packs to a field >= 2^63; an entry
    outside int64 or not an int fails to pack) is XORed with ``base +
    offset * ones``: field J is nonzero exactly where entry J differs.
    Folding each field into its low byte (``x |= x >> 32``, ``>> 16``,
    ``>> 8``; no fold moves a field into another's low byte) leaves one
    byte in 8 per entry, and ``_RUNS`` names its runs, joined across gaps
    of fewer than 64 entries: at most width / 64 spans per block, each
    ending at an entry that differs.  A block that does not pack is
    compared entry by entry with ``inner``, built then, and spans from its
    first mismatch to its end.  An order-1 tensor has no spans.
    """
    if M.order == 1:
        return
    entries = M.entries
    axes = _axes(M)
    root = entries[0]
    shift = (M.order - 1) * root
    width = M.size // M.dims[-1]
    row, ones = _packing(width)
    ints = M._ints or operator.countOf(map(type, chain(*axes)), int) == sum(M.dims)
    packed = ints and 0 <= sum(map(min, axes)) - shift and sum(map(max, axes)) - shift <= INT64_MAX
    if packed:
        line = bytes(8)  # the packed outer sums of the axes so far, each less its minimum
        for axis in axes[:-1]:
            size, least = len(line), min(axis)
            low, unit = int.from_bytes(line, "little"), ones >> 8 * (8 * width - size)
            line = b"".join([(low + (a - least) * unit).to_bytes(size, "little") for a in axis])
        base = int.from_bytes(line, "little") + (root - shift + sum(map(min, axes[:-1]))) * ones
    inner = None
    for start, offset in zip(count(0, width), [a - root for a in axes[-1]]):
        block = entries[start : start + width]
        try:
            got = packed and row.pack(*block)
        except struct.error:  # an entry outside int64, or not an int
            got = None
        if got:
            want = base + offset * ones
            if got != want.to_bytes(8 * width, "little"):
                x = int.from_bytes(got, "little") ^ want
                x |= x >> 32
                x |= x >> 16
                x |= x >> 8
                for run in _RUNS.finditer(x.to_bytes(8 * width, "little")[::8]):
                    yield start + run.start(), start + run.end()
            continue
        if inner is None:
            inner = _outer_sums([(root - shift,), *axes[:-1]])
        p = next(compress(count(start), map(operator.ne, block, [x + offset for x in inner])), None)
        if p is not None:
            yield p, start + width


#: Cuboids try the axis walk first only when prod(dims) is at least this many
#: times sum(dims): the rejects workload's (4, 25) monotonicity reject takes
#: 10.7 us by the scan, 37.1 us walk first.  Without the rule the sweep's
#: verify_reversible fell from 28.8-32.1 to 11.2-11.7 us, but the median rejects
#: op rose 34.1 -> 42.6 us (seed 7; 2-vCPU Xeon, Python 3.11.7, in process).
_CERTIFICATE_RATIO = 64


def _certificate_spans(M: Cuboid) -> Iterator[tuple[int, int]] | None:
    """Where M may differ from V, once the stage walk has completed on its
    axes: nowhere for a tabulated cuboid, else ``_dirty_spans``.  None off the
    certificate route: a root other than 0, or prod(dims) below
    ``_CERTIFICATE_RATIO`` times sum(dims).  Nothing else reads ``_tabulated``."""
    if M.entries[0] != 0 or prod(M.dims) < _CERTIFICATE_RATIO * sum(M.dims):
        return None
    return iter(()) if M._tabulated else _dirty_spans(M)


def verify_reversible(M: Cuboid) -> VerificationReport:
    """All defining checks of a principal reversible cuboid.

    Every entry must be an ``int`` (``_gate``): a non-integer raises
    InputError before any check, and a ``bool`` or other ``int`` subclass
    instead of a pass.  Checked in order: strict monotonicity along every
    line of every direction, the vertex cross sum property, then entry
    set equal to 0 .. size - 1.  Line reversal symmetry is not scanned:
    once these three hold, the axes form a sum system, whose parts are
    palindromic, and vertex sums carry that symmetry to every line.

    Two routes give the same report.  When prod(dims) is at least
    ``_CERTIFICATE_RATIO`` times sum(dims) and the root is 0, the stage walk
    runs on the axes.  If it completes, their outer sums V form a valid
    cuboid, and the tensor passes when it equals V.  Otherwise the report is
    the first monotonicity violation, direction by direction, among the
    pairs with an end in a span of ``_dirty_spans`` (runs of the entries
    that differ from V), or else vertex sums at the first span's first
    entry p.  No other pair comes first: every entry outside the spans, p's
    predecessors included, equals V, and a pair whose ends both equal V
    increases.  The first direction with pairs (step 1) pulls spans only as
    it reads them; a span narrower than a later step s_j is read as its two
    sets of pairs, (i - s_j, i) and (i, i + s_j), not those between them.  A
    tabulated cuboid has no spans (``_certificate_spans``).  Other inputs
    get the ordered scan: the same reader on one span of all entries.
    """
    _gate(M)
    spans = _certificate_spans(M)
    if spans is not None and _walk_stop(_axes(M), M.dims) is None:
        first = next(spans, None)
        if first is None:
            return _gate(M, VerificationReport.ok())
        return _monotonicity(M, chain((first,), spans)) or _vertex_report(M, first[0])
    return _scan_reversible(M)


def _scan_reversible(M: Cuboid) -> VerificationReport:
    """The ordered scan: monotonicity, vertex sums, then the entry set."""
    report = _monotonicity(M, ((0, M.size),)) or _vertex_report(M, _vertex_mismatch(M))
    if not report.passed:
        return report
    x = _entry_set_witness(M.entries, 0, M.size - 1)
    if x is not None:
        return VerificationReport.fail("entry-set", witness=x)
    return _gate(M, VerificationReport.ok())


def _gate(M: Cuboid, report: VerificationReport | None = None) -> VerificationReport | None:
    """``report``, unless InputError names an entry of M that is not an ``int``.

    A cuboid ``Cuboid._of_ints`` marks, or a failing report, returns at once,
    so a failing cuboid reads a ``bool`` as its value.  With no report, before
    any clause, the entries must sum to an ``int``, at less than half the cost
    of reading every type: any non-integer but an int subclass breaks the sum.
    A passing report (the building operators give one) costs the exact type
    pass: no int subclass passes."""
    if M._ints or (report is not None and not report.passed):
        return report
    if report is not None:
        ints = operator.countOf(map(type, M.entries), int) == M.size
    else:
        try:
            ints = type(sum(M.entries)) is int
        except TypeError:
            ints = False
    if not ints:
        # Not ``core._require_ints``: the message names the offender's multi-index.
        flat, x = next((i, x) for i, x in enumerate(M.entries) if type(x) is not int)
        raise InputError(
            f"entries must be integers, got {_shown(x)} at index {list(multi_index(M.dims, flat))}"
        )
    return report


def _monotonicity(M: Cuboid, spans: Iterable[tuple[int, int]]) -> VerificationReport | None:
    """The first line pair, direction by direction, that does not increase,
    of the pairs (i, i + s_j) touching ``spans``, ascending flat ranges (lo,
    hi); the ordered scan passes ``((0, M.size),)``.  Directions of size 1
    hold no pairs and are skipped, so the first direction read has step 1:
    it pulls each span only as it reads the span's pairs, lo - 1 .. hi - 1,
    and every later direction reads ``_pair_ranges`` of the spans pulled."""
    entries, pulled, first = M.entries, [], True
    for j, (step, n) in enumerate(zip(_strides(M.dims), M.dims), start=1):
        if n == 1:
            continue
        done = 0  # pairs from i < done were read for an earlier range
        for lo, hi in spans if first else _pair_ranges(pulled, step):
            if first:
                pulled.append((lo, hi))
                lo -= 1
            if hi > done:  # a negative lo, below done = 0, reads from 0
                i = _descent(entries, step, step * n, lo if lo > done else done, hi)
                if i is not None:
                    where = {"direction": j, "index": list(multi_index(M.dims, i))}
                    return VerificationReport.fail("monotonicity", witness=where)
                done = hi
        first = False
    return None


def _pair_ranges(spans: list[tuple[int, int]], step: int) -> list[tuple[int, int]]:
    """Ranges (lo, hi) of the lower ends i of the pairs (i, i + step) that
    touch ``spans``, sorted: (lo - step, hi) for a span at least ``step``
    wide; for a narrower one, its pairs from lo - step and from lo only."""
    ranges = []
    for lo, hi in spans:
        ranges += [(lo - step, hi)] if hi - lo >= step else [(lo - step, hi - step), (lo, hi)]
    return sorted(ranges)


def _descent(entries, step: int, block: int, lo: int, hi: int) -> int | None:
    """First i in lo .. hi - 1 whose pair (i, i + step) lies in one block
    of ``block`` entries and does not increase, or None.  The two ends are
    read as separate slices, so a range costs O(hi - lo), not O(step)."""
    while lo < hi:
        head = lo - lo % block + block  # the end of lo's block
        end = head - step if head - step < hi else hi  # pairs from i >= end leave it
        low, high = entries[lo:end], entries[lo + step : end + step]
        if not all(map(operator.lt, low, high)):
            return next(compress(count(lo), map(operator.ge, low, high)))
        lo = head
    return None


def decompose_cuboid(M: Cuboid, check: bool = True) -> JointOrderedFactorisation:
    """Recover the canonical building chain of a reversible cuboid.

    A reversible cuboid is the outer sum of its axes, and the axes form
    a sum system, so the chain is the stage walk of
    ``decompose_sum_system`` run on the axes.  ``check=True`` verifies
    the cuboid first.  ``check=False`` trusts the walk's copy check for
    the axes and compares the rest of the tensor with their outer sums V;
    both hold only relative to the root, so the root must be 0.  A
    tabulated cuboid on the certificate route (``_certificate_spans``) is V
    by construction and is not compared.
    """
    if check:
        _require_passed(verify_reversible(M), "decompose input")
    elif M.entries[0] != 0:
        raise InternalContradictionError(f"root entry is {_shown(M.entries[0])}, not 0")
    jof = _walk_stages(_axes(M), M.dims)
    p = None if check else next(_certificate_spans(M) or _dirty_spans(M), (None,))[0]
    if p is not None:
        raise InternalContradictionError(
            f"entry at index {list(multi_index(M.dims, p))} is not the outer sum of the axes"
        )
    return jof


def to_json_doc(M: Cuboid) -> dict:
    return {"dims": list(M.dims), "entries": list(M.entries)}


def from_json_doc(doc: object, cap: int = DEFAULT_CAP) -> Cuboid:
    """Parse ``{"dims": [...], "entries": [flat row-major]}``."""
    dims, entries = _document(doc, "cuboid", "dims", "entries")
    if not isinstance(dims, list) or not _are_ints(dims):
        raise InputError("'dims' must be a list of integers")
    if not isinstance(entries, list):
        raise InputError("'entries' must be a flat list of integers")
    _require_cap(len(entries), "cuboid entries", cap)
    _require_ints(entries, "entries must be non-negative integers", lo=0)
    return Cuboid._of_ints(tuple(dims), tuple(entries))


def to_csv(M: Cuboid) -> str:
    """Order-2 slices as comma-separated rows, blank line between slices.

    Within a slice, direction 1 runs along a row and direction 2 counts
    the rows; slices are emitted in lexicographic order of the fixed
    indices (k_3, ..., k_m).
    """
    n1, width = M.dims[0], prod(M.dims[:2])
    stride_of = _strides(M.dims)[2:]
    blocks = []
    for fixed in product(*map(range, M.dims[2:])):
        start = sum(k * s for k, s in zip(fixed, stride_of))
        rows = (M.entries[r : r + n1] for r in range(start, start + width, n1))
        blocks.append("\n".join(",".join(map(str, row)) for row in rows))
    return "\n\n".join(blocks) + "\n"
