"""Independent oracles used to cross-check library results.

Everything here is deliberately naive and kept free of library
internals: plain recursion, itertools expansion, direct property scans
on integer grids.  The one exception, the reference stage walk, shares
the library's witness rule.  The golden corpus's inputs come from here
too, with the functions that record what the public calls return on
them; ``GOLDEN_SLICES`` pairs the two for each slice.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from functools import lru_cache, partial
from operator import ne
from unittest import mock

from addsys.core import (
    DEFAULT_CAP,
    CapExceededError,
    InputError,
    Int64OverflowError,
    InternalContradictionError,
    SumSystem,
    VerificationFailedError,
    VerificationReport,
)
from addsys import sds as sds_mod, sumsystem as sumsystem_mod
from addsys.cuboid import Cuboid, decompose_cuboid, verify_property_V, verify_reversible
from addsys.factorisation import JointOrderedFactorisation, _copy_witness
from addsys.sds import (
    FLAVOURS,
    INCLUSIVE,
    NON_INCLUSIVE,
    SdsSystem,
    sds_to_sumsys_inclusive,
    sds_to_sumsys_noninclusive,
    verify_sds,
    verify_sds_two_part,
)
from addsys.squares import KINDS, SquareMatrix, verify_square
from addsys.sumsystem import decompose_sum_system, polynomial_check, verify_sum_system
from conftest import DIMS_E4, E4_PARTS


@lru_cache(maxsize=None)
def divisors_ge2(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(2, n + 1) if n % d == 0)


def oracle_enumerate(dims) -> list[tuple[tuple[int, int], ...]]:
    """All joint ordered factorisations by brute-force interleaving.

    Chooses any direction other than the previous one and any divisor
    of the remaining quotient at every level.  Output order is whatever
    the recursion produces; callers compare as sets.
    """
    dims = tuple(dims)
    results: list[tuple[tuple[int, int], ...]] = []

    def rec(remaining, last, acc):
        if all(r == 1 for r in remaining):
            results.append(tuple(acc))
            return
        for direction in range(len(dims)):
            if direction == last:
                continue
            for factor in divisors_ge2(remaining[direction]):
                nxt = list(remaining)
                nxt[direction] //= factor
                rec(nxt, direction, acc + [(direction + 1, factor)])

    rec(list(dims), None, [])
    return results


def oracle_count(dims) -> int:
    """Leaf count of the same recursion, without materialising steps.

    No memoisation: every completion is walked.  Tracks how many
    directions still need factoring so a leaf is detected in O(1).
    """
    dims = tuple(dims)
    m = len(dims)

    def rec(remaining, last, open_dirs):
        if open_dirs == 0:
            return 1
        total = 0
        for direction in range(m):
            if direction == last:
                continue
            keep = remaining[direction]
            if keep == 1:
                continue
            for factor in divisors_ge2(keep):
                left = keep // factor
                remaining[direction] = left
                total += rec(remaining, direction, open_dirs - (left == 1))
            remaining[direction] = keep
        return total

    return rec(list(dims), -1, m)


def ordered_factorizations(n: int) -> list[tuple[int, ...]]:
    """Every ordered tuple of integers >= 2 whose product is n."""
    if n < 2:
        return []
    out = [(n,)]
    for first in divisors_ge2(n):
        if first == n:
            continue
        for tail in ordered_factorizations(n // first):
            out.append((first,) + tail)
    return out


def dims_vectors_up_to(max_product: int):
    """(product, dims) pairs for every dims vector, ascending product."""
    for product in range(2, max_product + 1):
        for dims in ordered_factorizations(product):
            yield product, dims


def minkowski_oracle(sets) -> list[int]:
    """Sum multiset via itertools.product, independent of the library."""
    return sorted(sum(combo) for combo in itertools.product(*sets))


def reference_polynomial_report(parts):
    """(violated invariant, witness) of the coefficient-list product.

    The parts' characteristic polynomials are multiplied one coefficient
    at a time, exponents >= d = prod(sizes) dropped, and the first
    exponent below d whose coefficient is not 1 is the witness; a valid
    system gives (None, None).
    """
    d = math.prod(map(len, parts))
    # Coefficients are non-negative and sum to d, so if any differs from
    # the target one below x^d does; dropping exponents >= d keeps every
    # buffer within d entries and leaves the lower coefficients exact.
    coeffs = [1]
    for part in parts:
        out = [0] * min(len(coeffs) + part[-1], d)
        top = len(out) - 1
        for i, c in enumerate(coeffs):
            if c:
                reach = part if i + part[-1] <= top else part[: bisect_right(part, top - i)]
                for x in reach:
                    out[i + x] += c
        coeffs = out
    coeffs += [0] * (d - len(coeffs))
    for exponent, c in enumerate(coeffs):
        if c != 1:
            return "polynomial-coefficient", exponent
    return None, None


# Grid property scans for the square families (plain integer rows).

def grid_entry_set_ok(rows) -> bool:
    n = len(rows)
    return sorted(x for row in rows for x in row) == list(range(1, n * n + 1))


def grid_vertex_ok(rows) -> bool:
    n = len(rows)
    return all(
        rows[i][j] + rows[k][l] == rows[i][l] + rows[k][j]
        for i in range(n) for k in range(n) for j in range(n) for l in range(n)
    )


def grid_reversal_ok(rows) -> bool:
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if rows[i][j] + rows[i][n - 1 - j] != rows[i][0] + rows[i][n - 1]:
                return False
            if rows[i][j] + rows[n - 1 - i][j] != rows[0][j] + rows[n - 1][j]:
                return False
    return True


def grid_magic_ok(rows) -> bool:
    n = len(rows)
    want = n * (n * n + 1) // 2
    if any(sum(row) != want for row in rows):
        return False
    return all(sum(rows[i][j] for i in range(n)) == want for j in range(n))


def grid_associated_ok(rows) -> bool:
    n = len(rows)
    return all(
        rows[i][j] + rows[n - 1 - i][n - 1 - j] == n * n + 1
        for i in range(n) for j in range(n)
    )


def grid_blocks_ok(rows) -> bool:
    n = len(rows)
    want = 2 * (n * n + 1)
    return all(
        rows[i][j] + rows[i][(j + 1) % n] + rows[(i + 1) % n][j]
        + rows[(i + 1) % n][(j + 1) % n] == want
        for i in range(n) for j in range(n)
    )


def grid_diagonal_pairs_ok(rows) -> bool:
    n = len(rows)
    half = n // 2
    return all(
        rows[i][j] + rows[(i + half) % n][(j + half) % n] == n * n + 1
        for i in range(n) for j in range(n)
    )


def reference_square(family: str, first, second, v=None, w=None):
    """Doubled rows of a square family, one entry formula at a time.

    ``family`` is "reversible-even", "reversible-odd", "associated" or
    "most-perfect"; the parts are taken as a valid pair of equal size.
    ``v`` and ``w`` are the associated square's sign vectors, alternating
    by default.
    """
    nu = len(first)
    n = 2 * nu + (family == "reversible-odd")

    def signed(part, k):
        if k < nu:
            return part[nu - 1 - k]
        if n % 2 and k == nu:
            return 0
        return -part[k - nu - n % 2]

    def sigma(k):
        return 1 if k % 2 == 0 else -1

    vs = tuple(v) if v is not None else tuple(sigma(k) for k in range(nu))
    ws = tuple(w) if w is not None else tuple(sigma(k) for k in range(nu))

    def entry(i, j):
        if family == "reversible-even":
            return signed(first, j) + signed(second, i)
        if family == "reversible-odd":
            return 2 * (signed(first, j) + signed(second, i))
        if family == "associated":
            if i < nu and j < nu:
                return first[nu - 1 - j] * vs[i] + second[nu - 1 - i] * ws[j]
            if i < nu:
                jj = j - nu
                return -first[jj] * vs[i] + second[nu - 1 - i] * ws[nu - 1 - jj]
            ii = i - nu
            if j < nu:
                return first[nu - 1 - j] * vs[nu - 1 - ii] - second[ii] * ws[j]
            jj = j - nu
            return -first[jj] * vs[nu - 1 - ii] - second[ii] * ws[nu - 1 - jj]
        row_sign = 1 if i < nu else -1
        col_sign = 1 if j < nu else -1
        ii, jj = i % nu, j % nu
        return row_sign * first[ii] * sigma(jj) + col_sign * sigma(ii) * second[jj]

    return tuple(tuple(entry(i, j) + n * n + 1 for j in range(n)) for i in range(n))


def square_scan_report(d, kind: str):
    """(violated invariant, witness, note) of the ordered per-entry scan.

    ``d`` holds the doubled rows of a square whose entries share a
    parity.  Every clause is checked entry by entry in row-major order;
    a passing square gives (None, None, note).
    """
    n = len(d)
    note = "toroidal-2x2-blocks" if kind == "most-perfect" else None
    if d[0][0] % 2:
        return "entry-set", d[0][0], note
    seen = set()
    for row in d:
        for x in row:
            value = x // 2
            if not (1 <= value <= n * n) or value in seen:
                return "entry-set", value, note
            seen.add(value)
    if kind == "reversible":
        for i in range(n):
            for j in range(n):
                if d[i][j] - d[0][j] - d[i][0] + d[0][0] != 0:
                    return "vertex-sums", [i + 1, j + 1], note
        for i in range(n):
            for j in range(n):
                if (
                    d[i][j] + d[i][n - 1 - j] != d[i][0] + d[i][n - 1]
                    or d[i][j] + d[n - 1 - i][j] != d[0][j] + d[n - 1][j]
                ):
                    return "line-reversal", {"row": i + 1, "column": j + 1}, note
        return None, None, note
    line_sum = n * (n * n + 1)
    for i in range(n):
        if sum(d[i]) != line_sum:
            return "row-sum", i + 1, note
    for j in range(n):
        if sum(d[i][j] for i in range(n)) != line_sum:
            return "column-sum", j + 1, note
    if kind == "associated":
        for i in range(n):
            for j in range(n):
                if d[i][j] + d[n - 1 - i][n - 1 - j] != 2 * (n * n + 1):
                    return "associated-pairs", [i + 1, j + 1], note
        return None, None, note
    if n % 2:
        return "even-order", n, note
    for i in range(n):
        for j in range(n):
            total = (
                d[i][j] + d[i][(j + 1) % n] + d[(i + 1) % n][j] + d[(i + 1) % n][(j + 1) % n]
            )
            if total != 4 * (n * n + 1):
                return "block-sums", [i + 1, j + 1], note
    half = n // 2
    for i in range(n):
        for j in range(n):
            if d[i][j] + d[(i + half) % n][(j + half) % n] != 2 * (n * n + 1):
                return "diagonal-pairs", [i + 1, j + 1], note
    return None, None, note


# Per-element integer loops, one value at a time, as the entry points ran
# them before they shared one gate.  Each returns None when the input is
# accepted, (exception name, offending value) when a value is at fault,
# and (exception name,) for a fault of shape or order.  Int subclasses,
# bool and IntEnum alike, are refused everywhere: the component-set, weight
# and cuboid-entry loops once let an IntEnum through ``isinstance``.
INT64 = range(-(2**63), 2**63)


def component_set_reference(elements):
    """``as_component_set``: integers in int64, then strictly increasing from >= 0."""
    out = tuple(elements)
    if not out:
        return ("InputError",)
    for x in out:
        if type(x) is not int:
            return "InputError", x
        if x not in INT64:
            return "Int64OverflowError", x
    if any(a >= b for a, b in zip(out, out[1:])) or out[0] < 0:
        return ("InputError",)
    return None


def non_negative_reference(values):
    """``kron_dir`` weights and ``cuboid.from_json_doc`` entries (on dims
    ``[len(values)]``): non-empty, non-negative integers inside int64.

    The weight loop once left int64 to the largest scaled entry; each
    weight is now checked in its place, so with a largest entry of 1 a
    weight above int64 is named there, not after a later non-integer.
    """
    for x in values:
        if type(x) is not int or x < 0:
            return "InputError", x
        if x not in INT64:
            return "Int64OverflowError", x
    return None if values else ("InputError",)


def vertex_reference(dims, entries):
    """First row-major flat position whose entry is not the closed form of
    its axes, sum of its axis projections - (m - 1) * root, or None.

    One entry at a time, in exact integers: a position's digit in each
    direction comes from repeated division, direction 1 first.
    """
    m = len(dims)
    root = entries[0]
    for p, x in enumerate(entries):
        rest, scale, projections = p, 1, 0
        for n in dims:
            rest, k = divmod(rest, n)
            projections += entries[k * scale]
            scale *= n
        if x != projections - (m - 1) * root:
            return p
    return None


def plain_grid_reference(rows):
    """``SquareMatrix.from_plain``: the values row-major, then the shape."""
    for row in rows:
        for x in row:
            if type(x) is not int:
                return "InputError", x
            if x not in INT64:
                return "Int64OverflowError", x
    if not rows or any(len(row) != len(rows) for row in rows):
        return ("InputError",)
    return None



# The four sum-and-distance maps as the library ran them before one
# flavour-parametrised body per direction replaced them, each body
# unchanged, with copies of the three private helpers they called: the
# reference the library's maps are held to, outcome for outcome.

def _require_passed(report: VerificationReport, context: str) -> None:
    """The gate of every operation that needs a verified input."""
    if not report.passed:
        raise VerificationFailedError(context, report)


def _signed(part: tuple[int, ...], with_zero: bool) -> list[int]:
    """The part mirrored about 0, ascending; reversed, a square's signed axis."""
    return [-x for x in reversed(part)] + [0] * with_zero + list(part)


def _checked_sds(s: SdsSystem, flavour: str, cap: int, check: bool) -> None:
    if s.flavour != flavour:
        raise InputError(f"expected a {flavour} system, got {s.flavour}")
    if check:
        _require_passed(verify_sds(s, cap=cap), f"{flavour} system")


def reference_sds_to_sumsys_noninclusive(
    s: SdsSystem, cap: int = DEFAULT_CAP, check: bool = True
) -> SumSystem:
    """Half-sum map: part A becomes {(max A - a) / 2, (max A + a) / 2}."""
    _checked_sds(s, NON_INCLUSIVE, cap, check)
    parts = []
    for i, part in enumerate(s.parts):
        top = part[-1]
        halves = []
        for a in part:
            if (top - a) % 2:
                raise InputError(
                    f"part {i + 1}: max {top} and element {a} differ in parity"
                )
            halves.append((top - a) // 2)
            halves.append((top + a) // 2)
        parts.append(tuple(sorted(halves)))
    return SumSystem(tuple(parts))


def reference_sumsys_to_sds_noninclusive(
    ss: SumSystem, cap: int = DEFAULT_CAP, check: bool = True
) -> SdsSystem:
    """Differences of elements mirrored about the centre of each part.

    Every part must have even cardinality; the offending part is named
    otherwise.
    """
    for i, part in enumerate(ss.parts):
        if len(part) % 2:
            raise InputError(
                f"part {i + 1} has odd cardinality {len(part)};"
                " non-inclusive conversion needs all parts even"
            )
    if check:
        _require_passed(verify_sum_system(ss, cap=cap), "sum system")
    parts = []
    for part in ss.parts:
        half = len(part) // 2
        parts.append(tuple(part[half + k] - part[half - 1 - k] for k in range(half)))
    return SdsSystem(tuple(parts), NON_INCLUSIVE)


def reference_sds_to_sumsys_inclusive(
    s: SdsSystem, cap: int = DEFAULT_CAP, check: bool = True
) -> SumSystem:
    """Shift map: part A becomes max A + (-A, 0, A)."""
    _checked_sds(s, INCLUSIVE, cap, check)
    parts = []
    for part in s.parts:
        top = part[-1]
        parts.append(tuple(top + x for x in _signed(part, with_zero=True)))
    return SumSystem(tuple(parts))


def reference_sumsys_to_sds_inclusive(
    ss: SumSystem, cap: int = DEFAULT_CAP, check: bool = True
) -> SdsSystem:
    """Half-differences about the centre element of each odd-sized part.

    Every part must have odd cardinality.  A half-difference that fails
    to be an integer means the input was not a sum system at all.
    """
    for i, part in enumerate(ss.parts):
        if len(part) % 2 == 0:
            raise InputError(
                f"part {i + 1} has even cardinality {len(part)};"
                " inclusive conversion needs all parts odd"
            )
    if check:
        _require_passed(verify_sum_system(ss, cap=cap), "sum system")
    parts = []
    for i, part in enumerate(ss.parts):
        half = len(part) // 2
        out = []
        for k in range(1, half + 1):
            spread = part[half + k] - part[half - k]
            if spread % 2:
                raise InputError(
                    f"part {i + 1}: elements {part[half + k]} and {part[half - k]}"
                    " straddle the centre with odd spread; corrupt input"
                )
            out.append(spread // 2)
        parts.append(tuple(out))
    return SdsSystem(tuple(parts), INCLUSIVE)


# The stage walk of ``factorisation._walk_stages`` as the library ran it
# before the walk compared a stage's copies as one tuple and dropped
# closed directions: one copy at a time, the cursor advanced in Python.
# The witness rule ``_copy_witness`` is shared, so only the loop is held
# to this reference.

def walk_reference(axes, dims) -> JointOrderedFactorisation:
    m = len(dims)
    consumed = [1] * m
    product = 1
    steps: list[tuple[int, int]] = []
    while True:
        open_dirs = [j for j in range(m) if consumed[j] < dims[j]]
        if not open_dirs:
            break
        nexts = [axes[j][consumed[j]] for j in open_dirs]
        smallest = min(nexts)
        if nexts.count(smallest) != 1 or smallest != product:
            raise InternalContradictionError(
                f"next value {smallest} is tied or not {product}", smallest
            )
        j = open_dirs[nexts.index(smallest)]
        fence = min((x for x in nexts if x != smallest), default=None)
        base = consumed[j]
        cursor = base
        axis = axes[j]
        while cursor < dims[j] and (fence is None or axis[cursor] < fence):
            cursor += 1
        prefix = axis[:base]
        stretch = axis[:cursor]
        for l in range(1, -(-cursor // base)):
            offset = l * product
            got = stretch[l * base : (l + 1) * base]
            want = tuple([x + offset for x in prefix])
            if got != want:
                t = next(itertools.compress(itertools.count(), map(ne, got, want)), len(got))
                found = axis[l * base + t] if l * base + t < dims[j] else None
                raise InternalContradictionError(
                    f"direction {j + 1} copy {l} lacks {want[t]}",
                    _copy_witness(want[t], found, fence, j + 1, l, t, steps, sum(dims)),
                )
        factor = cursor // base
        consumed[j] = cursor
        product *= factor
        steps.append((j + 1, factor))
    return JointOrderedFactorisation(tuple(steps), tuple(dims))


# Cuboids: the ordered scan one multi-index at a time, and the cuboid slice
# of the golden corpus.

def cuboid_scan_reference(dims, entries) -> VerificationReport:
    """``verify_reversible``'s report by a naive scan over multi-indices.

    In the documented order: monotonicity direction by direction, each
    pair named by its lower end in row-major order (direction 1
    fastest); then vertex sums, every entry against the sum of its axis
    projections less (m - 1) times the root; then the entry set, the
    first entry outside 0 .. size - 1 or seen before.  Entries are read
    as their values, so ``True`` counts as 1.
    """
    dims = tuple(dims)
    m, size = len(dims), len(entries)
    strides = [math.prod(dims[:j]) for j in range(m)]
    ranges = (range(1, n + 1) for n in reversed(dims))
    indices = [index[::-1] for index in itertools.product(*ranges)]
    for j in range(m):
        for p, index in enumerate(indices):
            if index[j] < dims[j] and entries[p] >= entries[p + strides[j]]:
                witness = {"direction": j + 1, "index": list(index)}
                return VerificationReport.fail("monotonicity", witness=witness)
    root = entries[0]
    for p, index in enumerate(indices):
        projections = sum(entries[(k - 1) * s] for k, s in zip(index, strides))
        if entries[p] != projections - (m - 1) * root:
            return VerificationReport.fail("vertex-sums", witness=list(index))
    seen = set()
    for x in entries:
        if not 0 <= x < size or x in seen:
            return VerificationReport.fail("entry-set", witness=x)
        seen.add(x)
    return VerificationReport.ok()


def jof_parts(steps, dims) -> list[list[int]]:
    """The sum system of a JOF: part j grows by copies offset by the running product."""
    parts = [[0] for _ in dims]
    scale = 1
    for j, f in steps:
        parts[j - 1] = [x + l * scale for l in range(f) for x in parts[j - 1]]
        scale *= f
    return parts


def outer_entries(parts) -> list[int]:
    """Row-major elementwise sums of the parts, part 1 fastest."""
    entries = [0]
    for part in parts:
        entries = [a + b for b in part for a in entries]
    return entries


def random_steps(rng, dims):
    """The steps of a random JOF of ``dims`` (each >= 2), drawn one by one."""
    quotients, steps, last = list(dims), [], None
    while any(q > 1 for q in quotients):
        open_dirs = [j for j, q in enumerate(quotients) if q > 1 and j != last]
        if not open_dirs:  # only the last direction is left: start again
            quotients, steps, last = list(dims), [], None
            continue
        j = rng.choice(open_dirs)
        f = rng.choice(divisors_ge2(quotients[j]))
        quotients[j] //= f
        steps.append((j + 1, f))
        last = j
    return tuple(steps)


#: Dims of the corpus's certificate-route cuboids, at least 64 times their sum.
GOLDEN_RATIO_DIMS = [
    (2,) * 11, (3,) * 7, (4,) * 6, (8, 8, 8, 8), (16, 16, 16), (5,) * 5, (130, 130),
]
#: Entries no valid cuboid holds: int64 edges, beyond int64, negative, bool, float.
GOLDEN_ODD_VALUES = [2**63 - 1, 2**63, -(2**63), 2**70, -1, True, False, 1.0, 2.5]
GOLDEN_SEED = 18


def _golden_mutation(rng, kind, dims, entries) -> None:
    """Apply one corpus mutation to ``entries`` in place."""
    size = len(entries)
    width = size // dims[-1]
    p = rng.randrange(size)
    if kind == "swap":
        q = rng.randrange(size)
        entries[p], entries[q] = entries[q], entries[p]
    elif kind == "swap-near":
        q = min(size - 1, p + rng.choice([1, dims[0], width - 1, width, width + 1]))
        entries[p], entries[q] = entries[q], entries[p]
    elif kind == "bump":
        entries[p] += rng.choice([-2, -1, 1, 2])
    elif kind == "tie":
        entries[p] = entries[p - 1]
    elif kind == "odd":
        entries[p] = rng.choice(GOLDEN_ODD_VALUES)
    elif kind == "bool":
        entries[p] = entries[p] == 1 if entries[p] in (0, 1) else bool(entries[p] % 2)
    elif kind == "root":
        entries[0] = rng.choice([1, -1, True])
    elif kind == "shift":
        entries[:] = [x + 1 for x in entries]
    elif kind == "block":
        k, src = rng.randrange(dims[-1]), rng.randrange(dims[-1])
        entries[k * width : (k + 1) * width] = entries[src * width : (src + 1) * width]
    elif kind == "inner":
        _inner_fault(rng, dims, entries, size)


def _inner_fault(rng, dims, entries, stop) -> None:
    """+-1 at one of 40 entries before ``stop``, off every axis, where no
    line stops increasing: a vertex-sums fault alone, if one is found."""
    for p in rng.sample(range(stop), min(stop, 40)):
        if step := _inner_step(dims, entries, p):
            entries[p] += step
            return


def _inner_step(dims, entries, p) -> int:
    """+1 or -1 if moving the entry at p, off every axis, by it leaves every
    line increasing (a vertex-sums fault alone), else 0."""
    strides = [math.prod(dims[:j]) for j in range(len(dims))]
    index = [p // s % n for s, n in zip(strides, dims)]
    ups = [entries[p + s] for s, k, n in zip(strides, index, dims) if k < n - 1]
    downs = [entries[p - s] for s, k in zip(strides, index) if k > 0]
    x = entries[p]
    if sum(k > 0 for k in index) < 2:
        return 0
    if all(y > x + 1 for y in ups):
        return 1
    return -1 if all(y < x - 1 for y in downs) else 0


#: The mutations, "inner" (a vertex-sums fault alone) drawn twice as often.
GOLDEN_KINDS = [
    "swap", "swap-near", "bump", "tie", "odd", "bool", "root", "shift", "block", "inner", "inner",
]


def golden_cuboids(seed: int = GOLDEN_SEED):
    """The cuboid slice of the golden corpus: (label, dims, entries) triples.

    About 2,000 cuboids from a fixed seed: 1,000 of dims product at most
    200, which the ordered scan answers, and 1,000 above the certificate
    ratio, each valid or with one to three mutations and sometimes a
    unit dimension; then four of E4's size: the built cuboid, one inner
    entry raised by 1, a direction-1 tie with a later block bumped, and
    a later block copied over another; then the faults at the edges of
    runs (``_golden_run_cases``).
    """
    rng = random.Random(seed)
    small = [dims for _, dims in dims_vectors_up_to(200) if len(dims) <= 4]
    for k in range(2000):
        dims = rng.choice(small) if k < 1000 else rng.choice(GOLDEN_RATIO_DIMS)
        entries = outer_entries(jof_parts(random_steps(rng, dims), dims))
        kinds = [] if rng.random() < 0.15 else rng.choices(GOLDEN_KINDS, k=rng.randint(1, 3))
        for kind in kinds:
            _golden_mutation(rng, kind, dims, entries)
        if rng.random() < 0.1:
            at = rng.randrange(len(dims) + 1)
            dims = dims[:at] + (1,) + dims[at:]
            kinds.append(f"unit@{at}")
        yield f"{k} {','.join(kinds) or 'valid'}", dims, entries
    base = outer_entries(E4_PARTS)
    width = len(base) // DIMS_E4[-1]
    yield "e4 valid", DIMS_E4, base
    inner = 6 + 2 * 28 + 3 * 560 + 4 * 16800 + 5 * width  # index [7, 3, 4, 5, 6]
    tie = 5 * width + 29  # index [2, 2, 1, 1, 6] takes the value at [1, 2, 1, 1, 6]
    later = inner + 3 * width  # index [7, 3, 4, 5, 9]
    for label, changes in [
        ("e4 inner bump", [(inner, base[inner] + 1)]),
        ("e4 tie then bump", [(tie, base[tie - 1]), (later, base[later] + 1)]),
        # the tenth block takes the sixth's entries, all but its axis entry
        ("e4 block copy", [(k, base[k - 4 * width]) for k in range(9 * width + 1, 10 * width)]),
    ]:
        entries = list(base)
        for at, x in changes:
            entries[at] = x
        yield label, DIMS_E4, entries
    yield from _golden_run_cases(rng, base)


#: Faults at the edges of the runs that ``cuboid._dirty_spans`` names.
GOLDEN_RUN_KINDS = [
    "later-last", "gap-63", "gap-64", "high-half", "beside-unpackable", "unpackable-last",
]


def _golden_run_cases(rng, e4):
    """Cuboids above the ratio whose one fault sits at the edge of a run:
    the last entry of a block after an earlier vertex-sums fault, tied
    with or bumped towards its successor in the last direction; two
    faults 63 or 64 entries apart (one run, or two), vertex-sums faults
    alone where the block has them, else +1 each; + 2**40,
    which moves only a field's high half; a +-1 beside an entry that
    does not pack as int64; or the last entry of a block, but the last
    one, set beyond int64, which only its successor in the last
    direction sees.  Then two of E4's size: the later last entry,
    and two faults 63 apart."""
    cases = ((dims, kind) for dims in GOLDEN_RATIO_DIMS for kind in GOLDEN_RUN_KINDS for _ in "ab")
    for k, (dims, kind) in enumerate(cases):
        entries = outer_entries(jof_parts(random_steps(rng, dims), dims))
        _golden_run_fault(rng, kind, dims, entries)
        yield f"run {k} {kind}", dims, entries
    for kind in ("later-last", "gap-63"):
        entries = list(e4)
        _golden_run_fault(rng, kind, DIMS_E4, entries)
        yield f"e4 run {kind}", DIMS_E4, entries


def _golden_run_fault(rng, kind, dims, entries) -> None:
    """Apply one fault of ``GOLDEN_RUN_KINDS`` to ``entries`` in place."""
    size = len(entries)
    width = size // dims[-1]
    if kind == "later-last":
        k = rng.randrange(dims[-1] - 1)
        _inner_fault(rng, dims, entries, k * width)
        last = (k + 1) * width - 1
        entries[last] = entries[last + width] if rng.random() < 0.5 else entries[last] + 1
    elif kind.startswith("gap"):
        gap = int(kind[4:])
        start = rng.randrange(dims[-1]) * width
        for p in rng.sample(range(start, start + width - gap), min(width - gap, 400)):
            if _inner_step(dims, entries, p) and _inner_step(dims, entries, p + gap):
                break
        else:  # no two vertex-sums faults alone: +1 at both
            p = start + rng.randrange(width - gap)
        entries[p] += _inner_step(dims, entries, p) or 1
        entries[p + gap] += _inner_step(dims, entries, p + gap) or 1
    elif kind == "high-half":
        entries[rng.randrange(1, size)] += 2**40
    elif kind == "unpackable-last":
        entries[(rng.randrange(dims[-1] - 1) + 1) * width - 1] = rng.choice([2**63, 2**70])
    else:
        p = rng.randrange(1, size - 1)
        entries[p] += rng.choice([-1, 1])
        entries[p + rng.choice([-1, 1])] = rng.choice([2**63, 2**70, -(2**63) - 1, 2.5])


#: The documented errors a verifier, decomposer or constructor may raise.
DOCUMENTED_ERRORS = (
    InputError, Int64OverflowError, CapExceededError, VerificationFailedError,
    InternalContradictionError,
)


def _outcome(call, *args):
    """``call(*args)`` as the corpus records it: a report's JSON, a JOF's
    text, a sum system's JSON document, or [exception type, message]."""
    try:
        result = call(*args)
    except DOCUMENTED_ERRORS as exc:
        return [type(exc).__name__, str(exc)]
    if isinstance(result, SumSystem):
        return sumsystem_mod.to_json_doc(result)
    return result.as_text() if hasattr(result, "as_text") else result.to_json_doc()


def cuboid_outcomes(dims, entries) -> list:
    """``verify_reversible``, ``decompose_cuboid``, its unchecked form and
    ``verify_property_V`` on the cuboid, each an ``_outcome``."""
    M = Cuboid(dims, tuple(entries))
    return [
        _outcome(call, M)
        for call in (verify_reversible, decompose_cuboid, partial(decompose_cuboid, check=False),
                     verify_property_V)
    ]


# Squares: the square slice of the golden corpus.

#: Square sides by family; associated and most perfect squares need an
#: even part size, so a side divisible by 4.
GOLDEN_SQUARE_SIDES = {
    "reversible-even": (2, 4, 6, 8, 10, 12, 16, 18, 24),
    "reversible-odd": (3, 5, 7, 9, 15, 21, 25),
    "associated": (4, 8, 12, 16),
    "most-perfect": (4, 8, 12, 16),
}
#: The mutations of a square's rows; the "axis" ones keep the vertex sums.
GOLDEN_SQUARE_KINDS = [
    "swap", "swap-near", "bump", "corner", "shift", "edge", "flip", "ragged",
    "axis-dup", "axis-negative", "axis-bump", "axis-edge", "system", "system",
]
#: Entries at and beyond the int64 edges.
GOLDEN_SQUARE_EDGES = [2**62, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1]


def random_square_pair(rng, n: int):
    """The two parts of the sum-and-distance system behind a side-n square
    (inclusive for odd n), from a random two-part sum system of dims (n, n)
    through the reference maps."""
    steps = random_steps(rng, (n, n))
    ss = SumSystem(tuple(map(tuple, jof_parts(steps, (n, n)))))
    to_sds = reference_sumsys_to_sds_inclusive if n % 2 else reference_sumsys_to_sds_noninclusive
    return to_sds(ss, check=False).parts


def _golden_square(rng, family: str, n: int) -> list[list[int]]:
    """Plain rows of a valid square of the family and side, from a random
    two-part sum system through the reference maps and entry formulas."""
    first, second = random_square_pair(rng, n)
    signs = ()
    if family == "associated":
        half = [1, -1] * (len(first) // 2)
        signs = (rng.sample(half, len(half)), rng.sample(half, len(half)))
    return [[x // 2 for x in row] for row in reference_square(family, first, second, *signs)]


def _axis_rows(top, column) -> list[list[int]]:
    """Rows whose entry (I, J) is top[J] + column[I] - top[0]: vertex sums hold."""
    return [[t + c - top[0] for t in top] for c in column]


def _golden_square_mutation(rng, kind: str, rows: list[list[int]]) -> list[list[int]]:
    """One corpus mutation of square rows; returns the new rows."""
    n = len(rows)
    i, j = rng.randrange(n), rng.randrange(n)
    if kind == "swap":
        k, l = rng.randrange(n), rng.randrange(n)
        rows[i][j], rows[k][l] = rows[k][l], rows[i][j]
    elif kind == "swap-near":
        k, l = (i, (j + 1) % n) if rng.random() < 0.5 else ((i + 1) % n, j)
        rows[i][j], rows[k][l] = rows[k][l], rows[i][j]
    elif kind == "bump":
        rows[i][j] += rng.choice([-2, -1, 1, 2])
    elif kind == "corner":
        rows[0][0] += rng.choice([-1, 1])
    elif kind == "shift":
        step = rng.choice([-1, 1, -n * n])
        rows = [[x + step for x in row] for row in rows]
    elif kind == "edge":
        rows[i][j] = rng.choice(GOLDEN_SQUARE_EDGES)
    elif kind == "flip":  # transpose or mirror: a reversible square stays one
        how = rng.choice(["transpose", "rows", "columns"])
        if how == "transpose":
            rows = [list(col) for col in zip(*rows)]
        else:
            rows = rows[::-1] if how == "rows" else [row[::-1] for row in rows]
    elif kind == "ragged":
        del rows[i][n - 1 :]
    elif kind == "swap-last-row":  # column sums fail in the right half
        j = rng.randrange(n // 2, n - 1)
        rows[-1][j], rows[-1][-1] = rows[-1][-1], rows[-1][j]
    elif kind == "column-sum-last":  # columns n - 1 and n fail their sums
        rows[i][-2], rows[i][-1] = rows[i][-1], rows[i][-2]
    elif kind == "swap-columns":  # most perfect: blocks hold, diagonal pairs fail at n/2 - 2
        for row in rows:
            row[-3], row[-1] = row[-1], row[-3]
    elif kind == "swap-last-column":
        # Swap rows i and k, both in the top half, in the last column and in
        # a column l of the right half where the swap keeps both row sums:
        # entry set and line sums hold, and the pair clauses fail at column
        # l + 1 or later.  Without such k and l, rows i and k swap in the
        # last column only, and row sums fail.
        i, k = rng.sample(range(n // 2), 2)
        for l, k2 in itertools.product(range(n - 2, n // 2 - 1, -1), range(n // 2)):
            if k2 != i and rows[i][l] + rows[i][-1] == rows[k2][l] + rows[k2][-1]:
                k = k2
                rows[i][l], rows[k][l] = rows[k][l], rows[i][l]
                break
        rows[i][-1], rows[k][-1] = rows[k][-1], rows[i][-1]
    elif kind == "system":  # entries 1 + x_J + y_I: distinct offsets, 0 among them
        xs, ys = (rng.sample(range(1, top), n - 1) for top in (rng.choice([n, 2 * n]), n * n))
        if rng.random() < 0.5:
            ys = [n * y for y in rng.sample(range(1, n), n - 1)]  # a sum system if xs is
        for offsets in (xs, ys):
            offsets.insert(rng.randrange(n), 0)
        rows = [[1 + x + y for x in xs] for y in ys]
    elif n > 1:  # an "axis" kind: change one entry of the top row or first column
        top, column = rows[0][:], [row[0] for row in rows]
        axis = rng.choice([top, column])
        k = rng.randrange(1, n)
        if kind == "axis-dup":
            axis[k] = axis[rng.randrange(n)]
        elif kind == "axis-negative":
            axis[k] = -axis[k] - rng.randrange(n)
        elif kind == "axis-bump":
            axis[k] += rng.choice([-1, 1])
        else:
            axis[k] = rng.choice(GOLDEN_SQUARE_EDGES)
        rows = _axis_rows(top, column)
    return rows


def golden_squares(seed: int = GOLDEN_SEED):
    """The square slice of the golden corpus: (label, rows) pairs.

    About 1,500 squares from a fixed seed: valid squares of the four
    families (even and odd reversible, associated, most perfect), each
    left alone or with one to three mutations; then sides 1 and 2 by
    hand, reversible squares of sides 63 to 128, valid or mutated, and
    associated and most perfect squares of sides 64 and 128, valid or
    with a late swap, whose packed clauses name columns past the 64th.
    """
    rng = random.Random(seed)
    families = sorted(GOLDEN_SQUARE_SIDES)
    for k in range(1500):
        family = rng.choice(families)
        rows = _golden_square(rng, family, rng.choice(GOLDEN_SQUARE_SIDES[family]))
        kinds = [] if rng.random() < 0.15 else rng.choices(GOLDEN_SQUARE_KINDS, k=rng.randint(1, 3))
        kinds.sort(key="ragged".__eq__)  # a ragged grid takes no further mutation
        for kind in kinds:
            rows = _golden_square_mutation(rng, kind, rows)
        yield f"{k} {family} {','.join(kinds) or 'valid'}", rows
    for rows in (
        [[1]], [[0]], [[2]], [[-1]], [[2**63 - 1]], [[True]],
        [[4, 3], [2, 1]], [[1, 2], [3, 4]], [[1, 3], [2, 4]], [[1, 1], [1, 1]],
        [[1, 2], [2, 3]], [[2, 3], [4, 5]], [[0, 1], [2, 3]], [[1, 2], [3, 5]],
        [[-1, 2], [3, 6]], [[2**63 - 1, 1], [2, 3]],
    ):
        yield f"small {rows}", rows
    for k, (family, n) in enumerate(
        [("reversible-even", 64), ("reversible-odd", 63), ("reversible-even", 128)] * 2
    ):
        rows = _golden_square(rng, family, n)
        yield f"large {k} {family} {n} valid", [row[:] for row in rows]
        kind = rng.choice(["bump", "axis-dup", "system", "shift"])
        yield f"large {k} {family} {n} {kind}", _golden_square_mutation(rng, kind, rows)
    for k, (n, family) in enumerate(itertools.product((64, 128), ("associated", "most-perfect"))):
        rows = _golden_square(rng, family, n)
        yield f"packed {k} {family} {n} valid", rows
        for kind in ("swap-last-row", "swap-last-column", "column-sum-last", "swap-columns"):
            mutated = _golden_square_mutation(rng, kind, [row[:] for row in rows])
            yield f"packed {k} {family} {n} {kind}", mutated


def square_outcomes(rows) -> list:
    """``SquareMatrix.from_plain`` of the rows, then ``verify_square`` under
    every kind: each report's JSON, or [exception type, message]."""
    try:
        M = SquareMatrix.from_plain(rows)
    except DOCUMENTED_ERRORS as exc:
        return [[type(exc).__name__, str(exc)]]
    return [verify_square(M, kind).to_json_doc() for kind in KINDS]


# Sum systems and sum-and-distance systems: the "sumsystem" and "sds" slices.

#: Mutations of a sum system's parts; each keeps every part a component
#: set with 0 and at least two elements, or leaves the parts alone.
GOLDEN_SUM_KINDS = ["bump", "bump", "move", "far", "tie", "swap", "grow", "drop"]
#: Hand-made parts: silent walks (the ordered scan names the witness), then
#: the edges of the constructor and of int64.
GOLDEN_SUM_EDGES = [
    ((0, 1, 4, 6), (0, 2, 5, 7)),
    ((0, 1), (0, 24, 96, 294), (0, 2, 4, 6), (0, 8, 16), (0, 48)),
    ((0, 1, 4, 6), (0, 2, 5, 7), *((0, 2**k) for k in range(4, 11))),
    ((0, 1),), ((0, 2),), ((0, 1, 2, 3, 4, 5, 6),), ((0, 3), (0, 1, 2)), ((0, 3), (0, 1, 2, 4)),
    ((0, 2, 1), (0, 1)), ((1, 2), (0, 1)), ((0,), (0, 1)), ((0, True), (0, 2)), ((0, 1.0), (0, 2)),
    ((0, 2**62), (0, 2**62)), ((0, 2**63 - 1),), ((0, 1), (0, 2**63)), (),
]


def _free_value(rng, part, top) -> int:
    """A value in 1 .. top that ``part`` does not hold."""
    while True:
        x = rng.randint(1, top)
        if x not in part:
            return x


def _golden_sum_mutation(rng, kind, parts) -> None:
    """Apply one corpus mutation to ``parts`` (lists) in place."""
    part = parts[rng.randrange(len(parts))]
    k = rng.randrange(1, len(part))
    if kind == "bump":  # +-1, +-2 or up to +-50 from where it was
        x = part[k] + rng.choice([-2, -1, 1, 2, rng.randint(-50, 50)])
        if x > 0 and x not in part:
            part[k] = x
    elif kind == "move":
        part[k] = _free_value(rng, part, 2 * part[-1] + 2)
    elif kind == "far":  # mostly above the part's maximum, often past the walk's search
        part[k] = _free_value(rng, part, 4 * part[-1] + 100)
    elif kind == "tie":  # an element of another part
        other = rng.choice(parts)
        x = rng.choice(other[1:])
        if x not in part:
            part[k] = x
    elif kind == "swap":  # exchange non-zero elements of two parts
        i = rng.randrange(len(parts))
        l = rng.randrange(1, len(parts[i]))
        if parts[i][l] not in part and part[k] not in parts[i]:
            part[k], parts[i][l] = parts[i][l], part[k]
            parts[i].sort()
    elif kind == "grow":
        part.append(_free_value(rng, part, 2 * part[-1] + 2))
    elif len(part) > 2:  # "drop"
        del part[k]
    part.sort()


def golden_sum_systems(seed: int = GOLDEN_SEED):
    """The sum-system slice of the golden corpus: (label, parts) pairs.

    800 systems from a fixed seed, half of dims product at most 200 and
    half above the certificate ratio, each valid or with one to three
    mutations, so that the stage walk completes, stops with a witness or
    stops without one; then ``GOLDEN_SUM_EDGES``, and E4 valid and with
    part 5's seventh element raised by 1, a walk witness at E4's size.
    """
    rng = random.Random(seed)
    small = [dims for _, dims in dims_vectors_up_to(200) if len(dims) <= 4]
    for k in range(800):
        dims = rng.choice(small) if k < 400 else rng.choice(GOLDEN_RATIO_DIMS)
        parts = jof_parts(random_steps(rng, dims), dims)
        kinds = [] if rng.random() < 0.15 else rng.choices(GOLDEN_SUM_KINDS, k=rng.randint(1, 3))
        for kind in kinds:
            _golden_sum_mutation(rng, kind, parts)
        yield f"{k} {','.join(kinds) or 'valid'}", parts
    for k, parts in enumerate(GOLDEN_SUM_EDGES):
        yield f"edge {k} {parts!r}"[:80], [list(p) for p in parts]
    yield "e4 valid", [list(p) for p in E4_PARTS]
    parts = [list(p) for p in E4_PARTS]
    parts[4][6] += 1
    yield "e4 part 5 bump", parts


def sum_system_outcomes(parts) -> list:
    """``verify_sum_system`` on the parts and the route that answered
    ("walk", or "scan" where the ordered scan ran), ``decompose_sum_system``
    checked and unchecked, and ``polynomial_check``, each an ``_outcome``;
    or the constructor's error alone."""
    try:
        ss = SumSystem(tuple(map(tuple, parts)))
    except DOCUMENTED_ERRORS as exc:
        return [[type(exc).__name__, str(exc)]]
    scan = sumsystem_mod._scan_sum_system
    with mock.patch.object(sumsystem_mod, "_scan_sum_system", wraps=scan) as spy:
        report = _outcome(verify_sum_system, ss)
    return [
        report, "scan" if spy.called else "walk", _outcome(decompose_sum_system, ss),
        _outcome(partial(decompose_sum_system, check=False), ss), _outcome(polynomial_check, ss),
    ]


#: Mutations of a sum-and-distance system's parts.  With h = 2 for
#: non-inclusive systems and 1 for inclusive ones, "inner" moves an element
#: below its part's maximum by h or 2h and "swap" exchanges two such
#: elements of two parts: the maxima, so the lift, stay and the bijection
#: answers.  "parity" moves one by 1, which the non-inclusive map refuses;
#: "top" raises a maximum by h and "flavour" claims the other flavour, so
#: the lift no longer fits the target.
GOLDEN_SDS_KINDS = ["inner", "inner", "swap", "parity", "top", "flavour"]
#: Hand-made systems: single parts, then the constructor's edges.
GOLDEN_SDS_EDGES = [
    ("non-inclusive", ((1,),)), ("inclusive", ((1,),)), ("non-inclusive", ((2,),)),
    ("inclusive", ((1, 2),)), ("non-inclusive", ((1, 3), (4,))), ("inclusive", ((1,), (3,))),
    ("both", ((1,),)), ("inclusive", ((0, 1),)), ("inclusive", ((2, 1),)), ("inclusive", ()),
    ("non-inclusive", ((True,),)), ("inclusive", ((1.0,),)),
    ("non-inclusive", ((2**62 + 1,), (2**62 + 3,))),
]


def _golden_sds_mutation(rng, kind, flavour, parts) -> str:
    """Apply one corpus mutation to ``parts`` (lists) in place; the flavour after it."""
    h = 1 if flavour == INCLUSIVE else 2
    if kind == "flavour":
        return FLAVOURS[flavour == NON_INCLUSIVE]
    if kind == "top":
        rng.choice(parts)[-1] += h
        return flavour
    many = [part for part in parts if len(part) > 1]
    if not many:
        return flavour
    part = rng.choice(many)
    k = rng.randrange(len(part) - 1)
    if kind == "swap":
        i = rng.randrange(len(parts))
        if len(parts[i]) > 1:
            l = rng.randrange(len(parts[i]) - 1)
            if parts[i][l] not in part and part[k] not in parts[i]:
                part[k], parts[i][l] = parts[i][l], part[k]
                parts[i].sort()
    else:  # "inner" or "parity"
        x = part[k] + rng.choice([-1, 1]) * (1 if kind == "parity" else rng.choice([h, 2 * h]))
        if 0 < x < part[-1] and x not in part:
            part[k] = x
    part.sort()
    return flavour


def golden_sds(seed: int = GOLDEN_SEED):
    """The SDS slice of the golden corpus: (label, flavour, parts) triples.

    800 sum-and-distance systems from a fixed seed, the images of random
    sum systems of dims product at most 400 (all sizes even for
    non-inclusive, odd for inclusive) through the reference maps, each
    valid or with one or two mutations; then ``GOLDEN_SDS_EDGES``, and E4's
    non-inclusive system valid and with an inner element of part 5 raised
    by 2, which the bijection names at E4's size.
    """
    rng = random.Random(seed)
    shapes = [dims for _, dims in dims_vectors_up_to(400) if len(dims) <= 4]
    by_flavour = {
        NON_INCLUSIVE: [dims for dims in shapes if all(n % 2 == 0 for n in dims)],
        INCLUSIVE: [dims for dims in shapes if all(n % 2 for n in dims)],
    }
    to_sds = {
        NON_INCLUSIVE: reference_sumsys_to_sds_noninclusive,
        INCLUSIVE: reference_sumsys_to_sds_inclusive,
    }
    for k in range(800):
        flavour = rng.choice(FLAVOURS)
        dims = rng.choice(by_flavour[flavour])
        ss = SumSystem(tuple(map(tuple, jof_parts(random_steps(rng, dims), dims))))
        parts = [list(p) for p in to_sds[flavour](ss, check=False).parts]
        kinds = [] if rng.random() < 0.15 else rng.choices(GOLDEN_SDS_KINDS, k=rng.randint(1, 2))
        for kind in kinds:
            flavour = _golden_sds_mutation(rng, kind, flavour, parts)
        yield f"{k} {','.join(kinds) or 'valid'}", flavour, parts
    for k, (flavour, parts) in enumerate(GOLDEN_SDS_EDGES):
        yield f"edge {k} {flavour} {parts!r}"[:80], flavour, [list(p) for p in parts]
    parts = [list(p) for p in reference_sumsys_to_sds_noninclusive(SumSystem(E4_PARTS)).parts]
    yield "e4 valid", NON_INCLUSIVE, [p[:] for p in parts]
    parts[4][2] += 2
    yield "e4 part 5 inner", NON_INCLUSIVE, parts


def sds_outcomes(flavour, parts) -> list:
    """``verify_sds`` on the system and the route that answered
    ("bijection", or "scan" where the ordered scan ran), ``verify_sds_two_part``,
    and the flavour's map to a sum system unchecked and checked, each an
    ``_outcome``; or the constructor's error alone."""
    try:
        s = SdsSystem(tuple(map(tuple, parts)), flavour)
    except DOCUMENTED_ERRORS as exc:
        return [[type(exc).__name__, str(exc)]]
    with mock.patch.object(sds_mod, "_scan_sds", wraps=sds_mod._scan_sds) as spy:
        report = _outcome(verify_sds, s)
    to_sumsys = sds_to_sumsys_inclusive if flavour == INCLUSIVE else sds_to_sumsys_noninclusive
    return [
        report, "scan" if spy.called else "bijection", _outcome(verify_sds_two_part, s),
        _outcome(partial(to_sumsys, check=False), s), _outcome(to_sumsys, s),
    ]


#: The slices of the golden corpus: name -> (inputs, outcomes, least case
#: count).  Each input is a label, then the arguments of its outcomes.
GOLDEN_SLICES = {
    "cuboid": (golden_cuboids, cuboid_outcomes, 2000),
    "square": (golden_squares, square_outcomes, 1500),
    "sumsystem": (golden_sum_systems, sum_system_outcomes, 800),
    "sds": (golden_sds, sds_outcomes, 800),
}
