"""Input generation and naive oracles, kept apart from the library.

Nothing here imports ``addsys``: the benchmark builds its inputs and the
expected outputs from first principles (mixed-radix digit sums,
itertools expansion, direct property scans), so a defect in the library
shows up as a mismatch instead of being copied into the expectation.

Every report oracle returns ``None`` when the input passes and
``(violated_invariant, witness)`` for the first violation, in the scan
order the library documents for the matching verifier.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

# The paper's large example E4: dims (28, 20, 30, 18, 12), target 0 .. 10! - 1.
JOF_E4 = (
    (1, 7), (2, 4), (5, 2), (3, 2), (4, 2), (2, 5),
    (4, 9), (3, 3), (1, 4), (5, 3), (3, 5), (5, 2),
)
DIMS_E4 = (28, 20, 30, 18, 12)
JOF_TEXT_E4 = "1:7,2:4,5:2,3:2,4:2,2:5,4:9,3:3,1:4,5:3,3:5,5:2"
E4_PARTS = (
    (
        0, 1, 2, 3, 4, 5, 6,
        30240, 30241, 30242, 30243, 30244, 30245, 30246,
        60480, 60481, 60482, 60483, 60484, 60485, 60486,
        90720, 90721, 90722, 90723, 90724, 90725, 90726,
    ),
    (
        0, 7, 14, 21, 224, 231, 238, 245, 448, 455, 462, 469,
        672, 679, 686, 693, 896, 903, 910, 917,
    ),
    (
        0, 56, 10080, 10136, 20160, 20216,
        362880, 362936, 372960, 373016, 383040, 383096,
        725760, 725816, 735840, 735896, 745920, 745976,
        1088640, 1088696, 1098720, 1098776, 1108800, 1108856,
        1451520, 1451576, 1461600, 1461656, 1471680, 1471736,
    ),
    (
        0, 112, 1120, 1232, 2240, 2352, 3360, 3472, 4480, 4592,
        5600, 5712, 6720, 6832, 7840, 7952, 8960, 9072,
    ),
    (
        0, 28, 120960, 120988, 241920, 241948,
        1814400, 1814428, 1935360, 1935388, 2056320, 2056348,
    ),
)
#: sha256 of the E4 cuboid's flat entries packed as signed 64-bit
#: native-order integers (``array('q', entries).tobytes()``).
E4_CUBOID_SHA256 = "abdb5814bfc75192e418ad253fac066ddca298c5b97c44d7c8d613037080a375"


def canonical_json(obj) -> str:
    """Sorted keys, no whitespace: the CLI's documented output form."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=None)
def divisors_ge2(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(2, n + 1) if n % d == 0)


def ordered_factorisations(n: int) -> list[tuple[int, ...]]:
    """Every ordered tuple of integers >= 2 whose product is n."""
    out = [(n,)]
    for first in divisors_ge2(n)[:-1]:
        out.extend((first,) + tail for tail in ordered_factorisations(n // first))
    return out


def dims_by_product(bound: int) -> list[list[tuple[int, ...]]]:
    """Dims vectors grouped by product 2 .. bound, ascending product."""
    return [ordered_factorisations(n) for n in range(2, bound + 1)]


def naive_jofs(dims) -> list[tuple[tuple[int, int], ...]]:
    """All joint ordered factorisations by brute-force interleaving, sorted."""
    dims = tuple(dims)
    out = []

    def rec(remaining, last, acc):
        if all(r == 1 for r in remaining):
            out.append(tuple(acc))
            return
        for j, r in enumerate(remaining):
            if j == last or r == 1:
                continue
            for f in divisors_ge2(r):
                nxt = list(remaining)
                nxt[j] //= f
                rec(nxt, j, acc + [(j + 1, f)])

    rec(list(dims), None, [])
    return sorted(out)


def naive_count(dims) -> int:
    """Number of JOFs, memoised on (remaining quotients, last direction)."""

    @lru_cache(maxsize=None)
    def rec(remaining, last):
        if all(r == 1 for r in remaining):
            return 1
        total = 0
        for j, r in enumerate(remaining):
            if j != last and r > 1:
                for f in divisors_ge2(r):
                    total += rec(remaining[:j] + (r // f,) + remaining[j + 1:], j)
        return total

    return rec(tuple(dims), -1)


def random_jof(dims, rng) -> tuple[tuple[int, int], ...]:
    """A seeded valid JOF: random open direction, random divisor, repeat.

    When only the previous step's direction is still open, its remaining
    quotient is folded into that step, which keeps directions alternating.
    """
    quotients = list(dims)
    steps: list[tuple[int, int]] = []
    last = -1
    while any(q > 1 for q in quotients):
        open_dirs = [j for j, q in enumerate(quotients) if q > 1 and j != last]
        if not open_dirs:
            j, f = steps[-1]
            steps[-1] = (j, f * quotients[j - 1])
            quotients[j - 1] = 1
            break
        j = rng.choice(open_dirs)
        f = rng.choice(divisors_ge2(quotients[j]))
        steps.append((j + 1, f))
        quotients[j] //= f
        last = j
    return tuple(steps)


def build_parts(steps, dims) -> tuple[tuple[int, ...], ...]:
    """Sum-system parts as mixed-radix digit sums.

    Step l contributes digit k_l in 0 .. f_l - 1 scaled by the product of
    all earlier factors; part j collects the digit sums of its own steps.
    """
    scales = []
    scale = 1
    for _, f in steps:
        scales.append(scale)
        scale *= f
    parts = []
    for direction in range(1, len(dims) + 1):
        digits = [
            [k * s for k in range(f)]
            for (j, f), s in zip(steps, scales)
            if j == direction
        ]
        parts.append(tuple(sorted(map(sum, itertools.product(*digits)))))
    return tuple(parts)


def outer_entries(parts) -> list[int]:
    """Flat cuboid entries (direction 1 fastest): every elementwise sum."""
    entries = [0]
    for part in parts:
        entries = [base + x for x in part for base in entries]
    return entries


def multi_index(dims, flat: int) -> list[int]:
    out = []
    for n in dims:
        flat, k = divmod(flat, n)
        out.append(k + 1)
    return out


def sds_noninclusive(parts) -> tuple[tuple[int, ...], ...]:
    """Differences mirrored about the centre of each even-sized part."""
    out = []
    for p in parts:
        h = len(p) // 2
        out.append(tuple(p[h + k] - p[h - 1 - k] for k in range(h)))
    return tuple(out)


def sds_inclusive(parts) -> tuple[tuple[int, ...], ...]:
    """Half-differences about the centre of each odd-sized part."""
    out = []
    for p in parts:
        h = len(p) // 2
        out.append(tuple((p[h + k] - p[h - k]) // 2 for k in range(1, h + 1)))
    return tuple(out)


def _progression_report(values, start, step, count):
    values = sorted(values)
    expected = range(start, start + step * count, step)
    if len(values) != count:
        return ("cardinality", len(values))
    for got, want in zip(values, expected):
        if got != want:
            return ("target-mismatch", got)
    return None


def sumsys_report(parts):
    """Every elementwise sum must hit 0 .. d - 1 exactly once."""
    d = math.prod(len(p) for p in parts)
    return _progression_report(map(sum, itertools.product(*parts)), 0, 1, d)


def sumsys_bump_report(parts, i: int, k: int, delta: int):
    """Closed form for a valid system whose element parts[i][k] moved by +-1.

    Below min(x, x') every integer is still hit once; at x' the sorted
    sums first differ from 0 .. d - 1 (x is missing when delta is +1,
    x - 1 is doubled when delta is -1), so the witness is x' itself.
    """
    return ("target-mismatch", parts[i][k] + delta)


def _signed(part, with_zero):
    return [-x for x in reversed(part)] + ([0] if with_zero else []) + list(part)


def sds_report(parts, inclusive: bool):
    signed = [_signed(p, inclusive) for p in parts]
    sums = map(sum, itertools.product(*signed))
    if inclusive:
        total = math.prod(2 * len(p) + 1 for p in parts)
        return _progression_report(sums, -(total - 1) // 2, 1, total)
    total = math.prod(2 * len(p) for p in parts)
    return _progression_report(sums, 1 - total, 2, total)


def sds_two_part_report(parts, inclusive: bool):
    first, second = parts
    values = [abs(a + b) for a in first for b in second]
    values += [abs(a - b) for a in first for b in second]
    count = 2 * len(first) * len(second)
    if inclusive:
        values += list(first) + list(second)
        return _progression_report(values, 1, 1, count + len(first) + len(second))
    return _progression_report(values, 1, 2, count)


def cuboid_report(dims, entries):
    """Monotonicity, vertex sums, entry set, line reversal, in that order."""
    size = len(entries)
    m = len(dims)
    strides = [math.prod(dims[:j]) for j in range(m)]
    for j in range(m):
        s, n = strides[j], dims[j]
        for p in range(size):
            if (p // s) % n < n - 1 and entries[p] >= entries[p + s]:
                return ("monotonicity", {"direction": j + 1, "index": multi_index(dims, p)})
    root = entries[0]
    axes = [[entries[k * strides[j]] for k in range(dims[j])] for j in range(m)]
    for p in range(size):
        idx = multi_index(dims, p)
        want = root + sum(axes[j][idx[j] - 1] - root for j in range(m))
        if entries[p] != want:
            return ("vertex-sums", idx)
    seen = set()
    for x in entries:
        if not 0 <= x < size or x in seen:
            return ("entry-set", x)
        seen.add(x)
    for j, axis in enumerate(axes):
        for pos, a in enumerate(axis):
            if a + axis[-1 - pos] != axis[-1]:
                return ("line-reversal", {"direction": j + 1, "position": pos + 1})
    return None


def square_report(rows, kind: str):
    """The documented clause order of each square family, on plain rows."""
    n = len(rows)
    flat = [x for row in rows for x in row]
    seen = set()
    for x in flat:
        if not 1 <= x <= n * n or x in seen:
            return ("entry-set", x)
        seen.add(x)
    cells = [(i, j) for i in range(n) for j in range(n)]
    if kind == "reversible":
        for i, j in cells:
            if rows[i][j] + rows[0][0] != rows[0][j] + rows[i][0]:
                return ("vertex-sums", [i + 1, j + 1])
        for i, j in cells:
            if (
                rows[i][j] + rows[i][n - 1 - j] != rows[i][0] + rows[i][n - 1]
                or rows[i][j] + rows[n - 1 - i][j] != rows[0][j] + rows[n - 1][j]
            ):
                return ("line-reversal", {"row": i + 1, "column": j + 1})
        return None
    # Doubled-unit sums: a half-integer line constant can never be met.
    for i in range(n):
        if 2 * sum(rows[i]) != n * (n * n + 1):
            return ("row-sum", i + 1)
    for j in range(n):
        if 2 * sum(rows[i][j] for i in range(n)) != n * (n * n + 1):
            return ("column-sum", j + 1)
    pair = n * n + 1
    if kind == "associated":
        for i, j in cells:
            if rows[i][j] + rows[n - 1 - i][n - 1 - j] != pair:
                return ("associated-pairs", [i + 1, j + 1])
        return None
    if n % 2:
        return ("even-order", n)
    for i, j in cells:
        block = (
            rows[i][j] + rows[i][(j + 1) % n]
            + rows[(i + 1) % n][j] + rows[(i + 1) % n][(j + 1) % n]
        )
        if block != 2 * pair:
            return ("block-sums", [i + 1, j + 1])
    half = n // 2
    for i, j in cells:
        if rows[i][j] + rows[(i + half) % n][(j + half) % n] != pair:
            return ("diagonal-pairs", [i + 1, j + 1])
    return None
