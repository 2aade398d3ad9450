"""Square matrices with consecutive entries built from two-part systems.

Four families: even and odd reversible squares, associated magic
squares, and most perfect squares.  Each arises by filling a block
pattern from the two parts of a sum-and-distance system and adding the
weight (n^2 + 1) / 2, which recentres the entries onto 1 .. n^2.  The
weight is a half-integer for even n, so a builder forms each row in
doubled units, as one int of n 64-bit fields, and halves it whole; every
matrix holds plain integers.  ``verify_square`` compares packed rows too,
names failures as the ordered per-entry scan does, and reads a
reversible square as an order-2 cuboid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import Sequence

from .core import (
    DEFAULT_CAP,
    InputError,
    VerificationReport,
    _are_ints,
    _document,
    _entry_set_witness,
    _frozen,
    _require_cap,
    _require_ints,
    _require_passed,
    _shown,
)
from .cuboid import Cuboid, _packing, _vertex_mismatch
from .sds import INCLUSIVE, NON_INCLUSIVE, SdsSystem, _signed, verify_sds
from .sumsystem import _walk_stop

KINDS = ("reversible", "associated", "most-perfect")


@dataclass(frozen=True)
class SquareMatrix:
    """n x n integer entries, row by row; a bad entry is named before a bad shape."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _require_ints((self.n,), "side length must be a positive integer", lo=1)
        # Tuple rows: row comparisons need them, and the square hashes.
        rows = _frozen(self.rows, "square rows")
        object.__setattr__(self, "rows", tuple([_frozen(row, "square row") for row in rows]))
        for row in self.rows:
            _require_ints(row, "entries must be integers")
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise InputError(f"need a {self.n} x {self.n} entry grid")

    @staticmethod
    def from_plain(rows: Sequence[Sequence[int]]) -> "SquareMatrix":
        """The square of the integer rows."""
        rows = _frozen(rows, "square rows")
        return SquareMatrix(len(rows), rows)

    def plain_rows(self) -> list[list[int]]:
        return list(map(list, self.rows))


def _paired_parts(
    a: Sequence[int], b: Sequence[int], flavour: str, cap: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    system = SdsSystem((a, b), flavour)
    first, second = system.parts
    if len(first) != len(second):
        raise InputError(
            f"parts must have equal size, got {len(first)} and {len(second)}"
        )
    _require_passed(verify_sds(system, cap=cap), f"{flavour} pair")
    return first, second


def _rank_two_square(signs, scales, col_a, col_b) -> SquareMatrix:
    """Rows ``(n^2 + 1 + s_i col_a + c_i col_b) / 2``, n = len(col_a), ungated.

    With A = Σ a_J 2^(64J) (packed, less 2^64 at each negative field) and
    B likewise, twice row i is (n^2 + 1) ONES + s_i A + c_i B.  From a
    verified pair (``_paired_parts``) its coefficients are twice entries in
    1 .. n^2: even and in 2 .. 2n^2, they are its base-2^64 digits (no
    field borrows or carries), and ``>> 1`` halves each one exactly.
    """
    n = len(col_a)
    row, ones = _packing(n)
    A, B = (int.from_bytes(row.pack(*col), "little") for col in (col_a, col_b))
    A, B = (x - ((x >> 63 & ones) << 64) for x in (A, B))
    twice = ((n * n + 1) * ones + s * A + c * B for s, c in zip(signs, scales))
    rows = tuple([row.unpack((t >> 1).to_bytes(row.size, "little")) for t in twice])
    M = object.__new__(SquareMatrix)
    object.__setattr__(M, "n", n)
    object.__setattr__(M, "rows", rows)
    return M


def _reversible_square(
    a: Sequence[int], b: Sequence[int], flavour: str, cap: int
) -> SquareMatrix:
    """Side 2*len(a) + inclusive reversible square, scale g = 1 + inclusive.

    The weightless form is separable: twice the entry at (I, J) is
    g * (alpha_J + beta_I) where alpha is the first part's signed axis
    (``sds._signed`` reversed, through 0 when inclusive), beta likewise
    for the second part, so twice row I is g * alpha + (g * beta_I + n^2
    + 1): rank two, with s_I = 1 and the second column all ones.
    """
    first, second = _paired_parts(a, b, flavour, cap)
    inclusive = flavour == INCLUSIVE
    g = 1 + inclusive
    n = 2 * len(first) + inclusive
    alpha = [g * x for x in _signed(first, inclusive)[::-1]]
    shifts = [g * c for c in _signed(second, inclusive)[::-1]]
    return _rank_two_square((1,) * n, shifts, alpha, (1,) * n)


def reversible_square_even(
    a: Sequence[int], b: Sequence[int], cap: int = DEFAULT_CAP
) -> SquareMatrix:
    """Side 2*len(a) reversible square from a non-inclusive pair."""
    return _reversible_square(a, b, NON_INCLUSIVE, cap)


def reversible_square_odd(
    a: Sequence[int], b: Sequence[int], cap: int = DEFAULT_CAP
) -> SquareMatrix:
    """Side 2*len(a) + 1 reversible square from an inclusive pair.

    The centre entry is always (n^2 + 1) / 2.
    """
    return _reversible_square(a, b, INCLUSIVE, cap)


def _sign_vector(signs: Sequence[int] | None, nu: int, label: str) -> tuple[int, ...]:
    out = (1, -1) * (nu // 2) if signs is None else tuple(signs)
    if len(out) != nu:
        raise InputError(f"{label} must have length {nu}, got {len(out)}")
    if not _are_ints(out) or any(s not in (1, -1) for s in out):
        raise InputError(f"{label} entries must be +1 or -1")
    if sum(out) != 0:
        raise InputError(f"{label} must sum to 0")
    return out


def associated_magic_square(
    a: Sequence[int],
    b: Sequence[int],
    v: Sequence[int] | None = None,
    w: Sequence[int] | None = None,
    cap: int = DEFAULT_CAP,
) -> SquareMatrix:
    """Magic square with the centre-pair symmetry, from a non-inclusive pair.

    ``v`` and ``w`` are zero-sum sign vectors (alternating by default)
    that scramble the rank-one block pattern without disturbing the row
    and column sums.  Requires even part size.  With alpha and beta as
    for reversible squares, s = v + v[::-1] and W = w + w[::-1], twice
    row I is (s_I alpha + n^2 + 1) + beta_I W.
    """
    first, second = _paired_parts(a, b, NON_INCLUSIVE, cap)
    nu = len(first)
    if nu % 2:
        raise InputError(f"part size must be even, got {nu}")
    vs, ws = _sign_vector(v, nu, "v"), _sign_vector(w, nu, "w")
    alpha, beta = _signed(first, False)[::-1], _signed(second, False)[::-1]
    return _rank_two_square(vs + vs[::-1], beta, alpha, ws + ws[::-1])


def most_perfect_square(
    a2: Sequence[int], b2: Sequence[int], cap: int = DEFAULT_CAP
) -> SquareMatrix:
    """Most perfect square from a non-inclusive pair of even size.

    The inputs play the role of doubled coefficient vectors, so the
    weightless entries are half-integers: each row is formed doubled
    and halved exactly.  Every toroidal 2 x 2 block of the result sums
    to 2 * (n^2 + 1) and diagonal entries half the side apart pair to
    n^2 + 1.  With sigma = (1, -1, ..) of length n, r = a2 + (-a2)
    and Q = b2 + (-b2), twice row I is r_I sigma + (sigma_I Q + n^2 + 1).
    """
    first, second = _paired_parts(a2, b2, NON_INCLUSIVE, cap)
    nu = len(first)
    if nu % 2:
        raise InputError(f"part size must be even, got {nu}")
    sigma, r = (1, -1) * nu, first + tuple(-x for x in first)
    q = second + tuple(-x for x in second)
    return _rank_two_square(sigma, r, q, sigma)


def _entry_set_certified(d) -> bool:
    """``verify_square``'s certificate: lo = 1, and the walk completes on sorted a and b."""
    axes = [sorted(d[0]), sorted(row[0] for row in d)]
    parts = [tuple([x - axis[0] for x in axis]) for axis in axes]  # tuples: the walk compares them
    return axes[0][0] + axes[1][0] - d[0][0] == 1 and _walk_stop(parts, (len(d),) * 2) is None


def _first_mismatch(rows, wants) -> list[int] | None:
    """1-based [row, column] of the first field where packed rows differ
    from packed ``wants`` (built lazily), else None; fields in 0 .. 2^63."""
    for i, (row, want) in enumerate(zip(rows, wants)):
        if row != want:
            low = (row ^ want) & -(row ^ want)  # the lowest bit that differs
            return [i + 1, (low.bit_length() - 1) // 64 + 1]
    return None


def _first_unreversed(line: Sequence[int]) -> int | None:
    """First k with line[k] + line[-1-k] != line[0] + line[-1], else None."""
    sums = map(add, line, reversed(line))
    return next((k for k, s in enumerate(sums) if s != line[0] + line[-1]), None)


def verify_square(M: SquareMatrix, kind: str) -> VerificationReport:
    """Check every clause of the named family; entry set 1 .. n^2 always.

    The report is the ordered per-entry scan's: the first violated
    clause and its first offender, row-major.  Most perfect reports
    carry a note naming the toroidal block convention.  After the entry
    set and row sums, rows are packed (``_packing``): column sums are the
    sum of the packed rows, and associated pairs, 2 x 2 blocks (via
    adjacent-entry sums) and diagonal pairs compare each row with its
    partner row, reversed or rotated.  With entries in 1 .. n^2, every
    field lies in 0 .. n^3 < 2^63: none carries or borrows, so the first
    differing field of two packed ints names the first differing column.

    A reversible square is the order-2 cuboid of its rows, axes T (top
    row) and C (first column): vertex sums hold iff d[I][J] = T[J] + C[I]
    - d00, and a first flat mismatch p is [p // n + 1, p % n + 1].  If
    none, d[I][J] = a_J + b_I + lo (a = T - min T, b = C - min C, lo = min
    T + min C - d00): the entries are 1 .. n^2 iff lo = 1 and (a, b) is a
    sum system.  A stage walk that completes on them, sorted, proves that
    (a repeated offset stops it), and the entry-set pass, else first, is
    skipped.  Line reversal is then O(n): row I reverses at J iff T[J] +
    T[n-1-J] = T[0] + T[n-1], for all I alike, and column J at I iff C[I]
    + C[n-1-I] = C[0] + C[n-1], for all J alike and at I = 0 always; so
    the first failure, row-major, is (1, J+1) for T's first failing J,
    else (I+1, 1) for C's first failing I.
    """
    if kind not in KINDS:
        raise InputError(f"kind must be one of {KINDS}, got {_shown(kind)}")
    n, d = M.n, M.rows
    note = "toroidal-2x2-blocks" if kind == "most-perfect" else None

    def fail(invariant: str, witness) -> VerificationReport:
        return VerificationReport.fail(invariant, witness, note=note)

    def rotated(p: int, k: int) -> int:  # the packed row whose field J is p's field (J + k) % n
        return (p >> 64 * k) | ((p & ((1 << 64 * k) - 1)) << 64 * (n - k))

    # A reversible square's first vertex mismatch; 0 for other kinds, whose sets are read
    p = _vertex_mismatch(Cuboid((n, n), tuple(chain(*d)))) if kind == "reversible" else 0
    certified = p is None and _entry_set_certified(d)
    witness = None if certified else _entry_set_witness(chain(*d), 1, n * n)
    if witness is not None:
        return fail("entry-set", witness)
    if kind == "reversible":
        if p is not None:
            return fail("vertex-sums", [p // n + 1, p % n + 1])
        j = _first_unreversed(d[0])
        i = _first_unreversed([row[0] for row in d]) if j is None else 0
        if i is not None:
            return fail("line-reversal", {"row": i + 1, "column": (j or 0) + 1})
        return VerificationReport.ok()
    pair_sum = n * n + 1
    for k, line in enumerate(d):
        if 2 * sum(line) != n * pair_sum:
            return fail("row-sum", k + 1)
    row, ones = _packing(n)
    packed = [int.from_bytes(row.pack(*r), "little") for r in d]
    if at := _first_mismatch([sum(packed)], [n * pair_sum // 2 * ones]):
        return fail("column-sum", at[1])
    if kind == "associated":
        wants = (pair_sum * ones - int.from_bytes(row.pack(*r[::-1]), "little") for r in d[::-1])
        at = _first_mismatch(packed, wants)
        return fail("associated-pairs", at) if at else VerificationReport.ok()
    if n % 2:
        return fail("even-order", n)
    # Block (I, J) is right when the sum of row I's entries at J and
    # J + 1 complements that of row I + 1.
    adjacent = [p + rotated(p, 1) for p in packed]
    wants = (2 * pair_sum * ones - p for p in adjacent[1:] + adjacent[:1])
    if at := _first_mismatch(adjacent, wants):
        return fail("block-sums", at)
    h = n // 2
    wants = (pair_sum * ones - rotated(p, h) for p in packed[h:] + packed[:h])
    at = _first_mismatch(packed, wants)
    return fail("diagonal-pairs", at) if at else VerificationReport.ok(note=note)


def to_json_doc(M: SquareMatrix) -> dict:
    return {"n": M.n, "entries": M.plain_rows()}


def from_json_doc(doc: object, cap: int = DEFAULT_CAP) -> SquareMatrix:
    """Parse ``{"n": n, "entries": [[row], ...]}``; ``cap`` bounds its n^2 cells."""
    n, rows = _document(doc, "square", "n", "entries")
    if not isinstance(rows, list) or not set(map(type, rows)) <= {list}:
        raise InputError("'entries' must be a list of rows")
    _require_cap(sum(map(len, rows)), "square cells", cap)
    M = SquareMatrix.from_plain(rows)
    _require_ints((n,), "'n' must be an integer")
    if M.n != n:
        raise InputError(f"'n' is {n} but the grid is {M.n} x {M.n}")
    return M
