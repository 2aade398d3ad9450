"""Square matrices with consecutive entries built from two-part systems.

Four families: even and odd reversible squares, associated magic
squares, and most perfect squares.  Each arises by filling a block
pattern from the two parts of a sum-and-distance system and adding the
weight (n^2 + 1) / 2, which recentres the entries onto 1 .. n^2.  The
weight is a half-integer for even n, so matrices are stored in doubled
units throughout and halved exactly on output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    DEFAULT_CAP,
    InputError,
    VerificationReport,
    _require_passed,
    as_component_set,
    ensure_int64,
)
from .sds import INCLUSIVE, NON_INCLUSIVE, SdsSystem, verify_sds

KINDS = ("reversible", "associated", "most-perfect")


@dataclass(frozen=True)
class SquareMatrix:
    """n x n integers in doubled units (stored value = 2 x true value)."""

    n: int
    doubled: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError(f"side length must be >= 1, got {self.n}")
        if len(self.doubled) != self.n or any(len(r) != self.n for r in self.doubled):
            raise InputError(f"need a {self.n} x {self.n} entry grid")
        parity = None
        for row in self.doubled:
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InputError(f"entries must be integers, got {x!r}")
                ensure_int64(x, "doubled entry")
                if parity is None:
                    parity = x % 2
                elif x % 2 != parity:
                    raise InputError("doubled entries must share parity")

    @staticmethod
    def from_plain(rows: Sequence[Sequence[int]]) -> "SquareMatrix":
        grid = tuple(tuple(2 * x for x in row) for row in rows)
        return SquareMatrix(len(grid), grid)

    def plain_rows(self) -> list[list[int]]:
        if self.doubled and self.doubled[0][0] % 2:
            raise InputError("entries are half-integers; no exact plain form")
        return [[x // 2 for x in row] for row in self.doubled]


def _paired_parts(
    a: Sequence[int], b: Sequence[int], flavour: str, cap: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    first = as_component_set(a, require_positive=True, context="first part")
    second = as_component_set(b, require_positive=True, context="second part")
    if len(first) != len(second):
        raise InputError(
            f"parts must have equal size, got {len(first)} and {len(second)}"
        )
    system = SdsSystem((first, second), flavour)
    _require_passed(verify_sds(system, cap=cap), f"{flavour} pair")
    return first, second


def _assemble(n: int, doubled_weightless) -> SquareMatrix:
    # Adding the doubled weight n^2 + 1 must land on even values; the
    # halved matrix is then exactly integral.
    weight2 = n * n + 1
    grid = tuple(
        tuple(doubled_weightless(i, j) + weight2 for j in range(n)) for i in range(n)
    )
    if any(x % 2 for row in grid for x in row):
        raise InputError("weighted entries do not halve exactly; invalid inputs")
    return SquareMatrix(n, grid)


def reversible_square_even(
    a: Sequence[int], b: Sequence[int], cap: int = DEFAULT_CAP
) -> SquareMatrix:
    """Side 2*len(a) reversible square from a non-inclusive pair.

    The weightless form is separable: twice the entry at (I, J) is
    alpha_J + beta_I where alpha runs through the reversed first part
    and then its negative, beta likewise for the second part.  Entries
    are exactly 1 .. n^2 when the pair is a valid system.
    """
    first, second = _paired_parts(a, b, NON_INCLUSIVE, cap)
    nu = len(first)
    n = 2 * nu

    def signed(part: tuple[int, ...], k: int) -> int:
        return part[nu - 1 - k] if k < nu else -part[k - nu]

    return _assemble(n, lambda i, j: signed(first, j) + signed(second, i))


def reversible_square_odd(
    a: Sequence[int], b: Sequence[int], cap: int = DEFAULT_CAP
) -> SquareMatrix:
    """Side 2*len(a) + 1 reversible square from an inclusive pair.

    Same separable pattern with a zero row and column through the
    centre; the centre entry is always the weight (n^2 + 1) / 2.
    """
    first, second = _paired_parts(a, b, INCLUSIVE, cap)
    nu = len(first)
    n = 2 * nu + 1

    def signed(part: tuple[int, ...], k: int) -> int:
        if k < nu:
            return part[nu - 1 - k]
        if k == nu:
            return 0
        return -part[k - nu - 1]

    return _assemble(n, lambda i, j: 2 * (signed(first, j) + signed(second, i)))


def _sign_vector(signs: Sequence[int] | None, nu: int, label: str) -> tuple[int, ...]:
    if signs is None:
        signs = tuple(1 if k % 2 == 0 else -1 for k in range(nu))
    out = tuple(signs)
    if len(out) != nu:
        raise InputError(f"{label} must have length {nu}, got {len(out)}")
    if any(s not in (1, -1) for s in out):
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
    and column sums.  Requires even part size.
    """
    first, second = _paired_parts(a, b, NON_INCLUSIVE, cap)
    nu = len(first)
    if nu % 2:
        raise InputError(f"part size must be even, got {nu}")
    vs = _sign_vector(v, nu, "v")
    ws = _sign_vector(w, nu, "w")
    n = 2 * nu

    def weightless2(i: int, j: int) -> int:
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

    return _assemble(n, weightless2)


def most_perfect_square(
    a2: Sequence[int], b2: Sequence[int], cap: int = DEFAULT_CAP
) -> SquareMatrix:
    """Most perfect square from a non-inclusive pair of even size.

    The inputs play the role of doubled coefficient vectors, so the
    weightless entries are half-integers; doubled units absorb that
    exactly.  Every toroidal 2 x 2 block of the result sums to
    2 * (n^2 + 1) and diagonal entries half the side apart pair to
    n^2 + 1.
    """
    first, second = _paired_parts(a2, b2, NON_INCLUSIVE, cap)
    nu = len(first)
    if nu % 2:
        raise InputError(f"part size must be even, got {nu}")
    n = 2 * nu

    def sigma(k: int) -> int:
        return 1 if k % 2 == 0 else -1

    def weightless2(i: int, j: int) -> int:
        row_sign = 1 if i < nu else -1
        col_sign = 1 if j < nu else -1
        ii, jj = i % nu, j % nu
        return row_sign * first[ii] * sigma(jj) + col_sign * sigma(ii) * second[jj]

    return _assemble(n, weightless2)


def _entry_set_check(M: SquareMatrix) -> VerificationReport | None:
    n = M.n
    if M.doubled[0][0] % 2:
        # Half-integer entries cannot form 1 .. n^2; witness in doubled units.
        return VerificationReport.fail("entry-set", witness=M.doubled[0][0])
    seen = bytearray(n * n + 1)
    for row in M.doubled:
        for x in row:
            value = x // 2
            if not (1 <= value <= n * n) or seen[value]:
                return VerificationReport.fail("entry-set", witness=value)
            seen[value] = 1
    return None


def verify_square(M: SquareMatrix, kind: str) -> VerificationReport:
    """Check every clause of the named family; entry set 1 .. n^2 always.

    Most perfect reports carry a note naming the toroidal block
    convention used for the 2 x 2 sums.
    """
    if kind not in KINDS:
        raise InputError(f"kind must be one of {KINDS}, got {kind!r}")
    n = M.n
    d = M.doubled
    note = "toroidal-2x2-blocks" if kind == "most-perfect" else None
    bad = _entry_set_check(M)
    if bad is not None:
        return VerificationReport.fail(bad.violated_invariant, bad.witness, note=note)
    if kind == "reversible":
        for i in range(n):
            for j in range(n):
                if d[i][j] - d[0][j] - d[i][0] + d[0][0] != 0:
                    return VerificationReport.fail("vertex-sums", witness=[i + 1, j + 1])
        for i in range(n):
            for j in range(n):
                if d[i][j] + d[i][n - 1 - j] != d[i][0] + d[i][n - 1]:
                    return VerificationReport.fail(
                        "line-reversal", witness={"row": i + 1, "column": j + 1}
                    )
                if d[i][j] + d[n - 1 - i][j] != d[0][j] + d[n - 1][j]:
                    return VerificationReport.fail(
                        "line-reversal", witness={"row": i + 1, "column": j + 1}
                    )
        return VerificationReport.ok()
    line_sum = n * (n * n + 1)
    for i in range(n):
        if sum(d[i]) != line_sum:
            return VerificationReport.fail("row-sum", witness=i + 1, note=note)
    for j in range(n):
        if sum(d[i][j] for i in range(n)) != line_sum:
            return VerificationReport.fail("column-sum", witness=j + 1, note=note)
    if kind == "associated":
        for i in range(n):
            for j in range(n):
                if d[i][j] + d[n - 1 - i][n - 1 - j] != 2 * (n * n + 1):
                    return VerificationReport.fail(
                        "associated-pairs", witness=[i + 1, j + 1]
                    )
        return VerificationReport.ok()
    if n % 2:
        return VerificationReport.fail("even-order", witness=n, note=note)
    block_sum = 4 * (n * n + 1)
    for i in range(n):
        for j in range(n):
            total = (
                d[i][j]
                + d[i][(j + 1) % n]
                + d[(i + 1) % n][j]
                + d[(i + 1) % n][(j + 1) % n]
            )
            if total != block_sum:
                return VerificationReport.fail(
                    "block-sums", witness=[i + 1, j + 1], note=note
                )
    half = n // 2
    for i in range(n):
        for j in range(n):
            if d[i][j] + d[(i + half) % n][(j + half) % n] != 2 * (n * n + 1):
                return VerificationReport.fail(
                    "diagonal-pairs", witness=[i + 1, j + 1], note=note
                )
    return VerificationReport.ok(note=note)


def to_json_doc(M: SquareMatrix) -> dict:
    return {"n": M.n, "entries": M.plain_rows()}


def from_json_doc(doc: object) -> SquareMatrix:
    """Parse ``{"n": n, "entries": [[row], ...]}`` in plain integers."""
    if not isinstance(doc, dict):
        raise InputError("square document must be a JSON object")
    missing = {"n", "entries"} - doc.keys()
    if missing:
        raise InputError(f"square document lacks {sorted(missing)}")
    rows = doc["entries"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("'entries' must be a list of rows")
    for row in rows:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise InputError(f"entries must be integers, got {x!r}")
    M = SquareMatrix.from_plain(rows)
    if M.n != doc["n"]:
        raise InputError(f"'n' is {doc['n']} but the grid is {M.n} x {M.n}")
    return M
