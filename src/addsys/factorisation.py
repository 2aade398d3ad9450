"""Joint ordered factorisations of a dimension vector.

A joint ordered factorisation (JOF) of dims ``(n_1, ..., n_m)`` is a
sequence of (direction, factor) steps such that the factors assigned to
each direction multiply to that direction's dimension, every factor is
at least 2, and consecutive steps never use the same direction.  These
sequences parametrise every sum system and every principal reversible
cuboid of the given dimensions, so this module is the combinatorial
backbone of the package.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, count, islice, repeat
from math import isqrt, prod
from operator import ge, ne
from typing import Iterator, Sequence

from .core import (
    InputError, InternalContradictionError, VerificationReport, _are_ints, _frozen, _shown,
)

Step = tuple[int, int]
#: A direction or factor of the text syntax, and a size of the CLI's --dims:
#: ASCII digits after an optional "-".  int() alone also reads "+1", "1_0" and " 1".
_DECIMAL = re.compile("-?[0-9]+")


@dataclass(frozen=True)
class JointOrderedFactorisation:
    """A step sequence together with the dimension vector it factorises.

    Instances are plain records; use ``validate_jof`` to check the
    defining clauses of a raw sequence.
    """

    steps: tuple[Step, ...]
    dims: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def as_text(self) -> str:
        return format_jof(self.steps)


@lru_cache(maxsize=None)
def _divisors_ge2(n: int) -> tuple[int, ...]:
    """The divisors of n from 2 up, ascending, found in O(sqrt(n)) trials."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return tuple(small[1:] + large)


def validate_jof(steps: Sequence[Step], dims: Sequence[int]) -> VerificationReport:
    """Check the two defining clauses plus step shape, factor and direction ranges.

    Violations come back as failed reports, so callers can surface them
    verbatim; steps or dims that are not iterable raise InputError.  A
    ``dims-range`` witness is [k, x]: the first dim x, k-th from 1, that is
    not an int in 1 .. INT64_MAX ([] for empty dims).
    """
    steps, dims = _frozen(steps, "steps"), _frozen(dims, "dims")
    pairs = []  # the steps up to the first that is not two values
    try:
        for j, f in steps:
            pairs.append((j, f))
    except (TypeError, ValueError):
        pass
    # One gate pass over every value; only a failure is located.
    ints = _are_ints((*dims, *chain.from_iterable(pairs)), lo=1)
    if not dims or not (ints or _are_ints(dims, lo=1)):
        bad = next(((k, x) for k, x in enumerate(dims, 1) if not _are_ints((x,), lo=1)), ())
        return VerificationReport.fail("dims-range", witness=list(bad))
    if len(pairs) < len(steps):
        return VerificationReport.fail("step-shape", witness=len(pairs) + 1)
    m = len(dims)
    for l, (j, f) in enumerate(pairs, start=1):
        if not (ints or _are_ints((j,))) or not 1 <= j <= m:
            return VerificationReport.fail("direction-range", witness=l)
        if not (ints or _are_ints((f,))) or f < 2:
            return VerificationReport.fail("factor-range", witness=l)
    for l in range(1, len(pairs)):
        if pairs[l][0] == pairs[l - 1][0]:
            return VerificationReport.fail("adjacent-directions", witness=l + 1)
    products = [1] * m
    for j, f in pairs:
        products[j - 1] *= f
    for j in range(m):
        if products[j] != dims[j]:
            return VerificationReport.fail(
                "direction-product",
                witness={"direction": j + 1, "product": products[j], "expected": dims[j]},
            )
    return VerificationReport.ok()


def _require_valid(jof: JointOrderedFactorisation) -> None:
    report = validate_jof(jof.steps, jof.dims)
    if not report.passed:
        raise InputError(f"invalid joint ordered factorisation: {report._described()}")


def _require_buildable(jof: JointOrderedFactorisation) -> None:
    """The gate every construction passes: a valid JOF with no unit dims."""
    _require_valid(jof)
    if 1 in jof.dims:  # a valid JOF's dims are already integers >= 1
        raise InputError("dims must all be integers >= 2, got 1")


def _require_enumerable(dims: Sequence[int]) -> tuple[int, ...]:
    dims = _frozen(dims, "dims")
    if not dims:
        raise InputError("dims vector is empty")
    if not _are_ints(dims, lo=2):
        bad = next(x for x in dims if not _are_ints((x,), lo=2))
        raise InputError(f"dims must all be integers >= 2, got {_shown(bad)}")
    return dims


def enumerate_jofs(dims: Sequence[int]) -> Iterator[JointOrderedFactorisation]:
    """Yield every JOF of ``dims`` exactly once, in lexicographic step order.

    Steps are compared as (direction, factor) pairs.  The stream is
    deterministic so golden files and paginated CLI output stay stable.
    """
    dims = _require_enumerable(dims)
    m = len(dims)
    quotients = list(dims)
    steps: list[Step] = []

    def walk(last: int) -> Iterator[JointOrderedFactorisation]:
        for j in range(m):
            if j == last or quotients[j] == 1:
                continue
            q = quotients[j]
            for f in _divisors_ge2(q):
                steps.append((j + 1, f))
                quotients[j] = q // f
                yield from walk(j)
                quotients[j] = q
                steps.pop()
        if all(q == 1 for q in quotients):
            yield JointOrderedFactorisation(tuple(steps), dims)

    # A finished sequence can never be extended (all quotients are 1), so
    # completed JOFs are exactly the dead ends with nothing left to factor.
    yield from walk(-1)


def count_jofs(dims: Sequence[int]) -> int:
    """Number of JOFs of ``dims``, equal to the length of enumerate_jofs.

    Counts by memoised recursion over the multiset of remaining
    per-direction quotients; directions holding equal quotients are
    interchangeable, which collapses the state space far below the
    enumeration tree.
    """
    dims = _require_enumerable(dims)
    return _count_multiset(tuple(sorted(dims)), 0)


@lru_cache(maxsize=None)
def _count_multiset(quotients: tuple[int, ...], blocked: int) -> int:
    # ``blocked`` is the quotient value held by the direction used in the
    # previous step (0 when unconstrained); one holder of that value is
    # excluded this turn.  Holders of equal values are symmetric, so the
    # value alone identifies the state.
    if not quotients:
        return 1
    total = 0
    counts = Counter(quotients)
    for value, mult in counts.items():
        available = mult - (1 if blocked == value else 0)
        if available == 0:
            continue
        rest = list(quotients)
        rest.remove(value)
        for f in _divisors_ge2(value):
            left = value // f
            if left > 1:
                total += available * _count_multiset(tuple(sorted(rest + [left])), left)
            else:
                total += available * _count_multiset(tuple(rest), 0)
    return total


def canonicalise(steps: Sequence[Step], dims: Sequence[int]) -> JointOrderedFactorisation:
    """Fuse adjacent same-direction steps until the adjacency clause holds.

    The input must already satisfy the per-direction product clause;
    only the adjacency clause may be violated.  Idempotent.
    """
    steps, dims = _frozen(steps, "steps"), _frozen(dims, "dims")
    report = validate_jof(steps, dims)
    if not report.passed and report.violated_invariant != "adjacent-directions":
        raise InputError(f"cannot canonicalise: {report._described()}")
    fused: list[Step] = []
    for j, f in steps:
        if fused and fused[-1][0] == j:
            fused[-1] = (j, fused[-1][1] * f)
        else:
            fused.append((j, f))
    return JointOrderedFactorisation(tuple(fused), dims)


def _walk_stages(axes: Sequence[Sequence[int]], dims: Sequence[int]) -> JointOrderedFactorisation:
    """Recover the canonical JOF from the axes of a sum system or cuboid.

    At every stage the smallest value not yet covered, the product P of
    the factors so far, must be the next value s on exactly one axis;
    that direction advances until another axis's next value (the fence)
    is smaller, and the stretch must be whole copies A + l * P of the
    prefix A it had covered.  Anything else raises
    InternalContradictionError, with the scan's witness for axes that
    start at 0 where this rule names it.

    The scan names the first value v whose count c(v) among the sums is
    not 1: v if c(v) >= 2, else the next sum above v.  Closed stages are
    ``build_sum_system`` of their steps, so their sums cover 0 .. P - 1
    once each and every other sum is at least s.  So a tied s, or s < P,
    is the witness (counted twice), and so is s > P (c(P) = 0).  Inside
    a stage let x_e = A[t] + l * P be the first expected value the axis
    lacks (mismatched, or past a ragged end) and z the lesser of the
    value found there and the fence.  The sums known so far, once each,
    are 0 .. l * P - 1 and l * P + u for each u < P whose mixed-radix
    digits give the direction an index below t; they include every
    value below x_e, and the other sums are at least z.  So z < x_e, or
    z = x_e from both sources, is the witness.  If z > x_e, c(x_e) = 0
    and the witness is the first known sum above x_e if it is below z,
    else z; with t = 0 there is none, so z at once.  If z = x_e from one
    source, or that search passes sum(dims) values, there is no witness.

    A completed walk's steps are a JOF of ``dims`` as they stand.  A
    stage closes only where another direction's next value is smaller,
    and a tie raises, so the next stage never extends the same direction.
    The copy check makes each cursor a whole multiple of its base, so
    every factor is at least 2.  Every axis is consumed, so the factors
    of each direction multiply to its dimension.
    """
    consumed = [1] * len(dims)
    open_dirs = [j for j, n in enumerate(dims) if n > 1]
    nexts = [axes[j][1] for j in open_dirs]  # each open axis's next value
    product = 1
    steps: list[Step] = []
    while open_dirs:
        smallest, fence = sorted(nexts)[:2] if len(nexts) > 1 else (nexts[0], None)
        if smallest == fence or smallest != product:
            raise InternalContradictionError(
                f"next value {smallest} is tied or not {product}", smallest
            )
        k = nexts.index(smallest)
        j = open_dirs[k]
        axis, base, n = axes[j], consumed[j], dims[j]
        cursor = n if fence is None else next(
            compress(count(base), map(ge, islice(axis, base, n), repeat(fence))), n
        )
        # every copy A + l * P of this stage at once; i counts from A's end
        got = axis[base:cursor]
        offsets = range(product, -(-cursor // base) * product, product)
        want = tuple([x + o for o in offsets for x in axis[:base]])
        if got != want:
            i = next(compress(count(), map(ne, got, want)), len(got))
            found = axis[base + i] if base + i < n else None
            l, t = 1 + i // base, i % base
            raise InternalContradictionError(
                f"direction {j + 1} copy {l} lacks {want[i]}",
                _copy_witness(want[i], found, fence, j + 1, l, t, steps, sum(dims)),
            )
        consumed[j] = cursor
        if cursor == n:
            del open_dirs[k], nexts[k]
        else:
            nexts[k] = axis[cursor]
        product *= cursor // base
        steps.append((j + 1, cursor // base))
    return JointOrderedFactorisation(tuple(steps), tuple(dims))


def _copy_witness(
    expected: int, found: int | None, fence: int | None,
    j: int, l: int, t: int, steps: Sequence[Step], budget: int,
) -> int | None:
    """The rule of ``_walk_stages`` when copy l of direction j lacks A[t] + l * P."""
    z = min((x for x in (found, fence) if x is not None), default=None)
    if z is not None and z <= expected:
        return z if z < expected or found == fence else None
    if t == 0:
        return z
    product = prod(f for _, f in steps)
    top = (l + 1) * product if z is None else min(z, (l + 1) * product)
    for w in range(expected + 1, min(top, expected + 1 + budget)):
        u, index, scale = w - l * product, 0, 1
        for d, f in steps:
            u, digit = divmod(u, f)
            if d == j:
                index += digit * scale
                scale *= f
        if index < t:
            return w
    return z if top <= expected + 1 + budget else None


def format_jof(steps: Sequence[Step]) -> str:
    """Render steps in the CLI text syntax, e.g. ``1:5,2:2,1:3``."""
    try:
        return ",".join(f"{j}:{f}" for j, f in steps)
    except (TypeError, ValueError):  # no pairs to unpack
        raise InputError(f"steps must be (direction, factor) pairs, got {_shown(steps)}") from None


def parse_jof(text: str) -> JointOrderedFactorisation:
    """Parse the CLI text syntax; dims are inferred from the steps.

    The number of directions is the largest direction index mentioned,
    which may not exceed the number of steps.
    """
    try:
        body = text.strip()
        pieces = body.split(",")
    except (AttributeError, TypeError):
        raise InputError(f"JOF text must be a string, got {_shown(text)}") from None
    if not body:
        raise InputError("empty joint ordered factorisation")
    steps: list[Step] = []
    for piece in pieces:
        part = piece.strip()
        try:
            j, f = (int(_DECIMAL.fullmatch(t)[0]) for t in part.split(":"))
        except (TypeError, ValueError):  # not two decimals, or past int()'s digit limit
            raise InputError(f"malformed step {part!r}, expected direction:factor") from None
        steps.append((j, f))
    if min(j for j, _ in steps) < 1:
        raise InputError("directions must be positive")
    # A direction above the step count leaves some direction without a step.
    for j, f in steps:
        if j > len(steps):
            raise InputError(f"direction {j} in step {j}:{f} exceeds the step count {len(steps)}")
    dims = [1] * max(j for j, _ in steps)
    for j, f in steps:
        if f < 2:
            raise InputError(f"factor {f} in step {j}:{f} must be >= 2")
        dims[j - 1] *= f
    jof = JointOrderedFactorisation(tuple(steps), tuple(dims))
    _require_valid(jof)
    return jof
