"""Sum systems: construction from factorisations, verification, decomposition.

A sum system is a list of integer sets, each containing 0, whose
elementwise sums hit every integer in 0 .. prod(sizes) - 1 exactly once.
Every sum system arises from a joint ordered factorisation of its part
sizes by accumulating scaled segments, and that construction can be
inverted; both directions live here.  A polynomial identity provides an
independent route to the verification: the product of the parts'
characteristic polynomials must have all-ones coefficients.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .core import (
    DEFAULT_CAP,
    InputError,
    Int64OverflowError,
    InternalContradictionError,
    SumSystem,
    VerificationReport,
    _are_ints,
    _document,
    _require_cap,
    _require_ints,
    _require_passed,
    _require_sum_bounds,
    _shown,
    _sorted_sums,
    as_component_set,
    ensure_int64,
    first_segment,
    is_progression,
)
from .factorisation import JointOrderedFactorisation, _require_buildable, _walk_stages


def build_sum_system(jof: JointOrderedFactorisation) -> SumSystem:
    """Expand a joint ordered factorisation into its sum system.

    Each step (j, f) extends part j with f copies of itself offset by
    multiples of the running product of all factors applied so far,
    which keeps every part sorted and disjoint by construction.
    """
    _require_buildable(jof)
    return _build_sum_system(jof)


def _build_sum_system(jof: JointOrderedFactorisation) -> SumSystem:
    """``build_sum_system`` of a JOF that has passed ``_require_buildable``."""
    parts: list[list[int]] = [[0] for _ in jof.dims]
    scale = 1
    for j, f in jof.steps:
        part = parts[j - 1]
        parts[j - 1] = [x + l * scale for l in range(f) for x in part]
        scale *= f
        ensure_int64(scale, "running factor product")
    return SumSystem(tuple(tuple(p) for p in parts))


def _walk_stop(
    parts: Sequence[Sequence[int]], dims: Sequence[int]
) -> InternalContradictionError | None:
    """Where the stage walk stops on parts that each start at 0, or None.

    Each closed stage is the consumed prefix plus l * product for l = 1
    .. factor - 1, so a completed walk (None) proves the parts equal
    ``build_sum_system`` of the steps it recovered, which is a sum
    system by uniqueness of mixed-radix digits.  The parts may be the
    axes of a cuboid; ``cuboid.verify_reversible`` then compares the
    tensor with their outer sums.
    """
    try:
        _walk_stages(parts, dims)
    except InternalContradictionError as stop:
        return stop
    return None


def verify_sum_system(ss: SumSystem, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Full check: the sum multiset equals 0 .. prod(sizes) - 1, once each.

    The cap and int64 gates run, then the stage walk of
    ``decompose_sum_system`` serves as a certificate: if it completes,
    the system passes in O(sum(sizes)) without forming a sum.  If it
    stops, its closed stages cover 0 .. P - 1 once each, which fixes the
    first value the scan flags (``factorisation._walk_stages`` gives the
    rule and its proof), and the system fails ``target-mismatch`` with
    that witness.  Where the rule is silent, the ordered scan sorts all
    prod(sizes) sums and names the first violated invariant.
    """
    _require_sum_bounds(ss.parts, cap)
    stop = _walk_stop(ss.parts, ss.dims)
    if stop is None:
        return VerificationReport.ok()
    if stop.witness is not None:
        return VerificationReport.fail("target-mismatch", witness=stop.witness)
    return _scan_sum_system(ss, cap)


def _scan_sum_system(ss: SumSystem, cap: int = DEFAULT_CAP) -> VerificationReport:
    """The ordered scan: sort every sum and compare with 0 .. prod(sizes) - 1."""
    sums = _sorted_sums(ss.parts, cap)
    return is_progression(sums, first_segment(ss.target_size))


def check_palindromic(elements: Sequence[int]) -> VerificationReport:
    """Is the set equal to its reflection about its maximum?

    Every part of a valid sum system has this symmetry, so a failure
    here is a quick certificate that no completion can be valid.
    """
    cs = as_component_set(elements, context="set")
    top = cs[-1]
    members = set(cs)
    for x in cs:
        if top - x not in members:
            return VerificationReport.fail("palindromic", witness=x)
    return VerificationReport.ok()


def parity_signature(
    ss: SumSystem, cap: int = DEFAULT_CAP, check: bool = True
) -> tuple[int, ...]:
    """Parity (0 even, 1 odd) of each part's maximum.

    For a valid sum system either every maximum is even (all part sizes
    odd) or exactly one maximum is odd (some part size even).
    """
    if check:
        _require_passed(verify_sum_system(ss, cap=cap), "parity_signature input")
    return tuple(part[-1] % 2 for part in ss.parts)


def polynomial_check(ss: SumSystem, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Multiply the parts' characteristic polynomials with exact integers.

    The system is valid exactly when the product is 1 + x + ... +
    x^(d-1) with d = prod(sizes); this never forms the sum multiset, so
    it is an independent oracle for verify_sum_system.  The product is
    one int, w = (d // max(sizes)).bit_length() bits per exponent: in a
    partial product, a coefficient counts index tuples whose other
    elements fix the largest part's, at most d // max(sizes) < 2^w of
    them.  Shifts are non-negative, so no field carries and masking
    exponents >= d keeps the rest exact.  The coefficients sum to d, so
    the first that is not 1 lies below x^d.
    Parts go by ascending maximum, which keeps the early products short.
    """
    d = ss.target_size
    _require_cap(d, "polynomial coefficients", cap)
    w = (d // max(ss.dims)).bit_length()
    keep = (1 << d * w) - 1
    poly = 1
    for part in sorted(ss.parts, key=lambda p: p[-1]):
        poly = sum(poly << x * w for x in part[: bisect_left(part, d)]) & keep
    poly ^= keep // ((1 << w) - 1)  # the all-ones fields of 1 + ... + x^(d-1)
    del keep  # in place and without ``keep``, a reject peaks no higher than a pass
    if poly:
        low = (poly & -poly).bit_length() - 1  # the lowest bit that differs
        return VerificationReport.fail("polynomial-coefficient", witness=low // w)
    return VerificationReport.ok()


def decompose_sum_system(
    ss: SumSystem, cap: int = DEFAULT_CAP, check: bool = True
) -> JointOrderedFactorisation:
    """Recover the canonical joint ordered factorisation of a sum system.

    The parts are the axes of the stage walk in ``factorisation``; each
    closed stage must consist of whole copies of the part's consumed
    prefix, offset by the running product of the factors so far.
    ``check=False`` skips the up-front verification for callers that
    already hold a verified system.
    """
    if check:
        _require_passed(verify_sum_system(ss, cap=cap), "decompose input")
    return _walk_stages(ss.parts, ss.dims)


def base_q_system(q: int, m: int) -> SumSystem:
    """The positional base-q system: digits scaled by powers of q."""
    _require_ints((q, m), "q and m must be integers")
    if q < 2 or m < 1:
        raise InputError(f"need q >= 2 and m >= 1, got q={q}, m={m}")
    if m >= 64:  # q**m >= 2**64: refused before the power is formed
        raise Int64OverflowError(f"largest value {q}**{m} - 1 exceeds signed 64-bit range")
    ensure_int64(q**m - 1, "largest representable value")
    return SumSystem(tuple(tuple(i * q**k for i in range(q)) for k in range(m)))


def to_json_doc(ss: SumSystem) -> dict:
    return {"dims": list(ss.dims), "parts": [list(p) for p in ss.parts]}


def from_json_doc(doc: object) -> SumSystem:
    """Parse the sum-system document ``{"parts": [[...], ...], "dims": [...]}``.

    ``dims`` repeats the part sizes; the redundancy is deliberate and a
    mismatch is rejected.
    """
    parts, dims = _document(doc, "sum system", "parts", "dims")
    if not isinstance(parts, list) or not set(map(type, parts)) <= {list}:
        raise InputError("'parts' must be a list of lists")
    ss = SumSystem(tuple(tuple(p) for p in parts))
    if not isinstance(dims, list) or not _are_ints(dims) or tuple(dims) != ss.dims:
        raise InputError(f"'dims' {_shown(dims)} do not match part sizes {list(ss.dims)}")
    return ss
