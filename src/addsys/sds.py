"""Sum-and-distance systems and their bijection with sum systems.

A non-inclusive system's parts, signed both ways and summed one element
per part, cover a symmetric progression of consecutive odd numbers; an
inclusive system additionally admits 0 from each part and covers the
consecutive integers.  Both flavours are one progression with step h,
h = 2 non-inclusive and h = 1 inclusive.

One bijection, parametrised by the flavour, carries non-inclusive
systems to sum systems with all part sizes even and inclusive ones to
all sizes odd.  The forward map ``_to_sumsys`` mirrors each part about
0 (adding 0 when inclusive), adds the part's maximum and divides by h.
The inverse ``_from_sumsys`` pairs elements mirrored about the centre of
each part (its centre element when inclusive) and takes their spread,
halved when inclusive.  The four public maps fix the flavour.  Mixed-parity sum
systems are rejected by both inverse maps.  ``verify_sds`` checks a
system through the forward map wherever the map applies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from math import prod
from operator import sub

from .core import (
    DEFAULT_CAP,
    InputError,
    Int64OverflowError,
    Progression,
    SumSystem,
    VerificationReport,
    _document,
    _frozen,
    _require_cap,
    _require_passed,
    _shown,
    _sorted_sums,
    as_component_set,
    ensure_int64,
    is_progression,
)
from .sumsystem import verify_sum_system

NON_INCLUSIVE = "non-inclusive"
INCLUSIVE = "inclusive"
FLAVOURS = (NON_INCLUSIVE, INCLUSIVE)
_PARITY = ("even", "odd")


@dataclass(frozen=True)
class SdsSystem:
    """Positive component sets plus the flavour of target they claim."""

    parts: tuple[tuple[int, ...], ...]
    flavour: str

    def __post_init__(self) -> None:
        if self.flavour not in FLAVOURS:
            raise InputError(f"flavour must be one of {FLAVOURS}, got {_shown(self.flavour)}")
        if not self.parts:
            raise InputError("sum-and-distance system needs at least one part")
        frozen = []
        for i, part in enumerate(_frozen(self.parts, "sum-and-distance system parts")):
            cs = as_component_set(part, context=f"part {i + 1}")
            if cs[0] == 0:
                raise InputError(f"part {i + 1} must contain positive integers only, contains 0")
            frozen.append(cs)
        object.__setattr__(self, "parts", tuple(frozen))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)


def _signed(part: tuple[int, ...], with_zero: bool) -> list[int]:
    """The part mirrored about 0, ascending; reversed, a square's signed axis."""
    return [-x for x in reversed(part)] + [0] * with_zero + list(part)


def _target(s: SdsSystem) -> Progression:
    """The total signed sums, step h, symmetric about 0."""
    inclusive = s.flavour == INCLUSIVE
    h = 2 - inclusive
    total = prod(2 * n + inclusive for n in s.sizes)
    return Progression(start=-(total - 1) * h // 2, step=h, count=total)


def verify_sds(s: SdsSystem, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Check the defining property for either flavour.

    Through the bijection, a signed sum is h * w - lift, where w is the
    matching sum of the image ``_to_sumsys`` and lift the sum of the
    parts' maxima.  So when lift is the top of the target and the image
    exists, ``verify_sum_system`` of the image answers, a failing
    witness w becoming h * w - lift.  Otherwise the ordered scan sorts
    every signed sum and names the first violated invariant.
    """
    inclusive = s.flavour == INCLUSIVE
    h, lift = 2 - inclusive, sum(part[-1] for part in s.parts)
    # lift against the top of ``_target(s)``, not formed: the cap must see its count first
    if 2 * lift != (prod(2 * n + inclusive for n in s.sizes) - 1) * h:
        return _scan_sds(s, cap)
    try:
        image = _to_sumsys(s, s.flavour, cap, check=False)
    except (InputError, Int64OverflowError):  # an element the map cannot carry
        return _scan_sds(s, cap)
    report = verify_sum_system(image, cap)
    return report if report.passed else replace(report, witness=h * report.witness - lift)


def _scan_sds(s: SdsSystem, cap: int = DEFAULT_CAP) -> VerificationReport:
    """The ordered scan: sort every signed sum (0 joins each part when
    inclusive) and compare with the flavour's symmetric target."""
    signed_parts = [_signed(p, s.flavour == INCLUSIVE) for p in s.parts]
    sums = _sorted_sums(signed_parts, cap)
    return is_progression(sums, _target(s))


def verify_sds_two_part(s: SdsSystem, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Two-part check in absolute-value form.

    For parts A, B the multiset of |a +- b| (together with the elements
    themselves when inclusive) must be the flavour's positive target.
    Agrees with verify_sds on every two-part input.
    """
    if len(s.parts) != 2:
        raise InputError(f"two-part check needs exactly 2 parts, got {len(s.parts)}")
    first, second = s.parts
    singles = list(chain(first, second)) if s.flavour == INCLUSIVE else []
    count = 2 * len(first) * len(second) + len(singles)
    _require_cap(count, "two-part values", cap)
    ensure_int64(first[-1] + second[-1], "largest sum")
    target = Progression(start=1, step=1 if s.flavour == INCLUSIVE else 2, count=count)
    values = [abs(a + b) for a in first for b in second]
    values += [abs(a - b) for a in first for b in second]
    values += singles
    values.sort()
    return is_progression(values, target)


def _to_sumsys(s: SdsSystem, flavour: str, cap: int, check: bool) -> SumSystem:
    """Part A becomes (max A + x) / h, x in ``_signed(A, inclusive)``, h = 2 - inclusive.

    An element whose parity differs from the maximum's, possible only
    when h = 2, is named, the first in ascending order.
    """
    if s.flavour != flavour:
        raise InputError(f"expected a {flavour} system, got {s.flavour}")
    if check:
        _require_passed(verify_sds(s, cap=cap), f"{flavour} system")
    inclusive = flavour == INCLUSIVE
    h = 2 - inclusive
    parts = []
    for i, part in enumerate(s.parts):
        top = part[-1]
        odd = next((a for a in part if (top - a) % h), None)
        if odd is not None:
            raise InputError(f"part {i + 1}: max {top} and element {odd} differ in parity")
        parts.append(tuple([(top + x) // h for x in _signed(part, inclusive)]))
    return SumSystem(tuple(parts))


def _from_sumsys(ss: SumSystem, flavour: str, cap: int, check: bool) -> SdsSystem:
    """Element k of part P is (P[c + inclusive + k] - P[c - 1 - k]) / (1 + inclusive).

    Here c = len(P) // 2.  A part of the wrong cardinality parity is
    named; an odd spread, possible only when inclusive, means the input
    was not a sum system at all.
    """
    inclusive = flavour == INCLUSIVE
    for i, part in enumerate(ss.parts):
        if len(part) % 2 != inclusive:
            raise InputError(
                f"part {i + 1} has {_PARITY[len(part) % 2]} cardinality {len(part)};"
                f" {flavour} conversion needs all parts {_PARITY[inclusive]}"
            )
    if check:
        _require_passed(verify_sum_system(ss, cap=cap), "sum system")
    g = 1 + inclusive
    parts = []
    for i, part in enumerate(ss.parts):
        c = len(part) // 2
        highs, lows = part[c + inclusive :], part[c - 1 :: -1]
        spreads = list(map(sub, highs, lows))
        k = next((k for k, x in enumerate(spreads) if x % g), None)
        if k is not None:
            raise InputError(
                f"part {i + 1}: elements {highs[k]} and {lows[k]}"
                " straddle the centre with odd spread; corrupt input"
            )
        parts.append(tuple([x // g for x in spreads]))
    return SdsSystem(tuple(parts), flavour)


def sds_to_sumsys_noninclusive(
    s: SdsSystem, cap: int = DEFAULT_CAP, check: bool = True
) -> SumSystem:
    """Half-sum map: part A becomes {(max A - a) / 2, (max A + a) / 2}."""
    return _to_sumsys(s, NON_INCLUSIVE, cap, check)


def sumsys_to_sds_noninclusive(
    ss: SumSystem, cap: int = DEFAULT_CAP, check: bool = True
) -> SdsSystem:
    """Differences of elements mirrored about the centre of each even-sized part."""
    return _from_sumsys(ss, NON_INCLUSIVE, cap, check)


def sds_to_sumsys_inclusive(
    s: SdsSystem, cap: int = DEFAULT_CAP, check: bool = True
) -> SumSystem:
    """Shift map: part A becomes max A + (-A, 0, A)."""
    return _to_sumsys(s, INCLUSIVE, cap, check)


def sumsys_to_sds_inclusive(
    ss: SumSystem, cap: int = DEFAULT_CAP, check: bool = True
) -> SdsSystem:
    """Half-differences about the centre element of each odd-sized part."""
    return _from_sumsys(ss, INCLUSIVE, cap, check)


def infer_flavour(ss: SumSystem) -> str:
    """Flavour of the matching sum-and-distance system, by size parity."""
    parities = {len(p) % 2 for p in ss.parts}
    if len(parities) == 1:
        return FLAVOURS[parities.pop()]
    raise InputError(
        "mixed part-size parity: no single sum-and-distance flavour applies"
    )


def to_json_doc(s: SdsSystem) -> dict:
    return {"flavour": s.flavour, "parts": [list(p) for p in s.parts]}


def from_json_doc(doc: object) -> SdsSystem:
    """Parse ``{"flavour": "inclusive"|"non-inclusive", "parts": [[...], ...]}``."""
    flavour, parts = _document(doc, "sum-and-distance", "flavour", "parts")
    if not isinstance(parts, list) or not set(map(type, parts)) <= {list}:
        raise InputError("'parts' must be a list of lists")
    return SdsSystem(tuple(tuple(p) for p in parts), flavour)
