"""Exact integer primitives: progressions, component sets, Minkowski sums.

Every verifier in the package reduces to two operations defined here:
forming the multiset of elementwise sums of several integer sets, and
comparing that multiset against a prescribed arithmetic progression.
The sums come from ``_outer_sums``, the one outer-sum expansion, which
the cuboid module also uses to tabulate and check tensors.
All arithmetic is exact and restricted to signed 64-bit magnitudes;
exceeding that range is a hard error, never a silent wraparound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from math import prod
from operator import countOf, lt, ne
from typing import Any, Iterable, Sequence

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

#: Default ceiling for materialised sum multisets and tensor entry counts.
DEFAULT_CAP = 100_000_000


class InputError(ValueError):
    """Malformed or out-of-domain input (bad schema, unsorted set, ...)."""


class Int64OverflowError(OverflowError):
    """A computed value left the signed 64-bit range."""


class CapExceededError(RuntimeError):
    """A materialised result would exceed the configured element cap."""


class InternalContradictionError(RuntimeError):
    """A state arose that the verified precondition rules out.

    Raised by the decomposition routines when an input that claimed to
    be verified turns out not to be.  ``witness`` is the ordered scan's
    witness where the stage walk can name it, else None.
    """

    def __init__(self, message: str, witness: int | None = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a structural check.

    ``passed`` is true exactly when ``violated_invariant`` is absent.
    ``witness`` identifies the first offending value or index in a
    deterministic scan order.  ``note`` records a convention the check
    relied on (for example toroidal block indexing).
    """

    passed: bool
    violated_invariant: str | None = None
    witness: Any = None
    note: str | None = None

    def __post_init__(self) -> None:
        if self.passed and self.violated_invariant is not None:
            raise InputError("a passing report cannot name a violated invariant")
        if not self.passed and self.violated_invariant is None:
            raise InputError("a failing report must name the violated invariant")

    @staticmethod
    def ok(note: str | None = None) -> "VerificationReport":
        """A passing report; without a note, the one shared instance."""
        return _PASSED if note is None else VerificationReport(passed=True, note=note)

    @staticmethod
    def fail(invariant: str, witness: Any = None, note: str | None = None) -> "VerificationReport":
        return VerificationReport(
            passed=False, violated_invariant=invariant, witness=witness, note=note
        )

    def _described(self) -> str:
        """How an error message names a failed report: ``invariant (witness ...)``."""
        return f"{self.violated_invariant} (witness {_shown(self.witness)})"

    def to_json_doc(self) -> dict:
        doc: dict[str, Any] = {"passed": self.passed}
        for key in ("violated_invariant", "witness", "note"):
            if getattr(self, key) is not None:
                doc[key] = getattr(self, key)
        return doc


_PASSED = VerificationReport(passed=True)


class VerificationFailedError(RuntimeError):
    """An operation required a verified input and the check failed."""

    def __init__(self, context: str, report: VerificationReport):
        self.context = context
        self.report = report
        super().__init__(f"{context}: {report._described()}")


def _require_passed(report: VerificationReport, context: str) -> None:
    """The gate of every operation that needs a verified input."""
    if not report.passed:
        raise VerificationFailedError(context, report)


def _shown(value: Any) -> str:
    """``repr``, but an int too long for ``str`` shows its bit length, also in a list or dict."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, list):
            return f"[{', '.join(map(_shown, value))}]"
        if isinstance(value, dict):
            return "{" + ", ".join(f"{_shown(k)}: {_shown(v)}" for k, v in value.items()) + "}"
        return f"<{'negative ' * (value < 0)}int of {value.bit_length()} bits>"


def ensure_int64(value: int, context: str = "value") -> int:
    if not (INT64_MIN <= value <= INT64_MAX):
        raise Int64OverflowError(f"{context} {_shown(value)} exceeds signed 64-bit range")
    return value


@dataclass(frozen=True)
class Progression:
    """The arithmetic progression ``{start + k*step : 0 <= k < count}``."""

    start: int
    step: int
    count: int

    def __post_init__(self) -> None:
        _require_ints((self.start,), "progression start must be an integer")
        _require_ints((self.step, self.count), "step and count must be integers >= 1", lo=1)
        ensure_int64(self.last, "progression end")

    @property
    def last(self) -> int:
        return self.start + (self.count - 1) * self.step


def first_segment(count: int) -> Progression:
    """The progression 0, 1, ..., count - 1."""
    return Progression(start=0, step=1, count=count)


def progression_set(p: Progression) -> tuple[int, ...]:
    """Expand a progression into its sorted element tuple, at most ``DEFAULT_CAP`` long."""
    _require_cap(p.count, "progression elements", DEFAULT_CAP)
    return tuple(range(p.start, p.start + p.step * p.count, p.step))


def _are_ints(values: Sequence[Any], lo: int = INT64_MIN) -> bool:
    """Is every value an ``int``, never a ``bool`` or other subclass, in
    lo .. INT64_MAX?  True when empty; whole-sequence passes, no copy."""
    return not values or (
        countOf(map(type, values), int) == len(values)
        and lo <= min(values) and max(values) <= INT64_MAX
    )


def _frozen(values: Any, what: str) -> tuple:
    """``tuple(values)``, or InputError naming ``what`` if it is not iterable."""
    try:
        iter(values)
    except TypeError:
        raise InputError(f"{what} must be iterable, got {_shown(values)}") from None
    return tuple(values)


def _require_ints(values: Sequence[Any], rule: str, lo: int = INT64_MIN) -> None:
    """The integer gate: unless ``_are_ints``, name the first offender in
    order, by InputError for a non-integer or a value below ``lo`` and
    Int64OverflowError outside signed 64 bits; ``rule`` opens the message."""
    if _are_ints(values, lo):
        return
    for x in values:
        if type(x) is not int or (lo > INT64_MIN and x < lo):
            raise InputError(f"{rule}, got {_shown(x)}")
        if not INT64_MIN <= x <= INT64_MAX:
            raise Int64OverflowError(f"{rule} within signed 64 bits, got {_shown(x)}")


def _document(doc: object, kind: str, *keys: str) -> list[Any]:
    """The values at ``keys`` of a JSON object, the preamble of every reader."""
    if not isinstance(doc, dict):
        raise InputError(f"{kind} document must be a JSON object")
    missing = set(keys) - doc.keys()
    if missing:
        raise InputError(f"{kind} document lacks {sorted(missing)}")
    return [doc[key] for key in keys]


def as_component_set(
    elements: Iterable[int], *, context: str = "component set"
) -> tuple[int, ...]:
    """Validate and freeze one component set.

    Elements must be strictly increasing non-negative integers within
    64-bit range.  ``SumSystem`` and ``sds.SdsSystem`` check the first
    element themselves: 0, and positive, respectively.
    """
    out = _frozen(elements, context)
    if not out:
        raise InputError(f"{context} is empty")
    _require_ints(out, f"{context} must hold integers")
    if not all(map(lt, out, out[1:])):
        a, b = next((a, b) for a, b in zip(out, out[1:]) if a >= b)
        raise InputError(f"{context} is not strictly increasing at {a}, {b}")
    if out[0] < 0:
        raise InputError(f"{context} contains negative element {out[0]}")
    return out


@dataclass(frozen=True)
class SumSystem:
    """A list of component sets claimed to sum-cover 0 .. prod(dims) - 1.

    Construction checks only shape invariants (strictly increasing parts,
    each containing 0, cardinality at least 2).  Whether the parts really
    generate the target progression is a separate, potentially expensive
    check performed by ``sumsystem.verify_sum_system``.
    """

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise InputError("sum system needs at least one part")
        frozen = []
        for i, part in enumerate(_frozen(self.parts, "sum system parts")):
            cs = as_component_set(part, context=f"part {i + 1}")
            if cs[0] != 0:
                raise InputError(f"part {i + 1} must contain 0, starts at {cs[0]}")
            if len(cs) < 2:
                raise InputError(f"part {i + 1} has cardinality {len(cs)}, need >= 2")
            frozen.append(cs)
        object.__setattr__(self, "parts", tuple(frozen))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    @property
    def target_size(self) -> int:
        return prod(map(len, self.parts))


def minkowski_sum(
    sets: Sequence[Sequence[int]], cap: int = DEFAULT_CAP
) -> list[int]:
    """All elementwise sums, one per index tuple, sorted, duplicates kept.

    The result has exactly prod(len(s)) entries.  Raises InputError on a
    non-integer, CapExceededError before materialising more than ``cap``
    elements, and Int64OverflowError if any sum could leave 64-bit range.
    """
    sets = [_frozen(s, "each set") for s in _frozen(sets, "sets")]
    for s in sets:
        _require_ints(s, "sets must hold integers")
    return _sorted_sums(sets, cap)


def _sorted_sums(sets: Sequence[Sequence[int]], cap: int) -> list[int]:
    """``minkowski_sum`` of sets already known to hold integers."""
    _require_sum_bounds(sets, cap)
    sums = _outer_sums(sets)
    sums.sort()
    return sums


def _require_cap(count: int, what: str, cap: int) -> None:
    """The cap gate: refuse ``count`` of ``what`` above ``cap`` before any is built."""
    if count > cap:
        raise CapExceededError(f"too many {what}: {count}, cap is {cap}")


def _require_sum_bounds(sets: Sequence[Sequence[int]], cap: int) -> None:
    """The cap and int64 gates of ``minkowski_sum``, without forming any sum."""
    if not all(sets):
        raise InputError("minkowski_sum requires nonempty sets")
    _require_cap(prod(map(len, sets)), "sums", cap)
    ensure_int64(sum(map(max, sets)), "largest sum")
    ensure_int64(sum(map(min, sets)), "smallest sum")


def _outer_sums(sets: Iterable[Iterable[int]]) -> list[int]:
    """Unchecked, unsorted elementwise sums in row-major order, set 1 fastest."""
    sums = [0]
    for s in sets:
        sums = [a + b for b in s for a in sums]
    return sums


def _entry_set_witness(values: Iterable[int], lo: int, hi: int) -> int | None:
    """The first value outside lo .. hi (lo >= 0) or already seen, else None:
    then hi - lo + 1 values are exactly lo .. hi."""
    seen = bytearray(hi + 1)
    for x in values:
        if not lo <= x <= hi or seen[x]:
            return x
        seen[x] = 1
    return None


def is_progression(multiset: Sequence[int], p: Progression) -> VerificationReport:
    """Does a sorted multiset equal a progression with multiplicity one each?"""
    if not isinstance(p, Progression):
        raise InputError(f"p must be a Progression, got {_shown(p)}")
    expected = range(p.start, p.start + p.step * p.count, p.step)
    actual = multiset if isinstance(multiset, (list, tuple)) else _frozen(multiset, "multiset")
    if len(actual) != len(expected):
        return VerificationReport.fail("cardinality", witness=len(actual))
    i = next(compress(count(), map(ne, actual, expected)), None)
    if i is None:
        return VerificationReport.ok()
    return VerificationReport.fail("target-mismatch", witness=actual[i])
