"""Nothing is materialised beyond the cap.

Each capped library entry point counts what it would hold before it
builds any of it.  Called with a cap one below that count, it raises
CapExceededError while ``tracemalloc`` sees less than 8 bytes per
counted element, less than a list of pointers to them would take; with
the cap equal to the count, it returns.
"""

import math
import time
import tracemalloc

import pytest

from addsys.core import CapExceededError, Int64OverflowError, minkowski_sum
from addsys.cuboid import _CERTIFICATE_RATIO, build_cuboid, cuboid_from_sumsystem
from addsys.cuboid import from_json_doc as cuboid_from_json_doc
from addsys.factorisation import JointOrderedFactorisation
from addsys.sds import (
    INCLUSIVE,
    SdsSystem,
    sumsys_to_sds_noninclusive,
    verify_sds,
    verify_sds_two_part,
)
from addsys.squares import from_json_doc as square_from_json_doc, reversible_square_even
from addsys.sumsystem import (
    base_q_system,
    build_sum_system,
    polynomial_check,
    verify_sum_system,
)

SIZE = 10_000
SCANNED = base_q_system(100, 2)  # dims (100, 100): a cuboid takes the ordered scan
CERTIFIED = base_q_system(10, 4)  # dims (10, 10, 10, 10): a cuboid tries the walk first
HALVES = sumsys_to_sds_noninclusive(SCANNED, check=False)  # parts of 50: 100 x 100 sums
WIDE = sumsys_to_sds_noninclusive(
    build_sum_system(JointOrderedFactorisation(((1, 200), (2, 100)), (200, 100))), check=False
)  # parts of 100 and 50: 2 * 100 * 50 two-part values
SQUARE_JOF = JointOrderedFactorisation(((1, 100), (2, 100)), (100, 100))
CUBOID_DOC = {"dims": [100, 100], "entries": list(range(SIZE))}
SQUARE_DOC = {"n": 100, "entries": [list(range(r, r + 100)) for r in range(1, SIZE, 100)]}

#: Each capped entry point as a function of the cap; each counts SIZE.
CAPPED = {
    "minkowski_sum": lambda cap: minkowski_sum(SCANNED.parts, cap=cap),
    "verify_sum_system 100x100": lambda cap: verify_sum_system(SCANNED, cap=cap),
    "verify_sum_system 10x10x10x10": lambda cap: verify_sum_system(CERTIFIED, cap=cap),
    "polynomial_check": lambda cap: polynomial_check(SCANNED, cap=cap),
    "verify_sds": lambda cap: verify_sds(HALVES, cap=cap),
    "verify_sds_two_part": lambda cap: verify_sds_two_part(WIDE, cap=cap),
    "build_cuboid": lambda cap: build_cuboid(SQUARE_JOF, cap=cap),
    "cuboid_from_sumsystem": lambda cap: cuboid_from_sumsystem(SCANNED, cap=cap, check=False),
    "cuboid.from_json_doc": lambda cap: cuboid_from_json_doc(CUBOID_DOC, cap=cap),
    "squares.from_json_doc": lambda cap: square_from_json_doc(SQUARE_DOC, cap=cap),
    "reversible_square_even": lambda cap: reversible_square_even(*HALVES.parts, cap=cap),
}


def test_both_verification_routes_are_covered():
    # the cuboids of the two systems lie on either side of the size rule
    assert math.prod(CERTIFIED.dims) >= _CERTIFICATE_RATIO * sum(CERTIFIED.dims)
    assert math.prod(SCANNED.dims) < _CERTIFICATE_RATIO * sum(SCANNED.dims)


def _peak_while_refused(call, cap: int) -> int:
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match=f"cap is {cap}$"):
            call(cap)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", CAPPED.values(), ids=list(CAPPED))
def test_refused_below_the_count_before_materialising(call):
    assert _peak_while_refused(call, SIZE - 1) < 8 * SIZE
    call(SIZE)


def test_verify_sds_refuses_a_target_beyond_int64_by_the_cap():
    # balanced ternary, 40 digits: its 3**40 signed sums outnumber int64,
    # and the cap refuses them before the target progression is formed
    s = SdsSystem(tuple((3**k,) for k in range(40)), INCLUSIVE)
    with pytest.raises(CapExceededError, match=f"too many sums: {3**40}, cap is"):
        verify_sds(s)


def test_base_q_system_refuses_before_forming_the_power():
    # 10**3_000_000 takes seconds and over a megabyte to form; every
    # m >= 64 overflows for q >= 2, so none is formed.
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(Int64OverflowError, match=r"10\*\*3000000 - 1 exceeds"):
            base_q_system(10, 3_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 0.5
    assert peak < 10_000
    with pytest.raises(Int64OverflowError):
        base_q_system(2, 64)
    assert base_q_system(2, 63).parts[-1] == (0, 2**62)
