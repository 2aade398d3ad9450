"""The certificate route of the three verifiers agrees with the ordered scans.

The public verifiers accept through the stage walk only on systems whose
dims product is at least ``_CERTIFICATE_RATIO`` times their sum, so the
agreement is checked on the private certificate directly for small
systems, and through the public verifiers on dims above the ratio.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from addsys.core import InputError, SumSystem, VerificationFailedError, VerificationReport
from addsys.cuboid import (
    Cuboid,
    _scan_reversible,
    build_cuboid,
    decompose_cuboid,
    verify_reversible,
)
from addsys.factorisation import JointOrderedFactorisation, enumerate_jofs
from addsys.sds import (
    INCLUSIVE,
    SdsSystem,
    _scan_sds,
    sumsys_to_sds_inclusive,
    sumsys_to_sds_noninclusive,
    verify_sds,
)
from addsys.sumsystem import (
    _certificate_first,
    _certified,
    _scan_sum_system,
    build_sum_system,
    polynomial_check,
    verify_sum_system,
)
from support import divisors_ge2

#: Dims whose product is at least the ratio times their sum, so the
#: public verifiers try the certificate first.
ABOVE_RATIO = [(2,) * 11, (3,) * 7, (4,) * 6, (8, 8, 8, 8)]


@st.composite
def small_jofs(draw):
    dims = draw(
        st.lists(st.integers(2, 6), min_size=1, max_size=3).filter(
            lambda d: math.prod(d) <= 240
        )
    )
    options = list(enumerate_jofs(tuple(dims)))
    return options[draw(st.integers(0, len(options) - 1))]


@st.composite
def large_ratio_jofs(draw):
    """A random JOF of dims above the ratio, drawn step by step."""
    dims = draw(st.sampled_from(ABOVE_RATIO))
    quotients = list(dims)
    steps = []
    last = None
    while any(q > 1 for q in quotients):
        open_dirs = [j for j, q in enumerate(quotients) if q > 1 and j != last]
        assume(open_dirs)
        j = draw(st.sampled_from(open_dirs))
        f = draw(st.sampled_from(divisors_ge2(quotients[j])))
        quotients[j] //= f
        steps.append((j + 1, f))
        last = j
    return JointOrderedFactorisation(tuple(steps), dims)


def bump_part(draw, ss: SumSystem) -> SumSystem:
    """Move one non-zero element of one part by +-1, keeping it a set."""
    parts = [list(p) for p in ss.parts]
    i = draw(st.integers(0, len(parts) - 1))
    k = draw(st.integers(1, len(parts[i]) - 1))
    parts[i][k] += draw(st.sampled_from([-1, 1]))
    row = parts[i]
    assume(row[k] > row[k - 1] and (k + 1 == len(row) or row[k] < row[k + 1]))
    return SumSystem(tuple(tuple(p) for p in parts))


@st.composite
def maybe_mutated(draw, jofs):
    ss = build_sum_system(draw(jofs))
    return bump_part(draw, ss) if draw(st.booleans()) else ss


class TestSumSystem:
    @given(maybe_mutated(small_jofs()))
    @settings(max_examples=300, deadline=None)
    def test_certificate_scan_and_polynomial_agree(self, ss):
        verdict = _scan_sum_system(ss).passed
        assert _certified(ss.parts, ss.dims) == verdict
        assert polynomial_check(ss).passed == verdict

    @given(maybe_mutated(large_ratio_jofs()))
    @settings(max_examples=60, deadline=None)
    def test_public_report_equals_scan_above_ratio(self, ss):
        assert _certificate_first(ss.dims)
        assert verify_sum_system(ss) == _scan_sum_system(ss)


@st.composite
def mutated_large_cuboids(draw):
    """Built cuboids above the ratio, left alone or mutated one way.

    ``unit`` inserts a dimension of size 1, which keeps the flat entries;
    ``shift`` adds 1 everywhere, so the axes pass the stage walk from
    root 1 but the entry set fails; ``bool`` makes the root False.
    """
    M = build_cuboid(draw(large_ratio_jofs()))
    dims = M.dims
    entries = list(M.entries)
    kind = draw(st.sampled_from(["none", "unit", "swap", "bump", "root", "shift", "bool"]))
    if kind == "unit":
        at = draw(st.integers(0, len(dims)))
        dims = dims[:at] + (1,) + dims[at:]
    elif kind == "swap":
        a = draw(st.integers(0, M.size - 1))
        b = draw(st.integers(0, M.size - 1))
        entries[a], entries[b] = entries[b], entries[a]
    elif kind == "bump":
        entries[draw(st.integers(1, M.size - 1))] += draw(st.sampled_from([-1, 1]))
    elif kind == "root":
        entries[0] = 1
    elif kind == "shift":
        entries = [x + 1 for x in entries]
    elif kind == "bool":
        entries[0] = False
    if draw(st.booleans()) and kind != "none":
        # a second, independent change further on
        entries[draw(st.integers(1, M.size - 1))] += draw(st.sampled_from([-2, 2]))
    return Cuboid(dims, tuple(entries))


def outcome(verify, M):
    try:
        return verify(M)
    except InputError as exc:
        return str(exc)


class TestCuboid:
    @given(mutated_large_cuboids())
    @settings(max_examples=150, deadline=None)
    def test_public_report_equals_scan_above_ratio(self, M):
        assert _certificate_first(M.dims)
        assert outcome(verify_reversible, M) == outcome(_scan_reversible, M)

    @given(mutated_large_cuboids())
    @settings(max_examples=150, deadline=None)
    def test_decompose_agrees_with_scan(self, M):
        def decompose_report(M):
            try:
                decompose_cuboid(M)
            except VerificationFailedError as exc:
                return exc.report
            return VerificationReport.ok()

        assert outcome(decompose_report, M) == outcome(_scan_reversible, M)

    def test_unit_dimension_both_routes(self):
        M = build_cuboid(JointOrderedFactorisation(tuple((j, 2) for j in range(1, 12)), (2,) * 11))
        for dims in ((1,) + M.dims, M.dims + (1,), M.dims[:5] + (1,) + M.dims[5:]):
            unit = Cuboid(dims, M.entries)
            assert _certificate_first(dims)
            assert verify_reversible(unit).passed
            assert _scan_reversible(unit).passed
            broken = Cuboid(dims, M.entries[:-1] + (M.entries[-1] + 1,))
            assert verify_reversible(broken) == _scan_reversible(broken)
            assert not verify_reversible(broken).passed

    def test_off_axis_float_rejected(self):
        M = build_cuboid(JointOrderedFactorisation(tuple((j, 2) for j in range(1, 12)), (2,) * 11))
        entries = list(M.entries)
        entries[3] = float(entries[3])
        with pytest.raises(InputError, match=r"3\.0 at index \[2, 2, 1"):
            verify_reversible(Cuboid(M.dims, tuple(entries)))


@st.composite
def mutated_large_sds(draw):
    """SDS systems whose sum systems lie above the ratio, maybe mutated."""
    ss = build_sum_system(draw(large_ratio_jofs()))
    if ss.dims[0] % 2:
        s = sumsys_to_sds_inclusive(ss, check=False)
    else:
        s = sumsys_to_sds_noninclusive(ss, check=False)
    if draw(st.booleans()):
        parts = [list(p) for p in s.parts]
        i = draw(st.integers(0, len(parts) - 1))
        k = draw(st.integers(0, len(parts[i]) - 1))
        # +-2 keeps the parity the non-inclusive map needs; +-1 breaks it
        parts[i][k] += draw(st.sampled_from([-2, -1, 1, 2]))
        row = parts[i]
        assume(row[k] > 0 and all(a < b for a, b in zip(row, row[1:])))
        s = SdsSystem(tuple(tuple(p) for p in parts), s.flavour)
    return s


class TestSds:
    @given(mutated_large_sds())
    @settings(max_examples=120, deadline=None)
    def test_public_report_equals_scan_above_ratio(self, s):
        inclusive = s.flavour == INCLUSIVE
        assert _certificate_first([2 * n + inclusive for n in s.sizes])
        assert verify_sds(s) == _scan_sds(s)
