import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from addsys.core import (
    DEFAULT_CAP,
    CapExceededError,
    InputError,
    Int64OverflowError,
    SumSystem,
    VerificationFailedError,
)
from addsys.factorisation import JointOrderedFactorisation, enumerate_jofs
from addsys.sds import (
    INCLUSIVE,
    NON_INCLUSIVE,
    SdsSystem,
    from_json_doc,
    infer_flavour,
    sds_to_sumsys_inclusive,
    sds_to_sumsys_noninclusive,
    sumsys_to_sds_inclusive,
    sumsys_to_sds_noninclusive,
    to_json_doc,
    verify_sds,
    verify_sds_two_part,
)
from addsys.sumsystem import build_sum_system
from conftest import E2_SDS_PARTS, E3_SDS_PARTS
from support import (
    dims_vectors_up_to,
    reference_sds_to_sumsys_inclusive,
    reference_sds_to_sumsys_noninclusive,
    reference_sumsys_to_sds_inclusive,
    reference_sumsys_to_sds_noninclusive,
)


def ni(*parts):
    return SdsSystem(tuple(tuple(p) for p in parts), NON_INCLUSIVE)


def inc(*parts):
    return SdsSystem(tuple(tuple(p) for p in parts), INCLUSIVE)


class TestVerify:
    def test_two_part_noninclusive(self):
        assert verify_sds(ni((7, 9), (2, 6))).passed

    def test_worked_noninclusive(self):
        assert verify_sds(SdsSystem(E2_SDS_PARTS, NON_INCLUSIVE)).passed

    def test_worked_inclusive(self):
        assert verify_sds(SdsSystem(E3_SDS_PARTS, INCLUSIVE)).passed

    def test_failure_reported(self):
        report = verify_sds(ni((1, 2), (3,)))
        assert not report.passed

    def test_type_invariants(self):
        with pytest.raises(InputError):
            SdsSystem(((0, 1),), NON_INCLUSIVE)  # zero not allowed
        with pytest.raises(InputError):
            SdsSystem(((2, 1),), NON_INCLUSIVE)  # unsorted
        with pytest.raises(InputError):
            SdsSystem(((1, 2),), "both")


class TestTwoPartForm:
    def test_sums_and_distances(self):
        assert verify_sds_two_part(ni((7, 9), (2, 6))).passed

    def test_smallest_noninclusive(self):
        assert verify_sds_two_part(ni((1,), (2,))).passed

    def test_smallest_inclusive(self):
        assert verify_sds_two_part(inc((1,), (3,))).passed

    def test_needs_two_parts(self):
        with pytest.raises(InputError):
            verify_sds_two_part(ni((1,)))

    def test_cap(self):
        assert verify_sds_two_part(inc((1,), (3,)), cap=4).passed
        with pytest.raises(CapExceededError):
            verify_sds_two_part(inc((1,), (3,)), cap=3)

    def test_agrees_with_general_form_exhaustively(self):
        # All two-part systems reachable from small sum systems, plus a
        # few hand-rolled invalid ones.
        for _, dims in dims_vectors_up_to(60):
            if len(dims) != 2:
                continue
            for jof in enumerate_jofs(dims):
                ss = build_sum_system(jof)
                if all(n % 2 == 0 for n in dims):
                    system = sumsys_to_sds_noninclusive(ss, check=False)
                elif all(n % 2 for n in dims):
                    system = sumsys_to_sds_inclusive(ss, check=False)
                else:
                    continue
                assert verify_sds(system).passed == verify_sds_two_part(system).passed

    @pytest.mark.parametrize(
        "system",
        [ni((2**62 + 1,), (2**62 + 3,)), inc((1, 2**62 + 1), (2, 2**62 + 3))],
        ids=["non-inclusive", "inclusive"],
    )
    def test_int64_edge_agrees_with_general_form(self, system):
        for verify in (verify_sds, verify_sds_two_part):
            with pytest.raises(Int64OverflowError, match="largest sum"):
                verify(system)

    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True),
        st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True),
        st.sampled_from([NON_INCLUSIVE, INCLUSIVE]),
    )
    @settings(max_examples=80, deadline=None)
    def test_agreement_on_arbitrary_pairs(self, a, b, flavour):
        system = SdsSystem((tuple(sorted(a)), tuple(sorted(b))), flavour)
        assert verify_sds(system).passed == verify_sds_two_part(system).passed


class TestMapsNonInclusive:
    def test_half_sum_pair(self):
        assert sds_to_sumsys_noninclusive(ni((7, 9), (2, 6))).parts[0] == (0, 1, 8, 9)

    def test_worked_third_component(self, e2_system):
        out = sumsys_to_sds_noninclusive(e2_system)
        assert out.parts == E2_SDS_PARTS
        back = sds_to_sumsys_noninclusive(out)
        assert back.parts == e2_system.parts
        assert out.parts[2] == (8, 12, 16)
        assert sds_to_sumsys_noninclusive(ni((8, 12, 16)), check=False).parts[0] == (
            0, 2, 4, 12, 14, 16,
        )

    def test_singleton(self):
        assert sds_to_sumsys_noninclusive(ni((1,))).parts == ((0, 1),)

    def test_simple_inverse(self):
        ss = SumSystem(((0, 1), (0, 2)))
        assert sumsys_to_sds_noninclusive(ss).parts == ((1,), (2,))

    def test_explicit_pair(self):
        ss = SumSystem(((0, 1, 8, 9), (0, 2, 4, 6)))
        assert sumsys_to_sds_noninclusive(ss).parts == ((7, 9), (2, 6))

    def test_parity_rejection_names_part(self):
        ss = SumSystem(((0, 1), (0, 1, 2)))
        with pytest.raises(InputError, match="part 2"):
            sumsys_to_sds_noninclusive(ss)

    def test_verification_enforced(self):
        with pytest.raises(VerificationFailedError):
            sds_to_sumsys_noninclusive(ni((1, 2), (1, 3)))


class TestMapsInclusive:
    def test_progression_part(self):
        assert sds_to_sumsys_inclusive(inc((5, 10, 15)), check=False).parts[0] == (
            0, 5, 10, 15, 20, 25, 30,
        )

    def test_singleton(self):
        assert sds_to_sumsys_inclusive(inc((1,))).parts == ((0, 1, 2),)

    def test_worked_fourth_component(self):
        assert sds_to_sumsys_inclusive(inc((35, 280, 315, 350)), check=False).parts[0] == (
            0, 35, 70, 315, 350, 385, 630, 665, 700,
        )

    def test_worked_system(self, e3_system):
        out = sumsys_to_sds_inclusive(e3_system)
        assert out.parts == E3_SDS_PARTS
        assert sds_to_sumsys_inclusive(out).parts == e3_system.parts

    def test_three_element_part(self):
        assert sumsys_to_sds_inclusive(SumSystem(((0, 1, 2),))).parts == ((1,),)

    def test_progression_inverse(self):
        # One component of the worked inclusive system, mapped in isolation.
        ss = SumSystem(((0, 5, 10, 15, 20, 25, 30),))
        assert sumsys_to_sds_inclusive(ss, check=False).parts == ((5, 10, 15),)

    def test_parity_rejection_names_part(self):
        ss = SumSystem(((0, 1, 2), (0, 3)))
        with pytest.raises(InputError, match="part 2"):
            sumsys_to_sds_inclusive(ss)

    def test_flavour_mismatch_rejected(self):
        with pytest.raises(InputError):
            sds_to_sumsys_inclusive(ni((1,)))
        with pytest.raises(InputError):
            sds_to_sumsys_noninclusive(inc((1,)))


class TestRoundTrips:
    def test_exhaustive_both_flavours(self):
        for _, dims in dims_vectors_up_to(72):
            even = all(n % 2 == 0 for n in dims)
            odd = all(n % 2 for n in dims)
            if not (even or odd):
                continue
            for jof in enumerate_jofs(dims):
                ss = build_sum_system(jof)
                if even:
                    system = sumsys_to_sds_noninclusive(ss, check=False)
                    assert verify_sds(system).passed, jof.steps
                    back = sds_to_sumsys_noninclusive(system, check=False)
                else:
                    system = sumsys_to_sds_inclusive(ss, check=False)
                    assert verify_sds(system).passed, jof.steps
                    back = sds_to_sumsys_inclusive(system, check=False)
                assert back.parts == ss.parts, jof.steps


class TestFlavourInference:
    def test_even(self):
        assert infer_flavour(SumSystem(((0, 1), (0, 2)))) == NON_INCLUSIVE

    def test_odd(self):
        assert infer_flavour(SumSystem(((0, 1, 2),))) == INCLUSIVE

    def test_mixed(self):
        with pytest.raises(InputError, match="mixed"):
            infer_flavour(SumSystem(((0, 1), (0, 1, 2))))


class TestJsonDocument:
    def test_round_trip(self):
        system = ni((7, 9), (2, 6))
        assert from_json_doc(to_json_doc(system)) == system

    def test_bad_flavour(self):
        with pytest.raises(InputError):
            from_json_doc({"flavour": "odd", "parts": [[1]]})

    def test_missing_keys(self):
        with pytest.raises(InputError):
            from_json_doc({"parts": [[1]]})


def outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as error:
        return type(error).__name__, str(error)


def bumped(parts, draw):
    """The parts, with one element possibly moved by a small amount."""
    parts = [list(p) for p in parts]
    if draw(st.booleans()):
        row = parts[draw(st.integers(0, len(parts) - 1))]
        row[draw(st.integers(0, len(row) - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
    return tuple(map(tuple, parts))


@st.composite
def map_sum_systems(draw):
    """Built sum systems of every size parity, some with one element moved."""
    dims = draw(
        st.lists(st.integers(2, 7), min_size=1, max_size=3).filter(lambda d: math.prod(d) <= 200)
    )
    options = list(enumerate_jofs(tuple(dims)))
    ss = build_sum_system(options[draw(st.integers(0, len(options) - 1))])
    try:
        return SumSystem(bumped(ss.parts, draw))
    except InputError:
        assume(False)


@st.composite
def map_sds_systems(draw):
    """Images of built sum systems, some moved, some relabelled, and arbitrary parts."""
    if draw(st.booleans()):
        ss = draw(map_sum_systems())
        inverse = draw(st.sampled_from([
            reference_sumsys_to_sds_noninclusive, reference_sumsys_to_sds_inclusive,
        ]))
        image = outcome(inverse, ss, check=False)
        assume(isinstance(image, SdsSystem))
        parts = bumped(image.parts, draw)
    else:
        part = st.lists(st.integers(1, 60), min_size=1, max_size=4, unique=True).map(sorted)
        parts = tuple(map(tuple, draw(st.lists(part, min_size=1, max_size=3))))
    try:
        return SdsSystem(parts, draw(st.sampled_from([NON_INCLUSIVE, INCLUSIVE])))
    except InputError:
        assume(False)


class TestAgainstSeparateBodies:
    """Each public map against its body from before the flavour-parametrised
    helpers: the same value, or the same exception type and message."""

    @given(map_sds_systems(), st.booleans(), st.sampled_from([DEFAULT_CAP, 40]))
    @settings(max_examples=300, deadline=None)
    def test_forward_maps(self, s, check, cap):
        for lib, ref in (
            (sds_to_sumsys_noninclusive, reference_sds_to_sumsys_noninclusive),
            (sds_to_sumsys_inclusive, reference_sds_to_sumsys_inclusive),
        ):
            assert outcome(lib, s, cap=cap, check=check) == outcome(ref, s, cap=cap, check=check)

    @given(map_sum_systems(), st.booleans(), st.sampled_from([DEFAULT_CAP, 40]))
    @settings(max_examples=300, deadline=None)
    def test_inverse_maps(self, ss, check, cap):
        for lib, ref in (
            (sumsys_to_sds_noninclusive, reference_sumsys_to_sds_noninclusive),
            (sumsys_to_sds_inclusive, reference_sumsys_to_sds_inclusive),
        ):
            assert outcome(lib, ss, cap=cap, check=check) == outcome(ref, ss, cap=cap, check=check)


class TestRefusalTexts:
    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: sds_to_sumsys_noninclusive(ni((3, 4, 6)), check=False),
                "part 1: max 6 and element 3 differ in parity",
            ),
            (
                lambda: sumsys_to_sds_inclusive(SumSystem(((0, 1, 2), (0, 1, 3))), check=False),
                "part 2: elements 3 and 0 straddle the centre with odd spread; corrupt input",
            ),
            (
                lambda: sumsys_to_sds_noninclusive(SumSystem(((0, 1), (0, 1, 2)))),
                "part 2 has odd cardinality 3; non-inclusive conversion needs all parts even",
            ),
            (
                lambda: sumsys_to_sds_inclusive(SumSystem(((0, 1, 2), (0, 3)))),
                "part 2 has even cardinality 2; inclusive conversion needs all parts odd",
            ),
            (
                lambda: sds_to_sumsys_inclusive(ni((1,))),
                "expected a inclusive system, got non-inclusive",
            ),
            (
                lambda: sds_to_sumsys_noninclusive(inc((1,))),
                "expected a non-inclusive system, got inclusive",
            ),
        ],
        ids=["parity", "odd-spread", "odd-cardinality", "even-cardinality",
             "expected-inclusive", "expected-non-inclusive"],
    )
    def test_exact_message(self, call, message):
        with pytest.raises(InputError) as refused:
            call()
        assert str(refused.value) == message
