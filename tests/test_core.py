import pytest
from hypothesis import given, strategies as st

from addsys.core import (
    CapExceededError,
    InputError,
    Int64OverflowError,
    Progression,
    SumSystem,
    VerificationReport,
    first_segment,
    is_progression,
    minkowski_sum,
    progression_set,
)
from conftest import E1A_PARTS, E3_PARTS
from support import minkowski_oracle


class TestProgressionSet:
    def test_unit_segment(self):
        assert progression_set(Progression(0, 1, 5)) == (0, 1, 2, 3, 4)

    def test_odd_numbers(self):
        assert progression_set(Progression(1, 2, 8)) == (1, 3, 5, 7, 9, 11, 13, 15)

    def test_coarse_step(self):
        assert progression_set(Progression(0, 30, 6)) == (0, 30, 60, 90, 120, 150)

    def test_validation(self):
        with pytest.raises(InputError):
            Progression(0, 0, 5)
        with pytest.raises(InputError):
            Progression(0, 1, 0)
        with pytest.raises(Int64OverflowError):
            Progression(2**62, 2**62, 3)

    @given(
        start=st.integers(-1000, 1000),
        step=st.integers(1, 50),
        count=st.integers(1, 200),
    )
    def test_count_and_monotone(self, start, step, count):
        out = progression_set(Progression(start, step, count))
        assert len(out) == count
        assert all(a < b for a, b in zip(out, out[1:]))


class TestMinkowskiSum:
    def test_two_by_two(self):
        assert minkowski_sum([(0, 1), (0, 2)]) == [0, 1, 2, 3]

    def test_duplicates_retained(self):
        assert minkowski_sum([(0, 1), (0, 1)]) == [0, 1, 1, 2]

    def test_worked_example_hits_720(self):
        assert minkowski_sum(E1A_PARTS) == list(range(720))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            minkowski_sum([tuple(range(100))] * 5, cap=10**6)

    def test_overflow(self):
        with pytest.raises(Int64OverflowError):
            minkowski_sum([(0, 2**62), (0, 2**62)])

    @given(
        st.lists(
            st.lists(st.integers(0, 30), min_size=1, max_size=4).map(
                lambda xs: tuple(sorted(set(xs)))
            ),
            min_size=1,
            max_size=4,
        ),
        st.randoms(),
    )
    def test_order_insensitive_and_sized(self, sets, rng):
        result = minkowski_sum(sets)
        expected_size = 1
        for s in sets:
            expected_size *= len(s)
        assert len(result) == expected_size
        shuffled = list(sets)
        rng.shuffle(shuffled)
        assert minkowski_sum(shuffled) == result
        assert result == minkowski_oracle(sets)


class TestIsProgression:
    def test_pass(self):
        assert is_progression([0, 1, 2, 3], first_segment(4)).passed

    def test_duplicate_witness(self):
        report = is_progression([0, 1, 1, 2], first_segment(4))
        assert not report.passed
        assert report.violated_invariant == "target-mismatch"
        assert report.witness == 1

    def test_cardinality(self):
        report = is_progression([0, 1, 2], first_segment(4))
        assert report.violated_invariant == "cardinality"
        assert report.witness == 3

    def test_worked_example_full_cover(self):
        # Independent route: expand all 15 * 7 * 9 sums by brute force.
        sums = minkowski_oracle(E3_PARTS)
        assert is_progression(sums, first_segment(945)).passed


class TestVerificationReport:
    def test_consistency_enforced(self):
        with pytest.raises(InputError):
            VerificationReport(passed=True, violated_invariant="x")
        with pytest.raises(InputError):
            VerificationReport(passed=False)

    def test_json_doc_omits_absent_fields(self):
        assert VerificationReport.ok().to_json_doc() == {"passed": True}
        doc = VerificationReport.fail("bad", witness=3).to_json_doc()
        assert doc == {"passed": False, "violated_invariant": "bad", "witness": 3}

    def test_plain_pass_is_one_frozen_instance(self):
        assert VerificationReport.ok() is VerificationReport.ok()
        with pytest.raises(AttributeError):
            VerificationReport.ok().note = "changed"
        assert VerificationReport.ok("toroidal").note == "toroidal"
        assert VerificationReport.ok(None) == VerificationReport(passed=True)


class TestSumSystemType:
    def test_shape_validation(self):
        with pytest.raises(InputError):
            SumSystem(((1, 2), (0, 1)))  # missing 0
        with pytest.raises(InputError):
            SumSystem(((0,), (0, 1)))  # cardinality 1
        with pytest.raises(InputError):
            SumSystem(((0, 2, 1),))  # unsorted
        with pytest.raises(InputError):
            SumSystem(())

    def test_dims(self):
        ss = SumSystem(((0, 1), (0, 2, 4)))
        assert ss.dims == (2, 3)
        assert ss.target_size == 6
