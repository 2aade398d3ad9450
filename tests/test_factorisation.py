import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from addsys.core import InputError
from addsys.factorisation import (
    JointOrderedFactorisation,
    _divisors_ge2,
    canonicalise,
    count_jofs,
    enumerate_jofs,
    format_jof,
    parse_jof,
    validate_jof,
)
from addsys.sumsystem import build_sum_system
from conftest import DIMS_E1, DIMS_E2, JOF_E1A, JOF_E2, JOF_TEXT_E1A
from support import dims_vectors_up_to, divisors_ge2, oracle_count, oracle_enumerate


class TestValidate:
    def test_worked_example(self):
        assert validate_jof(JOF_E1A, DIMS_E1).passed

    def test_adjacent_clause(self):
        report = validate_jof(((1, 2), (1, 2)), (4,))
        assert report.violated_invariant == "adjacent-directions"
        assert report.witness == 2

    def test_product_clause(self):
        report = validate_jof(((1, 5), (2, 2)), (15, 8))
        assert report.violated_invariant == "direction-product"
        assert report.witness["direction"] == 1
        assert report.witness["product"] == 5

    def test_factor_and_direction_ranges(self):
        assert validate_jof(((1, 1),), (1,)).violated_invariant == "factor-range"
        assert validate_jof(((3, 2),), (2, 2)).violated_invariant == "direction-range"

    def test_empty_sequence_only_for_unit_dims(self):
        assert validate_jof((), (1, 1)).passed
        assert not validate_jof((), (2,)).passed

    @pytest.mark.parametrize(
        "steps, position",
        [
            ([(1, 2, 3)], 1),
            ([1], 1),
            ([None], 1),
            ([(1, 2), (2,)], 2),
            ([(1, 2), (2, 2), ()], 3),
            ([(9, 2), "abc"], 2),  # shape before the ranges of earlier steps
        ],
    )
    def test_malformed_steps_are_reported(self, steps, position):
        report = validate_jof(steps, (2, 2))
        assert (report.violated_invariant, report.witness) == ("step-shape", position)
        with pytest.raises(InputError, match=rf"step-shape \(witness {position}\)$"):
            build_sum_system(JointOrderedFactorisation(tuple(steps), (2, 2)))

    def test_dims_range_precedes_step_shape(self):
        assert validate_jof([1], (0,)).violated_invariant == "dims-range"

    def test_any_pair_is_a_step(self):
        # Two values that unpack are a step; the ranges then judge them.
        assert validate_jof([[1, 2], iter((2, 2))], (2, 2)).passed
        assert validate_jof(["12"], (2,)).violated_invariant == "direction-range"


class TestEnumerate:
    def test_two_by_two(self):
        jofs = [j.steps for j in enumerate_jofs((2, 2))]
        assert jofs == [((1, 2), (2, 2)), ((2, 2), (1, 2))]

    def test_four_by_two(self):
        jofs = [j.steps for j in enumerate_jofs((4, 2))]
        assert set(jofs) == {
            ((1, 4), (2, 2)),
            ((1, 2), (2, 2), (1, 2)),
            ((2, 2), (1, 4)),
        }
        assert jofs == sorted(jofs)  # lexicographic emission

    def test_three_directions(self):
        jofs = list(enumerate_jofs((2, 2, 2)))
        assert len(jofs) == 6

    def test_rejects_degenerate_dims(self):
        with pytest.raises(InputError):
            list(enumerate_jofs((2, 1)))
        with pytest.raises(InputError):
            list(enumerate_jofs((0,)))
        with pytest.raises(InputError):
            list(enumerate_jofs(()))

    def test_matches_oracle_exhaustively(self):
        # Every dims vector with product at most 96.
        for _, dims in dims_vectors_up_to(96):
            mine = [j.steps for j in enumerate_jofs(dims)]
            assert len(set(mine)) == len(mine), dims
            assert mine == sorted(mine), dims
            assert set(mine) == set(oracle_enumerate(dims)), dims

    def test_each_result_validates(self):
        for jof in enumerate_jofs((8, 4, 2)):
            assert validate_jof(jof.steps, jof.dims).passed

    def test_divisors_match_trial_division(self):
        for n in [*range(1, 2000), 3600, 65536, 1009 * 1013]:
            assert _divisors_ge2(n) == divisors_ge2(n), n

    def test_large_prime_dims(self):
        assert _divisors_ge2(10000019) == (10000019,)
        assert count_jofs((10000019, 10000019)) == 2


class TestCount:
    def test_examples(self):
        assert count_jofs((2, 2)) == 2
        assert count_jofs((4, 2)) == 3
        for q in (2, 3, 5, 7, 11, 13):
            assert count_jofs((q,)) == 1

    def test_single_direction_always_one(self):
        # Only one step is possible: repeats in one direction are barred.
        assert count_jofs((12,)) == 1

    def test_matches_enumeration(self):
        for _, dims in dims_vectors_up_to(64):
            assert count_jofs(dims) == sum(1 for _ in enumerate_jofs(dims)), dims

    @given(st.permutations([2, 3, 4, 6]))
    @settings(max_examples=24, deadline=None)
    def test_invariant_under_direction_relabelling(self, dims):
        assert count_jofs(tuple(dims)) == count_jofs((2, 3, 4, 6))


class TestCanonicalise:
    def test_fuses_adjacent_run(self):
        out = canonicalise(((1, 2), (1, 2), (2, 2)), (4, 2))
        assert out.steps == ((1, 4), (2, 2))

    def test_fixed_point_on_canonical_input(self):
        out = canonicalise(JOF_E2, DIMS_E2)
        assert out.steps == JOF_E2

    def test_fuses_later_directions(self):
        out = canonicalise(((1, 2), (2, 3), (2, 2)), (2, 6))
        assert out.steps == ((1, 2), (2, 6))

    def test_product_clause_still_required(self):
        with pytest.raises(InputError):
            canonicalise(((1, 2),), (4,))

    def test_idempotent_and_valid_exhaustively(self):
        for _, dims in dims_vectors_up_to(48):
            for jof in enumerate_jofs(dims):
                # Split each composite factor into two same-direction steps,
                # then check the fusion returns the canonical sequence.
                split = []
                for j, f in jof.steps:
                    for d in range(2, f):
                        if f % d == 0:
                            split.extend([(j, d), (j, f // d)])
                            break
                    else:
                        split.append((j, f))
                out = canonicalise(tuple(split), dims)
                assert out.steps == jof.steps
                again = canonicalise(out.steps, dims)
                assert again.steps == out.steps
                assert validate_jof(out.steps, out.dims).passed


class TestTextSyntax:
    def test_round_trip(self):
        jof = parse_jof(JOF_TEXT_E1A)
        assert jof.steps == JOF_E1A
        assert jof.dims == DIMS_E1
        assert format_jof(jof.steps) == JOF_TEXT_E1A

    def test_whitespace_tolerated(self):
        assert parse_jof(" 1:2 , 2:3 ").steps == ((1, 2), (2, 3))

    @pytest.mark.parametrize(
        "bad", ["", "1:", ":2", "1-2", "0:2", "1:1", "1:2,1:2", "x", "1:2;2:2", "3:2", "1:2,3:2"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(InputError):
            parse_jof(bad)

    def test_unused_direction_gets_unit_dimension(self):
        jof = parse_jof("1:2,3:2,1:2")
        assert jof.dims == (4, 1, 2)
        assert validate_jof(jof.steps, jof.dims).passed

    def test_direction_beyond_the_steps_refused_before_allocating(self):
        # Directions above the step count would leave unit dims; refusing
        # them first keeps a huge index from allocating a dims vector.
        m = 10_000_000
        tracemalloc.start()
        try:
            with pytest.raises(InputError) as refused:
                parse_jof(f"{m}:2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m
        assert str(refused.value) == f"direction {m} in step {m}:2 exceeds the step count 1"
