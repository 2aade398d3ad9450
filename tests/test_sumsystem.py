import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from addsys.core import (
    InputError,
    InternalContradictionError,
    SumSystem,
    VerificationFailedError,
)
from addsys.factorisation import JointOrderedFactorisation, enumerate_jofs
from addsys.sumsystem import (
    base_q_system,
    build_sum_system,
    check_palindromic,
    decompose_sum_system,
    from_json_doc,
    parity_signature,
    polynomial_check,
    to_json_doc,
    verify_sum_system,
)
from conftest import (
    DIMS_E1,
    DIMS_E3,
    E1A_PARTS,
    E1B_PARTS,
    E3_PARTS,
    E4_PARTS,
    JOF_E1A,
    JOF_E1B,
    JOF_E3,
)
from support import dims_vectors_up_to, reference_polynomial_report


def jof(steps, dims):
    return JointOrderedFactorisation(tuple(steps), tuple(dims))


@st.composite
def built_systems(draw):
    import math

    dims = draw(
        st.lists(st.integers(2, 6), min_size=1, max_size=3).filter(
            lambda d: math.prod(d) <= 240
        )
    )
    options = list(enumerate_jofs(tuple(dims)))
    chosen = draw(st.integers(0, len(options) - 1))
    return build_sum_system(options[chosen])


class TestBuild:
    def test_worked_example_first(self):
        assert build_sum_system(jof(JOF_E1A, DIMS_E1)).parts == E1A_PARTS

    def test_worked_example_second(self):
        assert build_sum_system(jof(JOF_E1B, DIMS_E1)).parts == E1B_PARTS

    def test_second_component_of_inclusive_example(self):
        ss = build_sum_system(jof(JOF_E3, DIMS_E3))
        assert ss.parts[1] == (0, 5, 10, 15, 20, 25, 30)
        assert ss.parts == E3_PARTS

    def test_single_step(self):
        assert build_sum_system(jof(((1, 7),), (7,))).parts == (tuple(range(7)),)

    def test_rejects_invalid_or_degenerate(self):
        with pytest.raises(InputError):
            build_sum_system(jof(((1, 2), (1, 2)), (4,)))
        with pytest.raises(InputError):
            build_sum_system(jof(((1, 2),), (2, 1)))


class TestVerify:
    def test_worked_example(self, e1a_system):
        assert verify_sum_system(e1a_system).passed

    def test_same_target_other_factorisation(self):
        assert verify_sum_system(build_sum_system(jof(JOF_E1B, DIMS_E1))).passed

    def test_base_ten(self):
        assert verify_sum_system(base_q_system(10, 3)).passed

    def test_failure(self):
        report = verify_sum_system(SumSystem(((0, 1), (0, 1))))
        assert not report.passed
        assert report.witness == 1


class TestPalindromic:
    def test_worked_part(self):
        assert check_palindromic((0, 5, 90, 95, 360, 365, 450, 455)).passed

    def test_singleton(self):
        assert check_palindromic((0,)).passed

    def test_failure(self):
        report = check_palindromic((0, 1, 3))
        assert not report.passed
        assert report.witness == 1


class TestParity:
    def test_all_odd_sizes_all_even_maxima(self, e3_system):
        assert [p[-1] for p in e3_system.parts] == [214, 30, 700]
        assert parity_signature(e3_system) == (0, 0, 0)

    def test_even_size_present_exactly_one_odd(self, e2_system):
        assert [p[-1] for p in e2_system.parts] == [289, 366, 16]
        assert parity_signature(e2_system) == (1, 0, 0)

    def test_binary_single_digit(self):
        assert parity_signature(base_q_system(2, 1)) == (1,)

    def test_precondition_enforced(self):
        with pytest.raises(VerificationFailedError):
            parity_signature(SumSystem(((0, 1), (0, 1))))


class TestPolynomialCheck:
    def test_tiny_pass(self):
        assert polynomial_check(SumSystem(((0, 1), (0, 2)))).passed

    def test_worked_example(self, e1a_system):
        assert polynomial_check(e1a_system).passed

    def test_gap_detected(self):
        report = polynomial_check(SumSystem(((0, 2), (0, 1, 4))))
        assert not report.passed
        # x^5 is the first exponent whose coefficient is not 1
        assert report.witness == 5

    def test_huge_part_maximum(self):
        # The product is 1 + x^(2^62); no buffer may be sized from that.
        report = polynomial_check(SumSystem(((0, 2**62),)))
        assert not report.passed
        assert report.witness == 1

    def test_reject_peaks_no_higher_than_pass(self):
        # Locating the first bad coefficient must not copy the packed
        # product again: d = 2^17 here, so each copy is about 300 kB.
        def traced_peak(parts):
            tracemalloc.start()
            try:
                report = polynomial_check(SumSystem(parts))
                return report.witness, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        parts = base_q_system(2, 17).parts
        assert len(parts) == 17
        passed, pass_peak = traced_peak(parts)
        witness, reject_peak = traced_peak(((0, 2), *parts[1:]))
        assert (passed, witness) == (None, 1)
        assert reject_peak <= 1.03 * pass_peak

    @given(built_systems())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_direct_verification_on_valid(self, ss):
        assert polynomial_check(ss).passed
        assert verify_sum_system(ss).passed

    @given(built_systems(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_after_mutation(self, ss, data):
        parts = [list(p) for p in ss.parts]
        i = data.draw(st.integers(0, len(parts) - 1))
        k = data.draw(st.integers(1, len(parts[i]) - 1))
        bump = data.draw(st.sampled_from([-1, 1]))
        parts[i][k] += bump
        row = parts[i]
        if row[k] <= row[k - 1] or (k + 1 < len(row) and row[k] >= row[k + 1]):
            return  # mutation broke strict monotonicity; not a valid shape
        mutated = SumSystem(tuple(tuple(p) for p in parts))
        assert polynomial_check(mutated).passed == verify_sum_system(mutated).passed


def polynomial_report(parts):
    report = polynomial_check(SumSystem(tuple(parts)))
    return report.violated_invariant, report.witness


class TestPolynomialReference:
    """The packed product against the coefficient-list loop, witness included."""

    @given(built_systems(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_after_mutation(self, ss, data):
        d = ss.target_size
        parts = [list(p) for p in ss.parts]
        row = parts[data.draw(st.integers(0, len(parts) - 1))]
        k = data.draw(st.integers(1, len(row) - 1))
        mutation = data.draw(st.sampled_from(["none", "down", "up", "above", "huge", "drop"]))
        if mutation in ("down", "up"):
            row[k] += 1 if mutation == "up" else -1
        elif mutation == "above":
            row.append(d + data.draw(st.integers(0, 2 * d)))
        elif mutation == "huge":
            row.append(2**62)
        elif mutation == "drop":
            del row[k]
        assume(len(row) >= 2 and all(a < b for a, b in zip(row, row[1:])))
        assert polynomial_report(parts) == reference_polynomial_report(parts)

    def test_binomial_coefficients_stay_in_their_fields(self):
        # Twenty parts {0, 1}: the product is (1 + x)^20, whose middle
        # coefficient 184,756 must not carry into its neighbour.
        parts = [(0, 1)] * 20
        assert polynomial_report(parts) == reference_polynomial_report(parts)
        assert polynomial_report(parts) == ("polynomial-coefficient", 1)

    @pytest.mark.parametrize(
        "parts, witness",
        [([(0, 1), (0, 1, 2, 3)], 1), ([(0, 1, 2, 3)] * 2, 1), ([(0, 1, 3), (0, 2, 3)], 3)],
    )
    def test_coefficient_at_the_field_bound(self, parts, witness):
        # A field holds (d // max(sizes)).bit_length() bits, and here a
        # coefficient equals d // max(sizes): 2, 4, and 3 at the witness
        # x^3 of the last case, which a field one bit narrower reads as 1.
        assert polynomial_report(parts) == reference_polynomial_report(parts)
        assert polynomial_report(parts) == ("polynomial-coefficient", witness)

    @given(st.lists(st.sets(st.integers(1, 12), min_size=1, max_size=6), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_dense_non_systems(self, offsets):
        # Dense parts give the largest coefficients each field must hold.
        parts = [(0, *sorted(s)) for s in offsets]
        assert polynomial_report(parts) == reference_polynomial_report(parts)

    @pytest.mark.parametrize(
        "parts",
        [
            [(0, 1), (0, 2), (0, 4), (0, 8)],
            [(0, 1), (0, 2), (0, 4), (0, 9)],
            [(0, 1, 2, 3), (0, 4, 8, 13)],
            [(0, 2), (0, 1, 4, 5), (0, 8)],
        ],
    )
    def test_power_of_two_target(self, parts):
        assert polynomial_report(parts) == reference_polynomial_report(parts)

    def test_worked_five_part_example_reject(self):
        parts = [list(p) for p in E4_PARTS]
        parts[3][5] += 1
        assert polynomial_report(parts) == ("polynomial-coefficient", 2352)
        assert reference_polynomial_report(parts) == ("polynomial-coefficient", 2352)


class TestDecompose:
    def test_worked_example(self, e1a_system):
        assert decompose_sum_system(e1a_system).steps == JOF_E1A

    def test_rearranged_worked_example(self):
        ss = build_sum_system(jof(JOF_E1B, DIMS_E1))
        assert decompose_sum_system(ss).steps == JOF_E1B

    def test_base_ten_two_digits(self):
        assert decompose_sum_system(base_q_system(10, 2)).steps == ((1, 10), (2, 10))

    def test_inclusive_example(self, e3_system):
        assert decompose_sum_system(e3_system).steps == JOF_E3

    def test_non_greedy_factor_choice(self):
        # The first stage must absorb three slices even though a two-slice
        # prefix of part 2 is itself a valid subsystem.
        ss = build_sum_system(jof(((2, 3), (1, 2), (2, 2)), (2, 6)))
        assert ss.parts == ((0, 3), (0, 1, 2, 6, 7, 8))
        assert decompose_sum_system(ss).steps == ((2, 3), (1, 2), (2, 2))

    def test_precondition_enforced(self):
        with pytest.raises(VerificationFailedError):
            decompose_sum_system(SumSystem(((0, 1), (0, 1))))

    @pytest.mark.parametrize(
        "parts",
        [
            # both parts continue with 1: the next value is tied
            ((0, 1), (0, 1)),
            # part 1's last stage adds 3 elements to a 2-element prefix
            ((0, 1, 4, 5, 8), (0, 2)),
            # 6 breaks the copy (0, 1) + 4
            ((0, 1, 4, 6), (0, 2)),
        ],
    )
    def test_contradiction_without_check(self, parts):
        with pytest.raises(InternalContradictionError):
            decompose_sum_system(SumSystem(parts), check=False)

    def test_large_example_round_trip(self):
        from conftest import DIMS_E4, E4_PARTS, JOF_E4

        ss = build_sum_system(jof(JOF_E4, DIMS_E4))
        assert ss.parts == E4_PARTS
        assert decompose_sum_system(ss, check=False).steps == JOF_E4

    def test_round_trip_exhaustive(self):
        for _, dims in dims_vectors_up_to(72):
            for jof_ in enumerate_jofs(dims):
                ss = build_sum_system(jof_)
                report = verify_sum_system(ss)
                assert report.passed, (jof_.steps, report)
                back = decompose_sum_system(ss, check=False)
                assert back.steps == jof_.steps, jof_.steps
                assert back.dims == jof_.dims
                for part in ss.parts:
                    assert check_palindromic(part).passed, (jof_.steps, part)
                signature = parity_signature(ss, check=False)
                if all(n % 2 for n in dims):
                    assert signature == (0,) * len(dims), jof_.steps
                else:
                    assert sum(signature) == 1, jof_.steps


class TestJsonDocument:
    def test_round_trip(self, e1a_system):
        assert from_json_doc(to_json_doc(e1a_system)).parts == e1a_system.parts

    def test_dims_cross_checked(self):
        with pytest.raises(InputError):
            from_json_doc({"dims": [2, 2], "parts": [[0, 1], [0, 1, 2]]})

    def test_missing_keys(self):
        with pytest.raises(InputError):
            from_json_doc({"parts": [[0, 1]]})

    def test_non_object(self):
        with pytest.raises(InputError):
            from_json_doc([[0, 1]])
