import dataclasses
import itertools
import math
import random
import re
import time
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import addsys.cuboid as cuboid_mod
from addsys.core import (
    InputError,
    InternalContradictionError,
    SumSystem,
    VerificationFailedError,
    VerificationReport,
    _are_ints,
)
from addsys.cuboid import (
    Cuboid,
    _axes,
    _vertex_mismatch,
    axis_sets,
    build_cuboid,
    building_op,
    cuboid_from_sumsystem,
    decompose_cuboid,
    flat_index,
    from_json_doc,
    kron_dir,
    multi_index,
    to_csv,
    to_json_doc,
    trivial_cuboid,
    verify_property_V,
    verify_reversible,
)
from addsys.factorisation import JointOrderedFactorisation, enumerate_jofs
from addsys.sumsystem import _walk_stop, build_sum_system, verify_sum_system
from conftest import (
    DIMS_E1, DIMS_E2, DIMS_E3, DIMS_E4, E1A_PARTS, E3_PARTS, E4_PARTS, JOF_E1A, JOF_E2, JOF_E3,
    JOF_E4,
)
from support import (
    DOCUMENTED_ERRORS,
    GOLDEN_RATIO_DIMS,
    cuboid_scan_reference,
    dims_vectors_up_to,
    jof_parts,
    outer_entries,
    random_steps,
    vertex_reference,
)


def jof(steps, dims):
    return JointOrderedFactorisation(tuple(steps), tuple(dims))


def brute_force_lines(M: Cuboid):
    """Every line of every direction, as the list of its entries."""
    dims = M.dims
    for j in range(1, M.order + 1):
        others = [range(1, n + 1) for d, n in enumerate(dims, start=1) if d != j]
        for fixed in itertools.product(*others):
            line = []
            for l in range(1, dims[j - 1] + 1):
                idx = list(fixed)
                idx.insert(j - 1, l)
                line.append(M.entries[flat_index(dims, idx)])
            yield line


def brute_force_line_reversal(M: Cuboid) -> bool:
    for line in brute_force_lines(M):
        ends = line[0] + line[-1]
        if any(line[l] + line[-1 - l] != ends for l in range(len(line))):
            return False
    return True


def tabulate(axes) -> tuple[int, ...]:
    """Row-major table of axis sums, direction 1 fastest."""
    return tuple(sum(cell) for cell in itertools.product(*reversed(axes)))


@st.composite
def mutated_cuboids(draw):
    """Built cuboids of product <= 24, left alone or mutated one way.

    An axis mutation re-tabulates the sums, so the vertex cross sum
    property still holds and only monotonicity or the entry set can fail.
    """
    dims = draw(st.sampled_from([d for _, d in dims_vectors_up_to(24)]))
    M = build_cuboid(draw(st.sampled_from(list(enumerate_jofs(dims)))))
    entries = list(M.entries)
    kind = draw(st.sampled_from(["none", "swap", "bump", "axis"]))
    if kind == "swap":
        a = draw(st.integers(0, M.size - 1))
        b = draw(st.integers(0, M.size - 1))
        entries[a], entries[b] = entries[b], entries[a]
    elif kind == "bump":
        entries[draw(st.integers(0, M.size - 1))] += draw(st.sampled_from([-1, 1]))
    elif kind == "axis":
        axes = [list(p) for p in axis_sets(M, check=False).parts]
        j = draw(st.integers(0, M.order - 1))
        axes[j][draw(st.integers(1, M.dims[j] - 1))] += draw(st.sampled_from([-1, 1]))
        entries = tabulate(axes)
    return Cuboid(M.dims, tuple(entries))


small_cuboids = st.builds(
    lambda dims, seed: Cuboid(
        tuple(dims),
        tuple(
            seed[i % len(seed)]
            for i in range(dims[0] * (dims[1] if len(dims) > 1 else 1) * (dims[2] if len(dims) > 2 else 1))
        ),
    ),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.lists(st.integers(0, 50), min_size=1, max_size=9),
)


class TestIndexing:
    def test_round_trip(self):
        dims = (3, 4, 2)
        for flat in range(24):
            assert flat_index(dims, multi_index(dims, flat)) == flat

    @pytest.mark.parametrize("flat", [4, 7, -1, 1.5])
    def test_multi_index_gated_and_range_checked(self, flat):
        with pytest.raises(InputError):
            multi_index((2, 2), flat)

    def test_direction_one_fastest(self):
        assert flat_index((3, 4), (2, 1)) == 1
        assert flat_index((3, 4), (1, 2)) == 3

    def test_bounds_checked(self):
        with pytest.raises(InputError):
            flat_index((2, 2), (3, 1))
        with pytest.raises(InputError):
            flat_index((2, 2), (1,))


class TestKron:
    def test_tiling(self):
        out = kron_dir((1, 1), 1, Cuboid((2,), (0, 1)))
        assert out.dims == (4,)
        assert out.entries == (0, 1, 0, 1)

    def test_block_scaling(self):
        out = kron_dir((0, 1), 1, Cuboid((2,), (1, 1)))
        assert out.entries == (0, 0, 1, 1)

    def test_second_direction(self):
        out = kron_dir((1, 2), 2, Cuboid((2, 2), (1, 2, 3, 4)))
        assert out.dims == (2, 4)
        assert out.entries == (1, 2, 3, 4, 2, 4, 6, 8)

    def test_validation(self):
        with pytest.raises(InputError):
            kron_dir((), 1, trivial_cuboid(1))
        with pytest.raises(InputError):
            kron_dir((1,), 2, trivial_cuboid(1))
        with pytest.raises(InputError):
            kron_dir((-1,), 1, trivial_cuboid(1))

    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=4),
        st.lists(st.integers(0, 6), min_size=1, max_size=4),
        small_cuboids,
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_associative(self, v, w, M, data):
        j = data.draw(st.integers(1, M.order))
        lhs = kron_dir(v, j, kron_dir(w, j, M))
        vw = [a * b for a in v for b in w]
        rhs = kron_dir(vw, j, M)
        assert lhs == rhs


class TestBuildingOp:
    def test_first_step(self):
        assert building_op(1, 2, trivial_cuboid(1)).entries == (0, 1)

    def test_second_direction_step(self):
        out = building_op(2, 2, Cuboid((2, 1), (0, 1)))
        assert out.dims == (2, 2)
        assert out.entries == (0, 1, 2, 3)

    @given(
        small_cuboids,
        st.integers(1, 6),
        st.integers(1, 6),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_fusion(self, M, k1, k2, data):
        j = data.draw(st.integers(1, M.order))
        assert building_op(j, k1, building_op(j, k2, M)) == building_op(j, k1 * k2, M)


class TestBuildCuboid:
    def test_two_digit_base_four(self):
        out = build_cuboid(jof(((1, 4), (2, 4)), (4, 4)))
        assert out.entries == tuple(range(16))

    def test_worked_example_axes(self):
        out = build_cuboid(jof(JOF_E1A, DIMS_E1))
        assert axis_sets(out, check=False).parts == E1A_PARTS

    def test_alternating_chain(self):
        out = build_cuboid(jof(((1, 2), (2, 2), (1, 2)), (4, 2)))
        assert out.dims == (4, 2)
        assert axis_sets(out, check=False).parts[0] == (0, 1, 4, 5)

    def test_rejects_unit_dimension(self):
        with pytest.raises(InputError):
            build_cuboid(jof(((1, 2),), (2, 1)))


class TestAxisSets:
    def test_base_four(self):
        ss = axis_sets(Cuboid((4, 4), tuple(range(16))))
        assert ss.parts == ((0, 1, 2, 3), (0, 4, 8, 12))

    def test_inclusive_example(self):
        assert axis_sets(build_cuboid(jof(JOF_E3, DIMS_E3))).parts == E3_PARTS

    def test_verification_enforced(self):
        with pytest.raises(VerificationFailedError):
            axis_sets(Cuboid((2, 2), (0, 1, 3, 2)))


class TestFromSumSystem:
    def test_base_four(self):
        ss = SumSystem(((0, 1, 2, 3), (0, 4, 8, 12)))
        assert cuboid_from_sumsystem(ss).entries == tuple(range(16))

    def test_tiny(self):
        assert cuboid_from_sumsystem(SumSystem(((0, 1), (0, 2)))).entries == (0, 1, 2, 3)

    def test_inverse_of_axis_sets(self, e1a_system):
        M = cuboid_from_sumsystem(e1a_system)
        assert M == build_cuboid(jof(JOF_E1A, DIMS_E1))
        assert axis_sets(M, check=False) == e1a_system


#: Values at and beyond the int64 edges, where the packed rows stop.
EDGES = (2**62, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64)


@st.composite
def closed_form_cuboids(draw, first_block=False):
    """Cuboids of product <= 64 that meet the vertex sums, then maybe mutated.

    Each entry is the root plus one offset per direction.  Roots and
    offsets may be negative or at the int64 edges, or all offsets
    non-negative, as in a built cuboid; an entry may be bumped or
    replaced by a bool or an edge value, and every 0 or 1 may be read as
    a bool.  Order 1 and unit dims are included.  With ``first_block``
    a unit dim is spliced in and at least one change lands in the first
    block of the last direction, before any block has been packed.
    """
    dims = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda d: math.prod(d) <= 64)
    )
    if first_block:
        dims.insert(draw(st.integers(0, len(dims))), 1)
    values = st.integers(-3, 40)
    if draw(st.booleans()):
        values |= st.sampled_from(EDGES)
    root = draw(st.just(0) | values)
    offset = st.integers(0, 40) if draw(st.booleans()) else values
    offsets = [[0] + draw(st.lists(offset, min_size=n - 1, max_size=n - 1)) for n in dims]
    entries = [root + sum(cell) for cell in itertools.product(*reversed(offsets))]
    for k in range(draw(st.integers(first_block, 2))):
        end = math.prod(dims[:-1]) if first_block and k == 0 else len(entries)
        p = draw(st.integers(0, end - 1))
        entries[p] = draw(st.sampled_from([entries[p] - 1, entries[p] + 1, False, True, *EDGES]))
    if draw(st.booleans()):
        entries = [bool(x) if x in (0, 1) else x for x in entries]
    return Cuboid(tuple(dims), tuple(entries))


@st.composite
def square_views(draw):
    """Order-2 tensors as a square's rows read as a cuboid, then maybe changed.

    The root is a corner entry and the axes' offsets from it may be
    negative, but every closed-form value root + a + b stays non-negative,
    so the tensor packs.  A change copies one entry onto another (a
    duplicate) or makes one negative.  A negative entry on an axis breaks
    the packing bounds, and the exact branch answers; any other change
    leaves a dirty block for the packed branch.
    """
    n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    a = [0] + draw(st.lists(st.integers(-20, 40), min_size=n1 - 1, max_size=n1 - 1))
    b = [0] + draw(st.lists(st.integers(-20, 40), min_size=n2 - 1, max_size=n2 - 1))
    root = -min(a) - min(b) + draw(st.integers(0, 3))
    entries = [root + x + y for y in b for x in a]
    for _ in range(draw(st.integers(0, 2))):
        p, q = draw(st.integers(0, n1 * n2 - 1)), draw(st.integers(0, n1 * n2 - 1))
        entries[p] = draw(st.sampled_from([entries[q], -1, -entries[p] - 1]))
    return Cuboid((n1, n2), tuple(entries))


class TestPropertyV:
    @given(closed_form_cuboids())
    @settings(max_examples=500, deadline=None)
    def test_vertex_sums_match_the_per_entry_oracle(self, M):
        p = vertex_reference(M.dims, M.entries)
        assert _vertex_mismatch(M) == p
        if p is None and any(type(x) is not int for x in M.entries):
            # A pass never reads a ``bool`` as its value (README input policy).
            with pytest.raises(InputError, match="entries must be integers"):
                verify_property_V(M)
            return
        expected = (
            VerificationReport.ok()
            if p is None
            else VerificationReport.fail("vertex-sums", witness=list(multi_index(M.dims, p)))
        )
        assert verify_property_V(M) == expected

    @given(closed_form_cuboids(first_block=True))
    @settings(max_examples=300, deadline=None)
    def test_first_block_faults_and_unit_dims_match_the_oracle(self, M):
        assert _vertex_mismatch(M) == vertex_reference(M.dims, M.entries)

    @pytest.mark.parametrize("dims", [(1, 6), (6, 1), (2, 1, 3), (1, 1, 4), (3, 2, 1, 1)])
    def test_unit_dims_every_single_fault(self, dims):
        # 0 .. size - 1 row-major is the mixed-radix cuboid, units or not
        assert _vertex_mismatch(Cuboid(dims, tuple(range(math.prod(dims))))) is None
        for p in range(math.prod(dims)):
            for x in (p + 1, -1, 2**63, True):
                entries = list(range(math.prod(dims)))
                entries[p] = x
                M = Cuboid(dims, tuple(entries))
                assert _vertex_mismatch(M) == vertex_reference(dims, entries)

    @given(square_views())
    @settings(max_examples=400, deadline=None)
    def test_square_views_match_the_per_entry_oracle(self, M):
        assert _vertex_mismatch(M) == vertex_reference(M.dims, M.entries)

    def test_unit_first_dim_adds_no_scan_pass(self):
        # E4 with root 1 takes the ordered scan, which fails at the first
        # pair of the first direction that has pairs.  A leading unit dim
        # has none: skipped, it costs nothing (1.08-2.7 s when it was
        # scanned a block at a time; 0.02-0.04 s without it; 2-vCPU Xeon).
        entries = outer_entries(E4_PARTS)
        entries[0] = 1
        for dims, j in (((1, *DIMS_E4), 2), (DIMS_E4, 1)):
            M = Cuboid(dims, tuple(entries))
            start = time.perf_counter()
            report = verify_reversible(M)
            elapsed = time.perf_counter() - start
            index = [1] * len(dims)
            assert report == VerificationReport.fail(
                "monotonicity", witness={"direction": j, "index": index}
            )
            assert elapsed < 0.5, f"{dims}: {elapsed:.2f} s"

    def test_e4_interior_fault_named_by_both_routes(self):
        M = build_cuboid(jof(JOF_E4, DIMS_E4))
        steps = [math.prod(DIMS_E4[:j]) for j in range(len(DIMS_E4))]

        def interior_and_still_increasing(p):
            # off every axis and face, and +1 ties no later neighbour
            return all(0 < p // s % n < n - 1 for s, n in zip(steps, DIMS_E4)) and all(
                M.entries[p + s] > M.entries[p] + 1 for s in steps
            )

        p = next(filter(interior_and_still_increasing, range(M.size // 2, M.size)))
        entries = list(M.entries)
        entries[p] += 1
        index = list(multi_index(M.dims, p))
        read = from_json_doc({"dims": list(M.dims), "entries": entries})  # marked ints only
        message = re.escape(f"entry at index {index} ")
        for bumped in (Cuboid(M.dims, tuple(entries)), read):
            assert verify_reversible(bumped) == VerificationReport.fail("vertex-sums", witness=index)
            with pytest.raises(InternalContradictionError, match=message):
                decompose_cuboid(bumped, check=False)

    def test_built_output_passes(self):
        assert verify_property_V(build_cuboid(jof(JOF_E2, DIMS_E2))).passed

    def test_failure_witness(self):
        report = verify_property_V(Cuboid((2, 2), (0, 1, 2, 4)))
        assert not report.passed
        assert report.witness == [2, 2]

    def test_nonzero_root_allowed(self):
        assert verify_property_V(Cuboid((2, 2), (5, 6, 7, 8))).passed


class TestVerifyReversible:
    def test_worked_example(self):
        assert verify_reversible(build_cuboid(jof(JOF_E2, DIMS_E2))).passed

    def test_transposed_build_passes(self):
        # This is the chain (2,2) then (1,2), so it is genuinely reversible.
        assert verify_reversible(Cuboid((2, 2), (0, 2, 1, 3))).passed

    def test_monotonicity_failure(self):
        report = verify_reversible(Cuboid((2, 2), (0, 1, 3, 2)))
        assert report.violated_invariant == "monotonicity"
        assert report.witness == {"direction": 1, "index": [1, 2]}

    def test_entry_set_failure(self):
        report = verify_reversible(Cuboid((2, 2), (5, 6, 7, 8)))
        assert report.violated_invariant == "entry-set"

    def test_vertex_failure(self):
        report = verify_reversible(Cuboid((2, 2), (0, 1, 2, 4)))
        assert report.violated_invariant == "vertex-sums"

    @pytest.mark.parametrize(
        "M",
        [
            Cuboid((2,), (0.5, 1)),
            Cuboid((2,), (0, 1.0)),
            Cuboid((2, 2), (0, 1, 3, 2.0)),
            Cuboid((2,), (0, "1")),
            Cuboid((2,), (False, True)),
        ],
    )
    def test_non_integer_entries_rejected(self, M):
        with pytest.raises(InputError, match="entries must be integers"):
            verify_reversible(M)

    def test_bool_in_failing_cuboid_read_as_value(self):
        report = verify_reversible(Cuboid((2, 2), (False, True, 3, 2)))
        assert report.witness == {"direction": 1, "index": [1, 2]}

    @given(mutated_cuboids())
    @settings(max_examples=300, deadline=None)
    def test_line_reversal_follows_from_the_other_checks(self, M):
        monotone = all(
            all(a < b for a, b in zip(line, line[1:])) for line in brute_force_lines(M)
        )
        premise = (
            monotone
            and verify_property_V(M).passed
            and sorted(M.entries) == list(range(M.size))
        )
        assert verify_reversible(M).passed == premise
        if premise:
            assert brute_force_line_reversal(M)


class TestDecompose:
    def test_base_four(self):
        out = decompose_cuboid(Cuboid((4, 4), tuple(range(16))))
        assert out.steps == ((1, 4), (2, 4))

    def test_tiny_cross_checked(self):
        out = decompose_cuboid(Cuboid((2, 2), (0, 1, 2, 3)))
        assert out.steps == ((1, 2), (2, 2))
        # The other factorisation of dims (2, 2) builds a different tensor.
        rebuilt = {j.steps: build_cuboid(j).entries for j in enumerate_jofs((2, 2))}
        assert rebuilt[out.steps] == (0, 1, 2, 3)
        assert rebuilt[((2, 2), (1, 2))] == (0, 2, 1, 3)

    def test_verification_enforced(self):
        with pytest.raises(VerificationFailedError):
            decompose_cuboid(Cuboid((2, 2), (0, 1, 1, 3)))

    @pytest.mark.parametrize(
        "steps, dims",
        [
            (JOF_E1A, DIMS_E1),
            # product 2048 is above the certificate's size ratio
            (tuple((j, 2) for j in range(1, 12)), (2,) * 11),
        ],
    )
    def test_list_fields_are_frozen(self, steps, dims):
        M = build_cuboid(jof(steps, dims))
        listed = Cuboid(list(M.dims), list(M.entries))
        assert listed == M and hash(listed) == hash(M)
        assert _walk_stop(_axes(listed), listed.dims) is None
        assert verify_reversible(listed).passed
        assert decompose_cuboid(listed).steps == steps

    @pytest.mark.parametrize(
        "M",
        [
            # both axes continue with 1: the next value is tied
            Cuboid((2, 2), (0, 1, 1, 2)),
            # axis 1 is (0, 1, 4, 5, 8): its last stage ends mid-copy
            Cuboid((5, 2), (0, 1, 4, 5, 8, 2, 3, 6, 7, 10)),
            # the axes are a sum system, but the direction-2 copy of the
            # sub-box (0, 1) holds (2, 4), not (2, 3)
            Cuboid((2, 2), (0, 1, 2, 4)),
            # a valid cuboid shifted by 1: axes and tensor agree from root 1
            Cuboid((2, 2), (1, 2, 3, 4)),
            # one entry, not 0
            Cuboid((1, 1), (5,)),
        ],
    )
    def test_contradiction_without_check(self, M):
        with pytest.raises(InternalContradictionError):
            decompose_cuboid(M, check=False)

    def test_unchecked_float_axes_compare_by_value(self):
        # Not packed: the axes hold a float, so the blocks compare as values.
        M = Cuboid((2, 2), (0, 1.0, 2, 3))
        assert decompose_cuboid(M, check=False).steps == ((1, 2), (2, 2))
        with pytest.raises(InternalContradictionError, match=r"index \[2, 2\]"):
            decompose_cuboid(Cuboid((2, 2), (0, 1.0, 2, 3.5)), check=False)

    def test_large_example_round_trip(self):
        M = build_cuboid(jof(JOF_E4, DIMS_E4))
        assert M.size == 3628800
        assert decompose_cuboid(M).steps == JOF_E4


def building_chain(jof_: JointOrderedFactorisation) -> Cuboid:
    """The paper's construction: building operators from the trivial cuboid."""
    M = trivial_cuboid(len(jof_.dims))
    for j, f in jof_.steps:
        M = building_op(j, f, M)
    return M


class TestRoundTripSweep:
    def test_exhaustive_small(self):
        for _, dims in dims_vectors_up_to(72):
            for jof_ in enumerate_jofs(dims):
                M = build_cuboid(jof_)
                assert M == building_chain(jof_), jof_.steps
                assert verify_reversible(M).passed, jof_.steps
                assert brute_force_line_reversal(M), jof_.steps
                assert axis_sets(M, check=False).parts == build_sum_system(jof_).parts
                back = decompose_cuboid(M, check=False)
                assert back.steps == jof_.steps, jof_.steps
                assert cuboid_from_sumsystem(
                    axis_sets(M, check=False), check=False
                ) == M


class TestSerialisation:
    def test_json_round_trip(self):
        M = build_cuboid(jof(JOF_E1A, DIMS_E1))
        assert from_json_doc(to_json_doc(M)) == M

    def test_json_validation(self):
        with pytest.raises(InputError):
            from_json_doc({"dims": [2, 2], "entries": [0, 1, 2]})
        with pytest.raises(InputError):
            from_json_doc({"dims": [2], "entries": [0, -1]})
        with pytest.raises(InputError):
            from_json_doc([1, 2])

    def test_csv_matrix(self):
        M = Cuboid((4, 4), tuple(range(16)))
        assert to_csv(M) == "0,1,2,3\n4,5,6,7\n8,9,10,11\n12,13,14,15\n"

    def test_csv_slices(self):
        M = build_cuboid(jof(((1, 2), (2, 2), (3, 2)), (2, 2, 2)))
        assert to_csv(M) == "0,1\n2,3\n\n4,5\n6,7\n"

    def test_csv_vector(self):
        assert to_csv(Cuboid((3,), (0, 1, 2))) == "0,1,2\n"

    def test_csv_order_four_slices_by_fixed_index_order(self):
        dims = (2, 3, 2, 2)
        M = Cuboid(dims, tuple(range(24)))
        slices = []
        for k3, k4 in itertools.product(range(1, 3), range(1, 3)):
            rows = [
                ",".join(str(M.entries[flat_index(dims, (k1, k2, k3, k4))]) for k1 in (1, 2))
                for k2 in (1, 2, 3)
            ]
            slices.append("\n".join(rows))
        assert to_csv(M) == "\n\n".join(slices) + "\n"


@st.composite
def built_jofs(draw):
    """Any JOF of any dims vector of product <= 48."""
    dims = draw(st.sampled_from([d for _, d in dims_vectors_up_to(48)]))
    return draw(st.sampled_from(list(enumerate_jofs(dims))))


class LooseSumSystem(SumSystem):
    """A ``SumSystem`` subclass: the cuboid tabulated from it is not marked."""


class TestIntEntryMarker:
    """Cuboids from ``Cuboid._of_ints`` skip the verifiers' type passes.

    Only the tabulating builders and the JSON reader may mark one, and
    the mark must never change what a cuboid equals, hashes or shows.
    """

    @given(built_jofs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_marked_only_where_entries_are_proved_ints(self, jof_, data):
        M = build_cuboid(jof_)
        ss = build_sum_system(jof_)
        size = M.size
        stray = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=size, max_size=size))
        marked = [
            M,
            cuboid_from_sumsystem(ss, check=data.draw(st.booleans())),
            from_json_doc(to_json_doc(M)),
            from_json_doc({"dims": list(M.dims), "entries": stray}),
        ]
        for out in marked:
            assert out._ints and _are_ints(out.entries, lo=0)
        assert [out._tabulated for out in marked] == [True, True, False, False]
        j = data.draw(st.integers(1, M.order))
        unmarked = [
            Cuboid(M.dims, M.entries),
            dataclasses.replace(M),
            dataclasses.replace(M, entries=tuple(stray)),
            kron_dir(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)), j, M),
            building_op(j, data.draw(st.integers(1, 3)), M),
            cuboid_from_sumsystem(LooseSumSystem(ss.parts)),
        ]
        for out in unmarked:
            assert not out._ints and not out._tabulated
        for out in marked[:3]:
            plain = Cuboid(out.dims, out.entries)
            assert out == plain and hash(out) == hash(plain) and repr(out) == repr(plain)
            assert verify_reversible(out) == verify_reversible(plain) == VerificationReport.ok()
        assert "_ints" not in repr(M) and "_tabulated" not in repr(M)
        with pytest.raises(TypeError):
            Cuboid(M.dims, M.entries, True)

    @pytest.fixture
    def no_type_pass(self, monkeypatch):
        """``_gate`` sees each cuboid with entries that fail when read."""
        gate = cuboid_mod._gate

        class Unread:
            def __init__(self, M):
                self._ints, self.dims = M._ints, M.dims

            @property
            def entries(self):
                raise AssertionError("entry type pass")

        monkeypatch.setattr(cuboid_mod, "_gate", lambda M, report=None: gate(Unread(M), report))

    @pytest.mark.parametrize(
        "steps, dims",
        [
            (tuple((j, 2) for j in range(1, 12)), (2,) * 11),  # the axis walk first
            (JOF_E1A, DIMS_E1),  # below the ratio: the ordered scan
        ],
        ids=["walk", "scan"],
    )
    def test_marked_cuboids_never_run_a_type_pass(self, no_type_pass, steps, dims):
        walk = math.prod(dims) >= cuboid_mod._CERTIFICATE_RATIO * sum(dims)
        assert walk == (len(dims) == 11)
        M = build_cuboid(jof(steps, dims))
        doc = to_json_doc(M)
        assert verify_reversible(M).passed
        assert verify_property_V(M).passed
        assert verify_reversible(from_json_doc(doc)).passed
        assert decompose_cuboid(from_json_doc(doc)).steps == steps
        doc["entries"][-1] += 1
        assert not verify_reversible(from_json_doc(doc)).passed
        # an unmarked copy still takes both passes
        with pytest.raises(AssertionError, match="entry type pass"):
            verify_reversible(Cuboid(M.dims, M.entries))
        with pytest.raises(AssertionError, match="entry type pass"):
            verify_property_V(Cuboid(M.dims, M.entries))


@st.composite
def ratio_sum_systems(draw):
    """Sum systems at certificate size (prod >= 64 * sum), valid or not.

    A valid one comes from a random JOF of dims at the ratio; an invalid
    one then has one non-zero element of one part moved to another free
    value, so the parts stay strictly increasing from 0 and the walk
    stops.
    """
    dims = draw(st.sampled_from(GOLDEN_RATIO_DIMS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    parts = jof_parts(random_steps(rng, dims), dims)
    if draw(st.booleans()):
        j = draw(st.integers(0, len(dims) - 1))
        part = parts[j]
        k = draw(st.integers(1, len(part) - 1))
        x = draw(st.integers(1, 2 * part[-1] + 2).filter(lambda x: x not in part))
        parts[j] = sorted(part[:k] + part[k + 1 :] + [x])
    return SumSystem(tuple(map(tuple, parts)))


def outcomes(M: Cuboid) -> list:
    """``verify_reversible``, ``axis_sets`` and ``decompose_cuboid``, both
    checked, and ``decompose_cuboid(check=False)``: a report, the parts, the
    steps, or [exception type, message]."""
    out = []
    for call, read in (
        (verify_reversible, lambda r: r),
        (axis_sets, lambda ss: ss.parts),
        (decompose_cuboid, lambda jof_: jof_.steps),
        (partial(decompose_cuboid, check=False), lambda jof_: jof_.steps),
    ):
        try:
            out.append(read(call(M)))
        except DOCUMENTED_ERRORS as exc:
            out.append([type(exc).__name__, str(exc)])
    return out


class TestTabulatedMarker:
    """A cuboid tabulated from a ``SumSystem`` is its own vertex certificate.

    ``cuboid_from_sumsystem`` marks it, so on the certificate route
    ``verify_reversible`` passes it and ``decompose_cuboid(check=False)``
    decomposes it without reading blocks; every outcome must equal that of
    an unmarked copy and of the naive scan.  Below the route's ratio the
    mark is not read.
    """

    @pytest.fixture
    def refuse_blocks(self, monkeypatch):
        def refuse(M):
            raise AssertionError("blocks read")

        monkeypatch.setattr(cuboid_mod, "_dirty_spans", refuse)

    @given(ratio_sum_systems())
    @settings(max_examples=60, deadline=None)
    def test_marked_and_unmarked_tabulations_agree_with_the_scan(self, ss):
        M = cuboid_from_sumsystem(ss, check=False)
        assert M._tabulated and M.entries[0] == 0
        plain = Cuboid(M.dims, M.entries)
        assert not plain._tabulated
        got = outcomes(M)
        assert got == outcomes(plain)
        assert got[0] == cuboid_scan_reference(M.dims, M.entries)
        assert got[0].passed == verify_sum_system(ss).passed
        assert got[0].passed == (_walk_stop(ss.parts, ss.dims) is None)

    def test_marked_cuboids_read_no_block(self, refuse_blocks):
        M = build_cuboid(jof(JOF_E4, DIMS_E4))
        copies = (Cuboid(M.dims, M.entries), from_json_doc(to_json_doc(M)))
        assert verify_reversible(M).passed
        assert decompose_cuboid(M, check=False).steps == JOF_E4
        assert verify_reversible(cuboid_from_sumsystem(SumSystem(E4_PARTS))).passed
        assert axis_sets(M).parts == E4_PARTS
        for copy in copies:
            for call in (verify_reversible, partial(decompose_cuboid, check=False)):
                with pytest.raises(AssertionError, match="blocks read"):
                    call(copy)

    def test_sweep_size_built_cuboids_are_read(self, refuse_blocks):
        # criterion 5's battery compares every small built cuboid with V
        M = build_cuboid(jof(((1, 2), (2, 3), (1, 2)), (4, 3)))
        assert M._tabulated and M.size < cuboid_mod._CERTIFICATE_RATIO * sum(M.dims)
        for call in (verify_reversible, partial(decompose_cuboid, check=False)):
            with pytest.raises(AssertionError, match="blocks read"):
                call(M)

    def test_never_carried_by_other_routes(self):
        ss = build_sum_system(jof(JOF_E2, DIMS_E2))
        M = cuboid_from_sumsystem(ss)
        assert M._tabulated
        for out in (
            dataclasses.replace(M),
            Cuboid(M.dims, M.entries),
            kron_dir([1, 2], 1, M),
            building_op(2, 2, M),
            from_json_doc(to_json_doc(M)),
            cuboid_from_sumsystem(LooseSumSystem(ss.parts)),
        ):
            assert not out._tabulated
        with pytest.raises(ValueError):
            dataclasses.replace(M, _tabulated=True)
