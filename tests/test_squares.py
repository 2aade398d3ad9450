import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import addsys.squares as squares_mod
from addsys.core import InputError, VerificationFailedError
from addsys.factorisation import enumerate_jofs
from addsys.sds import sumsys_to_sds_noninclusive, sumsys_to_sds_inclusive
from addsys.squares import (
    KINDS,
    SquareMatrix,
    associated_magic_square,
    from_json_doc,
    most_perfect_square,
    reversible_square_even,
    reversible_square_odd,
    to_json_doc,
    verify_square,
)
from addsys.sumsystem import build_sum_system
from support import (
    grid_associated_ok,
    grid_blocks_ok,
    grid_diagonal_pairs_ok,
    grid_entry_set_ok,
    grid_magic_ok,
    grid_reversal_ok,
    grid_vertex_ok,
    random_square_pair,
    reference_square,
    square_scan_report,
)

REV_4 = [[16, 15, 8, 7], [14, 13, 6, 5], [12, 11, 4, 3], [10, 9, 2, 1]]
MAGIC_4 = [[16, 9, 2, 7], [5, 4, 11, 14], [3, 6, 13, 12], [10, 15, 8, 1]]
PERFECT_4 = [[13, 8, 11, 2], [12, 1, 14, 7], [6, 15, 4, 9], [3, 10, 5, 16]]


def derived_sds_systems(side, flavour):
    """All two-part systems reachable from square sum systems of the side."""
    out = []
    for jof in enumerate_jofs((side, side)):
        ss = build_sum_system(jof)
        if flavour == "non-inclusive":
            out.append(sumsys_to_sds_noninclusive(ss, check=False))
        else:
            out.append(sumsys_to_sds_inclusive(ss, check=False))
    return out


class TestReversibleEven:
    def test_worked_pair(self):
        rows = reversible_square_even((7, 9), (2, 6)).plain_rows()
        assert rows == REV_4
        assert grid_entry_set_ok(rows)
        assert grid_vertex_ok(rows)
        assert grid_reversal_ok(rows)

    def test_smallest(self):
        rows = reversible_square_even((1,), (2,)).plain_rows()
        assert rows == [[4, 3], [2, 1]]
        assert grid_entry_set_ok(rows)

    def test_associated_symmetry_always(self):
        rows = reversible_square_even((7, 9), (2, 6)).plain_rows()
        assert grid_associated_ok(rows)

    def test_unequal_sizes_rejected(self):
        with pytest.raises(InputError, match="equal size"):
            reversible_square_even((5, 10, 15), (35, 280, 315, 350))

    def test_invalid_pair_rejected(self):
        with pytest.raises(VerificationFailedError):
            reversible_square_even((1, 2), (3, 4))

    def test_every_derived_pair_works(self):
        for side in (2, 4, 6):
            for system in derived_sds_systems(side, "non-inclusive"):
                rows = reversible_square_even(*system.parts).plain_rows()
                assert grid_entry_set_ok(rows), system.parts
                assert grid_vertex_ok(rows), system.parts
                assert grid_reversal_ok(rows), system.parts
                assert grid_associated_ok(rows), system.parts

    def test_weightless_doubled_entries_are_odd(self):
        sq = reversible_square_even((7, 9), (2, 6))
        weight2 = sq.n * sq.n + 1
        assert all((2 * x - weight2) % 2 == 1 for row in sq.rows for x in row)


class TestReversibleOdd:
    def test_smallest(self):
        rows = reversible_square_odd((1,), (3,)).plain_rows()
        assert rows == [[9, 8, 7], [6, 5, 4], [3, 2, 1]]
        assert grid_entry_set_ok(rows)
        assert grid_vertex_ok(rows)
        assert grid_reversal_ok(rows)

    def test_centre_is_weight(self):
        for side in (3, 5):
            for system in derived_sds_systems(side, "inclusive"):
                sq = reversible_square_odd(*system.parts)
                rows = sq.plain_rows()
                n = sq.n
                assert rows[n // 2][n // 2] == (n * n + 1) // 2
                assert grid_entry_set_ok(rows), system.parts

    def test_unequal_sizes_rejected(self):
        with pytest.raises(InputError, match="equal size"):
            reversible_square_odd((5, 10, 15), (35, 280, 315, 350))


class TestAssociatedMagic:
    def test_worked_pair(self):
        rows = associated_magic_square((7, 9), (2, 6), (1, -1), (1, -1)).plain_rows()
        assert rows == MAGIC_4
        assert grid_magic_ok(rows)
        assert grid_associated_ok(rows)
        assert grid_entry_set_ok(rows)
        assert sum(rows[0]) == 34

    def test_default_signs_alternate(self):
        explicit = associated_magic_square((7, 9), (2, 6), (1, -1), (1, -1))
        assert associated_magic_square((7, 9), (2, 6)) == explicit

    def test_sampled_inputs_stay_magic(self):
        for side in (4, 8):
            for system in derived_sds_systems(side, "non-inclusive")[:six_or_all(side)]:
                rows = associated_magic_square(*system.parts).plain_rows()
                assert grid_magic_ok(rows), system.parts
                assert grid_associated_ok(rows), system.parts
                assert grid_entry_set_ok(rows), system.parts

    def test_nonzero_sum_signs_rejected(self):
        with pytest.raises(InputError, match="sum to 0"):
            associated_magic_square((7, 9), (2, 6), (1, 1), (1, -1))

    def test_odd_part_size_rejected(self):
        system = derived_sds_systems(6, "non-inclusive")[0]
        with pytest.raises(InputError, match="even"):
            associated_magic_square(*system.parts)


def six_or_all(side):
    return 6 if side == 8 else 10**9


class TestMostPerfect:
    def test_worked_pair(self):
        rows = most_perfect_square((7, 9), (2, 6)).plain_rows()
        assert rows == PERFECT_4
        assert grid_entry_set_ok(rows)
        assert grid_blocks_ok(rows)
        assert grid_diagonal_pairs_ok(rows)
        assert grid_magic_ok(rows)

    def test_derived_pair(self):
        # Build dims (4, 4) sum systems, map to their two-part systems,
        # and check all three defining properties on every construction.
        for system in derived_sds_systems(4, "non-inclusive"):
            rows = most_perfect_square(*system.parts).plain_rows()
            assert grid_entry_set_ok(rows), system.parts
            assert grid_blocks_ok(rows), system.parts
            assert grid_diagonal_pairs_ok(rows), system.parts

    def test_odd_part_size_rejected(self):
        with pytest.raises(InputError, match="even"):
            most_perfect_square((1,), (2,))


class TestVerifySquare:
    def test_reversible_kind(self):
        sq = reversible_square_even((7, 9), (2, 6))
        assert verify_square(sq, "reversible").passed

    def test_reversible_is_not_most_perfect(self):
        sq = reversible_square_even((7, 9), (2, 6))
        report = verify_square(sq, "most-perfect")
        assert not report.passed
        assert report.note == "toroidal-2x2-blocks"

    def test_tiny_grid_is_reversible(self):
        assert verify_square(SquareMatrix.from_plain([[1, 2], [3, 4]]), "reversible").passed

    def test_most_perfect_kind(self):
        sq = most_perfect_square((7, 9), (2, 6))
        report = verify_square(sq, "most-perfect")
        assert report.passed
        assert report.note == "toroidal-2x2-blocks"

    def test_associated_kind(self):
        assert verify_square(associated_magic_square((7, 9), (2, 6)), "associated").passed

    def test_odd_order_never_most_perfect(self):
        sq = reversible_square_odd((1,), (3,))
        report = verify_square(sq, "most-perfect")
        assert report.violated_invariant in ("even-order", "row-sum", "block-sums")

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            verify_square(SquareMatrix.from_plain([[1]]), "pandiagonal")

    def test_entry_set_always_checked(self):
        report = verify_square(SquareMatrix.from_plain([[1, 2], [3, 5]]), "reversible")
        assert report.violated_invariant == "entry-set"


class TestSquareMatrixType:
    def test_json_round_trip(self):
        sq = most_perfect_square((7, 9), (2, 6))
        assert from_json_doc(to_json_doc(sq)) == sq

    def test_json_validation(self):
        with pytest.raises(InputError):
            from_json_doc({"n": 2, "entries": [[1, 2]]})
        with pytest.raises(InputError):
            from_json_doc({"n": 1, "entries": [[1.5]]})

    def test_json_names_the_first_non_integer_undoubled(self):
        with pytest.raises(InputError, match=r"entries must be integers, got True$"):
            from_json_doc({"n": 2, "entries": [[1, 2], [True, 4.5]]})

    @pytest.mark.parametrize(
        "rows, named",
        [([["a"]], r"got 'a'$"), ([[1.5]], r"got 1\.5$"), ([[True]], r"got True$")],
    )
    def test_from_plain_names_the_value_as_given(self, rows, named):
        with pytest.raises(InputError, match=named):
            SquareMatrix.from_plain(rows)

    @pytest.mark.parametrize("n", [True, 1.0, "1"])
    def test_json_side_must_be_an_integer(self, n):
        with pytest.raises(InputError, match="'n'"):
            from_json_doc({"n": n, "entries": [[1]]})

    def test_grid_rows_are_frozen(self):
        # A list-built square equals and hashes like its tuple-built twin.
        listed = SquareMatrix(2, [[2, 4], [6, 8]])
        assert listed == SquareMatrix(2, ((2, 4), (6, 8)))
        assert hash(listed) == hash(SquareMatrix(2, ((2, 4), (6, 8))))
        assert all(type(row) is tuple for row in listed.rows)

    def test_first_offender_named_in_row_major_order(self):
        with pytest.raises(InputError, match=r"got 4\.0"):
            SquareMatrix(2, ((2, 4), (4.0, 7.5)))

    @pytest.mark.parametrize("x", [2**62, 2**63 - 1, -(2**63)])
    def test_plain_int64_entries_construct(self, x):
        square = SquareMatrix.from_plain([[x]])
        assert square.rows == ((x,),)
        assert verify_square(square, "reversible").witness == x


#: Library builder and side lengths for each family; associated and
#: most perfect squares need an even part size.
FAMILIES = {
    "reversible-even": (reversible_square_even, (2, 4, 6, 8, 10, 12, 14, 16)),
    "reversible-odd": (reversible_square_odd, (3, 5, 7, 9, 11, 13, 15)),
    "associated": (associated_magic_square, (4, 8, 12, 16)),
    "most-perfect": (most_perfect_square, (4, 8, 12, 16)),
}


@lru_cache(maxsize=None)
def derived_parts(side, flavour):
    return tuple(system.parts for system in derived_sds_systems(side, flavour))


def draw_built(data):
    """A drawn family, a valid pair and signs for it, and the library square."""
    family = data.draw(st.sampled_from(sorted(FAMILIES)))
    build, sides = FAMILIES[family]
    side = data.draw(st.sampled_from(sides))
    flavour = "inclusive" if family == "reversible-odd" else "non-inclusive"
    first, second = data.draw(st.sampled_from(derived_parts(side, flavour)))
    signs = ()
    if family == "associated":
        half = (1, -1) * (len(first) // 2)
        signs = (data.draw(st.permutations(half)), data.draw(st.permutations(half)))
    return family, (first, second, *signs), build(first, second, *signs)


def draw_square(data):
    """A library square of a drawn family, with its reference rows."""
    family, args, square = draw_built(data)
    return square, reference_square(family, *args)


def doubled(rows):
    """Plain rows in the doubled units of ``reference_square`` and
    ``square_scan_report``."""
    return tuple(tuple(2 * x for x in row) for row in rows)


def mutate(data, rows):
    n = len(rows)
    rows = [list(row) for row in rows]
    i, j, k, l = (data.draw(st.integers(0, n - 1)) for _ in range(4))
    how = data.draw(st.sampled_from(["swap", "bump", "duplicate", "row swap", "column swap"]))
    if how == "swap":
        rows[i][j], rows[k][l] = rows[k][l], rows[i][j]
    elif how == "bump":
        rows[i][j] += data.draw(st.sampled_from((-1, 1)))
    elif how == "duplicate":
        rows[i][j] = rows[k][l]
    elif how == "row swap":
        rows[i], rows[k] = rows[k], rows[i]
    else:
        for row in rows:
            row[j], row[l] = row[l], row[j]
    return rows


class TestBuiltSquaresSkipTheGate:
    """The builders construct their squares without the public entry gate.

    Their rows come from a pair ``verify_sds`` has just passed, so the
    gate could never refuse them: these tests hold the builders to that.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_public_gate_and_ordered_scan_accept_every_build(self, data):
        family, _, square = draw_built(data)
        kind = "reversible" if family.startswith("reversible") else family
        assert SquareMatrix(square.n, square.rows) == square
        assert SquareMatrix.from_plain(square.plain_rows()) == square
        assert square_scan_report(doubled(square.rows), kind)[:2] == (None, None)

    def test_builders_never_call_the_gate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("square entry gate")

        monkeypatch.setattr(squares_mod, "_require_ints", refuse)
        even, odd = derived_parts(8, "non-inclusive")[0], derived_parts(7, "inclusive")[0]
        for build, pair, kind in (
            (reversible_square_even, even, "reversible"),
            (reversible_square_odd, odd, "reversible"),
            (associated_magic_square, even, "associated"),
            (most_perfect_square, even, "most-perfect"),
        ):
            assert verify_square(build(*pair), kind).passed
        with pytest.raises(AssertionError, match="square entry gate"):
            SquareMatrix.from_plain([[1]])


class TestAgainstEntryFormulas:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_builds_match_the_entry_formulas(self, data):
        square, reference = draw_square(data)
        assert doubled(square.rows) == reference

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_squares_report_like_the_ordered_scan(self, data):
        square, _ = draw_square(data)
        mutated = SquareMatrix.from_plain(mutate(data, square.plain_rows()))
        for kind in KINDS:
            report = verify_square(mutated, kind)
            got = (report.violated_invariant, report.witness, report.note)
            assert got == square_scan_report(doubled(mutated.rows), kind), kind

    def test_column_swap_fails_reversal_in_the_top_row(self):
        swapped = SquareMatrix.from_plain([[r[1], r[0]] + r[2:] for r in REV_4])
        report = verify_square(swapped, "reversible")
        assert report.violated_invariant == "line-reversal"
        assert report.witness == {"row": 1, "column": 2}
        assert square_scan_report(doubled(swapped.rows), "reversible")[1] == report.witness

    def test_row_swap_fails_reversal_in_the_first_column(self):
        swapped = SquareMatrix.from_plain([REV_4[1], REV_4[0]] + REV_4[2:])
        report = verify_square(swapped, "reversible")
        assert report.violated_invariant == "line-reversal"
        assert report.witness == {"row": 2, "column": 1}
        assert square_scan_report(doubled(swapped.rows), "reversible")[1] == report.witness

    def test_odd_magic_square_fails_most_perfect_on_order(self):
        lo_shu = SquareMatrix.from_plain([[2, 7, 6], [9, 5, 1], [4, 3, 8]])
        report = verify_square(lo_shu, "most-perfect")
        assert (report.violated_invariant, report.witness) == ("even-order", 3)
        assert report.note == "toroidal-2x2-blocks"
        assert verify_square(lo_shu, "associated").passed


class TestPackedBuilders:
    """The builders form each row as one int of 64-bit fields: its rows equal
    the entry formulas, halved, at every side up to 512."""

    @pytest.mark.parametrize(
        "family, n",
        [
            *(("reversible-even", n) for n in (2, 6, 64, 130, 512)),
            *(("reversible-odd", n) for n in (3, 65, 511)),
            *(("associated", n) for n in (4, 68, 512)),
            *(("most-perfect", n) for n in (4, 128, 512)),
        ],
    )
    def test_rows_equal_the_halved_reference(self, family, n):
        rng = random.Random(n)
        first, second = random_square_pair(rng, n)
        signs = ()
        if family == "associated":  # random zero-sum v and w
            half = [1, -1] * (len(first) // 2)
            signs = (rng.sample(half, len(half)), rng.sample(half, len(half)))
        rows = FAMILIES[family][0](first, second, *signs).rows
        want = reference_square(family, first, second, *signs)
        assert rows == tuple(tuple(x // 2 for x in row) for row in want)
        assert len(rows) == n and all(type(row) is tuple and len(row) == n for row in rows)
        assert {type(x) for row in rows for x in row} == {int}

    def test_negative_columns_borrow_exactly(self):
        # Each negative field of a packed signed column borrows 1 from the
        # field above, the first field's included; the rows must not show it.
        col_a, col_b = (-7, 5, -3, 9), (1, -1, -3, 5)
        signs, scales = (1, -1, 1, -1), (2, 2, 0, 4)
        rows = squares_mod._rank_two_square(signs, scales, col_a, col_b).rows
        assert rows == tuple(
            tuple((17 + s * a + c * b) // 2 for a, b in zip(col_a, col_b))
            for s, c in zip(signs, scales)
        )


@lru_cache(maxsize=None)
def square_systems(side):
    """The parts of every two-part sum system of dims (side, side)."""
    return tuple(build_sum_system(jof).parts for jof in enumerate_jofs((side, side)))


@st.composite
def axis_squares(draw):
    """Rows lo + a_J + b_I, which meet the vertex sums, then maybe changed.

    The offsets a and b are a two-part sum system in any order, or distinct
    offsets that mostly are not one, or offsets with a repeat; lo is the
    smallest entry, 1 or not.  One entry may then be bumped or two swapped.
    """
    n = draw(st.integers(1, 8))
    how = draw(st.sampled_from(["system", "system", "distinct", "repeat"]))
    if how == "system" and n > 1:
        a, b = (list(p) for p in draw(st.sampled_from(square_systems(n))))
    else:
        a, b = ([0] + draw(st.lists(st.integers(1, n * n), min_size=n - 1, max_size=n - 1,
                                    unique=how != "repeat")) for _ in range(2))
    a, b = draw(st.permutations(a)), draw(st.permutations(b))
    lo = draw(st.sampled_from([1, 1, 1, 0, 2, -5]))
    rows = [[lo + x + y for x in a] for y in b]
    change = draw(st.sampled_from(["none", "none", "bump", "swap"]))
    i, j, k, l = (draw(st.integers(0, n - 1)) for _ in range(4))
    if change == "bump":
        rows[i][j] += draw(st.sampled_from([-1, 1]))
    elif change == "swap":
        rows[i][j], rows[k][l] = rows[k][l], rows[i][j]
    return rows


class TestReversibleCertificate:
    """``verify_square`` reads a reversible square as an order-2 cuboid and
    skips the entry-set pass when its offsets walk as a sum system."""

    @settings(max_examples=400, deadline=None)
    @given(axis_squares())
    def test_axis_squares_report_like_the_ordered_scan(self, rows):
        square = SquareMatrix.from_plain(rows)
        for kind in KINDS:
            report = verify_square(square, kind)
            got = (report.violated_invariant, report.witness, report.note)
            assert got == square_scan_report(doubled(square.rows), kind), kind

    def test_certified_squares_skip_the_entry_set_pass(self, monkeypatch):
        calls = []
        entry_set_witness = squares_mod._entry_set_witness
        monkeypatch.setattr(
            squares_mod, "_entry_set_witness",
            lambda values, lo, hi: calls.append(lo) or entry_set_witness(values, lo, hi),
        )
        even, odd = derived_parts(8, "non-inclusive")[0], derived_parts(7, "inclusive")[0]
        for square in (reversible_square_even(*even), reversible_square_odd(*odd)):
            assert verify_square(square, "reversible").passed
        assert verify_square(SquareMatrix.from_plain(REV_4), "reversible").passed
        assert not calls
        for rows, invariant in (
            ([[x + 1 for x in row] for row in REV_4], "entry-set"),  # lo = 2
            ([[1, 2], [2, 3]], "entry-set"),  # distinct offsets, no sum system
            ([[1, 1], [3, 3]], "entry-set"),  # a repeat in the top row
            ([[4, 3], [1, 2]], "vertex-sums"),
        ):
            report = verify_square(SquareMatrix.from_plain(rows), "reversible")
            assert report.violated_invariant == invariant
        assert len(calls) == 4
        assert verify_square(associated_magic_square(*even), "associated").passed
        assert len(calls) == 5
