"""Hostile values at every public entry point reach a documented error.

Every integer input passes one gate (``core._require_ints``); the
property test holds it to the per-element loops in ``support``.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from addsys.cli import main
from addsys.core import (
    InputError,
    Int64OverflowError,
    InternalContradictionError,
    Progression,
    SumSystem,
    VerificationFailedError,
    VerificationReport,
    as_component_set,
    ensure_int64,
    is_progression,
    minkowski_sum,
)
from addsys.cuboid import (
    Cuboid,
    build_cuboid,
    building_op,
    decompose_cuboid,
    flat_index,
    from_json_doc,
    kron_dir,
    strides,
    trivial_cuboid,
    verify_property_V,
    verify_reversible,
)
from addsys.factorisation import (
    JointOrderedFactorisation,
    canonicalise,
    count_jofs,
    enumerate_jofs,
    format_jof,
    parse_jof,
    validate_jof,
)
from addsys import squares, sumsystem
from addsys.sds import SdsSystem
from addsys.squares import SquareMatrix, associated_magic_square, verify_square
from addsys.sumsystem import base_q_system, build_sum_system
from support import component_set_reference, non_negative_reference, plain_grid_reference


def _cli(stdin: str, *argv: str) -> int:
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(list(argv))


def _magic(v):
    return associated_magic_square((1, 3), (4, 12), v=v)


#: Past Python's 4,300-digit limit for ``str(int)``: a message must not
#: format it in decimal.
HUGE = 10**5000
SHOWN = "<int of 16610 bits>"
PAIRS = r"steps must be \(direction, factor\) pairs"
JOF_TEXT = "JOF text must be a string"


#: Each row: a call with a hostile value, then either the documented
#: error it must raise and a pattern its message must match, or the
#: value the call must return.
HOSTILE = {
    "square side True": (lambda: SquareMatrix(True, ((2,),)), InputError, "side length"),
    "square side float": (lambda: SquareMatrix(1.0, ((2,),)), InputError, "side length"),
    "magic v float": (lambda: _magic((1.0, -1.0)), InputError, "^v entries"),
    "magic v bool": (lambda: _magic((True, -1)), InputError, "^v entries"),
    "cuboid dims bool": (lambda: verify_reversible(Cuboid((True, 2), (0, 1))), InputError, "dims"),
    "cuboid dims float": (lambda: verify_reversible(Cuboid((2.0,), (0, 1))), InputError, "dims"),
    "property V strings": (
        lambda: verify_property_V(Cuboid((2,), ("a", "b"))), InputError, r"got 'a' at index \[1\]$",
    ),
    "property V None": (
        lambda: verify_property_V(Cuboid((2,), (None, 1))), InputError, r"got None at index \[1\]$",
    ),
    "property V floats": (
        lambda: verify_property_V(Cuboid((2,), (0.0, 1.0))), InputError, r"got 0.0 at index \[1\]$",
    ),
    "property V half": (
        lambda: verify_property_V(Cuboid((2,), (0, 1.5))), InputError, r"got 1.5 at index \[2\]$",
    ),
    "trivial_cuboid float order": (lambda: trivial_cuboid(1.5), InputError, "order"),
    "building_op float copies": (
        lambda: building_op(1, 2.0, trivial_cuboid(1)), InputError, "copy count",
    ),
    "kron_dir float direction": (
        lambda: kron_dir((1, 2), 1.0, trivial_cuboid(1)), InputError, "direction",
    ),
    "jof float dims": (
        lambda: validate_jof(((1, 2.5),), (2.5,)).violated_invariant, None, "dims-range",
    ),
    "jof float factor": (
        lambda: validate_jof(((1, 2.0),), (2,)).violated_invariant, None, "factor-range",
    ),
    "jof float direction": (
        lambda: validate_jof(((1.0, 2),), (2,)).violated_invariant, None, "direction-range",
    ),
    "build_sum_system float factor": (
        lambda: build_sum_system(JointOrderedFactorisation(((1, 2.0),), (2,))),
        InputError, "factor-range",
    ),
    "build_cuboid float dims": (
        lambda: build_cuboid(JointOrderedFactorisation(((1, 2.0),), (2.0,))),
        InputError, "dims-range",
    ),
    "enumerate_jofs float dims": (lambda: list(enumerate_jofs((2.0, 3))), InputError, "dims"),
    "count_jofs float dims": (lambda: count_jofs((2.0, 3)), InputError, "dims"),
    "minkowski_sum float": (lambda: minkowski_sum([[0.5, 1]]), InputError, "integers"),
    "Progression float start": (lambda: Progression(0.5, 1, 2), InputError, "start"),
    "flat_index float index": (lambda: flat_index((2, 2), (1.5, 1)), InputError, "index"),
    "strides float dims": (lambda: strides((2.0, 3)), InputError, "dims .*got 2.0$"),
    "strides negative dims": (lambda: strides((-1, 3)), InputError, "dims .*got -1$"),
    "strides zero dims": (lambda: strides((2, 0)), InputError, "dims .*got 0$"),
    "base_q_system float q": (lambda: base_q_system(2.0, 2), InputError, "integers"),
    "SumSystem huge element": (lambda: SumSystem(((0, HUGE),)), Int64OverflowError, f"{SHOWN}$"),
    "SumSystem huge negative": (
        lambda: SumSystem(((0, -HUGE),)), Int64OverflowError, "got <negative int of 16610 bits>$",
    ),
    "Progression huge start": (lambda: Progression(HUGE, 1, 1), Int64OverflowError, f"{SHOWN}$"),
    "count_jofs huge dims": (lambda: count_jofs([HUGE]), InputError, f"{SHOWN}$"),
    "strides huge dims": (lambda: strides((HUGE,)), Int64OverflowError, f"{SHOWN}$"),
    "from_plain huge entry": (
        lambda: SquareMatrix.from_plain([[HUGE]]), Int64OverflowError, f"{SHOWN}$",
    ),
    "build_sum_system huge dims": (
        lambda: build_sum_system(JointOrderedFactorisation(((1, 2),), (HUGE,))),
        InputError, rf"dims-range \(witness \[1, {SHOWN}\]\)$",
    ),
    "canonicalise huge dims": (
        lambda: canonicalise(((1, 2),), (HUGE,)), InputError, rf"\[1, {SHOWN}\]\)$",
    ),
    "ensure_int64 huge": (
        lambda: ensure_int64(HUGE), Int64OverflowError, f"value {SHOWN} exceeds",
    ),
    "base_q_system huge q": (lambda: base_q_system(HUGE, 1), Int64OverflowError, f"{SHOWN}$"),
    "square side huge": (lambda: SquareMatrix(HUGE, ((1,),)), Int64OverflowError, f"{SHOWN}$"),
    "verify_square huge kind": (
        lambda: verify_square(SquareMatrix(1, ((1,),)), HUGE), InputError, f"{SHOWN}$",
    ),
    "square json huge n": (
        lambda: squares.from_json_doc({"n": HUGE, "entries": [[1]]}),
        Int64OverflowError, f"'n' .*{SHOWN}$",
    ),
    "sumsys json huge dims": (
        lambda: sumsystem.from_json_doc({"parts": [[0, 1]], "dims": [HUGE]}),
        InputError, rf"'dims' \[{SHOWN}\] do not match",
    ),
    "Cuboid huge dims": (lambda: Cuboid((HUGE,), (0,)), InputError, rf"\[{SHOWN}\]$"),
    "SdsSystem huge flavour": (lambda: SdsSystem(((1,),), HUGE), InputError, f"{SHOWN}$"),
    "decompose_cuboid huge root": (
        lambda: decompose_cuboid(Cuboid((2,), (HUGE, 1)), check=False),
        InternalContradictionError, f"root entry is {SHOWN}, not 0",
    ),
    "VerificationFailedError huge witness": (
        lambda: str(VerificationFailedError("gate", VerificationReport.fail("x", {"at": [HUGE]}))),
        None, f"gate: x (witness {{'at': [{SHOWN}]}})",
    ),
    "from_plain bare row": (
        lambda: SquareMatrix.from_plain([1]), InputError, "^square row must be iterable, got 1$",
    ),
    "from_plain bare rows": (
        lambda: SquareMatrix.from_plain(5), InputError, "^square rows must be iterable, got 5$",
    ),
    "square rows None": (
        lambda: SquareMatrix(1, None), InputError, "^square rows must be iterable, got None$",
    ),
    "Cuboid bare entries": (
        lambda: Cuboid((1,), 5), InputError, "^entries must be iterable, got 5$",
    ),
    "SumSystem bare part": (
        lambda: SumSystem((5,)), InputError, "^part 1 must be iterable, got 5$",
    ),
    "SumSystem bare parts": (
        lambda: SumSystem(5), InputError, "^sum system parts must be iterable, got 5$",
    ),
    "SdsSystem bare part": (
        lambda: SdsSystem((5,), "inclusive"), InputError, "^part 1 must be iterable, got 5$",
    ),
    "minkowski_sum bare set": (
        lambda: minkowski_sum([5]), InputError, "^each set must be iterable, got 5$",
    ),
    "minkowski_sum iterator set": (
        lambda: minkowski_sum([iter([0, 1]), (0, 2)]), None, [0, 1, 2, 3],
    ),
    "format_jof triple": (
        lambda: format_jof([(1, 2, 3)]), InputError, rf"^{PAIRS}, got \[\(1, 2, 3\)\]$",
    ),
    "format_jof bare step": (lambda: format_jof([1]), InputError, rf"^{PAIRS}, got \[1\]$"),
    "parse_jof int": (lambda: parse_jof(5), InputError, f"^{JOF_TEXT}, got 5$"),
    "parse_jof bytes": (lambda: parse_jof(b"1:2"), InputError, f"^{JOF_TEXT}, got b'1:2'$"),
    "cli sumsys float dims": (
        lambda: _cli('{"dims":[2.0,2.0],"parts":[[0,1],[0,2]]}', "sumsys", "verify", "-"),
        None, 2,
    ),
    "kron_dir negative entry": (
        lambda: kron_dir((4,), 1, Cuboid((2,), (-(2**62), 0))),
        Int64OverflowError, "^scaled entry -18446744073709551616 exceeds",
    ),
    "count_jofs bare dims": (lambda: count_jofs(5), InputError, "^dims must be iterable, got 5$"),
    "enumerate_jofs bare dims": (
        lambda: list(enumerate_jofs(5)), InputError, "^dims must be iterable, got 5$",
    ),
    "validate_jof bare dims": (
        lambda: validate_jof([(1, 2)], 5), InputError, "^dims must be iterable, got 5$",
    ),
    "validate_jof bare steps": (
        lambda: validate_jof(5, [2]), InputError, "^steps must be iterable, got 5$",
    ),
    "canonicalise bare dims": (
        lambda: canonicalise([(1, 2)], 5), InputError, "^dims must be iterable, got 5$",
    ),
    "is_progression list p": (
        lambda: is_progression([1], [1]), InputError, r"^p must be a Progression, got \[1\]$",
    ),
    "is_progression bare multiset": (
        lambda: is_progression(5, Progression(0, 1, 1)), InputError,
        "^multiset must be iterable, got 5$",
    ),
    "strides returned": (lambda: strides((2, 3)), None, (1, 2)),
    "building_op bad direction": (
        lambda: building_op(2, 2, trivial_cuboid(1)), InputError, r"^direction 2 outside 1\.\.1$",
    ),
    "magic v short": (lambda: _magic((1,)), InputError, "^v must have length 2, got 1$"),
    "square json n mismatch": (
        lambda: squares.from_json_doc({"n": 2, "entries": [[1]]}),
        InputError, "^'n' is 2 but the grid is 1 x 1$",
    ),
    "base_q_system q 1": (
        lambda: base_q_system(1, 3), InputError, "^need q >= 2 and m >= 1, got q=1, m=3$",
    ),
    "minkowski_sum empty set": (
        lambda: minkowski_sum([[]]), InputError, "^minkowski_sum requires nonempty sets$",
    ),
    "kron_dir float entry": (
        lambda: kron_dir((2,), 1, Cuboid((1,), (0.5,))), InputError,
        r"^entries must be integers, got 0\.5 at index \[1\]$",
    ),
    "building_op float entry": (
        lambda: building_op(1, 2, Cuboid((1,), (0.5,))), InputError,
        r"^entries must be integers, got 0\.5 at index \[1\]$",
    ),
    "kron_dir string entry": (
        lambda: kron_dir((2,), 1, Cuboid((1,), ("a",))), InputError,
        r"^entries must be integers, got 'a' at index \[1\]$",
    ),
    "building_op string entry": (
        lambda: building_op(1, 2, Cuboid((1,), ("a",))), InputError,
        r"^entries must be integers, got 'a' at index \[1\]$",
    ),
    "kron_dir bool entry": (
        lambda: kron_dir((2,), 1, Cuboid((1,), (True,))), InputError,
        r"^entries must be integers, got True at index \[1\]$",
    ),
    "building_op IntEnum entry": (
        lambda: building_op(1, 2, Cuboid((2,), (0, Colour.RED))), InputError,
        r"^entries must be integers, got <Colour.RED: 1> at index \[2\]$",
    ),
    "validate_jof long dims witness": (
        lambda: validate_jof([], [2] * 100_000 + [0]).witness, None, [100_001, 0],
    ),
    "verify_property_V bool pass": (
        lambda: verify_property_V(Cuboid((2,), (False, True))), InputError,
        r"^entries must be integers, got False at index \[1\]$",
    ),
    "cuboid json entries not a list": (
        lambda: from_json_doc({"dims": [1], "entries": 0}), InputError,
        "^'entries' must be a flat list of integers$",
    ),
    "jof length": (lambda: len(JointOrderedFactorisation(((1, 2), (2, 3)), (2, 3))), None, 2),
}


@pytest.mark.parametrize("call, error, expected", HOSTILE.values(), ids=list(HOSTILE))
def test_hostile_values_reach_documented_errors(call, error, expected):
    if error is None:
        assert call() == expected
    else:
        with pytest.raises(error, match=expected):
            call()


def test_enumerable_dims_error_names_the_offender():
    with pytest.raises(InputError, match="got 1$") as refused:
        count_jofs([2] * 100_000 + [1])
    assert len(str(refused.value).encode()) < 100


class Colour(IntEnum):
    RED = 1


EDGES = (2**63 - 1, 2**63, -(2**63), -(2**63) - 1)
VALUES = st.one_of(
    st.lists(
        st.one_of(
            st.integers(-(2**64), 2**64),
            st.sampled_from(EDGES),
            st.booleans(),
            st.floats(),
            st.text(max_size=2),
            st.none(),
            st.just(Colour.RED),
        ),
        max_size=6,
    ),
    st.lists(st.integers(0, 2**64), unique=True, max_size=6).map(sorted),
)

#: Entry point on a list of values, and its per-element reference.
GATED = {
    "as_component_set": (as_component_set, component_set_reference),
    "kron_dir weights": (lambda v: kron_dir(v, 1, Cuboid((2,), (0, 1))), non_negative_reference),
    "cuboid.from_json_doc entries": (
        lambda v: from_json_doc({"dims": [len(v)], "entries": v}), non_negative_reference,
    ),
    "SquareMatrix.from_plain": (
        lambda v: SquareMatrix.from_plain([v]), lambda v: plain_grid_reference([v]),
    ),
}


def _names(exc: Exception, value) -> bool:
    return str(exc).endswith(f"got {value!r}")


@pytest.mark.parametrize("name", list(GATED))
@given(values=VALUES)
@settings(max_examples=300, deadline=None)
def test_gate_agrees_with_the_per_element_loops(name, values):
    call, reference = GATED[name]
    expected = reference(values)
    try:
        call(values)
    except (InputError, Int64OverflowError) as exc:
        assert expected is not None, f"rejected: {exc}"
        assert type(exc).__name__ == expected[0], exc
        if len(expected) == 2:
            assert _names(exc, expected[1]), exc
    else:
        assert expected is None
