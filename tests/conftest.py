"""Golden fixtures: four worked factorisations and the systems they print."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

# Example family 1: dims (15, 8, 6), two factorisations, same target 0..719.
JOF_E1A = ((1, 5), (2, 2), (1, 3), (3, 3), (2, 2), (3, 2), (2, 2))
JOF_E1B = ((1, 5), (3, 3), (2, 2), (3, 2), (2, 2), (1, 3), (2, 2))
DIMS_E1 = (15, 8, 6)
E1A_PARTS = (
    (0, 1, 2, 3, 4, 10, 11, 12, 13, 14, 20, 21, 22, 23, 24),
    (0, 5, 90, 95, 360, 365, 450, 455),
    (0, 30, 60, 180, 210, 240),
)
E1B_PARTS = (
    (0, 1, 2, 3, 4, 120, 121, 122, 123, 124, 240, 241, 242, 243, 244),
    (0, 15, 60, 75, 360, 375, 420, 435),
    (0, 5, 10, 30, 35, 40),
)

# Example family 2: dims (14, 8, 6), all even, plus its non-inclusive partner.
JOF_E2 = ((1, 2), (3, 3), (2, 2), (3, 2), (2, 2), (1, 7), (2, 2))
DIMS_E2 = (14, 8, 6)
E2_PARTS = (
    (0, 1, 48, 49, 96, 97, 144, 145, 192, 193, 240, 241, 288, 289),
    (0, 6, 24, 30, 336, 342, 360, 366),
    (0, 2, 4, 12, 14, 16),
)
E2_SDS_PARTS = (
    (1, 95, 97, 191, 193, 287, 289),
    (306, 318, 354, 366),
    (8, 12, 16),
)

# Example family 3: dims (15, 7, 9), all odd, plus its inclusive partner.
JOF_E3 = ((1, 5), (2, 7), (3, 3), (1, 3), (3, 3))
DIMS_E3 = (15, 7, 9)
E3_PARTS = (
    (0, 1, 2, 3, 4, 105, 106, 107, 108, 109, 210, 211, 212, 213, 214),
    (0, 5, 10, 15, 20, 25, 30),
    (0, 35, 70, 315, 350, 385, 630, 665, 700),
)
E3_SDS_PARTS = (
    (1, 2, 103, 104, 105, 106, 107),
    (5, 10, 15),
    (35, 280, 315, 350),
)

# Example family 4: dims (28, 20, 30, 18, 12), target 0 .. 10! - 1.
JOF_E4 = (
    (1, 7), (2, 4), (5, 2), (3, 2), (4, 2), (2, 5),
    (4, 9), (3, 3), (1, 4), (5, 3), (3, 5), (5, 2),
)
DIMS_E4 = (28, 20, 30, 18, 12)
E4_PARTS = (
    (
        0, 1, 2, 3, 4, 5, 6,
        30240, 30241, 30242, 30243, 30244, 30245, 30246,
        60480, 60481, 60482, 60483, 60484, 60485, 60486,
        90720, 90721, 90722, 90723, 90724, 90725, 90726,
    ),
    (
        0, 7, 14, 21, 224, 231, 238, 245, 448, 455, 462, 469,
        672, 679, 686, 693, 896, 903, 910, 917,
    ),
    (
        0, 56, 10080, 10136, 20160, 20216,
        362880, 362936, 372960, 373016, 383040, 383096,
        725760, 725816, 735840, 735896, 745920, 745976,
        1088640, 1088696, 1098720, 1098776, 1108800, 1108856,
        1451520, 1451576, 1461600, 1461656, 1471680, 1471736,
    ),
    (
        0, 112, 1120, 1232, 2240, 2352, 3360, 3472, 4480, 4592,
        5600, 5712, 6720, 6832, 7840, 7952, 8960, 9072,
    ),
    (
        0, 28, 120960, 120988, 241920, 241948,
        1814400, 1814428, 1935360, 1935388, 2056320, 2056348,
    ),
)

JOF_TEXT_E1A = "1:5,2:2,1:3,3:3,2:2,3:2,2:2"
JOF_TEXT_E1B = "1:5,3:3,2:2,3:2,2:2,1:3,2:2"
JOF_TEXT_E2 = "1:2,3:3,2:2,3:2,2:2,1:7,2:2"
JOF_TEXT_E3 = "1:5,2:7,3:3,1:3,3:3"
JOF_TEXT_E4 = "1:7,2:4,5:2,3:2,4:2,2:5,4:9,3:3,1:4,5:3,3:5,5:2"


def src_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this checkout's addsys."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, inherited)))}


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance verdict lines after the test report."""
    announcements = []
    import sys

    module = sys.modules.get("test_acceptance")
    if module is not None:
        announcements = getattr(module, "ANNOUNCEMENTS", [])
    if announcements:
        terminalreporter.section("acceptance criteria")
        for line in announcements:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def e1a_system():
    from addsys import JointOrderedFactorisation, build_sum_system

    return build_sum_system(JointOrderedFactorisation(JOF_E1A, DIMS_E1))


@pytest.fixture(scope="session")
def e2_system():
    from addsys import JointOrderedFactorisation, build_sum_system

    return build_sum_system(JointOrderedFactorisation(JOF_E2, DIMS_E2))


@pytest.fixture(scope="session")
def e3_system():
    from addsys import JointOrderedFactorisation, build_sum_system

    return build_sum_system(JointOrderedFactorisation(JOF_E3, DIMS_E3))


@pytest.fixture(scope="session")
def e4_sds_reject():
    """The non-inclusive image of E4, its part 5 element 1814428 raised by 2.

    The ordered scan names witness -3386881 for it.
    """
    from addsys import SdsSystem, SumSystem, sumsys_to_sds_noninclusive

    s = sumsys_to_sds_noninclusive(SumSystem(E4_PARTS), check=False)
    parts = [list(p) for p in s.parts]
    parts[4][3] += 2
    return SdsSystem(tuple(tuple(p) for p in parts), s.flavour)
