"""Acceptance gate: one test per criterion, one printed verdict line each.

Criterion 5 enumerates factorisations exhaustively in increasing product
order under its stated wall-clock budget.  The full range (dims products
up to 5000) contains 167,649,726,513 factorisations, so the sweep cannot
finish inside any practical budget; the test runs the real battery on
the prefix it can afford, then fails honestly with progress statistics.
Criterion 7 checks its properties on every system the sweep examined.
Budgets and bounds are overridable for experimentation:
ADDSYS_SWEEP_PRODUCT and ADDSYS_SWEEP_SECONDS.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import sys
import time
from collections import Counter

import pytest

from addsys.cli import main as cli_main
from addsys.core import SumSystem
from addsys.cuboid import (
    Cuboid,
    _scan_reversible,
    axis_sets,
    build_cuboid,
    building_op,
    decompose_cuboid,
    kron_dir,
)
from addsys.factorisation import JointOrderedFactorisation, count_jofs, enumerate_jofs
from addsys.sds import (
    sds_to_sumsys_inclusive,
    sds_to_sumsys_noninclusive,
    sumsys_to_sds_inclusive,
    sumsys_to_sds_noninclusive,
    verify_sds,
)
from addsys.squares import (
    associated_magic_square,
    most_perfect_square,
    reversible_square_even,
)
from addsys.sumsystem import (
    _scan_sum_system,
    build_sum_system,
    check_palindromic,
    decompose_sum_system,
    parity_signature,
    polynomial_check,
    verify_sum_system,
)
from conftest import (
    DIMS_E2,
    DIMS_E3,
    E1A_PARTS,
    E1B_PARTS,
    E2_SDS_PARTS,
    E3_SDS_PARTS,
    E4_PARTS,
    JOF_E2,
    JOF_E3,
    JOF_E4,
    DIMS_E4,
    JOF_TEXT_E1A,
    JOF_TEXT_E1B,
)
from support import (
    dims_vectors_up_to,
    grid_associated_ok,
    grid_blocks_ok,
    grid_diagonal_pairs_ok,
    grid_entry_set_ok,
    grid_magic_ok,
    grid_reversal_ok,
    grid_vertex_ok,
    minkowski_oracle,
    oracle_count,
)

SWEEP_PRODUCT = int(os.environ.get("ADDSYS_SWEEP_PRODUCT", "5000"))
SWEEP_BUDGET = float(os.environ.get("ADDSYS_SWEEP_SECONDS", "300"))
ORACLE_PRODUCT = int(os.environ.get("ADDSYS_ORACLE_PRODUCT", "720"))


#: Verdict lines, one per criterion, replayed by the terminal-summary
#: hook in conftest so they show regardless of output capturing.
ANNOUNCEMENTS: list[str] = []


def announce(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    ANNOUNCEMENTS.append(line)
    print(line, flush=True)


def run_cli(capsys, *argv, stdin=None):
    import io

    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = cli_main(list(argv))
        finally:
            sys.stdin = old
    else:
        code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_01_first_worked_example(capsys):
    start = time.perf_counter()
    code_a, out_a = run_cli(capsys, "sumsys", "from-jof", JOF_TEXT_E1A)
    code_b, out_b = run_cli(capsys, "sumsys", "from-jof", JOF_TEXT_E1B)
    doc_a, doc_b = json.loads(out_a), json.loads(out_b)
    exact = (
        code_a == 0
        and code_b == 0
        and doc_a["parts"] == [list(p) for p in E1A_PARTS]
        and doc_b["parts"] == [list(p) for p in E1B_PARTS]
    )
    verified = (
        verify_sum_system(SumSystem(tuple(tuple(p) for p in doc_a["parts"]))).passed
        and verify_sum_system(SumSystem(tuple(tuple(p) for p in doc_b["parts"]))).passed
    )
    elapsed = time.perf_counter() - start
    ok = exact and verified and elapsed < 1.0
    announce(1, ok, f"both dims (15,8,6) systems exact and cover 0..719 ({elapsed:.3f}s)")
    assert exact and verified
    assert elapsed < 1.0


def test_criterion_02_noninclusive_example():
    start = time.perf_counter()
    ss = build_sum_system(JointOrderedFactorisation(JOF_E2, DIMS_E2))
    system = sumsys_to_sds_noninclusive(ss)
    exact = system.parts == E2_SDS_PARTS
    report = verify_sds(system)
    # Required target for sizes (7, 4, 3): the 672 odd numbers -671 .. 671.
    signed = [sorted(set(p) | {-x for x in p}) for p in system.parts]
    covered = minkowski_oracle(signed) == list(range(-671, 672, 2))
    elapsed = time.perf_counter() - start
    ok = exact and report.passed and covered and elapsed < 1.0
    announce(2, ok, f"sizes (7,4,3) system exact, covers odd -671..671 ({elapsed:.3f}s)")
    assert exact
    assert report.passed
    assert covered
    assert elapsed < 1.0


def test_criterion_03_inclusive_example():
    start = time.perf_counter()
    ss = build_sum_system(JointOrderedFactorisation(JOF_E3, DIMS_E3))
    system = sumsys_to_sds_inclusive(ss)
    exact = system.parts == E3_SDS_PARTS
    report = verify_sds(system)
    signed = [sorted(set(p) | {0} | {-x for x in p}) for p in system.parts]
    covered = minkowski_oracle(signed) == list(range(-472, 473))
    elapsed = time.perf_counter() - start
    ok = exact and report.passed and covered and elapsed < 1.0
    announce(3, ok, f"sizes (7,3,4) system exact, covers -472..472 ({elapsed:.3f}s)")
    assert exact
    assert report.passed
    assert covered
    assert elapsed < 1.0


def test_criterion_04_large_example():
    start = time.perf_counter()
    ss = build_sum_system(JointOrderedFactorisation(JOF_E4, DIMS_E4))
    exact = ss.parts == E4_PARTS
    # The public verifier accepts through the certificate; the ordered
    # scan checks every one of the 3628800 sums independently.
    report = verify_sum_system(ss)
    scan = _scan_sum_system(ss)
    elapsed = time.perf_counter() - start
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 * 1024)
    ok = exact and report.passed and scan.passed and elapsed < 30.0 and peak_gb < 2.0
    announce(
        4,
        ok,
        f"five printed sets exact, 3628800 sums each once"
        f" ({elapsed:.2f}s, peak {peak_gb:.2f} GB)",
    )
    assert exact
    assert report.passed
    assert scan.passed
    assert elapsed < 30.0
    assert peak_gb < 2.0


class SweepStats:
    def __init__(self):
        self.examined = 0
        self.palindromy_failures = []
        self.parity_failures = []
        self.complete = False
        self.elapsed = 0.0
        self.total = 0
        self.reason = ""
        self.last_product = 0


def _factor_multisets(bound):
    def rec(minimum, prod):
        yield ()
        f = minimum
        while prod * f <= bound:
            for tail in rec(f, prod * f):
                yield (f,) + tail
            f += 1
    for ms in rec(2, 1):
        if ms:
            yield ms


def exact_total_jofs(bound: int) -> int:
    total = 0
    for ms in _factor_multisets(bound):
        counts = Counter(ms)
        perms = math.factorial(len(ms))
        for c in counts.values():
            perms //= math.factorial(c)
        total += perms * count_jofs(ms)
    return total


def _battery(jof, stats: SweepStats) -> None:
    # The ordered scans, not the certificate: this battery checks the
    # stage walk, so it must not rely on it.
    ss = build_sum_system(jof)
    assert _scan_sum_system(ss).passed, jof.steps
    for part in ss.parts:
        if not check_palindromic(part).passed:
            stats.palindromy_failures.append((jof.steps, part))
            break
    signature = parity_signature(ss, check=False)
    if all(n % 2 for n in jof.dims):
        parity_ok = signature == (0,) * len(signature)
    else:
        parity_ok = sum(signature) == 1
    if not parity_ok:
        stats.parity_failures.append((jof.steps, signature))
    back = decompose_sum_system(ss, check=False)
    assert back.steps == jof.steps, jof.steps
    M = build_cuboid(jof)
    assert _scan_reversible(M).passed, jof.steps
    assert axis_sets(M, check=False).parts == ss.parts, jof.steps
    assert decompose_cuboid(M, check=False).steps == jof.steps, jof.steps
    if all(n % 2 == 0 for n in jof.dims):
        system = sumsys_to_sds_noninclusive(ss, check=False)
        assert sds_to_sumsys_noninclusive(system, check=False).parts == ss.parts, jof.steps
    elif all(n % 2 for n in jof.dims):
        system = sumsys_to_sds_inclusive(ss, check=False)
        assert sds_to_sumsys_inclusive(system, check=False).parts == ss.parts, jof.steps


@pytest.fixture(scope="module")
def sweep() -> SweepStats:
    stats = SweepStats()
    stats.total = exact_total_jofs(SWEEP_PRODUCT)
    start = time.monotonic()
    probation = min(60.0, SWEEP_BUDGET / 5.0)
    bailed = False
    for product, dims in dims_vectors_up_to(SWEEP_PRODUCT):
        stats.last_product = product
        for jof in enumerate_jofs(dims):
            _battery(jof, stats)
            stats.examined += 1
            if stats.examined % 512 == 0:
                elapsed = time.monotonic() - start
                if elapsed > SWEEP_BUDGET:
                    stats.reason = f"budget of {SWEEP_BUDGET:.0f}s exhausted"
                    bailed = True
                    break
                if elapsed > probation and stats.examined < stats.total:
                    projected = stats.total * elapsed / stats.examined
                    if projected > 2 * SWEEP_BUDGET:
                        stats.reason = (
                            f"projected {projected / 3600:.0f} hours for all"
                            f" {stats.total} factorisations"
                        )
                        bailed = True
                        break
        if bailed:
            break
    stats.elapsed = time.monotonic() - start
    stats.complete = not bailed
    return stats


def test_criterion_05_round_trip_sweep(sweep):
    ok = sweep.complete and sweep.elapsed < SWEEP_BUDGET
    detail = (
        f"{sweep.examined:,} of {sweep.total:,} factorisations"
        f" (dims products <= {SWEEP_PRODUCT}) in {sweep.elapsed:.1f}s,"
        f" zero round-trip failures"
    )
    if not sweep.complete:
        detail += f"; stopped at product {sweep.last_product}: {sweep.reason}"
    announce(5, ok, detail)
    assert sweep.complete, (
        "exhaustive sweep cannot finish within its budget: " + detail
    )
    assert sweep.elapsed < SWEEP_BUDGET


def test_criterion_06_oracle_equivalence():
    rng = random.Random(74207281)
    dims_pool = [d for _, d in dims_vectors_up_to(240)]
    disagreements = 0
    cases = 0
    while cases < 1000:
        dims = rng.choice(dims_pool)
        jofs = list(enumerate_jofs(dims))
        ss = build_sum_system(rng.choice(jofs))
        if cases % 2 == 0:
            candidate = ss
        else:
            parts = [list(p) for p in ss.parts]
            i = rng.randrange(len(parts))
            if len(parts[i]) < 2:
                continue
            k = rng.randrange(1, len(parts[i]))
            parts[i][k] += rng.choice((-1, 1))
            row = parts[i]
            if row[k] <= row[k - 1] or (k + 1 < len(row) and row[k] >= row[k + 1]):
                continue
            candidate = SumSystem(tuple(tuple(p) for p in parts))
        scan = _scan_sum_system(candidate)
        if polynomial_check(candidate).passed != scan.passed:
            disagreements += 1
        elif verify_sum_system(candidate) != scan:
            disagreements += 1
        cases += 1
    ok = disagreements == 0
    announce(6, ok, f"{cases} fuzzed systems, {disagreements} disagreements")
    assert disagreements == 0


def test_criterion_07_palindromy_and_parity(sweep):
    ok = not sweep.palindromy_failures and not sweep.parity_failures
    announce(
        7,
        ok,
        f"all parts palindromic and maxima parity dichotomy held on all"
        f" {sweep.examined:,} systems examined by the sweep",
    )
    assert not sweep.palindromy_failures
    assert not sweep.parity_failures


def test_criterion_08_tensor_laws():
    rng = random.Random(30402457)

    def random_cuboid():
        order = rng.randint(1, 3)
        dims = tuple(rng.randint(1, 3) for _ in range(order))
        size = math.prod(dims)
        return Cuboid(dims, tuple(rng.randint(0, 50) for _ in range(size)))

    assoc_failures = 0
    for _ in range(200):
        M = random_cuboid()
        j = rng.randint(1, M.order)
        v = [rng.randint(0, 6) for _ in range(rng.randint(1, 4))]
        w = [rng.randint(0, 6) for _ in range(rng.randint(1, 4))]
        direct = kron_dir([a * b for a in v for b in w], j, M)
        nested = kron_dir(v, j, kron_dir(w, j, M))
        if direct != nested:
            assoc_failures += 1
    fusion_failures = 0
    for _ in range(200):
        M = random_cuboid()
        j = rng.randint(1, M.order)
        k1, k2 = rng.randint(1, 6), rng.randint(1, 6)
        if building_op(j, k1, building_op(j, k2, M)) != building_op(j, k1 * k2, M):
            fusion_failures += 1
    ok = assoc_failures == 0 and fusion_failures == 0
    announce(
        8,
        ok,
        f"associativity and fusion each held on 200 randomised instances"
        f" ({assoc_failures + fusion_failures} failures)",
    )
    assert assoc_failures == 0
    assert fusion_failures == 0


def test_criterion_09_squares():
    rev = reversible_square_even((7, 9), (2, 6)).plain_rows()
    rev_ok = grid_entry_set_ok(rev) and grid_vertex_ok(rev) and grid_reversal_ok(rev)

    magic = associated_magic_square((7, 9), (2, 6), (1, -1), (1, -1)).plain_rows()
    sums = [sum(r) for r in magic] + [sum(col) for col in zip(*magic)]
    magic_ok = (
        set(sums) == {34}
        and grid_associated_ok(magic)
        and grid_entry_set_ok(magic)
    )

    # Derived route: a dims (4, 4) sum system mapped to its two-part system.
    base = build_sum_system(
        JointOrderedFactorisation(((1, 2), (2, 2), (1, 2), (2, 2)), (4, 4))
    )
    pair = sumsys_to_sds_noninclusive(base)
    perfect = most_perfect_square(*pair.parts).plain_rows()
    perfect_ok = (
        grid_entry_set_ok(perfect)
        and grid_blocks_ok(perfect)
        and grid_diagonal_pairs_ok(perfect)
    )
    ok = rev_ok and magic_ok and perfect_ok
    announce(
        9,
        ok,
        "reversible entries 1..16 with both symmetries; magic constant 34 with"
        " centre pairs; derived most perfect square passes toroidal block and"
        " diagonal checks",
    )
    assert rev_ok
    assert magic_ok
    assert perfect_ok


def test_criterion_10_counting_oracle():
    start = time.perf_counter()
    mismatches = 0
    vectors = 0
    for _, dims in dims_vectors_up_to(ORACLE_PRODUCT):
        vectors += 1
        if count_jofs(dims) != oracle_count(dims):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0
    announce(
        10,
        ok,
        f"{vectors:,} dims vectors (products <= {ORACLE_PRODUCT}),"
        f" {mismatches} mismatches against the recursive oracle ({elapsed:.1f}s)",
    )
    assert mismatches == 0
