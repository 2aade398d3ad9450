"""The four workloads: set-up (input generation) and one repetition each.

Constructing a workload generates every input from the seed; ``rep``
runs the timed body once through a runner (see ``worker.Runner``) that
times each op, records spans when tracing, and runs each op's check
outside the timed region.  Every library call goes through ``call(name,
fn, *args)`` so a traced repetition gets one span per public call.
"""

from __future__ import annotations

import array
import hashlib
import json
import math
import os
import random
import sys
import time
from pathlib import Path

from addsys.core import SumSystem, VerificationFailedError
from addsys.cuboid import (
    Cuboid,
    axis_sets,
    build_cuboid,
    cuboid_from_sumsystem,
    decompose_cuboid,
    verify_reversible,
)
from addsys.factorisation import JointOrderedFactorisation, enumerate_jofs
from addsys.sds import (
    INCLUSIVE,
    NON_INCLUSIVE,
    SdsSystem,
    sds_to_sumsys_inclusive,
    sds_to_sumsys_noninclusive,
    sumsys_to_sds_inclusive,
    sumsys_to_sds_noninclusive,
    verify_sds,
    verify_sds_two_part,
)
from addsys.squares import (
    SquareMatrix,
    associated_magic_square,
    most_perfect_square,
    reversible_square_even,
    verify_square,
)
from addsys.sumsystem import (
    build_sum_system,
    check_palindromic,
    decompose_sum_system,
    parity_signature,
    polynomial_check,
    verify_sum_system,
)

from proc import run_child
from oracle import (
    DIMS_E4,
    E4_CUBOID_SHA256,
    E4_PARTS,
    JOF_E4,
    JOF_TEXT_E4,
    canonical_json,
    cuboid_report,
    dims_by_product,
    divisors_ge2,
    multi_index,
    naive_count,
    naive_jofs,
    outer_entries,
    random_jof,
    build_parts,
    sds_inclusive,
    sds_noninclusive,
    sds_report,
    sds_two_part_report,
    square_report,
    sumsys_bump_report,
    sumsys_report,
)

HERE = Path(__file__).resolve().parent
D_E4 = 3_628_800

#: Half side of the large squares: side 512, 262,144 entries.
SQUARE_NU = 256
#: The sweep walks every dims vector with product up to this bound
#: (4,353 factorisations, about 3 s a pass on one core).
SWEEP_BOUND = 48
#: Reject inputs at or below this many sums also get the naive full-scan
#: oracle; larger ones rely on the closed forms alone.
NAIVE_LIMIT = 5000


def sha256_entries(entries) -> str:
    return hashlib.sha256(array.array("q", entries).tobytes()).hexdigest()


def passed(report) -> bool:
    return report.passed


class Large:
    """Every public call once on the paper's E4 system, plus large squares.

    E4 and the side-512 two-part system behind the squares are fixed;
    the seed picks the all-even system for the SDS maps (a random JOF of
    E4's dims).  Eleven of the 23 ops are sub-millisecond (including the
    palindromy and parity calls on E4), so the median op is always the
    fastest square op, ``verify_square`` on the associated magic square,
    which takes well under the next one's time.
    """

    name = "large"

    def __init__(self, seed: int, out_dir: Path) -> None:
        rng = random.Random(seed)
        self.jof = JointOrderedFactorisation(JOF_E4, DIMS_E4)
        self.ss = SumSystem(E4_PARTS)
        even_steps = random_jof(DIMS_E4, rng)
        self.even = SumSystem(build_parts(even_steps, DIMS_E4))
        self.even_sds = sds_noninclusive(self.even.parts)
        side = 2 * SQUARE_NU
        self.pair = sds_noninclusive(build_parts(((1, 2), (2, 2)) * 9, (side, side)))

    def rep(self, run) -> None:
        ss, jof = self.ss, self.jof
        run.op(
            lambda c: c("sumsystem.build_sum_system", build_sum_system, jof),
            lambda out: out.parts == E4_PARTS,
        )
        run.op(lambda c: c("sumsystem.verify_sum_system", verify_sum_system, ss, count=D_E4), passed)
        run.op(lambda c: c("sumsystem.polynomial_check", polynomial_check, ss), passed)
        for part in E4_PARTS:
            run.op(lambda c: c("sumsystem.check_palindromic", check_palindromic, part), passed)
        run.op(
            lambda c: c("sumsystem.parity_signature", parity_signature, ss, check=False),
            lambda out: sum(out) == 1,
        )
        run.op(
            lambda c: c("sumsystem.decompose_sum_system", decompose_sum_system, ss, check=False),
            lambda out: out.steps == JOF_E4 and out.dims == DIMS_E4,
        )
        M = run.op(
            lambda c: c("cuboid.build_cuboid", build_cuboid, jof, count=D_E4),
            lambda out: out.dims == DIMS_E4 and sha256_entries(out.entries) == E4_CUBOID_SHA256,
        )
        if M is None:
            M = Cuboid(DIMS_E4, tuple(outer_entries(E4_PARTS)))
        run.op(lambda c: c("cuboid.verify_reversible", verify_reversible, M), passed)
        run.op(
            lambda c: c("cuboid.axis_sets", axis_sets, M, check=False),
            lambda out: out.parts == E4_PARTS,
        )
        run.op(
            lambda c: c("cuboid.decompose_cuboid", decompose_cuboid, M, check=False),
            lambda out: out.steps == JOF_E4,
        )
        run.op(
            lambda c: c("cuboid.cuboid_from_sumsystem", cuboid_from_sumsystem, ss, check=False),
            lambda out: out.dims == DIMS_E4 and out.entries == M.entries,
        )
        del M
        even, even_sds = self.even, self.even_sds
        run.op(
            lambda c: c("sds.sumsys_to_sds_noninclusive", sumsys_to_sds_noninclusive, even, check=False),
            lambda out: out.parts == even_sds and out.flavour == NON_INCLUSIVE,
        )
        run.op(
            lambda c: c(
                "sds.sds_to_sumsys_noninclusive", sds_to_sumsys_noninclusive,
                SdsSystem(even_sds, NON_INCLUSIVE), check=False,
            ),
            lambda out: out.parts == even.parts,
        )
        a, b = self.pair
        square_entries = (2 * SQUARE_NU) ** 2
        for name, build, kind in (
            ("squares.reversible_square_even", reversible_square_even, "reversible"),
            ("squares.associated_magic_square", associated_magic_square, "associated"),
            ("squares.most_perfect_square", most_perfect_square, "most-perfect"),
        ):
            square = run.op(
                lambda c: c(name, build, a, b, count=square_entries),
                lambda out: square_report(out.plain_rows(), kind) is None,
            )
            if square is not None:
                run.op(lambda c: c("squares.verify_square", verify_square, square, kind), passed)


def battery(c, jof) -> bool:
    """The acceptance gate's criterion-5 battery on one JOF.

    Round trips through both decompositions, the cuboid and the matching
    SDS map, plus palindromy and the parity dichotomy of part maxima.
    """
    dims = jof.dims
    d = math.prod(dims)
    ss = c("sumsystem.build_sum_system", build_sum_system, jof)
    if not c("sumsystem.verify_sum_system", verify_sum_system, ss, count=d).passed:
        return False
    for part in ss.parts:
        if not c("sumsystem.check_palindromic", check_palindromic, part).passed:
            return False
    signature = c("sumsystem.parity_signature", parity_signature, ss, check=False)
    if all(n % 2 for n in dims):
        if any(signature):
            return False
    elif sum(signature) != 1:
        return False
    if c("sumsystem.decompose_sum_system", decompose_sum_system, ss, check=False).steps != jof.steps:
        return False
    M = c("cuboid.build_cuboid", build_cuboid, jof, count=d)
    if not c("cuboid.verify_reversible", verify_reversible, M).passed:
        return False
    if c("cuboid.axis_sets", axis_sets, M, check=False).parts != ss.parts:
        return False
    if c("cuboid.decompose_cuboid", decompose_cuboid, M, check=False).steps != jof.steps:
        return False
    if all(n % 2 == 0 for n in dims):
        system = c("sds.sumsys_to_sds_noninclusive", sumsys_to_sds_noninclusive, ss, check=False)
        back = c("sds.sds_to_sumsys_noninclusive", sds_to_sumsys_noninclusive, system, check=False)
        return back.parts == ss.parts
    if all(n % 2 for n in dims):
        system = c("sds.sumsys_to_sds_inclusive", sumsys_to_sds_inclusive, ss, check=False)
        back = c("sds.sds_to_sumsys_inclusive", sds_to_sumsys_inclusive, system, check=False)
        return back.parts == ss.parts
    return True


class Sweep:
    """Criterion 5's round-trip battery on every JOF with product <= SWEEP_BOUND.

    The set of JOFs is fixed by the criterion; the seed only shuffles
    the order of the dims vectors within each product.
    """

    name = "sweep"

    def __init__(self, seed: int, out_dir: Path) -> None:
        rng = random.Random(seed)
        self.order = []
        for band in dims_by_product(SWEEP_BOUND):
            rng.shuffle(band)
            self.order.extend(band)
        self.counts = {dims: naive_count(dims) for dims in self.order}

    def rep(self, run) -> None:
        for dims in self.order:
            jofs = run.timed(
                lambda c: c(
                    "factorisation.enumerate_jofs", lambda: list(enumerate_jofs(dims)), count=len
                ),
                lambda out: len(out) == self.counts[dims] and all(j.dims == dims for j in out),
            )
            for jof in jofs or ():
                run.op(lambda c: battery(c, jof), bool)


def _report_of(c, name, fn, arg, count):
    """A verifier's report, or the report carried by a check-failure."""
    try:
        result = c(name, fn, arg, count=count)
    except VerificationFailedError as exc:
        return exc.report
    return result if hasattr(result, "violated_invariant") else None


def _matches(expected):
    def check(report) -> bool:
        return (
            report is not None
            and not report.passed
            and (report.violated_invariant, report.witness) == expected
        )
    return check


class OracleDisagreement(RuntimeError):
    """A closed-form expectation differs from the naive scan (benchmark bug)."""


def _confirm(closed, naive_fn, size):
    if size <= NAIVE_LIMIT:
        naive = naive_fn()
        if naive != closed:
            raise OracleDisagreement(f"closed form {closed!r} but naive scan {naive!r}")
    return closed


def _bumps(parts):
    """(part, index, delta) moves of one element by +-1 that keep parts sorted."""
    out = []
    for i, p in enumerate(parts):
        for k in range(1, len(p)):
            if k + 1 == len(p) or p[k] + 1 < p[k + 1]:
                out.append((i, k, 1))
            if p[k] - 1 > p[k - 1]:
                out.append((i, k, -1))
    return out


def _random_dims(rng, n, min_order=2):
    """A random ordered factorisation of n with at least min_order factors."""
    while True:
        dims = []
        rest = n
        while rest > 1:
            f = rng.choice(divisors_ge2(rest))
            dims.append(f)
            rest //= f
        if len(dims) >= min_order:
            return tuple(dims)


def _sizes(low, high, count):
    """Log-spaced composite products from low to high: the same every seed."""
    out = []
    for k in range(count):
        n = round(low * (high / low) ** (k / (count - 1)))
        while len(divisors_ge2(n)) < 2:
            n += 1
        out.append(n)
    return out


def _window(rng, size):
    """A flat position in a fixed slice of the tensor, so scan cost is seed-stable."""
    return rng.randrange(size // 2, size // 2 + size // 20 + 1)


class Rejects:
    """Seeded invalid inputs from sweep size up to E4 size.

    Each op is one verify call or one default-check decompose call and
    must return the expected violated invariant and witness, computed
    during set-up by the naive oracle or, above NAIVE_LIMIT sums, by the
    closed form of the mutation (the two are cross-checked on every
    input small enough for both).  Sizes and mutation slices are the
    same for every seed.  The E4-size inputs mutate the E4 system
    itself; below that the seed picks the systems and factorisations.
    The seed picks every mutation within its slice, so the work per
    repetition hardly depends on it.
    """

    name = "rejects"

    def __init__(self, seed: int, out_dir: Path) -> None:
        rng = random.Random(seed)
        self.cases = []
        for k, n in enumerate(_sizes(100, 20_000, 40) + [120_000, 180_000, 240_000, 300_000]):
            self._sumsys_case(rng, lambda: _random_dims(rng, n), decompose=k % 2 == 1)
        # The E4-size inputs mutate the paper's E4 system itself: with a
        # random JOF of E4's dims, sorting the 3.6 M sums cost up to 40 %
        # more on some seeds than on others.
        for k in range(2):
            self._sumsys_case(rng, lambda: DIMS_E4, decompose=k == 1, parts=E4_PARTS)
        kinds = ("monotonicity", "vertex-sums", "entry-set", "swap")
        for k, n in enumerate(_sizes(100, 3000, 40)):
            self._cuboid_case(rng, _random_dims(rng, n), kinds[k % 4], decompose=k // 4 % 2 == 1)
        self._cuboid_case(rng, _random_dims(rng, 100_000), "entry-set", decompose=False)
        self._cuboid_case(rng, _random_dims(rng, 120_000), "vertex-sums", decompose=True)
        # Both E4-size cuboid rejects mutate copies of one base, which keeps
        # a single set of 3.6 M entry objects alive.
        base = outer_entries(E4_PARTS)
        self._cuboid_case(rng, DIMS_E4, "monotonicity", decompose=True, base=base)
        self._cuboid_case(rng, DIMS_E4, "vertex-sums", decompose=False, base=base)
        del base
        for k in range(40):
            self._sds_case(rng, k)
        for k in range(24):
            self._square_case(rng, k)

    def rep(self, run) -> None:
        for name, fn, arg, count, expected in self.cases:
            run.op(lambda c: _report_of(c, name, fn, arg, count), _matches(expected))

    def _sumsys_case(self, rng, pick_dims, decompose, parts=None):
        _, mutated, expected = bumped_sumsys(rng, pick_dims, parts)
        ss = SumSystem(tuple(tuple(p) for p in mutated))
        if decompose:
            self.cases.append(("sumsystem.decompose_sum_system", decompose_sum_system, ss, None, expected))
        else:
            self.cases.append(
                ("sumsystem.verify_sum_system", verify_sum_system, ss, ss.target_size, expected)
            )

    def _cuboid_case(self, rng, dims, kind, decompose, base=None):
        if base is None:
            base = outer_entries(build_parts(random_jof(dims, rng), dims))
        entries = list(base)
        size = len(entries)
        closed = None
        if kind == "vertex-sums":
            closed = _bump_inner_entry(rng, dims, entries)
            if closed is None:
                kind = "monotonicity"
        if kind == "monotonicity":
            p = _window(rng, size)
            p += p % dims[0] == 0
            entries[p] = entries[p - 1]
            closed = ("monotonicity", {"direction": 1, "index": multi_index(dims, p - 1)})
        elif kind == "entry-set":
            entries = [2 * x for x in entries]
            closed = ("entry-set", next(x for x in entries if x >= size))
        elif kind == "swap":
            while closed is None:
                p, q = rng.sample(range(size), 2)
                entries[p], entries[q] = entries[q], entries[p]
                closed = cuboid_report(dims, entries)
        expected = _confirm(closed, lambda: cuboid_report(dims, entries), size)
        M = Cuboid(tuple(dims), tuple(entries))
        if decompose:
            self.cases.append(("cuboid.decompose_cuboid", decompose_cuboid, M, None, expected))
        else:
            self.cases.append(("cuboid.verify_reversible", verify_reversible, M, None, expected))

    def _sds_case(self, rng, k):
        two_part = k % 2 == 0
        inclusive = k % 4 < 2
        pool = (5, 7, 9, 11, 13) if inclusive else (6, 8, 10, 12, 14)
        sizes = [pool[(k + i) % len(pool)] for i in range(2 if two_part else 1 + k % 3)]
        while True:
            parts = build_parts(random_jof(sizes, rng), sizes)
            sds = [list(p) for p in (sds_inclusive(parts) if inclusive else sds_noninclusive(parts))]
            flavour = INCLUSIVE if inclusive else NON_INCLUSIVE
            if rng.random() < 0.2:
                flavour = NON_INCLUSIVE if inclusive else INCLUSIVE
            else:
                i = rng.randrange(len(sds))
                pos = rng.randrange(len(sds[i]))
                sds[i][pos] += rng.choice((-2, -1, 1, 2))
                if sds[i][pos] < 1 or sorted(set(sds[i])) != sds[i]:
                    continue
            if two_part:
                expected = sds_two_part_report(sds, flavour == INCLUSIVE)
            else:
                expected = sds_report(sds, flavour == INCLUSIVE)
            if expected is not None:
                break
        system = SdsSystem(tuple(tuple(p) for p in sds), flavour)
        if two_part:
            self.cases.append(("sds.verify_sds_two_part", verify_sds_two_part, system, None, expected))
        else:
            self.cases.append(("sds.verify_sds", verify_sds, system, None, expected))

    def _square_case(self, rng, k):
        kind = ("reversible", "associated", "most-perfect")[k % 3]
        while True:
            if kind == "reversible":
                n = 8 + 7 * k % 33
                a, b = build_parts(random_jof((n, n), rng), (n, n))
                rows = [[x + y + 1 for y in b] for x in a]
            else:
                nu = 4 + 2 * (k % 8)
                parts = build_parts(random_jof((2 * nu, 2 * nu), rng), (2 * nu, 2 * nu))
                build = associated_magic_square if kind == "associated" else most_perfect_square
                rows = build(*sds_noninclusive(parts)).plain_rows()
                if square_report(rows, kind) is not None:
                    raise OracleDisagreement(f"library {kind} square fails the naive scan")
            n = len(rows)
            check_as = kind
            if k % 2:
                p, q = rng.sample(range(n * n), 2)
                (pi, pj), (qi, qj) = divmod(p, n), divmod(q, n)
                rows[pi][pj], rows[qi][qj] = rows[qi][qj], rows[pi][pj]
            else:
                check_as = rng.choice([x for x in ("reversible", "associated", "most-perfect") if x != kind])
            expected = square_report(rows, check_as)
            if expected is not None:
                break
        M = SquareMatrix.from_plain(rows)
        self.cases.append(
            ("squares.verify_square", lambda s, kind=check_as: verify_square(s, kind), M, None, expected)
        )


def _bump_inner_entry(rng, dims, entries):
    """Move one entry off every axis by +-1 without breaking monotonicity.

    Only the vertex-sum property then fails, first at that entry.  Slack
    exists only where the direction holding consecutive values ends a
    run; when that direction is a slow one, no such entry may lie in the
    window, and the search widens to the upper half of the tensor.
    """
    size = len(entries)
    strides = [math.prod(dims[:j]) for j in range(len(dims))]
    for attempt in range(2400):
        p = _window(rng, size) if attempt < 400 else rng.randrange(size // 2, size)
        idx = multi_index(dims, p)
        if sum(k > 1 for k in idx) < 2:
            continue
        x = entries[p]
        up = all(entries[p + s] > x + 1 for s, k, n in zip(strides, idx, dims) if k < n)
        down = all(entries[p - s] < x - 1 for s, k in zip(strides, idx) if k > 1)
        if up or down:
            entries[p] = x + 1 if up else x - 1
            return ("vertex-sums", idx)
    return None


def bumped_sumsys(rng, pick_dims, parts=None):
    """A valid system with one element moved by +-1, and its expected report.

    ``parts`` fixes the system; by default the seed picks it.  The moved
    element lies in the slice ``_window`` draws from when one can, because
    the verifier's scan runs up to it, so scan cost is seed-stable.
    """
    while True:
        dims = pick_dims()
        if parts is None:
            parts = build_parts(random_jof(dims, rng), dims)
        moves = _bumps(parts)
        if moves:
            break
        parts = None
    d = math.prod(dims)
    low, high = d // 2, d // 2 + d // 20
    moves = [m for m in moves if low <= parts[m[0]][m[1]] <= high] or moves
    i, k, delta = rng.choice(moves)
    mutated = [list(p) for p in parts]
    mutated[i][k] += delta
    expected = _confirm(
        sumsys_bump_report(parts, i, k, delta), lambda: sumsys_report(mutated), math.prod(dims)
    )
    return dims, mutated, expected


def _exact(text: str):
    want = (text + "\n").encode()
    return lambda out: out == want


def _square_ok(n: int, kind: str):
    def check(out: bytes) -> bool:
        doc = json.loads(out)
        return doc["n"] == n and square_report(doc["entries"], kind) is None
    return check


PASSED = canonical_json({"passed": True})


class Cli:
    """A fixed mix of ``python -m addsys`` commands, one child at a time.

    A closed loop with a single client: each child starts when the
    previous one has exited.  The E4 documents are fixed; the seed picks
    the small systems, the reject, the square pairs and the dims
    vectors for ``jof enumerate``.
    """

    name = "cli"

    def __init__(self, seed: int, out_dir: Path) -> None:
        rng = random.Random(seed)
        self.dir = out_dir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.err_path = self.dir / "stderr.txt"
        self.spans_path = self.dir / "child-spans.json"
        self.peak_kb = {False: 0, True: 0}
        self.bytes_out = 0

        def write(name: str, doc) -> str:
            path = self.dir / name
            path.write_text(canonical_json(doc), encoding="utf-8")
            return str(path)

        def sumsys_doc(dims, parts):
            return {"dims": list(dims), "parts": [list(p) for p in parts]}

        e4_doc = sumsys_doc(DIMS_E4, E4_PARTS)
        e4_ss = write("e4-sumsys.json", e4_doc)
        cuboid_text = canonical_json({"dims": list(DIMS_E4), "entries": outer_entries(E4_PARTS)})
        e4_cuboid = self.dir / "e4-cuboid.json"
        e4_cuboid.write_text(cuboid_text, encoding="utf-8")
        cuboid_digest = hashlib.sha256((cuboid_text + "\n").encode()).hexdigest()
        del cuboid_text
        e4_cuboid = str(e4_cuboid)
        e4_jof = canonical_json({"dims": list(DIMS_E4), "jof": JOF_TEXT_E4})

        dims, mutated, (invariant, witness) = bumped_sumsys(
            rng, lambda: _random_dims(rng, 24_000)
        )
        reject = write("reject-sumsys.json", sumsys_doc(dims, mutated))
        reject_report = canonical_json(
            {"passed": False, "violated_invariant": invariant, "witness": witness}
        )

        even_dims = rng.choice([(6, 4, 2), (8, 6), (10, 4, 4), (12, 8, 2), (14, 8, 6), (4, 4, 4, 2)])
        even_parts = build_parts(random_jof(even_dims, rng), even_dims)
        even = write("even-sumsys.json", sumsys_doc(even_dims, even_parts))
        even_sds_doc = {"flavour": NON_INCLUSIVE, "parts": [list(p) for p in sds_noninclusive(even_parts)]}
        even_sds = write("even-sds.json", even_sds_doc)
        odd_dims = rng.choice([(5, 3, 3), (7, 3), (9, 5), (15, 7, 9), (3, 3, 3, 3)])
        odd_parts = build_parts(random_jof(odd_dims, rng), odd_dims)
        odd = write("odd-sumsys.json", sumsys_doc(odd_dims, odd_parts))
        odd_sds_doc = {"flavour": INCLUSIVE, "parts": [list(p) for p in sds_inclusive(odd_parts)]}

        nu = rng.choice((4, 6, 8, 10, 12))
        pair_dims = (2 * nu, 2 * nu)
        pair = sds_noninclusive(build_parts(random_jof(pair_dims, rng), pair_dims))
        pair_even = write("pair-even.json", {"flavour": NON_INCLUSIVE, "parts": [list(p) for p in pair]})
        nu_odd = rng.randint(3, 10)
        pair_dims = (2 * nu_odd + 1, 2 * nu_odd + 1)
        pair = sds_inclusive(build_parts(random_jof(pair_dims, rng), pair_dims))
        pair_odd = write("pair-odd.json", {"flavour": INCLUSIVE, "parts": [list(p) for p in pair]})
        side = rng.randint(8, 32)
        a, b = build_parts(random_jof((side, side), rng), (side, side))
        square = write("square.json", {"entries": [[x + y + 1 for y in b] for x in a], "n": side})

        enum_dims = rng.choice([(12, 8), (6, 4, 4), (8, 6, 2), (18, 12), (30, 8)])
        enum_text = ",".join(map(str, enum_dims))
        enum_doc = {
            "dims": list(enum_dims),
            "jofs": [",".join(f"{j}:{f}" for j, f in steps) for steps in naive_jofs(enum_dims)],
        }
        count_dims = rng.choice([(12, 8, 6), (60, 24), (36, 10, 4), (16, 9, 5)])
        count_text = ",".join(map(str, count_dims))

        self.commands = [
            (["sumsys", "from-jof", JOF_TEXT_E4], 0, _exact(canonical_json(e4_doc))),
            (["sumsys", "verify", e4_ss], 0, _exact(PASSED)),
            (["sumsys", "decompose", e4_ss], 0, _exact(e4_jof)),
            (
                ["cuboid", "build", "--jof", JOF_TEXT_E4], 0,
                lambda out: hashlib.sha256(out).hexdigest() == cuboid_digest,
            ),
            (["cuboid", "verify", e4_cuboid], 0, _exact(PASSED)),
            (["cuboid", "decompose", e4_cuboid], 0, _exact(e4_jof)),
            (["sumsys", "verify", reject], 1, _exact(reject_report)),
            (["sds", "from-sumsys", even], 0, _exact(canonical_json(even_sds_doc))),
            (["sds", "to-sumsys", even_sds], 0, _exact(canonical_json(sumsys_doc(even_dims, even_parts)))),
            (["sds", "verify", even_sds], 0, _exact(PASSED)),
            (["sds", "from-sumsys", odd], 0, _exact(canonical_json(odd_sds_doc))),
            (["square", "reversible", "--sds", pair_even], 0, _square_ok(2 * nu, "reversible")),
            (["square", "reversible", "--sds", pair_odd], 0, _square_ok(2 * nu_odd + 1, "reversible")),
            (["square", "magic", "--sds", pair_even], 0, _square_ok(2 * nu, "associated")),
            (["square", "mostperfect", "--sds", pair_even], 0, _square_ok(2 * nu, "most-perfect")),
            (["square", "verify", "--kind", "reversible", square], 0, _exact(PASSED)),
            (["jof", "enumerate", "--dims", enum_text], 0, _exact(canonical_json(enum_doc))),
            (
                ["jof", "enumerate", "--dims", count_text, "--count-only"], 0,
                _exact(canonical_json({"count": naive_count(count_dims)})),
            ),
        ]
        files = {arg for argv, _, _ in self.commands for arg in argv if arg.startswith(str(self.dir))}
        self.bytes_in = sum(
            os.path.getsize(arg) for argv, _, _ in self.commands for arg in argv if arg in files
        )

    def rep(self, run) -> None:
        self.bytes_out = 0
        for argv, code, check in self.commands:
            run.op(
                lambda c: self._spawn(run.tracer, argv),
                lambda result: result[0] == code and check(result[1]),
            )

    def _run(self, argv):
        with open(self.err_path, "wb") as err:
            return run_child(argv, err)

    def _spawn(self, tracer, argv):
        if tracer is None:
            code, out, peak = self._run([sys.executable, "-m", "addsys", *argv])
        else:
            child = [sys.executable, str(HERE / "cli_child.py"), str(self.spans_path), *argv]
            sid, parent = tracer.open()
            start = time.perf_counter_ns()
            code, out, peak = self._run(child)
            tracer.close(sid, parent, "cli.subprocess", start)
            with open(self.spans_path, encoding="utf-8") as handle:
                tracer.adopt(json.load(handle), sid)
        self.peak_kb[tracer is not None] = max(self.peak_kb[tracer is not None], peak)
        self.bytes_out += len(out)
        return code, out


WORKLOADS = {cls.name: cls for cls in (Large, Sweep, Rejects, Cli)}
