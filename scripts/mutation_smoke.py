#!/usr/bin/env python3
"""Mutation smoke test of the library's fast paths, run by hand.

Each mutant is one text substitution (file, old, new) in ``src/addsys``
with the test files expected to kill it.  For each mutant the script
copies the checkout to a temporary directory, applies the substitution
there, and runs pytest on those test files, stopping at the first
failure: the mutant is killed when a test fails.  The checkout itself is
never changed.  Run from the repository root:

    python scripts/mutation_smoke.py              # every mutant, 5-60 s each
    python scripts/mutation_smoke.py NAME ...     # the named mutants
    python scripts/mutation_smoke.py --check      # each old text occurs once

It prints one line per mutant and exits 1 if a mutant survives, or, with
``--check``, if an old text does not occur exactly once in its file.
Tier-1 runs ``--check``, so the list cannot rot silently.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "addsys"

#: (name, file in src/addsys, old text, new text, test files expected to kill it)
MUTANTS = [
    (
        "walk-witness-off",
        "sumsystem.py",
        "    if stop.witness is not None:\n",
        "    if False:\n",
        ("tests/test_sumsystem.py", "tests/test_certificate.py", "tests/test_golden.py"),
    ),
    (
        "sds-witness-sign",
        "sds.py",
        "witness=h * report.witness - lift)",
        "witness=h * report.witness + lift)",
        ("tests/test_sds.py", "tests/test_certificate.py", "tests/test_golden.py"),
    ),
    (
        "unpacked-span-short",
        "cuboid.py",
        "yield p, start + width\n",
        "yield p, start + width - 1\n",
        ("tests/test_certificate.py", "tests/test_golden.py"),
    ),
    (
        "run-fold-32-dropped",
        "cuboid.py",
        "                x |= x >> 32\n",
        "",
        ("tests/test_certificate.py", "tests/test_golden.py"),
    ),
    (
        "run-end-short",
        "cuboid.py",
        "yield start + run.start(), start + run.end()\n",
        "yield start + run.start(), start + run.end() - 1\n",
        ("tests/test_certificate.py", "tests/test_golden.py"),
    ),
    (
        "p-from-run-end",
        "cuboid.py",
        "_vertex_report(M, first[0])",
        "_vertex_report(M, first[1] - 1)",
        ("tests/test_certificate.py", "tests/test_golden.py"),
    ),
    (
        "descent-wide-read",
        "cuboid.py",
        "entries[lo:end], entries[lo + step : end + step]",
        "entries[lo:end], entries[lo : end + step][step:]",
        ("tests/test_certificate.py",),
    ),
    (
        "unit-dim-scanned",
        "cuboid.py",
        "        if n == 1:\n            continue\n",
        "        if False:\n            continue\n",
        ("tests/test_cuboid.py",),
    ),
    (
        "step-one-range-from-lo",
        "cuboid.py",
        "                lo -= 1\n",
        "",
        ("tests/test_certificate.py", "tests/test_cuboid.py"),
    ),
    (
        "narrow-span-read-whole",
        "cuboid.py",
        "if hi - lo >= step",
        "if True",
        ("tests/test_certificate.py",),
    ),
    (
        "entry-set-low-open",
        "core.py",
        "lo <= x",
        "lo < x",
        ("tests/test_cuboid.py", "tests/test_squares.py"),
    ),
    (
        "packed-field-32",
        "squares.py",
        "(low.bit_length() - 1) // 64",
        "(low.bit_length() - 1) // 32",
        ("tests/test_squares.py", "tests/test_golden.py"),
    ),
    (
        "polynomial-field-sum",
        "sumsystem.py",
        "w = (d // max(ss.dims)).bit_length()",
        "w = (d // sum(ss.dims)).bit_length()",
        ("tests/test_sumsystem.py",),
    ),
    (
        "column-sum-undivided",
        "squares.py",
        "[n * pair_sum // 2 * ones]",
        "[n * pair_sum * ones]",
        ("tests/test_squares.py", "tests/test_golden.py"),
    ),
    (
        "gate-failing-report-gated",
        "cuboid.py",
        "if M._ints or (report is not None and not report.passed):",
        "if M._ints:",
        ("tests/test_cuboid.py", "tests/test_golden.py"),
    ),
    (
        "gate-pass-type-skipped",
        "cuboid.py",
        "ints = operator.countOf(map(type, M.entries), int) == M.size",
        "ints = True",
        ("tests/test_cuboid.py", "tests/test_golden.py"),
    ),
    (
        "tabulated-trusted-at-every-size",
        "cuboid.py",
        "or prod(M.dims) < _CERTIFICATE_RATIO * sum(M.dims):",
        ":",
        ("tests/test_cuboid.py",),
    ),
    (
        "tabulated-widened-to-ints",
        "cuboid.py",
        "iter(()) if M._tabulated else",
        "iter(()) if M._ints else",
        ("tests/test_cuboid.py",),
    ),
]


def miscounted() -> list[str]:
    """Mutants whose old text does not occur exactly once in their file."""
    return [
        f"{name}: old text occurs {(SRC / file).read_text().count(old)} times in {file}"
        for name, file, old, _, _ in MUTANTS
        if (SRC / file).read_text().count(old) != 1
    ]


def run(name: str, file: str, old: str, new: str, tests) -> bool:
    """Apply the mutant in a scratch copy and run its tests; True if killed."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*_cache", ".hypothesis", "out")
        )
        target = copy / "src" / "addsys" / file
        target.write_text(target.read_text().replace(old, new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(copy / "src")},
        )
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    verdict = f"killed by {failed[0].split(' - ')[0].split()[1]}" if failed else "SURVIVED"
    print(f"{name}: {verdict} (pytest exit {proc.returncode})", flush=True)
    return proc.returncode != 0


def main(argv) -> int:
    if argv == ["--check"]:
        problems = miscounted()
        print("\n".join(problems) or f"{len(MUTANTS)} mutants, each old text once")
        return 1 if problems else 0
    if miscounted():
        print("\n".join(miscounted()))
        return 1
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    return 0 if all([run(*m) for m in chosen]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
