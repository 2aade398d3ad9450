"""The scripts under ``scripts/`` run against this checkout and report success."""

import subprocess
import sys
from pathlib import Path

from conftest import src_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_worked_examples_all_hold():
    assert ": False" not in run_script("reproduce_worked_examples.py")


def test_worked_examples_match_golden():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_worked_examples.py")],
        capture_output=True,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    golden = Path(__file__).with_name("worked_examples.txt").read_bytes()
    assert proc.stdout == golden


def test_census_total_to_30():
    lines = run_script("jof_census.py", "30").splitlines()
    assert "all 118 609" in [" ".join(line.split()) for line in lines]


def test_mutation_smoke_list_matches_the_source():
    assert "each old text once" in run_script("mutation_smoke.py", "--check")
