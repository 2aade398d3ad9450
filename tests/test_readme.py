"""Every line of the README's command-line block runs and exits 0."""

import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

README = Path(__file__).resolve().parents[1] / "README.md"


def command_lines() -> list[str]:
    """The lines of the ``sh`` block under "## Command line", comments dropped."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip() and not line.startswith("#")]


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash for pipefail")
def test_command_block_runs_in_order(tmp_path):
    # One directory for the whole block: later lines read the files
    # that earlier lines write.  pipefail makes every stage count.
    prelude = f'set -o pipefail; addsys() {{ {shlex.quote(sys.executable)} -m addsys "$@"; }}\n'
    lines = command_lines()
    assert len(lines) > 10
    for line in lines:
        done = subprocess.run(
            ["bash", "-c", prelude + line],
            cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (line, done.stderr)
        assert done.stderr == "", line
