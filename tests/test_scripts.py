"""The experiment scripts run to completion at their smallest sizes, and
the output dump that compares two checkouts runs at all."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def child_env() -> dict[str, str]:
    """This environment with src first on PYTHONPATH, so that a child
    process imports the glnz of this checkout without an install."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


@pytest.mark.parametrize(
    "script, argv",
    [
        ("factor_lengths.py", ["--samples", "5", "--max-rank", "3"]),
        ("involution_census.py", ["--n", "3", "--per-class", "1"]),
        ("output_dump.py", []),
    ],
)
def test_script_exits_0(script, argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
