"""The experiment scripts run to completion at their smallest sizes, the
output dump that compares two checkouts runs at all, and run_suites.py
refuses a trial count it cannot run."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize(
    "script, argv",
    [
        ("factor_lengths.py", ["--samples", "5", "--max-rank", "3"]),
        ("involution_census.py", ["--n", "3", "--per-class", "1"]),
        ("output_dump.py", []),
        ("run_suites.py", ["--trials", "1"]),
    ],
)
def test_script_exits_0(script, argv):
    proc = _run(script, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_run_suites_rejects_a_trial_count_below_1(trials):
    # 0 used to run the full default counts and -1 to die in a traceback
    proc = _run("run_suites.py", ["--trials", trials])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--trials must be at least 1" in proc.stderr


def _run(script, argv):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )
