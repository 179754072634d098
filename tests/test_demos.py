"""Every demo script runs to completion against the package in src."""

import subprocess
import sys

import pytest

from testutil import CHILD_ENV, ROOT

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
