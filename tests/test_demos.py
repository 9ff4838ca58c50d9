import os
import subprocess
import sys
from pathlib import Path

import pytest

import wordlen

SRC = str(Path(wordlen.__file__).resolve().parents[1])
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": SRC}
    # -W error: a demo may neither print a warning nor need to silence one
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True,
                          text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
