import os
import subprocess
import sys
from pathlib import Path

import pytest

import wordlen

SRC = str(Path(wordlen.__file__).resolve().parents[1])
DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_demos_found():
    assert DEMOS


def run_demo(demo, *args):
    env = {**os.environ, "PYTHONPATH": SRC}
    # -W error: a demo may neither print a warning nor need to silence one
    return subprocess.run([sys.executable, "-W", "error", str(demo), *map(str, args)],
                          capture_output=True, text=True, env=env, check=False)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr


def test_fit_demo_reads_a_word_list_as_the_package_does(model_wordlist, tmp_path):
    # a byte order mark is dropped, not stuck to the first word and skipped with it
    words = model_wordlist.read_text(encoding="utf-8").split()
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + model_wordlist.read_bytes())
    proc = run_demo(DEMO_DIR / "fit_length_distribution.py", bom)
    assert proc.returncode == 0, proc.stderr
    assert f"distinct words      {len(words):>10,}" in proc.stdout
