"""Each demo runs to the end against the package as it is.

The demos are copied under a temporary directory first, because demo 03
writes its CSV and charts next to itself.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("demos") / "demos"
    shutil.copytree(ROOT / "demos", target, ignore=shutil.ignore_patterns("out", "__pycache__"))
    return target


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo_dir, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, demo], cwd=demo_dir, env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
