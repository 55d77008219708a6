"""Every demo script runs end to end against the public API and writes its
chart next to itself."""

import glob
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs_and_writes_its_chart(tmp_path, demo):
    script = shutil.copy(demo, tmp_path)
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    charts = list(tmp_path.glob("*.svg"))
    assert len(charts) == 1
    assert "<svg" in charts[0].read_text()
