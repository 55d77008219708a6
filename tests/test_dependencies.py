"""numpy is the only runtime dependency: the library imports and runs with
scipy blocked, so scipy stays a test-time oracle."""

import os
import subprocess
import sys

SCRIPT = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import fastimd
walk = fastimd.random_walk(5, span=400)
assert len(fastimd.decompose(walk).modes) > 0
fastimd.filter_series(walk, fastimd.FilterCriteria(jump_time_blocks=((0.0, 10.0),)))
"""


def test_runs_without_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
