"""Every demo script runs end to end against the public API and writes its
chart next to itself."""

import glob
import os
import runpy
import shutil
import subprocess
import sys

import pytest

from fastimd import ModeComponent

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


def test_two_scale_demo_derives_each_component_once(tmp_path, monkeypatch, capsys):
    # the demo prints each component's extrema and range, checks component 1
    # against the fast cosine and sums every component back to the input,
    # all from one derivation per mode
    reads = []
    derive = ModeComponent.imf.fget

    def counted(mode):
        reads.append(mode)
        return derive(mode)

    monkeypatch.setattr(ModeComponent, "imf", property(counted))
    script = shutil.copy(os.path.join(ROOT, "demos", "01_two_scale_split.py"), tmp_path)
    runpy.run_path(script, run_name="__main__")
    assert "extracted components: 2" in capsys.readouterr().out
    assert len(reads) == 2 and len(set(map(id, reads))) == 2
