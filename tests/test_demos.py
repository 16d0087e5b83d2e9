"""Smoke test: every script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import leafwise

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_runs(tmp_path):
    assert len(DEMOS) == 5
    src = str(Path(leafwise.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    # all at once, each in its own directory for the files it writes
    procs = {}
    for demo in DEMOS:
        cwd = tmp_path / demo.stem
        cwd.mkdir()
        procs[demo.name] = subprocess.Popen(
            [sys.executable, str(demo)], cwd=cwd, env=env, text=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    failed = {}
    try:
        for name, proc in procs.items():
            _, err = proc.communicate(timeout=300)
            if proc.returncode != 0 or "Traceback" in err:
                failed[name] = (proc.returncode, err[-2000:])
    finally:
        for proc in procs.values():
            proc.kill()
    assert not failed, failed
