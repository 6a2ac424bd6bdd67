"""Every demo under ``demos/`` runs to completion against this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from util import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def run_demo(argv, tmp_path, env_path=None):
    env = subprocess_env(TMPDIR=str(tmp_path))
    if env_path:
        env["PATH"] = f"{env_path}{os.pathsep}{env['PATH']}"
    return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("0*.py")))
def test_python_demo_exits_zero(tmp_path, demo):
    proc = run_demo([sys.executable, str(DEMOS / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_cli_workflow_demo_exits_zero(tmp_path):
    # the demo calls the ``riskpath`` entry point; a shim stands in for an
    # installed one so the demo runs against this source tree
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "riskpath"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m riskpath.cli "$@"\n')
    shim.chmod(0o755)
    proc = run_demo(["bash", str(DEMOS / "06_cli_workflow.sh")], tmp_path,
                    env_path=bin_dir)
    assert proc.returncode == 0, proc.stderr
    assert "DOT written to" in proc.stdout
