"""Smoke tests for the report scripts: each runs with small flags, exits 0
and prints a line it is known for."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv,line", [
    (["print_formula_tables.py", "--degree", "2", "--jmax", "2",
      "--specs", "1,1", "2,0"],
     "degree-one in the lambda basis: 13*lambda + psi - 2*delta"),
    (["series_identity_report.py", "--order", "8"],
     "  added tail matches product:      True"),
])
def test_script_runs(argv, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()
