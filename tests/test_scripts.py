"""Tests for the report scripts: each runs with small flags, exits 0 and
prints a line it is known for; each default stdout is pinned by its
sha256; and the series report's own tables are checked like library code."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from tautchern import bernoulli, kappa_correction

ROOT = Path(__file__).resolve().parent.parent


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("argv,line", [
    (["print_formula_tables.py", "--degree", "2", "--jmax", "2",
      "--specs", "1,1", "2,0"],
     "degree-one in the lambda basis: 13*lambda + psi - 2*delta"),
    (["series_identity_report.py", "--order", "8"],
     "  added tail matches product:      True"),
])
def test_script_runs(argv, line):
    assert line in _run(argv).splitlines()


@pytest.mark.parametrize("script,digest", [
    ("series_identity_report.py",
     "974dcb1e826dd55941be3842171f0eda837b59878de4d7a2263faad856663400"),
    ("print_formula_tables.py",
     "ccdfe3a7c040a34cb1ef22cdb31e2f08f85353bafa1c737ce4ffd997f77b8c53"),
])
def test_script_default_stdout_pinned(script, digest):
    assert hashlib.sha256(_run([script]).encode()).hexdigest() == digest


def _series_report():
    """scripts/series_identity_report.py as a module (main does not run)."""
    path = ROOT / "scripts" / "series_identity_report.py"
    spec = importlib.util.spec_from_file_location("series_identity_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_correction_table_bare_exponential_variant():
    bare = _series_report().bare_exponential_table(12)
    assert bare[4] == Fraction(29, 720)
    for m in range(3, 13):
        extra = bernoulli(m) / factorial(m) if m % 2 == 0 else Fraction(0)
        assert bare[m] == kappa_correction(m) + extra


def test_marked_point_table_summarizes_both_tails():
    rows = _series_report().marked_point_table(8)
    assert [m for m, *_ in rows] == list(range(1, 9))
    for m, product, minus, plus in rows:
        assert product == plus
        assert (product == minus) == (m < 3)
