import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout: the demos print MotiveExpr and
# VirtualBundle strings, so a rendering change shows here
STDOUT_SHA256 = {
    "genus2_eisenstein.py": "904f916e87142cc8e5a6068ea90120863b961c425d7bfa375ac5af7f5ae5ed30",
    "rank_one_any_genus.py": "3795117a92173f590ff28f02c89483ec3e53b3fe4af1768c4b1ad6338c7d7c48",
    "telescope_walkthrough.py": "abd39f71669aa9751a5b4ac87cb2ee4dd151fe94a69e4cd5f5db910cfd7b9da9",
    "weyl_group_tour.py": "ce44038776a1b6e584e9b31f6f5783ffe463f1c22f4c9852850c1ed9437a0408",
}


def test_demos_found():
    assert [d.name for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo.name], proc.stdout
