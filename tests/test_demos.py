"""Every narrative demo runs to completion and prints its golden text
(``tests/demo_output/<demo>.txt``), the float that BLAS rounds masked."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demo_output"
# demo 03's centered minimum eigenvalues come from LAPACK through numpy; an
# unmasked line that is no float keeps its text and fails the comparison
BLAS_FLOAT = re.compile(r"^(centered min eigenvalue[^:]*: )-?\d+\.\d+(e[-+]\d+)?$", re.M)


def _run(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo):
    result = _run(demo)
    assert result.returncode == 0, result.stderr
    golden = (GOLDEN / f"{demo.stem}.txt").read_text()
    assert BLAS_FLOAT.sub(r"\1<float>", result.stdout) == golden
