"""The benchmark's own tests, run with the library's.

`bench/selftest.py` runs the cheap checks of every workload, traced and
untraced, so a library name that `bench/tracing.py` wraps, once deleted
or renamed, fails here and not only in a traced benchmark run.  It runs
in a subprocess of its own (about half a second) and writes no file.
"""

import os
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, env=env, timeout=600
    )
    assert run.returncode == 0, run.stdout + run.stderr
