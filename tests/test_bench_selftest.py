"""The benchmark harness wraps library names by hand: the householder_qr
aliases in regression and verify, the ``rank_full`` key of ``regress`` and
``CsvTable.column``.  Its self-test runs here, so a library change that
breaks one of those pins fails the test suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
