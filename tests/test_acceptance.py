"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines, or rely on
the assertions alone.  Every tolerance is pinned here; the seeded instances
come from the same derivation scheme the ``verify`` subcommand uses, so a
failure here is reproducible from the command line.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from gramdist import (
    Dataset,
    centered_rank,
    design_rank,
    loss_value_det,
    multiple_correlation_det,
)
from gramdist.verify import run_suite

SEED = 42


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def run_timed(name: str, trials: int):
    t0 = time.perf_counter()
    s = run_suite(name, seed=SEED, trials=trials)
    return s, time.perf_counter() - t0


def test_criterion_1_distance_product_identity():
    s, elapsed = run_timed("distance_product_identity", 500)
    ok = s.failures == 0 and s.max_dev <= 1e-9 and elapsed < 5.0
    report(
        "1 distance product identity",
        ok,
        f"trials=500 max_dev={s.max_dev:.3e} tol=1e-09 runtime={elapsed:.2f}s",
    )


def test_criterion_2_three_way_distance_agreement():
    s, elapsed = run_timed("distance_agreement", 500)
    ok = s.failures == 0 and s.max_dev <= 1e-8
    report(
        "2 three-way distance agreement",
        ok,
        f"trials=500 max_pairwise_dev={s.max_dev:.3e} tol=1e-08 runtime={elapsed:.2f}s",
    )


def test_criterion_3_minor_sum_identity():
    s, elapsed = run_timed("minor_sum_identity", 500)
    ok = s.failures == 0 and s.max_dev <= 1e-9
    report(
        "3 squared-minor identity and orthogonality",
        ok,
        f"trials=500 max_dev={s.max_dev:.3e} tol=1e-09 (orthogonality 1e-10) runtime={elapsed:.2f}s",
    )


def test_criterion_4_loss_value_equivalence():
    s, elapsed = run_timed("loss_value_equivalence", 500)
    d = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([1.0, 2.0, 2.0, 3.0]))
    fixture_ok = (
        abs(loss_value_det(d) - math.sqrt(0.2)) <= 1e-10
        and abs(multiple_correlation_det(d) - math.sqrt(0.9)) <= 1e-10
    )
    ok = s.failures == 0 and s.max_dev <= 1e-8 and fixture_ok
    report(
        "4 determinant loss equals residual loss",
        ok,
        f"trials=500 max_dev={s.max_dev:.3e} tol=1e-08 fixture_ok={fixture_ok} runtime={elapsed:.2f}s",
    )


def test_criterion_5_correlation_equivalence():
    s, elapsed = run_timed("correlation_equivalence", 500)
    ok = s.failures == 0 and s.max_dev <= 1e-8
    report(
        "5 correlation routes agree, in range, Pythagoras",
        ok,
        f"trials=500 max_dev={s.max_dev:.3e} tol=1e-08 (range slack 1e-12) runtime={elapsed:.2f}s",
    )


def test_criterion_6_rank_relation():
    s, elapsed = run_timed("rank_relation", 200)
    adversarial_ok = True
    # explicit adversarial instances beyond the randomized sweep
    x = np.column_stack([np.full(6, 3.25), np.arange(6.0)])
    d1 = Dataset(x, np.arange(6.0))
    adversarial_ok &= design_rank(d1) == centered_rank(d1) + 1
    x2 = np.column_stack([np.arange(8.0), np.arange(8.0)])
    d2 = Dataset(x2, np.ones(8))
    adversarial_ok &= design_rank(d2) == centered_rank(d2) + 1
    rng = np.random.default_rng(0)
    x3 = rng.uniform(-1, 1, (4, 3))  # m = n + 1
    d3 = Dataset(x3, rng.uniform(-1, 1, 4))
    adversarial_ok &= design_rank(d3) == centered_rank(d3) + 1
    ok = s.failures == 0 and adversarial_ok
    report(
        "6 rank relation rk(1|X) = rk(centered X) + 1",
        ok,
        f"trials=200 failures={s.failures} adversarial_ok={adversarial_ok} runtime={elapsed:.2f}s",
    )


def test_criterion_7_unitary_invariance():
    s, elapsed = run_timed("unitary_invariance", 100)
    ok = s.failures == 0 and s.max_dev <= 1e-9
    report(
        "7 unitary invariance of the distance routes",
        ok,
        f"trials=100 max_dev={s.max_dev:.3e} tol=1e-09 runtime={elapsed:.2f}s",
    )


def test_criterion_8_cli_determinism():
    cmd = [sys.executable, "-m", "gramdist", "verify", "--seed", "42", "--trials", "100"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    elapsed = time.perf_counter() - t0
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and elapsed < 60.0
    )
    report(
        "8 CLI verify determinism",
        ok,
        f"exit={first.returncode},{second.returncode} identical={first.stdout == second.stdout} "
        f"runtime={elapsed:.2f}s",
    )
