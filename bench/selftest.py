"""Self-tests of the benchmark's own helpers: span maths, the tail
percentile, the host factor, the output checks that feed error_rate, and
the wrapper installation.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_times_subtract_direct_children_only():
    tree = [
        _span("op", 0.0, 10.0, -1),
        _span("qr.householder_qr", 1.0, 4.0, 0),
        _span("linalg.as_matrix", 2.0, 3.0, 1),
        _span("linalg.det_lu", 5.0, 9.0, 0),
        _span("op", 10.0, 12.0, -1),
        _span("qr.householder_qr", 10.5, 11.0, 4),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 1.5, 0.5]
    s = spans.summarize(tree, ops=2)
    assert s["functions"]["qr.householder_qr"] == {"calls": 1.0, "self_s": 1.25, "total_s": 1.75, "work": 0.0}
    assert s["modules"]["qr"] == 1.25
    assert s["modules"]["linalg"] == 2.5
    assert s["modules"]["csvio"] == 0.0
    assert "op" not in s["modules"]


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = measure.tail(list(range(30, 0, -1)))
    assert (value, n) == (20.0, 30)
    assert abs(pct - 200 / 3) < 1e-12
    assert sum(1 for x in range(1, 31) if x > value) == 10
    assert measure.tail([5.0] + [1.0] * 10) == (1.0, 100 / 11, 11)
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_quartile_spread():
    assert measure.quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert abs(measure.quartile_spread([9.0, 10.0, 10.0, 11.0]) - 0.15) < 1e-12


def test_host_factor_is_reference_over_mean_probe():
    ref = measure.PROBE_REF_S
    assert measure.host_factor([ref / 2, ref, 1.5 * ref]) == 1.0
    assert measure.host_factor([3 * ref, 2 * ref, ref]) == 0.5  # a slow host
    # On that host a 3 s op is 1.5 s at the reference speed.
    assert measure.at_reference_speed({"op_p50_s": 3.0, "ops_per_s": 1 / 3.0}, 0.5) == {
        "op_p50_s": 1.5, "ops_per_s": 1 / 1.5}
    assert measure.probe() > 0.0


def _workdir(tag: str) -> Path:
    path = ROOT / ".bench_tmp" / f"selftest-{tag}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def test_regress_check_counts_perturbed_outputs_as_failures():
    workdir = _workdir("regress")
    try:
        wl = workloads.RegressCli(7, workdir)
        argv = wl.prepare(1)
        code, out = wl.run_inprocess(argv)
        assert wl.check(1, argv, (code, out)) is None
        good = json.loads(out)

        def perturbed(key, scale):
            payload = json.loads(out)
            res = payload["results"]
            if key == "coefficients":
                res[key] = [c * scale for c in res[key]]
            else:
                res[key] *= scale
            return json.dumps(payload).encode()

        assert "loss_value" in wl.check(1, argv, (0, perturbed("loss_value", 1 + 1e-6)))
        # The residual norm is stationary at the least-squares optimum, so a
        # coefficient error shows only to second order: 1e-3 moves it ~1e-6.
        assert "coefficient residual" in wl.check(1, argv, (0, perturbed("coefficients", 1 + 1e-3)))
        assert "correlation" in wl.check(1, argv, (0, perturbed("correlation_projection", 1 + 1e-6)))
        assert wl.check(1, argv, (1, out)) == "exit code 1"
        assert "unreadable" in wl.check(1, argv, (0, b"not json"))
        assert good["results"]["rank_full"] is True
    finally:
        shutil.rmtree(workdir)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def test_dist_check_counts_perturbed_routes_as_failures():
    wl = workloads.DistWide(7, ROOT)
    ref = 3.25
    prepared = (None, None, ref)
    assert wl.check(1, prepared, (ref, ref * (1 + 1e-12), ref)) is None
    assert "distance_qr" in wl.check(1, prepared, (ref, ref, ref * (1 + 1e-6)))
    assert "distance_det" in wl.check(1, prepared, (float("nan"), ref, ref))


def test_verify_check_compares_bytes_per_seed():
    wl = workloads.VerifyCli(7, ROOT)
    ok = b"verify seed=1 trials=100\nresult: PASS suites=10 failed=0\nexit: 0 (ok)\n"
    argv = wl.prepare(1)
    assert wl.check(1, argv, (0, ok)) is None
    assert wl.check(5, argv, (0, ok)) is None  # op 5 reuses op 1's seed
    assert "differs" in wl.check(5, argv, (0, ok.replace(b"exit", b"exit ")))
    assert "PASS" in wl.check(2, argv, (0, ok.replace(b"PASS", b"FAIL")))
    assert wl.check(3, argv, (4, ok)) == "exit code 4"


def test_install_wraps_aliases_and_array_methods_only():
    import gramdist
    import gramdist.cli
    import gramdist.regression
    import gramdist.rng
    import gramdist.verify
    import numpy as np

    original_methods = spans.METHODS
    spans.METHODS = dict(original_methods, rng={"SplitMix64": ("real_matrix", "no_such_method")})
    try:
        tracer = spans.Tracer()
        wrapped, absent = spans.install(tracer)
    finally:
        spans.METHODS = original_methods
    assert absent == ["rng.SplitMix64.no_such_method"]
    assert "rng.mix64" not in wrapped and "rng.derive_seed" in wrapped
    for alias in (gramdist.cli.regression_report, gramdist.verify.householder_qr,
                  gramdist.regression.householder_qr, gramdist.distance_det):
        assert hasattr(alias, "__wrapped__"), alias
    assert gramdist.cli.regression_report is gramdist.regression.regression_report
    assert not hasattr(gramdist.rng.SplitMix64.uniform, "__wrapped__")

    tracer.clear()
    a = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    gramdist.distance_det(a, np.array([1.0, 2.0, 0.5]))
    gramdist.rng.SplitMix64(3).real_matrix(2, 2)
    s = spans.summarize(tracer.spans, ops=1)
    assert s["functions"]["qr.householder_qr"]["calls"] == 2
    assert s["functions"]["qr.householder_qr"]["work"] == (
        spans.householder_flops(a) + spans.householder_flops(np.zeros((3, 3))))
    assert s["functions"]["rng.SplitMix64.real_matrix"]["calls"] == 1
    assert s["modules"]["csvio"] == 0.0


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok {fn.__name__}")
    print(f"{len(tests)} passed")
