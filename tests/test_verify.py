"""The property-suite runner itself: determinism, per-trial stream
independence, and the registry's tolerances."""

import numpy as np
import pytest

from gramdist.rng import SplitMix64
from gramdist.verify import SUITE_NAMES, run_all, run_suite


class TestRunner:
    def test_all_suites_pass_briefly(self):
        for s in run_all(seed=7, trials=8):
            assert s.passed, f"{s.name}: max_dev={s.max_dev}"

    def test_deterministic_results(self):
        a = run_suite("distance_product_identity", seed=5, trials=12)
        b = run_suite("distance_product_identity", seed=5, trials=12)
        assert a == b

    def test_trial_streams_are_prefix_stable(self):
        # trial t depends only on (seed, suite, t): a longer run must agree
        # with a shorter one on the shared prefix
        short = run_suite("minor_sum_identity", seed=9, trials=6)
        long = run_suite("minor_sum_identity", seed=9, trials=12)
        assert short.failures <= long.failures
        assert short.max_dev <= long.max_dev

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonexistent", trials=3)

    def test_nonpositive_trials_rejected(self):
        with pytest.raises(ValueError):
            run_suite(SUITE_NAMES[0], trials=0)

    def test_tolerance_override_applies(self, monkeypatch):
        import gramdist.verify as ver

        suites = [(name, fn, 1e-30 if name == "distance_agreement" else tol)
                  for name, fn, tol in ver.SUITES]
        monkeypatch.setattr(ver, "SUITES", tuple(suites))
        s = run_suite("distance_agreement", seed=3, trials=5)
        assert s.tolerance == 1e-30
        assert not s.passed

    def test_registry_names_are_unique(self):
        assert len(set(SUITE_NAMES)) == len(SUITE_NAMES) == 10

    def test_regression_suites_factor_once_per_route(self, monkeypatch):
        # per trial: the report's factor of (Xc|yc) is the one QR, which
        # also accepts the draw, and its Cholesky the one solve; the rank
        # suite counts on (1|X) and Xc themselves and factors nothing
        import gramdist.distance as dist
        import gramdist.regression as reg
        import gramdist.verify as ver

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for mod, name in ((reg, "householder_qr"), (ver, "householder_qr"),
                          (dist, "solve_hermitian_psd"), (ver, "solve_hermitian_psd")):
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        k = 6
        for suite, qrs, solves in (("loss_value_equivalence", k, k), ("correlation_equivalence", k, k), ("rank_relation", 0, 0)):
            calls.clear()
            run_suite(suite, trials=k)
            assert calls.count("householder_qr") == qrs, suite
            assert calls.count("solve_hermitian_psd") == solves, suite

    def test_batched_draws_leave_the_suites_unchanged(self, monkeypatch):
        # the same suites with the array draws taken one scalar at a time,
        # as the stream defines them, must give the same results
        batched = run_all(seed=1, trials=20)
        monkeypatch.setattr(SplitMix64, "real_vector", lambda g, n: np.array([g.uniform() for _ in range(n)], np.float64))
        monkeypatch.setattr(SplitMix64, "complex_vector", lambda g, n: np.array([g.complex_disc() for _ in range(n)], np.complex128))
        assert run_all(seed=1, trials=20) == batched

    def test_rank_certificate_leaves_the_suites_unchanged(self, monkeypatch):
        # the same suites with every rank counted by the SVD alone must give
        # the same results
        import gramdist.qr as qr

        certified = run_all(seed=1, trials=20)
        monkeypatch.setattr(qr, "_certifies_full_rank", lambda a, tol: False)
        assert run_all(seed=1, trials=20) == certified

    def test_norm_helpers_leave_the_suites_unchanged(self, monkeypatch):
        # the same suites with every norm taken by np.linalg.norm itself must
        # give the same results
        import gramdist.distance
        import gramdist.linalg
        import gramdist.qr
        import gramdist.regression

        direct = run_all(seed=1, trials=20)
        swaps = {gramdist.linalg._column_norms: lambda x: np.linalg.norm(x, axis=0),
                 gramdist.linalg._norm: lambda v: float(np.linalg.norm(v))}
        patched = 0
        for mod in (gramdist.linalg, gramdist.qr, gramdist.regression, gramdist.distance):
            for name, value in list(vars(mod).items()):
                if callable(value) and value in swaps:
                    monkeypatch.setattr(mod, name, swaps[value])
                    patched += 1
        assert patched == 6
        assert run_all(seed=1, trials=20) == direct
