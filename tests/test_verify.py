"""The property-suite runner itself: determinism, per-trial stream
independence, and the registry's tolerances."""

import json

import numpy as np
import pytest

import gramdist.distance
import gramdist.linalg
import gramdist.qr
import gramdist.regression
from gramdist.cli import main
from gramdist.rng import SplitMix64, derive_seed
from gramdist.verify import SUITE_NAMES, SUITES, run_all, run_suite


def trial_bytes(seed=1, trials=20):
    """Every trial of run_all(seed, trials) as (suite, t, ok, deviation
    bytes), read off the runs' own records: a last-bit change in any one
    trial shows, where the per-suite maxima would hide it."""
    return [(s.name, t, ok, np.float64(dev).tobytes())
            for s in run_all(seed=seed, trials=trials) for t, (ok, dev) in enumerate(s.outcomes)]


def digests_and_maxima(capsys, seed=1, trials=20):
    """{suite: (digest, max_dev)} from ``verify --format json``."""
    main(["verify", "--seed", str(seed), "--trials", str(trials), "--format", "json"])
    suites = json.loads(capsys.readouterr().out)["results"]["suites"]
    return {name: (rec["digest"], rec["max_dev"]) for name, rec in suites.items()}


def scalar_draws(monkeypatch):
    """The array draws taken one scalar at a time, as the stream defines them."""
    monkeypatch.setattr(SplitMix64, "real_vector", lambda g, n: np.array([g.uniform() for _ in range(n)], np.float64))
    monkeypatch.setattr(SplitMix64, "complex_vector", lambda g, n: np.array([g.complex_disc() for _ in range(n)], np.complex128))


def svd_ranks(monkeypatch):
    """Every rank counted by the SVD alone, with no certificate."""
    for name in ("_certifies_triangular", "_certifies_full_rank"):
        monkeypatch.setattr(gramdist.qr, name, lambda a, tol: False)


def replace_norm_helper(monkeypatch, fn):
    """fn in place of linalg._column_norms in every module that imports it;
    returns how many names it replaced."""
    helper = gramdist.linalg._column_norms
    patched = 0
    for mod in (gramdist.linalg, gramdist.qr, gramdist.regression, gramdist.distance):
        for name, value in list(vars(mod).items()):
            if value is helper:
                monkeypatch.setattr(mod, name, fn)
                patched += 1
    return patched


def direct_norms(monkeypatch):
    """Every norm taken by np.linalg.norm itself."""
    assert replace_norm_helper(monkeypatch, lambda x: np.linalg.norm(x, axis=0)) == 4


class TestRunner:
    def test_all_suites_pass_briefly(self):
        for s in run_all(seed=7, trials=8):
            assert s.passed, f"{s.name}: max_dev={s.max_dev}"

    def test_deterministic_results(self):
        a = run_suite("distance_product_identity", seed=5, trials=12)
        b = run_suite("distance_product_identity", seed=5, trials=12)
        # equality compares every trial's (ok, deviation)
        assert a.trials == 12
        assert a == b

    def test_trial_streams_are_prefix_stable(self):
        # trial t depends only on (seed, suite, t): a longer run must agree
        # with a shorter one on the shared prefix
        short = run_suite("minor_sum_identity", seed=9, trials=6)
        long = run_suite("minor_sum_identity", seed=9, trials=12)
        assert long.outcomes[:6] == short.outcomes

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonexistent", trials=3)

    def test_retired_suite_is_unknown(self):
        with pytest.raises(ValueError, match="^unknown suite 'psd_solve'; known: "):
            run_suite("psd_solve", trials=3)

    def test_nonpositive_trials_rejected(self):
        with pytest.raises(ValueError):
            run_suite(SUITE_NAMES[0], trials=0)

    def test_tolerance_override_applies(self, monkeypatch):
        import gramdist.verify as ver

        suites = [(index, name, fn, 1e-30 if name == "distance_agreement" else tol)
                  for index, name, fn, tol in ver.SUITES]
        monkeypatch.setattr(ver, "SUITES", tuple(suites))
        s = run_suite("distance_agreement", seed=3, trials=5)
        assert s.tolerance == 1e-30
        assert not s.passed

    def test_registry_names_are_unique(self):
        assert len(set(SUITE_NAMES)) == len(SUITE_NAMES) == 8

    def test_registry_indices_are_fixed_and_never_reused(self):
        index_of = {name: index for index, name, _, _ in SUITES}
        assert len(set(index_of.values())) == len(SUITES)
        # 7 was det_identities and 8 psd_solve, both retired: their
        # streams are never drawn again
        assert sorted(index_of.values()) == [0, 1, 2, 3, 4, 5, 6, 9]
        assert index_of["qr_gram"] == 9

    def test_trial_t_draws_from_the_registry_index(self):
        # trial t of a suite is its check on a fresh generator of the stream
        # derive_seed(seed, index, t), index the suite's own registry entry,
        # not its position; t = 63, 64 and 65 sit on either side of the end
        # of the first chunk of 64 trials whose blocks the suite fills at once
        seed, trials = 11, 66
        for index, name, fn, tol in SUITES:
            replay = tuple(fn(SplitMix64(derive_seed(seed, index, t)), t, tol) for t in range(trials))
            assert run_suite(name, seed=seed, trials=trials).outcomes == replay, name

    def test_regression_suites_factor_once_per_route(self, monkeypatch):
        # per trial: the report's factor of (Xc|yc) is the one QR, which
        # also accepts the draw, and its Cholesky the one solve; the rank
        # suite counts on (1|X) and Xc themselves and factors nothing
        import gramdist.regression as reg
        import gramdist.verify as ver

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for mod, name in ((reg, "householder_qr"), (ver, "householder_qr"), (reg, "_normal_solution")):
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        k = 6
        for suite, qrs, solves in (("loss_value_equivalence", k, k), ("correlation_equivalence", k, k), ("rank_relation", 0, 0)):
            calls.clear()
            run_suite(suite, trials=k)
            assert calls.count("householder_qr") == qrs, suite
            assert calls.count("_normal_solution") == solves, suite

    def test_batched_draws_leave_the_suites_unchanged(self, monkeypatch):
        # the same suites with the array draws taken one scalar at a time
        # must give the same trials
        batched = trial_bytes()
        scalar_draws(monkeypatch)
        assert trial_bytes() == batched

    def test_rank_certificate_leaves_the_suites_unchanged(self, monkeypatch):
        # the same suites with every rank counted by the SVD alone must give
        # the same trials
        certified = trial_bytes()
        svd_ranks(monkeypatch)
        assert trial_bytes() == certified

    def test_norm_helpers_leave_the_suites_unchanged(self, monkeypatch):
        # the same suites with every norm taken by np.linalg.norm itself must
        # give the same trials
        helper = trial_bytes()
        direct_norms(monkeypatch)
        assert trial_bytes() == helper

    def test_invariance_patches_leave_every_digest_equal(self, capsys, monkeypatch):
        # 130 trials run past two chunks of prefilled generator blocks,
        # which the scalar draws never read
        before = digests_and_maxima(capsys, trials=130)
        for patch in (scalar_draws, svd_ranks, direct_norms):
            patch(monkeypatch)
        assert digests_and_maxima(capsys, trials=130) == before

    def test_digest_shows_what_the_maxima_hide(self, capsys, monkeypatch):
        # the squares summed in reverse order round differently in the last
        # bit: some trial's deviation moves, while no suite's maximum does
        before = digests_and_maxima(capsys)
        replace_norm_helper(monkeypatch, lambda x: np.sqrt(np.add.reduce((x.conj() * x).real[::-1], axis=0)))
        after = digests_and_maxima(capsys)
        assert [m for _, m in after.values()] == [m for _, m in before.values()]
        assert any(after[name][0] != before[name][0] for name in before)

    def test_one_set_of_minors_per_trial(self, monkeypatch):
        # the minor sum and the minor vector share one stacked slogdet
        calls = []
        minors = gramdist.distance._minor_logdets
        monkeypatch.setattr(gramdist.distance, "_minor_logdets", lambda a: calls.append(1) or minors(a))
        run_suite("minor_sum_identity", trials=7)
        assert len(calls) == 7
