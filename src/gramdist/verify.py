"""Seeded property suites behind the ``verify`` front end and the test rig.

Each suite checks an identity of the paper between independent routes, or
the rank rule and Gram determinants they share.  The Cholesky solve of the
normal equations is checked through the projection route and the
regression's coefficients, not on its own.

Every suite regenerates its trial instances from (seed, suite index, trial
index) through :func:`gramdist.rng.derive_seed`, so a failing trial can be
reproduced in isolation; a suite's index is fixed in :data:`SUITES`, not
its position there.  A :class:`SuiteResult` keeps every trial's
(ok, deviation), and its summary numbers are read off that record.  The
instances are the same on every machine; the deviations printed from them
repeat byte for byte on the same machine, numpy and BLAS build, whatever
the BLAS thread count: the library's norms are pairwise sums, and the
``np.linalg.norm`` calls here take vectors far shorter than the length at
which OpenBLAS splits a dot product across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distance import _minor_identity, distance_det, distance_projection, distance_qr, gram_logdets
from .errors import RankDeficient
from .qr import _logdet_at_rank, _rank, _rank_of_r, _stacked, gram_logdet, householder_qr
from .regression import Dataset, RegressionReport, centered_rank, design_rank, loss_value_residual, regression_report
from .rng import SplitMix64, derive_seed, mix64

TINY = sys.float_info.min


@dataclass(frozen=True)
class SuiteResult:
    """One run of a suite: outcomes[t] is trial t's (ok, deviation), and
    every summary is read off that record."""

    name: str
    tolerance: float
    outcomes: tuple[tuple[bool, float], ...]

    @property
    def trials(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> int:
        return sum(not ok for ok, _ in self.outcomes)

    @property
    def max_dev(self) -> float:
        """The largest deviation, 0.0 for none: max keeps the first largest
        and, starting at 0.0, never takes a NaN."""
        return max([0.0, *(dev for _, dev in self.outcomes)])

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), TINY)


def _full_rank_complex(rng: SplitMix64, m: int, n: int) -> np.ndarray:
    for _ in range(64):
        a = rng.complex_matrix(m, n)
        if _rank(a, m) == n:
            return a
    raise RuntimeError("could not draw a full-rank matrix")


def _degrade_rank(rng: SplitMix64, a: np.ndarray) -> np.ndarray:
    n = a.shape[1]
    if n == 1:
        a[:, 0] = 0.0
    else:
        a[:, n - 1] = a[:, 0] * rng.complex_disc()
    return a


def _unitary(rng: SplitMix64, m: int) -> np.ndarray:
    return np.linalg.qr(rng.complex_matrix(m, m))[0]


def _random_report(rng: SplitMix64) -> tuple[Dataset, RegressionReport]:
    """The first drawn dataset whose regression report accepts its rank,
    with that report."""
    n = rng.randint(1, 8)
    m = rng.randint(n + 2, 40)
    for _ in range(64):
        d = Dataset(rng.real_matrix(m, n), rng.real_vector(m))
        try:
            return d, regression_report(d)
        except RankDeficient:
            pass
    raise RuntimeError("could not draw a full-rank dataset")


def _check_distance_product(rng: SplitMix64, t: int, tol: float):
    """dist_qr * sqrt(det(A*A)) == sqrt(det((A|b)*(A|b))), in log domain.

    The determinants come from :func:`gram_logdets`, whose factors of A and
    (b|A) are independent of the factor of (A|b) behind the distance.  Every
    fifth trial degrades A to rank deficiency, where both sides must vanish
    at the Hadamard scale ||A|b||_F^(n+1).
    """
    m = rng.randint(2, 12)
    n = rng.randint(1, m - 1)
    a = rng.complex_matrix(m, n)
    if t % 5 == 4:
        a = _degrade_rank(rng, a)
    b = rng.complex_vector(m)
    value = distance_qr(a, b).value
    ld_a, ld_ab = gram_logdets(a, b)
    if not ld_a.is_zero and not ld_ab.is_zero and value > 0.0:
        dev = abs(math.expm1(math.log(value) + ld_a.log_mag / 2.0 - ld_ab.log_mag / 2.0))
    else:
        lhs = 0.0 if ld_a.is_zero else value * math.exp(ld_a.log_mag / 2.0)
        rhs = 0.0 if ld_ab.is_zero else math.exp(ld_ab.log_mag / 2.0)
        scale = max(float(np.linalg.norm(_stacked(a, b))) ** (n + 1), TINY)
        dev = abs(lhs - rhs) / scale
    return dev <= tol, dev


def _check_agreement(rng: SplitMix64, t: int, tol: float):
    """The three distance routes agree pairwise on full-rank instances."""
    m = rng.randint(2, 12)
    n = rng.randint(1, m - 1)
    a = _full_rank_complex(rng, m, n)
    b = rng.complex_vector(m)
    vals = [
        distance_det(a, b).value,
        distance_projection(a, b).value,
        distance_qr(a, b).value,
    ]
    dev = (max(vals) - min(vals)) / max(max(vals), TINY)
    return dev <= tol, dev


def _check_minor_sum(rng: SplitMix64, t: int, tol: float):
    """Sum of squared minors equals the Gram determinant; the minor vector is
    orthogonal to the column space and its squared norm is the same sum."""
    n = rng.randint(1, 6)
    a = rng.complex_matrix(n + 1, n)
    s, bvec = _minor_identity(a)
    ld = gram_logdet(householder_qr(a), n + 1)
    g = 0.0 if ld.is_zero else math.exp(ld.log_mag)
    dev_sum = abs(s - g) / max(s, g, TINY)
    nb = float(np.linalg.norm(bvec))
    na = float(np.linalg.norm(a))
    if nb == 0.0:
        dev_orth = 0.0
        dev_norm = abs(s) / max(s, TINY) if s else 0.0
    else:
        dev_orth = float(np.linalg.norm(a.conj().T @ bvec)) / max(na * nb, TINY)
        dev_norm = abs(nb * nb - s) / max(s, TINY)
    ok = dev_sum <= tol and dev_orth <= 1e-10 and dev_norm <= 1e-10
    return ok, max(dev_sum, dev_orth, dev_norm)


def _check_loss_equivalence(rng: SplitMix64, t: int, tol: float):
    """Determinant loss equals the residual norm of the normal solution.

    Both come from one report: the loss off its factor of (Xc|yc), the
    coefficients from its Cholesky solve.
    """
    d, rep = _random_report(rng)
    dev = _rel(rep.loss_value, loss_value_residual(d, rep.coefficients))
    return dev <= tol, dev


def _check_correlation_equivalence(rng: SplitMix64, t: int, tol: float):
    """Both correlation routes agree, stay in [0, 1], and close Pythagoras.

    A zero projection, where the cosine route is undefined, fails the trial.
    """
    d, rep = _random_report(rng)
    rho_d, rho_p, delta = rep.correlation, rep.correlation_projection, rep.loss_value
    if rho_p is None:
        return False, 1.0
    dev_rho = abs(rho_d - rho_p)
    yc = d.y - d.y.mean()
    ny2 = float(yc @ yc)
    pyth = abs(rho_d * rho_d + delta * delta / ny2 - 1.0)
    in_range = all(-1e-12 <= r <= 1.0 + 1e-12 for r in (rho_d, rho_p))
    ok = dev_rho <= tol and pyth <= tol and in_range
    return ok, max(dev_rho, pyth)


def _check_rank_relation(rng: SplitMix64, t: int, tol: float):
    """design_rank == centered_rank + 1, also under injected constant and
    duplicated columns and for the square m = n + 1 shape."""
    n = rng.randint(1, 8)
    case = t % 4
    m = n + 1 if case == 3 else rng.randint(n + 2, 40)
    x = rng.real_matrix(m, n)
    if case == 1:
        x[:, rng.randint(0, n - 1)] = rng.uniform()
    elif case == 2:
        if n >= 2:
            x[:, rng.randint(1, n - 1)] = x[:, 0]
        else:
            x[:, 0] = rng.uniform()
    d = Dataset(x, np.zeros(m))
    ok = design_rank(d) == centered_rank(d) + 1
    return ok, 0.0 if ok else 1.0


def _check_unitary(rng: SplitMix64, t: int, tol: float):
    """All three distances are invariant under a random unitary map."""
    m = rng.randint(2, 10)
    n = rng.randint(1, m - 1)
    a = _full_rank_complex(rng, m, n)
    b = rng.complex_vector(m)
    u = _unitary(rng, m)
    ua = u @ a
    ub = u @ b
    dev = 0.0
    for fn in (distance_det, distance_projection, distance_qr):
        dev = max(dev, _rel(fn(a, b).value, fn(ua, ub).value))
    return dev <= tol, dev


def _check_qr_gram(rng: SplitMix64, t: int, tol: float):
    """QR Gram log-determinant matches LU (slogdet) on the explicit Gram,
    is unitarily invariant, and the rank survives column permutations."""
    m = rng.randint(1, 10)
    n = rng.randint(1, min(m, 6))
    a = rng.complex_matrix(m, n)
    r = householder_qr(a)
    rank = _rank_of_r(r, m)
    ld_qr = _logdet_at_rank(r, rank)
    sign, log_lu = np.linalg.slogdet(a.conj().T @ a)
    if ld_qr.is_zero or sign == 0:
        dev_lu = 0.0 if ld_qr.is_zero and math.exp(log_lu) <= TINY else 1.0
        dev_uni = 0.0
    else:
        dev_lu = abs(math.expm1(ld_qr.log_mag - log_lu))
        u = _unitary(rng, m)
        ld_u = gram_logdet(householder_qr(u @ a), m)
        dev_uni = 1.0 if ld_u.is_zero else abs(math.expm1(ld_u.log_mag - ld_qr.log_mag))
    perm_rank = _rank_of_r(householder_qr(a[:, rng.permutation(n)]), m)
    ok = dev_lu <= tol and dev_uni <= tol and perm_rank == rank
    return ok, max(dev_lu, dev_uni)


# (index, name, check, tolerance): trial t of a suite draws from
# derive_seed(seed, index, t).  An index is never reused, so retiring a
# suite moves no other suite's stream; 7 was det_identities and 8 was
# psd_solve.
SUITES = (
    (0, "distance_product_identity", _check_distance_product, 1e-9),
    (1, "distance_agreement", _check_agreement, 1e-8),
    (2, "minor_sum_identity", _check_minor_sum, 1e-9),
    (3, "loss_value_equivalence", _check_loss_equivalence, 1e-8),
    (4, "correlation_equivalence", _check_correlation_equivalence, 1e-8),
    (5, "rank_relation", _check_rank_relation, 0.0),
    (6, "unitary_invariance", _check_unitary, 1e-9),
    (9, "qr_gram", _check_qr_gram, 1e-9),
)

SUITE_NAMES = tuple(name for _, name, _, _ in SUITES)


def run_suite(name: str, seed: int = 42, trials: int = 500) -> SuiteResult:
    """Run one named suite at its registry tolerance; trial t draws from
    derive_seed(seed, index, t), with the suite's registry index."""
    if trials <= 0:
        raise ValueError("trials must be a positive integer")
    for index, suite_name, fn, tol in SUITES:
        if suite_name == name:
            break
    else:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    # derive_seed(seed, index, t), with the prefix for (seed, index) folded once
    prefix = derive_seed(seed, index)
    runs = (fn(SplitMix64(mix64(prefix ^ mix64(t))), t, tol) for t in range(trials))
    return SuiteResult(name, tol, tuple((bool(ok), float(dev)) for ok, dev in runs))


def run_all(seed: int = 42, trials: int = 500) -> list[SuiteResult]:
    """Run every suite in registry order with a shared seed and trial count."""
    return [run_suite(name, seed=seed, trials=trials) for name in SUITE_NAMES]
