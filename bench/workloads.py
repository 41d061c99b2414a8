"""The three benchmark workloads: inputs made from the workload seed with
``numpy.random.default_rng``, one operation each, and the checks on its
output.

A workload object is built once per process from (seed, workdir). For op
index i, ``prepare(i)`` makes the op's input outside the timed region,
``run_inprocess`` runs the op inside the current interpreter, and
``check(i, prepared, result)`` returns None when the output is right and a
one-line reason when it is not. The CLI workloads run the same argv either
as a ``python -m gramdist`` subprocess (end-to-end) or through
``gramdist.cli.main`` (in-process and traced); their result is always
``(exit code, stdout bytes)``.

The tolerances are the repository's own suite tolerances (1e-8 for
distance_agreement, loss_value_equivalence and correlation_equivalence).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-8

REGRESS_ROWS = 20000
REGRESS_REGRESSORS = 10
DIST_ROWS, DIST_COLS = 1000, 200
VERIFY_TRIALS = 100
VERIFY_SEEDS = 4


def rel_dev(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def run_cli_inprocess(argv: list[str]) -> tuple[int, bytes]:
    import gramdist.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = gramdist.cli.main(argv)
    return code, buf.getvalue().encode("utf-8")


def lstsq_residual(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares coefficients and residual norm by LAPACK, with the
    columns equilibrated first so mixed column scales cost no accuracy."""
    norms = np.linalg.norm(design, axis=0)
    scaled, *_ = np.linalg.lstsq(design / norms, y, rcond=None)
    coef = scaled / norms
    return coef, float(np.linalg.norm(y - design @ coef))


class RegressCli:
    """`gramdist regress` on a 20000 x 11 CSV with mixed column scales."""

    name = "regress_cli"
    cli = True

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        rows, n = REGRESS_ROWS, REGRESS_REGRESSORS
        scales = 10.0 ** rng.uniform(-3.0, 3.0, n)
        offsets = rng.normal(0.0, 2.0, n)
        x = (rng.standard_normal((rows, n)) + offsets) * scales
        beta = rng.standard_normal(n) / scales
        y = rng.normal() + x @ beta + rng.standard_normal(rows)
        self.path = Path(workdir) / f"regress-{seed}.csv"
        header = ",".join([f"x{j + 1}" for j in range(n)] + ["y"])
        lines = [header]
        lines.extend(",".join(map(repr, row)) for row in np.column_stack([x, y]).tolist())
        self.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.design = np.column_stack([np.ones(rows), x])
        self.y = y
        _, self.ref_loss = lstsq_residual(self.design, y)

    def prepare(self, i: int) -> list[str]:
        return ["regress", "--data", str(self.path), "--target", "y",
                "--coefficients", "--format", "json"]

    def op_seed(self, i: int):
        return None

    def run_inprocess(self, argv):
        return run_cli_inprocess(argv)

    def check(self, i: int, argv, result) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        try:
            res = json.loads(out)["results"]
            loss = float(res["loss_value"])
            coef = np.array(res["coefficients"], dtype=np.float64)
            rho_det = float(res["correlation_det"])
            rho_proj = float(res["correlation_projection"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        if not rel_dev(loss, self.ref_loss) <= REL_TOL:
            return f"loss_value {loss!r} vs lstsq {self.ref_loss!r}"
        if coef.shape != (self.design.shape[1],):
            return f"{coef.size} coefficients, expected {self.design.shape[1]}"
        resid = float(np.linalg.norm(self.y - self.design @ coef))
        if not rel_dev(resid, self.ref_loss) <= REL_TOL:
            return f"coefficient residual {resid!r} vs lstsq {self.ref_loss!r}"
        if not abs(rho_det - rho_proj) <= REL_TOL:
            return f"correlation_det {rho_det!r} vs correlation_projection {rho_proj!r}"
        return None


class DistWide:
    """The three distance routes on a fresh complex 1000 x 200 (A, b) per op."""

    name = "dist_wide"
    cli = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def op_seed(self, i: int):
        return [self.seed, i]

    def prepare(self, i: int):
        rng = np.random.default_rng(self.op_seed(i))
        shape = (DIST_ROWS, DIST_COLS)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b = rng.standard_normal(DIST_ROWS) + 1j * rng.standard_normal(DIST_ROWS)
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        return a, b, float(np.linalg.norm(b - a @ x))

    def run_inprocess(self, prepared):
        import gramdist

        a, b, _ = prepared
        return (
            gramdist.distance_det(a, b).value,
            gramdist.distance_projection(a, b).value,
            gramdist.distance_qr(a, b).value,
        )

    def check(self, i: int, prepared, result) -> str | None:
        ref = prepared[2]
        for route, value in zip(("det", "projection", "qr"), result):
            if not (math.isfinite(value) and rel_dev(value, ref) <= REL_TOL):
                return f"distance_{route} {value!r} vs lstsq {ref!r}"
        return None


class VerifyCli:
    """`gramdist verify --trials 100`, cycling through four seeds."""

    name = "verify_cli"
    cli = True

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**62, VERIFY_SEEDS)]
        self.first: dict[int, bytes] = {}

    def op_seed(self, i: int):
        return self.seeds[i % len(self.seeds)]

    def prepare(self, i: int) -> list[str]:
        return ["verify", "--seed", str(self.op_seed(i)), "--trials", str(VERIFY_TRIALS)]

    def run_inprocess(self, argv):
        return run_cli_inprocess(argv)

    def check(self, i: int, argv, result) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        if b"\nresult: PASS " not in out:
            return "no 'result: PASS' line"
        first = self.first.setdefault(self.op_seed(i), out)
        if out != first:
            return "stdout differs from the first op with the same seed"
        return None


WORKLOADS = {w.name: w for w in (RegressCli, DistWide, VerifyCli)}
