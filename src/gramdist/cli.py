"""Command-line front end.

Subcommands:

* ``dist``       -- all three distance routes for a matrix and a vector.
* ``gram-check`` -- the squared-minor identity and the orthogonal minor
                    vector for an (n+1) x n matrix.
* ``regress``    -- loss value, correlation (both routes) and optionally
                    the coefficients for a CSV dataset.
* ``verify``     -- the seeded property suites; the same seed draws the
                    same trials everywhere, and prints the same bytes on
                    the same machine, numpy and BLAS build.

Exit codes: 0 ok, 1 input error, 2 rank-deficient, 3 zero variance,
4 verification failure.  Numbers are printed as shortest round-trip decimals
(at most 17 significant digits), identically in text and JSON modes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .csvio import parse_csv
from .distance import _det_ratio, distance_projection, distance_qr, gram_logdets, minor_sum, orthogonal_minor_vector
from .errors import GramDistError, RankDeficient, ShapeError, ZeroVariance
from .qr import gram_logdet, householder_qr
from .regression import Dataset, regression_report
from .verify import run_all

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RANK = 2
EXIT_VARIANCE = 3
EXIT_VERIFY = 4

_MEANING = {
    EXIT_OK: "ok",
    EXIT_INPUT: "input error",
    EXIT_RANK: "rank-deficient",
    EXIT_VARIANCE: "zero variance",
    EXIT_VERIFY: "verification failure",
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1, not 2."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    """Shortest round-trip decimal for a float; strings pass through."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _fmt_complex(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return f"{repr(z.imag)}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{repr(z.real)}{sign}{repr(abs(z.imag))}i"


def _json_safe(x):
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, bool):
        return x
    if isinstance(x, (float, np.floating)):
        v = float(x)
        return v if math.isfinite(v) else repr(v)
    if isinstance(x, (int, np.integer)):
        return int(x)
    return x


def _rel_dev(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _payload(command, inputs, results, deviations, code):
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "deviations": deviations,
        "exit_semantics": {"code": code, "meaning": _MEANING[code]},
    }


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_json_safe(payload), ensure_ascii=False))
        return
    head = " ".join(f"{k}={v}" for k, v in payload["inputs"].items())
    print(f"{payload['command']} {head}".rstrip())
    for key, value in payload["results"].items():
        if isinstance(value, (list, tuple)):
            print(f"{key}: " + ",".join(str(v) for v in value))
        elif value is None:
            print(f"{key}: undefined")
        else:
            print(f"{key}: {_fmt(value)}")
    for key, value in payload["deviations"].items():
        print(f"deviation {key}: {_fmt(value)}")
    sem = payload["exit_semantics"]
    print(f"exit: {sem['code']} ({sem['meaning']})")


def _cmd_dist(args) -> int:
    a = parse_csv(args.matrix, "complex").matrix()
    bm = parse_csv(args.vector, "complex").matrix()
    if bm.shape[1] != 1:
        raise GramDistError(
            f"vector file must have exactly one column, got {bm.shape[1]}"
        )
    b = bm[:, 0]
    code = EXIT_OK
    values = {}
    # one tall QR of (b|A) and one (n+1) x n QR give both the
    # determinant-route distance and the log-determinants reported below
    ld_a, ld_ab = gram_logdets(a, b)
    try:
        values["distance_det"] = _det_ratio(ld_a, ld_ab)
    except RankDeficient:
        values["distance_det"] = None
        code = EXIT_RANK
    try:
        values["distance_projection"] = distance_projection(a, b).value
    except RankDeficient:
        values["distance_projection"] = None
        code = EXIT_RANK
    try:
        values["distance_qr"] = distance_qr(a, b).value
    except ShapeError:
        # a square matrix has no (n+1)-th row to triangularize into; the
        # other two routes still apply (distance 0 for full rank)
        values["distance_qr"] = None
    results = dict(values)
    results["gram_logdet_a"] = ld_a.log_mag
    results["gram_logdet_ab"] = ld_ab.log_mag
    deviations = {}
    pairs = (
        ("det_vs_projection", "distance_det", "distance_projection"),
        ("det_vs_qr", "distance_det", "distance_qr"),
        ("projection_vs_qr", "distance_projection", "distance_qr"),
    )
    for label, ka, kb in pairs:
        if values[ka] is not None and values[kb] is not None:
            deviations[label] = _rel_dev(values[ka], values[kb])
    payload = _payload(
        "dist",
        {"matrix": args.matrix, "vector": args.vector},
        results,
        deviations,
        code,
    )
    _emit(payload, args.format)
    return code


def _cmd_gram_check(args) -> int:
    a = parse_csv(args.matrix, "complex").matrix()
    s = minor_sum(a)
    ld = gram_logdet(householder_qr(a), a.shape[0])
    g = ld.magnitude()
    bvec = orthogonal_minor_vector(a)
    residual = float(np.linalg.norm(np.conj(a).T @ bvec))
    results = {
        "minor_sum": s,
        "gram_det": g,
        "minor_vector": [_fmt_complex(z) for z in bvec],
        "orthogonality_residual": residual,
    }
    deviations = {"minor_sum_vs_gram_det": _rel_dev(s, g)}
    payload = _payload(
        "gram-check", {"matrix": args.matrix}, results, deviations, EXIT_OK
    )
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_regress(args) -> int:
    table = parse_csv(args.data, "real")
    if args.target not in table.header:
        raise GramDistError(f"target column {args.target!r} not found in header")
    if table.width < 2:
        raise GramDistError("need at least one regressor column besides the target")
    mat = table.matrix()
    t_index = table.header.index(args.target)
    keep = [j for j in range(table.width) if j != t_index]
    x = mat[:, keep]
    y = mat[:, t_index]
    names = tuple(table.header[j] for j in keep) + (args.target,)
    d = Dataset(x, y, names)
    rep = regression_report(d, solve=not args.no_solve)
    results = {
        "loss_value": rep.loss_value,
        "correlation_det": rep.correlation,
        "correlation_projection": rep.correlation_projection,
        "mean_squared_loss": rep.mean_squared_loss,
        # a returned report always has full rank (rank-deficient data exits
        # 2); the key stays only because bench/selftest.py (line 101)
        # asserts it
        "rank_full": True,
    }
    if args.coefficients and rep.coefficients is not None:
        results["coefficients"] = [float(c) for c in rep.coefficients]
    if rep.flags:
        results["flags"] = list(rep.flags)
    deviations = {}
    if rep.correlation_projection is not None:
        deviations["correlation_det_vs_projection"] = _rel_dev(
            rep.correlation, rep.correlation_projection
        )
    payload = _payload(
        "regress",
        {"data": args.data, "target": args.target},
        results,
        deviations,
        EXIT_OK,
    )
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not 0 <= args.seed < 2**64:
        raise GramDistError("seed must fit in 64 unsigned bits")
    suites = run_all(seed=args.seed, trials=args.trials)
    all_pass = all(s.passed for s in suites)
    code = EXIT_OK if all_pass else EXIT_VERIFY
    results = {
        "suites": {
            s.name: {
                "trials": s.trials,
                "failures": s.failures,
                "max_dev": s.max_dev,
                "tolerance": s.tolerance,
                "passed": s.passed,
            }
            for s in suites
        },
        "passed": all_pass,
    }
    deviations = {s.name: s.max_dev for s in suites}
    payload = _payload(
        "verify",
        {"seed": args.seed, "trials": args.trials},
        results,
        deviations,
        code,
    )
    if args.format == "json":
        _emit(payload, "json")
        return code
    print(f"verify seed={args.seed} trials={args.trials}")
    for s in suites:
        status = "pass" if s.passed else "FAIL"
        print(
            f"{s.name}: {status} trials={s.trials} failures={s.failures} "
            f"max_dev={_fmt(s.max_dev)} tol={_fmt(s.tolerance)}"
        )
    failed = sum(1 for s in suites if not s.passed)
    print(f"result: {'PASS' if all_pass else 'FAIL'} suites={len(suites)} failed={failed}")
    print(f"exit: {code} ({_MEANING[code]})")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gramdist", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distance from a vector to a column space, three ways")
    p_dist.add_argument("--matrix", required=True, help="CSV file with the matrix (complex cells allowed)")
    p_dist.add_argument("--vector", required=True, help="CSV file with one column")
    p_dist.add_argument("--format", choices=("text", "json"), default="text")

    p_gram = sub.add_parser("gram-check", help="squared-minor identity for an (n+1) x n matrix")
    p_gram.add_argument("--matrix", required=True)
    p_gram.add_argument("--format", choices=("text", "json"), default="text")

    p_reg = sub.add_parser("regress", help="loss value and multiple correlation for a CSV dataset")
    p_reg.add_argument("--data", required=True)
    p_reg.add_argument("--target", required=True, help="header label of the target column")
    p_reg.add_argument("--coefficients", action="store_true", help="also solve for the coefficients")
    p_reg.add_argument("--no-solve", action="store_true", help="determinant-route numbers only, no regression solve")
    p_reg.add_argument("--format", choices=("text", "json"), default="text")

    p_ver = sub.add_parser("verify", help="run the seeded property suites")
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--trials", type=int, default=500)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    return parser


_DISPATCH = {
    "dist": _cmd_dist,
    "gram-check": _cmd_gram_check,
    "regress": _cmd_regress,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except RankDeficient as exc:
        print(f"gramdist: rank-deficient: {exc}", file=sys.stderr)
        return EXIT_RANK
    except ZeroVariance as exc:
        print(f"gramdist: zero variance: {exc}", file=sys.stderr)
        return EXIT_VARIANCE
    except (GramDistError, OverflowError, OSError, UnicodeDecodeError, ValueError, TypeError) as exc:
        print(f"gramdist: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
