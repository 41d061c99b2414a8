"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median, from
``statistics.quantiles(values, n=4)``) against its bound in BENCHMARK.json.
The timings as measured, before the host adjustment, are shown too, for
comparison only.

    python3 bench/steady.py --workloads dist_wide verify_cli --seeds 1 2 3 4 5

Each run measures for BENCHMARK.json's run_seconds. Run from the root of a
checkout. Prints one line per run and a table at the end; exits 1 when any
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import quartile_spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            res = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if res.returncode != 0:
                print(f"{workload} seed {seed}: exit {res.returncode}: {res.stderr.strip()[-300:]}")
                return 1
            *_, report, last = res.stdout.strip().splitlines()
            result = json.loads(last)
            row = {k: v["value"] for k, v in result["metrics"].items()}
            raw = json.loads(report.split(" ", 1)[1])["raw"]
            row.update({f"{k}.as_measured": v for k, v in raw.items()})
            print(f"{workload} seed {seed} correct={result['correct']} ops={result['attempted']} "
                  + " ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)
            for k, v in row.items():
                values.setdefault(k, []).append(v)
        for name in (k for k in values if k.endswith(".as_measured")):
            vals = values[name]
            print(f"  {workload:12s} {name:24s} median {statistics.median(vals):10.5g} "
                  f"spread {quartile_spread(vals):6.3f}")
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
            flag = ""
            if spread > m["bound"] / 3:
                flag = "above bound/3"
            if spread > m["bound"]:
                flag, ok = "ABOVE BOUND", False
            print(f"  {workload:12s} {m['name']:12s} median {statistics.median(vals):10.5g} {m['unit']:4s} "
                  f"spread {spread:6.3f} bound {m['bound']:.2f} {flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
