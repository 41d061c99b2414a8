"""Run one workload of the gramdist benchmark and print its metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload regress_cli --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics, with the timings reported
at a reference host speed (see ``measure.host_factor``); ``--trace 1``
runs the same inputs in-process, once untraced and once with spans around
every public gramdist function (each in its own process, so no wrapper
leaks into the other), and reports the per-layer metrics. The metric names and units are
the ones listed in BENCHMARK.json. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it, starting with ``report``, holds everything else measured and
the environment record. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and every process it starts, set before
# numpy loads. The workloads run one op at a time; a second BLAS thread buys
# nothing at these sizes on a small machine, and its spin-waiting makes op
# times depend on whatever else holds the other cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from measure import at_reference_speed, host_factor, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
SETUP_REPS = 5
MIN_OPS = 11  # so that op_tail_s always has ten samples beyond it
TRACE_MIN_OPS = 2
IMPORT_PROBE_REPS = 9
# A run may take --seconds plus this long (set-ups, the import probe and the
# last op of the loop) before it is cut and prints no result.
RUN_ALLOWANCE_S = 140.0


def pin_to_one_cpu():
    """Keep this process and every process it starts on one CPU, the
    highest-numbered one it may use; returns that CPU, or None where the
    platform cannot pin. On a shared VM the virtual CPUs run at different
    speeds from moment to moment, so an op that moves between them, or a
    probe timed on another CPU than the op, adds noise."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, workdir: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + seconds + RUN_ALLOWANCE_S
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)

    def child(self, argv: list[str]) -> subprocess.CompletedProcess:
        try:
            return subprocess.run(
                argv, env=self.env, cwd=self.root, capture_output=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[1:3]} ran past the time budget") from exc

    def worker(self, mode: str, seconds: float, min_ops: int) -> dict:
        """Run bench/worker.py in its own session; on a timeout or an
        interrupt the whole session, CLI children included, is killed."""
        argv = [sys.executable, str(BENCH / "worker.py"), mode, self.workload,
                str(self.seed), str(seconds), str(min_ops), str(self.workdir)]
        proc = subprocess.Popen(argv, env=self.env, cwd=self.root, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except BaseException as exc:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the worker and its children have already exited
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{mode} worker ran past the time budget") from exc
            raise
        if proc.returncode != 0:
            tail_lines = err.decode("utf-8", "replace").strip().splitlines()[-5:]
            raise BenchError(f"{mode} worker exited {proc.returncode}: " + " | ".join(tail_lines))
        return json.loads(out.decode("utf-8").strip().splitlines()[-1])

    def gramdist_file(self) -> str:
        """Where a child interpreter imports gramdist from; must be this checkout's src."""
        res = self.child([sys.executable, "-c", "import gramdist; print(gramdist.__file__)"])
        path = res.stdout.decode("utf-8", "replace").strip()
        src = (self.root / "src").resolve()
        if res.returncode != 0 or src not in Path(path).resolve().parents:
            raise BenchError(f"gramdist is not importable from {src}: {path or res.stderr[-200:]!r}")
        return path

    def import_seconds(self) -> float:
        """Median fresh ``import gramdist`` minus median bare interpreter start."""
        bare, full = [], []
        for _ in range(IMPORT_PROBE_REPS):
            for code, into in (("pass", bare), ("import gramdist", full)):
                t = time.perf_counter()
                if self.child([sys.executable, "-c", code]).returncode != 0:
                    raise BenchError(f"python -c {code!r} failed")
                into.append(time.perf_counter() - t)
        return statistics.median(full) - statistics.median(bare)


def openblas_threads():
    """Thread count of the OpenBLAS that numpy wheels bundle; None for another BLAS."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(root: Path) -> dict:
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        scipy_version = importlib.metadata.version("scipy")  # reads metadata, imports nothing
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    blas["threads"] = openblas_threads()
    git = {"commit": None, "dirty": None}
    if (root / ".git").exists():
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain"],
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            git = {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "git": git,
    }


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    # Set-ups are split around the timed run, so one slow spell of the
    # machine moves fewer of them.
    before = [runner.worker("setup", 0, 0) for _ in range(SETUP_REPS // 2)]
    run = runner.worker("e2e", seconds, MIN_OPS)
    after = [runner.worker("setup", 0, 0) for _ in range(SETUP_REPS - 1 - SETUP_REPS // 2)]
    setups = before + [run] + after
    lat = run["latencies"]
    tail_value, tail_pct, n = tail(lat)
    failed = len(run["failures"])
    probes = [p for s in setups for p in s["probes_s"]]
    host = host_factor(probes)
    raw = {
        "setup_s": statistics.median([s["setup_s"] for s in setups]),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
    }
    metrics = at_reference_speed(raw, host)
    metrics["error_rate"] = failed / len(lat)
    metrics["peak_rss_mb"] = run["peak_rss_kib"] / 1024.0
    report = {
        "raw": raw,
        "host_factor": host,
        "probe_mean_s": statistics.fmean(probes),
        "probe_samples": len(probes),
        "op_tail_percentile": tail_pct,
        "op_samples": n,
        "timed_s": sum(lat),
        "setup_samples_s": [s["setup_s"] for s in setups],
        "latencies_s": lat,
        "failures": run["failures"],
        "warmup_failures": [f for s in setups for f in s["warmup_failures"]],
        "attempted": len(lat),
        "failed": failed,
    }
    return metrics, report


def function_metric(summary: dict, wrapped: list[str], name: str):
    """`<function>.calls|self_s|total_s` for a wrapped function; 0 when it
    was never called; None (absent) when no such function exists."""
    fn, _, stat = name.rpartition(".")
    if stat not in ("calls", "self_s", "total_s") or fn not in wrapped:
        return None
    return summary["functions"].get(fn, {}).get(stat, 0.0)


def traced(runner: Runner, seconds: float, wanted: list[str]) -> tuple[dict, dict]:
    base = runner.worker("inproc", seconds / 2, TRACE_MIN_OPS)
    run = runner.worker("traced", seconds / 2, TRACE_MIN_OPS)
    summary = run["trace"]
    funcs = summary["functions"]
    common = min(len(base["latencies"]), len(run["latencies"]))
    untraced_op = sum(base["latencies"][:common]) / common
    traced_op = sum(run["latencies"][:common]) / common

    def work_rate(fn: str, self_s: float, scale: float = 1.0) -> float:
        return funcs[fn]["work"] / self_s / scale if fn in funcs and self_s > 0 else 0.0

    qr = "qr.householder_qr"
    derived = {
        "cli.import_s": runner.import_seconds(),
        "csvio.cells_per_s": work_rate("csvio.parse_csv", summary["modules"]["csvio"]),
        f"{qr}.gflop_per_s": work_rate(qr, funcs.get(qr, {}).get("self_s", 0.0), 1e9),
        "trace.overhead_s": traced_op - untraced_op,
        "trace.untraced_op_s": untraced_op,
    }
    derived.update({f"{m}.self_s": v for m, v in summary["modules"].items()})
    derived.update({f"{label}.total_s": v for label, v in summary["labels"].items()})
    metrics, absent = {}, []
    for name in wanted:
        if name in derived:
            metrics[name] = derived[name]
        elif name.startswith("verify.") and name.endswith(".total_s"):
            metrics[name] = 0.0  # a suite that did not run on this workload
        else:
            value = function_metric(summary, run["wrapped"], name)
            if value is None:
                absent.append(name)
                value = 0.0
            metrics[name] = value
    failures = base["failures"] + run["failures"]
    report = {
        "traced_ops": len(run["latencies"]),
        "untraced_ops": len(base["latencies"]),
        "overhead_share": (traced_op - untraced_op) / untraced_op,
        "absent": absent + run["absent"],
        "functions": funcs,
        "failures": failures,
        "warmup_failures": base["warmup_failures"] + run["warmup_failures"],
        "attempted": len(base["latencies"]) + len(run["latencies"]),
        "failed": len(failures),
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # SIGTERM unwinds like an exception, so the running worker's session is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cpu = pin_to_one_cpu()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "gramdist" / "__init__.py").is_file() or not spec_path.is_file():
        print("bench: run from the root of a gramdist checkout; it needs "
              "src/gramdist and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workdir = root / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(root, args.workload, args.seed, args.seconds, workdir)
        env = environment(root)
        env["gramdist_file"] = runner.gramdist_file()
        env["pinned_cpu"] = cpu
        if args.trace:
            metrics, report = traced(runner, args.seconds, list(units))
        else:
            metrics, report = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    shown, notes = dict(units), {}
    if not args.trace:
        shown["error_rate"] = "ratio"
        notes = {
            "setup_s": f"median of {SETUP_REPS} set-ups",
            "ops_per_s": f"{report['attempted']} ops in {report['timed_s']:.3f} s",
            "op_tail_s": f"p{report['op_tail_percentile']:.1f} of {report['op_samples']} samples",
            "error_rate": f"{report['failed']} failed of {report['attempted']}",
            "peak_rss_mb": "CLI child" if WORKLOADS[args.workload].cli else "worker process",
        }
        for name, value in report["raw"].items():
            notes[name] = "; ".join(filter(None, [notes.get(name), f"{value:.6g} as measured"]))
        print(f"  timings at the reference host speed: host factor {report['host_factor']:.4f} "
              f"from {report['probe_samples']} probes")
    for name, unit in shown.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {unit:8s} {notes.get(name, '')}")
    if args.trace:
        print(f"  tracing overhead: {100 * report['overhead_share']:.1f}% of the untraced op")
    for f in report["failures"] + report["warmup_failures"]:
        print(f"  FAILED op {f['op']} seed {f['seed']}: {f['reason']}")
    report["env"] = env
    report["metrics"] = metrics
    print("report " + json.dumps(report))
    result = {
        "correct": report["failed"] == 0 and not report["warmup_failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
