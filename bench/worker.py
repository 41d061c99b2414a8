"""One measurement process: set a workload up, warm it up with one untimed
op, then run it as a closed loop (one client, one op at a time) for a fixed
time, and print one JSON line with what it measured.

Modes:

* ``setup``  -- set up and warm up only; reports setup_s, then times the
  host-speed probe a few times.
* ``e2e``    -- end-to-end: a ``python -m gramdist`` subprocess per op for the
  CLI workloads (peak RSS taken from each child), in-process calls for
  dist_wide (peak RSS of this process).
* ``inproc`` -- in-process, untraced; the base for the tracing overhead.
* ``traced`` -- in-process, with a span around every public gramdist function.

In ``e2e`` mode every timed op is preceded by one host-speed probe
(``measure.probe``), outside the op's time; the probe times are reported as
``probes_s``.

Usage: python bench/worker.py MODE WORKLOAD SEED SECONDS MIN_OPS WORKDIR
with the checkout's ``src`` first on PYTHONPATH.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import measure  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3


def run_cli_subprocess(argv: list[str], stderr_path: Path) -> tuple[int, bytes, bytes, int]:
    """Run ``python -m gramdist ARGV``; returns exit code, stdout, stderr and
    the child's own peak RSS in KiB (from wait4, so no other child counts)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "gramdist", *argv],
            stdout=subprocess.PIPE,
            stderr=err,
        )
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, stderr_path.read_bytes(), usage.ru_maxrss


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, min_ops, workdir = argv
    seed, seconds, min_ops, workdir = int(seed), float(seconds), int(min_ops), Path(workdir)
    subprocess_ops = mode in ("setup", "e2e") and workloads.WORKLOADS[name].cli
    stderr_path = workdir / f"stderr-{os.getpid()}.txt"
    tracer = None
    wrapped, absent = [], []
    if not subprocess_ops:
        import gramdist  # noqa: F401  (set-up includes the library import)

        if mode == "traced":
            import spans

            tracer = spans.Tracer()
            wrapped, absent = spans.install(tracer)

    wl = workloads.WORKLOADS[name](seed, workdir)

    rss_kib: list[int] = []
    stderr_tail = ""
    failures = []
    probes: list[float] = []

    def op(prepared):
        nonlocal stderr_tail
        if subprocess_ops:
            code, out, err, rss = run_cli_subprocess(prepared, stderr_path)
            rss_kib.append(rss)
            stderr_tail = err[-300:].decode("utf-8", "replace")
            return code, out
        return wl.run_inprocess(prepared)

    if tracer is not None:
        op = tracer.wrap("op", op)

    def run_and_check(i):
        prepared = wl.prepare(i)
        if i > 0 and mode == "e2e":
            probes.append(measure.probe())
        t = time.perf_counter()
        try:
            result = op(prepared)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            reason = f"raised {exc!r}"
        else:
            reason = None
        latency = time.perf_counter() - t
        if reason is None:
            reason = wl.check(i, prepared, result)
        if reason is not None:
            failures.append({"op": i, "seed": wl.op_seed(i), "reason": reason,
                             "stderr": stderr_tail})
        return latency

    # op 0 is the untimed warm-up; the timed ops are 1, 2, ...
    run_and_check(0)
    setup_s = time.perf_counter() - T0
    report = {"mode": mode, "workload": name, "setup_s": setup_s,
              "warmup_failures": list(failures)}
    if mode == "setup":
        probes.extend(measure.probe() for _ in range(SETUP_PROBES))
    else:
        if tracer is not None:
            tracer.clear()
        rss_kib.clear()
        failures.clear()
        latencies = []
        start = time.perf_counter()
        while len(latencies) < min_ops or time.perf_counter() - start < seconds:
            latencies.append(run_and_check(len(latencies) + 1))
        report["latencies"] = latencies
        report["failures"] = failures
        if subprocess_ops:
            report["peak_rss_kib"] = max(rss_kib)
        else:
            report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            report["trace"] = spans.summarize(tracer.spans, len(latencies))
            report["wrapped"] = wrapped
            report["absent"] = absent
    report["probes_s"] = probes
    stderr_path.unlink(missing_ok=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
