"""collapsum benchmark: one command, three workloads, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` beside this directory; nothing is
installed.  Inputs come from ``--seed`` alone (see ``inputs.py``).  The load
is one process with one client in a closed loop: a request starts when the
previous one has ended, and no threads are started.  The loop runs for
``--seconds`` and then to the end of the current cycle of requests, so
every run covers whole cycles (verify-r8 cycles through four edge modes).
Every request's output is checked; a failed request or check counts in
``failed``.

The inputs are made once, untimed.  ``setup_s`` is the median of
``SETUP_REPS`` set-ups of the program, each a fresh process that starts
Python, imports collapsum and runs the workload once on a small input.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
Their times are in reference seconds: scaled by a calibration load timed
around each request and set-up (see ``CALIBRATION_REF_S``).  The lines
before the result also give them in seconds of this machine.  Besides the
requests' own processes, the benchmark starts only the process that times
that load, which is idle while a request runs.

``--trace 1`` runs each request twice, untraced and traced, with spans
recorded around calls into each module (``tracing.py``), checks that the
traced output equals the untraced one, and prints the per-layer metrics,
per request, in seconds of this machine.  Spans are written to
``perfbench/.work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and each metric in words.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPS = 5
REQUEST_LIMIT_S = 90

# The CPU speed of a shared virtual machine drifts, by up to 1.6x over
# seconds to minutes and as much over hours, and no run length averages
# that out.  So a fixed load (``calibrate.py``) is timed before and after
# every request and set-up, and each end-to-end time is scaled to a reference
# machine on which that load takes CALIBRATION_REF_S:
# time * CALIBRATION_REF_S / (mean of the two timings).
# The benchmark and all its children are pinned to one CPU, so the load is
# timed on the CPU the request ran on.
CALIBRATION_REF_S = 0.075


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the main thread once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"request ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Tally:
    """Attempted and failed requests of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, action):
        """Run one request; an error it raises counts as a failure."""
        self.attempted += 1
        try:
            with time_limit(REQUEST_LIMIT_S):
                return action()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


class Calibrator:
    """The process that times the calibration load."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def scale(self, before: float, after: float) -> float:
        return CALIBRATION_REF_S / ((before + after) / 2)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def set_up(workload, calibrator: Calibrator) -> dict:
    """Set the program up once; return the seconds taken and their
    calibration scale."""
    before = calibrator.seconds()
    start = time.perf_counter()
    workload.set_up()
    seconds = time.perf_counter() - start
    return {"seconds": seconds,
            "scale": calibrator.scale(before, calibrator.seconds())}


def closed_loop(workload, seconds: float, step,
                calibrator: Calibrator) -> list[dict]:
    """Call ``step(i)`` for i = 0, 1, ... for ``seconds``, then to a whole
    cycle of requests; return the records it made, each with the
    calibration scale of its step."""
    records = []
    start = time.perf_counter()
    before = calibrator.seconds()
    while True:
        record = step(len(records))
        after = calibrator.seconds()
        record["scale"] = calibrator.scale(before, after)
        records.append(record)
        before = after
        elapsed = time.perf_counter() - start
        if len(records) % workload.cycle == 0 and elapsed >= seconds:
            return records


def untraced_step(workload, tally: Tally):
    def step(i: int) -> dict:
        start = time.perf_counter()
        result = tally.attempt(lambda: workload.request(i))
        latency = time.perf_counter() - start
        output, rss = result if result else (None, 0)
        ok = result is not None and workload.check(output)
        if result is not None:
            tally.expect(ok, f"output of request {i}")
        return {"latency": latency, "output": output, "rss": rss, "ok": ok}
    return step


def traced_step(workload, tally: Tally, tracer: tracing.Tracer, missing: set):
    """Run request i untraced and traced: on even i untraced first, on odd i
    traced first, so that neither side always runs on a warmer machine.

    The traced output must equal the untraced one.
    """
    untraced = untraced_step(workload, tally)

    def traced(i: int):
        start = time.perf_counter()
        result = tally.attempt(lambda: workload.traced_request(i, tracer))
        return result, time.perf_counter() - start

    def step(i: int) -> dict:
        if i % 2:
            result, traced_latency = traced(i)
            record = untraced(i)
        else:
            record = untraced(i)
            result, traced_latency = traced(i)
        record["traced_latency"] = traced_latency
        if result is not None:
            output, request_missing = result
            missing.update(request_missing)
            tally.expect(output == record["output"] and workload.check(output),
                         f"traced output of request {i} equals the untraced one")
        return record
    return step


def end_to_end(workload, records, setups, scaled: bool = True) -> dict:
    """The end-to-end metrics, with times scaled by their calibration, or
    as measured when ``scaled`` is false."""
    def seconds(entry, key):
        return entry[key] * (entry["scale"] if scaled else 1.0)

    done = sum(r["ok"] for r in records)
    busy = sum(seconds(r, "latency") for r in records)
    return {
        "mpix_per_s": (done * workload.pixels / 1e6 / busy, "Mpix/s"),
        "latency_p50_s": (statistics.median(seconds(r, "latency")
                                            for r in records), "s"),
        "setup_s": (statistics.median(seconds(s, "seconds") for s in setups),
                    "s"),
        "peak_rss_mb": (max(r["rss"] for r in records) / 1024, "MB"),
    }


# Per-layer metrics that are the self time of one span name.
SELF_TIME_METRICS = {
    "collapse.down_s": "collapse.down",
    "collapse.right_s": "collapse.right",
    "kernels.convolve_s": "kernels.convolve",
    "kernels.extend_s": "kernels.extend",
    "kernels.round_s": "kernels.round",
    "kernels.kernel_build_s": "kernels.kernel_build",
    "netpbm.read_s": "netpbm.read",
    "netpbm.write_s": "netpbm.write",
    "netpbm.quantize_s": "netpbm.quantize",
    "pipeline.blur_self_s": "pipeline.blur",
    "pipeline.deviation_s": "pipeline.deviation",
}
LAYERS = ("cli", "pipeline", "collapse", "kernels", "netpbm")


def per_layer(workload, spans, requests: int, overhead: float,
              missing: set[str]) -> dict:
    """Layer metrics per request, from the spans of ``requests`` requests.

    The ``<layer>.self_s`` values and ``trace.unattributed_s`` add up to
    ``trace.root_s``.  ``overhead`` is the traced time of a request over its
    untraced time.
    """
    own = tracing.self_times(spans)
    work = tracing.work_totals(spans)
    calls = tracing.call_counts(spans)
    n = requests
    metrics = {name: (own.get(span, 0.0) / n, "s")
               for name, span in SELF_TIME_METRICS.items()}
    for layer in LAYERS:
        total = sum(t for name, t in own.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (total / n, "s")
    adds = work.get("collapse.down.adds", 0) + work.get("collapse.right.adds", 0)
    model = sum(workload.collapse_model(i) for i in range(n))
    read_s = own.get("netpbm.read", 0.0)
    read_bytes = work.get("netpbm.read.bytes", 0)
    roots = [s for s in spans if s["parent"] is None]
    metrics.update({
        "collapse.passes": ((calls.get("collapse.down", 0)
                             + calls.get("collapse.right", 0)) / n, "count"),
        "collapse.adds": (adds / n, "count"),
        "collapse.adds_over_model": (adds / model, "ratio"),
        "kernels.convolve_macs": (work.get("kernels.convolve.macs", 0) / n,
                                  "count"),
        "kernels.extend_entries": (work.get("kernels.extend.entries", 0) / n,
                                   "count"),
        "netpbm.read_mb_per_s": (read_bytes / 1e6 / read_s if read_s else 0.0,
                                 "MB/s"),
        "netpbm.samples": ((work.get("netpbm.read.samples", 0)
                            + work.get("netpbm.write.samples", 0)) / n, "count"),
        "trace.root_s": (sum(s["end"] - s["start"] for s in roots) / 1e9 / n, "s"),
        "trace.unattributed_s": (own.get("request", 0.0) / n, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.missing_points": (len(missing), "count"),
    })
    return metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "collapsum").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def measure(args, workload, tally: Tally, tmp: Path,
            calibrator: Calibrator) -> dict:
    workload.prepare(random.Random(args.seed), tmp)
    reps = 1 if args.trace else SETUP_REPS
    setups = [set_up(workload, calibrator) for _ in range(reps)]
    workload.make_reference()
    if not args.trace:
        records = closed_loop(workload, args.seconds,
                              untraced_step(workload, tally), calibrator)
        print(f"requests {len(records)}; error_ratio "
              f"{tally.failed / tally.attempted:.6g} "
              f"({tally.failed}/{tally.attempted}); calibration scale median "
              f"{statistics.median(r['scale'] for r in records):.4f}")
        for name, (value, unit) in end_to_end(workload, records, setups,
                                              scaled=False).items():
            print(f"this machine: {name} {value:.6g} {unit}")
        return end_to_end(workload, records, setups)
    tracer = tracing.Tracer()
    missing: set[str] = set()
    records = closed_loop(workload, args.seconds,
                          traced_step(workload, tally, tracer, missing),
                          calibrator)
    if missing:
        print("missing wrap points: " + ", ".join(sorted(missing)))
    trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"args": vars(args),
                                      "missing": sorted(missing),
                                      "spans": tracer.spans}))
    overhead = statistics.median(r["traced_latency"] / r["latency"]
                                 for r in records)
    return per_layer(workload, tracer.spans, len(records), overhead, missing)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "collapsum" / "__init__.py").is_file():
        print(f"error: no collapsum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    print("env " + json.dumps(environment(args)))
    workload = WORKLOADS[args.workload]()
    tally = Tally()
    WORK.mkdir(exist_ok=True)
    calibrator = Calibrator()
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            metrics = measure(args, workload, tally, Path(tmp), calibrator)
    finally:
        calibrator.close()
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
