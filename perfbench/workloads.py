"""The benchmark's workloads: what one request does and how it is checked.

Each workload makes its inputs from a ``random.Random`` in :meth:`prepare`,
does the program's set-up in a fresh process (:meth:`set_up`), runs request
``i`` untraced (:meth:`request`, returning the output and a
peak RSS in KiB) or traced (:meth:`traced_request`, returning the output and
the wrap points found missing), and checks an output with :meth:`check`.
Requests repeat in cycles of ``cycle``; ``pixels`` is the input size of one
request.  ``collapsum`` must be importable before this module is imported.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import collapsum
from collapsum import pipeline
from collapsum.kernels import EdgeMode
from collapsum.matrix import Matrix
from collapsum.pipeline import Method, entry_ops

import inputs
import tracing

HERE = Path(__file__).resolve().parent
# Child processes import the same collapsum sources as this process.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(collapsum.__file__).parents[1])}


class RequestFailed(Exception):
    pass


def run_child(argv: list[str], stderr_path: Path) -> int:
    """Run one process to its end; return its peak RSS in KiB.

    ``os.wait4`` gives the rusage of this child alone, so the peak RSS of the
    reference and warm-up runs never mixes with that of a timed request.
    """
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = stderr_path.read_text(errors="replace")[-400:]
        raise RequestFailed(f"exit code {proc.returncode}: {tail}")
    return usage.ru_maxrss


class CliBlur:
    """Each request runs ``collapsum blur`` as a fresh process on one image,
    with the default method.  The output bytes must equal those of the same
    CLI run once, untimed, with ``--method separable``.
    """

    cycle = 1
    channels = 3

    def __init__(self, encode, size: int, maxval: int, radius: int, edge: str):
        self.encode, self.size, self.maxval = encode, size, maxval
        self.radius, self.edge = radius, edge
        self.pixels = size * size

    def prepare(self, rng: random.Random, tmp: Path) -> None:
        self.tmp = tmp
        self.input = tmp / "input.ppm"
        self.input.write_bytes(self.encode(rng, self.size, self.size, self.maxval))
        self.small = tmp / "small.ppm"
        self.small.write_bytes(self.encode(rng, 16, 16, self.maxval))

    def _cli(self, source: Path, target: Path, *options: str) -> list[str]:
        return ["blur", "--radius", str(self.radius), "--edge", self.edge,
                *options, str(source), str(target)]

    def _run(self, argv: list[str]) -> int:
        return run_child(argv, self.tmp / "stderr.txt")

    def set_up(self) -> None:
        """Start the CLI and blur the small image: interpreter start-up,
        imports and one pass through every stage."""
        cli = self._cli(self.small, self.tmp / "small-out.ppm")
        self._run([sys.executable, "-m", "collapsum", *cli])

    def make_reference(self) -> None:
        target = self.tmp / "reference.ppm"
        cli = self._cli(self.input, target, "--method", "separable")
        self._run([sys.executable, "-m", "collapsum", *cli])
        self.reference = target.read_bytes()

    def _output(self) -> Path:
        target = self.tmp / "output.ppm"
        target.unlink(missing_ok=True)
        return target

    def request(self, i: int):
        target = self._output()
        cli = self._cli(self.input, target)
        rss = self._run([sys.executable, "-m", "collapsum", *cli])
        return target.read_bytes(), rss

    def traced_request(self, i: int, tracer: tracing.Tracer):
        """Run the CLI under ``traced_cli.py``; the root span is the whole
        process as this side sees it, start-up and exit included."""
        target = self._output()
        spans_path = self.tmp / "spans.json"
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(i),
                str(spans_path), *self._cli(self.input, target)]
        tracer.start_request(i)
        start = time.monotonic_ns()
        self._run(argv)
        tracer.add_root(start, time.monotonic_ns())
        child = json.loads(spans_path.read_text())
        tracer.spans.extend(child["spans"])
        return target.read_bytes(), child["missing"]

    def check(self, output: bytes) -> bool:
        return output == self.reference

    def collapse_model(self, i: int) -> int:
        ops = entry_ops(Method.COLLAPSE, self.size, self.size, self.radius,
                        EdgeMode(self.edge))
        return ops * self.channels


# The set-up of verify-r8, run with ``python3 -c``: argv[1] is the JSON list of
# edge modes, the rest are the 64 samples of an 8x8 matrix.
VERIFY_SET_UP = """
import json, sys
from collapsum.kernels import EdgeMode
from collapsum.matrix import Matrix
from collapsum.pipeline import equivalence_report
small = Matrix(8, 8, tuple(map(int, sys.argv[2:])))
for edge in json.loads(sys.argv[1]):
    assert equivalence_report(small, 2, EdgeMode(edge)).passed
"""


class Verify:
    """Each request calls ``equivalence_report`` in this process.

    Requests cycle through the edge modes; each report must pass with a
    maximum deviation of exactly 0.
    """

    EDGES = (EdgeMode.CROP, EdgeMode.REPLICATE, EdgeMode.MIRROR, EdgeMode.ZERO)
    cycle = len(EDGES)

    def __init__(self, size: int, radius: int):
        self.size, self.radius = size, radius
        self.pixels = size * size

    def prepare(self, rng: random.Random, tmp: Path) -> None:
        self.tmp = tmp
        self.matrix = Matrix(self.size, self.size,
                             inputs.matrix_samples(rng, self.size, self.size))
        self.small = inputs.matrix_samples(rng, 8, 8)

    def _edge(self, i: int) -> EdgeMode:
        return self.EDGES[i % self.cycle]

    def set_up(self) -> None:
        """Import collapsum in a fresh process and run one small report per
        edge mode; the import in this process happened before the run."""
        edges = [edge.value for edge in self.EDGES]
        run_child([sys.executable, "-c", VERIFY_SET_UP, json.dumps(edges),
                   *map(str, self.small)], self.tmp / "stderr.txt")

    def make_reference(self) -> None:
        pass

    def request(self, i: int):
        report = pipeline.equivalence_report(self.matrix, self.radius,
                                             self._edge(i))
        return report, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def traced_request(self, i: int, tracer: tracing.Tracer):
        tracer.start_request(i)
        missing = tracer.install()
        try:
            start = time.monotonic_ns()
            report = pipeline.equivalence_report(self.matrix, self.radius,
                                                 self._edge(i))
            tracer.add_root(start, time.monotonic_ns())
        finally:
            tracer.uninstall()
        return report, missing

    def check(self, report) -> bool:
        return report.passed and report.max_deviation == 0.0

    def collapse_model(self, i: int) -> int:
        return entry_ops(Method.COLLAPSE, self.size, self.size, self.radius,
                         self._edge(i))


# Why each workload: blur-p6-r4 is the end-to-end run the ROADMAP defines,
# dominated by the collapse passes; blur-p3-ascii16 takes the same CLI path
# but spends most of its time in ASCII parsing, serializing and mirror
# extension, with only two collapse passes per axis; verify-r8 is the
# exactness oracle, dominated by direct convolution, with no netpbm or CLI.
WORKLOADS = {
    "blur-p6-r4": lambda: CliBlur(inputs.ppm_binary, 512, 255, 4, "replicate"),
    "blur-p3-ascii16": lambda: CliBlur(inputs.ppm_ascii, 384, 65535, 1, "mirror"),
    "verify-r8": lambda: Verify(256, 8),
}
