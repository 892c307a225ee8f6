"""The benchmark of the three blur methods, and their cost model.

:func:`benchmark` times every (size, radius, method) cell on a seeded
exact image and reports each cell's median wall time, its count of
entry operations in the paper's cost model (:func:`entry_ops`) and its
deviation from the direct method's result, as a :class:`BenchReport`
whose CSV the bench command prints.  Only that command imports this
module.  ``collapsum.pipeline`` serves :func:`entry_ops` on first use,
only because the benchmark harness looks it up there.
"""

from __future__ import annotations

import statistics
import time
from collections import namedtuple

from . import pipeline
from .kernels import EdgeMode, _diameter
from .matrix import ScalarMode
from .pipeline import (
    BlurRequest,
    Method,
    _check_crop_fit,
    _divisor,
    deviation,
    seeded_image,
)


def entry_ops(method: Method, rows: int, cols: int, r: int, edge: EdgeMode) -> int:
    """Accumulation count of one strategy in the paper's cost model.

    Direct counts one multiply-accumulate per window tap; separable the
    same across both 1-D passes; collapse one addition per produced
    entry of every directional pass.  These are the operations each
    strategy is defined by, not the steps the code runs: an exact
    correlation is a packed bigint product per distinct window row, so
    the wall time of direct and separable no longer follows these counts.

    A negative radius, or a window larger than a cropped image, raises
    what :func:`pipeline.blur` raises.
    """
    k = _diameter(r)
    _check_crop_fit(rows, cols, k, k, edge)
    if edge is EdgeMode.CROP:
        me, ne = rows, cols
    else:
        me, ne = rows + 2 * r, cols + 2 * r
    out_m, out_n = me - 2 * r, ne - 2 * r
    if method is Method.DIRECT:
        return out_m * out_n * k * k
    if method is Method.SEPARABLE:
        return me * out_n * k + out_m * out_n * k
    total = 0
    m, n = me, ne
    for _ in range(2 * r):
        total += (m - 1) * n + (m - 1) * (n - 1)
        m, n = m - 1, n - 1
    return total


BenchRow = namedtuple("BenchRow", "size radius method median_ns entry_ops max_deviation")


CSV_HEADER = "size,radius,method,median_ns,entry_ops,max_deviation"

TIMING_CONTRACT = (
    "timed sections run sequentially on a single thread; "
    "wall times are medians over the requested repetitions"
)


class BenchReport(namedtuple("BenchReport", "rows")):
    __slots__ = ()
    # Not a field: every report is timed under the one contract.
    timing_contract = TIMING_CONTRACT

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            lines.append(
                f"{row.size},{row.radius},{row.method},{row.median_ns},"
                f"{row.entry_ops},{row.max_deviation:.2e}"
            )
        return "\n".join(lines) + "\n"


def benchmark(sizes: list[int], radii: list[int], repetitions: int) -> BenchReport:
    """Time every (size, radius, method) cell on a seeded exact image,
    blurred under ``EdgeMode.REPLICATE``.

    Each cell reports the median wall time, its accumulation count, and
    the deviation of its result from the direct strategy's.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    # Every image and request is built, in loop order, and then every
    # cell's window is checked, before any is timed, so a bad size or
    # radius, or a window that cannot be built, is refused before the first
    # blur; no weight is built until a direct cell runs.
    cells = [(size, image, r, BlurRequest(radius=r, method=method))
             for size in sizes for image in [seeded_image(size, size)]
             for r in radii for method in Method]
    for size, _, _, req in cells:
        _divisor(size, size, req, ScalarMode.EXACT)
    rows = []
    for size, image, r, req in cells:
        times = []
        for _ in range(repetitions):
            start = time.perf_counter_ns()
            # Looked up on the module, where tracers wrap it.
            result = pipeline.blur(image, req)
            times.append(time.perf_counter_ns() - start)
        if req.method is Method.DIRECT:
            reference = result
        rows.append(
            BenchRow(
                size=size,
                radius=r,
                method=req.method.value,
                median_ns=int(statistics.median(times)),
                entry_ops=entry_ops(req.method, size, size, r,
                                    EdgeMode.REPLICATE),
                max_deviation=deviation(result, reference),
            )
        )
    return BenchReport(tuple(rows))
