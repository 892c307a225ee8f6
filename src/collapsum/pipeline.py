"""Blur execution strategies, their equivalence check, and a benchmark.

Every blur is an h x w binomial window; a radius r is the (2r+1)-square
window.  :func:`blur` checks that the window fits before building it,
extends the image once by the window margins, and runs one of three
methods on that input: direct 2-D convolution, a row and a column 1-D
pass, or pair-sum collapses divided by 2^(h+w-2) at the end.  The
collapse method runs the square part of the window as full collapses,
so a radius-r blur is the collapse applied 2r times and divided by
4^(2r).  In exact mode the three must agree bit for bit on their
(numerator, divisor) pairs; the report and benchmark objects record
whether they do.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import InitVar, dataclass
from enum import Enum

from .collapse import collapse_down_power, collapse_power, collapse_right_power
from .kernels import (
    EdgeMode,
    FilterResult,
    convolve,
    extend_asym,
    gaussian_kernel_rect,
    separable_convolve,
)

# Not called here; kept because perfbench/tracing.py wraps these two names
# in this module.
from .kernels import extend, gaussian_kernel  # noqa: F401
from .matrix import DimensionError, Matrix, ScalarMode, scale

FLOAT_TOLERANCE = 1e-9


class Method(Enum):
    DIRECT = "direct"
    SEPARABLE = "separable"
    COLLAPSE = "collapse"


@dataclass(frozen=True)
class BlurRequest:
    """Parameters of one blur run.

    Exactly one of ``radius`` or ``rect`` (an h x w window) must be
    given; a radius r is stored as ``rect`` = (2r+1, 2r+1), so the two
    forms of one window make equal requests.  ``mode`` selects
    exact-integer or float arithmetic.
    """

    radius: InitVar[int | None] = None
    rect: tuple[int, int] | None = None
    method: Method = Method.COLLAPSE
    edge: EdgeMode = EdgeMode.REPLICATE
    mode: ScalarMode = ScalarMode.EXACT

    def __post_init__(self, radius):
        if (radius is None) == (self.rect is None):
            raise ValueError("set exactly one of radius and rect")
        if radius is not None:
            if radius < 0:
                raise ValueError("radius must be nonnegative")
            object.__setattr__(self, "rect", (2 * radius + 1,) * 2)
        if self.rect[0] < 1 or self.rect[1] < 1:
            raise ValueError("rectangle sides must be positive")


def _coerce_mode(a: Matrix, mode: ScalarMode) -> Matrix:
    if a.mode is mode:
        return a
    if mode is ScalarMode.FLOAT:
        return a.to_float()
    raise ValueError("cannot run an exact pipeline on a float matrix")


def _check_crop_fit(a: Matrix, h: int, w: int, edge: EdgeMode) -> None:
    # Only a cropped image must hold the window; extension makes room.
    if edge is EdgeMode.CROP and (a.rows < h or a.cols < w):
        raise DimensionError(
            f"{a.rows}x{a.cols} image too small for a {h}x{w} window under cropping"
        )


def blur(a: Matrix, req: BlurRequest) -> FilterResult:
    """Run one blur request; see :class:`BlurRequest`."""
    a = _coerce_mode(a, req.mode)
    h, w = req.rect
    _check_crop_fit(a, h, w, req.edge)
    kernel = gaussian_kernel_rect(h, w)
    work = a
    if req.edge is not EdgeMode.CROP:
        work = extend_asym(a, *kernel.margins(), req.edge)
    if req.method is Method.DIRECT:
        return convolve(kernel, work, EdgeMode.CROP)
    if req.method is Method.SEPARABLE:
        return separable_convolve(h, w, work, EdgeMode.CROP)
    # Full collapses over the square part of the window keep a radius-r
    # blur the paper's C^(2r); the longer side's extra passes follow.
    s = min(h, w) - 1
    num = collapse_power(work, s)
    num = collapse_right_power(collapse_down_power(num, h - 1 - s), w - 1 - s)
    if a.mode is ScalarMode.FLOAT:
        return FilterResult(scale(1 / kernel.divisor, num), 1)
    return FilterResult(num, kernel.divisor)


def rect_blur(a: Matrix, h: int, w: int, edge: EdgeMode) -> FilterResult:
    """Rectangular h x w blur via directional collapses."""
    return blur(a, BlurRequest(rect=(h, w), method=Method.COLLAPSE,
                               edge=edge, mode=a.mode))


def deviation(x: FilterResult, y: FilterResult) -> float:
    """Max entrywise difference between two filter results as values.

    Exact pairs compare by cross-multiplication, so 0.0 means identical
    rational values, not merely close floats.
    """
    nx, ny = x.numerator, y.numerator
    if nx.rows != ny.rows or nx.cols != ny.cols:
        raise DimensionError("results have different shapes")
    if nx.mode is ScalarMode.EXACT and ny.mode is ScalarMode.EXACT:
        if all(
            p * y.divisor == q * x.divisor for p, q in zip(nx.data, ny.data)
        ):
            return 0.0
    return max(
        abs(p / x.divisor - q / y.divisor) for p, q in zip(nx.data, ny.data)
    )


@dataclass(frozen=True)
class EquivalenceReport:
    radius: int
    edge: EdgeMode
    mode: ScalarMode
    deviations: dict[tuple[str, str], float]
    max_deviation: float
    tolerance: float
    passed: bool


def equivalence_report(a: Matrix, r: int, edge: EdgeMode) -> EquivalenceReport:
    """Run all three strategies and compare them pairwise.

    The tolerance is 0 for exact-mode images and 1e-9 for float ones;
    failures are recorded in the report, not raised.
    """
    results = {
        method.value: blur(a, BlurRequest(radius=r, method=method,
                                          edge=edge, mode=a.mode))
        for method in Method
    }
    names = [m.value for m in Method]
    devs = {}
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            devs[(first, second)] = deviation(results[first], results[second])
    worst = max(devs.values())
    tol = 0.0 if a.mode is ScalarMode.EXACT else FLOAT_TOLERANCE
    return EquivalenceReport(
        radius=r,
        edge=edge,
        mode=a.mode,
        deviations=devs,
        max_deviation=worst,
        tolerance=tol,
        passed=worst <= tol,
    )


# Deterministic benchmark images come from a 64-bit linear congruential
# generator (Knuth's MMIX multiplier/increment); the top byte of each
# state supplies one pixel in 0..255.
LCG_SEED = 0x5EED
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def seeded_image(rows: int, cols: int, seed: int = LCG_SEED) -> Matrix:
    state = seed & _LCG_MASK
    data = []
    for _ in range(rows * cols):
        state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        data.append(state >> 56)
    return Matrix(rows, cols, tuple(data), ScalarMode.EXACT)


def entry_ops(method: Method, rows: int, cols: int, r: int, edge: EdgeMode) -> int:
    """Accumulation count of one strategy, mirroring its loop structure.

    Direct counts one multiply-accumulate per window tap; separable the
    same across both 1-D passes; collapse one addition per produced
    entry of every directional pass.
    """
    if edge is EdgeMode.CROP:
        me, ne = rows, cols
    else:
        me, ne = rows + 2 * r, cols + 2 * r
    out_m, out_n = me - 2 * r, ne - 2 * r
    k = 2 * r + 1
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


@dataclass(frozen=True)
class BenchRow:
    size: int
    radius: int
    method: str
    median_ns: int
    entry_ops: int
    max_deviation: float


CSV_HEADER = "size,radius,method,median_ns,entry_ops,max_deviation"

TIMING_CONTRACT = (
    "timed sections run sequentially on a single thread; "
    "wall times are medians over the requested repetitions"
)


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    timing_contract: str = TIMING_CONTRACT

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            lines.append(
                f"{row.size},{row.radius},{row.method},{row.median_ns},"
                f"{row.entry_ops},{row.max_deviation:.2e}"
            )
        return "\n".join(lines) + "\n"


def benchmark(
    sizes: list[int],
    radii: list[int],
    repetitions: int,
    edge: EdgeMode = EdgeMode.REPLICATE,
    mode: ScalarMode = ScalarMode.EXACT,
) -> BenchReport:
    """Time every (size, radius, method) cell on a seeded image.

    Each cell reports the median wall time, its accumulation count, and
    the deviation of its result from the direct strategy's.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    rows = []
    for size in sizes:
        image = _coerce_mode(seeded_image(size, size), mode)
        for r in radii:
            reference = None
            for method in Method:
                req = BlurRequest(radius=r, method=method, edge=edge, mode=mode)
                times = []
                result = None
                for _ in range(repetitions):
                    start = time.perf_counter_ns()
                    result = blur(image, req)
                    times.append(time.perf_counter_ns() - start)
                if method is Method.DIRECT:
                    reference = result
                rows.append(
                    BenchRow(
                        size=size,
                        radius=r,
                        method=method.value,
                        median_ns=int(statistics.median(times)),
                        entry_ops=entry_ops(method, size, size, r, edge),
                        max_deviation=deviation(result, reference),
                    )
                )
    return BenchReport(tuple(rows))
