"""Blur execution strategies, their equivalence check, and a benchmark.

Every blur is an h x w coefficient window with a x b collapses
(``structured.coefficient_matrix``): the binomial (h-1, w-1), radius r
its (2r+1)-square case, the box (0, 0) and interp (s, s).  A blur
checks that the window fits before building it, extends the image once
by its margins, and runs one of three methods on that: direct 2-D
convolution, a row and a column pass by the window's sides, or the
collapses, full ones over their square part, then a row and a column
pass of ones over the (h-a) x (w-b) taps left.  So radius r is 2r
collapses over 4^(2r).  In exact mode the three agree bit for bit on
their (numerator, divisor) pairs, as the report and benchmark record.

:func:`blur_raster` blurs a whole netpbm raster, raster to raster: the
image is packed once, before extension, into one int
(``collapse._Packed``) of pixel lanes, a pixel per lane and its channel
c in sublane c, and the packed int carries the bound its sublanes hold.
``kernels.extend_asym`` extends it on its lane bytes, and every stage of
every method runs on that int: each correlation, direct or a row or
column pass, is one product per distinct window row, and the collapse
passes shift-and-adds, each moving whole pixel lanes.  The result stays
packed, its entries from lane 0 on, until it is unpacked once, its kept
sublanes already interleaved as a raster, and rounded once.  An exact
plane with no negative entry runs in :func:`blur` as the one-channel
case of the same stages.  One sublane width serves all of them: the
fewest whole bytes that hold B = max(a) times the window's divisor, and
at least the largest window weight; an extension copies entries or adds
zeros, so it keeps max(a).  Every image and window here is nonnegative,
so each sublane is a sum of nonnegative terms of its own channel that
uses each tap weight at most once, the lanes where a window wraps onto
the next row included; so every sublane stays at most B and none
carries into the next.  Every coefficient weight is an integer of at
least 1, so every entry of an intermediate plane is at most some entry
of the result, and one masked check of the result's kept sublanes
against 2^127 raises :class:`ExactOverflowError` exactly where a scan of
each pass would.

:func:`equivalence_report` packs and extends its input once as well, runs
the three methods on that plane and compares their packed numerators,
whose divisors are all 2^(h+w-2), by one int equality per pair: every
packed stage writes each lane only from the lanes at and after it, so
each method computes every lane, dropped ones too, as the same window
sum of the plane's lanes.  Only a pair that differs anywhere is unpacked
and measured by :func:`deviation`.  A plane with a negative entry, and a
float one, runs the same stage calls on matrices.
"""

from __future__ import annotations

import time
from dataclasses import InitVar, dataclass
from enum import Enum

from .collapse import (
    _Packed,
    _checked,
    _packed,
    _packed_lanes,
    _sublanes,
    _unpacked,
    collapse_down_power,
    collapse_power,
    collapse_right_power,
)
from .kernels import (
    EdgeMode,
    FilterResult,
    _coefficient_kernel,
    convolve,
    extend_asym,
    separable_convolve,
)

# Not called here; kept because perfbench/tracing.py wraps them here.
from .kernels import extend, gaussian_kernel, gaussian_kernel_rect  # noqa: F401
from .matrix import DimensionError, Matrix, ScalarMode, _rounded, scale
from .netpbm import Raster, _interleave, _planes
from .structured import _check_counts

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
    forms of one window make equal requests; so does ``collapses``, the
    (a, b) of its coefficient window, stored for None as the binomial
    (h-1, w-1).  The blur runs in its input's mode, exact-integer or float.
    """

    radius: InitVar[int | None] = None
    rect: tuple[int, int] | None = None
    collapses: tuple[int, int] | None = None
    method: Method = Method.COLLAPSE
    edge: EdgeMode = EdgeMode.REPLICATE

    def __post_init__(self, radius):
        if (radius is None) == (self.rect is None):
            raise ValueError("set exactly one of radius and rect")
        if radius is not None:
            if radius < 0:
                raise ValueError("radius must be nonnegative")
            object.__setattr__(self, "rect", (2 * radius + 1,) * 2)
        h, w = self.rect
        if h < 1 or w < 1:
            raise ValueError("rectangle sides must be positive")
        object.__setattr__(self, "collapses", self.collapses or (h - 1, w - 1))
        _check_counts(h, w, *self.collapses)


def _check_crop_fit(rows: int, cols: int, h: int, w: int, edge: EdgeMode) -> None:
    # Only a cropped image must hold the window; extension makes room.
    if edge is EdgeMode.CROP and (rows < h or cols < w):
        raise DimensionError(
            f"{rows}x{cols} image too small for a {h}x{w} window under cropping"
        )


def _kernel(rows: int, cols: int, req: BlurRequest, mode: ScalarMode):
    # The request's coefficient window, once it fits a rows x cols image.
    _check_crop_fit(rows, cols, *req.rect, req.edge)
    return _coefficient_kernel(*req.rect, *req.collapses, mode)


def _lane_bound(kernel):
    # The bound B of every lane of every method's stages, from the input's
    # maximum (see the module docstring).
    return lambda high: max(high * kernel.divisor, kernel.weights._bounds[1])


def _extended(kernel, plane, edge: EdgeMode):
    # ``plane``, packed or not, extended by the window's margins.
    if edge is EdgeMode.CROP:
        return plane
    return extend_asym(plane, *kernel.margins(), edge)


def _plane(a: Matrix, req: BlurRequest):
    # The request's coefficient window, and the plane every method runs on:
    # a packed once when it packs, then extended.
    kernel = _kernel(a.rows, a.cols, req, a.mode)
    return kernel, _extended(kernel, _packed(a, _lane_bound(kernel)) or a,
                             req.edge)


def _numerator(method: Method, kernel, collapses, plane) -> FilterResult:
    # One method's stages on the prepared plane, packed or not.
    (h, w), (a, b) = (kernel.height, kernel.width), collapses
    if method is Method.DIRECT:
        return convolve(kernel, plane, EdgeMode.CROP)
    if method is Method.SEPARABLE:
        return separable_convolve(h, w, plane, EdgeMode.CROP, collapses)
    # Full collapses over the square part keep radius r the paper's C^(2r);
    # the longer side's passes, then a row and a column pass of ones, follow.
    s = min(a, b)
    num = collapse_power(plane, s)
    num = collapse_right_power(collapse_down_power(num, a - s), b - s)
    if (h - a, w - b) != (1, 1):
        num = separable_convolve(h - a, w - b, num, EdgeMode.CROP, (0, 0)).numerator
    if plane.mode is ScalarMode.FLOAT:
        return FilterResult(scale(1 / 2 ** (a + b), num), 1)
    return FilterResult(num, kernel.divisor)


def _unpacked_result(out: FilterResult) -> FilterResult:
    if isinstance(out.numerator, _Packed):
        return FilterResult(_unpacked(out.numerator), out.divisor)
    return out


def blur(a: Matrix, req: BlurRequest) -> FilterResult:
    """Run one blur request in the mode of ``a``; see :class:`BlurRequest`.

    An exact nonnegative plane runs as the one-channel case of
    :func:`blur_raster`: packed once, every stage of the method packed,
    and unpacked once (see the module docstring)."""
    kernel, plane = _plane(a, req)
    return _unpacked_result(_numerator(req.method, kernel, req.collapses, plane))


def blur_raster(image: Raster, req: BlurRequest) -> Raster:
    """``image`` blurred by ``req``, every channel rounded half away from
    zero and clamped into [0, maxval]: raster to raster.

    The raster is packed once into one int, a pixel per lane and a
    channel per sublane, extended, run through every stage of the method
    and unpacked once; its kept sublanes, already interleaved as a raster,
    are rounded once.  The rounded bound shows the clamp idle unless the
    lane bound went past int128.  On a host that does not pack, each
    channel runs through :func:`blur` as a matrix.
    """
    rows, cols, maxval = image.height, image.width, image.maxval
    kernel = _kernel(rows, cols, req, ScalarMode.EXACT)
    plane = _packed_lanes(rows, cols, image.channels, image.samples, image.high,
                          _lane_bound(kernel))
    if plane is None:
        out = _blur_planes(image, req)
    else:
        num = _numerator(req.method, kernel, req.collapses,
                         _extended(kernel, plane, req.edge))
        values, bound = _sublanes(num.numerator)
        (high,) = _rounded((bound,), num.divisor)
        out = image._replace(width=num.numerator.cols, height=num.numerator.rows,
                             samples=_rounded(values, num.divisor), high=high)
    if out.high > maxval:
        out = out._replace(samples=[min(v, maxval) for v in out.samples],
                           high=maxval)
    return out


def _blur_planes(image: Raster, req: BlurRequest) -> Raster:
    # Each channel of ``image`` blurred and rounded as a matrix, then
    # interleaved again, with a bound on the rounded samples.
    planes = [blur(p, req).rounded()
              for p in _planes(image.width, image.height, image.samples,
                               image.high)]
    return image._replace(width=planes[0].cols, height=planes[0].rows,
                          samples=_interleave(planes),
                          high=max(p._bounds[1] for p in planes))


def rect_blur(a: Matrix, h: int, w: int, edge: EdgeMode) -> FilterResult:
    """Rectangular h x w blur via directional collapses."""
    return blur(a, BlurRequest(rect=(h, w), edge=edge))


def deviation(x: FilterResult, y: FilterResult) -> float:
    """Max entrywise difference between two filter results as values.

    Exact pairs compare their numerators when the divisors are equal and
    by cross-multiplication otherwise, so 0.0 means identical rational
    values, not merely close floats.
    """
    nx, ny = x.numerator, y.numerator
    if nx.rows != ny.rows or nx.cols != ny.cols:
        raise DimensionError("results have different shapes")
    if nx.mode is ScalarMode.EXACT and ny.mode is ScalarMode.EXACT:
        if x.divisor == y.divisor:
            if nx.data == ny.data:
                return 0.0
        elif all(
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
    failures are recorded in the report, not raised.  An exact
    nonnegative image is packed and extended once, and one int equality
    per pair of packed numerators gives deviation 0.0 without
    unpacking; a pair that differs is unpacked and measured by
    :func:`deviation` (see the module docstring).
    """
    req = BlurRequest(radius=r, edge=edge)
    kernel, plane = _plane(a, req)
    packed = isinstance(plane, _Packed)
    results = {}
    for method in Method:
        out = _numerator(method, kernel, req.collapses, plane)
        if packed:
            # Each packed result's one int128 check, as unpacking runs it.
            _checked(out.numerator)
        results[method.value] = out
    names = [m.value for m in Method]
    devs = {}
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            x, y = results[first], results[second]
            if (packed and x.divisor == y.divisor
                    and x.numerator.value == y.numerator.value):
                devs[(first, second)] = 0.0
            else:
                devs[(first, second)] = deviation(_unpacked_result(x),
                                                  _unpacked_result(y))
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
    """Accumulation count of one strategy in the paper's cost model.

    Direct counts one multiply-accumulate per window tap; separable the
    same across both 1-D passes; collapse one addition per produced
    entry of every directional pass.  These are the operations each
    strategy is defined by, not the steps the code runs: an exact
    correlation is a packed bigint product per distinct window row, so
    the wall time of direct and separable no longer follows these counts.

    A negative radius, or a window larger than a cropped image, raises
    what :func:`blur` raises.
    """
    _check_crop_fit(rows, cols, *BlurRequest(radius=r).rect, edge)
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
    import statistics  # only here: it imports fractions and decimal

    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    rows = []
    for size in sizes:
        image = seeded_image(size, size)
        if mode is ScalarMode.FLOAT:
            image = image.to_float()
        for r in radii:
            reference = None
            for method in Method:
                req = BlurRequest(radius=r, method=method, edge=edge)
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
