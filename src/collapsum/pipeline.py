"""Blur execution strategies and their equivalence check.

Every blur is an h x w coefficient window with a x b collapses
(``kernels.coefficient_matrix``): the binomial (h-1, w-1), radius r
its (2r+1)-square case, the box (0, 0) and interp (s, s).  A blur
checks that the window fits and builds (``kernels._check_window``),
reads its divisor and margins, which need no weight, extends the image
once by those margins, and runs one of three methods on that: direct
2-D convolution by the whole window, the only method that builds it; a
row and a column pass by the window's two sides; or the collapses, full
ones over their square part, then a row and a column pass of ones over
the (h-a) x (w-b) taps left.  So radius r is 2r
collapses over 4^(2r).  In exact mode the three agree bit for bit on
their (numerator, divisor) pairs, as the report and the benchmark
(``collapsum.bench``, which only the bench command imports) record.

:func:`blur_raster` blurs a whole netpbm raster, raster to raster: the
image is packed once, before extension, into one int
(``collapse._Packed``) of pixel lanes, a pixel per lane and its channel
c in sublane c, each sublane as wide as the bound B below needs.
``kernels.extend_asym`` extends it on its lane bytes, and every stage of
every method runs on that int: each correlation, direct or a row or
column pass, is one product per distinct window row, and the collapse
passes shift-and-adds, each moving whole pixel lanes.  The result stays
packed, its entries from lane 0 on, until it is unpacked once, its kept
sublanes already interleaved as a raster, and rounded once.  An exact
plane with no negative entry runs in :func:`blur` as the one-channel
case of the same stages.  One sublane width serves all of them: the lane
rule of the ``collapse`` module docstring, for the window's divisor as
its weight total, with the input bounded by a raster's maxval or a
plane's max(a), read off its span; an extension copies entries or adds
zeros, so it keeps that bound.  Every coefficient weight is an integer
of at least 1, so by that docstring's proofs no sublane carries, and one
masked check of the result refuses where a scan of each pass would, with
:class:`ExactOverflowError`.

:func:`equivalence_report` packs and extends its input once as well, runs
the three methods on that plane and compares their results, packed
numerators or matrices, by record equality, one per pair: every packed
stage writes each lane only from the lanes at and after it, so each
method computes every lane, dropped ones too, as the same window sum of
the plane's lanes, in the same lanes.  Only a pair that differs is
unpacked and measured by :func:`deviation`.  A plane with a negative
entry, and a float one, runs the same stage calls on matrices.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import combinations

from .collapse import (
    _Packed,
    _checked,
    _packed,
    _packed_lanes,
    _sublanes,
    _unpacked,
    _wide,
    collapse_down_power,
    collapse_power,
    collapse_right_power,
)
from .kernels import (
    EdgeMode,
    FilterResult,
    _check_counts,
    _check_window,
    _coefficient_kernel,
    _diameter,
    _margins,
    coefficient_matrix_entry_sum,
    convolve,
    extend_asym,
    separable_convolve,
)
from .matrix import (
    DimensionError,
    Matrix,
    ScalarMode,
    _Record,
    _lazy,
    _rounded,
    scale,
)

# Not called here.  Served by name only because the benchmark harness,
# perfbench/tracing.py and perfbench/workloads.py, looks them up here.
__getattr__ = _lazy(globals(), {
    "bench": "entry_ops",
    "windows": "gaussian_kernel gaussian_kernel_rect",
    "kernels": "extend",
})

FLOAT_TOLERANCE = 1e-9


class Method(Enum):
    DIRECT = "direct"
    SEPARABLE = "separable"
    COLLAPSE = "collapse"


class BlurRequest(_Record, namedtuple("BlurRequest", "rect collapses method edge")):
    """Parameters of one blur run.

    Exactly one of ``radius`` or ``rect`` (an h x w window) must be
    given; a radius r is stored as ``rect`` = (2r+1, 2r+1), so the two
    forms of one window make equal requests; so does ``collapses``, the
    (a, b) of its coefficient window, stored for None as the binomial
    (h-1, w-1).  The blur runs in its input's mode, exact-integer or float.
    """

    __slots__ = ()

    def __new__(cls, radius=None, rect=None, collapses=None,
                method=Method.COLLAPSE, edge=EdgeMode.REPLICATE):
        if (radius is None) == (rect is None):
            raise ValueError("set exactly one of radius and rect")
        if radius is not None:
            rect = (_diameter(radius),) * 2
        h, w = rect
        collapses = collapses or (h - 1, w - 1)
        return super().__new__(cls, rect, collapses, method, edge)

    def __getnewargs__(self):  # unpickled from the stored rect, no radius
        return (None, *self)

    def _replace(self, **changes):
        # A binomial request stays binomial on a new rect, and collapses=None
        # means its binomial, as in the constructor; explicit box and interp
        # collapses are kept, and refused when they do not fit it.
        h, w = self.rect
        kept = None if self.collapses == (h - 1, w - 1) else self.collapses
        if changes.setdefault("collapses", kept) is None:
            h, w = changes.get("rect", self.rect)
            changes["collapses"] = (h - 1, w - 1)
        return super()._replace(**changes)

    def _check(self):
        h, w = self.rect
        if h < 1 or w < 1:
            raise ValueError("rectangle sides must be positive")
        _check_counts(h, w, *self.collapses)


def _check_crop_fit(rows: int, cols: int, h: int, w: int, edge: EdgeMode) -> None:
    # Only a cropped image must hold the window; extension makes room.
    if edge is EdgeMode.CROP and (rows < h or cols < w):
        raise DimensionError(
            f"{rows}x{cols} image too small for a {h}x{w} window under cropping"
        )


def _divisor(rows: int, cols: int, req: BlurRequest, mode: ScalarMode) -> int:
    # The request's divisor, once its window fits a rows x cols image and
    # builds in ``mode``; no weight is computed.
    _check_crop_fit(rows, cols, *req.rect, req.edge)
    _check_window(*req.rect, *req.collapses, mode)
    return coefficient_matrix_entry_sum(*req.rect, *req.collapses)


def _extended(plane, req: BlurRequest):
    # ``plane``, packed or not, extended by the window's margins.
    if req.edge is EdgeMode.CROP:
        return plane
    return extend_asym(plane, *_margins(*req.rect), req.edge)


def _plane(a: Matrix, req: BlurRequest):
    # The request's divisor, and the plane every method runs on: a packed
    # once when it packs, then extended.
    divisor = _divisor(a.rows, a.cols, req, a.mode)
    return divisor, _extended(_packed(a, divisor) or a, req)


def _numerator(method: Method, req: BlurRequest, divisor: int,
               plane, checked: bool = False) -> FilterResult:
    # One method's stages on the prepared plane, packed or not.  Only
    # direct builds the h x w window; separable builds its two sides, and
    # collapse the rows of ones in its tail.  ``checked`` says that the
    # caller has already checked the collapse numerator of ``plane``.
    (h, w), (a, b) = req.rect, req.collapses
    if method is Method.DIRECT:
        if not checked and isinstance(plane, _Packed) and _wide(plane):
            # Every method computes the same numerator, so the cheapest's,
            # collapse's, is checked for int128 before direct's products run.
            _checked(_numerator(Method.COLLAPSE, req, divisor, plane).numerator)
        return convolve(_coefficient_kernel(h, w, a, b, plane.mode), plane,
                        EdgeMode.CROP)
    if method is Method.SEPARABLE:
        return separable_convolve(h, w, plane, EdgeMode.CROP, req.collapses)
    # Full collapses over the square part keep radius r the paper's C^(2r);
    # the longer side's passes, then a row and a column pass of ones, follow.
    s = min(a, b)
    num = collapse_power(plane, s)
    num = collapse_right_power(collapse_down_power(num, a - s), b - s)
    if (h - a, w - b) != (1, 1):
        num = separable_convolve(h - a, w - b, num, EdgeMode.CROP, (0, 0)).numerator
    if plane.mode is ScalarMode.FLOAT:
        return FilterResult(scale(1 / 2 ** (a + b), num), 1)
    return FilterResult(num, divisor)


def _unpacked_result(out: FilterResult) -> FilterResult:
    if isinstance(out.numerator, _Packed):
        return FilterResult(_unpacked(out.numerator), out.divisor)
    return out


def blur(a: Matrix, req: BlurRequest) -> FilterResult:
    """Run one blur request in the mode of ``a``; see :class:`BlurRequest`.

    An exact nonnegative plane runs as the one-channel case of
    :func:`blur_raster`: packed once, every stage of the method packed,
    and unpacked once (see the module docstring)."""
    divisor, plane = _plane(a, req)
    return _unpacked_result(_numerator(req.method, req, divisor, plane))


def blur_raster(image: Raster, req: BlurRequest) -> Raster:
    """``image`` blurred by ``req``, every channel rounded half away from
    zero: raster to raster.

    ``image`` is first checked as :func:`netpbm.write_netpbm` checks a
    raster, with the same errors: positive dimensions, 1 or 3 channels,
    maxval in 1..65535, width x height x channels samples, each an int in
    [0, maxval].  Packing relies on each of them, since lanes are sized
    for maxval.  The raster is then packed once, a pixel per lane,
    extended, run through every stage of the method, unpacked once and
    rounded once (see the module docstring).  The window's weights are
    nonnegative integers that sum to its divisor, so every rounded sample
    lies in [0, maxval].

    The int128 refusal (:class:`ExactOverflowError`) reads only a
    finished result, so it comes after a method has run: direct, in
    sublanes of 16 bytes or more, first checks the collapse method's
    result, the same numerator.  On a seeded 256x256 8-bit P6 at radius
    30, a whole ``collapsum blur`` process exited 2 after 0.30-0.35 s
    under direct, whose own products take about 13 s there, 0.56-0.58 s
    under separable and 0.30-0.32 s under collapse (Python 3.11, a shared
    2-CPU Xeon).  No earlier bound refuses it, since the lanes are sized
    for maxval and samples far below maxval must still pass, as the CI
    step "Samples far below maxval past the int128 lane bound" checks.
    """
    from .netpbm import _check_raster

    _check_raster(image)
    return _blurred_raster(image, req)


def _blurred_raster(image: Raster, req: BlurRequest) -> Raster:
    # ``blur_raster`` of a raster already checked, as ``read_raster`` leaves
    # one: no sample is scanned again.
    divisor = _divisor(image.height, image.width, req, ScalarMode.EXACT)
    plane = _packed_lanes(image.height, image.width, image.channels,
                          image.samples, image.maxval, divisor)
    num = _numerator(req.method, req, divisor, _extended(plane, req))
    out = num.numerator
    return image._replace(width=out.cols, height=out.rows,
                          samples=_rounded(_sublanes(out), num.divisor))


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


EquivalenceReport = namedtuple("EquivalenceReport", "radius edge mode deviations "
                               "max_deviation tolerance passed")


def equivalence_report(a: Matrix, r: int, edge: EdgeMode) -> EquivalenceReport:
    """Run all three strategies and compare them pairwise.

    The tolerance is 0 for exact-mode images and 1e-9 for float ones;
    failures are recorded in the report, not raised.  An exact
    nonnegative image is packed and extended once; a pair of equal
    results, packed or not, gives deviation 0.0 without unpacking, and a
    pair that differs is unpacked and measured by :func:`deviation` (see
    the module docstring).  Collapse runs once and first: its checked
    result is also the int128 check that a direct blur makes in sublanes
    of 16 bytes or more before its products.
    """
    req = BlurRequest(radius=r, edge=edge)
    divisor, plane = _plane(a, req)
    results = {}
    for method in (Method.COLLAPSE, Method.DIRECT, Method.SEPARABLE):
        out = _numerator(method, req, divisor, plane, checked=True)
        if isinstance(out.numerator, _Packed):
            # Each packed result's one int128 check, as unpacking runs it.
            _checked(out.numerator)
        results[method] = out
    devs = {}
    for first, second in combinations(Method, 2):
        x, y = results[first], results[second]
        devs[(first.value, second.value)] = 0.0 if x == y else deviation(
            _unpacked_result(x), _unpacked_result(y))
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
