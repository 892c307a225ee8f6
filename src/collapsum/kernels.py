"""Filter kernels, edge handling, and convolution.

Exact kernels carry integer weights plus a divisor so that pipelines can
defer the normalizing division; convolution therefore returns a
:class:`FilterResult` pair (numerator matrix, divisor).  Division happens
once, at the caller's chosen boundary, which keeps integer pipelines
bit-exact; rounding the quotient is :func:`matrix.round_half_away`.

Every exact window is the m x n coefficient matrix with a x b collapses
(:func:`structured.coefficient_matrix`) over its entry sum, anchored at
(ceil(m/2), ceil(n/2)): the binomial :func:`gaussian_kernel_rect` is
(h, w, h-1, w-1), the radius-r Gaussian its (2r+1)-square case, the box
(2r+1, 2r+1, 0, 0) and the interpolation window (2r+1, 2r+1, s, s).  One
check, ``structured._check_window``, decides whether a window builds,
before any weight is: an exact window whose largest weight leaves the
signed 128-bit range is refused, and a float binomial window only past
400 collapses (a + b), where no exact one builds either.
Convolution uses flipped kernel indexing (output (p, q) sums
weight(i, j) * input(p - i, q - j) over window offsets), which matters
only for asymmetric kernels; it runs as the
generalized collapse of the flipped window, the package's one
correlation loop.  :func:`separable_convolve` splits an h x w
coefficient window into a row and a column pass by its two sides.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from itertools import chain
from operator import itemgetter

from .collapse import GammaSpec, _Packed, _extended_lanes, generalized_collapse
from .matrix import (
    DimensionError,
    Matrix,
    ScalarMode,
    _Record,
    round_half_away,
)
from .structured import (
    coefficient_matrix,
    coefficient_matrix_entry_sum,
    coefficient_sides,
)

FLOAT_KERNEL_TOL = 1e-12


class EdgeMode(Enum):
    """Boundary policy: shrink the output, or extend the input."""

    CROP = "crop"
    REPLICATE = "replicate"
    MIRROR = "mirror"
    ZERO = "zero"


class FilterResult(_Record, namedtuple("FilterResult", "numerator divisor")):
    """Filter output as a (numerator, divisor) pair.

    Float pipelines always carry divisor 1.  Exact pipelines keep the
    kernel divisor so equality checks can run on integers.
    """

    __slots__ = ()

    def _check(self):
        if self.divisor < 1:
            raise ValueError("divisor must be a positive integer")

    def to_matrix(self) -> Matrix:
        """Divide out the divisor; exact results stay exact when the
        divisor is 1, otherwise the quotient is a float matrix."""
        if self.divisor == 1:
            return self.numerator
        num = self.numerator
        data = tuple(x / self.divisor for x in num.data)
        return Matrix(num.rows, num.cols, data, ScalarMode.FLOAT)

    def exact(self) -> Matrix:
        """Exact integer quotient; raises if any entry has a remainder."""
        num = self.numerator
        if num.mode is not ScalarMode.EXACT:
            raise ValueError("exact() requires an exact-mode numerator")
        out = []
        for x in num.data:
            q, r = divmod(x, self.divisor)
            if r:
                raise ValueError(
                    f"entry {x} is not divisible by {self.divisor}"
                )
            out.append(q)
        return Matrix(num.rows, num.cols, tuple(out), ScalarMode.EXACT)

    def rounded(self) -> Matrix:
        """Integer quotient rounded half away from zero.

        Exact numerators round via integer arithmetic, so the result is
        reproducible bit-for-bit.
        """
        return round_half_away(self.numerator, self.divisor)


class Kernel(_Record, namedtuple("Kernel", "weights divisor anchor")):
    """Filter weight window.

    ``weights`` is either an exact integer matrix paired with a positive
    ``divisor`` (weights sum exactly to the divisor), or a float matrix
    with divisor 1 whose entries sum to 1 within 1e-12.  ``anchor`` is
    the 1-based position aligned over the output pixel.
    """

    __slots__ = ()

    def _check(self):
        if self.divisor < 1:
            raise ValueError("divisor must be a positive integer")
        if self.weights.mode is ScalarMode.EXACT:
            total = sum(self.weights.data)
            if total != self.divisor:
                raise ValueError(f"weights sum to {total}, divisor is {self.divisor}")
        else:
            total = math.fsum(self.weights.data)
            if self.divisor != 1:
                raise ValueError("float kernels must carry divisor 1")
            if abs(total - 1.0) > FLOAT_KERNEL_TOL:
                raise ValueError(f"float weights sum to {total}, expected 1")
        ar, ac = self.anchor
        if not (1 <= ar <= self.weights.rows and 1 <= ac <= self.weights.cols):
            raise ValueError(f"anchor {self.anchor} outside the weight window")

    @property
    def height(self) -> int:
        return self.weights.rows

    @property
    def width(self) -> int:
        return self.weights.cols

    def margins(self) -> tuple[int, int, int, int]:
        """(top, bottom, left, right) reach of the window around the anchor."""
        ar, ac = self.anchor
        return ar - 1, self.height - ar, ac - 1, self.width - ac

    def as_float(self) -> "Kernel":
        if self.weights.mode is ScalarMode.FLOAT:
            return self
        w = self.weights
        data = tuple(x / self.divisor for x in w.data)
        return Kernel(Matrix(w.rows, w.cols, data, ScalarMode.FLOAT), 1, self.anchor)


def _margins(m: int, n: int) -> tuple[int, int, int, int]:
    # (top, bottom, left, right) reach of an m x n coefficient window around
    # its anchor, (ceil(m/2), ceil(n/2)): the margins a blur extends by.
    return (m - 1) // 2, m // 2, (n - 1) // 2, n // 2


def _coefficient_kernel(
    m: int, n: int, a: int, b: int, mode: ScalarMode = ScalarMode.EXACT
) -> Kernel:
    # The m x n coefficient matrix with a x b collapses, over its entry
    # sum, anchored where ``_margins`` puts it.  A float window divides
    # each exact weight by that sum in one correctly rounded int division,
    # as ``as_float`` does, so it needs no exact window and passes the
    # int128 range, up to 400 collapses.
    divisor = coefficient_matrix_entry_sum(m, n, a, b)
    top, _, left, _ = _margins(m, n)
    anchor = (top + 1, left + 1)
    if mode is ScalarMode.EXACT:
        return Kernel(coefficient_matrix(m, n, a, b), divisor, anchor)
    alpha, beta = coefficient_sides(m, n, a, b)
    data = tuple(x * y / divisor for x in alpha for y in beta)
    return Kernel(Matrix(m, n, data, ScalarMode.FLOAT), 1, anchor)


def _diameter(r: int) -> int:
    # The side 2r+1 of a radius-r window; a negative r is refused.
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return 2 * r + 1


def box_kernel(r: int) -> Kernel:
    """Uniform (2r+1)-square window, divisor (2r+1)^2."""
    k = _diameter(r)
    return _coefficient_kernel(k, k, 0, 0)


def gaussian_kernel(r: int) -> Kernel:
    """Binomial approximation to the Gaussian, radius r: the
    (2r+1)-square :func:`gaussian_kernel_rect`.

    Weight (i, j), indexed from the center, is
    binomial(2r, i+r) * binomial(2r, j+r); the divisor is 4^(2r).
    """
    k = _diameter(r)
    return gaussian_kernel_rect(k, k)


def gaussian_kernel_rect(
    a: int, b: int, mode: ScalarMode = ScalarMode.EXACT
) -> Kernel:
    """Rectangular a x b binomial kernel, divisor 2^(a+b-2).

    Weight (i, j), indexed from the top-left corner, is
    binomial(a-1, i-1) * binomial(b-1, j-1).  Even sides have no central
    entry, so the anchor sits at (ceil(a/2), ceil(b/2)).  An exact window
    whose largest weight leaves the signed 128-bit range is refused
    before any weight is built.  In float ``mode`` each weight is that
    quotient correctly rounded, with divisor 1, for sides with
    a + b <= 402; longer ones are refused first.
    """
    if a < 1 or b < 1:
        raise ValueError("kernel sides must be positive")
    return _coefficient_kernel(a, b, a - 1, b - 1, mode)


def gaussian_kernel_sampled(r: int, s: float) -> Kernel:
    """(2r+1)-square kernel sampled from the 2-D Gaussian density with
    standard deviation ``s``, renormalized to unit sum."""
    size = _diameter(r)
    if s <= 0:
        raise ValueError("standard deviation must be positive")
    raw = [
        math.exp(-(x * x + y * y) / (2.0 * s * s))
        for x in range(-r, r + 1)
        for y in range(-r, r + 1)
    ]
    total = math.fsum(raw)
    data = tuple(v / total for v in raw)
    return Kernel(Matrix(size, size, data, ScalarMode.FLOAT), 1, (r + 1, r + 1))


def check_interpolation(r: int, s: int) -> None:
    """Refuse a negative radius or a step s outside 0 <= s <= 2r."""
    if not 0 <= s <= _diameter(r) - 1:
        raise ValueError(f"interpolation step must satisfy 0 <= s <= 2r, got {s}")


def interpolation_kernel(r: int, s: int) -> Kernel:
    """Blend between the box and binomial-Gaussian windows.

    The weights are the coefficient matrix of a (2r+1)-square with
    a = b = s, divisor 2^(2s) (2r+1-s)^2; s = 0 is the box kernel and
    s = 2r the Gaussian one.
    """
    check_interpolation(r, s)
    k = _diameter(r)
    return _coefficient_kernel(k, k, s, s)


def _sources(n: int, before: int, after: int, mode: EdgeMode) -> list[int]:
    # 0-based source index of each extended position along an axis of
    # extent n; index n stands for the zero pad.  Mirror reflects about
    # the edge entry without repeating it ("abcb" style).
    span = range(-before, n + after)
    if mode is EdgeMode.ZERO:
        return [i if 0 <= i < n else n for i in span]
    if mode is EdgeMode.REPLICATE:
        return [min(max(i, 0), n - 1) for i in span]
    return [abs(i) if i < n else 2 * n - 2 - i for i in span]


def extend_asym(
    a: Matrix, top: int, bottom: int, left: int, right: int, mode: EdgeMode
) -> Matrix:
    """Extend with per-side margins; used for anchored rectangular windows.

    A packed plane (``collapse._Packed``, as ``pipeline.blur`` passes)
    is extended on its lane bytes by ``collapse._extended_lanes`` and
    stays packed, in the lanes it has, since every extended lane copies
    one of its lanes or is 0; a matrix is extended entry by entry.  Both take every edge
    from one definition of the source of each extended row and column.
    """
    if mode is EdgeMode.CROP:
        raise ValueError("cropping does not extend; pass an extension mode")
    if min(top, bottom, left, right) < 0:
        raise ValueError("margins must be nonnegative")
    m, n = a.rows, a.cols
    if mode is EdgeMode.MIRROR and (
        max(top, bottom) >= m or max(left, right) >= n
    ):
        raise DimensionError(
            f"mirror margins {top}/{bottom}/{left}/{right} too large for "
            f"{m}x{n} matrix"
        )
    if top == bottom == left == right == 0:
        return a
    rows, cols = _sources(m, top, bottom, mode), _sources(n, left, right, mode)
    if isinstance(a, _Packed):
        return _extended_lanes(a, rows, cols, left)
    d, zero = a.data, 0.0 if a.mode is ScalarMode.FLOAT else 0
    # itemgetter of one index returns the entry itself, not a 1-tuple.
    pick = itemgetter(*cols) if len(cols) > 1 else lambda row: (row[cols[0]],)
    # Each source row, and the zero pad row, extended once.
    extended = [pick(d[i * n : i * n + n] + (zero,)) for i in range(m)]
    extended.append((zero,) * len(cols))
    out = tuple(chain.from_iterable(map(extended.__getitem__, rows)))
    return Matrix(len(rows), len(cols), out, a.mode)


def extend(a: Matrix, r: int, mode: EdgeMode) -> Matrix:
    """Extend by r rows and columns on every side; the central block is
    the input."""
    if r < 0:
        raise ValueError("extension radius must be nonnegative")
    return extend_asym(a, r, r, r, r, mode)


def convolve_crop(kernel: Kernel, a: Matrix) -> FilterResult:
    """Convolve and keep only fully covered output positions.

    The output is (m - kh + 1) x (n - kw + 1), indexed from the first
    position where the whole window fits.
    """
    if kernel.weights.mode is ScalarMode.FLOAT or a.mode is ScalarMode.FLOAT:
        kernel = kernel.as_float()
        a = a.to_float()
    # Flipping the window once turns the convolution into a plain
    # correlation scan.
    w = kernel.weights
    flipped = Matrix(w.rows, w.cols, w.data[::-1], w.mode)
    return FilterResult(
        generalized_collapse(a, GammaSpec(flipped)), kernel.divisor
    )


def convolve(kernel: Kernel, a: Matrix, mode: EdgeMode) -> FilterResult:
    """Convolve under an edge policy.

    Cropping shrinks the output; extension modes pad the input by the
    window margins first and return an output the size of the input,
    aligned through the kernel anchor.
    """
    if mode is EdgeMode.CROP:
        return convolve_crop(kernel, a)
    top, bottom, left, right = kernel.margins()
    return convolve_crop(kernel, extend_asym(a, top, bottom, left, right, mode))


def separable_convolve(h: int, w: int, a: Matrix, mode: EdgeMode,
                       collapses: tuple[int, int] | None = None) -> FilterResult:
    """The h x w coefficient window with ``collapses`` (a, b), by default
    the binomial (h-1, w-1), as a row then a column pass by its sides.

    Extension happens once, on the full window margin, so the result
    matches the direct 2-D convolution entry for entry.
    """
    down, right = collapses or (h - 1, w - 1)
    row_k = _coefficient_kernel(1, w, 0, right, a.mode)
    col_k = _coefficient_kernel(h, 1, down, 0, a.mode)
    if mode is not EdgeMode.CROP:
        a = extend_asym(a, *_margins(h, w), mode)
    first = convolve_crop(row_k, a)
    second = convolve_crop(col_k, first.numerator)
    return FilterResult(second.numerator, first.divisor * second.divisor)
