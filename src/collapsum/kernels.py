"""Coefficient windows, filter kernels, edge handling, and convolution.

Exact kernels carry integer weights plus a divisor so that pipelines can
defer the normalizing division; convolution therefore returns a
:class:`FilterResult` pair (numerator matrix, divisor).  Division happens
once, at the caller's chosen boundary, which keeps integer pipelines
bit-exact; rounding the quotient is :func:`matrix.round_half_away`.

Every exact window is the m x n coefficient matrix with a x b collapses
(:func:`coefficient_matrix`, which this module owns) over its entry sum:
the binomial (h, w, h-1, w-1), the radius-r Gaussian its (2r+1)-square
case, the box (2r+1, 2r+1, 0, 0) and the interpolation window
(2r+1, 2r+1, s, s).  One check,
``_check_window``, decides whether a window builds, before any weight
is: an exact window whose largest weight leaves the signed 128-bit range
is refused, a float binomial window past 400 collapses (a + b), where
no exact one builds either, and any window of more than 2^22 taps.
Every window, whatever builds it, sits with its (ceil(m/2), ceil(n/2))
entry over the output entry: ``_margins`` is that one rule, the margins
every extension edge pads by, so a :class:`Kernel` carries no anchor.
The named builders of the Matrix API (``box_kernel``,
``gaussian_kernel`` and the others) live in ``collapsum.windows``, which
no command imports, and are imported from there or from the package.
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
from itertools import accumulate, chain, repeat
from operator import itemgetter

from .collapse import GammaSpec, _Packed, _extended_lanes, generalized_collapse
from .matrix import (
    INT128_MAX,
    DimensionError,
    ExactOverflowError,
    Matrix,
    ScalarMode,
    _Record,
    round_half_away,
)

FLOAT_KERNEL_TOL = 1e-12


def binomial(n: int, r: int) -> int:
    """Exact binomial coefficient, 0 whenever r < 0 or r > n."""
    if n < 0:
        raise ValueError("binomial requires a nonnegative upper index")
    return math.comb(n, r) if 0 <= r else 0


# The most collapses a + b that a coefficient window takes.
MAX_COLLAPSES = 400
# The most taps m * n that a window takes: every method's work, and the
# memory of an extended plane, grow with its sides.  A box of radius
# 1023 (2047 x 2047) is within it.
MAX_TAPS = 2**22


def _check_counts(m: int, n: int, a: int, b: int) -> None:
    if not 0 <= a < m:
        raise DimensionError(f"need 0 <= a < m, got a={a}, m={m}")
    if not 0 <= b < n:
        raise DimensionError(f"need 0 <= b < n, got b={b}, n={n}")


def _side(m: int, a: int) -> list[int]:
    # Column sums of r_falling(m, a): entry j sums the m - a binomials
    # C(a, k) ending at k = j, a difference of the row's prefix sums.
    p = [0, *accumulate(map(binomial, repeat(a), range(a + 1)))]
    return [p[min(j, a) + 1] - p[max(j - m + a + 1, 0)] for j in range(m)]


def _peak(m: int, a: int) -> int:
    # Middle entry of _side(m, a), summed alone; the side is symmetric and
    # unimodal, so it is the largest.
    j = (m - 1) // 2
    return sum(math.comb(a, k) for k in range(max(j - m + a + 1, 0), min(j, a) + 1))


def coefficient_sides(m: int, n: int, a: int, b: int) -> tuple[list, list]:
    """The column sums of ``r_falling(m, a)`` and ``r_falling(n, b)``,
    whose outer product is :func:`coefficient_matrix`, past the int128
    range too.  Past :data:`MAX_COLLAPSES` collapses they are refused,
    before any is computed, as no exact window builds there either."""
    _check_window(m, n, a, b, ScalarMode.FLOAT)
    return _side(m, a), _side(n, b)


def _check_window(m: int, n: int, a: int, b: int, mode: ScalarMode) -> None:
    # The one check of whether an m x n window with a x b collapses builds in
    # ``mode``, made before any entry is computed: it refuses the counts, an
    # exact window whose largest entry leaves the signed 128-bit range, a
    # float one past MAX_COLLAPSES collapses, where no exact one builds
    # either, and any window of more than MAX_TAPS taps.  The middle window
    # holds C(a, a//2) >= 2^a / (a+1), so an exact a + b past MAX_COLLAPSES
    # always overflows; only smaller counts need the peak computed.
    _check_counts(m, n, a, b)
    if mode is ScalarMode.EXACT and (
            a + b > MAX_COLLAPSES or _peak(m, a) * _peak(n, b) > INT128_MAX):
        raise ExactOverflowError(
            f"{m}x{n} binomial window exceeds the signed 128-bit range"
        )
    if a + b > MAX_COLLAPSES:
        raise DimensionError(
            f"{m}x{n} binomial window needs more than {MAX_COLLAPSES} collapses"
        )
    if m * n > MAX_TAPS:
        raise DimensionError(f"{m}x{n} window has more than {MAX_TAPS} taps")


def coefficient_matrix(m: int, n: int, a: int, b: int) -> Matrix:
    """m x n matrix whose (i, j) entry counts how often input entry
    (i, j) contributes to the summed total of a vertical^a horizontal^b
    collapse.

    The outer product of the column sums of ``r_falling(m, a)`` and
    ``r_falling(n, b)``, each in closed form.  A window whose largest
    entry leaves the signed 128-bit range is refused before any entry is
    computed.
    """
    _check_window(m, n, a, b, ScalarMode.EXACT)
    beta = _side(n, b)
    return Matrix(m, n, tuple(x * y for x in _side(m, a) for y in beta))


def coefficient_matrix_entry_sum(m: int, n: int, a: int, b: int) -> int:
    """Total of all coefficient-matrix entries: 2^(a+b) (m-a)(n-b)."""
    _check_counts(m, n, a, b)
    return 2 ** (a + b) * (m - a) * (n - b)


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


class Kernel(_Record, namedtuple("Kernel", "weights divisor")):
    """Filter weight window.

    ``weights`` is either an exact integer matrix paired with a positive
    ``divisor`` (weights sum exactly to the divisor), or a float matrix
    with divisor 1 whose entries sum to 1 within 1e-12.  Every window is
    aligned over the output pixel at (ceil(h/2), ceil(w/2)), as
    :func:`convolve` extends it.
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

    @property
    def height(self) -> int:
        return self.weights.rows

    @property
    def width(self) -> int:
        return self.weights.cols

    def as_float(self) -> "Kernel":
        if self.weights.mode is ScalarMode.FLOAT:
            return self
        w = self.weights
        data = tuple(x / self.divisor for x in w.data)
        return Kernel(Matrix(w.rows, w.cols, data, ScalarMode.FLOAT), 1)


def _margins(m: int, n: int) -> tuple[int, int, int, int]:
    # (top, bottom, left, right) reach of an m x n window around its anchor,
    # (ceil(m/2), ceil(n/2)): the margins every convolution extends by.
    return (m - 1) // 2, m // 2, (n - 1) // 2, n // 2


def _coefficient_kernel(
    m: int, n: int, a: int, b: int, mode: ScalarMode = ScalarMode.EXACT
) -> Kernel:
    # The m x n coefficient matrix with a x b collapses, over its entry
    # sum.  A float window divides each exact weight by that sum in one
    # correctly rounded int division, as ``as_float`` does, so it needs no
    # exact window and passes the int128 range, up to 400 collapses.
    divisor = coefficient_matrix_entry_sum(m, n, a, b)
    if mode is ScalarMode.EXACT:
        return Kernel(coefficient_matrix(m, n, a, b), divisor)
    alpha, beta = coefficient_sides(m, n, a, b)
    data = tuple(x * y / divisor for x in alpha for y in beta)
    return Kernel(Matrix(m, n, data, ScalarMode.FLOAT), 1)


def _diameter(r: int) -> int:
    # The side 2r+1 of a radius-r window; a negative r is refused.
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return 2 * r + 1


def check_interpolation(r: int, s: int) -> None:
    """Refuse a negative radius or a step s outside 0 <= s <= 2r."""
    if not 0 <= s <= _diameter(r) - 1:
        raise ValueError(f"interpolation step must satisfy 0 <= s <= 2r, got {s}")


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
    """Extend with per-side margins, as a window's ``_margins`` give them.

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
    window's margins first and return an output the size of the input,
    each entry under the window's (ceil(h/2), ceil(w/2)) position.
    """
    if mode is EdgeMode.CROP:
        return convolve_crop(kernel, a)
    return convolve_crop(
        kernel, extend_asym(a, *_margins(kernel.height, kernel.width), mode))


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
