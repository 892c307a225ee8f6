"""Combinatorial matrices behind the collapse calculus.

Binomial coefficients, the banded pair-sum matrices whose products
realize the directional collapses, their weighted generalization,
coefficient matrices that count how often each entry feeds a fully
summed collapse (every exact filter window is one: binomial, box and
interpolation), and Toeplitz constructors with the closed-form value of
their full collapse.

Vectors are represented as n x 1 matrices throughout; there is no
separate vector type.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate, repeat

from .matrix import (
    INT128_MAX,
    DimensionError,
    ExactOverflowError,
    Matrix,
    ScalarMode,
    _Record,
    multiply,
)


def binomial(n: int, r: int) -> int:
    """Exact binomial coefficient, 0 whenever r < 0 or r > n."""
    if n < 0:
        raise ValueError("binomial requires a nonnegative upper index")
    return math.comb(n, r) if 0 <= r else 0


def r_matrix(m: int) -> Matrix:
    """(m-1) x m band matrix with ones on the diagonal and superdiagonal.

    Left-multiplication by it performs one vertical pair-sum step.
    """
    if m < 2:
        raise DimensionError("pair-sum matrix needs m >= 2")
    data = tuple(
        1 if j == i or j == i + 1 else 0 for i in range(m - 1) for j in range(m)
    )
    return Matrix(m - 1, m, data)


def r_falling(m: int, k: int) -> Matrix:
    """(m-k) x m product of k successive pair-sum matrices, closed form.

    Entry (i, j) is binomial(k, j - i); k = 0 gives the identity.  The
    explicit product chain is kept in the tests as an independent check.
    """
    if k < 0:
        raise ValueError("falling power must be nonnegative")
    if k >= m:
        raise DimensionError(f"falling power {k} needs m > k, got m={m}")
    data = tuple(binomial(k, j - i) for i in range(m - k) for j in range(m))
    return Matrix(m - k, m, data)


def r_phi(m: int, phi: Matrix) -> Matrix:
    """(m-k+1) x m banded matrix placing the weights of the k x 1 column
    ``phi`` in columns p..p+k-1 of row p."""
    if phi.cols != 1:
        raise DimensionError("phi must be a column vector (k x 1 matrix)")
    k = phi.rows
    if k > m:
        raise DimensionError(f"band of length {k} does not fit width {m}")
    w = phi.data
    zero = 0.0 if phi.mode is ScalarMode.FLOAT else 0
    data = tuple(
        w[j - i] if i <= j < i + k else zero
        for i in range(m - k + 1)
        for j in range(m)
    )
    return Matrix(m - k + 1, m, data, phi.mode)


def r_phi_falling(m: int, phi: Matrix, s: int) -> Matrix:
    """Product of s successive banded matrices built from ``phi``.

    The factor widths step down by k-1 each time; s = 0 gives the
    identity.
    """
    if s < 0:
        raise ValueError("falling power must be nonnegative")
    k = phi.rows
    if s * (k - 1) >= m and s > 0:
        raise DimensionError(
            f"chain of {s} bands of length {k} exhausts width {m}"
        )
    result = Matrix.identity(m, phi.mode)
    width = m
    for _ in range(s):
        result = multiply(r_phi(width, phi), result)
        width -= k - 1
    return result


def column_sum_vector(a: Matrix) -> Matrix:
    """Per-column sums as an n x 1 matrix."""
    m, n, d = a.rows, a.cols, a.data
    sums = [sum(d[i * n + j] for i in range(m)) for j in range(n)]
    return Matrix(n, 1, tuple(sums), a.mode)


def row_sum_vector(a: Matrix) -> Matrix:
    """Per-row sums as an m x 1 matrix."""
    n = a.cols
    sums = [sum(a.data[i * n : (i + 1) * n]) for i in range(a.rows)]
    return Matrix(a.rows, 1, tuple(sums), a.mode)


# The most collapses a + b that a coefficient window takes.
MAX_COLLAPSES = 400


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
    # exact window whose largest entry leaves the signed 128-bit range, and a
    # float one past MAX_COLLAPSES collapses, where no exact one builds
    # either.  The middle window holds C(a, a//2) >= 2^a / (a+1), so an exact
    # a + b past MAX_COLLAPSES always overflows; only smaller counts need the
    # peak computed.
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


class ToeplitzSpec(_Record, namedtuple("ToeplitzSpec", "values rows cols")):
    """Diagonal values of a rows x cols Toeplitz matrix.

    ``values[idx]`` is the constant on diagonal i - j = idx - (cols - 1),
    i.e. values run from the top-right diagonal to the bottom-left one
    and must number rows + cols - 1.
    """

    __slots__ = ()

    def _check(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionError("Toeplitz dimensions must be positive")
        if len(self.values) != self.rows + self.cols - 1:
            raise DimensionError(
                f"need {self.rows + self.cols - 1} diagonal values, "
                f"got {len(self.values)}"
            )


def toeplitz(spec: ToeplitzSpec) -> Matrix:
    """Materialize the Toeplitz matrix described by ``spec``."""
    off = spec.cols - 1
    rows = [
        [spec.values[i - j + off] for j in range(spec.cols)]
        for i in range(spec.rows)
    ]
    return Matrix.from_rows(rows)


def toeplitz_full_collapse(spec: ToeplitzSpec):
    """Single entry left after fully collapsing the Toeplitz matrix.

    For an (m+1) x (n+1) matrix this is
    sum_k binomial(m + n, n + k) * a_k over diagonals k = -n .. m,
    where a_k sits on diagonal i - j = k.
    """
    m = spec.rows - 1
    n = spec.cols - 1
    return sum(
        binomial(m + n, n + k) * spec.values[k + n] for k in range(-n, m + 1)
    )


def collapsed_coefficient_square(n: int) -> int:
    """Single entry after n collapses of the (n+1)-square coefficient
    matrix with a = b = n: the square of the central binomial number."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return binomial(2 * n, n) ** 2
