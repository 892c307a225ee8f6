"""Combinatorial matrices behind the collapse calculus: the paper's
closed forms.

The banded pair-sum matrices whose products realize the directional
collapses, their weighted generalization, row and column sums, and
Toeplitz constructors with the closed-form value of their full collapse,
down to the collapsed coefficient square.  No command runs any of them,
so no command imports this module.

The coefficient window, the matrix that counts how often each entry
feeds a fully summed collapse (every exact filter window is one:
binomial, box and interpolation), is computed by ``collapsum.kernels``,
which every blur imports, with ``binomial``, ``coefficient_matrix`` and
``coefficient_matrix_entry_sum``; they are imported from there or from
the package.

Vectors are represented as n x 1 matrices throughout; there is no
separate vector type.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import multiply
from .kernels import binomial
from .matrix import DimensionError, Matrix, ScalarMode, _Record


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
