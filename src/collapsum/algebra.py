"""Matrix algebra of the Matrix API: entrywise sums, products and
comparison.

Both operands must share a scalar mode.  No command runs these, so this
module stays off every command's import path; its names are imported
from here or from the package, which loads it on first use.
"""

from __future__ import annotations

from .matrix import DimensionError, Matrix, ScalarMode


def _require_same_mode(a: Matrix, b: Matrix) -> ScalarMode:
    if a.mode is not b.mode:
        raise ValueError(
            f"scalar mode mismatch: {a.mode.value} vs {b.mode.value}"
            " (convert with to_float() first)"
        )
    return a.mode


def add(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise sum of two equal-shaped matrices."""
    mode = _require_same_mode(a, b)
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionError(
            f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols} matrices"
        )
    data = tuple(x + y for x, y in zip(a.data, b.data))
    return Matrix(a.rows, a.cols, data, mode)


def multiply(a: Matrix, b: Matrix) -> Matrix:
    """Standard matrix product."""
    mode = _require_same_mode(a, b)
    if a.cols != b.rows:
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    m, k, n = a.rows, a.cols, b.cols
    da, db = a.data, b.data
    out = []
    for i in range(m):
        arow = da[i * k : (i + 1) * k]
        for j in range(n):
            acc = 0
            for t in range(k):
                acc += arow[t] * db[t * n + j]
            out.append(acc)
    if mode is ScalarMode.FLOAT:
        out = [float(x) for x in out]
    return Matrix(m, n, tuple(out), mode)


def approx_equal(a: Matrix, b: Matrix, tol: float) -> bool:
    """True iff the max entrywise absolute difference is at most ``tol``.

    ``tol = 0`` demands exact equality.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionError(
            f"cannot compare {a.rows}x{a.cols} and {b.rows}x{b.cols} matrices"
        )
    return all(abs(x - y) <= tol for x, y in zip(a.data, b.data))
