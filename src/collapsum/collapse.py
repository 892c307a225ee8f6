"""Pair-sum collapse operators.

``collapse_down`` sums vertically adjacent entries, ``collapse_right``
horizontally adjacent ones, and ``collapse`` composes both (each 2x2
block of the input contributes its total to one output entry).  The
generalized form slides an arbitrary weight window instead of the
all-ones 2x2 window, and the n-dimensional form collapses a flat array
along any axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .matrix import DimensionError, Matrix, ScalarMode, multiply

MAX_AXES = 8


def collapse_down(a: Matrix) -> Matrix:
    """Sum vertically adjacent pairs; (m-1) x n result."""
    if a.rows < 2:
        raise DimensionError("collapse_down needs at least 2 rows")
    n, d = a.cols, a.data
    data = tuple(d[k] + d[k + n] for k in range((a.rows - 1) * n))
    return Matrix(a.rows - 1, n, data, a.mode)


def collapse_right(a: Matrix) -> Matrix:
    """Sum horizontally adjacent pairs; m x (n-1) result."""
    if a.cols < 2:
        raise DimensionError("collapse_right needs at least 2 columns")
    m, n, d = a.rows, a.cols, a.data
    data = tuple(
        d[i * n + j] + d[i * n + j + 1] for i in range(m) for j in range(n - 1)
    )
    return Matrix(m, n - 1, data, a.mode)


def collapse(a: Matrix) -> Matrix:
    """Sum each 2x2 block; (m-1) x (n-1) result.

    Equal to collapse_down then collapse_right, in either order.
    """
    if a.rows < 2 or a.cols < 2:
        raise DimensionError("collapse needs at least 2 rows and 2 columns")
    return collapse_right(collapse_down(a))


def collapse_power(a: Matrix, s: int) -> Matrix:
    """s-fold collapse; s = 0 returns the input unchanged."""
    if s < 0:
        raise ValueError("collapse power must be nonnegative")
    if s >= min(a.rows, a.cols):
        raise DimensionError(
            f"cannot collapse a {a.rows}x{a.cols} matrix {s} times"
        )
    for _ in range(s):
        a = collapse_right(collapse_down(a))
    return a


def collapse_down_power(a: Matrix, s: int) -> Matrix:
    if s < 0:
        raise ValueError("collapse power must be nonnegative")
    if s >= a.rows:
        raise DimensionError(f"cannot collapse {a.rows} rows down {s} times")
    for _ in range(s):
        a = collapse_down(a)
    return a


def collapse_right_power(a: Matrix, s: int) -> Matrix:
    if s < 0:
        raise ValueError("collapse power must be nonnegative")
    if s >= a.cols:
        raise DimensionError(f"cannot collapse {a.cols} columns right {s} times")
    for _ in range(s):
        a = collapse_right(a)
    return a


@dataclass(frozen=True)
class GammaSpec:
    """Weight window of the generalized collapse.

    ``rho``/``phi`` optionally record a rank-1 factorization: ``rho`` is a
    b1 x 1 column, ``phi`` a b2 x 1 column, and ``rho @ phi.T`` must
    reproduce ``weights`` exactly.
    """

    weights: Matrix
    rho: Matrix | None = None
    phi: Matrix | None = None

    def __post_init__(self):
        if (self.rho is None) != (self.phi is None):
            raise ValueError("rank-1 factorization needs both rho and phi")
        if self.rho is not None:
            if self.rho.cols != 1 or self.phi.cols != 1:
                raise DimensionError("rho and phi must be column vectors")
            if (
                self.rho.rows != self.weights.rows
                or self.phi.rows != self.weights.cols
            ):
                raise DimensionError("factor lengths must match the weight window")
            if multiply(self.rho, self.phi.transpose()) != self.weights:
                raise ValueError("rho * phi^T does not reproduce the weights")

    @classmethod
    def rank_one(cls, rho: Matrix, phi: Matrix) -> "GammaSpec":
        return cls(multiply(rho, phi.transpose()), rho, phi)


def generalized_collapse(a: Matrix, gamma: GammaSpec) -> Matrix:
    """Sliding weighted window sum, unflipped indexing.

    Output entry (p, q) is the weight window laid over the input block
    whose top-left corner is (p, q); dimensions shrink to
    (m - b1 + 1) x (n - b2 + 1).  Convolution runs through this loop
    with the window flipped.
    """
    w = gamma.weights
    if w.mode is not a.mode:
        raise ValueError("weight window and matrix must share a scalar mode")
    b1, b2 = w.rows, w.cols
    m, n = a.rows, a.cols
    if m < b1 or n < b2:
        raise DimensionError(
            f"{b1}x{b2} window does not fit a {m}x{n} matrix"
        )
    wd, d = w.data, a.data
    out_m, out_n = m - b1 + 1, n - b2 + 1
    zero = 0.0 if a.mode is ScalarMode.FLOAT else 0
    out = []
    for p in range(out_m):
        row0 = p * n
        for q in range(out_n):
            acc = zero
            k = 0
            for i in range(b1):
                base = row0 + i * n + q
                for j in range(b2):
                    acc += wd[k] * d[base + j]
                    k += 1
            out.append(acc)
    return Matrix(out_m, out_n, tuple(out), a.mode)


def generalized_collapse_power(a: Matrix, gamma: GammaSpec, s: int) -> Matrix:
    """s-fold generalized collapse by repeated application."""
    if s < 0:
        raise ValueError("collapse power must be nonnegative")
    b1, b2 = gamma.weights.rows, gamma.weights.cols
    if a.rows - s * (b1 - 1) < 1 or a.cols - s * (b2 - 1) < 1:
        raise DimensionError(
            f"dimensions exhausted: {b1}x{b2} window cannot be applied "
            f"{s} times to a {a.rows}x{a.cols} matrix"
        )
    for _ in range(s):
        a = generalized_collapse(a, gamma)
    return a


@dataclass(frozen=True)
class NdArray:
    """Flat row-major n-dimensional array, up to 8 axes."""

    shape: tuple[int, ...]
    data: tuple

    def __post_init__(self):
        if not 1 <= len(self.shape) <= MAX_AXES:
            raise DimensionError(f"1 to {MAX_AXES} axes supported")
        if any(e < 1 for e in self.shape):
            raise DimensionError("all extents must be positive")
        if len(self.data) != math.prod(self.shape):
            raise DimensionError("data length must equal the product of extents")

    @classmethod
    def filled(cls, shape: tuple[int, ...], value) -> "NdArray":
        return cls(tuple(shape), (value,) * math.prod(shape))


def collapse_axis(arr: NdArray, axis: int) -> NdArray:
    """Sum adjacent pairs along one axis; that extent shrinks by 1."""
    if not 0 <= axis < len(arr.shape):
        raise IndexError(f"axis {axis} out of range for shape {arr.shape}")
    k = arr.shape[axis]
    if k < 2:
        raise DimensionError(f"axis {axis} has extent {k}, need at least 2")
    inner = math.prod(arr.shape[axis + 1 :])
    outer = math.prod(arr.shape[:axis])
    d = arr.data
    out = []
    for o in range(outer):
        for t in range(k - 1):
            base = (o * k + t) * inner
            out.extend(d[base + r] + d[base + inner + r] for r in range(inner))
    shape = arr.shape[:axis] + (k - 1,) + arr.shape[axis + 1 :]
    return NdArray(shape, tuple(out))


def collapse_all(arr: NdArray) -> NdArray:
    """One pair-sum collapse along every axis; axis order is immaterial."""
    if any(e < 2 for e in arr.shape):
        raise DimensionError("every extent must be at least 2")
    for axis in range(len(arr.shape)):
        arr = collapse_axis(arr, axis)
    return arr
