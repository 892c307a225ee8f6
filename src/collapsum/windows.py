"""Named filter windows of the Matrix API, each a :class:`kernels.Kernel`.

The box, binomial Gaussian (square and rectangular) and interpolation
windows are coefficient windows (``kernels._coefficient_kernel``); the
sampled Gaussian is the only float-only window.  No command builds a
kernel through these names: a blur builds only what its method reads,
so this module stays off every command's import path; its names are
imported from here or from the package, which loads it on first use.
"""

from __future__ import annotations

import math

from .kernels import (
    Kernel,
    _check_window,
    _coefficient_kernel,
    _diameter,
    check_interpolation,
)
from .matrix import Matrix, ScalarMode


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
    entry; every window aligns at (ceil(a/2), ceil(b/2)).  An exact window
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
    _check_window(size, size, 0, 0, ScalarMode.FLOAT)
    raw = [
        math.exp(-(x * x + y * y) / (2.0 * s * s))
        for x in range(-r, r + 1)
        for y in range(-r, r + 1)
    ]
    total = math.fsum(raw)
    data = tuple(v / total for v in raw)
    return Kernel(Matrix(size, size, data, ScalarMode.FLOAT), 1)


def interpolation_kernel(r: int, s: int) -> Kernel:
    """Blend between the box and binomial-Gaussian windows.

    The weights are the coefficient matrix of a (2r+1)-square with
    a = b = s, divisor 2^(2s) (2r+1-s)^2; s = 0 is the box kernel and
    s = 2r the Gaussian one.
    """
    check_interpolation(r, s)
    k = _diameter(r)
    return _coefficient_kernel(k, k, s, s)
