"""The n-dimensional pair-sum collapse.

An :class:`NdArray` is a flat row-major array of up to 8 axes;
:func:`collapse_axis` adds each pair of neighbours along one axis with
the pair-sum loop the directional collapses of ``collapsum.collapse``
run, and :func:`collapse_all` does so along every axis.  No command runs
them, so this module stays off every command's import path; its names
are imported from here or from the package, which loads it on first use.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .collapse import _pair_sum
from .matrix import DimensionError, _Record

MAX_AXES = 8


class NdArray(_Record, namedtuple("NdArray", "shape data")):
    """Flat row-major n-dimensional array, up to 8 axes."""

    __slots__ = ()

    def _check(self):
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
    shape = arr.shape
    k = shape[axis]
    if k < 2:
        raise DimensionError(f"axis {axis} has extent {k}, need at least 2")
    before, after = shape[:axis], shape[axis + 1 :]
    data = _pair_sum(arr.data, math.prod(before), k, math.prod(after))
    return NdArray(before + (k - 1,) + after, data)


def collapse_all(arr: NdArray) -> NdArray:
    """One pair-sum collapse along every axis; axis order is immaterial."""
    if any(e < 2 for e in arr.shape):
        raise DimensionError("every extent must be at least 2")
    for axis in range(len(arr.shape)):
        arr = collapse_axis(arr, axis)
    return arr
