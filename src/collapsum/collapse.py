"""Pair-sum collapse operators.

``collapse_down`` sums vertically adjacent entries, ``collapse_right``
horizontally adjacent ones, and ``collapse`` composes both (each 2x2
block of the input contributes its total to one output entry).  The
generalized form slides an arbitrary weight window instead of the
all-ones 2x2 window, and the n-dimensional form collapses a flat array
along any axis.  One pair-sum loop serves all three directional
collapses: down, right and along an axis each add a slab of the flat
data to itself shifted by one step.

Packed values sit in lanes of L bits, and L follows from a bound B on
every value a packer handles: the narrowest of 32 and 64 with
B <= 2**(L-1) - 1.  So an 8-bit image blurred at radius 4
(B = 255 * 4**8 < 2**25) packs in 32-bit lanes, half the digits of
64-bit ones; values beyond 2**63 - 1 are not packed.

The collapse powers run their passes on one packed Python int in exact
mode when the values allow it.  Entry (i, j) of the plane sits in
unsigned L-bit lane i*n + j (row-major, row stride n = the input's
column count, kept through every pass), so a pass down is
``X + (X >> L*n)`` and a pass right is ``X + (X >> L)``: one bigint
addition each.  The last lanes of each row, where a pass right adds the
first lane of the next row, and the lanes below the last row are
computed and dropped.  A plane with a negative minimum is packed as
a - min(a), and min(a) * 2**passes is added back when unpacking.  After
p passes every lane, the dropped ones included, is a sum of 2**p terms,
each a packed entry (at most 2 * max|a|) or a zero shifted in from
beyond the last lane.  The packed path therefore runs exactly when
B = max|a| * 2**passes is at most 2**63 - 1, in L-bit lanes with
B <= 2**(L-1) - 1: then every lane is at most 2 * B < 2**L, so none
carries into the next, and every entry of every pass lies within +-B,
inside int128, so the per-pass range scans that a packed pass skips
could not have raised, and the result skips its own.  Otherwise, and in
float mode, each pass is the pair-sum loop.

The generalized collapse is a correlation, and in exact mode it is one
bigint product (Kronecker substitution).  The input is packed into one
Python int with an L-bit lane per entry in row-major order, the flipped
window into another with the input's row stride, and the lanes of their
product are the window sums.  A bound on every lane decides when that is
exact and sets L; wider values and float mode take a shift-and-add loop
instead, which adds the flat input, shifted to each window tap and
scaled by its weight, into one accumulator.  Both keep the columns of
each row where the whole window fits.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import add, mul, sub
from typing import NamedTuple

from .matrix import DimensionError, Matrix, ScalarMode, multiply

MAX_AXES = 8

# A packed lane is an L-bit integer, signed in a correlation and unsigned
# in a collapse power; each width L maps to its ``array`` typecodes
# (unsigned, signed).  LANE_MAX is the largest bound that any lane holds.
# Packing reads ``array`` bytes as little-endian, so on a big-endian host
# only the unpacked loops run.
_TYPECODES = {32: ("I", "i"), 64: ("Q", "q")}
LANE_MAX = 2**63 - 1
_PACKABLE = sys.byteorder == "little" and all(
    8 * array(code).itemsize == bits for bits, (code, _) in _TYPECODES.items()
)


def _lane_bits(bound: int) -> int | None:
    # The lane width L of values within +-bound: the narrowest with
    # bound <= 2**(L-1) - 1, or None when no lane holds them.
    if _PACKABLE:
        for bits in _TYPECODES:
            if bound < 1 << (bits - 1):
                return bits
    return None


class _Packed(NamedTuple):
    # A plane of ``rows`` x ``cols`` entries, entry (i, j) in unsigned
    # ``bits``-bit lane i * stride + j of ``value``.
    rows: int
    cols: int
    stride: int
    bits: int
    value: int


def _pair_sum(data: tuple, outer: int, k: int, inner: int) -> tuple:
    """Read ``data`` as ``outer`` slabs of ``k`` steps of ``inner`` entries
    and add each step to the next one; every slab loses one step."""
    size = k * inner
    slabs = (data[i : i + size] for i in range(0, outer * size, size))
    return tuple(
        chain.from_iterable(map(add, s, islice(s, inner, None)) for s in slabs)
    )


def collapse_down(a: Matrix) -> Matrix:
    """Sum vertically adjacent pairs; (m-1) x n result."""
    if a.rows < 2:
        raise DimensionError("collapse_down needs at least 2 rows")
    if isinstance(a, _Packed):
        x = a.value
        return a._replace(rows=a.rows - 1, value=x + (x >> a.bits * a.stride))
    data = _pair_sum(a.data, 1, a.rows, a.cols)
    return Matrix(a.rows - 1, a.cols, data, a.mode)


def collapse_right(a: Matrix) -> Matrix:
    """Sum horizontally adjacent pairs; m x (n-1) result."""
    if a.cols < 2:
        raise DimensionError("collapse_right needs at least 2 columns")
    if isinstance(a, _Packed):
        x = a.value
        return a._replace(cols=a.cols - 1, value=x + (x >> a.bits))
    data = _pair_sum(a.data, a.rows, a.cols, 1)
    return Matrix(a.rows, a.cols - 1, data, a.mode)


def collapse(a: Matrix) -> Matrix:
    """Sum each 2x2 block; (m-1) x (n-1) result.

    Equal to collapse_down then collapse_right, in either order.
    """
    if a.rows < 2 or a.cols < 2:
        raise DimensionError("collapse needs at least 2 rows and 2 columns")
    return collapse_right(collapse_down(a))


def _repeat(step, a: Matrix, s: int, room: int, what: str, passes: int) -> Matrix:
    # Apply ``step`` s times, ``passes`` pair-sum passes in all; each
    # application uses up one of ``room``.
    if s < 0:
        raise ValueError("collapse power must be nonnegative")
    if s >= room:
        raise DimensionError(f"cannot collapse {what} {s} times")
    if s and a.mode is ScalarMode.EXACT:
        low, high = a.span
        bits = _lane_bits(max(high, -low) << passes)
        if bits:
            return _packed_repeat(step, a, s, passes, min(low, 0), bits)
    for _ in range(s):
        a = step(a)
    return a


def _packed_repeat(
    step, a: Matrix, s: int, passes: int, low: int, bits: int
) -> Matrix:
    # ``step`` applied s times to the plane packed as a - low in
    # ``bits``-bit lanes; see the module docstring for the lane bound.
    code = _TYPECODES[bits][0]
    d = map(sub, a.data, repeat(low)) if low else a.data
    x = int.from_bytes(array(code, d).tobytes(), "little")
    plane = _Packed(a.rows, a.cols, a.cols, bits, x)
    for _ in range(s):
        plane = step(plane)
    lanes = array(code)
    lanes.frombytes(plane.value.to_bytes(bits // 8 * len(a.data), "little"))
    m, k, n = plane.rows, plane.cols, a.cols
    data = chain.from_iterable(lanes[p : p + k] for p in range(0, m * n, n))
    if low:
        data = map(add, data, repeat(low << passes))
    return Matrix._proven(m, k, tuple(data), a.mode)


def collapse_power(a: Matrix, s: int) -> Matrix:
    """s-fold collapse; s = 0 returns the input unchanged.

    In exact mode the passes run on one packed int when
    B = max|a| * 4**s <= 2**63 - 1 (see the module docstring): entry
    (i, j) sits in unsigned L-bit lane i*n + j, with L = 32 when
    B <= 2**31 - 1 and 64 otherwise, the lanes where a pass right wraps
    onto the next row are dropped at the end, and a negative minimum is
    subtracted before packing and added back, times 4**s, after.  Each
    lane is then at most 2 * B < 2**L and each entry of every pass within
    +-B, so skipping the int128 scan of each pass, and of the result,
    drops no error.
    """
    room = min(a.rows, a.cols)
    return _repeat(collapse, a, s, room, f"a {a.rows}x{a.cols} matrix", 2 * s)


def collapse_down_power(a: Matrix, s: int) -> Matrix:
    return _repeat(collapse_down, a, s, a.rows, f"{a.rows} rows down", s)


def collapse_right_power(a: Matrix, s: int) -> Matrix:
    return _repeat(collapse_right, a, s, a.cols, f"{a.cols} columns right", s)


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


def _lane_bound(a: Matrix, w: Matrix) -> int:
    # Largest magnitude of a lane of the packed product or of its operands.
    (low, high), (wlow, whigh) = a.span, w.span
    top = max(high, -low)
    return max(top * sum(map(abs, w.data)), top, whigh, -wlow)


def _pack(lanes: array, bias: int) -> int:
    # Lane k of the result is lanes[k] as a signed value: XOR with the bias
    # adds 2**63 to each lane, which makes it nonnegative, and subtracting
    # the bias takes the 2**63 off again with carries across lanes.  Lanes
    # of the bias beyond ``lanes`` cancel to 0.
    return (int.from_bytes(lanes.tobytes(), "little") ^ bias) - bias


def _packed_correlation(a: Matrix, w: Matrix, bits: int) -> array:
    # Lanes (p + b1 - 1) * n + q + b2 - 1 of A * W, ``bits`` wide, hold the
    # window sums.
    b1, b2, n = w.rows, w.cols, a.cols
    code, size = _TYPECODES[bits][1], bits // 8
    flipped = w.data[::-1]
    lanes = len(a.data) + (b1 - 1) * n + b2 - 1
    # The top bit set in each of the product's lanes.
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * lanes, "little")
    x = _pack(array(code, a.data), bias)
    if b2 == 1:
        # The product with sum(w_i * 2**(L*i*n)), without its zero lanes.
        product = sum(wi * (x << bits * n * i) for i, wi in enumerate(flipped))
    else:
        window = array(code, bytes(size * ((b1 - 1) * n + b2)))
        for i in range(b1):
            window[i * n : i * n + b2] = array(code, flipped[i * b2 : (i + 1) * b2])
        product = x * _pack(window, bias)
    out = array(code)
    out.frombytes(((product + bias) ^ bias).to_bytes(size * lanes, "little"))
    return out


def generalized_collapse(a: Matrix, gamma: GammaSpec) -> Matrix:
    """Sliding weighted window sum, unflipped indexing.

    Output entry (p, q) is the weight window laid over the input block
    whose top-left corner is (p, q); dimensions shrink to
    (m - b1 + 1) x (n - b2 + 1).  Convolution runs through this function
    with the window flipped.

    Exact mode computes the whole sum as one product of two packed
    ints (Kronecker substitution).  The input packs entry k into L-bit
    lane k (row-major, row stride n); the window packs weight (i, j)
    into lane (b1-1-i)*n + (b2-1-j), so its rows keep the input's
    stride.  Lane (p+b1-1)*n + q+b2-1 of the product then collects
    input (p+i, q+j) times weight (i, j) over every tap, and row p of
    the output is a slice of n - b2 + 1 lanes from there.  A one-column
    window packs to sum(w_i * 2**(L*i*n)), mostly zero lanes, so its
    product is formed as the same sum of the packed input shifted by
    L*i*n bits and scaled by w_i.

    Packing reads each entry's two's-complement bytes as one unsigned
    int, XORs bit L-1 of every lane (which adds 2**(L-1) to each lane
    and makes it nonnegative) and subtracts the same bias constant, which
    leaves sum(x_k * 2**(Lk)) with signed lanes.  Unpacking adds the
    bias, XORs it off again and reads the bytes back with ``array``
    (typecode ``i`` or ``q``).  That is exact when every lane, of the
    operands and of the product, lies in [-(2**(L-1) - 1), 2**(L-1) - 1]:
    adding the bias then makes each lane a digit in [1, 2**L - 1], so no
    lane borrows from or carries into the next.  Each lane of the
    product, the lanes where the window wraps onto the next row included,
    adds each weight at most once, so it is bounded by
    B = max(max|a| * sum|w|, max|a|, max|w|), and the packed path runs
    exactly when B <= 2**63 - 1, in 32-bit lanes when B <= 2**31 - 1 and
    in 64-bit ones otherwise.  Every entry of its result lies within +-B,
    so the result skips the int128 scan.

    Beyond that bound, and in float mode, the sum runs as shift-and-add
    over the flat input: window tap (i, j) adds its weight times the
    input from flat offset i*n + j onward to an accumulator spanning
    every output position, in row-major tap order, so each entry sums
    the same products in the same order as a per-entry loop.  The
    accumulator is laid out with the input's row stride n, so each row
    also holds b2 - 1 positions where the window wraps onto the next
    input row; those are computed and dropped.
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
    d = a.data
    out_m, out_n = m - b1 + 1, n - b2 + 1
    exact = a.mode is ScalarMode.EXACT
    bits = _lane_bits(_lane_bound(a, w)) if exact else None
    if bits:
        acc = _packed_correlation(a, w, bits)
        first = (b1 - 1) * n + b2 - 1
        # Every entry lies within +-B < 2**63, so the int128 scan is skipped.
        build = Matrix._proven
    else:
        span = (out_m - 1) * n + out_n
        acc = repeat(0 if exact else 0.0, span)
        for k, wk in enumerate(w.data):
            off = k // b2 * n + k % b2
            taps = map(mul, repeat(wk, span), islice(d, off, off + span))
            acc = list(map(add, acc, taps))
        first = 0
        build = Matrix
    rows = (acc[p : p + out_n] for p in range(first, first + out_m * n, n))
    return build(out_m, out_n, tuple(chain.from_iterable(rows)), a.mode)


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
