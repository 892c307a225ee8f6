"""Pair-sum collapse operators.

``collapse_down`` sums vertically adjacent entries, ``collapse_right``
horizontally adjacent ones, and ``collapse`` composes both (each 2x2
block of the input contributes its total to one output entry).  The
generalized form slides an arbitrary weight window instead of the
all-ones 2x2 window, and the n-dimensional form collapses a flat array
along any axis.  One pair-sum loop serves all three directional
collapses: down, right and along an axis each add a slab of the flat
data to itself shifted by one step.

Packed values sit in lanes of L bits, a whole number of bytes, and L
follows from a bound B on every value a lane holds: the narrowest L >= 8
with B < 2**L for unsigned lanes, or B <= 2**(L-1) - 1 for signed ones.
So an 8-bit image blurred at radius 4 (B = 255 * 4**8 < 2**24) packs in
3-byte lanes, and a 16-bit one at radius 12 (B = 65535 * 4**24 < 2**64)
in 8-byte lanes.  Lanes of 1, 4 or 8 bytes are one native ``array``
buffer; other widths scatter and gather the bytes of such items with
slice assignment, and lanes wider than 8 bytes do so per 64-bit digit,
with no Python code per entry.

The collapse powers run their passes on one packed Python int in exact
mode when the values allow it.  Entry (i, j) of the plane sits in
unsigned L-bit lane i*n + j (row-major, row stride n = the input's
column count, kept through every pass), so a pass down is
``X + (X >> L*n)`` and a pass right is ``X + (X >> L)``: one bigint
addition each.  The last lanes of each row, where a pass right adds the
first lane of the next row, and the lanes below the last row are
computed and dropped.  After p passes every lane, the dropped ones
included, is a sum of 2**p terms, each a packed entry or a zero shifted
in from beyond the last lane.

- A nonnegative plane packs as it is, in lanes that hold
  B = max(a) * 2**passes, with no upper limit: no lane exceeds B, so
  none carries into the next.  Its entries, and those of every pass, are
  sums of nonnegative terms, so the result needs one range check: every
  entry of an earlier pass is at most some entry of the result, since
  each pass adds only nonnegative terms and every entry feeds at least
  one entry of the next pass.  When B > 2**127 - 1 that check is one
  AND of the packed result with a mask of bits 127 and up of every kept
  lane, and it raises ``ExactOverflowError`` exactly where the per-pass
  scans of the unpacked loop would.
- A plane with a negative minimum is packed as a - min(a), and
  min(a) * 2**passes is added back when unpacking.  Its lanes hold 2B,
  with B = max|a| * 2**passes, and it packs only while B <= 2**63 - 1:
  every entry of every pass then lies within +-B, inside int128, so the
  per-pass range scans that a packed pass skips could not have raised.
  With cancellation, a signed plane's earlier passes can leave int128
  while its result does not, so wider signed planes, and float mode,
  run each pass as the pair-sum loop.

The generalized collapse is a correlation, and in exact mode it is one
bigint product (Kronecker substitution).  The input is packed into one
Python int with an L-bit lane per entry in row-major order, the flipped
window into another with the input's row stride, and the lanes of their
product are the window sums.  A bound on every lane decides when that is
exact and sets L, by the same rule: unsigned lanes with no upper limit
when the input and the window are nonnegative, biased signed lanes up
to 2**63 - 1 otherwise.  Wider signed values and float mode take a
shift-and-add loop instead, which adds the flat input, shifted to each
window tap and scaled by its weight, into one accumulator.  Both keep
the columns of each row where the whole window fits.

A packed result carries the range it proved (``Matrix._bounds``, inside
[0, B] when unsigned and +-B when signed), so the next operation sizes
its lanes without scanning it.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import add, and_, lshift, mul, rshift, sub
from typing import NamedTuple

from .matrix import (
    INT128_MAX,
    OUT_OF_RANGE,
    DimensionError,
    ExactOverflowError,
    Matrix,
    ScalarMode,
    multiply,
)

MAX_AXES = 8

# The unsigned ``array`` typecode of each item size in bytes that lanes
# use natively; 2-byte items are left out, since ``array('H')`` builds
# from ints as slowly as 'B', about three times slower than 'I'.  Packing reads
# ``array`` bytes as little-endian, so on a big-endian host, or one whose
# item sizes differ, only the unpacked loops run.
_NATIVE = {1: "B", 4: "I", 8: "Q"}
_PACKABLE = sys.byteorder == "little" and all(
    array(code).itemsize == size for size, code in _NATIVE.items()
)
# The largest bound that a signed lane takes: signed planes pack up to it.
LANE_MAX = 2**63 - 1
_DIGIT = 2**64 - 1


def _size(bound: int) -> int:
    # Bytes of the narrowest whole-byte field that holds 0..bound, at least 1.
    return max(1, (bound.bit_length() + 7) // 8)


def _native(size: int) -> int:
    # The narrowest native item size of at least ``size`` <= 8 bytes.
    return next(s for s in _NATIVE if s >= size)


def _lane_bits(bound: int, signed: bool) -> int | None:
    # The lane width in bits of values in [0, bound], or within +-bound when
    # signed: 8L for the narrowest L >= 1 with bound < 2**(8L), or with
    # bound <= 2**(8L-1) - 1 (the unsigned width of 2 * bound) when signed.
    # None when no lane takes them: signed values beyond LANE_MAX, or any
    # values on a host that cannot pack.
    if not _PACKABLE or signed and bound > LANE_MAX:
        return None
    return 8 * _size(bound << signed)


def _items(values, size: int) -> bytes:
    # The values, each below 2**(8 * size), as little-endian native items
    # of that size.  ``bytes`` builds 1-byte items about four times as fast
    # as ``array('B')`` does.
    return bytes(values) if size == 1 else array(_NATIVE[size], values).tobytes()


def _pack(values, size: int, top: int) -> int:
    # One int whose ``size``-byte lane k holds values[k], each in [0, top]
    # with top < 2**(8 * size).  Native sizes are one buffer of items;
    # other sizes scatter the bytes of the narrowest native items that
    # hold the values, taken 64 bits at a time beyond 8 bytes.
    if size in _NATIVE:
        return int.from_bytes(_items(values, size), "little")
    width = _size(top)
    if width > 8:
        values = tuple(values)
    buf = None
    for lo in range(0, width, 8):
        k = min(8, width - lo)
        step = _native(k)
        digit = values
        if width > 8:
            digit = map(and_, map(rshift, values, repeat(8 * lo)), repeat(_DIGIT))
        src = _items(digit, step)
        if buf is None:
            buf = bytearray(size * (len(src) // step))
        for j in range(k):
            buf[lo + j :: size] = src[j::step]
    return int.from_bytes(buf, "little")


def _unpack(x: int, size: int, count: int, top: int):
    # Lanes 0 .. count-1 of x (``size`` bytes each) as a sequence of ints,
    # each read from its low bytes that hold 0..top: exact for every lane
    # in [0, top].  The inverse of ``_pack``: native sizes read one
    # ``array``, others gather bytes into the next wider native array, and
    # beyond 8 bytes the 64-bit digits combine by C-level ``map``.
    raw = x.to_bytes(size * count, "little")
    if size in _NATIVE:
        return array(_NATIVE[size], raw)
    width = min(_size(top), size)
    values = None
    for lo in reversed(range(0, width, 8)):
        k = min(8, width - lo)
        step = _native(k)
        buf = bytearray(step * count)
        for j in range(k):
            buf[j::step] = raw[lo + j :: size]
        digit = array(_NATIVE[step], buf)
        values = digit if values is None else map(
            add, map(lshift, values, repeat(64)), digit
        )
    return values if isinstance(values, array) else list(values)


def _rows(lanes, first: int, rows: int, cols: int, stride: int):
    # The entries of a rows x cols block laid out with row stride ``stride``
    # from lane ``first``, row-major.
    return chain.from_iterable(
        lanes[p : p + cols] for p in range(first, first + rows * stride, stride)
    )


def _check_int128(x: int, size: int, first: int, rows: int, cols: int, stride: int):
    # One AND over the lanes that ``_rows`` keeps: each must be below 2**127,
    # so bits 127 and up of every kept ``size``-byte lane must be clear.
    lane = bytes(15) + b"\x80" + b"\xff" * (size - 16)
    row = lane * cols + bytes(size * (stride - cols))
    if x & int.from_bytes(bytes(size * first) + row * rows, "little"):
        raise ExactOverflowError(OUT_OF_RANGE)


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
        low, high = a._bounds
        bits = _lane_bits(max(high, -low) << passes, low < 0)
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
    size, top = bits // 8, a._bounds[1] - low
    values = map(sub, a.data, repeat(low)) if low else a.data
    # x stays referenced to the end.  Freed after the first pass, its
    # buffer left glibc's heap holding about 2 MB more at the write of a
    # 512x512 P6 blur (peak RSS 46.2 against 44.3 MB at radius 4, and
    # 46.2 against 44.8 MB at radius 6).
    x = _pack(values, size, top)
    plane = _Packed(a.rows, a.cols, a.cols, bits, x)
    for _ in range(s):
        plane = step(plane)
    m, k, n = plane.rows, plane.cols, a.cols
    top <<= passes
    if top > INT128_MAX:
        _check_int128(plane.value, size, 0, m, k, n)
        top = INT128_MAX
    data = _rows(_unpack(plane.value, size, len(a.data), top), 0, m, k, n)
    base = low << passes
    if low:
        data = map(add, data, repeat(base))
    return Matrix._proven(m, k, tuple(data), a.mode, bounds=(base, base + top))


def collapse_power(a: Matrix, s: int) -> Matrix:
    """s-fold collapse; s = 0 returns the input unchanged.

    In exact mode the passes run on one packed int (see the module
    docstring): entry (i, j) sits in unsigned lane i*n + j of a whole
    number of bytes, and the lanes where a pass right wraps onto the next
    row are dropped at the end.  With B = max|a| * 4**s:

    - a nonnegative plane always packs, in the narrowest lanes that hold
      B.  Every entry of an earlier pass is at most some entry of the
      result (each pass adds nonnegative terms), so one check of the
      result, one masked AND when B > 2**127 - 1, raises exactly where
      the scan of each pass would;
    - a plane with a negative minimum packs while B <= 2**63 - 1, as
      a - min(a) in lanes that hold 2B, and min(a) * 4**s is added back
      after.  Each entry of every pass lies within +-B, so skipping the
      int128 scan of each pass, and of the result, drops no error.
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
    (low, high), (wlow, whigh) = a._bounds, w._bounds
    top = max(high, -low)
    return max(top * sum(map(abs, w.data)), top, whigh, -wlow)


def _packed_correlation(a: Matrix, w: Matrix, bits: int) -> Matrix:
    # The window sums: lanes (p + b1 - 1) * n + q + b2 - 1 of the product
    # A * W in ``bits``-bit lanes, unsigned when the input and the window
    # are nonnegative and biased otherwise (see generalized_collapse).
    b1, b2, n = w.rows, w.cols, a.cols
    out_m, out_n = a.rows - b1 + 1, n - b2 + 1
    size, bound = bits // 8, _lane_bound(a, w)
    signed = min(a._bounds[0], w._bounds[0]) < 0
    half = 1 << (bits - 1) if signed else 0

    def bias(count: int) -> int:
        # 2**(L-1) in each of ``count`` lanes.
        return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")

    def pack(values, top: int) -> int:
        if not signed:
            return _pack(values, size, top)
        digits = map(add, values, repeat(half))
        return _pack(digits, size, 2 * half - 1) - bias(len(values))

    x = pack(a.data, a._bounds[1])
    flipped = w.data[::-1]
    if b2 == 1:
        # The product with sum(w_i * 2**(L*i*n)), without its zero lanes.
        product = sum(wi * (x << bits * n * i) for i, wi in enumerate(flipped))
    else:
        window = [0] * ((b1 - 1) * n + b2)
        for i in range(b1):
            window[i * n : i * n + b2] = flipped[i * b2 : (i + 1) * b2]
        product = x * pack(window, w._bounds[1])
    first = (b1 - 1) * n + b2 - 1
    lanes = len(a.data) + first
    if signed:
        product += bias(lanes)
    elif bound > INT128_MAX:
        _check_int128(product, size, first, out_m, out_n, n)
    top = 2 * half - 1 if signed else min(bound, INT128_MAX)
    data = _rows(_unpack(product, size, lanes, top), first, out_m, out_n, n)
    if signed:
        data = map(sub, data, repeat(half))
    # Every entry lies in [0, B], or within +-B when signed, and in int128.
    bounds = (-bound, bound) if signed else (0, top)
    return Matrix._proven(out_m, out_n, tuple(data), a.mode, bounds=bounds)


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

    Each lane of the product, the lanes where the window wraps onto the
    next row included, adds each weight at most once, so it is bounded by
    B = max(max|a| * sum|w|, max|a|, max|w|), and every lane of the
    operands by B as well.  Lanes are a whole number of bytes:

    - When the input and the window are nonnegative, every lane is a
      digit in [0, B], in the narrowest unsigned lanes with B < 2**L, for
      any B.  Each entry is then a sum of nonnegative terms, and when
      B > 2**127 - 1 one AND of the product with a mask of bits 127 and
      up of every kept lane raises ``ExactOverflowError`` exactly where
      the entry scan would.
    - Otherwise packing adds 2**(L-1) to each value, which makes it a
      digit in [1, 2**L - 1], packs those digits and subtracts the same
      bias, leaving sum(x_k * 2**(Lk)) with signed lanes; unpacking adds
      the bias back and subtracts 2**(L-1) from each kept lane.  That is
      exact when every lane lies in [-(2**(L-1) - 1), 2**(L-1) - 1], so
      no lane borrows from or carries into the next, and it runs while
      B <= 2**63 - 1, with B <= 2**(L-1) - 1.

    Every entry of a packed result lies in [0, B], or within +-B, and in
    int128, so the result skips the int128 scan and carries that bound.

    For signed values beyond that bound, and in float mode, the sum runs
    as shift-and-add over the flat input: window tap (i, j) adds its
    weight times the input from flat offset i*n + j onward to an
    accumulator spanning every output position, in row-major tap order,
    so each entry sums the same products in the same order as a
    per-entry loop.  The accumulator is laid out with the input's row
    stride n, so each row also holds b2 - 1 positions where the window
    wraps onto the next input row; those are computed and dropped.
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
    if a.mode is ScalarMode.EXACT:
        low = min(a._bounds[0], w._bounds[0])
        bits = _lane_bits(_lane_bound(a, w), low < 0)
        if bits:
            return _packed_correlation(a, w, bits)
    d, zero = a.data, 0 if a.mode is ScalarMode.EXACT else 0.0
    out_m, out_n = m - b1 + 1, n - b2 + 1
    span = (out_m - 1) * n + out_n
    acc = repeat(zero, span)
    for k, wk in enumerate(w.data):
        off = k // b2 * n + k % b2
        taps = map(mul, repeat(wk, span), islice(d, off, off + span))
        acc = list(map(add, acc, taps))
    return Matrix(out_m, out_n, tuple(_rows(acc, 0, out_m, out_n, n)), a.mode)


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
