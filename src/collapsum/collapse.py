"""Pair-sum collapse operators.

``collapse_down`` sums vertically adjacent entries, ``collapse_right``
horizontally adjacent ones, and ``collapse`` composes both (each 2x2
block of the input contributes its total to one output entry).  The
generalized form slides an arbitrary weight window instead of the
all-ones 2x2 window, and the n-dimensional form collapses a flat array
along any axis.  One pair-sum loop serves all three directional
collapses: down, right and along an axis each add a slab of the flat
data to itself shifted by one step.

In exact mode a plane with no negative entry, correlated with a window
with none, is packed into one Python int; a plane or window with a
negative entry, and float mode, runs the unpacked loops: the pair-sum
passes and a shift-and-add correlation.  One gate, ``_packed_lanes``,
decides whether a plane or an image packs and in which lanes.  The
packed values sit in unsigned lanes of L bits, a whole number of bytes:
the narrowest L >= 8 with B < 2**L for a bound B on every value a lane
holds, with no upper limit.  So an 8-bit image blurred at radius 4
(B = 255 * 4**8 < 2**24) packs in 3-byte lanes, and a 16-bit one at
radius 12 (B = 65535 * 4**24 < 2**64) in 8-byte lanes.  One packer serves every
width: it scatters and gathers the bytes of native ``array`` items with
slice assignment, and lanes wider than 8 bytes do so per 64-bit digit,
with no Python code per entry.

An image of several channels packs as one int of pixel lanes: pixel k
in lane k and its channel c in sublane c, of L bits each, so a lane is
``channels`` x L bits and a pixel step is one lane, as with one channel.
Every pass, correlation and extension moves whole lanes, and a window
weight packs in the low sublane of its lane, so a product adds each
channel's taps in that channel's sublane: an entry only ever meets
entries of its own channel.

One proof covers every packed operation, sublane by sublane.  Each
sublane holds a sum of nonnegative terms that uses each window weight at
most once, at most B < 2**L, so no sublane carries into the next, nor
a lane's last sublane into the next lane.  In a chain of passes whose
weights are all at least 1 (collapse passes, and every window and pass
of ``pipeline.blur``), every entry of an earlier pass is at most some
entry of the result, since each pass adds only nonnegative terms
and every entry feeds at least one entry of the next pass.  So the
result needs one range check: when B > 2**127 - 1, one AND of the packed
result with a mask of bits 127 and up of every kept sublane raises
``ExactOverflowError`` exactly where the unpacked loops, which scan each
pass and each result as they build it, would.

A packed plane (``_Packed``) carries its shape, row stride, lane width,
channel count and the bound B its sublanes were sized for, and flows
between stages without being unpacked: ``kernels.extend_asym``,
``collapse_down``, ``collapse_right``, the collapse powers and
``generalized_collapse`` all take one and return one.
``pipeline.blur_raster`` packs a whole image once, and ``pipeline.blur``
one plane, in lanes that hold the bound of the whole method; each
extends it, runs the stages on it packed and unpacks the result once.
Called on a ``Matrix``, the powers and ``generalized_collapse`` are
adapters over the same stages: they pack the input in lanes that hold
their own bound, run the stage and unpack.

A collapse power packs entry (i, j) of the plane in lane i*n + j
(row-major, row stride n = the input's column count, kept through every
pass), so a pass down is ``X + (X >> L*n)`` and a pass right is
``X + (X >> L)``: one bigint addition each, with B = max(a) * 2**passes.
The last lanes of each row, where a pass right adds the first lane of the
next row, and the lanes below the last row are computed and dropped.

The generalized collapse is a correlation, and packed it is a sum of
products (Kronecker substitution): the input, a lane per entry in
row-major order, times window row i reversed in b2 lanes puts input
(p+i, q+j) times weight (i, j) in lane p*n + q + n*i + b2 - 1, so the
product right-shifted by L*(n*i + b2 - 1) holds row i's share of output
(p, q) in lane p*n + q.  Each distinct row is multiplied once and added,
so shifted, for every row equal to it.  Unpacked, a shift-and-add loop
adds the flat input, shifted to each window tap and scaled by its
weight, into one accumulator.  Both keep the columns of each row where
the whole window fits.

Every packed stage, passes, correlations and extension alike, writes
lane k only from lanes k and up, each entry (i, j) of a window adding
lane k + i*n + j times its weight.  So every plane starts at lane 0,
and any two chains of stages that compute the same window on one plane
compute the same int, every lane included.

A packed result carries the range it proved (``Matrix._bounds``, [0, B]
clipped to int128), so the next operation sizes its lanes without
scanning it.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import add, and_, lshift, mul, rshift
from typing import Callable, NamedTuple

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

# The unsigned ``array`` typecode of each item size in bytes that packing
# converts through; 2-byte items are left out, since ``array('H')`` builds
# from ints as slowly as 'B', about three times slower than 'I'.  Packing
# reads ``array`` bytes as little-endian, so on a big-endian host, or one
# whose item sizes differ, only the unpacked loops run.
_NATIVE = {1: "B", 4: "I", 8: "Q"}
_PACKABLE = sys.byteorder == "little" and all(
    array(code).itemsize == size for size, code in _NATIVE.items()
)
_DIGIT = 2**64 - 1


def _size(bound: int) -> int:
    # Bytes of the narrowest whole-byte field that holds 0..bound, at least 1.
    return max(1, (bound.bit_length() + 7) // 8)


def _native(size: int) -> int:
    # The narrowest native item size of at least ``size`` <= 8 bytes.
    return next(s for s in _NATIVE if s >= size)


def _pack(values, size: int, top: int) -> int:
    # One int whose ``size``-byte lane k holds values[k], each in [0, top]
    # with top < 2**(8 * size): the bytes of the narrowest native items
    # that hold the values, taken 64 bits at a time beyond 8 bytes, are
    # scattered into their lanes.
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
        # ``bytes`` builds 1-byte items about four times as fast as
        # ``array('B')`` does.
        src = bytes(digit) if step == 1 else array(_NATIVE[step], digit).tobytes()
        if buf is None:
            buf = bytearray(size * (len(src) // step))
        for j in range(k):
            buf[lo + j :: size] = src[j::step]
    return int.from_bytes(buf, "little")


def _unpack(x: int, size: int, count: int, top: int):
    # Lanes 0 .. count-1 of x (``size`` bytes each) as a sequence of ints,
    # each read from its low bytes that hold 0..top: exact for every lane
    # in [0, top].  The inverse of ``_pack``: the bytes are gathered into
    # the next wider native array, and beyond 8 bytes the 64-bit digits
    # combine by C-level ``map``.
    raw = x.to_bytes(size * count, "little")
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


def _rows(lanes, rows: int, cols: int, stride: int):
    # The entries of a rows x cols block laid out with row stride ``stride``
    # from lane 0, row-major.
    return chain.from_iterable(
        lanes[p : p + cols] for p in range(0, rows * stride, stride)
    )


class _Packed(NamedTuple):
    # A plane of ``rows`` x ``cols`` pixels of ``channels`` exact entries
    # each, pixel (i, j) in unsigned ``bits``-bit lane i * stride + j of
    # ``value`` and its channel c in sublane c of ``bits // channels`` bits
    # of that lane, every sublane at most ``bound``.  The lanes past each
    # kept row hold partial sums that are dropped at the end.
    rows: int
    cols: int
    stride: int
    bits: int
    bound: int
    value: int
    channels: int = 1
    # Not a field: the mode that stages read off their operand.
    mode = ScalarMode.EXACT


def _packed(a: Matrix, bound: Callable[[int], int]) -> _Packed | None:
    # An exact plane a with no negative entry, packed by ``_packed_lanes``
    # with B = bound(max(a)); else None.
    if a.mode is ScalarMode.EXACT and a._bounds[0] >= 0:
        return _packed_lanes(a.rows, a.cols, 1, a.data, a._bounds[1], bound)
    return None


def _packed_lanes(rows: int, cols: int, channels: int, samples, high: int,
                  bound: Callable[[int], int]) -> _Packed | None:
    # The one packing gate: on a host that can pack, the rows x cols pixels
    # of ``channels`` interleaved samples each, row-major, every sample in
    # [0, high], with pixel k in lane k and its sample c in sublane c of the
    # fewest whole bytes that hold B = bound(high); else None.  Sample k of
    # ``samples`` is sublane k either way, so one ``_pack`` lays them out.
    # The bound is a function of the maximum so that a plane that does not
    # pack never computes it.
    if not _PACKABLE:
        return None
    b = bound(high)
    size = _size(b)
    return _Packed(rows, cols, cols, 8 * size * channels, b,
                   _pack(samples, size, high), channels)


def _kept(p: _Packed, sublane: bytes) -> int:
    # The byte pattern ``sublane`` in every sublane of every kept lane of p,
    # zero elsewhere.
    gap = bytes(p.bits // 8 * (p.stride - p.cols))
    return int.from_bytes((sublane * (p.channels * p.cols) + gap) * p.rows,
                          "little")


def _checked(p: _Packed) -> int:
    # The bound a result carries: p's bound clipped to int128.  Past int128,
    # one AND over the kept sublanes of p: bits 127 and up of every kept
    # sublane must be clear.
    if p.bound > INT128_MAX:
        size = p.bits // 8 // p.channels
        if p.value & _kept(p, bytes(15) + b"\x80" + b"\xff" * (size - 16)):
            raise ExactOverflowError(OUT_OF_RANGE)
    return min(p.bound, INT128_MAX)


def _lane_count(p: _Packed) -> int:
    # The lanes of p's value, at least through its last kept lane.
    last = (p.rows - 1) * p.stride + p.cols
    return max(last, -(-p.value.bit_length() // p.bits))


def _sublanes(p: _Packed):
    # The kept sublanes of p, pixel by pixel in row-major order and channel
    # by channel within a pixel, and the bound they carry: p's bound clipped
    # to int128, past which they are checked first.
    bound = _checked(p)
    c = p.channels
    lanes = _unpack(p.value, p.bits // 8 // c, c * _lane_count(p), bound)
    return _rows(lanes, p.rows, c * p.cols, c * p.stride), bound


def _unpacked(p: _Packed) -> Matrix:
    # The kept lanes of a one-channel p as a matrix that carries p's bound
    # clipped to int128; past it the kept lanes are checked first.
    data, bound = _sublanes(p)
    return Matrix._proven(p.rows, p.cols, tuple(data), ScalarMode.EXACT,
                          bounds=(0, bound))


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
    # A packed plane runs the loop as it is, since its lanes already hold
    # the bound of the caller's whole method; a matrix that packs here runs
    # it packed and is unpacked at the end.  ``packed`` stays referenced
    # until then on purpose: freed after the first pass, its buffer left
    # glibc's heap holding about 2 MB more at the write of a 512x512 P6
    # blur (peak RSS 46.2 against 44.3 MB at radius 4).
    packed = None
    if s and isinstance(a, Matrix):
        packed = _packed(a, lambda high: high << passes)
    plane = packed or a
    for _ in range(s):
        plane = step(plane)
    return plane if packed is None else _unpacked(plane)


def collapse_power(a: Matrix, s: int) -> Matrix:
    """s-fold collapse; s = 0 returns the input unchanged.

    An exact nonnegative plane runs its passes on one packed int (see
    the module docstring): entry (i, j) sits in unsigned lane i*n + j of
    the fewest whole bytes that hold B = max(a) * 4**s, and the lanes
    where a pass right wraps onto the next row are dropped at the end.
    Every entry of an earlier pass is at most some entry of the result,
    so one check of the result, one masked AND when B > 2**127 - 1,
    raises exactly where the scan of each pass would.  A packed plane
    runs its passes in the lanes it has and stays packed.  A plane with a
    negative entry, and a float one, runs each pass as the pair-sum loop.
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


def _correlate(p: _Packed, w: Matrix) -> _Packed:
    # The window sums of p (see generalized_collapse); p's sublanes hold
    # every sublane of each product and every weight of the nonnegative
    # window w, which packs in the low sublane of each lane.
    # Each shifted product is added alone: a row's shifts summed apart
    # held one more plane-sized int (0.8 MB more peak RSS in a 256x256 r=8
    # report).
    b1, b2, n, x = w.rows, w.cols, p.stride, p.value
    shifts = {}
    for i in range(b1):
        row = w.data[i * b2 : (i + 1) * b2][::-1]
        shifts.setdefault(row, []).append(p.bits * (n * i + b2 - 1))
    total = 0
    for row, offsets in shifts.items():
        part = x * _pack(row, p.bits // 8, w._bounds[1])
        for offset in offsets:
            total += part >> offset
    return p._replace(rows=p.rows - b1 + 1, cols=p.cols - b2 + 1, value=total)


def generalized_collapse(a: Matrix, gamma: GammaSpec) -> Matrix:
    """Sliding weighted window sum, unflipped indexing.

    Output entry (p, q) is the weight window laid over the input block
    whose top-left corner is (p, q); dimensions shrink to
    (m - b1 + 1) x (n - b2 + 1).  Convolution runs through this function
    with the window flipped.

    In exact mode, with a nonnegative input and window, the whole sum is
    a sum of products of packed ints (Kronecker substitution).  The input
    packs entry k into L-bit lane k (row-major, row stride n), and window
    row i packs reversed, weight (i, j) in lane b2-1-j.  Lane
    (p+i)*n + q+b2-1 of their product collects input (p+i, q+j) times
    weight (i, j) over the row's taps, so the product right-shifted by
    L*(n*i + b2-1) bits holds them in lane p*n + q, and the sum of these
    over every row holds output (p, q) there: row p of the output is a
    slice of n - b2 + 1 lanes from lane p*n, and no lane below lane 0 is
    formed.  Each distinct window row is multiplied once, and its product
    is added, so shifted, for every row i equal to it.

    Each lane of the product, the lanes where the window wraps onto the
    next row included, adds each weight at most once, so it lies in
    [0, B] with B = max(max(a) * sum(w), max(a), max(w)), as does every
    lane of the operands.  The lanes are the fewest whole bytes with
    B < 2**L, for any B, and when B > 2**127 - 1 one AND of the product
    with a mask of bits 127 and up of every kept lane raises
    ``ExactOverflowError`` exactly where the entry scan would.  The
    result skips that scan and carries [0, B] clipped to int128.  A
    packed plane, as ``pipeline.blur`` passes, is multiplied in the lanes
    its caller sized, and the product stays packed.

    When the input or the window has a negative entry, and in float
    mode, the sum runs as shift-and-add over the flat input: window tap
    (i, j) adds its weight times the input from flat offset i*n + j
    onward to an accumulator spanning every output position, in row-major
    tap order, so each entry sums the same products in the same order as
    a per-entry loop.  The accumulator is laid out with the input's row
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
    if isinstance(a, _Packed):
        return _correlate(a, w)
    if w._bounds[0] >= 0:
        # B bounds every lane of the product and of its operands.
        plane = _packed(a, lambda high: max(high * sum(w.data), high,
                                            w._bounds[1]))
        if plane is not None:
            return _unpacked(_correlate(plane, w))
    d, zero = a.data, 0 if a.mode is ScalarMode.EXACT else 0.0
    out_m, out_n = m - b1 + 1, n - b2 + 1
    span = (out_m - 1) * n + out_n
    acc = repeat(zero, span)
    for k, wk in enumerate(w.data):
        off = k // b2 * n + k % b2
        taps = map(mul, repeat(wk, span), islice(d, off, off + span))
        acc = list(map(add, acc, taps))
    return Matrix(out_m, out_n, tuple(_rows(acc, out_m, out_n, n)), a.mode)


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
