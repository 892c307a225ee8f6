"""Pair-sum collapse operators.

``collapse_down`` sums vertically adjacent entries, ``collapse_right``
horizontally adjacent ones, and ``collapse`` composes both (each 2x2
block of the input contributes its total to one output entry).  The
generalized form slides an arbitrary weight window instead of the
all-ones 2x2 window.  One pair-sum loop, ``_pair_sum``, serves every
directional collapse: down, right, and along an axis of an n-dimensional
array (``collapsum.nd``, which no command imports), each add a slab of
the flat data to itself shifted by one step.

In exact mode a plane with no negative entry, correlated with a window
with none, is packed into one Python int; a plane or window with a
negative entry, and float mode, runs the unpacked loops: the pair-sum
passes and a shift-and-add correlation.  ``_packed`` decides whether a
plane packs, and ``_packed_lanes`` lays out a plane or an image in its
lanes, on every host.  The packed values sit in unsigned lanes of L
bits, a whole number of bytes: the narrowest L >= 8 with B < 2**L for
the bound B below, with no upper limit.  So an 8-bit image blurred at
radius 4 (B = 255 * 4**8 < 2**24) packs in 3-byte lanes, and a 16-bit
one at radius 12 (B = 65535 * 4**24 < 2**64) in 8-byte lanes.

The byte codec.  One encoder, ``_encode``, and one decoder, ``_decode``,
convert every int to and from fixed-width byte items, in either byte
order: the packer ``_pack`` and unpacker ``_unpack`` run them
little-endian on the lanes of every width, and ``netpbm`` runs them
big-endian on its binary samples.  This is the one module that reads the
host's byte order.  Values of at most 8 bytes, every raster sample among
them, move as the bytes of native ``array`` items, byte-swapped where
the host's order is not theirs, scattered into and gathered from their
items by slice assignment, with no Python code per entry.  The encoder
converts wider values one at a time, since only the weights of large
windows and matrix entries of 2**64 or more are that wide.  The decoder
gathers wider items per 64-bit digit, since every blur of an 8-bit image
at radius 15 or more (13 or more for 16 bits) unpacks sublanes wider
than 8 bytes.

An image of several channels packs as one int of pixel lanes: pixel k
in lane k and its channel c in sublane c, of L bits each, so a lane is
``channels`` x L bits and a pixel step is one lane, as with one channel.
Every pass, correlation and extension moves whole lanes, and a window
weight packs in the low sublane of its lane, so a product adds each
channel's taps in that channel's sublane: an entry only ever meets
entries of its own channel.

The lane rule.  A plane whose entries lie in [0, high] is packed for the
chain of stages it will run, whose weights are nonnegative and multiply
out to a window of weight total ``total``: a collapse power's passes
have total 2**passes, a generalized collapse the sum of its window, and
a blur the divisor of its coefficient window.  Every sublane is sized
from one expression, in ``_packed_lanes``: B = max(high * total, high,
total), which is high * total unless the plane or the window is all
zero.  Two proofs rest on it, sublane by sublane:

- No carry.  Each sublane holds an entry (at most high), a weight (at
  most total: a weight is at most the total, since no weight is
  negative), or a sum of nonnegative terms of its own channel that uses
  each window weight at most once (at most high * total), the lanes
  where a window wraps onto the next row included; so it is at most
  B < 2**L, and no sublane carries into the next, nor a lane's last
  sublane into the next lane.
- One check.  In a chain of passes whose weights are all at least 1
  (collapse passes, and every window and pass of ``pipeline.blur``),
  every entry of an earlier pass is at most some entry of the result,
  since each pass adds only nonnegative terms and every entry feeds at
  least one entry of the next pass.  So the result needs one range
  check, ``_checked``.  A sublane under 16 bytes holds less than
  2**120; when they are 16 bytes or wider, as they are whenever
  B > 2**127 - 1, one AND of the packed result with a mask of bits 127
  and up of every kept sublane raises ``ExactOverflowError``
  exactly where the unpacked loops, which scan each pass and each result
  as they build it, would.

A packed plane (``_Packed``) carries its shape, row stride, lane width
and channel count, and flows between stages without being unpacked:
``kernels.extend_asym``, ``collapse_down``, ``collapse_right``, the
collapse powers and ``generalized_collapse`` all take one and return one.
``pipeline.blur_raster`` packs a whole image once, and ``pipeline.blur``
one plane, in lanes that hold the bound of the whole method; each
extends it, runs the stages on it packed and unpacks the result once.
Called on a ``Matrix``, the powers and ``generalized_collapse`` are
adapters over the same stages: they pack the input in lanes that hold
their own bound, run the stage and unpack.

A collapse power packs entry (i, j) of the plane in lane i*n + j
(row-major, row stride n = the input's column count, kept through every
pass), so a pass down is ``X + (X >> L*n)`` and a pass right is
``X + (X >> L)``: one bigint addition each, in lanes sized for the
total 2**passes.
The last lanes of each row, where a pass right adds the first lane of the
next row, and the lanes below the last row are computed and dropped.

The generalized collapse is a correlation, and packed it is a sum of
products (Kronecker substitution): the input, a lane per entry in
row-major order, times window row i reversed in b2 lanes puts input
(p+i, q+j) times weight (i, j) in lane p*n + q + n*i + b2 - 1, so the
product right-shifted by L*(n*i + b2 - 1) holds row i's share of output
(p, q) in lane p*n + q.  Each distinct row is multiplied once and added,
so shifted, for every row equal to it; a row of three or more equal
weights c is not multiplied at all: the product, shifted by b2 - 1
lanes, is c times the sum of the input shifted right by 0 .. b2 - 1
lanes, which ``_add_shifted`` adds by doubling.  Unpacked, a shift-and-add loop
adds the flat input, shifted to each window tap and scaled by its
weight, into one accumulator.  Both keep the columns of each row where
the whole window fits.

Every packed stage, passes, correlations and extension alike, writes
lane k only from lanes k and up, each entry (i, j) of a window adding
lane k + i*n + j times its weight.  So every plane starts at lane 0,
and any two chains of stages that compute the same window on one plane
compute the same int, every lane included.

A packed plane stores no range: its sublane width, sized from B when it
is packed, is all its one check reads.  An exact ``Matrix`` has one
range, its ``span``, which its constructor measures.  A matrix packs in
lanes sized from its span, and a packed result unpacks, after its one
check, into a matrix that measures its own.  Only this module reads the
lane bytes: it packs, extends and unpacks them.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from itertools import chain, islice, repeat
from operator import add, lshift, mul

from .matrix import (
    OUT_OF_RANGE,
    DimensionError,
    ExactOverflowError,
    Matrix,
    ScalarMode,
    _Record,
)

# The unsigned ``array`` typecode of each item size in bytes that the codec
# converts through, by what the items are built from.  From ints, 2-byte
# items are left out, since ``array('H')`` builds from ints as slowly as
# 'B', about three times slower than 'I'; from bytes, every typecode is a
# plain copy.
_FROM_INTS = {array(code).itemsize: code for code in "BIQ"}
_FROM_BYTES = {array(code).itemsize: code for code in "BHIQ"}


def _size(bound: int) -> int:
    # Bytes of the narrowest whole-byte field that holds 0..bound, at least 1.
    return max(1, (bound.bit_length() + 7) // 8)


def _native(size: int, codes: dict) -> int:
    # The narrowest item size of ``codes`` of at least ``size`` <= 8 bytes.
    return next(s for s in codes if s >= size)


def _byte(j: int, size: int, order: str) -> int:
    # The offset of byte j, of weight 256**j, in a ``size``-byte item.
    return j if order == "little" else size - 1 - j


def _encode(values, size: int, top: int, order: str):
    # The bytes of values, each in [0, top] with top < 2**(8 * size), as
    # ``size``-byte items in byte order ``order``, "little" or "big".
    # Values of at most 8 bytes, every raster sample among them, scatter
    # the bytes of the narrowest native items that hold them, made
    # little-endian on every host, into place.  Wider values, the weights
    # of large binomial windows (radius 18 and up) and matrix entries of
    # 2**64 or more, are converted one at a time: no native item holds
    # them, and a scatter per 64-bit digit timed slower than this on 67
    # values and on 65,536.
    width = _size(top)
    if width > 8:
        return b"".join(v.to_bytes(size, order) for v in values)
    step = _native(width, _FROM_INTS)
    # ``bytes`` builds 1-byte items about four times as fast as
    # ``array('B')`` does.
    if step == 1:
        src = bytes(values)
    else:
        items = array(_FROM_INTS[step], values)
        if sys.byteorder == "big":
            items.byteswap()
        src = items.tobytes()
    buf = bytearray(size * (len(src) // step))
    for j in range(width):
        buf[_byte(j, size, order) :: size] = src[j::step]
    return buf


def _decode(raw, size: int, count: int, order: str):
    # The ``count`` items of ``raw``, ``size`` bytes each in byte order
    # ``order``, as a sequence of ints: the inverse of ``_encode``.  Items
    # of 1, 2, 4 or 8 bytes are copied into a native array as they are,
    # byte-swapped where ``order`` is not the host's; other items of at most
    # 8 bytes are gathered little-endian into the next wider native array,
    # and wider ones per 64-bit digit, whose arrays combine by C-level
    # ``map`` into a list.
    values = None
    for lo in reversed(range(0, size, 8)):
        k = min(8, size - lo)
        step = _native(k, _FROM_BYTES)
        if step == size:
            digit, held = array(_FROM_BYTES[step], raw), order
        else:
            buf = bytearray(step * count)
            for j in range(k):
                buf[j::step] = raw[_byte(lo + j, size, order) :: size]
            digit, held = array(_FROM_BYTES[step], buf), "little"
        if sys.byteorder != held:
            digit.byteswap()
        values = digit if values is None else map(
            add, map(lshift, values, repeat(64)), digit
        )
    return values if isinstance(values, array) else list(values)


def _pack(values, size: int, top: int) -> int:
    # One int whose ``size``-byte lane k holds values[k], each in [0, top]:
    # their little-endian items.
    return int.from_bytes(_encode(values, size, top, "little"), "little")


def _unpack(x: int, size: int, count: int):
    # Lanes 0 .. count-1 of x (``size`` bytes each) as a sequence of ints.
    return _decode(x.to_bytes(size * count, "little"), size, count, "little")


def _rows(lanes, rows: int, cols: int, stride: int):
    # The entries of a rows x cols block laid out with row stride ``stride``
    # from lane 0, row-major.
    return chain.from_iterable(
        lanes[p : p + cols] for p in range(0, rows * stride, stride)
    )


class _Packed(namedtuple("_Packed", "rows cols stride bits value channels",
                         defaults=(1,))):
    # A plane of ``rows`` x ``cols`` pixels of ``channels`` exact entries
    # each, pixel (i, j) in unsigned ``bits``-bit lane i * stride + j of
    # ``value`` and its channel c in sublane c of ``bits // channels`` bits
    # of that lane, every sublane below 2**(bits // channels).  The lanes
    # past each kept row hold partial sums that are dropped at the end.
    __slots__ = ()
    # Not a field: the mode that stages read off their operand.
    mode = ScalarMode.EXACT


def _packed(a: Matrix, total: int) -> _Packed | None:
    # An exact plane a with no negative entry, packed by ``_packed_lanes``
    # with high = max(a); else None.
    if a.mode is ScalarMode.EXACT and a.span[0] >= 0:
        return _packed_lanes(a.rows, a.cols, 1, a.data, a.span[1], total)
    return None


def _packed_lanes(rows: int, cols: int, channels: int, samples, high: int,
                  total: int) -> _Packed:
    # The one packer of a plane or an image: the rows x cols pixels of
    # ``channels`` interleaved samples each, row-major, every sample in
    # [0, high], with pixel k in lane k and its sample c in sublane c of the
    # fewest whole bytes that hold B, the module docstring's lane rule for a
    # window of weight total ``total``.  Sample k of ``samples`` is sublane
    # k either way, so one ``_pack`` lays them out.
    size = _size(max(high * total, high, total))
    return _Packed(rows, cols, cols, 8 * size * channels,
                   _pack(samples, size, high), channels)


def _wide(p: _Packed) -> bool:
    # Whether p's sublanes, of 16 bytes or more, can hold an entry past
    # int128, so that ``_checked`` has a mask to test.
    return p.bits // 8 // p.channels >= 16


def _checked(p: _Packed) -> None:
    # p's int128 check: in wide sublanes, one AND over the kept sublanes of
    # p, whose bits 127 and up must all be clear.
    size = p.bits // 8 // p.channels
    if _wide(p):
        sublane = bytes(15) + b"\x80" + b"\xff" * (size - 16)
        gap = bytes(p.bits // 8 * (p.stride - p.cols))
        mask = (sublane * (p.channels * p.cols) + gap) * p.rows
        if p.value & int.from_bytes(mask, "little"):
            raise ExactOverflowError(OUT_OF_RANGE)


def _lane_count(p: _Packed) -> int:
    # The lanes of p's value, at least through its last kept lane.
    last = (p.rows - 1) * p.stride + p.cols
    return max(last, -(-p.value.bit_length() // p.bits))


def _sublanes(p: _Packed):
    # The kept sublanes of p, pixel by pixel in row-major order and channel
    # by channel within a pixel, once p passes its int128 check.
    _checked(p)
    c = p.channels
    lanes = _unpack(p.value, p.bits // 8 // c, c * _lane_count(p))
    return _rows(lanes, p.rows, c * p.cols, c * p.stride)


def _unpacked(p: _Packed) -> Matrix:
    # The kept lanes of a one-channel p as a matrix.
    return Matrix(p.rows, p.cols, tuple(_sublanes(p)), ScalarMode.EXACT)


def _extended_lanes(p: _Packed, rows: list[int], cols: list[int],
                    left: int) -> _Packed:
    # p extended by the source rows and columns of ``kernels.extend_asym``,
    # index p.rows or p.cols standing for the zero pad, from one
    # ``to_bytes``: each source row's lane bytes are cut once, with its
    # margin lanes (the zero pad is ``bytes(L)``), and the extended rows are
    # joined in ``rows`` order into one ``from_bytes``.  Every lane copies
    # one of p's or is 0.
    size, n = p.bits // 8, p.cols
    raw = p.value.to_bytes(size * _lane_count(p), "little")
    pad = bytes(size)
    margins = cols[:left] + cols[left + n :]
    extended = []
    for i in range(p.rows):
        start = i * p.stride * size
        lanes = [raw[start + c * size : start + (c + 1) * size] if c < n else pad
                 for c in margins]
        row = raw[start : start + n * size]
        extended.append(b"".join([*lanes[:left], row, *lanes[left:]]))
    extended.append(pad * len(cols))
    value = int.from_bytes(b"".join(map(extended.__getitem__, rows)), "little")
    return p._replace(rows=len(rows), cols=len(cols), stride=len(cols),
                      value=value)


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
    # the bound of the caller's whole method.  A matrix, as the public
    # collapse_power and its down and right forms are given, packs here,
    # runs it packed and is unpacked at the end; ``packed`` is None when
    # the result is returned as the loop leaves it.
    packed = None
    if s and isinstance(a, Matrix):
        packed = _packed(a, 1 << passes)
    plane = packed or a
    for _ in range(s):
        plane = step(plane)
    return plane if packed is None else _unpacked(plane)


def collapse_power(a: Matrix, s: int) -> Matrix:
    """s-fold collapse; s = 0 returns the input unchanged.

    An exact nonnegative plane runs its passes on one packed int: entry
    (i, j) sits in unsigned lane i*n + j of the fewest whole bytes that
    hold the module docstring's lane rule for the total 4**s, and the
    lanes where a pass right wraps onto the next row are dropped at the
    end.  That docstring's one check of the result refuses where a scan
    of each pass would.  A packed plane runs its passes in the lanes it has
    and stays packed.  A plane with a negative entry, and a float one,
    runs each pass as the pair-sum loop.
    """
    room = min(a.rows, a.cols)
    return _repeat(collapse, a, s, room, f"a {a.rows}x{a.cols} matrix", 2 * s)


def collapse_down_power(a: Matrix, s: int) -> Matrix:
    return _repeat(collapse_down, a, s, a.rows, f"{a.rows} rows down", s)


def collapse_right_power(a: Matrix, s: int) -> Matrix:
    return _repeat(collapse_right, a, s, a.cols, f"{a.cols} columns right", s)


class GammaSpec(_Record, namedtuple("GammaSpec", "weights rho phi",
                                     defaults=(None, None))):
    """Weight window of the generalized collapse.

    ``rho``/``phi`` optionally record a rank-1 factorization: ``rho`` is a
    b1 x 1 column, ``phi`` a b2 x 1 column, and ``rho @ phi.T`` must
    reproduce ``weights`` exactly.
    """

    __slots__ = ()

    def _check(self):
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
            # Only a rank-1 window needs the product, off every command's path.
            from .algebra import multiply

            if multiply(self.rho, self.phi.transpose()) != self.weights:
                raise ValueError("rho * phi^T does not reproduce the weights")

    @classmethod
    def rank_one(cls, rho: Matrix, phi: Matrix) -> "GammaSpec":
        from .algebra import multiply

        return cls(multiply(rho, phi.transpose()), rho, phi)


def _add_shifted(total, part, offsets: list[int]):
    # total plus part >> offset for each of the ascending ``offsets``, each
    # a whole number of lanes.  Three or more offsets spaced evenly by d, as
    # the rows of a box window or an interp plateau are, are summed by
    # doubling: with P = part >> offsets[0] and S(j) the sum of P >> t*d
    # for t < j, S(2j) = S(j) + (S(j) >> j*d) and S(j+1) = P + (S(j) >> d),
    # at most 2*log2(k) additions for k offsets.  No sublane of any partial
    # sum carries (the lane rule), so a shift of a sum is the sum of the
    # shifts, and the int is the one that adding each shift builds.  Other
    # offsets, the symmetric pairs of binomial rows among them, are added
    # one by one: summed apart, a pair held one more plane-sized int (0.8 MB
    # more peak RSS in a 256x256 r=8 report).
    first, k = offsets[0], len(offsets)
    if k < 3 or offsets != [*range(first, offsets[-1] + 1, offsets[1] - first)]:
        for offset in offsets:
            total += part >> offset
        return total
    d, head = offsets[1] - first, part >> first
    s, j = head, 1
    for bit in bin(k)[3:]:
        s, j = s + (s >> j * d), 2 * j
        if bit == "1":
            s, j = head + (s >> d), j + 1
    return total + s


def _correlate(p: _Packed, w: Matrix) -> _Packed:
    # The window sums of p (see generalized_collapse); p's sublanes hold
    # every sublane of each product and every weight of the nonnegative
    # window w, which packs in the low sublane of each lane.
    b1, b2, n, x, lane = w.rows, w.cols, p.stride, p.value, p.bits
    rows = {}
    for i in range(b1):
        rows.setdefault(w.data[i * b2 : (i + 1) * b2][::-1], []).append(i)
    # Each row's plane-sized part is passed on, not kept in a local, so
    # that it is freed before the next one is computed.
    total = 0
    for row, found in rows.items():
        if b2 >= 3 and row.count(row[0]) == b2:
            # b2 equal weights c, as in a box or a row of ones: x times the
            # row, shifted right by b2 - 1 lanes, is c times the sum of
            # x >> t*L for t < b2, which doubling adds with no product and
            # no left shift; that sum is already shifted, so row i's offset
            # is its n*i lanes.
            total = _add_shifted(
                total, row[0] * _add_shifted(0, x, [*range(0, b2 * lane, lane)]),
                [lane * n * i for i in found])
        else:
            total = _add_shifted(total, x * _pack(row, lane // 8, w.span[1]),
                                 [lane * (n * i + b2 - 1) for i in found])
    return p._replace(rows=p.rows - b1 + 1, cols=p.cols - b2 + 1, value=total)


def generalized_collapse(a: Matrix, gamma: GammaSpec) -> Matrix:
    """Sliding weighted window sum, unflipped indexing.

    Output entry (p, q) is the weight window laid over the input block
    whose top-left corner is (p, q); dimensions shrink to
    (m - b1 + 1) x (n - b2 + 1).  Convolution runs through this function
    with the window flipped.

    In exact mode, with a nonnegative input and window, the whole sum is
    a sum of products of packed ints (Kronecker substitution, as the
    module docstring lays out), one product per distinct window row, in
    lanes sized by that docstring's lane rule for the total sum(w): no
    lane of the product or its operands carries, and the product's one
    check refuses where the entry scan would.  A packed plane, as
    ``pipeline.blur`` passes, is multiplied in the lanes its caller sized,
    and the product stays packed.

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
    if w.span[0] >= 0:
        plane = _packed(a, sum(w.data))
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
