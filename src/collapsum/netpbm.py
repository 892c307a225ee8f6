"""netpbm image I/O (P2/P5 grayscale, P3/P6 color) and color-plane work.

The magic number starts at byte 0. After it, separators (space, tab, CR,
LF, VT, FF) and ``#`` comments, which run to the end of their line, may
sit between any two tokens, in the header and in an ASCII raster alike.
Every number is ASCII decimal digits, and a binary raster follows
exactly one separator byte after maxval. Every failure is a
:class:`NetpbmError` carrying the byte offset where parsing stopped.
Binary samples are 1 byte up to maxval 255 and big-endian 2 bytes above.

An image is one record, a :class:`Raster`: its samples interleaved
pixel by pixel, as the file holds them, each in [0, maxval].
:func:`read_raster` (also named :func:`read_netpbm`) parses one, and
:func:`write_raster` serializes one.  ASCII samples are checked as they
are read.  A binary sample holds at most 255 or 65535, so only a binary
raster whose maxval is below that is scanned: one C-level ``max`` over
it is its maxval check.  A raster made by a caller is checked once, by
``_check_raster``, when :func:`write_netpbm` writes it or
``pipeline.blur_raster`` blurs it.  The per-plane functions view a raster
as exact channel matrices: :func:`split_color` slices them out, and
:func:`plane_from_matrix` and :func:`merge_color` round, clamp and
interleave matrices into a raster.
"""

from __future__ import annotations

import re
import sys
from array import array
from collections import namedtuple
from collections.abc import Iterator
from operator import attrgetter

from .matrix import DimensionError, Matrix, round_half_away

MAX_MAXVAL = 65535

_WHITESPACE = b" \t\r\n\x0b\x0c"


# A message quotes at most this many bytes of a token, or digits of a
# number, and marks a cut with "...".
_SHOWN = 32
# The most digits a number may have: Python 3.11's default limit for int()
# of a string, held on every version, so that no token costs a quadratic
# conversion before it is refused.
_DIGITS = 4300


def _quoted(token: bytes) -> str:
    return f"{token[:_SHOWN]!r}{'...' * (len(token) > _SHOWN)}"


def _number(n: int) -> str:
    # A nonnegative n in decimal, cut.  A longer n first drops all but 32
    # or more leading digits by one division, since ``str`` refuses an int
    # of more than 4300 digits: n has n.bit_length() * 3 // 10 or more.
    if n < 10**_SHOWN:
        return str(n)
    return str(n // 10 ** (n.bit_length() * 3 // 10 - _SHOWN))[:_SHOWN] + "..."


class NetpbmError(ValueError):
    """Image parse failure; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class Raster(namedtuple("Raster", "width height channels maxval samples")):
    """``height`` rows of ``width`` pixels of ``channels`` samples each (1
    gray, 3 red, green and blue), interleaved pixel by pixel in row-major
    order, as a netpbm raster holds them; every sample lies in
    [0, ``maxval``].  A raster read holds ``bytes`` (binary, maxval up to
    255) or a list of ints; :func:`write_netpbm` takes any sequence of
    ints and checks it.  Rasters of equal samples held in ``bytes`` and
    in a list are not equal records: compare :func:`split_color`."""

    __slots__ = ()


# One tokenizer for the whole grammar: a comment runs from "#" up to, not
# including, the next newline, and a token (group 1) is a maximal run of
# bytes that are neither a separator nor "#". Separators are skipped by
# the search itself, so no match ever backtracks.
_TOKEN = re.compile(rb"#[^\n]*|([^%s#]+)" % re.escape(_WHITESPACE))


def _token(tokens: Iterator[re.Match], what: str, size: int) -> re.Match:
    """The next token; ``size`` is the input length, where input runs out."""
    m = next(tokens, None)
    if m is None:
        raise NetpbmError(f"unexpected end of input reading {what}", size)
    return m


def _int(tokens: Iterator[re.Match], what: str, size: int) -> tuple[int, re.Match]:
    """The next token as a number, with its match."""
    m = _token(tokens, what, size)
    token = m[1]
    try:
        # Digits only: int() alone also takes "+5", "-0" and "1_0".
        if token.isdigit() and len(token) <= _DIGITS:
            return int(token), m
    except ValueError:  # more digits than int() converts
        pass
    raise NetpbmError(f"invalid {what} {_quoted(token)}", m.start())


def _read_header(tokens: Iterator[re.Match], size: int) -> tuple[int, int, int, int]:
    """Width, height, maxval and the offset just past the maxval token."""
    (width, _), (height, _), (maxval, last) = (
        _int(tokens, what, size) for what in ("width", "height", "maxval")
    )
    if width < 1 or height < 1:
        raise NetpbmError(f"bad dimensions {_number(width)}x{_number(height)}",
                          last.end())
    if not 1 <= maxval <= MAX_MAXVAL:
        raise NetpbmError(f"maxval {_number(maxval)} out of range", last.end())
    return width, height, maxval, last.end()


def _read_ascii_samples(
    tokens: Iterator[re.Match], count: int, maxval: int, size: int
) -> list[int]:
    out = []
    for _ in range(count):
        value, m = _int(tokens, "sample", size)
        if value > maxval:
            raise NetpbmError(f"sample {_number(value)} exceeds maxval {maxval}",
                              m.start())
        out.append(value)
    return out


def _read_binary_samples(
    data: bytes, pos: int, count: int, maxval: int
) -> bytes | list[int]:
    # Exactly one whitespace byte separates maxval from the raster.
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise NetpbmError("missing raster separator", pos)
    pos += 1
    width_bytes = 2 if maxval > 255 else 1
    needed = count * width_bytes
    if len(data) - pos < needed:
        raise NetpbmError(
            f"truncated raster: need {_number(needed)} bytes, "
            f"have {len(data) - pos}",
            len(data),
        )
    samples = data[pos : pos + needed]
    if width_bytes == 2:
        # A list, not the array: ``bytes`` of an ``array('H')`` is its
        # buffer, not its items.
        items = array("H", samples)
        if sys.byteorder == "little":
            items.byteswap()
        samples = items.tolist()
    # A sample holds at most 255 or 65535, so only a smaller maxval needs
    # a check: one C-level max, and a search for the first sample above.
    if maxval < 256**width_bytes - 1 and max(samples) > maxval:
        k = next(k for k, value in enumerate(samples) if value > maxval)
        raise NetpbmError(f"sample {samples[k]} exceeds maxval {maxval}",
                          pos + k * width_bytes)
    return samples


def _big_endian_16(samples) -> bytearray:
    # Samples below 2**16 as big-endian 2-byte items.  ``array("I")``
    # converts ints about three times as fast as ``array("H")``; the two
    # low bytes of each item, in little-endian order, are interleaved high
    # byte first.
    items = array("I", samples)
    if sys.byteorder == "big":
        items.byteswap()
    raw, step = items.tobytes(), items.itemsize
    out = bytearray(2 * len(items))
    out[0::2] = raw[1::step]
    out[1::2] = raw[0::step]
    return out


def read_raster(data: bytes) -> Raster:
    """Parse a P2, P3, P5 or P6 image into its :class:`Raster`, each
    sample checked against maxval."""
    size = len(data)
    tokens = filter(attrgetter("lastindex"), _TOKEN.finditer(data))  # skip comments
    # The magic starts at byte 0: anything before its token belongs to it.
    magic = data[: _token(tokens, "magic number", size).end()]
    if magic in (b"P1", b"P4"):
        raise NetpbmError(f"unsupported bitmap format {magic.decode()}", 0)
    if magic == b"P7":
        raise NetpbmError("unsupported format P7 (PAM)", 0)
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise NetpbmError(f"malformed magic {magic[:8]!r}", 0)
    width, height, maxval, end = _read_header(tokens, size)
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels
    if magic in (b"P2", b"P3"):
        flat = _read_ascii_samples(tokens, count, maxval, size)
    else:
        flat = _read_binary_samples(data, end, count, maxval)
    return Raster(width, height, channels, maxval, flat)


read_netpbm = read_raster


def write_raster(raster: Raster, format: str = "binary") -> bytes:
    """Serialize to ASCII (P2/P3) or binary (P5/P6) bytes.

    A binary raster is the ``bytes`` of the samples, or their big-endian
    2-byte items above maxval 255; an ASCII one is one line of decimal
    samples per image row.  Reading the output back yields the same
    samples.
    """
    if format not in ("ascii", "binary"):
        raise ValueError("format must be 'ascii' or 'binary'")
    width, height, channels, maxval, samples = raster
    magic = {(1, "ascii"): b"P2", (3, "ascii"): b"P3",
             (1, "binary"): b"P5", (3, "binary"): b"P6"}[channels, format]
    header = b"%s\n%d %d\n%d\n" % (magic, width, height, maxval)
    if format == "ascii":
        # One line of decimal samples per image row, formatted in one pass.
        line = b" ".join([b"%d"] * (width * channels)) + b"\n"
        return (header + line * height) % tuple(samples)
    return header + (_big_endian_16(samples) if maxval > 255 else bytes(samples))


def _check_raster(raster: Raster) -> None:
    # Every check of a caller's raster, made before any sample is used:
    # positive dimensions, 1 or 3 channels, maxval in 1..65535, width x
    # height x channels samples, each an int in [0, maxval].
    width, height, channels, maxval, samples = raster
    if width < 1 or height < 1:
        raise DimensionError("image dimensions must be positive")
    if channels not in (1, 3):
        raise ValueError("an image has 1 or 3 channels")
    if not 1 <= maxval <= MAX_MAXVAL:
        raise ValueError(f"maxval must be in 1..{MAX_MAXVAL}")
    if len(samples) != width * height * channels:
        raise DimensionError("sample count must be width x height x channels")
    if not set(map(type, samples)) <= {int}:
        raise ValueError("image samples must be exact integers")
    if min(samples) < 0 or max(samples) > maxval:
        raise ValueError(f"samples must lie in [0, {maxval}]")


def write_netpbm(raster: Raster, format: str = "binary") -> bytes:
    """:func:`write_raster` of a caller's raster, once it passes every
    check of an image: positive dimensions, 1 or 3 channels, maxval in
    1..65535, width x height x channels samples, each an int in
    [0, maxval].  Reading the output back yields the same samples.
    """
    _check_raster(raster)
    return write_raster(raster, format)


def split_color(raster: Raster) -> tuple[Matrix, ...]:
    """The exact channel matrices of ``raster``: its one gray plane, or
    its red, green and blue planes."""
    width, height, c, _, samples = raster
    return tuple(Matrix(height, width, tuple(samples[k::c])) for k in range(c))


def _merged(planes: tuple[Matrix, ...], maxval: int) -> Raster:
    # The planes, each rounded half away from zero and clamped into
    # [0, maxval], interleaved into one raster.
    rows, cols = planes[0].rows, planes[0].cols
    if any((p.rows, p.cols) != (rows, cols) for p in planes):
        raise DimensionError("channel matrices must share dimensions")
    c = len(planes)
    samples = [0] * (c * rows * cols)
    for k, plane in enumerate(planes):
        samples[k::c] = [min(max(v, 0), maxval) for v in round_half_away(plane).data]
    return Raster(cols, rows, c, maxval, samples)


def plane_from_matrix(m: Matrix, maxval: int) -> Raster:
    """The gray raster of ``m``, rounded half away from zero and clamped
    into [0, maxval]."""
    return _merged((m,), maxval)


def merge_color(red: Matrix, green: Matrix, blue: Matrix, maxval: int) -> Raster:
    """The color raster of three channel matrices of one shape, rounded
    and clamped as :func:`plane_from_matrix` does."""
    return _merged((red, green, blue), maxval)
