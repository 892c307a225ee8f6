"""netpbm image I/O (P2/P5 grayscale, P3/P6 color) and color-plane work.

The magic number starts at byte 0. After it, separators (space, tab, CR,
LF, VT, FF) and ``#`` comments, which run to the end of their line, may
sit between any two tokens, in the header and in an ASCII raster alike.
Every number is ASCII decimal digits, and a binary raster follows
exactly one separator byte after maxval. Every failure is a
:class:`NetpbmError` carrying the byte offset where parsing stopped.
Binary samples are 1 byte up to maxval 255 and big-endian 2 bytes above.

An image crosses this boundary as one :class:`Raster`: its samples
interleaved pixel by pixel, as the file holds them, each in
[0, maxval].  ASCII samples are checked as they are read.  A binary
sample holds at most 255 or 65535, so only a binary raster whose maxval
is below that is scanned: one C-level ``max`` over it is its maxval
check.  :func:`read_netpbm` and :func:`write_netpbm` are adapters over
the same parse and :func:`write_raster`: a read plane is one channel's
slice of the raster, an exact matrix that measures its span when built;
written planes are interleaved into one raster by slice assignment.
"""

from __future__ import annotations

import re
import sys
from array import array
from collections import namedtuple
from collections.abc import Iterator, Sequence
from operator import attrgetter

from .matrix import DimensionError, Matrix, ScalarMode, _Record, round_half_away

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


class ImagePlane(_Record, namedtuple("ImagePlane", "width height maxval samples")):
    """One grayscale channel: height x width samples in [0, maxval],
    checked on their span (``Matrix.span``)."""

    __slots__ = ()

    def _check(self):
        if self.width < 1 or self.height < 1:
            raise DimensionError("image dimensions must be positive")
        if not 1 <= self.maxval <= MAX_MAXVAL:
            raise ValueError(f"maxval must be in 1..{MAX_MAXVAL}")
        if self.samples.mode is not ScalarMode.EXACT:
            raise ValueError("image samples must be exact integers")
        if self.samples.rows != self.height or self.samples.cols != self.width:
            raise DimensionError("sample matrix shape must match width/height")
        if not _within(self.samples.span, self.maxval):
            raise ValueError(f"samples must lie in [0, {self.maxval}]")


def _within(span: tuple, maxval: int) -> bool:
    return 0 <= span[0] and span[1] <= maxval


class ColorImage(_Record, namedtuple("ColorImage", "red green blue")):
    """Red, green and blue planes of equal shape and maxval."""

    __slots__ = ()

    def _check(self):
        r, g, b = self.red, self.green, self.blue
        if not (r.width == g.width == b.width and r.height == g.height == b.height):
            raise DimensionError("color planes must share dimensions")
        if not r.maxval == g.maxval == b.maxval:
            raise ValueError("color planes must share maxval")

    @property
    def width(self) -> int:
        return self.red.width

    @property
    def height(self) -> int:
        return self.red.height

    @property
    def maxval(self) -> int:
        return self.red.maxval


class Raster(namedtuple("Raster", "width height channels maxval samples")):
    """``height`` rows of ``width`` pixels of ``channels`` samples each (1
    gray, 3 red, green and blue), interleaved pixel by pixel in row-major
    order, as a netpbm raster holds them; every sample lies in
    [0, ``maxval``].  The samples are ``bytes`` or a list of ints."""

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


def _parse(data: bytes) -> tuple[int, int, int, int, Sequence[int]]:
    # Width, height, the channel count the magic implies, maxval and the
    # channel-interleaved samples, each checked against maxval: the fields
    # of a :class:`Raster`.
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
    return width, height, channels, maxval, flat


def read_raster(data: bytes) -> Raster:
    """Parse a P2, P3, P5 or P6 image into its :class:`Raster`."""
    return Raster(*_parse(data))


def _image(width: int, height: int, channels: int, maxval: int,
           flat) -> ImagePlane | ColorImage:
    # The image of the checked samples ``flat`` that :func:`_parse`
    # returns: each channel's slice as a plane.
    images = [
        ImagePlane(width, height, maxval, Matrix(
            height, width, tuple(flat[k::channels]), ScalarMode.EXACT))
        for k in range(channels)
    ]
    return images[0] if channels == 1 else ColorImage(*images)


def read_netpbm(data: bytes) -> ImagePlane | ColorImage:
    """Parse P2/P5 into an :class:`ImagePlane`, P3/P6 into a
    :class:`ColorImage`: the channels of the raster :func:`read_raster`
    reads."""
    return _image(*_parse(data))


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


def write_netpbm(img: ImagePlane | ColorImage, format: str = "binary") -> bytes:
    """Serialize to ASCII (P2/P3) or binary (P5/P6) bytes by
    :func:`write_raster`: a color image's planes are interleaved into one
    list by slice assignment.  Reading the output back yields
    bit-identical samples.
    """
    planes = split_color(img) if isinstance(img, ColorImage) else (img.samples,)
    c = len(planes)
    samples = [0] * (c * img.width * img.height)
    for k, plane in enumerate(planes):
        samples[k::c] = plane.data
    return write_raster(Raster(img.width, img.height, c, img.maxval, samples),
                        format)


def split_color(img: ColorImage) -> tuple[Matrix, Matrix, Matrix]:
    """The three channel matrices of a color image."""
    return img.red.samples, img.green.samples, img.blue.samples


def _quantize(m: Matrix, maxval: int) -> Matrix:
    # The rounded matrix, clamped only when its span leaves [0, maxval].
    q = round_half_away(m)
    if _within(q.span, maxval):
        return q
    data = tuple(min(max(v, 0), maxval) for v in q.data)
    return Matrix(q.rows, q.cols, data, ScalarMode.EXACT)


def plane_from_matrix(m: Matrix, maxval: int) -> ImagePlane:
    """Round half away from zero, clamp into [0, maxval], wrap as a plane."""
    q = _quantize(m, maxval)
    return ImagePlane(m.cols, m.rows, maxval, q)


def merge_color(red: Matrix, green: Matrix, blue: Matrix, maxval: int) -> ColorImage:
    """Combine three channel matrices, rounding and clamping as needed."""
    if not (
        red.rows == green.rows == blue.rows
        and red.cols == green.cols == blue.cols
    ):
        raise DimensionError("channel matrices must share dimensions")
    return ColorImage(
        plane_from_matrix(red, maxval),
        plane_from_matrix(green, maxval),
        plane_from_matrix(blue, maxval),
    )
