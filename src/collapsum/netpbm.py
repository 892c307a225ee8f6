"""netpbm image I/O (P2/P5 grayscale, P3/P6 color) and color-plane work.

The magic number starts at byte 0. After it, separators (space, tab, CR,
LF, VT, FF) and ``#`` comments, which run to the end of their line, may
sit between any two tokens, in the header and in an ASCII raster alike.
Every number is ASCII decimal digits, and a binary raster follows
exactly one separator byte after maxval. Every failure is a
:class:`NetpbmError` carrying the byte offset where parsing stopped.
Binary samples are 1 byte up to maxval 255 and big-endian 2 bytes above.

An image crosses this boundary as one :class:`Raster`: its samples
interleaved pixel by pixel, as the file holds them, with a bound on
them.  One C-level ``max`` over a raster read is its bound and, for a
binary raster, its maxval check; ASCII samples are checked as they are
read.  :func:`read_netpbm` and :func:`write_netpbm` are adapters over
the same parse and :func:`write_raster`: a read plane is one channel's
slice of the raster, carrying one C-level ``max`` of it as its proof
(``Matrix._bounds``), and the largest of those maxes is the maxval
check, so each sample is scanned once; written planes are interleaved
into one raster by slice assignment.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

from .matrix import DimensionError, Matrix, ScalarMode, round_half_away

MAX_MAXVAL = 65535

_WHITESPACE = b" \t\r\n\x0b\x0c"


class NetpbmError(ValueError):
    """Image parse failure; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


@dataclass(frozen=True)
class ImagePlane:
    """One grayscale channel: height x width samples in [0, maxval],
    checked on the proof they carry (``Matrix._bounds``), and on their
    span only when that proof is wider."""

    width: int
    height: int
    maxval: int
    samples: Matrix

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DimensionError("image dimensions must be positive")
        if not 1 <= self.maxval <= MAX_MAXVAL:
            raise ValueError(f"maxval must be in 1..{MAX_MAXVAL}")
        if self.samples.mode is not ScalarMode.EXACT:
            raise ValueError("image samples must be exact integers")
        if self.samples.rows != self.height or self.samples.cols != self.width:
            raise DimensionError("sample matrix shape must match width/height")
        s = self.samples
        if not (_within(s._bounds, self.maxval) or _within(s.span, self.maxval)):
            raise ValueError(f"samples must lie in [0, {self.maxval}]")


def _within(bounds: tuple, maxval: int) -> bool:
    return 0 <= bounds[0] and bounds[1] <= maxval


@dataclass(frozen=True)
class ColorImage:
    """Red, green and blue planes of equal shape and maxval."""

    red: ImagePlane
    green: ImagePlane
    blue: ImagePlane

    def __post_init__(self):
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


class Raster(NamedTuple):
    """``height`` rows of ``width`` pixels of ``channels`` samples each (1
    gray, 3 red, green and blue), interleaved pixel by pixel in row-major
    order, as a netpbm raster holds them; every sample lies in
    [0, ``high``] and ``high`` <= ``maxval``.  The samples are ``bytes``
    or a list of ints."""

    width: int
    height: int
    channels: int
    maxval: int
    samples: Sequence[int]
    high: int


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
    try:
        # Digits only: int() alone also takes "+5", "-0" and "1_0".
        if m[1].isdigit():
            return int(m[1]), m
    except ValueError:  # more digits than int() converts
        pass
    raise NetpbmError(f"invalid {what} {m[1]!r}", m.start())


def _read_header(tokens: Iterator[re.Match], size: int) -> tuple[int, int, int, int]:
    """Width, height, maxval and the offset just past the maxval token."""
    (width, _), (height, _), (maxval, last) = (
        _int(tokens, what, size) for what in ("width", "height", "maxval")
    )
    if width < 1 or height < 1:
        raise NetpbmError(f"bad dimensions {width}x{height}", last.end())
    if not 1 <= maxval <= MAX_MAXVAL:
        raise NetpbmError(f"maxval {maxval} out of range", last.end())
    return width, height, maxval, last.end()


def _read_ascii_samples(
    tokens: Iterator[re.Match], count: int, maxval: int, size: int
) -> list[int]:
    out = []
    for _ in range(count):
        value, m = _int(tokens, "sample", size)
        if value > maxval:
            raise NetpbmError(f"sample {value} exceeds maxval {maxval}", m.start())
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
            f"truncated raster: need {needed} bytes, have {len(data) - pos}",
            len(data),
        )
    raster = data[pos : pos + needed]
    if width_bytes == 1:
        return raster
    # A list, not the array: ``bytes`` of an ``array('H')`` is its buffer,
    # not its items.
    samples = array("H", raster)
    if sys.byteorder == "little":
        samples.byteswap()
    return samples.tolist()


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


def _parse(data: bytes) -> tuple[int, int, int, Sequence[int], int]:
    # Width, height, maxval, the channel-interleaved samples and the offset
    # of a binary raster's first byte.  ASCII samples are checked against
    # maxval as they are read; binary ones are not yet.
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
    count = width * height * (3 if magic in (b"P3", b"P6") else 1)
    if magic in (b"P2", b"P3"):
        flat = _read_ascii_samples(tokens, count, maxval, size)
    else:
        flat = _read_binary_samples(data, end, count, maxval)
    return width, height, maxval, flat, end + 1


def _check(flat, maxval: int, high: int, offset: int) -> None:
    # ``high``, the maximum of the samples ``flat``, is their maxval check.
    # ASCII samples were checked as they were read, so a sample above
    # maxval comes from a binary raster whose first byte is at ``offset``.
    if high > maxval:
        k = next(k for k, value in enumerate(flat) if value > maxval)
        raise NetpbmError(
            f"sample {flat[k]} exceeds maxval {maxval}",
            offset + k * (2 if maxval > 255 else 1),
        )


def read_raster(data: bytes) -> Raster:
    """Parse a P2, P3, P5 or P6 image into its :class:`Raster`."""
    width, height, maxval, flat, offset = _parse(data)
    high = max(flat)
    _check(flat, maxval, high, offset)
    return Raster(width, height, len(flat) // (width * height), maxval, flat, high)


def _planes(width: int, height: int, flat, high: int | None = None) -> list[Matrix]:
    # Each channel of the interleaved samples ``flat`` as a height x width
    # plane, proven within (0, high), or, for ``high`` None, within (0, one
    # C-level ``max`` of its own samples).
    c = len(flat) // (width * height)
    planes = []
    for k in range(c):
        samples = flat[k::c]
        bound = max(samples) if high is None else high
        planes.append(Matrix._proven(height, width, tuple(samples),
                                     ScalarMode.EXACT, bounds=(0, bound)))
    return planes


def _interleave(planes: Sequence[Matrix]) -> Sequence[int]:
    # The samples of equal-shaped ``planes`` interleaved pixel by pixel, by
    # slice assignment: the inverse of :func:`_planes`.
    if len(planes) == 1:
        return planes[0].data
    c = len(planes)
    samples = [0] * (c * len(planes[0].data))
    for k, plane in enumerate(planes):
        samples[k::c] = plane.data
    return samples


def _image(width: int, height: int, maxval: int, flat,
           offset: int) -> ImagePlane | ColorImage:
    # The image of the samples ``flat`` that :func:`_parse` returns: one
    # plane per channel, and the largest plane bound as the maxval check.
    planes = _planes(width, height, flat)
    _check(flat, maxval, max(p._bounds[1] for p in planes), offset)
    images = [ImagePlane(width, height, maxval, p) for p in planes]
    return images[0] if len(images) == 1 else ColorImage(*images)


def read_netpbm(data: bytes) -> ImagePlane | ColorImage:
    """Parse P2/P5 into an :class:`ImagePlane`, P3/P6 into a
    :class:`ColorImage`: the channels of the raster :func:`read_raster`
    reads, each proven within (0, its maximum)."""
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
    width, height, channels, maxval, samples, _ = raster
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
    raster = Raster(img.width, img.height, len(planes), img.maxval,
                    _interleave(planes), img.maxval)
    return write_raster(raster, format)


def split_color(img: ColorImage) -> tuple[Matrix, Matrix, Matrix]:
    """The three channel matrices of a color image."""
    return img.red.samples, img.green.samples, img.blue.samples


def _quantize(m: Matrix, maxval: int) -> Matrix:
    # A rounded blur carries bounds that prove the clamp idle, and the plane
    # it becomes valid, without a scan.
    q = round_half_away(m)
    if _within(q._bounds, maxval):
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
