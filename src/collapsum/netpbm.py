"""netpbm image I/O (P2/P5 grayscale, P3/P6 color) and color-plane work.

Parsing is whitespace-tolerant for the ASCII formats, honors ``#``
comments in headers, reads every number as ASCII decimal digits, and
reports every failure as a
:class:`NetpbmError` carrying the byte offset where parsing stopped.
Binary samples are 1 byte up to maxval 255 and big-endian 2 bytes above.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """One grayscale channel: height x width samples in [0, maxval]."""

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
        if min(self.samples.data) < 0 or max(self.samples.data) > self.maxval:
            raise ValueError(f"samples must lie in [0, {self.maxval}]")


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


class _Scanner:
    """Cursor over the raw bytes with comment-aware token reading."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_separators(self):
        d, n = self.data, len(self.data)
        while self.pos < n:
            c = self.data[self.pos : self.pos + 1]
            if c in (b"#",):
                while self.pos < n and d[self.pos] not in b"\n":
                    self.pos += 1
            elif c and c in _WHITESPACE:
                self.pos += 1
            else:
                return

    def token(self, what: str) -> bytes:
        self.skip_separators()
        if self.pos >= len(self.data):
            raise NetpbmError(f"unexpected end of input reading {what}", self.pos)
        start = self.pos
        d, n = self.data, len(self.data)
        while self.pos < n and d[self.pos : self.pos + 1] not in _WHITESPACE:
            if d[self.pos] in b"#":
                break
            self.pos += 1
        return self.data[start : self.pos]

    def int_token(self, what: str) -> int:
        start_before = self.pos
        tok = self.token(what)
        try:
            # Digits only: int() alone also takes "+5", "-0" and "1_0".
            if tok.isdigit():
                return int(tok)
        except ValueError:  # more digits than int() converts
            pass
        raise NetpbmError(
            f"invalid {what} {tok!r}", max(start_before, self.pos - len(tok))
        )


def _read_header(scanner: _Scanner) -> tuple[int, int, int]:
    width = scanner.int_token("width")
    height = scanner.int_token("height")
    maxval = scanner.int_token("maxval")
    if width < 1 or height < 1:
        raise NetpbmError(f"bad dimensions {width}x{height}", scanner.pos)
    if not 1 <= maxval <= MAX_MAXVAL:
        raise NetpbmError(f"maxval {maxval} out of range", scanner.pos)
    return width, height, maxval


def _read_ascii_samples(scanner: _Scanner, count: int, maxval: int) -> list[int]:
    out = []
    for _ in range(count):
        scanner.skip_separators()
        at = scanner.pos
        value = scanner.int_token("sample")
        if value > maxval:
            raise NetpbmError(f"sample {value} exceeds maxval {maxval}", at)
        out.append(value)
    return out


def _read_binary_samples(scanner: _Scanner, count: int, maxval: int) -> list[int]:
    data = scanner.data
    # Exactly one whitespace byte separates maxval from the raster.
    if scanner.pos >= len(data) or data[scanner.pos] not in _WHITESPACE:
        raise NetpbmError("missing raster separator", scanner.pos)
    scanner.pos += 1
    width_bytes = 2 if maxval > 255 else 1
    needed = count * width_bytes
    if len(data) - scanner.pos < needed:
        raise NetpbmError(
            f"truncated raster: need {needed} bytes, have {len(data) - scanner.pos}",
            len(data),
        )
    pos = scanner.pos
    raster = data[pos : pos + needed]
    if width_bytes == 1:
        out = list(raster)
    else:
        out = [hi << 8 | lo for hi, lo in zip(raster[::2], raster[1::2])]
    if max(out) > maxval:
        k = next(k for k, value in enumerate(out) if value > maxval)
        raise NetpbmError(
            f"sample {out[k]} exceeds maxval {maxval}", pos + k * width_bytes
        )
    scanner.pos = pos + needed
    return out


def _plane(width: int, height: int, maxval: int, flat: list[int]) -> ImagePlane:
    return ImagePlane(
        width, height, maxval, Matrix(height, width, tuple(flat), ScalarMode.EXACT)
    )


def _color(width, height, maxval, interleaved: list[int]) -> ColorImage:
    planes = []
    for channel in range(3):
        planes.append(_plane(width, height, maxval, interleaved[channel::3]))
    return ColorImage(*planes)


def read_netpbm(data: bytes) -> ImagePlane | ColorImage:
    """Parse P2/P5 into an :class:`ImagePlane`, P3/P6 into a
    :class:`ColorImage`."""
    scanner = _Scanner(data)
    magic = scanner.token("magic number")
    if magic in (b"P1", b"P4"):
        raise NetpbmError(f"unsupported bitmap format {magic.decode()}", 0)
    if magic == b"P7":
        raise NetpbmError("unsupported format P7 (PAM)", 0)
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise NetpbmError(f"malformed magic {magic[:8]!r}", 0)
    width, height, maxval = _read_header(scanner)
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels
    if magic in (b"P2", b"P3"):
        flat = _read_ascii_samples(scanner, count, maxval)
    else:
        flat = _read_binary_samples(scanner, count, maxval)
    if channels == 1:
        return _plane(width, height, maxval, flat)
    return _color(width, height, maxval, flat)


def write_netpbm(img: ImagePlane | ColorImage, format: str = "binary") -> bytes:
    """Serialize to ASCII (P2/P3) or binary (P5/P6) bytes.

    Reading the output back yields bit-identical samples.
    """
    if format not in ("ascii", "binary"):
        raise ValueError("format must be 'ascii' or 'binary'")
    color = isinstance(img, ColorImage)
    if color:
        magic = b"P3" if format == "ascii" else b"P6"
        width, height, maxval = img.width, img.height, img.maxval
        grids = [p.samples.data for p in (img.red, img.green, img.blue)]
        flat = [g[i] for i in range(width * height) for g in grids]
    else:
        magic = b"P2" if format == "ascii" else b"P5"
        width, height, maxval = img.width, img.height, img.maxval
        flat = list(img.samples.data)
    header = b"%s\n%d %d\n%d\n" % (magic, width, height, maxval)
    if format == "ascii":
        per_row = width * (3 if color else 1)
        lines = [
            " ".join(str(v) for v in flat[i : i + per_row])
            for i in range(0, len(flat), per_row)
        ]
        return header + ("\n".join(lines) + "\n").encode("ascii")
    if maxval > 255:
        raster = b"".join(v.to_bytes(2, "big") for v in flat)
    else:
        raster = bytes(flat)
    return header + raster


def split_color(img: ColorImage) -> tuple[Matrix, Matrix, Matrix]:
    """The three channel matrices of a color image."""
    return img.red.samples, img.green.samples, img.blue.samples


def _quantize(m: Matrix, maxval: int) -> Matrix:
    q = round_half_away(m)
    if 0 <= min(q.data) and max(q.data) <= maxval:
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
