import builtins
import random
import sys
import time
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsum.collapse import collapse_power
from collapsum.kernels import EdgeMode
from collapsum.matrix import DimensionError, Matrix, ScalarMode
from collapsum.netpbm import (
    MAX_MAXVAL,
    ColorImage,
    ImagePlane,
    NetpbmError,
    _big_endian_16,
    _image,
    _quantize,
    _read_binary_samples,
    merge_color,
    read_netpbm,
    split_color,
    write_netpbm,
)
from collapsum.pipeline import BlurRequest, blur

SEPARATORS = b" \t\r\n\x0b\x0c"


def random_plane(rng, width, height, maxval):
    data = tuple(rng.randint(0, maxval) for _ in range(width * height))
    return ImagePlane(width, height, maxval, Matrix(height, width, data))


def random_color(rng, width, height, maxval):
    return ColorImage(
        random_plane(rng, width, height, maxval),
        random_plane(rng, width, height, maxval),
        random_plane(rng, width, height, maxval),
    )


class ByteScanner:
    """Reference tokenizer: a cursor that steps through the bytes one at a
    time, skipping separators and comments before each token."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def skip_separators(self):
        d, n = self.data, len(self.data)
        while self.pos < n:
            c = d[self.pos : self.pos + 1]
            if c == b"#":
                while self.pos < n and d[self.pos] != ord("\n"):
                    self.pos += 1
            elif c in SEPARATORS:
                self.pos += 1
            else:
                return

    def token(self, what):
        self.skip_separators()
        if self.pos >= len(self.data):
            raise NetpbmError(f"unexpected end of input reading {what}", self.pos)
        start = self.pos
        d, n = self.data, len(self.data)
        while self.pos < n and d[self.pos : self.pos + 1] not in SEPARATORS + b"#":
            self.pos += 1
        return d[start : self.pos]

    def int_token(self, what):
        start = self.pos
        tok = self.token(what)
        try:
            if tok.isdigit():
                return int(tok)
        except ValueError:
            pass
        raise NetpbmError(f"invalid {what} {tok!r}", max(start, self.pos - len(tok)))


def reference_read(data):
    """``read_netpbm`` on the byte-at-a-time reference tokenizer.

    The magic starts at byte 0, so any separators or comments before the
    first token are part of the magic (and make it malformed)."""
    scanner = ByteScanner(data)
    scanner.token("magic number")
    magic = data[: scanner.pos]
    if magic in (b"P1", b"P4"):
        raise NetpbmError(f"unsupported bitmap format {magic.decode()}", 0)
    if magic == b"P7":
        raise NetpbmError("unsupported format P7 (PAM)", 0)
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise NetpbmError(f"malformed magic {magic[:8]!r}", 0)
    width = scanner.int_token("width")
    height = scanner.int_token("height")
    maxval = scanner.int_token("maxval")
    if width < 1 or height < 1:
        raise NetpbmError(f"bad dimensions {width}x{height}", scanner.pos)
    if not 1 <= maxval <= MAX_MAXVAL:
        raise NetpbmError(f"maxval {maxval} out of range", scanner.pos)
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels
    if magic in (b"P5", b"P6"):
        flat = _read_binary_samples(data, scanner.pos, count, maxval)
    else:
        flat = []
        for _ in range(count):
            scanner.skip_separators()
            at = scanner.pos
            value = scanner.int_token("sample")
            if value > maxval:
                raise NetpbmError(f"sample {value} exceeds maxval {maxval}", at)
            flat.append(value)
    return _image(width, height, maxval, flat, scanner.pos + 1)


def outcome(read, data):
    """The image read, or the message and offset of the parse error."""
    try:
        return read(data)
    except NetpbmError as exc:
        return str(exc), exc.offset


MAGICS = [b"P2", b"P3", b"P5", b"P6"]

# Byte strings over the grammar's alphabet: a magic (or none), then
# pieces each followed by a separator, a comment or nothing, so that
# pieces also glue into longer tokens. Small numbers make whole images
# likely; large ones and stray bytes reach every error.
grammar_pieces = (
    st.sampled_from(
        MAGICS + [b"P1", b"P4", b"P7", b"#", b"+", b"_", b"-", b"a", b"Z", b"\xff"]
    )
    | st.integers(1, 3).map(lambda n: b"%d" % n)
    | st.integers(0, 70000).map(lambda n: b"%d" % n)
    | st.text("0123456789", min_size=1, max_size=6).map(str.encode)
)
grammar_gaps = st.sampled_from(
    [bytes([c]) for c in SEPARATORS] + [b"", b"#", b"# c\n", b" # c\n"]
)
grammar_bytes = st.tuples(
    st.sampled_from(MAGICS + [b""]),
    st.lists(st.tuples(grammar_gaps, grammar_pieces), max_size=30),
    grammar_gaps,
).map(lambda t: t[0] + b"".join(gap + piece for gap, piece in t[1]) + t[2])


class TestParse:
    def test_ascii_gray(self):
        img = read_netpbm(b"P2\n2 2\n255\n1 2 3 4")
        assert isinstance(img, ImagePlane)
        assert img.samples.to_rows() == [[1, 2], [3, 4]]
        assert (img.width, img.height, img.maxval) == (2, 2, 255)

    def test_binary_gray(self):
        img = read_netpbm(b"P5\n1 1\n255\n" + bytes([0x10]))
        assert img.samples.to_rows() == [[16]]

    def test_ascii_truncated(self):
        with pytest.raises(NetpbmError):
            read_netpbm(b"P2\n2 2\n255\n1 2 3")

    def test_binary_truncated_reports_offset(self):
        data = b"P5\n2 2\n255\n" + bytes([1, 2, 3])
        with pytest.raises(NetpbmError) as err:
            read_netpbm(data)
        assert err.value.offset == len(data)

    def test_comments_in_header(self):
        img = read_netpbm(b"P2 # magic\n# a comment line\n2 1 # dims\n9\n3 4")
        assert img.samples.to_rows() == [[3, 4]]

    def test_whitespace_tolerant_ascii(self):
        img = read_netpbm(b"P2\t\n  2\r\n2  \n 255 \n\n 1\t2\n3   4\n")
        assert img.samples.to_rows() == [[1, 2], [3, 4]]

    def test_ascii_color(self):
        img = read_netpbm(b"P3\n2 1\n255\n1 2 3 4 5 6")
        assert isinstance(img, ColorImage)
        assert img.red.samples.to_rows() == [[1, 4]]
        assert img.green.samples.to_rows() == [[2, 5]]
        assert img.blue.samples.to_rows() == [[3, 6]]

    def test_two_byte_samples_big_endian(self):
        img = read_netpbm(b"P5\n2 1\n65535\n" + bytes([0x01, 0x00, 0x00, 0x02]))
        assert img.samples.to_rows() == [[256, 2]]

    def test_sample_exceeds_maxval_ascii(self):
        with pytest.raises(NetpbmError) as err:
            read_netpbm(b"P2\n1 1\n9\n10")
        assert "exceeds maxval" in str(err.value)
        assert err.value.offset == 9

    @pytest.mark.parametrize(
        "data, message, offset",
        [
            (b"P5\n1 1\n9\n" + bytes([10]), "sample 10 exceeds maxval 9", 9),
            (
                b"P5\n2 1\n999\n" + bytes([0x03, 0xE7, 0x03, 0xE8]),
                "sample 1000 exceeds maxval 999",
                13,
            ),
            # Color rasters: the first bad sample in raster order is blue,
            # a later one is red, so a search plane by plane would name red.
            (
                b"P6\n2 1\n99\n" + bytes([1, 2, 100, 150, 3, 4]),
                "sample 100 exceeds maxval 99",
                12,
            ),
            (
                b"P6\n2 1\n999\n"
                + b"".join(v.to_bytes(2, "big") for v in (1, 2, 1000, 1500, 3, 4)),
                "sample 1000 exceeds maxval 999",
                15,
            ),
        ],
        ids=["1-byte", "2-byte", "P6-1-byte", "P6-2-byte"],
    )
    def test_sample_exceeds_maxval_binary(self, data, message, offset):
        with pytest.raises(NetpbmError) as err:
            read_netpbm(data)
        assert str(err.value) == f"{message} (byte {offset})"
        assert err.value.offset == offset

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_read_planes_carry_their_proof(self, data):
        # Every format, 8- and 16-bit, any maxval: each plane read equals the
        # one the public constructor builds, carries (0, max) as its proof
        # with its span unmeasured, and one sample above maxval is refused
        # at its own byte offset.  One C-level max per channel slice is the
        # only scan: the largest of them is the maxval check, so no max runs
        # over the whole raster.
        magic = data.draw(st.sampled_from(MAGICS))
        maxval = data.draw(
            st.sampled_from((1, 200, 255, 256, MAX_MAXVAL)) | st.integers(1, MAX_MAXVAL)
        )
        width, height = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        channels = 3 if magic in (b"P3", b"P6") else 1
        count = width * height * channels
        sample = st.sampled_from((0, maxval)) | st.integers(0, maxval)
        flat = data.draw(st.lists(sample, min_size=count, max_size=count))
        header = b"%s\n%d %d\n%d\n" % (magic, width, height, maxval)
        text, wide = magic in (b"P2", b"P3"), maxval > 255

        def encoded(values):
            if text:
                return header + b" ".join(b"%d" % v for v in values)
            return header + b"".join(v.to_bytes(1 + wide, "big") for v in values)

        scans, real_max = [], max

        def counting_max(*args, **kwargs):
            if len(args) == 1 and isinstance(args[0], (bytes, list)):
                scans.append(list(args[0]))
            return real_max(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(builtins, "max", counting_max)
            img = read_netpbm(encoded(flat))
        assert scans == [flat[c::channels] for c in range(channels)]
        planes = [img] if channels == 1 else [img.red, img.green, img.blue]
        for c, plane in enumerate(planes):
            samples = flat[c::channels]
            assert plane.samples == Matrix(height, width, tuple(samples))
            assert plane.samples._bounds == (0, max(samples))
            assert "span" not in plane.samples.__dict__
        # Binary samples hold at most 255 or 65535.
        top = maxval + 10 if text else 65535 if wide else 255
        if maxval < top:
            k = data.draw(st.integers(0, count - 1))
            value = data.draw(st.integers(maxval + 1, top))
            bad = flat[:k] + [value] + flat[k + 1 :]
            if text:
                offset = len(header) + sum(len(b"%d " % v) for v in flat[:k])
            else:
                offset = len(header) + k * (1 + wide)
            with pytest.raises(NetpbmError) as err:
                read_netpbm(encoded(bad))
            assert str(err.value) == (
                f"sample {value} exceeds maxval {maxval} (byte {offset})"
            )

    def test_malformed_magic(self):
        with pytest.raises(NetpbmError):
            read_netpbm(b"XY\n1 1\n1\n0")

    @pytest.mark.parametrize(
        "lead", [b" ", b"\n", b"# c\n"], ids=["space", "newline", "comment"]
    )
    @pytest.mark.parametrize("magic", MAGICS, ids=lambda m: m.decode())
    def test_magic_starts_at_byte_zero(self, magic, lead):
        raster = b"1 2 3" if magic in (b"P2", b"P3") else b"\x01\x02\x03"
        body = b"\n1 1\n9\n" + raster
        read_netpbm(magic + body)
        with pytest.raises(NetpbmError) as err:
            read_netpbm(lead + magic + body)
        assert str(err.value) == f"malformed magic {(lead + magic)[:8]!r} (byte 0)"
        assert err.value.offset == 0

    @pytest.mark.parametrize("data", [b"", b" \n\t", b"# only a comment"])
    def test_no_magic_is_end_of_input(self, data):
        with pytest.raises(NetpbmError) as err:
            read_netpbm(data)
        assert str(err.value) == (
            f"unexpected end of input reading magic number (byte {len(data)})"
        )

    def test_comments_between_samples(self):
        img = read_netpbm(b"P2\n3 1\n9\n1#x 2\n2 # 7 8\n#\n3#")
        assert img.samples.to_rows() == [[1, 2, 3]]

    def test_sample_above_maxval_before_later_invalid_token(self):
        with pytest.raises(NetpbmError) as err:
            read_netpbm(b"P2\n3 1\n9\n1 10 x")
        assert str(err.value) == "sample 10 exceeds maxval 9 (byte 11)"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="int() converts any number of digits on this interpreter",
    )
    def test_too_many_digits_is_invalid(self):
        huge = b"1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(NetpbmError) as err:
            read_netpbm(b"P2\n" + huge + b" 1\n9\n1")
        assert str(err.value).startswith("invalid width b'1111")
        assert err.value.offset == 3

    @pytest.mark.parametrize(
        "tail",
        [b" " * 2_000_000, b"#" + b"c" * 2_000_000, b"# c\n" * 500_000],
        ids=["spaces", "unterminated-comment", "comment-lines"],
    )
    def test_hostile_tail_fails_fast(self, tail):
        data = b"P2\n2 2\n9\n1 " + tail
        start = time.perf_counter()
        with pytest.raises(NetpbmError) as err:
            read_netpbm(data)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == (
            f"unexpected end of input reading sample (byte {len(data)})"
        )
        assert err.value.offset == len(data)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(MAGICS + [b""]), st.binary(max_size=64))
    def test_arbitrary_bytes_raise_only_netpbm_errors(self, magic, rest):
        try:
            read_netpbm(magic + rest)
        except NetpbmError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(grammar_bytes)
    def test_matches_byte_at_a_time_tokenizer(self, data):
        assert outcome(read_netpbm, data) == outcome(reference_read, data)

    def test_unsupported_formats_named(self):
        with pytest.raises(NetpbmError) as err:
            read_netpbm(b"P1\n1 1\n0")
        assert "P1" in str(err.value)
        with pytest.raises(NetpbmError) as err:
            read_netpbm(b"P4\n1 1\n")
        assert "P4" in str(err.value)
        with pytest.raises(NetpbmError) as err:
            read_netpbm(b"P7\nWIDTH 1\n")
        assert "P7" in str(err.value)

    def test_bad_header_int(self):
        with pytest.raises(NetpbmError):
            read_netpbm(b"P2\ntwo 2\n255\n1 2")

    @pytest.mark.parametrize("token", [b"+5", b"1_0", b"-0"])
    @pytest.mark.parametrize(
        "template",
        [
            b"P2\n%s 1\n9\n1",
            b"P2\n1 %s\n9\n1",
            b"P2\n1 1\n%s\n1",
            b"P2\n1 1\n9\n%s",
            b"P3\n%s 1\n9\n1 2 3",
            b"P3\n1 1\n%s\n1 2 3",
            b"P3\n1 1\n9\n1 %s 3",
        ],
        ids=["P2-width", "P2-height", "P2-maxval", "P2-sample",
             "P3-width", "P3-maxval", "P3-sample"],
    )
    def test_numbers_are_ascii_digits_only(self, template, token):
        with pytest.raises(NetpbmError, match="invalid") as err:
            read_netpbm(template % token)
        assert err.value.offset == template.index(b"%")

    def test_maxval_out_of_range(self):
        with pytest.raises(NetpbmError):
            read_netpbm(b"P2\n1 1\n0\n0")
        with pytest.raises(NetpbmError):
            read_netpbm(b"P2\n1 1\n70000\n0")


class TestWrite:
    def test_ascii_tokens(self):
        plane = ImagePlane(2, 2, 255, Matrix.from_rows([[1, 2], [3, 4]]))
        tokens = write_netpbm(plane, "ascii").split()
        assert tokens == [b"P2", b"2", b"2", b"255", b"1", b"2", b"3", b"4"]

    def test_color_raster_interleaves_pixels(self):
        red, green, blue = (
            ImagePlane(2, 1, 255, Matrix.from_rows([[v, v + 1]])) for v in (10, 20, 30)
        )
        img = ColorImage(red, green, blue)
        assert write_netpbm(img, "binary") == b"P6\n2 1\n255\n" + bytes(
            [10, 20, 30, 11, 21, 31]
        )
        assert write_netpbm(img, "ascii") == b"P3\n2 1\n255\n10 20 30 11 21 31\n"

    def test_unknown_format_rejected(self):
        plane = ImagePlane(1, 1, 1, Matrix.from_rows([[0]]))
        with pytest.raises(ValueError):
            write_netpbm(plane, "hex")

    def test_round_trip_gray(self):
        rng = random.Random(223)
        plane = random_plane(rng, 8, 8, 255)
        for fmt in ("ascii", "binary"):
            assert read_netpbm(write_netpbm(plane, fmt)) == plane

    def test_round_trip_color_binary(self):
        rng = random.Random(227)
        img = random_color(rng, 5, 3, 255)
        assert read_netpbm(write_netpbm(img, "binary")) == img

    def test_round_trip_sixteen_bit(self):
        rng = random.Random(229)
        plane = random_plane(rng, 4, 6, 65535)
        for fmt in ("ascii", "binary"):
            assert read_netpbm(write_netpbm(plane, fmt)) == plane

    def test_round_trip_randomized_all_formats(self):
        rng = random.Random(233)
        for _ in range(40):
            width = rng.randint(1, 16)
            height = rng.randint(1, 16)
            maxval = rng.choice([1, 255, 65535])
            fmt = rng.choice(["ascii", "binary"])
            if rng.random() < 0.5:
                img = random_plane(rng, width, height, maxval)
            else:
                img = random_color(rng, width, height, maxval)
            assert read_netpbm(write_netpbm(img, fmt)) == img

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_round_trip_every_maxval_and_encoding(self, data):
        # Any maxval, so samples cross the 1-byte/2-byte boundary at 255/256.
        maxval = data.draw(
            st.sampled_from((1, 255, 256, MAX_MAXVAL)) | st.integers(1, MAX_MAXVAL)
        )
        width, height = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        fmt = data.draw(st.sampled_from(("ascii", "binary")))
        sample = st.sampled_from((0, maxval)) | st.integers(0, maxval)

        def plane():
            flat = data.draw(st.lists(sample, min_size=width * height,
                                      max_size=width * height))
            return ImagePlane(width, height, maxval,
                              Matrix(height, width, tuple(flat)))

        color = data.draw(st.booleans())
        img = ColorImage(plane(), plane(), plane()) if color else plane()
        assert read_netpbm(write_netpbm(img, fmt)) == img

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sixteen_bit_raster_is_big_endian_pairs(self, data):
        # Every 2-byte maxval, odd widths included, and samples at 0 and
        # maxval: the raster is each sample as 2 bytes, high byte first.
        maxval = data.draw(st.sampled_from((256, MAX_MAXVAL))
                           | st.integers(256, MAX_MAXVAL))
        width = data.draw(st.integers(0, 4).map(lambda k: 2 * k + 1)
                          | st.integers(1, 8))
        height = data.draw(st.integers(1, 4))
        sample = st.sampled_from((0, maxval)) | st.integers(0, maxval)

        def plane():
            flat = data.draw(st.lists(sample, min_size=width * height,
                                      max_size=width * height))
            return ImagePlane(width, height, maxval,
                              Matrix(height, width, tuple(flat)))

        if data.draw(st.booleans()):
            img, magic = ColorImage(plane(), plane(), plane()), b"P6"
            grids = (p.samples.data for p in (img.red, img.green, img.blue))
            flat = [v for pixel in zip(*grids) for v in pixel]
        else:
            img, magic = plane(), b"P5"
            flat = img.samples.data
        header = b"%s\n%d %d\n%d\n" % (magic, width, height, maxval)
        raster = b"".join(v.to_bytes(2, "big") for v in flat)
        out = write_netpbm(img, "binary")
        assert type(out) is bytes
        assert out == header + raster


    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_binary_raster_equals_the_interleaved_encoding(self, data):
        # 8- and 16-bit P5 and P6: the raster built plane by plane equals
        # the samples interleaved pixel by pixel and then encoded whole,
        # and reads back as the same image.
        maxval = data.draw(st.sampled_from((1, 255, 256, MAX_MAXVAL))
                           | st.integers(1, MAX_MAXVAL))
        width, height = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 5))
        sample = st.sampled_from((0, maxval)) | st.integers(0, maxval)

        def plane():
            flat = data.draw(st.lists(sample, min_size=width * height,
                                      max_size=width * height))
            return ImagePlane(width, height, maxval,
                              Matrix(height, width, tuple(flat)))

        if data.draw(st.booleans()):
            img, magic = ColorImage(plane(), plane(), plane()), b"P6"
            grids = (p.samples.data for p in (img.red, img.green, img.blue))
            flat = tuple(chain.from_iterable(zip(*grids)))
        else:
            img, magic = plane(), b"P5"
            flat = img.samples.data
        raster = _big_endian_16(flat) if maxval > 255 else bytes(flat)
        out = write_netpbm(img, "binary")
        assert out == b"%s\n%d %d\n%d\n" % (magic, width, height, maxval) + raster
        assert read_netpbm(out) == img

class TestPlanes:
    def test_gray_as_color_splits_equal(self):
        rng = random.Random(239)
        plane = random_plane(rng, 4, 4, 255)
        img = ColorImage(plane, plane, plane)
        r, g, b = split_color(img)
        assert r == g == b == plane.samples

    def test_merge_clamps(self):
        m = Matrix.from_rows([[256, -3], [0, 255]])
        img = merge_color(m, m, m, 255)
        assert img.red.samples.to_rows() == [[255, 0], [0, 255]]

    def test_proven_bounds_skip_the_clamp_and_its_scan(self):
        # A rounded blur carries bounds inside [0, maxval]: quantizing
        # keeps the rounded matrix and leaves its span unmeasured.
        rng = random.Random(243)
        for plane in split_color(random_color(rng, 9, 7, 255)):
            for edge in (EdgeMode.MIRROR, EdgeMode.ZERO):
                rounded = blur(plane, BlurRequest(radius=2, edge=edge)).rounded()
                assert _quantize(rounded, 255) is rounded
                assert "span" not in rounded.__dict__
        # A proven bound beyond maxval still clamps.
        loose = Matrix._proven(1, 3, (255, 0, 256), ScalarMode.EXACT,
                               bounds=(0, 300))
        assert _quantize(loose, 255).data == (255, 0, 255)

    def test_merge_rounds_half_away_from_zero(self):
        m = Matrix.from_rows([[0.5, 1.4], [2.5, 3.6]])
        img = merge_color(m, m, m, 255)
        assert img.red.samples.to_rows() == [[1, 1], [3, 4]]

    def test_split_merge_round_trip(self):
        rng = random.Random(241)
        img = random_color(rng, 6, 4, 255)
        assert merge_color(*split_color(img), maxval=255) == img

    def test_merge_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            merge_color(
                Matrix.filled(2, 2, 0),
                Matrix.filled(2, 3, 0),
                Matrix.filled(2, 2, 0),
                255,
            )

    def test_plane_invariants(self):
        with pytest.raises(ValueError):
            ImagePlane(2, 1, 255, Matrix.from_rows([[300, 0]]))
        with pytest.raises(DimensionError):
            ImagePlane(3, 1, 255, Matrix.from_rows([[1, 2]]))
        # A proof wider than [0, maxval] falls back to the span: a collapse
        # carries [0, 4 * max], here 8, around entries of at most 3.
        ImagePlane(1, 1, 3, collapse_power(Matrix.from_rows([[2, 0], [1, 0]]), 1))
        with pytest.raises(ValueError):
            ImagePlane(1, 1, 2, collapse_power(Matrix.from_rows([[2, 0], [1, 0]]), 1))

    def test_color_plane_agreement(self):
        rng = random.Random(251)
        with pytest.raises(ValueError):
            ColorImage(
                random_plane(rng, 2, 2, 255),
                random_plane(rng, 2, 2, 255),
                random_plane(rng, 2, 2, 65535),
            )

    def test_blurring_color_equals_per_plane_blur(self):
        rng = random.Random(257)
        img = random_color(rng, 7, 5, 255)
        req = BlurRequest(radius=1, edge=EdgeMode.REPLICATE)
        merged = merge_color(
            *(blur(p, req).rounded() for p in split_color(img)), maxval=255
        )
        for src, out in zip(split_color(img), split_color(merged)):
            assert blur(src, req).rounded().data == tuple(
                min(max(v, 0), 255) for v in out.data
            )
