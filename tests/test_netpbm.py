import builtins
import random
import sys
import time
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsum import pipeline
from collapsum.kernels import EdgeMode
from collapsum.matrix import DimensionError, Matrix
from collapsum.netpbm import (
    MAX_MAXVAL,
    NetpbmError,
    Raster,
    _read_binary_samples,
    merge_color,
    plane_from_matrix,
    read_netpbm,
    read_raster,
    split_color,
    write_netpbm,
    write_raster,
)
from collapsum.pipeline import BlurRequest, Method, blur, blur_raster

SEPARATORS = b" \t\r\n\x0b\x0c"


def random_raster(rng, width, height, maxval, channels=1):
    count = width * height * channels
    return Raster(width, height, channels, maxval,
                  [rng.randint(0, maxval) for _ in range(count)])


def same_image(a, b):
    """Equal fields, samples compared as ints: a raster read from an
    8-bit binary file holds ``bytes``, one made by the library a list."""
    return a._replace(samples=list(a.samples)) == b._replace(samples=list(b.samples))


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
    return Raster(width, height, channels, maxval, flat)


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
        assert img == Raster(2, 2, 1, 255, [1, 2, 3, 4])
        assert split_color(img) == (Matrix.from_rows([[1, 2], [3, 4]]),)

    def test_one_reader_under_both_names(self):
        assert read_netpbm is read_raster

    def test_binary_gray(self):
        img = read_netpbm(b"P5\n1 1\n255\n" + bytes([0x10]))
        assert img == Raster(1, 1, 1, 255, b"\x10")

    def test_ascii_truncated(self):
        with pytest.raises(NetpbmError):
            read_netpbm(b"P2\n2 2\n255\n1 2 3")

    def test_binary_truncated_reports_offset(self):
        data = b"P5\n2 2\n255\n" + bytes([1, 2, 3])
        with pytest.raises(NetpbmError) as err:
            read_netpbm(data)
        assert err.value.offset == len(data)

    def test_binary_raster_needs_its_separator(self):
        # The input ends where the one separator byte after maxval belongs.
        with pytest.raises(NetpbmError) as err:
            read_raster(b"P5\n1 1\n255")
        assert str(err.value) == "missing raster separator (byte 10)"
        assert err.value.offset == 10

    def test_comments_in_header(self):
        img = read_netpbm(b"P2 # magic\n# a comment line\n2 1 # dims\n9\n3 4")
        assert img.samples == [3, 4]

    def test_whitespace_tolerant_ascii(self):
        img = read_netpbm(b"P2\t\n  2\r\n2  \n 255 \n\n 1\t2\n3   4\n")
        assert img.samples == [1, 2, 3, 4]

    def test_ascii_color(self):
        img = read_netpbm(b"P3\n2 1\n255\n1 2 3 4 5 6")
        assert (img.channels, img.samples) == (3, [1, 2, 3, 4, 5, 6])
        red, green, blue = split_color(img)
        assert red.to_rows() == [[1, 4]]
        assert green.to_rows() == [[2, 5]]
        assert blue.to_rows() == [[3, 6]]

    def test_two_byte_samples_big_endian(self):
        img = read_netpbm(b"P5\n2 1\n65535\n" + bytes([0x01, 0x00, 0x00, 0x02]))
        assert img.samples == [256, 2]

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
    def test_read_planes_measure_their_span(self, data):
        # Every format, 8- and 16-bit, any maxval: each channel plane of the
        # raster read equals the one the public constructor builds, has its
        # exact (min, max) as its span, and one sample above maxval is
        # refused at its own byte offset.  ASCII samples are checked as they are read, and a binary
        # sample holds at most 255 or 65535, so only a binary raster whose
        # maxval is below that is scanned: one C-level max over the whole
        # raster is its maxval check.
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
        # Binary samples hold at most 255 or 65535.
        top = maxval + 10 if text else 65535 if wide else 255
        assert scans == ([] if text or maxval == top else [flat])
        assert list(img.samples) == flat
        for c, plane in enumerate(split_color(img)):
            samples = flat[c::channels]
            assert plane == Matrix(height, width, tuple(samples))
            assert plane.span == (min(samples), max(samples))
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
        assert img.samples == [1, 2, 3]

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

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="int() converts any number of digits on this interpreter",
    )
    def test_a_number_past_a_lowered_int_limit_is_invalid(self):
        # Under 4300 digits, yet past the interpreter's own limit: int()
        # refuses it, and the message is the short one of any bad token.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(NetpbmError) as err:
                read_netpbm(b"P2\n1 1\n" + b"1" * 700 + b"\n1")
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(err.value) == f"invalid maxval {b'1' * 32!r}... (byte 7)"
        assert len(str(err.value)) == 62

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
        tokens = write_netpbm(Raster(2, 2, 1, 255, [1, 2, 3, 4]), "ascii").split()
        assert tokens == [b"P2", b"2", b"2", b"255", b"1", b"2", b"3", b"4"]

    def test_color_raster_interleaves_pixels(self):
        img = merge_color(*(Matrix.from_rows([[v, v + 1]]) for v in (10, 20, 30)),
                          maxval=255)
        assert img == Raster(2, 1, 3, 255, [10, 20, 30, 11, 21, 31])
        assert write_netpbm(img, "binary") == b"P6\n2 1\n255\n" + bytes(
            [10, 20, 30, 11, 21, 31]
        )
        assert write_netpbm(img, "ascii") == b"P3\n2 1\n255\n10 20 30 11 21 31\n"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            write_netpbm(Raster(1, 1, 1, 1, [0]), "hex")

    def test_a_read_raster_writes_its_own_bytes(self):
        # The checks pass every raster the reader returns, whose samples
        # are bytes or a list, and the bytes are the raster writer's.
        for data in (b"P5\n2 1\n255\n\x00\xff", b"P3\n1 1\n9\n1 2 9\n",
                     b"P5\n1 1\n65535\n\xff\xfe"):
            img = read_netpbm(data)
            assert write_netpbm(img, "binary") == write_raster(img, "binary")
            assert write_netpbm(img, "ascii") == write_raster(img, "ascii")

    def test_round_trip_gray(self):
        rng = random.Random(223)
        img = random_raster(rng, 8, 8, 255)
        for fmt in ("ascii", "binary"):
            assert same_image(read_netpbm(write_netpbm(img, fmt)), img)

    def test_round_trip_color_binary(self):
        rng = random.Random(227)
        img = random_raster(rng, 5, 3, 255, channels=3)
        assert same_image(read_netpbm(write_netpbm(img, "binary")), img)

    def test_round_trip_sixteen_bit(self):
        rng = random.Random(229)
        img = random_raster(rng, 4, 6, 65535)
        for fmt in ("ascii", "binary"):
            assert read_netpbm(write_netpbm(img, fmt)) == img

    def test_round_trip_randomized_all_formats(self):
        rng = random.Random(233)
        for _ in range(40):
            width = rng.randint(1, 16)
            height = rng.randint(1, 16)
            maxval = rng.choice([1, 255, 65535])
            fmt = rng.choice(["ascii", "binary"])
            channels = rng.choice([1, 3])
            img = random_raster(rng, width, height, maxval, channels)
            assert same_image(read_netpbm(write_netpbm(img, fmt)), img)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_round_trip_every_maxval_and_encoding(self, data):
        # Any maxval, so samples cross the 1-byte/2-byte boundary at 255/256.
        maxval = data.draw(
            st.sampled_from((1, 255, 256, MAX_MAXVAL)) | st.integers(1, MAX_MAXVAL)
        )
        width, height = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        fmt = data.draw(st.sampled_from(("ascii", "binary")))
        channels = data.draw(st.sampled_from((1, 3)))
        sample = st.sampled_from((0, maxval)) | st.integers(0, maxval)
        count = width * height * channels
        flat = data.draw(st.lists(sample, min_size=count, max_size=count))
        img = Raster(width, height, channels, maxval, flat)
        assert same_image(read_netpbm(write_netpbm(img, fmt)), img)

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
        channels, magic = data.draw(st.sampled_from(((1, b"P5"), (3, b"P6"))))
        sample = st.sampled_from((0, maxval)) | st.integers(0, maxval)
        count = width * height * channels
        flat = data.draw(st.lists(sample, min_size=count, max_size=count))
        header = b"%s\n%d %d\n%d\n" % (magic, width, height, maxval)
        raster = b"".join(v.to_bytes(2, "big") for v in flat)
        out = write_netpbm(Raster(width, height, channels, maxval, flat), "binary")
        assert type(out) is bytes
        assert out == header + raster

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_binary_raster_equals_the_interleaved_encoding(self, data):
        # 8- and 16-bit P5 and P6: the raster merged from channel planes
        # equals the samples interleaved pixel by pixel and then encoded
        # whole, and reads back as the same planes.
        maxval = data.draw(st.sampled_from((1, 255, 256, MAX_MAXVAL))
                           | st.integers(1, MAX_MAXVAL))
        width, height = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 5))
        sample = st.sampled_from((0, maxval)) | st.integers(0, maxval)

        def plane():
            flat = data.draw(st.lists(sample, min_size=width * height,
                                      max_size=width * height))
            return Matrix(height, width, tuple(flat))

        if data.draw(st.booleans()):
            planes, magic = (plane(), plane(), plane()), b"P6"
            img = merge_color(*planes, maxval=maxval)
        else:
            planes, magic = (plane(),), b"P5"
            img = plane_from_matrix(*planes, maxval)
        flat = tuple(chain.from_iterable(zip(*(p.data for p in planes))))
        item = 2 if maxval > 255 else 1
        raster = b"".join(v.to_bytes(item, "big") for v in flat)
        out = write_netpbm(img, "binary")
        assert out == b"%s\n%d %d\n%d\n" % (magic, width, height, maxval) + raster
        assert split_color(read_netpbm(out)) == planes


# A valid 2x2 gray raster, and each field change that write_netpbm refuses.
GOOD = Raster(2, 2, 1, 255, [0, 1, 2, 255])


# Each field change that breaks one invariant of GOOD, with its refusal.
BAD_FIELDS = pytest.mark.parametrize("changes, error, message", [
    ({"width": 0, "samples": []}, DimensionError,
     "image dimensions must be positive"),
    ({"height": -1, "samples": []}, DimensionError,
     "image dimensions must be positive"),
    ({"channels": 2, "samples": [0] * 8}, ValueError,
     "an image has 1 or 3 channels"),
    ({"maxval": 0, "samples": [0] * 4}, ValueError,
     "maxval must be in 1..65535"),
    ({"maxval": MAX_MAXVAL + 1}, ValueError, "maxval must be in 1..65535"),
    ({"samples": [0, 1, 2]}, DimensionError,
     "sample count must be width x height x channels"),
    ({"channels": 3}, DimensionError,
     "sample count must be width x height x channels"),
    ({"samples": [0, 1.0, 2, 3]}, ValueError,
     "image samples must be exact integers"),
    ({"samples": [0, 1, 2, 256]}, ValueError, "samples must lie in [0, 255]"),
    ({"samples": [0, -1, 2, 3]}, ValueError, "samples must lie in [0, 255]"),
    ({"maxval": 254}, ValueError, "samples must lie in [0, 254]"),
    ({"maxval": 1}, ValueError, "samples must lie in [0, 1]"),
], ids=["width", "height", "channels", "maxval-0", "maxval-65536",
        "count", "count-of-channels", "float", "above", "below",
        "above-a-lower-maxval", "above-maxval-1"])


class TestWriteRefusals:
    """Every check of a caller's image, made when it is written: each one
    the former plane and color records made when built, and the channel
    count, which a raster states instead of a record type."""

    @BAD_FIELDS
    @pytest.mark.parametrize("fmt", ["ascii", "binary"])
    def test_each_bad_field_is_refused(self, changes, error, message, fmt):
        write_netpbm(GOOD, fmt)
        with pytest.raises(error) as err:
            write_netpbm(GOOD._replace(**changes), fmt)
        assert type(err.value) is error and str(err.value) == message


@st.composite
def rasters(draw):
    """A valid raster of up to 5x5 pixels, its samples in a list or, up to
    maxval 255, in ``bytes``."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    channels = draw(st.sampled_from([1, 3]))
    maxval = draw(st.sampled_from([1, 2, 77, 255, 256, 1000, MAX_MAXVAL]))
    samples = draw(st.lists(st.integers(0, maxval),
                            min_size=width * height * channels,
                            max_size=width * height * channels))
    if maxval < 256 and draw(st.booleans()):
        samples = bytes(samples)
    return Raster(width, height, channels, maxval, samples)


@st.composite
def broken_rasters(draw):
    """A valid raster with one invariant broken."""
    good = draw(rasters())
    samples = list(good.samples)
    k = draw(st.integers(0, len(samples) - 1))
    broken = draw(st.sampled_from(
        ["width", "height", "channels", "maxval", "count", "type", "range"]))
    if broken in ("width", "height"):
        return good._replace(**{broken: draw(st.integers(-3, 0))})
    if broken == "channels":
        return good._replace(channels=draw(st.sampled_from([0, 2, 4])))
    if broken == "maxval":
        return good._replace(maxval=draw(st.sampled_from(
            [0, -1, MAX_MAXVAL + 1])))
    if broken == "count":
        extra = draw(st.integers(-len(samples), 3).filter(bool))
        return good._replace(samples=(samples + [0] * 3)[:len(samples) + extra])
    if broken == "type":
        samples[k] = draw(st.sampled_from([float(samples[k]), True, None]))
    else:
        samples[k] = draw(st.sampled_from(
            [good.maxval + 1, MAX_MAXVAL + 1, -1, -(2**70)]))
    return good._replace(samples=samples)


class TestBlurRasterRefusals:
    """``blur_raster`` sizes its lanes for the raster's maxval, so it
    refuses each raster that ``write_netpbm`` refuses, with the same error,
    before any sample is packed."""

    @BAD_FIELDS
    def test_each_bad_field_is_refused_before_packing(
            self, changes, error, message, monkeypatch):
        # Unchecked, samples above maxval carried across lanes (255s at
        # maxval 1 blurred to 16s), and too few samples were padded.
        packs = []

        def recorded(*args, original=pipeline._packed_lanes):
            packs.append(args)
            return original(*args)

        monkeypatch.setattr(pipeline, "_packed_lanes", recorded)
        blur_raster(GOOD, BlurRequest(radius=1))
        assert len(packs) == 1
        with pytest.raises(error) as err:
            blur_raster(GOOD._replace(**changes), BlurRequest(radius=1))
        assert type(err.value) is error and str(err.value) == message
        assert len(packs) == 1

    @settings(max_examples=200, deadline=None)
    @given(broken_rasters(), st.sampled_from(list(Method)))
    def test_a_broken_raster_is_refused_as_write_netpbm_refuses_it(
            self, image, method):
        with pytest.raises(Exception) as written:
            write_netpbm(image)
        with pytest.raises(Exception) as blurred:
            blur_raster(image, BlurRequest(radius=1, method=method))
        assert type(blurred.value) is type(written.value)
        assert str(blurred.value) == str(written.value)

    @settings(max_examples=200, deadline=None)
    @given(rasters(), st.integers(0, 2), st.sampled_from(list(Method)),
           st.sampled_from([EdgeMode.REPLICATE, EdgeMode.ZERO]),
           st.sampled_from(["ascii", "binary"]))
    def test_a_valid_raster_blurs_to_one_write_netpbm_takes(
            self, image, r, method, edge, fmt):
        out = blur_raster(image, BlurRequest(radius=r, method=method, edge=edge))
        assert out[:4] == image[:4]
        assert write_netpbm(out, fmt) == write_raster(out, fmt)


class TestPlanes:
    def test_gray_as_color_splits_equal(self):
        m = split_color(random_raster(random.Random(239), 4, 4, 255))[0]
        r, g, b = split_color(merge_color(m, m, m, 255))
        assert r == g == b == m

    def test_merge_clamps(self):
        m = Matrix.from_rows([[256, -3], [0, 255]])
        red = split_color(merge_color(m, m, m, 255))[0]
        assert red.to_rows() == [[255, 0], [0, 255]]
        assert plane_from_matrix(m, 255) == Raster(2, 2, 1, 255, [255, 0, 0, 255])

    def test_a_blur_within_maxval_is_merged_as_rounded(self):
        # A rounded blur lies inside [0, maxval], so the clamp changes no
        # sample of it.
        rng = random.Random(243)
        for plane in split_color(random_raster(rng, 9, 7, 255, channels=3)):
            for edge in (EdgeMode.MIRROR, EdgeMode.ZERO):
                rounded = blur(plane, BlurRequest(radius=2, edge=edge)).rounded()
                assert plane_from_matrix(rounded, 255).samples == list(rounded.data)

    def test_merge_rounds_half_away_from_zero(self):
        m = Matrix.from_rows([[0.5, 1.4], [2.5, 3.6]])
        red = split_color(merge_color(m, m, m, 255))[0]
        assert red.to_rows() == [[1, 1], [3, 4]]

    def test_split_merge_round_trip(self):
        rng = random.Random(241)
        img = random_raster(rng, 6, 4, 255, channels=3)
        assert merge_color(*split_color(img), maxval=255) == img
        gray = random_raster(rng, 3, 5, 65535)
        assert plane_from_matrix(*split_color(gray), 65535) == gray

    def test_merge_dimension_mismatch(self):
        with pytest.raises(DimensionError) as err:
            merge_color(
                Matrix.filled(2, 2, 0),
                Matrix.filled(2, 3, 0),
                Matrix.filled(2, 2, 0),
                255,
            )
        assert str(err.value) == "channel matrices must share dimensions"

    def test_blurring_color_equals_per_plane_blur(self):
        rng = random.Random(257)
        img = random_raster(rng, 7, 5, 255, channels=3)
        req = BlurRequest(radius=1, edge=EdgeMode.REPLICATE)
        merged = merge_color(
            *(blur(p, req).rounded() for p in split_color(img)), maxval=255
        )
        for src, out in zip(split_color(img), split_color(merged)):
            assert blur(src, req).rounded().data == tuple(
                min(max(v, 0), 255) for v in out.data
            )
