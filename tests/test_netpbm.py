import random

import pytest

from collapsum.kernels import EdgeMode
from collapsum.matrix import DimensionError, Matrix
from collapsum.netpbm import (
    ColorImage,
    ImagePlane,
    NetpbmError,
    merge_color,
    read_netpbm,
    split_color,
    write_netpbm,
)
from collapsum.pipeline import BlurRequest, blur


def random_plane(rng, width, height, maxval):
    data = tuple(rng.randint(0, maxval) for _ in range(width * height))
    return ImagePlane(width, height, maxval, Matrix(height, width, data))


def random_color(rng, width, height, maxval):
    return ColorImage(
        random_plane(rng, width, height, maxval),
        random_plane(rng, width, height, maxval),
        random_plane(rng, width, height, maxval),
    )


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

    def test_sample_exceeds_maxval_binary(self):
        with pytest.raises(NetpbmError):
            read_netpbm(b"P5\n1 1\n9\n" + bytes([10]))

    def test_malformed_magic(self):
        with pytest.raises(NetpbmError):
            read_netpbm(b"XY\n1 1\n1\n0")

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
