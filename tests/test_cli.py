import builtins
import importlib
import os
import random
import subprocess
import sys
import time
import types
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_pipeline import perturbed

import collapsum
from collapsum.bench import CSV_HEADER
from collapsum.cli import format_kernel, main, run
from collapsum.kernels import EdgeMode, coefficient_matrix, convolve
from collapsum.matrix import Matrix, ScalarMode
from collapsum.netpbm import merge_color, read_netpbm, split_color, write_netpbm
from collapsum.windows import (
    box_kernel,
    gaussian_kernel,
    gaussian_kernel_rect,
    interpolation_kernel,
)

G5_TABLE = (
    "divisor 256\n"
    " 1  4  6  4  1\n"
    " 4 16 24 16  4\n"
    " 6 24 36 24  6\n"
    " 4 16 24 16  4\n"
    " 1  4  6  4  1\n"
)


def write_pgm(path, body):
    path.write_bytes(body)
    return str(path)


class BigEndianArray:
    """``array.array`` as a big-endian host has it: items sit big-endian in
    their buffer, so items built from bytes, and the bytes of items, are
    big-endian."""

    def __init__(self, code, init=()):
        self.items = array(code, init)
        if isinstance(init, (bytes, bytearray)):
            self.items.byteswap()

    @property
    def itemsize(self):
        return self.items.itemsize

    def byteswap(self):
        self.items.byteswap()

    def tobytes(self):
        swapped = array(self.items.typecode, self.items)
        swapped.byteswap()
        return swapped.tobytes()

    def tolist(self):
        return self.items.tolist()

    def __getitem__(self, k):
        return self.items[k]

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


class TestKernelCommand:
    def test_gaussian_radius_two_golden(self, capsys):
        assert main(["kernel", "--radius", "2"]) == 0
        assert capsys.readouterr().out == G5_TABLE

    def test_box(self, capsys):
        assert main(["kernel", "--radius", "1", "--filter", "box"]) == 0
        assert capsys.readouterr().out == "divisor 9\n1 1 1\n1 1 1\n1 1 1\n"

    def test_interp_requires_s(self, capsys):
        assert main(["kernel", "--radius", "2", "--filter", "interp"]) == 2
        assert "error" in capsys.readouterr().err

    def test_rect(self, capsys):
        code = main(["kernel", "--filter", "rect", "--a", "2", "--b", "3"])
        assert code == 0
        assert capsys.readouterr().out == "divisor 8\n1 2 1\n1 2 1\n"


class TestWindowResolution:
    @pytest.mark.parametrize("window, message", [
        (["--filter", "rect", "--a", "0", "--b", "3"],
         "rectangle sides must be positive"),
        (["--filter", "rect", "--a", "3", "--b", "-1"],
         "rectangle sides must be positive"),
        (["--filter", "rect", "--a", "3"], "--filter rect requires --a and --b"),
        (["--filter", "interp", "--radius", "2"], "--filter interp requires --s"),
        (["--filter", "box", "--radius", "-1"], "radius must be nonnegative"),
        (["--radius", "-2"], "radius must be nonnegative"),
        (["--filter", "interp", "--radius", "2", "--s", "5"],
         "interpolation step must satisfy 0 <= s <= 2r, got 5"),
        (["--filter", "rect", "--a", "200", "--b", "3"],
         "200x3 binomial window exceeds the signed 128-bit range"),
        # A window option the filter does not take is refused, not ignored.
        (["--filter", "rect", "--a", "2", "--b", "3", "--radius", "-5", "--s", "9"],
         "--filter rect does not take --radius"),
        (["--radius", "1", "--s", "9", "--a", "4"],
         "--filter gauss does not take --s"),
        (["--filter", "box", "--s", "0"], "--filter box does not take --s"),
        (["--filter", "interp", "--radius", "2", "--s", "1", "--b", "3"],
         "--filter interp does not take --b"),
    ])
    def test_a_bad_window_gets_one_message_from_both_commands(
            self, window, message, tmp_path, capsys, monkeypatch):
        # blur refuses the window before it reads the input: no raster is
        # parsed, and a missing input gets the window's message.
        def unread(data):
            raise AssertionError("the input was read")

        netpbm = importlib.import_module("collapsum.netpbm")
        monkeypatch.setattr(netpbm, "read_raster", unread)
        src = write_pgm(tmp_path / "in.pgm", b"P2\n4 4\n255\n" + b"1 " * 16)
        for argv in (["kernel", *window],
                     ["blur", *window, src, str(tmp_path / "out.pgm")],
                     ["blur", *window, str(tmp_path / "missing.pgm"),
                      str(tmp_path / "out.pgm")]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.pgm").exists()

    @pytest.mark.parametrize("window, kernel", [
        (["--radius", "3"], gaussian_kernel(3)),
        (["--filter", "box", "--radius", "2"], box_kernel(2)),
        (["--filter", "interp", "--radius", "3", "--s", "2"],
         interpolation_kernel(3, 2)),
        (["--filter", "rect", "--a", "4", "--b", "1"], gaussian_kernel_rect(4, 1)),
    ], ids=["gauss", "box", "interp", "rect"])
    def test_kernel_prints_its_filters_window(self, window, kernel, capsys):
        assert main(["kernel", *window]) == 0
        assert capsys.readouterr().out == format_kernel(kernel)


class TestBlurCommand:
    def test_blur_pgm(self, tmp_path):
        src = write_pgm(tmp_path / "in.pgm", b"P2\n3 3\n255\n10 20 30 40 50 60 70 80 90\n")
        dst = str(tmp_path / "out.pgm")
        assert main(["blur", "--radius", "1", src, dst]) == 0
        out = read_netpbm(open(dst, "rb").read())
        assert (out.width, out.height, out.maxval) == (3, 3, 255)
        # Replicate extension preserves the central weighted mean exactly.
        assert split_color(out)[0].at(2, 2) == 50

    def test_deterministic_output(self, tmp_path):
        src = write_pgm(tmp_path / "in.pgm", b"P5\n4 4\n255\n" + bytes(range(16)))
        first, second = str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")
        assert main(["blur", "--radius", "2", src, first]) == 0
        assert main(["blur", "--radius", "2", src, second]) == 0
        assert open(first, "rb").read() == open(second, "rb").read()

    def test_output_format_follows_input(self, tmp_path):
        ascii_src = write_pgm(tmp_path / "a.pgm", b"P2\n2 2\n255\n1 2 3 4\n")
        bin_src = write_pgm(tmp_path / "b.pgm", b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        a_out, b_out = str(tmp_path / "ao.pgm"), str(tmp_path / "bo.pgm")
        assert main(["blur", "-r", "1", ascii_src, a_out]) == 0
        assert main(["blur", "-r", "1", bin_src, b_out]) == 0
        assert open(a_out, "rb").read().startswith(b"P2")
        assert open(b_out, "rb").read().startswith(b"P5")

    @pytest.mark.parametrize(
        "body", [b" \nP2\n2 1\n9\n3 4\n", b"# c\nP5\n1 1\n9\n\x03"]
    )
    def test_bytes_before_the_magic_rejected(self, body, tmp_path, capsys):
        # The output encoding follows the magic at byte 0, so nothing may
        # come before it.
        src = write_pgm(tmp_path / "lead.pgm", body)
        assert main(["blur", "-r", "1", src, str(tmp_path / "out.pgm")]) == 2
        assert "malformed magic" in capsys.readouterr().err
        assert not (tmp_path / "out.pgm").exists()

    def test_constant_image_unchanged(self, tmp_path):
        body = b"P2\n4 4\n255\n" + b" ".join(b"77" for _ in range(16)) + b"\n"
        src = write_pgm(tmp_path / "in.pgm", body)
        dst = str(tmp_path / "out.pgm")
        for method in ("direct", "separable", "collapse"):
            assert main(["blur", "-r", "2", "--method", method, src, dst]) == 0
            assert read_netpbm(open(dst, "rb").read()).samples == [77] * 16

    def test_color_blur(self, tmp_path):
        src = write_pgm(tmp_path / "in.ppm", b"P3\n2 2\n255\n" + b"9 " * 12)
        dst = str(tmp_path / "out.ppm")
        assert main(["blur", "-r", "1", src, dst]) == 0
        out = read_netpbm(open(dst, "rb").read())
        assert split_color(out)[0].data == (9,) * 4

    def test_filters(self, tmp_path):
        src = write_pgm(tmp_path / "in.pgm", b"P2\n5 5\n255\n" + b"8 " * 25)
        dst = str(tmp_path / "out.pgm")
        assert main(["blur", "--filter", "box", "-r", "2", src, dst]) == 0
        assert main(["blur", "--filter", "interp", "-r", "2", "--s", "1", src, dst]) == 0
        assert main(["blur", "--filter", "rect", "--a", "2", "--b", "3", src, dst]) == 0

    @pytest.mark.parametrize("edge", [e.value for e in EdgeMode])
    @pytest.mark.parametrize(
        "window, kernel",
        [
            (["--filter", "box", "-r", "2"], box_kernel(2)),
            (["--filter", "interp", "-r", "2", "--s", "1"],
             interpolation_kernel(2, 1)),
            (["--filter", "interp", "-r", "3", "--s", "4"],
             interpolation_kernel(3, 4)),
        ],
        ids=["box", "interp-2-1", "interp-3-4"],
    )
    def test_box_and_interp_bytes_under_every_method(self, window, kernel,
                                                     edge, tmp_path):
        # Every method writes the bytes of the window's direct convolution
        # of each plane, rounded.
        rng = random.Random(13)
        raster = bytes(rng.randrange(256) for _ in range(3 * 9 * 8))
        src = write_pgm(tmp_path / "in.ppm", b"P6\n9 8\n255\n" + raster)
        img = read_netpbm(open(src, "rb").read())
        planes = [convolve(kernel, p, EdgeMode(edge)).rounded()
                  for p in split_color(img)]
        expected = write_netpbm(merge_color(*planes, maxval=255), "binary")
        for method in ("direct", "separable", "collapse"):
            dst = tmp_path / f"{method}.ppm"
            argv = ["blur", *window, "--edge", edge, "--method", method]
            assert main([*argv, src, str(dst)]) == 0
            assert dst.read_bytes() == expected, method

    def test_missing_input(self, tmp_path, capsys):
        code = main(["blur", str(tmp_path / "nope.pgm"), str(tmp_path / "out.pgm")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_image(self, tmp_path, capsys):
        # A short raster, and a signed sample that int() alone would take.
        for body in (b"P2\n2 2\n255\n1 2 3\n", b"P2\n2 2\n255\n1 +2 3 4\n"):
            src = write_pgm(tmp_path / "bad.pgm", body)
            assert main(["blur", src, str(tmp_path / "out.pgm")]) == 2
            assert "error" in capsys.readouterr().err

    def test_a_binary_raster_needs_its_separator(self, tmp_path, capsys):
        # The file ends where the separator byte after maxval belongs.
        src = write_pgm(tmp_path / "short.pgm", b"P5\n1 1\n255")
        assert main(["blur", src, str(tmp_path / "out.pgm")]) == 2
        assert capsys.readouterr().err == (
            "error: missing raster separator (byte 10)\n")
        assert not (tmp_path / "out.pgm").exists()

    @pytest.mark.parametrize("body, message", [
        (b"P2\n1 1\n255\n" + b"1" * 1_000_000 + b"\n",
         "invalid sample b'" + "1" * 32 + "'... (byte 11)"),
        (b"P2\n" + b"9" * 5000 + b" 1\n255\n0\n",
         "invalid width b'" + "9" * 32 + "'... (byte 3)"),
        # int() takes 4000 digits, and the sample is above maxval.
        (b"P2\n1 1\n255\n" + b"9" * 4000 + b"\n",
         "sample " + "9" * 32 + "... exceeds maxval 255 (byte 11)"),
        # The dimensions are refused at the end of the maxval token.
        (b"P2\n0 " + b"9" * 4000 + b"\n255\n0\n",
         "bad dimensions 0x" + "9" * 32 + "... (byte 4009)"),
        # A raster size of 8000 digits, more than str() converts.
        (b"P5\n" + b"9" * 4000 + b" " + b"9" * 4000 + b"\n255\n\0",
         "truncated raster: need " + "9" * 32 + "... bytes, have 1 (byte 8010)"),
    ], ids=["1mb-sample", "5000-digit-width", "4000-digit-sample",
            "4000-digit-height", "8000-digit-raster-size"])
    def test_a_long_token_gets_a_short_message(self, body, message, tmp_path,
                                               capsys):
        # A message quotes at most 32 bytes of a token or digits of a number
        # and keeps the byte offset.
        src = write_pgm(tmp_path / "long.pgm", body)
        assert main(["blur", src, str(tmp_path / "out.pgm")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("command", ["blur", "kernel"])
    def test_interp_overflow_fails_fast(self, command, tmp_path, capsys):
        argv = [command, "--filter", "interp", "--radius", "40", "--s", "80"]
        if command == "blur":
            src = write_pgm(tmp_path / "in.pgm", b"P2\n4 4\n255\n" + b"1 " * 16)
            argv += [src, str(tmp_path / "out.pgm")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: 81x81 binomial window exceeds the signed 128-bit range\n"
        )

    @pytest.mark.parametrize("command", ["blur", "kernel"])
    @pytest.mark.parametrize("radius, s, message", [
        ("1", "3", "interpolation step must satisfy 0 <= s <= 2r, got 3"),
        ("2", "-1", "interpolation step must satisfy 0 <= s <= 2r, got -1"),
        ("-1", "0", "radius must be nonnegative"),
    ])
    def test_interp_out_of_range(self, command, radius, s, message, tmp_path,
                                 capsys):
        argv = [command, "--filter", "interp", "--radius", radius, "--s", s]
        if command == "blur":
            src = write_pgm(tmp_path / "in.pgm", b"P2\n4 4\n255\n" + b"1 " * 16)
            argv += [src, str(tmp_path / "out.pgm")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["blur", "kernel"])
    def test_huge_radius_fails_fast(self, command, tmp_path, capsys):
        argv = [command, "--radius", "1000000"]
        if command == "blur":
            src = write_pgm(tmp_path / "in.pgm", b"P2\n4 4\n255\n" + b"1 " * 16)
            argv += [src, str(tmp_path / "out.pgm")]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: 2000001x2000001 binomial window exceeds the signed "
            "128-bit range\n"
        )

    @pytest.mark.parametrize(
        "window, size",
        [
            (["--radius", "3"], 7),
            (["--filter", "rect", "--a", "7", "--b", "7"], 7),
            (["--filter", "box", "--radius", "3"], 7),
            (["--filter", "interp", "--radius", "3", "--s", "2"], 7),
            (["--filter", "box", "--radius", "600"], 1201),
            (["--filter", "interp", "--radius", "300", "--s", "2"], 601),
        ],
        ids=["gauss", "rect", "box", "interp", "box-600", "interp-300"],
    )
    def test_crop_refused_before_any_weight(self, window, size, tmp_path,
                                            capsys, monkeypatch):
        # Every filter gets the same message, and no weight is built.
        def building(n, r):
            raise AssertionError("a weight was built")

        monkeypatch.setattr(importlib.import_module("collapsum.kernels"),
                            "binomial", building)
        src = write_pgm(tmp_path / "in.pgm", b"P2\n4 4\n255\n" + b"1 " * 16)
        argv = ["blur", *window, "--edge", "crop", src, str(tmp_path / "o.pgm")]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: 4x4 image too small for a {size}x{size} window under "
            "cropping\n"
        )

    def test_no_plane_scanned_from_read_to_write(self, tmp_path, monkeypatch):
        # A 12x10 image holds more entries than the 9x9 window, so only the
        # plane-sized sequences count.  A read sample's bound is maxval, so
        # the raster is packed in lanes sized for it, extended, blurred
        # packed and unpacked once, and rounded with no clamp.  An 8-bit
        # sample holds at most 255, so a maxval-255 raster is never
        # scanned; below that, one C-level max over the whole raster is the
        # maxval check.  No plane-sized matrix is built, by any method.
        plane = 12 * 10
        rng = random.Random(9)
        check_shape = Matrix._check_shape
        for maxval in (255, 200):
            raster = bytes(rng.randrange(maxval + 1) for _ in range(3 * plane))
            src = write_pgm(tmp_path / "in.ppm",
                            b"P6\n12 10\n%d\n" % maxval + raster)
            expected = [] if maxval == 255 else [("max", raster)]
            for method in ("collapse", "direct", "separable"):
                scans, built = [], []

                def counting(scan):
                    def counted(*args, **kwargs):
                        seq = args[0] if len(args) == 1 else None
                        if hasattr(seq, "__len__") and len(seq) >= plane:
                            scans.append((scan.__name__, seq))
                        return scan(*args, **kwargs)
                    return counted

                def building(self):
                    # Every matrix constructor checks the shape.
                    if self.mode is ScalarMode.EXACT and len(self.data) >= plane:
                        built.append(self)
                    check_shape(self)

                monkeypatch.setattr(Matrix, "_check_shape", building)
                monkeypatch.setattr(builtins, "min", counting(min))
                monkeypatch.setattr(builtins, "max", counting(max))
                out = str(tmp_path / f"{method}.ppm")
                assert main(["blur", "-r", "4", "--method", method, src, out]) == 0
                monkeypatch.undo()
                assert built == [], (maxval, method)
                assert scans == expected, (maxval, method)

    @pytest.mark.parametrize("method", ["collapse", "direct", "separable"])
    def test_color_blur_packs_once_without_planes(self, method, tmp_path,
                                                  monkeypatch):
        # The whole image is one packed int from read to write: one raster
        # packed, one result unpacked, and no channel split into a plane or
        # merged from one.
        collapse = importlib.import_module("collapsum.collapse")
        netpbm = importlib.import_module("collapsum.netpbm")
        cli = importlib.import_module("collapsum.cli")
        rng = random.Random(17)
        raster = bytes(rng.randrange(256) for _ in range(3 * 7 * 6))
        src = write_pgm(tmp_path / "in.ppm", b"P6\n7 6\n255\n" + raster)
        expected = tmp_path / "expected.ppm"
        assert main(["blur", "-r", "2", "--method", method, src, str(expected)]) == 0
        calls = []
        pack, unpack = collapse._pack, collapse._unpack

        def packing(values, *args):
            # Window rows are packed too; only the image counts.
            if len(values) >= len(raster):
                calls.append("pack")
            return pack(values, *args)

        def unpacking(*args):
            calls.append("unpack")
            return unpack(*args)

        def refused(*args, **kwargs):
            raise AssertionError("a channel plane was split or merged")

        monkeypatch.setattr(collapse, "_pack", packing)
        monkeypatch.setattr(collapse, "_unpack", unpacking)
        # cli first: it serves these names from netpbm on first use.
        for module in (cli, netpbm):
            for name in ("split_color", "merge_color", "plane_from_matrix"):
                monkeypatch.setattr(module, name, refused)
        out = tmp_path / "out.ppm"
        assert main(["blur", "-r", "2", "--method", method, src, str(out)]) == 0
        assert calls == ["pack", "unpack"]
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("magic, channels", [(b"P6", 3), (b"P5", 1)])
    def test_a_big_endian_host_writes_the_same_bytes(self, magic, channels,
                                                     tmp_path, monkeypatch):
        # Packing runs on every host.  A big-endian host is emulated inside
        # collapse: ``array`` items sit big-endian in their buffer and
        # sys.byteorder reads "big".  The packer's byte swaps give the
        # native bytes; the same emulation with no swap fails or writes
        # other bytes, so the swapped items are the ones that ran.
        collapse = importlib.import_module("collapsum.collapse")
        rng = random.Random(19)
        # Sublanes of 2, 3 and 10 bytes: one native item, or two 64-bit digits.
        for maxval, radius, edge in ((255, 1, "mirror"), (1000, 2, "mirror"),
                                     (65535, 14, "replicate")):
            size = 2 if maxval > 255 else 1
            raster = b"".join(rng.randrange(maxval + 1).to_bytes(size, "big")
                              for _ in range(channels * 40))
            body = b"%s\n8 5\n%d\n" % (magic, maxval) + raster
            src = write_pgm(tmp_path / "in.ppm", body)
            for method in ("collapse", "direct", "separable"):
                argv = ["blur", "-r", str(radius), "--edge", edge,
                        "--method", method, src]
                native_out = tmp_path / f"native.{method}.ppm"
                assert main([*argv, str(native_out)]) == 0
                expected = (0, native_out.read_bytes())
                written = {}
                for byteorder in ("big", "little"):
                    monkeypatch.setattr(collapse, "array", BigEndianArray)
                    monkeypatch.setattr(
                        collapse, "sys", types.SimpleNamespace(byteorder=byteorder))
                    out = tmp_path / f"emulated.{method}.ppm"
                    code = main([*argv, str(out)])
                    monkeypatch.undo()
                    written[byteorder] = (code, out.read_bytes() if code == 0
                                          else None)
                    out.unlink(missing_ok=True)
                key = (maxval, method)
                assert written["big"] == expected, key
                assert written["little"] != expected, key

    @pytest.mark.parametrize("magic, channels", [(b"P6", 3), (b"P5", 1)])
    def test_a_big_endian_host_reads_and_writes_16_bit_samples(
            self, magic, channels, monkeypatch):
        # The same emulation inside netpbm: a 16-bit raster reads back its
        # native samples and writes its own bytes, through the byte swaps
        # of the binary reader and ``_big_endian_16``; with no swap, the
        # samples and the bytes differ.
        netpbm = importlib.import_module("collapsum.netpbm")
        rng = random.Random(23)
        data = b"%s\n8 5\n65535\n" % magic + bytes(
            rng.randrange(256) for _ in range(2 * channels * 40))
        samples = netpbm.read_raster(data).samples
        for byteorder in ("big", "little"):
            monkeypatch.setattr(netpbm, "array", BigEndianArray)
            monkeypatch.setattr(
                netpbm, "sys", types.SimpleNamespace(byteorder=byteorder))
            raster = netpbm.read_raster(data)
            written = netpbm.write_raster(raster._replace(samples=samples))
            monkeypatch.undo()
            assert (raster.samples == samples) == (byteorder == "big")
            assert (written == data) == (byteorder == "big")

    def test_crop_radius_too_large(self, tmp_path, capsys):
        src = write_pgm(tmp_path / "in.pgm", b"P2\n3 3\n255\n" + b"1 " * 9)
        code = main(["blur", "-r", "2", "--edge", "crop", src, str(tmp_path / "o.pgm")])
        assert code == 2


@st.composite
def blur_cases(draw):
    """A small P2, P3, P5 or P6 image (8- or 16-bit, any maxval), a gauss,
    box, interp or rect window with its CLI options and its (h, w, a, b),
    an edge and a method."""
    magic = draw(st.sampled_from([b"P2", b"P3", b"P5", b"P6"]))
    maxval = draw(st.sampled_from((1, 77, 200, 255, 256, 65535))
                  | st.integers(1, 65535))
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels
    sample = st.sampled_from((0, maxval)) | st.integers(0, maxval)
    samples = draw(st.lists(sample, min_size=count, max_size=count))
    name = draw(st.sampled_from(["gauss", "box", "interp", "rect"]))
    if name == "rect":
        h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        options, window = ["--a", str(h), "--b", str(w)], (h, w, h - 1, w - 1)
    else:
        r = draw(st.integers(0, 2))
        options = ["--radius", str(r)]
        if name == "interp":
            s = draw(st.integers(0, 2 * r))
            options += ["--s", str(s)]
        else:
            s = 2 * r if name == "gauss" else 0
        window = (2 * r + 1, 2 * r + 1, s, s)
    edge = draw(st.sampled_from([e.value for e in EdgeMode]))
    method = draw(st.sampled_from(["direct", "separable", "collapse"]))
    image = (magic, width, height, channels, maxval, samples)
    return image, ["--filter", name, *options], window, edge, method


def encode(magic, width, height, maxval, samples):
    header = b"%s\n%d %d\n%d\n" % (magic, width, height, maxval)
    if magic in (b"P2", b"P3"):
        per_row = len(samples) // height
        rows = (samples[i : i + per_row] for i in range(0, len(samples), per_row))
        return header + b"".join(b" ".join(b"%d" % v for v in row) + b"\n"
                                 for row in rows)
    size = 2 if maxval > 255 else 1
    return header + b"".join(v.to_bytes(size, "big") for v in samples)


def reference_blur(image, window, edge):
    """The blurred samples entry by entry, with their width and height, or
    None where the window does not fit: each output sample sums the
    coefficient weights times the samples under them, found by index
    arithmetic, and rounds half away from zero by divmod, then clamps."""
    magic, width, height, channels, maxval, samples = image
    h, w, a, b = window
    weights = coefficient_matrix(h, w, a, b).data
    divisor = sum(weights)
    top, left = (h + 1) // 2 - 1, (w + 1) // 2 - 1
    bottom, right = h - 1 - top, w - 1 - left
    if edge == "crop":
        if height < h or width < w:
            return None
        out_h, out_w, top, left = height - h + 1, width - w + 1, 0, 0
    elif edge == "mirror" and (max(top, bottom) >= height
                               or max(left, right) >= width):
        return None
    else:
        out_h, out_w = height, width

    def source(k, n):
        if 0 <= k < n:
            return k
        if edge == "replicate":
            return min(max(k, 0), n - 1)
        if edge == "mirror":
            return -k if k < 0 else 2 * (n - 1) - k
        return None

    out = []
    for p in range(out_h):
        for q in range(out_w):
            for c in range(channels):
                total = 0
                for i in range(h):
                    y = source(p + i - top, height)
                    for j in range(w):
                        x = source(q + j - left, width)
                        if y is not None and x is not None:
                            value = samples[(y * width + x) * channels + c]
                            total += weights[i * w + j] * value
                quotient, remainder = divmod(total, divisor)
                rounded = quotient + (2 * remainder >= divisor)
                out.append(min(max(rounded, 0), maxval))
    return out_w, out_h, out


class TestBlurMatchesPerEntryReference:
    # Every method runs the same pixel-lane core, so comparing methods with
    # one another cannot catch a fault in it; this compares the CLI's bytes
    # with a blur computed entry by entry.
    @settings(max_examples=300, deadline=None)
    @given(blur_cases())
    def test_cli_bytes_equal_the_reference(self, tmp_path_factory, case):
        image, window_options, window, edge, method = case
        magic, width, height, channels, maxval, samples = image
        tmp = tmp_path_factory.mktemp("blur")
        src, dst = tmp / "in.pnm", tmp / "out.pnm"
        src.write_bytes(encode(magic, width, height, maxval, samples))
        argv = ["blur", *window_options, "--edge", edge, "--method", method,
                str(src), str(dst)]
        expected = reference_blur(image, window, edge)
        if expected is None:
            assert main(argv) == 2
            assert not dst.exists()
            return
        assert main(argv) == 0
        out_w, out_h, out = expected
        assert dst.read_bytes() == encode(magic, out_w, out_h, maxval, out)


class TestVerifyCommand:
    def test_exact_pass(self, capsys):
        assert main(["verify", "--radius", "3", "--size", "16"]) == 0
        assert capsys.readouterr().out == "deviation 0 (exact)\n"

    def test_float_pass(self, capsys):
        assert main(["verify", "--radius", "2", "--size", "12", "--mode", "float"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("deviation ")
        assert "(float)" in out

    def test_float_window_past_the_int128_edge(self, capsys):
        # The largest weight of the 69x69 window leaves int128: float mode
        # builds float weights and passes, exact mode refuses the window.
        argv = ["verify", "--radius", "34", "--size", "16"]
        assert main(argv + ["--mode", "float"]) == 0
        deviation, mode = capsys.readouterr().out.split()[1:]
        assert float(deviation) <= 1e-9 and mode == "(float)"
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: 69x69 binomial window exceeds the signed 128-bit range\n"
        )

    def test_float_huge_radius_fails_fast(self, capsys, monkeypatch):
        # A float window past 400 collapses is refused before any weight
        # is built.
        def building(n, r):
            raise AssertionError("a weight was built")

        monkeypatch.setattr(importlib.import_module("collapsum.kernels"),
                            "binomial", building)
        start = time.perf_counter()
        assert main(["verify", "--radius", "1000000", "--mode", "float"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: 2000001x2000001 binomial window needs more than 400 "
            "collapses\n"
        )

    def test_all_edges(self):
        for edge in ("crop", "replicate", "mirror", "zero"):
            assert main(["verify", "--radius", "2", "--size", "10", "--edge", edge]) == 0

    def test_a_differing_method_fails_with_exit_1(self, capsys, monkeypatch):
        # Direct convolution off by 3 in one entry of numerators over
        # 4**4: it differs from the other two methods by 3/256.
        monkeypatch.setattr(importlib.import_module("collapsum.pipeline"),
                            "convolve", perturbed("convolve", 0, 3))
        assert main(["verify", "--radius", "2", "--size", "16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "deviation 1.17e-02 (exact)\n"
        assert captured.err == (
            "FAIL: max deviation 1.17e-02 exceeds tolerance 0.00e+00\n"
        )


class TestBenchCommand:
    def test_csv_to_stdout(self, capsys):
        assert main(["bench", "--sizes", "8", "--radii", "1", "--reps", "1"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert "single thread" in captured.err

    def test_csv_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code = main(
            ["bench", "--sizes", "8,12", "--radii", "0,1", "--reps", "2",
             "--csv", str(target)]
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith(CSV_HEADER + "\n")
        assert len(text.splitlines()) == 1 + 2 * 2 * 3
        assert capsys.readouterr().out == ""

    def test_an_empty_list_times_nothing(self, capsys):
        assert main(["bench", "--sizes", "8", "--radii", ""]) == 0
        assert capsys.readouterr().out == CSV_HEADER + "\n"


class TestUsage:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["polish"])
        assert err.value.code == 2

    @pytest.mark.parametrize("args, code, stream, text", [
        (["verify", "--radius", "1", "--size", "4"], 0, "out",
         "deviation 0 (exact)\n"),
        (["blur", "missing.pgm", "out.pgm"], 2, "err",
         "error: [Errno 2] No such file or directory: 'missing.pgm'\n"),
    ], ids=["verify", "missing-input"])
    def test_run_exits_with_the_code_main_returns(self, args, code, stream,
                                                  text, tmp_path, capsys,
                                                  monkeypatch):
        # The console-script entry point reads sys.argv and raises
        # SystemExit with main's code.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["collapsum", *args])
        with pytest.raises(SystemExit) as err:
            run()
        assert err.value.code == code
        assert getattr(capsys.readouterr(), stream) == text
        assert not (tmp_path / "out.pgm").exists()

    def test_start_up_imports_no_statistics(self):
        # ``statistics`` pulls in fractions, decimal and numbers, about 3 ms
        # of every CLI process; only the bench command needs it.
        env = dict(os.environ, PYTHONPATH=str(Path(collapsum.__file__).parents[1]))
        code = "import sys, collapsum.cli; print('statistics' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout == "False\n"

    @pytest.mark.parametrize("command", ["blur", "import"])
    def test_start_up_imports_no_dataclasses_or_inspect(self, tmp_path, command):
        # Importing ``dataclasses`` (with the ``inspect`` it imports) and
        # decorating the records cost about 18 ms of every process; the
        # records are namedtuples, so neither module is loaded.  Nor is
        # ``typing``: the annotations take their names from
        # ``collections.abc``.  -S keeps out what site imports.
        env = dict(os.environ, PYTHONPATH=str(Path(collapsum.__file__).parents[1]))
        image = tmp_path / "in.ppm"
        image.write_bytes(b"P6\n4 3\n255\n" + bytes(range(36)))
        argv = {
            "blur": ["-m", "collapsum", "blur", "--radius", "1", str(image),
                     str(tmp_path / "out.ppm")],
            # The whole public API: ``import collapsum`` alone loads no
            # pipeline (tests/test_imports.py).
            "import": ["-c", "from collapsum import *"],
        }[command]
        out = subprocess.run([sys.executable, "-S", "-X", "importtime", *argv],
                             env=env, check=True, capture_output=True,
                             text=True, timeout=60)
        loaded = {line.rsplit("|", 1)[1].strip()
                  for line in out.stderr.splitlines()
                  if line.startswith("import time:")}
        assert "collapsum.pipeline" in loaded
        assert not loaded & {"dataclasses", "inspect", "typing"}

    def test_seed_refusal_names_an_integer(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--seed", "0xZZ"])
        assert err.value.code == 2
        assert ("argument --seed: invalid integer value: '0xZZ'"
                in capsys.readouterr().err)

    def test_round_trip_helper(self):
        # write_netpbm/read_netpbm are exercised through the CLI above;
        # keep one direct sanity check close to the command tests.
        plane = read_netpbm(b"P2\n1 1\n1\n1")
        written = read_netpbm(write_netpbm(plane, "binary"))
        assert split_color(written) == split_color(plane)
