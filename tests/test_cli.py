import builtins
import importlib
import random
import time

import pytest

from collapsum.cli import main
from collapsum.kernels import (
    EdgeMode,
    box_kernel,
    convolve,
    interpolation_kernel,
)
from collapsum.matrix import Matrix, ScalarMode
from collapsum.netpbm import merge_color, read_netpbm, split_color, write_netpbm
from collapsum.pipeline import CSV_HEADER

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


class TestBlurCommand:
    def test_blur_pgm(self, tmp_path):
        src = write_pgm(tmp_path / "in.pgm", b"P2\n3 3\n255\n10 20 30 40 50 60 70 80 90\n")
        dst = str(tmp_path / "out.pgm")
        assert main(["blur", "--radius", "1", src, dst]) == 0
        out = read_netpbm(open(dst, "rb").read())
        assert (out.width, out.height, out.maxval) == (3, 3, 255)
        # Replicate extension preserves the central weighted mean exactly.
        assert out.samples.at(2, 2) == 50

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
            assert read_netpbm(open(dst, "rb").read()).samples.data == (77,) * 16

    def test_color_blur(self, tmp_path):
        src = write_pgm(tmp_path / "in.ppm", b"P3\n2 2\n255\n" + b"9 " * 12)
        dst = str(tmp_path / "out.ppm")
        assert main(["blur", "-r", "1", src, dst]) == 0
        out = read_netpbm(open(dst, "rb").read())
        assert out.red.samples.data == (9,) * 4

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

        monkeypatch.setattr(importlib.import_module("collapsum.structured"),
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
        # A 12x10 plane holds more entries than the 9x9 window, so only the
        # plane-sized sequences count: each plane is read, extended, blurred
        # and rounded.  One C-level max over each channel's slice of the
        # raster is both the maxval check and the read plane's proof; the
        # extension carries that proof; every method runs packed on the
        # extended plane and is unpacked once, with its proven bound; and
        # the rounding carries that bound rounded, which shows the
        # quantizing clamp idle and the image plane valid.  So no plane
        # matrix is scanned, by any method.
        plane = 12 * 10
        rng = random.Random(9)
        raster = bytes(rng.randrange(256) for _ in range(3 * plane))
        src = write_pgm(tmp_path / "in.ppm", b"P6\n12 10\n255\n" + raster)
        check_shape = Matrix._check_shape
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
                # Every constructor, public or proven, checks the shape.
                if self.mode is ScalarMode.EXACT and len(self.data) >= plane:
                    built.append(self)
                check_shape(self)

            monkeypatch.setattr(Matrix, "_check_shape", building)
            monkeypatch.setattr(builtins, "min", counting(min))
            monkeypatch.setattr(builtins, "max", counting(max))
            out = str(tmp_path / f"{method}.ppm")
            assert main(["blur", "-r", "4", "--method", method, src, out]) == 0
            monkeypatch.undo()
            # Read red, green, blue; then extended, blurred, rounded per plane.
            assert len(built) == 3 + 3 * 3, method
            assert not [m for m in built for _, seq in scans if seq is m.data]
            # The only plane-sized scans: one max per channel of the raster.
            assert [(name, type(seq)) for name, seq in scans] == [
                ("max", bytes)
            ] * 3, method

    def test_crop_radius_too_large(self, tmp_path, capsys):
        src = write_pgm(tmp_path / "in.pgm", b"P2\n3 3\n255\n" + b"1 " * 9)
        code = main(["blur", "-r", "2", "--edge", "crop", src, str(tmp_path / "o.pgm")])
        assert code == 2


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

        monkeypatch.setattr(importlib.import_module("collapsum.structured"),
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


class TestUsage:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["polish"])
        assert err.value.code == 2

    def test_round_trip_helper(self):
        # write_netpbm/read_netpbm are exercised through the CLI above;
        # keep one direct sanity check close to the command tests.
        plane = read_netpbm(b"P2\n1 1\n1\n1")
        assert read_netpbm(write_netpbm(plane, "binary")) == plane
