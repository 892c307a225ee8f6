import importlib
import random

import pytest

from collapsum.kernels import EdgeMode, convolve, gaussian_kernel_rect
from collapsum.matrix import DimensionError, Matrix, ScalarMode
from collapsum.pipeline import (
    CSV_HEADER,
    BlurRequest,
    Method,
    benchmark,
    blur,
    deviation,
    entry_ops,
    equivalence_report,
    rect_blur,
    seeded_image,
)

ALL_EDGES = (EdgeMode.CROP, EdgeMode.REPLICATE, EdgeMode.MIRROR, EdgeMode.ZERO)


def random_matrix(rng, rows, cols):
    return Matrix(
        rows,
        cols,
        tuple(rng.randint(0, 255) for _ in range(rows * cols)),
        ScalarMode.EXACT,
    )


class TestBlurRequest:
    def test_requires_exactly_one_window(self):
        with pytest.raises(ValueError):
            BlurRequest()
        with pytest.raises(ValueError):
            BlurRequest(radius=1, rect=(3, 3))

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            BlurRequest(radius=-1)


class TestBlur:
    def test_radius_zero_returns_input(self):
        rng = random.Random(167)
        a = random_matrix(rng, 4, 4)
        for method in Method:
            out = blur(a, BlurRequest(radius=0, method=method, edge=EdgeMode.CROP))
            assert out.numerator == a
            assert out.divisor == 1

    def test_crop_example_agrees_across_paths(self):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        collapse_out = blur(
            a, BlurRequest(radius=1, method=Method.COLLAPSE, edge=EdgeMode.CROP)
        )
        assert collapse_out.numerator.to_rows() == [[80]]
        assert collapse_out.divisor == 16
        direct = blur(
            a, BlurRequest(radius=1, method=Method.DIRECT, edge=EdgeMode.CROP)
        )
        assert collapse_out == direct

    def test_three_way_exact_agreement(self):
        rng = random.Random(173)
        for r in (1, 2, 3):
            a = random_matrix(rng, 16, 16)
            results = [
                blur(a, BlurRequest(radius=r, method=m, edge=EdgeMode.REPLICATE))
                for m in Method
            ]
            assert results[0] == results[1] == results[2]
            assert results[0].divisor == 4 ** (2 * r)

    def test_dimension_law(self):
        rng = random.Random(179)
        a = random_matrix(rng, 10, 12)
        r = 2
        cropped = blur(a, BlurRequest(radius=r, edge=EdgeMode.CROP))
        assert (cropped.numerator.rows, cropped.numerator.cols) == (6, 8)
        for mode in (EdgeMode.REPLICATE, EdgeMode.MIRROR, EdgeMode.ZERO):
            out = blur(a, BlurRequest(radius=r, edge=mode))
            assert (out.numerator.rows, out.numerator.cols) == (10, 12)

    def test_constant_image_preserved(self):
        a = Matrix.filled(6, 6, 42)
        for method in Method:
            for r in (1, 2):
                out = blur(
                    a, BlurRequest(radius=r, method=method, edge=EdgeMode.REPLICATE)
                )
                assert out.exact() == a

    def test_float_mode_agreement(self):
        rng = random.Random(181)
        a = random_matrix(rng, 12, 12)
        results = [
            blur(
                a,
                BlurRequest(
                    radius=2, method=m, edge=EdgeMode.REPLICATE, mode=ScalarMode.FLOAT
                ),
            )
            for m in Method
        ]
        for other in results[1:]:
            assert deviation(results[0], other) <= 1e-9

    def test_float_image_rejected_in_exact_mode(self):
        a = Matrix.filled(4, 4, 1.0)
        with pytest.raises(ValueError):
            blur(a, BlurRequest(radius=1, mode=ScalarMode.EXACT))

    @pytest.mark.parametrize("method", Method, ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "window", [{"radius": 2}, {"rect": (5, 5)}], ids=["radius", "rect"]
    )
    def test_crop_too_small(self, window, method):
        a = Matrix.filled(3, 3, 1)
        message = "^3x3 image too small for a 5x5 window under cropping$"
        with pytest.raises(DimensionError, match=message):
            blur(a, BlurRequest(**window, method=method, edge=EdgeMode.CROP))


class TestRectBlur:
    def test_degenerate_window_returns_input(self):
        rng = random.Random(191)
        a = random_matrix(rng, 4, 5)
        out = rect_blur(a, 1, 1, EdgeMode.CROP)
        assert out.numerator == a
        assert out.divisor == 1

    @pytest.mark.parametrize("mode", ScalarMode, ids=lambda m: m.value)
    @pytest.mark.parametrize("method", Method, ids=lambda m: m.value)
    def test_square_window_matches_radius_blur(self, method, mode):
        rng = random.Random(193)
        a = random_matrix(rng, 8, 8)
        for r in range(4):
            k = 2 * r + 1
            for edge in ALL_EDGES:
                square = BlurRequest(rect=(k, k), method=method, edge=edge,
                                     mode=mode)
                radius = BlurRequest(radius=r, method=method, edge=edge,
                                     mode=mode)
                assert blur(a, square) == blur(a, radius)

    def test_2x3_crop_agrees_with_direct_convolution(self):
        rng = random.Random(197)
        a = random_matrix(rng, 6, 6)
        out = rect_blur(a, 2, 3, EdgeMode.CROP)
        assert (out.numerator.rows, out.numerator.cols) == (5, 4)
        direct = convolve(gaussian_kernel_rect(2, 3), a, EdgeMode.CROP)
        assert out == direct

    def test_rect_agreement_across_methods_and_edges(self):
        rng = random.Random(199)
        for h, w in ((2, 3), (4, 2), (3, 5)):
            a = random_matrix(rng, 9, 9)
            for edge in ALL_EDGES:
                results = [
                    blur(a, BlurRequest(rect=(h, w), method=m, edge=edge))
                    for m in Method
                ]
                assert results[0] == results[1] == results[2]


class TestEquivalenceReport:
    def test_exact_mode_deviation_zero(self):
        rng = random.Random(211)
        a = random_matrix(rng, 10, 10)
        for edge in ALL_EDGES:
            report = equivalence_report(a, 2, edge)
            assert report.max_deviation == 0.0
            assert report.tolerance == 0.0
            assert report.passed

    def test_radius_zero_trivial(self):
        report = equivalence_report(Matrix.filled(3, 3, 9), 0, EdgeMode.CROP)
        assert report.max_deviation == 0.0
        assert report.passed

    def test_float_mode_within_tolerance(self):
        a = seeded_image(64, 64).to_float()
        report = equivalence_report(a, 3, EdgeMode.REPLICATE)
        assert report.mode is ScalarMode.FLOAT
        assert report.tolerance == 1e-9
        assert report.max_deviation <= 1e-9
        assert report.passed

    def test_pairwise_keys(self):
        report = equivalence_report(Matrix.filled(4, 4, 1), 1, EdgeMode.ZERO)
        assert set(report.deviations) == {
            ("direct", "separable"),
            ("direct", "collapse"),
            ("separable", "collapse"),
        }


class TestSeededImage:
    def test_deterministic(self):
        assert seeded_image(8, 8) == seeded_image(8, 8)
        assert seeded_image(8, 8, seed=1) != seeded_image(8, 8, seed=2)

    def test_range(self):
        img = seeded_image(32, 32)
        assert min(img.data) >= 0
        assert max(img.data) <= 255


class TestEntryOps:
    def test_direct_counts_window_taps(self):
        # 4x4 crop, radius 1: four output entries, nine taps each.
        assert entry_ops(Method.DIRECT, 4, 4, 1, EdgeMode.CROP) == 4 * 9

    def test_separable_counts_both_passes(self):
        # 4x4 crop, radius 1: row pass 4x2 entries, column pass 2x2,
        # three taps per entry.
        assert entry_ops(Method.SEPARABLE, 4, 4, 1, EdgeMode.CROP) == (8 + 4) * 3

    def test_collapse_counts_additions_per_pass(self):
        # 4x4 crop, radius 1: passes produce 3x4, 3x3, 2x3, 2x2 entries.
        assert entry_ops(Method.COLLAPSE, 4, 4, 1, EdgeMode.CROP) == 12 + 9 + 6 + 4

    def test_extension_enlarges_the_working_image(self):
        assert entry_ops(Method.DIRECT, 4, 4, 1, EdgeMode.REPLICATE) == 16 * 9

    def test_collapse_count_matches_the_additions_run(self, monkeypatch):
        # The package re-exports the function ``collapse`` under the
        # submodule's name, so fetch the module itself.
        collapse = importlib.import_module("collapsum.collapse")
        produced = []
        for name in ("collapse_down", "collapse_right"):
            def counted(a, original=getattr(collapse, name)):
                out = original(a)
                produced.append(out.rows * out.cols)
                return out
            monkeypatch.setattr(collapse, name, counted)
        a = random_matrix(random.Random(227), 9, 12)
        for r in range(4):
            for edge in ALL_EDGES:
                produced.clear()
                blur(a, BlurRequest(radius=r, method=Method.COLLAPSE, edge=edge))
                assert sum(produced) == entry_ops(Method.COLLAPSE, 9, 12, r, edge)

    def test_ratio_grows_with_radius(self):
        ratios = []
        for r in (1, 2, 4, 8):
            direct = entry_ops(Method.DIRECT, 64, 64, r, EdgeMode.REPLICATE)
            collapse = entry_ops(Method.COLLAPSE, 64, 64, r, EdgeMode.REPLICATE)
            ratios.append(direct / collapse)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


class TestBenchmark:
    def test_report_structure(self):
        report = benchmark([16], [1], repetitions=3)
        assert len(report.rows) == 3
        assert {row.method for row in report.rows} == {
            "direct",
            "separable",
            "collapse",
        }
        assert all(row.max_deviation == 0.0 for row in report.rows)
        assert all(row.median_ns >= 0 for row in report.rows)

    def test_empty_radii(self):
        assert benchmark([16], [], repetitions=1).rows == ()

    def test_row_count_is_cartesian(self):
        report = benchmark([8, 12], [0, 1, 2], repetitions=1)
        assert len(report.rows) == 2 * 3 * 3

    def test_repetitions_must_be_positive(self):
        with pytest.raises(ValueError):
            benchmark([8], [1], repetitions=0)

    def test_csv_format(self):
        report = benchmark([8], [1], repetitions=1)
        text = report.to_csv()
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[-1] == ""
        assert "\r" not in text
        first = lines[1].split(",")
        assert first[0] == "8"
        assert first[1] == "1"
        assert first[2] == "direct"
        assert first[5] == "0.00e+00"
