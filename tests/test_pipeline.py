import contextlib
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_collapse import (
    OUT_OF_RANGE,
    POWER_PASSES,
    WIDE_BITS,
    nonnegative_entries,
    per_entry_correlation,
    per_pass_powers,
)

from collapsum import pipeline
from collapsum.bench import CSV_HEADER, benchmark, entry_ops
from collapsum.collapse import (
    collapse_down_power,
    collapse_power,
    collapse_right_power,
)
from collapsum.kernels import (
    EdgeMode,
    FilterResult,
    _margins,
    coefficient_matrix,
    coefficient_sides,
    convolve,
    extend_asym,
)
from collapsum.matrix import (
    INT128_MAX,
    DimensionError,
    ExactOverflowError,
    Matrix,
    ScalarMode,
)
from collapsum.netpbm import Raster
from collapsum.pipeline import (
    BlurRequest,
    Method,
    blur,
    blur_raster,
    deviation,
    equivalence_report,
    seeded_image,
)
from collapsum.windows import gaussian_kernel_rect, interpolation_kernel

ALL_EDGES = (EdgeMode.CROP, EdgeMode.REPLICATE, EdgeMode.MIRROR, EdgeMode.ZERO)


# The package's ``collapse`` attribute is the function, not this module.
collapse_module = importlib.import_module("collapsum.collapse")
kernels_module = importlib.import_module("collapsum.kernels")


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

    def test_collapses_default_to_the_binomial(self):
        # None is stored as the binomial's counts, so both forms of one
        # window make equal requests.
        assert BlurRequest(rect=(3, 5)).collapses == (2, 4)
        assert BlurRequest(radius=2) == BlurRequest(rect=(5, 5), collapses=(4, 4))
        assert BlurRequest(radius=2, collapses=(0, 0)).collapses == (0, 0)

    @pytest.mark.parametrize("collapses", [(-1, 0), (0, -1), (3, 0), (0, 5)])
    def test_rejects_collapses_outside_the_window(self, collapses):
        with pytest.raises(DimensionError, match="^need 0 <= "):
            BlurRequest(rect=(3, 5), collapses=collapses)


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
        a = random_matrix(rng, 12, 12).to_float()
        results = [
            blur(a, BlurRequest(radius=2, method=m, edge=EdgeMode.REPLICATE))
            for m in Method
        ]
        for other in results[1:]:
            assert other.numerator.mode is ScalarMode.FLOAT
            assert deviation(results[0], other) <= 1e-9

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
        out = blur(a, BlurRequest(rect=(1, 1), edge=EdgeMode.CROP))
        assert out.numerator == a
        assert out.divisor == 1

    @pytest.mark.parametrize("mode", ScalarMode, ids=lambda m: m.value)
    @pytest.mark.parametrize("method", Method, ids=lambda m: m.value)
    def test_square_window_matches_radius_blur(self, method, mode):
        rng = random.Random(193)
        a = random_matrix(rng, 8, 8)
        if mode is ScalarMode.FLOAT:
            a = a.to_float()
        for r in range(4):
            k = 2 * r + 1
            for edge in ALL_EDGES:
                square = BlurRequest(rect=(k, k), method=method, edge=edge)
                radius = BlurRequest(radius=r, method=method, edge=edge)
                assert blur(a, square) == blur(a, radius)

    def test_2x3_crop_agrees_with_direct_convolution(self):
        rng = random.Random(197)
        a = random_matrix(rng, 6, 6)
        out = blur(a, BlurRequest(rect=(2, 3), edge=EdgeMode.CROP))
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

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_methods_agree_on_random_rects(self, data):
        # Any coefficient window, on planes with negative entries, in
        # either mode: every method is the window's correlation.
        h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        ca, cb = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
        mode = data.draw(st.sampled_from(ScalarMode))
        edge = data.draw(st.sampled_from(EdgeMode))
        if edge is EdgeMode.CROP:
            rows = data.draw(st.integers(h, h + 6))
            cols = data.draw(st.integers(w, w + 6))
        else:
            # Mirror reflects without repeating the edge, so its larger
            # margin (h // 2 rows, w // 2 columns) must stay inside.
            low = edge is EdgeMode.MIRROR
            rows = data.draw(st.integers(h // 2 + 1 if low else 1, 10))
            cols = data.draw(st.integers(w // 2 + 1 if low else 1, 10))
        pixels = data.draw(st.lists(st.integers(-(2**60), 2**60),
                                    min_size=rows * cols, max_size=rows * cols))
        a = Matrix(rows, cols, tuple(pixels), ScalarMode.EXACT)
        expected = per_entry_correlation(extended(a, h, w, edge),
                                         coefficient_matrix(h, w, ca, cb))
        divisor = 2 ** (ca + cb) * (h - ca) * (w - cb)
        image = a if mode is ScalarMode.EXACT else a.to_float()
        results = [
            blur(image, BlurRequest(rect=(h, w), collapses=(ca, cb), method=m,
                                    edge=edge))
            for m in Method
        ]
        if mode is ScalarMode.EXACT:
            assert results[0] == results[1] == results[2]
            assert results[0].numerator.data == expected
            assert results[0].divisor == divisor
            return
        tolerance = 1e-9 * max(1, *map(abs, pixels))
        for out in results:
            assert out.divisor == 1
            assert all(abs(x - e / divisor) <= tolerance
                       for x, e in zip(out.numerator.data, expected, strict=True))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_windows_larger_than_the_image(self, data):
        # Box and interp windows of up to 81x81 taps on planes of at most
        # 6x6: the extended plane repeats its edge rows, so a window row
        # recurs many times, each added at a large right shift.
        r = data.draw(st.integers(3, 40))
        s = data.draw(st.sampled_from([0, data.draw(st.integers(0, min(2 * r, 40)))]))
        rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        edge = data.draw(st.sampled_from([EdgeMode.REPLICATE, EdgeMode.ZERO]))
        pixels = data.draw(st.lists(st.integers(0, 255), min_size=rows * cols,
                                    max_size=rows * cols))
        a = Matrix(rows, cols, tuple(pixels))
        expected = convolve(interpolation_kernel(r, s), a, edge)
        for m in Method:
            req = BlurRequest(radius=r, collapses=(s, s), method=m, edge=edge)
            assert blur(a, req) == expected, m


def extended(a, h, w, edge):
    """The input of every method: ``a`` extended by the window's margins."""
    if edge is EdgeMode.CROP:
        return a
    return extend_asym(a, *_margins(h, w), edge)


def per_pass_blur(work, window, method):
    """Reference: the passes of ``method`` on the extended plane, entry by
    entry, for the coefficient window (h, w, a, b); None when one of them
    leaves int128, where a scan of each pass would raise."""
    h, w, ca, cb = window
    windows = [coefficient_matrix(*window)]
    if method is Method.COLLAPSE:
        s = min(ca, cb)
        passes = ((collapse_power, s), (collapse_down_power, ca - s),
                  (collapse_right_power, cb - s))
        for power, k in passes:
            out = per_pass_powers(work, power, k)
            if out is None:
                return None
            down, right = POWER_PASSES[power]
            work = Matrix(work.rows - down * k, work.cols - right * k, out)
        # The box of the taps left.
        windows = [Matrix.filled(h - ca, w - cb, 1)]
    if method is Method.SEPARABLE:
        alpha, beta = coefficient_sides(*window)
        windows = [Matrix(1, w, tuple(beta)), Matrix(h, 1, tuple(alpha))]
    for k in windows:
        flipped = Matrix(k.rows, k.cols, k.data[::-1])
        out = per_entry_correlation(work, flipped)
        if max(out) > INT128_MAX:
            return None
        work = Matrix(work.rows - k.rows + 1, work.cols - k.cols + 1, out)
    return work.data


@st.composite
def nonnegative_blurs(draw):
    """A nonnegative exact plane (all zero one time in eight, else entries
    up to 2**k with k drawn up to 127), an h x w coefficient window with
    a x b collapses as (h, w, a, b), the binomial (h-1, w-1) one time in
    two, and an edge under which it fits."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    window = (h, w, h - 1, w - 1)
    if draw(st.booleans()):
        window = (h, w, draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)))
    m, n = draw(st.integers(h, h + 3)), draw(st.integers(w, w + 3))
    if draw(st.integers(0, 7)):
        entry = nonnegative_entries(draw(WIDE_BITS))
        data = draw(st.lists(entry, min_size=m * n, max_size=m * n))
    else:
        data = [0] * (m * n)
    edge = draw(st.sampled_from(ALL_EDGES))
    return Matrix(m, n, tuple(data)), window, edge


@contextlib.contextmanager
def counted_planes(entries):
    """Record the packs of planes of ``entries`` lanes or more, and every
    unpack."""
    packs, unpacks = [], []

    def pack(values, *args, original=collapse_module._pack):
        if len(values) >= entries:
            packs.append(values)
        return original(values, *args)

    def unpack(*args, original=collapse_module._unpack):
        unpacks.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(collapse_module, "_pack", pack)
        patch.setattr(collapse_module, "_unpack", unpack)
        yield packs, unpacks


class TestPackedPlane:
    @settings(max_examples=200, deadline=None)
    @given(nonnegative_blurs())
    def test_blur_matches_the_per_pass_oracle(self, case):
        # One packed plane per blur: every method equals the per-entry
        # correlation, and raises exactly where a scan of each pass would.
        a, (h, w, ca, cb), edge = case
        work = extended(a, h, w, edge)
        expected = per_entry_correlation(work, coefficient_matrix(h, w, ca, cb))
        for method in Method:
            per_pass = per_pass_blur(work, (h, w, ca, cb), method)
            assert (per_pass is None) is (max(expected) > INT128_MAX), method
            req = BlurRequest(rect=(h, w), collapses=(ca, cb), method=method,
                              edge=edge)
            if per_pass is None:
                with pytest.raises(ExactOverflowError, match=OUT_OF_RANGE):
                    blur(a, req)
                continue
            out = blur(a, req)
            assert out.numerator.data == per_pass == expected, method
            assert out.divisor == 2 ** (ca + cb) * (h - ca) * (w - cb)
            assert out.numerator.span == (min(expected), max(expected))

    @pytest.mark.parametrize("edge", ALL_EDGES)
    def test_each_blur_packs_once_and_unpacks_once(self, edge):
        # The input is packed, not its extension: one pack of its rows x
        # cols lanes and none larger.
        a = random_matrix(random.Random(263), 11, 9)
        for method in Method:
            with counted_planes(len(a.data)) as (packs, unpacks):
                blur(a, BlurRequest(rect=(5, 4), method=method, edge=edge))
            assert (len(packs), len(unpacks)) == (1, 1), method

    @pytest.mark.parametrize("edge", ALL_EDGES)
    def test_a_passing_report_packs_once_and_unpacks_nothing(self, edge):
        a = random_matrix(random.Random(269), 12, 12)
        with counted_planes(len(a.data)) as (packs, unpacks):
            report = equivalence_report(a, 2, edge)
        assert report.passed
        assert (len(packs), len(unpacks)) == (1, 0)

    @pytest.mark.parametrize("edge", ALL_EDGES)
    def test_a_packable_plane_never_runs_the_matrix_extension(
            self, edge, monkeypatch):
        # The matrix loop of ``extend_asym`` picks each extended row's
        # entries with ``itemgetter``; a plane that packs is extended on its
        # lane bytes instead, in every method and in the report.  A plane
        # with a negative entry still reaches the stub.
        def picking(*cols):
            raise AssertionError("the matrix extension ran")

        monkeypatch.setattr(kernels_module, "itemgetter", picking)
        a = random_matrix(random.Random(307), 10, 8)
        for method in Method:
            blur(a, BlurRequest(rect=(5, 4), method=method, edge=edge))
        assert equivalence_report(a, 2, edge).passed
        if edge is not EdgeMode.CROP:
            signed = Matrix(10, 8, (-1,) + a.data[1:])
            with pytest.raises(AssertionError, match="matrix extension"):
                blur(signed, BlurRequest(rect=(5, 4), edge=edge))

    @settings(max_examples=200, deadline=None)
    @given(nonnegative_blurs())
    def test_packed_numerators_are_one_int(self, case):
        # Every packed stage writes each lane only from the lanes at and
        # after it, so every method computes each lane, the dropped ones
        # included, as the same window sum of the plane's lanes: the three
        # numerators are one int, whether the kept lanes fit int128 or not,
        # in planes of one shape, stride, lane width and bound.  Direct's
        # int128 check of the collapse result, made first in sublanes of 16
        # bytes or more, is stubbed out, so that its own numerator is
        # compared past int128 too.
        a, (h, w, ca, cb), edge = case
        req = BlurRequest(rect=(h, w), collapses=(ca, cb), edge=edge)
        divisor, plane = pipeline._plane(a, req)
        assert isinstance(plane, collapse_module._Packed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "_checked", lambda p: None)
            nums = [pipeline._numerator(m, req, divisor, plane).numerator
                    for m in Method]
        assert len(set(nums)) == 1

    @pytest.mark.parametrize("method", list(Method))
    def test_samples_far_below_maxval_past_the_int128_lane_bound(self, method):
        # A 16-bit 21x16 plane at maxval 65535 whose samples are at most
        # 1000, at radius 28.  The raster's lanes are sized for maxval, so
        # their bound 65535 * 4**56 passes 2**127 - 1 and the masked check
        # runs, yet every result entry is at most 1000 * 4**56 < 2**127: the
        # per-plane path, whose lanes are sized from the plane's span, gives
        # the raster core's samples.  An all-65535 plane leaves int128 on
        # both.
        rng = random.Random(6)
        req = BlurRequest(radius=28, method=method)
        low = [rng.randrange(1001) for _ in range(21 * 16)]
        raster = Raster(21, 16, 1, 65535, low)
        plane = Matrix(16, 21, tuple(low))
        assert blur(plane, req).rounded().data == tuple(
            blur_raster(raster, req).samples)
        with pytest.raises(ExactOverflowError, match=OUT_OF_RANGE):
            blur(Matrix.filled(16, 21, 65535), req)
        with pytest.raises(ExactOverflowError, match=OUT_OF_RANGE):
            blur_raster(raster._replace(samples=[65535] * (21 * 16)), req)

    @pytest.mark.parametrize("edge", ALL_EDGES)
    def test_a_dropped_lane_difference_passes_through_the_fallback(
            self, edge, monkeypatch):
        # The direct numerator gains 1 in the lane after its last kept one:
        # the ints differ, so both of its pairs are unpacked and measured,
        # and their kept lanes are equal.
        def convolve_with_dropped(*args, original=pipeline.convolve):
            out = original(*args)
            num = out.numerator
            lane = (num.rows - 1) * num.stride + num.cols
            num = num._replace(value=num.value + (1 << num.bits * lane))
            return FilterResult(num, out.divisor)

        measured = []

        def counted(x, y, original=pipeline.deviation):
            measured.append(original(x, y))
            return measured[-1]

        monkeypatch.setattr(pipeline, "convolve", convolve_with_dropped)
        monkeypatch.setattr(pipeline, "deviation", counted)
        report = equivalence_report(random_matrix(random.Random(283), 9, 10), 2,
                                    edge)
        assert report.passed and report.max_deviation == 0.0
        assert measured == [0.0, 0.0]


def tuple_report(a, r, edge):
    """Reference: each method's blur unpacked, compared pairwise by
    ``deviation``, as the report did before it compared packed planes."""
    results = {
        m.value: blur(a, BlurRequest(radius=r, method=m, edge=edge))
        for m in Method
    }
    names = [m.value for m in Method]
    devs = {(x, y): deviation(results[x], results[y])
            for i, x in enumerate(names) for y in names[i + 1 :]}
    return devs, max(devs.values())


def perturbed(name, entry, delta):
    """A stand-in for ``pipeline.<name>`` whose result has ``delta`` added to
    one entry (row-major index ``entry``) of its numerator, packed or not."""
    original = getattr(pipeline, name)

    def run(*args):
        out = original(*args)
        num = out if name == "collapse_power" else out.numerator
        if isinstance(num, collapse_module._Packed):
            i, j = divmod(entry, num.cols)
            lane = i * num.stride + j
            num = num._replace(value=num.value + (delta << num.bits * lane))
        else:
            data = list(num.data)
            data[entry] += delta
            num = Matrix(num.rows, num.cols, tuple(data), num.mode)
        return num if name == "collapse_power" else FilterResult(num, out.divisor)

    return run


class TestEquivalenceReport:
    @pytest.mark.parametrize("r", [28, 29])
    @pytest.mark.parametrize("edge", ALL_EDGES)
    def test_collapse_runs_once_per_report(self, r, edge, monkeypatch):
        # At radius 29 an 8-bit plane packs in 16-byte sublanes, where a
        # result can pass int128: the report's own checked collapse result
        # is direct's early check, so collapse still runs once, as it does
        # in narrower sublanes (radius 28).  Crop needs a 59x59 image, and
        # mirror one wider than the margins.
        counted = []

        def counting(*args, original=pipeline.collapse_power):
            counted.append(args)
            return original(*args)

        monkeypatch.setattr(pipeline, "collapse_power", counting)
        n = 59 if edge is EdgeMode.CROP else 30
        a = seeded_image(n, n)
        plane = pipeline._plane(a, BlurRequest(radius=r, edge=edge))[1]
        assert collapse_module._wide(plane) is (r == 29)
        assert equivalence_report(a, r, edge).passed
        assert len(counted) == 1

    @pytest.mark.parametrize("name, entry, delta", [
        ("convolve", 0, 3), ("separable_convolve", 17, 1),
        ("collapse_power", 99, 250), ("convolve", 50, 1000),
    ])
    @pytest.mark.parametrize("edge", ALL_EDGES)
    @pytest.mark.parametrize("mode", list(ScalarMode))
    def test_a_differing_method_reads_as_the_tuple_path(self, name, entry, delta,
                                                       edge, mode, monkeypatch):
        a = random_matrix(random.Random(271), 14, 14)
        if mode is ScalarMode.FLOAT:
            a, delta = a.to_float(), delta / 7
        monkeypatch.setattr(pipeline, name, perturbed(name, entry, delta))
        report = equivalence_report(a, 2, edge)
        devs, worst = tuple_report(a, 2, edge)
        assert report.deviations == devs
        assert report.max_deviation == worst
        assert not report.passed

    def test_one_unit_past_float_precision_fails_the_report(self, monkeypatch):
        # At radius 29 every numerator is near 2**124 over the divisor
        # 4**58, so 1 added to one direct entry is lost in a float
        # subtraction; measured exactly, it is 1 / 4**58.
        monkeypatch.setattr(pipeline, "convolve", perturbed("convolve", 5, 1))
        report = equivalence_report(seeded_image(30, 30), 29, EdgeMode.REPLICATE)
        assert not report.passed
        assert report.max_deviation == 2.0**-116
        assert report.deviations[("separable", "collapse")] == 0.0

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


class TestDeviation:
    def test_equal_rationals_under_unequal_divisors(self):
        # 3/4, 5/2 and -1/4 as (numerator, divisor) 4 and 8.
        x = FilterResult(Matrix(1, 3, (3, 10, -1)), 4)
        y = FilterResult(Matrix(1, 3, (6, 20, -2)), 8)
        assert deviation(x, y) == 0.0
        assert deviation(y, x) == 0.0

    @pytest.mark.parametrize("divisors", [(4, 4), (4, 8)])
    def test_a_differing_entry_gives_the_float_difference(self, divisors):
        dx, dy = divisors
        x = FilterResult(Matrix(1, 3, (3, 10, -1)), dx)
        y = FilterResult(Matrix(1, 3, (3 * dy // dx, 10 * dy // dx + 1, -dy // dx)),
                         dy)
        expected = max(abs(p / dx - q / dy)
                       for p, q in zip(x.numerator.data, y.numerator.data))
        assert expected == 1 / dy
        assert deviation(x, y) == expected

    def test_unequal_exact_results_never_read_zero(self):
        # Two entries a float subtraction cannot tell apart: the exact
        # difference over the divisor product is 1.
        x = FilterResult(Matrix(1, 1, (2**100,)), 1)
        y = FilterResult(Matrix(1, 1, (2**100 + 1,)), 1)
        assert deviation(x, y) == deviation(y, x) == 1.0

    def test_results_of_different_shapes_are_refused(self):
        x = FilterResult(Matrix(1, 3, (3, 10, -1)), 4)
        y = FilterResult(Matrix(3, 1, (3, 10, -1)), 4)
        with pytest.raises(DimensionError) as err:
            deviation(x, y)
        assert type(err.value) is DimensionError
        assert str(err.value) == "results have different shapes"


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
        produced, packed = [], []
        for name in ("collapse_down", "collapse_right"):
            def counted(a, original=getattr(collapse, name)):
                out = original(a)
                produced.append(out.rows * out.cols)
                packed.append(isinstance(a, collapse._Packed))
                return out
            monkeypatch.setattr(collapse, name, counted)
        # The passes run on the plane that blur packed, and still call both
        # functions once each.
        a = random_matrix(random.Random(227), 9, 12)
        for r in range(4):
            for edge in ALL_EDGES:
                produced.clear()
                packed.clear()
                blur(a, BlurRequest(radius=r, method=Method.COLLAPSE, edge=edge))
                assert sum(produced) == entry_ops(Method.COLLAPSE, 9, 12, r, edge)
                assert packed == [True] * (4 * r)

    @pytest.mark.parametrize("method", [Method.DIRECT, Method.SEPARABLE])
    def test_correlation_count_matches_the_macs_run(self, method, monkeypatch):
        kernels = importlib.import_module("collapsum.kernels")
        macs = []

        def counted(a, gamma, original=kernels.generalized_collapse):
            out = original(a, gamma)
            w = gamma.weights
            macs.append(out.rows * out.cols * w.rows * w.cols)
            return out

        monkeypatch.setattr(kernels, "generalized_collapse", counted)
        a = random_matrix(random.Random(229), 9, 12)
        for r in range(4):
            for edge in ALL_EDGES:
                macs.clear()
                blur(a, BlurRequest(radius=r, method=method, edge=edge))
                assert sum(macs) == entry_ops(method, 9, 12, r, edge)

    @pytest.mark.parametrize("method", list(Method))
    def test_refuses_what_blur_refuses(self, method):
        # A window larger than a cropped image, and a negative radius.
        a = random_matrix(random.Random(293), 4, 4)
        for r, edge, error in [(8, EdgeMode.CROP, DimensionError),
                               (2, EdgeMode.CROP, DimensionError),
                               (-1, EdgeMode.CROP, ValueError),
                               (-1, EdgeMode.REPLICATE, ValueError)]:
            with pytest.raises(error) as blurred:
                blur(a, BlurRequest(radius=r, method=method, edge=edge))
            with pytest.raises(error) as counted:
                entry_ops(method, 4, 4, r, edge)
            assert str(counted.value) == str(blurred.value)
        # The largest window that fits is counted.
        assert entry_ops(method, 4, 4, 1, EdgeMode.CROP) > 0

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

    @pytest.mark.parametrize("sizes, radii, error, message", [
        ([8, 0], [1], DimensionError, "matrix dimensions must be positive, got 0x0"),
        ([8], [1, -1], ValueError, "radius must be nonnegative"),
        ([64], [8, 40], ExactOverflowError,
         "81x81 binomial window exceeds the signed 128-bit range"),
    ])
    def test_bad_cell_refused_before_any_blur(self, sizes, radii, error,
                                              message, monkeypatch):
        # A bad size or radius, or a window that cannot be built, after a
        # good one is refused with the message its own cell gives, before
        # the good cells are timed.
        def unreached(image, req):
            raise AssertionError("a blur was timed before the refusal")

        monkeypatch.setattr(pipeline, "blur", unreached)
        with pytest.raises(error) as info:
            benchmark(sizes, radii, repetitions=1)
        assert str(info.value) == message

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


@contextlib.contextmanager
def packed_lengths():
    """Record the lane count of every ``_pack`` call."""
    lengths = []

    def pack(values, *args, original=collapse_module._pack):
        lengths.append(len(values))
        return original(values, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(collapse_module, "_pack", pack)
        yield lengths


class TestOneProductPerDistinctRow:
    """A packed correlation packs each distinct window row once, in b2
    lanes, and never the whole window with the input's row stride."""

    @pytest.mark.parametrize("r", [0, 1, 2, 5])
    def test_binomial_direct_blur_packs_r_plus_1_rows(self, r):
        a = random_matrix(random.Random(271), 7, 6)
        k, n = 2 * r + 1, 6 + 2 * r
        with packed_lengths() as lengths:
            blur(a, BlurRequest(radius=r, method=Method.DIRECT))
        # The input plane, then one pack per distinct row.
        assert lengths == [7 * 6] + [k] * (r + 1)
        assert r == 0 or (k - 1) * n + k not in lengths

    @pytest.mark.parametrize("r", [1, 3])
    def test_separable_blur_packs_each_pass_by_rows(self, r):
        a = random_matrix(random.Random(277), 7, 6)
        k = 2 * r + 1
        with packed_lengths() as lengths:
            blur(a, BlurRequest(radius=r, method=Method.SEPARABLE))
        # The input plane; the row pass has one row of k lanes, the column
        # pass r + 1 distinct rows of one lane.
        assert lengths == [7 * 6, k] + [1] * (r + 1)

    @pytest.mark.parametrize("s", [0, 1, 3], ids=["box", "interp-1", "interp-3"])
    @pytest.mark.parametrize("method", Method, ids=lambda m: m.value)
    @pytest.mark.parametrize("edge", ALL_EDGES)
    def test_box_and_interp_blurs_pack_each_distinct_row(
            self, edge, method, s, monkeypatch):
        # A (2r+1)-square window with s x s collapses (s = 0 is the box):
        # the input plane is packed once and unpacked once.  Direct packs
        # each distinct window row, separable its one row and then each
        # distinct entry of its column side, and collapse runs its passes on
        # the packed plane and then a row and a column pass of ones, one
        # product each; but a row of three or more equal weights (the box's,
        # and a row of ones) is added by doubling and never packed.  No 2-D
        # window is built but the request's, and only direct builds that.
        r, a = 2, random_matrix(random.Random(281), 8, 9)
        k = 2 * r + 1
        distinct = len(set(coefficient_sides(k, k, s, s)[0]))
        row = [] if s == 0 else [k]
        rows = {Method.DIRECT: row * distinct, Method.SEPARABLE: row + [1] * distinct,
                Method.COLLAPSE: ([] if k - s >= 3 else [k - s]) + [1]}[method]
        windows = {Method.DIRECT: [(k, k)], Method.SEPARABLE: [(1, k), (k, 1)],
                   Method.COLLAPSE: [(1, k - s), (k - s, 1)]}[method]
        built = []

        def recorded(m, n, *rest, original=kernels_module._coefficient_kernel):
            built.append((m, n))
            return original(m, n, *rest)

        for module in (kernels_module, pipeline):
            monkeypatch.setattr(module, "_coefficient_kernel", recorded)
        req = BlurRequest(radius=r, collapses=(s, s), method=method, edge=edge)
        with counted_planes(len(a.data)) as (_, unpacks), \
                packed_lengths() as lengths:
            out = blur(a, req)
        assert lengths == [len(a.data), *rows]
        assert len(unpacks) == 1
        assert built == windows
        assert out == convolve(interpolation_kernel(r, s), a, edge)


@contextlib.contextmanager
def asked_windows():
    """Record the (m, n) of every coefficient window asked for: exact ones
    from ``coefficient_matrix``, float ones from the ``coefficient_sides``
    they are built from."""
    asked = []

    def recorder(original):
        def recorded(m, n, *rest):
            asked.append((m, n))
            return original(m, n, *rest)
        return recorded

    with pytest.MonkeyPatch.context() as patch:
        for name in ("coefficient_matrix", "coefficient_sides"):
            # kernels owns and calls them.
            patch.setattr(kernels_module, name,
                          recorder(getattr(kernels_module, name)))
        yield asked


# Request fields of a gauss, box, interp and rect window, each with sides of
# at least 2, so that no side or row of ones is the whole window.
WINDOWS = {"gauss": {"radius": 2}, "box": {"radius": 2, "collapses": (0, 0)},
           "interp": {"radius": 2, "collapses": (1, 1)}, "rect": {"rect": (4, 3)}}


class TestOnlyDirectBuildsTheWindow:
    """Separable and collapse read only the window's divisor and margins,
    which need no weight: direct alone asks for the h x w window."""

    @pytest.mark.parametrize("mode", list(ScalarMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("edge", ALL_EDGES, ids=lambda e: e.value)
    @pytest.mark.parametrize("window", WINDOWS)
    def test_direct_asks_once_per_blur(self, window, edge, mode):
        a = random_matrix(random.Random(311), 8, 9)
        blurs = [(blur, a), (blur_raster, Raster(9, 8, 1, 255, a.data))]
        if mode is ScalarMode.FLOAT:
            blurs = [(blur, a.to_float())]
        for method in Method:
            req = BlurRequest(**WINDOWS[window], method=method, edge=edge)
            for run, image in blurs:
                with asked_windows() as asked:
                    run(image, req)
                assert asked.count(req.rect) == (method is Method.DIRECT), method

    @pytest.mark.parametrize("mode", list(ScalarMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("edge", ALL_EDGES, ids=lambda e: e.value)
    def test_a_report_asks_once(self, edge, mode):
        a = random_matrix(random.Random(313), 9, 9)
        if mode is ScalarMode.FLOAT:
            a = a.to_float()
        with asked_windows() as asked:
            assert equivalence_report(a, 2, edge).passed
        assert asked.count((5, 5)) == 1

    def test_benchmark_builds_no_window_before_its_first_blur(
            self, monkeypatch):
        with asked_windows() as log:
            def timed(*args, original=pipeline.blur):
                log.append("blur")
                return original(*args)

            monkeypatch.setattr(pipeline, "blur", timed)
            benchmark([6], [1, 2], repetitions=2)
        assert log[0] == "blur"
        # Each radius's window only in its two direct repetitions.
        assert (log.count((3, 3)), log.count((5, 5))) == (2, 2)
