import importlib
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsum.algebra import approx_equal, multiply
from collapsum.collapse import (
    GammaSpec,
    _Packed,
    _packed,
    _unpacked,
    generalized_collapse,
)
from collapsum.kernels import (
    EdgeMode,
    FilterResult,
    Kernel,
    binomial,
    convolve,
    convolve_crop,
    extend,
    extend_asym,
    separable_convolve,
)
from collapsum.matrix import (
    INT128_MAX,
    DimensionError,
    ExactOverflowError,
    Matrix,
    ScalarMode,
    scale,
)
from collapsum.windows import (
    box_kernel,
    gaussian_kernel,
    gaussian_kernel_rect,
    gaussian_kernel_sampled,
    interpolation_kernel,
)


def random_matrix(rng, rows, cols, lo=0, hi=255):
    return Matrix(
        rows,
        cols,
        tuple(rng.randint(lo, hi) for _ in range(rows * cols)),
        ScalarMode.EXACT,
    )


def correlate_unflipped(kernel, a):
    """Reference sliding product WITHOUT the kernel flip."""
    kh, kw = kernel.height, kernel.width
    out = []
    for p in range(a.rows - kh + 1):
        row = []
        for q in range(a.cols - kw + 1):
            acc = 0
            for u in range(kh):
                for v in range(kw):
                    acc += kernel.weights.at(u + 1, v + 1) * a.at(p + u + 1, q + v + 1)
            row.append(acc)
        out.append(row)
    return out


class TestBoxKernel:
    def test_radius_zero(self):
        k = box_kernel(0)
        assert k.weights.to_rows() == [[1]]
        assert k.divisor == 1

    def test_radius_one(self):
        k = box_kernel(1)
        assert k.weights == Matrix.filled(3, 3, 1)
        assert k.divisor == 9

    def test_normalization(self):
        for r in range(6):
            k = box_kernel(r)
            assert sum(k.weights.data) == k.divisor


class TestGaussianKernel:
    def test_radius_two_golden(self):
        k = gaussian_kernel(2)
        assert k.weights.to_rows() == [
            [1, 4, 6, 4, 1],
            [4, 16, 24, 16, 4],
            [6, 24, 36, 24, 6],
            [4, 16, 24, 16, 4],
            [1, 4, 6, 4, 1],
        ]
        assert k.divisor == 256

    def test_radius_zero(self):
        k = gaussian_kernel(0)
        assert k.weights.to_rows() == [[1]]
        assert k.divisor == 1

    def test_radius_one(self):
        k = gaussian_kernel(1)
        assert k.weights.to_rows() == [[1, 2, 1], [2, 4, 2], [1, 2, 1]]
        assert k.divisor == 16

    def test_rank_one_decomposition(self):
        # Central column times central row reproduces the table up to the
        # central weight squared.
        for r in (1, 2, 3):
            k = gaussian_kernel(r)
            size = 2 * r + 1
            col = k.weights.block(1, r + 1, size, 1)
            row = k.weights.block(r + 1, 1, 1, size)
            center = binomial(2 * r, r)
            assert multiply(col, row) == scale(center**2, k.weights)


class TestRectKernel:
    def test_square_matches_radius_form(self):
        for r in (0, 1, 2):
            size = 2 * r + 1
            rect = gaussian_kernel_rect(size, size)
            square = gaussian_kernel(r)
            assert rect.weights == square.weights
            assert rect.divisor == square.divisor

    def test_1x2(self):
        k = gaussian_kernel_rect(1, 2)
        assert k.weights.to_rows() == [[1, 1]]
        assert k.divisor == 2

    def test_2x3(self):
        k = gaussian_kernel_rect(2, 3)
        assert k.weights.to_rows() == [[1, 2, 1], [1, 2, 1]]
        assert k.divisor == 8

    def test_even_sides_extend_by_the_one_margin_rule(self):
        # Every window sits at (ceil(h/2), ceil(w/2)), a 2x4 one at (1, 2),
        # so an extension edge pads 0 rows above it, 1 below, 1 column to
        # its left and 2 to its right.
        k = gaussian_kernel_rect(2, 4)
        a = random_matrix(random.Random(139), 5, 6)
        for edge in (EdgeMode.REPLICATE, EdgeMode.MIRROR, EdgeMode.ZERO):
            assert convolve(k, a, edge) == convolve_crop(
                k, extend_asym(a, 0, 1, 1, 2, edge))

    def test_refused_exactly_when_a_weight_leaves_int128(self, monkeypatch):
        # Largest materialized weight of each side, before the binomial
        # that every window's weights are first computed from is replaced
        # by one that only reports it was reached.
        peak = {s: max(binomial(s - 1, i) for i in range(s)) for s in range(1, 141)}

        class Built(Exception):
            pass

        def building(n, r):
            raise Built

        monkeypatch.setattr(importlib.import_module("collapsum.kernels"),
                            "binomial", building)
        refused = set()
        for a, b in itertools.product(peak, repeat=2):
            try:
                gaussian_kernel_rect(a, b)
            except ExactOverflowError as exc:
                assert str(exc) == (
                    f"{a}x{b} binomial window exceeds the signed 128-bit range"
                )
                refused.add((a, b))
            except Built:
                pass
        assert refused == {
            (a, b)
            for a, b in itertools.product(peak, repeat=2)
            if peak[a] * peak[b] > INT128_MAX
        }

    def test_largest_gaussian_radius_builds(self):
        k = gaussian_kernel(33)
        assert max(k.weights.data) == math.comb(66, 33) ** 2
        with pytest.raises(ExactOverflowError, match="^69x69 binomial window"):
            gaussian_kernel(34)

    def test_float_weights_are_rounded_exact_quotients(self):
        # Each float weight is the exact weight over the divisor, rounded
        # once: as_float() of every window that builds exactly, and the same
        # quotient past the int128 edge, where no exact window builds.
        for a, b in [(1, 1), (1, 69), (2, 3), (7, 4), (67, 67)]:
            exact = gaussian_kernel_rect(a, b)
            assert gaussian_kernel_rect(a, b, ScalarMode.FLOAT) == exact.as_float()
        k = gaussian_kernel_rect(69, 70, ScalarMode.FLOAT)
        assert (k.divisor, k.height, k.width) == (1, 69, 70)
        assert k.weights.at(35, 35) == math.comb(68, 34) * math.comb(69, 34) / 2**137

    def test_float_windows_stop_at_400_collapses(self):
        assert gaussian_kernel_rect(201, 201, ScalarMode.FLOAT).weights.rows == 201
        with pytest.raises(
            DimensionError,
            match="^201x202 binomial window needs more than 400 collapses$",
        ):
            gaussian_kernel_rect(201, 202, ScalarMode.FLOAT)


class TestSampledKernel:
    def test_center_is_maximum(self):
        k = gaussian_kernel_sampled(2, 1.5)
        assert max(k.weights.data) == k.weights.at(3, 3)

    def test_symmetries(self):
        k = gaussian_kernel_sampled(2, 0.8)
        w = k.weights
        assert w == w.transpose()
        flipped = Matrix.from_rows([list(reversed(r)) for r in w.to_rows()[::-1]])
        assert w == flipped

    def test_wide_deviation_approaches_uniform(self):
        k = gaussian_kernel_sampled(1, 1e3)
        for x in k.weights.data:
            assert abs(x - 1 / 9) < 1e-4

    def test_unit_sum(self):
        k = gaussian_kernel_sampled(3, 2.0)
        assert abs(math.fsum(k.weights.data) - 1.0) <= 1e-12

    def test_nonpositive_deviation_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kernel_sampled(1, 0.0)


class TestInterpolationKernel:
    def test_zero_steps_is_box(self):
        for r in (0, 1, 2):
            k = interpolation_kernel(r, 0)
            b = box_kernel(r)
            assert k.weights == b.weights
            assert k.divisor == b.divisor

    def test_max_steps_is_gaussian(self):
        for r in (0, 1, 2):
            k = interpolation_kernel(r, 2 * r)
            g = gaussian_kernel(r)
            assert k.weights == g.weights
            assert k.divisor == g.divisor

    def test_intermediate_normalization(self):
        k = interpolation_kernel(2, 1)
        assert k.divisor == 64
        assert sum(k.weights.data) == 64

    def test_step_bound(self):
        with pytest.raises(ValueError):
            interpolation_kernel(2, 5)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_refused_exactly_when_a_weight_leaves_int128(self, data):
        r = data.draw(st.integers(0, 70), label="r")
        s = data.draw(st.integers(0, 2 * r), label="s")
        size = 2 * r + 1
        # Largest column sum of the falling band product, by the double sum.
        side = max(
            sum(math.comb(s, j - i) for i in range(size - s) if 0 <= j - i <= s)
            for j in range(size)
        )

        class Built(Exception):
            pass

        kernels = importlib.import_module("collapsum.kernels")
        with mock.patch.object(kernels, "binomial", side_effect=Built):
            with pytest.raises((ExactOverflowError, Built)) as caught:
                interpolation_kernel(r, s)
        if side * side > INT128_MAX:
            assert caught.type is ExactOverflowError
            assert str(caught.value) == (
                f"{size}x{size} binomial window exceeds the signed 128-bit range"
            )
        else:
            assert caught.type is Built
            assert max(interpolation_kernel(r, s).weights.data) == side * side


class TestKernelInvariants:
    def test_sum_must_match_divisor(self):
        with pytest.raises(ValueError):
            Kernel(Matrix.filled(3, 3, 1), 8)

    def test_float_kernels_carry_divisor_one(self):
        with pytest.raises(ValueError):
            Kernel(Matrix.filled(2, 2, 0.25), 2)

    def test_as_float_sums_to_one(self):
        k = gaussian_kernel(3).as_float()
        assert abs(math.fsum(k.weights.data) - 1.0) <= 1e-12


def refusal(extension):
    """The extension, or the type and message it was refused with."""
    try:
        return extension()
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def packed_extensions(draw):
    """A nonnegative exact plane (entries up to 2**k, k up to 127), the same
    plane packed in lanes with up to 8 spare bits (1 to 17 bytes), both
    correlated one time in two with a window of ones of up to 2x2 (so the
    packed one has a row stride wider than its columns), every edge, and
    margins of 0..4 on each side drawn independently, or -1 to be
    refused."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    b1, b2 = draw(st.integers(1, min(m, 2))), draw(st.integers(1, min(n, 2)))
    # A correlation multiplies the plane's maximum by up to 4.
    taps = b1 * b2 if draw(st.booleans()) else 1
    bits = draw(st.integers(0, 127) | st.just(127))
    entry = st.integers(0, min(2**bits, INT128_MAX // taps))
    a = Matrix(m, n, tuple(draw(st.lists(entry, min_size=m * n, max_size=m * n))))
    spare = draw(st.integers(0, 8))
    packed = _packed(a, taps << spare)
    if taps > 1:
        window = GammaSpec(Matrix.filled(b1, b2, 1))
        a = generalized_collapse(a, window)
        packed = generalized_collapse(packed, window)
    margins = draw(st.lists(st.integers(-1, 4), min_size=4, max_size=4))
    return a, packed, margins, draw(st.sampled_from(list(EdgeMode)))


class TestExtend:
    def test_zero_radius(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        assert extend(a, 0, EdgeMode.ZERO) is a

    def test_zero_fill(self):
        out = extend(Matrix.from_rows([[5]]), 1, EdgeMode.ZERO)
        assert out.to_rows() == [[0, 0, 0], [0, 5, 0], [0, 0, 0]]

    def test_replicate(self):
        out = extend(Matrix.from_rows([[1, 2], [3, 4]]), 1, EdgeMode.REPLICATE)
        assert out.to_rows() == [
            [1, 1, 2, 2],
            [1, 1, 2, 2],
            [3, 3, 4, 4],
            [3, 3, 4, 4],
        ]

    def test_mirror_skips_the_edge_entry(self):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        out = extend(a, 1, EdgeMode.MIRROR)
        assert out.to_rows() == [
            [5, 4, 5, 6, 5],
            [2, 1, 2, 3, 2],
            [5, 4, 5, 6, 5],
            [8, 7, 8, 9, 8],
            [5, 4, 5, 6, 5],
        ]

    def test_crop_rejected(self):
        with pytest.raises(ValueError):
            extend(Matrix.from_rows([[1]]), 1, EdgeMode.CROP)

    def test_mirror_radius_bound(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(DimensionError):
            extend(a, 2, EdgeMode.MIRROR)

    @pytest.mark.parametrize(
        "mode", [EdgeMode.ZERO, EdgeMode.REPLICATE, EdgeMode.MIRROR]
    )
    def test_asymmetric_margins_match_line_by_line_extension(self, mode):
        def line(values, before, after, zero):
            if mode is EdgeMode.ZERO:
                return [zero] * before + values + [zero] * after
            if mode is EdgeMode.REPLICATE:
                return [values[0]] * before + values + [values[-1]] * after
            return values[before:0:-1] + values + values[-2 : -2 - after : -1]

        rng = random.Random(97)
        for m, n in itertools.product(range(1, 4), range(1, 5)):
            exact = random_matrix(rng, m, n, -9, 9)
            for a in (exact, exact.to_float()):
                zero = 0.0 if a.mode is ScalarMode.FLOAT else 0
                for t, b, l, r in itertools.product(range(3), repeat=4):
                    too_wide = max(t, b) >= m or max(l, r) >= n
                    if mode is EdgeMode.MIRROR and too_wide:
                        with pytest.raises(DimensionError):
                            extend_asym(a, t, b, l, r, mode)
                        continue
                    wide = [line(row, l, r, zero) for row in a.to_rows()]
                    cols = [line(list(c), t, b, zero) for c in zip(*wide)]
                    out = extend_asym(a, t, b, l, r, mode)
                    assert out.mode is a.mode
                    assert out.to_rows() == [list(x) for x in zip(*cols)]
                    assert all(type(v) is type(zero) for v in out.data)
                    assert out.span == (min(out.data), max(out.data))

    @settings(max_examples=300, deadline=None)
    @given(packed_extensions())
    def test_packed_extension_matches_the_matrix_loop(self, case):
        # A packed plane is extended on its lane bytes: unpacked, it equals
        # the matrix extension, in the lanes and under the bound it had,
        # and both operands are refused alike.
        a, packed, margins, mode = case
        assert _unpacked(packed) == a
        expected = refusal(lambda: extend_asym(a, *margins, mode))
        out = refusal(lambda: extend_asym(packed, *margins, mode))
        if isinstance(expected, tuple):
            assert out == expected
            return
        assert isinstance(out, _Packed)
        assert out.bits == packed.bits
        assert _unpacked(out) == expected


class TestFilterResult:
    def test_to_matrix_divides_an_exact_numerator(self):
        out = FilterResult(Matrix.from_rows([[1, 2], [3, -4]]), 4).to_matrix()
        assert out.mode is ScalarMode.FLOAT
        assert out.data == (0.25, 0.5, 0.75, -1.0)

    def test_exact_refuses_a_float_numerator(self):
        result = FilterResult(Matrix.from_rows([[1.0, 2.0]]), 1)
        with pytest.raises(ValueError) as err:
            result.exact()
        assert type(err.value) is ValueError
        assert str(err.value) == "exact() requires an exact-mode numerator"

    def test_exact_refuses_an_entry_with_a_remainder(self):
        result = FilterResult(Matrix.from_rows([[4, 6, 7, 8]]), 2)
        with pytest.raises(ValueError) as err:
            result.exact()
        assert type(err.value) is ValueError
        assert str(err.value) == "entry 7 is not divisible by 2"


class TestConvolveCrop:
    def test_identity_kernel(self):
        rng = random.Random(113)
        a = random_matrix(rng, 4, 5)
        out = convolve_crop(gaussian_kernel(0), a)
        assert out.numerator == a
        assert out.divisor == 1

    def test_weighted_center(self):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        out = convolve_crop(gaussian_kernel(1), a)
        assert out.numerator.to_rows() == [[80]]
        assert out.divisor == 16
        assert out.exact().to_rows() == [[5]]

    def test_kernel_is_flipped(self):
        # Weight sitting right of the anchor must read the entry LEFT of
        # the output position; an unflipped scan would read the right one.
        k = Kernel(Matrix.from_rows([[0, 1]]), 1)
        a = Matrix.from_rows([[7, 9]])
        assert convolve_crop(k, a).numerator.to_rows() == [[7]]
        assert correlate_unflipped(k, a) == [[9]]

    def test_symmetric_kernels_match_unflipped_reference(self):
        rng = random.Random(127)
        a = random_matrix(rng, 6, 6)
        for k in (gaussian_kernel(1), box_kernel(2), gaussian_kernel(2)):
            out = convolve_crop(k, a)
            assert out.numerator.to_rows() == correlate_unflipped(k, a)

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            convolve_crop(gaussian_kernel(2), Matrix.filled(3, 3, 1))

    def test_output_dimension_lattice(self):
        rng = random.Random(131)
        for kh in range(1, 6):
            for kw in range(1, 6):
                weights = Matrix.filled(kh, kw, 1)
                k = Kernel(weights, kh * kw)
                for m in range(kh, 10):
                    for n in range(kw, 10):
                        out = convolve_crop(k, random_matrix(rng, m, n, 0, 9))
                        shape = (out.numerator.rows, out.numerator.cols)
                        assert shape == (m - kh + 1, n - kw + 1)


class TestConvolve:
    def test_crop_mode_delegates(self):
        rng = random.Random(137)
        a = random_matrix(rng, 5, 5)
        k = gaussian_kernel(1)
        assert convolve(k, a, EdgeMode.CROP) == convolve_crop(k, a)

    def test_constant_preserved_under_replicate(self):
        a = Matrix.filled(4, 6, 37)
        for k in (gaussian_kernel(1), box_kernel(2), interpolation_kernel(2, 1)):
            out = convolve(k, a, EdgeMode.REPLICATE)
            assert out.exact() == a

    def test_zero_extension_keeps_center_weight_only(self):
        out = convolve(gaussian_kernel(1), Matrix.from_rows([[16]]), EdgeMode.ZERO)
        assert out.exact().to_rows() == [[4]]

    def test_extension_preserves_shape(self):
        rng = random.Random(139)
        a = random_matrix(rng, 5, 7)
        for mode in (EdgeMode.REPLICATE, EdgeMode.MIRROR, EdgeMode.ZERO):
            out = convolve(gaussian_kernel(2), a, mode)
            assert (out.numerator.rows, out.numerator.cols) == (5, 7)


class TestSeparable:
    def test_radius_zero_crop(self):
        rng = random.Random(149)
        a = random_matrix(rng, 3, 3)
        out = separable_convolve(1, 1, a, EdgeMode.CROP)
        assert out.numerator == a
        assert out.divisor == 1

    def test_exact_agreement_with_direct(self):
        rng = random.Random(151)
        a = random_matrix(rng, 5, 5)
        direct = convolve(gaussian_kernel(1), a, EdgeMode.CROP)
        sep = separable_convolve(3, 3, a, EdgeMode.CROP)
        assert sep.numerator == direct.numerator
        assert sep.divisor == direct.divisor

    def test_float_agreement_with_direct(self):
        rng = random.Random(157)
        a = random_matrix(rng, 8, 8).to_float()
        direct = convolve(gaussian_kernel(2), a, EdgeMode.REPLICATE)
        sep = separable_convolve(5, 5, a, EdgeMode.REPLICATE)
        assert approx_equal(sep.to_matrix(), direct.to_matrix(), 1e-12)

    def test_exact_agreement_under_extension(self):
        rng = random.Random(163)
        a = random_matrix(rng, 6, 9)
        for mode in (EdgeMode.REPLICATE, EdgeMode.MIRROR, EdgeMode.ZERO):
            direct = convolve(gaussian_kernel(2), a, mode)
            sep = separable_convolve(5, 5, a, mode)
            assert sep == direct
