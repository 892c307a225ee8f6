import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from collapsum.algebra import add, approx_equal, multiply
from collapsum.matrix import (
    INT128_MAX,
    INT128_MIN,
    DimensionError,
    ExactOverflowError,
    Matrix,
    ScalarMode,
    round_half_away,
    scale,
)


def random_matrix(rng, rows, cols, lo=-50, hi=50):
    return Matrix(
        rows,
        cols,
        tuple(rng.randint(lo, hi) for _ in range(rows * cols)),
        ScalarMode.EXACT,
    )


class TestConstruction:
    def test_from_rows(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        assert (a.rows, a.cols) == (2, 2)
        assert a.at(1, 1) == 1
        assert a.at(2, 2) == 4

    def test_single_entry(self):
        a = Matrix.from_rows([[5]])
        assert (a.rows, a.cols) == (1, 1)
        assert a.at(1, 1) == 5

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            Matrix.from_rows([[1, 2], [3]])

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            Matrix.from_rows([])

    def test_mode_inference(self):
        assert Matrix.from_rows([[1, 2]]).mode is ScalarMode.EXACT
        assert Matrix.from_rows([[1.0, 2]]).mode is ScalarMode.FLOAT

    def test_data_length_enforced(self):
        with pytest.raises(DimensionError):
            Matrix(2, 2, (1, 2, 3), ScalarMode.EXACT)

    def test_at_is_one_based(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(IndexError):
            a.at(0, 1)
        with pytest.raises(IndexError):
            a.at(2, 3)


class TestOverflow:
    def test_construction_overflow(self):
        with pytest.raises(ExactOverflowError):
            Matrix(1, 1, (2**127,), ScalarMode.EXACT)

    def test_scale_overflow(self):
        a = Matrix(1, 1, (2**126,), ScalarMode.EXACT)
        with pytest.raises(ExactOverflowError):
            scale(4, a)

    def test_add_overflow(self):
        a = Matrix(1, 1, (INT128_MAX,), ScalarMode.EXACT)
        with pytest.raises(ExactOverflowError):
            add(a, a)

    def test_boundary_values_allowed(self):
        Matrix(1, 2, (INT128_MAX, -(2**127)), ScalarMode.EXACT)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mode = draw(st.sampled_from(ScalarMode))
    entries = (
        st.integers(INT128_MIN, INT128_MAX)
        if mode is ScalarMode.EXACT
        else st.floats(allow_nan=False)
    )
    data = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    return Matrix(rows, cols, tuple(data), mode)


class TestSpan:
    @given(matrices())
    @example(Matrix(1, 1, (INT128_MIN,)))
    @example(Matrix(1, 1, (-0.5,), ScalarMode.FLOAT))
    def test_span_is_min_and_max(self, a):
        # Exact matrices measure the span when built, float ones on demand.
        assert ("span" in vars(a)) is (a.mode is ScalarMode.EXACT)
        twin = Matrix(a.rows, a.cols, a.data, a.mode)
        assert a.span == (min(a.data), max(a.data))
        assert a == twin and hash(a) == hash(twin)
        assert repr(a) == repr(twin)
        restored = pickle.loads(pickle.dumps(a))
        assert restored == twin and restored.span == a.span
        first = a.data[0]
        replaced = a._replace(data=(first,) * len(a.data))
        assert replaced.span == (first, first)

    def test_span_is_read_only(self):
        a = Matrix.from_rows([[1, 2]])
        with pytest.raises(AttributeError):
            a.span = (0, 0)


class TestAdd:
    def test_small(self):
        assert add(Matrix.from_rows([[1]]), Matrix.from_rows([[2]])).to_rows() == [[3]]

    def test_zero_identity(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        z = Matrix.filled(2, 2, 0)
        assert add(a, z) == a

    def test_entrywise(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[4, 3], [2, 1]])
        assert add(a, b).to_rows() == [[5, 5], [5, 5]]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            add(Matrix.from_rows([[1]]), Matrix.from_rows([[1, 2]]))

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            add(Matrix.from_rows([[1]]), Matrix.from_rows([[1.0]]))

    def test_commutative_and_associative(self):
        rng = random.Random(61)
        for _ in range(20):
            a = random_matrix(rng, 6, 6)
            b = random_matrix(rng, 6, 6)
            c = random_matrix(rng, 6, 6)
            assert add(a, b) == add(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))


class TestScale:
    def test_zero(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        assert scale(0, a) == Matrix.filled(2, 2, 0)

    def test_one(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        assert scale(1, a) == a

    def test_two(self):
        assert scale(2, Matrix.from_rows([[1, 2]])).to_rows() == [[2, 4]]

    def test_float_coefficient_needs_float_matrix(self):
        with pytest.raises(ValueError):
            scale(0.5, Matrix.from_rows([[2]]))
        assert scale(0.5, Matrix.from_rows([[2.0]])).to_rows() == [[1.0]]

    @given(
        st.integers(-10, 10),
        st.lists(st.integers(-100, 100), min_size=6, max_size=6),
        st.lists(st.integers(-100, 100), min_size=6, max_size=6),
    )
    def test_distributes_over_add(self, c, xs, ys):
        a = Matrix(2, 3, tuple(xs), ScalarMode.EXACT)
        b = Matrix(2, 3, tuple(ys), ScalarMode.EXACT)
        assert scale(c, add(a, b)) == add(scale(c, a), scale(c, b))


class TestTranspose:
    def test_small(self):
        assert Matrix.from_rows([[1, 2], [3, 4]]).transpose().to_rows() == [
            [1, 3],
            [2, 4],
        ]

    def test_row_to_column(self):
        assert Matrix.from_rows([[1, 2, 3]]).transpose().to_rows() == [[1], [2], [3]]

    def test_involution(self):
        rng = random.Random(7)
        a = random_matrix(rng, 5, 7)
        assert a.transpose().transpose() == a


class TestMultiply:
    def test_identity(self):
        rng = random.Random(11)
        a = random_matrix(rng, 3, 4)
        assert multiply(Matrix.identity(3), a) == a

    def test_pair_sum_product(self):
        # Two adjacent band matrices multiply into the binomial band.
        a = Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
        b = Matrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
        assert multiply(a, b).to_rows() == [[1, 2, 1, 0], [0, 1, 2, 1]]

    def test_row_times_column(self):
        row = Matrix.from_rows([[1, 1]])
        col = Matrix.from_rows([[1], [1]])
        assert multiply(row, col).to_rows() == [[2]]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            multiply(Matrix.from_rows([[1, 2]]), Matrix.from_rows([[1, 2]]))

    def test_float_matrices_give_a_float_product(self):
        row = Matrix.from_rows([[0.5, 1.5]])
        col = Matrix.from_rows([[2.0], [4.0]])
        out = multiply(col, row)
        assert out.mode is ScalarMode.FLOAT
        assert out.data == (1.0, 3.0, 2.0, 6.0)
        assert all(type(x) is float for x in out.data)

    def test_associative(self):
        rng = random.Random(13)
        for _ in range(10):
            a = random_matrix(rng, 3, 4, -9, 9)
            b = random_matrix(rng, 4, 2, -9, 9)
            c = random_matrix(rng, 2, 5, -9, 9)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


class TestBlock:
    def test_whole_matrix(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        assert a.block(1, 1, 2, 2) == a

    def test_bottom_corner(self):
        assert Matrix.from_rows([[1, 2], [3, 4]]).block(2, 2, 1, 1).to_rows() == [[4]]

    def test_top_left_of_3x3(self):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert a.block(1, 1, 2, 2).to_rows() == [[1, 2], [4, 5]]

    def test_out_of_bounds(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(DimensionError):
            a.block(2, 2, 2, 1)


class TestApproxEqual:
    def test_exact_match(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        assert approx_equal(a, a, 0)

    def test_within_tolerance(self):
        a = Matrix.from_rows([[1.0]])
        b = Matrix.from_rows([[1.0 + 5e-10]])
        assert approx_equal(a, b, 1e-9)

    def test_outside_tolerance(self):
        assert not approx_equal(
            Matrix.from_rows([[1]]), Matrix.from_rows([[2]]), 0.5
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            approx_equal(Matrix.from_rows([[1]]), Matrix.from_rows([[1, 2]]), 0)


# Divisors up to 2**130: powers of two, odd and even.
DIVISORS = st.one_of(
    st.integers(0, 130).map(lambda k: 2**k),
    st.integers(0, 2**129 - 1).map(lambda k: 2 * k + 1),
    st.integers(1, 2**129).map(lambda k: 2 * k),
)


@st.composite
def quotients(draw):
    """A signed int128 dividend and a divisor; half the dividends lie
    within one of a tie, where rounding half away from zero decides."""
    d = draw(DIVISORS)
    if draw(st.booleans()):
        x = draw(st.integers(INT128_MIN, INT128_MAX))
    else:
        q = draw(st.integers(0, INT128_MAX // d))
        x = (q * d + d // 2 + draw(st.integers(-1, 1))) * draw(st.sampled_from([1, -1]))
        x = min(max(x, INT128_MIN), INT128_MAX)
    return x, d


class TestRoundHalfAway:
    @given(quotients())
    def test_matches_exact_fraction(self, case):
        x, d = case
        q = Fraction(x, d)
        expected = math.floor(abs(q) + Fraction(1, 2))
        if q < 0:
            expected = -expected
        out = round_half_away(Matrix(1, 1, (x,)), d)
        assert out.data == (expected,)
        assert out.span == (expected, expected)
