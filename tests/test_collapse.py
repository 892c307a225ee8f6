import contextlib
import importlib
import itertools
import math
import random

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from collapsum.algebra import add, multiply
from collapsum.collapse import (
    GammaSpec,
    collapse,
    collapse_down,
    collapse_down_power,
    collapse_power,
    collapse_right,
    collapse_right_power,
    generalized_collapse,
    generalized_collapse_power,
)
from collapsum.kernels import (
    EdgeMode,
    Kernel,
    coefficient_matrix,
    convolve_crop,
    extend_asym,
)
from collapsum.matrix import (
    INT128_MAX,
    INT128_MIN,
    DimensionError,
    ExactOverflowError,
    Matrix,
    ScalarMode,
    scale,
)
from collapsum.nd import NdArray, collapse_all, collapse_axis
from collapsum.structured import r_falling, r_phi_falling


def random_matrix(rng, rows, cols, lo=-50, hi=50):
    return Matrix(
        rows,
        cols,
        tuple(rng.randint(lo, hi) for _ in range(rows * cols)),
        ScalarMode.EXACT,
    )


def per_entry_correlation(a, w):
    """Reference window loop: output (p, q) starts from a typed zero and
    adds w(i, j) * a(p+i, q+j) in row-major tap order."""
    b1, b2, n = w.rows, w.cols, a.cols
    zero = 0.0 if a.mode is ScalarMode.FLOAT else 0
    out = []
    for p in range(a.rows - b1 + 1):
        for q in range(n - b2 + 1):
            acc = zero
            k = 0
            for i in range(b1):
                for j in range(b2):
                    acc += w.data[k] * a.data[(p + i) * n + q + j]
                    k += 1
            out.append(acc)
    return tuple(out)


# The package's ``collapse`` attribute is the function, not this module.
collapse_module = importlib.import_module("collapsum.collapse")
# The largest signed 64-bit value: the edge tables place entries around it.
LANE_MAX = 2**63 - 1
LANE_SEVENTH = LANE_MAX // 7
# The largest bound that 32-bit lanes hold.
NARROW_MAX = 2**31 - 1


def lane_bits(bound):
    """The lane width that values in [0, bound] take by the definition: 8L
    bits for the narrowest whole number of bytes L >= 1 with
    bound < 2**(8L)."""
    size = 1
    while not bound < 2 ** (8 * size):
        size += 1
    return 8 * size


def signed_entries(bits):
    """Integers within +-2**bits, clipped to int128."""
    return st.integers(-(2**bits), min(2**bits, INT128_MAX))


def nonnegative_entries(bits):
    """Integers in [0, 2**bits], clipped to int128."""
    return st.integers(0, min(2**bits, INT128_MAX))


def lane_bound(a, w):
    """B = max(max|a| * sum|w|, max|a|, sum|w|), by the definition."""
    top, total = max(abs(x) for x in a.data), sum(abs(x) for x in w.data)
    return max(top * total, top, total)


def correlation_bits(a, w):
    """The lane width of a correlation; none when the input or the window
    has a negative entry, which runs unpacked."""
    if min(a.data + w.data) < 0:
        return None
    return lane_bits(lane_bound(a, w))


@st.composite
def correlation_cases(draw, bits=st.integers(0, 100), nonnegative=st.booleans()):
    """An input and a window of one scalar mode, exact when drawn
    ``nonnegative`` (then no entry or weight is negative).  Exact entries
    are drawn up to 2**k with k itself drawn from ``bits``, so the lane
    bound falls on both sides of 2**31 and of 2**63."""
    nonnegative = draw(nonnegative)
    b1, b2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    m = draw(st.integers(b1, b1 + 4))
    n = draw(st.integers(b2, b2 + 4))
    mode = ScalarMode.EXACT if nonnegative else draw(st.sampled_from(ScalarMode))
    if mode is ScalarMode.EXACT:
        weight = st.integers(0 if nonnegative else -(2**27), 2**27)
        entry = (nonnegative_entries if nonnegative else signed_entries)(draw(bits))
    else:
        weight = entry = st.just(-0.0) | st.floats(-1e6, 1e6)

    def entries(size, values):
        return tuple(draw(st.lists(values, min_size=size, max_size=size)))

    w = Matrix(b1, b2, entries(b1 * b2, weight), mode)
    return Matrix(m, n, entries(m * n, entry), mode), w


def assert_entries(run, expected, mode):
    # repr shows the value types and the sign of zero; exact results that
    # leave int128 must raise instead.  A result's span is its exact
    # (min, max).
    if mode is ScalarMode.EXACT and not (
        INT128_MIN <= min(expected) and max(expected) <= INT128_MAX
    ):
        with pytest.raises(ExactOverflowError):
            run()
    else:
        out = run()
        assert repr(out.data) == repr(expected)
        assert out.span == (min(expected), max(expected))


def basis(rows, cols, p, q):
    """Matrix that is 1 at 1-based (p, q) and 0 elsewhere."""
    data = [0] * (rows * cols)
    data[(p - 1) * cols + (q - 1)] = 1
    return Matrix(rows, cols, tuple(data), ScalarMode.EXACT)


@contextlib.contextmanager
def counted_calls(name):
    """Record the arguments of every call of a private collapse helper."""
    calls = []
    original = getattr(collapse_module, name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            collapse_module, name, lambda *args: calls.append(args) or original(*args)
        )
        yield calls


# Passes down and right that one step of each collapse power runs.
POWER_PASSES = {
    collapse_power: (1, 1),
    collapse_down_power: (1, 0),
    collapse_right_power: (0, 1),
}
LANE_QUARTER = LANE_MAX >> 2
LANE_EIGHTH = LANE_MAX >> 3
# Lane widths in bits that the drawn cases reach: native items of 1, 4
# and 8 bytes, scattered bytes of 2, 3 and 9.
LANE_WIDTHS = (8, 16, 24, 32, 64, 72)
# Only nonnegative planes pack, so the cases that cover every lane width
# draw them 7 times in 8.
MOSTLY_NONNEGATIVE = st.sampled_from([True] * 7 + [False])


def nonnegative_power_edges():
    """Nonnegative planes around the edges of k-byte lanes: constant planes
    with B = max(a) * 4 = 2**(8k) - 4 (the last B in k bytes after two
    passes) and 2**(8k), every power in turn; then B around 2**127."""
    powers = [
        (collapse_power, 3, 3, 1),
        (collapse_down_power, 3, 2, 2),
        (collapse_right_power, 2, 3, 2),
    ]
    for i, k in enumerate((1, 2, 3, 4, 5, 8)):
        power, rows, cols, s = powers[i % 3]
        for top in (2 ** (8 * k) - 4, 2 ** (8 * k)):
            yield power, [[top >> 2] * cols] * rows, s, True
    # B = 2**127 - 4 in 16-byte lanes, and 2**127, which leaves int128.
    yield collapse_power, [[2**125 - 1] * 3] * 3, 1, True
    yield collapse_power, [[2**125] * 3] * 3, 1, True
    # B = 2**127 with every kept entry in range: the last one, and a
    # dropped lane (a pass right wrapping onto the next row) at 2**127.
    yield collapse_down_power, [[2**126], [2**126 - 1]], 1, True
    yield collapse_right_power, [[0, 2**126], [2**126, 0]], 1, True
    # B = 2**128, in 17-byte lanes, with the result in range.
    yield collapse_power, [[2**126, 0], [0, 0]], 1, True
    # An all-zero plane takes 1-byte lanes.
    yield collapse_right_power, [[0] * 4] * 2, 3, True


def nonnegative_correlation_edges():
    """Nonnegative inputs and windows with B = 2**(8k) - 1 (every output
    3t) and B = 2**(8k) (every output 2t), row and column windows in turn;
    then B around 2**127."""
    for k in (1, 2, 3, 4, 5, 8):
        last, first = (2 ** (8 * k) - 1) // 3, 2 ** (8 * k - 1)
        if k % 2:
            yield [[last] * 3] * 2, [[1, 2]], True
            yield [[first] * 3] * 2, [[1, 1]], True
        else:
            yield [[last] * 2] * 3, [[1], [2]], True
            yield [[first] * 2] * 3, [[1], [1]], True
    # B = 2**127 - 1 in 16-byte lanes, from the input and from the window.
    yield [[INT128_MAX, 0], [0, 5]], [[1]], True
    yield [[1, 1, 1]], [[2**126, 2**126 - 1]], True
    # B = 2**127 with every kept entry in range: the last one, and a
    # dropped lane (the window wrapping onto the next row) at 2**127.
    yield [[2**126], [2**126 - 1]], [[1], [1]], True
    yield [[0, 2**126], [2**126, 0]], [[1, 1]], True
    # B = 2**128, in 17-byte lanes, with the result in range.
    yield [[2**126, 0, 0]], [[1, 2, 1]], True
    # An all-zero input and window take 1-byte lanes.
    yield [[0] * 3] * 2, [[0, 0]], True


def pair_sum_powers(a, down, right):
    """Reference: ``down`` vertical then ``right`` horizontal pair sums,
    entry by entry."""
    rows = a.to_rows()
    for _ in range(down):
        rows = [
            [rows[i][j] + rows[i + 1][j] for j in range(len(rows[i]))]
            for i in range(len(rows) - 1)
        ]
    for _ in range(right):
        rows = [[r[j] + r[j + 1] for j in range(len(r) - 1)] for r in rows]
    return tuple(x for r in rows for x in r)


def power_bound(a, passes):
    """B = max|a| * 2**passes, by the definition."""
    return max(abs(x) for x in a.data) * 2**passes


def power_bits(a, passes):
    """The lane width of a collapse power, whose lanes hold B; none when
    the plane has a negative entry, which runs unpacked."""
    if min(a.data) < 0:
        return None
    return lane_bits(power_bound(a, passes))


def per_pass_powers(a, power, s):
    """Reference: the passes of ``power(a, s)`` entry by entry, in the order
    it runs them (each full collapse goes down, then right); None when one
    of them leaves int128, where the unpacked loop's per-pass scan raises."""
    down, right = POWER_PASSES[power]
    rows = a.to_rows()
    for _ in range(s):
        for step in ["down"] * down + ["right"] * right:
            if step == "down":
                rows = [[x + y for x, y in zip(r, q)] for r, q in zip(rows, rows[1:])]
            else:
                rows = [[x + y for x, y in zip(r, r[1:])] for r in rows]
            flat = [x for r in rows for x in r]
            if not (INT128_MIN <= min(flat) and max(flat) <= INT128_MAX):
                return None
    return tuple(x for r in rows for x in r)


@st.composite
def power_cases(draw, bits=st.integers(0, 100), nonnegative=st.booleans()):
    """An exact plane, a collapse power and any valid s.  Entries are drawn
    up to 2**k with k itself drawn from ``bits``, so B falls on both sides
    of 2**31 and of 2**63; with the default every result stays far inside
    int128.  When drawn ``nonnegative``, no entry is negative."""
    power = draw(st.sampled_from(sorted(POWER_PASSES, key=lambda f: f.__name__)))
    down, right = POWER_PASSES[power]
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = nonnegative_entries if draw(nonnegative) else signed_entries
    data = draw(st.lists(entries(draw(bits)), min_size=m * n, max_size=m * n))
    s = draw(st.integers(0, min(m if down else n, n if right else m) - 1))
    return Matrix(m, n, tuple(data)), power, s


class TestDirectional:
    def test_down_symbolic_via_basis(self):
        # Tracking each basis vector shows which inputs feed each output:
        # entry (i, j) must be input (i, j) plus input (i+1, j).
        for p in range(1, 3):
            for q in range(1, 3):
                out = collapse_down(basis(2, 2, p, q))
                expected = [[0, 0]]
                expected[0][q - 1] = 1
                assert out.to_rows() == expected

    def test_down_values(self):
        assert collapse_down(Matrix.from_rows([[1, 2], [3, 4]])).to_rows() == [[4, 6]]

    def test_down_single_row_rejected(self):
        with pytest.raises(DimensionError):
            collapse_down(Matrix.from_rows([[1, 2]]))

    def test_right_values(self):
        assert collapse_right(Matrix.from_rows([[1, 2], [3, 4]])).to_rows() == [
            [3],
            [7],
        ]

    def test_right_single_column_rejected(self):
        with pytest.raises(DimensionError):
            collapse_right(Matrix.from_rows([[1], [2]]))

    def test_right_is_transposed_down(self):
        rng = random.Random(17)
        a = random_matrix(rng, 4, 5)
        assert collapse_right(a) == collapse_down(a.transpose()).transpose()

    @pytest.mark.parametrize("op", [collapse_down, collapse_right],
                             ids=["down", "right"])
    @pytest.mark.parametrize(
        "x, y, overflows",
        [
            (2**126, 2**126, True),
            (2**126, 2**126 - 1, False),
            (-(2**126), -(2**126) - 1, True),
            (-(2**126), -(2**126), False),
        ],
        ids=["max+1", "max", "min-1", "min"],
    )
    def test_sum_at_the_int128_edge(self, op, x, y, overflows):
        a = Matrix(2, 1, (x, y)) if op is collapse_down else Matrix(1, 2, (x, y))
        if overflows:
            with pytest.raises(ExactOverflowError):
                op(a)
        else:
            assert op(a).data == (x + y,)


class TestCollapse:
    def test_2x2(self):
        assert collapse(Matrix.from_rows([[1, 2], [3, 4]])).to_rows() == [[10]]

    def test_all_ones_3x3(self):
        assert collapse(Matrix.filled(3, 3, 1)).to_rows() == [[4, 4], [4, 4]]

    def test_row_vector_rejected(self):
        with pytest.raises(DimensionError):
            collapse(Matrix.from_rows([[1, 2, 3, 4, 5]]))

    def test_order_of_directions_commutes(self):
        rng = random.Random(23)
        for m in range(2, 9):
            for n in range(2, 9):
                a = random_matrix(rng, m, n)
                assert collapse_down(collapse_right(a)) == collapse_right(
                    collapse_down(a)
                )

    def test_linearity(self):
        rng = random.Random(29)
        for op in (collapse, collapse_down, collapse_right):
            a = random_matrix(rng, 5, 6)
            b = random_matrix(rng, 5, 6)
            assert op(add(a, b)) == add(op(a), op(b))
            assert op(scale(7, a)) == scale(7, op(a))

    def test_transpose_law(self):
        rng = random.Random(31)
        a = random_matrix(rng, 4, 6)
        assert collapse(a.transpose()) == collapse(a).transpose()


class TestPowers:
    def test_zero_power_is_identity(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        assert collapse_power(a, 0) == a
        assert collapse_down_power(a, 0) == a
        assert collapse_right_power(a, 0) == a

    def test_identity_collapses_to_central_binomial(self):
        assert collapse_power(Matrix.identity(3), 2).to_rows() == [[6]]

    def test_power_matches_iteration(self):
        rng = random.Random(37)
        a = random_matrix(rng, 4, 4)
        manual = collapse(collapse(collapse(a)))
        assert collapse_power(a, 3) == manual

    def test_down_power_single_step(self):
        rng = random.Random(41)
        a = random_matrix(rng, 4, 3)
        assert collapse_down_power(a, 1) == collapse_down(a)

    def test_down_power_matches_band_product(self):
        rng = random.Random(43)
        a = random_matrix(rng, 5, 3)
        assert collapse_down_power(a, 4) == multiply(r_falling(5, 4), a)

    @pytest.mark.parametrize(
        "power, s, message",
        [
            (collapse_power, 3, "cannot collapse a 3x5 matrix 3 times"),
            (collapse_down_power, 3, "cannot collapse 3 rows down 3 times"),
            (collapse_right_power, 5, "cannot collapse 5 columns right 5 times"),
        ],
        ids=["collapse", "down", "right"],
    )
    def test_power_bounds(self, power, s, message):
        a = Matrix.filled(3, 5, 1)
        with pytest.raises(DimensionError, match=f"^{message}$"):
            power(a, s)
        with pytest.raises(ValueError, match="^collapse power must be nonnegative$"):
            power(a, -1)
        power(a, s - 1)  # one less is the last valid power

    def test_output_dimensions_across_lattice(self):
        rng = random.Random(47)
        for m in range(2, 7):
            for n in range(2, 7):
                a = random_matrix(rng, m, n)
                for s in range(min(m, n)):
                    out = collapse_power(a, s)
                    assert (out.rows, out.cols) == (m - s, n - s)

    def test_locality_on_blocks(self):
        rng = random.Random(53)
        a = random_matrix(rng, 6, 7)
        for s in range(1, 6):
            out = collapse_power(a, s)
            for p in range(1, out.rows + 1):
                for q in range(1, out.cols + 1):
                    sub = a.block(p, q, s + 1, s + 1)
                    assert out.at(p, q) == collapse_power(sub, s).at(1, 1)

    @settings(max_examples=200, deadline=None)
    @given(power_cases(nonnegative=MOSTLY_NONNEGATIVE))
    def test_powers_match_per_index_pair_sums(self, case):
        a, power, s = case
        down, right = POWER_PASSES[power]
        bits = power_bits(a, (down + right) * s) if s else None
        with counted_calls("_unpacked") as calls:
            out = power(a, s)
        assert (out.rows, out.cols) == (a.rows - down * s, a.cols - right * s)
        assert out.data == pair_sum_powers(a, down * s, right * s)
        # The packed plane unpacked at the end has the lanes that ran.
        assert [call[0].bits for call in calls] == ([bits] if bits else [])

    @pytest.mark.parametrize("packed", [True, False])
    def test_power_cases_straddle_the_lane_bound(self, packed):
        # The cases above run in lanes of every width in LANE_WIDTHS, and
        # unpacked.
        def width(case):
            a, power, s = case
            return power_bits(a, sum(POWER_PASSES[power]) * s) if s else None

        for bits in LANE_WIDTHS if packed else (None,):
            find(power_cases(nonnegative=MOSTLY_NONNEGATIVE),
                 lambda case: width(case) == bits,
                 settings=settings(database=None, derandomize=True,
                                   phases=[Phase.generate], max_examples=1000))

    # B = max|a| * 2**passes.  A nonnegative plane packs at any B, in
    # lanes that hold B, when s >= 1; a plane with a negative entry runs
    # the pair-sum loop.  The cases keep B on both sides of 2**63 - 1 and
    # of 2**31 - 1, and the last column, part of each case's id, labels
    # those with s >= 1 and B <= 2**63 - 1 or no negative entry.
    @pytest.mark.parametrize(
        "power, rows, s, label",
        [
            (collapse_power, [[LANE_QUARTER] * 2 + [0]] * 2
             + [[0, 0, -LANE_QUARTER]], 1, True),
            (collapse_down_power, [[LANE_EIGHTH]] * 4 + [[-LANE_EIGHTH]], 3, True),
            (collapse_right_power, [[LANE_EIGHTH] * 4 + [-LANE_EIGHTH]] * 2,
             3, True),
            # B = 2**63.
            (collapse_power, [[LANE_QUARTER + 1] * 2 + [0]] * 2
             + [[0, 0, -LANE_QUARTER]], 1, False),
            (collapse_down_power, [[LANE_EIGHTH]] * 4 + [[-LANE_EIGHTH - 1]],
             3, False),
            (collapse_right_power, [[-LANE_EIGHTH - 1] * 5], 3, False),
            # A negative minimum.
            (collapse_power, [[-5, 3, -7], [2, -1, 4], [0, 6, -2]], 2, True),
            # Constant planes give c * 2**passes.
            (collapse_power, [[-3] * 5] * 4, 3, True),
            (collapse_down_power, [[11] * 3] * 4, 2, True),
            (collapse_power, [[0] * 3] * 3, 2, True),
            # One-column results.
            (collapse_power, [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]],
             2, True),
            (collapse_right_power, [[1, -2, 3, -4], [5, 6, 7, 8]], 3, True),
            # s = 0 returns the input.
            (collapse_power, [[1, 2], [3, 4]], 0, False),
            (collapse_down_power, [[2**126], [-(2**127)]], 0, False),
            # Results that leave int128 must raise.
            (collapse_power, [[2**126, 2**126], [0, 0]], 1, True),
            (collapse_down_power, [[-(2**126)], [-(2**126) - 1]], 1, False),
            (collapse_right_power, [[2**125] * 4], 2, True),
            # B = 2**31 - 2**passes, with values of 2B.
            (collapse_power, [[NARROW_MAX >> 2] * 2 + [0]] * 2
             + [[0, 0, -(NARROW_MAX >> 2)]], 1, True),
            (collapse_down_power, [[NARROW_MAX >> 3]] * 4
             + [[-(NARROW_MAX >> 3)]], 3, True),
            (collapse_right_power, [[NARROW_MAX >> 3] * 4
                                    + [-(NARROW_MAX >> 3)]] * 2, 3, True),
            # B = 2**31, with a negative entry and then nonnegative, in
            # 32-bit lanes.
            (collapse_power, [[(NARROW_MAX >> 2) + 1] * 2 + [0]] * 2
             + [[0, 0, -(NARROW_MAX >> 2)]], 1, True),
            (collapse_right_power, [[2**28] * 5], 3, True),
            # Negative minima setting B: 2**31 - 8, then 2**31.
            (collapse_down_power, [[3], [-(NARROW_MAX >> 3)], [5], [0]], 3, True),
            (collapse_down_power, [[3], [-(2**28)], [5], [0]], 3, True),
            *nonnegative_power_edges(),
        ],
    )
    def test_power_lane_edges(self, power, rows, s, label):
        a = Matrix.from_rows(rows)
        down, right = POWER_PASSES[power]
        packed = s > 0 and min(a.data) >= 0
        bits = None
        if s:
            bits = power_bits(a, (down + right) * s)
            assert (bits is not None) is packed
        with counted_calls("_unpacked") as calls:
            assert_entries(
                lambda: power(a, s),
                pair_sum_powers(a, down * s, right * s),
                ScalarMode.EXACT,
            )
        # The packed plane unpacked at the end has the lanes that ran.
        assert [call[0].bits for call in calls] == ([bits] if packed else [])


class TestGeneralized:
    def test_all_ones_window_recovers_collapse(self):
        rng = random.Random(59)
        a = random_matrix(rng, 4, 4)
        gamma = GammaSpec(Matrix.filled(2, 2, 1))
        assert generalized_collapse(a, gamma) == collapse(a)

    def test_row_window_recovers_directionals(self):
        rng = random.Random(61)
        a = random_matrix(rng, 4, 5)
        row = GammaSpec(Matrix.from_rows([[1, 1]]))
        col = GammaSpec(Matrix.from_rows([[1], [1]]))
        assert generalized_collapse(a, row) == collapse_right(a)
        assert generalized_collapse(a, col) == collapse_down(a)

    def test_zero_window(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        gamma = GammaSpec(Matrix.filled(2, 2, 0))
        assert generalized_collapse(a, gamma) == Matrix.from_rows([[0]])

    def test_asymmetric_window_is_not_flipped(self):
        # Sliding-window indexing reads the input at (p+i, q+j): weight
        # (1, 2) must pick up the entry to the RIGHT of the anchor.
        a = Matrix.from_rows([[1, 2], [3, 4]])
        gamma = GammaSpec(Matrix.from_rows([[0, 1]]))
        assert generalized_collapse(a, gamma).to_rows() == [[2], [4]]

    def test_window_too_large(self):
        with pytest.raises(
            DimensionError, match=r"^2x2 window does not fit a 1x1 matrix$"
        ):
            generalized_collapse(
                Matrix.from_rows([[1]]), GammaSpec(Matrix.filled(2, 2, 1))
            )

    def test_mode_mismatch_rejected(self):
        with pytest.raises(
            ValueError, match="^weight window and matrix must share a scalar mode$"
        ):
            generalized_collapse(
                Matrix.from_rows([[1.0]]), GammaSpec(Matrix.filled(1, 1, 1))
            )

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_per_entry_loop(self, data):
        a, w = data.draw(correlation_cases())
        b1, b2, mode = w.rows, w.cols, w.mode
        expected = per_entry_correlation(a, w)
        assert_entries(lambda: generalized_collapse(a, GammaSpec(w)), expected, mode)
        # A Kernel needs a positive divisor, so the flip check draws its
        # own positive weights; float mode divides them out first.
        kw = tuple(
            data.draw(st.lists(st.integers(1, 2**27), min_size=b1 * b2,
                               max_size=b1 * b2))
        )
        kernel = Kernel(Matrix(b1, b2, kw), sum(kw))
        if mode is ScalarMode.FLOAT:
            kernel = kernel.as_float()
        flipped = Matrix(b1, b2, kernel.weights.data[::-1], mode)
        assert_entries(
            lambda: convolve_crop(kernel, a).numerator,
            per_entry_correlation(a, flipped),
            mode,
        )

    @pytest.mark.parametrize("packed", [True, False])
    def test_cases_straddle_the_lane_bound(self, packed):
        # The exact cases above land in lanes of every width in LANE_WIDTHS
        # and beyond any lane, so they exercise the packed product at native
        # and scattered widths and the shift-and-add loop.
        def width(case):
            a, w = case
            return correlation_bits(a, w) if a.mode is ScalarMode.EXACT else 0

        for bits in LANE_WIDTHS if packed else (None,):
            find(correlation_cases(), lambda case: width(case) == bits,
                 settings=settings(database=None, derandomize=True,
                                   phases=[Phase.generate], max_examples=1000))

    # Entries and weights around the lane bound B = max(max|a| * sum|w|,
    # max|a|, max|w|).  A nonnegative input and window pack at any B; a
    # negative entry runs shift-and-add.  The cases keep B on both sides of
    # 2**63 - 1 = 7 * LANE_SEVENTH and of 2**31 - 1, and the last column,
    # part of each case's id, labels those with B <= 2**63 - 1 or no
    # negative entry.
    @pytest.mark.parametrize(
        "rows, weights, label",
        [
            # B = 2**63 - 1 with values of +B and -B.
            ([[LANE_SEVENTH, -LANE_SEVENTH, LANE_SEVENTH]], [[3, -4]], True),
            ([[LANE_MAX], [-LANE_MAX]], [[1]], True),
            ([[-LANE_MAX, 0, -LANE_MAX]], [[1, 0]], True),
            ([[-LANE_MAX, -1]], [[1]], True),
            # B = 2**63: unsigned 64-bit lanes hold it.
            ([[2**62, 2**62]], [[1, 1]], True),
            ([[-(2**62), -(2**62)]], [[1, 1]], False),
            ([[2**62, -(2**62)]], [[1, -1]], False),
            ([[2**63]], [[0]], True),
            ([[0, 0, 0]], [[2**63, 1]], True),
            ([[-(2**63), 5]], [[1]], False),
            # All-zero weights over entries near +-2**126.
            ([[2**126, -(2**126)], [INT128_MAX, INT128_MIN]], [[0, 0]], False),
            # All-zero input with weights near 2**62.
            ([[0, 0, 0], [0, 0, 0]], [[2**62, -(2**62)], [2**62 - 1, 1]], True),
            # 1x1 window, window equal to the image, every row wrapping.
            ([[5, -7, 11], [-13, 17, -19]], [[-3]], True),
            ([[5, -7, 11], [-13, 17, -19]], [[2, -1, 4], [1, 0, -6]], True),
            ([[1, 2], [3, 4], [5, 6], [7, 8]], [[1, -2], [3, -4]], True),
            ([[1], [2], [3]], [[-1], [1]], True),
            # Outputs that leave int128 must raise.
            ([[2**126, 2**126]], [[1, 1]], True),
            ([[INT128_MIN, INT128_MIN]], [[1, 1]], False),
            ([[INT128_MIN]], [[-1]], False),
            # k x 1 windows, which sum shifted copies of the packed input.
            ([[LANE_SEVENTH, 0], [-LANE_SEVENTH, 5], [LANE_SEVENTH, -5]],
             [[3], [-4]], True),
            ([[5, -7], [1, 2], [-3, 4]], [[2], [0], [-3]], True),
            ([[2**62, 1], [2**62, 2]], [[1], [1]], True),
            ([[-(2**62)], [-(2**62)]], [[1], [1]], False),
            # B = 2**31 - 1 with values of +B and -B.
            ([[1, -1, 1]], [[2**30, -(2**30 - 1)]], True),
            ([[NARROW_MAX], [-NARROW_MAX]], [[1]], True),
            ([[1], [-1], [1]], [[2**30], [-(2**30 - 1)]], True),
            ([[0, 0, 0], [0, 0, 0]], [[NARROW_MAX, 0], [0, -NARROW_MAX]], True),
            # B = 2**31 takes 32-bit lanes.
            ([[2**30, 2**30]], [[1, 1]], True),
            ([[2**30], [2**30]], [[1], [1]], True),
            ([[0, 0]], [[2**31, 1]], True),
            # Negative minima: -(2**31 - 1), then -(2**31).
            ([[-NARROW_MAX, -1]], [[1]], True),
            ([[-(2**31), 5]], [[1]], True),
            # An all-zero plane takes lanes that hold the window's total,
            # 256 in 2-byte lanes; an all-zero window lanes that hold max(a).
            ([[0, 0]], [[255, 1]], True),
            ([[7, 3]], [[0, 0]], True),
            *nonnegative_correlation_edges(),
        ],
    )
    def test_lane_edges(self, rows, weights, label):
        a, w = Matrix.from_rows(rows), Matrix.from_rows(weights)
        packed = min(a.data + w.data) >= 0
        bits = correlation_bits(a, w)
        assert (bits is not None) is packed
        with counted_calls("_unpacked") as calls:
            assert_entries(
                lambda: generalized_collapse(a, GammaSpec(w)),
                per_entry_correlation(a, w),
                ScalarMode.EXACT,
            )
        # The packed plane unpacked at the end has the lanes that ran.
        assert [call[0].bits for call in calls] == ([bits] if packed else [])

    def test_power_zero(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        gamma = GammaSpec(Matrix.filled(2, 2, 1))
        assert generalized_collapse_power(a, gamma, 0) == a

    def test_power_matches_collapse_power(self):
        rng = random.Random(67)
        a = random_matrix(rng, 5, 5)
        gamma = GammaSpec(Matrix.filled(2, 2, 1))
        assert generalized_collapse_power(a, gamma, 2) == collapse_power(a, 2)

    def test_rank_one_power_matches_band_products(self):
        rng = random.Random(71)
        a = random_matrix(rng, 6, 6)
        rho = Matrix.from_rows([[1], [2]])
        phi = Matrix.from_rows([[1], [1]])
        gamma = GammaSpec.rank_one(rho, phi)
        left = r_phi_falling(6, rho, 2)
        right = r_phi_falling(6, phi, 2)
        assert generalized_collapse_power(a, gamma, 2) == multiply(
            multiply(left, a), right.transpose()
        )

    def test_power_dimension_exhaustion(self):
        a = Matrix.filled(4, 4, 1)
        gamma = GammaSpec(Matrix.filled(3, 3, 1))
        with pytest.raises(DimensionError):
            generalized_collapse_power(a, gamma, 2)

    def test_factorization_validated(self):
        with pytest.raises(ValueError):
            GammaSpec(
                Matrix.from_rows([[1, 1], [1, 2]]),
                rho=Matrix.from_rows([[1], [1]]),
                phi=Matrix.from_rows([[1], [1]]),
            )


def correlation_overflows(case):
    a, w = case
    expected = per_entry_correlation(a, w)
    return a.mode is ScalarMode.EXACT and not (
        INT128_MIN <= min(expected) and max(expected) <= INT128_MAX
    )


# Entry sizes up to the int128 edge, half of them at it.
WIDE_BITS = st.integers(0, 127) | st.just(127)
OUT_OF_RANGE = "^entry outside the signed 128-bit range in exact mode$"


class TestProvenSpans:
    """Results of the packed and the unpacked paths, for entries up to
    +-2**127: each span is the exact (min, max), and ExactOverflowError
    comes exactly where the per-pass or per-entry references leave
    int128."""

    @settings(max_examples=200, deadline=None)
    @given(power_cases(WIDE_BITS))
    def test_powers(self, case):
        a, power, s = case
        expected = per_pass_powers(a, power, s)
        if expected is None:
            with pytest.raises(ExactOverflowError):
                power(a, s)
        else:
            out = power(a, s)
            assert out.data == expected
            assert out.span == (min(expected), max(expected))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_extension(self, data):
        m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        entry = signed_entries(data.draw(WIDE_BITS))
        a = Matrix(m, n, tuple(data.draw(
            st.lists(entry, min_size=m * n, max_size=m * n))))
        mode = data.draw(st.sampled_from(
            [EdgeMode.REPLICATE, EdgeMode.MIRROR, EdgeMode.ZERO]))
        wide = 3 if mode is not EdgeMode.MIRROR else 0
        top, bottom = (data.draw(st.integers(0, m - 1 + wide)) for _ in "tb")
        left, right = (data.draw(st.integers(0, n - 1 + wide)) for _ in "lr")
        out = extend_asym(a, top, bottom, left, right, mode)
        assert out.span == (min(out.data), max(out.data))

    @settings(max_examples=200, deadline=None)
    @given(correlation_cases(WIDE_BITS))
    def test_generalized_collapse(self, case):
        a, w = case
        assert_entries(lambda: generalized_collapse(a, GammaSpec(w)),
                       per_entry_correlation(a, w), a.mode)

    @settings(max_examples=200, deadline=None)
    @given(power_cases(WIDE_BITS, st.just(True)),
           correlation_cases(WIDE_BITS, st.just(True)))
    def test_nonnegative_planes_always_pack(self, power_case, correlation_case):
        # Nonnegative planes pack at any B, and one masked check of the
        # result raises exactly where the per-pass oracle does: every entry
        # of an earlier pass is at most some entry of the result.
        a, power, s = power_case
        expected = per_pass_powers(a, power, s)
        with counted_calls("_unpacked") as calls:
            if expected is None:
                with pytest.raises(ExactOverflowError, match=OUT_OF_RANGE):
                    power(a, s)
            else:
                out = power(a, s)
                assert out.data == expected
                assert out.span == (min(expected), max(expected))
        assert len(calls) == (1 if s else 0)
        a, w = correlation_case
        expected = per_entry_correlation(a, w)
        with counted_calls("_unpacked") as calls:
            if max(expected) > INT128_MAX:
                with pytest.raises(ExactOverflowError, match=OUT_OF_RANGE):
                    generalized_collapse(a, GammaSpec(w))
            else:
                assert_entries(lambda: generalized_collapse(a, GammaSpec(w)),
                               expected, ScalarMode.EXACT)
        assert len(calls) == 1

    @pytest.mark.parametrize("overflows", [True, False])
    def test_cases_reach_the_int128_edge(self, overflows):
        # The properties above draw results in range and beyond it, the
        # nonnegative ones included.
        drawn = settings(database=None, derandomize=True, phases=[Phase.generate],
                         max_examples=1000)
        for nonnegative in (st.booleans(), st.just(True)):
            find(power_cases(WIDE_BITS, nonnegative),
                 lambda case: (per_pass_powers(*case) is None) is overflows,
                 settings=drawn)
            find(correlation_cases(WIDE_BITS, nonnegative),
                 lambda case: correlation_overflows(case) is overflows,
                 settings=drawn)


class TestNdArray:
    def test_axis_zero_matches_collapse_down(self):
        a = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
        arr = NdArray((3, 2), a.data)
        out = collapse_axis(arr, 0)
        assert out.shape == (2, 2)
        assert out.data == collapse_down(a).data

    def test_axis_one_matches_collapse_right(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        arr = NdArray((2, 2), a.data)
        assert collapse_axis(arr, 1).data == collapse_right(a).data

    def test_cube_of_ones_collapses_to_eight(self):
        arr = NdArray.filled((2, 2, 2), 1)
        for axis in range(3):
            arr = collapse_axis(arr, axis)
        assert arr.shape == (1, 1, 1)
        assert arr.data == (8,)

    def test_extent_one_rejected(self):
        with pytest.raises(DimensionError):
            collapse_axis(NdArray.filled((1, 3), 1), 0)

    def test_axis_out_of_range(self):
        with pytest.raises(IndexError):
            collapse_axis(NdArray.filled((2, 2), 1), 2)

    def test_collapse_all_2d_matches_matrix_collapse(self):
        rng = random.Random(73)
        a = random_matrix(rng, 3, 4)
        out = collapse_all(NdArray((3, 4), a.data))
        assert out.shape == (2, 3)
        assert out.data == collapse(a).data

    def test_collapse_all_ones_3x3x3(self):
        out = collapse_all(NdArray.filled((3, 3, 3), 1))
        assert out.shape == (2, 2, 2)
        assert out.data == (8,) * 8

    def test_axis_order_invariance(self):
        rng = random.Random(79)
        data = tuple(rng.randint(-20, 20) for _ in range(3 * 4 * 5))
        arr = NdArray((3, 4, 5), data)
        orders = [(0, 1, 2), (2, 1, 0), (1, 2, 0), (0, 2, 1)]
        results = []
        for order in orders:
            cur = arr
            # Collapsing axis k shrinks extent k but leaves axis numbering
            # alone, so any order can be applied directly.
            for axis in order:
                cur = collapse_axis(cur, axis)
            results.append(cur)
        assert all(r == results[0] for r in results)
        assert results[0] == collapse_all(arr)

    def test_collapse_all_needs_every_extent_at_least_two(self):
        with pytest.raises(DimensionError):
            collapse_all(NdArray.filled((2, 1, 2), 1))

    def test_too_many_axes(self):
        with pytest.raises(DimensionError):
            NdArray.filled((2,) * 9, 1)

    @given(
        st.lists(st.integers(1, 5), min_size=1, max_size=4).flatmap(
            lambda shape: st.tuples(
                st.just(tuple(shape)),
                st.lists(
                    st.integers(-(2**70), 2**70),
                    min_size=math.prod(shape),
                    max_size=math.prod(shape),
                ),
            )
        )
    )
    def test_axis_matches_per_index_pair_sum(self, case):
        shape, data = case
        arr = NdArray(shape, tuple(data))
        strides = [math.prod(shape[d + 1 :]) for d in range(len(shape))]
        for axis, k in enumerate(shape):
            if k < 2:
                continue
            out_shape = shape[:axis] + (k - 1,) + shape[axis + 1 :]
            expected = []
            for idx in itertools.product(*map(range, out_shape)):
                at = sum(i * stride for i, stride in zip(idx, strides))
                expected.append(data[at] + data[at + strides[axis]])
            out = collapse_axis(arr, axis)
            assert out.shape == out_shape
            assert out.data == tuple(expected)
            if len(shape) == 2:
                directional = (collapse_down, collapse_right)[axis]
                assert out.data == directional(Matrix(*shape, arr.data)).data


# Shapes of windows whose rows repeat, which a packed correlation
# multiplies once per distinct row.
REPEATED_ROWS = ("box", "mirrored", "duplicated", "zero row", "1 x b", "b x 1")


@st.composite
def repeated_row_cases(draw):
    """A nonnegative input and a window whose rows repeat, of a shape drawn
    from REPEATED_ROWS: every row equal, rows mirrored about the middle,
    one row of an asymmetric window duplicated, a zero row inserted, one
    row, or one column whose weights come from a pool of two.  Entries and
    weights are drawn up to 2**k, k up to 127, so lanes go past 16 bytes
    and results past int128."""
    shape = draw(st.sampled_from(REPEATED_ROWS))
    weight = nonnegative_entries(draw(WIDE_BITS))
    b2 = 1 if shape == "b x 1" else draw(st.integers(1, 5))

    def row():
        return draw(st.lists(weight, min_size=b2, max_size=b2))

    if shape == "box":
        rows = [row()] * draw(st.integers(1, 5))
    elif shape == "mirrored":
        half = [row() for _ in range(draw(st.integers(1, 3)))]
        rows = half + half[-1 - draw(st.integers(0, 1)) :: -1]
    elif shape == "duplicated":
        rows = [row() for _ in range(draw(st.integers(2, 4)))]
        rows.insert(draw(st.integers(0, len(rows))),
                    rows[draw(st.integers(0, len(rows) - 1))])
    elif shape == "zero row":
        rows = [row() for _ in range(draw(st.integers(0, 4)))]
        rows.insert(draw(st.integers(0, len(rows))), [0] * b2)
    elif shape == "1 x b":
        rows = [row()]
    else:
        pool = [row(), row()]
        rows = [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 6)))]
    w = Matrix.from_rows(rows)
    m = draw(st.integers(w.rows, w.rows + 4))
    n = draw(st.integers(w.cols, w.cols + 4))
    entry = nonnegative_entries(draw(WIDE_BITS))
    data = draw(st.lists(entry, min_size=m * n, max_size=m * n))
    return Matrix(m, n, tuple(data)), w


class TestRepeatedWindowRows:
    """Packed correlations with windows whose rows repeat, each distinct
    row multiplied once, against the per-entry loop."""

    @settings(max_examples=300, deadline=None)
    @given(repeated_row_cases())
    def test_matches_the_per_entry_loop(self, case):
        a, w = case
        expected = per_entry_correlation(a, w)
        with counted_calls("_unpacked") as calls:
            if max(expected) > INT128_MAX:
                with pytest.raises(ExactOverflowError, match=OUT_OF_RANGE):
                    generalized_collapse(a, GammaSpec(w))
            else:
                assert_entries(lambda: generalized_collapse(a, GammaSpec(w)),
                               expected, ScalarMode.EXACT)
        assert len(calls) == 1

    @pytest.mark.parametrize("shape", REPEATED_ROWS)
    def test_cases_cover_every_shape(self, shape):
        def drawn(case):
            rows = case[1].to_rows()
            distinct = len(set(map(tuple, rows)))
            if shape == "box":
                return len(rows) > 1 and distinct == 1
            if shape == "mirrored":
                return len(rows) > 2 and rows == rows[::-1] and distinct > 1
            if shape == "zero row":
                return [0] * len(rows[0]) in rows and any(map(any, rows))
            if shape == "1 x b":
                return len(rows) == 1 and len(rows[0]) > 1
            if shape == "b x 1":
                return len(rows[0]) == 1 and len(rows) > distinct > 1
            return len(rows[0]) > 1 and rows != rows[::-1] and distinct < len(rows)

        find(repeated_row_cases(), drawn, settings=settings(
            database=None, derandomize=True, phases=[Phase.generate],
            max_examples=1000))

    @pytest.mark.parametrize("overflows", [True, False])
    def test_cases_reach_wide_lanes_and_the_int128_edge(self, overflows):
        # Lanes past 16 bytes, with results in int128 and beyond it.
        find(repeated_row_cases(),
             lambda case: correlation_bits(*case) > 128
             and correlation_overflows(case) is overflows,
             settings=settings(database=None, derandomize=True,
                               phases=[Phase.generate], max_examples=1000))


    def test_each_distinct_row_is_multiplied_once_and_shifted_right(self):
        # Row i reversed, times the plane, holds row i's share of output
        # (p, q) in lane p*n + q + n*i + b2 - 1; shifted right by that much,
        # no lane below the plane's lane 0 is ever formed.
        class Recorded:
            # Stands in for the packed int and records each use of it.
            def __init__(self):
                self.factors, self.shifts = [], []

            def __mul__(self, other):
                self.factors.append(other)
                return self

            def __rshift__(self, offset):
                self.shifts.append(offset)
                return 0

            def __lshift__(self, offset):
                raise AssertionError("a product was shifted left")

        x = Recorded()
        # Rows 0, 1 and 3 are (1, 2) and row 2 is (3, 4).
        w = Matrix.from_rows([[1, 2], [1, 2], [3, 4], [1, 2]])
        out = collapse_module._correlate(
            collapse_module._Packed(6, 4, 4, 8, x), w)
        # Each row packs reversed: (2, 1) and (4, 3) in 1-byte lanes.
        assert x.factors == [2 + (1 << 8), 4 + (3 << 8)]
        # L * (n*i + b2 - 1) for rows 0, 1 and 3, then row 2.
        assert x.shifts == [8 * (4 * i + 1) for i in (0, 1, 3, 2)]
        assert (out.rows, out.cols, out.stride) == (3, 3, 4)


# Windows whose rows recur at offsets spaced evenly, which a packed
# correlation sums by doubling, and at uneven ones, which it adds one by one.
EVEN_ROWS = ("box", "interp", "pool")


@st.composite
def even_row_cases(draw):
    """A packed plane of 1 to 3 channels and a window of a shape drawn from
    EVEN_ROWS: a box, an interp window (its plateau rows recur evenly,
    its ramp rows in mirrored pairs), or up to 12 rows each drawn from a
    pool of two, which recur at even and uneven spacings.  Samples are
    drawn up to 2**k, k up to 127, so sublanes go past 16 bytes."""
    shape = draw(st.sampled_from(EVEN_ROWS))
    b1, b2 = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    if shape == "pool":
        weight = st.integers(0, 2**draw(st.integers(0, 40)))
        pool = [draw(st.lists(weight, min_size=b2, max_size=b2)) for _ in "ab"]
        w = Matrix.from_rows([draw(st.sampled_from(pool)) for _ in range(b1)])
    else:
        a = 0 if shape == "box" else draw(st.integers(0, b1 - 1))
        b = 0 if shape == "box" else draw(st.integers(0, b2 - 1))
        w = coefficient_matrix(b1, b2, a, b)
    c = draw(st.integers(1, 3))
    m, n = draw(st.integers(b1, b1 + 3)), draw(st.integers(b2, b2 + 3))
    entry = nonnegative_entries(draw(WIDE_BITS))
    samples = draw(st.lists(entry, min_size=m * n * c, max_size=m * n * c))
    plane = collapse_module._packed_lanes(m, n, c, samples, max(samples),
                                          sum(w.data))
    return plane, w


def recurring_rows(w):
    """The indices of each row of w that recurs three or more times."""
    indices = {}
    for i, row in enumerate(w.to_rows()):
        indices.setdefault(tuple(row), []).append(i)
    return [rows for rows in indices.values() if len(rows) > 2]


def evenly_spaced(rows):
    return len({j - i for i, j in zip(rows, rows[1:])}) == 1


class TestEvenlySpacedRows:
    """Recurring window rows summed by doubling, against adding each row's
    shifted product alone."""

    @settings(max_examples=300, deadline=None)
    @given(even_row_cases())
    def test_matches_a_sum_per_row(self, case):
        p, w = case
        b2, size = w.cols, p.bits // 8
        expected = 0
        for i, row in enumerate(w.to_rows()):
            product = p.value * collapse_module._pack(row[::-1], size, w.span[1])
            expected += product >> p.bits * (p.stride * i + b2 - 1)
        out = collapse_module._correlate(p, w)
        assert out.value == expected
        assert (out.rows, out.cols) == (p.rows - w.rows + 1, p.cols - b2 + 1)

    @pytest.mark.parametrize("spacing", ["even", "uneven"])
    def test_cases_cover_both_spacings(self, spacing):
        # Three or more evenly spaced rows take the doubling, and a row that
        # recurs three or more times unevenly the one-by-one sum.
        def drawn(case):
            even = list(map(evenly_spaced, recurring_rows(case[1])))
            return any(even) if spacing == "even" else not all(even)

        find(even_row_cases(), drawn, settings=settings(
            database=None, derandomize=True, phases=[Phase.generate],
            max_examples=1000))

    def test_a_row_repeated_k_times_takes_logarithmic_additions(self):
        # A 1201 x 1 box window, the column pass of a radius-600 box:
        # 1201 equal rows take at most 2 * ceil(log2 1201) + 1 additions of
        # plane-sized ints, not one per row.
        class Counted:
            # Stands in for the packed int and its product; counts additions.
            adds = 0

            def __mul__(self, other):
                return self

            def __add__(self, other):
                Counted.adds += 1
                return self

            __radd__ = __add__

            def __rshift__(self, offset):
                return self

        k = 1201
        plane = collapse_module._Packed(k + 3, 4, 4, 8, Counted())
        collapse_module._correlate(plane, Matrix(k, 1, (1,) * k))
        assert 0 < Counted.adds <= 2 * math.ceil(math.log2(k)) + 1



@st.composite
def equal_row_cases(draw):
    """A packed plane of 1 to 3 channels and a window of 1 to 5 rows of 3 to
    64 weights, each row one of a pool of two: b2 equal weights c, with at
    least one such row, and b2 weights drawn apart.  Samples are drawn up
    to 2**k, k up to 127, so sublanes go past 16 bytes."""
    b1, b2 = draw(st.integers(1, 5)), draw(st.integers(3, 64))
    weight = st.integers(0, 2**draw(st.integers(0, 40)))
    equal = [draw(weight)] * b2
    pool = [equal, draw(st.lists(weight, min_size=b2, max_size=b2))]
    rows = draw(st.lists(st.sampled_from(pool), min_size=b1 - 1, max_size=b1 - 1))
    rows.insert(draw(st.integers(0, b1 - 1)), equal)
    w = Matrix.from_rows(rows)
    c = draw(st.integers(1, 3))
    m, n = draw(st.integers(b1, b1 + 2)), draw(st.integers(b2, b2 + 2))
    entry = nonnegative_entries(draw(WIDE_BITS))
    samples = draw(st.lists(entry, min_size=m * n * c, max_size=m * n * c))
    plane = collapse_module._packed_lanes(m, n, c, samples, max(samples),
                                          sum(w.data))
    return plane, w


class TestEqualWeightRows:
    """A window row of three or more equal weights is added by doubling,
    with no product of the plane by the packed row."""

    @settings(max_examples=200, deadline=None)
    @given(equal_row_cases())
    def test_matches_the_product(self, case):
        p, w = case
        b2, size = w.cols, p.bits // 8
        expected = 0
        for i, row in enumerate(w.to_rows()):
            product = p.value * collapse_module._pack(row[::-1], size, w.span[1])
            expected += product >> p.bits * (p.stride * i + b2 - 1)
        out = collapse_module._correlate(p, w)
        assert out.value == expected
        assert (out.rows, out.cols) == (p.rows - w.rows + 1, p.cols - b2 + 1)

    @pytest.mark.parametrize("b1, b2", [(1, 3), (1, 64), (1, 1201), (5, 5)],
                             ids=["3", "64", "ones-1201", "box-5"])
    def test_no_product_by_an_equal_row(self, b1, b2):
        # The row of ones of a radius-600 box among them: the plane is only
        # multiplied by the weight, and its shifted copies are added by
        # doubling, in at most 2 * ceil(log2 k) + 1 additions for each of
        # the row's k = b2 weights and the window's k = b1 equal rows.
        class Plane:
            # Stands in for the packed int; refuses a product by a packed row.
            adds = 0
            weights = []

            def __mul__(self, other):
                raise AssertionError("the plane was multiplied by a packed row")

            def __rmul__(self, weight):
                Plane.weights.append(weight)
                return self

            def __add__(self, other):
                Plane.adds += 1
                return self

            __radd__ = __add__

            def __rshift__(self, offset):
                return self

        plane = collapse_module._Packed(b1 + 2, b2 + 2, b2 + 2, 8, Plane())
        collapse_module._correlate(plane, Matrix(b1, b2, (7,) * (b1 * b2)))
        assert Plane.weights == [7]
        bound = sum(2 * math.ceil(math.log2(k)) + 1 for k in (b1, b2))
        assert 0 < Plane.adds <= bound


class TestPacker:
    @pytest.mark.parametrize("size", range(1, 18))
    def test_round_trip_at_every_lane_width(self, size):
        # Lane k of the packed int holds values[k]; 1-, 4- and 8-byte lanes
        # scatter and gather like every other width.
        top = 2 ** (8 * size) - 1
        values = [0, 1, top, 1, 0, top]
        x = collapse_module._pack(values, size, top)
        assert x == sum(v << 8 * size * k for k, v in enumerate(values))
        assert list(collapse_module._unpack(x, size, len(values))) == values


class TestPixelLanes:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_each_channel_is_its_own_plane(self, data):
        # An image of 1 to 4 interleaved channels, packed as pixel lanes,
        # correlated with a nonnegative window and then collapsed down and
        # right: each channel's kept sublanes equal that channel's sums
        # entry by entry, at sublane widths up to past int128, and one
        # entry past int128 in any channel raises.
        c = data.draw(st.integers(1, 4))
        m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        b1, b2 = data.draw(st.integers(1, m)), data.draw(st.integers(1, n))
        downs = data.draw(st.integers(0, m - b1))
        rights = data.draw(st.integers(0, n - b2))
        bits = data.draw(st.sampled_from((8, 16, 120, 124, 127)) | st.integers(0, 130))
        entry = st.sampled_from((0, 2**bits)) | st.integers(0, 2**bits)
        samples = data.draw(st.lists(entry, min_size=m * n * c, max_size=m * n * c))
        weights = data.draw(st.lists(st.integers(0, 9), min_size=b1 * b2,
                                     max_size=b1 * b2))
        k = downs + rights
        plane = collapse_module._packed_lanes(
            m, n, c, samples, max(samples), max(sum(weights), 1) << k)
        out = generalized_collapse(plane, GammaSpec(Matrix(b1, b2, tuple(weights))))
        for _ in range(downs):
            out = collapse_down(out)
        for _ in range(rights):
            out = collapse_right(out)

        def at(p, q, k):
            return samples[(p * n + q) * c + k]

        def window_sum(p, q, k):
            return sum(weights[i * b2 + j] * at(p + i, q + j, k)
                       for i in range(b1) for j in range(b2))

        def summed(p, q, k):
            # downs + 1 rows and rights + 1 columns of window sums, each
            # taken binomial(downs, i) * binomial(rights, j) times.
            return sum(math.comb(downs, i) * math.comb(rights, j)
                       * window_sum(p + i, q + j, k)
                       for i in range(downs + 1) for j in range(rights + 1))

        rows, cols = m - b1 + 1 - downs, n - b2 + 1 - rights
        assert (out.rows, out.cols, out.channels) == (rows, cols, c)
        expected = [summed(p, q, k) for p in range(rows) for q in range(cols)
                    for k in range(c)]
        if max(expected) > INT128_MAX:
            with pytest.raises(ExactOverflowError):
                collapse_module._sublanes(out)
            return
        assert list(collapse_module._sublanes(out)) == expected
