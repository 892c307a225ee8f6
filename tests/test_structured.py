import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsum.algebra import multiply
from collapsum.collapse import (
    GammaSpec,
    collapse_down_power,
    collapse_power,
    collapse_right_power,
    generalized_collapse_power,
)
from collapsum.kernels import (
    binomial,
    coefficient_matrix,
    coefficient_matrix_entry_sum,
)
from collapsum.matrix import DimensionError, Matrix, ScalarMode
from collapsum.structured import (
    ToeplitzSpec,
    collapsed_coefficient_square,
    column_sum_vector,
    r_falling,
    r_matrix,
    r_phi,
    r_phi_falling,
    row_sum_vector,
    toeplitz,
    toeplitz_full_collapse,
)


def random_matrix(rng, rows, cols, lo=-50, hi=50):
    return Matrix(
        rows,
        cols,
        tuple(rng.randint(lo, hi) for _ in range(rows * cols)),
        ScalarMode.EXACT,
    )


def falling_product_chain(m, k):
    """Explicit product of the k pair-sum band matrices, largest last."""
    result = Matrix.identity(m)
    for size in range(m, m - k, -1):
        result = multiply(r_matrix(size), result)
    return result


def full_collapse(a):
    return collapse_right_power(
        collapse_down_power(a, a.rows - 1), a.cols - 1
    ).at(1, 1)


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(0, 0) == 1

    def test_out_of_range_convention(self):
        assert binomial(4, -1) == 0
        assert binomial(4, 5) == 0

    def test_central_value(self):
        assert binomial(20, 10) == 184756

    def test_matches_stdlib_comb(self):
        for n in range(31):
            for r in range(n + 1):
                assert binomial(n, r) == math.comb(n, r)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_concurrent_reads(self):
        from concurrent.futures import ThreadPoolExecutor

        def worker(seed):
            rng = random.Random(seed)
            return [
                binomial(n, r)
                for n, r in (
                    (rng.randint(0, 60), rng.randint(0, 60)) for _ in range(300)
                )
            ]

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(8)))
        for seed, values in enumerate(results):
            rng = random.Random(seed)
            for value in values:
                n, r = rng.randint(0, 60), rng.randint(0, 60)
                assert value == (math.comb(n, r) if r <= n else 0)


class TestRMatrix:
    def test_r4(self):
        assert r_matrix(4).to_rows() == [
            [1, 1, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
        ]

    def test_r2(self):
        assert r_matrix(2).to_rows() == [[1, 1]]

    def test_rows_sum_to_two(self):
        for m in range(2, 9):
            assert row_sum_vector(r_matrix(m)).data == (2,) * (m - 1)

    def test_too_small(self):
        with pytest.raises(DimensionError):
            r_matrix(1)


class TestRFalling:
    def test_golden_4_2(self):
        assert r_falling(4, 2).to_rows() == [[1, 2, 1, 0], [0, 1, 2, 1]]

    def test_zero_power_is_identity(self):
        for m in range(1, 6):
            assert r_falling(m, 0) == Matrix.identity(m)

    def test_matches_product_chain(self):
        for m in range(2, 9):
            for k in range(m):
                assert r_falling(m, k) == falling_product_chain(m, k)

    def test_entries_are_binomials(self):
        mat = r_falling(7, 3)
        for i in range(1, mat.rows + 1):
            for j in range(1, mat.cols + 1):
                assert mat.at(i, j) == binomial(3, j - i)

    def test_power_too_large(self):
        with pytest.raises(DimensionError):
            r_falling(4, 4)


class TestRPhi:
    def test_ones_pair_recovers_pair_sum_matrix(self):
        phi = Matrix.from_rows([[1], [1]])
        for m in range(2, 7):
            assert r_phi(m, phi) == r_matrix(m)

    def test_singleton_is_identity(self):
        phi = Matrix.from_rows([[1]])
        assert r_phi(5, phi) == Matrix.identity(5)

    def test_triple_band(self):
        phi = Matrix.from_rows([[1], [2], [1]])
        assert r_phi(4, phi).to_rows() == [[1, 2, 1, 0], [0, 1, 2, 1]]

    def test_band_longer_than_width(self):
        with pytest.raises(DimensionError):
            r_phi(2, Matrix.from_rows([[1], [1], [1]]))


class TestRPhiFalling:
    def test_single_step(self):
        phi = Matrix.from_rows([[3], [-1]])
        assert r_phi_falling(5, phi, 1) == r_phi(5, phi)

    def test_ones_pair_matches_falling(self):
        phi = Matrix.from_rows([[1], [1]])
        assert r_phi_falling(4, phi, 2) == r_falling(4, 2)

    def test_zero_steps_is_identity(self):
        phi = Matrix.from_rows([[1], [2]])
        assert r_phi_falling(4, phi, 0) == Matrix.identity(4)

    def test_chain_exhaustion(self):
        phi = Matrix.from_rows([[1], [1], [1]])
        with pytest.raises(DimensionError):
            r_phi_falling(5, phi, 3)


class TestSumVectors:
    def test_column_sums_of_pair_sum_matrix(self):
        assert column_sum_vector(r_matrix(3)).to_rows() == [[1], [2], [1]]

    def test_row_sums_of_ones(self):
        assert row_sum_vector(Matrix.filled(2, 3, 1)).to_rows() == [[3], [3]]

    def test_transpose_duality(self):
        rng = random.Random(83)
        a = random_matrix(rng, 4, 6)
        assert column_sum_vector(a) == row_sum_vector(a.transpose())


class TestCoefficientMatrix:
    def test_3x3_single_collapse(self):
        assert coefficient_matrix(3, 3, 1, 1).to_rows() == [
            [1, 2, 1],
            [2, 4, 2],
            [1, 2, 1],
        ]

    def test_5x5_full_collapse_gives_gaussian_table(self):
        assert coefficient_matrix(5, 5, 4, 4).to_rows() == [
            [1, 4, 6, 4, 1],
            [4, 16, 24, 16, 4],
            [6, 24, 36, 24, 6],
            [4, 16, 24, 16, 4],
            [1, 4, 6, 4, 1],
        ]

    def test_no_collapse_counts_every_entry_once(self):
        assert coefficient_matrix(3, 4, 0, 0) == Matrix.filled(3, 4, 1)

    def test_double_sum_formula(self):
        # Independent route: the per-entry formula
        # [sum_l binom(a, i-l)] * [sum_l binom(b, j-l)].
        for m, n, a, b in [(4, 5, 2, 1), (5, 4, 3, 3), (6, 6, 1, 4)]:
            mat = coefficient_matrix(m, n, a, b)
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    ci = sum(binomial(a, i - L) for L in range(1, m - a + 1))
                    cj = sum(binomial(b, j - L) for L in range(1, n - b + 1))
                    assert mat.at(i, j) == ci * cj

    def test_counts_contributions_of_each_entry(self):
        # Defining property, checked by pushing basis matrices through
        # the directional collapses and totalling the output.
        rng = random.Random(89)
        for _ in range(5):
            m, n = rng.randint(2, 5), rng.randint(2, 5)
            a, b = rng.randint(0, m - 1), rng.randint(0, n - 1)
            coeff = coefficient_matrix(m, n, a, b)
            for p in range(1, m + 1):
                for q in range(1, n + 1):
                    e = [0] * (m * n)
                    e[(p - 1) * n + (q - 1)] = 1
                    out = collapse_right_power(
                        collapse_down_power(Matrix(m, n, tuple(e)), a), b
                    )
                    assert sum(out.data) == coeff.at(p, q)

    def test_parameter_range(self):
        with pytest.raises(DimensionError):
            coefficient_matrix(3, 3, 3, 0)
        with pytest.raises(DimensionError):
            coefficient_matrix(3, 3, 0, -1)


class TestEntrySum:
    def test_3x3_single(self):
        assert coefficient_matrix_entry_sum(3, 3, 1, 1) == 16

    def test_no_collapse(self):
        assert coefficient_matrix_entry_sum(6, 7, 0, 0) == 42

    def test_gaussian_denominator(self):
        assert coefficient_matrix_entry_sum(5, 5, 4, 4) == 256

    def test_matches_summed_entries(self):
        for m in range(1, 7):
            for n in range(1, 7):
                for a in range(m):
                    for b in range(n):
                        assert coefficient_matrix_entry_sum(m, n, a, b) == sum(
                            coefficient_matrix(m, n, a, b).data
                        )


class TestToeplitz:
    def test_general_4x5_layout(self):
        # Diagonal values a_{-4}..a_3 encoded 10..17; entry (i,j) = a_{i-j}.
        spec = ToeplitzSpec(tuple(range(10, 18)), 4, 5)
        assert toeplitz(spec).to_rows() == [
            [14, 13, 12, 11, 10],
            [15, 14, 13, 12, 11],
            [16, 15, 14, 13, 12],
            [17, 16, 15, 14, 13],
        ]

    def test_identity(self):
        assert toeplitz(ToeplitzSpec((0, 1, 0), 2, 2)) == Matrix.identity(2)

    def test_constant(self):
        assert toeplitz(ToeplitzSpec((7,) * 6, 3, 4)) == Matrix.filled(3, 4, 7)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            ToeplitzSpec((1, 2, 3), 3, 3)


class TestToeplitzFullCollapse:
    def test_identity_gives_central_binomial(self):
        spec = ToeplitzSpec((0, 0, 0, 1, 0, 0, 0), 4, 4)
        assert toeplitz_full_collapse(spec) == 20
        assert full_collapse(toeplitz(spec)) == 20

    def test_all_ones_gives_power_of_two(self):
        for rows, cols in [(2, 3), (3, 3), (4, 2)]:
            spec = ToeplitzSpec((1,) * (rows + cols - 1), rows, cols)
            assert toeplitz_full_collapse(spec) == 2 ** (rows + cols - 2)

    def test_matches_brute_force(self):
        spec = ToeplitzSpec((1, 2, 3, 4, 5, 6), 3, 4)
        assert toeplitz_full_collapse(spec) == full_collapse(toeplitz(spec))

    def test_random_specs_match_brute_force(self):
        rng = random.Random(97)
        for _ in range(50):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            values = tuple(
                rng.randint(-30, 30) for _ in range(rows + cols - 1)
            )
            spec = ToeplitzSpec(values, rows, cols)
            assert toeplitz_full_collapse(spec) == full_collapse(toeplitz(spec))


class TestCollapsedCoefficientSquare:
    def test_small_orders(self):
        assert collapsed_coefficient_square(0) == 1
        assert collapsed_coefficient_square(1) == 4
        assert collapsed_coefficient_square(2) == 36

    def test_matches_collapsing_the_coefficient_matrix(self):
        for n in range(5):
            c = coefficient_matrix(n + 1, n + 1, n, n)
            assert collapse_power(c, n).at(1, 1) == collapsed_coefficient_square(n)


class TestOperatorMatrixDuality:
    def test_directional_powers_are_band_products(self):
        rng = random.Random(101)
        for m in range(2, 8):
            for n in range(2, 8):
                a = random_matrix(rng, m, n)
                for s in range(m):
                    assert collapse_down_power(a, s) == multiply(r_falling(m, s), a)
                for s in range(n):
                    assert collapse_right_power(a, s) == multiply(
                        a, r_falling(n, s).transpose()
                    )

    def test_two_sided_form(self):
        rng = random.Random(103)
        a = random_matrix(rng, 6, 7)
        for s in range(6):
            two_sided = multiply(
                multiply(r_falling(6, s), a), r_falling(7, s).transpose()
            )
            assert collapse_power(a, s) == two_sided

    def test_outer_product_identity(self):
        for m, n, a, b in [(5, 6, 2, 3), (4, 4, 3, 1)]:
            alpha = column_sum_vector(r_falling(m, a))
            beta = column_sum_vector(r_falling(n, b))
            assert coefficient_matrix(m, n, a, b) == multiply(
                alpha, beta.transpose()
            )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_coefficient_matrix_is_the_band_product(self, data):
        m, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        a, b = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))
        alpha = column_sum_vector(r_falling(m, a))
        beta = column_sum_vector(r_falling(n, b))
        assert coefficient_matrix(m, n, a, b) == multiply(alpha, beta.transpose())

    def test_fully_collapsed_value_formula(self):
        rng = random.Random(107)
        for _ in range(10):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            a = random_matrix(rng, m, n)
            expected = sum(
                binomial(m - 1, i - 1) * binomial(n - 1, j - 1) * a.at(i, j)
                for i in range(1, m + 1)
                for j in range(1, n + 1)
            )
            assert full_collapse(a) == expected

    def test_rank_one_generalized_matches_asymmetric_factors(self):
        rng = random.Random(109)
        rho = Matrix.from_rows([[2], [1], [3]])
        phi = Matrix.from_rows([[1], [-1]])
        gamma = GammaSpec.rank_one(rho, phi)
        a = random_matrix(rng, 8, 8)
        for s in range(1, 4):
            left = r_phi_falling(8, rho, s)
            right = r_phi_falling(8, phi, s)
            assert generalized_collapse_power(a, gamma, s) == multiply(
                multiply(left, a), right.transpose()
            )
