"""Acceptance suite: one test per release criterion.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in failure output) and asserts at the criterion's stated tolerance,
which is zero everywhere except the float benchmarks.
"""

import functools
import itertools
import random
import time

from collapsum.algebra import multiply
from collapsum.bench import entry_ops
from collapsum.cli import main
from collapsum.collapse import (
    GammaSpec,
    collapse_down_power,
    collapse_power,
    collapse_right_power,
    generalized_collapse_power,
)
from collapsum.kernels import (
    EdgeMode,
    binomial,
    coefficient_matrix,
    coefficient_matrix_entry_sum,
)
from collapsum.matrix import Matrix
from collapsum.nd import NdArray, collapse_all, collapse_axis
from collapsum.netpbm import Raster, read_netpbm, split_color, write_netpbm
from collapsum.pipeline import BlurRequest, Method, blur, seeded_image
from collapsum.structured import (
    ToeplitzSpec,
    collapsed_coefficient_square,
    r_falling,
    r_matrix,
    r_phi_falling,
    toeplitz,
    toeplitz_full_collapse,
)

ALL_EDGES = (EdgeMode.CROP, EdgeMode.REPLICATE, EdgeMode.MIRROR, EdgeMode.ZERO)


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS ({time.perf_counter() - start:.2f}s)")

        return wrapper

    return decorate


@criterion("criterion 1: exact three-way blur equivalence")
def test_three_strategy_equivalence_exhaustive():
    start = time.perf_counter()
    cells = 0
    for r in range(5):
        for edge_index, edge in enumerate(ALL_EDGES):
            sizes = random.Random(10_000 + 100 * r + edge_index)
            # Cropping needs the window to fit, so its cells draw from
            # the valid part of the 8..32 range.
            low = max(8, 2 * r + 1) if edge is EdgeMode.CROP else 8
            for i in range(50):
                rows = sizes.randint(low, 32)
                cols = sizes.randint(low, 32)
                image = seeded_image(rows, cols, seed=(r << 20) | (edge_index << 16) | i)
                results = [
                    blur(image, BlurRequest(radius=r, method=m, edge=edge))
                    for m in Method
                ]
                assert results[0] == results[1] == results[2]
                assert results[0].divisor == 4 ** (2 * r)
                cells += 1
    assert cells == 5 * 4 * 50
    assert time.perf_counter() - start < 30.0


@criterion("criterion 2: radius-2 kernel table is byte-exact")
def test_gaussian_table_golden(capsys):
    assert main(["kernel", "--radius", "2"]) == 0
    assert capsys.readouterr().out == (
        "divisor 256\n"
        " 1  4  6  4  1\n"
        " 4 16 24 16  4\n"
        " 6 24 36 24  6\n"
        " 4 16 24 16  4\n"
        " 1  4  6  4  1\n"
    )


@criterion("criterion 3: banded falling products match the closed form")
def test_falling_band_closed_form():
    start = time.perf_counter()
    for m in range(2, 13):
        for k in range(m):
            closed = r_falling(m, k)
            chain = Matrix.identity(m)
            for size in range(m, m - k, -1):
                chain = multiply(r_matrix(size), chain)
            assert closed == chain
            for i in range(1, m - k + 1):
                for j in range(1, m + 1):
                    assert closed.at(i, j) == binomial(k, j - i)
    assert r_falling(4, 2).to_rows() == [[1, 2, 1, 0], [0, 1, 2, 1]]
    assert time.perf_counter() - start < 1.0


@criterion("criterion 4: coefficient matrices count basis contributions")
def test_coefficient_matrix_defining_property():
    start = time.perf_counter()
    for m in range(1, 8):
        for n in range(1, 8):
            for a in range(m):
                for b in range(n):
                    coeff = coefficient_matrix(m, n, a, b)
                    for p in range(m):
                        for q in range(n):
                            e = [0] * (m * n)
                            e[p * n + q] = 1
                            basis = Matrix(m, n, tuple(e))
                            out = collapse_right_power(
                                collapse_down_power(basis, a), b
                            )
                            assert sum(out.data) == coeff.at(p + 1, q + 1)
    assert time.perf_counter() - start < 10.0


@criterion("criterion 5: coefficient-matrix entry totals match the formula")
def test_entry_sum_formula_exhaustive():
    for m in range(1, 8):
        for n in range(1, 8):
            for a in range(m):
                for b in range(n):
                    assert coefficient_matrix_entry_sum(m, n, a, b) == sum(
                        coefficient_matrix(m, n, a, b).data
                    )


@criterion("criterion 6: Toeplitz full collapse matches brute force")
def test_toeplitz_closed_form():
    rng = random.Random(424242)
    checked = 0
    while checked < 500:
        rows = rng.randint(1, 11)
        cols = rng.randint(1, 12 - rows)
        values = tuple(rng.randint(-99, 99) for _ in range(rows + cols - 1))
        spec = ToeplitzSpec(values, rows, cols)
        brute = collapse_right_power(
            collapse_down_power(toeplitz(spec), rows - 1), cols - 1
        ).at(1, 1)
        assert toeplitz_full_collapse(spec) == brute
        checked += 1
    for n in range(9):
        identity_spec = ToeplitzSpec(
            (0,) * n + (1,) + (0,) * n, n + 1, n + 1
        )
        value = toeplitz_full_collapse(identity_spec)
        assert value == binomial(2 * n, n)
        assert collapse_power(Matrix.identity(n + 1), n).at(1, 1) == value
    for n in range(7):
        coeff = coefficient_matrix(n + 1, n + 1, n, n)
        assert collapse_power(coeff, n).at(1, 1) == binomial(2 * n, n) ** 2
        assert collapsed_coefficient_square(n) == binomial(2 * n, n) ** 2


@criterion("criterion 7: rank-1 windows factor through banded products")
def test_generalized_collapse_factorization():
    rng = random.Random(777)
    for _ in range(100):
        k1 = rng.randint(1, 3)
        k2 = rng.randint(1, 3)
        rho = Matrix(k1, 1, tuple(rng.randint(-3, 3) for _ in range(k1)))
        phi = Matrix(k2, 1, tuple(rng.randint(-3, 3) for _ in range(k2)))
        gamma = GammaSpec.rank_one(rho, phi)
        m = rng.randint(max(k1, k2), 10)
        n = rng.randint(max(k1, k2), 10)
        image = Matrix(
            m, n, tuple(rng.randint(-20, 20) for _ in range(m * n))
        )
        limits = []
        if k1 > 1:
            limits.append((m - 1) // (k1 - 1))
        if k2 > 1:
            limits.append((n - 1) // (k2 - 1))
        max_s = min(limits) if limits else 4
        for s in range(max_s + 1):
            product = multiply(
                multiply(r_phi_falling(m, rho, s), image),
                r_phi_falling(n, phi, s).transpose(),
            )
            assert generalized_collapse_power(image, gamma, s) == product


@criterion("criterion 8: n-dimensional collapse is axis-order invariant")
def test_axis_order_invariance():
    rng = random.Random(888)
    for _ in range(50):
        n_axes = rng.randint(3, 4)
        shape = tuple(rng.randint(2, 4) for _ in range(n_axes))
        size = 1
        for e in shape:
            size *= e
        arr = NdArray(shape, tuple(rng.randint(-99, 99) for _ in range(size)))
        reference = collapse_all(arr)
        for order in itertools.permutations(range(n_axes)):
            cur = arr
            for axis in order:
                cur = collapse_axis(cur, axis)
            assert cur == reference


@criterion("criterion 9: operation-count ratio grows with the radius")
def test_benchmark_order_of_growth(capsys):
    start = time.perf_counter()
    radii = (1, 2, 4, 8)
    image = seeded_image(256, 256)
    ratios = []
    for r in radii:
        times = {}
        counted = {}
        for method in Method:
            t0 = time.perf_counter_ns()
            blur(image, BlurRequest(radius=r, method=method, edge=EdgeMode.REPLICATE))
            times[method.value] = time.perf_counter_ns() - t0
            counted[method.value] = entry_ops(
                method, 256, 256, r, EdgeMode.REPLICATE
            )
        ratios.append(counted["direct"] / counted["collapse"])
        with capsys.disabled():
            print(
                f"  size 256, radius {r}: "
                + ", ".join(f"{m} {ns / 1e6:.1f}ms" for m, ns in times.items())
                + f", direct/collapse ops ratio {ratios[-1]:.2f}"
            )
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert time.perf_counter() - start < 120.0


@criterion("criterion 10: netpbm round trips are bit-exact")
def test_netpbm_round_trip_randomized():
    rng = random.Random(1010)
    for _ in range(200):
        width = rng.randint(1, 16)
        height = rng.randint(1, 16)
        maxval = rng.choice([1, 255, 65535])
        fmt = rng.choice(["ascii", "binary"])
        channels = 1 if rng.random() < 0.5 else 3
        count = width * height * channels
        img = Raster(width, height, channels, maxval,
                     [rng.randint(0, maxval) for _ in range(count)])
        encoded = write_netpbm(img, fmt)
        read = read_netpbm(encoded)
        assert read[:4] == img[:4] and list(read.samples) == img.samples
        assert split_color(read) == tuple(
            Matrix(height, width, tuple(img.samples[c::channels]))
            for c in range(channels))
        assert write_netpbm(read, fmt) == encoded
