"""The public records' contract: every refusal of a bad field, equality
and hashing, read-only fields and pickling, whichever class implements
them."""

import pickle

import pytest

from collapsum.collapse import GammaSpec, NdArray
from collapsum.kernels import EdgeMode, FilterResult, Kernel
from collapsum.matrix import (
    OUT_OF_RANGE,
    DimensionError,
    ExactOverflowError,
    Matrix,
    ScalarMode,
)
from collapsum.netpbm import Raster
from collapsum.pipeline import (
    TIMING_CONTRACT,
    BenchReport,
    BenchRow,
    BlurRequest,
    equivalence_report,
    seeded_image,
)
from collapsum.structured import ToeplitzSpec

ONES = Matrix.from_rows([[1, 1], [1, 1]])
COLUMN = Matrix.from_rows([[1], [1]])
ROW = BenchRow(8, 1, "collapse", 100, 10, 0.0)

# name: (a valid record, made afresh on each call; the field assigned to;
# whether it hashes; refusals as (thunk, exception type, message)).
RECORDS = {
    "Matrix": (lambda: Matrix(2, 2, (1, 2, 3, 4)), "rows", True, [
        (lambda: Matrix(0, 2, ()), DimensionError,
         "matrix dimensions must be positive, got 0x2"),
        (lambda: Matrix(1, 2, (1,)), DimensionError, "data length 1 != 1x2"),
        (lambda: Matrix(1, 1, [1]), TypeError, "matrix data must be a tuple"),
        (lambda: Matrix(1, 1, (2**127,)), ExactOverflowError, OUT_OF_RANGE),
        (lambda: ONES._replace(data=(-(2**127) - 1,) * 4), ExactOverflowError,
         OUT_OF_RANGE),
    ]),
    "Kernel": (lambda: Kernel(ONES, 4, (1, 2)), "divisor", True, [
        (lambda: Kernel(ONES, 5, (1, 1)), ValueError,
         "weights sum to 4, divisor is 5"),
        (lambda: Kernel(ONES, 0, (1, 1)), ValueError,
         "divisor must be a positive integer"),
        (lambda: Kernel(ONES, 4, (3, 1)), ValueError,
         "anchor (3, 1) outside the weight window"),
        (lambda: Kernel(ONES.to_float(), 1, (1, 1)), ValueError,
         "float weights sum to 4.0, expected 1"),
        (lambda: Kernel(ONES, 4, (1, 1))._replace(divisor=5), ValueError,
         "weights sum to 4, divisor is 5"),
    ]),
    "FilterResult": (lambda: FilterResult(ONES, 4), "divisor", True, [
        (lambda: FilterResult(ONES, 0), ValueError,
         "divisor must be a positive integer"),
    ]),
    "GammaSpec": (lambda: GammaSpec.rank_one(COLUMN, COLUMN), "rho", True, [
        (lambda: GammaSpec(ONES, rho=COLUMN), ValueError,
         "rank-1 factorization needs both rho and phi"),
        (lambda: GammaSpec(ONES, ONES, ONES), DimensionError,
         "rho and phi must be column vectors"),
        (lambda: GammaSpec(ONES, Matrix.from_rows([[1]]), COLUMN),
         DimensionError, "factor lengths must match the weight window"),
        (lambda: GammaSpec(ONES, COLUMN, Matrix.from_rows([[1], [2]])),
         ValueError, "rho * phi^T does not reproduce the weights"),
    ]),
    "NdArray": (lambda: NdArray((2, 3), tuple(range(6))), "shape", True, [
        (lambda: NdArray((), ()), DimensionError, "1 to 8 axes supported"),
        (lambda: NdArray((2, 0), ()), DimensionError,
         "all extents must be positive"),
        (lambda: NdArray((2, 3), (0,)), DimensionError,
         "data length must equal the product of extents"),
    ]),
    # A raster is checked when it is written (tests/test_netpbm.py).
    "Raster": (lambda: Raster(2, 2, 1, 255, b"\x00\x01\x02\xff"), "maxval",
               True, []),
    "ToeplitzSpec": (lambda: ToeplitzSpec((1, 2, 3), 2, 2), "rows", True, [
        (lambda: ToeplitzSpec((1,), 0, 2), DimensionError,
         "Toeplitz dimensions must be positive"),
        (lambda: ToeplitzSpec((1, 2), 2, 2), DimensionError,
         "need 3 diagonal values, got 2"),
    ]),
    "BlurRequest": (lambda: BlurRequest(radius=2), "rect", True, [
        (lambda: BlurRequest(radius=1, rect=(3, 3)), ValueError,
         "set exactly one of radius and rect"),
        (lambda: BlurRequest(), ValueError, "set exactly one of radius and rect"),
        (lambda: BlurRequest(radius=-1), ValueError, "radius must be nonnegative"),
        (lambda: BlurRequest(rect=(0, 3)), ValueError,
         "rectangle sides must be positive"),
        (lambda: BlurRequest(rect=(3, 3), collapses=(3, 0)), DimensionError,
         "need 0 <= a < m, got a=3, m=3"),
        (lambda: BlurRequest(radius=1)._replace(collapses=(1, 3)),
         DimensionError, "need 0 <= b < n, got b=3, n=3"),
    ]),
    "EquivalenceReport": (
        lambda: equivalence_report(seeded_image(6, 6), 1, EdgeMode.CROP),
        "passed", False, []),
    "BenchRow": (lambda: BenchRow(8, 1, "collapse", 100, 10, 0.0), "size",
                 True, []),
    "BenchReport": (lambda: BenchReport((ROW, ROW)), "rows", True, []),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    make, field, hashable, refusals = RECORDS[name]
    for thunk, error, message in refusals:
        with pytest.raises(error) as err:
            thunk()
        assert type(err.value) is error and str(err.value) == message
    record, twin = make(), make()
    assert type(record).__name__ == name
    assert record == twin and not record != twin
    if hashable:
        assert hash(record) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(record) and restored == record


def test_bench_report_holds_only_its_rows():
    # Every report is timed under the one contract, so it is not a field.
    report = BenchReport((ROW,))
    assert BenchReport._fields == ("rows",)
    assert report.timing_contract == TIMING_CONTRACT
    assert report == ((ROW,),)


def test_blur_request_forms_of_one_window_are_one_record():
    by_radius = BlurRequest(radius=2)
    assert by_radius == BlurRequest(rect=(5, 5)) == BlurRequest(
        rect=(5, 5), collapses=(4, 4))
    assert by_radius.collapses == (4, 4)
    assert pickle.loads(pickle.dumps(by_radius)) == by_radius
    # A binomial request takes the binomial of its new rect; explicit box
    # and interp collapses are kept, and refused when they do not fit.
    wider = by_radius._replace(rect=(5, 7))
    assert wider.rect == (5, 7) and wider.collapses == (4, 6)
    assert BlurRequest(radius=1)._replace(rect=(5, 5)) == BlurRequest(rect=(5, 5))
    box = BlurRequest(radius=1, collapses=(0, 0))._replace(rect=(5, 7))
    assert box.collapses == (0, 0)
    with pytest.raises(DimensionError, match="need 0 <= a < m, got a=2, m=2"):
        BlurRequest(rect=(3, 3), collapses=(2, 1))._replace(rect=(2, 3))
    # collapses=None means the binomial of the resulting rect, as it does in
    # the constructor; explicit collapses are taken as given.
    assert box._replace(collapses=None) == BlurRequest(rect=(5, 7))
    assert box._replace(rect=(3, 3), collapses=None) == BlurRequest(radius=1)
    assert wider._replace(rect=(3, 5), collapses=(1, 1)).collapses == (1, 1)
    for request in (wider, box):
        assert pickle.loads(pickle.dumps(request)) == request


def test_matrix_is_a_plain_class_that_keeps_its_span():
    a = Matrix(2, 2, (4, 1, 3, 2))
    assert not isinstance(a, tuple)
    assert a != (2, 2, (4, 1, 3, 2), ScalarMode.EXACT)
    restored = pickle.loads(pickle.dumps(a))
    assert vars(restored)["span"] == (1, 4)
    f = a.to_float()
    assert "span" not in vars(f)
    assert f.span == (1.0, 4.0)
    assert vars(pickle.loads(pickle.dumps(f)))["span"] == (1.0, 4.0)
    with pytest.raises(AttributeError):
        del a.rows
