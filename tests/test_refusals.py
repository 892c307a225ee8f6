"""The public functions' refusals of bad arguments, each with its exception
type and exact message."""

import importlib
import time

import pytest

from collapsum.cli import main
from collapsum.collapse import GammaSpec, generalized_collapse_power
from collapsum.kernels import (
    EdgeMode,
    box_kernel,
    check_interpolation,
    extend,
    gaussian_kernel,
    gaussian_kernel_rect,
    gaussian_kernel_sampled,
)
from collapsum.matrix import (
    OUT_OF_RANGE,
    DimensionError,
    ExactOverflowError,
    Matrix,
    ScalarMode,
    approx_equal,
)
from collapsum.netpbm import Raster
from collapsum.pipeline import (
    BlurRequest,
    Method,
    blur,
    blur_raster,
    equivalence_report,
)
from collapsum.structured import (
    collapsed_coefficient_square,
    r_falling,
    r_phi,
    r_phi_falling,
)

SQUARE = Matrix.from_rows([[1, 2], [3, 4]])
COLUMN = Matrix.from_rows([[1], [1]])
RADIUS = "radius must be nonnegative"

# (name, thunk, exception type, message)
REFUSALS = [
    ("box_kernel", lambda: box_kernel(-1), ValueError, RADIUS),
    ("gaussian_kernel", lambda: gaussian_kernel(-1), ValueError, RADIUS),
    ("gaussian_kernel_sampled", lambda: gaussian_kernel_sampled(-1, 1.0),
     ValueError, RADIUS),
    # Refused before any weight is sampled.
    ("gaussian_kernel_sampled taps", lambda: gaussian_kernel_sampled(10**5, 1.0),
     DimensionError, "200001x200001 window has more than 4194304 taps"),
    ("check_interpolation", lambda: check_interpolation(-1, 0), ValueError,
     RADIUS),
    ("extend", lambda: extend(SQUARE, -1, EdgeMode.ZERO), ValueError,
     "extension radius must be nonnegative"),
    ("gaussian_kernel_rect rows", lambda: gaussian_kernel_rect(0, 3),
     ValueError, "kernel sides must be positive"),
    ("gaussian_kernel_rect cols", lambda: gaussian_kernel_rect(3, 0),
     ValueError, "kernel sides must be positive"),
    ("Matrix.from_rows", lambda: Matrix.from_rows([[1, 2.5]], ScalarMode.EXACT),
     TypeError, "exact mode requires int entries, got 2.5"),
    ("Matrix.block", lambda: SQUARE.block(1, 1, 0, 1), DimensionError,
     "block dimensions must be positive"),
    ("approx_equal", lambda: approx_equal(SQUARE, SQUARE, -1e-9), ValueError,
     "tolerance must be nonnegative"),
    ("r_falling", lambda: r_falling(3, -1), ValueError,
     "falling power must be nonnegative"),
    ("r_phi_falling", lambda: r_phi_falling(3, COLUMN, -1), ValueError,
     "falling power must be nonnegative"),
    ("generalized_collapse_power",
     lambda: generalized_collapse_power(SQUARE, GammaSpec(SQUARE), -1),
     ValueError, "collapse power must be nonnegative"),
    ("r_phi", lambda: r_phi(3, COLUMN.transpose()), DimensionError,
     "phi must be a column vector (k x 1 matrix)"),
    ("collapsed_coefficient_square", lambda: collapsed_coefficient_square(-1),
     ValueError, "order must be nonnegative"),
]


@pytest.mark.parametrize("name, thunk, error, message", REFUSALS,
                         ids=[case[0] for case in REFUSALS])
def test_refusal(name, thunk, error, message):
    with pytest.raises(error) as err:
        thunk()
    assert type(err.value) is error and str(err.value) == message


# The module, where the callers of ``_side`` look it up.
kernels_module = importlib.import_module("collapsum.kernels")

# (name, request fields or None, image mode, CLI blur options or None,
#  exception type, message).  A request of a radius alone, with its edge,
# is also run as an equivalence report.
WINDOW_REFUSALS = [
    ("crop misfit", {"radius": 3, "edge": EdgeMode.CROP}, ScalarMode.EXACT,
     ["--radius", "3", "--edge", "crop"], DimensionError,
     "4x4 image too small for a 7x7 window under cropping"),
    ("gauss past int128", {"radius": 34}, ScalarMode.EXACT, ["--radius", "34"],
     ExactOverflowError, "69x69 binomial window exceeds the signed 128-bit range"),
    ("interp past int128", {"radius": 40, "collapses": (80, 80)}, ScalarMode.EXACT,
     ["--filter", "interp", "--radius", "40", "--s", "80"], ExactOverflowError,
     "81x81 binomial window exceeds the signed 128-bit range"),
    ("float past 400 collapses", {"radius": 101}, ScalarMode.FLOAT, None,
     DimensionError, "203x203 binomial window needs more than 400 collapses"),
    ("bad interp s", None, ScalarMode.EXACT,
     ["--filter", "interp", "--radius", "2", "--s", "5"], ValueError,
     "interpolation step must satisfy 0 <= s <= 2r, got 5"),
    ("box past the tap budget", {"radius": 1024, "collapses": (0, 0)},
     ScalarMode.EXACT, ["--filter", "box", "--radius", "1024"], DimensionError,
     "2049x2049 window has more than 4194304 taps"),
    ("box far past the tap budget", {"radius": 10**5, "collapses": (0, 0)},
     ScalarMode.EXACT, ["--filter", "box", "--radius", "100000"],
     DimensionError, "200001x200001 window has more than 4194304 taps"),
    ("interp past the tap budget", {"radius": 1024, "collapses": (2, 2)},
     ScalarMode.EXACT, ["--filter", "interp", "--radius", "1024", "--s", "2"],
     DimensionError, "2049x2049 window has more than 4194304 taps"),
    ("float box past the tap budget", {"radius": 1024, "collapses": (0, 0)},
     ScalarMode.FLOAT, None, DimensionError,
     "2049x2049 window has more than 4194304 taps"),
]


@pytest.mark.parametrize("name, fields, mode, options, error, message",
                         WINDOW_REFUSALS, ids=[case[0] for case in WINDOW_REFUSALS])
def test_a_window_is_refused_before_any_side(name, fields, mode, options, error,
                                              message, tmp_path, capsys,
                                              monkeypatch):
    # Every method, the raster blur, the report and the CLI refuse the window
    # with one type and message before any side of it is computed.
    def unreached(*args):
        raise AssertionError("a window side was computed")

    def refused(run, *args):
        with pytest.raises(error) as err:
            run(*args)
        assert type(err.value) is error and str(err.value) == message

    monkeypatch.setattr(kernels_module, "_side", unreached)
    image = Matrix.filled(4, 4, 1)
    blurs = [(blur, image), (blur_raster, Raster(4, 4, 1, 255, image.data))]
    if mode is ScalarMode.FLOAT:
        image = image.to_float()
        blurs = [(blur, image)]
    if fields is not None:
        if set(fields) <= {"radius", "edge"}:
            refused(equivalence_report, image, fields["radius"],
                    fields.get("edge", EdgeMode.REPLICATE))
        for method in Method:
            for run, arg in blurs:
                refused(run, arg, BlurRequest(**fields, method=method))
    if options is None:
        return
    src = tmp_path / "in.pgm"
    src.write_bytes(b"P2\n4 4\n255\n" + b"1 " * 16)
    for method in Method:
        argv = ["blur", *options, "--method", method.value, str(src),
                str(tmp_path / "out.pgm")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.pgm").exists()


def test_the_tap_budget_admits_the_largest_box_it_names():
    # A box of radius 1023 is within MAX_TAPS; one of radius 1024 is not.
    assert kernels_module.MAX_TAPS == 2**22
    assert 2047**2 <= kernels_module.MAX_TAPS < 2049**2
    kernels_module._check_window(2047, 2047, 0, 0, ScalarMode.EXACT)
    kernels_module._check_window(1, 2**22, 0, 0, ScalarMode.FLOAT)
    with pytest.raises(DimensionError, match="1x4194305 window has more than"):
        kernels_module._check_window(1, 2**22 + 1, 0, 0, ScalarMode.EXACT)


def test_a_window_past_the_budget_is_refused_before_the_input_is_opened(
        tmp_path, capsys):
    # Refused in well under a second, with no input to open, so the
    # message is the window's, and no output is written.
    out = tmp_path / "out.pgm"
    argv = ["blur", "--filter", "box", "--radius", "100000",
            str(tmp_path / "missing.pgm"), str(out)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: 200001x200001 window has more than 4194304 taps\n")
    assert not out.exists()


# The module where the correlation looks up its one product loop.
collapse_module = importlib.import_module("collapsum.collapse")


def test_direct_checks_the_collapse_result_before_its_products(monkeypatch):
    # In sublanes of 16 bytes or more a result can pass int128.  Every method
    # computes the same numerator, so direct first checks the collapse
    # method's, which runs no correlation: a result past int128 is refused
    # before any of direct's row products, and an accepted one runs them.
    products = []
    correlate = collapse_module._correlate

    def counting(*args):
        products.append(args)
        return correlate(*args)

    monkeypatch.setattr(collapse_module, "_correlate", counting)
    full = Raster(4, 4, 3, 255, bytes([255]) * 48)
    gray = Matrix.filled(4, 4, 255)
    for run, image in ((blur_raster, full), (blur, gray)):
        with pytest.raises(ExactOverflowError) as err:
            run(image, BlurRequest(radius=30, method=Method.DIRECT))
        assert str(err.value) == OUT_OF_RANGE
        assert products == []
    # At radius 29 the sublanes are 16 bytes wide and every entry fits.
    direct = blur_raster(full, BlurRequest(radius=29, method=Method.DIRECT))
    assert products
    assert direct == blur_raster(full, BlurRequest(radius=29)) == full._replace(
        samples=[255] * 48)
