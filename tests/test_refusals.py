"""The public functions' refusals of bad arguments, each with its exception
type and exact message."""

import pytest

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
from collapsum.matrix import DimensionError, Matrix, ScalarMode, approx_equal
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
