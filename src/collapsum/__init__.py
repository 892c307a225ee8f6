"""Pair-sum collapse calculus for binomial Gaussian blur.

Exact-integer matrices, the collapse operators and their banded-matrix
realizations, kernel construction and convolution, three interchangeable
blur strategies with an equivalence checker and benchmark, and netpbm
image I/O behind a small CLI.

The package loads lazily (PEP 562), so that a process compiles and runs
only the modules its command uses: ``import collapsum`` runs the
``collapse`` module and the ``matrix`` module it imports, and every
other public name is imported from its module on first use, as are the
modules themselves (``collapsum.pipeline``).  ``collapse`` alone is bound
at import: importing the ``collapsum.collapse`` submodule later would
otherwise rebind the package's name ``collapse`` to the module.
"""

from .matrix import _lazy
from .collapse import collapse

# The public names, by the module that defines them.
_EXPORTS = {
    "collapse": "GammaSpec collapse_down collapse_down_power collapse_power "
                "collapse_right collapse_right_power generalized_collapse "
                "generalized_collapse_power",
    "nd": "NdArray collapse_all collapse_axis",
    "kernels": "EdgeMode FilterResult Kernel binomial coefficient_matrix "
               "coefficient_matrix_entry_sum convolve convolve_crop extend "
               "separable_convolve",
    "windows": "box_kernel gaussian_kernel gaussian_kernel_rect "
               "gaussian_kernel_sampled interpolation_kernel",
    "matrix": "DimensionError ExactOverflowError Matrix ScalarMode scale",
    "algebra": "add approx_equal multiply",
    "netpbm": "NetpbmError Raster merge_color plane_from_matrix "
              "read_netpbm split_color write_netpbm",
    "pipeline": "BlurRequest EquivalenceReport Method blur blur_raster "
                "deviation equivalence_report rect_blur seeded_image",
    "bench": "BenchReport BenchRow benchmark entry_ops",
    "structured": "ToeplitzSpec collapsed_coefficient_square "
                  "column_sum_vector r_falling r_matrix r_phi r_phi_falling "
                  "row_sum_vector toeplitz toeplitz_full_collapse",
}

__all__ = sorted(["collapse", *" ".join(_EXPORTS.values()).split()])

# Each module but ``collapse`` is served under its own name as well.
__getattr__ = _lazy(globals(), {
    home: names if home == "collapse" else f"{home} {names}"
    for home, names in _EXPORTS.items()})


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
