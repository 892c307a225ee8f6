"""What each command imports, and the public names of the lazy package.

A process compiles every module it imports from source when no bytecode
is cached, so each command loads only the collapsum modules it runs, and
``import collapsum`` only ``collapse`` and the ``matrix`` module it
needs.  Every public name, and every name that moved to a module no
command imports, still resolves where it did.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import collapsum

SRC = str(Path(collapsum.__file__).parents[1])

# The modules each command needs besides ``collapsum`` and the ``collapse``
# and ``matrix`` modules that importing it runs.
WORK = {"kernels", "pipeline"}
COMMANDS = {
    "blur": WORK | {"cli", "netpbm"},
    "kernel": WORK | {"cli"},
    "verify": WORK | {"cli"},
    "bench": WORK | {"cli", "bench"},
    "import": set(),
    # The benchmark's verify-r8 set-up: its imports, then one report.
    "verify-r8 set-up": WORK,
}


def loaded_modules(argv, cwd):
    """The collapsum modules a fresh ``python -S -X importtime`` of argv
    imports, by the import-time log."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-X", "importtime", *argv],
                         env=env, cwd=cwd, check=True, capture_output=True,
                         text=True, timeout=60)
    names = {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
             if line.startswith("import time:")}
    return {name for name in names if name.split(".")[0] == "collapsum"}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_its_modules(command, tmp_path):
    image = tmp_path / "in.ppm"
    image.write_bytes(b"P6\n4 3\n255\n" + bytes(range(36)))
    argv = {
        "blur": ["-m", "collapsum", "blur", "--radius", "1", str(image),
                 str(tmp_path / "out.ppm")],
        "kernel": ["-m", "collapsum", "kernel", "--filter", "box"],
        "verify": ["-m", "collapsum", "verify", "--radius", "1", "--size", "6"],
        "bench": ["-m", "collapsum", "bench", "--sizes", "4", "--radii", "1",
                  "--reps", "1"],
        "import": ["-c", "import collapsum"],
        "verify-r8 set-up": [
            "-c", "from collapsum.kernels import EdgeMode\n"
                  "from collapsum.matrix import Matrix\n"
                  "from collapsum.pipeline import equivalence_report\n"
                  "small = Matrix(8, 8, tuple(range(64)))\n"
                  "assert equivalence_report(small, 2, EdgeMode.ZERO).passed\n"],
    }[command]
    expected = {"collapsum", "collapsum.collapse", "collapsum.matrix",
                *(f"collapsum.{name}" for name in COMMANDS[command])}
    assert loaded_modules(argv, tmp_path) == expected


# Every public name of the package, by the module it came from before the
# package loaded lazily: ``Raster`` and ``blur_raster`` by the module that
# defines them.
PUBLIC = {
    "collapse": "GammaSpec NdArray collapse collapse_all collapse_axis "
                "collapse_down collapse_down_power collapse_power "
                "collapse_right collapse_right_power generalized_collapse "
                "generalized_collapse_power",
    "kernels": "EdgeMode FilterResult Kernel box_kernel convolve convolve_crop "
               "extend gaussian_kernel gaussian_kernel_rect "
               "gaussian_kernel_sampled interpolation_kernel separable_convolve",
    "matrix": "DimensionError ExactOverflowError Matrix ScalarMode add "
              "approx_equal multiply scale",
    "netpbm": "NetpbmError Raster merge_color plane_from_matrix "
              "read_netpbm split_color write_netpbm",
    "pipeline": "BenchReport BenchRow BlurRequest EquivalenceReport Method "
                "benchmark blur blur_raster deviation entry_ops "
                "equivalence_report rect_blur seeded_image",
    "structured": "ToeplitzSpec binomial coefficient_matrix "
                  "coefficient_matrix_entry_sum collapsed_coefficient_square "
                  "column_sum_vector r_falling r_matrix r_phi r_phi_falling "
                  "row_sum_vector toeplitz toeplitz_full_collapse",
}

# Each name that moved to a module no command imports, or that a tracer
# wraps in a module that does not call it, by its old module and its home.
MOVED = {
    ("pipeline", "bench"): "BenchReport BenchRow CSV_HEADER TIMING_CONTRACT "
                           "benchmark entry_ops",
    ("pipeline", "windows"): "gaussian_kernel gaussian_kernel_rect",
    ("pipeline", "kernels"): "extend",
    ("kernels", "windows"): "box_kernel gaussian_kernel gaussian_kernel_rect "
                            "gaussian_kernel_sampled interpolation_kernel",
    ("collapse", "nd"): "MAX_AXES NdArray collapse_all collapse_axis",
    ("matrix", "algebra"): "_require_same_mode add approx_equal multiply",
    ("structured", "kernels"): "MAX_COLLAPSES _check_counts _check_window "
                               "_peak _side binomial coefficient_matrix "
                               "coefficient_matrix_entry_sum coefficient_sides",
    ("cli", "netpbm"): "merge_color plane_from_matrix read_netpbm "
                       "split_color write_netpbm",
    ("cli", "pipeline"): "blur",
}


def module(name):
    return importlib.import_module(f"collapsum.{name}")


def test_all_is_the_public_names():
    assert collapsum.__all__ == sorted(" ".join(PUBLIC.values()).split())
    assert set(collapsum.__all__) <= set(dir(collapsum))


@pytest.mark.parametrize("home", PUBLIC)
def test_each_public_name_is_its_module_s_object(home):
    for name in PUBLIC[home].split():
        assert getattr(collapsum, name) is getattr(module(home), name), name


@pytest.mark.parametrize("old, home", MOVED)
def test_each_moved_name_resolves_where_it_was(old, home):
    for name in MOVED[old, home].split():
        assert getattr(module(old), name) is getattr(module(home), name), name
        exec(f"from collapsum.{old} import {name}", {})


def test_collapse_stays_the_function_after_every_module_loads():
    for path in sorted(Path(collapsum.__file__).parent.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            module(path.stem)
    assert collapsum.collapse is module("collapse").collapse
    assert callable(collapsum.collapse)


def test_unknown_names_are_refused():
    for owner in (collapsum, module("pipeline"), module("cli")):
        with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
            owner.nothing
