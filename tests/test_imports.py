"""What each command imports, the public names of the lazy package, and
the one module that imports ``array`` or reads the host's byte order.

A process compiles every module it imports from source when no bytecode
is cached, so each command loads only the collapsum modules it runs, and
``import collapsum`` only ``collapse`` and the ``matrix`` module it
needs.  Every public name resolves at the package to its home module's
object, and only the names that the benchmark harness looks up outside
their homes are served there as well.
"""

import ast
import importlib
import json
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


# Every public name of the package, by the module that defines it.
PUBLIC = {
    "collapse": "GammaSpec collapse collapse_down collapse_down_power "
                "collapse_power collapse_right collapse_right_power "
                "generalized_collapse generalized_collapse_power",
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
                "deviation equivalence_report seeded_image",
    "bench": "BenchReport BenchRow benchmark entry_ops",
    "structured": "ToeplitzSpec collapsed_coefficient_square "
                  "column_sum_vector r_falling r_matrix r_phi r_phi_falling "
                  "row_sum_vector toeplitz toeplitz_full_collapse",
}

# The only names a module serves that it does not define, by that module
# and their home: those that the benchmark harness looks up there
# (perfbench/tracing.py and perfbench/workloads.py).
MOVED = {
    ("pipeline", "bench"): "entry_ops",
    ("pipeline", "windows"): "gaussian_kernel gaussian_kernel_rect",
    ("pipeline", "kernels"): "extend",
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


# Run in a fresh process, since a served name, once looked up, is bound in
# its module like a name of its own.
SERVED = """
import importlib, json, pathlib, collapsum
modules = {p.stem: importlib.import_module(f"collapsum.{p.stem}")
           for p in sorted(pathlib.Path(collapsum.__file__).parent.glob("*.py"))
           if p.stem not in ("__init__", "__main__")}
own = {name: set(vars(m)) for name, m in modules.items()}
# A lazy table may also serve a whole module under its own name.
defined = set(modules).union(*own.values())
print(json.dumps({
    "lazy": [name for name, m in modules.items() if "__getattr__" in own[name]],
    "served": {name: sorted(n for n in defined - own[name] if hasattr(m, n))
               for name, m in modules.items()}}))
"""


def test_no_other_module_serves_a_name_it_does_not_define():
    # Each name has one home: outside the package root only cli and
    # pipeline serve names of other modules, and only those in MOVED.
    out = subprocess.run([sys.executable, "-c", SERVED],
                         env=dict(os.environ, PYTHONPATH=SRC), check=True,
                         capture_output=True, text=True, timeout=60)
    found = json.loads(out.stdout)
    assert found["lazy"] == ["cli", "pipeline"]
    expected = {}
    for (old, _home), names in MOVED.items():
        expected.setdefault(old, []).extend(names.split())
    assert {name: served for name, served in found["served"].items()
            if served} == {name: sorted(names)
                           for name, names in expected.items()}


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


def reads_bytes_natively(tree):
    """Whether a module's syntax tree imports ``array`` or reads
    ``sys.byteorder``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                alias.name == "array" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (
                node.module == "array" or node.module == "sys" and any(
                    alias.name == "byteorder" for alias in node.names)):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "byteorder":
            return True
    return False


def test_only_collapse_converts_ints_to_native_bytes():
    # One byte codec: every int to byte item conversion, lanes and netpbm
    # samples alike, runs through collapse, the one module that builds
    # ``array`` items or asks the host's byte order.
    found = {path.stem for path in Path(collapsum.__file__).parent.glob("*.py")
             if reads_bytes_natively(ast.parse(path.read_text()))}
    assert found == {"collapse"}
