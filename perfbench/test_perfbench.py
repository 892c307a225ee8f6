"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

The count tests run one traced request of each workload at full size, so
this takes about a minute.
"""

import importlib
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import collapsum  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from collapsum.pipeline import Method, entry_ops  # noqa: E402


@pytest.fixture
def workdir():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        yield Path(tmp)


def test_inputs_depend_only_on_the_seed():
    for encode, maxval in ((inputs.ppm_binary, 255), (inputs.ppm_ascii, 65535)):
        first = encode(random.Random(7), 5, 4, maxval)
        assert first == encode(random.Random(7), 5, 4, maxval)
        assert first != encode(random.Random(8), 5, 4, maxval)
        img = collapsum.read_netpbm(first)
        assert (img.width, img.height, img.maxval) == (5, 4, maxval)


def test_self_times_and_unattributed_add_up_to_the_root():
    spans = [
        tracing.span(0, 0, None, "request", 0, 100),
        tracing.span(0, 1, 0, "cli.main", 10, 90),
        tracing.span(0, 2, 1, "pipeline.blur", 20, 70),
        tracing.span(0, 3, 2, "collapse.down", 25, 45),
        tracing.span(0, 4, 2, "collapse.down", 50, 60),
        tracing.span(1, 0, None, "request", 200, 230),
    ]
    own = tracing.self_times(spans)
    assert own == {"request": 50e-9, "cli.main": 30e-9,
                   "pipeline.blur": 20e-9, "collapse.down": 30e-9}
    assert sum(own.values()) == pytest.approx(130e-9)


def test_missing_wrap_point_is_reported_and_others_restored(monkeypatch):
    module = importlib.import_module("collapsum.collapse")
    original = module.collapse_down
    monkeypatch.setattr(tracing, "WRAP_POINTS", tracing.WRAP_POINTS + (
        ("collapse", "no_such_function", "collapse.gone", None),
        ("kernels", "NoSuchClass.method", "kernels.gone", None),
    ))
    tracer = tracing.Tracer()
    missing = tracer.install()
    assert missing == ["collapse.no_such_function", "kernels.NoSuchClass.method"]
    assert module.collapse_down is not original
    tracer.uninstall()
    assert module.collapse_down is original


def traced_layers(workload, requests: int, workdir: Path) -> tuple[dict, list]:
    """Trace ``requests`` requests; check each output against an untraced
    run of the same request and return the layer metrics and the spans."""
    workload.prepare(random.Random(1), workdir)
    tracer = tracing.Tracer()
    for i in range(requests):
        output, missing = workload.traced_request(i, tracer)
        assert missing == []
        assert output == workload.request(i)[0]
    layers = run.per_layer(workload, tracer.spans, requests, 1.0, set())
    return {name: value for name, (value, unit) in layers.items()}, tracer.spans


def assert_layers_add_up(layers: dict):
    total = sum(layers[f"{layer}.self_s"] for layer in run.LAYERS)
    assert total + layers["trace.unattributed_s"] == pytest.approx(
        layers["trace.root_s"], rel=1e-9)


def assert_children_inside_roots(spans: list):
    roots = {s["request"]: s for s in spans if s["parent"] is None}
    for s in spans:
        root = roots[s["request"]]
        assert root["start"] <= s["start"] <= s["end"] <= root["end"]


@pytest.mark.parametrize("name", ["blur-p6-r4", "blur-p3-ascii16"])
def test_blur_counts_match_the_model(name, workdir):
    workload = workloads.WORKLOADS[name]()
    layers, spans = traced_layers(workload, 1, workdir)
    assert layers["collapse.adds_over_model"] == 1
    assert layers["collapse.passes"] == 3 * 2 * 2 * workload.radius
    assert layers["netpbm.samples"] == 2 * 3 * workload.pixels
    assert layers["kernels.convolve_macs"] == 0
    assert_layers_add_up(layers)
    assert_children_inside_roots(spans)


def test_verify_counts_match_the_model(workdir):
    workload = workloads.WORKLOADS["verify-r8"]()
    layers, spans = traced_layers(workload, workload.cycle, workdir)
    assert layers["collapse.adds_over_model"] == 1
    macs = sum(entry_ops(m, 256, 256, 8, edge) for edge in workload.EDGES
               for m in (Method.DIRECT, Method.SEPARABLE))
    assert tracing.work_totals(spans)["kernels.convolve.macs"] == macs
    assert layers["netpbm.samples"] == 0
    assert_layers_add_up(layers)
    assert_children_inside_roots(spans)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_set_up_runs_the_program_in_a_fresh_process(name, workdir):
    workload = workloads.WORKLOADS[name]()
    workload.prepare(random.Random(1), workdir)
    modules = set(sys.modules)
    workload.set_up()
    assert set(sys.modules) == modules


def test_exits_nonzero_without_the_program(workdir):
    bare = workdir / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    bench = json.loads((bare / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [*bench["command"], "--workload", "verify-r8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_calibrator_times_the_load_and_stops():
    calibrator = run.Calibrator()
    try:
        first, second = calibrator.seconds(), calibrator.seconds()
    finally:
        calibrator.close()
    assert first > 0 and second > 0
    assert calibrator.proc.returncode == 0
    assert calibrator.scale(first, first) == run.CALIBRATION_REF_S / first
