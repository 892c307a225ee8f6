"""Spans around calls into collapsum's modules, recorded from outside them.

A :class:`Tracer` replaces each wrap point -- a function as bound in the
namespace where callers look it up -- by a wrapper that records one span:
its name, start and end (``time.monotonic_ns``, which is CLOCK_MONOTONIC on
Linux and so comparable across processes), the span that was open when it
started, the request id and a dict of work counts taken from its arguments
and result.  Spans stay in memory until the caller writes them out.

The module names are the layers: a span named ``collapse.down`` belongs to
layer ``collapse``.  A layer's self time is the duration of its spans minus
the time their child spans cover; the self time of the root span (id 0,
recorded by the caller around each request) is the unattributed time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

ROOT_ID = 0


def _entries(args, result):
    return {"entries": result.rows * result.cols}


def _adds(args, result):
    return {"adds": result.rows * result.cols}


def _macs(args, result):
    kernel, out = args[0], result.numerator
    return {"macs": out.rows * out.cols * kernel.height * kernel.width}


def _read(args, result):
    channels = 1 if hasattr(result, "samples") else 3
    return {"bytes": len(args[0]),
            "samples": result.width * result.height * channels}


def _write(args, result):
    img = args[0]
    channels = 1 if hasattr(img, "samples") else 3
    return {"samples": img.width * img.height * channels}


# (module, attribute path, span name, work counter).  A function appears once
# for each module whose code looks it up by name, so that every call the
# workloads make passes through a wrapper.  The rectangle-window lookups in
# ``pipeline`` are wrapped too, so a radius blur routed through that path is
# traced the same way.
WRAP_POINTS = (
    ("cli", "main", "cli.main", None),
    ("cli", "read_netpbm", "netpbm.read", _read),
    ("cli", "write_netpbm", "netpbm.write", _write),
    ("cli", "split_color", "netpbm.split", None),
    ("cli", "merge_color", "netpbm.quantize", None),
    ("cli", "plane_from_matrix", "netpbm.quantize", None),
    ("netpbm", "plane_from_matrix", "netpbm.quantize", None),
    ("cli", "blur", "pipeline.blur", None),
    ("pipeline", "blur", "pipeline.blur", None),
    ("pipeline", "equivalence_report", "pipeline.equivalence_report", None),
    ("pipeline", "deviation", "pipeline.deviation", None),
    ("pipeline", "gaussian_kernel", "kernels.kernel_build", None),
    ("pipeline", "gaussian_kernel_rect", "kernels.kernel_build", None),
    ("pipeline", "extend", "kernels.extend", None),
    ("pipeline", "extend_asym", "kernels.extend", _entries),
    ("pipeline", "convolve", "kernels.convolve", None),
    ("pipeline", "separable_convolve", "kernels.convolve", None),
    ("pipeline", "collapse_power", "collapse.power", None),
    ("pipeline", "collapse_down_power", "collapse.power", None),
    ("pipeline", "collapse_right_power", "collapse.power", None),
    ("kernels", "extend", "kernels.extend", None),
    ("kernels", "extend_asym", "kernels.extend", _entries),
    ("kernels", "convolve_crop", "kernels.convolve", _macs),
    ("kernels", "FilterResult.rounded", "kernels.round", None),
    ("collapse", "collapse_down", "collapse.down", _adds),
    ("collapse", "collapse_right", "collapse.right", _adds),
)


class Tracer:
    """Installs the wrap points and collects the spans of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.request_id = 0
        self._stack = [ROOT_ID]
        self._next_id = ROOT_ID + 1
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> list[str]:
        """Wrap every wrap point; return those that no longer exist."""
        missing = []
        for module, path, name, count in WRAP_POINTS:
            owner = importlib.import_module(f"collapsum.{module}")
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                missing.append(f"{module}.{path}")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))
        return missing

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def start_request(self, request_id: int) -> None:
        self.request_id = request_id
        self._stack = [ROOT_ID]
        self._next_id = ROOT_ID + 1

    def add_root(self, start: int, end: int) -> None:
        self.spans.append(span(self.request_id, ROOT_ID, None, "request",
                               start, end))

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            result = None
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                self._stack.pop()
                work = count(args, result) if count and result is not None else {}
                self.spans.append(span(self.request_id, span_id, parent, name,
                                       start, end, work))
        return traced


def span(request, span_id, parent, name, start, end, work=None) -> dict:
    return {"request": request, "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, "work": work or {}}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name, summed over all requests."""
    covered = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            covered[(s["request"], s["parent"])] += s["end"] - s["start"]
    totals = defaultdict(int)
    for s in spans:
        own = s["end"] - s["start"] - covered[(s["request"], s["id"])]
        totals[s["name"]] += own
    return {name: ns / 1e9 for name, ns in totals.items()}


def work_totals(spans: list[dict]) -> dict[str, int]:
    """Work counts summed per ``<span name>.<counter>``."""
    totals = defaultdict(int)
    for s in spans:
        for key, value in s["work"].items():
            totals[f"{s['name']}.{key}"] += value
    return dict(totals)


def call_counts(spans: list[dict]) -> dict[str, int]:
    counts = defaultdict(int)
    for s in spans:
        counts[s["name"]] += 1
    return dict(counts)
