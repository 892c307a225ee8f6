"""The functions that the benchmark's tracer wraps must still exist.

``perfbench/tracing.py`` wraps collapsum functions by name, where their
callers look them up.  A refactor that drops or renames one of them would
otherwise show only as a missing trace point in the benchmark's own,
much slower, self-tests.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_wrap_point_resolves_to_a_callable():
    # Executed from its source text, so nothing is written next to it.
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    missing = []
    for module, path, _name, _count in tracing.WRAP_POINTS:
        owner = importlib.import_module(f"collapsum.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert tracing.WRAP_POINTS
    assert missing == []
