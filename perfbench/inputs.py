"""Seeded workload inputs, written by the benchmark itself.

Everything is drawn from ``random.Random(seed)`` and encoded here, not with
collapsum's own writer or seeded images, so a change to the program cannot
change what it is measured on.
"""

from __future__ import annotations

import random


def _samples(rng: random.Random, count: int, maxval: int) -> list[int]:
    return [rng.randrange(maxval + 1) for _ in range(count)]


def ppm_binary(rng: random.Random, width: int, height: int, maxval: int) -> bytes:
    """A P6 image with uniformly random one-byte samples (maxval <= 255)."""
    raster = bytes(_samples(rng, width * height * 3, maxval))
    return b"P6\n%d %d\n%d\n" % (width, height, maxval) + raster


def ppm_ascii(rng: random.Random, width: int, height: int, maxval: int) -> bytes:
    """A P3 image with uniformly random samples, one raster row per line."""
    samples = _samples(rng, width * height * 3, maxval)
    per_row = width * 3
    lines = [" ".join(map(str, samples[i:i + per_row]))
             for i in range(0, len(samples), per_row)]
    header = b"P3\n%d %d\n%d\n" % (width, height, maxval)
    return header + ("\n".join(lines) + "\n").encode("ascii")


def matrix_samples(rng: random.Random, rows: int, cols: int) -> tuple[int, ...]:
    """Row-major 8-bit samples for an exact matrix."""
    return tuple(_samples(rng, rows * cols, 255))
