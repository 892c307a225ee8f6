"""Dense 2-D matrices with two scalar modes: exact integers and floats.

Exact mode models a signed 128-bit integer: every constructed entry must
lie in [-2**127, 2**127 - 1], and anything outside that range raises
:class:`ExactOverflowError` instead of wrapping.  Float mode is plain
IEEE-754 binary64.  All operator identities in this package are verified
in exact mode; image pipelines may use either.

Entries are addressed 1-based: ``at(1, 1)`` is the top-left corner.

>>> a = Matrix.from_rows([[1, 2], [3, 4]])
>>> a.at(2, 2)
4
>>> a.transpose().to_rows()
[[1, 3], [2, 4]]
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

INT128_MIN = -(2**127)
INT128_MAX = 2**127 - 1


class ScalarMode(Enum):
    """Scalar domain of a matrix: exact integers or binary64 floats."""

    EXACT = "exact"
    FLOAT = "float"


class DimensionError(ValueError):
    """Operand shapes do not admit the requested operation."""


class ExactOverflowError(OverflowError):
    """An exact-mode entry left the signed 128-bit range."""


@dataclass(frozen=True)
class Matrix:
    """Immutable matrix stored row-major as a flat tuple.

    ``data[(i - 1) * cols + (j - 1)]`` holds the 1-based entry (i, j);
    use :meth:`at` rather than relying on the internal layout.
    """

    rows: int
    cols: int
    data: tuple
    mode: ScalarMode = ScalarMode.EXACT

    def __post_init__(self):
        if not isinstance(self.data, tuple):
            raise TypeError("matrix data must be a tuple")
        if self.rows < 1 or self.cols < 1:
            raise DimensionError(
                f"matrix dimensions must be positive, got {self.rows}x{self.cols}"
            )
        if len(self.data) != self.rows * self.cols:
            raise DimensionError(
                f"data length {len(self.data)} != {self.rows}x{self.cols}"
            )
        if self.mode is ScalarMode.EXACT:
            # Range scan doubles as the overflow check for every operation,
            # since results only exist once they are constructed.
            if min(self.data) < INT128_MIN or max(self.data) > INT128_MAX:
                raise ExactOverflowError(
                    "entry outside the signed 128-bit range in exact mode"
                )

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence], mode: ScalarMode | None = None
    ) -> "Matrix":
        """Build a matrix from equal-length rows.

        The scalar mode is inferred unless given: all-int input is exact,
        anything containing a float becomes a float matrix.
        """
        if not rows:
            raise DimensionError("at least one row required")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise DimensionError("ragged rows: all rows must have equal length")
        flat = [x for r in rows for x in r]
        if mode is None:
            mode = (
                ScalarMode.FLOAT
                if any(isinstance(x, float) for x in flat)
                else ScalarMode.EXACT
            )
        if mode is ScalarMode.FLOAT:
            flat = [float(x) for x in flat]
        else:
            for x in flat:
                if not isinstance(x, int):
                    raise TypeError(f"exact mode requires int entries, got {x!r}")
        return cls(len(rows), width, tuple(flat), mode)

    @classmethod
    def identity(cls, n: int, mode: ScalarMode = ScalarMode.EXACT) -> "Matrix":
        one, zero = (1.0, 0.0) if mode is ScalarMode.FLOAT else (1, 0)
        data = tuple(one if i == j else zero for i in range(n) for j in range(n))
        return cls(n, n, data, mode)

    @classmethod
    def filled(cls, rows: int, cols: int, value) -> "Matrix":
        mode = ScalarMode.FLOAT if isinstance(value, float) else ScalarMode.EXACT
        return cls(rows, cols, (value,) * (rows * cols), mode)

    def at(self, i: int, j: int):
        """1-based entry access; (1, 1) is top-left."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(
                f"entry ({i}, {j}) out of range for {self.rows}x{self.cols} matrix"
            )
        return self.data[(i - 1) * self.cols + (j - 1)]

    def to_rows(self) -> list[list]:
        n = self.cols
        return [list(self.data[i * n : (i + 1) * n]) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        m, n, d = self.rows, self.cols, self.data
        data = tuple(d[i * n + j] for j in range(n) for i in range(m))
        return Matrix(n, m, data, self.mode)

    def block(self, top: int, left: int, height: int, width: int) -> "Matrix":
        """Contiguous submatrix copy; ``top``/``left`` are 1-based."""
        if height < 1 or width < 1:
            raise DimensionError("block dimensions must be positive")
        if not (
            1 <= top
            and 1 <= left
            and top + height - 1 <= self.rows
            and left + width - 1 <= self.cols
        ):
            raise DimensionError(
                f"block ({top},{left})+{height}x{width} exceeds "
                f"{self.rows}x{self.cols} matrix"
            )
        n, d = self.cols, self.data
        data = []
        for i in range(top - 1, top - 1 + height):
            base = i * n + (left - 1)
            data.extend(d[base : base + width])
        return Matrix(height, width, tuple(data), self.mode)

    def to_float(self) -> "Matrix":
        if self.mode is ScalarMode.FLOAT:
            return self
        return Matrix(
            self.rows, self.cols, tuple(float(x) for x in self.data), ScalarMode.FLOAT
        )

    def __repr__(self):  # pragma: no cover - debugging aid
        body = ", ".join(str(r) for r in self.to_rows())
        return f"Matrix({self.rows}x{self.cols} {self.mode.value}: [{body}])"


def _require_same_mode(a: Matrix, b: Matrix) -> ScalarMode:
    if a.mode is not b.mode:
        raise ValueError(
            f"scalar mode mismatch: {a.mode.value} vs {b.mode.value}"
            " (convert with to_float() first)"
        )
    return a.mode


def add(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise sum of two equal-shaped matrices."""
    mode = _require_same_mode(a, b)
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionError(
            f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols} matrices"
        )
    data = tuple(x + y for x, y in zip(a.data, b.data))
    return Matrix(a.rows, a.cols, data, mode)


def scale(c, a: Matrix) -> Matrix:
    """Entrywise product by the scalar ``c``.

    In exact mode ``c`` must be an int; floats require a float matrix.
    """
    if a.mode is ScalarMode.EXACT:
        if not isinstance(c, int):
            raise ValueError("exact-mode scale requires an int coefficient")
    else:
        c = float(c)
    return Matrix(a.rows, a.cols, tuple(c * x for x in a.data), a.mode)


def round_half_away(a: Matrix, divisor: int = 1) -> Matrix:
    """Exact matrix of ``a / divisor``, each entry rounded half away from zero.

    Exact entries round by integer arithmetic, so the result is
    reproducible bit for bit; with divisor 1 they are returned as is.
    """
    if a.mode is ScalarMode.EXACT:
        if divisor == 1:
            return a
        d2 = 2 * divisor
        data = [
            (2 * x + divisor) // d2 if x >= 0 else -((divisor - 2 * x) // d2)
            for x in a.data
        ]
    else:
        data = [
            math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5)
            for v in (x / divisor for x in a.data)
        ]
    return Matrix(a.rows, a.cols, tuple(data), ScalarMode.EXACT)


def multiply(a: Matrix, b: Matrix) -> Matrix:
    """Standard matrix product."""
    mode = _require_same_mode(a, b)
    if a.cols != b.rows:
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    m, k, n = a.rows, a.cols, b.cols
    da, db = a.data, b.data
    out = []
    for i in range(m):
        arow = da[i * k : (i + 1) * k]
        for j in range(n):
            acc = 0
            for t in range(k):
                acc += arow[t] * db[t * n + j]
            out.append(acc)
    if mode is ScalarMode.FLOAT:
        out = [float(x) for x in out]
    return Matrix(m, n, tuple(out), mode)


def approx_equal(a: Matrix, b: Matrix, tol: float) -> bool:
    """True iff the max entrywise absolute difference is at most ``tol``.

    ``tol = 0`` demands exact equality.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionError(
            f"cannot compare {a.rows}x{a.cols} and {b.rows}x{b.cols} matrices"
        )
    return all(abs(x - y) <= tol for x, y in zip(a.data, b.data))
