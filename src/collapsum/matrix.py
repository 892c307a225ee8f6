"""Dense 2-D matrices with two scalar modes: exact integers and floats.

Exact mode models a signed 128-bit integer: every constructed entry must
lie in [-2**127, 2**127 - 1], and anything outside that range raises
:class:`ExactOverflowError` instead of wrapping.  Every exact matrix is
checked the same way, whatever builds it: its constructor measures
:attr:`Matrix.span`, the exact (min, max) of the entries, which is also
the one range that later operations read, to size packed lanes.  A
float matrix measures its span when first asked.

Float mode is plain IEEE-754 binary64.  All operator identities in this
package are verified in exact mode; image pipelines may use either.

Entries are addressed 1-based: ``at(1, 1)`` is the top-left corner.

>>> a = Matrix.from_rows([[1, 2], [3, 4]])
>>> a.at(2, 2)
4
>>> a.transpose().to_rows()
[[1, 3], [2, 4]]
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from functools import cached_property

INT128_MIN = -(2**127)
INT128_MAX = 2**127 - 1
OUT_OF_RANGE = "entry outside the signed 128-bit range in exact mode"


class ScalarMode(Enum):
    """Scalar domain of a matrix: exact integers or binary64 floats."""

    EXACT = "exact"
    FLOAT = "float"


class DimensionError(ValueError):
    """Operand shapes do not admit the requested operation."""


class ExactOverflowError(OverflowError):
    """An exact-mode entry left the signed 128-bit range."""


class _Record:
    """Base of the package's checked records, each a ``collections.namedtuple``
    subclass whose ``_check`` refuses bad fields whenever one is made: by
    the constructor, by ``_make`` (so by ``_replace``) and by unpickling."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        self = super()._make(iterable)
        self._check()
        return self


def _lazy(namespace: dict, exports: dict):
    """A module ``__getattr__`` (PEP 562) for the module whose globals are
    ``namespace``: ``exports`` maps a collapsum module to the names, space
    separated, that are imported from it on first use and then bound in
    ``namespace``; a name that is its module's own name is that module."""
    homes = {name: home for home, names in exports.items()
             for name in names.split()}

    def __getattr__(name):
        home = homes.get(name)
        if home is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        # The import statement's own machinery, so that -X importtime
        # logs the import as it logs the others.
        module = __import__(f"collapsum.{home}", fromlist=[name])
        value = namespace[name] = module if home == name else getattr(module, name)
        return value

    return __getattr__


class Matrix:
    """Immutable matrix stored row-major as a flat tuple.

    ``data[(i - 1) * cols + (j - 1)]`` holds the 1-based entry (i, j);
    use :meth:`at` rather than relying on the internal layout.  Fields are
    read-only; matrices of equal fields are equal.
    """

    def __init__(self, rows: int, cols: int, data: tuple,
                 mode: ScalarMode = ScalarMode.EXACT):
        self.__dict__.update(rows=rows, cols=cols, data=data, mode=mode)
        self._check_shape()
        if mode is ScalarMode.EXACT:
            # Measuring ``span`` doubles as the overflow check of every
            # operation, since results only exist once they are constructed.
            low, high = self.span
            if low < INT128_MIN or high > INT128_MAX:
                raise ExactOverflowError(OUT_OF_RANGE)

    def _asdict(self) -> dict:
        return dict(rows=self.rows, cols=self.cols, data=self.data, mode=self.mode)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes) -> "Matrix":
        """A copy with ``changes`` to its fields, checked as a new matrix."""
        return Matrix(**{**self._asdict(), **changes})

    def _check_shape(self):
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

    @cached_property
    def span(self) -> tuple:
        """``(min(data), max(data))``, measured once: when an exact matrix
        is built (its int128 check), or when a float one is first asked."""
        return min(self.data), max(self.data)

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


def _rounded(values, divisor: int) -> list:
    # Each exact value over ``divisor``, rounded half away from zero.  Equal
    # to (2x + d) // 2d: with d odd, 2x + d is odd and so never a multiple
    # of 2d, so flooring (2x + d - 1) / 2d gives the same.
    half = divisor // 2
    return [
        (x + half) // divisor if x >= 0 else -((half - x) // divisor)
        for x in values
    ]


def round_half_away(a: Matrix, divisor: int = 1) -> Matrix:
    """Exact matrix of ``a / divisor``, each entry rounded half away from zero.

    Exact entries round by integer arithmetic, so the result is
    reproducible bit for bit; with divisor 1 they are returned as is.
    """
    if a.mode is ScalarMode.EXACT:
        if divisor == 1:
            return a
        data = _rounded(a.data, divisor)
    else:
        data = [
            math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5)
            for v in (x / divisor for x in a.data)
        ]
    return Matrix(a.rows, a.cols, tuple(data), ScalarMode.EXACT)
