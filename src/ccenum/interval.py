"""Outward-rounded binary64 interval arithmetic.

Rounding strategy (global, see README): every elementary operation is
computed in round-to-nearest and the result is adjusted outward by one
representable step whenever it may be inexact.  Error-free transforms
(two-sum for +/-, exact rational remainders for *, /, sqrt) detect the
exact cases, so e.g. [1,1] - [1,1] stays [0,0] while 1/[3,3] acquires
positive width.  The adjustment-of-nearest scheme never touches the FPU
rounding mode, hence is safe under any threading.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DomainError,
    IntervalDivisionError,
    ShapeError,
)

_INF = math.inf


def _next_down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _next_up(x: float) -> float:
    return math.nextafter(x, _INF)


def _two_sum(a: float, b: float) -> tuple[float, float]:
    # s + e == a + b exactly, provided no overflow.
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _add_down(a: float, b: float) -> float:
    s, e = _two_sum(a, b)
    if math.isinf(s):
        return s if s < 0 else math.nextafter(s, 0.0)
    return _next_down(s) if (e < 0 or math.isnan(e)) else s


def _add_up(a: float, b: float) -> float:
    s, e = _two_sum(a, b)
    if math.isinf(s):
        return s if s > 0 else math.nextafter(s, 0.0)
    return _next_up(s) if (e > 0 or math.isnan(e)) else s


def _mul_down(a: float, b: float) -> float:
    p = a * b
    if math.isinf(p):
        return p if p < 0 else math.nextafter(p, 0.0)
    r = Fraction(a) * Fraction(b) - Fraction(p)
    return _next_down(p) if r < 0 else p


def _mul_up(a: float, b: float) -> float:
    p = a * b
    if math.isinf(p):
        return p if p > 0 else math.nextafter(p, 0.0)
    r = Fraction(a) * Fraction(b) - Fraction(p)
    return _next_up(p) if r > 0 else p


def _div_down(a: float, b: float) -> float:
    q = a / b
    if math.isinf(q):
        return q if q < 0 else math.nextafter(q, 0.0)
    r = Fraction(a) - Fraction(q) * Fraction(b)
    # a/b - q = r/b
    return _next_down(q) if (r < 0) == (b > 0) and r != 0 else q


def _div_up(a: float, b: float) -> float:
    q = a / b
    if math.isinf(q):
        return q if q > 0 else math.nextafter(q, 0.0)
    r = Fraction(a) - Fraction(q) * Fraction(b)
    return _next_up(q) if (r > 0) == (b > 0) and r != 0 else q


def _pow_down(x: float, k: int) -> float:
    f = Fraction(x) ** k
    v = float(f)
    return v if Fraction(v) <= f else _next_down(v)


def _pow_up(x: float, k: int) -> float:
    f = Fraction(x) ** k
    v = float(f)
    return v if Fraction(v) >= f else _next_up(v)


def _sqrt_down(a: float) -> float:
    if a == 0.0:
        return 0.0
    s = math.sqrt(a)
    return _next_down(s) if Fraction(s) * Fraction(s) > Fraction(a) else s


def _sqrt_up(a: float) -> float:
    if a == 0.0:
        return 0.0
    s = math.sqrt(a)
    return _next_up(s) if Fraction(s) * Fraction(s) < Fraction(a) else s


class Interval:
    """Closed nonempty interval [lo, hi] with outward-rounded arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval bound is NaN")
        if lo > hi:
            raise ValueError(f"lo > hi: [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Interval":
        """Tightest interval enclosing an exact rational."""
        x = float(f)
        lo = x if Fraction(x) <= f else _next_down(x)
        hi = x if Fraction(x) >= f else _next_up(x)
        return cls(lo, hi)

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Interval":
        if isinstance(x, Interval):
            return x
        return Interval(float(x))

    def __add__(self, other) -> "Interval":
        other = self._coerce(other)
        return Interval(_add_down(self.lo, other.lo), _add_up(self.hi, other.hi))

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        other = self._coerce(other)
        return Interval(_add_down(self.lo, -other.hi), _add_up(self.hi, -other.lo))

    def __rsub__(self, other) -> "Interval":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Interval":
        other = self._coerce(other)
        pairs = (
            (self.lo, other.lo),
            (self.lo, other.hi),
            (self.hi, other.lo),
            (self.hi, other.hi),
        )
        return Interval(
            min(_mul_down(a, b) for a, b in pairs),
            max(_mul_up(a, b) for a, b in pairs),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        other = self._coerce(other)
        if other.lo <= 0.0 <= other.hi:
            raise IntervalDivisionError(f"divisor {other!r} contains zero")
        pairs = (
            (self.lo, other.lo),
            (self.lo, other.hi),
            (self.hi, other.lo),
            (self.hi, other.hi),
        )
        return Interval(
            min(_div_down(a, b) for a, b in pairs),
            max(_div_up(a, b) for a, b in pairs),
        )

    def __rtruediv__(self, other) -> "Interval":
        return self._coerce(other) / self

    # -- elementary functions ------------------------------------------------

    def sqrt(self) -> "Interval":
        if self.hi < 0.0:
            raise DomainError(f"sqrt of {self!r}")
        lo = max(self.lo, 0.0)
        return Interval(_sqrt_down(lo), _sqrt_up(self.hi))

    def sqr(self) -> "Interval":
        """Exact image of x**2 (even-power symmetry handled)."""
        a = min(_mul_down(self.lo, self.lo), _mul_down(self.hi, self.hi))
        b = max(_mul_up(self.lo, self.lo), _mul_up(self.hi, self.hi))
        if self.lo <= 0.0 <= self.hi:
            return Interval(0.0, b)
        return Interval(a, b)

    def pow_int(self, k: int) -> "Interval":
        if k < 0:
            raise DomainError("pow_int exponent must be >= 0")
        if k == 0:
            return Interval(1.0)
        if k == 1:
            return Interval(self.lo, self.hi)
        if k % 2 == 0:
            s = self.sqr()
            return Interval(_pow_down(s.lo, k // 2), _pow_up(s.hi, k // 2))
        return Interval(_pow_down(self.lo, k), _pow_up(self.hi, k))

    def __abs__(self) -> "Interval":
        if self.lo >= 0.0:
            return Interval(self.lo, self.hi)
        if self.hi <= 0.0:
            return Interval(-self.hi, -self.lo)
        return Interval(0.0, max(-self.lo, self.hi))

    # -- set operations --------------------------------------------------------

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def disjoint(self, other: "Interval") -> bool:
        return self.hi < other.lo or other.hi < self.lo

    # -- metrics ---------------------------------------------------------------

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        if m < self.lo:
            m = self.lo
        if m > self.hi:
            m = self.hi
        return m

    @property
    def width(self) -> float:
        return _add_up(self.hi, -self.lo)

    def inflate(self, delta: float) -> "Interval":
        return Interval(_add_down(self.lo, -delta), _add_up(self.hi, delta))


def interval_sum(items: Iterable[Interval]) -> Interval:
    total = Interval(0.0)
    for it in items:
        total = total + it
    return total


class IntervalMatrix:
    """Row-major grid of intervals: the scalar reference for `boxops.bmatvec_iv`."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Interval]]):
        self.rows = [list(r) for r in rows]
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ShapeError("ragged interval matrix")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, idx: tuple[int, int]) -> Interval:
        return self.rows[idx[0]][idx[1]]

    def matvec(self, v: Sequence[Interval]) -> list[Interval]:
        m, k = self.shape
        if k != len(v):
            raise ShapeError(f"matvec shapes {self.shape} x {len(v)}")
        return [interval_sum(self.rows[i][j] * v[j] for j in range(k)) for i in range(m)]

    @classmethod
    def identity(cls, m: int) -> "IntervalMatrix":
        return cls(
            [[Interval(1.0) if i == j else Interval(0.0) for j in range(m)] for i in range(m)]
        )
