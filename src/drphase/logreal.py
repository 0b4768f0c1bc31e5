"""Signed log-magnitude scalars.

Generating-function values along the recursion overflow float64 within a
dozen steps on growing instances, but the audits only ever need products,
signed sums, and the signs of those values.  LogReal keeps (sign, log|x|)
and does exactly that arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_EXP_OVERFLOW = 709.782712893384
_EXP_UNDERFLOW = -745.0


@dataclass(frozen=True)
class LogReal:
    """A real number stored as a sign in {-1, 0, 1} and log of its magnitude."""

    sign: int
    log: float

    @staticmethod
    def from_float(x: float) -> "LogReal":
        if x == 0.0:
            return ZERO
        return LogReal(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def from_log(log: float, sign: int = 1) -> "LogReal":
        if sign == 0 or log == -math.inf:
            return ZERO
        return LogReal(1 if sign > 0 else -1, log)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.log > _EXP_OVERFLOW:
            return math.inf * self.sign
        if self.log < _EXP_UNDERFLOW:
            return 0.0
        return self.sign * math.exp(self.log)

    def __neg__(self) -> "LogReal":
        return LogReal(-self.sign, self.log)

    def __mul__(self, other: "LogReal") -> "LogReal":
        s = self.sign * other.sign
        if s == 0:
            return ZERO
        return LogReal(s, self.log + other.log)

    def __add__(self, other: "LogReal") -> "LogReal":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        if self.sign == other.sign:
            return LogReal(self.sign, _logaddexp(self.log, other.log))
        if self.log == other.log:
            return ZERO
        big, small = (self, other) if self.log > other.log else (other, self)
        frac = math.exp(small.log - big.log)
        if frac >= 1.0:  # magnitudes closer than one rounding step
            return ZERO
        return LogReal.from_log(big.log + math.log1p(-frac), big.sign)

    def __sub__(self, other: "LogReal") -> "LogReal":
        return self + (-other)


ZERO = LogReal(0, -math.inf)
ONE = LogReal(1, 0.0)


def _logaddexp(a: float, b: float) -> float:
    """log(e^a + e^b) for logs above -inf: LogReal.__add__ passes no ZERO."""
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))

