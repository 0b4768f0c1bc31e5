"""Signed log-magnitude scalars.

Generating-function values along the recursion overflow float64 within a
dozen steps on growing instances, but the audits only ever need products,
signed sums, and the signs of those values.  LogReal keeps (sign, log|x|)
and does exactly that arithmetic, in scalar `math` calls: numpy's exp and
log1p can differ from math's in the last bit.  One check-lemmas builds
about a thousand of them, so LogReal is a slotted class, at half the
construction cost of a frozen dataclass, compared and hashed by value;
no code mutates one.
"""

from __future__ import annotations

import math

_EXP_OVERFLOW = 709.782712893384
_EXP_UNDERFLOW = -745.0


class LogReal:
    """A real number stored as a sign in {-1, 0, 1} and log of its magnitude.

    Equal, with equal hashes, when sign and log are; repr as a dataclass's.
    """

    __slots__ = ("sign", "log")

    def __init__(self, sign: int, log: float):
        self.sign = sign
        self.log = log

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LogReal:
            return NotImplemented
        return (self.sign, self.log) == (other.sign, other.log)

    def __hash__(self) -> int:
        return hash((self.sign, self.log))

    def __repr__(self) -> str:
        return f"LogReal(sign={self.sign!r}, log={self.log!r})"

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

    def __mul__(self, other: "LogReal") -> "LogReal":
        s = self.sign * other.sign
        if s == 0:
            return ZERO
        return LogReal(s, self.log + other.log)

    def __add__(self, other: "LogReal") -> "LogReal":
        return self._plus(other.sign, other.log)

    def __sub__(self, other: "LogReal") -> "LogReal":
        return self._plus(-other.sign, other.log)

    def _plus(self, sign: int, log: float) -> "LogReal":
        """self + sign * e^log, the one signed sum behind + and -."""
        if self.sign == 0:
            return LogReal(sign, log)
        if sign == 0:
            return self
        if self.sign == sign:
            # log(e^a + e^b), both logs above -inf
            hi, lo = (self.log, log) if self.log >= log else (log, self.log)
            return LogReal(sign, hi + math.log1p(math.exp(lo - hi)))
        if self.log == log:
            return ZERO
        if self.log > log:
            big_sign, big_log, small_log = self.sign, self.log, log
        else:
            big_sign, big_log, small_log = sign, log, self.log
        frac = math.exp(small_log - big_log)
        if frac >= 1.0:  # magnitudes closer than one rounding step
            return ZERO
        return LogReal.from_log(big_log + math.log1p(-frac), big_sign)


ZERO = LogReal(0, -math.inf)
ONE = LogReal(1, 0.0)
