"""Parameter sweeps and boundary bisection over one-parameter model families.

Bisection targets the sign change of a criterion value, not the true
critical point: each criterion is sufficient only, so between the two roots
lies a band where neither claim applies.  The report carries that band
explicitly instead of papering over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import criteria
from .criteria import PhaseVerdict
from .dists import FinitePmf, ModelSpec, OffspringLaw

# Families are swept over the open unit interval, inset by this margin
# (endpoints would give a constant initial law).
EPS_PARAM = 1e-6
# Upper-tail mass cut from a geometric initial law; small enough that the
# retained weights still pass the mass-conservation band with zero leak.
GEO_X0_TAIL = 1e-14
DEFAULT_TOL = 1e-9


class NoSignChange(RuntimeError):
    """The criterion keeps one sign across the whole parameter range."""


class CriterionUnavailable(RuntimeError):
    """The requested criterion does not apply (unbounded offspring law)."""


def geometric_x0_pmf(r: float) -> FinitePmf:
    """P(X0 = k) = r (1-r)^k with the upper tail beyond GEO_X0_TAIL cut off,
    left unnormalized (the missing mass stays under the conservation band)."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"success probability must lie in (0, 1), got {r}")
    q = 1.0 - r
    # smallest cutoff with P(X0 > cutoff) = q^(cutoff+1) below the tail
    cutoff = max(1, math.ceil(math.log(GEO_X0_TAIL) / math.log(q)) - 1)
    while q ** (cutoff + 1) >= GEO_X0_TAIL:
        cutoff += 1
    w = r * np.power(q, np.arange(cutoff + 1, dtype=np.float64))
    # np.power's relative error grows ~3e-17 * k, and the cutoff scales as
    # 1/r, so below r ~ 1e-4 the float total drifts out of the conservation
    # band.  Re-pin the largest weight to the analytic total 1 - q^(c+1).
    gap = float((1.0 - q ** (cutoff + 1)) - np.sum(w, dtype=np.longdouble))
    if gap != 0.0 and abs(gap) <= 1e-3 * r:
        w[0] += gap
    return FinitePmf(w)


class Family:
    """A curve of models indexed by a parameter in (0, 1), all sharing one
    offspring law."""

    offspring: OffspringLaw

    def model(self, param: float) -> ModelSpec:
        raise NotImplementedError

    @staticmethod
    def _check_param(param: float) -> float:
        if not 0.0 < param < 1.0:
            raise ValueError(f"family parameter must lie in (0, 1), got {param}")
        return float(param)


@dataclass(frozen=True)
class TwoPointFamily(Family):
    """Initial law {0: 1-p, high_value: p}, parameterized by p."""

    a: int
    high_value: int
    offspring: OffspringLaw

    def __post_init__(self):
        if self.high_value < 1:
            raise ValueError(f"high_value must be >= 1, got {self.high_value}")

    def model(self, param: float) -> ModelSpec:
        p = self._check_param(param)
        x0 = FinitePmf.from_dict({0: 1.0 - p, self.high_value: p})
        return ModelSpec(self.a, x0, self.offspring)


@dataclass(frozen=True)
class GeometricX0Family(Family):
    """Initial law P(X0 = k) = r (1-r)^k on {0, 1, ...}, parameterized by
    the success probability r; materialized with its upper tail cut at
    GEO_X0_TAIL and left unnormalized."""

    a: int
    offspring: OffspringLaw

    def model(self, param: float) -> ModelSpec:
        r = self._check_param(param)
        return ModelSpec(self.a, geometric_x0_pmf(r), self.offspring)


@dataclass(frozen=True)
class BoundaryReport:
    """Scan grid plus bisected criterion boundaries.

    Intervals are (lo, hi) in the family parameter; a boundary is None when
    its criterion never changes sign (or never applies), and the matching
    *_missing field holds the NoSignChange or CriterionUnavailable that says
    so.  The undetermined band spans between the two roots when they are
    distinct.
    """

    grid: tuple[tuple[float, PhaseVerdict], ...]
    super_boundary: tuple[float, float] | None
    sub_boundary: tuple[float, float] | None
    undetermined_band: tuple[float, float] | None
    super_missing: RuntimeError | None = field(default=None, compare=False)
    sub_missing: RuntimeError | None = field(default=None, compare=False)


def scan(family: Family, grid_points: int) -> list[tuple[float, PhaseVerdict]]:
    """Classify the family on a uniform grid over (EPS_PARAM, 1-EPS_PARAM)."""
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    params = np.linspace(EPS_PARAM, 1.0 - EPS_PARAM, grid_points)
    return [(float(p), criteria.classify(family.model(float(p))))
            for p in params]


def _criterion_value(family: Family, which: str, param: float) -> float:
    """The chosen criterion alone, at the family member `param`."""
    model = family.model(param)
    point = criteria.super_point(model) if which == "super" \
        else criteria.sub_point(model)
    return criteria.d0(model, *point)


def bisect_boundary(family: Family, which: str,
                    tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Interval of width <= tol bracketing the chosen criterion's root."""
    if which not in ("super", "sub"):
        raise ValueError(f"which must be 'super' or 'sub', got {which!r}")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if which == "sub" and family.offspring.bound is None:
        # known from the family alone: build no law to learn it
        raise CriterionUnavailable(
            "the subcritical criterion requires a bounded offspring law")
    lo, hi = EPS_PARAM, 1.0 - EPS_PARAM
    f_lo = _criterion_value(family, which, lo)
    f_hi = _criterion_value(family, which, hi)
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NoSignChange(
            f"criterion '{which}' has the same sign at both ends of "
            f"({lo}, {hi}): {f_lo:.6g} and {f_hi:.6g}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = _criterion_value(family, which, mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo, hi


def boundary_report(family: Family, grid_points: int = 9,
                    tol: float = DEFAULT_TOL) -> BoundaryReport:
    """Grid verdicts plus both boundaries; missing boundaries become None,
    with the reason kept in super_missing/sub_missing."""
    grid = tuple(scan(family, grid_points))
    found: dict[str, tuple[float, float] | None] = {}
    missing: dict[str, RuntimeError | None] = {"super": None, "sub": None}
    for which in ("super", "sub"):
        try:
            found[which] = bisect_boundary(family, which, tol)
        except (NoSignChange, CriterionUnavailable) as exc:
            # without its traceback, whose frames would keep the laws alive
            found[which], missing[which] = None, exc.with_traceback(None)
    super_b, sub_b = found["super"], found["sub"]
    band = None
    if super_b is not None and sub_b is not None:
        lo = min(super_b[1], sub_b[1])
        hi = max(super_b[0], sub_b[0])
        if lo < hi:
            band = (lo, hi)
    return BoundaryReport(grid, super_b, sub_b, band,
                          missing["super"], missing["sub"])
