"""Parameter sweeps and phase boundaries over one-parameter model families.

A boundary is the sign change of one criterion value along the family, not
the true critical point: each criterion is sufficient only, so between the
two roots lies a band where neither claim applies.  The report carries that
band explicitly instead of papering over it.

Both families have their criterion roots in closed form (`Family.root`):
d0 of the two-point law is affine in p, and the geometric law's generating
function is rational in s.  `bisect_boundary` (named after the bisection
it replaced, which the tests keep as their oracle) places an interval of
width tol around the root and certifies it by the criterion's sign at both
ends: four criterion evaluations per boundary.  A geometric family member
is a `dists.GeometricPmf`, so neither a scan nor a classify builds a
weight array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import criteria
from .criteria import PhaseVerdict
# geometric_x0_pmf lives in dists, whose as_finite builds it; this
# re-export is kept for perfbench/tracer.py, which wraps it here
from .dists import (FinitePmf, GeometricPmf, ModelSpec, OffspringLaw,
                    geometric_x0_pmf)

# Families are swept over the open unit interval, inset by this margin
# (endpoints would give a constant initial law).
EPS_PARAM = 1e-6
DEFAULT_TOL = 1e-9


class NoSignChange(RuntimeError):
    """The criterion keeps one sign across the whole parameter range."""


class CriterionUnavailable(RuntimeError):
    """The requested criterion does not apply (unbounded offspring law)."""


class BoundaryNotCertified(RuntimeError):
    """The criterion's sign at the ends of the interval around its
    closed-form root does not confirm the root (for instance, tol is below
    the criterion's float resolution there)."""


class Family:
    """A curve of models indexed by a parameter in (0, 1), all sharing one
    tax a and one offspring law."""

    a: int
    offspring: OffspringLaw

    def model(self, param: float) -> ModelSpec:
        raise NotImplementedError

    def root(self, which: str) -> float:
        """The parameter where the chosen criterion's d0 vanishes."""
        raise NotImplementedError

    @staticmethod
    def _check_param(param: float) -> float:
        if not 0.0 < param < 1.0:
            raise ValueError(f"family parameter must lie in (0, 1), got {param}")
        return float(param)


def _test_point(family: Family, which: str) -> tuple[float, float] | None:
    """(s, m) of the chosen test, shared by every member of the family."""
    return criteria.super_point(family) if which == "super" \
        else criteria.sub_point(family)


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

    def root(self, which: str) -> float:
        """d0 = p (s^h ((m-1) h - a) + a) - a at h = high_value, affine
        in p."""
        s, m = _test_point(self, which)
        h = self.high_value
        return self.a / (s ** h * ((m - 1.0) * h - self.a) + self.a)


@dataclass(frozen=True)
class GeometricX0Family(Family):
    """Initial law P(X0 = k) = r (1-r)^k on {0, 1, ...}, parameterized by
    the success probability r; each member is an exact dists.GeometricPmf,
    with no weight array."""

    a: int
    offspring: OffspringLaw

    def model(self, param: float) -> ModelSpec:
        return ModelSpec(self.a, GeometricPmf(self._check_param(param)),
                         self.offspring)

    def root(self, which: str) -> float:
        """d0 = F(s) ((m-1) s q / (1 - q s) - a) with q = 1 - r and
        F(s) = r / (1 - q s), positive for q s >= 1: its root has
        q s (m - 1 + a) = a."""
        s, m = _test_point(self, which)
        return 1.0 - self.a / (s * (m - 1.0 + self.a))


@dataclass(frozen=True)
class BoundaryReport:
    """Scan grid plus criterion boundaries.

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
    return criteria.d0(family.model(param), *_test_point(family, which))


def bisect_boundary(family: Family, which: str,
                    tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Interval of width <= tol around the chosen criterion's root, within
    (EPS_PARAM, 1 - EPS_PARAM).

    The root is the family's closed form.  The criterion's sign at each end
    of the interval must match its sign at the same end of the range, the
    invariant bisection keeps; when it does not, BoundaryNotCertified is
    raised.
    """
    if which not in ("super", "sub"):
        raise ValueError(f"which must be 'super' or 'sub', got {which!r}")
    if not tol > 0.0:  # NaN too
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
    root = family.root(which)
    left = min(max(root - 0.5 * tol, lo), hi)
    right = min(max(root + 0.5 * tol, lo), hi)
    while right - left > tol:  # root +/- tol/2 rounded apart
        right = math.nextafter(right, left)
    if ((_criterion_value(family, which, left) > 0.0) != (f_lo > 0.0)
            or (_criterion_value(family, which, right) > 0.0)
            != (f_hi > 0.0)):
        raise BoundaryNotCertified(
            f"criterion '{which}' does not change sign across "
            f"[{left!r}, {right!r}] around its closed-form root {root!r} "
            f"(a tolerance of {tol} may be below its float resolution)")
    return left, right


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
