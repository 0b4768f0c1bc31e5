"""Parameter sweeps and phase boundaries over one-parameter model families.

A boundary is the sign change of one criterion value along the family, not
the true critical point: each criterion is sufficient only, so between the
two roots lies a band where neither claim applies.  The report carries that
band explicitly instead of papering over it.

The two families, `TwoPointFamily` and `GeometricX0Family`, whose members
share a and N, have their criterion roots in closed form (`root`): d0 of
the two-point law is affine in p, and the geometric law's generating
function is rational in s.  `bisect_boundary` (named after the bisection
it replaced, which the tests keep as their oracle) places an interval of
width tol around the root and certifies it by the criterion's sign at both
ends: four criterion evaluations per boundary (two in `boundary_report`,
whose grid holds the range's ends), each on the member's law (`law`) and
the family's a.  A family member's x0 is a `dists.AtomPmf` on
the values (0, high), which all members share, or a `dists.GeometricPmf`,
so neither a scan nor a classify builds an array over 0..support_max; a
two-point member's criterion values equal those of its FinitePmf bit for
bit.  Where the two test points coincide, so do the two criteria.

`scan` evaluates each criterion once per family over its whole grid
(`criterion_values`) and records each member's two values as a
`criteria.PhaseVerdict`, so its verdicts equal `classify(family.model(p))`
bit for bit.  A two-point family passes the grid to the finite laws'
array core (`dists._pgf_pair`) as the atoms of all its members at once, a
(G, 2) weight matrix on the shared values, and builds no law or ModelSpec
per member, except where s^(high-1) overflows and a member's value comes
from its law's log pair; a geometric-x0 family goes member by member.
Each grid, its floats and a two-point family's weight matrix on it are
built once per size (`_grid`, `_member_weights`); an errstate is entered
only where a term may leave float64 range (`criteria.d0_values`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import criteria, dists
from .criteria import PhaseVerdict
# geometric_x0_pmf lives in dists, where a GeometricPmf builds its cut; this
# re-export is kept for perfbench/tracer.py, which wraps it here
from .dists import (AtomPmf, GeometricPmf, ModelSpec, OffspringLaw,
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


def _test_point(family, which: str) -> tuple[float, float] | None:
    """(s, m) of the chosen test, shared by every member of the family."""
    return criteria.super_point(family) if which == "super" \
        else criteria.sub_point(family)


@dataclass(frozen=True)
class TwoPointFamily:
    """Initial law {0: 1-p, high_value: p}, parameterized by p; each
    member is a dists.AtomPmf with atoms (1-p, p) on `values`, the
    read-only array (0, high) that all members share."""

    a: int
    high_value: int
    offspring: OffspringLaw
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        high = self.high_value
        if not isinstance(high, (int, np.integer)):
            raise ValueError(f"high_value must be an integer, got {high!r}")
        if high < 1:
            raise ValueError(f"high_value must be >= 1, got {high}")
        values = np.array([0.0, high], dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "high_value", int(high))
        object.__setattr__(self, "values", values)

    def law(self, param: float) -> AtomPmf:
        p = float(param)
        if not 0.0 < p < 1.0:
            raise ValueError(
                f"the weight of the high value must lie in (0, 1), got {param}")
        return AtomPmf((np.array([1.0 - p, p]), self.values))

    def model(self, param: float) -> ModelSpec:
        return ModelSpec(self.a, self.law(param), self.offspring)

    def criterion_values(self, params: np.ndarray, s: float,
                         m: float) -> list[float]:
        """d0 at (s, m) of the members at params, over the whole array at
        once and with each member's digits, from `_member_weights`; an
        errstate is entered only where a term may leave float64 range, and
        a law built only for a member whose terms do (`criteria.d0_values`)."""
        weights = _member_weights(np.asarray(params, np.float64).tobytes())
        f, fp = dists._pgf_pair((weights, self.values), s)
        return criteria.d0_values(f, fp, self.a, s, m, self.high_value,
                                  lambda i: self.law(float(params[i])))

    def root(self, which: str) -> float:
        """d0 = p (s^h ((m-1) h - a) + a) - a at h = high_value, affine
        in p."""
        s, m = _test_point(self, which)
        h = self.high_value
        return self.a / (s ** h * ((m - 1.0) * h - self.a) + self.a)


@dataclass(frozen=True)
class GeometricX0Family:
    """Initial law P(X0 = k) = r (1-r)^k on {0, 1, ...}, parameterized by
    the success probability r; each member is an exact dists.GeometricPmf,
    with no weight array."""

    a: int
    offspring: OffspringLaw

    def law(self, param: float) -> GeometricPmf:
        return GeometricPmf(param)

    def model(self, param: float) -> ModelSpec:
        return ModelSpec(self.a, self.law(param), self.offspring)

    def criterion_values(self, params: np.ndarray, s: float,
                         m: float) -> list[float]:
        """d0 at (s, m) of the members at params, member by member: the
        closed form's den ** 2 is C pow, whose last bit numpy's square
        does not always match."""
        return [criteria.d0(self.law(r), self.a, s, m)
                for r in params.tolist()]

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


@functools.lru_cache(maxsize=8)
def _grid(grid_points: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """scan's grid of grid_points parameters, read-only, and its floats."""
    params = np.linspace(EPS_PARAM, 1.0 - EPS_PARAM, grid_points)
    params.setflags(write=False)
    return params, tuple(params.tolist())


@functools.lru_cache(maxsize=8)
def _member_weights(params: bytes) -> np.ndarray:
    """Read-only rows (1 - p, p) at the float64 params p, as bytes."""
    p = np.frombuffer(params)
    weights = np.column_stack((1.0 - p, p))
    weights.setflags(write=False)
    return weights


def scan(family, grid_points: int) -> list[tuple[float, PhaseVerdict]]:
    """Classify the family on the grid over (EPS_PARAM, 1-EPS_PARAM) of
    `_grid`: each criterion once over the whole grid (`criterion_values`),
    with the verdicts and values `criteria.classify` gives each member."""
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    params, floats = _grid(grid_points)
    sup = criteria.super_point(family)
    sub = criteria.sub_point(family)
    d_super = family.criterion_values(params, *sup)
    if sub is None:
        d_sub = [None] * grid_points
    elif sub == sup:
        d_sub = d_super
    else:
        d_sub = family.criterion_values(params, *sub)
    return list(zip(floats, map(PhaseVerdict, d_super, d_sub)))


def _criterion_value(family, which: str, param: float) -> float:
    """The chosen criterion alone, at the family member `param`."""
    return criteria.d0(family.law(param), family.a,
                       *_test_point(family, which))


def bisect_boundary(family, which: str,
                    tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Interval of width <= tol around the chosen criterion's root, within
    (EPS_PARAM, 1 - EPS_PARAM).

    The root is the family's closed form.  The criterion's sign at each end
    of the interval must match its sign at the same end of the range, the
    invariant bisection keeps; when it does not, BoundaryNotCertified is
    raised.
    """
    _check_request(family, which, tol)
    return _certified_root(family, which, tol,
                           _criterion_value(family, which, EPS_PARAM),
                           _criterion_value(family, which, 1.0 - EPS_PARAM))


def _check_request(family, which: str, tol: float) -> None:
    """bisect_boundary's argument checks, made before any evaluation."""
    if which not in ("super", "sub"):
        raise ValueError(f"which must be 'super' or 'sub', got {which!r}")
    if not tol > 0.0:  # NaN too
        raise ValueError(f"tolerance must be positive, got {tol}")
    if which == "sub" and family.offspring.bound is None:
        # known from the family alone: build no law to learn it
        raise CriterionUnavailable(
            "the subcritical criterion requires a bounded offspring law")


def _certified_root(family, which: str, tol: float, f_lo: float,
                    f_hi: float) -> tuple[float, float]:
    """bisect_boundary's interval, from the criterion's values f_lo and
    f_hi at the ends of the range."""
    lo, hi = EPS_PARAM, 1.0 - EPS_PARAM
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


def boundary_report(family, grid_points: int = 9,
                    tol: float = DEFAULT_TOL) -> BoundaryReport:
    """Grid verdicts plus both boundaries, as bisect_boundary gives them
    from the range ends the grid holds; missing boundaries become None,
    with the reason kept in super_missing/sub_missing; where the two test
    points coincide, the sub ones are the super ones."""
    grid = tuple(scan(family, grid_points))
    found: dict[str, tuple[float, float] | None] = {}
    missing: dict[str, RuntimeError | None] = {"super": None, "sub": None}
    shared = criteria.sub_point(family) == criteria.super_point(family)
    for which in ("super",) if shared else ("super", "sub"):
        try:
            _check_request(family, which, tol)
            f_lo, f_hi = (getattr(grid[i][1], f"d_{which}") for i in (0, -1))
            found[which] = _certified_root(family, which, tol, f_lo, f_hi)
        except (NoSignChange, CriterionUnavailable) as exc:
            # without its traceback, whose frames would keep the laws alive
            found[which], missing[which] = None, exc.with_traceback(None)
    if shared:
        found["sub"], missing["sub"] = found["super"], missing["super"]
    super_b, sub_b = found["super"], found["sub"]
    band = None
    if super_b is not None and sub_b is not None:
        lo, hi = min(super_b[1], sub_b[1]), max(super_b[0], sub_b[0])
        if lo < hi:
            band = (lo, hi)
    return BoundaryReport(grid, super_b, sub_b, band,
                          missing["super"], missing["sub"])
