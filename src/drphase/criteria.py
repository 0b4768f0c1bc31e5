"""Phase criteria and numeric audits of the supporting inequalities.

The classifier evaluates the criterion functional

    d0(s, m) = (m - 1) * s * F0'(s) - a * F0(s)

at two designated points: s = mu^(1/a) with m = mu (mean offspring count)
for the supercritical test, and s = 1 + (M-1)/a with m = M (the essential
supremum) for the subcritical test (`super_point`, `sub_point`).  Both
conditions are sufficient, not necessary, so three verdicts exist; values
within a narrow band of zero are never promoted to a phase claim
(`PhaseVerdict.verdict`, the one rule, read from the two values that
`classify` and `scan.scan` record).
`d0(x0, a, s, m)` reads only the initial law and the tax, through its
pgf pair (any initial law: a FinitePmf, an AtomPmf or a GeometricPmf), so
a scan family needs no model per member, and `d0_values` gives a whole
family's values from arrays of F(s) and F'(s), with each member's digits.

The lemma*_check functions re-verify the inequality chain behind the
criteria: lemmas 1 and 3 along the generating-function orbit
(evolution.gf_orbit), which evolves no law, at a set of s-points in one
orbit pass (one row list per point), lemma 2 on evolved laws,
lemma 4 on the CLI's x0 alone (it holds for every law and sub-law).  Like
d0, they read x0 through its pgf pairs and mean (ValueError where E s^X0
diverges).  They return evidence rows rather than booleans so the CLI
audit command and the tests can report margins.
Comparisons run in signed log space: the audited quantities overflow
float64 within a few generations on growing instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dists
from .dists import AtomPmf, FinitePmf, GeometricPmf, ModelSpec, OffspringLaw
from .evolution import evolve, gf_orbit
from .logreal import ZERO, LogReal

# |value| <= band counts as "indistinguishable from zero": no phase claim.
STRICTNESS_BAND = 1e-12
# Absolute slack for the growth-floor audit, relative slack for contraction.
GROWTH_SLACK = 1e-9
CONTRACTION_SLACK = 1e-9
# Rounded operations behind a contraction row's two logs (_contraction_holds)
# and behind a growth row's comparison (_growth_holds).
ROUNDING_OPS = 17
GROWTH_ROUNDING_OPS = 8
_UNIT_ROUNDOFF = 2.0 ** -53

SUPERCRITICAL = "Supercritical"
SUBCRITICAL = "Subcritical"
UNDETERMINED = "Undetermined"


@dataclass(slots=True, unsafe_hash=True)
class PhaseVerdict:
    """Both criterion values of one model, and the verdict they decide.

    d_sub is None when the offspring law is unbounded: the subcritical
    condition is only proved for essentially bounded counts, so such models
    can never be declared Subcritical here.  A scan builds one per grid
    member, so it is slotted and not frozen (a frozen __init__ costs four
    times as much), but hashed by value all the same: no code mutates one.
    """

    d_super: float
    d_sub: float | None

    @property
    def verdict(self) -> str:
        """A phase is claimed only beyond the +/- STRICTNESS_BAND band,
        the supercritical test first."""
        if self.d_super > STRICTNESS_BAND:
            return SUPERCRITICAL
        if self.d_sub is not None and self.d_sub < -STRICTNESS_BAND:
            return SUBCRITICAL
        return UNDETERMINED

    def __str__(self) -> str:
        return self.verdict


def d0(x0: FinitePmf | AtomPmf | GeometricPmf, a: int, s: float,
       m: float) -> float:
    """Criterion functional of the initial law x0 under tax a at s, with
    multiplier m."""
    f, fp = x0.pgf_pair(s)
    first, second = _d0_terms(f, fp, a, s, m)
    if math.isfinite(first) and math.isfinite(second):
        return first - second
    if x0.diverges(s):
        # a geometric x0 at (1-r) s >= 1: the series' terms
        # w_k s^k ((m-1) k - a) are positive for k > a/(m-1)
        return math.inf
    # Past float64 range: either the sums overflowed or pgf_pair saw before
    # evaluating that s^(support_max-1) must overflow and returned inf.
    # Only the sign decides the verdict, so the value comes from log space,
    # as d0 = sum_k w_k c_k s^k with c_k = (m-1) k - a, its positive and
    # negative terms each summed there: the difference of log F and log F',
    # both near k log s, would round away a gap below their ulp.
    w, k = x0.atoms
    c = (m - 1.0) * k - a
    log_terms = np.log(w) + k * math.log(s)
    parts = [LogReal.from_log(float(dists._logsumexp(
        log_terms[side] + np.log(np.abs(c[side])))))
             if side.any() else ZERO for side in (c > 0.0, c < 0.0)]
    return (parts[0] - parts[1]).to_float()


def d0_values(f: np.ndarray, fp: np.ndarray, a: int, s: float, m: float,
              top: float, member) -> list[float]:
    """d0 of a family's members from the arrays of their F(s) and F'(s),
    in the operations of d0, so each value equals the member's own d0 bit
    for bit.  A member has mass 1 on values up to top, so no term exceeds
    max(a, |m-1| top) max(s, 1)^top: while its log is below _LOG_QUIET,
    no errstate (microseconds) is entered and no value rescanned.  Past it,
    where a term left float64 range, the value is d0 of the member's law,
    member(i), the only law built."""
    if (top * math.log(max(s, 1.0)) + math.log(max(a, abs(m - 1.0) * top))
            < dists._LOG_QUIET):
        first, second = _d0_terms(f, fp, a, s, m)
        return (first - second).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        first, second = _d0_terms(f, fp, a, s, m)
        values = (first - second).tolist()
    for i in np.flatnonzero(~(np.isfinite(first) & np.isfinite(second))):
        values[i] = d0(member(int(i)), a, s, m)
    return values


def _d0_terms(f, fp, a: int, s: float, m: float):
    """d0's two terms, (m-1) s F'(s) and a F(s), of floats or arrays."""
    return (m - 1.0) * s * fp, a * f


def super_point(model: ModelSpec) -> tuple[float, float]:
    """(s, m) of the supercritical test: s = mu^(1/a), m = mu.  Reads only
    model.a and model.offspring, so a scan family, whose members share
    both, may stand for the model."""
    mu = model.offspring.mean
    return mu ** (1.0 / model.a), mu


def sub_point(model: ModelSpec) -> tuple[float, float] | None:
    """(s, m) of the subcritical test: s = 1 + (M-1)/a, m = M; None for an
    unbounded offspring law, where the test does not apply.  Like
    super_point, reads only model.a and model.offspring."""
    bound = model.offspring.bound
    if bound is None:
        return None
    return 1.0 + (bound - 1.0) / model.a, float(bound)


def classify(model: ModelSpec) -> PhaseVerdict:
    """Apply both sufficient conditions with a +/- 1e-12 strictness band.

    When both tests use the same (s, m), as for a deterministic N with
    a = 1, the criterion is evaluated once.
    """
    sup = super_point(model)
    sub = sub_point(model)
    d_super = d0(model.x0, model.a, *sup)
    d_sub: float | None = None
    if sub is not None:
        d_sub = d_super if sub == sup else d0(model.x0, model.a, *sub)
    return PhaseVerdict(d_super, d_sub)


def _d_log(f: LogReal, fp: LogReal, s: float, m: float, a: int) -> LogReal:
    """(m-1) s F'(s) - a F(s) in signed log space, from F(s) and F'(s)."""
    first = LogReal.from_float((m - 1.0) * s) * fp
    second = LogReal.from_float(float(a)) * f
    return first - second


@dataclass(frozen=True)
class GrowthRow:
    """One generation of the growth-floor audit."""

    n: int
    holds: bool
    lhs_log: LogReal
    floor_log: LogReal


def lemma1_growth_check(model: ModelSpec, points, steps: int
                        ) -> list[list[GrowthRow]]:
    """Audit lhs(n) >= (mu/s^a)^n * lhs(0) along the generating-function
    orbit (evolution.gf_orbit) at each s in `points`, one orbit pass for
    all of them: one row list per point, in order.

    lhs(n) = (mu-1) s F_n'(s) - a F_n(s); the claim is the geometric growth
    of the supercritical criterion value, valid for 1 < s < mu^(1/a).
    Each row holds within the slack of _growth_holds.
    """
    s_max, mu = super_point(model)
    points = list(points)
    for s in points:
        if not 1.0 < s < s_max:
            raise ValueError(
                f"s must lie in the open interval (1, {s_max}), got {s}")
    a = model.a
    log_second = math.log(a)
    audits = []
    for s, orbit in zip(points, gf_orbit(model.x0, model.offspring, a,
                                         points, steps)):
        log_rate = math.log(mu) - a * math.log(s)
        log_first = math.log((mu - 1.0) * s)
        rows: list[GrowthRow] = []
        for n, (f, fp, _) in enumerate(orbit):
            lhs = _d_log(f, fp, s, mu, a)
            if n == 0:
                lhs0 = lhs
            floor = lhs0 * LogReal.from_log(n * log_rate)
            holds = _growth_holds(lhs, floor, max(log_first + fp.log,
                                                  log_second + f.log))
            rows.append(GrowthRow(n, holds, lhs, floor))
        audits.append(rows)
    return audits


def _growth_holds(lhs: LogReal, floor: LogReal, terms_log: float) -> bool:
    """lhs >= floor, up to an absolute slack of max(GROWTH_SLACK,
    GROWTH_ROUNDING_OPS * u * L * T), u = 2^-53, T the largest of |floor|
    and the two terms of lhs, (mu-1) s F_n'(s) and a F_n(s) (terms_log is
    the log of the larger), and L = log T.

    The second term is float64 resolution, counted as in _contraction_holds
    from the orbit state (log F_n, log F_n') and lhs(0): a rounded operation
    whose result is a log of size at most L errs by u L in it, so by u L T
    in a value of size at most T.  The logs of the two terms take 1 each,
    their signed difference 2, log floor 2 (n times the log rate, plus
    log lhs(0)) and lhs - floor 2: GROWTH_ROUNDING_OPS = 8.  Operations on
    logs of size O(1) err by O(u) T, which GROWTH_SLACK covers for T < 1e6
    and L > 13 beyond.  Once log F_n nears 1e18, where one ulp of a log is
    in the hundreds, the sign of lhs is rounding noise and the row holds.
    """
    big = max(terms_log, floor.log)
    slack_log = math.log(GROWTH_SLACK)
    if big > 0.0:
        slack_log = max(slack_log, big + math.log(
            GROWTH_ROUNDING_OPS * _UNIT_ROUNDOFF * big))
    return (lhs - floor + LogReal.from_log(slack_log)).sign >= 0


def lemma2_tail_check(model: ModelSpec, steps: int) -> float:
    """Worst P(X_n >= a k + 1) * (mu - 1) * mu^k / a over n <= steps, k >= 1.

    The tail bound is only claimed for models the subcritical condition
    accepts, so any other verdict is refused.
    """
    verdict = classify(model)
    if verdict.verdict != SUBCRITICAL:
        raise ValueError(f"tail bound requires a Subcritical verdict, "
                         f"model classified {verdict.verdict}")
    mu = model.offspring.mean
    a = model.a
    trace = evolve(model, steps, tail_eps=0.0, keep_pmfs=True)
    log_mu = math.log(mu)
    log_pref = math.log(mu - 1.0) - math.log(a)
    worst = 0.0
    for x in trace.pmfs:
        # P(X_n >= a k + 1) for k >= 1, each holding the law's last weight,
        # which is positive; math's log and exp, whose last bits numpy's miss
        tails = np.cumsum(x.probs[::-1])[::-1][a + 1::a].tolist()
        log_ratio = (np.array(list(map(math.log, tails))) + log_pref
                     + np.arange(1.0, len(tails) + 1.0) * log_mu)
        worst = max([worst, *map(math.exp,
                                 np.minimum(log_ratio, 700.0).tolist())])
    return worst


@dataclass(frozen=True)
class ContractionRow:
    """One generation of the contraction audit; row 0 carries no bound."""

    n: int
    holds: bool
    d_next_log: LogReal
    bound_log: LogReal | None


def lemma3_contraction_check(model: ModelSpec, points, steps: int
                             ) -> list[list[ContractionRow]]:
    """Audit D_{n+1}(s) <= (M G(F_n(s)) / (F_n(s) s^a)) * D_n(s) along the
    generating-function orbit (evolution.gf_orbit) at each s in `points`,
    one orbit pass for all of them: one row list per point, in order.

    Requires an essentially bounded offspring law (bound M) and
    s >= 1 + (M-1)/a.  A negative D being contracted stays negative, which
    is the sign-persistence consequence the subcritical argument uses.
    Each row holds within the relative slack of _contraction_holds.
    """
    point = sub_point(model)
    if point is None:
        raise ValueError("contraction audit requires bounded offspring counts")
    threshold, m = point
    points = list(points)
    for s in points:
        if s < threshold:
            raise ValueError(f"s must be >= {threshold}, got {s}")
    a = model.a
    audits = []
    for s, orbit in zip(points, gf_orbit(model.x0, model.offspring, a,
                                         points, steps)):
        log_s = math.log(s)
        rows: list[ContractionRow] = []
        d_prev: LogReal | None = None
        factor_prev: LogReal | None = None
        for n, (f, fp, log_g) in enumerate(orbit):
            d_here = _d_log(f, fp, s, m, a)
            if n == 0:
                rows.append(ContractionRow(0, True, d_here, None))
            else:
                bnd = factor_prev * d_prev
                rows.append(ContractionRow(n, _contraction_holds(d_here, bnd),
                                           d_here, bnd))
            factor_prev = LogReal.from_log(math.log(m) + log_g - f.log
                                           - a * log_s)
            d_prev = d_here
        audits.append(rows)
    return audits


def _contraction_holds(d_next: LogReal, bound: LogReal) -> bool:
    """d_next <= bound, up to a relative slack of
    max(CONTRACTION_SLACK, ROUNDING_OPS * u * |log |bound||), u = 2^-53.

    The second term is float64 resolution, not a tolerance.  Both sides
    are logs computed from the orbit state (log F_{n-1}, log F'_{n-1}); a
    rounded operation whose result is a log of size at most
    L = |log |bound|| errs by at most u L in the log, a relative u L in
    the value, and one on a log of size O(1) by O(u), which
    CONTRACTION_SLACK covers.  L is large only where F_n grows; there the
    LogReal differences subtract a term smaller by a tiny ratio, so to
    first order they pass on only the larger term's error, and adding the
    clip terms (at most a) leaves a log above ~40 unchanged.  Counted:
    log bound takes 9 (log G(F_{n-1}): k log F, + log w_k, + the max in
    the log-sum-exp; log factor: + log M, - log F, - a log s; log D_{n-1}:
    the product with F'_{n-1}, the difference; the final sum), and log D_n
    takes 8 (log G'(F_{n-1}) 3; times F'_{n-1} over s^a 2; the difference
    forming F'_n; D_n's product and difference).  So ROUNDING_OPS = 17,
    and at |log bound| <= 1e3 the term stays below 1.9e-12: ordinary
    audits keep the CONTRACTION_SLACK decision.
    """
    slack = max(CONTRACTION_SLACK,
                ROUNDING_OPS * _UNIT_ROUNDOFF * abs(bound.log))
    # slack is relative to |bound|, one-sided upward
    rhs = bound + LogReal.from_log(bound.log + math.log(slack))
    return (d_next - rhs).sign <= 0


def lemma4_association_check_log(p: FinitePmf | AtomPmf | GeometricPmf,
                                 s: float) -> tuple[LogReal, LogReal]:
    """(E X s^X, E X * E s^X) of any initial law p, from its log_pgf_pair
    and mean, in signed log space, where neither overflows; the first
    dominates for s > 1.  ValueError where E s^X diverges."""
    if s <= 1.0:
        raise ValueError(f"association inequality is claimed for s > 1, got {s}")
    if p.diverges(s):
        raise ValueError(f"E s^X diverges at s={s}")
    log_f, log_fp = p.log_pgf_pair(s)
    lhs = LogReal.from_float(s) * LogReal.from_log(log_fp)
    rhs = LogReal.from_float(p.mean) * LogReal.from_log(log_f)
    return lhs, rhs


def offspring_association_check(law: OffspringLaw, v: float
                                ) -> tuple[float, float, float | None]:
    """(v G'(v), mu G(v), M G(v) or None): the middle and last sandwich
    the first for v >= 1, using the ideal (untruncated) law."""
    if v < 1.0:
        raise ValueError(f"offspring sandwich is claimed for v >= 1, got {v}")
    g, gp = law.pgf_pair(v)
    upper = None if law.bound is None else law.bound * g
    return v * gp, law.mean * g, upper
