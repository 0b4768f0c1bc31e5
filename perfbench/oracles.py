"""Independent checks of every benchmark operation's output.

Each check raises OracleFailure with a reason when the output is wrong, and
may return a note about a known defect it observed without failing.
The references are closed forms (two-point roots, the geometric-x0 flip at
r = 3/4, mu^depth), mpmath evaluations of the criterion functional, the
bracket invariants, and the exact evolved law for the Monte Carlo means.
"""

from __future__ import annotations

import json
import math
import re

# Evidence outside this band decides a verdict (criteria.STRICTNESS_BAND,
# widened so float rounding of the evaluation point cannot flip it).
VERDICT_TOL = 1e-9
# Bracket monotonicity slack, as in the release criteria.
MONOTONE_SLACK = 1e-12
# A bisected interval may miss the exact root by float rounding of d0.
ROOT_SLACK = 1e-12
# Monte Carlo means must fall within this many standard errors.
MC_Z = 6.0


class OracleFailure(AssertionError):
    """The operation returned a wrong answer."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise OracleFailure(reason)


# -- brackets ---------------------------------------------------------------


def check_bracket_rows(rows, dip_allowed=None) -> str | None:
    """rows: sequence of (q_upper, q_lower); upper never rises, lower never
    falls below an earlier row, lower never exceeds upper.

    dip_allowed: per row, how far q_lower may legitimately sit below the
    largest earlier q_lower because the trace was truncated (see
    truncation_dip_bound).  A dip within it is returned as a note rather
    than raised: it is an open defect of the truncated regime (the README
    promises a monotone bracket), reported on every run until it is fixed.
    A dip beyond it, or any dip on a trace without truncation, fails.
    """
    require(len(rows) >= 1, "trace has no rows")
    dips = []
    best = rows[0][1]
    for n, (upper, lower) in enumerate(rows):
        require(lower <= upper, f"n={n}: q_lower {lower!r} > q_upper {upper!r}")
        if n:
            up0 = rows[n - 1][0]
            require(upper <= up0 + MONOTONE_SLACK,
                    f"n={n}: q_upper rose from {up0!r} to {upper!r}")
            if lower < best - MONOTONE_SLACK:
                allowed = 0.0 if dip_allowed is None else dip_allowed[n]
                require(lower >= best - allowed - MONOTONE_SLACK,
                        f"n={n}: q_lower fell from {best!r} to {lower!r}, "
                        f"more than truncation allows ({allowed:.3g})")
                dips.append(f"n={n} by {best - lower:.3g} "
                            f"(allowed {allowed:.3g})")
        best = max(best, lower)
    if dips:
        return "q_lower fell on truncated rows: " + ", ".join(dips)
    return None


def truncation_dip_bound(leaks, a: int, x0_max: int, n_max: int,
                         mu: float) -> list[float]:
    """Per row n, the most truncation can lower the computed q_lower below
    an earlier row: leaks[n] * M_n / mu^n.

    The retained law is a sub-law of the true one, so the retained mean
    misses at most the leaked mass times the largest value the untruncated
    support can hold, M_n (M_0 = x0_max, M_n = n_max * M_{n-1} - a).  The
    exact q_lower never falls (E X' >= mu E X - a), and every computed
    q_lower lies below the exact one, so a computed dip below any earlier
    row is at most leaks[n] * M_n / mu^n.
    """
    out, support = [], float(x0_max)
    for n, leak in enumerate(leaks):
        if n:
            support = max(0.0, n_max * support - a)
        out.append(leak * support / mu ** n)
    return out


def check_evolve(rows, stopped: bool, steps: int, cap: int) -> None:
    """Library evolve result with tail_eps=0 (TraceRow tuple), possibly
    stopped by the support cap."""
    check_bracket_rows([(r.q_upper, r.q_lower) for r in rows])
    if stopped:
        require(rows[-1].support_max > cap or rows[-1].cumulative_leak > 0.0,
                "budget stop without a breaching row")
    else:
        require(len(rows) == steps + 1, f"{len(rows)} rows for {steps} steps")


def parse_evolve_table(text: str) -> tuple[list[tuple[float, float]], list[float]]:
    """(q_upper, q_lower) rows and cumulative leaks of an evolve table."""
    lines = [ln.split() for ln in text.strip().splitlines()]
    require(bool(lines) and lines[0] == ["n", "mean", "q_upper", "q_lower",
                                         "support_max", "leaked_mass"],
            "evolve table header missing")
    return ([(float(c[2]), float(c[3])) for c in lines[1:]],
            [float(c[5]) for c in lines[1:]])


def check_cli_evolve(code: int, out: str, err: str, a: int, x0_max: int,
                     n_max: int, mu: float) -> str | None:
    """CLI evolve table of a model with bounded N (n_max = N's bound)."""
    require(code in (0, 3), f"evolve exited {code}: {err.strip()}")
    if code == 3:
        require(err.startswith("error: "), "exit 3 without an error line")
    rows, leaks = parse_evolve_table(out)
    return check_bracket_rows(
        rows, truncation_dip_bound(leaks, a, x0_max, n_max, mu))


_PARTIAL = re.compile(r"partial bracket at n=(\d+): \[(\S+), (\S+)\]")


def check_cli_estimate_q(code: int, out: str, err: str) -> None:
    require(code in (0, 3), f"estimate-q exited {code}: {err.strip()}")
    if code == 3:
        m = _PARTIAL.search(err)
        require(m is not None, "exit 3 without a partial bracket")
        lower, upper = float(m.group(2)), float(m.group(3))
        first = None
    else:
        doc = json.loads(out)
        lower, upper = doc["q_lower"], doc["q_upper"]
        first = doc.get("positive_limit_certified_at_n")
    require(lower <= upper, f"bracket [{lower!r}, {upper!r}] is inverted")
    if first is not None:
        require(lower > 0.0, "certified positive limit with q_lower <= 0")


# -- criteria ---------------------------------------------------------------


def _mp():
    import mpmath
    mpmath.mp.dps = 40
    return mpmath


def d0_mpmath(a: int, pmf: dict[int, float], s, m):
    """(m-1) s F'(s) - a F(s) of a finite initial law, to 40 digits."""
    mp = _mp()
    s, m = mp.mpf(s), mp.mpf(m)
    f = mp.fsum(mp.mpf(w) * s ** v for v, w in pmf.items())
    fp = mp.fsum(mp.mpf(w) * v * s ** (v - 1) for v, w in pmf.items() if v)
    return (m - 1) * s * fp - a * f


def expected_verdict(d_super, d_sub) -> str | None:
    """Verdict implied by exact criterion values; None when a value sits so
    close to zero that either side of the band is legitimate."""
    if d_super > VERDICT_TOL:
        return "Supercritical"
    if d_super >= -VERDICT_TOL:
        return None
    if d_sub is None or d_sub > VERDICT_TOL:
        return "Undetermined"
    if d_sub >= -VERDICT_TOL:
        return None
    return "Subcritical"


def criterion_points(a: int, mean: float, bound: int | None):
    """((s, m) of the supercritical test, (s, m) of the subcritical one)."""
    mp = _mp()
    sup = (mp.mpf(mean) ** (mp.mpf(1) / a), mp.mpf(mean))
    sub = None if bound is None else (1 + mp.mpf(bound - 1) / a, mp.mpf(bound))
    return sup, sub


def check_cli_classify(code: int, out: str, a: int, pmf: dict[int, float],
                       mean: float, bound: int | None) -> None:
    require(code == 0, f"classify exited {code}")
    kv = dict(line.split(": ", 1) for line in out.strip().splitlines())
    sup, sub = criterion_points(a, mean, bound)
    d_super = d0_mpmath(a, pmf, *sup)
    d_sub = None if sub is None else d0_mpmath(a, pmf, *sub)
    want = expected_verdict(d_super, d_sub)
    if want is not None:
        require(kv["verdict"] == want,
                f"verdict {kv['verdict']} but mpmath implies {want}")
    if abs(d_super) > VERDICT_TOL:
        require((float(kv["d_super"]) > 0) == (d_super > 0),
                f"d_super sign {kv['d_super']} disagrees with {d_super}")


def check_cli_lemmas(code: int, out: str) -> None:
    lines = out.strip().splitlines()
    require(len(lines) == 4, f"{len(lines)} audit lines, expected 4")
    for line in lines:
        status = line.split(": ", 1)[1].split(" ", 1)[0]
        require(status in ("PASS", "SKIPPED"), f"audit {line!r}")
    require(code == 0, f"check-lemmas exited {code}")


def two_point_root(a: int, high: int, s, m):
    """d0 of {0: 1-p, high: p} is p*B - a; returns B."""
    return s ** high * ((m - 1) * high - a) + a


def check_boundary_report(report, a: int, high: int, mean: float,
                          bound: int | None, eps: float, tol: float) -> None:
    """Closed-form roots and grid verdicts of a two-point family scan."""
    mp = _mp()
    sup, sub = criterion_points(a, mean, bound)
    slopes = {"super": two_point_root(a, high, *sup),
              "sub": None if sub is None else two_point_root(a, high, *sub)}
    got = {"super": report.super_boundary, "sub": report.sub_boundary}
    for which, slope in slopes.items():
        interval = got[which]
        if slope is None:
            require(interval is None, f"{which} boundary without a bound")
            continue
        lo_val = mp.mpf(eps) * slope - a
        hi_val = (1 - mp.mpf(eps)) * slope - a
        if (lo_val > 0) == (hi_val > 0):
            require(interval is None, f"{which} boundary {interval} where the "
                                      f"criterion keeps one sign")
            continue
        root = a / slope
        require(interval is not None, f"{which} boundary missing; root {root}")
        lo, hi = interval
        require(hi - lo <= tol, f"{which} interval wider than {tol}")
        require(lo - ROOT_SLACK <= root <= hi + ROOT_SLACK,
                f"{which} interval [{lo!r}, {hi!r}] misses root {root}")
    for p, verdict in report.grid:
        d_super = mp.mpf(p) * slopes["super"] - a
        d_sub = None if slopes["sub"] is None else mp.mpf(p) * slopes["sub"] - a
        want = expected_verdict(d_super, d_sub)
        if want is not None:
            require(verdict.verdict == want,
                    f"p={p}: verdict {verdict.verdict}, closed form {want}")


def check_geometric_verdict(verdict: str, r: float) -> None:
    """a=1, N=2 with geometric x0: the criterion root is r = 3/4."""
    want = "Supercritical" if r < 0.75 else "Subcritical"
    require(verdict == want, f"r={r}: verdict {verdict}, expected {want}")


# -- Monte Carlo ------------------------------------------------------------


def check_z(observed: float, expected: float, se: float, what: str) -> None:
    if se == 0.0:
        require(observed == expected, f"{what}: {observed} != exact {expected}")
        return
    z = (observed - expected) / se
    require(abs(z) <= MC_Z, f"{what}: {observed} vs {expected} is {z:.2f} se")


def pool_mean_se(moments, mu: float, pop_size: int) -> float:
    """Standard error of a population-simulator mean at the last generation.

    moments: (mean, variance) of the exact law for generations 0..n.  The
    resampling at generation k adds an error of variance Var(X_k) / P to the
    pool mean, and each unit of X_k grows into at most mu^(n-k) units of
    X_n, so the errors add up to at most sum_k mu^(2(n-k)) Var(X_k) / P.
    The bound matters near criticality, where the clip shrinks the mean
    much faster than it shrinks an error.  The stratified start adds no
    error.
    """
    n = len(moments) - 1
    return math.sqrt(sum(mu ** (2 * (n - k)) * var
                         for k, (_, var) in enumerate(moments) if k)
                     / pop_size)


def check_tree_counts(counts, mean: float, depth: int) -> None:
    n = len(counts)
    avg = float(sum(int(c) for c in counts)) / n
    var = sum((int(c) - avg) ** 2 for c in counts) / (n - 1)
    check_z(avg, mean ** depth, math.sqrt(var / n), "tree generation size")
