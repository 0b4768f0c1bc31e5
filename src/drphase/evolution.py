"""Law evolution for the clipped-sum recursion X' = (sum of N copies - a)+.

Two independent routes to the same object: step() pushes the pmf forward by
explicit convolution powers, while gf_orbit maps the generating function
F(s) = E s^X forward in closed form, from a head of the initial law and
without evolving any law, at a whole set of s-points in one pass.  They
must agree, and the test suite holds them to 1e-10 of each other.

Per-step free-energy bounds: with mu = E N,

    q_upper(n) = E X_n / mu^n          (non-increasing in n)
    q_lower(n) = (E X_n - a/(mu-1)) / mu^n (non-decreasing on leak-free rows)

A leak-free row computed wholly in the direct-convolution regime therefore
carries a certified bracket around the limit.  Leaked mass lowers the
retained E X_n and with it both bounds, so q_lower stays a lower bound but
may fall from row to row.  Once a step takes the transform
(_spectral_powers, past dists._DIRECT_CONV_OPS: one numpy.fft real round
trip at a 5-smooth length), the kept positive
round-off noise biases E X_n, and with it both bounds, upward; those rows
are not certified.  gf_orbit convolves only heads of a weights per
remaining step, so it has no FFT regime.

Each generation's weights live in one array that the step allocates and
the law takes over without a copy: a zeroed accumulator in the direct
regime, and in the FFT regime the inverse transform's own output, so no
full-length array is zeroed, scaled or copied on the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dists
from .dists import AtomPmf, FinitePmf, GeometricPmf, ModelSpec, OffspringLaw
from .logreal import ONE, LogReal

DEFAULT_TAIL_EPS = 1e-14
DEFAULT_LEAK_BUDGET = 1e-9
DEFAULT_STEPS = 30
# Rounded operations per offspring count behind _leak_floor's margin, and
# the fixed remainder (see _leak_floor).
LEAK_ROUNDING_OPS_PER_COUNT = 6
LEAK_ROUNDING_OPS = 5
_UNIT_ROUNDOFF = 2.0 ** -53
# Above this log-magnitude of mu^n the bounds are computed in log space.
_LOG_SPACE_CUTOFF = 280.0 * math.log(10.0)


@dataclass(frozen=True)
class TraceRow:
    n: int
    mean_xn: float
    q_upper: float
    q_lower: float
    support_max: int
    cumulative_leak: float


@dataclass(frozen=True)
class EvolutionTrace:
    """Per-step summary rows, optionally with the full pmfs retained."""

    rows: tuple[TraceRow, ...]
    pmfs: tuple[FinitePmf, ...] | None = None

    def first_certified_step(self) -> int | None:
        """Smallest n whose lower bound already certifies a positive limit."""
        for row in self.rows:
            if row.q_lower > 0.0:
                return row.n
        return None


class EvolutionStopped(RuntimeError):
    """An evolution stopped at a generation that broke one of its limits.

    rows holds the trace completed so far.  A leak stop's rows all lie
    within the budget; a support-cap stop's last row is the offender; a
    stop on a law that leaves the mass band keeps the rows before it.
    """

    def __init__(self, message: str, rows: tuple[TraceRow, ...]):
        super().__init__(message)
        self.rows = rows


class LeakBudgetExceeded(EvolutionStopped):
    """Cumulative truncation leak passed the configured budget."""


class SupportCapExceeded(EvolutionStopped):
    """The evolving support outgrew the caller's cap."""


def q_bounds(mean_xn: float, n: int, model: ModelSpec) -> tuple[float, float]:
    """Free-energy bracket from the generation-n mean."""
    mu = model.offspring.mean
    shift = model.a / (mu - 1.0)
    log_growth = n * math.log(mu)
    if log_growth <= _LOG_SPACE_CUTOFF:
        growth = mu ** n
        return mean_xn / growth, (mean_xn - shift) / growth
    upper = math.exp(math.log(mean_xn) - log_growth) if mean_xn > 0.0 else 0.0
    num = mean_xn - shift
    if num == 0.0:
        return upper, 0.0
    lower = math.copysign(math.exp(math.log(abs(num)) - log_growth), num)
    return upper, lower


def step(x: FinitePmf, model: ModelSpec,
         tail_eps: float = DEFAULT_TAIL_EPS) -> FinitePmf:
    """One generation: mixture over N of clip-shifted convolution powers.

    Powers are built one by one while each convolution fits the direct
    budget (dists._DIRECT_CONV_OPS).  From the first power that would pass
    it on, the rest of the mixture comes from one spectrum
    (see _spectral_powers), so a step the budget keeps fully direct is
    computed exactly as by the plain loop.

    The direct powers' clipped weights are summed in turn into a zeroed
    head, (0 + w_1 p_1) + w_2 p_2 + ..., as long as a direct power can
    reach.  In the direct regime the head, at full length, is the
    generation's array.  In the FFT regime the array is the transform's
    own clipped output m, its entries up to a folded into the first, with
    the head added on: bit for bit the sum into one zeroed array, as
    0 + m == m for m >= +0.  Where a floor-trimmed power leaves the
    transform short, the array is zero-padded to the full length, which
    the mass re-pin's long-double sums group by.  The law takes the array
    over with no copy.
    """
    if x.probs.size == 0:
        return FinitePmf(np.zeros(0), 1.0)
    law = model.offspring
    w = law.weights
    a = model.a
    kmax = w.size - 1
    n = x.probs.size
    out_len = max(1, kmax * (n - 1) + 1 - a)
    head = mix = None
    leak = law.truncation_leak
    pw = x
    for k in range(1, kmax + 1):
        if k > 1:
            if pw.probs.size * n > dists._DIRECT_CONV_OPS:
                mix, mix_leak = _spectral_powers(pw, x, w[k:kmax + 1])
                leak += mix_leak
                break
            pw = dists.convolve(pw, x)
        wk = float(w[k])
        if wk == 0.0:
            continue
        leak += wk * pw.leaked_mass
        if head is None:
            # the most entries a direct power can reach: it is convolved
            # from at most _DIRECT_CONV_OPS // n entries
            longest = max(n, dists._DIRECT_CONV_OPS // n + n - 1)
            head = dists.zeros(min(out_len, max(1, longest - a)))
        _add_clipped(head, wk, pw.probs, a)
    if mix is None:
        acc = _padded(head, out_len)
    else:
        acc = _padded(mix[a:], out_len)
        acc[0] = float(mix[: a + 1].sum())
        if head is not None:
            acc[:head.size] += head
    leak += dists.sweep_floor(acc)
    # The exact mixture conserves mass, but convolution powers amplify any
    # float drift by a factor of E N per step (squaring maps 1+d to 1+2d),
    # which would breach the conservation band within ~20 generations.
    # Re-pin the step's total by assigning the residual to the heaviest bin
    # when it is at most 1e-9.  Direct convolution leaves a residual near
    # 1e-15; the positive transform noise kept in the FFT regime can leave
    # more, and all of it up to 1e-9 is re-pinned without a record.
    idx = int(np.argmax(acc))
    if acc[idx] > 0.0:
        others = float(np.add.reduce(acc[:idx], dtype=np.longdouble)
                       + np.add.reduce(acc[idx + 1:], dtype=np.longdouble))
        pinned = (1.0 - leak) - others
        if pinned > 0.0 and abs(pinned - acc[idx]) <= 1e-9:
            acc[idx] = pinned
    out = FinitePmf._adopt(acc, leak)
    if tail_eps > 0.0:
        out = dists.truncate(out, tail_eps)
    return out


def _add_clipped(acc: np.ndarray, wk: float, pp: np.ndarray, a: int) -> None:
    """acc += wk * law of (V - a)+ for V with weights pp."""
    acc[0] += wk * float(pp[: a + 1].sum())
    tail = pp[a + 1:]
    if tail.size:
        acc[1: 1 + tail.size] += wk * tail


def _padded(v: np.ndarray, length: int) -> np.ndarray:
    """v itself when it has `length` entries, else a copy zero-padded to
    that length."""
    if v.size == length:
        return v
    out = dists.zeros(length)
    out[:v.size] = v
    return out


def _smooth_len(n: int) -> int:
    """The smallest 2^i 3^j 5^k >= n, the lengths pocketfft transforms
    fastest (what scipy.fft.next_fast_len(n, real=True) returns)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _spectral_powers(base: FinitePmf, x: FinitePmf,
                     v: np.ndarray) -> tuple[np.ndarray, float]:
    """sum_i v[i-1] base * x^{*i} (i = 1..len(v)) over its full support,
    and the mass the terms leak.

    One inverse transform (numpy.fft, at the 5-smooth length _smooth_len
    picks): the spectrum is rfft(base) times the polynomial
    sum_i v[i-1] phi^i in phi = rfft(x), evaluated by Horner's rule.  When
    base is x itself its transform is reused, so a step whose second power
    is already over budget takes one forward and one inverse transform in
    place of three per power.  Round-off below zero is clipped to zero; the
    positive noise is kept.  Term i leaks 1 - (1 - l_base)(1 - l_x)^i.
    """
    n = x.probs.size
    size = base.probs.size + v.size * (n - 1)
    nfft = _smooth_len(size)
    phi = np.fft.rfft(x.probs, nfft)
    spec = np.full_like(phi, v[-1])
    for vi in v[-2::-1]:
        spec *= phi
        spec += vi
    spec *= phi
    spec *= phi if base is x else np.fft.rfft(base.probs, nfft)
    mix = np.fft.irfft(spec, nfft)[:size]
    np.clip(mix, 0.0, None, out=mix)
    i = np.arange(1, v.size + 1, dtype=np.float64)
    kept = np.log1p(-base.leaked_mass) + i * np.log1p(-x.leaked_mass)
    return mix, float(np.dot(v, -np.expm1(kept)))


def _trace_row(x: FinitePmf, n: int, model: ModelSpec) -> TraceRow:
    m = x.mean
    upper, lower = q_bounds(m, n, model)
    return TraceRow(n, m, upper, lower, x.support_max, x.leaked_mass)


def _leak_floor(leak: float, law: OffspringLaw) -> float:
    """A lower bound on the cumulative leak that step() books from a law
    that has leaked `leak`, rounding included (NaN when leak > 1).

    step() books t_N (law.truncation_leak), w_k times power k's leak, which
    is at least 1 - (1 - leak)^k, and then a weight sweep and a tail cut,
    both >= 0: at least F = t_N + sum_k w_k (1 - (1 - leak)^k).  F is
    returned lowered by (LEAK_ROUNDING_OPS_PER_COUNT K + LEAK_ROUNDING_OPS)
    u relative, u = 2^-53, K = N's largest count: float64 resolution, not
    a tolerance.  Counted to first order; every quantity is >= 0, so no
    sum cancels.  step() forms power k's leak in k - 1 combinations of 5
    each (in l + leak - l leak the sum and the product together 3, the
    difference 1; the sweep's addition 1) or, past the direct budget, in
    _spectral_powers' 5 (two log1p, a product, a sum, and expm1, whose
    argument is < 0, so it passes a relative error on unamplified), then
    its weight's product and at most K + 2 sums: at most 5K - 1 in all.
    F here takes at most K + 4 (log1p, a product, expm1, the weight's
    product, K sums), and the lowering 2.  So LEAK_ROUNDING_OPS_PER_COUNT
    = 6 and LEAK_ROUNDING_OPS = 5.
    """
    w = law.weights[1:]
    counts = np.arange(1, w.size + 1, dtype=np.float64)
    floor = law.truncation_leak + float(
        np.sum(w * -np.expm1(counts * math.log1p(-leak))))
    ops = LEAK_ROUNDING_OPS_PER_COUNT * w.size + LEAK_ROUNDING_OPS
    return floor * (1.0 - ops * _UNIT_ROUNDOFF)


def evolve(model: ModelSpec, steps: int = DEFAULT_STEPS, *,
           tail_eps: float = DEFAULT_TAIL_EPS,
           leak_budget: float = DEFAULT_LEAK_BUDGET,
           keep_pmfs: bool = False,
           support_cap: int | None = None) -> EvolutionTrace:
    """Iterate step() from x0's weights, `cut`, collecting the bracket row
    per generation.

    A generation whose cumulative leak passes leak_budget stops the run
    with LeakBudgetExceeded carrying the rows before it, so every row lies
    within the budget.  When _leak_floor already passes the budget, the
    step is not taken; otherwise the step's own leak decides.  A generation
    whose support passes support_cap stops it with SupportCapExceeded,
    its row included.  A generation whose law fails FinitePmf's checks
    (a mass at the band's edge leaves it within a step) stops it with
    EvolutionStopped carrying the rows before it.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not 0.0 <= tail_eps < 1.0:
        raise ValueError(f"tail_eps must lie in [0, 1), got {tail_eps}")
    law = model.offspring
    x = model.x0.cut
    rows = [_trace_row(x, 0, model)]
    pmfs = [x] if keep_pmfs else None
    for n in range(1, steps + 1):
        # 1 - (1 - l)^k <= k l bounds the floor by t_N + mu l, so a step
        # far from the budget pays one compare
        if law.truncation_leak + law.mean * x.leaked_mass > leak_budget:
            floor = _leak_floor(x.leaked_mass, law)
            if floor > leak_budget:
                raise LeakBudgetExceeded(
                    f"cumulative leak of at least {floor:.3e} would exceed "
                    f"budget {leak_budget:.3e} at generation {n}",
                    tuple(rows))
        try:
            x = step(x, model, tail_eps)
        except ValueError as exc:  # the arguments passed: a law's check
            raise EvolutionStopped(f"the law of generation {n}: {exc}",
                                   tuple(rows)) from exc
        if support_cap is not None and x.support_max > support_cap:
            raise SupportCapExceeded(
                f"support max {x.support_max} exceeds cap {support_cap} "
                f"at generation {n}", (*rows, _trace_row(x, n, model)))
        if x.leaked_mass > leak_budget:
            raise LeakBudgetExceeded(
                f"cumulative leak {x.leaked_mass:.3e} exceeds budget "
                f"{leak_budget:.3e} at generation {n}", tuple(rows))
        rows.append(_trace_row(x, n, model))
        if keep_pmfs:
            pmfs.append(x)
    return EvolutionTrace(tuple(rows),
                          tuple(pmfs) if keep_pmfs else None)


def _compound_head(x: np.ndarray, weights: np.ndarray, length: int
                   ) -> np.ndarray:
    """First `length` coefficients of the law of the sum of N copies of X,
    from the first `length` weights of X.

    Convolution powers are carried head-truncated to `length`: coefficient
    j of a sum depends only on the summands' weights below j + 1.
    """
    head = dists.zeros(length)
    h1 = np.zeros(length)
    take = min(length, x.size)
    h1[:take] = x[:take]
    hk = h1
    kmax = int(np.flatnonzero(weights)[-1])
    for k in range(1, kmax + 1):
        if k > 1:
            hk = np.convolve(hk, h1)[:length]
        wk = float(weights[k])
        if wk != 0.0:
            head += wk * hk
    return head


def _clip_heads(x0: np.ndarray, weights: np.ndarray, a: int, steps: int
                ) -> list[np.ndarray]:
    """P(S_n = p), p < a, n < steps, S_n the sum of N copies of X_n, from
    the first a * steps weights of x0.  P(X_{n+1} = 0) = P(S_n <= a) and
    P(X_{n+1} = k) = P(S_n = k + a), so X_n is carried with a head of
    length a (steps - n): no law is evolved, nothing is cut, nothing leaks.
    """
    heads = []
    x = x0[:a * steps]
    for n in range(steps):
        sums = _compound_head(x, weights, a * (steps - n))
        heads.append(sums[:a])
        x = np.concatenate(([sums[:a + 1].sum()], sums[a + 1:]))
    return heads


def gf_orbit(x0: FinitePmf | AtomPmf | GeometricPmf, law: OffspringLaw,
             a: int, points, steps: int
             ) -> list[list[tuple[LogReal, LogReal, float]]]:
    """One orbit per s in `points`: (F_n(s), F_n'(s), log G(F_n(s))) for
    n = 0..steps, F_n(s) = E s^X_n along the recursion from x0, G the
    generating function of law's weights (for geometric N the cut weights
    that step() uses too).  F_0(s), F_0'(s) are x0's log_pgf_pair(s)
    (ValueError where x0 diverges at any point: a geometric x0 past its
    radius); the clip heads read x0's atoms below a * steps.

    The generating-function recursion (Collet, Eckmann, Glaser & Martin,
    CMP 1984; Derrida & Retaux, JSP 2014, with G in place of v -> v^2):

        F_{n+1}(s) = G(F_n(s)) / s^a + sum_{p<a} c_p (1 - s^(p-a)),
        F_{n+1}'(s) = G'(F_n(s)) F_n'(s) / s^a - a G(F_n(s)) / s^(a+1)
                      + sum_{p<a} c_p (a - p) s^(p-a-1),

    with c_p = P(S_n = p) (_clip_heads): the mass the clip at zero rounds
    up, rebooked at value 0.  The heads do not depend on s, so one call
    builds them once for all its points, and each generation evaluates
    G's log pair at every point's F_n(s) in one pass of
    dists._log_pgf_pair.  The rest is scalar LogReal arithmetic per point,
    so each orbit is the same bits as that point's orbit alone.  Values
    are signed log-space scalars; on a law collapsing onto 0 the computed
    F_n' is cancellation noise and may come out negative.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    points = list(points)
    for s in points:
        if x0.diverges(s):
            raise ValueError(f"E s^X diverges at s={s}")
    starts = [x0.log_pgf_pair(s) for s in points]
    heads = _clip_heads(dists.dense_weights(x0.atoms, a * steps),
                        law.weights, a, steps)
    log_a = math.log(a)
    log_s = [math.log(s) for s in points]
    # per point, 1 - s^(p-a) and s^(p-a-1) for p < a: the same every step
    clip_terms = [[(ONE - LogReal.from_log((p - a) * ls),
                    LogReal.from_log((p - a - 1) * ls)) for p in range(a)]
                  for ls in log_s]
    f = [LogReal.from_log(log_f) for log_f, _ in starts]
    fp = [LogReal.from_log(log_fp) for _, log_fp in starts]
    orbits = [[] for _ in points]
    for n in range(steps + 1):
        log_g, log_gp = (v.tolist() for v in dists._log_pgf_pair(
            law.atoms, [fi.log for fi in f]))
        for i, orbit in enumerate(orbits):
            orbit.append((f[i], fp[i], log_g[i]))
        if n == steps:
            break
        # c_p and c_p (a - p), the same at every point
        clips = [(p, LogReal.from_float(cp), LogReal.from_float(cp * (a - p)))
                 for p, cp in enumerate(heads[n].tolist()) if cp > 0.0]
        for i, ls in enumerate(log_s):
            f_next = LogReal.from_log(log_g[i] - a * ls)
            fp_next = LogReal.from_log(log_gp[i] + fp[i].log - a * ls,
                                       fp[i].sign)
            fp_next = fp_next - LogReal.from_log(log_g[i] + log_a
                                                 - (a + 1) * ls)
            for p, c, c_slope in clips:
                clip, power = clip_terms[i][p]
                f_next = f_next + c * clip
                fp_next = fp_next + c_slope * power
            f[i], fp[i] = f_next, fp_next
    return orbits
