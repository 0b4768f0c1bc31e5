"""Law evolution for the clipped-sum recursion X' = (sum of N copies - a)+.

Two independent routes to the same object: step() pushes the pmf forward by
explicit convolution powers, while gf_orbit maps the generating function
F(s) = E s^X forward in closed form, from a head of the initial law and
without evolving any law.  They must agree, and the test suite holds them
to 1e-10 of each other.

Per-step free-energy bounds: with mu = E N,

    q_upper(n) = E X_n / mu^n          (non-increasing in n)
    q_lower(n) = (E X_n - a/(mu-1)) / mu^n   (non-decreasing in n)

A leak-free row computed wholly in the direct-convolution regime therefore
carries a certified bracket around the limit.  Leaked mass lowers the
retained E X_n and with it both bounds.  Once a step takes the transform
(_spectral_powers, past dists._DIRECT_CONV_OPS), the kept positive
round-off noise biases E X_n, and with it both bounds, upward; those rows
are not certified.  gf_orbit convolves only heads of a weights per
remaining step, so it has no FFT regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from . import dists
from .dists import FinitePmf, GeometricPmf, ModelSpec, OffspringLaw
from .logreal import ONE, LogReal

DEFAULT_TAIL_EPS = 1e-14
DEFAULT_LEAK_BUDGET = 1e-9
DEFAULT_STEPS = 30
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

    rows holds the trace completed so far, last row being the offender.
    pmfs holds the laws of the generations before the offender when the
    evolution kept them (keep_pmfs=True), None otherwise.
    """

    def __init__(self, message: str, rows: tuple[TraceRow, ...],
                 pmfs: tuple[FinitePmf, ...] | None = None):
        super().__init__(message)
        self.rows = rows
        self.pmfs = pmfs


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
    """
    if x.probs.size == 0:
        return FinitePmf(np.zeros(0), 1.0)
    law = model.offspring
    w = law.weights
    a = model.a
    kmax = w.size - 1
    n = x.probs.size
    out_len = max(1, kmax * (n - 1) + 1 - a)
    acc = np.zeros(out_len)
    leak = law.truncation_leak
    pw = x
    for k in range(1, kmax + 1):
        if k > 1:
            if pw.probs.size * n > dists._DIRECT_CONV_OPS:
                mix, mix_leak = _spectral_powers(pw, x, w[k:kmax + 1])
                leak += mix_leak
                _add_clipped(acc, 1.0, mix, a)
                break
            pw = dists.convolve(pw, x)
        wk = float(w[k])
        if wk == 0.0:
            continue
        leak += wk * pw.leaked_mass
        _add_clipped(acc, wk, pw.probs, a)
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
        others = float(np.sum(acc[:idx], dtype=np.longdouble)
                       + np.sum(acc[idx + 1:], dtype=np.longdouble))
        pinned = (1.0 - leak) - others
        if pinned > 0.0 and abs(pinned - acc[idx]) <= 1e-9:
            acc[idx] = pinned
    out = FinitePmf(acc, leak)
    if tail_eps > 0.0:
        out = dists.truncate(out, tail_eps)
    return out


def _add_clipped(acc: np.ndarray, wk: float, pp: np.ndarray, a: int) -> None:
    """acc += wk * law of (V - a)+ for V with weights pp."""
    acc[0] += wk * float(pp[: a + 1].sum())
    tail = pp[a + 1:]
    if tail.size:
        acc[1: 1 + tail.size] += wk * tail


def _spectral_powers(base: FinitePmf, x: FinitePmf,
                     v: np.ndarray) -> tuple[np.ndarray, float]:
    """sum_i v[i-1] base * x^{*i} (i = 1..len(v)) over its full support,
    and the mass the terms leak.

    One inverse transform: the spectrum is rfft(base) times the polynomial
    sum_i v[i-1] phi^i in phi = rfft(x), evaluated by Horner's rule.  When
    base is x itself its transform is reused, so a step whose second power
    is already over budget takes one forward and one inverse transform in
    place of three per power.  Round-off below zero is clipped to zero; the
    positive noise is kept.  Term i leaks 1 - (1 - l_base)(1 - l_x)^i.
    """
    n = x.probs.size
    size = base.probs.size + v.size * (n - 1)
    nfft = sp_fft.next_fast_len(size, real=True)
    phi = sp_fft.rfft(x.probs, nfft)
    spec = np.zeros_like(phi)
    for vi in v[::-1]:
        spec += vi
        spec *= phi
    spec *= phi if base is x else sp_fft.rfft(base.probs, nfft)
    mix = sp_fft.irfft(spec, nfft)[:size]
    np.clip(mix, 0.0, None, out=mix)
    i = np.arange(1, v.size + 1, dtype=np.float64)
    kept = np.log1p(-base.leaked_mass) + i * np.log1p(-x.leaked_mass)
    return mix, float(np.dot(v, -np.expm1(kept)))


def _trace_row(x: FinitePmf, n: int, model: ModelSpec) -> TraceRow:
    m = dists.mean(x)
    upper, lower = q_bounds(m, n, model)
    return TraceRow(n, m, upper, lower, x.support_max, x.leaked_mass)


def evolve(model: ModelSpec, steps: int = DEFAULT_STEPS, *,
           tail_eps: float = DEFAULT_TAIL_EPS,
           leak_budget: float = DEFAULT_LEAK_BUDGET,
           keep_pmfs: bool = False,
           support_cap: int | None = None) -> EvolutionTrace:
    """Iterate step() from x0 (a geometric x0 cut by dists.as_finite),
    collecting the bracket row per generation."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    x = dists.as_finite(model.x0)
    rows = [_trace_row(x, 0, model)]
    pmfs = [x] if keep_pmfs else None
    for n in range(1, steps + 1):
        x = step(x, model, tail_eps)
        rows.append(_trace_row(x, n, model))
        if support_cap is not None and x.support_max > support_cap:
            raise SupportCapExceeded(
                f"support max {x.support_max} exceeds cap {support_cap} "
                f"at generation {n}", tuple(rows),
                tuple(pmfs) if keep_pmfs else None)
        if x.leaked_mass > leak_budget:
            raise LeakBudgetExceeded(
                f"cumulative leak {x.leaked_mass:.3e} exceeds budget "
                f"{leak_budget:.3e} at generation {n}", tuple(rows),
                tuple(pmfs) if keep_pmfs else None)
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


def gf_orbit(x0: FinitePmf | GeometricPmf, law: OffspringLaw, a: int,
             s: float, steps: int) -> list[tuple[LogReal, LogReal, float]]:
    """(F_n(s), F_n'(s), log G(F_n(s))) for n = 0..steps, F_n(s) = E s^X_n
    along the recursion from x0, G the generating function of law's
    weights (for geometric N the cut weights that step() uses too).
    A geometric x0 is cut by dists.as_finite as well: past its radius of
    convergence its exact F_0(s) is infinite.

    The generating-function recursion (Collet, Eckmann, Glaser & Martin,
    CMP 1984; Derrida & Retaux, JSP 2014, with G in place of v -> v^2):

        F_{n+1}(s) = G(F_n(s)) / s^a + sum_{p<a} c_p (1 - s^(p-a)),
        F_{n+1}'(s) = G'(F_n(s)) F_n'(s) / s^a - a G(F_n(s)) / s^(a+1)
                      + sum_{p<a} c_p (a - p) s^(p-a-1),

    with c_p = P(S_n = p) (_clip_heads): the mass the clip at zero rounds
    up, rebooked at value 0.  Values are signed log-space scalars; on a
    law collapsing onto 0 the computed F_n' is cancellation noise and may
    come out negative.
    """
    if s <= 0.0:
        raise ValueError(f"generating-function argument must be positive, got {s}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    x0 = dists.as_finite(x0)
    heads = _clip_heads(x0.probs, law.weights, a, steps)
    log_s = math.log(s)
    log_f, log_fp = dists.log_pgf_pair(x0, s)
    f, fp = LogReal.from_log(log_f), LogReal.from_log(log_fp)
    rows = []
    for n in range(steps + 1):
        log_g, log_gp = law.log_pgf_pair(f.log)
        rows.append((f, fp, log_g))
        if n == steps:
            break
        f_next = LogReal.from_log(log_g - a * log_s)
        fp_next = LogReal.from_log(log_gp + fp.log - a * log_s, fp.sign)
        fp_next = fp_next - LogReal.from_log(log_g + math.log(a)
                                             - (a + 1) * log_s)
        for p, cp in enumerate(heads[n].tolist()):
            if cp > 0.0:
                clip = ONE - LogReal.from_log((p - a) * log_s)
                f_next = f_next + LogReal.from_float(cp) * clip
                fp_next = fp_next + LogReal.from_float(cp * (a - p)) \
                    * LogReal.from_log((p - a - 1) * log_s)
        f, fp = f_next, fp_next
    return rows

