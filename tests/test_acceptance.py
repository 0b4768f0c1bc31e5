"""Release gate: ten numbered checks with stated tolerances and budgets.

Each test prints one `criterion NN: PASS (...)` line when it gets through
its assertions (run with -s to see them); a failure surfaces as the usual
pytest FAILED line for that criterion.  Runtime budgets are enforced with
perf_counter around the computation itself; warm-up calls run before the
clock starts.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from drphase.logreal import LogReal
from drphase.criteria import (
    SUBCRITICAL,
    SUPERCRITICAL,
    UNDETERMINED,
    d0,
    lemma1_growth_check,
    lemma2_tail_check,
    lemma3_contraction_check,
    lemma4_association_check_log,
    offspring_association_check,
)
from drphase.dists import (
    WEIGHT_FLOOR,
    FinitePmf,
    ModelSpec,
    OffspringLaw,
    log_pgf_deriv,
    log_pgf_eval,
    pgf_deriv,
    pgf_eval,
)
from drphase.evolution import evolve, gf_orbit
from drphase.montecarlo import (ancestor_counts, init_population, mc_step,
                                pool_means)
from drphase.scan import TwoPointFamily, bisect_boundary, scan

from conftest import _draw_offspring
from test_dists import rand_pmf


def report(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS ({detail})")


def two_point_model(p: float, a: int = 1, high: int = 2) -> ModelSpec:
    return ModelSpec(a=a, x0=FinitePmf.from_dict({0: 1.0 - p, high: p}),
                     offspring=OffspringLaw.deterministic(2))


def test_criterion_01_unit_tax_boundary():
    family = TwoPointFamily(a=1, high_value=2,
                            offspring=OffspringLaw.deterministic(2))
    t0 = time.perf_counter()
    intervals = {which: bisect_boundary(family, which, tol=1e-9)
                 for which in ("super", "sub")}
    elapsed = time.perf_counter() - t0
    for which, (lo, hi) in intervals.items():
        assert hi - lo <= 1e-9, which
        assert lo <= 0.2 <= hi, (which, lo, hi)
    assert elapsed < 1.0, elapsed
    report(1, f"both boundaries bracket 0.2 within 1e-9; {elapsed:.3f}s")


def test_criterion_02_tax_two_gap():
    family = TwoPointFamily(a=2, high_value=3,
                            offspring=OffspringLaw.deterministic(2))
    root_sub = 2.0 / 5.375
    root_super = 2.0 ** 0.5 - 1.0
    t0 = time.perf_counter()
    grid = scan(family, 101)
    elapsed = time.perf_counter() - t0
    undetermined = 0
    for p, verdict in grid:
        if p <= 0.37:
            assert verdict.verdict == SUBCRITICAL, (p, verdict.verdict)
        if p >= 0.42:
            assert verdict.verdict == SUPERCRITICAL, (p, verdict.verdict)
        if verdict.verdict == UNDETERMINED:
            undetermined += 1
            assert root_sub < p < root_super, p
    assert undetermined >= 1
    assert elapsed < 1.0, elapsed
    report(2, f"gap confined to ({root_sub:.6f}, {root_super:.6f}) with "
              f"{undetermined} undetermined grid points; {elapsed:.3f}s")


def test_criterion_03_monotone_bracket(battery):
    certified_at = []
    for entry in battery:
        q_upper = [row.q_upper for row in entry.rows20]
        q_lower = [row.q_lower for row in entry.rows20]
        for a, b in zip(q_upper, q_upper[1:]):
            assert b <= a + 1e-12, entry.model
        for a, b in zip(q_lower, q_lower[1:]):
            assert b >= a - 1e-12, entry.model
        if entry.verdict.verdict == SUPERCRITICAL:
            positive = [row.n for row in entry.rows20 if row.q_lower > 0.0]
            assert positive, entry.model  # monotone, so positive at 30 too
            certified_at.append(positive[0])
    assert certified_at
    report(3, f"20 models monotone within 1e-12; "
              f"{len(certified_at)} supercritical all certified by "
              f"n <= {max(certified_at)}")


LOG_WEIGHT_FLOOR = math.log(WEIGHT_FLOOR)
CANCEL_NOISE_LOG = math.log(1e-13)


def _floor_tail_log(expected: int, s: float, deriv: bool) -> float:
    """log bound on what dropping sub-floor weights up to index `expected`
    can change in a pgf (or its derivative) at s > 1."""
    out = LOG_WEIGHT_FLOOR + expected * math.log(s) + math.log(s / (s - 1.0))
    if deriv:
        out += math.log(max(expected, 1)) - math.log(s)
    return out


def _step_gap_logs(x, y, model, svals):
    """Exact one-step image of x minus the stored step() output.

    step() sweeps weights below its floor and re-pins the heaviest bin, so
    its output differs from the exact image by a polynomial with tiny
    coefficients.  Evaluated at s > 1 that gap can still dominate, which is
    what the comparison tolerance must absorb.  Extended precision keeps
    the sub-float64 products the engine cannot represent.
    """
    xp = x.probs.astype(np.longdouble)
    counts = model.offspring.weights
    a = model.a
    acc = np.zeros(1, dtype=np.longdouble)
    conv = None
    for m in range(1, counts.size):
        conv = xp if m == 1 else np.convolve(conv, xp)
        wm = float(counts[m])
        if wm == 0.0:
            continue
        if acc.size < conv.size:
            acc = np.pad(acc, (0, conv.size - acc.size))
        acc[:conv.size] += np.longdouble(wm) * conv
    exact = np.zeros(max(acc.size - a, 1), dtype=np.longdouble)
    exact[0] = acc[:a + 1].sum()
    if acc.size > a + 1:
        exact[1:acc.size - a] = acc[a + 1:]
    stored = np.zeros_like(exact)
    stored[:y.probs.size] = y.probs.astype(np.longdouble)
    gap = np.abs(exact - stored)
    ks = np.arange(gap.size, dtype=np.longdouble)
    out = {}
    for s in svals:
        pw = np.longdouble(s) ** ks
        ev = float(gap @ pw)
        dv = float((gap * ks) @ pw) / s
        out[s] = (math.log(ev) if ev > 0.0 else -math.inf,
                  math.log(dv) if dv > 0.0 else -math.inf)
    return out


def test_criterion_04_generating_function_oracle(battery):
    # The identity side is compared against the pgf of the stored step()
    # output at rel 1e-10 plus two computed allowances: a cancellation
    # noise floor taken from the magnitudes of the formula's own terms
    # (the clip correction subtracts O(1) quantities, so a law collapsing
    # onto 0 leaves a remainder below what float64 can resolve), and the
    # exact gap polynomial between the stored output and the true image
    # (the engine's weight floor drops coefficients that s^k amplifies).
    # Both allowances are negligible away from those regimes; coverage
    # asserts below keep the check from going vacuous.
    svals = (1.1, 1.5, 2.0, 3.0)
    checked = informative = 0
    clock = 0.0
    for entry in battery:
        model = entry.model
        law, a = model.offspring, model.a
        pmfs = entry.trace8.pmfs
        model_informative = 0
        for x, y in zip(pmfs, pmfs[1:]):
            expected = max(law.bound * x.support_max - a, 0)
            refined = None
            mark = time.perf_counter()
            for s in svals:
                ls = math.log(s)
                with np.errstate(over="ignore"):
                    log_f = log_pgf_eval(x, s)
                    log_fp = log_pgf_deriv(x, s)
                    lg, lgp = law.log_pgf_pair(log_v=log_f)
                    f, fp, _ = gf_orbit(x, law, a, [s], 1)[0][1]
                    rows = ((f.to_float(), pgf_eval(y, s), f,
                             log_pgf_eval(y, s), False),
                            (fp.to_float(), pgf_deriv(y, s), fp,
                             log_pgf_deriv(y, s), True))
                scale_e = np.logaddexp(lg - a * ls, math.log(2.0 * a))
                scale_d = np.logaddexp(
                    np.logaddexp(lgp + log_fp - a * ls,
                                 math.log(a) + lg - (a + 1) * ls),
                    math.log(a * a / s))
                for plain, target, in_log, t_log, is_deriv in rows:
                    checked += 1
                    noise_log = (scale_d if is_deriv else scale_e) \
                        + CANCEL_NOISE_LOG
                    allow_log = _floor_tail_log(expected, s, is_deriv)
                    if t_log == -math.inf:
                        # target is exactly zero; the identity side must
                        # sit at the noise floor
                        assert in_log.log <= np.logaddexp(noise_log,
                                                          allow_log)
                        informative += 1
                        model_informative += 1
                        continue
                    if allow_log - t_log > math.log(1e-12):
                        if refined is None:
                            clock += time.perf_counter() - mark
                            refined = _step_gap_logs(x, y, model, svals)
                            mark = time.perf_counter()
                        allow_log = refined[s][1 if is_deriv else 0]
                    budget_log = np.logaddexp(noise_log, allow_log)
                    bound_log = np.logaddexp(t_log + math.log(1e-10),
                                             budget_log)
                    gap = in_log - LogReal.from_log(t_log, 1)
                    assert gap.log <= bound_log, (model, s, is_deriv)
                    if math.exp(min(budget_log - t_log, 200.0)) <= 1e-11:
                        informative += 1
                        model_informative += 1
                        if math.isfinite(plain) and math.isfinite(target):
                            assert plain == pytest.approx(target,
                                                          rel=1e-10)
            clock += time.perf_counter() - mark
        assert model_informative >= 8, model
    assert clock < 10.0, clock
    assert informative >= 0.75 * checked, (informative, checked)
    report(4, f"{checked} one-step generating-function values matched, "
              f"{informative} at rel 1e-10, rest within computed float "
              f"budgets; {clock:.3f}s")


def test_criterion_05_subcritical_tail_bound(battery):
    subs = [e for e in battery if e.verdict.verdict == SUBCRITICAL]
    assert len(subs) >= 3
    worst = 0.0
    for entry in subs:
        worst = max(worst, lemma2_tail_check(entry.model, 20))
    assert worst <= 1.0 + 1e-9, worst
    report(5, f"{len(subs)} subcritical models, worst tail ratio {worst:.6g}")


def test_criterion_06_contraction_and_sign_persistence(battery):
    audited = 0
    for entry in battery:
        model = entry.model
        bound = model.offspring.bound
        s0 = 1.0 + (bound - 1.0) / model.a
        for s in (s0, 2.0 * s0):
            rows = lemma3_contraction_check(model, [s], 10)[0]
            assert all(r.holds for r in rows), (model, s)
            if rows[0].d_next_log.sign < 0:
                assert all(r.d_next_log.sign < 0 for r in rows), (model, s)
            audited += 1
    report(6, f"{audited} model/s-point audits: contraction holds within "
              f"1e-9 relative, negative sign persists to n=10")


def test_criterion_07_supercritical_growth_floor(battery):
    supers = [e for e in battery if e.verdict.verdict == SUPERCRITICAL]
    audited_models = 0
    audited_points = 0
    for entry in supers:
        model = entry.model
        mu = model.offspring.mean
        s_star = mu ** (1.0 / model.a)
        grid = [c * s_star for c in (0.9, 0.95, 0.99) if c * s_star > 1.0]
        points = [s for s in grid if d0(model.x0, model.a, s, mu) > 0.0]
        if not points:
            continue
        audited_models += 1
        for s in points:
            rows = lemma1_growth_check(model, [s], 8)[0]
            assert all(r.holds for r in rows), (model, s)
            audited_points += len(rows)
    assert audited_models >= 1
    report(7, f"{audited_models} supercritical models, {audited_points} "
              f"generation rows at or above the geometric floor - 1e-9")


def test_criterion_08_association_inequalities():
    rng = np.random.default_rng(77)
    slack = LogReal.from_float(1e-12)
    for _ in range(100):
        p = rand_pmf(rng)
        for s in (1.5, 2.0, 4.0):
            lhs, rhs = lemma4_association_check_log(p, s)
            assert (lhs - rhs + slack).sign >= 0, (p, s)
    rng = np.random.default_rng(78)
    for _ in range(100):
        law = _draw_offspring(rng)
        for v in (1.0, 1.5, 2.0):
            vgp, lower, upper = offspring_association_check(law, v)
            assert vgp >= lower - 1e-12 * max(1.0, abs(lower))
            assert vgp <= upper + 1e-12 * max(1.0, abs(upper))
    report(8, "100 pmfs x 3 s-points and 100 bounded offspring laws x 3 "
              "v-points sandwiched")


def test_criterion_09_monte_carlo_consistency():
    model = two_point_model(0.5)
    # first calls of each sampler run outside the timed window
    warm = init_population(model, 2000, master_seed=1)
    mc_step(warm, model)
    law = OffspringLaw.finite_support({1: 0.5, 3: 0.5})
    ancestor_counts(law, depth=2, n_trees=10, seed=1)

    t0 = time.perf_counter()
    exact = evolve(model, 10, tail_eps=0.0).rows[-1].mean_xn
    mean, se = pool_means(model, 100_000, 10, seed=0)[-1]
    gap = abs(mean - exact)
    assert gap <= 4.0 * se, (mean, exact, se)

    counts = ancestor_counts(law, depth=10, n_trees=10_000, seed=7)
    tree_se = counts.std(ddof=1) / math.sqrt(counts.size)
    tree_gap = abs(counts.mean() - 2.0 ** 10)
    assert tree_gap <= 3.0 * tree_se, (counts.mean(), tree_se)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed
    report(9, f"population mean within {gap / se:.2f} se, tree growth "
              f"within {tree_gap / tree_se:.2f} se; {elapsed:.1f}s")


def test_criterion_10_byte_identical_simulation(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "a": 1,
        "x0": {"type": "finite", "pmf": [[0, 0.5], [2, 0.5]]},
        "N": {"type": "deterministic", "n": 2},
        "simulate": {"steps": 5, "pop_size": 5000, "seed": 123},
    }))
    args = [sys.executable, "-m", "drphase", "simulate",
            "--config", str(cfg), "--output", "csv"]

    def run():
        proc = subprocess.run(args, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert run() == run()
    report(10, "two runs produced byte-identical output")
