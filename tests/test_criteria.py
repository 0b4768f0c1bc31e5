"""Phase criteria and the four inequality audits."""

import math
import re
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from drphase import criteria, dists, evolution
from drphase.criteria import (
    STRICTNESS_BAND,
    SUBCRITICAL,
    SUPERCRITICAL,
    UNDETERMINED,
    classify,
    d0,
    lemma1_growth_check,
    lemma2_tail_check,
    lemma3_contraction_check,
    lemma4_association_check_log,
    offspring_association_check,
)
from drphase.dists import (GEOMETRIC_TAIL, AtomPmf, FinitePmf, GeometricPmf,
                           ModelSpec, OffspringLaw)
from drphase.logreal import LogReal

from conftest import rand_model_light
from test_dists import rand_pmf


def two_point(p, a=1, high=2, law=None):
    return ModelSpec(a=a, x0=FinitePmf.from_dict({0: 1.0 - p, high: p}),
                     offspring=law or OffspringLaw.deterministic(2))


# -- criterion functional -----------------------------------------------------

def test_d0_symbolic_line_a1():
    # a=1, x0={0:1-p, 2:p}: d0(2, 2) = 5p - 1
    for p in (0.1, 0.2, 0.5, 0.9):
        assert d0(two_point(p).x0, 1, 2.0, 2.0) \
            == pytest.approx(5.0 * p - 1.0, abs=1e-14)


def test_d0_symbolic_line_a2():
    # a=2, x0={0:1-p, 3:p}, s=sqrt 2, m=2: d0 = (2 sqrt 2 + 2) p - 2
    for p in (0.3, 0.5):
        model = two_point(p, a=2, high=3)
        expect = (2.0 * math.sqrt(2.0) + 2.0) * p - 2.0
        assert d0(model.x0, 2, math.sqrt(2.0), 2.0) \
            == pytest.approx(expect, abs=1e-13)
    assert d0(two_point(0.5, a=2, high=3).x0, 2, math.sqrt(2.0), 2.0) \
        == pytest.approx(0.41421356, abs=1e-7)


def test_d0_with_unit_m_is_negative():
    rng = np.random.default_rng(41)
    for _ in range(10):
        model = rand_model_light(rng)
        s = 1.0 + 2.0 * float(rng.random())
        from drphase.dists import pgf_eval
        assert d0(model.x0, model.a, s, 1.0) == pytest.approx(
            -model.a * pgf_eval(model.x0, s), rel=1e-14)
        assert d0(model.x0, model.a, s, 1.0) < 0.0


def test_d0_linear_in_weights():
    rng = np.random.default_rng(42)
    law = OffspringLaw.deterministic(2)
    for _ in range(10):
        p, q = rand_pmf(rng), rand_pmf(rng)
        lam = float(rng.random())
        mixed = {}
        for v in set(p.as_dict()) | set(q.as_dict()):
            mixed[v] = lam * p.mass_at(v) + (1.0 - lam) * q.mass_at(v)
        mixed[max(mixed)] += 1.0 - sum(mixed.values())  # float repair
        mp = ModelSpec(a=1, x0=FinitePmf.from_dict(mixed), offspring=law)
        s, m = 1.7, 2.0
        lhs = d0(mp.x0, 1, s, m)
        rhs = lam * d0(p, 1, s, m) + (1.0 - lam) * d0(q, 1, s, m)
        assert lhs == pytest.approx(rhs, abs=1e-12)


# -- classification -----------------------------------------------------------

def exact_d0_sign(weights, a, s, m):
    """Sign of sum_k w_k ((m-1) k - a) s^k at the float inputs, in mpmath
    at 400 bits."""
    with mpmath.workprec(400):
        s_, m_ = mpmath.mpf(s), mpmath.mpf(m)
        d = mpmath.fsum(mpmath.mpf(w) * ((m_ - 1) * k - a) * s_ ** k
                        for k, w in weights.items())
        return int(mpmath.sign(d))


def takes_the_log_path(law, a, s, m):
    f, fp = law.pgf_pair(s)
    return not (math.isfinite((m - 1.0) * s * fp) and math.isfinite(a * f))


def test_d0_decides_wide_laws_with_the_exact_sign():
    # Past float64 range d0 sums its positive and its negative terms apart
    # in log space: log F and log F' near 10^20 have an ulp of 8192, and
    # their difference read 0.
    rng = np.random.default_rng(26)
    cases = [({0: 0.5, 10**20: 0.5}, 1, 2.0),
             # an atom at a/(m-1), whose term is 0
             ({1: 0.3, 2: 0.3, 10**19: 0.4}, 2, 2.0),
             # no atom below a/(m-1): no negative term
             ({1: 0.5, 10**18: 0.5}, 1, 3.0),
             ({2: 0.25, 7: 0.25, 3 * 10**17: 0.5}, 1, 2.0)]
    for _ in range(300):
        top = int(10.0 ** rng.uniform(3, 19))
        values = {top, *rng.integers(0, min(top, 50), int(rng.integers(1, 4)))
                  .tolist()}
        w = rng.dirichlet(np.ones(len(values)))
        a, m = int(rng.choice([1, 2, 3])), float(rng.choice([1.5, 2.0, 3.0]))
        cases.append((dict(zip(sorted(values), w.tolist())), a, m))
    logs = 0
    for weights, a, m in cases:
        law, s = AtomPmf.from_dict(weights), m ** (1.0 / a)
        if not takes_the_log_path(law, a, s, m):
            continue
        logs += 1
        exact = exact_d0_sign(dict(zip(law.atoms[1].tolist(),
                                       law.atoms[0].tolist())), a, s, m)
        value = d0(law, a, s, m)
        assert abs(value) > STRICTNESS_BAND, (weights, a, m, value)
        assert np.sign(value) == exact, (weights, a, m, value)
    assert logs > 250
    # a FinitePmf's log path reads the same atoms
    dense = {0: 0.5, 2000: 0.5}
    assert takes_the_log_path(FinitePmf.from_dict(dense), 1, 2.0, 2.0)
    assert d0(FinitePmf.from_dict(dense), 1, 2.0, 2.0) \
        == d0(AtomPmf.from_dict(dense), 1, 2.0, 2.0) == math.inf
    v = classify(ModelSpec(1, AtomPmf.from_dict({0: 0.5, 10**20: 0.5}),
                           OffspringLaw.deterministic(2)))
    assert (v.verdict, v.d_super, v.d_sub) == (SUPERCRITICAL, math.inf,
                                               math.inf)


def test_classify_supercritical_pinned():
    v = classify(two_point(0.5))
    assert v.verdict == SUPERCRITICAL
    assert v.d_super == pytest.approx(1.5, abs=1e-14)
    assert v.d_sub == pytest.approx(1.5, abs=1e-14)
    assert criteria.super_point(two_point(0.5)) == (2.0, 2.0)


def test_classify_subcritical_pinned():
    v = classify(two_point(0.1))
    assert v.verdict == SUBCRITICAL
    assert v.d_sub == pytest.approx(-0.5, abs=1e-14)


def test_classify_undetermined_gap_pinned():
    model = ModelSpec(a=2, x0=FinitePmf.from_dict({0: 0.6, 3: 0.4}),
                      offspring=OffspringLaw.deterministic(2))
    v = classify(model)
    assert v.verdict == UNDETERMINED
    assert v.d_super == pytest.approx((2.0 * math.sqrt(2.0) + 2.0) * 0.4 - 2.0,
                                      abs=1e-13)
    assert v.d_sub == pytest.approx(5.375 * 0.4 - 2.0, abs=1e-13)
    assert v.d_super < 0.0 < v.d_sub


def test_classify_exact_boundary_is_undetermined():
    # 5p - 1 = 0 at p = 0.2: both criterion values sit inside the
    # strictness band, no phase may be claimed from rounding noise
    v = classify(two_point(0.2))
    assert v.verdict == UNDETERMINED
    assert abs(v.d_super) <= STRICTNESS_BAND


def test_classify_geometric_has_no_subcritical_criterion():
    model = ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.9, 2: 0.1}),
                      offspring=OffspringLaw.geometric(0.5))
    v = classify(model)
    assert v.d_sub is None
    assert v.verdict in (SUPERCRITICAL, UNDETERMINED)
    # same x0 with bounded N classifies Subcritical; unbounded never does
    assert classify(two_point(0.1)).verdict == SUBCRITICAL
    assert v.verdict == UNDETERMINED


def test_classify_criteria_coincide_for_unit_tax_deterministic():
    # a=1, deterministic N: both evaluation points are s=N, so the two
    # criterion values are equal and exactly one side can fire
    rng = np.random.default_rng(43)
    for _ in range(10):
        p = rand_pmf(rng, max_val=4)
        model = ModelSpec(a=1, x0=p, offspring=OffspringLaw.deterministic(3))
        v = classify(model)
        assert v.d_sub == pytest.approx(v.d_super, rel=1e-14)
        assert criteria.super_point(model)[0] \
            == pytest.approx(criteria.sub_point(model)[0])


BAND_UP = math.nextafter(STRICTNESS_BAND, math.inf)
BAND_DOWN = math.nextafter(-STRICTNESS_BAND, -math.inf)


@pytest.mark.parametrize("d_super, d_sub, verdict", [
    (STRICTNESS_BAND, 0.0, UNDETERMINED),
    (BAND_UP, 0.0, SUPERCRITICAL),
    (0.0, -STRICTNESS_BAND, UNDETERMINED),
    (0.0, BAND_DOWN, SUBCRITICAL),
    (-1.0, None, UNDETERMINED),
    (BAND_DOWN, None, UNDETERMINED),
    (BAND_UP, None, SUPERCRITICAL),
    (BAND_UP, BAND_DOWN, SUPERCRITICAL),
    (1.0, -1.0, SUPERCRITICAL),
    (STRICTNESS_BAND, None, UNDETERMINED),
    (-STRICTNESS_BAND, None, UNDETERMINED),
    (0.0, None, UNDETERMINED),
])
def test_verdict_rule_at_the_band_edges(d_super, d_sub, verdict):
    # a value on the band's edge claims nothing, the next float out does;
    # no subcritical value (unbounded N) never gives Subcritical, and the
    # supercritical test wins when both fire
    v = criteria.PhaseVerdict(d_super, d_sub)
    assert (v.verdict, str(v)) == (verdict, verdict)


@dataclass(frozen=True)
class FrozenVerdict:
    """PhaseVerdict's fields as the frozen dataclass it once was."""

    d_super: float
    d_sub: float | None


VERDICT_VALUES = [0.0, -0.0, 1.5e-13, -2.5, math.inf, -math.inf, math.nan,
                  STRICTNESS_BAND, BAND_DOWN, 1e300, 5e-324]


def test_phase_verdict_is_a_value_as_the_frozen_dataclass_was():
    # equal, with equal hashes, exactly when (d_super, d_sub) are; its repr
    # is the dataclass's, with the class name in front
    pairs = [(d, b) for d in VERDICT_VALUES for b in VERDICT_VALUES + [None]]
    for d_super, d_sub in pairs:
        v = criteria.PhaseVerdict(d_super, d_sub)
        old = FrozenVerdict(d_super, d_sub)
        assert repr(v) == repr(old).replace("FrozenVerdict", "PhaseVerdict")
        assert repr(v) == f"PhaseVerdict(d_super={d_super!r}, d_sub={d_sub!r})"
        assert hash(v) == hash(old) == hash((d_super, d_sub))
        assert (v.d_super, v.d_sub) == (d_super, d_sub)
        for other in pairs[::7]:
            assert (v == criteria.PhaseVerdict(*other)) \
                == (old == FrozenVerdict(*other)) \
                == ((d_super, d_sub) == other), (d_super, d_sub, other)
    v = criteria.PhaseVerdict(1.0, None)
    assert {v: 1}[criteria.PhaseVerdict(1.0, None)] == 1
    # a non-PhaseVerdict compares unequal, through NotImplemented
    for other in ((1.0, None), FrozenVerdict(1.0, None), None, 1.0):
        assert v.__eq__(other) is NotImplemented
        assert v != other and not v == other
    assert not hasattr(v, "__dict__")


def test_classify_depends_only_on_the_pmf():
    # same weights supplied in a different insertion order: same verdict
    # and criterion values (classification is a function of F_0 alone)
    w = {0: 0.25, 2: 0.25, 5: 0.5}
    a = classify(ModelSpec(a=2, x0=FinitePmf.from_dict(w),
                           offspring=OffspringLaw.deterministic(2)))
    b = classify(ModelSpec(a=2, x0=FinitePmf.from_dict(dict(reversed(list(w.items())))),
                           offspring=OffspringLaw.deterministic(2)))
    assert a.verdict == b.verdict
    assert a.d_super == b.d_super
    assert a.d_sub == b.d_sub


# -- pointwise inequalities behind the theorems -------------------------------

def test_supercritical_pointwise_inequality_grid():
    # y(EN-1) + a >= a s^y for y in {1..a}, s <= (EN)^(1/a)
    for mu, a in ((2.0, 1), (2.0, 3), (3.0, 2), (4.0, 3)):
        s_top = mu ** (1.0 / a)
        for s in np.linspace(1.0, s_top, 9):
            for y in range(1, a + 1):
                assert y * (mu - 1.0) + a >= a * s**y - 1e-12


def test_contraction_pointwise_inequality_grid():
    # y(M-1) + a <= a s^y for s >= 1 + (M-1)/a, y >= 1
    for m, a in ((2, 1), (2, 3), (3, 2), (4, 3)):
        s0 = 1.0 + (m - 1.0) / a
        for s in (s0, 1.5 * s0, 2.0 * s0):
            for y in range(1, 30):
                assert y * (m - 1.0) + a <= a * s**y + 1e-9


# -- lemma audits -------------------------------------------------------------

def test_lemma1_growth_pinned_instance():
    model = two_point(0.5)
    rows = lemma1_growth_check(model, [1.9], steps=8)[0]
    lhs0 = rows[0].lhs_log.to_float()
    assert lhs0 == pytest.approx(1.305, abs=1e-12)
    assert rows[0].floor_log.to_float() == pytest.approx(lhs0, rel=1e-14)
    for row in rows:
        assert row.holds
    # floors grow like (mu/s^a)^n
    ratio = rows[3].floor_log.to_float() / rows[2].floor_log.to_float()
    assert ratio == pytest.approx(2.0 / 1.9, rel=1e-12)


def test_lemma1_rejects_s_outside_window():
    model = two_point(0.5)
    with pytest.raises(ValueError):
        lemma1_growth_check(model, [1.0], steps=4)
    with pytest.raises(ValueError):
        lemma1_growth_check(model, [2.0], steps=4)


def lemma2_worst_by_k(model, steps):
    """lemma2_tail_check's worst ratio from its former per-k loop: one
    math.log, min, math.exp and max per tail."""
    mu, a = model.offspring.mean, model.a
    trace = evolution.evolve(model, steps, tail_eps=0.0, keep_pmfs=True)
    log_mu = math.log(mu)
    log_pref = math.log(mu - 1.0) - math.log(a)
    worst = 0.0
    for x in trace.pmfs:
        if x.probs.size <= a + 1:
            continue
        suffix = np.cumsum(x.probs[::-1])[::-1]
        for k in range(1, (x.support_max - 1) // a + 1):
            log_ratio = math.log(float(suffix[a * k + 1])) + log_pref \
                + k * log_mu
            worst = max(worst, math.exp(min(log_ratio, 700.0)))
    return worst


def test_lemma2_tail_pinned_instance():
    model = two_point(0.1)
    worst = lemma2_tail_check(model, steps=20)
    assert worst <= 1.0 + 1e-9
    assert worst > 0.0
    # the array pass gives the per-k loop's ratio to the bit, on Subcritical
    # models with a <= 3, x0 on 2-4 values in 0..6 and N = 2 or N on {1, 2}
    # or {1, 3}, at 20 steps
    rng = np.random.default_rng(34)
    models = [model]
    while len(models) < 224:
        values = rng.choice(7, int(rng.integers(2, 5)), replace=False)
        w = rng.random(values.size) + 0.05
        x0 = FinitePmf.from_dict(dict(zip(values.tolist(),
                                          (w / w.sum()).tolist())))
        if rng.random() < 0.4:
            law = OffspringLaw.deterministic(2)
        else:
            lo = 0.2 + 0.6 * float(rng.random())
            top = int(rng.integers(2, 4))
            law = OffspringLaw.finite_support({1: lo, top: 1.0 - lo})
        candidate = ModelSpec(int(rng.integers(1, 4)), x0, law)
        if classify(candidate).verdict == SUBCRITICAL:
            models.append(candidate)
    for model in models:
        assert lemma2_tail_check(model, 20).hex() \
            == lemma2_worst_by_k(model, 20).hex(), model


def test_lemma2_refuses_non_subcritical():
    with pytest.raises(ValueError, match="Subcritical"):
        lemma2_tail_check(two_point(0.5), steps=5)


def test_lemma3_contraction_pinned_instance():
    model = two_point(0.1)
    rows = lemma3_contraction_check(model, [2.0], steps=10)[0]
    assert rows[0].bound_log is None  # input-only row
    for row in rows[1:]:
        assert row.holds
    # sign persistence: d0 < 0 at s=2 propagates through every generation
    for row in rows:
        assert row.d_next_log.sign < 0


def test_lemma3_requires_bounded_and_threshold():
    geo = ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.9, 2: 0.1}),
                    offspring=OffspringLaw.geometric(0.5))
    with pytest.raises(ValueError):
        lemma3_contraction_check(geo, [2.0], steps=3)
    with pytest.raises(ValueError):
        lemma3_contraction_check(two_point(0.1), [1.5], steps=3)  # below 1+(M-1)/a


def test_lemma1_and_lemma3_evolve_no_law(monkeypatch):
    def no_evolution(*args, **kwargs):
        raise AssertionError("evolved a law")
    monkeypatch.setattr(evolution, "evolve", no_evolution)
    monkeypatch.setattr(evolution, "step", no_evolution)
    monkeypatch.setattr(criteria, "evolve", no_evolution)
    rows = lemma1_growth_check(two_point(0.5), [1.9], 8)[0]
    assert all(r.holds for r in rows)
    rows = lemma3_contraction_check(two_point(0.1), [2.0], 10)[0]
    assert len(rows) == 11 and all(r.holds for r in rows)
    # an unbounded N is audited through the cutoff step() uses
    x0 = FinitePmf.from_dict({0: 0.5, 2: 0.5})
    geo = ModelSpec(a=1, x0=x0, offspring=OffspringLaw.geometric(0.5))
    cut = ModelSpec(a=1, x0=x0,
                    offspring=geo.offspring.with_cutoff(GEOMETRIC_TAIL))
    assert lemma1_growth_check(geo, [1.9], 6) \
        == lemma1_growth_check(cut, [1.9], 6)


@pytest.mark.parametrize("log_bound,over,holds", [
    (10.0, 1e-8, False), (-10.0, 1e-8, False), (10.0, 5e-10, True),
    (1.2e8, 1.5e-8, True), (1.2e8, 1e-5, False)])
def test_contraction_slack_grows_only_with_float_resolution(log_bound, over,
                                                            holds):
    # relative slack max(1e-9, 17 u |log bound|): 1.9e-14 at |log| = 10,
    # 2.3e-7 at |log| = 1.2e8
    for sign in (1, -1):
        bound = LogReal.from_log(log_bound, sign)
        d_next = bound + LogReal.from_log(log_bound + math.log(over))
        assert criteria._contraction_holds(d_next, bound) is holds


@pytest.mark.parametrize("log_floor,under,terms_log,holds", [
    (10.0, 1e-8, 10.0, False), (10.0, 1e-8, 12.0, False),
    (-10.0, 1e-3, -5.0, False), (10.0, 1e-15, 10.0, True),
    (3.1e18, 1e-8, 3.1e18, True), (10.0, 0.5, 3.1e18, True)])
def test_growth_slack_grows_only_with_float_resolution(log_floor, under,
                                                       terms_log, holds):
    # absolute slack max(1e-9, 8 u L T), T the largest of |floor| and the
    # terms of lhs, L = log T: 2e-10 at L = 10; at L = 3.1e18 it exceeds T,
    # so no row there can fail
    floor = LogReal.from_log(log_floor)
    lhs = floor - LogReal.from_log(log_floor + math.log(under))
    assert criteria._growth_holds(lhs, floor, terms_log) is holds


def lemma4_floats(p, s):
    lhs, rhs = lemma4_association_check_log(p, s)
    return lhs.to_float(), rhs.to_float()


def test_lemma4_pinned_pairs():
    lhs, rhs = lemma4_floats(FinitePmf.from_dict({0: 0.5, 1: 0.5}), 2.0)
    assert (lhs, rhs) == (1.0, 0.75)
    lhs, rhs = lemma4_floats(FinitePmf.from_dict({0: 0.9, 2: 0.1}), 2.0)
    assert lhs == pytest.approx(0.8)
    assert rhs == pytest.approx(0.26)
    # constants give exact equality
    lhs, rhs = lemma4_floats(FinitePmf.delta(3), 1.5)
    assert lhs == pytest.approx(rhs, rel=1e-14)
    # past float64 range: lhs = 1000 2^2000, rhs = 1000 (1 + 2^2000) / 2
    lhs, rhs = lemma4_association_check_log(
        FinitePmf.from_dict({0: 0.5, 2000: 0.5}), 2.0)
    assert lhs.to_float() == math.inf
    assert lhs.log - rhs.log == pytest.approx(math.log(2.0), rel=1e-12)
    # a closed-form law reads as its own pairs and mean: r = .35 at s = 1.5
    # gives 1.5 F'(1.5) = 546 and E X F(1.5) = (13/7) 14 = 26, and past the
    # radius 1/(1-r) E s^X diverges
    lhs, rhs = lemma4_floats(GeometricPmf(0.35), 1.5)
    assert lhs == pytest.approx(546.0, rel=1e-13)
    assert rhs == pytest.approx(26.0, rel=1e-13)
    with pytest.raises(ValueError, match="E s\\^X diverges at s=2.0"):
        lemma4_association_check_log(GeometricPmf(0.35), 2.0)
    law = AtomPmf.from_dict({0: 0.75, 3: 0.25})
    assert lemma4_floats(law, 2.0) == lemma4_floats(law.cut, 2.0)


def near_zero_pmf(rng, delta):
    """A law with all but delta of its mass at 0."""
    rest = rand_pmf(rng)
    weights = {v + 1: delta * float(w) for v, w in rest.as_dict().items()}
    return FinitePmf.from_dict({0: 1.0 - delta, **weights})


def test_lemma4_association_property():
    # the inequality holds for every law and sub-law on the integers
    # (Chebyshev's association inequality); the CLI audit rests on that
    rng = np.random.default_rng(44)
    laws = [rand_pmf(rng) for _ in range(50)]
    laws += [near_zero_pmf(rng, 10.0 ** -k) for k in range(1, 19)]
    # sub-laws: each cut loses at least its top atom
    sub_laws = []
    for p in laws:
        spare = max(0.0, 1.0 - float(p.probs[0] + p.probs[-1]))
        sub_laws.append(dists.truncate(
            p, float(p.probs[-1]) + 0.9 * float(rng.random()) * spare))
    assert all(p.leaked_mass > 0.0 for p in sub_laws)
    slack = LogReal.from_float(1e-12)
    for p in laws + sub_laws:
        for s in (1.0 + 3.0 * float(rng.random()) + 1e-9, 1.5, 2.0):
            lhs, rhs = lemma4_association_check_log(p, s)
            assert (lhs - rhs + slack).sign >= 0


def test_lemma4_evaluates_no_log_pair_where_x0_diverges(monkeypatch):
    def no_log_pair(self, s):
        raise AssertionError(f"log pair evaluated at s={s}")
    monkeypatch.setattr(GeometricPmf, "log_pgf_pair", no_log_pair)
    for s in (1.0 / 0.65, 2.0, 1e300):
        message = f"^E s\\^X diverges at s={re.escape(str(s))}$"
        with pytest.raises(ValueError, match=message):
            lemma4_association_check_log(GeometricPmf(0.35), s)


def test_log_real_to_float_underflows_to_zero():
    assert LogReal.from_log(-746.0, -1).to_float() == 0.0
    assert LogReal.from_log(-744.0).to_float() == math.exp(-744.0) > 0.0
    # equal, with equal hashes, when sign and log are; repr as a dataclass's
    x = LogReal.from_log(-744.0)
    assert x == LogReal(1, -744.0) and x != LogReal(-1, -744.0)
    assert x != LogReal(1, -745.0) and x != -744.0
    assert hash(x) == hash(LogReal(1, -744.0)) == hash((1, -744.0))
    assert len({x, LogReal(1, -744.0), LogReal.from_float(0.0)}) == 2
    assert repr(x) == "LogReal(sign=1, log=-744.0)"
    assert repr(LogReal.from_float(0.0)) == "LogReal(sign=0, log=-inf)"


def test_lemma4_requires_s_above_one():
    with pytest.raises(ValueError):
        lemma4_association_check_log(FinitePmf.from_dict({0: 0.5, 1: 0.5}),
                                     1.0)


def test_offspring_association_pinned():
    law = OffspringLaw.finite_support({1: 0.5, 3: 0.5})
    vgp, lower, upper = offspring_association_check(law, 2.0)
    assert (vgp, lower, upper) == (13.0, 10.0, 15.0)
    # deterministic N: equality at the lower bound
    vgp, lower, upper = offspring_association_check(
        OffspringLaw.deterministic(2), 3.0)
    assert vgp == lower == 18.0
    assert upper == 18.0
    # v=1: lower bound is EN exactly
    vgp, lower, _ = offspring_association_check(law, 1.0)
    assert vgp == pytest.approx(law.mean)
    assert lower == pytest.approx(law.mean)
    with pytest.raises(ValueError, match="^offspring sandwich is claimed for "
                                         "v >= 1, got 0.5$"):
        offspring_association_check(law, 0.5)


def test_offspring_association_geometric_has_no_upper():
    law = OffspringLaw.geometric(0.6)
    vgp, lower, upper = offspring_association_check(law, 1.2)
    assert upper is None
    assert vgp >= lower - 1e-12


def test_offspring_association_property():
    rng = np.random.default_rng(45)
    for _ in range(50):
        high = int(rng.integers(2, 5))
        weights = {high: 0.3 + 0.7 * float(rng.random())}
        if rng.random() < 0.7:
            weights[1] = 1.0 - weights[high]
        else:
            weights[high] = 1.0
        law = OffspringLaw.finite_support(weights)
        for v in (1.0, 1.5, 2.0):
            vgp, lower, upper = offspring_association_check(law, v)
            assert lower <= vgp + 1e-12
            assert vgp <= upper + 1e-12
