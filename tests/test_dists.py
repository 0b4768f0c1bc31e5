"""Exact-distribution layer: pinned enumeration oracles plus property loops."""

import hashlib
import math
import types
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp

from drphase import criteria, dists, evolution, montecarlo
from drphase.criteria import SUBCRITICAL, classify
from drphase.dists import (
    GEOMETRIC_TAIL,
    AtomPmf,
    FinitePmf,
    GeometricPmf,
    ModelSpec,
    OffspringLaw,
    convolve,
    log_pgf_deriv,
    log_pgf_eval,
    pgf_deriv,
    pgf_eval,
    truncate,
)
from drphase.scan import TwoPointFamily

from conftest import EDGE_ATOMS


def two_point(high, p):
    """The law {0: 1-p, high: p} as a two-point scan family builds it."""
    return TwoPointFamily(1, high, OffspringLaw.deterministic(2)).law(p)


def rand_pmf(rng, max_val=8, max_pts=5):
    npts = int(rng.integers(2, max_pts + 1))
    vals = []
    while len(vals) < npts:
        v = int(rng.integers(0, max_val + 1))
        if v not in vals:
            vals.append(v)
    w = rng.random(npts) + 0.1
    w = w / w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    return FinitePmf.from_dict(dict(zip(vals, w)))


# -- pinned values ----------------------------------------------------------

def test_pgf_eval_enumeration():
    p = FinitePmf.from_dict({0: 0.5, 2: 0.5})
    assert pgf_eval(p, 1.0) == 1.0
    assert pgf_eval(p, 2.0) == 2.5
    assert pgf_eval(FinitePmf.delta(0), 7.3) == 1.0


def test_pgf_deriv_enumeration():
    p = FinitePmf.from_dict({0: 0.5, 2: 0.5})
    assert pgf_deriv(p, 2.0) == 2.0
    assert pgf_deriv(FinitePmf.delta(0), 3.0) == 0.0
    assert pgf_deriv(FinitePmf.delta(1), 5.0) == 1.0


def test_convolve_enumeration():
    p = FinitePmf.from_dict({0: 0.5, 2: 0.5})
    out = convolve(p, p)
    assert out.as_dict() == {0: 0.25, 2: 0.5, 4: 0.25}
    assert out.leaked_mass == 0.0


def test_convolve_identity_and_shift():
    p = FinitePmf.from_dict({0: 0.3, 1: 0.2, 5: 0.5})
    same = convolve(p, FinitePmf.delta(0))
    assert same.as_dict() == p.as_dict()
    shifted = convolve(FinitePmf.delta(1), FinitePmf.delta(1))
    assert shifted.as_dict() == {2: 1.0}


def test_mean_enumeration():
    assert FinitePmf.from_dict({0: 0.5, 2: 0.5}).mean == 1.0
    assert FinitePmf.delta(0).mean == 0.0
    assert FinitePmf.from_dict({0: 0.25, 1: 0.5, 3: 0.25}).mean == 1.25
    # the closed-form laws: (1-r)/r and high p, the latter as its cut has it
    assert GeometricPmf(0.25).mean == 3.0
    assert GeometricPmf(0.3).mean == pytest.approx(GeometricPmf(0.3).cut.mean,
                                                   rel=1e-12)
    for high, p in ((3, 0.25), (7, 0.1), (1024, 1e-3)):
        law = two_point(high, p)
        assert law.mean == law.cut.mean == high * p


def test_truncate_whole_tail():
    p = FinitePmf.from_dict({0: 0.9, 10: 0.1})
    out = truncate(p, 0.1)
    assert out.as_dict() == {0: 0.9}
    assert out.leaked_mass == pytest.approx(0.1, abs=1e-15)


def test_truncate_greedy_stops_before_budget():
    p = FinitePmf.from_dict({0: 0.5, 1: 0.3, 2: 0.15, 3: 0.05})
    out = truncate(p, 0.06)
    assert sorted(out.as_dict()) == [0, 1, 2]
    assert out.leaked_mass == pytest.approx(0.05, abs=1e-15)


def test_truncate_zero_eps_is_identity():
    p = FinitePmf.from_dict({0: 0.5, 4: 0.5})
    out = truncate(p, 0.0)
    assert out.as_dict() == p.as_dict()
    assert out.leaked_mass == 0.0


def _reference_truncate(p, tail_eps):
    """truncate's cut from the whole reversed cumsum: the oracle of the
    block-wise one."""
    rev_cum = np.cumsum(p.probs[::-1])
    k = int(np.searchsorted(rev_cum, tail_eps, side="right"))
    if k == 0:
        return p
    keep = p.probs.size - k
    return FinitePmf(p.probs[:keep],
                     p.leaked_mass + float(p.probs[keep:].sum()))


def test_truncate_cut_is_the_whole_reversed_cumsums_bit_for_bit():
    rng = np.random.default_rng(41)
    block = dists._TAIL_BLOCK
    sizes = [1, 2, 3, 17, 1000, block - 1, block, block + 1, 5000,
             3 * block - 1, 3 * block, 3 * block + 1]
    sizes += rng.integers(1, 5001, 12).tolist()
    cases = 0
    for size in sizes:
        w = rng.random(size) * np.exp(-rng.random(size) * 80.0)
        w[rng.random(size) < 0.2] = 0.0   # exact zeros, inside and on top
        w[0] = 1.0
        leak = float(rng.choice([0.0, 1e-9, 0.5]))
        p = FinitePmf(w * ((1.0 - leak) / w.sum()), leak)
        rev_cum = np.cumsum(p.probs[::-1])
        # a partial sum itself (the side="right" tie) at and around the
        # block edges, random budgets, and budgets past the whole mass
        # when the leak leaves room (whole-tail cuts)
        at = [j for j in (0, 1, block // 2, block - 2, block - 1, block,
                          3 * block - 1, 3 * block, p.probs.size - 1)
              if j < p.probs.size]
        budgets = [float(rev_cum[j]) for j in at]
        budgets += [float(np.nextafter(b, 1.0)) for b in budgets]
        budgets += (rng.random(4) * 1e-3).tolist() + [0.0, 1e-14, 0.6]
        for eps in budgets:
            if not eps < 1.0:
                continue
            out, want = truncate(p, eps), _reference_truncate(p, eps)
            assert out.probs.size == want.probs.size, (size, eps)
            assert out.probs.tobytes() == want.probs.tobytes()
            assert out.leaked_mass == want.leaked_mass, (size, eps)
            cases += 1
    assert cases > 300
    whole = FinitePmf(np.array([0.1, 0.0, 0.2]), 0.7)
    assert truncate(whole, 0.5).probs.size == 0
    assert truncate(whole, 0.5).leaked_mass == \
        _reference_truncate(whole, 0.5).leaked_mass
    empty = FinitePmf(np.zeros(0), 1.0)
    assert truncate(empty, 0.5) is empty


# -- property loops ---------------------------------------------------------

def test_convolve_commutative_associative():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p, q, r = rand_pmf(rng), rand_pmf(rng), rand_pmf(rng)
        pq = convolve(p, q)
        qp = convolve(q, p)
        assert np.allclose(pq.probs, qp.probs, rtol=0, atol=1e-12)
        left = convolve(convolve(p, q), r)
        right = convolve(p, convolve(q, r))
        assert np.allclose(left.probs, right.probs, rtol=0, atol=1e-12)


def test_pgf_multiplicative_under_convolution():
    rng = np.random.default_rng(12)
    for _ in range(25):
        p, q = rand_pmf(rng), rand_pmf(rng)
        pq = convolve(p, q)
        for s in (0.5, 1.0, 1.5, 2.0):
            prod = pgf_eval(p, s) * pgf_eval(q, s)
            assert pgf_eval(pq, s) == pytest.approx(prod, rel=1e-12)


def test_mean_is_pgf_deriv_at_one():
    rng = np.random.default_rng(13)
    for _ in range(25):
        p = rand_pmf(rng)
        assert p.mean == pgf_deriv(p, 1.0)


def test_truncate_conserves_mass_plus_leak():
    rng = np.random.default_rng(14)
    for _ in range(25):
        p = rand_pmf(rng)
        before = p.total_mass + p.leaked_mass
        out = truncate(p, float(rng.random()) * 0.3)
        after = out.total_mass + out.leaked_mass
        assert abs(after - before) <= 1e-15


def test_pgf_deriv_matches_finite_difference():
    rng = np.random.default_rng(15)
    for _ in range(25):
        p = rand_pmf(rng)
        s = 0.5 + 2.0 * float(rng.random())
        h = 1e-6
        fd = (pgf_eval(p, s + h) - pgf_eval(p, s - h)) / (2.0 * h)
        assert pgf_deriv(p, s) == pytest.approx(fd, rel=1e-5)


def test_log_pgf_matches_plain_in_overlap():
    rng = np.random.default_rng(16)
    for _ in range(10):
        p = rand_pmf(rng)
        for s in (1.1, 2.0, 3.0):
            assert np.exp(log_pgf_eval(p, s)) == pytest.approx(
                pgf_eval(p, s), rel=1e-12)
            assert np.exp(log_pgf_deriv(p, s)) == pytest.approx(
                pgf_deriv(p, s), rel=1e-12)


# -- log-sum-exp against scipy, bit for bit ----------------------------------

def lse_cases():
    rng = np.random.default_rng(17)
    yield np.array([3.25])
    yield np.array([-700.0])
    yield np.array([2.0, 2.0, 2.0])
    for spread in (1.0, 10.0, 1e3):
        for n in (2, 5, 150, 2000):
            t = rng.standard_normal(n) * spread + rng.uniform(-50.0, 50.0)
            yield t
            tied = t.copy()
            tied[rng.choice(n, size=min(n, 3), replace=False)] = t.max()
            yield tied
            yield np.round(t)
    yield rng.standard_normal(1_000_000) * 10.0


def test_logsumexp_matches_scipy_bit_for_bit():
    for t in lse_cases():
        assert dists._logsumexp(t) == float(logsumexp(t))


def test_log_pgf_matches_scipy_expressions_bit_for_bit():
    rng = np.random.default_rng(18)
    laws = [rand_pmf(rng, max_val=40, max_pts=12) for _ in range(30)]
    w = rng.random(300) + 0.01
    laws.append(FinitePmf(w / w.sum()))
    for p in laws:
        idx = p.support
        k = idx.astype(np.float64)
        for s in (0.3, 1.0, 1.7, 25.0):
            terms = np.log(p.probs[idx]) + k * math.log(s)
            assert log_pgf_eval(p, s) == float(logsumexp(terms))
            k1, i1 = k[idx >= 1], idx[idx >= 1]
            terms = np.log(p.probs[i1]) + np.log(k1) + (k1 - 1.0) * math.log(s)
            assert log_pgf_deriv(p, s) == float(logsumexp(terms))
    for law in (OffspringLaw.deterministic(3),
                OffspringLaw.finite_support({1: 0.3, 2: 0.2, 5: 0.5}),
                OffspringLaw.geometric(0.4)):
        w = law.weights
        idx = np.flatnonzero(w)
        k = idx.astype(np.float64)
        for log_v in (-2.0, 0.0, 0.7, 40.0):
            value = np.log(w[idx]) + k * log_v
            deriv = np.log(w[idx]) + np.log(k) + (k - 1.0) * log_v
            assert law.log_pgf_pair(log_v=log_v) == (
                float(logsumexp(value)), float(logsumexp(deriv)))
    # a batch of points in one pass (gf_orbit's G at every point): each
    # point's pair equals its own pass and the expressions, at log s from
    # -30 to 1e18, on dense and sparse laws of 2 to 10^5 weights and the
    # geometric cuts at p = .5 and 1e-3.  A chunk holds at most
    # _LOG_PAIR_ELEMENTS terms: 6 points of the 10^4-weight laws, 2 of the
    # cut at 1e-3 (32,221 weights), and one of the 10^5-weight laws
    log_points = np.array([-30.0, -2.0, -1e-3, 0.0, 1e-9, 0.5, 3.0, 60.0,
                           700.0, 1e6, 1e12, 1e18])
    supports = []
    for size in (2, 7, 60, 2_000, 10_000, 100_000):
        w = rng.random(size) + 0.01
        supports.append(FinitePmf(w / w.sum()).atoms)
        values = np.unique(rng.integers(0, 50 * size, size)).tolist()
        w = rng.random(len(values)) + 0.01
        supports.append(AtomPmf.from_dict(dict(zip(values,
                                                   (w / w.sum()).tolist())))
                        .atoms)
    supports += [OffspringLaw.geometric(p).atoms for p in (0.5, 1e-3)]
    assert dists._LOG_PAIR_ELEMENTS // 10_000 == 6
    for atoms in supports:
        w, k = atoms
        j = int(k[0] == 0.0)
        value, deriv = dists._log_pgf_pair(atoms, log_points)
        for x, got in zip(log_points.tolist(), zip(value, deriv)):
            own = dists._log_pgf_pair(atoms, [x])
            assert got == (own[0][0], own[1][0]), (k.size, x)
            assert got == (
                float(logsumexp(np.log(w) + k * x)),
                float(logsumexp(np.log(w[j:]) + np.log(k[j:])
                                + (k[j:] - 1.0) * x))), (k.size, x)


def test_one_atom_log_pair_is_the_general_pass_bit_for_bit():
    # a deterministic N's log pair is its one term in closed form at every
    # finite log s: exactly what _logsumexp returns for one term, from
    # float64's fine end to overflow; a batch with an inf or NaN point
    # takes the general pass
    log_points = np.concatenate([-np.logspace(3, -12, 60), [-0.0, 0.0],
                                 np.logspace(-12, 18, 120)])
    odd = np.array([0.5, math.inf, -math.inf, math.nan, -2.0])

    def general(atoms, log_s):
        w, k = atoms
        x = np.asarray(log_s)[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            return (dists._logsumexp(np.log(w) + k * x),
                    dists._logsumexp(np.log(w) + np.log(k) + (k - 1.0) * x))
    for count in [*range(2, 65), 1 << 20]:
        atoms = OffspringLaw.deterministic(count).atoms
        assert atoms[0].tolist() == [1.0] and atoms[1].tolist() == [count]
        for points in (log_points, odd):
            with np.errstate(invalid="ignore", divide="ignore"):
                got = dists._log_pgf_pair(atoms, points)
            for have, want in zip(got, general(atoms, points)):
                assert have.tobytes() == want.tobytes(), count
    # counts 0 and 1 and a weight below 1 (a one-atom FinitePmf) too
    for w, count in ((1.0, 1.0), (0.25, 1.0), (0.25, 7.0)):
        atoms = (np.array([w]), np.array([count]))
        got = dists._log_pgf_pair(atoms, log_points)
        for have, want in zip(got, general(atoms, log_points)):
            assert have.tobytes() == want.tobytes(), (w, count)
    value, deriv = dists._log_pgf_pair((np.array([0.5]), np.array([0.0])),
                                       log_points)
    assert (value == math.log(0.5)).all() and (deriv == -math.inf).all()


# -- one-pass evaluator against the per-function code it replaced -----------
# The four functions below are the pre-evaluator pgf_eval, pgf_deriv,
# log_pgf_eval and log_pgf_deriv, kept as oracles (scipy's logsumexp, which
# dists._logsumexp equals bit for bit, stands in for the numpy one).

def old_pgf_eval(p, s):
    idx = p.support
    if idx.size == 0:
        return 0.0
    return float(np.dot(p.probs[idx], np.power(float(s), idx.astype(np.float64))))


def old_pgf_deriv(p, s):
    idx = p.support
    idx = idx[idx >= 1]
    if idx.size == 0:
        return 0.0
    k = idx.astype(np.float64)
    return float(np.dot(p.probs[idx] * k, np.power(float(s), k - 1.0)))


def old_log_pgf_eval(p, s):
    idx = p.support
    if idx.size == 0:
        return -math.inf
    terms = np.log(p.probs[idx]) + idx.astype(np.float64) * math.log(s)
    return float(logsumexp(terms))


def old_log_pgf_deriv(p, s):
    idx = p.support
    idx = idx[idx >= 1]
    if idx.size == 0:
        return -math.inf
    k = idx.astype(np.float64)
    terms = np.log(p.probs[idx]) + np.log(k) + (k - 1.0) * math.log(s)
    return float(logsumexp(terms))


def same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


# (k - 1) log s at the top of the support, around log(DBL_MAX) = 709.78
EDGE_EXPONENTS = (700.0, 709.0, 709.78, 709.79, 710.0, 710.001, 711.0)


def evaluator_cases():
    rng = np.random.default_rng(19)
    laws = [FinitePmf.delta(0), FinitePmf.delta(1), FinitePmf.delta(4),
            FinitePmf(np.zeros(0), 1.0)]
    for size in (2, 3, 150, 1001, 20_000):
        w = rng.random(size) + 0.01
        laws.append(FinitePmf(w / w.sum()))  # dense
        w[rng.random(size) < 0.5] = 0.0
        w[-1] = 0.2
        w[0] = 0.1
        laws.append(FinitePmf(w / w.sum()))  # sparse with mass at 0
        w[0] = 0.0
        laws.append(FinitePmf(w / w.sum()))  # sparse without mass at 0
    laws += [rand_pmf(rng, max_val=40, max_pts=12) for _ in range(20)]
    for p in laws:
        points = [0.3, 0.999, 1.0, 1.5, 2.0, 25.0]
        if p.support_max >= 3:
            points += [math.exp(t / (p.support_max - 1)) for t in EDGE_EXPONENTS]
        for s in points:
            yield p, s


def test_pgf_pairs_equal_the_old_functions_bit_for_bit():
    for p, s in evaluator_cases():
        with np.errstate(over="ignore"):
            f, fp = p.pgf_pair(s)
            old_f, old_fp = old_pgf_eval(p, s), old_pgf_deriv(p, s)
            assert (pgf_eval(p, s), pgf_deriv(p, s)) == (f, fp)
        assert same_bits(f, old_f) and same_bits(fp, old_fp), (p.support_max, s)
        log_f, log_fp = p.log_pgf_pair(s)
        assert same_bits(log_f, old_log_pgf_eval(p, s)), (p.support_max, s)
        assert same_bits(log_fp, old_log_pgf_deriv(p, s)), (p.support_max, s)
        assert (log_pgf_eval(p, s), log_pgf_deriv(p, s)) == (log_f, log_fp)


def test_pgf_pair_skips_a_certain_overflow(monkeypatch):
    w = np.full(1001, 1.0 / 1001)
    p = FinitePmf(w)
    evaluated = []
    powers = dists._powers

    def counted(*args):
        evaluated.append(args[0])
        return powers(*args)

    monkeypatch.setattr(dists, "_powers", counted)
    # past 710 the array core evaluates nothing; short of it the sums
    # overflow, to a quiet inf even where an overflow raises, and below
    # _LOG_QUIET nothing overflows
    with np.errstate(over="raise"):
        assert dists._pgf_pair(dists._support(w), math.exp(710.001 / 999)) \
            == (math.inf, math.inf)
        assert evaluated == []
        assert dists._pgf_pair(dists._support(w), math.exp(709.9 / 999)) \
            == (math.inf, math.inf)
        assert len(evaluated) == 1
        f, fp = dists._pgf_pair(dists._support(w), math.exp(659.9 / 1000))
        assert math.isfinite(f) and math.isfinite(fp)
        # the law's pair is the core's, as floats
        assert p.pgf_pair(math.exp(709.9 / 999)) == (math.inf, math.inf)
        assert p.pgf_pair(math.exp(710.001 / 999)) == (math.inf, math.inf)
        assert pgf_eval(p, math.exp(711.0 / 999)) == math.inf
    # a law on {0} at a tiny argument is evaluated, not skipped
    assert FinitePmf.delta(0).pgf_pair(1e-308) == (1.0, 0.0)
    with pytest.raises(ValueError):
        p.pgf_pair(0.0)
    with pytest.raises(ValueError):
        p.log_pgf_pair(-1.0)


# -- the exact geometric initial law ----------------------------------------

GEOMETRIC_R = (0.3, 0.55, 0.74, 0.76, 0.9)


def geometric_series(r: float, s: float):
    """(sum_k r q^k s^k, sum_k k r q^k s^(k-1)) with q = 1.0 - r as the
    float code has it, summed in mpmath to 40 digits."""
    mpmath.mp.dps = 40
    r_, q, s_ = mpmath.mpf(r), mpmath.mpf(1.0 - r), mpmath.mpf(s)
    f = mpmath.nsum(lambda k: r_ * (q * s_) ** k, [0, mpmath.inf])
    fp = mpmath.nsum(lambda k: k * r_ * q ** k * s_ ** (k - 1),
                     [1, mpmath.inf])
    return f, fp


@pytest.mark.parametrize("r", GEOMETRIC_R)
def test_geometric_pmf_pairs_equal_the_mpmath_series(r):
    law = GeometricPmf(r)
    radius = 1.0 / (1.0 - r)
    for s in (0.25, 1.0, 0.5 * radius, 0.9 * radius, 0.99 * radius):
        f, fp = geometric_series(r, s)
        got_f, got_fp = law.pgf_pair(s)
        assert got_f == pytest.approx(float(f), rel=1e-13)
        assert got_fp == pytest.approx(float(fp), rel=1e-13)
        log_f, log_fp = law.log_pgf_pair(s)
        assert log_f == pytest.approx(float(mpmath.log(f)), abs=1e-13)
        assert log_fp == pytest.approx(float(mpmath.log(fp)), abs=1e-13)


@pytest.mark.parametrize("r", GEOMETRIC_R)
def test_geometric_pmf_pairs_are_inf_from_the_radius_on(r):
    law = GeometricPmf(r)
    q = 1.0 - r
    edge = 1.0 / q
    while q * edge < 1.0:  # the first float argument with q s >= 1
        edge = math.nextafter(edge, math.inf)
    below = math.nextafter(edge, 0.0)
    assert math.isfinite(law.pgf_pair(below)[0])
    assert not law.diverges(below)
    for s in (edge, 1.5 * edge, 1e300):
        assert law.diverges(s)
        assert law.pgf_pair(s) == (math.inf, math.inf)
        assert law.log_pgf_pair(s) == (math.inf, math.inf)
    with pytest.raises(ValueError):
        law.pgf_pair(0.0)
    with pytest.raises(ValueError):
        law.log_pgf_pair(-1.0)


def test_finite_and_two_point_laws_never_diverge():
    for law in (FinitePmf.from_dict({0: 0.5, 40: 0.5}), two_point(5000, 0.5)):
        for s in (0.5, 2.0, 1e300):
            assert not law.diverges(s)


def test_geometric_pmf_validation():
    for r in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ValueError):
            GeometricPmf(r)
    law = OffspringLaw.deterministic(2)
    assert ModelSpec(1, GeometricPmf(0.5), law).x0 == GeometricPmf(0.5)
    with pytest.raises(ValueError):
        ModelSpec(0, GeometricPmf(0.5), law)


# -- the two-point law of a scan family -------------------------------------

# the N laws of the benchmark's scan sweep
SWEEP_LAWS = (OffspringLaw.deterministic(2), OffspringLaw.deterministic(3),
              OffspringLaw.finite_support({1: 0.5, 3: 0.5}),
              OffspringLaw.finite_support({1: 0.5, 2: 0.5}),
              OffspringLaw.geometric(0.5))


def sweep_test_points():
    """The (s, m) of both tests for a in 1..3 over the sweep's N laws."""
    points = set()
    for a in (1, 2, 3):
        for law in SWEEP_LAWS:
            family = types.SimpleNamespace(a=a, offspring=law)
            points.add(criteria.super_point(family))
            if law.bound is not None:
                points.add(criteria.sub_point(family))
    return sorted(points)


def two_point_edge_points(h):
    """Arguments around the overflow of s^h: s^h overflows while
    (h-1) log s <= 710 (so the pair is evaluated), s^(h-1) overflows too,
    and (h-1) log s > 710, where overflow is certain and nothing is
    evaluated."""
    logs = [709.9 / h, 709.79 / h]
    if h > 1:
        logs += [709.9 / (h - 1), 710.0 / (h - 1), 710.5 / (h - 1)]
    return [math.exp(t) for t in logs if t < 709.78]


@pytest.mark.parametrize("h", range(1, 13))
def test_two_point_law_equals_its_finite_pmf_bit_for_bit(h):
    rng = np.random.default_rng([15, h])
    points = sweep_test_points()
    args = ([s for s, _ in points] + two_point_edge_points(h)
            + rng.uniform(0.05, 4.0, 10).tolist())
    ps = rng.random(40).tolist() + [1e-6, 0.2, 0.5, 1.0 - 1e-6]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in ps:
            law = two_point(h, p)
            ref = FinitePmf.from_dict({0: 1.0 - p, h: p})
            for s in args:
                with np.errstate(over="ignore"):
                    want = ref.pgf_pair(s)
                assert repr(law.pgf_pair(s)) == repr(want), (p, s)
                assert repr(law.log_pgf_pair(s)) \
                    == repr(ref.log_pgf_pair(s)), (p, s)
            for a in (1, 2, 3):
                for s, m in points + [(s, 2.0) for s in
                                      two_point_edge_points(h)]:
                    assert repr(criteria.d0(law, a, s, m)) \
                        == repr(criteria.d0(ref, a, s, m)), (p, a, s, m)


def test_two_point_law_is_cut_once_as_its_finite_pmf():
    law = two_point(3, 0.25)
    cut = law.cut
    assert cut is law.cut is law.cut
    assert cut.probs.tolist() == [0.75, 0.0, 0.0, 0.25]
    x0 = ModelSpec(1, law, SWEEP_LAWS[0]).x0
    assert x0 is law
    assert (x0.atoms[0].tolist(), x0.atoms[1].tolist()) == ([0.75, 0.25],
                                                            [0.0, 3.0])
    with pytest.raises(ValueError):
        law.pgf_pair(0.0)


@pytest.mark.parametrize("high, p", [
    (1, 0.0), (1, 1.0), (2, -0.25), (2, 1.5), (2, math.nan),
    (0, 0.5), (-3, 0.5), (2.0, 0.5)])
def test_two_point_law_validation(high, p):
    with pytest.raises(ValueError):
        two_point(high, p)


# -- the atom law ------------------------------------------------------------

def random_weight_dicts(rng):
    """Dense (values 0..K-1) and sparse value -> probability dicts, K up to
    1e5, sparse ones with and without the value 0."""
    for size in (1, 2, 3, 7, 8, 9, 100, 1001, 20_000, 100_000):
        w = rng.random(size) + 0.01
        w /= w.sum()
        yield dict(zip(range(size), w.tolist()))
        for with_zero in (True, False):
            values = np.sort(rng.choice(10 * size + 10, size, replace=False))
            if with_zero:
                values[0] = 0
            else:
                values += 1
            yield dict(zip(values.tolist(), w.tolist()))


def test_atom_law_equals_its_finite_pmf_bit_for_bit():
    rng = np.random.default_rng(22)
    for d in random_weight_dicts(rng):
        law, ref = AtomPmf.from_dict(d), FinitePmf.from_dict(d)
        w, k = dists._support(ref.probs)
        aw, ak = law.atoms
        assert (aw.tobytes(), ak.tobytes()) == (w.tobytes(), k.tobytes()), \
            len(d)
        # the derivative's weights w[j:] k[j:], j = 1 with mass at 0, are
        # derived per call; so are the powers s^(k - 1) for k >= 1, which
        # values 0..K-1 read off s^k: both are np.power on the same exponents
        j = int(0 in d)
        for s in (0.999, 1.5):
            with np.errstate(over="ignore"):
                s_k, shifted = dists._powers(s, ak)
                power = np.power(s, k[j:] - 1.0)
                want = (float(np.dot(w, s_k)),
                        float(np.dot(w[j:] * k[j:], power)))
            assert shifted.tobytes() == power.tobytes(), (len(d), s)
            assert law.pgf_pair(s) == want, (len(d), s)
        # the mean is the dot over the atoms; numpy groups a dense dot of
        # 16 or more entries otherwise, so the two can differ in the last bit
        assert repr(law.mean) == repr(float(np.dot(w, k)))
        assert abs(law.mean - ref.mean) \
            <= ref.probs.size * 2.0 ** -53 * ref.mean
        top = ref.support_max
        points = [0.3, 0.999, 1.0, 1.5, 2.0, 25.0]
        if top >= 3:
            points += [math.exp(t / (top - 1)) for t in EDGE_EXPONENTS]
        for s in points:
            assert law.diverges(s) is ref.diverges(s) is False
            assert repr(law.pgf_pair(s)) == repr(ref.pgf_pair(s)), (len(d), s)
            assert repr(law.log_pgf_pair(s)) \
                == repr(ref.log_pgf_pair(s)), (len(d), s)
        assert law.cut.probs.tobytes() == ref.probs.tobytes()
        assert law.cut is law.cut


@pytest.mark.parametrize("weights", [
    {-1: 1.0}, {1.5: 1.0}, {0: math.nan, 1: 1.0}, {0: math.inf},
    {0: -0.5, 1: 1.5}, {0: 0.5, 2: 0.4}, {0: 0.5, 2: 0.5, 5: 1e-11}, {}],
    ids=["negative value", "float value", "nan", "inf", "negative weight",
         "mass short", "mass over", "empty"])
def test_atom_law_is_checked_as_its_finite_pmf(weights):
    with pytest.raises(ValueError) as dense:
        FinitePmf.from_dict(weights)
    with pytest.raises(ValueError) as atoms:
        AtomPmf.from_dict(weights)
    assert str(atoms.value) == str(dense.value)


def test_atom_law_checks_its_mass_once():
    # the mass is checked on the atoms; the cut does not check it again
    with pytest.raises(ValueError, match="^total mass 0.999999999998999"):
        FinitePmf.from_dict(EDGE_ATOMS)
    law = AtomPmf.from_dict(EDGE_ATOMS)
    x = law.cut
    dense = np.zeros(56)
    dense[list(EDGE_ATOMS)] = list(EDGE_ATOMS.values())
    assert x.probs.tobytes() == dense.tobytes() and x.leaked_mass == 0.0
    assert not x.probs.flags.writeable
    w, k = law.atoms
    assert repr(law.mean) == repr(float(np.dot(w, k)))
    dense_mean = float(np.dot(dense, np.arange(56.0)))
    assert abs(law.mean - dense_mean) <= 56 * 2.0 ** -53 * dense_mean


def test_only_shared_values_have_their_powers_cached():
    # laws of three or more positive weights compute their powers, whatever
    # their kind; those of at most two values (a two-point family's
    # members, a two-atom x0, N = 2) are cached by (s, values)
    dists._cached_powers.cache_clear()
    for s in (0.5, 1.5, 2.5):
        AtomPmf.from_dict({0: 0.5, 3: 0.25, 4: 0.25}).pgf_pair(s)
        FinitePmf.from_dict({0: 0.5, 3: 0.25, 4: 0.25}).pgf_pair(s)
        OffspringLaw.finite_support({1: 0.5, 2: 0.25, 3: 0.25}).pgf_pair(s)
    assert dists._cached_powers.cache_info().currsize == 0
    for p in (0.25, 0.5):
        two_point(3, p).pgf_pair(1.5)
    assert dists._cached_powers.cache_info()[:2] == (1, 1)
    # the from_dict law on the same values shares the members' entry
    AtomPmf.from_dict({0: 0.5, 3: 0.5}).pgf_pair(1.5)
    assert dists._cached_powers.cache_info()[:2] == (2, 1)
    for law in (OffspringLaw.deterministic(2),
                OffspringLaw.finite_support({1: 0.5, 2: 0.5})):
        law.pgf_pair(1.5)
    assert dists._cached_powers.cache_info()[:2] == (2, 3)


def test_atom_law_builds_no_array_over_its_values():
    law = AtomPmf.from_dict({0: 0.999, 10**12: 0.001, 3 * 10**12: 0.0})
    assert law.support.tolist() == [0.0, 1e12]
    arrays = law.atoms
    assert len(arrays) == 2
    assert all(a.nbytes <= 16 for a in arrays)
    assert all(not a.flags.writeable for a in arrays)
    assert law.pgf_pair(2.0) == (math.inf, math.inf)
    log_f, log_fp = law.log_pgf_pair(2.0)
    assert log_f == pytest.approx(math.log(0.001) + 1e12 * math.log(2.0))
    with pytest.raises(ValueError, match="is not a constant"):
        ModelSpec(1, AtomPmf.from_dict({7: 1.0}), OffspringLaw.deterministic(2))


def test_only_evolve_builds_an_atom_laws_cut():
    # every reader but evolve takes the atoms: the criteria, the lemma
    # audits' orbit and mean, and the x0 draws
    x0 = AtomPmf.from_dict({0: 0.5, 3: 0.25, 1000: 0.25})
    model = ModelSpec(1, x0, OffspringLaw.deterministic(2))
    assert classify(model).verdict == "Supercritical"
    criteria.lemma1_growth_check(model, [1.5], 4)
    with pytest.raises(ValueError, match="requires a Subcritical verdict"):
        criteria.lemma2_tail_check(model, 4)
    criteria.lemma3_contraction_check(model, [2.0], 4)
    criteria.lemma4_association_check_log(x0, 1.5)
    montecarlo.init_population(model, 1000, 1)
    montecarlo.tree_sample(model, 3, 1)
    montecarlo.pool_means(model, 100, 3, 1)
    assert "cut" not in x0.__dict__
    evolution.evolve(model, 1)
    assert "cut" in x0.__dict__


def test_offspring_log_pgf_pair_takes_log_v_by_keyword_only():
    law = OffspringLaw.deterministic(2)
    assert law.log_pgf_pair(log_v=0.5) == (1.0, math.log(2.0) + 0.5)
    with pytest.raises(TypeError):
        law.log_pgf_pair(0.5)


def _geometric_x0_reference(r):
    """The weights of geometric_x0_pmf(r) from a standalone copy of its
    formula: the cutoff search, np.power and the 1e-3 r re-pin."""
    q = 1.0 - r
    cutoff = max(1, math.ceil(math.log(GEOMETRIC_TAIL) / math.log(q)) - 1)
    while q ** (cutoff + 1) >= GEOMETRIC_TAIL:
        cutoff += 1
    w = r * np.power(q, np.arange(cutoff + 1, dtype=np.float64))
    gap = float((1.0 - q ** (cutoff + 1)) - np.sum(w, dtype=np.longdouble))
    if gap != 0.0 and abs(gap) <= 1e-3 * r:
        w[0] += gap
    return w


@pytest.mark.parametrize("r", [0.9, 0.6, 0.45, 0.2, 0.05, 1e-3, 1e-4])
def test_geometric_x0_cut_is_pinned_bit_for_bit(r):
    assert dists.geometric_x0_pmf(r).probs.tobytes() == \
        _geometric_x0_reference(r).tobytes()


@pytest.mark.parametrize("p, tail, n", [(0.5, 2.0 ** -10, 11),
                                         (0.75, 0.25 ** 7, 8)])
def test_geometric_weights_step_past_a_tail_equal_to_q_to_the_n(p, tail, n):
    # log(tail) / log(q) is n - 1 exactly, so the first guess has q^(n-1)
    # equal to the tail, not below it: the guard adds one weight
    q = 1.0 - p
    assert math.ceil(math.log(tail) / math.log(q)) == n - 1
    assert q ** (n - 1) == tail
    w, leak = dists._geometric_weights(p, tail)
    assert (w.size, leak) == (n, q ** n)
    assert w.tobytes() == (p * np.power(q, np.arange(n, dtype=np.float64))
                           ).tobytes()


def test_geometric_below_float_resolution_is_an_overflow():
    # 1 - 1e-17 rounds to 1: no cutoff ends the tail
    with pytest.raises(OverflowError, match="below float resolution"):
        dists.geometric_x0_pmf(1e-17)
    with pytest.raises(OverflowError, match="below float resolution"):
        OffspringLaw.geometric(1e-17)
    # the closed form needs no cut
    assert GeometricPmf(1e-17).pgf_pair(2.0) == (math.inf, math.inf)


def test_sweep_floor_zeroes_and_totals_the_tiny_weights():
    w = np.array([1e-301, 0.5, 0.0, 3e-301, dists.WEIGHT_FLOOR, 0.5])
    assert dists.sweep_floor(w) == 1e-301 + 3e-301
    assert w.tolist() == [0.0, 0.5, 0.0, 0.0, dists.WEIGHT_FLOOR, 0.5]
    assert dists.sweep_floor(w) == 0.0


# -- convolution is the direct sum at every size ------------------------------

def test_convolve_is_the_direct_sum_above_the_step_budget():
    # sizes whose product passes dists._DIRECT_CONV_OPS, self-convolution
    # included: bit for bit np.convolve, after the WEIGHT_FLOOR sweep and
    # the trailing-zero trim
    rng = np.random.default_rng(20)
    w = rng.random(5000)
    p = FinitePmf(w / w.sum())
    u = FinitePmf(np.ones(4097) / 4097)
    # products of the 1e-160 tail fall below WEIGHT_FLOOR and are swept
    w = rng.random(4200)
    w[-300:] = 1e-160
    w[:-300] *= (1.0 - 300e-160) / w[:-300].sum()
    t = FinitePmf(w)
    for x, y in ((p, p), (u, u), (p, u), (t, t), (t, p)):
        assert x.probs.size * y.probs.size > dists._DIRECT_CONV_OPS
        want = np.convolve(x.probs, y.probs)
        swept = (want > 0.0) & (want < dists.WEIGHT_FLOOR)
        leak = float(want[swept].sum())
        want[swept] = 0.0
        out = convolve(x, y)
        got = out.probs  # trailing zeros trimmed
        assert got.tobytes() == want[:got.size].tobytes()
        assert not want[got.size:].any()
        assert out.leaked_mass == leak
    assert convolve(t, t).leaked_mass > 0.0


def test_cli_import_leaves_scipy_out():
    import subprocess
    import sys
    code = ("import sys, drphase.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# -- validation -------------------------------------------------------------

def test_finite_pmf_rejects_bad_mass():
    with pytest.raises(ValueError, match="band"):
        FinitePmf.from_dict({0: 0.5, 1: 0.6})
    with pytest.raises(ValueError):
        FinitePmf.from_dict({0: -0.1, 1: 1.1})
    with pytest.raises(ValueError):
        FinitePmf.from_dict({-1: 0.5, 1: 0.5})
    # one sum checks finiteness: a sum that overflows reads as not finite
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="^weights must be finite$"):
        FinitePmf(np.array([1e308, 1e308]))
    with pytest.raises(ValueError, match="^weights must be nonnegative$"):
        FinitePmf(np.array([-0.5, 1.5]))
    with pytest.raises(ValueError, match="^weights must form a "
                                         "one-dimensional array$"):
        FinitePmf(np.full((2, 2), 0.25))


def test_empty_law_convolves_and_truncates_to_the_empty_law():
    empty = FinitePmf(np.zeros(0), 1.0)
    p = FinitePmf.from_dict({0: 0.5, 2: 0.5})
    for q in (convolve(empty, p), convolve(p, empty)):
        assert q.probs.size == 0 and q.leaked_mass == 1.0
    assert truncate(empty, 0.1) is empty
    for eps in (-0.1, 1.0, math.nan):
        with pytest.raises(ValueError, match="^tail_eps must lie in"):
            truncate(p, eps)


def test_finite_pmf_drops_explicit_zeros():
    p = FinitePmf.from_dict({0: 0.5, 3: 0.0, 5: 0.5})
    assert sorted(p.as_dict()) == [0, 5]
    assert p.support_max == 5


def _flatnonzero_trim(probs):
    """The full-scan trailing-zero trim, kept as the reference."""
    nz = np.flatnonzero(probs)
    return probs[: nz[-1] + 1] if nz.size else probs[:0]


@pytest.mark.parametrize("probs, leak", [
    ([0.25, 0.0, 0.75, 0.0, 0.0], 0.0),           # trailing zeros
    ([0.5] + [0.0] * 300 + [0.5] + [0.0] * 5000, 0.0),  # zeros past a block
    ([0.0, 0.0, 0.0], 1.0),                       # all zeros
    ([], 1.0),                                    # empty
    ([1.0], 0.0),                                 # single entry
    ([0.0], 1.0),                                 # single zero
    ([0.0, 0.5, 0.0, 0.5], 0.0),                  # nonzero last entry
])
def test_finite_pmf_trims_like_full_scan(probs, leak):
    arr = np.asarray(probs, dtype=np.float64)
    p = FinitePmf(arr, leak)
    ref = _flatnonzero_trim(arr)
    assert p.probs.dtype == np.float64
    assert np.array_equal(p.probs, ref)
    assert p.support_max == ref.size - 1
    # the stored weights are a read-only copy, never a view of the input
    assert not np.shares_memory(p.probs, arr)
    assert not p.probs.flags.writeable


def test_finite_pmf_trim_keeps_validation():
    with pytest.raises(ValueError, match="finite"):
        FinitePmf(np.array([0.5, np.nan, 0.5, 0.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        FinitePmf(np.array([0.5, 0.6, -0.1]))
    with pytest.raises(ValueError, match="band"):
        FinitePmf(np.array([0.5, 0.6, 0.0]))


def test_offspring_deterministic_validation():
    with pytest.raises(ValueError, match="must be an integer >= 2"):
        OffspringLaw.deterministic(1)
    law = OffspringLaw.deterministic(3)
    assert law.mean == 3.0
    assert law.bound == 3


def test_offspring_finite_needs_mass_above_one():
    with pytest.raises(ValueError):
        OffspringLaw.finite_support({1: 1.0})
    with pytest.raises(ValueError):
        OffspringLaw.finite_support({0: 0.5, 2: 0.5})
    law = OffspringLaw.finite_support({1: 0.5, 3: 0.5})
    assert law.mean == 2.0
    assert law.bound == 3


@pytest.mark.parametrize("pmf", [
    {2: math.nan}, {1: 0.5, 2: math.nan, 3: 0.5}, {1: 0.5, 2: math.inf},
    {1: -0.5, 2: 1.5}, {1: 0.5, 2: 0.4}, {}])
def test_offspring_finite_weights_are_checked_as_a_pmf(pmf):
    with pytest.raises(ValueError):
        OffspringLaw.finite_support(pmf)


def test_offspring_bound_is_the_essential_supremum():
    # a zero-probability count is not in the support: the bound, the
    # weights and the subcritical test point ignore it
    x0 = FinitePmf.from_dict({0: 0.9, 1: 0.1})
    zero_top = OffspringLaw.finite_support({1: 0.5, 3: 0.5, 5: 0.0})
    plain = OffspringLaw.finite_support({1: 0.5, 3: 0.5})
    assert zero_top.bound == 3
    assert zero_top.weights.tolist() == plain.weights.tolist()
    verdicts = [classify(ModelSpec(a=1, x0=x0, offspring=law))
                for law in (zero_top, plain)]
    assert [v.verdict for v in verdicts] == [SUBCRITICAL, SUBCRITICAL]
    assert verdicts[0].d_sub == verdicts[1].d_sub == pytest.approx(-0.6)
    assert criteria.sub_point(ModelSpec(a=1, x0=x0, offspring=zero_top)) \
        == (3.0, 3.0)
    with pytest.raises(ValueError, match="ending at a positive weight"):
        OffspringLaw([0.0, 0.5, 0.0, 0.5, 0.0])


def _finite_offspring_dicts(count=320, seed=24):
    """Seeded finite N laws on counts 1..15: single counts, and about one
    in five with a zero-weight count above the largest positive one."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        counts = sorted({int(c) for c in rng.integers(1, 13, int(rng.integers(1, 7)))})
        if counts == [1]:
            continue
        w = rng.random(len(counts)) + 0.05
        w /= w.sum()
        pmf = dict(zip(counts, w.tolist()))
        if rng.random() < 0.2:
            pmf[counts[-1] + int(rng.integers(1, 4))] = 0.0
        out.append(pmf)
    return out


def test_offspring_derived_values_are_bit_identical():
    # digest of (mean, bound, leak, kind, weights) over 11 deterministic,
    # 320 finite (48 of one count) and 16 geometric laws, computed when
    # mean, bound and kind were stored: only the single-count finite laws'
    # kind changed, from 'finite' to 'deterministic', as the digest reads
    laws = [OffspringLaw.deterministic(n) for n in range(2, 13)]
    laws += [OffspringLaw.finite_support(pmf)
             for pmf in _finite_offspring_dicts()]
    for p in (0.999, 0.9, 0.5, 0.45, 0.2, 1e-3, 1e-4, 3e-5):
        law = OffspringLaw.geometric(p)
        laws += [law, law.with_cutoff(1e-10)]
    digest = hashlib.sha256()
    for law in laws:
        digest.update(f"{law.mean.hex()}|{law.bound}|"
                      f"{law.truncation_leak.hex()}|{law.kind}|".encode())
        digest.update(law.weights.tobytes())
    assert digest.hexdigest() == ("1bbdef1e8c4d384a789c8e01194d0fa5"
                                  "5ea2df80e7750f4173e498c76e258ca7")
    assert sum(law.kind == "deterministic" for law in laws) == 11 + 48


def test_offspring_law_is_its_weights():
    law = OffspringLaw([0.0, 0.5, 0.5])
    assert (law.mean, law.bound, law.kind) == (1.5, 2, "finite")
    assert law.truncation_leak == 0.0 and law.success_prob is None
    assert OffspringLaw.finite_support({3: 1.0}).kind == "deterministic"
    x0 = FinitePmf.from_dict({0: 0.9, 3: 0.1})
    direct, built = (classify(ModelSpec(1, x0, n)) for n in
                     (law, OffspringLaw.finite_support({1: 0.5, 2: 0.5})))
    assert direct.verdict == built.verdict
    assert [direct.d_super.hex(), direct.d_sub.hex()] == \
        [built.d_super.hex(), built.d_sub.hex()]


@pytest.mark.parametrize("weights, leak, message", [
    ([0.0, math.nan, 1.0], 0.0, "weights must be finite"),
    ([0.0, -0.5, 1.5], 0.0, "nonnegative"),
    ([0.0, 0.5, 0.4], 0.0, "band"),
    ([0.0, 0.5, 0.5], 1.5, "leaked_mass"),
    ([0.5, 0.5], 0.0, "dense pmf"),
    ([[0.0, 1.0]], 0.0, "dense pmf"),
    # the growth checks: each fails where the other passes
    ([0.0, 1.0 + 1e-13], 0.0, "exceed 1 with positive probability"),
    ([0.0, 1.0 - 1e-16, 1e-17], 0.0, "mean must exceed 1"),
])
def test_offspring_law_checks_its_weights(weights, leak, message):
    with pytest.raises(ValueError, match=message):
        OffspringLaw(weights, leak)


@pytest.mark.parametrize("weights, leak, p, message", [
    # a law on {1, 2} that once passed for the success-0.9 geometric law,
    # with that law's mean 1/0.9 and no bound
    ([0.0, 0.5, 0.5], 0.0, 0.9,
     "^success probability 0.9 does not match the geometric weights$"),
    ([0.0, 0.5, 0.5], 0.0, 0.0,
     r"^success probability must lie in \(0, 1\), got 0.0$"),
    ([0.0, 0.5, 0.5], 0.0, math.nan, "must lie in"),
    # the leak is q^2, the second weight is not p q
    ([0.0, 0.6, 0.15], 0.25, 0.5, "does not match"),
])
def test_offspring_success_prob_is_the_p_of_its_weights(weights, leak, p,
                                                        message):
    with pytest.raises(ValueError, match=message):
        OffspringLaw(weights, leak, p)
    # the success-0.5 law cut after two counts
    assert OffspringLaw([0.0, 0.5, 0.25], 0.25, 0.5).mean == 2.0


# the 13 success probabilities from 0.999 down to 3e-5 at which a
# geometric N's cut and its mass re-pin were checked
GEOMETRIC_PS = (0.999, 0.9, 0.6, 0.52, 0.51, 0.5, 0.45, 0.35, 0.3, 0.2,
                0.05, 1e-3, 3e-5)


def test_built_geometric_laws_carry_their_own_success_prob():
    for p in GEOMETRIC_PS:
        law = OffspringLaw.geometric(p)
        for tail in (1e-14, 1e-10, 1e-3):
            cut = law.with_cutoff(tail)
            q = 1.0 - p
            assert cut.truncation_leak == q ** (cut.weights.size - 1), (p, tail)
            assert cut.weights[2] == p * q and cut.mean == 1.0 / p, (p, tail)
    with pytest.raises(ValueError, match=r"^success probability must lie in "
                                         r"\(0, 1\), got 1.5$"):
        OffspringLaw.geometric(1.5)


def test_offspring_geometric_cutoff_contract():
    law = OffspringLaw.geometric(0.5)
    assert law.mean == 2.0
    assert law.bound is None
    assert law.success_prob == 0.5
    assert 0.0 < law.truncation_leak <= GEOMETRIC_TAIL
    coarse = law.with_cutoff(1e-3)
    assert coarse.kind == "geometric"
    assert coarse.weights.size < law.weights.size
    assert GEOMETRIC_TAIL < coarse.truncation_leak <= 1e-3
    # mean stays the exact closed form 1/p at any cutoff
    assert coarse.mean == 2.0
    with pytest.raises(ValueError):
        OffspringLaw.geometric(0.0)
    with pytest.raises(ValueError):
        OffspringLaw.geometric(1.0)
    # a bounded law has no cutoff to move
    bounded = OffspringLaw.finite_support({1: 0.5, 3: 0.5})
    assert bounded.with_cutoff(1e-3) is bounded


def test_offspring_pgf_closed_form_and_truncated_agree():
    law = OffspringLaw.geometric(0.4)
    cut = FinitePmf(law.weights, law.truncation_leak)
    for v in (0.5, 1.0):
        g, gp = law.pgf_pair(v)
        assert cut.pgf_pair(v) == pytest.approx((g, gp), rel=1e-12)
    # above v=1 the dropped tail is amplified by v^k: truncated values are
    # strict lower bounds of the closed form, close but not 1e-12-close
    for v in (1.2, 1.4):
        g = law.pgf_pair(v)[0]
        assert pgf_eval(cut, v) < g
        assert pgf_eval(cut, v) == pytest.approx(g, rel=1e-3)
    # closed form diverges at qv >= 1
    with pytest.raises(ValueError):
        law.pgf_pair(2.0)
    # bounded laws sum their weights
    assert OffspringLaw.finite_support({1: 0.5, 3: 0.5}).pgf_pair(2.0) == \
        (5.0, 6.5)


def test_bounded_offspring_pgf_reads_its_weights(monkeypatch):
    laws = (OffspringLaw.deterministic(3),
            OffspringLaw.finite_support({1: 0.3, 2: 0.2, 5: 0.5}),
            OffspringLaw.finite_support({1: 0.6, 3: 0.4}))
    cuts = [FinitePmf(law.weights) for law in laws]

    def no_pmf(self):
        raise AssertionError("built a FinitePmf")
    monkeypatch.setattr(FinitePmf, "__post_init__", no_pmf)
    for law, cut in zip(laws, cuts):
        for v in (1.0, 1.5, 2.0, 30.0):
            got = law.pgf_pair(v)
            assert all(same_bits(x, y) for x, y in zip(got, cut.pgf_pair(v)))


def test_model_spec_validation():
    x0 = FinitePmf.from_dict({0: 0.5, 2: 0.5})
    law = OffspringLaw.deterministic(2)
    with pytest.raises(ValueError):
        ModelSpec(a=0, x0=x0, offspring=law)
    with pytest.raises(ValueError, match="is not a constant"):
        ModelSpec(a=1, x0=FinitePmf.delta(2), offspring=law)
    # a ValueError naming x0 and the three laws, not an AttributeError
    with pytest.raises(ValueError, match="^x0 must be a FinitePmf, an "
                                         "AtomPmf or a GeometricPmf, "
                                         "got dict$"):
        ModelSpec(a=1, x0={0: 0.5, 2: 0.5}, offspring=law)
    with pytest.raises(ValueError, match="^the initial law must carry no "
                                         "leaked mass$"):
        ModelSpec(a=1, x0=FinitePmf(np.array([0.5, 0.4]), 0.1), offspring=law)
    m = ModelSpec(a=1, x0=x0, offspring=law)
    assert m.a == 1
