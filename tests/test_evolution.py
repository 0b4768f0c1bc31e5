"""Law evolution: pinned one-step oracles, bound formulas, trace invariants."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy import fft as sp_fft

from drphase import dists, evolution
from drphase.criteria import classify
from drphase.dists import (
    MASS_TOL,
    AtomPmf,
    FinitePmf,
    ModelSpec,
    OffspringLaw,
    pgf_deriv,
    pgf_eval,
)
from drphase.logreal import LogReal
from drphase.evolution import (
    EvolutionStopped,
    LeakBudgetExceeded,
    SupportCapExceeded,
    evolve,
    gf_orbit,
    q_bounds,
    step,
)

from conftest import (  # fixture-less helpers
    _draw_offspring, _draw_x0, rand_model_light)


def base_model():
    return ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.5, 2: 0.5}),
                     offspring=OffspringLaw.deterministic(2))


# -- pinned one-step laws ----------------------------------------------------

def test_step_enumeration_deterministic_two():
    out = step(base_model().x0, base_model(), tail_eps=0.0)
    assert out.as_dict() == pytest.approx({0: 0.25, 1: 0.5, 3: 0.25})
    assert out.leaked_mass == 0.0


def test_step_enumeration_uniform_mixture():
    model = ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.5, 2: 0.5}),
                      offspring=OffspringLaw.finite_support({1: 0.5, 2: 0.5}))
    out = step(model.x0, model, tail_eps=0.0)
    assert out.as_dict() == pytest.approx({0: 0.375, 1: 0.5, 3: 0.125})


def test_step_zero_is_absorbing():
    for law in (OffspringLaw.deterministic(2),
                OffspringLaw.finite_support({1: 0.3, 4: 0.7})):
        model = ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.9, 2: 0.1}),
                          offspring=law)
        out = step(FinitePmf.delta(0), model, tail_eps=0.0)
        assert out.as_dict() == {0: 1.0}
    # geometric N materializes at a 1e-14 cutoff: absorbing up to the
    # audited truncation leak, support still {0}
    model = ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.9, 2: 0.1}),
                      offspring=OffspringLaw.geometric(0.5))
    out = step(FinitePmf.delta(0), model, tail_eps=0.0)
    assert out.support.tolist() == [0]
    assert out.mass_at(0) + out.leaked_mass == pytest.approx(1.0, abs=1e-15)
    assert out.leaked_mass < 1e-13


def test_step_mass_conserved_leak_free():
    rng = np.random.default_rng(31)
    for _ in range(10):
        model = rand_model_light(rng)
        x = model.x0
        for _ in range(5):
            x = step(x, model, tail_eps=0.0)
            assert abs(x.total_mass + x.leaked_mass - 1.0) <= 1e-12


# -- single-transform compound step -------------------------------------------

def _smooth_pmf(size, leak=0.0):
    """A unimodal law with a geometric tail over 0..size-1."""
    v = np.arange(size, dtype=np.float64)
    w = np.exp(-((v - 0.4 * size) / (0.15 * size)) ** 2) \
        + 0.3 * np.exp(-v / (0.1 * size))
    return FinitePmf(w * ((1.0 - leak) / w.sum()), leak)


def _spy(monkeypatch):
    """Record the sizes of every convolution step() asks for and count its
    spectral calls."""
    seen = {"convolve": [], "spectral": 0}
    convolve, spectral = dists.convolve, evolution._spectral_powers

    def spy_convolve(p, q):
        seen["convolve"].append(p.probs.size * q.probs.size)
        return convolve(p, q)

    def spy_spectral(*args):
        seen["spectral"] += 1
        return spectral(*args)
    monkeypatch.setattr(dists, "convolve", spy_convolve)
    monkeypatch.setattr(evolution, "_spectral_powers", spy_spectral)
    return seen


def _power_loop_step(x, model, budget=None):
    """The per-power convolution loop of step() with tail_eps=0, kept as
    the bit-for-bit reference of the direct regime.  Given a budget, the
    step on one zeroed accumulator over the full support: from the first
    power over the budget on, the mixture's rest comes from
    _reference_spectral_powers and is added in like a direct power, so
    this is the bit-for-bit reference of the FFT regime too."""
    law = model.offspring
    w, a = law.weights, model.a
    kmax = int(np.flatnonzero(w)[-1])
    acc = np.zeros(max(1, kmax * (x.probs.size - 1) + 1 - a))
    leak = law.truncation_leak
    terms = []
    pw = x
    for k in range(1, kmax + 1):
        if k > 1:
            if budget is not None and pw.probs.size * x.probs.size > budget:
                mix, mix_leak = _reference_spectral_powers(
                    pw, x, w[k:kmax + 1], np.fft)
                leak += mix_leak
                terms.append((1.0, mix))
                break
            pw = dists.convolve(pw, x)
        wk = float(w[k])
        if wk == 0.0:
            continue
        leak += wk * pw.leaked_mass
        terms.append((wk, pw.probs))
    for wk, pp in terms:
        acc[0] += wk * float(pp[: a + 1].sum())
        tail = pp[a + 1:]
        acc[1: 1 + tail.size] += wk * tail
    tiny = (acc > 0.0) & (acc < dists.WEIGHT_FLOOR)
    leak += float(acc[tiny].sum())
    acc[tiny] = 0.0
    idx = int(np.argmax(acc))
    others = float(np.sum(acc[:idx], dtype=np.longdouble)
                   + np.sum(acc[idx + 1:], dtype=np.longdouble))
    pinned = (1.0 - leak) - others
    if pinned > 0.0 and abs(pinned - acc[idx]) <= 1e-9:
        acc[idx] = pinned
    return FinitePmf(acc, leak)


def _floor_trimmed_law(head_size, tail_size):
    """A smooth head and a flat tail of 1e-299 weights: a power's top
    entries fall under WEIGHT_FLOOR and are trimmed."""
    head = _smooth_pmf(head_size).probs * (1.0 - tail_size * 1e-299)
    return FinitePmf(np.concatenate([head, np.full(tail_size, 1e-299)]))


_FFT_CASES = [
    # the spectrum starts at the second power (base x) ...
    (OffspringLaw.deterministic(2), 4200, 0.0, None),
    (OffspringLaw.deterministic(2), 4200, 1e-10, None),
    (OffspringLaw.deterministic(3), 4200, 0.0, None),
    # ... or after some direct powers (base x^(k-1))
    (OffspringLaw.deterministic(3), 3000, 0.0, None),
    (OffspringLaw.deterministic(4), 2400, 0.0, None),
    (OffspringLaw.finite_support({1: 0.3, 4: 0.7}), 2400, 0.0, None),
    (OffspringLaw.finite_support({1: 0.3, 4: 0.7}), 2400, 1e-10, None),
    # a small budget puts 45 geometric weights and the cutoff leak into
    # one spectrum at small cost
    (OffspringLaw.geometric(0.5), 200, 1e-10, 1 << 16),
]


@pytest.mark.parametrize("law, size, leak, budget", _FFT_CASES)
def test_step_fft_regime_matches_direct_reference(monkeypatch, law, size,
                                                  leak, budget):
    model = ModelSpec(a=2, x0=FinitePmf.from_dict({0: 0.5, 3: 0.5}),
                      offspring=law)
    x = _smooth_pmf(size, leak)
    with monkeypatch.context() as m:
        m.setattr(dists, "_DIRECT_CONV_OPS", 1 << 62)
        ref = step(x, model, tail_eps=0.0)
    if budget is not None:
        monkeypatch.setattr(dists, "_DIRECT_CONV_OPS", budget)
    seen = _spy(monkeypatch)
    out = step(x, model, tail_eps=0.0)
    # one spectrum for the powers over budget, and no convolution over it,
    # which would be a slow direct one
    assert seen["spectral"] == 1
    assert all(ops <= dists._DIRECT_CONV_OPS for ops in seen["convolve"])
    assert out.mean == pytest.approx(ref.mean, rel=1e-12)
    assert abs(out.total_mass + out.leaked_mass - 1.0) <= MASS_TOL
    # closed form: cutoff leak + sum_k w_k (1 - (1 - l)^k), in exact
    # rational arithmetic
    keep = 1 - Fraction(leak)
    closed = Fraction(law.truncation_leak) + sum(
        Fraction(float(wk)) * (1 - keep ** k) for k, wk in enumerate(law.weights))
    assert out.leaked_mass == pytest.approx(float(closed), rel=1e-12,
                                            abs=1e-300)
    assert out.leaked_mass == pytest.approx(ref.leaked_mass, rel=1e-12,
                                            abs=1e-300)


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("law, size, leak, budget", _FFT_CASES)
def test_step_fft_regime_is_the_accumulator_step_bit_for_bit(
        monkeypatch, a, law, size, leak, budget):
    # step() builds the generation in the transform's own output; the
    # reference adds it into a zeroed accumulator, as it does each power
    model = ModelSpec(a=a, x0=FinitePmf.from_dict({0: 0.5, 3: 0.5}),
                      offspring=law)
    x = _smooth_pmf(size, leak)
    if budget is not None:
        monkeypatch.setattr(dists, "_DIRECT_CONV_OPS", budget)
    ref = _power_loop_step(x, model, dists._DIRECT_CONV_OPS)
    seen = _spy(monkeypatch)
    out = step(x, model, tail_eps=0.0)
    assert seen["spectral"] == 1
    assert out.probs.tobytes() == ref.probs.tobytes()
    assert out.leaked_mass == ref.leaked_mass


_TRIMMED_BASE_LAWS = [
    OffspringLaw.deterministic(3),
    OffspringLaw.finite_support({1: 0.5, 3: 0.5}),
    OffspringLaw.finite_support({1: 0.25, 2: 0.25, 4: 0.5}),
]


@pytest.mark.parametrize("head, tail, law, a, budget", [
    *((2000, 2000, law, a, None) for law in _TRIMMED_BASE_LAWS
      for a in (1, 2, 3)),
    # short arrays, which numpy sums in one buffered block: a step whose
    # array stops where the transform ends re-pins to another float here
    (172, 47, _TRIMMED_BASE_LAWS[1], 2, 1 << 16),
    (185, 44, _TRIMMED_BASE_LAWS[2], 1, 1 << 16),
])
def test_step_on_a_floor_trimmed_transform_base_is_the_accumulator_step(
        monkeypatch, head, tail, law, a, budget):
    # x^2 is direct but ends short under WEIGHT_FLOOR, so the transform
    # that takes over from it is shorter than the step's full length: the
    # generation's array keeps that length, zero-padded, for the re-pin's
    # long-double sums group by length
    model = ModelSpec(a=a, x0=FinitePmf.from_dict({0: 0.5, 3: 0.5}),
                      offspring=law)
    x = _floor_trimmed_law(head, tail)
    if budget is not None:
        monkeypatch.setattr(dists, "_DIRECT_CONV_OPS", budget)
    bases = []
    spectral = evolution._spectral_powers

    def spy_spectral(base, x, v):
        bases.append(base.probs.size)
        return spectral(base, x, v)
    monkeypatch.setattr(evolution, "_spectral_powers", spy_spectral)
    ref = _power_loop_step(x, model, dists._DIRECT_CONV_OPS)
    out = step(x, model, tail_eps=0.0)
    assert len(bases) == 1 and x.probs.size < bases[0] < 2 * x.probs.size - 1
    assert out.probs.tobytes() == ref.probs.tobytes()
    assert out.leaked_mass == ref.leaked_mass


@pytest.mark.parametrize("law, size", [
    (OffspringLaw.deterministic(2), 4096),
    (OffspringLaw.deterministic(4), 2365),
    (OffspringLaw.finite_support({1: 0.3, 4: 0.7}), 2365),
])
def test_step_at_threshold_is_the_power_loop(monkeypatch, law, size):
    # the largest inputs whose last power is still direct: bit for bit the
    # per-power loop; one entry more and the spectral path takes over
    model = ModelSpec(a=2, x0=FinitePmf.from_dict({0: 0.5, 3: 0.5}),
                      offspring=law)
    x = _smooth_pmf(size, 1e-10)
    ref = _power_loop_step(x, model)
    seen = _spy(monkeypatch)
    out = step(x, model, tail_eps=0.0)
    assert seen["spectral"] == 0
    assert out.probs.tobytes() == ref.probs.tobytes()
    assert out.leaked_mass == ref.leaked_mass
    step(_smooth_pmf(size + 1), model, tail_eps=0.0)
    assert seen["spectral"] == 1


def test_step_stays_direct_when_the_floor_trims_powers(monkeypatch):
    # x^(kmax-1) would be over budget at full length, but its top entries
    # fall under WEIGHT_FLOOR and are trimmed, so every convolution the loop
    # makes is direct: the step must still be the loop, bit for bit
    model = ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.5, 3: 0.5}),
                      offspring=OffspringLaw.finite_support({1: 0.75, 3: 0.25}))
    x = _floor_trimmed_law(1500, 1534)
    assert ((3 - 1) * (x.probs.size - 1) + 1) * x.probs.size \
        > dists._DIRECT_CONV_OPS
    ref = _power_loop_step(x, model)
    seen = _spy(monkeypatch)
    out = step(x, model, tail_eps=0.0)
    assert seen["spectral"] == 0
    assert out.probs.tobytes() == ref.probs.tobytes()
    assert out.leaked_mass == ref.leaked_mass


# -- numpy.fft against scipy.fft, the test-only oracle -------------------------

def test_smooth_len_is_scipy_next_fast_len():
    rng = np.random.default_rng(17)
    sizes = list(range(1, 5001)) + rng.integers(1, 5_000_001, 2000).tolist()
    for n in sizes:
        assert evolution._smooth_len(n) == sp_fft.next_fast_len(n, real=True), n


def _reference_spectral_powers(base, x, v, fft):
    """_spectral_powers on the transforms of `fft` (numpy.fft or
    scipy.fft), its spectrum started from zeros and accumulated with +=:
    with scipy.fft the bit-for-bit oracle of the numpy one."""
    size = base.probs.size + v.size * (x.probs.size - 1)
    nfft = sp_fft.next_fast_len(size, real=True)
    phi = fft.rfft(x.probs, nfft)
    spec = np.zeros_like(phi)
    for vi in v[::-1]:
        spec += vi
        spec *= phi
    spec *= phi if base is x else fft.rfft(base.probs, nfft)
    mix = fft.irfft(spec, nfft)[:size]
    np.clip(mix, 0.0, None, out=mix)
    i = np.arange(1, v.size + 1, dtype=np.float64)
    kept = np.log1p(-base.leaked_mass) + i * np.log1p(-x.leaked_mass)
    return mix, float(np.dot(v, -np.expm1(kept)))


def _random_law(rng, size):
    """Weights spread over 300 decades, some exact zeros, maybe a leak."""
    w = rng.random(size) * np.exp(-rng.random(size) * 690.0)
    w[rng.random(size) < 0.1] = 0.0
    w[-1] = 1.0
    leak = float(rng.choice([0.0, 1e-12, 1e-6]))
    return FinitePmf(w * ((1.0 - leak) / w.sum()), leak)


def _random_weights(rng, kmax):
    """kmax mixture weights; about one in three is an exact zero."""
    v = rng.random(kmax)
    v[rng.random(kmax) < 0.35] = 0.0
    v[rng.integers(kmax)] += 0.5
    return v / v.sum()


def test_spectral_powers_equals_scipy_fft_bit_for_bit():
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(24):
        x = _random_law(rng, int(rng.integers(2, 60_000)))
        base = x if rng.random() < 0.5 \
            else _random_law(rng, int(rng.integers(2, 60_000)))
        cases.append((base, x, _random_weights(rng, int(rng.integers(2, 5)))))
    # the README model's law at n = 22 has about 700k entries
    big = _random_law(rng, 700_000)
    cases.append((big, big, np.array([1.0])))
    cases.append((big, big, np.array([0.0, 0.25, 0.75])))
    cases.append((_random_law(rng, 350_000), big, np.array([0.6, 0.0, 0.4])))
    for base, x, v in cases:
        mix, leak = evolution._spectral_powers(base, x, v)
        want, want_leak = _reference_spectral_powers(base, x, v, sp_fft)
        assert mix.tobytes() == want.tobytes()
        assert leak == want_leak


# -- generating-function route ------------------------------------------------

# One step of gf_orbit: row 1 holds (F_1(s), F_1'(s), log G(F_1(s))).

def test_gf_step_eval_pinned():
    model = base_model()
    f, _, _ = gf_orbit(model.x0, model.offspring, model.a, [2.0], 1)[0][1]
    assert f.to_float() == pytest.approx(3.25, abs=1e-14)


def test_gf_step_deriv_pinned():
    model = base_model()
    _, fp, _ = gf_orbit(model.x0, model.offspring, model.a, [2.0], 1)[0][1]
    assert fp.to_float() == pytest.approx(3.5, abs=1e-14)


def test_gf_step_absorbing_input():
    model = base_model()
    delta = FinitePmf.delta(0)
    for s in (1.1, 2.0, 5.0):
        f, fp, _ = gf_orbit(delta, model.offspring, model.a, [s], 1)[0][1]
        assert f.to_float() == pytest.approx(1.0, abs=1e-14)
        assert fp.to_float() == pytest.approx(0.0, abs=1e-14)


def test_gf_step_matches_step_pgf():
    rng = np.random.default_rng(32)
    for _ in range(10):
        model = rand_model_light(rng)
        out = step(model.x0, model, tail_eps=0.0)
        for s in (1.1, 1.5, 2.0, 3.0):
            f, fp, _ = gf_orbit(model.x0, model.offspring, model.a, [s],
                                1)[0][1]
            assert f.to_float() == pytest.approx(pgf_eval(out, s), rel=1e-10)
            assert fp.to_float() == pytest.approx(pgf_deriv(out, s), rel=1e-10)


def test_gf_step_finite_difference_consistency():
    model = base_model()
    law, a = model.offspring, model.a
    h = 1e-6
    for s in (1.5, 2.0, 2.5):
        hi = gf_orbit(model.x0, law, a, [s + h], 1)[0][1][0].to_float()
        lo = gf_orbit(model.x0, law, a, [s - h], 1)[0][1][0].to_float()
        _, fp, _ = gf_orbit(model.x0, law, a, [s], 1)[0][1]
        assert fp.to_float() == pytest.approx((hi - lo) / (2.0 * h), rel=1e-5)


def _cut_geometric_reference(p, tail=1e-14):
    """Weights and cut mass of a success-p geometric law as the explicit
    cutoff step built them before laws were cut at construction."""
    q = 1.0 - p
    cutoff = max(2, math.ceil(math.log(tail) / math.log(q)))
    while q ** cutoff >= tail:
        cutoff += 1
    w = np.zeros(cutoff + 1)
    w[1:] = p * np.power(q, np.arange(cutoff, dtype=np.float64))
    return w, float(q ** cutoff)


@pytest.mark.parametrize("p", [0.05, 0.3, 0.45, 0.5, 0.52, 0.9, 0.999])
def test_geometric_law_is_cut_at_construction(p):
    law = OffspringLaw.geometric(p)
    w, leak = _cut_geometric_reference(p)
    assert law.weights.tobytes() == w.tobytes()
    assert law.truncation_leak.hex() == leak.hex()
    w, leak = _cut_geometric_reference(p, 1e-10)
    assert law.with_cutoff(1e-10).weights.tobytes() == w.tobytes()
    # the step and one step of the generating-function orbit read the
    # same weights
    model = ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.5, 2: 0.5}),
                      offspring=law)
    stepped = step(model.x0, model, tail_eps=0.0)
    f, _, _ = gf_orbit(model.x0, law, model.a, [1.5], 1)[0][1]
    assert f.to_float() == pytest.approx(pgf_eval(stepped, 1.5), rel=1e-10)


# -- generating-function orbit -------------------------------------------------

def _fraction_clip_heads(x0, weights, a, steps):
    """P(S_n = p), p < a, n < steps, in exact rationals.

    Every law is carried on {0, ..., L-1}, L = a * steps, from exact
    weights.  Entries at or above L - k a of X_k are wrong (their sources
    lie above L), but P(S_n = p) for p < a reads X_n below a <= L - n a
    only, so the returned heads are exact.
    """
    size = a * steps
    x = [Fraction(0)] * size
    for v, w in x0.as_dict().items():
        if v < size:
            x[v] = Fraction(w)
    heads = []
    for _ in range(steps):
        sums = [Fraction(0)] * size
        power = [Fraction(1)] + [Fraction(0)] * (size - 1)
        for k in range(1, weights.size):
            power = [sum(power[i] * x[j - i] for i in range(j + 1))
                     for j in range(size)]
            for j in range(size):
                sums[j] += Fraction(float(weights[k])) * power[j]
        heads.append(sums[:a])
        x = [sum(sums[:a + 1])] + sums[a + 1:] + [Fraction(0)] * a
    return heads


@pytest.mark.parametrize("law,steps", [
    (OffspringLaw.deterministic(3), 8),
    (OffspringLaw.finite_support({1: 0.25, 2: 0.5, 3: 0.25}), 8),
    # exact denominators grow by the cutoff's power per step
    (OffspringLaw.geometric(0.5).with_cutoff(1e-3), 4),
    (OffspringLaw.geometric(0.5), 2)],
    ids=["det", "finite", "geo-1e-3", "geo"])
@pytest.mark.parametrize("a", [1, 2])
def test_orbit_clip_heads_match_exact_rationals(law, steps, a):
    # dyadic weights: the float inputs are the rationals themselves
    x0 = FinitePmf.from_dict({0: 0.5, 1: 0.125, 2: 0.125, 5: 0.25})
    got = evolution._clip_heads(x0.probs, law.weights, a, steps)
    want = _fraction_clip_heads(x0, law.weights, a, steps)
    assert len(got) == steps
    for g, w in zip(got, want):
        assert g.tolist() == pytest.approx([float(v) for v in w], rel=1e-13,
                                           abs=0.0)


def test_clip_heads_of_fewer_steps_agree_within_a_few_ulp():
    # a run of fewer steps carries shorter heads, whose np.convolve rounds
    # in another order: its heads are not a bit-for-bit prefix of a longer
    # run's (on one host, 30 of 11,704 entries of such a sample differ),
    # but they agree within 3 u relative, u = 2^-53
    rng = np.random.default_rng(5)
    for _ in range(40):
        a = int(rng.integers(1, 4))
        values = rng.choice(40, size=int(rng.integers(2, 30)), replace=False)
        w = rng.random(values.size) + 0.01
        x0 = FinitePmf.from_dict(dict(zip(values.tolist(),
                                          (w / w.sum()).tolist())))
        if rng.random() < 0.5:
            law = OffspringLaw.geometric(float(rng.uniform(0.3, 0.9)))
        else:
            m = rng.random(int(rng.integers(2, 5))) + 0.05
            law = OffspringLaw.finite_support(
                dict(enumerate((m / m.sum()).tolist(), start=1)))
        longest = evolution._clip_heads(x0.probs[:a * 12], law.weights, a, 12)
        for steps in (4, 6, 8, 10):
            heads = evolution._clip_heads(x0.probs[:a * steps], law.weights,
                                          a, steps)
            for got, want in zip(heads, longest):
                assert np.all(np.abs(got - want) <= 3 * 2.0 ** -53 * want)


def orbit_bits(orbit):
    """An orbit's rows as the signs and logs of F and F', and log G, in
    their reprs, so NaN logs compare too."""
    return [repr((f.sign, f.log, fp.sign, fp.log, log_g))
            for f, fp, log_g in orbit]


def test_orbit_of_a_point_set_equals_each_points_own_orbit():
    # one pass for all points: the clip heads once, G's log pair for every
    # point per generation; each orbit is that point's own, bit for bit
    rng = np.random.default_rng(32)
    models = [rand_model_light(rng) for _ in range(12)]
    # collapsing onto 0, where F_n' is cancellation noise from n ~ 20
    models.append(ModelSpec(1, FinitePmf.from_dict({0: 0.97, 2: 0.03}),
                            OffspringLaw.finite_support({1: 0.5, 3: 0.5})))
    models.append(ModelSpec(2, dists.GeometricPmf(0.8),
                            OffspringLaw.deterministic(3)))
    # a dense x0 of three values, kept as its atoms as the CLI keeps it
    models.append(ModelSpec(1, dists.AtomPmf.from_dict(
        {0: 0.4, 1: 0.35, 2: 0.25}), OffspringLaw.finite_support(
            {1: 0.5, 3: 0.5})))
    points = (1.05, 1.3, 1.5, 1.9, 2.0, 3.0, 4.0)
    for model in models:
        law, a = model.offspring, model.a
        orbits = gf_orbit(model.x0, law, a, points, 24)
        assert len(orbits) == len(points)
        for s, orbit in zip(points, orbits):
            assert len(orbit) == 25
            own = gf_orbit(model.x0, law, a, [s], 24)[0]
            assert orbit_bits(orbit) == orbit_bits(own), (model, s)
    assert gf_orbit(models[0].x0, models[0].offspring, 1, [], 3) == []


def test_orbit_starts_from_the_law_not_its_cut(monkeypatch):
    # F_0 and F_0' are the geometric law's closed form, not its 1e-14 cut's;
    # past the radius 1/(1-r) F_0 is infinite, and the orbit is refused
    # before any weight is read
    law = OffspringLaw.deterministic(2)
    x0 = dists.GeometricPmf(0.35)
    f, fp, _ = gf_orbit(x0, law, 1, [1.5], 2)[0][0]
    assert (f.log, fp.log) == x0.log_pgf_pair(1.5)
    assert f.to_float() == pytest.approx(14.0, rel=1e-13)
    assert fp.to_float() == pytest.approx(364.0, rel=1e-13)

    def refuse(r):
        raise AssertionError(f"geometric_x0_pmf({r}) was built")
    monkeypatch.setattr(dists, "geometric_x0_pmf", refuse)
    with pytest.raises(ValueError, match="E s\\^X diverges at s=2.0"):
        gf_orbit(dists.GeometricPmf(0.35), law, 1, [2.0], 2)


def test_orbit_evaluates_no_log_pair_where_x0_diverges(monkeypatch):
    # the radius of r = 0.35 is 1/0.65; diverges() refuses the orbit there
    # and beyond without a log pair
    def no_log_pair(self, s):
        raise AssertionError(f"log pair evaluated at s={s}")
    monkeypatch.setattr(dists.GeometricPmf, "log_pgf_pair", no_log_pair)
    law = OffspringLaw.deterministic(2)
    for s in (1.0 / 0.65, 2.0, 1e300):
        message = f"^E s\\^X diverges at s={re.escape(str(s))}$"
        with pytest.raises(ValueError, match=message):
            gf_orbit(dists.GeometricPmf(0.35), law, 1, [s], 2)


@pytest.mark.parametrize("make_law", [
    lambda: OffspringLaw.deterministic(2),
    lambda: OffspringLaw.finite_support({1: .5, 3: .5}),
    lambda: OffspringLaw.geometric(0.5)],
    ids=["deterministic", "finite", "geometric"])
def test_orbit_builds_no_support_per_step(make_law, monkeypatch):
    # a FinitePmf x0 and an OffspringLaw build their support tuples on first
    # use and keep them across repeated orbits and classify; an AtomPmf is
    # built with its own
    calls = []
    support = dists._support
    monkeypatch.setattr(dists, "_support",
                        lambda probs: calls.append(probs.size) or support(probs))
    for x0, built in ((FinitePmf.from_dict({0: 0.5, 2: 0.5}), 2),
                      (AtomPmf.from_dict({0: 0.5, 2: 0.5}), 1)):
        law = make_law()
        assert calls == []
        for steps in (1, 4, 12):
            gf_orbit(x0, law, 1, [1.1], steps)
            classify(ModelSpec(1, x0, law))
        assert len(calls) == built, x0
        calls.clear()


def test_orbit_matches_evolved_laws(battery):
    # Leak-free rows (leaked_mass == 0) of the battery's n <= 8 laws; rows
    # with floor-swept weights are left out, because s^k amplifies the
    # swept weights by up to e^693.  The budget is criterion 4's: rel 1e-10
    # plus 1e-13 of the magnitudes that the step's clip correction
    # subtracts, since a law collapsing onto 0 leaves cancellation noise
    # in F_n'.
    checked = 0
    for entry in battery:
        model = entry.model
        law, a = model.offspring, model.a
        for s in (1.1, 1.5, 2.0, 3.0):
            log_s = math.log(s)
            orbit = gf_orbit(model.x0, law, a, [s], 8)[0]
            assert len(orbit) == len(entry.trace8.pmfs) == 9
            for n, x in enumerate(entry.trace8.pmfs):
                if x.leaked_mass != 0.0:
                    continue
                f, fp, log_g = orbit[n]
                log_f, log_fp = x.log_pgf_pair(s)
                assert log_g == law.log_pgf_pair(log_v=f.log)[0]
                if n == 0:
                    assert (f.log, fp.log) == (log_f, log_fp)
                    continue
                prev_f, prev_fp, prev_g = orbit[n - 1]
                noise_f = np.logaddexp(prev_g - a * log_s, math.log(2.0 * a))
                noise_fp = np.logaddexp(
                    np.logaddexp(law.log_pgf_pair(log_v=prev_f.log)[1]
                                 + prev_fp.log - a * log_s,
                                 math.log(a) + prev_g - (a + 1) * log_s),
                    math.log(a * a / s))
                for got, want, noise in ((f, log_f, noise_f),
                                         (fp, log_fp, noise_fp)):
                    gap = got - LogReal.from_log(want)
                    budget = np.logaddexp(want + math.log(1e-10),
                                          noise + math.log(1e-13))
                    assert gap.log <= budget, (model, s, n)
                    checked += 1
    assert checked >= 1000, checked


# -- bound formulas -----------------------------------------------------------

def test_q_bounds_pinned():
    model = base_model()
    assert q_bounds(1.0, 0, model) == (1.0, 0.0)
    assert q_bounds(0.0, 5, model) == (0.0, -1.0 / 32.0)
    assert q_bounds(1.25, 1, model) == (0.625, 0.125)


def test_q_bounds_log_space_deep():
    # (EN)^n overflows float64 beyond n ~ 1024; the bounds must still be
    # finite and ordered
    model = base_model()
    up, lo = q_bounds(1.5, 2000, model)
    assert math.isfinite(up) and math.isfinite(lo)
    assert lo <= up
    assert up >= 0.0
    # mean a/(mu - 1) = 1 puts the lower bound's numerator at exactly 0;
    # 2^1000 is past the float path's cutoff too
    up, lo = q_bounds(1.0, 1000, model)
    assert lo == 0.0 and up == pytest.approx(2.0 ** -1000, rel=1e-12)


def test_empty_law_steps_to_the_empty_law():
    x = step(FinitePmf(np.zeros(0), 1.0), base_model())
    assert x.probs.size == 0 and x.leaked_mass == 1.0


def test_q_bounds_rejects_unit_mean():
    # no offspring law with EN <= 1 is constructible, so the formula's
    # EN > 1 precondition is enforced upstream
    with pytest.raises(ValueError):
        OffspringLaw.finite_support({1: 1.0})


# -- traces -------------------------------------------------------------------

def test_evolve_pinned_means():
    tr = evolve(base_model(), 2, tail_eps=0.0)
    assert [r.mean_xn for r in tr.rows] == pytest.approx([1.0, 1.25, 1.5625])
    assert [r.n for r in tr.rows] == [0, 1, 2]
    assert tr.rows[1].q_upper == pytest.approx(0.625)
    assert tr.rows[1].q_lower == pytest.approx(0.125)


def test_evolve_zero_steps():
    tr = evolve(base_model(), 0)
    assert len(tr.rows) == 1
    assert tr.rows[0].mean_xn == 1.0


def test_evolve_monotone_bracket_and_sandwich():
    rng = np.random.default_rng(33)
    for _ in range(8):
        model = rand_model_light(rng)
        tr = evolve(model, 12, tail_eps=0.0)
        mu = model.offspring.mean
        for prev, cur in zip(tr.rows, tr.rows[1:]):
            scale = max(abs(prev.q_upper), abs(cur.q_upper), 1.0)
            assert cur.q_upper <= prev.q_upper + 1e-12 * scale
            scale = max(abs(prev.q_lower), abs(cur.q_lower), 1.0)
            assert cur.q_lower >= prev.q_lower - 1e-12 * scale
            assert cur.q_lower <= cur.q_upper
            lo = mu * prev.mean_xn - model.a
            hi = mu * prev.mean_xn
            slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
            assert lo - slack <= cur.mean_xn <= hi + slack


def test_evolve_subcritical_mean_stays_below_tax_ratio():
    model = ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.9, 2: 0.1}),
                      offspring=OffspringLaw.deterministic(2))
    tr = evolve(model, 25, tail_eps=0.0)
    bound = model.a / (model.offspring.mean - 1.0)
    for row in tr.rows:
        assert row.mean_xn <= bound + 1e-12
    assert tr.rows[-1].q_upper < tr.rows[0].q_upper
    assert tr.rows[-1].q_upper < 1e-4


def test_evolve_first_certified_step():
    tr = evolve(base_model(), 5, tail_eps=0.0)
    assert tr.first_certified_step() == 1
    sub = ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.9, 2: 0.1}),
                    offspring=OffspringLaw.deterministic(2))
    assert evolve(sub, 10).first_certified_step() is None


def test_evolve_keep_pmfs():
    tr = evolve(base_model(), 3, tail_eps=0.0, keep_pmfs=True)
    assert len(tr.pmfs) == 4
    assert tr.pmfs[1].as_dict() == pytest.approx({0: 0.25, 1: 0.5, 3: 0.25})
    assert evolve(base_model(), 3).pmfs is None


def test_evolve_stops_on_a_law_that_leaves_the_mass_band():
    # mass 1 - 9e-13 passes; squared (N = 2), generation 1's leaves the band
    model = ModelSpec(1, AtomPmf.from_dict({0: 0.5, 2: 0.4999999999991}),
                      OffspringLaw.deterministic(2))
    with pytest.raises(EvolutionStopped, match="law of generation 1") as exc:
        evolve(model, 3)
    assert [r.n for r in exc.value.rows] == [0]
    # a bad argument stays a ValueError, before any step
    for tail_eps in (-0.1, 1.0):
        with pytest.raises(ValueError, match="tail_eps"):
            evolve(model, 3, tail_eps=tail_eps)


def test_evolve_leak_budget_failure_carries_partial_rows():
    # the rows stop before the generation that breaches the budget
    model = base_model()
    with pytest.raises(LeakBudgetExceeded) as exc:
        evolve(model, 10, tail_eps=1e-3, leak_budget=1e-12)
    rows = exc.value.rows
    assert len(rows) >= 2
    assert rows[0].mean_xn == 1.0
    assert all(r.cumulative_leak <= 1e-12 for r in rows)
    last = evolve(model, rows[-1].n, tail_eps=1e-3, leak_budget=1.0,
                  keep_pmfs=True).pmfs[-1]
    assert step(last, model, tail_eps=1e-3).leaked_mass > 1e-12


@pytest.mark.parametrize("seed", range(24))
def test_leak_floor_predicts_the_leak_stop(seed, monkeypatch):
    # battery-style models, one in four with geometric N (whose cut leaks
    # from the first step on), under budgets at and around the leak floor
    # and the leak of one leaking generation g
    rng = np.random.default_rng([seed, 21])
    law = (OffspringLaw.geometric(float(rng.uniform(0.5, 0.9)))
           if seed % 4 == 0 else _draw_offspring(rng))
    model = ModelSpec(int(rng.integers(1, 4)), _draw_x0(rng), law)
    tail_eps, steps = 10.0 ** rng.uniform(-12, -4), 8
    laws = [model.x0.cut]
    for _ in range(steps):
        laws.append(step(laws[-1], model, tail_eps))
    leaks = [x.leaked_mass for x in laws]
    floors = [evolution._leak_floor(leak, law) for leak in leaks[:-1]]
    assert all(f <= leak for f, leak in zip(floors, leaks[1:]))
    g = next(n for n in range(1, steps + 1) if floors[n - 1] > 0.0)
    f, leak = floors[g - 1], leaks[g]
    full = evolve(model, steps, tail_eps=tail_eps, leak_budget=1.0).rows
    for budget in (np.nextafter(f, 0.0), f, np.nextafter(f, 1.0),
                   (f + leak) / 2.0, np.nextafter(leak, 0.0), leak):
        budget = float(budget)
        want = next((n for n in range(1, steps + 1) if leaks[n] > budget),
                    None)
        try:
            rows = evolve(model, steps, tail_eps=tail_eps,
                          leak_budget=budget).rows
            stop, predicted = None, False
        except LeakBudgetExceeded as exc:
            rows, stop = exc.rows, len(exc.rows)
            predicted = "would exceed" in str(exc)
        # the stop generation is the first whose step() passes the budget
        assert stop == want
        if predicted:
            assert step(laws[stop - 1], model, tail_eps).leaked_mass > budget
        if budget < f and leaks[g - 1] <= budget:
            assert (stop, predicted) == (g, True)
        assert rows == full[:len(rows)]
        assert all(r.cumulative_leak <= budget for r in rows)
        if law.truncation_leak == 0.0:
            with monkeypatch.context() as m:
                m.setattr(evolution, "_leak_floor", None)  # never called
                evolve(model, steps, tail_eps=0.0, leak_budget=budget)


@pytest.mark.parametrize("seed", range(40))
def test_leak_floor_is_below_the_booked_leak(seed):
    # with tail_eps = 0 a step books the floor's terms and a sweep only, so
    # the floor's sum before its lowering can round above the booked leak
    rng = np.random.default_rng([seed, 22])
    law = (OffspringLaw.geometric(float(rng.uniform(0.3, 0.95)))
           if seed % 2 else _draw_offspring(rng))
    model = ModelSpec(int(rng.integers(1, 3)), _draw_x0(rng), law)
    leak = float(rng.uniform(1e-14, 1e-6))
    x = FinitePmf(model.x0.probs * (1.0 - leak), leak)
    for _ in range(3):
        floor = evolution._leak_floor(x.leaked_mass, law)
        x = step(x, model, tail_eps=0.0)
        assert 0.0 < floor <= x.leaked_mass


def test_evolve_support_cap_failure_carries_partial_rows():
    with pytest.raises(SupportCapExceeded) as exc:
        evolve(base_model(), 10, tail_eps=0.0, support_cap=8)
    assert exc.value.rows[-1].support_max > 8


def test_evolve_rejects_negative_steps():
    with pytest.raises(ValueError):
        evolve(base_model(), -1)
    model = base_model()
    with pytest.raises(ValueError, match="^steps must be >= 0, got -1$"):
        gf_orbit(model.x0, model.offspring, model.a, [1.5], -1)
