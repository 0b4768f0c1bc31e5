"""Stochastic layer: reproducibility is exact, statistics are tolerance-based."""

import math

import numpy as np
import pytest
from sampler_reference import init_population_loop, tree_sample_recursive

from drphase.dists import (AtomPmf, FinitePmf, ModelSpec, OffspringLaw,
                           geometric_x0_pmf)
from drphase.evolution import evolve, q_bounds
from drphase.montecarlo import (
    TREE_DEPTH_LIMIT,
    Population,
    ancestor_counts,
    init_population,
    mc_estimate_q,
    mc_step,
    pool_means,
    tree_sample,
)


def super_model():
    return ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.5, 2: 0.5}),
                     offspring=OffspringLaw.deterministic(2))


def sub_model():
    return ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.9, 2: 0.1}),
                     offspring=OffspringLaw.deterministic(2))


def finite_n_model():
    return ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.6, 2: 0.4}),
                     offspring=OffspringLaw.finite_support({1: 0.6, 3: 0.4}))


# -- determinism --------------------------------------------------------------

def test_init_population_stratified_exact():
    pop = init_population(super_model(), 10_000, master_seed=1)
    vals, counts = np.unique(pop.samples, return_counts=True)
    assert vals.tolist() == [0, 2]
    assert counts.tolist() == [5000, 5000]
    assert pop.generation == 0
    assert pop.mean() == 1.0  # zero noise at n=0


def test_init_population_fractional_slots_are_seeded():
    model = ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.3, 1: 0.7}),
                      offspring=OffspringLaw.deterministic(2))
    pop = init_population(model, 10, master_seed=9)
    vals, counts = np.unique(pop.samples, return_counts=True)
    assert vals.tolist() == [0, 1]
    assert counts.tolist() == [3, 7]
    # a pool size that does not divide the weights: remainder slots are
    # seed-determined but the floor allocation is guaranteed
    pop = init_population(model, 9, master_seed=9)
    assert (pop.samples == 0).sum() in (2, 3)
    again = init_population(model, 9, master_seed=9)
    assert np.array_equal(pop.samples, again.samples)


def test_mc_step_reproducible_and_immutable():
    pop = init_population(super_model(), 2000, master_seed=3)
    a = mc_step(pop, super_model())
    b = mc_step(pop, super_model())
    assert np.array_equal(a.samples, b.samples)
    assert a.generation == 1
    assert pop.generation == 0
    with pytest.raises(ValueError):
        pop.samples[0] = 99  # snapshots are read-only


def test_all_zero_pool_is_absorbing():
    model = sub_model()
    pop = Population(np.zeros(1500, dtype=np.int64), 4, 77)
    out = mc_step(pop, model)
    assert (out.samples == 0).all()


# -- statistics ---------------------------------------------------------------

def test_mc_mean_unbiased_at_one_step():
    # spec-level invariant: across 20 independent seeds, the pooled mean
    # after one step sits within 4 combined standard errors of exact E X_1
    model = super_model()
    exact = evolve(model, 1).rows[1].mean_xn
    means, variances = [], []
    pop_size = 100_000
    for seed in range(20):
        pop = mc_step(init_population(model, pop_size, seed), model)
        means.append(pop.mean())
        variances.append(pop.std() ** 2 / pop_size)
    grand = float(np.mean(means))
    se = math.sqrt(float(np.mean(variances)) / len(means))
    assert abs(grand - exact) <= 4.0 * se


def test_mc_estimate_q_supercritical_certifies():
    est = mc_estimate_q(super_model(), pop_size=100_000, steps=20, seed=0)
    assert est.q_lower_hat > 0.0
    assert est.q_upper_hat > est.q_lower_hat
    assert est.stderr > 0.0


def test_mc_estimate_q_subcritical_vanishes():
    est = mc_estimate_q(sub_model(), pop_size=100_000, steps=20, seed=0)
    assert est.q_upper_hat <= 5.0 * est.stderr + 1e-12
    assert est.q_upper_hat >= 0.0


def test_mc_estimate_q_zero_steps_is_plugin():
    est = mc_estimate_q(super_model(), pop_size=10_000, steps=0, seed=5)
    assert est.q_upper_hat == 1.0
    assert est.q_lower_hat == 0.0


def test_mc_estimate_q_reads_the_pool_runs_last_row():
    # the bounds are q_bounds of the last pool mean, bit for bit, and the
    # stderr is that row's se in q units
    for model in (super_model(), sub_model()):
        mean, se = pool_means(model, 5000, 8, 3)[-1]
        est = mc_estimate_q(model, 5000, 8, 3)
        assert (est.q_upper_hat, est.q_lower_hat) == q_bounds(mean, 8, model)
        assert est.stderr == pytest.approx(se / 2.0 ** 8, rel=1e-15)


def test_pool_se_propagates_every_generations_error():
    # se_n = mu^n sqrt(w_n), w_n = sum_{k<=n} s_k^2 / (P mu^(2k)) from
    # w_0 = 0, over the pools that init_population and mc_step give; the
    # library forms each term in logs, so the sum agrees to rounding; a
    # pool of one sample has se 0
    model = finite_n_model()
    mu = model.offspring.mean
    rows = pool_means(model, 3000, 6, 9)
    pop = init_population(model, 3000, 9)
    w = 0.0
    assert rows[0] == (pop.mean(), 0.0)
    for n, (mean, se) in enumerate(rows[1:], 1):
        pop = mc_step(pop, model)
        w += pop.std() ** 2 / (3000 * mu ** (2 * n))
        assert mean == pop.mean()
        assert se == pytest.approx(mu ** n * math.sqrt(w), rel=1e-14)
    assert [se for _, se in pool_means(model, 1, 6, 9)] == [0.0] * 7


def test_pool_se_stays_finite_on_a_dead_pool():
    # this pool is all zeros from n = 20 on, so w stops growing: the q-space
    # stderr of a 600-step run is the 20-step one, and a row's se is
    # 2^n stderr until that leaves float range (n = 1031 here)
    model = sub_model()
    stderr = mc_estimate_q(model, 1000, 20, 1).stderr
    assert stderr > 0.0
    assert mc_estimate_q(model, 1000, 600, 1).stderr == stderr
    rows = pool_means(model, 1000, 1031, 1)
    for n in (519, 600, 1030):
        assert rows[n] == (0.0, pytest.approx(math.ldexp(stderr, n),
                                              rel=1e-13))
    assert rows[1031][1] == math.inf


def test_pool_se_is_calibrated():
    # the error bar has the size of the error: over 12 seeds on two
    # models, the mean z^2 at n = 10 lies in the central 99% interval of
    # chi^2(24)/24; one generation's pool std / sqrt(P) reads about 430
    z2 = []
    for model in (super_model(), finite_n_model()):
        exact = evolve(model, 10, tail_eps=0.0).rows[-1].mean_xn
        for seed in range(12):
            mean, se = pool_means(model, 20_000, 10, seed)[-1]
            z2.append(((mean - exact) / se) ** 2)
    assert 0.412 <= float(np.mean(z2)) <= 1.898, z2


def test_mc_estimate_q_rejects_small_pool():
    with pytest.raises(ValueError, match=">= 1000"):
        mc_estimate_q(super_model(), pop_size=999, steps=1, seed=0)


# -- branching trees ----------------------------------------------------------

def test_ancestor_count_deterministic_two():
    for depth in range(7):
        assert ancestor_counts(OffspringLaw.deterministic(2), depth, 1,
                               seed=1)[0] == 2**depth


def test_ancestor_count_depth_zero_is_root():
    law = OffspringLaw.finite_support({1: 0.5, 3: 0.5})
    assert ancestor_counts(law, 0, 1, seed=123)[0] == 1


def test_ancestor_counts_match_growth_rate():
    law = OffspringLaw.finite_support({1: 0.5, 3: 0.5})
    counts = ancestor_counts(law, depth=10, n_trees=10_000, seed=7)
    assert counts.shape == (10_000,)
    mean = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(mean - 2.0**10) <= 3.0 * se


def test_ancestor_counts_reproducible():
    law = OffspringLaw.geometric(0.5)
    a = ancestor_counts(law, depth=6, n_trees=500, seed=42)
    b = ancestor_counts(law, depth=6, n_trees=500, seed=42)
    assert np.array_equal(a, b)
    c = ancestor_counts(law, depth=6, n_trees=500, seed=43)
    assert not np.array_equal(a, c)


def test_sampler_argument_checks():
    model = super_model()
    with pytest.raises(ValueError, match="^population size must be >= 1, "
                                         "got 0$"):
        init_population(model, 0, 1)
    with pytest.raises(ValueError, match="^population is empty$"):
        mc_step(Population(np.zeros(0, dtype=np.int64), 0, 1), model)
    with pytest.raises(ValueError, match="^steps must be >= 0, got -1$"):
        pool_means(model, 10, -1, 1)
    law = OffspringLaw.deterministic(2)
    with pytest.raises(ValueError, match="^depth must be >= 0, got -1$"):
        ancestor_counts(law, -1, 1, seed=1)
    with pytest.raises(ValueError, match="^n_trees must be >= 1, got 0$"):
        ancestor_counts(law, 1, 0, seed=1)


def test_tree_sample_depth_limit():
    with pytest.raises(ValueError):
        tree_sample(super_model(), TREE_DEPTH_LIMIT + 1, seed=0)


def test_tree_sample_matches_exact_law():
    # full tree recursion is the verification mode: at depth 3 its
    # empirical law must match the exact engine bin by bin
    model = ModelSpec(a=1, x0=FinitePmf.from_dict({0: 0.5, 2: 0.5}),
                      offspring=OffspringLaw.finite_support({1: 0.5, 2: 0.5}))
    depth, trials = 3, 20_000
    hits = np.zeros(64)
    for t in range(trials):
        v = tree_sample(model, depth, seed=900_000 + t)
        if v < hits.size:
            hits[v] += 1
    exact = evolve(model, depth, tail_eps=0.0, keep_pmfs=True).pmfs[-1]
    for v in range(exact.support_max + 1):
        p = exact.mass_at(v)
        se = math.sqrt(max(p * (1.0 - p), 1e-12) / trials)
        assert abs(hits[v] / trials - p) <= 5.0 * se


def test_tree_sample_reproducible():
    model = super_model()
    vals_a = [tree_sample(model, 5, seed=s) for s in range(50)]
    vals_b = [tree_sample(model, 5, seed=s) for s in range(50)]
    assert vals_a == vals_b


# -- batched samplers against their loop references -------------------------

TREE_LAWS = {
    "deterministic": OffspringLaw.deterministic(2),
    "finite": OffspringLaw.finite_support({1: 0.25, 2: 0.25, 3: 0.5}),
    "finite-zero-middle": OffspringLaw.finite_support({1: 0.5, 4: 0.5}),
    "geometric": OffspringLaw.geometric(0.45),
}


@pytest.mark.parametrize("law", sorted(TREE_LAWS))
@pytest.mark.parametrize("depth", [0, 1, 2, 7])
def test_tree_sample_matches_recursive_stream(law, depth):
    # depth 7 reads past the first block of 64 draws, so the stream is
    # extended while the recursion runs
    # the AtomPmf x0 draws as its FinitePmf does
    x0 = {0: 0.3, 1: 0.2, 3: 0.5}
    model = ModelSpec(2, FinitePmf.from_dict(x0), TREE_LAWS[law])
    atoms = ModelSpec(2, AtomPmf.from_dict(x0), TREE_LAWS[law])
    for seed in range(12):
        assert tree_sample(model, depth, seed) == \
            tree_sample(atoms, depth, seed) == \
            tree_sample_recursive(model, depth, seed)


def test_tree_sample_wide_node_extends_past_doubling():
    # 100 leaves under one node outrun a doubled block of 64 draws
    model = ModelSpec(40, FinitePmf.from_dict({0: 0.5, 1: 0.5}),
                      OffspringLaw.deterministic(100))
    for depth in (1, 2):
        for seed in range(3):
            assert tree_sample(model, depth, seed) == \
                tree_sample_recursive(model, depth, seed)


def test_one_count_law_samples_alike_from_either_constructor():
    # finite_support({3: 1.0}) is deterministic(3): same kind, same draws
    x0 = FinitePmf.from_dict({0: 0.5, 2: 0.5})
    one, det = (ModelSpec(1, x0, law) for law in (
        OffspringLaw.finite_support({3: 1.0}), OffspringLaw.deterministic(3)))
    assert [tree_sample(one, 4, s) for s in range(8)] == \
        [tree_sample(det, 4, s) for s in range(8)]
    pop = init_population(det, 500, master_seed=3)
    assert np.array_equal(mc_step(pop, one).samples, mc_step(pop, det).samples)
    assert np.array_equal(ancestor_counts(one.offspring, 5, 20, 7),
                          ancestor_counts(det.offspring, 5, 20, 7))


@pytest.mark.parametrize("x0,pop_size", [
    ({0: 1 / 7, 1: 2 / 7, 2: 1 / 7, 4: 3 / 7}, 1),
    ({0: 0.3, 1: 0.7}, 9),
    (None, 5000),
    ({0: 0.25, 3: 0.45, 10**6: 0.3}, 1001),
])
def test_init_population_matches_slot_loop(x0, pop_size):
    # None: a geometric x0 of 32,221 weights, which leaves 1,739 of the
    # 5,000 slots to the remainder draw; a finite x0 draws alike as an
    # AtomPmf and as a FinitePmf
    pmf = geometric_x0_pmf(1e-3) if x0 is None else FinitePmf.from_dict(x0)
    model = ModelSpec(1, pmf, OffspringLaw.deterministic(2))
    laws = [pmf] if x0 is None else [pmf, AtomPmf.from_dict(x0)]
    for seed in (0, 9, 2**63 + 5):
        expected = init_population_loop(model, pop_size, seed).tolist()
        for law in laws:
            pop = init_population(ModelSpec(1, law, model.offspring),
                                  pop_size, seed)
            assert pop.samples.tolist() == expected


def test_x0_draws_refuse_a_value_past_int64():
    law = OffspringLaw.deterministic(2)
    # 2^63 - 1024 is the largest float value below 2^63
    top = 2**63 - 1024
    model = ModelSpec(1, AtomPmf.from_dict({0: 0.5, top: 0.5}), law)
    assert init_population(model, 4, 1).samples.tolist() == [0, 0, top, top]
    assert tree_sample(model, 0, 1) in (0, top)
    wide = ModelSpec(1, AtomPmf.from_dict({0: 0.5, 2**63: 0.5}), law)
    for draw in (lambda: init_population(wide, 4, 1),
                 lambda: tree_sample(wide, 0, 1)):
        with pytest.raises(OverflowError, match="does not fit in int64"):
            draw()


def test_pool_sums_that_could_pass_int64_raise():
    # the pool mean grows like 5e6 4^n: at generation 21 the top count 4
    # times the largest sample passes 2^63 - 1, where int64 sums would wrap
    model = ModelSpec(1, AtomPmf.from_dict({0: 0.5, 10**7: 0.5}),
                      OffspringLaw.deterministic(4))
    rows = pool_means(model, 2000, 20, 3)
    assert rows[-1] == (5.430075815699027e+18, 7.115778270725854e+16)
    with pytest.raises(OverflowError, match="generation 21 can pass int64"):
        pool_means(model, 2000, 21, 3)


def test_mc_step_single_sample_pool():
    # a pool of one resamples itself: every summand is sample 0
    model = ModelSpec(1, FinitePmf.from_dict({0: 0.5, 2: 0.5}),
                      OffspringLaw.finite_support({1: 0.5, 3: 0.5}))
    pop = Population(np.array([5]), 0, 3)
    values = {int(mc_step(Population(np.array([5]), 0, s), model).samples[0])
              for s in range(40)}
    assert values == {4, 14}
    assert mc_step(pop, model).size == 1
