"""Kernel-level checks: hashing, count draws, and batched/loop agreement."""

import types

import numpy as np
import pytest
from sampler_reference import draw_counts, gw_sizes_loop, mc_step_masked

from drphase import kernels
from drphase.dists import FinitePmf, ModelSpec, OffspringLaw
from drphase.kernels import (
    _draw_counts_np,
    get_backend,
    hash_path,
    splitmix64,
    stream_uniforms,
    uniform53,
)
from drphase.montecarlo import tree_sample


def test_splitmix_reference_values():
    # reference outputs of the standard splitmix64 stream seeded at 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(splitmix64(0)) != splitmix64(0)
    assert splitmix64(2**64 - 1) == splitmix64(-1)  # wraps mod 2^64


def test_splitmix_python_numpy_agree():
    zs = [0, 1, 2**31, 2**63, 2**64 - 1, 0xDEADBEEF]
    arr = np.array(zs, dtype=np.uint64)
    from_np = kernels._sm64_np(arr)
    for z, got in zip(zs, from_np):
        assert int(got) == splitmix64(z)


def test_hash_path_order_sensitivity():
    assert hash_path(7, 1, 2) != hash_path(7, 2, 1)
    assert hash_path(7, 1, 2) != hash_path(8, 1, 2)
    assert hash_path(7) == hash_path(7)


def test_uniform53_range_and_resolution():
    us = [uniform53(hash_path(13, i)) for i in range(2000)]
    assert all(0.0 <= u < 1.0 for u in us)
    # 53-bit grid: values are multiples of 2^-53
    for u in us[:50]:
        assert u == (int(u * 2.0**53)) * 2.0**-53


def test_draw_counts_deterministic_kind():
    u = np.linspace(0.0, 0.999, 17)
    out = kernels._draw_counts_np(u, OffspringLaw.deterministic(3))
    assert (out == 3).all()


def test_draw_counts_finite_kind_quantiles():
    # law N in {1, 2, 3} w.p. .2/.5/.3 -> cdf (.2, .7, 1.0) over counts 1..3
    law = OffspringLaw.finite_support({1: 0.2, 2: 0.5, 3: 0.3})
    assert np.cumsum(law.weights[1:]).tolist() == [0.2, 0.7, 1.0]
    u = np.array([0.0, 0.19, 0.2, 0.69, 0.7, 0.999])
    out = kernels._draw_counts_np(u, law)
    assert out.tolist() == [1, 1, 2, 2, 3, 3]


def test_draw_counts_geometric_matches_closed_form():
    # quantile of Geometric(p) on {1,2,...}: N = floor(log(1-u)/log(1-p)) + 1
    # (values chosen off the cdf knots so float rounding cannot flip a tie)
    p = 0.37
    u = np.array([0.0, 0.1, 0.36, 0.51, 0.9, 0.99, 0.999999])
    out = kernels._draw_counts_np(u, OffspringLaw.geometric(p))
    expect = np.floor(np.log1p(-u) / np.log1p(-p)).astype(np.int64) + 1
    expect[u == 0.0] = 1
    assert out.tolist() == expect.tolist()


def test_draw_counts_geometric_saturates_in_far_tail():
    # the geometric cdf ends at the last count whose mass is above 1e-18;
    # a u this close to 1 must return a count at most that one
    law = OffspringLaw.geometric(0.63)
    out = kernels._draw_counts_np(np.array([1.0 - 2.0**-53]), law)
    assert 30 <= out[0] <= 120
    lower = kernels._draw_counts_np(np.array([0.999]), law)
    assert lower[0] <= out[0]


def test_conv_direct_small_case():
    p = np.array([0.5, 0.0, 0.5])
    out = get_backend().conv_direct(p, p)
    assert np.allclose(out, [0.25, 0.0, 0.5, 0.0, 0.25], rtol=0, atol=0)


def test_get_backend_is_one_numpy_table():
    table = get_backend()
    assert table is get_backend()
    assert table.name == "numpy"


def parity_uniforms(knots: np.ndarray, hashed: int = 10_000) -> np.ndarray:
    """Hashed uniforms plus the cdf knots, one ulp either side of each, and
    both ends of [0, 1)."""
    hashed = np.array([uniform53(hash_path(29, i)) for i in range(hashed)])
    return np.concatenate([
        hashed, knots, np.nextafter(knots, 0.0), np.nextafter(knots, 1.0),
        [0.0, 1.0 - 2.0**-53]])


def assert_counts_match_scalar_loop(u, law):
    vector = _draw_counts_np(u, law)
    assert vector.tolist() == draw_counts(u, law).tolist()
    assert vector.min() >= 1


# [.5, 0, 0, .5] is N in {1, 4}: its three equal knots must all send a
# uniform on them to count 4
@pytest.mark.parametrize("weights", [[0.2, 0.5, 0.3], [0.1] * 10,
                                     [1.0 / 3.0] * 3, [0.0, 0.4, 0.0, 0.6],
                                     [0.5, 0.0, 0.0, 0.5]])
def test_draw_count_matches_vector_sampler_finite(weights):
    law = OffspringLaw.finite_support(dict(enumerate(weights, 1)))
    cdf = np.cumsum(weights)
    assert np.array_equal(np.cumsum(law.weights[1:]), cdf)
    assert_counts_match_scalar_loop(parity_uniforms(cdf[cdf < 1.0]), law)


def geometric_knots(p: float) -> np.ndarray:
    """The partial sums the incremental cdf scan compares with."""
    c, m, knots = p, p, [p]
    while True:
        m *= 1.0 - p
        if m <= kernels._GEOM_MASS_FLOOR:
            break
        c += m
        knots.append(c)
    return np.array([k for k in knots if k < 1.0])


# the scalar loop takes one pass per count, so at p = 1e-3 (34,522 knots)
# it is fed every 1000th knot, the last three and 500 hashed uniforms
@pytest.mark.parametrize("p", [0.37, 0.5, 0.63, 0.9, 0.999, 0.05, 1e-3])
def test_draw_count_matches_vector_sampler_geometric(p):
    thin, hashed = (1000, 500) if p < 0.01 else (1, 10_000)
    knots = geometric_knots(p)
    knots = np.concatenate([knots[::thin], knots[-3:]])
    assert_counts_match_scalar_loop(parity_uniforms(knots, hashed),
                                    OffspringLaw.geometric(p))


def test_geometric_cdf_is_the_scalar_loops_knots():
    # the knots end at the last count of mass above the floor, which the
    # loop and the clamp to the last index return from the last knot on
    for p in (0.999, 0.63, 0.5, 0.05, 1e-3):
        cdf = kernels._geometric_cdf(p)
        assert cdf[cdf < 1.0].tolist() == geometric_knots(p).tolist()
        top = cdf[-1:]
        assert draw_counts(top, OffspringLaw.geometric(p)).tolist() == [
            len(cdf)]
        assert _draw_counts_np(top, OffspringLaw.geometric(p)).tolist() == [
            len(cdf)]


def test_geometric_cdf_doubles_a_short_first_guess(monkeypatch):
    # a log that makes the first guess 4 counts: the doubled guesses reach
    # the floor and give the same knots, the products being sequential
    expected = {p: kernels._geometric_cdf(p) for p in (0.5, 0.05, 1e-3)}
    monkeypatch.setattr(kernels, "math", types.SimpleNamespace(
        log=lambda x: 1.0))
    for p, knots in expected.items():
        assert kernels._geometric_cdf(p).tobytes() == knots.tobytes()


# cdf shapes for the guide table: repeated knots from zero weights, a cdf
# ending below 1, one whose sums round above 1, a single knot, knots on
# cell edges, 750 geometric knots
GUIDE_CDFS = {
    "repeated": np.cumsum([0.5, 0.0, 0.0, 0.5]),
    "short": np.array([0.2, 0.45, 0.7]),
    "above-one": np.array([0.3, 1.0 + 2.0**-52, 1.0 + 2.0**-51]),
    "single": np.array([0.3]),
    "single-one": np.array([1.0]),
    "edges": np.array([0.25, 0.5, 0.5 + 2.0**-10, 0.75, 1.0]),
    "geometric": kernels._geometric_cdf(0.05),
}
# lengths that build every table size, 1 to 2^10 cells, and its neighbours
GUIDE_LENGTHS = [0, 1, 15, 16, 31] + [16 << b for b in range(1, 11)] + [
    2**14 + 1]


def guide_uniforms(cdf: np.ndarray) -> np.ndarray:
    """0, 1 - 2^-53, 1 and above, every cell edge c / 2^10 (which holds
    every coarser table's edges), every knot and its two neighbours, and
    hashed uniforms."""
    edges = np.arange(1025) / 1024
    return np.concatenate([
        [0.0, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 1.5, 2.0], edges,
        np.nextafter(edges, 0.0), cdf, np.nextafter(cdf, 0.0),
        np.nextafter(cdf, 2.0), stream_uniforms(hash_path(3), 0, 3000)])


@pytest.mark.parametrize("length", GUIDE_LENGTHS)
@pytest.mark.parametrize("shape", sorted(GUIDE_CDFS))
def test_inverse_cdf_is_clamped_searchsorted(shape, length):
    # every uniform is drawn in a call of `length` uniforms, so in a table
    # of the size that length builds
    cdf = GUIDE_CDFS[shape]
    u = guide_uniforms(cdf)
    expect = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    if length == 0:
        out = kernels.inverse_cdf(cdf, u[:0])
        assert out.dtype == np.int64 and out.size == 0
        return
    u = np.resize(u, -(-len(u) // length) * length)
    expect = np.resize(expect, len(u))
    got = np.concatenate([kernels.inverse_cdf(cdf, u[i:i + length])
                          for i in range(0, len(u), length)])
    assert got.dtype == np.int64
    assert got.tolist() == expect.tolist()


def test_draw_count_deterministic_ignores_u():
    # a deterministic N draws no uniform: a depth-1 tree sample reads draws
    # 0 and 1 of its stream as its two leaves
    model = ModelSpec(1, FinitePmf.from_dict({0: 0.5, 3: 0.5}),
                      OffspringLaw.deterministic(2))
    for seed in range(20):
        leaves = [0 if uniform53(hash_path(seed, i)) < 0.5 else 3
                  for i in range(2)]
        assert tree_sample(model, 1, seed) == max(sum(leaves) - 1, 0)


def test_stream_uniforms_are_hash_path_draws():
    h = hash_path(31, 4)
    got = stream_uniforms(h, 5, 40)
    assert got.tolist() == [uniform53(hash_path(31, 4, i))
                            for i in range(5, 40)]
    assert stream_uniforms(hash_path(31), 0, 3).tolist() == [
        uniform53(hash_path(31, i)) for i in range(3)]


# the laws of the batched-vs-loop sampler comparisons; "finite-zero-middle"
# has the cdf (.5, .5, .5, 1) with three equal knots
SAMPLER_LAWS = {
    "deterministic": OffspringLaw.deterministic(3),
    "finite": OffspringLaw.finite_support({1: 0.25, 2: 0.25, 3: 0.5}),
    "finite-zero-middle": OffspringLaw.finite_support({1: 0.5, 4: 0.5}),
    "geometric": OffspringLaw.geometric(0.45),
}


@pytest.mark.parametrize("law", sorted(SAMPLER_LAWS))
@pytest.mark.parametrize("npop", [1, 2, 7, 3000])
def test_mc_step_matches_masked_loop(law, npop):
    samples = np.random.default_rng(npop).integers(0, 9, npop)
    before = samples.copy()
    for a, gen in ((1, 1), (2, 5)):
        args = (samples, a, 20261018, gen, SAMPLER_LAWS[law])
        got = kernels._mc_step(*args)
        assert got.dtype == np.int64
        assert got.tolist() == mc_step_masked(*args).tolist()
    assert np.array_equal(samples, before)  # the pool is left as it was


def tree_seeds(n_trees: int) -> np.ndarray:
    return np.array([hash_path(17, t) for t in range(n_trees)],
                    dtype=np.uint64)


@pytest.mark.parametrize("law", sorted(SAMPLER_LAWS))
@pytest.mark.parametrize("depth,n_trees", [(0, 1), (0, 5), (1, 1), (4, 1),
                                           (4, 60), (6, 25)])
def test_gw_sizes_match_per_tree_loop(law, depth, n_trees):
    seeds = tree_seeds(n_trees)
    got = kernels._gw_sizes(seeds, depth, SAMPLER_LAWS[law])
    assert got.dtype == np.int64
    assert got.tolist() == gw_sizes_loop(seeds, depth,
                                         SAMPLER_LAWS[law]).tolist()
    assert got.min() >= 1  # counts are >= 1, so no tree dies out


@pytest.mark.parametrize("law", ["finite", "finite-zero-middle", "geometric"])
def test_gw_sizes_split_blocks_match_per_tree_loop(law, monkeypatch):
    # a budget of 40 nodes splits the 30 trees in half, and again, from
    # the levels where a block would draw more than 40 nodes
    seeds = tree_seeds(30)
    passes = []
    block = kernels._gw_block

    def counting_block(*args):
        passes.append(len(args[1]))
        return block(*args)

    monkeypatch.setattr(kernels, "_NODE_BUDGET", 40)
    monkeypatch.setattr(kernels, "_gw_block", counting_block)
    got = kernels._gw_sizes(seeds, 5, SAMPLER_LAWS[law])
    assert len(passes) > 7 and min(passes) == 1
    assert got.tolist() == gw_sizes_loop(seeds, 5, SAMPLER_LAWS[law]).tolist()
