"""Sampler output pinned across versions.

Every Monte Carlo draw is a pure function of a counter hash, so the exact
arrays a seed produces are part of the package's contract: a refactor of a
kernel must leave them byte for byte unchanged.  The digests below were
recorded from the numpy kernels; each covers one stream under one offspring
law, so a failure names the stream that moved.
"""

import hashlib

import numpy as np
import pytest

from drphase.dists import FinitePmf, ModelSpec, OffspringLaw
from drphase.montecarlo import (
    ancestor_counts,
    init_population,
    mc_step,
    tree_sample,
)

# 1000 slots do not divide these weights: three remainder slots are drawn.
X0 = {0: 1 / 7, 1: 2 / 7, 2: 1 / 7, 4: 3 / 7}
POP_SIZE = 1000
SEED = 20261018
TREE_DEPTH = 6
N_TREES = 40
N_TREE_SAMPLES = 32

LAWS = {
    "deterministic": OffspringLaw.deterministic(2),
    "finite": OffspringLaw.finite_support({1: 0.25, 2: 0.25, 3: 0.5}),
    "geometric": OffspringLaw.geometric(0.45),
}

# init_population depends on the initial law alone, so it has one digest.
INIT_DIGEST = "605696b199da22d165f9a7e4cba93970bfea426b779690b4716ac1badafd6f14"
EXPECTED = {
    "deterministic": {
        "mc_step": "f9b4177fdc27d8cbc6df35ba49a37e3d8b552a84f3709382e3effc6739f7551b",
        "ancestor_counts": "d7a0019aa668b25a2ab9248cb75be25778a50527d685c3089ac38e337dbe10fe",
        "tree_sample": "936c69d61a97add48a866500d70e3db1a5426c5bd968c4d556b9f4d229d41f55",
    },
    "finite": {
        "mc_step": "f6a5c640846aeedba51106596c8dd3153c4c6c4d769bd2633ea0177e08f4f703",
        "ancestor_counts": "b82e302a3c52982e93801056985dec5845216ddce1ce49b25c53d1bc0559f5d6",
        "tree_sample": "bc958c15429bbc81014af30e564c6528532db078f44f879410169a244ff72569",
    },
    "geometric": {
        "mc_step": "c439c34b4174f967918c44a53a683dab238da3369e3fa492a110756e53f57084",
        "ancestor_counts": "f0361215bbefba7129ef2048f41f53fa10281c52e15bdf49c580bcec757ff148",
        "tree_sample": "4beb1c5debed3c6f4ce2915e3451d9d6af22c3238ff959ec45e6742c1a182c3c",
    },
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.asarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


def model(law: OffspringLaw) -> ModelSpec:
    return ModelSpec(1, FinitePmf.from_dict(X0), law)


def test_init_population_matches_recorded_digest():
    pop = init_population(model(LAWS["finite"]), POP_SIZE, SEED)
    assert digest(pop.samples) == INIT_DIGEST


@pytest.mark.parametrize("name", sorted(LAWS))
def test_sampler_streams_match_recorded_digests(name):
    law = LAWS[name]
    spec = model(law)
    pop = init_population(spec, POP_SIZE, SEED)
    generations = []
    for _ in range(3):
        pop = mc_step(pop, spec)
        generations.append(pop.samples)
    trees = [tree_sample(spec, TREE_DEPTH, SEED + i)
             for i in range(N_TREE_SAMPLES)]
    assert {
        "mc_step": digest(*generations),
        "ancestor_counts": digest(ancestor_counts(law, TREE_DEPTH, N_TREES, SEED)),
        "tree_sample": digest(trees),
    } == EXPECTED[name]
