"""Shared fixtures: the frozen randomized-model battery.

Several acceptance criteria quantify over randomized leak-free bounded
models (x0 values <= 6, offspring bound <= 4, tax <= 3).  Leak-free
evolution is only computable when the support stays within memory, so each
candidate passes two checks, cheap one first: its 8-step evolution, which
the entry keeps as `trace8`, must end with support <= 2048, and only then
a 20-step trial under a hard support cap must finish.  The first 20
candidates that pass both are kept.  The seed is frozen so every run sees
the same battery; it was chosen once and verified to contain at least 3
supercritical and 3 subcritical members.
"""

from typing import NamedTuple

import numpy as np
import pytest

from drphase.criteria import SUBCRITICAL, SUPERCRITICAL, PhaseVerdict, classify
from drphase.dists import FinitePmf, ModelSpec, OffspringLaw
from drphase.evolution import EvolutionTrace, SupportCapExceeded, TraceRow, evolve

BATTERY_SEED = 20240913
BATTERY_SIZE = 20
TRIAL_STEPS = 20
TRIAL_SUPPORT_CAP = 1 << 21
# generating-function checks run at n <= GF_STEPS and need the direct
# convolution regime; the cap keeps them there (2048^2 < 2^24 ops)
GF_SUPPORT_CAP = 2048
GF_STEPS = 8


class BatteryEntry(NamedTuple):
    draw: int  # 0-based index of the candidate among the seed's draws
    model: ModelSpec
    verdict: PhaseVerdict
    rows20: tuple[TraceRow, ...]
    trace8: EvolutionTrace


def _pinned_simplex(rng: np.random.Generator, npts: int) -> np.ndarray:
    w = rng.random(npts) + 0.05
    w = w / w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    return w


def _draw_x0(rng: np.random.Generator) -> FinitePmf:
    npts = int(rng.integers(2, 5))
    vals: list[int] = []
    while len(vals) < npts:
        v = int(rng.integers(0, 7))
        if v not in vals:
            vals.append(v)
    w = _pinned_simplex(rng, npts)
    return FinitePmf.from_dict(dict(zip(vals, w)))


def _draw_offspring(rng: np.random.Generator) -> OffspringLaw:
    if int(rng.integers(0, 3)) == 0:
        return OffspringLaw.deterministic(int(rng.integers(2, 5)))
    high = int(rng.integers(2, 5))  # a value >= 2 guarantees P(N>1) > 0
    support = {high}
    for v in range(1, high):
        if rng.random() < 0.5:
            support.add(v)
    vals = sorted(support)
    w = _pinned_simplex(rng, len(vals))
    return OffspringLaw.finite_support(dict(zip(vals, w)))


def rand_model_light(rng: np.random.Generator) -> ModelSpec:
    """Small bounded model (M=2) whose leak-free support stays tiny at n<=12."""
    a = int(rng.integers(1, 3))
    npts = int(rng.integers(2, 4))
    vals: list[int] = []
    while len(vals) < npts:
        v = int(rng.integers(0, 5))
        if v not in vals:
            vals.append(v)
    w = _pinned_simplex(rng, npts)
    x0 = FinitePmf.from_dict(dict(zip(vals, w)))
    if rng.random() < 0.5:
        law = OffspringLaw.deterministic(2)
    else:
        lo = 0.2 + 0.6 * float(rng.random())
        law = OffspringLaw.finite_support({1: lo, 2: 1.0 - lo})
    return ModelSpec(a=a, x0=x0, offspring=law)


def build_battery(size: int = BATTERY_SIZE,
                  seed: int = BATTERY_SEED) -> list[BatteryEntry]:
    rng = np.random.default_rng(seed)
    entries: list[BatteryEntry] = []
    for draw in range(50 * size):
        model = ModelSpec(a=int(rng.integers(1, 4)), x0=_draw_x0(rng),
                          offspring=_draw_offspring(rng))
        # no cap needed: x0 <= 6 and N <= 4 keep the support <= 6 * 4^8
        tr8 = evolve(model, GF_STEPS, tail_eps=0.0, keep_pmfs=True)
        if tr8.rows[GF_STEPS].support_max > GF_SUPPORT_CAP:
            continue
        try:
            tr20 = evolve(model, TRIAL_STEPS, tail_eps=0.0,
                          support_cap=TRIAL_SUPPORT_CAP)
        except SupportCapExceeded:
            continue
        entries.append(BatteryEntry(draw, model, classify(model), tr20.rows,
                                    tr8))
        if len(entries) == size:
            return entries
    raise AssertionError("battery draw exhausted; reseed")


@pytest.fixture(scope="session")
def battery() -> list[BatteryEntry]:
    entries = build_battery()
    supers = sum(e.verdict.verdict == SUPERCRITICAL for e in entries)
    subs = sum(e.verdict.verdict == SUBCRITICAL for e in entries)
    assert supers >= 3 and subs >= 3, (supers, subs)
    return entries
