"""The four benchmark workloads: seeded inputs, operations and their oracles.

A workload draws all its inputs from `--seed` when it is built (that is the
set-up the benchmark times) and then hands out rounds of operations.  A
round holds every operation kind of the workload in fixed proportions, so
any whole number of rounds has the same mix; the timed loop only ever runs
whole rounds.  The input properties that set most of an operation's cost
are stratified or drawn from narrow ranges, so the seed changes the inputs
but not the cost profile of a run.  See README.md for the distributions
and why each workload exists.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from drphase import cli, criteria, evolution, montecarlo
from drphase.dists import FinitePmf, ModelSpec, OffspringLaw

import oracles

scan = importlib.import_module("drphase.scan")

@dataclass
class Op:
    """One closed-loop operation.

    run() returns (stopped, value): stopped is True when the program ended
    the operation with a budget stop (LeakBudgetExceeded or
    SupportCapExceeded, CLI exit 3).  check(value, stopped) raises
    oracles.OracleFailure on a wrong answer and may return a note on a
    known defect.
    """

    kind: str
    run: Callable[[], tuple[bool, object]]
    check: Callable[[object, bool], str | None]


def simplex(rng: np.random.Generator, npts: int) -> np.ndarray:
    w = rng.random(npts) + 0.05
    w = w / w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    return w


def finite_pmf(rng: np.random.Generator, npts: int, top: int) -> dict[int, float]:
    vals = rng.choice(top + 1, size=npts, replace=False)
    return {int(v): float(w) for v, w in zip(vals, simplex(rng, npts))}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_op(kind: str, argv: list[str], check) -> Op:
    def run():
        code, out, err = run_cli(argv)
        return code == 3, (code, out, err)
    return Op(kind, run, lambda value, stopped: check(*value))


def model_config(a: int, x0: dict[int, float], offspring: dict) -> dict:
    return {"a": a, "x0": {"type": "finite",
                           "pmf": [[v, w] for v, w in sorted(x0.items())]},
            "N": offspring}


def write_config(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


class Workload:
    name = ""
    # one round's operation time at the reference speed (calib.py); a timed
    # run of S seconds replays round(S / ROUND_S) rounds, whatever the host
    ROUND_S = 1.0
    # rounds replayed by a traced run (a fixed number, so counts repeat)
    trace_rounds = 1

    @classmethod
    def timed_rounds(cls, seconds: float) -> int:
        return max(1, round(seconds / cls.ROUND_S))

    def round(self, i: int) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class ExactEvolve(Workload):
    """Battery-style leak-free evolutions (FFT regime) plus the README and a
    bounded-N model through CLI evolve / estimate-q with default options."""

    name = "exact-evolve"
    ROUND_S = 2.4
    STEPS = 20
    CAP = 1 << 17
    PER_ROUND = 18
    POOL = 900
    trace_rounds = 2

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.models = [self._draw(rng, i) for i in range(self.POOL)]
        # (tag, a, x0, N as a finite law): the README model and a bounded-N one
        fixed = (("readme", 1, {0: 0.5, 2: 0.5}, {2: 1.0}),
                 ("bounded", 1, {0: 0.6, 2: 0.4}, {1: 0.6, 3: 0.4}))
        self.cli_ops = []
        for tag, a, x0, law in fixed:
            offspring = ({"type": "deterministic", "n": next(iter(law))}
                         if len(law) == 1 else
                         {"type": "finite", "pmf": [[v, w] for v, w in law.items()]})
            path = write_config(workdir, f"evolve-{tag}.json",
                                model_config(a, x0, offspring))
            mu = sum(v * w for v, w in law.items())
            self.cli_ops.append(cli_op(
                "cli-evolve", ["evolve", "--config", path],
                lambda code, out, err, a=a, top=max(x0), n_max=max(law), mu=mu:
                oracles.check_cli_evolve(code, out, err, a, top, n_max, mu)))
            self.cli_ops.append(cli_op("cli-estimate-q",
                                       ["estimate-q", "--config", path],
                                       oracles.check_cli_estimate_q))

    @staticmethod
    def _draw(rng: np.random.Generator, i: int) -> ModelSpec:
        """Same laws as the test battery: a <= 3, x0 on 2-4 values in 0..6,
        N deterministic in 2..4 (one draw in three) or finite with bound
        2..4.  The bound and the N kind, which set most of an evolution's
        cost, are stratified: every 9 consecutive draws hold each
        combination in its battery proportion."""
        a = int(rng.integers(1, 4))
        x0 = FinitePmf.from_dict(finite_pmf(rng, int(rng.integers(2, 5)), 6))
        high = 2 + i % 3
        if (i // 3) % 3 == 0:
            law = OffspringLaw.deterministic(high)
        else:
            support = [v for v in range(1, high) if rng.random() < 0.5] + [high]
            law = OffspringLaw.finite_support(
                dict(zip(support, (float(w) for w in simplex(rng, len(support))))))
        return ModelSpec(a, x0, law)

    def _evolve_op(self, model: ModelSpec) -> Op:
        def run():
            try:
                trace = evolution.evolve(model, self.STEPS, tail_eps=0.0,
                                         support_cap=self.CAP)
            except evolution.SupportCapExceeded as exc:
                return True, exc.rows
            return False, trace.rows
        return Op("evolve", run, lambda rows, stopped: oracles.check_evolve(
            rows, stopped, self.STEPS, self.CAP))

    def round(self, i: int) -> list[Op]:
        start = i * self.PER_ROUND
        ops = [self._evolve_op(self.models[(start + k) % self.POOL])
               for k in range(self.PER_ROUND)]
        # interleave the CLI commands so a round's prefix keeps the mix
        step = self.PER_ROUND // len(self.cli_ops)
        for j, op in enumerate(self.cli_ops):
            ops.insert(j * (step + 1), op)
        return ops


# ---------------------------------------------------------------------------


class Audit(Workload):
    """Small bounded models through classify, check-lemmas and short-step
    estimate-q, all via cli.main in-process (direct-convolution regime)."""

    name = "audit"
    ROUND_S = 0.2
    MODELS_PER_ROUND = 6
    POOL = 400
    ESTIMATE_STEPS = 12
    trace_rounds = 4

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        self.models = []
        for k in range(self.POOL):
            a = int(rng.integers(1, 3))
            x0 = finite_pmf(rng, int(rng.integers(2, 4)), 4)
            if rng.random() < 0.5:
                law = {"type": "deterministic", "n": 2}
                mean = 2.0
            else:
                lo = 0.2 + 0.6 * float(rng.random())
                law = {"type": "finite", "pmf": [[1, lo], [2, 1.0 - lo]]}
                mean = lo + 2.0 * (1.0 - lo)
            path = write_config(workdir, f"audit-{k}.json",
                                model_config(a, x0, law))
            self.models.append((path, a, x0, mean))

    def round(self, i: int) -> list[Op]:
        ops = []
        for k in range(self.MODELS_PER_ROUND):
            path, a, x0, mean = self.models[(i * self.MODELS_PER_ROUND + k)
                                            % self.POOL]
            ops.append(cli_op(
                "cli-classify", ["classify", "--config", path],
                lambda code, out, err, a=a, x0=x0, mean=mean:
                oracles.check_cli_classify(code, out, a, x0, mean, 2)))
            ops.append(cli_op(
                "cli-check-lemmas", ["check-lemmas", "--config", path],
                lambda code, out, err: oracles.check_cli_lemmas(code, out)))
            ops.append(cli_op(
                "cli-estimate-q",
                ["estimate-q", "--config", path, "--output", "json",
                 "--steps", str(self.ESTIMATE_STEPS)],
                oracles.check_cli_estimate_q))
        return ops


# ---------------------------------------------------------------------------


class Scan(Workload):
    """Two-point family boundary reports plus classify on geometric initial
    laws with huge materialized supports; no evolution.

    A round is one sweep over every structural two-point case (a x high x
    N law, 90 families) and a log-spaced grid of geometric r, so its mix
    and its slowest operations are the same in every run; the seed jitters
    each r within a twentieth of a grid step.  The sweep is one operation:
    single reports differ in cost by boundary count, and their latencies
    shift by a fifth with what the large classifies left behind in the
    process, which would put a median of single reports at the mercy of
    both.
    """

    name = "scan"
    ROUND_S = 3.4
    GRID = 41
    TOL = 1e-9
    # log10 r range of the geometric initial law and its grid; see README.md
    # for why it stops at 1e-5
    LOG_R = (-5.0, -2.0)
    R_POINTS = 8
    trace_rounds = 1

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        # Whether a family has zero, one or two boundaries (and so the cost
        # of its report) turns on its N law's weights; they are fixed so
        # every run holds the same cases, and the seed moves only r.
        laws = (OffspringLaw.deterministic(2), OffspringLaw.deterministic(3),
                OffspringLaw.finite_support({1: 0.5, 3: 0.5}),
                OffspringLaw.finite_support({1: 0.5, 2: 0.5}),
                OffspringLaw.geometric(0.5))
        self.families = [scan.TwoPointFamily(a, high, law)
                         for a in (1, 2, 3) for high in range(1, 7)
                         for law in laws]
        lo, hi = self.LOG_R
        step = (hi - lo) / (self.R_POINTS - 1)
        # the lower end stays exact: every run holds the largest support
        jitter = np.concatenate([[0.0], 0.05 * rng.random(self.R_POINTS - 1)])
        self.rs = [10.0 ** (lo + step * (k + jitter[k]))
                   for k in range(self.R_POINTS)]
        self.geo_family = scan.GeometricX0Family(1, OffspringLaw.deterministic(2))

    def _sweep_op(self) -> Op:
        def run():
            return False, [scan.boundary_report(fam, self.GRID, self.TOL)
                           for fam in self.families]

        def check(reports, stopped):
            for fam, rep in zip(self.families, reports):
                law = fam.offspring
                oracles.check_boundary_report(
                    rep, fam.a, fam.high_value, law.mean, law.bound,
                    scan.EPS_PARAM, self.TOL)
        return Op("two-point-sweep", run, check)

    def _geo_op(self, r: float) -> Op:
        def run():
            return False, criteria.classify(self.geo_family.model(r)).verdict
        return Op("geo-classify", run, lambda verdict, stopped:
                  oracles.check_geometric_verdict(verdict, r))

    def round(self, i: int) -> list[Op]:
        return [self._sweep_op()] + [self._geo_op(r) for r in self.rs]


# ---------------------------------------------------------------------------


class Simulate(Workload):
    """Population Monte Carlo with deterministic, finite and geometric N,
    branching-tree generation sizes and exact tree samples."""

    name = "simulate"
    ROUND_S = 0.72
    POP = 100_000
    GENS = 10
    TREES = 1000
    TREE_DEPTH = 10
    SAMPLE_DEPTH = 8
    SAMPLES = 32
    MODELS_PER_KIND = 2
    trace_rounds = 3

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 4])
        self.seed_base = int(rng.integers(1 << 40))
        self.models: dict[str, list[ModelSpec]] = {}
        for kind in ("deterministic", "finite", "geometric"):
            picked: list[ModelSpec] = []
            while len(picked) < self.MODELS_PER_KIND:
                if kind == "deterministic":
                    law = OffspringLaw.deterministic(2)
                elif kind == "finite":
                    w = 0.48 + 0.04 * float(rng.random())
                    law = OffspringLaw.finite_support({1: w, 3: 1.0 - w})
                else:
                    p = 0.5 + 0.02 * float(rng.random())
                    law = OffspringLaw.geometric(p)
                x0 = FinitePmf.from_dict(finite_pmf(rng, int(rng.integers(2, 4)), 6))
                model = ModelSpec(int(rng.integers(1, 3)), x0, law)
                # cross-check the pool estimator where its linearized error
                # holds: models certified supercritical, away from die-out
                if criteria.classify(model).verdict == criteria.SUPERCRITICAL:
                    picked.append(model)
            self.models[kind] = picked
        self._moments: dict[int, list[tuple[float, float]]] = {}

    def moments(self, model: ModelSpec) -> list[tuple[float, float]]:
        """Exact (mean, variance) per generation, cached per model."""
        key = id(model)
        if key not in self._moments:
            law = model.offspring
            if law.kind == "geometric":
                law = law.with_cutoff(1e-10)
            ref = ModelSpec(model.a, model.x0, law)
            trace = evolution.evolve(ref, self.GENS, tail_eps=1e-12,
                                     leak_budget=1e-6, keep_pmfs=True)
            out = []
            for x in trace.pmfs:
                k = np.arange(x.probs.size, dtype=np.float64)
                m1 = float(x.probs @ k)
                out.append((m1, max(float(x.probs @ (k * k)) - m1 * m1, 0.0)))
            self._moments[key] = out
        return self._moments[key]

    def _mc_op(self, model: ModelSpec, seed: int) -> Op:
        def run():
            return False, montecarlo.mc_estimate_q(model, self.POP, self.GENS, seed)
        mu = model.offspring.mean

        def check(est, stopped):
            mom = self.moments(model)
            growth = mu ** self.GENS
            oracles.check_z(est.q_upper_hat * growth, mom[-1][0],
                            oracles.pool_mean_se(mom, mu, self.POP),
                            "population mean")
        return Op("mc-estimate-q", run, check)

    def _trees_op(self, law: OffspringLaw, seed: int) -> Op:
        def run():
            return False, montecarlo.ancestor_counts(law, self.TREE_DEPTH,
                                                     self.TREES, seed)
        return Op("ancestor-counts", run, lambda counts, stopped:
                  oracles.check_tree_counts(counts, law.mean, self.TREE_DEPTH))

    def _sample_op(self, model: ModelSpec, seed: int) -> Op:
        def run():
            return False, np.array([
                montecarlo.tree_sample(model, self.SAMPLE_DEPTH, seed + j)
                for j in range(self.SAMPLES)], dtype=np.int64)

        def check(values, stopped):
            mean, var = self.moments(model)[self.SAMPLE_DEPTH]
            oracles.check_z(float(values.mean()), mean,
                            math.sqrt(var / len(values)), "tree sample mean")
        return Op("tree-sample", run, check)

    def round(self, i: int) -> list[Op]:
        seed = self.seed_base + 1000 * i
        j = i % self.MODELS_PER_KIND
        det, fin, geo = (self.models[k][j]
                         for k in ("deterministic", "finite", "geometric"))
        tree_law = (fin if i % 2 == 0 else geo).offspring
        return [self._mc_op(det, seed), self._trees_op(tree_law, seed + 1),
                self._mc_op(fin, seed + 2), self._sample_op(fin, seed + 3),
                self._mc_op(geo, seed + 4)]


WORKLOADS = {w.name: w for w in (ExactEvolve, Audit, Scan, Simulate)}
# Sampler operations must return identical bytes when re-run with one seed.
RERUN_KINDS = ("mc-estimate-q", "ancestor-counts", "tree-sample")
