"""In-memory span tracer installed around drphase layers from outside.

`Tracer.install()` replaces the public functions that drphase modules call
through module attributes (and the kernel Backend entries) with timing
wrappers.  Each call becomes a span (name, start, end, parent) kept in a
list; counts derived from argument and return sizes are accumulated at the
same boundary.  Nothing is printed: the measured CLI calls' stdout is left
alone, and the spans are written to a file only when the run ends.

Self time of a span is its duration minus the time covered by its direct
children, so the self times of all spans under one benchmark operation add
up to that operation's duration.  The shares reported (SHARE_LAYERS, plus
op.other_self_pct for the operation span and every other traced span)
therefore add up to 100%.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  A dotted attribute names a method.
TARGETS = (
    ("drphase.dists", "convolve", "dists.convolve"),
    ("drphase.dists", "truncate", "dists.truncate"),
    ("drphase.dists", "FinitePmf.__post_init__", "dists.FinitePmf"),
    ("drphase.dists", "pgf_eval", "dists.pgf"),
    ("drphase.dists", "pgf_deriv", "dists.pgf"),
    ("drphase.dists", "log_pgf_eval", "dists.log_pgf"),
    ("drphase.dists", "log_pgf_deriv", "dists.log_pgf"),
    ("drphase.evolution", "step", "evolution.step"),
    ("drphase.evolution", "evolve", "evolution.evolve"),
    ("drphase.criteria", "classify", "criteria.classify"),
    ("drphase.criteria", "lemma1_growth_check", "criteria.lemma"),
    ("drphase.criteria", "lemma2_tail_check", "criteria.lemma"),
    ("drphase.criteria", "lemma3_contraction_check", "criteria.lemma"),
    ("drphase.criteria", "lemma4_association_check_log", "criteria.lemma"),
    ("drphase.criteria", "offspring_association_check", "criteria.lemma"),
    ("drphase.scan", "bisect_boundary", "scan.bisect_boundary"),
    ("drphase.scan", "_criterion_value", "scan.criterion_value"),
    ("drphase.scan", "geometric_x0_pmf", "scan.geometric_x0_pmf"),
    ("drphase.montecarlo", "tree_sample", "montecarlo.tree_sample"),
    ("drphase.cli", "main", "cli.main"),
    ("drphase.cli", "cmd_check_lemmas", "cli.check_lemmas"),
    ("drphase.cli", "_lemma4_audit", "cli.lemma4_audit"),
)
BACKEND_ENTRIES = (("conv_direct", "kernels.conv_direct"),
                   ("mc_step", "kernels.mc_step"),
                   ("gw_sizes", "kernels.gw_sizes"))

# Layers whose self time is reported as a share of the traced operations;
# the self time of every other span goes to op.other_self_pct.
SHARE_LAYERS = (
    "dists.convolve.fft", "dists.convolve.direct", "kernels.conv_direct",
    "dists.FinitePmf", "dists.truncate", "evolution.step", "cli.main",
    "dists.log_pgf", "dists.pgf", "criteria.classify", "criteria.lemma",
    "scan.bisect_boundary", "scan.geometric_x0_pmf", "kernels.mc_step",
    "kernels.gw_sizes", "montecarlo.tree_sample",
)
COUNTS = (
    "dists.convolve.fft_calls", "dists.convolve.fft_points",
    "dists.convolve.direct_calls", "dists.convolve.madds",
    "dists.FinitePmf.calls", "dists.FinitePmf.bytes",
    "evolution.step.calls", "evolution.step.support_out",
    "evolution.evolve.calls", "evolution.evolve.budget_stops",
    "dists.log_pgf.calls", "dists.log_pgf.terms", "dists.pgf.calls",
    "scan.bisect_boundary.calls", "scan.bisect_boundary.criterion_evals",
    "criteria.classify.calls",
    "kernels.mc_step.calls", "kernels.mc_step.samples",
    "kernels.gw_sizes.calls", "kernels.gw_sizes.trees",
    "montecarlo.tree_sample.calls", "cli.main.calls",
)
OP_SPAN = "op"


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.child_time: list[float] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.evolve_wasted_s = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.child_time.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> float:
        end = time.perf_counter()
        self.ends[idx] = end
        self.stack.pop()
        duration = end - self.starts[idx]
        parent = self.parents[idx]
        if parent >= 0:
            self.child_time[parent] += duration
        return duration

    def active(self, name: str) -> bool:
        return any(self.names[i] == name for i in self.stack)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            idx = self.open(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                duration = self.close(idx)
                if counter is not None:
                    counter(self, args, None, exc, duration)
                raise
            duration = self.close(idx)
            if counter is not None:
                counter(self, args, result, None, duration)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target; every drphase module attribute bound to the
        same function object (re-exports, `from x import y`) is replaced."""
        from drphase import kernels
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "drphase" or n.startswith("drphase.")]
        for modname, attr, span in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(fn, span, _COUNTERS.get(span)))
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(fn, _SPAN_NAMERS.get(span, span),
                                 _COUNTERS.get(span))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._set(m, key, wrapped)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is fn:
                                self._restore.append((val, k, v))
                                val[k] = wrapped
        backend = kernels.get_backend()
        for attr, span in BACKEND_ENTRIES:
            fn = getattr(backend, attr)
            self._set(backend, attr, self._wrap(fn, span, _COUNTERS.get(span)))

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += (self.ends[i] - self.starts[i]) - self.child_time[i]
        return out

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics except the tracing overhead, which needs the
        untraced run (run.py adds it)."""
        selfs = self.self_times()
        op_total = sum(self.ends[i] - self.starts[i]
                       for i, n in enumerate(self.names) if n == OP_SPAN)
        base = op_total if op_total > 0.0 else 1.0
        out: dict[str, dict] = {}
        for layer in SHARE_LAYERS:
            out[f"{layer}.self_pct"] = _m(100.0 * selfs.get(layer, 0.0) / base,
                                          "%", self_s=selfs.get(layer, 0.0))
        evolves = self.counts["evolution.evolve.calls"]
        stops = self.counts["evolution.evolve.budget_stops"]
        out["evolution.evolve.wasted_pct"] = _m(
            100.0 * self.evolve_wasted_s / base, "%", wasted_s=self.evolve_wasted_s)
        out["evolution.evolve.completed_ratio"] = _m(
            (evolves - stops) / evolves if evolves else 0.0, "ratio",
            completed=evolves - stops, attempted=evolves)
        models = self.counts["cli.check_lemmas.calls"]
        evols = self.counts["cli.check_lemmas.evolutions"]
        out["cli.check_lemmas.evolutions_per_model"] = _m(
            evols / models if models else 0.0, "count/model",
            evolutions=evols, models=models)
        other = {name: t for name, t in selfs.items()
                 if name not in SHARE_LAYERS}
        out["op.other_self_pct"] = _m(100.0 * sum(other.values()) / base,
                                      "%", self_s=other)
        for name in COUNTS:
            out[name] = _m(int(self.counts[name]),
                           "B" if name.endswith(".bytes") else "count")
        return out

    def dump(self, path: str) -> None:
        """Write every span as [name, start, end, parent] (times relative to
        the first span)."""
        t0 = self.starts[0] if self.starts else 0.0
        spans = [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in
                 zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts)}, fh)


def _m(value, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


# -- counters computed from argument and return sizes ----------------------


def _convolve_span(args) -> str:
    from drphase import dists
    p, q = args[0], args[1]
    ops = p.probs.size * q.probs.size
    return "dists.convolve.direct" if ops <= dists._DIRECT_CONV_OPS \
        else "dists.convolve.fft"


def _count_convolve(tr, args, result, exc, duration):
    p, q = args[0].probs.size, args[1].probs.size
    if p == 0 or q == 0:
        return
    from drphase import dists
    if p * q <= dists._DIRECT_CONV_OPS:
        tr.counts["dists.convolve.direct_calls"] += 1
        tr.counts["dists.convolve.madds"] += p * q
    else:
        tr.counts["dists.convolve.fft_calls"] += 1
        tr.counts["dists.convolve.fft_points"] += p + q - 1


def _count_pmf(tr, args, result, exc, duration):
    tr.counts["dists.FinitePmf.calls"] += 1
    if exc is None:
        tr.counts["dists.FinitePmf.bytes"] += args[0].probs.nbytes


def _count_step(tr, args, result, exc, duration):
    tr.counts["evolution.step.calls"] += 1
    if exc is None:
        tr.counts["evolution.step.support_out"] += result.probs.size


def _count_evolve(tr, args, result, exc, duration):
    from drphase.evolution import LeakBudgetExceeded, SupportCapExceeded
    tr.counts["evolution.evolve.calls"] += 1
    if isinstance(exc, (LeakBudgetExceeded, SupportCapExceeded)):
        tr.counts["evolution.evolve.budget_stops"] += 1
        tr.evolve_wasted_s += duration
    if tr.active("cli.check_lemmas"):
        tr.counts["cli.check_lemmas.evolutions"] += 1


def _count_lemma4(tr, args, result, exc, duration):
    # the association audit steps the model itself instead of calling evolve
    if args[1] > 0:
        tr.counts["cli.check_lemmas.evolutions"] += 1


def _count_log_pgf(tr, args, result, exc, duration):
    import numpy as np
    tr.counts["dists.log_pgf.calls"] += 1
    tr.counts["dists.log_pgf.terms"] += int(np.count_nonzero(args[0].probs))


def _counter(name: str):
    def count(tr, args, result, exc, duration):
        tr.counts[name] += 1
    return count


def _count_sized(name: str, key: str, arg: int):
    def count(tr, args, result, exc, duration):
        tr.counts[f"{name}.calls"] += 1
        tr.counts[f"{name}.{key}"] += len(args[arg])
    return count


_SPAN_NAMERS = {"dists.convolve": _convolve_span}
_COUNTERS = {
    "dists.convolve": _count_convolve,
    "dists.FinitePmf": _count_pmf,
    "evolution.step": _count_step,
    "evolution.evolve": _count_evolve,
    "cli.lemma4_audit": _count_lemma4,
    "dists.log_pgf": _count_log_pgf,
    "dists.pgf": _counter("dists.pgf.calls"),
    "scan.bisect_boundary": _counter("scan.bisect_boundary.calls"),
    "scan.criterion_value": _counter("scan.bisect_boundary.criterion_evals"),
    "criteria.classify": _counter("criteria.classify.calls"),
    "montecarlo.tree_sample": _counter("montecarlo.tree_sample.calls"),
    "cli.main": _counter("cli.main.calls"),
    "cli.check_lemmas": _counter("cli.check_lemmas.calls"),
    "kernels.mc_step": _count_sized("kernels.mc_step", "samples", 0),
    "kernels.gw_sizes": _count_sized("kernels.gw_sizes", "trees", 0),
}
