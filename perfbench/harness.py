"""Closed-loop execution of workload rounds and the end-to-end statistics.

One caller issues one operation at a time.  Each operation is timed alone.
The loop runs a fixed number of whole rounds; between rounds it times the
calibration kernel (calib.py).  Oracles run after the loop, once the peak
memory of the timed operations has been read, so their reference
computations touch neither the timings nor peak_rss_mb.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

import calib
import oracles
from tracer import OP_SPAN
from workloads import RERUN_KINDS, Op

# op_tail_s is the latency with this many samples beyond it.
TAIL_BEYOND = 10


@dataclass
class Record:
    op: Op
    seconds: float
    stopped: bool = False
    value: object = None
    failed: bool = False
    reason: str = ""
    note: str | None = None

    @property
    def kind(self) -> str:
        return self.op.kind


def execute(op: Op, tracer=None) -> Record:
    """Run and time one operation; its oracle runs later (check)."""
    span = tracer.open(OP_SPAN) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        stopped, value = op.run()
    except Exception:  # an unexpected error is a failed operation
        return Record(op, time.perf_counter() - t0, failed=True,
                      reason=traceback.format_exc(limit=3))
    finally:
        if span is not None:
            tracer.close(span)
    return Record(op, time.perf_counter() - t0, stopped, value)


def check(rec: Record) -> None:
    """Apply the operation's oracle to its recorded output."""
    if rec.failed:
        return
    try:
        rec.note = rec.op.check(rec.value, rec.stopped)
    except oracles.OracleFailure as exc:
        rec.failed, rec.reason = True, str(exc)


def fingerprint(value) -> bytes:
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return repr(value).encode()


def run_rounds(workload, rounds: int, tracer=None
               ) -> tuple[list[Record], list[float]]:
    """A fixed number of whole rounds, so that a run's sample count, and the
    operation its tail lands on, do not depend on the host's speed.
    Between rounds the calibration kernel is timed once per whole
    calib.INTERVAL_S of loop time since it last ran; its times are
    returned with the records."""
    records: list[Record] = []
    calib_times = [calib.kernel()]
    last = time.perf_counter()
    for i in range(rounds):
        records += [execute(op, tracer) for op in workload.round(i)]
        due = int((time.perf_counter() - last) / calib.INTERVAL_S)
        if due:
            calib_times += [calib.kernel() for _ in range(due)]
            last = time.perf_counter()
    return records, calib_times


def check_all(records: list[Record]) -> None:
    """Every oracle, then a re-run of the first sampler operation of each
    kind with its seed: output bytes that differ mark it failed.  Outputs
    are dropped afterwards."""
    first: dict[str, Record] = {}
    for rec in records:
        check(rec)
        if rec.kind in RERUN_KINDS and not rec.failed:
            first.setdefault(rec.kind, rec)
    for rec in first.values():
        _, again = rec.op.run()
        if fingerprint(again) != fingerprint(rec.value):
            rec.failed = True
            rec.reason = "re-run with the same seed changed the output"
    for rec in records:
        rec.value = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(records: list[Record], scale: float) -> dict[str, dict]:
    """End-to-end operation metrics with their sample counts.  Times are
    multiplied by `scale` (see calib.py); the raw value is kept as "raw"."""
    n = len(records)
    lat = sorted(r.seconds for r in records)
    total = sum(lat)
    beyond = min(TAIL_BEYOND, n - 1)
    failed = sum(r.failed for r in records)
    stopped = sum(r.stopped for r in records)
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    mix = {k: {"n": len(v), "p50_s": statistics.median(v), "total_s": sum(v)}
           for k, v in by_kind.items()}
    p50, tail = statistics.median(lat), lat[n - 1 - beyond]
    return {
        "ops_per_s": {"value": n / total / scale, "unit": "1/s", "n": n,
                      "raw": n / total, "timed_s": total, "mix": mix},
        "op_p50_s": {"value": p50 * scale, "unit": "s", "n": n, "raw": p50},
        "op_tail_s": {"value": tail * scale, "unit": "s", "n": n, "raw": tail,
                      "percentile": 100.0 * (n - beyond) / n,
                      "beyond": beyond},
        "fail_ratio": {"value": failed / n, "unit": "ratio", "n": n,
                       "failed": failed,
                       "known_defect_ops": sum(r.note is not None
                                               for r in records)},
        "budget_stop_ratio": {"value": stopped / n, "unit": "ratio", "n": n,
                              "stopped": stopped},
    }


def failures(records: list[Record], limit: int = 5) -> list[str]:
    return [f"{r.kind}: {r.reason}" for r in records if r.failed][:limit]


def notes(records: list[Record]) -> list[str]:
    """Distinct known-defect notes, one line each."""
    return sorted({f"{r.kind}: {r.note}" for r in records if r.note})
