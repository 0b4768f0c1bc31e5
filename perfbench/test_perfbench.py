"""Self-tests of the benchmark itself (not part of the package test suite).

    python3 -m pytest perfbench/test_perfbench.py -q

They run every workload briefly, feed each oracle a deliberately wrong
answer, check that traced counts repeat exactly, and check that run.py
refuses to run without the drphase sources.
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["DRPHASE_BACKEND"] = "numpy"

import harness  # noqa: E402
import run  # noqa: E402
import oracles  # noqa: E402
from tracer import SHARE_LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

SEVEN = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "fail_ratio",
         "budget_stop_ratio", "peak_rss_mb")


@pytest.fixture(scope="module")
def workdir():
    path = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_emits_all_seven_metrics(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    for metric in SEVEN:
        assert any(line.startswith(f"  {metric} = ") for line in lines), metric
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        n for n, _ in run.declared_metrics("end_to_end")}


def _tamper(kind, value):
    """A wrong answer of the same shape as `value`."""
    if kind == "evolve":
        rows = list(value)
        rows[1] = dataclasses.replace(rows[1], q_upper=rows[0].q_upper + 1.0)
        return tuple(rows)
    if kind == "cli-evolve":
        code, out, err = value
        lines = out.splitlines()
        cells = lines[2].split()
        cells[3] = repr(float(cells[2]) + 1.0)  # q_lower above q_upper
        lines[2] = "  ".join(cells)
        return code, "\n".join(lines), err
    if kind == "cli-estimate-q":
        code, out, err = value
        if code == 3:
            return code, out, err.replace("partial bracket at", "bracket near")
        doc = json.loads(out)
        doc["q_lower"] = doc["q_upper"] + 1.0
        return code, json.dumps(doc), err
    if kind == "cli-classify":
        code, out, err = value
        kv = dict(line.split(": ", 1) for line in out.strip().splitlines())
        kv["verdict"] = {"Supercritical": "Subcritical"}.get(kv["verdict"],
                                                             "Supercritical")
        kv["d_super"] = repr(-float(kv["d_super"]))
        return code, "".join(f"{k}: {v}\n" for k, v in kv.items()), err
    if kind == "cli-check-lemmas":
        code, out, err = value
        return code, re.sub(r": (PASS|SKIPPED)", ": FAIL", out, count=1), err
    if kind == "two-point-sweep":
        first = value[0]
        if first.super_boundary is None:
            bad = dataclasses.replace(first, super_boundary=(0.5, 0.5 + 1e-10))
        else:
            lo, hi = first.super_boundary
            bad = dataclasses.replace(first, super_boundary=(lo + 1e-3, hi + 1e-3))
        return [bad] + value[1:]
    if kind == "geo-classify":
        return "Subcritical" if value == "Supercritical" else "Supercritical"
    if kind == "mc-estimate-q":
        return value._replace(q_upper_hat=value.q_upper_hat * 1.05 + 1.0)
    if kind in ("ancestor-counts", "tree-sample"):
        return value * 2 + 1
    raise AssertionError(f"no tampering for {kind}")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracles_reject_wrong_answers(name, workdir):
    workload = WORKLOADS[name](5, workdir)
    seen = set()
    for op in workload.round(1):
        if op.kind in seen:
            continue
        seen.add(op.kind)
        rec = harness.execute(op)
        harness.check(rec)
        assert not rec.failed, (op.kind, rec.reason)
        rec.value = _tamper(op.kind, rec.value)
        harness.check(rec)
        assert rec.failed, op.kind


def test_truncation_dip_is_bounded():
    # README model (a=1, x0 on {0, 2}, N=2): M_n = 2^n + 1, so a row may dip
    # by about its cumulative leak and no more
    leaks = [0.0, 0.0, 1e-12, 2e-12]
    allowed = oracles.truncation_dip_bound(leaks, 1, 2, 2, 2.0)
    assert allowed == pytest.approx([0.0, 0.0, 1.25e-12, 2.25e-12])
    rows = [(0.9, 0.1), (0.8, 0.2), (0.7, 0.3), (0.6, 0.3 - 5e-12)]
    assert "n=3" in oracles.check_bracket_rows(rows, [0.0, 0.0, 0.0, 1e-11])
    with pytest.raises(oracles.OracleFailure):
        oracles.check_bracket_rows(rows, allowed)
    with pytest.raises(oracles.OracleFailure):
        oracles.check_bracket_rows(rows)


def test_unexpected_error_counts_as_failure():
    def boom():
        raise ValueError("boom")
    rec = harness.execute(Op("x", boom, lambda v, s: None))
    harness.check(rec)
    assert rec.failed and "boom" in rec.reason


def test_rerun_with_changed_bytes_fails():
    ops = iter([(False, 1), (False, 2)])
    records = [harness.execute(Op("tree-sample", lambda: next(ops),
                                  lambda v, s: None))]
    harness.check_all(records)
    assert records[0].failed


def test_traced_counts_repeat_exactly(workdir):
    counts = []
    for _ in range(2):
        workload = WORKLOADS["audit"](7, workdir)
        tracer = Tracer()
        tracer.install()
        try:
            records, _ = harness.run_rounds(workload, 1, tracer)
        finally:
            tracer.uninstall()
        harness.check_all(records)
        assert not any(r.failed for r in records)
        metrics = tracer.metrics()
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] in ("count", "B", "count/model")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(records)
    assert counts[0]["cli.check_lemmas.evolutions_per_model"] > 0
    declared = dict(run.declared_metrics("per_layer"))
    assert set(declared) - {"trace.overhead_pct", "trace.overhead_s"} \
        == set(metrics)
    assert all(metrics[n]["unit"] == declared[n] for n in metrics)
    shares = [f"{layer}.self_pct" for layer in SHARE_LAYERS]
    total = sum(metrics[n]["value"] for n in shares + ["op.other_self_pct"])
    assert total == pytest.approx(100.0)


def test_refuses_without_sources():
    bare = os.path.join(run.OUT_DIR, f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "audit",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
