"""One benchmark process: one workload, built from its seed, in one mode.

    python3 perfbench/worker.py --workload NAME --seed N --t0 T --workdir DIR
        (--setup-only | --seconds S | --fixed [--trace-dump FILE])

--t0 is the parent's time.monotonic() taken just before it started this
process, so setup_s covers interpreter start, importing drphase and drawing
the workload's inputs.  It is reported at the reference speed, scaled by
calibration kernel runs timed in this process right after set-up.
--seconds S runs the workload's timed_rounds(S) rounds; --fixed runs its
trace_rounds rounds.  run.py starts this script; it prints one JSON
object as the last line of its stdout.  Output of the measured CLI calls is
captured in memory and never reaches this stdout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import statistics
import sys
import time

# setup_s is scaled by the median of this many calibration kernel runs,
# timed in the same process right after set-up (see calib.py)
SETUP_CALIB_RUNS = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float,
                      help="run the workload's timed_rounds(S) rounds")
    mode.add_argument("--fixed", action="store_true",
                      help="run the workload's trace_rounds rounds")
    ap.add_argument("--trace-dump", default=None,
                    help="install the tracer and write its spans here")
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    from drphase import kernels
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "backend": kernels.get_backend().name,
            "numba_importable": importlib.util.find_spec("numba") is not None}


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.monotonic() - args.t0
    import calib
    setup_calib = statistics.median(calib.kernel()
                                    for _ in range(SETUP_CALIB_RUNS))
    out: dict = {"setup_s": setup_s * calib.REFERENCE_S / setup_calib,
                 "setup_raw_s": setup_s, "setup_calib_s": setup_calib}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import harness
    tracer = None
    if args.trace_dump:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    rounds = (workload.trace_rounds if args.fixed
              else workload.timed_rounds(args.seconds))
    records, calib_times = harness.run_rounds(workload, rounds, tracer)
    out["peak_rss_mb"] = harness.peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    harness.check_all(records)
    out["rounds"] = rounds
    out["calib_s"] = statistics.median(calib_times)
    out["calib_n"] = len(calib_times)
    out["scale"] = calib.REFERENCE_S / out["calib_s"]
    out["summary"] = harness.summarize(records, out["scale"])
    out["failures"] = harness.failures(records)
    out["notes"] = harness.notes(records)
    out["environment"] = environment()
    if tracer is not None:
        out["trace"] = tracer.metrics()
        tracer.dump(args.trace_dump)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
