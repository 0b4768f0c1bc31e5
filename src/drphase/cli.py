"""Command-line front end.

One JSON config file describes the model and per-command options; every
command reads it, validates it fully before computing anything, and writes
deterministic output.  Exit codes: 0 success, 2 configuration error,
3 numerical failure (leak budget, support overflow, an array too large to
allocate, a geometric success probability below float resolution, an
uncertified scan boundary); check-lemmas exits 1 when an audited inequality
fails.

check-lemmas audits lemmas 1 and 3 along the generating-function orbit
(evolution.gf_orbit), which evolves no law and so has no support cap, no
leak and no FFT regime, in one orbit pass per lemma for all its s-points,
and lemma4 on the model's inputs, x0 and N's sandwich.  Only lemma2
(uncapped, Subcritical models only) evolves a law.
Lemmas 1, 3 and 4 read x0 as classify does, and SKIP where E s^X0 diverges.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import criteria, evolution, montecarlo
from .dists import AtomPmf, GeometricPmf, ModelSpec, OffspringLaw
from .evolution import DEFAULT_STEPS, EvolutionStopped, SupportCapExceeded
from .logreal import LogReal
from .scan import (DEFAULT_TOL, BoundaryNotCertified, CriterionUnavailable,
                   GeometricX0Family, TwoPointFamily, boundary_report)

DEFAULT_POP_SIZE = 100_000
DEFAULT_GRID_POINTS = 9
# Hard stop for the exact engine's support; crossing it is a numerical
# failure (exit 3), not a config error.
DEFAULT_SUPPORT_CAP = 1 << 22
# Support cap of the law evolution behind simulate's exact column, which
# stops quietly at the last generation within it.
AUDIT_SUPPORT_CAP = 1 << 21

EVOLVE_CSV_HEADER = "n,mean,q_upper,q_lower,support_max,leaked_mass"
SCAN_CSV_HEADER = "parameter,verdict,d_super,d_sub"


class ConfigError(Exception):
    """Invalid configuration; the message starts with the field path."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


# ---------------------------------------------------------------------------
# config parsing (parse everything, then validate, then compute)
# ---------------------------------------------------------------------------

_MISSING = object()


def _get(node: dict, key: str, path: str, default=_MISSING, kind=None):
    if key not in node:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}: required key is missing")
        return default
    val = node[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if kind is not None and not isinstance(val, kinds):
        names = "/".join(k.__name__ for k in kinds)
        raise ConfigError(f"{path}.{key}: expected {names}, "
                          f"got {type(val).__name__}")
    # booleans pass isinstance(int); reject them where a number is wanted
    if kind is not None and isinstance(val, bool) and bool not in kinds:
        raise ConfigError(f"{path}.{key}: expected a number, got a boolean")
    return val


def _as_object(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, "
                          f"got {type(node).__name__}")
    return node


def _parse_pmf(node, path: str) -> dict[int, float]:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{path}: expected a non-empty list of "
                          f"[value, probability] pairs")
    out: dict[int, float] = {}
    for i, pair in enumerate(node):
        if (not isinstance(pair, list) or len(pair) != 2
                or isinstance(pair[0], bool)):
            raise ConfigError(f"{path}[{i}]: expected a [value, probability] pair")
        v, p = pair
        if not isinstance(v, int) or v < 0:
            raise ConfigError(f"{path}[{i}][0]: value must be a "
                              f"nonnegative integer, got {v!r}")
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise ConfigError(f"{path}[{i}][1]: probability must be a number")
        if v in out:
            raise ConfigError(f"{path}[{i}][0]: duplicate value {v}")
        out[v] = float(p)
    return out


def _check_keys(node: dict, keys: tuple, path: str) -> None:
    """A key that `path` does not read is an error, not a silent default."""
    for key in node:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown key; {path} reads "
                              f"{', '.join(keys)}")


# the keys each object type reads, by its "type"
_X0_KEYS = {"finite": ("type", "pmf"), "geometric": ("type", "p")}
_OFFSPRING_KEYS = {"deterministic": ("type", "n"), "finite": ("type", "pmf"),
                   "geometric": ("type", "p")}
_FAMILY_KEYS = {"two_point": ("type", "high"), "geometric_x0": ("type",)}


def _typed_object(node, path: str, keys_by_type: dict) -> tuple[dict, str]:
    """`node` as an object and its type, which must be a key of
    `keys_by_type`; a key that type does not read is an error."""
    node = _as_object(node, path)
    kind = _get(node, "type", path, kind=str)
    if kind not in keys_by_type:
        names = [repr(k) for k in keys_by_type]
        raise ConfigError(f"{path}.type: expected {', '.join(names[:-1])} "
                          f"or {names[-1]}, got {kind!r}")
    _check_keys(node, keys_by_type[kind], path)
    return node, kind


def _parse_x0(node, path: str) -> AtomPmf | GeometricPmf:
    node, kind = _typed_object(node, path, _X0_KEYS)
    if kind == "finite":
        pmf = _parse_pmf(_get(node, "pmf", path), f"{path}.pmf")
        try:
            return AtomPmf.from_dict(pmf)
        except ValueError as exc:
            raise ConfigError(f"{path}.pmf: {exc}") from exc
    p = _get(node, "p", path, kind=(int, float))
    try:
        return GeometricPmf(float(p))
    except ValueError as exc:
        raise ConfigError(f"{path}.p: {exc}") from exc


def _parse_offspring(node, path: str) -> OffspringLaw:
    node, kind = _typed_object(node, path, _OFFSPRING_KEYS)
    try:
        if kind == "deterministic":
            return OffspringLaw.deterministic(_get(node, "n", path, kind=int))
        if kind == "finite":
            pmf = _parse_pmf(_get(node, "pmf", path), f"{path}.pmf")
            return OffspringLaw.finite_support(pmf)
        p = _get(node, "p", path, kind=(int, float))
        return OffspringLaw.geometric(float(p))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    return _as_object(raw, "config")


def _parse_a(cfg: dict) -> int:
    """The tax a, an integer >= 1."""
    a = _get(cfg, "a", "config", kind=int)
    if a < 1:
        raise ConfigError(f"config.a: must be >= 1, got {a}")
    return a


def parse_model(cfg: dict) -> ModelSpec:
    """Model from the top-level keys."""
    a = _parse_a(cfg)
    offspring = _parse_offspring(_get(cfg, "N", "config"), "N")
    if "x0" not in cfg:
        raise ConfigError("x0: required key is missing")
    x0 = _parse_x0(cfg["x0"], "x0")
    try:
        return ModelSpec(a, x0, offspring)
    except ValueError as exc:
        raise ConfigError(f"x0: {exc}") from exc


def _block(node: dict, name: str, keys: tuple) -> dict:
    """Block `name` of `node` (empty if absent); a key the command does
    not read is an error, not a silent default."""
    block = _as_object(node.get(name, {}), name)
    _check_keys(block, keys, name)
    return block


def _parse_count(block: dict, key: str, path: str, default: int) -> int:
    val = _get(block, key, path, default, int)
    if val < 0:
        raise ConfigError(f"{path}.{key}: must be >= 0, got {val}")
    return val


def _parse_steps(block: dict, path: str, args) -> int:
    if args.steps is not None:  # the flag overrides the config
        block = {"steps": args.steps}
    return _parse_count(block, "steps", path, DEFAULT_STEPS)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _emit_kv(pairs: list[tuple[str, object]], output: str) -> None:
    if output == "json":
        print(json.dumps(dict(pairs), indent=2))
    elif output == "csv":
        print("key,value")
        for k, v in pairs:
            print(f"{k},{_cell(v)}")
    else:
        for k, v in pairs:
            print(f"{k}: {_cell(v)}")


def _emit_rows(header: list[str], rows: list[list], output: str,
               notes: list[str] | None = None) -> None:
    if output == "json":
        doc: dict = {"rows": [dict(zip(header, row)) for row in rows]}
        if notes:
            doc["notes"] = notes
        print(json.dumps(doc, indent=2))
        return
    cells = [[_cell(v) for v in row] for row in rows]
    if output == "csv":
        print(",".join(header))
        for row in cells:
            print(",".join(row))
    else:
        widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        for row in cells:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    for note in notes or []:
        print(f"# {note}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_classify(cfg: dict, args) -> int:
    model = parse_model(cfg)
    verdict = criteria.classify(model)
    pairs: list[tuple[str, object]] = [
        ("verdict", verdict.verdict),
        ("d_super", verdict.d_super),
        ("s_super", criteria.super_point(model)[0])]
    if verdict.d_sub is None:
        pairs.append(("d_sub", "n/a: N unbounded"))
    else:
        pairs.append(("d_sub", verdict.d_sub))
        pairs.append(("s_sub", criteria.sub_point(model)[0]))
    _emit_kv(pairs, args.output)
    return 0


def _trace_cells(rows) -> list[list]:
    return [[r.n, r.mean_xn, r.q_upper, r.q_lower, r.support_max,
             r.cumulative_leak] for r in rows]


def _evolve_options(cfg: dict, name: str, args) -> tuple[int, dict]:
    """Step count and evolution.evolve keywords from a command's block."""
    block = _block(cfg, name, ("steps", "tail_eps", "leak_budget",
                               "support_cap"))
    steps = _parse_steps(block, name, args)
    tail_eps = float(_get(block, "tail_eps", name,
                          evolution.DEFAULT_TAIL_EPS, (int, float)))
    leak_budget = float(_get(block, "leak_budget", name,
                             evolution.DEFAULT_LEAK_BUDGET, (int, float)))
    support_cap = _get(block, "support_cap", name, DEFAULT_SUPPORT_CAP, int)
    if not 0.0 <= tail_eps < 1.0:
        raise ConfigError(f"{name}.tail_eps: must lie in [0, 1), got {tail_eps}")
    if not (math.isfinite(leak_budget) and leak_budget >= 0.0):
        raise ConfigError(f"{name}.leak_budget: must be finite and >= 0, "
                          f"got {leak_budget}")
    if support_cap < 1:
        raise ConfigError(f"{name}.support_cap: must be >= 1, got {support_cap}")
    return steps, {"tail_eps": tail_eps, "leak_budget": leak_budget,
                   "support_cap": support_cap}


def cmd_evolve(cfg: dict, args) -> int:
    model = parse_model(cfg)
    steps, options = _evolve_options(cfg, "evolve", args)
    header = EVOLVE_CSV_HEADER.split(",")
    try:
        trace = evolution.evolve(model, steps, **options)
    except EvolutionStopped as exc:
        _emit_rows(header, _trace_cells(exc.rows), args.output)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit_rows(header, _trace_cells(trace.rows), args.output)
    return 0


def cmd_estimate_q(cfg: dict, args) -> int:
    model = parse_model(cfg)
    steps, options = _evolve_options(cfg, "estimate_q", args)
    try:
        trace = evolution.evolve(model, steps, **options)
    except EvolutionStopped as exc:
        last = exc.rows[-1]
        print(f"error: {exc}", file=sys.stderr)
        print(f"partial bracket at n={last.n}: "
              f"[{_fmt(last.q_lower)}, {_fmt(last.q_upper)}]", file=sys.stderr)
        return 3
    last = trace.rows[-1]
    pairs: list[tuple[str, object]] = [
        ("steps", last.n),
        ("q_lower", last.q_lower),
        ("q_upper", last.q_upper)]
    first = trace.first_certified_step()
    if first is not None:
        pairs.append(("positive_limit_certified_at_n", first))
    _emit_kv(pairs, args.output)
    return 0


def cmd_simulate(cfg: dict, args) -> int:
    model = parse_model(cfg)
    block = _block(cfg, "simulate", ("steps", "pop_size", "seed"))
    steps = _parse_steps(block, "simulate", args)
    pop_size = _get(block, "pop_size", "simulate", DEFAULT_POP_SIZE, int)
    seed = args.seed if args.seed is not None else \
        _get(block, "seed", "simulate", None, int)
    if seed is None:
        raise ConfigError("simulate.seed: required key is missing "
                          "(no silent default; pass --seed or set it)")
    if pop_size < 1:
        raise ConfigError(f"simulate.pop_size: must be >= 1, got {pop_size}")

    # exact means for as many generations as the engine can afford
    try:
        rows = evolution.evolve(model, steps,
                                support_cap=AUDIT_SUPPORT_CAP).rows
    except SupportCapExceeded as exc:
        rows = exc.rows[:-1]  # its last row is the one past the cap
    except EvolutionStopped as exc:
        rows = exc.rows  # the other stops' rows all lie within their limits
    except MemoryError:  # x0's dense cut does not fit, and no row was made
        rows = []
    exact = {row.n: row.mean_xn for row in rows}

    out = [[n, mean, se, exact.get(n)] for n, (mean, se) in
           enumerate(montecarlo.pool_means(model, pop_size, steps, seed))]
    _emit_rows(["n", "mc_mean", "stderr", "exact_mean"], out, args.output)
    return 0


def _parse_family(cfg: dict, scan: dict, offspring: OffspringLaw):
    fam, kind = _typed_object(_get(scan, "family", "scan"), "scan.family",
                              _FAMILY_KEYS)
    a = _parse_a(cfg)
    try:
        if kind == "two_point":
            high = _get(fam, "high", "scan.family", kind=int)
            return TwoPointFamily(a, high, offspring)
        return GeometricX0Family(a, offspring)
    except ValueError as exc:
        raise ConfigError(f"scan.family: {exc}") from exc


def cmd_scan(cfg: dict, args) -> int:
    if "x0" in cfg:
        _parse_x0(cfg["x0"], "x0")  # validated though the scan ignores it
    offspring = _parse_offspring(_get(cfg, "N", "config"), "N")
    block = _block(cfg, "scan", ("family", "grid_points", "tolerance"))
    family = _parse_family(cfg, block, offspring)
    grid_points = _get(block, "grid_points", "scan", DEFAULT_GRID_POINTS, int)
    tol = float(_get(block, "tolerance", "scan", DEFAULT_TOL, (int, float)))
    if grid_points < 2:
        raise ConfigError(f"scan.grid_points: must be >= 2, got {grid_points}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"scan.tolerance: must be finite and positive, "
                          f"got {tol}")

    report = boundary_report(family, grid_points, tol)
    rows = [[param, verdict.verdict, verdict.d_super, verdict.d_sub]
            for param, verdict in report.grid]

    notes: list[str] = []
    for which, bound, missing in (
            ("super", report.super_boundary, report.super_missing),
            ("sub", report.sub_boundary, report.sub_missing)):
        if bound is not None:
            lo, hi = bound
            notes.append(f"{which}_boundary: [{_fmt(lo)}, {_fmt(hi)}]")
        elif isinstance(missing, CriterionUnavailable):
            notes.append(f"{which}_boundary: n/a ({missing})")
        else:
            notes.append(f"{which}_boundary: no boundary in range")
    band = report.undetermined_band
    notes.append("undetermined_band: none" if band is None else
                 f"undetermined_band: [{_fmt(band[0])}, {_fmt(band[1])}]")
    _emit_rows(SCAN_CSV_HEADER.split(","), rows, args.output, notes)
    return 0


def _rel_margin(diff, ref) -> float:
    """Signed (a - b) / |ref| from log-space values; the plain difference
    saturates float64 long before the compared quantities do."""
    if diff.sign == 0:
        return 0.0
    if not math.isfinite(ref.log):
        return math.copysign(math.inf, diff.sign)
    return diff.sign * math.exp(min(diff.log - ref.log, 709.0))


def _converging(model: ModelSpec, points) -> tuple[list[float], str]:
    """The points where E s^X0 is finite, and why the rest SKIP: past a
    geometric x0's radius (the law's `diverges`, which reads no weight)."""
    kept = [s for s in points if not model.x0.diverges(s)]
    gone = " and ".join(f"s={_fmt(s)}" for s in points if s not in kept)
    return kept, gone and f"E s^X0 diverges at {gone}"


def _lemma1_audit(model: ModelSpec, steps: int) -> tuple[str, str]:
    s_star, mu = criteria.super_point(model)
    grid = [c * s_star for c in (0.9, 0.95, 0.99) if c * s_star > 1.0]
    if not grid:
        return "SKIPPED", (f"s-grid 0.9, 0.95, 0.99 times s*={_fmt(s_star)} "
                           f"lies at or below 1")
    # positive criterion values; d0 is +inf where E s^X0 diverges
    audited, skipped = _converging(model, [
        s for s in grid if criteria.d0(model.x0, model.a, s, mu) > 0.0])
    if not audited:
        return "SKIPPED", ("E s^X0 diverges on the s-grid" if skipped else
                           "criterion value not positive on the s-grid")
    worst = math.inf
    slack = LogReal.from_float(criteria.GROWTH_SLACK)
    unresolved = 0
    # one orbit pass for every point; rows are read s first, then n
    for s, rows in zip(audited, criteria.lemma1_growth_check(model, audited,
                                                             steps)):
        # row 0 is lhs(0) against itself, a margin of 0 whatever the model
        for row in rows[1:]:
            gap = _rel_margin(row.lhs_log - row.floor_log, row.floor_log)
            if not row.holds:
                return "FAIL", (f"s={_fmt(s)} n={row.n}: lhs below "
                                f"floor by {_fmt(-gap)} of the floor")
            # a row held only by float64 resolution has no margin to report
            if (row.lhs_log - row.floor_log + slack).sign < 0:
                unresolved += 1
            else:
                worst = min(worst, gap)
    margin = (f"{_fmt(worst)} of the floor" if worst < math.inf
              else "n/a: no resolved row past n=0")
    detail = f"{len(audited)} s-points, worst lhs margin {margin}"
    if unresolved:
        detail += (f"; rows below the floor within float64 resolution: "
                   f"{unresolved}")
    return "PASS", detail + (skipped and f"; SKIPPED ({skipped})")


def _lemma2_audit(model: ModelSpec, steps: int) -> tuple[str, str]:
    try:
        worst = criteria.lemma2_tail_check(model, steps)
    except ValueError as exc:
        return "SKIPPED", str(exc)
    if worst <= 1.0 + 1e-9:
        return "PASS", f"worst tail ratio {_fmt(worst)}"
    return "FAIL", f"worst tail ratio {_fmt(worst)} exceeds 1"


def _lemma3_audit(model: ModelSpec, steps: int) -> tuple[str, str]:
    point = criteria.sub_point(model)
    if point is None:
        return "SKIPPED", "requires bounded N"
    points, skipped = _converging(model, (point[0], 2.0 * point[0]))
    if not points:
        return "SKIPPED", skipped
    worst = math.inf
    for s, rows in zip(points, criteria.lemma3_contraction_check(
            model, points, steps)):
        for row in rows:
            if row.bound_log is None:
                continue
            gap = _rel_margin(row.bound_log - row.d_next_log, row.bound_log)
            worst = min(worst, gap)
            if not row.holds:
                return "FAIL", (f"s={_fmt(s)} n={row.n}: value above "
                                f"contraction bound by {_fmt(-gap)} "
                                f"of the bound")
    return "PASS", (f"worst contraction margin {_fmt(worst)} of the bound"
                    + (skipped and f"; SKIPPED ({skipped})"))


def _lemma4_audit(model: ModelSpec, steps: int) -> tuple[str, str]:
    # E X s^X >= E X * E s^X holds for every law and sub-law (Chebyshev's
    # association inequality): an evolved X_n could show only rounding
    slack = LogReal.from_float(1e-12)
    points, skipped = _converging(model, (1.5, 2.0))
    worst = math.inf
    for s in points:
        lhs, rhs = criteria.lemma4_association_check_log(model.x0, s)
        gap = (lhs - rhs).to_float()
        worst = min(worst, gap)
        if (lhs - rhs + slack).sign < 0:
            return "FAIL", f"s={_fmt(s)}: lhs below rhs by {_fmt(-gap)}"
    law = model.offspring
    for v in (1.0, 1.5, 2.0):
        try:
            vgp, lower, upper = criteria.offspring_association_check(law, v)
        except ValueError:
            continue  # outside the law's convergence region
        if vgp < lower - 1e-9 * max(1.0, abs(lower)):
            return "FAIL", f"v={_fmt(v)}: vG'(v) below mean*G(v)"
        if upper is not None and vgp > upper + 1e-9 * max(1.0, abs(upper)):
            return "FAIL", f"v={_fmt(v)}: vG'(v) above bound*G(v)"
    if not points:
        return "SKIPPED", skipped
    later = f"; n=1..{steps} hold by Chebyshev's association inequality"
    return "PASS", (f"worst lhs-rhs gap {_fmt(worst)} at n=0"
                    + (later if steps else "")
                    + (skipped and f"; SKIPPED ({skipped})"))


def cmd_check_lemmas(cfg: dict, args) -> int:
    model = parse_model(cfg)
    defaults = {"growth_steps": 8, "tail_steps": 20, "contraction_steps": 10,
                "association_steps": 10}
    block = _block(cfg, "check_lemmas", tuple(defaults))
    growth_steps, tail_steps, contraction_steps, association_steps = (
        _parse_count(block, key, "check_lemmas", default)
        for key, default in defaults.items())
    audits = [
        ("lemma1 growth-floor", _lemma1_audit(model, growth_steps)),
        ("lemma2 tail-bound", _lemma2_audit(model, tail_steps)),
        ("lemma3 contraction", _lemma3_audit(model, contraction_steps)),
        ("lemma4 association", _lemma4_audit(model, association_steps)),
    ]
    if args.output == "json":
        print(json.dumps({"audits": [
            {"name": name, "status": status, "detail": detail}
            for name, (status, detail) in audits]}, indent=2))
    elif args.output == "csv":
        print("audit,status,detail")
        for name, (status, detail) in audits:
            print(f'{name},{status},"{detail}"')
    else:
        for name, (status, detail) in audits:
            print(f"{name}: {status} ({detail})")
    return 1 if any(status == "FAIL" for _, (status, _) in audits) else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "classify": cmd_classify,
    "evolve": cmd_evolve,
    "estimate-q": cmd_estimate_q,
    "simulate": cmd_simulate,
    "scan": cmd_scan,
    "check-lemmas": cmd_check_lemmas,
}
# The commands that read each override flag; any other command rejects it.
_FLAG_READERS = {"steps": ("evolve", "estimate-q", "simulate"),
                 "seed": ("simulate",)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: main only reads it."""
    parser = argparse.ArgumentParser(
        prog="drphase",
        description="Exact evolution, phase classification and audits for "
                    "the clipped-sum recursion with random summand counts.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True,
                        help="path to the JSON experiment description")
    parser.add_argument("--output", choices=("table", "csv", "json"),
                        default="table")
    parser.add_argument("--seed", type=int, default=None,
                        help="simulate only: overrides simulate.seed")
    parser.add_argument("--steps", type=int, default=None,
                        help="evolve, estimate-q and simulate only: "
                             "overrides the command block's steps")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, readers in _FLAG_READERS.items():
        if getattr(args, flag) is not None and args.command not in readers:
            parser.error(f"--{flag} is read only by {', '.join(readers)}; "
                         f"{args.command} takes no {flag}")
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EvolutionStopped, OverflowError, MemoryError,
            BoundaryNotCertified) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
