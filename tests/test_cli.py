"""End-to-end checks of the command-line front end.

Most cases drive cli.main() in-process and inspect captured output; the
reproducibility checks run the installed module in subprocesses so that
environment variables and process state cannot bleed between runs.
"""

import csv
import json
import math
import subprocess
import sys
import tracemalloc

import mpmath
import pytest

from drphase import cli, criteria, dists, montecarlo
from drphase.dists import ModelSpec, OffspringLaw
from drphase.logreal import LogReal

from conftest import EDGE_ATOMS


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_config(**extra):
    doc = {
        "a": 1,
        "x0": {"type": "finite", "pmf": [[0, 0.5], [2, 0.5]]},
        "N": {"type": "deterministic", "n": 2},
    }
    doc.update(extra)
    return doc


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    """Parse the tool's own CSV output: header, data rows; '#' notes and
    blank lines are skipped.  The audit report quotes its detail column."""
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("no CSV content found")
    parsed = list(csv.reader(lines))
    header, rows = parsed[0], parsed[1:]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {i} has {len(row)} fields, "
                             f"expected {len(header)}")
    return header, rows


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_table_supercritical(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    code, out, err = run_main(["classify", "--config", cfg], capsys)
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "verdict: Supercritical",
        "d_super: 1.5",
        "s_super: 2",
        "d_sub: 1.5",
        "s_sub: 2",
    ]


def test_classify_json_undetermined(tmp_path, capsys):
    doc = base_config(a=2)
    doc["x0"] = {"type": "finite", "pmf": [[0, 0.6], [3, 0.4]]}
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["classify", "--config", cfg,
                             "--output", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Undetermined"
    assert doc["d_super"] < 0.0 < doc["d_sub"]
    assert doc["s_super"] == pytest.approx(2.0 ** 0.5)
    assert doc["s_sub"] == pytest.approx(1.5)


def test_classify_unbounded_renders_na(tmp_path, capsys):
    doc = base_config(N={"type": "geometric", "p": 0.5})
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["classify", "--config", cfg], capsys)
    assert code == 0
    assert "d_sub: n/a: N unbounded" in out.splitlines()
    assert "s_sub" not in out


def test_classify_geometric_x0(tmp_path, capsys):
    doc = base_config(x0={"type": "geometric", "p": 0.9})
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["classify", "--config", cfg], capsys)
    assert code == 0
    assert out.splitlines()[0] == "verdict: Subcritical"


def test_classify_constant_x0_is_config_error(tmp_path, capsys):
    doc = base_config(x0={"type": "finite", "pmf": [[3, 1.0]]})
    cfg = write_config(tmp_path, doc)
    code, out, err = run_main(["classify", "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: x0:")
    assert "is not a constant" in err


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run_main(
        ["classify", "--config", str(tmp_path / "absent.json")], capsys)
    assert code == 2
    assert "config: cannot read" in err


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_main(["classify", "--config", str(bad)], capsys)
    assert code == 2
    assert "is not valid JSON" in err


@pytest.mark.parametrize("p", [4e-05, 1e-05])
def test_classify_geometric_offspring_with_small_p(tmp_path, capsys, p):
    # np.power drift once put these weights out of the mass band
    cfg = write_config(tmp_path, base_config(N={"type": "geometric", "p": p}))
    code, out, err = run_main(["classify", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "verdict: Supercritical"


def test_offspring_without_growth_is_config_error(tmp_path, capsys):
    doc = base_config(N={"type": "finite", "pmf": [[1, 1.0]]})
    cfg = write_config(tmp_path, doc)
    code, _, err = run_main(["classify", "--config", cfg], capsys)
    assert code == 2
    assert err.startswith("config error: N:")


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_csv_two_steps(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(evolve={"steps": 2}))
    code, out, _ = run_main(["evolve", "--config", cfg,
                             "--output", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,mean,q_upper,q_lower,support_max,leaked_mass"
    header, rows = read_csv_rows(out)
    assert len(rows) == 3
    assert rows[0] == ["0", "1", "1", "0", "2", "0"]
    assert rows[1][0] == "1" and rows[1][1] == "1.25"
    assert rows[2][1] == "1.5625"
    q_upper = [float(r[2]) for r in rows]
    assert q_upper == sorted(q_upper, reverse=True)


def test_evolve_zero_steps(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(evolve={"steps": 0}))
    code, out, _ = run_main(["evolve", "--config", cfg,
                             "--output", "csv"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 2


def test_evolve_steps_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(evolve={"steps": 9}))
    code, out, _ = run_main(["evolve", "--config", cfg, "--steps", "1",
                             "--output", "csv"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 3


def test_evolve_negative_steps_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(evolve={"steps": -1}))
    code, _, err = run_main(["evolve", "--config", cfg], capsys)
    assert code == 2
    assert "evolve.steps: must be >= 0" in err


@pytest.mark.parametrize("command,block,key,value", [
    ("evolve", "evolve", "tail_eps", 2),
    ("evolve", "evolve", "tail_eps", -1.0),
    ("evolve", "evolve", "tail_eps", float("nan")),
    ("estimate-q", "estimate_q", "tail_eps", 1.0),
    ("evolve", "evolve", "leak_budget", -1.0),
    ("estimate-q", "estimate_q", "leak_budget", float("nan")),
    ("evolve", "evolve", "leak_budget", float("inf")),
    ("evolve", "evolve", "support_cap", -5),
    ("estimate-q", "estimate_q", "support_cap", 0),
    ("scan", "scan", "tolerance", float("nan")),
    ("scan", "scan", "tolerance", float("inf")),
    ("scan", "scan", "tolerance", 0.0)])
def test_bad_numeric_options_are_config_errors(tmp_path, capsys, command,
                                               block, key, value):
    doc = base_config()
    doc[block] = {key: value}
    if command == "scan":
        doc[block]["family"] = {"type": "two_point", "high": 2}
    cfg = write_config(tmp_path, doc)
    code, out, err = run_main([command, "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {block}.{key}: must ")


TWO_POINT = {"type": "two_point", "high": 2}


# (command, block path, unknown key); scan.family keys depend on its type
@pytest.mark.parametrize("command,path,key", [
    ("evolve", "evolve", "stpes"),
    ("evolve", "evolve", "tail_esp"),
    ("estimate-q", "estimate_q", "step"),
    ("simulate", "simulate", "popsize"),
    ("scan", "scan", "probe_band"),
    ("scan", "scan.family", "hihg"),
    ("scan", "scan.family", "high"),
    ("check-lemmas", "check_lemmas", "steps")])
def test_unknown_block_keys_are_config_errors(tmp_path, capsys, command,
                                              path, key):
    doc = base_config(simulate={"seed": 1, "steps": 1},
                      scan={"family": dict(TWO_POINT)})
    if key == "high":
        doc["scan"]["family"] = {"type": "geometric_x0"}
    node = doc
    for part in path.split("."):
        node = node.setdefault(part, {})
    node[key] = 2
    cfg = write_config(tmp_path, doc)
    code, out, err = run_main([command, "--config", cfg], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {path}.{key}: unknown key; ")


# (command, object, its definition, unknown key, the keys its type reads)
@pytest.mark.parametrize("command,path,node,key,reads", [
    ("classify", "x0", {"type": "finite", "pmf": [[0, 0.5], [2, 0.5]]},
     "p", "type, pmf"),
    ("classify", "x0", {"type": "geometric", "p": 0.5}, "pmf", "type, p"),
    ("scan", "x0", {"type": "geometric", "p": 0.5}, "n", "type, p"),
    ("classify", "N", {"type": "deterministic", "n": 2}, "p", "type, n"),
    ("classify", "N", {"type": "finite", "pmf": [[1, 0.5], [3, 0.5]]}, "n",
     "type, pmf"),
    ("evolve", "N", {"type": "geometric", "p": 0.5}, "pmf", "type, p"),
    ("scan", "N", {"type": "deterministic", "n": 2}, "high", "type, n")])
def test_unknown_model_keys_are_config_errors(tmp_path, capsys, command, path,
                                              node, key, reads):
    doc = base_config(scan={"family": dict(TWO_POINT)})
    doc[path] = dict(node, **{key: 0.3})
    cfg = write_config(tmp_path, doc)
    code, out, err = run_main([command, "--config", cfg], capsys)
    assert (code, out) == (2, "")
    assert err == (f"config error: {path}.{key}: unknown key; "
                   f"{path} reads {reads}\n")


@pytest.mark.parametrize("command,path,expected", [
    ("classify", "x0", "'finite' or 'geometric'"),
    ("classify", "N", "'deterministic', 'finite' or 'geometric'"),
    ("scan", "scan.family", "'two_point' or 'geometric_x0'")])
def test_unknown_object_types_are_config_errors(tmp_path, capsys, command,
                                                path, expected):
    doc = base_config(scan={"family": dict(TWO_POINT)})
    node = doc
    for part in path.split("."):
        node = node[part]
    node["type"] = "poisson"
    cfg = write_config(tmp_path, doc)
    code, out, err = run_main([command, "--config", cfg], capsys)
    assert (code, out) == (2, "")
    assert err == (f"config error: {path}.type: expected {expected}, "
                   f"got 'poisson'\n")


def without(key):
    doc = base_config()
    del doc[key]
    return doc


def finite_x0(pmf):
    return base_config(x0={"type": "finite", "pmf": pmf})


@pytest.mark.parametrize("command,doc,message", [
    ("classify", without("a"), "config.a: required key is missing"),
    ("classify", without("x0"), "x0: required key is missing"),
    ("classify", base_config(a=1.5), "config.a: expected int, got float"),
    ("classify", base_config(a=True),
     "config.a: expected a number, got a boolean"),
    ("classify", base_config(x0=[1]), "x0: expected an object, got list"),
    ("classify", finite_x0([]), "x0.pmf: expected a non-empty list of "
                                "[value, probability] pairs"),
    ("classify", finite_x0([[0, 0.5, 1]]),
     "x0.pmf[0]: expected a [value, probability] pair"),
    ("classify", finite_x0([[-1, 0.5], [2, 0.5]]),
     "x0.pmf[0][0]: value must be a nonnegative integer, got -1"),
    ("classify", finite_x0([[0, "a"]]),
     "x0.pmf[0][1]: probability must be a number"),
    ("classify", finite_x0([[0, 0.5], [0, 0.5]]),
     "x0.pmf[1][0]: duplicate value 0"),
    ("classify", finite_x0([[0, 0.5], [2, 0.4]]),
     "x0.pmf: total mass 0.9 outside the 1 +/- 1e-12 band"),
    ("classify", base_config(x0={"type": "geometric", "p": 1.5}),
     "x0.p: success probability must lie in (0, 1), got 1.5"),
    ("simulate", base_config(simulate={"pop_size": 0, "seed": 1}),
     "simulate.pop_size: must be >= 1, got 0"),
    ("scan", base_config(scan={"family": {"type": "two_point", "high": 0}}),
     "scan.family: high_value must be >= 1, got 0"),
], ids=["missing_a", "missing_x0", "float_a", "boolean_a", "x0_list",
        "empty_pmf", "bad_pair", "negative_value", "string_probability",
        "duplicate_value", "mass_off_one", "geometric_p", "pop_size_0",
        "two_point_high_0"])
def test_config_errors_name_the_field(tmp_path, capsys, command, doc,
                                      message):
    cfg = write_config(tmp_path, doc)
    code, out, err = run_main([command, "--config", cfg], capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: {message}\n"


def test_blocks_of_other_commands_are_not_read(tmp_path, capsys):
    # one config serves every command: a block is checked by its command
    doc = base_config(evolve={"steps": 1, "stpes": 2},
                      scan={"family": TWO_POINT, "probe_band": 0.1})
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["classify", "--config", cfg], capsys)
    assert code == 0
    assert out.splitlines()[0] == "verdict: Supercritical"


@pytest.mark.parametrize("command,flag", [
    ("classify", "--steps"), ("scan", "--steps"), ("check-lemmas", "--steps"),
    ("classify", "--seed"), ("evolve", "--seed"), ("estimate-q", "--seed"),
    ("scan", "--seed"), ("check-lemmas", "--seed")])
def test_override_flags_a_command_does_not_read_exit_2(tmp_path, capsys,
                                                       command, flag):
    cfg = write_config(tmp_path, base_config(scan={"family": TWO_POINT}))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, flag, "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {flag} is read only by " in err
    assert f"{command} takes no {flag[2:]}" in err


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    cfg = write_config(tmp_path, base_config())
    for argv in (["evolve", "--steps", "1"], ["classify"]):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["classify", "--config", cfg, "--seed", "2"])
            assert exc.value.code == 2
            assert "classify takes no seed" in capsys.readouterr().err
        assert run_main([*argv, "--config", cfg], capsys)[0] == 0


def test_evolve_leak_budget_exit3_with_partial_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        evolve={"steps": 30, "tail_eps": 1e-3, "leak_budget": 1e-12}))
    code, out, err = run_main(["evolve", "--config", cfg,
                               "--output", "csv"], capsys)
    assert code == 3
    assert err.startswith("error:")
    header, rows = read_csv_rows(out)
    assert header == "n,mean,q_upper,q_lower,support_max,leaked_mass".split(",")
    assert len(rows) >= 2
    # only rows within the budget; the next generation breaches it
    assert all(float(r[5]) <= 1e-12 for r in rows)
    assert err.endswith(f"at generation {int(rows[-1][0]) + 1}\n")


def test_evolve_support_cap_exit3(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        evolve={"steps": 30, "support_cap": 16}))
    code, _, err = run_main(["evolve", "--config", cfg], capsys)
    assert code == 3
    assert "exceeds cap" in err


# ---------------------------------------------------------------------------
# estimate-q
# ---------------------------------------------------------------------------


def test_estimate_q_supercritical_certifies(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(estimate_q={"steps": 20}))
    code, out, _ = run_main(["estimate-q", "--config", cfg,
                             "--output", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == 20
    assert 0.0 < doc["q_lower"] <= doc["q_upper"]
    assert doc["positive_limit_certified_at_n"] == 1


def test_estimate_q_subcritical_bracket(tmp_path, capsys):
    doc = base_config(estimate_q={"steps": 20})
    doc["x0"] = {"type": "finite", "pmf": [[0, 0.9], [2, 0.1]]}
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["estimate-q", "--config", cfg,
                             "--output", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    # the weight sweep collapses this law to exactly {0: 1} within 20 steps
    assert doc["q_lower"] <= 0.0 <= doc["q_upper"] < 1e-4
    assert "positive_limit_certified_at_n" not in doc


def test_estimate_q_readme_model_default_options_stop_at_n23(tmp_path,
                                                            capsys):
    # the default 30 steps would pass the 1e-9 leak budget at n = 23, which
    # the leak floor of row 22 predicts, so n = 22 is the last row
    cfg = write_config(tmp_path, base_config())
    code, out, err = run_main(["estimate-q", "--config", cfg], capsys)
    assert (code, out) == (3, "")
    assert err == ("error: cumulative leak of at least 1.578e-09 would "
                   "exceed budget 1.000e-09 at generation 23\n"
                   "partial bracket at n=22: "
                   "[0.15748447479209168, 0.15748471321067078]\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_requires_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        simulate={"steps": 2, "pop_size": 2000}))
    code, _, err = run_main(["simulate", "--config", cfg], capsys)
    assert code == 2
    assert ("simulate.seed: required key is missing "
            "(no silent default; pass --seed or set it)") in err


def test_simulate_seed_flag_suffices(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        simulate={"steps": 2, "pop_size": 2000}))
    code, out, _ = run_main(["simulate", "--config", cfg, "--seed", "7",
                             "--output", "csv"], capsys)
    assert code == 0
    header, rows = read_csv_rows(out)
    assert header == ["n", "mc_mean", "stderr", "exact_mean"]
    assert len(rows) == 3
    # the exact engine keeps up on this tiny model, so the column is filled
    assert rows[0][3] == "1" and rows[1][3] == "1.25"
    assert all(float(r[2]) >= 0.0 for r in rows)


def test_simulate_tracks_exact_mean(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        simulate={"steps": 4, "pop_size": 20000, "seed": 11}))
    code, out, _ = run_main(["simulate", "--config", cfg,
                             "--output", "csv"], capsys)
    assert code == 0
    _, rows = read_csv_rows(out)
    for n, mc_mean, stderr, exact in rows[1:]:
        assert abs(float(mc_mean) - float(exact)) <= 6.0 * float(stderr)


def test_simulate_prints_the_pool_run(tmp_path, capsys):
    # the mc_mean and stderr columns are montecarlo.pool_means' rows
    cfg = write_config(tmp_path, base_config(
        simulate={"steps": 4, "pop_size": 2000, "seed": 5}))
    code, out, _ = run_main(["simulate", "--config", cfg,
                             "--output", "json"], capsys)
    assert code == 0
    rows = [(r["mc_mean"], r["stderr"]) for r in json.loads(out)["rows"]]
    assert rows == montecarlo.pool_means(cli.parse_model(base_config()),
                                         2000, 4, 5)


def test_simulate_keeps_the_rows_before_a_cap_stop(tmp_path, capsys,
                                                    monkeypatch):
    # x0's top value passes the cap; only the stop's last row, generation
    # 1, is past it, so generation 0's exact mean is printed
    monkeypatch.setattr(cli, "AUDIT_SUPPORT_CAP", 4)
    cfg = write_config(tmp_path, base_config(
        x0={"type": "finite", "pmf": [[0, 0.5], [5, 0.5]]},
        simulate={"steps": 2, "pop_size": 10, "seed": 1}))
    code, out, err = run_main(["simulate", "--config", cfg,
                               "--output", "csv"], capsys)
    assert (code, err) == (0, "")
    assert [row[3] for row in read_csv_rows(out)[1]] == ["2.5", "", ""]


def test_simulate_prints_the_pool_where_the_exact_cut_does_not_fit(
        tmp_path, capsys):
    # x0's dense cut would hold 10^18 + 1 weights, which no allocation
    # gives: the exact column is empty and the pool, on x0's atoms, runs.
    # Past int64 the pool's draws refuse x0 as well
    doc = base_config(x0={"type": "finite", "pmf": [[0, 0.5], [10**18, 0.5]]},
                      simulate={"steps": 2, "pop_size": 1000, "seed": 1})
    code, out, err = run_main(["simulate", "--config",
                               write_config(tmp_path, doc), "--output", "csv"],
                              capsys)
    assert (code, err) == (0, "")
    header, rows = read_csv_rows(out)
    assert header == ["n", "mc_mean", "stderr", "exact_mean"]
    assert [(r[0], r[3]) for r in rows] == [("0", ""), ("1", ""), ("2", "")]
    assert float(rows[0][1]) == 5e17
    doc["x0"]["pmf"][1][0] = 10**20
    code, out, err = run_main(["simulate", "--config",
                               write_config(tmp_path, doc)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: x0 value ") \
        and "does not fit in int64" in err


def test_simulate_readme_model_exact_column_ends_at_n23(tmp_path, capsys):
    # the exact evolution passes the default leak budget at n = 23
    cfg = write_config(tmp_path, base_config(simulate={"pop_size": 1000}))
    code, out, err = run_main(["simulate", "--config", cfg, "--steps", "25",
                               "--seed", "1", "--output", "csv"], capsys)
    assert (code, err) == (0, "")
    _, rows = read_csv_rows(out)
    assert [r[0] for r in rows] == [str(n) for n in range(26)]
    assert all(r[3] != "" for r in rows[:23])
    assert all(r[3] == "" for r in rows[23:])


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_reports_gap_family(tmp_path, capsys):
    doc = {"a": 2, "N": {"type": "deterministic", "n": 2},
           "scan": {"family": {"type": "two_point", "high": 3},
                    "grid_points": 9}}
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["scan", "--config", cfg,
                             "--output", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "parameter,verdict,d_super,d_sub"
    header, rows = read_csv_rows(out)
    assert len(rows) == 9
    verdicts = [r[1] for r in rows]
    assert {"Supercritical", "Subcritical", "Undetermined"} >= set(verdicts)
    notes = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# super_boundary: [") for ln in notes)
    assert any(ln.startswith("# sub_boundary: [") for ln in notes)
    assert any(ln.startswith("# undetermined_band: [") for ln in notes)


def test_scan_coinciding_boundaries_empty_band(tmp_path, capsys):
    doc = {"a": 1, "N": {"type": "deterministic", "n": 2},
           "scan": {"family": {"type": "two_point", "high": 2}}}
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["scan", "--config", cfg,
                             "--output", "csv"], capsys)
    assert code == 0
    assert "# undetermined_band: none" in out.splitlines()


def test_scan_without_boundary_is_not_an_error(tmp_path, capsys):
    doc = {"a": 3, "N": {"type": "deterministic", "n": 2},
           "scan": {"family": {"type": "two_point", "high": 2}}}
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["scan", "--config", cfg,
                             "--output", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "# super_boundary: no boundary in range" in lines
    assert "# sub_boundary: no boundary in range" in lines
    _, rows = read_csv_rows(out)
    assert all(r[1] == "Subcritical" for r in rows)


def test_scan_unbounded_offspring_sub_unavailable(tmp_path, capsys):
    doc = {"a": 1, "N": {"type": "geometric", "p": 0.5},
           "scan": {"family": {"type": "two_point", "high": 2}}}
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["scan", "--config", cfg,
                             "--output", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert any(ln.startswith("# super_boundary: [") for ln in lines)
    assert any(ln.startswith("# sub_boundary: n/a (") for ln in lines)


def test_scan_config_validation(tmp_path, capsys):
    doc = {"a": 1, "N": {"type": "deterministic", "n": 2},
           "scan": {"family": {"type": "two_point", "high": 2},
                    "grid_points": 1}}
    cfg = write_config(tmp_path, doc)
    code, _, err = run_main(["scan", "--config", cfg], capsys)
    assert code == 2
    assert "scan.grid_points: must be >= 2" in err

    doc["scan"] = {"family": {"type": "ring", "high": 2}}
    cfg = write_config(tmp_path, doc, name="cfg2.json")
    code, _, err = run_main(["scan", "--config", cfg], capsys)
    assert code == 2
    assert "scan.family.type" in err


@pytest.mark.parametrize("command,a,family", [
    ("scan", 0, {"type": "two_point", "high": 2}),
    ("scan", -1, {"type": "two_point", "high": 2}),
    ("scan", 0, {"type": "geometric_x0"}),
    ("scan", -1, {"type": "geometric_x0"}),
    ("classify", 0, None),
])
def test_tax_below_one_is_a_config_error(tmp_path, capsys, command, a,
                                         family):
    doc = base_config(a=a)
    if family is not None:
        doc["scan"] = {"family": family}
    cfg = write_config(tmp_path, doc)
    code, out, err = run_main([command, "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert err == f"config error: config.a: must be >= 1, got {a}\n"


# command blocks that keep every run of a test model short
SHORT_BLOCKS = {"evolve": {"steps": 2}, "estimate_q": {"steps": 2},
                "simulate": {"steps": 2, "pop_size": 10, "seed": 1},
                "check_lemmas": {"growth_steps": 2, "tail_steps": 2,
                                 "contraction_steps": 2,
                                 "association_steps": 2}}


@pytest.mark.parametrize("command,law", [
    ("classify", "N"), ("evolve", "x0"), ("estimate-q", "x0"),
    ("simulate", "x0")])
def test_geometric_p_below_float_resolution_is_a_numerical_failure(
        tmp_path, capsys, command, law):
    # 1 - 1e-17 rounds to 1, so no cutoff of the weights ends the tail
    cfg = write_config(tmp_path, base_config(
        **{law: {"type": "geometric", "p": 1e-17}}, **SHORT_BLOCKS))
    code, out, err = run_main([command, "--config", cfg], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: geometric success "
                          "probability 1e-17 is below float resolution")


def test_classify_geometric_x0_below_float_resolution(tmp_path, capsys):
    # the closed form builds no weights, so classify still answers
    cfg = write_config(tmp_path, base_config(
        x0={"type": "geometric", "p": 1e-17}))
    code, out, err = run_main(["classify", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["verdict: Supercritical", "d_super: inf",
                                "s_super: 2", "d_sub: inf", "s_sub: 2"]


def test_check_lemmas_geometric_x0_below_float_resolution(tmp_path, capsys):
    # check-lemmas reads x0 as classify does, through its closed form, which
    # is infinite at every audited s > 1: nothing to audit, nothing to cut
    cfg = write_config(tmp_path, base_config(
        x0={"type": "geometric", "p": 1e-17}, **SHORT_BLOCKS))
    code, out, err = run_main(["check-lemmas", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "lemma1 growth-floor: SKIPPED (E s^X0 diverges on the s-grid)",
        "lemma2 tail-bound: SKIPPED (tail bound requires a Subcritical "
        "verdict, model classified Supercritical)",
        "lemma3 contraction: SKIPPED (E s^X0 diverges at s=2 and s=4)",
        "lemma4 association: SKIPPED (E s^X0 diverges at s=1.5 and s=2)"]


@pytest.mark.parametrize("command", ["classify", "evolve", "check-lemmas"])
@pytest.mark.parametrize("pmf", [[[2, math.nan]],
                                 [[1, 0.5], [2, math.nan], [3, 0.5]]])
def test_nan_offspring_weight_is_a_config_error(tmp_path, capsys, command,
                                                pmf):
    # json reads NaN; the weights must still be finite
    cfg = write_config(tmp_path, base_config(
        N={"type": "finite", "pmf": pmf}, **SHORT_BLOCKS))
    code, out, err = run_main([command, "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert err == "config error: N: weights must be finite\n"


# ---------------------------------------------------------------------------
# check-lemmas
# ---------------------------------------------------------------------------


def test_check_lemmas_subcritical_bounded(tmp_path, capsys, monkeypatch):
    # lemma2 is the one audit that evolves a law
    steps = []
    evolve = cli.evolution.evolve

    def counted(model, n, **kwargs):
        steps.append(n)
        return evolve(model, n, **kwargs)
    monkeypatch.setattr(cli.evolution, "evolve", counted)
    monkeypatch.setattr(criteria, "evolve", counted)
    doc = base_config(check_lemmas={"growth_steps": 4, "tail_steps": 12,
                                    "contraction_steps": 8,
                                    "association_steps": 6})
    doc["x0"] = {"type": "finite", "pmf": [[0, 0.9], [2, 0.1]]}
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["check-lemmas", "--config", cfg], capsys)
    assert code == 0
    assert steps == [12]
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith(
        "lemma1 growth-floor: SKIPPED (criterion value not positive")
    assert lines[1].startswith("lemma2 tail-bound: PASS")
    assert lines[2].startswith("lemma3 contraction: PASS")
    assert lines[3] == ("lemma4 association: PASS (worst lhs-rhs gap "
                        "0.22500000000000009 at n=0; n=1..6 hold by "
                        "Chebyshev's association inequality)")


def test_check_lemmas_unbounded_offspring(tmp_path, capsys):
    doc = base_config(N={"type": "geometric", "p": 0.5},
                      check_lemmas={"growth_steps": 2, "tail_steps": 2,
                                    "contraction_steps": 2,
                                    "association_steps": 2})
    doc["x0"] = {"type": "finite", "pmf": [[0, 0.9], [2, 0.1]]}
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["check-lemmas", "--config", cfg], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "lemma3 contraction: SKIPPED (requires bounded N)" in lines
    assert any(ln.startswith("lemma4 association: PASS") for ln in lines)


def test_check_lemmas_evolves_no_law_for_lemma4(tmp_path, capsys,
                                                monkeypatch):
    # E X s^X >= E X E s^X holds for every law (Chebyshev's association
    # inequality), so lemma4 audits x0 and evolves nothing; evolved laws
    # of N geometric p = .2 outgrow a gigabyte
    def no_evolution(*args, **kwargs):
        raise AssertionError("check-lemmas evolved a law")
    monkeypatch.setattr(cli.evolution, "evolve", no_evolution)
    monkeypatch.setattr(cli.evolution, "step", no_evolution)
    monkeypatch.setattr(criteria, "evolve", no_evolution)
    cfg = write_config(tmp_path, base_config(N={"type": "geometric",
                                                "p": 0.2}))
    code, out, _ = run_main(["check-lemmas", "--config", cfg], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("lemma2 tail-bound: SKIPPED")
    # the worst gap is x0's, and the default 10 steps are covered by the
    # inequality itself: {0: .5, 2: .5} at s = 1.5 gives 2.25 - 1.625
    assert lines[3] == ("lemma4 association: PASS (worst lhs-rhs gap 0.625 "
                        "at n=0; n=1..10 hold by Chebyshev's association "
                        "inequality)")
    model = cli.parse_model(base_config())
    assert cli._lemma4_audit(model, 0) == ("PASS",
                                           "worst lhs-rhs gap 0.625 at n=0")


def test_check_lemmas_geometric_x0_past_its_radius_builds_no_cut(
        tmp_path, capsys, monkeypatch):
    # x0 geometric p = 1e-5 diverges from s = 1/(1 - p) on: every s-point
    # of lemmas 1, 3 and 4 is past it, so no audit reads the 3.2M-entry cut
    def refuse(r):
        raise AssertionError(f"geometric_x0_pmf({r}) was built")
    monkeypatch.setattr(dists, "geometric_x0_pmf", refuse)
    cfg = write_config(tmp_path, base_config(
        x0={"type": "geometric", "p": 1e-5}, **SHORT_BLOCKS))
    code, out, err = run_main(["check-lemmas", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == ("lemma1 growth-floor: SKIPPED (E s^X0 diverges on "
                        "the s-grid)")
    assert lines[2] == ("lemma3 contraction: SKIPPED (E s^X0 diverges at "
                        "s=2 and s=4)")
    assert lines[3] == ("lemma4 association: SKIPPED (E s^X0 diverges at "
                        "s=1.5 and s=2)")


def test_check_lemmas_reads_x0_as_classify_does(tmp_path, capsys):
    # x0 {0: .5, 1e20: .5}: dense weights would need 1e20 entries; the
    # audits read its atoms, as classify does
    cfg = write_config(tmp_path, base_config(
        x0={"type": "finite", "pmf": [[0, 0.5], [10**20, 0.5]]}))
    code, out, err = run_main(["check-lemmas", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    assert [line.split(":")[1].split()[0] for line in out.splitlines()] \
        == ["PASS", "SKIPPED", "PASS", "PASS"]


def test_check_lemmas_lemma1_names_an_empty_s_grid(tmp_path, capsys):
    # geometric N p = .99 has mean 1/.99, so a = 1 puts s* at 1.0101 and
    # every grid point c s* (c = .9, .95, .99) at or below 1: lemma1 has no
    # point to audit, though the criterion value at s* is positive
    cfg = write_config(tmp_path, base_config(
        x0={"type": "finite", "pmf": [[0, 0.5], [400, 0.5]]},
        N={"type": "geometric", "p": 0.99}, **SHORT_BLOCKS))
    code, out, err = run_main(["classify", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == ["verdict: Supercritical",
                                    "d_super: 84.188309987383647",
                                    "s_super: 1.0101010101010102"]
    code, out, err = run_main(["check-lemmas", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == (
        "lemma1 growth-floor: SKIPPED (s-grid 0.9, 0.95, 0.99 times "
        "s*=1.0101010101010102 lies at or below 1)")


def test_converging_points_read_no_log_pair(monkeypatch):
    # only a geometric x0 diverges, and its radius decides where: the laws'
    # diverges(s), not a log pair evaluated for its inf
    def refuse(law, s):
        raise AssertionError(f"log_pgf_pair({s}) was evaluated")
    for cls in (dists.FinitePmf, dists.GeometricPmf, dists.AtomPmf):
        monkeypatch.setattr(cls, "log_pgf_pair", refuse)
    law = OffspringLaw.deterministic(2)
    for x0 in (dists.FinitePmf.from_dict({0: 0.5, 2: 0.5}),
               dists.AtomPmf.from_dict({0: 0.5, 1500: 0.5})):
        assert cli._converging(ModelSpec(1, x0, law), (1.5, 2.0, 1e300)) \
            == ([1.5, 2.0, 1e300], "")
    geometric = ModelSpec(1, dists.GeometricPmf(0.35), law)
    assert cli._converging(geometric, (1.5, 2.0, 4.0)) \
        == ([1.5], "E s^X0 diverges at s=2 and s=4")


def test_check_lemmas_reads_the_geometric_law_not_its_cut(tmp_path, capsys):
    # x0 geometric r = .35 converges for s < 1/0.65: lemma4 audits s = 1.5
    # and skips s = 2, and lemma1's grid (1.8, 1.9, 1.98) lies past it
    cfg = write_config(tmp_path, base_config(
        x0={"type": "geometric", "p": 0.35}, N={"type": "geometric", "p": 0.5},
        check_lemmas={"association_steps": 4}))
    code, out, _ = run_main(["check-lemmas", "--config", cfg], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("lemma1 growth-floor: SKIPPED (E s^X0 diverges on "
                        "the s-grid)")
    assert lines[3] == ("lemma4 association: PASS (worst lhs-rhs gap "
                        "520.00000000000364 at n=0; n=1..4 hold by "
                        "Chebyshev's association inequality; SKIPPED "
                        "(E s^X0 diverges at s=2))")
    # the law's own gap E[(X - E X) s^X] at s = 1.5, summed by mpmath from
    # the float r and q = 1 - r the code holds: 546 - 26 = 520.  The float
    # closed form divides by 1 - q s = 0.025, formed from q s = 0.975,
    # whose rounding costs ~39 ulps, doubled by the square: within 1e-14.
    with mpmath.workdps(40):
        r, q, s = mpmath.mpf(0.35), mpmath.mpf(1.0 - 0.35), mpmath.mpf(1.5)
        gap = mpmath.nsum(lambda k: r * (q * s) ** k * (k - q / r),
                          [0, mpmath.inf])
    assert abs(gap - 520) < 1e-11
    assert abs(520.00000000000364 - gap) <= 1e-14 * gap


@pytest.mark.parametrize("check,fake,line", [
    ("lemma1_growth_check",
     lambda model, points, steps: [[
         criteria.GrowthRow(0, True, LogReal.from_float(1.0),
                            LogReal.from_float(1.0)),
         criteria.GrowthRow(1, False, LogReal.from_float(0.5),
                            LogReal.from_float(1.0))] for _ in points],
     "lemma1 growth-floor: FAIL (s=1.8 n=1: lhs below floor by 0.5 of the "
     "floor)"),
    ("lemma2_tail_check", lambda model, steps: 1.5,
     "lemma2 tail-bound: FAIL (worst tail ratio 1.5 exceeds 1)"),
    ("lemma3_contraction_check",
     lambda model, points, steps: [[
         criteria.ContractionRow(0, True, LogReal.from_float(-1.0), None),
         criteria.ContractionRow(1, False, LogReal.from_float(-0.5),
                                 LogReal.from_float(-1.0))] for _ in points],
     "lemma3 contraction: FAIL (s=2 n=1: value above contraction bound by "
     "0.5 of the bound)"),
    ("lemma4_association_check_log",
     lambda p, s: (LogReal.from_float(1.0), LogReal.from_float(2.0)),
     "lemma4 association: FAIL (s=1.5: lhs below rhs by 1)"),
    ("offspring_association_check", lambda law, v: (1.0, 2.0, None),
     "lemma4 association: FAIL (v=1: vG'(v) below mean*G(v))"),
    ("offspring_association_check", lambda law, v: (3.0, 2.0, 2.5),
     "lemma4 association: FAIL (v=1: vG'(v) above bound*G(v))"),
], ids=["lemma1", "lemma2", "lemma3", "lemma4_x0", "lemma4_n_below",
        "lemma4_n_above"])
def test_check_lemmas_fail_details(tmp_path, capsys, monkeypatch, check,
                                   fake, line):
    # each audit's FAIL detail, from the criteria check it calls patched to
    # return a failing row (the patched lemma2 check has no Subcritical gate)
    monkeypatch.setattr(criteria, check, fake)
    doc = base_config(check_lemmas={"growth_steps": 2, "tail_steps": 2,
                                    "contraction_steps": 2,
                                    "association_steps": 2})
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["check-lemmas", "--config", cfg], capsys)
    assert code == 1
    assert line in out.splitlines()


def test_check_lemmas_builds_clip_heads_once_per_orbit_audit(
        tmp_path, capsys, monkeypatch):
    # the clip heads do not depend on s: lemma1's three s-points and
    # lemma3's two each share one orbit pass, so the README model's heads
    # are built twice (8 and 10 steps), not once per s-point
    steps = []
    clip_heads = cli.evolution._clip_heads

    def counted(x0, weights, a, n):
        steps.append(n)
        return clip_heads(x0, weights, a, n)
    monkeypatch.setattr(cli.evolution, "_clip_heads", counted)
    cfg = write_config(tmp_path, base_config())
    code, out, _ = run_main(["check-lemmas", "--config", cfg], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith(
        "lemma1 growth-floor: PASS (3 s-points, ")
    assert steps == [8, 10]


def test_check_lemmas_fail_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_lemma2_audit",
                        lambda model, steps: ("FAIL", "forced for the test"))
    doc = base_config(check_lemmas={"growth_steps": 2, "tail_steps": 2,
                                    "contraction_steps": 2,
                                    "association_steps": 2})
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["check-lemmas", "--config", cfg], capsys)
    assert code == 1
    assert "lemma2 tail-bound: FAIL (forced for the test)" in out.splitlines()


@pytest.mark.parametrize("key", ["growth_steps", "tail_steps",
                                 "contraction_steps", "association_steps"])
def test_check_lemmas_negative_steps_is_config_error(tmp_path, capsys,
                                                     monkeypatch, key):
    def no_evolution(*args, **kwargs):
        raise AssertionError("evolved before validating the config")
    monkeypatch.setattr(cli.evolution, "evolve", no_evolution)
    monkeypatch.setattr(cli.evolution, "step", no_evolution)
    monkeypatch.setattr(criteria, "evolve", no_evolution)
    cfg = write_config(tmp_path, base_config(check_lemmas={key: -3}))
    code, out, err = run_main(["check-lemmas", "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert f"check_lemmas.{key}: must be >= 0, got -3" in err


def test_check_lemmas_contraction_holds_in_the_fft_regime(tmp_path, capsys):
    # x0 {0: .5, 200: .5} under N = 3: an evolved law takes its steps
    # through the FFT from n = 4 on, and at n = 9 its support passes the
    # 2^21 audit cap.  The orbit evolves no law; at n = 11 and 12 its logs
    # reach ~1e8 and rows sit within float64 resolution of the bound.
    growth_steps = 4
    for contraction_steps in (4, 10, 12):
        doc = base_config(N={"type": "deterministic", "n": 3},
                          check_lemmas={"growth_steps": growth_steps,
                                        "tail_steps": 1,
                                        "contraction_steps": contraction_steps,
                                        "association_steps": 1})
        doc["x0"] = {"type": "finite", "pmf": [[0, 0.5], [200, 0.5]]}
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_main(["check-lemmas", "--config", cfg], capsys)
        lines = out.splitlines()
        assert code == 0, (contraction_steps, out)
        assert lines[2].startswith("lemma3 contraction: PASS ("), lines[2]
    # lemma1 reads as it does from the per-s-point public audit: the worst
    # margin is over the rows past n = 0, where lhs is its own floor
    model = cli.parse_model(doc)
    s_star, mu = criteria.super_point(model)
    points = [c * s_star for c in (0.9, 0.95, 0.99)]
    assert all(criteria.d0(model.x0, model.a, s, mu) > 0.0 for s in points)
    worst = min(
        cli._rel_margin(row.lhs_log - row.floor_log, row.floor_log)
        for s in points
        for row in criteria.lemma1_growth_check(model, [s], growth_steps)[0]
        if row.n >= 1)
    assert worst > 0.0
    assert lines[0] == ("lemma1 growth-floor: PASS (3 s-points, "
                        f"worst lhs margin {cli._fmt(worst)} of the floor)")


def test_rel_margin_against_an_infinite_reference():
    # a margin relative to an infinite reference keeps only its sign
    inf = LogReal.from_log(math.inf)
    assert cli._rel_margin(LogReal.from_float(-2.0), inf) == -math.inf
    assert cli._rel_margin(LogReal.from_float(3.0), inf) == math.inf
    assert cli._rel_margin(LogReal.from_float(0.0), inf) == 0.0


def test_check_lemmas_zero_growth_steps_has_no_margin(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(check_lemmas={"growth_steps": 0}))
    code, out, _ = run_main(["check-lemmas", "--config", cfg], capsys)
    assert code == 0
    assert out.splitlines()[0] == ("lemma1 growth-floor: PASS (3 s-points, "
                                   "worst lhs margin n/a: no resolved row "
                                   "past n=0)")


def test_check_lemmas_growth_rows_beyond_float_resolution_pass(tmp_path,
                                                              capsys):
    # log F_n reaches ~3e18 by n = 11, where one ulp of a log is 512: the
    # sign of lhs is rounding noise there, not a failed growth floor
    doc = {"a": 2, "x0": {"type": "finite",
                          "pmf": [[0, 0.5], [3, 0.3], [6, 0.2]]},
           "N": {"type": "geometric", "p": 0.45},
           "check_lemmas": {"growth_steps": 12}}
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["check-lemmas", "--config", cfg], capsys)
    assert code == 0
    line = out.splitlines()[0]
    assert line.startswith("lemma1 growth-floor: PASS (3 s-points, ")
    assert line.endswith("within float64 resolution: 6)")


def test_check_lemmas_csv_round_trips_quoted_details(tmp_path, capsys):
    doc = base_config(check_lemmas={"growth_steps": 3, "tail_steps": 3,
                                    "contraction_steps": 3,
                                    "association_steps": 3})
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["check-lemmas", "--config", cfg,
                             "--output", "csv"], capsys)
    assert code == 0
    header, rows = read_csv_rows(out)
    assert header == ["audit", "status", "detail"]
    assert [r[0] for r in rows] == ["lemma1 growth-floor", "lemma2 tail-bound",
                                    "lemma3 contraction", "lemma4 association"]
    assert all(r[1] in {"PASS", "FAIL", "SKIPPED"} for r in rows)
    # lemma1's detail carries a comma inside the quoted cell
    assert "," in rows[0][2]


def test_check_lemmas_unallocatable_head_is_a_numerical_failure(tmp_path,
                                                                capsys):
    # lemma1's clip heads would need a * steps = 8e15 float64 (71 PiB), far
    # above any user address space, so numpy refuses before allocating; a
    # failed allocation is no failed audit (exit 1)
    cfg = write_config(tmp_path, base_config(a=10**15))
    code, out, err = run_main(["check-lemmas", "--config", cfg], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: ")


# lengths of 2^60 float64 and more, which numpy refuses with a ValueError
# rather than the MemoryError of a smaller failed allocation; x0's weights
# are an array only where evolve reads them
@pytest.mark.parametrize("command,doc", [
    ("check-lemmas", base_config(a=10**20)),
    ("check-lemmas", base_config(check_lemmas={"growth_steps": 10**19})),
    ("evolve", base_config(x0={"type": "finite",
                               "pmf": [[0, 0.5], [10**20, 0.5]]})),
    ("classify", base_config(N={"type": "finite",
                                "pmf": [[1, 0.5], [10**20, 0.5]]})),
    ("classify", base_config(N={"type": "deterministic", "n": 10**20})),
], ids=["a", "growth_steps", "x0_value", "N_value", "deterministic_n"])
def test_array_beyond_numpy_limit_is_a_numerical_failure(tmp_path, capsys,
                                                        command, doc):
    cfg = write_config(tmp_path, doc)
    code, out, err = run_main([command, "--config", cfg], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: cannot allocate ")


def test_classify_and_scan_read_no_array_past_numpys_limit(tmp_path, capsys):
    # a finite x0 is its atoms, and a two-point family member too: only
    # evolve's weights (above) would be an array
    for command, doc in (
            ("classify", base_config(x0={"type": "finite",
                                         "pmf": [[0, 0.5], [10**20, 0.5]]})),
            ("scan", base_config(scan={"family": {"type": "two_point",
                                                  "high": 10**20}}))):
        code, out, err = run_main([command, "--config",
                                   write_config(tmp_path, doc)], capsys)
        assert (code, err) == (0, ""), command
        assert out.startswith("verdict: " if command == "classify"
                              else "parameter"), command


def peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_classify_of_a_sparse_config_x0_allocates_no_weight_array(tmp_path,
                                                                   capsys):
    cfg = write_config(tmp_path, base_config(
        x0={"type": "finite", "pmf": [[0, 0.999], [20_000_000, 0.001]]}))
    run_main(["classify", "--config", cfg], capsys)  # imports and caches
    peak = peak_traced_bytes(
        lambda: run_main(["classify", "--config", cfg], capsys))
    assert peak < 1 << 20
    code, out, err = run_main(["classify", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["verdict: Supercritical", "d_super: inf"]


def test_scan_validates_its_ignored_x0_without_allocating(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        x0={"type": "finite", "pmf": [[0, 0.5], [10**12, 0.5]]},
        scan={"family": {"type": "two_point", "high": 3}, "grid_points": 5}))
    run_main(["scan", "--config", cfg], capsys)
    peak = peak_traced_bytes(lambda: run_main(["scan", "--config", cfg],
                                              capsys))
    assert peak < 1 << 20
    code, out, err = run_main(["scan", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    bad = write_config(tmp_path, base_config(
        x0={"type": "finite", "pmf": [[0, 0.5], [10**12, 0.4]]},
        scan={"family": {"type": "two_point", "high": 3}}), "bad.json")
    code, out, err = run_main(["scan", "--config", bad], capsys)
    assert (code, out) == (2, "")
    assert err == ("config error: x0.pmf: total mass 0.9 outside the "
                   "1 +/- 1e-12 band\n")


@pytest.mark.parametrize("argv", [
    ["classify"], ["evolve", "--steps", "0"], ["estimate-q", "--steps", "0"],
    ["check-lemmas"], ["simulate", "--steps", "0", "--seed", "1"]],
    ids=lambda argv: argv[0])
def test_x0_mass_is_checked_once(tmp_path, capsys, argv):
    # atoms inside the mass band whose dense sum is not: the commands that
    # read the dense weights take them as the atoms were checked
    cfg = write_config(tmp_path, base_config(
        x0={"type": "finite", "pmf": [[v, w] for v, w in EDGE_ATOMS.items()]}))
    code, out, err = run_main(argv + ["--config", cfg], capsys)
    assert (code, err) == (0, "") and out


def test_x0_at_the_mass_bands_edge_stops_with_partial_output(tmp_path, capsys):
    # the x0's mass 1 - 9e-13 passes; its square, generation 1's, leaves the
    # band, which stops the evolution as its leak and cap stops do
    cfg = write_config(tmp_path, base_config(
        x0={"type": "finite", "pmf": [[0, 0.5], [2, 0.4999999999991]]},
        simulate={"seed": 1, "pop_size": 10}))
    band = "the law of generation 1: total mass 0.9999999999982001 outside"
    code, out, err = run_main(["evolve", "--steps", "1", "--output", "csv",
                               "--config", cfg], capsys)
    assert code == 3 and band in err
    assert [row[0] for row in read_csv_rows(out)[1]] == ["0"]
    code, out, err = run_main(["estimate-q", "--steps", "1",
                               "--config", cfg], capsys)
    assert (code, out) == (3, "") and band in err
    assert "partial bracket at n=0" in err
    code, out, err = run_main(["simulate", "--steps", "2", "--output", "csv",
                               "--config", cfg], capsys)
    assert (code, err) == (0, "")
    assert [row[3] for row in read_csv_rows(out)[1]] == ["0.9999999999982", "", ""]


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


# the json keys, csv header and json row keys of each command's output
OUTPUT_SHAPES = {
    "classify": ({"verdict", "d_super", "s_super", "d_sub", "s_sub"},
                 "key,value", None),
    "estimate-q": ({"steps", "q_lower", "q_upper",
                    "positive_limit_certified_at_n"}, "key,value", None),
    "evolve": ({"rows"}, cli.EVOLVE_CSV_HEADER, cli.EVOLVE_CSV_HEADER),
    "simulate": ({"rows"}, "n,mc_mean,stderr,exact_mean",
                 "n,mc_mean,stderr,exact_mean"),
    "scan": ({"rows", "notes"}, cli.SCAN_CSV_HEADER, cli.SCAN_CSV_HEADER),
    "check-lemmas": ({"audits"}, "audit,status,detail", "name,status,detail"),
}


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(OUTPUT_SHAPES))
def test_every_command_writes_csv_and_json(tmp_path, capsys, command,
                                           output):
    cfg = write_config(tmp_path, base_config(scan={"family": TWO_POINT},
                                             **SHORT_BLOCKS))
    code, out, err = run_main([command, "--config", cfg, "--output", output],
                              capsys)
    assert (code, err) == (0, "")
    keys, header, row_keys = OUTPUT_SHAPES[command]
    if output == "csv":
        assert out.splitlines()[0] == header
        return
    doc = json.loads(out)
    assert set(doc) == keys
    if row_keys is not None:
        rows = doc["audits" if command == "check-lemmas" else "rows"]
        assert rows
        assert all(list(row) == row_keys.split(",") for row in rows)


def test_read_csv_rows_skips_notes_and_unquotes_cells():
    header, rows = read_csv_rows('a,b\n\n1,"x, y"\n# a note\n2,z\n')
    assert header == ["a", "b"]
    assert rows == [["1", "x, y"], ["2", "z"]]


def test_read_csv_rows_rejects_ragged_and_empty():
    with pytest.raises(ValueError, match="no CSV content"):
        read_csv_rows("\n# only a note\n")
    with pytest.raises(ValueError, match="row 0 has 2 fields"):
        read_csv_rows("a,b,c\n1,2\n")


def test_float_cells_use_17_significant_digits(tmp_path, capsys):
    doc = base_config(x0={"type": "finite", "pmf": [[0, 2.0 / 3.0],
                                                    [2, 1.0 / 3.0]]},
                      evolve={"steps": 1})
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["evolve", "--config", cfg,
                             "--output", "csv"], capsys)
    assert code == 0
    _, rows = read_csv_rows(out)
    assert float(rows[0][1]) == 2.0 / 3.0
    assert rows[0][1] == f"{2.0 / 3.0:.17g}"


# ---------------------------------------------------------------------------
# subprocess-level reproducibility
# ---------------------------------------------------------------------------


def module_cmd(*args):
    return [sys.executable, "-m", "drphase", *args]


def run_proc(args):
    return subprocess.run(args, capture_output=True, text=True, timeout=600)


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, base_config())
    proc = run_proc(module_cmd("classify", "--config", cfg))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "verdict: Supercritical"


def test_simulate_byte_identical_runs(tmp_path):
    cfg = write_config(tmp_path, base_config(
        simulate={"steps": 5, "pop_size": 5000, "seed": 123}))
    args = module_cmd("simulate", "--config", cfg, "--output", "csv")
    first = run_proc(args)
    again = run_proc(args)
    assert first.returncode == 0
    assert again.returncode == 0
    assert first.stdout == again.stdout
    assert first.stdout.splitlines()[0] == "n,mc_mean,stderr,exact_mean"
