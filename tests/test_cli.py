"""End-to-end checks of the command-line front end.

Most cases drive cli.main() in-process and inspect captured output; the
reproducibility checks run the installed module in subprocesses so that
environment variables and process state cannot bleed between runs.
"""

import json
import math
import subprocess
import sys

import pytest

from drphase import cli, criteria


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
    header, rows = cli.read_csv_rows(out)
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


def test_evolve_leak_budget_exit3_with_partial_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        evolve={"steps": 30, "tail_eps": 1e-3, "leak_budget": 1e-12}))
    code, out, err = run_main(["evolve", "--config", cfg,
                               "--output", "csv"], capsys)
    assert code == 3
    assert err.startswith("error:")
    header, rows = cli.read_csv_rows(out)
    assert header == "n,mean,q_upper,q_lower,support_max,leaked_mass".split(",")
    assert len(rows) >= 2
    assert float(rows[-1][5]) > 1e-12


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
    header, rows = cli.read_csv_rows(out)
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
    _, rows = cli.read_csv_rows(out)
    for n, mc_mean, stderr, exact in rows[1:]:
        assert abs(float(mc_mean) - float(exact)) <= 6.0 * float(stderr)


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
    header, rows = cli.read_csv_rows(out)
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
    _, rows = cli.read_csv_rows(out)
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
    ("simulate", "x0"), ("check-lemmas", "x0")])
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


def test_check_lemmas_subcritical_bounded(tmp_path, capsys):
    doc = base_config(check_lemmas={"growth_steps": 4, "tail_steps": 12,
                                    "contraction_steps": 8,
                                    "association_steps": 6})
    doc["x0"] = {"type": "finite", "pmf": [[0, 0.9], [2, 0.1]]}
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["check-lemmas", "--config", cfg], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith(
        "lemma1 growth-floor: SKIPPED (criterion value not positive")
    assert lines[1].startswith("lemma2 tail-bound: PASS")
    assert lines[2].startswith("lemma3 contraction: PASS")
    assert lines[3].startswith("lemma4 association: PASS")


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
    points = cli._growth_points(model)
    worst = min(
        cli._rel_margin(row.lhs_log - row.floor_log, row.floor_log)
        for s in points
        for row in criteria.lemma1_growth_check(model, s, growth_steps)
        if row.n >= 1)
    assert worst > 0.0
    assert lines[0] == (f"lemma1 growth-floor: PASS ({len(points)} s-points, "
                        f"worst lhs margin {cli._fmt(worst)} of the floor)")
    assert len(points) == 3


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
    header, rows = cli.read_csv_rows(out)
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
# rather than the MemoryError of a smaller failed allocation
@pytest.mark.parametrize("command,doc", [
    ("check-lemmas", base_config(a=10**20)),
    ("check-lemmas", base_config(check_lemmas={"growth_steps": 10**19})),
    ("scan", base_config(scan={"family": {"type": "two_point",
                                          "high": 10**20}})),
    ("classify", base_config(x0={"type": "finite",
                                 "pmf": [[0, 0.5], [10**20, 0.5]]})),
    ("classify", base_config(N={"type": "finite",
                                "pmf": [[1, 0.5], [10**20, 0.5]]})),
    ("classify", base_config(N={"type": "deterministic", "n": 10**20})),
], ids=["a", "growth_steps", "two_point_high", "x0_value", "N_value",
        "deterministic_n"])
def test_array_beyond_numpy_limit_is_a_numerical_failure(tmp_path, capsys,
                                                        command, doc):
    cfg = write_config(tmp_path, doc)
    code, out, err = run_main([command, "--config", cfg], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: cannot allocate ")


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def test_read_csv_rows_rejects_ragged_and_empty():
    with pytest.raises(ValueError, match="no CSV content"):
        cli.read_csv_rows("\n# only a note\n")
    with pytest.raises(ValueError, match="row 0 has 2 fields"):
        cli.read_csv_rows("a,b,c\n1,2\n")


def test_float_cells_use_17_significant_digits(tmp_path, capsys):
    doc = base_config(x0={"type": "finite", "pmf": [[0, 2.0 / 3.0],
                                                    [2, 1.0 / 3.0]]},
                      evolve={"steps": 1})
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_main(["evolve", "--config", cfg,
                             "--output", "csv"], capsys)
    assert code == 0
    _, rows = cli.read_csv_rows(out)
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
