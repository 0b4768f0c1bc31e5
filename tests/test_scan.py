"""Parameter-family scans and their closed-form boundaries."""

import inspect
import json
import math
import warnings

import mpmath
import numpy as np
import pytest

import drphase
import drphase.scan as scan_module
from drphase import cli, criteria, dists, evolution, montecarlo
from drphase.criteria import SUBCRITICAL, SUPERCRITICAL, UNDETERMINED
from drphase.dists import ModelSpec, OffspringLaw, geometric_x0_pmf
from drphase.logreal import LogReal
from drphase.scan import (
    CriterionUnavailable,
    GeometricX0Family,
    NoSignChange,
    TwoPointFamily,
    bisect_boundary,
    boundary_report,
    scan,
)
from test_dists import (SWEEP_LAWS, old_log_pgf_deriv, old_log_pgf_eval,
                        old_pgf_deriv, old_pgf_eval, sweep_test_points,
                        two_point_edge_points)


def test_drphase_scan_is_the_module():
    # the package re-exports the scanner's names, not the scan function,
    # so the attribute and "import drphase.scan" reach the module
    assert inspect.ismodule(scan_module)
    assert drphase.scan is scan_module
    assert scan_module.scan is scan


def unit_family():
    return TwoPointFamily(a=1, high_value=2,
                          offspring=OffspringLaw.deterministic(2))


def gap_family():
    return TwoPointFamily(a=2, high_value=3,
                          offspring=OffspringLaw.deterministic(2))


def test_bisection_unit_tax_both_roots_at_one_fifth():
    fam = unit_family()
    for which in ("super", "sub"):
        lo, hi = bisect_boundary(fam, which, tol=1e-9)
        assert hi - lo <= 1e-9
        assert lo <= 0.2 <= hi


def test_bisection_gap_family_roots():
    fam = gap_family()
    lo, hi = bisect_boundary(fam, "sub", tol=1e-9)
    assert lo <= 2.0 / 5.375 <= hi
    lo, hi = bisect_boundary(fam, "super", tol=1e-9)
    assert lo <= math.sqrt(2.0) - 1.0 <= hi


def test_bisection_result_independent_of_grid_points():
    # bisection never consults the grid; boundary_report at different grid
    # sizes returns the same intervals
    fam = gap_family()
    a = boundary_report(fam, grid_points=5)
    b = boundary_report(fam, grid_points=33)
    assert a.super_boundary == b.super_boundary
    assert a.sub_boundary == b.sub_boundary


def test_scan_verdict_layout_monotone():
    # d0 is affine in the two-point parameter, so no Subcritical verdict may
    # appear above any Supercritical one
    for fam in (unit_family(), gap_family()):
        grid = scan(fam, 41)
        last_super = -1.0
        first_sub = 2.0
        for p, v in grid:
            if v.verdict == SUPERCRITICAL:
                last_super = max(last_super, p)
            elif v.verdict == SUBCRITICAL:
                first_sub = min(first_sub, p)
        assert first_sub <= last_super or first_sub == 2.0 or last_super == -1.0
        for p, v in grid:
            if v.verdict == SUBCRITICAL:
                assert p < last_super or last_super == -1.0 or p < first_sub + 1
    # concretely for the gap family: Sub below 0.37, Super above 0.42
    for p, v in scan(gap_family(), 101):
        if p <= 0.37:
            assert v.verdict == SUBCRITICAL
        elif p >= 0.42:
            assert v.verdict == SUPERCRITICAL
        elif 0.3721 < p < 0.4142:
            assert v.verdict == UNDETERMINED


def test_boundary_report_gap_band():
    rep = boundary_report(gap_family(), grid_points=9, tol=1e-9)
    assert rep.undetermined_band is not None
    lo, hi = rep.undetermined_band
    assert lo == pytest.approx(2.0 / 5.375, abs=1e-8)
    assert hi == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-8)
    assert rep.super_boundary[0] >= rep.sub_boundary[1]  # no overlap


def test_boundary_report_unit_tax_band_collapses():
    rep = boundary_report(unit_family(), grid_points=9, tol=1e-9)
    assert rep.undetermined_band is None or \
        rep.undetermined_band[1] - rep.undetermined_band[0] <= 2e-9


@pytest.mark.parametrize("high", [1, 2, 3])
def test_boundary_report_bisects_once_where_the_test_points_coincide(
        high, monkeypatch):
    # deterministic N with a = 1: the sub test point is the super one, so
    # is the sub boundary, or its reason for missing (high 1: no sign
    # change on the range)
    fam = TwoPointFamily(1, high, OffspringLaw.deterministic(3))
    assert criteria.sub_point(fam) == criteria.super_point(fam)
    bisect = scan_module.bisect_boundary
    certified = scan_module._certified_root
    calls = []

    def counted(family, which, *args):
        calls.append(which)
        return certified(family, which, *args)
    monkeypatch.setattr(scan_module, "_certified_root", counted)
    rep = boundary_report(fam, 9)
    assert calls == ["super"]
    assert rep.sub_boundary == rep.super_boundary
    assert rep.sub_missing is rep.super_missing
    try:
        assert bisect(fam, "sub", scan_module.DEFAULT_TOL) == rep.sub_boundary
    except NoSignChange:
        assert rep.sub_boundary is None
        assert isinstance(rep.sub_missing, NoSignChange)
    calls.clear()
    boundary_report(TwoPointFamily(2, high, OffspringLaw.deterministic(3)), 9)
    assert calls == ["super", "sub"]


def test_boundary_report_evaluates_no_range_end(monkeypatch):
    # the grid holds the criterion at both ends of the range; only the
    # ends of the two certified intervals are evaluated again
    fam = TwoPointFamily(2, 3, SWEEP_LAWS[2])
    value = scan_module._criterion_value
    params = []
    monkeypatch.setattr(scan_module, "_criterion_value",
                        lambda family, which, param:
                        params.append(param) or value(family, which, param))
    rep = boundary_report(fam, 41)
    ends = {scan_module.EPS_PARAM, 1.0 - scan_module.EPS_PARAM}
    assert len(params) == 4 and not ends & set(params)
    assert rep.super_boundary == bisect_boundary(fam, "super")
    assert rep.sub_boundary == bisect_boundary(fam, "sub")
    assert set(params[4:]) >= ends


def test_no_sign_change_is_an_explicit_outcome():
    # a=3 with high=2 keeps the supercritical criterion negative on (0,1)
    fam = TwoPointFamily(a=3, high_value=2,
                         offspring=OffspringLaw.deterministic(2))
    with pytest.raises(NoSignChange):
        bisect_boundary(fam, "super")
    rep = boundary_report(fam, grid_points=5)
    assert rep.super_boundary is None


def test_criterion_unavailable_for_unbounded_offspring():
    fam = TwoPointFamily(a=1, high_value=2,
                         offspring=OffspringLaw.geometric(0.5))
    with pytest.raises(CriterionUnavailable):
        bisect_boundary(fam, "sub")
    # the supercritical criterion still works
    lo, hi = bisect_boundary(fam, "super", tol=1e-9)
    assert hi - lo <= 1e-9


@pytest.mark.parametrize("family", [
    TwoPointFamily(1, 2, OffspringLaw.geometric(0.5)),
    GeometricX0Family(1, OffspringLaw.geometric(0.5)),
])
def test_unavailable_criterion_builds_no_law(monkeypatch, family):
    built = []
    cls = type(family)
    for name in ("law", "model"):
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, p, real=real:
                            built.append(p) or real(self, p))
    with pytest.raises(CriterionUnavailable,
                       match="requires a bounded offspring law"):
        bisect_boundary(family, "sub")
    assert built == []


def test_family_parameter_validation():
    fam = unit_family()
    with pytest.raises(ValueError):
        fam.model(0.0)
    with pytest.raises(ValueError):
        fam.model(1.0)
    with pytest.raises(ValueError):
        scan(fam, 1)
    with pytest.raises(ValueError):
        bisect_boundary(fam, "both")
    with pytest.raises(ValueError):
        bisect_boundary(fam, "super", tol=0.0)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        bisect_boundary(fam, "super", tol=math.nan)


def test_geometric_x0_pmf_shape():
    p = geometric_x0_pmf(0.5)
    assert p.leaked_mass == 0.0
    assert p.mass_at(0) == 0.5
    assert p.mass_at(3) == pytest.approx(0.5**4)
    assert 0.0 < 1.0 - p.total_mass < 1e-13
    with pytest.raises(ValueError):
        geometric_x0_pmf(1.0)


def test_geometric_x0_family_scans():
    fam = GeometricX0Family(a=1, offspring=OffspringLaw.deterministic(2))
    grid = scan(fam, 9)
    verdicts = {v.verdict for _, v in grid}
    assert SUPERCRITICAL in verdicts
    assert SUBCRITICAL in verdicts
    lo, hi = bisect_boundary(fam, "super", tol=1e-9)
    assert 0.0 < lo < hi < 1.0
    # closed-form root of the criterion in r is 3/4; the 1e-14 support
    # truncation shifts the computed root by a few 1e-7 at most
    assert abs((lo + hi) / 2 - 0.75) < 1e-5


# -- classify and scans against the per-function code they replaced ---------

def old_d0(model, s, m):
    """d0 as it was before the one-pass evaluator, on the kept functions
    and the law's weights."""
    x = model.x0.cut
    with np.errstate(over="ignore"):
        first = (m - 1.0) * s * old_pgf_deriv(x, s)
        second = model.a * old_pgf_eval(x, s)
    if math.isfinite(first) and math.isfinite(second):
        return first - second
    first = LogReal.from_float((m - 1.0) * s) \
        * LogReal.from_log(old_log_pgf_deriv(x, s))
    second = LogReal.from_float(float(model.a)) \
        * LogReal.from_log(old_log_pgf_eval(x, s))
    return (first - second).to_float()


def old_classify(model):
    """classify as it was, each criterion evaluated on its own and the
    verdict rule applied here: (verdict, d_super, d_sub, s_super, s_sub)."""
    mu = model.offspring.mean
    a = model.a
    s_super = mu ** (1.0 / a)
    d_super = old_d0(model, s_super, mu)
    bound = model.offspring.bound
    d_sub = s_sub = None
    if bound is not None:
        s_sub = 1.0 + (bound - 1.0) / a
        d_sub = old_d0(model, s_sub, float(bound))
    if d_super > criteria.STRICTNESS_BAND:
        verdict = SUPERCRITICAL
    elif d_sub is not None and d_sub < -criteria.STRICTNESS_BAND:
        verdict = SUBCRITICAL
    else:
        verdict = UNDETERMINED
    return verdict, d_super, d_sub, s_super, s_sub


def sweep_families():
    """The 90 two-point families of the benchmark's scan sweep."""
    return [TwoPointFamily(a, high, law)
            for a in (1, 2, 3) for high in range(1, 7) for law in SWEEP_LAWS]


def record(v, model):
    """The PhaseVerdict v of model (or of a member of the family model) in
    old_classify's layout, its test points from super_point/sub_point."""
    sub = criteria.sub_point(model)
    return (v.verdict, v.d_super, v.d_sub, criteria.super_point(model)[0],
            None if sub is None else sub[0])


def same(r, t):
    """Equal records, float for float by repr (so bit for bit)."""
    return list(map(repr, r)) == list(map(repr, t))


@pytest.mark.parametrize("r", [1e-2, 1e-3, 1e-4, 1e-5])
def test_classify_on_geometric_x0_equals_old_code(r):
    model = ModelSpec(1, geometric_x0_pmf(r), OffspringLaw.deterministic(2))
    assert same(record(criteria.classify(model), model), old_classify(model))


def test_classify_and_reports_on_sweep_families_equal_old_code(monkeypatch):
    families = sweep_families()
    for fam in families:
        for p, v in scan(fam, 41):
            assert same(record(v, fam), old_classify(fam.model(p))), (fam, p)
    reports = [boundary_report(fam, 41, 1e-9) for fam in families]

    def old_criterion_value(family, which, param):
        _, d_super, d_sub, _, _ = old_classify(family.model(param))
        if which == "super":
            return d_super
        if d_sub is None:
            raise CriterionUnavailable("unbounded")
        return d_sub

    monkeypatch.setattr(scan_module, "_criterion_value", old_criterion_value)
    for fam, rep in zip(families, reports):
        old = boundary_report(fam, 41, 1e-9)
        assert (rep.super_boundary, rep.sub_boundary, rep.undetermined_band) \
            == (old.super_boundary, old.sub_boundary, old.undetermined_band)
        assert all(same(record(v, fam), record(w, fam))
                   for (_, v), (_, w) in zip(rep.grid, old.grid))


# -- the family grid against per-member classify ------------------------------

@pytest.mark.parametrize("grid_points", [2, 9, 41, 101])
def test_family_grid_equals_per_member_classify(grid_points):
    # h = 1500 and 5000 put s^(h-1) past float64 range at most test points,
    # so their members take d0's per-member log path
    families = [TwoPointFamily(a, high, law) for a in (1, 2, 3)
                for high in (*range(1, 7), 1500, 5000) for law in SWEEP_LAWS]
    families += [GeometricX0Family(a, law) for a in (1, 2, 3)
                 for law in SWEEP_LAWS]
    for fam in families:
        grid = scan(fam, grid_points)
        assert len(grid) == grid_points
        for p, v in grid:
            model = fam.model(p)
            assert same(record(v, fam),
                        record(criteria.classify(model), model)), (fam, p)


def test_family_criterion_values_equal_each_members_d0():
    params = np.linspace(scan_module.EPS_PARAM, 1.0 - scan_module.EPS_PARAM,
                         41)
    for fam in sweep_families() + [TwoPointFamily(1, 1024, SWEEP_LAWS[0]),
                                   GeometricX0Family(2, SWEEP_LAWS[2])]:
        for which in ("super", "sub"):
            point = scan_module._test_point(fam, which)
            if point is None:
                continue
            got = fam.criterion_values(params, *point)
            want = [criteria.d0(fam.law(p), fam.a, *point)
                    for p in params.tolist()]
            assert list(map(repr, got)) == list(map(repr, want)), (fam, which)


def count_errstates(monkeypatch):
    """The number of np.errstate blocks entered from now on."""
    entered = []
    real = np.errstate
    monkeypatch.setattr(np, "errstate", lambda **kwargs:
                        entered.append(1) or real(**kwargs))
    return entered


def test_criterion_values_skip_the_errstate_only_where_no_term_overflows(
        monkeypatch):
    # a = 1, N = 2: s = 2, and a term's bound max(a, |m-1| h) s^h has its
    # log h log 2 + log h cross _LOG_QUIET between h = 942 and 943; the
    # finite laws' core enters its own errstate from h log 2 = 660 on
    # (h = 953), and s^h overflows from h = 1024 on
    params = np.linspace(scan_module.EPS_PARAM, 1.0 - scan_module.EPS_PARAM,
                         41)
    law = OffspringLaw.deterministic(2)
    entered = count_errstates(monkeypatch)
    laws = count_builds(monkeypatch, dists.AtomPmf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (1, 6, 941, 942, 943, 944, 952, 953, 954, 1023, 1024, 1025,
                  1026, 1100, 1500, 10**6):
            fam = TwoPointFamily(1, h, law)
            entered.clear()
            laws.clear()
            got = fam.criterion_values(params, 2.0, 2.0)
            quiet, built = not entered, len(laws)
            want = [criteria.d0(fam.law(p), 1, 2.0, 2.0)
                    for p in params.tolist()]
            assert list(map(repr, got)) == list(map(repr, want)), h
            assert quiet == (h <= 942), h
            assert quiet == (h * math.log(2.0) + math.log(h)
                             < dists._LOG_QUIET), h
            # a member builds its law, for d0's log path, only off the
            # quiet path, and every member does once s^h overflows (high =
            # 10^6 included)
            assert built == 0 or not quiet, h
            assert (built == 41) == (h >= 1024), h


def test_scan_grid_is_built_once_per_size_and_read_only():
    fam = TwoPointFamily(2, 3, SWEEP_LAWS[2])
    for n in (2, 9, 41, 101, 9, 2, 101, 41, 2):
        want = np.linspace(scan_module.EPS_PARAM,
                           1.0 - scan_module.EPS_PARAM, n)
        got = np.array([p for p, _ in scan(fam, n)])
        assert got.tobytes() == want.tobytes(), n
        params, floats = scan_module._grid(n)
        assert scan_module._grid(n)[0] is params
        assert params.tobytes() == want.tobytes()
        assert floats == tuple(want.tolist())
        weights = scan_module._member_weights(params.tobytes())
        assert weights is scan_module._member_weights(want.tobytes())
        assert weights.tobytes() \
            == np.column_stack((1.0 - want, want)).tobytes()
        for array in (params, weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5


def test_family_matrix_core_equals_each_members_pair():
    # the (G, 2) weight matrix through the finite laws' core, row by row
    # against each member's own pgf_pair: h = 1 (dense), sums that overflow
    # and the certain-overflow skip included
    params = np.concatenate([
        np.linspace(scan_module.EPS_PARAM, 1.0 - scan_module.EPS_PARAM, 41),
        [1e-3, 0.5]])
    weights = np.stack((1.0 - params, params), axis=-1)
    for h in (1, 2, 3, 6, 1024, 1500, 10**5):
        fam = TwoPointFamily(1, h, SWEEP_LAWS[0])
        for s in [s for s, _ in sweep_test_points()] + two_point_edge_points(h):
            f, fp = dists._pgf_pair((weights, fam.values), s)
            for i, p in enumerate(params.tolist()):
                assert repr(fam.law(p).pgf_pair(s)) \
                    == repr((float(f[i]), float(fp[i]))), (h, s, p)
    # a matrix of laws on 0..3, more values than the power cache holds,
    # whose s^(k - 1) the core reads off s^k
    values = np.arange(4.0)
    rows = np.random.default_rng(33).random((40, 4)) + 0.01
    rows /= rows.sum(axis=1, keepdims=True)
    for s in [s for s, _ in sweep_test_points()] + [0.5, 1.0, 1e100, 1e200]:
        f, fp = dists._pgf_pair((rows, values), s)
        for i, row in enumerate(rows):
            assert repr(dists.AtomPmf((row, values)).pgf_pair(s)) \
                == repr((float(f[i]), float(fp[i]))), (s, i)


@pytest.mark.parametrize("high", [2.5, 3.0, np.float64(3.0), "3", None])
def test_two_point_family_needs_an_integer_high_value(high):
    # a non-integer high value used to scan silently, a "law" at 2.5
    law = OffspringLaw.deterministic(2)
    with pytest.raises(ValueError, match="^high_value must be an integer"):
        TwoPointFamily(1, high, law)
    fam = TwoPointFamily(1, np.int64(3), law)
    assert type(fam.high_value) is int and fam.high_value == 3
    assert fam.values.tolist() == [0.0, 3.0] and not fam.values.flags.writeable
    with pytest.raises(ValueError, match="^high_value must be >= 1, got 0$"):
        TwoPointFamily(1, 0, law)


def test_vecdot_over_two_term_rows_equals_dot_row_by_row():
    # the family grid's values rest on np.vecdot running the ddot of a
    # member's two-term np.dot; a numpy whose two differ fails here
    rng = np.random.default_rng(19)
    p = np.concatenate([rng.random(20_000), [1e-6, 0.5, 1.0 - 1e-6]])
    rows = np.stack((1.0 - p, p), axis=-1)
    for s, high in [(2.0, 3), (math.sqrt(2.0), 5), (1.5, 1), (3.0, 6)]:
        powers, _ = dists._powers(s, np.array([0.0, high]))
        got = np.vecdot(rows, powers)
        want = np.array([np.dot(row, powers) for row in rows])
        assert got.tobytes() == want.tobytes(), (s, high)
    big = np.exp(rng.uniform(0.0, 700.0, p.size))
    got = np.vecdot(rows, np.stack((np.ones_like(big), big), axis=-1))
    want = np.array([np.dot(row, (1.0, b)) for row, b in zip(rows, big)])
    assert got.tobytes() == want.tobytes()


def count_builds(monkeypatch, cls):
    """The number of cls instances built from now on."""
    built = []
    real = cls.__init__
    monkeypatch.setattr(cls, "__init__", lambda self, *args, **kwargs:
                        built.append(1) or real(self, *args, **kwargs))
    return built


def test_scan_builds_no_law_and_no_model_per_member(monkeypatch):
    laws = count_builds(monkeypatch, dists.AtomPmf)
    models = count_builds(monkeypatch, dists.ModelSpec)
    for law in SWEEP_LAWS:
        grid = scan(TwoPointFamily(2, 3, law), 41)
        assert len(grid) == 41
    assert (laws, models) == ([], [])
    # where s^(high-1) overflows, each member builds its law for d0's log
    # path, and still no model
    scan(TwoPointFamily(1, 1500, OffspringLaw.deterministic(2)), 9)
    assert (len(laws), models) == (9, [])


def count_evaluations(monkeypatch):
    """The points at which a two-point family member's pgf_pair runs."""
    calls = []
    real = dists.AtomPmf.pgf_pair

    def counted(law, s):
        calls.append(s)
        return real(law, s)
    monkeypatch.setattr(dists.AtomPmf, "pgf_pair", counted)
    return calls


def test_classify_evaluates_each_distinct_point_once(monkeypatch):
    calls = count_evaluations(monkeypatch)
    same = TwoPointFamily(1, 2, OffspringLaw.deterministic(2)).model(0.3)
    v = criteria.classify(same)
    assert calls == [2.0] and v.d_sub == v.d_super
    calls.clear()
    apart = TwoPointFamily(1, 2, OffspringLaw.finite_support({1: 0.5, 3: 0.5}))
    criteria.classify(apart.model(0.3))
    assert calls == [2.0, 3.0]


def test_bisection_evaluates_only_the_requested_criterion(monkeypatch):
    calls = count_evaluations(monkeypatch)
    fam = TwoPointFamily(2, 3, OffspringLaw.finite_support({1: 0.5, 3: 0.5}))
    bisect_boundary(fam, "sub", tol=1e-3)
    assert set(calls) == {2.0}
    calls.clear()
    bisect_boundary(fam, "super", tol=1e-3)
    assert set(calls) == {math.sqrt(2.0)}


def test_boundary_report_records_why_a_boundary_is_missing():
    rep = boundary_report(TwoPointFamily(3, 2, OffspringLaw.deterministic(2)), 5)
    assert rep.super_boundary is None
    assert isinstance(rep.super_missing, NoSignChange)
    rep = boundary_report(TwoPointFamily(1, 2, OffspringLaw.geometric(0.5)), 5)
    assert rep.sub_boundary is None and rep.super_missing is None
    assert isinstance(rep.sub_missing, CriterionUnavailable)
    assert rep.super_boundary is not None


# -- closed-form boundaries against the bisection they replaced --------------

def bisect_reference(family, which, tol):
    """The bisection loop of bisect_boundary before the closed-form roots,
    kept as the oracle: None where the criterion keeps one sign, the string
    "unavailable" where it does not apply."""
    if which == "sub" and family.offspring.bound is None:
        return "unavailable"
    lo, hi = scan_module.EPS_PARAM, 1.0 - scan_module.EPS_PARAM
    f_lo = scan_module._criterion_value(family, which, lo)
    f_hi = scan_module._criterion_value(family, which, hi)
    if (f_lo > 0.0) == (f_hi > 0.0):
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = scan_module._criterion_value(family, which, mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo, hi


def mpmath_root(family, which):
    """The criterion's root from d0 itself, (m-1) s F'(s) - a F(s) with the
    generating function in mpmath, solved by mpmath.findroot."""
    mpmath.mp.dps = 40
    law, a = family.offspring, family.a
    if which == "super":
        m = mpmath.mpf(law.mean)
        s = m ** (mpmath.mpf(1) / a)
    else:
        m = mpmath.mpf(law.bound)
        s = 1 + (m - 1) / a
    if isinstance(family, TwoPointFamily):
        h = family.high_value

        def d0(p):
            f, fp = 1 - p + p * s ** h, p * h * s ** (h - 1)
            return (m - 1) * s * fp - a * f
    else:
        def d0(r):
            q = 1 - r
            return (m - 1) * s * r * q / (1 - q * s) ** 2 - a * r / (1 - q * s)
    return mpmath.findroot(d0, family.root(which))


# N in {2, 3, {1: .5, 3: .5}} for the geometric-x0 families
GEOMETRIC_LAWS = SWEEP_LAWS[:3]


def oracle_families():
    """Two-point families with a <= 4 and high <= 12 over the sweep's N
    laws (the 90 sweep families among them), and geometric families with
    N in {2, 3, {1: .5, 3: .5}} and a in {1, 2, 3}."""
    two_point = [TwoPointFamily(a, high, law) for a in range(1, 5)
                 for high in range(1, 13) for law in SWEEP_LAWS]
    geometric = [GeometricX0Family(a, law) for a in (1, 2, 3)
                 for law in GEOMETRIC_LAWS]
    return two_point + geometric


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_boundaries_agree_with_the_bisection_oracle(tol):
    found = 0
    for fam in oracle_families():
        rep = boundary_report(fam, 5, tol)
        for which, got, missing in (
                ("super", rep.super_boundary, rep.super_missing),
                ("sub", rep.sub_boundary, rep.sub_missing)):
            ref = bisect_reference(fam, which, tol)
            if ref == "unavailable":
                assert got is None and isinstance(missing,
                                                  CriterionUnavailable)
                continue
            if ref is None:
                assert got is None and isinstance(missing, NoSignChange), \
                    (fam, which)
                continue
            assert got is not None, (fam, which, ref)
            lo, hi = got
            assert 0.0 <= hi - lo <= tol, (fam, which, got)
            assert lo <= ref[1] and ref[0] <= hi, (fam, which, got, ref)
            root = mpmath_root(fam, which)
            assert lo - 1e-12 <= root <= hi + 1e-12, (fam, which, got, root)
            found += 1
    assert found > 300


def test_bisect_boundary_evaluates_the_criterion_four_times(monkeypatch):
    calls = []
    real = scan_module._criterion_value
    monkeypatch.setattr(scan_module, "_criterion_value",
                        lambda *args: calls.append(args[2]) or real(*args))
    for fam in (gap_family(),
                GeometricX0Family(1, OffspringLaw.deterministic(2))):
        calls.clear()
        lo, hi = bisect_boundary(fam, "super")
        assert calls == [scan_module.EPS_PARAM, 1.0 - scan_module.EPS_PARAM,
                         lo, hi]


def test_uncertified_root_is_an_explicit_error(monkeypatch):
    fam = gap_family()
    bisect_boundary(fam, "super")  # certified at the true root
    # a root off by far more than the tolerance fails its certificate
    monkeypatch.setattr(TwoPointFamily, "root", lambda self, which: 0.9)
    with pytest.raises(scan_module.BoundaryNotCertified,
                       match="does not change sign across"):
        bisect_boundary(fam, "super")
    # and so does a tolerance below float resolution around the true root
    monkeypatch.undo()
    with pytest.raises(scan_module.BoundaryNotCertified):
        bisect_boundary(fam, "super", tol=1e-300)


def test_boundary_interval_is_clipped_to_the_range():
    # with a tolerance wider than the range the interval is the range
    fam = gap_family()
    lo, hi = bisect_boundary(fam, "super", tol=2.0)
    assert (lo, hi) == (scan_module.EPS_PARAM, 1.0 - scan_module.EPS_PARAM)


# -- the exact geometric initial law in scans and classify -------------------

def test_classify_on_the_exact_law_agrees_in_sign_with_the_cut_law():
    compared = 0
    for a in (1, 2, 3):
        for law in GEOMETRIC_LAWS:
            fam = GeometricX0Family(a, law)
            for r in np.linspace(1e-3, 1.0 - 1e-3, 61):
                exact = criteria.classify(fam.model(float(r)))
                cut = criteria.classify(
                    ModelSpec(a, geometric_x0_pmf(float(r)), law))
                for d, c in ((exact.d_super, cut.d_super),
                             (exact.d_sub, cut.d_sub)):
                    if abs(d) > 1e-6:
                        assert (d > 0.0) == (c > 0.0), (a, law, r, d, c)
                        compared += 1
    assert compared > 1000


@pytest.mark.parametrize("r", [1e-4, 0.3, 0.9])
def test_array_consumers_read_the_cut_law_bit_for_bit(r):
    law = OffspringLaw.finite_support({1: 0.5, 3: 0.5})
    exact = ModelSpec(1, dists.GeometricPmf(r), law)
    cut = ModelSpec(1, geometric_x0_pmf(r), law)
    assert exact.x0.cut.probs.tobytes() \
        == cut.x0.probs.tobytes()
    steps = 3 if r > 1e-3 else 1
    assert evolution.evolve(exact, steps).rows \
        == evolution.evolve(cut, steps).rows
    assert np.array_equal(montecarlo.init_population(exact, 2000, 5).samples,
                          montecarlo.init_population(cut, 2000, 5).samples)
    assert montecarlo.tree_sample(exact, 3, 9) \
        == montecarlo.tree_sample(cut, 3, 9)


def test_a_geometric_law_is_cut_once_for_all_its_consumers(monkeypatch):
    built = []
    real = dists.geometric_x0_pmf
    monkeypatch.setattr(dists, "geometric_x0_pmf",
                        lambda r: built.append(r) or real(r))
    model = ModelSpec(1, dists.GeometricPmf(0.3),
                      OffspringLaw.deterministic(2))
    evolution.evolve(model, 2)
    # inside the radius 1/0.7: gf_orbit's clip heads read the cut
    evolution.gf_orbit(model.x0, model.offspring, 1, [1.2], 2)
    montecarlo.init_population(model, 1000, 1)
    montecarlo.tree_sample(model, 2, 1)
    assert built == [0.3]


def forbid_cut_law(monkeypatch):
    """Make every route to geometric_x0_pmf raise."""
    def refuse(r):
        raise AssertionError(f"geometric_x0_pmf({r}) was built")
    monkeypatch.setattr(dists, "geometric_x0_pmf", refuse)
    monkeypatch.setattr(scan_module, "geometric_x0_pmf", refuse)


def test_classify_and_scans_build_no_geometric_array(monkeypatch, tmp_path,
                                                     capsys):
    forbid_cut_law(monkeypatch)
    fam = GeometricX0Family(1, OffspringLaw.deterministic(2))
    assert criteria.classify(fam.model(1e-6)).d_super == math.inf
    rep = boundary_report(fam, 9)
    assert rep.super_boundary[0] <= 0.75 <= rep.super_boundary[1]
    doc = {"a": 1, "x0": {"type": "geometric", "p": 1e-6},
           "N": {"type": "deterministic", "n": 2},
           "scan": {"family": {"type": "geometric_x0"}}}
    cfg = tmp_path / "geo.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["classify", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "verdict: Supercritical", "d_super: inf"]
    assert cli.main(["scan", "--config", str(cfg)]) == 0
    assert "# super_boundary: [0.74999999949999996, 0.75000000049999993]" \
        in capsys.readouterr().out.splitlines()
    # the array consumers still build it
    with pytest.raises(AssertionError, match="was built"):
        evolution.evolve(fam.model(0.5), 1)
