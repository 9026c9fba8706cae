"""Cohomogeneity-one profiles: ratios, closedness, duality, L^2 verdicts."""

import math

import numpy as np
import pytest

from hkforms import gibbons_hawking as gh
from hkforms.bianchi import (
    BianchiProfile,
    ClosednessSolution,
    ansatz_form_matrix,
    anti_self_duality_residual,
    atiyah_hitchin_model_profile,
    biaxial_taubnut_profile,
    classify_l2,
    closedness_residual,
    coframe_rows,
    eguchi_hanson_profile,
    euler_to_gh_chart,
    l2_density,
    l2_measure_density,
    metric_matrix,
    pullback_two_form,
    ratio,
    reparametrize,
    solve_closedness,
    validate_endpoint_data,
    wedge_density_cross_check,
)
from hkforms.numerics import exterior_derivative_at

AH = atiyah_hitchin_model_profile()
EH = eguchi_hanson_profile(0.5)
TN = biaxial_taubnut_profile(1.0)


def sample_coords(rng, rho_lo, rho_span=2.0):
    return np.array([rho_lo + rho_span * rng.random(),
                     0.4 + 2.2 * rng.random(),
                     6.0 * rng.random(),
                     6.0 * rng.random()])


# -- coframe and profile plumbing -------------------------------------------

def test_coframe_structure_equations():
    # d(s_i) = s_j ^ s_k checked by finite differences of the coframe rows
    def component_fn(i):
        return lambda coords: coframe_rows(coords[1], coords[3])[i]

    rng = np.random.default_rng(0)
    for _ in range(5):
        coords = np.array([1.0, 0.5 + 2.0 * rng.random(), 6.0 * rng.random(),
                           6.0 * rng.random()])
        rows = coframe_rows(coords[1], coords[3])
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            d_si = exterior_derivative_at(component_fn(i), coords)
            expected = np.outer(rows[j], rows[k]) - np.outer(rows[k], rows[j])
            for (mu, nu), val in d_si.items():
                assert val == pytest.approx(expected[mu, nu], abs=1e-8)


def test_profile_validation():
    with pytest.raises(ValueError):
        BianchiProfile("bad", 0.0, 1.0, None, None, None, None, rho_ref=2.0)
    with pytest.raises(ValueError):
        eguchi_hanson_profile(-1.0)
    with pytest.raises(ValueError):
        biaxial_taubnut_profile(0.0)
    with pytest.raises(ValueError):
        EH.f(0.4)
    with pytest.raises(ValueError):
        ratio(1, EH, 0.3)


def test_endpoint_data_consistent():
    for profile in (AH, EH, TN):
        validate_endpoint_data(profile)


# -- ratios against the displayed asymptotics --------------------------------

def test_ah_ratios_at_infinity():
    assert ratio(1, AH, 200.0) == pytest.approx(0.5, rel=1e-12)
    assert ratio(2, AH, 200.0) == pytest.approx(0.5, rel=1e-12)
    assert ratio(3, AH, 200.0) == pytest.approx(2.0 / 200.0 ** 2, rel=1e-12)


def test_ah_ratios_near_pi():
    rho = math.pi + 1e-6
    assert ratio(1, AH, rho) == pytest.approx(2.0 * (rho - math.pi) / math.pi ** 2, rel=1e-12)
    assert ratio(2, AH, rho) == pytest.approx(1.0 / (2.0 * (rho - math.pi)), rel=1e-12)
    assert ratio(3, AH, rho) == pytest.approx(1.0 / (2.0 * (rho - math.pi)), rel=1e-12)


def test_eh_ratio3_is_inverse_radius():
    for r in (0.6, 1.0, 3.0, 10.0):
        assert ratio(3, EH, r) == pytest.approx(1.0 / r, rel=1e-14)


def test_eh_ratio1_near_bolt():
    r = 0.5 + 1e-6
    assert ratio(1, EH, r) == pytest.approx(1.0 / (4.0 * (r - 0.5)), rel=1e-4)


def test_eh_profile_identities():
    # f^2 (1 - (a/r)^4) = 1 and C/r -> 1
    for r in (0.7, 1.5, 40.0):
        assert EH.f(r) ** 2 * (1.0 - (0.5 / r) ** 4) == pytest.approx(1.0, rel=1e-14)
    assert EH.c(1e5) / 1e5 == pytest.approx(1.0, rel=1e-12)


def test_tn_profile_biaxial_and_ratio():
    for r in (0.2, 1.0, 7.0):
        assert TN.a(r) == TN.b(r)
        V = 1.0 + 1.0 / r
        Vp = -1.0 / r ** 2
        assert ratio(3, TN, r) == pytest.approx(Vp / V, rel=1e-12)


# -- closedness solutions -----------------------------------------------------

def test_constant_ratio_closedness():
    prof = BianchiProfile("constant-ratio", 0.0, math.inf,
                          f=lambda r: 1.0, a=lambda r: 1.0,
                          b=lambda r: math.sqrt(2.0), c=lambda r: math.sqrt(2.0) / 2.0,
                          rho_ref=1.0)
    # fa/(bc) = 1/(sqrt2 * sqrt2/2) = 1 identically
    assert ratio(1, prof, 2.0) == pytest.approx(1.0)
    F = solve_closedness(1, prof)
    for rho in (1.5, 3.0, 0.5):
        assert F(rho) == pytest.approx(math.exp(-(rho - 1.0)), rel=1e-9)


def test_eh_closedness_solution():
    F3 = solve_closedness(3, EH)
    for r in (0.8, 2.0, 4.0):
        assert F3(r) == pytest.approx(1.0 / r, rel=1e-10)   # rho_ref = 2a = 1
    assert l2_density(3, EH, 4.0) == pytest.approx(2.0 * 1.0 / 4.0 ** 3, rel=1e-9)


def _scan_nearest(sol, rho):
    # the linear scan the sorted lookup replaces: first minimum in insertion order
    return min(sol._anchors, key=lambda s: abs(s - rho))


def test_nearest_anchor_matches_linear_scan():
    sol = solve_closedness(1, EH)          # rho_ref = 1.0
    for rho in (3.0, 5.0, 9.0, 7.0, 0.75, 1.25, 0.55, 40.0):
        sol.exponent_integral(rho)
    # exact midpoints of neighbours inserted in both orders -- (3, 5), (5, 7),
    # (9, 40), rho_ref and 1.25 older first; (7, 9), (1.25, 3) newer first --
    # then points beyond both ends of the sorted list
    queries = [4.0, 6.0, 24.5, 1.125, 8.0, 2.125, 0.5 + 2.0 ** -41, 1e3, 1e300]
    queries += list(np.random.default_rng(30).uniform(0.5, 45.0, 200))
    for rho in queries:
        assert sol._nearest_anchor(rho) == _scan_nearest(sol, rho)
    assert [sol._nearest_anchor(rho) for rho in queries[:6]] == [3.0, 5.0, 9.0, 1.0, 9.0, 3.0]
    assert sol._sorted == sorted(sol._anchors)


def test_nearest_anchor_ties_match_linear_scan():
    # integer anchors in random order make many exact ties; huge queries make
    # anchors on one side round to the same distance
    rng = np.random.default_rng(31)
    for _ in range(20):
        sol = solve_closedness(1, EH)
        points = [float(x) for x in rng.permutation(np.arange(-12, 13)) if x != 1]
        for i, s in enumerate(points, start=1):
            sol._anchors[s] = (0.0, i)
        sol._sorted = sorted(sol._anchors)
        queries = [x / 2.0 for x in range(-30, 31)] + [2.0 ** 54, -(2.0 ** 54), 1e300,
                                                       math.inf, -math.inf, math.nan]
        for rho in queries:
            assert sol._nearest_anchor(rho) == _scan_nearest(sol, rho)


def test_classification_unchanged_under_linear_scan(monkeypatch):
    # verdicts alone hide the tie rule, so every cumulative integral is compared too
    profiles = (atiyah_hitchin_model_profile(), eguchi_hanson_profile(0.5),
                biaxial_taubnut_profile(1.0))
    integral = ClosednessSolution.exponent_integral

    def classify_all():
        values = []

        def recorded(self, rho):
            values.append(integral(self, rho))
            return values[-1]

        monkeypatch.setattr(ClosednessSolution, "exponent_integral", recorded)
        return [classify_l2(p) for p in profiles], values

    verdicts, values = classify_all()
    monkeypatch.setattr(ClosednessSolution, "_nearest_anchor", _scan_nearest)
    scanned, scanned_values = classify_all()
    assert scanned_values == values
    assert scanned == verdicts
    for v, w in zip(scanned, verdicts):
        for axis in (1, 2, 3):
            assert v[axis].fitted_exponents == w[axis].fitted_exponents


def test_coefficient_lookup():
    assert [TN.coefficient(n) for n in ("f", "a", "b", "c")] == [TN.f, TN.a, TN.b, TN.c]
    for bad in ("rho_ref", "name", "g"):
        with pytest.raises(KeyError):
            TN.coefficient(bad)


def test_ah_f1_tends_to_constant_at_pi():
    F1 = solve_closedness(1, AH)
    vals = [F1(math.pi + d) for d in (1e-2, 1e-4, 1e-6)]
    assert vals[0] > 0
    assert abs(vals[2] - vals[1]) < 1e-3 * vals[1]


def test_tn_closedness_matches_inverse_potential():
    F3 = solve_closedness(3, TN)
    Vref = 2.0   # V at rho_ref = m = 1
    for r in (0.3, 1.0, 5.0):
        assert F3(r) == pytest.approx(Vref / (1.0 + 1.0 / r), rel=1e-9)


# -- densities ----------------------------------------------------------------

def test_ah_density_near_pi_inverse_square():
    F2 = solve_closedness(2, AH)
    d1 = l2_measure_density(2, AH, math.pi + 1e-4, F2)
    d2 = l2_measure_density(2, AH, math.pi + 2e-4, F2)
    assert d1 / d2 == pytest.approx(4.0, rel=1e-2)


def test_ah_density_exponential_at_infinity():
    F1 = solve_closedness(1, AH)
    d1 = l2_measure_density(1, AH, 30.0, F1)
    d2 = l2_measure_density(1, AH, 31.0, F1)
    assert d1 / d2 == pytest.approx(math.e, rel=1e-2)


def test_eh_density_closed_form():
    F3 = solve_closedness(3, EH)
    for r in (0.9, 1.7, 6.0):
        assert l2_density(3, EH, r, F3) == pytest.approx(2.0 / r ** 3, rel=1e-9)


def test_ansatz_form_bundle():
    F3 = solve_closedness(3, EH)
    assert F3(4.0) == pytest.approx(0.25, rel=1e-10)
    assert l2_density(3, EH, 4.0, F3) == pytest.approx(2.0 / 64.0, rel=1e-9)
    for rho in (0.6, 1.0, 5.0):
        assert F3(rho) > 0
    # phi_3 is F_3 times the unit-coefficient form
    coords = np.array([2.0, 1.1, 0.4, 0.9])
    unit = ansatz_form_matrix(3, EH, coords, lambda rho: 1.0)
    assert np.abs(ansatz_form_matrix(3, EH, coords, F3) - F3(2.0) * unit).max() == 0.0
    with pytest.raises(ValueError):
        l2_density(4, EH, 4.0)


# -- coordinate model: closedness, duality, wedge cross-check -----------------

@pytest.mark.parametrize("profile,rho_lo", [(AH, math.pi + 0.3), (EH, 0.7), (TN, 0.4)],
                         ids=["ah", "eh", "tn"])
def test_ansatz_closed_and_asd(profile, rho_lo):
    rng = np.random.default_rng(17)
    for _ in range(2):
        coords = sample_coords(rng, rho_lo)
        for axis in (1, 2, 3):
            assert closedness_residual(axis, profile, coords) <= 1e-6
            assert anti_self_duality_residual(axis, profile, coords) <= 1e-8


def test_wedge_density_cross_check():
    rng = np.random.default_rng(18)
    for profile, rho_lo in ((AH, math.pi + 0.3), (EH, 0.7), (TN, 0.4)):
        coords = sample_coords(rng, rho_lo)
        for axis in (1, 2, 3):
            wedge_val, display_val = wedge_density_cross_check(axis, profile, coords)
            assert wedge_val == pytest.approx(display_val, rel=1e-10)


def test_metric_positive_definite():
    rng = np.random.default_rng(19)
    for profile, rho_lo in ((AH, math.pi + 0.3), (EH, 0.7), (TN, 0.4)):
        g = metric_matrix(profile, sample_coords(rng, rho_lo))
        assert np.linalg.eigvalsh(g).min() > 0


# -- classification ------------------------------------------------------------

def test_classify_atiyah_hitchin():
    verdicts = classify_l2(AH)
    assert verdicts[1].integrable
    for axis in (2, 3):
        v = verdicts[axis]
        assert not v.integrable
        assert v.divergent_endpoints == (math.pi,)
        assert v.fitted_exponents[math.pi] == pytest.approx(-2.0, abs=0.05)


def test_classify_eguchi_hanson():
    verdicts = classify_l2(EH)
    assert verdicts[3].integrable
    for axis in (1, 2):
        assert verdicts[axis].divergent_endpoints == (0.5,)


def test_classify_biaxial_taubnut():
    verdicts = classify_l2(TN)
    assert verdicts[3].integrable
    assert verdicts[3].extra_circle_invariant
    for axis in (1, 2):
        assert not verdicts[axis].extra_circle_invariant
        assert not verdicts[axis].integrable


def test_divergent_truncation_scaling():
    # truncated integral of a 1/(rho-pi)^2 density scales like 1/eps
    from hkforms.numerics import adaptive_simpson, loglog_slope
    F2 = solve_closedness(2, AH)
    dens = lambda rho: l2_measure_density(2, AH, rho, F2)
    eps = np.geomspace(1e-5, 1e-3, 5)
    vals = [adaptive_simpson(dens, math.pi + float(e), math.pi + 0.5, 1e-9, rel=1e-9)
            for e in eps]
    assert loglog_slope(eps, vals) == pytest.approx(-1.0, abs=0.05)


def test_verdicts_interpolant_independent():
    other = atiyah_hitchin_model_profile(band=(math.pi + 0.8, math.pi + 2.5), blend="c3")
    v1 = {ax: v.verdict for ax, v in classify_l2(AH).items()}
    v2 = {ax: v.verdict for ax, v in classify_l2(other).items()}
    assert v1 == v2


def test_verdicts_reparametrization_invariant():
    def h(t):
        u = t - math.pi
        return math.pi + u + u * u / (1.0 + u)

    def h_prime(t):
        u = t - math.pi
        return 1.0 + (u * u + 2.0 * u) / (1.0 + u) ** 2

    reparam = reparametrize(AH, h, h_prime, math.pi, math.inf, math.pi + 0.8)
    v1 = {ax: (v.integrable, v.divergent_endpoints) for ax, v in classify_l2(AH).items()}
    v2 = {ax: (v.integrable, v.divergent_endpoints) for ax, v in classify_l2(reparam).items()}
    assert v1 == v2


# -- cross-module identification ----------------------------------------------

def test_tn_phi3_proportional_to_gh_dtheta():
    data = gh.GHData(m=1.0, patch="north")
    F3 = solve_closedness(3, TN)
    rng = np.random.default_rng(20)
    constants = []
    for _ in range(10):
        coords = sample_coords(rng, 0.3, 3.0)
        phi3 = ansatz_form_matrix(3, TN, coords, F3)
        target, jac = euler_to_gh_chart(1.0, coords)
        B = gh.dtheta(gh.GHPoint(target[:3], target[3]), data)
        pulled = pullback_two_form(B, jac)
        iu = np.triu_indices(4, 1)
        mask = np.abs(pulled[iu]) > 1e-8
        lam = float(np.median((phi3[iu][mask] / pulled[iu][mask]).real))
        constants.append(lam)
        assert np.abs(phi3 - lam * pulled).max() <= 1e-9 * np.abs(phi3).max()
    constants = np.asarray(constants)
    # one-point normalization: the constant is uniform across sample points
    assert np.abs(constants - constants[0]).max() <= 1e-6 * abs(constants[0])


def test_tn_metric_matches_gh_metric_under_identification():
    data = gh.GHData(m=1.0, patch="north")
    rng = np.random.default_rng(21)
    for _ in range(5):
        coords = sample_coords(rng, 0.4, 2.0)
        g_bianchi = metric_matrix(TN, coords)
        target, jac = euler_to_gh_chart(1.0, coords)
        g_gh = gh.metric_at(gh.GHPoint(target[:3], target[3]), data)
        pulled = jac.T @ g_gh @ jac
        assert np.abs(pulled - g_bianchi).max() <= 1e-10 * np.abs(g_bianchi).max()
