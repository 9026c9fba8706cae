"""Cohomogeneity-one profiles: ratios, closedness, duality, L^2 verdicts."""

import dataclasses
import math

import numpy as np
import pytest

from hkforms import bianchi, suites
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
    metric_matrix,
    pullback_two_form,
    ratio,
    reparametrize,
    wedge_density_cross_check,
)
from hkforms.numerics import (
    adaptive_simpson,
    exterior_derivative_at,
    gauss_kronrod,
    loglog_slope,
    richardson_stencil,
    smoothstep_c2,
    smoothstep_c3,
)

AH = atiyah_hitchin_model_profile()
EH = eguchi_hanson_profile(0.5)
TN = biaxial_taubnut_profile(1.0)


def h(t):
    """The change of radial variable the bianchi suite pulls AH back along."""
    u = t - math.pi
    return math.pi + u + u * u / (1.0 + u)


def h_prime(t):
    u = t - math.pi
    return 1.0 + (u * u + 2.0 * u) / (1.0 + u) ** 2


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
        BianchiProfile("bad", 0.0, 1.0, None, rho_ref=2.0)
    with pytest.raises(ValueError):
        eguchi_hanson_profile(-1.0)
    with pytest.raises(ValueError):
        biaxial_taubnut_profile(0.0)
    for profile, rho in ((EH, 0.4), (EH, 0.5), (TN, 0.0), (TN, -1.0)):
        with pytest.raises(ValueError):
            profile.coefficients(rho)
    with pytest.raises(ValueError):
        ratio(1, EH, 0.3)


@pytest.mark.parametrize("axis", (0, -1, 4))
def test_ratio_refuses_axes_other_than_1_2_3(axis):
    with pytest.raises(ValueError):
        ratio(axis, EH, 1.0)
    with pytest.raises(ValueError):
        ClosednessSolution(axis, EH)
    coords, F = np.array([2.0, 1.1, 0.4, 0.9]), ClosednessSolution(1, EH)
    for check in (ansatz_form_matrix, closedness_residual, anti_self_duality_residual,
                  wedge_density_cross_check):
        with pytest.raises(ValueError, match="axis must be 1, 2 or 3"):
            check(axis, EH, coords, F)


# Leading coefficient behavior at both ends of each shipped profile, probed
# 1e-4 inside a finite end and at rho = 1e4 toward infinity.  The second
# entry indexes the tuple (f, a, b, c).
P = 1e-4
F_, A_, B_, C_ = range(4)
ENDPOINT_ROWS = [
    (AH, F_, math.pi + P, -1.0), (AH, A_, math.pi + P, 2.0 * P),
    (AH, B_, math.pi + P, math.pi), (AH, C_, math.pi + P, -math.pi),
    (AH, F_, 1e4, -1.0), (AH, A_, 1e4, 1e4), (AH, B_, 1e4, 1e4), (AH, C_, 1e4, -2.0),
    # Eguchi-Hanson bolt: f ~ sqrt(a/4) (r - a)^(-1/2), c ~ 2 sqrt(a) (r - a)^(1/2)
    (EH, A_, 0.5 + P, 0.5), (EH, B_, 0.5 + P, 0.5),
    (EH, F_, 0.5 + P, math.sqrt(0.5 / 4.0) * P ** -0.5),
    (EH, C_, 0.5 + P, 2.0 * math.sqrt(0.5) * P ** 0.5),
    (EH, F_, 1e4, 1.0), (EH, A_, 1e4, 1e4), (EH, B_, 1e4, 1e4), (EH, C_, 1e4, 1e4),
    # Taub-NUT (m = 1) at the nut: f ~ -sqrt(m) rho^(-1/2), a, b, c ~ sqrt(m) rho^(1/2)
    (TN, F_, P, -P ** -0.5), (TN, A_, P, P ** 0.5), (TN, B_, P, P ** 0.5),
    (TN, C_, P, P ** 0.5),
    (TN, F_, 1e4, -1.0), (TN, A_, 1e4, 1e4), (TN, B_, 1e4, 1e4), (TN, C_, 1e4, 1.0),
]


def test_endpoint_data_consistent():
    for profile, index, rho, expected in ENDPOINT_ROWS:
        value = profile.coefficients(rho)[index]
        assert value == pytest.approx(expected, rel=0.05), (profile.name, "fabc"[index], rho)


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
        f = EH.coefficients(r)[0]
        assert f ** 2 * (1.0 - (0.5 / r) ** 4) == pytest.approx(1.0, rel=1e-14)
    assert EH.coefficients(1e5)[3] / 1e5 == pytest.approx(1.0, rel=1e-12)


def test_tn_profile_biaxial_and_ratio():
    for r in (0.2, 1.0, 7.0):
        _, a, b, _ = TN.coefficients(r)
        assert a == b
        V = 1.0 + 1.0 / r
        Vp = -1.0 / r ** 2
        assert ratio(3, TN, r) == pytest.approx(Vp / V, rel=1e-12)


# -- coefficients(rho) against four-function oracles -------------------------
#
# Each oracle gives f, a, b, c of a profile as four separate functions, each
# recomputing the shared blend weight, square root or change of variable.
# `coefficients` computes that once per point and must return the same bits.

def oracle_ah(band=None, blend="c2"):
    lo, hi = band if band is not None else (math.pi + 1.0, math.pi + 2.0)
    step = {"c2": smoothstep_c2, "c3": smoothstep_c3}[blend]

    def w(rho):
        return step((rho - lo) / (hi - lo))

    def mix(near, far):
        return lambda rho: (1.0 - w(rho)) * near(rho) + w(rho) * far(rho)

    return (lambda rho: -1.0, mix(lambda r: 2.0 * (r - math.pi), lambda r: r),
            mix(lambda r: math.pi, lambda r: r), mix(lambda r: -math.pi, lambda r: -2.0))


def oracle_eh(a_param):
    def check(r):
        if r <= a_param:
            raise ValueError(f"r = {r} is outside the domain (a, inf)")
        return 1.0 - (a_param / r) ** 4

    return (lambda r: 1.0 / math.sqrt(check(r)), lambda r: r, lambda r: r,
            lambda r: r * math.sqrt(check(r)))


def oracle_tn(m):
    def V(r):
        if r <= 0:
            raise ValueError("r must be positive")
        return 1.0 + m / r

    return (lambda r: -math.sqrt(V(r)), lambda r: r * math.sqrt(V(r)),
            lambda r: r * math.sqrt(V(r)), lambda r: m / math.sqrt(V(r)))


def oracle_reparam(fabc, h, h_prime):
    f, a, b, c = fabc
    return (lambda t: f(h(t)) * h_prime(t), lambda t: a(h(t)), lambda t: b(h(t)),
            lambda t: c(h(t)))


def oracle_profile(profile, fabc):
    """`profile` with its coefficients taken from four separate functions."""
    return BianchiProfile(profile.name, profile.rho_min, profile.rho_max,
                          lambda rho: tuple(g(rho) for g in fabc),
                          profile.rho_ref, profile.biaxial)


def band_points(lo, hi):
    """About 200 points below, inside and above a blend band, both ends included."""
    below = math.pi + np.geomspace(1e-9, lo - math.pi, 65, endpoint=False)
    inside = np.linspace(lo, hi, 71)
    above = hi + np.geomspace(1e-9, 1e4, 60)
    ends = [np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf), lo + 1e-12, hi - 1e-12]
    return np.concatenate([below, inside, above, ends])


AH_OTHER = atiyah_hitchin_model_profile(band=(math.pi + 0.8, math.pi + 2.5), blend="c3")
AH_REPARAM = reparametrize(AH, h, h_prime, math.pi, math.inf, math.pi + 0.8)

ORACLE_CASES = {
    "ah-c2": (AH, oracle_ah(), band_points(math.pi + 1.0, math.pi + 2.0)),
    "ah-c3-other-band": (AH_OTHER, oracle_ah((math.pi + 0.8, math.pi + 2.5), "c3"),
                         band_points(math.pi + 0.8, math.pi + 2.5)),
    "ah-c3-default-band": (atiyah_hitchin_model_profile(blend="c3"), oracle_ah(blend="c3"),
                           band_points(math.pi + 1.0, math.pi + 2.0)),
    "ah-c2-other-band": (atiyah_hitchin_model_profile(band=(math.pi + 0.8, math.pi + 2.5)),
                         oracle_ah((math.pi + 0.8, math.pi + 2.5)),
                         band_points(math.pi + 0.8, math.pi + 2.5)),
    "eh-bolt": (EH, oracle_eh(0.5), 0.5 + np.geomspace(1e-12, 1e4, 200)),
    "tn-nut": (TN, oracle_tn(1.0), np.geomspace(1e-12, 1e4, 200)),
    "reparam": (AH_REPARAM, oracle_reparam(oracle_ah(), h, h_prime),
                math.pi + np.geomspace(1e-9, 1e4, 200)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_coefficients_match_four_function_oracle(case):
    profile, fabc, points = ORACLE_CASES[case]
    assert len(points) >= 200
    # the suite passes both Python floats and numpy scalars
    for rho in points.tolist() + list(points[::7]):
        expected = tuple(g(rho) for g in fabc)
        got = profile.coefficients(rho)
        assert got == expected, (case, rho, got, expected)
        assert [type(x) for x in got] == [type(x) for x in expected], (case, rho)


def classify_recording_anchors(profile, monkeypatch):
    """classify_l2 together with the anchor table of every closedness solution."""
    solutions = []

    def recording(axis, prof):
        solutions.append(ClosednessSolution(axis, prof))
        return solutions[-1]

    monkeypatch.setattr(bianchi, "ClosednessSolution", recording)
    verdicts = classify_l2(profile)
    monkeypatch.undo()
    return verdicts, [(sol._anchors, sol._sorted) for sol in solutions]


@pytest.mark.parametrize("case", ["ah-c2", "ah-c3-other-band", "eh-bolt", "tn-nut", "reparam"])
def test_classification_matches_four_function_oracle(case, monkeypatch):
    # the bianchi suite's five classify_l2 calls, on shipped and oracle-built profiles
    profile, fabc, _ = ORACLE_CASES[case]
    verdicts, anchors = classify_recording_anchors(profile, monkeypatch)
    oracle_verdicts, oracle_anchors = classify_recording_anchors(
        oracle_profile(profile, fabc), monkeypatch)
    assert len(anchors) == 3 and anchors == oracle_anchors
    assert verdicts == oracle_verdicts
    for axis in (1, 2, 3):
        assert verdicts[axis].fitted_exponents == oracle_verdicts[axis].fitted_exponents


# -- closedness solutions -----------------------------------------------------

def test_constant_ratio_closedness():
    prof = BianchiProfile("constant-ratio", 0.0, math.inf,
                          lambda r: (1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0) / 2.0),
                          rho_ref=1.0)
    # fa/(bc) = 1/(sqrt2 * sqrt2/2) = 1 identically
    assert ratio(1, prof, 2.0) == pytest.approx(1.0)
    F = ClosednessSolution(1, prof)
    for rho in (1.5, 3.0, 0.5):
        assert F(rho) == pytest.approx(math.exp(-(rho - 1.0)), rel=1e-9)


def test_eh_closedness_solution():
    F3 = ClosednessSolution(3, EH)
    for r in (0.8, 2.0, 4.0):
        assert F3(r) == pytest.approx(1.0 / r, rel=1e-10)   # rho_ref = 2a = 1
    assert F3.density(4.0) == pytest.approx(2.0 * 1.0 / 4.0 ** 3, rel=1e-9)


def counted_profile(profile):
    """`profile` with a list that records every coefficients call."""
    calls = []

    def coefficients(rho):
        calls.append(rho)
        return profile.coefficients(rho)

    return dataclasses.replace(profile, coefficients=coefficients), calls


# dyadic anchors, so every midpoint of two neighbours is exactly equidistant
TIE_ANCHORS = (3.0, 5.0, 9.0, 7.0, 0.75, 1.25, 0.5625, 40.0)   # and rho_ref = 1.0


def test_nearest_anchor_ties_go_to_the_lower_key():
    sol = ClosednessSolution(1, EH)
    for rho in TIE_ANCHORS:
        sol.exponent_integral(rho)
    keys = sorted(TIE_ANCHORS + (1.0,))
    assert sol._sorted == keys == sorted(sol._anchors)
    for lo, hi in zip(keys, keys[1:]):
        mid = 0.5 * (lo + hi)
        assert mid - lo == hi - mid
        assert sol._nearest_anchor(mid) == lo
        assert sol._nearest_anchor(math.nextafter(mid, math.inf)) == hi
        assert sol._nearest_anchor(math.nextafter(mid, -math.inf)) == lo
    # beyond both ends of the key list
    for rho in (0.5 + 2.0 ** -41, 0.5 + 1e-12, 0.55):
        assert sol._nearest_anchor(rho) == keys[0]
    for rho in (40.5, 1e3, 1e300):
        assert sol._nearest_anchor(rho) == keys[-1]
    # against the rule written out: least distance, then least rho
    for rho in np.random.default_rng(30).uniform(0.5, 45.0, 200):
        assert sol._nearest_anchor(rho) == min(keys, key=lambda s: (abs(s - rho), s))


def test_tied_query_hops_from_the_lower_anchor():
    # every node of the hop to the midpoint of 3 and 5 lies between 3 and 4
    profile, calls = counted_profile(EH)
    sol = ClosednessSolution(1, profile)
    for rho in (3.0, 5.0):
        sol.exponent_integral(rho)
    del calls[:]
    sol.exponent_integral(4.0)
    assert calls and all(3.0 <= rho <= 4.0 for rho in calls)


@pytest.mark.parametrize("rho", [math.nan, 0.5, 0.25, -1.0, math.inf, -math.inf])
def test_query_outside_the_domain_raises_before_insertion(rho):
    sol = ClosednessSolution(1, EH)
    sol.exponent_integral(3.0)
    anchors, keys = dict(sol._anchors), list(sol._sorted)
    with pytest.raises(ValueError):
        sol.exponent_integral(rho)
    assert sol._anchors == anchors and sol._sorted == keys


class SimpsonHopReference:
    """The earlier closedness solution: each new point runs `adaptive_simpson`
    over the hop from its nearest anchor, ties going to the anchor inserted
    first, and every integrand node goes through the checked `ratio`."""

    def __init__(self, axis, profile):
        self.axis = axis
        self.profile = profile
        self._anchors = {profile.rho_ref: 0.0}   # dict order is insertion order

    def exponent_integral(self, rho):
        if rho in self._anchors:
            return self._anchors[rho]
        nearest = min(self._anchors, key=lambda s: abs(s - rho))
        lo, hi = (nearest, rho) if rho > nearest else (rho, nearest)
        base = self.profile.rho_min

        def integrand(t):
            e = math.exp(t)
            return ratio(self.axis, self.profile, base + e) * e

        val = adaptive_simpson(integrand, math.log(lo - base), math.log(hi - base),
                               1e-10, rel=1e-11)
        total = self._anchors[nearest] + (val if rho > nearest else -val)
        self._anchors[rho] = total
        return total

    def __call__(self, rho):
        return math.exp(-self.exponent_integral(rho))

    def density(self, rho):
        val = self(rho)
        return 2.0 * val * val * ratio(self.axis, self.profile, rho)


@pytest.mark.parametrize("case", ["ah-c2", "ah-c3-other-band", "eh-bolt", "tn-nut", "reparam"])
def test_classification_matches_simpson_hop_reference(case, monkeypatch):
    # the bianchi suite's five classify_l2 calls: the same verdicts, and fitted
    # exponents that move only at the level of the hop quadrature's error
    profile = ORACLE_CASES[case][0]
    verdicts = classify_l2(profile)
    monkeypatch.setattr(bianchi, "ClosednessSolution", SimpsonHopReference)
    reference = classify_l2(profile)
    for axis in (1, 2, 3):
        v, w = verdicts[axis], reference[axis]
        assert (v.verdict, v.divergent_endpoints) == (w.verdict, w.divergent_endpoints)
        assert v.fitted_exponents.keys() == w.fitted_exponents.keys()
        for end, slope in v.fitted_exponents.items():
            assert slope == pytest.approx(w.fitted_exponents[end], rel=0, abs=1e-12)


# -- closedness solutions: accuracy against references outside it ------------

def two_monopole_exponent_reference(axis, rho):
    """Integral of ratio_axis from rho_ref to rho by scipy quad, in t = log(rho - pi),
    split at the blend band's edges t = 0 and log 2."""
    from scipy.integrate import quad

    def integrand(t):
        return ratio(axis, AH, math.pi + math.exp(t)) * math.exp(t)

    a, b = math.log(AH.rho_ref - math.pi), math.log(rho - math.pi)
    lo, hi = min(a, b), max(a, b)
    cuts = [lo] + [c for c in (0.0, math.log(2.0)) if lo < c < hi] + [hi]
    total = sum(quad(integrand, u, v, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                for u, v in zip(cuts, cuts[1:]))
    return total if b > a else -total


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_two_monopole_exponent_matches_quad(axis):
    # the suite's density-profile radii in its order, then both sides of each band edge
    F = ClosednessSolution(axis, AH)
    radii = [math.pi + float(r) for r in np.geomspace(1e-3, 30.0, 40)]
    radii += [edge + s * d for edge in (math.pi + 1.0, math.pi + 2.0)
              for d in (1e-6, 1e-3, 0.1) for s in (-1.0, 1.0)]
    worst = max(abs(F.exponent_integral(rho) - two_monopole_exponent_reference(axis, rho))
                for rho in radii)
    assert worst <= 1e-11


def closed_form_cases():
    # (profile, endpoint, E(rho) = -log F_3(rho)): Eguchi-Hanson F_3 = rho_ref / rho,
    # Taub-NUT F_3 = V(rho_ref) / V(rho) with V = 1 + m / rho
    for a in (0.5, 1.0, 2.6):
        yield pytest.param(eguchi_hanson_profile(a), a,
                           lambda r, a=a: math.log(r / (2.0 * a)), id=f"eh-{a}")
    for m in (1.0, 1.125):
        yield pytest.param(biaxial_taubnut_profile(m), 0.0,
                           lambda r, m=m: math.log((1.0 + m / r) / 2.0), id=f"tn-{m}")


@pytest.mark.parametrize("profile,end,exponent", closed_form_cases())
def test_axis3_exponent_matches_closed_form(profile, end, exponent):
    F = ClosednessSolution(3, profile)
    radii = [end + float(d) for d in np.geomspace(1e-5, 60.0 - end, 400)]
    # the two longest hops, from rho_ref straight to each end, go to Gauss-Kronrod
    long_hops = [abs(F.exponent_integral(rho) - exponent(rho)) for rho in (radii[0], radii[-1])]
    assert max(long_hops) <= 1e-14
    assert max(abs(F.exponent_integral(rho) - exponent(rho)) for rho in radii) <= 1e-13


# -- closedness solutions: evaluation budget -----------------------------------

def test_closedness_evaluation_budget(monkeypatch):
    kronrod_calls = []

    def counted_kronrod(*args):
        kronrod_calls.append(args)
        return gauss_kronrod(*args)

    monkeypatch.setattr(bianchi, "gauss_kronrod", counted_kronrod)
    profile, calls = counted_profile(EH)
    F = ClosednessSolution(1, profile)
    assert len(calls) == 1                       # the ratio at rho_ref
    # a short hop: its first Simpson level passes, so one checked ratio and 3 nodes
    F.exponent_integral(1.01)
    assert len(calls) == 5 and not kronrod_calls
    # repeated queries and the density at an anchor read the stored record
    F.exponent_integral(1.01)
    F(1.01)
    F.density(1.01)
    assert len(calls) == 5
    # the density at a new point costs the point alone
    F.density(1.02)
    assert len(calls) == 9 and not kronrod_calls
    # a long hop fails the first level and goes to 15-point Kronrod panels
    F.exponent_integral(30.0)
    assert len(kronrod_calls) == 1
    assert len(calls) - 9 > 4 and (len(calls) - 9 - 4) % 15 == 0


def test_classify_l2_evaluation_count(monkeypatch):
    # adaptive Simpson per anchor hop made 21,886 coefficients calls here, and
    # 12,130 while the route toward infinity still integrated |density| by it
    simpson_calls = []

    def counted_simpson(*args, **kwargs):
        simpson_calls.append(args)
        return adaptive_simpson(*args, **kwargs)

    monkeypatch.setattr(bianchi, "adaptive_simpson", counted_simpson)
    profile, calls = counted_profile(AH)
    classify_l2(profile)
    assert len(calls) == 6009
    # four truncations toward the finite end pi per axis, none toward infinity
    assert len(simpson_calls) == 12


@pytest.mark.parametrize("case", ["ah-c2", "ah-c3-other-band", "eh-bolt", "tn-nut", "reparam"])
def test_truncations_toward_infinity_match_quad(case):
    # the route toward infinity reads |1 - F(rho_ref + R)^2| for the integral of
    # |density| over [rho_ref, rho_ref + R]; this holds while ratio_i keeps the
    # sign it has at rho_ref, which every quad node (an anchor of F) checks
    from scipy.integrate import quad

    profile = ORACLE_CASES[case][0]
    anchor = profile.rho_ref
    for axis in (1, 2, 3):
        F = ClosednessSolution(axis, profile)
        for R in (8.0, 16.0, 32.0, 64.0):
            exact = abs(1.0 - F(anchor + R) ** 2)
            reference = quad(lambda rho: abs(F.density(rho)), anchor, anchor + R,
                             epsabs=0.0, epsrel=1e-12, limit=500)[0]
            assert exact == pytest.approx(reference, rel=1e-9, abs=0), (axis, R)
        sign = math.copysign(1.0, ratio(axis, profile, anchor))
        beyond = [r for rho, (_, r) in F._anchors.items() if rho > anchor]
        assert len(beyond) > 100
        assert all(math.copysign(1.0, r) == sign for r in beyond), axis


# -- verdicts over the benchmark's grids ----------------------------------------

TN_GRID = tuple(0.25 + 0.125 * j for j in range(23))
EH_GRID = tuple(0.2 * j for j in range(1, 21))
# ROADMAP item 1: at these masses the quadrature route reads its own noise at
# the nut and disagrees with the exponent route; the fix must flip them
TN_RAISES = (1.125, 1.375, 1.5)
EH_BOLTS = ("0.2", "0.4", "0.6", "0.8", "1", "1.2", "1.4", "1.6", "1.8", "2",
            "2.2", "2.4", "2.6", "2.8", "3", "3.2", "3.4", "3.6", "3.8", "4")
TWO_MONOPOLE = ("integrable", "divergent-at-endpoint(3.14159)",
                "divergent-at-endpoint(3.14159)")
TAUB_NUT = ("divergent-at-endpoint(inf)", "divergent-at-endpoint(inf)", "integrable")


def verdict_table():
    for m in TN_GRID:
        marks = [pytest.mark.xfail(strict=True, raises=ArithmeticError,
                                   reason="ROADMAP item 1")] if m in TN_RAISES else []
        yield pytest.param(lambda m=m: biaxial_taubnut_profile(m), TAUB_NUT,
                           id=f"tn-{m}", marks=marks)
    for a, bolt in zip(EH_GRID, EH_BOLTS):
        expected = (f"divergent-at-endpoint({bolt})",) * 2 + ("integrable",)
        yield pytest.param(lambda a=a: eguchi_hanson_profile(a), expected, id=f"eh-{bolt}")
    yield pytest.param(lambda: EH, ("divergent-at-endpoint(0.5)",) * 2 + ("integrable",),
                       id="suite-eh-bolt")
    yield pytest.param(lambda: TN, TAUB_NUT, id="suite-tn-nut")
    for case in ("ah-c2", "ah-c3-other-band", "reparam"):
        yield pytest.param(lambda case=case: ORACLE_CASES[case][0], TWO_MONOPOLE,
                           id=f"suite-{case}")
    # Eguchi-Hanson on (0, 1): infinity becomes a finite upper end (sign -1)
    for a in (0.5, 1.0, 2.0):
        marks = [pytest.mark.xfail(strict=True, raises=ArithmeticError,
                                   reason="ROADMAP item 1")] if a == 0.5 else []
        yield pytest.param(lambda a=a: reparametrize(eguchi_hanson_profile(a),
                                                     lambda t: a + t / (1.0 - t),
                                                     lambda t: 1.0 / (1.0 - t) ** 2,
                                                     0.0, 1.0, a / (1.0 + a)),
                           ("divergent-at-endpoint(0)",) * 2 + ("integrable",),
                           id=f"eh-{a}-on-unit-interval", marks=marks)


@pytest.mark.parametrize("make_profile,expected", verdict_table())
def test_verdict_table(make_profile, expected):
    verdicts = classify_l2(make_profile())
    assert tuple(verdicts[axis].verdict for axis in (1, 2, 3)) == expected


def test_ah_f1_tends_to_constant_at_pi():
    F1 = ClosednessSolution(1, AH)
    vals = [F1(math.pi + d) for d in (1e-2, 1e-4, 1e-6)]
    assert vals[0] > 0
    assert abs(vals[2] - vals[1]) < 1e-3 * vals[1]


def test_tn_closedness_matches_inverse_potential():
    F3 = ClosednessSolution(3, TN)
    Vref = 2.0   # V at rho_ref = m = 1
    for r in (0.3, 1.0, 5.0):
        assert F3(r) == pytest.approx(Vref / (1.0 + 1.0 / r), rel=1e-9)


# -- densities ----------------------------------------------------------------

def test_ah_density_near_pi_inverse_square():
    F2 = ClosednessSolution(2, AH)
    d1 = abs(F2.density(math.pi + 1e-4))
    d2 = abs(F2.density(math.pi + 2e-4))
    assert d1 / d2 == pytest.approx(4.0, rel=1e-2)


def test_ah_density_exponential_at_infinity():
    F1 = ClosednessSolution(1, AH)
    d1 = abs(F1.density(30.0))
    d2 = abs(F1.density(31.0))
    assert d1 / d2 == pytest.approx(math.e, rel=1e-2)


def test_eh_density_closed_form():
    F3 = ClosednessSolution(3, EH)
    for r in (0.9, 1.7, 6.0):
        assert F3.density(r) == pytest.approx(2.0 / r ** 3, rel=1e-9)


def test_ansatz_form_bundle():
    F3 = ClosednessSolution(3, EH)
    assert F3(4.0) == pytest.approx(0.25, rel=1e-10)
    assert F3.density(4.0) == pytest.approx(2.0 / 64.0, rel=1e-9)
    for rho in (0.6, 1.0, 5.0):
        assert F3(rho) > 0
    # phi_3 is F_3 times the unit-coefficient form
    coords = np.array([2.0, 1.1, 0.4, 0.9])
    unit = ansatz_form_matrix(3, EH, coords, lambda rho: 1.0)
    assert np.abs(ansatz_form_matrix(3, EH, coords, F3) - F3(2.0) * unit).max() == 0.0


# -- coordinate model: closedness, duality, wedge cross-check -----------------

@pytest.mark.parametrize("profile,rho_lo", [(AH, math.pi + 0.3), (EH, 0.7), (TN, 0.4)],
                         ids=["ah", "eh", "tn"])
def test_ansatz_closed_and_asd(profile, rho_lo):
    rng = np.random.default_rng(17)
    for _ in range(2):
        coords = sample_coords(rng, rho_lo)
        for axis in (1, 2, 3):
            F = ClosednessSolution(axis, profile)
            assert closedness_residual(axis, profile, coords, F) <= 1e-6
            assert anti_self_duality_residual(axis, profile, coords, F) <= 1e-8


def test_wedge_density_cross_check():
    rng = np.random.default_rng(18)
    for profile, rho_lo in ((AH, math.pi + 0.3), (EH, 0.7), (TN, 0.4)):
        coords = sample_coords(rng, rho_lo)
        for axis in (1, 2, 3):
            F = ClosednessSolution(axis, profile)
            assert wedge_density_cross_check(axis, profile, coords, F) <= 1e-10


def test_wedge_route_record_sees_a_negated_coframe_row(monkeypatch):
    # with the s_3 row negated, -phi ^ phi read against drho ^ s1 ^ s2 ^ s3 is
    # minus the displayed density on every axis: a relative gap of 2
    coframe = bianchi.coframe_rows

    def negated_s3(theta, psi):
        rows = coframe(theta, psi)
        rows[3] = -rows[3]
        return rows

    monkeypatch.setattr(bianchi, "coframe_rows", negated_s3)
    rng = np.random.default_rng(18)
    for profile, rho_lo in ((AH, math.pi + 0.3), (EH, 0.7), (TN, 0.4)):
        coords = sample_coords(rng, rho_lo)
        for axis in (1, 2, 3):
            F = ClosednessSolution(axis, profile)
            assert wedge_density_cross_check(axis, profile, coords, F) == \
                pytest.approx(2.0, rel=1e-12)
    records, _ = suites.run_bianchi(suites.SuiteConfig(seed=7))
    record = next(r for r in records if r.check == "density-wedge-route")
    assert not record.passed
    assert record.measured == pytest.approx(2.0, rel=1e-12)


def test_metric_positive_definite():
    rng = np.random.default_rng(19)
    for profile, rho_lo in ((AH, math.pi + 0.3), (EH, 0.7), (TN, 0.4)):
        g = metric_matrix(profile, sample_coords(rng, rho_lo))
        assert np.linalg.eigvalsh(g).min() > 0


@pytest.mark.parametrize("profile,rho_lo", [(AH, math.pi + 0.3), (EH, 0.7), (TN, 0.4)],
                         ids=["ah", "eh", "tn"])
def test_closedness_residual_sees_perturbed_solution(profile, rho_lo):
    # F solved for the profile with c scaled by 1.01 is off the closedness ODE
    # of the profile itself: the suite's bound 1e-6 must refuse it on every axis
    def scaled_c(rho):
        f, a, b, c = profile.coefficients(rho)
        return f, a, b, 1.01 * c

    perturbed = BianchiProfile(f"{profile.name}[c*1.01]", profile.rho_min, profile.rho_max,
                               scaled_c, profile.rho_ref, profile.biaxial)
    rng = np.random.default_rng(22)
    for _ in range(2):
        coords = sample_coords(rng, rho_lo)
        for axis in (1, 2, 3):
            exact = closedness_residual(axis, profile, coords, ClosednessSolution(axis, profile))
            off = closedness_residual(axis, profile, coords, ClosednessSolution(axis, perturbed))
            assert exact <= 1e-6 < off, (axis, exact, off)


def test_closedness_residual_builds_the_form_once_per_stencil_point(monkeypatch):
    calls = []
    form = bianchi.ansatz_form_matrix
    monkeypatch.setattr(bianchi, "ansatz_form_matrix",
                        lambda *args: (calls.append(None), form(*args))[1])
    coords = sample_coords(np.random.default_rng(29), 0.7)
    for axis in (1, 2, 3):
        calls.clear()
        closedness_residual(axis, EH, coords, ClosednessSolution(axis, EH))
        assert len(calls) == 17


def test_closedness_residual_is_nan_when_a_later_stencil_point_is(monkeypatch):
    # one NaN coefficient of phi at x + h e_2 feeds only the last coefficient
    # of d(phi), (1, 2, 3); Python's max would return the largest finite one
    coords = sample_coords(np.random.default_rng(30), 0.7)
    target = richardson_stencil(coords)[9].tobytes()
    form = bianchi.ansatz_form_matrix

    def poisoned(axis, profile, c, F):
        phi = form(axis, profile, c, F)
        if c.tobytes() == target:
            phi[1, 3] = math.nan
        return phi

    monkeypatch.setattr(bianchi, "ansatz_form_matrix", poisoned)
    for axis in (1, 2, 3):
        assert math.isnan(closedness_residual(axis, EH, coords, ClosednessSolution(axis, EH)))


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
    F2 = ClosednessSolution(2, AH)
    dens = lambda rho: abs(F2.density(rho))
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
    reparam = reparametrize(AH, h, h_prime, math.pi, math.inf, math.pi + 0.8)
    v1 = {ax: (v.integrable, v.divergent_endpoints) for ax, v in classify_l2(AH).items()}
    v2 = {ax: (v.integrable, v.divergent_endpoints) for ax, v in classify_l2(reparam).items()}
    assert v1 == v2


# -- cross-module identification ----------------------------------------------

def test_tn_phi3_proportional_to_gh_dtheta():
    data = gh.GHData(m=1.0, patch="north")
    F3 = ClosednessSolution(3, TN)
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
