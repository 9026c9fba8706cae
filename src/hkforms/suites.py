"""Verification suites: each runs one module's checks and returns records,
report.json summaries and CSV-only profile tables (see `run_suite`).

Suites are deterministic given (seed, tol_scale).  Each runner writes its
bounds as contract values; `tol_scale` multiplies the bound of every `le`
record, fitted slopes and exponents included, in one place (`report.Records.le`).
Random sampling uses a fresh numpy Generator seeded per suite.  A record's
worst case over its sample points is taken with numpy's max, which returns NaN
when any sample is NaN; Python's max keeps an earlier value instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import bianchi as bx
from . import gibbons_hawking as gh
from . import nahm
from .exterior import (
    FormVector,
    QuaternionicStructure,
    asd_two_form_basis,
    basis_indices,
    duality_sign,
    inner,
    kernel_subspace_distance,
    lie_closure_dimension,
    middle_kernel,
    middle_kernel_oracle_dimension,
    type_components,
    verify_so5,
)
from .numerics import partial_derivative
from .quotient import GroupActionSpec, QuotientChart, calabi_orbit_data, growth_check
from .report import Records, ReportRecord


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 7
    tol_scale: float = 1.0

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {self.seed!r}")
        scale = self.tol_scale
        try:    # math.isfinite overflows on an int past the float range
            ok = not isinstance(scale, bool) and isinstance(scale, numbers.Real) \
                and math.isfinite(scale) and scale > 0
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"tolerance scale must be finite and positive, not {scale!r}")


def _random_form(rng, dim, degree):
    coeffs = {b: complex(rng.standard_normal(), rng.standard_normal())
              for b in basis_indices(dim, degree)}
    return FormVector(dim, coeffs)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def run_algebra(config: SuiteConfig) -> tuple[list[ReportRecord], dict, dict]:
    rng = np.random.default_rng(config.seed)
    rec = Records("algebra", config.tol_scale)
    details: dict = {}

    Q4, Q8 = QuaternionicStructure(4), QuaternionicStructure(8)
    # The Lie closures run first, while each structure's algebra holds only
    # its L and Lambda blocks: their brackets are the suite's memory peak, and
    # the sigma blocks that the later checks add would otherwise be alive then.
    closures = {k: lie_closure_dimension(Q) for k, Q in ((1, Q4), (2, Q8))}
    for k, Q in ((1, Q4), (2, Q8)):
        rec.le(f"so5-commutators-k{k}", "lefschetz-adjoint-su2-commutators",
               verify_so5(Q)["max_residual"], 1e-12)

    alg = Q4.algebra
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(0, 3))
        a = _random_form(rng, 4, p)
        b = _random_form(rng, 4, p + 2)
        for axis in (1, 2, 3):
            lhs = inner(alg.lefschetz(axis, a), b)
            rhs = inner(a, alg.lefschetz_adjoint(axis, b))
            worst = np.maximum(worst, abs(lhs - rhs))
    rec.le("adjointness-random-pairs", "wedge-adjoint-pairing", worst, 1e-12)

    kernel1 = middle_kernel(Q4)
    rec.eq("middle-kernel-dim-k1", "joint-kernel-dimension", len(kernel1), 3)
    rec.le("middle-kernel-asd-distance-k1", "kernel-equals-anti-self-dual-forms",
           kernel_subspace_distance(kernel1, asd_two_form_basis(Q4)), 1e-10)
    rec.eq("middle-kernel-duality-k1", "duality-sign", duality_sign(kernel1, Q4), -1)
    worst_ann = 0.0
    type_ok = True
    for eta in kernel1:
        for axis in (1, 2, 3):
            worst_ann = np.max([worst_ann, alg.su2_action(axis, eta).norm(),
                                alg.lefschetz_adjoint(axis, eta).norm()])
            type_ok &= [(p, q) for p, q, _ in type_components(eta, axis, Q4)] == [(1, 1)]
    rec.le("middle-kernel-annihilation-k1", "primitive-su2-invariant", worst_ann, 1e-10)
    rec.flag("middle-kernel-type-k1", "type-1-1-all-axes", type_ok)

    alg8 = Q8.algebra
    kernel2 = middle_kernel(Q8)
    oracle_dim = middle_kernel_oracle_dimension(Q8)
    rec.eq("middle-kernel-dim-k2", "joint-kernel-dimension", len(kernel2), oracle_dim)
    rec.eq("middle-kernel-duality-k2", "duality-sign", duality_sign(kernel2, Q8), +1)
    worst_ann2 = 0.0
    type_ok2 = True
    for eta in kernel2:
        for axis in (1, 2, 3):
            worst_ann2 = np.maximum(worst_ann2, alg8.su2_action(axis, eta).norm())
            type_ok2 &= [(p, q) for p, q, _ in type_components(eta, axis, Q8)] == [(2, 2)]
    rec.le("middle-kernel-annihilation-k2", "su2-invariant", worst_ann2, 1e-10)
    rec.flag("middle-kernel-type-k2", "type-2-2-all-axes", type_ok2)

    details["lie_closure"] = {}
    for k, c in closures.items():
        positive, negative = c.killing_signature
        rec.eq(f"lie-closure-dim-k{k}", "bracket-closure-rank", c.dimension, 10)
        rec.le(f"lie-closure-residual-k{k}", "bracket-closure-residual",
               c.closure_residual, 1e-12)
        rec.eq(f"lie-closure-killing-positive-k{k}", "so41-killing", positive, 4)
        rec.eq(f"lie-closure-killing-negative-k{k}", "so41-killing", negative, 6)
        details["lie_closure"][f"k{k}"] = {"smallest_singular_value": c.smallest_singular_value}
    details["middle_kernel_dimensions"] = {"k1": len(kernel1), "k2": len(kernel2)}
    return rec, details, {}


# ---------------------------------------------------------------------------
# taubnut
# ---------------------------------------------------------------------------

_TAUBNUT_MASS = 1.0

def run_taubnut(config: SuiteConfig) -> tuple[list[ReportRecord], dict, dict]:
    m = _TAUBNUT_MASS
    rng = np.random.default_rng(config.seed + 1)
    rec = Records("taubnut", config.tol_scale)
    data = gh.GHData(m=m)

    points = []
    while len(points) < 100:
        x = rng.standard_normal(3) * 3.0
        if np.linalg.norm(x) > 1e-2:
            points.append(gh.GHPoint(x, float(rng.random())))

    worst_dd = np.max([gh.ddtheta_residual(p, data) for p in points[:25]])
    rec.le("harmonic-form-closed", "dd-theta-finite-difference", worst_dd, 1e-6)
    worst_asd = np.max([gh.anti_self_duality_residual(p, data) for p in points])
    rec.le("harmonic-form-anti-self-dual", "star-plus-identity", worst_asd, 1e-8)
    worst_density = np.max([abs(gh.l2_density(p, data) - gh.l2_density_from_forms(p, data))
                            for p in points])
    rec.le("density-two-routes", "wedge-vs-closed-form-density", worst_density, 1e-10)

    north = gh.GHData(m=m, patch="north")
    south = gh.GHData(m=m, patch="south")
    worst_patch = np.max([abs(gh.l2_density_from_forms(p, north)
                              - gh.l2_density_from_forms(p, south)) for p in points[:20]])
    rec.le("gauge-patch-independence", "scalar-agreement-on-overlap", worst_patch, 1e-10)

    value = gh.l2_norm(data)
    closed = gh.closed_form_l2_norm(data)
    rel = abs(value - closed) / closed
    rec.le("l2-norm-vs-closed-form", "radial-quadrature", rel, 1e-6)

    scaling_dev = 0.0
    for mm in (0.5, 1.0, 2.0):
        dm = gh.GHData(m=mm)
        scaling_dev = np.maximum(scaling_dev,
                                 abs(gh.l2_norm(dm) / (mm * dm.tau_period) - 4.0 * math.pi))
    rec.le("l2-norm-mass-scaling", "norm-linear-in-mass-and-period",
           scaling_dev, 1e-6 * 4.0 * math.pi)

    shells, slope = gh.tail_decay(data)
    rec.le("tail-decay-slope", "shell-integral-log-slope", abs(slope + 1.0), 0.1)
    cross = [gh.cutoff_cross_term(data, r, seed=config.seed) for r in (1e2, 1e3, 1e4)]
    rec.flag("cutoff-cross-term-decays", "annulus-estimate", cross[0] > cross[1] > cross[2])

    radii = np.geomspace(0.05, 50.0, 40)
    details = {
        "m": m,
        "tau_period": data.tau_period,
        "l2_norm": value,
        "closed_form": closed,
        "rel_err": rel,
        "tail_slope": slope,
    }
    profile = {"r": list(radii),
               "density": [gh.l2_density(gh.GHPoint(np.array([r, 0.0, 0.0])), data)
                           for r in radii]}
    return rec, {"record": details}, {"radial_profile": profile}


# ---------------------------------------------------------------------------
# bianchi
# ---------------------------------------------------------------------------

def run_bianchi(config: SuiteConfig) -> tuple[list[ReportRecord], dict, dict]:
    rng = np.random.default_rng(config.seed + 2)
    rec = Records("bianchi", config.tol_scale)

    ah = bx.atiyah_hitchin_model_profile()
    eh = bx.eguchi_hanson_profile(0.5)
    tn = bx.biaxial_taubnut_profile(1.0)

    ah_v = bx.classify_l2(ah)
    rec.flag("two-monopole-verdicts", "only-axis-1-integrable",
             ah_v[1].integrable and not ah_v[2].integrable and not ah_v[3].integrable
             and ah_v[2].divergent_endpoints == (math.pi,)
             and ah_v[3].divergent_endpoints == (math.pi,))
    worst_exp = np.max([abs(ah_v[axis].fitted_exponents[math.pi] + 2.0) for axis in (2, 3)])
    rec.le("two-monopole-endpoint-exponent", "inverse-square-density", worst_exp, 0.05)

    eh_v = bx.classify_l2(eh)
    rec.flag("eguchi-hanson-verdicts", "only-axis-3-integrable",
             eh_v[3].integrable and not eh_v[1].integrable and not eh_v[2].integrable)

    tn_v = bx.classify_l2(tn)
    rec.flag("biaxial-taubnut-verdicts", "axis-3-integrable-and-circle-invariant",
             tn_v[3].integrable and tn_v[3].extra_circle_invariant
             and not tn_v[1].extra_circle_invariant
             and not tn_v[1].integrable and not tn_v[2].integrable)

    other = bx.atiyah_hitchin_model_profile(band=(math.pi + 0.8, math.pi + 2.5), blend="c3")
    same = {a: v.verdict for a, v in ah_v.items()} \
        == {a: v.verdict for a, v in bx.classify_l2(other).items()}
    rec.flag("interpolant-independence", "verdicts-match", same)

    def h(t):
        u = t - math.pi
        return math.pi + u + u * u / (1.0 + u)

    def h_prime(t):
        u = t - math.pi
        return 1.0 + (u * u + 2.0 * u) / (1.0 + u) ** 2

    reparam = bx.reparametrize(ah, h, h_prime, math.pi, math.inf, math.pi + 0.8)
    re_v = bx.classify_l2(reparam)
    same_re = all(re_v[a].integrable == ah_v[a].integrable
                  and re_v[a].divergent_endpoints == ah_v[a].divergent_endpoints
                  for a in (1, 2, 3))
    rec.flag("reparametrization-independence", "verdicts-match", same_re)

    worst_closed = 0.0
    worst_asd = 0.0
    worst_wedge = 0.0
    for profile, lo in ((ah, math.pi + 0.3), (eh, 0.7), (tn, 0.4)):
        coords = np.array([lo + 2.0 * rng.random(), 0.4 + 2.2 * rng.random(),
                           6.0 * rng.random(), 6.0 * rng.random()])
        for axis in (1, 2, 3):
            F = bx.ClosednessSolution(axis, profile)
            worst_closed = np.maximum(worst_closed,
                                      bx.closedness_residual(axis, profile, coords, F))
            worst_asd = np.maximum(worst_asd,
                                   bx.anti_self_duality_residual(axis, profile, coords, F))
            worst_wedge = np.maximum(worst_wedge,
                                     bx.wedge_density_cross_check(axis, profile, coords, F))
    rec.le("ansatz-closed", "finite-difference-d-phi", worst_closed, 1e-6)
    rec.le("ansatz-anti-self-dual", "star-plus-identity", worst_asd, 1e-8)

    data = gh.GHData(m=1.0, patch="north")
    F3 = bx.ClosednessSolution(3, tn)
    constants = []
    for _ in range(8):
        coords = np.array([0.3 + 3.0 * rng.random(), 0.3 + 2.4 * rng.random(),
                           6.0 * rng.random(), 6.0 * rng.random()])
        phi3 = bx.ansatz_form_matrix(3, tn, coords, F3)
        target, jac = bx.euler_to_gh_chart(1.0, coords)
        pulled = bx.pullback_two_form(
            gh.dtheta(gh.GHPoint(target[:3], target[3]), data), jac)
        iu = np.triu_indices(4, 1)
        mask = np.abs(pulled[iu]) > 1e-8
        constants.append(float(np.median((phi3[iu][mask] / pulled[iu][mask]).real)))
    dev = np.max([abs(c - constants[0]) for c in constants]) / abs(constants[0])
    rec.le("cross-module-proportionality", "invariant-form-matches-gibbons-hawking", dev, 1e-6)
    rec.le("density-wedge-route", "minus-phi-wedge-phi-vs-density", worst_wedge, 1e-10)

    verdict_records = []
    for name, vmap in (("two-monopole", ah_v), ("eguchi-hanson", eh_v),
                       ("biaxial-taubnut", tn_v)):
        for axis, v in vmap.items():
            endpoint = v.divergent_endpoints[0] if v.divergent_endpoints else None
            verd = {
                "profile": name,
                "axis": axis,
                "verdict": v.verdict,
                "endpoint": endpoint,
                "fitted_exponent": {str(k): x for k, x in v.fitted_exponents.items()},
            }
            verdict_records.append(verd)

    rhos = np.geomspace(1e-3, 30.0, 40)
    F1 = bx.ClosednessSolution(1, ah)
    density_profile = {"rho_minus_pi": list(rhos),
                       "density_axis1": [abs(F1.density(math.pi + float(r))) for r in rhos]}
    details = {"verdicts": verdict_records, "proportionality_constant": constants[0]}
    return rec, details, {"density_profile": density_profile}


# ---------------------------------------------------------------------------
# quotient
# ---------------------------------------------------------------------------

def _eguchi_hanson_deviation(chart: QuotientChart, profile: bx.BianchiProfile,
                             t: float) -> float:
    """Relative deviation at t of the Calabi orbit data along the ray from a profile.

    The orbit coefficient A(t) is the profile's radius r.  The fiber coefficient
    C^2 is compared with c(r)^2, and the radial factor with 2 f(r) dr/dt: the
    factor 2 converts the profile's display to the coframe ds_1 = s_2 ^ s_3.
    """
    radius = lambda v: math.sqrt(calabi_orbit_data(chart, float(v[0]))["A_sq"])
    d = calabi_orbit_data(chart, t)
    f, _, _, c = profile.coefficients(math.sqrt(d["A_sq"]))
    radial = 2.0 * f * partial_derivative(radius, np.array([t]), 0)
    return np.max([abs(d["C_sq"] - c * c) / (c * c), abs(math.sqrt(d["f_sq"]) - radial) / radial])


def run_quotient(config: SuiteConfig) -> tuple[list[ReportRecord], dict, dict]:
    rng = np.random.default_rng(config.seed + 3)
    rec = Records("quotient", config.tol_scale)
    details: dict = {}

    for model, shift in (("taubnut_R", 0.0), ("calabi_circle", 0.5)):
        spec = GroupActionSpec(model, level_shift=shift)
        chart = QuotientChart(spec)
        tag = "taubnut" if model == "taubnut_R" else "calabi"

        worst_moment = 0.0
        worst_proj = 0.0
        grid = [rng.standard_normal(4) for _ in range(9)]
        for u in grid:
            p = chart.solve_level_set(u)
            worst_moment = np.maximum(worst_moment, spec.moment_residual(p))
            P = chart.projector(p)
            worst_proj = np.max([worst_proj,
                                 float(np.abs(P @ P - P).max()),
                                 float(np.abs(P - P.T).max()),
                                 float(np.abs(P @ spec.generator_real(p)).max()),
                                 float(np.abs(spec.moment_gradient_rows(p) @ P).max())])
        rec.le(f"{tag}-moment-residual", "level-set-solve", worst_moment, 1e-12)
        rec.le(f"{tag}-projector", "horizontal-projection", worst_proj, 1e-10)

        worst_closed = 0.0
        worst_om = 0.0
        worst_beta = 0.0
        for _ in range(2):
            u = 0.7 * rng.standard_normal(4)
            for axis in (1, 2, 3):
                worst_closed = np.maximum(worst_closed, chart.closedness_residual(axis, u))
            worst_om = np.max([worst_om, *chart.omegas_relation_residuals(u).values()])
            worst_beta = np.maximum(worst_beta, chart.beta_exactness_residual(u))
        rec.le(f"{tag}-forms-closed", "d-omega-finite-difference", worst_closed, 1e-5)
        rec.le(f"{tag}-rotation-relations", "circle-rotates-complex-forms", worst_om, 1e-5)
        rec.le(f"{tag}-beta-exactness", "d-iota-X-omega2", worst_beta, 1e-5)

        pts = [rng.standard_normal(4) * s for s in np.linspace(0.5, 4.0, 12)]
        pts += [np.zeros(4) + np.array([0.0, 0.0, t, 0.0]) for t in (0.1, 0.2, 0.5)]
        rep = growth_check(chart, chart.rotation_ambient, np.array(pts))
        rec.eq(f"{tag}-growth-violations", "projection-contracts-norms", rep.violations, 0)
        rec.le(f"{tag}-growth-linear-fit", "affine-field-linear-growth",
               abs(rep.c1_ambient - rep.linear_part_norm), 0.05 * rep.linear_part_norm)
        details[tag] = {
            "model": model,
            "grid": len(grid),
            "max_residuals": {"moment": worst_moment, "closedness": worst_closed,
                              "omegas": worst_om},
            "growth": {"c1": rep.c1_pushed, "c0": rep.c0},
        }

    spec = GroupActionSpec("taubnut_R")
    chart = QuotientChart(spec)
    worst_tri = 0.0
    for _ in range(2):
        L = chart.lie_derivatives(chart.triholomorphic_ambient, 0.7 * rng.standard_normal(4))[0]
        worst_tri = np.maximum(worst_tri, float(np.abs(L).max()))
    rec.le("taubnut-triholomorphic-circle", "all-forms-invariant", worst_tri, 1e-5)

    chart = QuotientChart(GroupActionSpec("calabi_circle", level_shift=0.5))
    worst_orbit = 0.0
    for t in (0.0, 0.4, 1.1):
        d = calabi_orbit_data(chart, t)
        worst_orbit = np.max([worst_orbit, abs(d["A_sq"] - d["B_sq"]), d["cross_max"],
                              d["radial_cross"]])
    rec.le("calabi-orbit-biaxial", "su2-orbit-metric-biaxial", worst_orbit, 1e-10)
    # the bolt radius A(0) = 1/2 fixes the Eguchi-Hanson parameter
    eh = bx.eguchi_hanson_profile(math.sqrt(calabi_orbit_data(chart, 0.0)["A_sq"]))
    worst_eh = np.max([_eguchi_hanson_deviation(chart, eh, t) for t in (0.25, 0.5, 0.9, 1.4, 2.0)])
    rec.le("calabi-is-eguchi-hanson", "orbit-metric-matches-profile", worst_eh, 1e-8)
    return rec, details, {}


# ---------------------------------------------------------------------------
# nahm
# ---------------------------------------------------------------------------

def _euler_record(rec: Records, rho: np.ndarray) -> list[float]:
    """Record the distance of rho's Euler exponents from {-2, -1 (x3), 0 (x3), 1 (x5)}."""
    lam = nahm.euler_exponents(rho)
    distance = float(np.abs(lam - np.array(nahm.EULER_EXPONENTS)).max())
    rec.le("euler-exponents", "integer-pole-exponents", distance, 1e-10)
    return [float(x) for x in lam]


def run_nahm(config: SuiteConfig) -> tuple[list[ReportRecord], dict, dict]:
    rec = Records("nahm", config.tol_scale)
    eta = 1j * np.array([[0.1, 0.4 - 0.2j], [0.4 + 0.2j, -0.1]])
    xi = 1j * np.array([[0.3, 0.2 + 0.1j], [0.2 - 0.1j, -0.3]])

    state = nahm.one_pole_state(0.1, 1.0, 2000)
    res_value = nahm.nahm_residual(state)
    rec.le("one-pole-residual", "exact-solution-on-grid", res_value, 1e-8)

    g, g_prime = nahm.bump_gauge_path(state, xi)
    transformed = nahm.gauge_transform(state, g, g_prime)
    rec.le("gauge-invariance", "residual-under-unitary-path",
           abs(nahm.nahm_residual(transformed) - res_value), 1e-8)

    shifted = nahm.translation_action(state, np.array([0.3, -0.5, 0.2]))
    rec.le("translation-invariance", "central-shift-symmetry",
           abs(nahm.nahm_residual(shifted) - res_value), 1e-10)

    exponents = _euler_record(rec, state.residues.rho)

    big = nahm.one_pole_state(1e-3, 1.0, 20001)
    psi, psi_prime = nahm.bumped_psi(big, eta)

    a = nahm.ivp_tangent(big, np.array([0.1, 0.2, 0.3]), seed=config.seed)
    b = nahm.ivp_tangent(big, np.array([-0.4, 0.5, 0.1]), seed=config.seed + 1)
    anti = abs(nahm.symplectic_form(a, b) + nahm.symplectic_form(b, a))
    rec.le("symplectic-antisymmetry", "pairing-skew",
           anti, 1e-12 * max(1.0, abs(nahm.symplectic_form(a, b))))

    translation = nahm.translation_tangent(big, np.array([0.7, -0.3, 1.1]))
    rep_tr = nahm.contraction_identity(big, translation, psi, psi_prime)
    rec.le("contraction-translation-tangent", "trace-free-residue-cancellation",
           rep_tr.rel_err, 1e-10)

    tangent = nahm.ivp_tangent(big, np.array([0.4, -0.2, 0.6]), seed=config.seed + 2)
    rep_main = nahm.contraction_identity(big, tangent, psi, psi_prime)
    rec.le("contraction-identity", "rotation-pairing-vs-trace-integral", rep_main.rel_err, 1e-4)

    def sweep_contraction(eps, nodes):
        st = nahm.one_pole_state(eps, 1.0, nodes)
        tg = nahm.ivp_tangent(st, np.array([0.4, -0.2, 0.6]), seed=config.seed + 2)
        return nahm.contraction_identity(st, tg, *nahm.bumped_psi(st, eta))

    boundary_values = [abs(sweep_contraction(eps, 8001).boundary_left)
                       for eps in (1e-2, 5e-3, 2.5e-3)]
    eps_orders = np.log2(np.array(boundary_values[:-1]) / np.array(boundary_values[1:]))
    rec.flag("boundary-term-decreasing", "pole-end-scalar-limit",
             boundary_values[0] > boundary_values[1] > boundary_values[2])
    rec.le("boundary-epsilon-order", "linear-vanishing",
           float(np.abs(1.0 - eps_orders).max()), 0.1)

    h_errs = [sweep_contraction(1e-2, nodes).rel_err for nodes in (501, 1001, 2001)]
    h_orders = np.log2(np.array(h_errs[:-1]) / np.array(h_errs[1:]))
    rec.flag("grid-halving-decreasing", "quadrature-convergence",
             h_errs[0] > h_errs[1] > h_errs[2])
    rec.flag("grid-halving-order", "observed-order-at-least-2", bool(np.all(h_orders >= 2.0)))

    for name, tangent, bound in (
            ("translation", nahm.translation_tangent(state, np.array([0.7, -0.3, 1.1])), 1e-10),
            ("gauge", nahm.gauge_tangent(state, xi), 1e-10),
            ("pole-shift", nahm.pole_shift_tangent(state), 1e-6),
            ("ivp", nahm.ivp_tangent(state, np.array([0.4, -0.2, 0.6]), seed=config.seed + 2),
             1e-9)):
        rec.le(f"linearized-{name}", "linearized-nahm-equation",
               nahm.linearized_residual(tangent, state), bound)

    details = {
        "epsilon": big.eps,
        "h": big.h,
        "nahm_residual": res_value,
        "euler_exponents": exponents,
        "lhs": rep_main.lhs,
        "rhs": rep_main.rhs,
        "boundary": rep_main.boundary,
        "rel_err": rep_main.rel_err,
        "epsilon_orders": list(map(float, eps_orders)),
        "h_orders": list(map(float, h_orders)),
    }
    # coefficients of B_i in the basis (i Id, E_1, E_2, E_3), E = SU2_BASIS
    state_csv = {"s": list(state.s)}
    for i in range(4):
        for a, name in enumerate(("id", "E1", "E2", "E3")):
            state_csv[f"B{i}_{name}"] = list(state.B[i][:, a])
    return rec, {"record": details}, {"state_profile": state_csv}


_RUNNERS = {
    "algebra": run_algebra,
    "taubnut": run_taubnut,
    "bianchi": run_bianchi,
    "quotient": run_quotient,
    "nahm": run_nahm,
}
SUITE_NAMES = tuple(_RUNNERS)


# numerical faults a suite may raise; each becomes one failed record
SUITE_FAULTS = (ArithmeticError, RuntimeError, np.linalg.LinAlgError)


def _run_isolated(suite: str, config: SuiteConfig) -> tuple[list[ReportRecord], dict, dict]:
    try:
        return _RUNNERS[suite](config)
    except SUITE_FAULTS as exc:
        rec = Records(suite, config.tol_scale)
        rec.flag("suite-error", "plumbing", False)
        return rec, {"error": f"{type(exc).__name__}: {exc}"}, {}


def run_suite(name: str, config: SuiteConfig) -> tuple[list[ReportRecord], dict, dict]:
    """Run one suite (or 'all'); unknown names raise ValueError.

    Returns (records, details, profiles).  `details` holds the per-suite
    summaries of report.json, keyed by suite under 'all'.  `profiles` is a flat
    {file stem: {column: list}} of the plot-ready tables, each written only as
    its own CSV; under 'all' each stem gets its suite as a prefix
    (`nahm_state_profile`).  A suite that raises one of SUITE_FAULTS yields a
    single failed `<suite>/suite-error` record in place of its own, no
    profiles, and the others still run.
    """
    if name == "all":
        records: list[ReportRecord] = []
        details: dict = {}
        profiles: dict = {}
        for suite in SUITE_NAMES:
            r, d, p = _run_isolated(suite, config)
            records.extend(r)
            details[suite] = d
            profiles.update({f"{suite}_{stem}": table for stem, table in p.items()})
        return records, details, profiles
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return _run_isolated(name, config)
