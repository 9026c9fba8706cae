"""Verification suites: each runs one module's checks and returns records.

Suites are deterministic given (seed, tol_scale).  Tolerances are the
contract values scaled by tol_scale; random sampling uses a fresh
numpy Generator seeded per suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bianchi as bx
from . import gibbons_hawking as gh
from . import nahm
from .exterior import (
    FormVector,
    LefschetzAlgebra,
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
from .quotient import GroupActionSpec, QuotientChart, growth_check
from .report import ReportRecord, bounded, exact, flag

SUITE_NAMES = ("algebra", "taubnut", "bianchi", "quotient", "nahm")


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 7
    tol_scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.tol_scale) and self.tol_scale > 0):
            raise ValueError("tolerance scale must be finite and positive")


def _random_form(rng, dim, degree):
    coeffs = {b: complex(rng.standard_normal(), rng.standard_normal())
              for b in basis_indices(dim, degree)}
    return FormVector(dim, coeffs)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def run_algebra(config: SuiteConfig) -> tuple[list[ReportRecord], dict]:
    rng = np.random.default_rng(config.seed)
    ts = config.tol_scale
    records: list[ReportRecord] = []
    details: dict = {}

    Q4, Q8 = QuaternionicStructure(4), QuaternionicStructure(8)
    for k, Q in ((1, Q4), (2, Q8)):
        records.append(bounded("algebra", f"so5-commutators-k{k}",
                               "lefschetz-adjoint-su2-commutators",
                               verify_so5(Q)["max_residual"], 1e-12 * ts))

    alg = LefschetzAlgebra(Q4)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(0, 3))
        a = _random_form(rng, 4, p)
        b = _random_form(rng, 4, p + 2)
        for axis in (1, 2, 3):
            lhs = inner(alg.lefschetz(axis, a), b)
            rhs = inner(a, alg.lefschetz_adjoint(axis, b))
            worst = max(worst, abs(lhs - rhs))
    records.append(bounded("algebra", "adjointness-random-pairs",
                           "wedge-adjoint-pairing", worst, 1e-12 * ts))

    kernel1 = middle_kernel(Q4)
    records.append(exact("algebra", "middle-kernel-dim-k1", "joint-kernel-dimension",
                         len(kernel1), 3))
    records.append(bounded("algebra", "middle-kernel-asd-distance-k1",
                           "kernel-equals-anti-self-dual-forms",
                           kernel_subspace_distance(kernel1, asd_two_form_basis(Q4)),
                           1e-10 * ts))
    records.append(exact("algebra", "middle-kernel-duality-k1", "duality-sign",
                         duality_sign(kernel1, Q4), -1))
    worst_ann = 0.0
    type_ok = True
    for eta in kernel1:
        for axis in (1, 2, 3):
            worst_ann = max(worst_ann, alg.su2_action(axis, eta).norm(),
                            alg.lefschetz_adjoint(axis, eta).norm())
            type_ok &= [(p, q) for p, q, _ in type_components(eta, axis, Q4)] == [(1, 1)]
    records.append(bounded("algebra", "middle-kernel-annihilation-k1",
                           "primitive-su2-invariant", worst_ann, 1e-10 * ts))
    records.append(flag("algebra", "middle-kernel-type-k1", "type-1-1-all-axes", type_ok))

    alg8 = LefschetzAlgebra(Q8)
    kernel2 = middle_kernel(Q8)
    oracle_dim = middle_kernel_oracle_dimension(Q8)
    records.append(exact("algebra", "middle-kernel-dim-k2", "joint-kernel-dimension",
                         len(kernel2), oracle_dim))
    records.append(exact("algebra", "middle-kernel-duality-k2", "duality-sign",
                         duality_sign(kernel2, Q8), +1))
    worst_ann2 = 0.0
    type_ok2 = True
    for eta in kernel2:
        for axis in (1, 2, 3):
            worst_ann2 = max(worst_ann2, alg8.su2_action(axis, eta).norm())
            type_ok2 &= [(p, q) for p, q, _ in type_components(eta, axis, Q8)] == [(2, 2)]
    records.append(bounded("algebra", "middle-kernel-annihilation-k2",
                           "su2-invariant", worst_ann2, 1e-10 * ts))
    records.append(flag("algebra", "middle-kernel-type-k2", "type-2-2-all-axes", type_ok2))

    details["lie_closure"] = {}
    for k, Q in ((1, Q4), (2, Q8)):
        c = lie_closure_dimension(Q)
        positive, negative = c.killing_signature
        records += [
            exact("algebra", f"lie-closure-dim-k{k}", "bracket-closure-rank", c.dimension, 10),
            bounded("algebra", f"lie-closure-residual-k{k}", "bracket-closure-residual",
                    c.closure_residual, 1e-12 * ts),
            exact("algebra", f"lie-closure-killing-positive-k{k}", "so41-killing", positive, 4),
            exact("algebra", f"lie-closure-killing-negative-k{k}", "so41-killing", negative, 6)]
        details["lie_closure"][f"k{k}"] = {"smallest_singular_value": c.smallest_singular_value}
    details["middle_kernel_dimensions"] = {"k1": len(kernel1), "k2": len(kernel2)}
    return records, details


# ---------------------------------------------------------------------------
# taubnut
# ---------------------------------------------------------------------------

def run_taubnut(config: SuiteConfig, m: float = 1.0) -> tuple[list[ReportRecord], dict]:
    rng = np.random.default_rng(config.seed + 1)
    ts = config.tol_scale
    records: list[ReportRecord] = []
    data = gh.GHData(m=m)

    points = []
    while len(points) < 100:
        x = rng.standard_normal(3) * 3.0
        if np.linalg.norm(x) > 1e-2:
            points.append(gh.GHPoint(x, float(rng.random())))

    worst_dd = max(gh.ddtheta_residual(p, data) for p in points[:25])
    records.append(bounded("taubnut", "harmonic-form-closed", "dd-theta-finite-difference",
                           worst_dd, 1e-6 * ts))
    worst_asd = max(gh.anti_self_duality_residual(p, data) for p in points)
    records.append(bounded("taubnut", "harmonic-form-anti-self-dual", "star-plus-identity",
                           worst_asd, 1e-8 * ts))
    worst_density = max(abs(gh.l2_density(p, data) - gh.l2_density_from_forms(p, data))
                        for p in points)
    records.append(bounded("taubnut", "density-two-routes", "wedge-vs-closed-form-density",
                           worst_density, 1e-10 * ts))

    north = gh.GHData(m=m, patch="north")
    south = gh.GHData(m=m, patch="south")
    worst_patch = max(abs(gh.l2_density_from_forms(p, north) - gh.l2_density_from_forms(p, south))
                      for p in points[:20])
    records.append(bounded("taubnut", "gauge-patch-independence", "scalar-agreement-on-overlap",
                           worst_patch, 1e-10 * ts))

    value = gh.l2_norm(data)
    closed = gh.closed_form_l2_norm(data)
    rel = abs(value - closed) / closed
    records.append(bounded("taubnut", "l2-norm-vs-closed-form", "radial-quadrature",
                           rel, 1e-6 * ts))

    scaling_dev = 0.0
    for mm in (0.5, 1.0, 2.0):
        dm = gh.GHData(m=mm)
        scaling_dev = max(scaling_dev,
                          abs(gh.l2_norm(dm) / (mm * dm.tau_period) - 4.0 * math.pi))
    records.append(bounded("taubnut", "l2-norm-mass-scaling", "norm-linear-in-mass-and-period",
                           scaling_dev, 1e-6 * ts * 4.0 * math.pi))

    shells, slope = gh.tail_decay(data)
    records.append(bounded("taubnut", "tail-decay-slope", "shell-integral-log-slope",
                           abs(slope + 1.0), 0.1))
    cross = [gh.cutoff_cross_term(data, r, seed=config.seed) for r in (1e2, 1e3, 1e4)]
    records.append(flag("taubnut", "cutoff-cross-term-decays", "annulus-estimate",
                        cross[0] > cross[1] > cross[2]))

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
    return records, {"record": details, "radial_profile": profile}


# ---------------------------------------------------------------------------
# bianchi
# ---------------------------------------------------------------------------

def run_bianchi(config: SuiteConfig) -> tuple[list[ReportRecord], dict]:
    rng = np.random.default_rng(config.seed + 2)
    ts = config.tol_scale
    records: list[ReportRecord] = []

    ah = bx.atiyah_hitchin_model_profile()
    eh = bx.eguchi_hanson_profile(0.5)
    tn = bx.biaxial_taubnut_profile(1.0)

    ah_v = bx.classify_l2(ah)
    records.append(flag("bianchi", "two-monopole-verdicts", "only-axis-1-integrable",
                        ah_v[1].integrable and not ah_v[2].integrable
                        and not ah_v[3].integrable
                        and ah_v[2].divergent_endpoints == (math.pi,)
                        and ah_v[3].divergent_endpoints == (math.pi,)))
    worst_exp = max(abs(ah_v[axis].fitted_exponents[math.pi] + 2.0) for axis in (2, 3))
    records.append(bounded("bianchi", "two-monopole-endpoint-exponent",
                           "inverse-square-density", worst_exp, 0.05))

    eh_v = bx.classify_l2(eh)
    records.append(flag("bianchi", "eguchi-hanson-verdicts", "only-axis-3-integrable",
                        eh_v[3].integrable and not eh_v[1].integrable
                        and not eh_v[2].integrable))

    tn_v = bx.classify_l2(tn)
    records.append(flag("bianchi", "biaxial-taubnut-verdicts",
                        "axis-3-integrable-and-circle-invariant",
                        tn_v[3].integrable and tn_v[3].extra_circle_invariant
                        and not tn_v[1].extra_circle_invariant
                        and not tn_v[1].integrable and not tn_v[2].integrable))

    other = bx.atiyah_hitchin_model_profile(band=(math.pi + 0.8, math.pi + 2.5), blend="c3")
    same = {a: v.verdict for a, v in ah_v.items()} \
        == {a: v.verdict for a, v in bx.classify_l2(other).items()}
    records.append(flag("bianchi", "interpolant-independence", "verdicts-match", same))

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
    records.append(flag("bianchi", "reparametrization-independence", "verdicts-match", same_re))

    worst_closed = 0.0
    worst_asd = 0.0
    for profile, lo in ((ah, math.pi + 0.3), (eh, 0.7), (tn, 0.4)):
        coords = np.array([lo + 2.0 * rng.random(), 0.4 + 2.2 * rng.random(),
                           6.0 * rng.random(), 6.0 * rng.random()])
        for axis in (1, 2, 3):
            F = bx.solve_closedness(axis, profile)
            worst_closed = max(worst_closed, bx.closedness_residual(axis, profile, coords, F))
            worst_asd = max(worst_asd, bx.anti_self_duality_residual(axis, profile, coords, F))
    records.append(bounded("bianchi", "ansatz-closed", "finite-difference-d-phi",
                           worst_closed, 1e-6 * ts))
    records.append(bounded("bianchi", "ansatz-anti-self-dual", "star-plus-identity",
                           worst_asd, 1e-8 * ts))

    data = gh.GHData(m=1.0, patch="north")
    F3 = bx.solve_closedness(3, tn)
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
    dev = max(abs(c - constants[0]) for c in constants) / abs(constants[0])
    records.append(bounded("bianchi", "cross-module-proportionality",
                           "invariant-form-matches-gibbons-hawking", dev, 1e-6 * ts))

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
    F1 = bx.solve_closedness(1, ah)
    density_profile = {"rho_minus_pi": list(rhos),
                       "density_axis1": [bx.l2_measure_density(1, ah, math.pi + float(r), F1)
                                         for r in rhos]}
    return records, {"verdicts": verdict_records, "density_profile": density_profile,
                     "proportionality_constant": constants[0]}


# ---------------------------------------------------------------------------
# quotient
# ---------------------------------------------------------------------------

def run_quotient(config: SuiteConfig) -> tuple[list[ReportRecord], dict]:
    rng = np.random.default_rng(config.seed + 3)
    ts = config.tol_scale
    records: list[ReportRecord] = []
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
            worst_moment = max(worst_moment, spec.moment_residual(p))
            P = chart.projector(p)
            worst_proj = max(worst_proj,
                             float(np.abs(P @ P - P).max()),
                             float(np.abs(P - P.T).max()),
                             float(np.abs(P @ spec.generator_real(p)).max()),
                             float(np.abs(spec.moment_gradient_rows(p) @ P).max()))
        records.append(bounded("quotient", f"{tag}-moment-residual", "level-set-solve",
                               worst_moment, 1e-12 * ts))
        records.append(bounded("quotient", f"{tag}-projector", "horizontal-projection",
                               worst_proj, 1e-10 * ts))

        worst_closed = 0.0
        worst_om = 0.0
        worst_beta = 0.0
        for _ in range(2):
            u = 0.7 * rng.standard_normal(4)
            for axis in (1, 2, 3):
                worst_closed = max(worst_closed, chart.closedness_residual(axis, u))
            worst_om = max(worst_om, max(chart.omegas_relation_residuals(u).values()))
            worst_beta = max(worst_beta, chart.beta_exactness_residual(u))
        records.append(bounded("quotient", f"{tag}-forms-closed", "d-omega-finite-difference",
                               worst_closed, 1e-5 * ts))
        records.append(bounded("quotient", f"{tag}-rotation-relations",
                               "circle-rotates-complex-forms", worst_om, 1e-5 * ts))
        records.append(bounded("quotient", f"{tag}-beta-exactness", "d-iota-X-omega2",
                               worst_beta, 1e-5 * ts))

        pts = [rng.standard_normal(4) * s for s in np.linspace(0.5, 4.0, 12)]
        pts += [np.zeros(4) + np.array([0.0, 0.0, t, 0.0]) for t in (0.1, 0.2, 0.5)]
        rep = growth_check(chart, chart.rotation_ambient, np.array(pts))
        records.append(exact("quotient", f"{tag}-growth-violations",
                             "projection-contracts-norms", rep.violations, 0))
        records.append(bounded("quotient", f"{tag}-growth-linear-fit",
                               "affine-field-linear-growth",
                               abs(rep.c1_ambient - rep.linear_part_norm),
                               0.05 * rep.linear_part_norm))
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
        u = 0.7 * rng.standard_normal(4)
        for axis in (1, 2, 3):
            L = chart.lie_derivative(chart.triholomorphic_ambient, axis, u)
            worst_tri = max(worst_tri, float(np.abs(L).max()))
    records.append(bounded("quotient", "taubnut-triholomorphic-circle",
                           "all-forms-invariant", worst_tri, 1e-5 * ts))
    return records, details


# ---------------------------------------------------------------------------
# nahm
# ---------------------------------------------------------------------------

def _euler_record(rho: tuple, ts: float) -> tuple[ReportRecord, list[float]]:
    """Distance of the Euler exponents of rho from {-2, -1 (x3), 0 (x3), 1 (x5)}."""
    lam = nahm.euler_exponents(rho)
    distance = float(np.abs(lam - np.array(nahm.EULER_EXPONENTS)).max())
    return (bounded("nahm", "euler-exponents", "integer-pole-exponents", distance, 1e-10 * ts),
            [float(x.real) for x in lam])


def run_nahm(config: SuiteConfig) -> tuple[list[ReportRecord], dict]:
    ts = config.tol_scale
    records: list[ReportRecord] = []
    eta = 1j * np.array([[0.1, 0.4 - 0.2j], [0.4 + 0.2j, -0.1]])
    xi = 1j * np.array([[0.3, 0.2 + 0.1j], [0.2 - 0.1j, -0.3]])

    state = nahm.one_pole_state(0.1, 1.0, 2000)
    res_value = nahm.nahm_residual(state)
    records.append(bounded("nahm", "one-pole-residual", "exact-solution-on-grid",
                           res_value, 1e-8 * ts))

    g, g_prime = nahm.bump_gauge_path(state, xi)
    transformed = nahm.gauge_transform(state, g, g_prime)
    records.append(bounded("nahm", "gauge-invariance", "residual-under-unitary-path",
                           abs(nahm.nahm_residual(transformed) - res_value), 1e-8 * ts))

    shifted = nahm.translation_action(state, np.array([0.3, -0.5, 0.2]))
    records.append(bounded("nahm", "translation-invariance", "central-shift-symmetry",
                           abs(nahm.nahm_residual(shifted) - res_value), 1e-10 * ts))

    euler, exponents = _euler_record(state.residues.rho, ts)
    records.append(euler)

    big = nahm.one_pole_state(1e-3, 1.0, 20001)
    psi, psi_prime = nahm.bumped_psi(big, eta)

    a = nahm.ivp_tangent(big, np.array([0.1, 0.2, 0.3]), seed=config.seed)
    b = nahm.ivp_tangent(big, np.array([-0.4, 0.5, 0.1]), seed=config.seed + 1)
    anti = abs(nahm.symplectic_form(a, b) + nahm.symplectic_form(b, a))
    records.append(bounded("nahm", "symplectic-antisymmetry", "pairing-skew",
                           anti, 1e-12 * ts * max(1.0, abs(nahm.symplectic_form(a, b)))))

    translation = nahm.translation_tangent(big, np.array([0.7, -0.3, 1.1]))
    rep_tr = nahm.contraction_identity(big, translation, psi, psi_prime)
    records.append(bounded("nahm", "contraction-translation-tangent",
                           "trace-free-residue-cancellation", rep_tr.rel_err, 1e-10 * ts))

    tangent = nahm.ivp_tangent(big, np.array([0.4, -0.2, 0.6]), seed=config.seed + 2)
    rep_main = nahm.contraction_identity(big, tangent, psi, psi_prime)
    records.append(bounded("nahm", "contraction-identity", "rotation-pairing-vs-trace-integral",
                           rep_main.rel_err, 1e-4 * ts))

    boundary_values = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        st = nahm.one_pole_state(eps, 1.0, 8001)
        tg = nahm.ivp_tangent(st, np.array([0.4, -0.2, 0.6]), seed=config.seed + 2)
        rep = nahm.contraction_identity(st, tg, *nahm.bumped_psi(st, eta))
        boundary_values.append(abs(rep.boundary_left))
    eps_orders = np.log2(np.array(boundary_values[:-1]) / np.array(boundary_values[1:]))
    records.append(flag("nahm", "boundary-term-decreasing", "pole-end-scalar-limit",
                        boundary_values[0] > boundary_values[1] > boundary_values[2]))
    records.append(bounded("nahm", "boundary-epsilon-order", "linear-vanishing",
                           float(1.0 - eps_orders.min()), 0.1))

    h_errs = []
    for nodes in (501, 1001, 2001):
        st = nahm.one_pole_state(1e-2, 1.0, nodes)
        tg = nahm.ivp_tangent(st, np.array([0.4, -0.2, 0.6]), seed=config.seed + 2)
        rep = nahm.contraction_identity(st, tg, *nahm.bumped_psi(st, eta))
        h_errs.append(rep.rel_err)
    h_orders = np.log2(np.array(h_errs[:-1]) / np.array(h_errs[1:]))
    records.append(flag("nahm", "grid-halving-decreasing", "quadrature-convergence",
                        h_errs[0] > h_errs[1] > h_errs[2]))
    records.append(flag("nahm", "grid-halving-order", "observed-order-at-least-2",
                        bool(np.all(h_orders >= 2.0))))

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
    state_csv = {"s": list(state.s)}
    for i in range(4):
        for row in range(state.k):
            for col in range(state.k):
                state_csv[f"B{i}_{row}{col}_re"] = list(np.real(state.B[i][:, row, col]))
                state_csv[f"B{i}_{row}{col}_im"] = list(np.imag(state.B[i][:, row, col]))
    return records, {"record": details, "state_profile": state_csv}


_RUNNERS = {
    "algebra": run_algebra,
    "taubnut": run_taubnut,
    "bianchi": run_bianchi,
    "quotient": run_quotient,
    "nahm": run_nahm,
}


# numerical faults a suite may raise; each becomes one failed record
SUITE_FAULTS = (ArithmeticError, RuntimeError, np.linalg.LinAlgError)


def _run_isolated(suite: str, config: SuiteConfig) -> tuple[list[ReportRecord], dict]:
    try:
        return _RUNNERS[suite](config)
    except SUITE_FAULTS as exc:
        return ([flag(suite, "suite-error", "plumbing", False)],
                {"error": f"{type(exc).__name__}: {exc}"})


def run_suite(name: str, config: SuiteConfig) -> tuple[list[ReportRecord], dict]:
    """Run one suite (or 'all'); unknown names raise ValueError.

    A suite that raises one of SUITE_FAULTS yields a single failed
    `<suite>/suite-error` record in place of its own, and the others still run.
    """
    if name == "all":
        records: list[ReportRecord] = []
        details: dict = {}
        for suite in SUITE_NAMES:
            r, d = _run_isolated(suite, config)
            records.extend(r)
            details[suite] = d
        return records, details
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return _run_isolated(name, config)
