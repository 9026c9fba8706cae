"""Cohomogeneity-one metrics f^2 drho^2 + a^2 s1^2 + b^2 s2^2 + c^2 s3^2.

The left-invariant coframe is realized in Euler angles (theta, phi, psi) as

    s1 = -cos(psi) dtheta - sin(psi) sin(theta) dphi
    s2 =  sin(psi) dtheta - cos(psi) sin(theta) dphi
    s3 = -dpsi - cos(theta) dphi

which satisfies ds1 = s2 ^ s3 and cyclic permutations exactly.  Coefficients
are stored signed (the 2-monopole asymptotics carry negative f and c); only
measures take absolute values.  The invariant 2-form ansatz

    phi_i = F_i(rho) (ds_i - ratio_i drho ^ s_i),    ratio_1 = f a / (b c), ...

is anti-self-dual for the orientation in which f*a*b*c drho^s1^s2^s3 is
positive, and closed exactly when F_i' = -ratio_i F_i; every function of the
ansatz takes that closedness solution F as an argument.  A profile is its
radial domain (rho_min, rho_max), one function rho -> (f, a, b, c) that
computes the four coefficients together, and an interior reference point;
`classify_l2` decides at rho_min and at rho_max whether each phi_i is L^2
there.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import (
    adaptive_simpson,
    cyclic_axes,
    exterior_derivative_on_stencil,
    gauss_kronrod,
    hodge_star_2form,
    loglog_slope,
    richardson_stencil,
    smoothstep_c2,
    smoothstep_c3,
)


@dataclass(frozen=True)
class BianchiProfile:
    """Signed coefficients rho -> (f, a, b, c) of a metric on (rho_min, rho_max)."""

    name: str
    rho_min: float
    rho_max: float
    coefficients: Callable[[float], tuple[float, float, float, float]]
    rho_ref: float
    biaxial: bool = False

    def __post_init__(self):
        if not self.rho_min < self.rho_ref < self.rho_max:
            raise ValueError("reference point must be interior")


# ---------------------------------------------------------------------------
# ratios, closedness, densities
# ---------------------------------------------------------------------------

def ratio(axis: int, profile: BianchiProfile, rho: float) -> float:
    """Cyclic coefficient ratio: fa/(bc), fb/(ca), fc/(ab) for axes 1, 2, 3."""
    if not profile.rho_min < rho < profile.rho_max:
        raise ValueError(f"rho = {rho} is not interior to {profile.name}")
    i, j, k = cyclic_axes(axis)
    v = profile.coefficients(rho)
    return v[0] * v[i] / (v[j] * v[k])


class ClosednessSolution:
    """F_i(rho) = exp(-integral from rho_ref to rho of ratio_i), F_i(rho_ref) = 1.

    This is the unique (up to scale) coefficient making phi_i closed.  Every
    queried point becomes an anchor holding (E, ratio_i) -- the cumulative
    integral E from rho_ref and the ratio there -- so sweeps that approach an
    endpoint geometrically only ever integrate short hops, and `density`
    reads the ratio at a point it has queried without evaluating the profile.

    A new point rho costs one checked `ratio` evaluation plus the interior
    nodes of its hop.  The hop runs from the nearest anchor, ties going to the
    lower rho: only the two keys that bracket rho in the sorted key list can
    be nearest.  It integrates in t = log(rho - rho_min), where ratios with
    power-law endpoint behaviour become mild exponentials, and takes both end
    values from the stored ratios.  One Simpson level (3 new evaluations) is
    accepted, with its Richardson correction, under `adaptive_simpson`'s test
    at tol = max(1e-10, 1e-11 |S|).  A hop that fails it is long on the scale
    of the ratio's variation, and there bisecting Simpson would spend many
    evaluations; it goes to `gauss_kronrod` at the same tol instead.  Inner
    nodes lie between two anchors whose domain checks passed, so the
    integrand evaluates the profile without `ratio`'s check.
    """

    def __init__(self, axis: int, profile: BianchiProfile):
        self.axis = axis
        self.profile = profile
        # anchor -> (cumulative integral, ratio_i there); the sorted keys
        self._anchors = {profile.rho_ref: (0.0, ratio(axis, profile, profile.rho_ref))}
        self._sorted = [profile.rho_ref]
        base, coefficients = profile.rho_min, profile.coefficients
        i, j, k = cyclic_axes(axis)

        def integrand(t):
            # ratio_i(base + e^t) e^t with the arithmetic of `ratio`, unchecked
            e = math.exp(t)
            v = coefficients(base + e)
            return v[0] * v[i] / (v[j] * v[k]) * e

        self._integrand = integrand

    def _nearest_anchor(self, rho: float) -> float:
        """The anchor nearest to rho, the lower one on a tie (rho not an anchor)."""
        keys = self._sorted
        i = bisect.bisect_left(keys, rho)
        if i == 0:
            return keys[0]
        if i == len(keys):
            return keys[-1]
        lo, hi = keys[i - 1], keys[i]
        return lo if rho - lo <= hi - rho else hi

    def exponent_integral(self, rho: float) -> float:
        anchors = self._anchors
        if rho in anchors:
            return anchors[rho][0]
        r = ratio(self.axis, self.profile, rho)   # refuses rho outside the domain
        nearest = self._nearest_anchor(rho)
        start, r_start = anchors[nearest]
        base = self.profile.rho_min
        a, b = math.log(nearest - base), math.log(rho - base)
        # one Simpson level from the anchor's end values, oriented nearest -> rho
        fa, fb = r_start * (nearest - base), r * (rho - base)
        f = self._integrand
        m = 0.5 * (a + b)
        fm = f(m)
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        halves = ((m - a) / 6.0 * (fa + 4.0 * f(0.5 * (a + m)) + fm)
                  + (b - m) / 6.0 * (fm + 4.0 * f(0.5 * (m + b)) + fb))
        tol = max(1e-10, 1e-11 * abs(whole))
        if abs(halves - whole) <= 15.0 * tol:
            hop = halves + (halves - whole) / 15.0
        else:
            hop = gauss_kronrod(f, a, b, tol)
        total = start + hop
        bisect.insort(self._sorted, rho)
        anchors[rho] = (total, r)
        return total

    def __call__(self, rho: float) -> float:
        return math.exp(-self.exponent_integral(rho))

    def density(self, rho: float) -> float:
        """Signed density 2 F_i^2 ratio_i of phi_i ^ *phi_i against drho^s1^s2^s3."""
        val = math.exp(-self.exponent_integral(rho))   # F(rho), anchoring rho
        return 2.0 * val * val * self._anchors[rho][1]


# the name under which the acceptance test (criterion 4) builds a solution
solve_closedness = ClosednessSolution


# ---------------------------------------------------------------------------
# Euler-angle coordinate model (rho, theta, phi, psi)
# ---------------------------------------------------------------------------

def coframe_rows(theta: float, psi: float) -> np.ndarray:
    """Rows (drho, s1, s2, s3) as coefficient vectors on (drho, dtheta, dphi, dpsi)."""
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(psi), math.cos(psi)
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -cp, -sp * st, 0.0],
        [0.0, sp, -cp * st, 0.0],
        [0.0, 0.0, -ct, -1.0],
    ])


def metric_matrix(profile: BianchiProfile, coords: np.ndarray) -> np.ndarray:
    rho, theta, _, psi = coords
    rows = coframe_rows(theta, psi)
    f, a, b, c = profile.coefficients(rho)
    weights = (f * f, a * a, b * b, c * c)
    g = np.zeros((4, 4))
    for w, row in zip(weights, rows):
        g += w * np.outer(row, row)
    return g


def _wedge_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.outer(u, v) - np.outer(v, u)


def ansatz_form_matrix(axis: int, profile: BianchiProfile, coords: np.ndarray,
                       F: ClosednessSolution) -> np.ndarray:
    """phi_i = F_i (ds_i - ratio_i drho ^ s_i) as an antisymmetric matrix."""
    rho, theta, _, psi = coords
    _, j, k = cyclic_axes(axis)
    rows = coframe_rows(theta, psi)
    ds = _wedge_rows(rows[j], rows[k])
    drho_si = _wedge_rows(rows[0], rows[axis])
    return F(rho) * (ds - ratio(axis, profile, rho) * drho_si)


def closedness_residual(axis: int, profile: BianchiProfile, coords: np.ndarray,
                        F: ClosednessSolution) -> float:
    """Max finite-difference coefficient of d(phi_i); zero when F solves the ODE, NaN if any is."""
    rows = [ansatz_form_matrix(axis, profile, c, F) for c in richardson_stencil(coords)]
    return np.abs(list(exterior_derivative_on_stencil(rows, coords).values())).max()


def orientation_sign(profile: BianchiProfile, coords: np.ndarray) -> float:
    """Sign of the coordinate frame (rho, theta, phi, psi) in the fixed orientation.

    The positive orientation is f*a*b*c drho^s1^s2^s3 > 0 and
    s1^s2^s3 = -sin(theta) dtheta^dphi^dpsi.
    """
    f, a, b, c = profile.coefficients(coords[0])
    return -math.copysign(1.0, f * a * b * c) * math.copysign(1.0, math.sin(coords[1]))


def anti_self_duality_residual(axis: int, profile: BianchiProfile,
                               coords: np.ndarray, F: ClosednessSolution) -> float:
    """Max coefficient of *phi_i + phi_i in coordinates (vanishes identically)."""
    B = ansatz_form_matrix(axis, profile, coords, F)
    g = metric_matrix(profile, coords)
    star = hodge_star_2form(B, g, orientation_sign(profile, coords))
    scale = max(np.abs(B).max(), 1e-300)
    return float(np.abs(star + B).max() / scale)


def wedge_density_cross_check(axis: int, profile: BianchiProfile, coords: np.ndarray,
                              F: ClosednessSolution) -> float:
    """Relative gap between -phi ^ phi and the displayed density 2 F^2 ratio.

    -phi ^ phi is read off against drho ^ s1 ^ s2 ^ s3 through the coordinate
    volume; the two agree for anti-self-dual phi.
    """
    B = ansatz_form_matrix(axis, profile, coords, F)
    # coefficient of -phi^phi on dtheta-ordered coordinates: -B_ij B_kl sgn(ijkl), i < j
    coeff = (-B[0, 1] * B[2, 3] + B[0, 2] * B[1, 3] - B[0, 3] * B[1, 2]
             - B[1, 2] * B[0, 3] + B[1, 3] * B[0, 2] - B[2, 3] * B[0, 1])
    # drho^s1^s2^s3 = -sin(theta) in coordinates
    density = F.density(coords[0])
    return abs(coeff / (-math.sin(coords[1])) - density) / abs(density)


# ---------------------------------------------------------------------------
# model profiles
# ---------------------------------------------------------------------------

def atiyah_hitchin_model_profile(band: tuple[float, float] = None,
                                 blend: str = "c2") -> BianchiProfile:
    """Bianchi IX profile matching the 2-monopole asymptotics at both ends.

    Near rho = pi:  f = -1, a = 2(rho - pi), b = pi,  c = -pi.
    As rho -> inf:  f = -1, a = rho,         b = rho, c = -2.
    The two regimes are joined by a smooth partition of unity on `band`;
    classification must not depend on the interpolant.
    """
    lo, hi = band if band is not None else (math.pi + 1.0, math.pi + 2.0)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"band must be finite with lo < hi, not {band!r}")
    step = {"c2": smoothstep_c2, "c3": smoothstep_c3}.get(blend)
    if step is None:
        raise ValueError(f"blend must be 'c2' or 'c3', not {blend!r}")

    def coefficients(rho):
        w = step((rho - lo) / (hi - lo))
        return (-1.0,
                (1.0 - w) * (2.0 * (rho - math.pi)) + w * rho,
                (1.0 - w) * math.pi + w * rho,
                (1.0 - w) * -math.pi + w * -2.0)

    return BianchiProfile(f"atiyah-hitchin-model[{blend}]", math.pi, math.inf,
                          coefficients, rho_ref=lo)


def eguchi_hanson_profile(a_param: float) -> BianchiProfile:
    """f = (1-(a/r)^4)^{-1/2}, A = B = r, C = r (1-(a/r)^4)^{1/2} on (a, inf)."""
    if a_param <= 0:
        raise ValueError("a_param must be positive")

    def coefficients(r):
        if r <= a_param:
            raise ValueError(f"r = {r} is outside the domain (a, inf)")
        s = math.sqrt(1.0 - (a_param / r) ** 4)
        return 1.0 / s, r, r, r * s

    return BianchiProfile("eguchi-hanson", a_param, math.inf, coefficients,
                          rho_ref=2.0 * a_param, biaxial=True)


def biaxial_taubnut_profile(m: float) -> BianchiProfile:
    """Taub-NUT in biaxial Bianchi form, derived from the Gibbons-Hawking ansatz.

    With V = 1 + m/r and tau = m (psi + phi) the metric becomes
        V dr^2 + V r^2 (s1^2 + s2^2) + (m^2/V) s3^2,
    and the sign f = -sqrt(V) is taken so that ratio_3 = V'/V, which makes
    phi_3 with the closedness solution proportional to the pulled-back
    harmonic form d(theta) of the Gibbons-Hawking module.
    """
    if m <= 0:
        raise ValueError("mass must be positive")

    def coefficients(r):
        if r <= 0:
            raise ValueError("r must be positive")
        s = math.sqrt(1.0 + m / r)   # sqrt(V)
        return -s, r * s, r * s, m / s

    return BianchiProfile("biaxial-taubnut", 0.0, math.inf, coefficients,
                          rho_ref=m, biaxial=True)


def reparametrize(profile: BianchiProfile, h: Callable[[float], float],
                  h_prime: Callable[[float], float], t_min: float, t_max: float,
                  t_ref: float) -> BianchiProfile:
    """Pull a profile back along a monotone smooth change of radial variable."""
    def coefficients(t):
        f, a, b, c = profile.coefficients(h(t))
        return f * h_prime(t), a, b, c

    return BianchiProfile(f"{profile.name}[reparam]", t_min, t_max, coefficients,
                          rho_ref=t_ref, biaxial=profile.biaxial)


# ---------------------------------------------------------------------------
# integrability classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisVerdict:
    axis: int
    integrable: bool
    divergent_endpoints: tuple[float, ...]
    fitted_exponents: dict
    extra_circle_invariant: bool

    @property
    def verdict(self) -> str:
        if self.integrable:
            return "integrable"
        ends = ",".join(f"{e:g}" for e in self.divergent_endpoints)
        return f"divergent-at-endpoint({ends})"


def _endpoint_exponent(F: ClosednessSolution, end: float) -> float:
    """Fitted log-log slope of the measure density |F.density| toward one endpoint."""
    profile = F.profile
    if math.isinf(end):
        base = max(profile.rho_ref, profile.rho_min + 1.0)
        xs = np.geomspace(base + 8.0, base + 40.0, 12)
        ys = [abs(F.density(float(x))) for x in xs]
        return loglog_slope(xs, ys)
    sign = 1.0 if end <= profile.rho_ref else -1.0
    scale = min(1.0, abs(profile.rho_ref - end))
    deltas = np.geomspace(1e-5, 1e-2, 12) * scale
    ys = [abs(F.density(end + sign * float(d))) for d in deltas]
    return loglog_slope(deltas, ys)


def _endpoint_quadrature_convergent(F: ClosednessSolution, end: float) -> bool:
    """Truncated-integral route: do shrinking/expanding truncations converge?"""
    anchor = F.profile.rho_ref
    if math.isinf(end):
        # density = -(F^2)', F(rho_ref) = 1 and ratio_i keeps one sign on [rho_ref, inf)
        # for every shipped profile: |density| integrates to exactly |1 - F(rho_ref + R)^2|
        vals = [abs(1.0 - F(anchor + R) ** 2) for R in (8.0, 16.0, 32.0, 64.0)]
    else:
        # integrate in t = log(distance to endpoint): power-law densities
        # become smooth exponentials, so truncation sweeps stay cheap
        sign = 1.0 if end <= anchor else -1.0
        width = abs(anchor - end)
        scale = min(1.0, width)

        def integrand(t):
            e = math.exp(t)
            return abs(F.density(end + sign * e)) * e

        vals = [adaptive_simpson(integrand, math.log(eps * scale), math.log(width),
                                 1e-10, rel=1e-7) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
    increments = np.abs(np.diff(vals))
    if increments[0] == 0.0:
        return True
    # geometric decay of increments signals convergence of the improper integral
    ratios = increments[1:] / np.maximum(increments[:-1], 1e-300)
    return bool(np.all(ratios < 0.9) or increments[-1] < 1e-10 * max(vals[-1], 1.0))


def classify_axis(axis: int, profile: BianchiProfile) -> AxisVerdict:
    """Integrability verdict for one axis from two independent routes.

    Route (a): truncated integrals of |density|, read as |1 - F^2| toward infinity
    and by adaptive quadrature in log-distance toward a finite end.
    Route (b): fitted endpoint exponent of the density, which must clear the
    borderline slope -1 by 0.1.
    The verdict requires both to agree at each endpoint of (rho_min, rho_max).
    """
    F = ClosednessSolution(axis, profile)
    divergent = []
    exponents = {}
    for end in (profile.rho_min, profile.rho_max):
        slope = _endpoint_exponent(F, end)
        exponents[end] = slope
        converges_quad = _endpoint_quadrature_convergent(F, end)
        if math.isinf(end):
            converges_fit = slope < -1.1
            diverges_fit = slope > -0.9
        else:
            converges_fit = slope > -0.9
            diverges_fit = slope < -1.1
        if converges_quad and converges_fit:
            continue
        if (not converges_quad) and diverges_fit:
            divergent.append(end)
            continue
        raise ArithmeticError(
            f"{profile.name} axis {axis}: quadrature route "
            f"({'convergent' if converges_quad else 'divergent'}) and exponent route "
            f"(slope {slope:.3f}) disagree at endpoint {end}")
    invariant = (not profile.biaxial) or axis == 3
    return AxisVerdict(axis, not divergent, tuple(divergent), exponents, invariant)


def classify_l2(profile: BianchiProfile) -> dict[int, AxisVerdict]:
    """Per-axis integrability verdicts for the invariant anti-self-dual forms."""
    return {axis: classify_axis(axis, profile) for axis in (1, 2, 3)}


# ---------------------------------------------------------------------------
# cross-module identification with the Gibbons-Hawking form
# ---------------------------------------------------------------------------

def euler_to_gh_chart(m: float, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map (rho,theta,phi,psi) to GH coordinates (x, tau) with the Jacobian.

    Uses the north-patch identification tau = m (psi + phi), under which
    dtau + alpha_north = -m s3.
    """
    rho, theta, phi, psi = coords
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    x = np.array([rho * st * cp, rho * st * sp, rho * ct])
    tau = m * (psi + phi)
    Jac = np.zeros((4, 4))   # d(x, tau) / d(rho, theta, phi, psi)
    Jac[0] = [st * cp, rho * ct * cp, -rho * st * sp, 0.0]
    Jac[1] = [st * sp, rho * ct * sp, rho * st * cp, 0.0]
    Jac[2] = [ct, -rho * st, 0.0, 0.0]
    Jac[3] = [0.0, 0.0, m, m]
    # rows are GH coordinates; columns Euler coordinates
    return np.append(x, tau), Jac


def pullback_two_form(B_target: np.ndarray, jacobian: np.ndarray) -> np.ndarray:
    """Pull back an antisymmetric coefficient matrix along the chart map."""
    return jacobian.T @ B_target @ jacobian
