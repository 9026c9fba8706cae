"""Cohomogeneity-one metrics f^2 drho^2 + a^2 s1^2 + b^2 s2^2 + c^2 s3^2.

The left-invariant coframe is realized in Euler angles (theta, phi, psi) as

    s1 = -cos(psi) dtheta - sin(psi) sin(theta) dphi
    s2 =  sin(psi) dtheta - cos(psi) sin(theta) dphi
    s3 = -dpsi - cos(theta) dphi

which satisfies ds1 = s2 ^ s3 and cyclic permutations exactly.  Coefficient
functions are stored signed (the 2-monopole asymptotics carry negative f and
c); only measures take absolute values.  The invariant 2-form ansatz

    phi_i = F_i(rho) (ds_i - ratio_i drho ^ s_i),    ratio_1 = f a / (b c), ...

is anti-self-dual for the orientation in which f*a*b*c drho^s1^s2^s3 is
positive, and closed exactly when F_i' = -ratio_i F_i.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exterior.forms import merge_sign
from .numerics import (
    adaptive_simpson,
    exterior_derivative_at,
    hodge_star_2form,
    loglog_slope,
    smoothstep_c2,
    smoothstep_c3,
)

COEFF_NAMES = ("f", "a", "b", "c")


@dataclass(frozen=True)
class EndpointData:
    """Leading behavior of the coefficients at one domain endpoint.

    `leading` maps a coefficient name to one of
        ("constant", v)        value tends to v
        ("linear", s)          value ~ s * (rho - location), or s * rho at infinity
        ("power", coeff, e)    value ~ coeff * (rho - location)**e
    and may be None when only the endpoint location is known.
    """

    location: float
    leading: dict | None = None


@dataclass(frozen=True)
class BianchiProfile:
    """Signed coefficient functions of a cohomogeneity-one metric."""

    name: str
    rho_min: float
    rho_max: float
    f: Callable[[float], float]
    a: Callable[[float], float]
    b: Callable[[float], float]
    c: Callable[[float], float]
    rho_ref: float
    endpoints: tuple[EndpointData, EndpointData] = None
    biaxial: bool = False

    def __post_init__(self):
        if not self.rho_min < self.rho_ref < self.rho_max:
            raise ValueError("reference point must be interior")
        if self.endpoints is None:
            object.__setattr__(self, "endpoints",
                               (EndpointData(self.rho_min), EndpointData(self.rho_max)))

    def coefficient(self, name: str) -> Callable[[float], float]:
        if name not in COEFF_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def interior(self, rho: float) -> bool:
        return self.rho_min < rho < self.rho_max


def validate_endpoint_data(profile: BianchiProfile, rel_tol: float = 0.05,
                           probe: float = 1e-4) -> None:
    """Check stated leading behaviors against function values near endpoints."""
    for end in profile.endpoints:
        if end.leading is None:
            continue
        for name, spec in end.leading.items():
            fn = profile.coefficient(name)
            if math.isinf(end.location):
                rho = 1.0 / probe
                dist = rho
            else:
                sign = 1.0 if end.location <= profile.rho_ref else -1.0
                rho = end.location + sign * probe
                dist = sign * probe
            kind = spec[0]
            if kind == "constant":
                expected = spec[1]
            elif kind == "linear":
                expected = spec[1] * dist
            elif kind == "power":
                expected = spec[1] * dist ** spec[2]
            else:
                raise ValueError(f"unknown leading kind {kind!r}")
            value = fn(rho)
            if abs(value - expected) > rel_tol * max(abs(expected), 1e-300):
                raise ValueError(
                    f"{profile.name}: endpoint data for {name} at {end.location} "
                    f"predicts {expected:.6g}, function gives {value:.6g}")


# ---------------------------------------------------------------------------
# ratios, closedness, densities
# ---------------------------------------------------------------------------

def ratio(axis: int, profile: BianchiProfile, rho: float) -> float:
    """Cyclic coefficient ratio: fa/(bc), fb/(ca), fc/(ab) for axes 1, 2, 3."""
    if not profile.interior(rho):
        raise ValueError(f"rho = {rho} is not interior to {profile.name}")
    f, a, b, c = profile.f(rho), profile.a(rho), profile.b(rho), profile.c(rho)
    if axis == 1:
        return f * a / (b * c)
    if axis == 2:
        return f * b / (c * a)
    if axis == 3:
        return f * c / (a * b)
    raise ValueError("axis must be 1, 2 or 3")


class ClosednessSolution:
    """F_i(rho) = exp(-integral from rho_ref to rho of ratio_i), F_i(rho_ref) = 1.

    This is the unique (up to scale) coefficient making phi_i closed.
    Cumulative integrals are cached at every queried point, so sweeps that
    approach an endpoint geometrically only ever integrate short hops.

    Each new point integrates from the anchor nearest to it, found by
    bisection on the sorted anchor list.  Among anchors at the same computed
    distance |s - rho| the one inserted first wins, which is the anchor a
    linear `min` scan in insertion order would pick.
    """

    def __init__(self, axis: int, profile: BianchiProfile, tol: float = 1e-10):
        self.axis = axis
        self.profile = profile
        self.tol = tol
        # anchor -> (cumulative integral, insertion index); the sorted keys
        self._anchors: dict[float, tuple[float, int]] = {profile.rho_ref: (0.0, 0)}
        self._sorted = [profile.rho_ref]

    def _nearest_anchor(self, rho: float) -> float:
        """The anchor a min scan in insertion order picks: nearest, then oldest."""
        keys, anchors = self._sorted, self._anchors
        if math.isnan(rho):   # every distance is NaN and min keeps the first
            return next(iter(anchors))
        # abs(s - rho) is monotone in s on each side of rho, so every anchor at
        # the least distance is in an equal-distance run next to rho's slot
        i = bisect.bisect_left(keys, rho)
        run = []
        for side in (range(i - 1, -1, -1), range(i, len(keys))):
            d = None
            for j in side:
                if d is not None and abs(keys[j] - rho) != d:
                    break
                d = abs(keys[j] - rho)
                run.append(keys[j])
        return min(run, key=lambda s: (abs(s - rho), anchors[s][1]))

    def exponent_integral(self, rho: float) -> float:
        if rho in self._anchors:
            return self._anchors[rho][0]
        nearest = self._nearest_anchor(rho)
        lo, hi = (nearest, rho) if rho > nearest else (rho, nearest)
        # integrate in t = log(rho - rho_min): ratios with power-law endpoint
        # behavior become mild exponentials, so hops near the endpoint stay cheap
        base = self.profile.rho_min
        val = adaptive_simpson(
            lambda t: ratio(self.axis, self.profile, base + math.exp(t)) * math.exp(t),
            math.log(lo - base), math.log(hi - base), self.tol, rel=1e-11)
        total = self._anchors[nearest][0] + (val if rho > nearest else -val)
        bisect.insort(self._sorted, rho)
        self._anchors[rho] = (total, len(self._anchors))
        return total

    def __call__(self, rho: float) -> float:
        return math.exp(-self.exponent_integral(rho))


def solve_closedness(axis: int, profile: BianchiProfile) -> ClosednessSolution:
    return ClosednessSolution(axis, profile)


def l2_density(axis: int, profile: BianchiProfile, rho: float,
               F: ClosednessSolution | None = None) -> float:
    """Signed density 2 F_i^2 ratio_i of phi_i ^ *phi_i against drho^s1^s2^s3."""
    if F is None:
        F = solve_closedness(axis, profile)
    val = F(rho)
    return 2.0 * val * val * ratio(axis, profile, rho)


def l2_measure_density(axis: int, profile: BianchiProfile, rho: float,
                       F: ClosednessSolution | None = None) -> float:
    """|phi_i|^2 against the positive measure: absolute value of the display."""
    return abs(l2_density(axis, profile, rho, F))


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
    f, a, b, c = (profile.coefficient(n)(rho) for n in COEFF_NAMES)
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
    rows = coframe_rows(theta, psi)
    j, k = {1: (2, 3), 2: (3, 1), 3: (1, 2)}[axis]   # cyclic: ds_i = s_j ^ s_k
    ds = _wedge_rows(rows[j], rows[k])
    drho_si = _wedge_rows(rows[0], rows[axis])
    return F(rho) * (ds - ratio(axis, profile, rho) * drho_si)


def closedness_residual(axis: int, profile: BianchiProfile, coords: np.ndarray,
                        h: float = 1e-4) -> float:
    """Max finite-difference coefficient of d(phi_i); zero when F solves the ODE."""
    F = solve_closedness(axis, profile)
    out = exterior_derivative_at(lambda c: ansatz_form_matrix(axis, profile, c, F),
                                 np.asarray(coords, float), h)
    return max(abs(v) for v in out.values())


def orientation_sign(profile: BianchiProfile, coords: np.ndarray) -> float:
    """Sign of the coordinate frame (rho, theta, phi, psi) in the fixed orientation.

    The positive orientation is f*a*b*c drho^s1^s2^s3 > 0 and
    s1^s2^s3 = -sin(theta) dtheta^dphi^dpsi.
    """
    rho, theta = coords[0], coords[1]
    fabc = math.prod(profile.coefficient(n)(rho) for n in COEFF_NAMES)
    return -math.copysign(1.0, fabc) * math.copysign(1.0, math.sin(theta))


def anti_self_duality_residual(axis: int, profile: BianchiProfile,
                               coords: np.ndarray,
                               F: ClosednessSolution | None = None) -> float:
    """Max coefficient of *phi_i + phi_i in coordinates (vanishes identically)."""
    if F is None:
        F = solve_closedness(axis, profile)
    B = ansatz_form_matrix(axis, profile, coords, F)
    g = metric_matrix(profile, coords)
    star = hodge_star_2form(B, g, orientation_sign(profile, coords))
    scale = max(np.abs(B).max(), 1e-300)
    return float(np.abs(star + B).max() / scale)


def wedge_density_cross_check(axis: int, profile: BianchiProfile, coords: np.ndarray,
                              F: ClosednessSolution | None = None) -> tuple[float, float]:
    """(-phi^phi coefficient, displayed density): equal for anti-self-dual phi.

    -phi ^ phi is read off against drho ^ s1 ^ s2 ^ s3 through the coordinate
    volume; compared with 2 F^2 ratio.
    """
    if F is None:
        F = solve_closedness(axis, profile)
    B = ansatz_form_matrix(axis, profile, coords, F)
    # coefficient of -phi^phi on dtheta-ordered coordinates
    coeff = 0.0
    for (i, j) in itertools.combinations(range(4), 2):
        kl = tuple(sorted(set(range(4)) - {i, j}))
        s, _ = merge_sign((i, j), kl)
        coeff += -B[i, j] * B[kl[0], kl[1]] * s
    # drho^s1^s2^s3 = -sin(theta) in coordinates
    theta = coords[1]
    return coeff / (-math.sin(theta)), l2_density(axis, profile, coords[0], F)


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
    step = {"c2": smoothstep_c2, "c3": smoothstep_c3}[blend]

    def w(rho):
        return step((rho - lo) / (hi - lo))

    def mix(near, far):
        return lambda rho: (1.0 - w(rho)) * near(rho) + w(rho) * far(rho)

    f = lambda rho: -1.0
    a = mix(lambda r: 2.0 * (r - math.pi), lambda r: r)
    b = mix(lambda r: math.pi, lambda r: r)
    c = mix(lambda r: -math.pi, lambda r: -2.0)
    endpoints = (
        EndpointData(math.pi, {"f": ("constant", -1.0), "a": ("linear", 2.0),
                               "b": ("constant", math.pi), "c": ("constant", -math.pi)}),
        EndpointData(math.inf, {"f": ("constant", -1.0), "a": ("linear", 1.0),
                                "b": ("linear", 1.0), "c": ("constant", -2.0)}),
    )
    return BianchiProfile(f"atiyah-hitchin-model[{blend}]", math.pi, math.inf,
                          f, a, b, c, rho_ref=lo, endpoints=endpoints)


def eguchi_hanson_profile(a_param: float) -> BianchiProfile:
    """f = (1-(a/r)^4)^{-1/2}, A = B = r, C = r (1-(a/r)^4)^{1/2} on (a, inf)."""
    if a_param <= 0:
        raise ValueError("a_param must be positive")

    def check(r):
        if r <= a_param:
            raise ValueError(f"r = {r} is outside the domain (a, inf)")
        return 1.0 - (a_param / r) ** 4

    f = lambda r: 1.0 / math.sqrt(check(r))
    a = lambda r: r
    b = lambda r: r
    c = lambda r: r * math.sqrt(check(r))
    endpoints = (
        EndpointData(a_param, {"a": ("constant", a_param), "b": ("constant", a_param),
                               "f": ("power", math.sqrt(a_param / 4.0), -0.5),
                               "c": ("power", 2.0 * math.sqrt(a_param), 0.5)}),
        EndpointData(math.inf, {"f": ("constant", 1.0), "a": ("linear", 1.0),
                                "b": ("linear", 1.0), "c": ("linear", 1.0)}),
    )
    return BianchiProfile("eguchi-hanson", a_param, math.inf, f, a, b, c,
                          rho_ref=2.0 * a_param, endpoints=endpoints, biaxial=True)


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

    def V(r):
        if r <= 0:
            raise ValueError("r must be positive")
        return 1.0 + m / r

    f = lambda r: -math.sqrt(V(r))
    a = lambda r: r * math.sqrt(V(r))
    b = lambda r: r * math.sqrt(V(r))
    c = lambda r: m / math.sqrt(V(r))
    endpoints = (
        EndpointData(0.0, {"f": ("power", -math.sqrt(m), -0.5),
                           "a": ("power", math.sqrt(m), 0.5),
                           "b": ("power", math.sqrt(m), 0.5),
                           "c": ("power", math.sqrt(m), 0.5)}),
        EndpointData(math.inf, {"f": ("constant", -1.0), "a": ("linear", 1.0),
                                "b": ("linear", 1.0), "c": ("constant", m)}),
    )
    return BianchiProfile("biaxial-taubnut", 0.0, math.inf, f, a, b, c,
                          rho_ref=m, endpoints=endpoints, biaxial=True)


def reparametrize(profile: BianchiProfile, h: Callable[[float], float],
                  h_prime: Callable[[float], float], t_min: float, t_max: float,
                  t_ref: float, name: str | None = None) -> BianchiProfile:
    """Pull a profile back along a monotone smooth change of radial variable."""
    return BianchiProfile(
        name or f"{profile.name}[reparam]",
        t_min, t_max,
        lambda t: profile.f(h(t)) * h_prime(t),
        lambda t: profile.a(h(t)),
        lambda t: profile.b(h(t)),
        lambda t: profile.c(h(t)),
        rho_ref=t_ref,
        endpoints=(EndpointData(t_min), EndpointData(t_max)),
        biaxial=profile.biaxial,
    )


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


def _endpoint_exponent(axis, profile, F, end: EndpointData, spread=(1e-5, 1e-2),
                       far_range=(8.0, 40.0)) -> float:
    """Fitted log-log slope of the measure density toward one endpoint."""
    if math.isinf(end.location):
        base = max(profile.rho_ref, profile.rho_min + 1.0)
        xs = np.geomspace(base + far_range[0], base + far_range[1], 12)
        ys = [l2_measure_density(axis, profile, float(x), F) for x in xs]
        return loglog_slope(xs, ys)
    sign = 1.0 if end.location <= profile.rho_ref else -1.0
    scale = min(1.0, abs(profile.rho_ref - end.location))
    deltas = np.geomspace(spread[0], spread[1], 12) * scale
    ys = [l2_measure_density(axis, profile, end.location + sign * float(d), F) for d in deltas]
    return loglog_slope(deltas, ys)


def _endpoint_quadrature_convergent(axis, profile, F, end: EndpointData) -> bool:
    """Truncated-integral route: do shrinking/expanding truncations converge?"""
    dens = lambda rho: l2_measure_density(axis, profile, rho, F)
    anchor = profile.rho_ref
    if math.isinf(end.location):
        vals = []
        for R in (8.0, 16.0, 32.0, 64.0):
            vals.append(adaptive_simpson(dens, anchor, anchor + R, 1e-10, rel=1e-7))
        increments = np.diff(vals)
    else:
        # integrate in t = log(distance to endpoint): power-law densities
        # become smooth exponentials, so truncation sweeps stay cheap
        sign = 1.0 if end.location <= anchor else -1.0
        scale = min(1.0, abs(anchor - end.location))
        width = abs(anchor - end.location)
        vals = []
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            lo_t = math.log(eps * scale)
            hi_t = math.log(width)
            vals.append(adaptive_simpson(
                lambda t: dens(end.location + sign * math.exp(t)) * math.exp(t),
                lo_t, hi_t, 1e-10, rel=1e-7))
        increments = np.diff(vals)
    increments = np.abs(increments)
    if increments[0] == 0.0:
        return True
    # geometric decay of increments signals convergence of the improper integral
    ratios = increments[1:] / np.maximum(increments[:-1], 1e-300)
    return bool(np.all(ratios < 0.9) or increments[-1] < 1e-10 * max(vals[-1], 1.0))


def classify_axis(axis: int, profile: BianchiProfile,
                  exponent_margin: float = 0.1) -> AxisVerdict:
    """Integrability verdict for one axis from two independent routes.

    Route (a): adaptive quadrature on shrinking/expanding truncations.
    Route (b): fitted endpoint exponent of the density.
    The verdict requires both to agree at each endpoint.
    """
    F = solve_closedness(axis, profile)
    divergent = []
    exponents = {}
    for end in profile.endpoints:
        slope = _endpoint_exponent(axis, profile, F, end)
        exponents[end.location] = slope
        converges_quad = _endpoint_quadrature_convergent(axis, profile, F, end)
        if math.isinf(end.location):
            converges_fit = slope < -1.0 - exponent_margin
            diverges_fit = slope > -1.0 + exponent_margin
        else:
            converges_fit = slope > -1.0 + exponent_margin
            diverges_fit = slope < -1.0 - exponent_margin
        if converges_quad and converges_fit:
            continue
        if (not converges_quad) and diverges_fit:
            divergent.append(end.location)
            continue
        raise ArithmeticError(
            f"{profile.name} axis {axis}: quadrature route "
            f"({'convergent' if converges_quad else 'divergent'}) and exponent route "
            f"(slope {slope:.3f}) disagree at endpoint {end.location}")
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
