"""Taub-NUT metric in Gibbons-Hawking form and its harmonic 2-form.

Coordinates are (x1, x2, x3, tau) with the orientation fixed as
dx1 ^ dx2 ^ dx3 ^ dtau.  The potential is V = 1 + m/r and the connection
1-form is kept in a two-patch Dirac gauge,

    alpha_north = m (cos(theta) - 1) dphi   (regular on the +z axis),
    alpha_south = m (cos(theta) + 1) dphi   (regular on the -z axis),

so that d(alpha) = *dV holds for the flat R^3 star with orientation
dx1 ^ dx2 ^ dx3.  With these signs theta = V^{-1}(dtau + alpha) is globally
defined and d(theta) is anti-self-dual and closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    adaptive_simpson,
    exterior_derivative_at,
    hodge_star_2form,
    integrate_to_infinity,
    loglog_slope,
)

_AXIS_TOL = 1e-13


@dataclass(frozen=True)
class GHData:
    """Gibbons-Hawking data: mass, tau-period and the active gauge patch."""

    m: float
    tau_period: float | None = None
    patch: str = "north"

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if self.tau_period is None:
            object.__setattr__(self, "tau_period", 4.0 * math.pi * self.m)
        if self.tau_period <= 0:
            raise ValueError("tau period must be positive")
        if self.patch not in ("north", "south"):
            raise ValueError("patch must be 'north' or 'south'")


@dataclass(frozen=True)
class GHPoint:
    """Point (x, tau) with x in R^3 away from the origin."""

    x: np.ndarray
    tau: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.shape != (3,):
            raise ValueError("x must be a 3-vector")
        object.__setattr__(self, "x", x)
        if np.linalg.norm(x) <= 0:
            raise ValueError("the NUT at the origin is excluded")

    @property
    def r(self) -> float:
        return float(np.linalg.norm(self.x))


def potential(p: GHPoint, d: GHData) -> float:
    """V = 1 + m/r."""
    return 1.0 + d.m / p.r


def alpha_components(p: GHPoint, d: GHData) -> np.ndarray:
    """Cartesian components of the Dirac-gauge connection 1-form."""
    x1, x2, x3 = p.x
    r = p.r
    rho_sq = x1 * x1 + x2 * x2
    if rho_sq <= _AXIS_TOL * r * r:
        if d.patch == "north" and x3 < 0:
            raise ValueError("point on the excluded -z axis of the north patch")
        if d.patch == "south" and x3 > 0:
            raise ValueError("point on the excluded +z axis of the south patch")
        return np.zeros(3)  # on the regular axis of the patch
    sign = -1.0 if d.patch == "north" else 1.0
    factor = d.m * (x3 / r + sign) / rho_sq
    return factor * np.array([-x2, x1, 0.0])


def metric_at(p: GHPoint, d: GHData) -> np.ndarray:
    """GH metric V dx^2 + V^{-1}(dtau + alpha)^2 in coordinates (x, tau)."""
    V = potential(p, d)
    a = alpha_components(p, d)
    g = np.zeros((4, 4))
    g[:3, :3] = V * np.eye(3) + np.outer(a, a) / V
    g[:3, 3] = a / V
    g[3, :3] = a / V
    g[3, 3] = 1.0 / V
    return g


def theta_form(p: GHPoint, d: GHData) -> np.ndarray:
    """Components of theta = V^{-1}(dtau + alpha), the dual of d/dtau."""
    V = potential(p, d)
    a = alpha_components(p, d)
    return np.array([a[0] / V, a[1] / V, a[2] / V, 1.0 / V])


def _grad_V(p: GHPoint, d: GHData) -> np.ndarray:
    return -d.m * p.x / p.r ** 3


def dtheta(p: GHPoint, d: GHData) -> np.ndarray:
    """Closed-form d(theta) as an antisymmetric matrix on (x, tau).

    dtheta = -V^{-2} dV ^ (dtau + alpha) + V^{-1} * dV.
    """
    V = potential(p, d)
    a = alpha_components(p, d)
    gv = _grad_V(p, d)
    B = np.zeros((4, 4))
    for i in range(3):
        B[i, 3] = -gv[i] / V ** 2
    pairs = (((0, 1), 2), ((0, 2), 1), ((1, 2), 0))
    eps = {(0, 1): 1.0, (0, 2): -1.0, (1, 2): 1.0}
    for (i, j), k in pairs:
        B[i, j] = -(gv[i] * a[j] - gv[j] * a[i]) / V ** 2 + eps[(i, j)] * gv[k] / V
    return B - B.T


def two_form_norm_sq(B: np.ndarray, g: np.ndarray) -> float:
    """|beta|^2_g = 1/2 B_{mn} B^{mn} for an antisymmetric coefficient matrix."""
    ginv = np.linalg.inv(g)
    return float(0.5 * np.sum(B * (ginv @ B @ ginv)))


def ddtheta_residual(p: GHPoint, d: GHData) -> float:
    """Max finite-difference coefficient of d(dtheta); zero for a closed form."""
    three_form = exterior_derivative_at(lambda c: dtheta(GHPoint(c[:3], c[3]), d),
                                        np.append(p.x, p.tau))
    return max(abs(v) for v in three_form.values())


def anti_self_duality_residual(p: GHPoint, d: GHData) -> float:
    """Max coefficient of *dtheta + dtheta (vanishes for anti-self-dual forms)."""
    B = dtheta(p, d)
    star = hodge_star_2form(B, metric_at(p, d), orientation=1.0)
    return float(np.abs(star + B).max())


def l2_density(p: GHPoint, d: GHData) -> float:
    """Density of dtheta ^ *dtheta against dx ^ dtau: 2 m^2 / (r^4 V^3)."""
    V = potential(p, d)
    return 2.0 * d.m ** 2 / (p.r ** 4 * V ** 3)


def l2_density_from_forms(p: GHPoint, d: GHData) -> float:
    """Same density through the wedge route |dtheta|^2_g * sqrt(det g)."""
    g = metric_at(p, d)
    B = dtheta(p, d)
    return two_form_norm_sq(B, g) * math.sqrt(np.linalg.det(g))


def _radial_density(r: float, d: GHData) -> float:
    # 4 pi r^2 * density(r) = 8 pi m^2 r / (r + m)^3, regular down to r = 0
    return 8.0 * math.pi * d.m ** 2 * r / (r + d.m) ** 3


def l2_norm(d: GHData, r_min: float = 0.0, r_max: float = math.inf) -> float:
    """L^2 norm of dtheta by adaptive radial quadrature times the tau-period.

    Converges to the closed form 4 pi m tau_period as r_min -> 0, r_max -> inf.
    """
    f = lambda r: _radial_density(r, d)
    lo = max(r_min, 0.0)
    if math.isinf(r_max):
        # substitute r = lo + m u / (1 - u): smooth integrand on (0, 1)
        radial = integrate_to_infinity(f, lo, scale=d.m, tol=1e-9)
    else:
        radial = adaptive_simpson(f, lo or 1e-14 * d.m, r_max, 1e-9)
    return d.tau_period * radial


def closed_form_l2_norm(d: GHData) -> float:
    """The exact value 4 pi m tau_period."""
    return 4.0 * math.pi * d.m * d.tau_period


def shell_integral(d: GHData, r: float) -> float:
    """Integral of |dtheta|^2 over the shell r <= |x| <= 2r (times tau-period)."""
    if r <= 0:
        raise ValueError("shell radius must be positive")
    return d.tau_period * adaptive_simpson(lambda s: _radial_density(s, d), r, 2.0 * r, 1e-10)


def tail_decay(d: GHData) -> tuple[np.ndarray, float]:
    """Shell integrals over radii 1e2 m .. 1e4 m and the fitted log-log slope.

    The density falls off like 2 m^2 / r^4 while the shell measure grows like
    r^2 dr, so the shell mass decays like 1/r and the slope tends to -1.
    """
    radii = np.geomspace(1e2, 1e4, 9) * d.m
    shells = np.array([shell_integral(d, float(r)) for r in radii])
    return shells, loglog_slope(radii, shells)


def shell_volume(d: GHData, r: float) -> float:
    """Volume of the shell r <= |x| <= 2r, tau-period times int 4 pi s^2 (1 + m/s) ds.

    Evaluated in closed form, tau 4 pi (7 r^3 / 3 + 3 m r^2 / 2): a quadrature
    to an absolute tolerance cannot resolve an r^3-sized integral at large r.
    """
    return d.tau_period * 4.0 * math.pi * (7.0 * r ** 3 / 3.0 + 1.5 * d.m * r ** 2)


def cutoff_cross_term(d: GHData, r: float, K: float = 1.0, c1: float = 1.0,
                      c0: float = 0.0, samples: int = 64,
                      seed: int = 0) -> float:
    """Numeric surrogate for the annulus cross-term in the cutoff argument.

    sup over the shell of (K/|x|) (c1 |x| + c0) |dtheta|_g, times the square
    root of the shell volume; tends to zero as r grows because |dtheta|
    decays two powers faster than the linear growth of the cutoff estimate.
    """
    rng = np.random.default_rng(seed)
    sup = 0.0
    for _ in range(samples):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        s = r * (1.0 + rng.random())
        p = GHPoint(s * u)
        val = (K / s) * (c1 * s + c0) * math.sqrt(two_form_norm_sq(dtheta(p, d), metric_at(p, d)))
        sup = max(sup, val)
    return sup * math.sqrt(shell_volume(d, r))
