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
from functools import cached_property

import numpy as np

from .numerics import (
    adaptive_simpson,
    exterior_derivative_on_stencil,
    hodge_star_2form,
    integrate_to_infinity,
    loglog_slope,
    richardson_stencil,
)

_AXIS_TOL = 1e-13

# cutoff estimate |d chi| <= K/|x| and Killing-field growth |X| <= c1 |x| + c0
_CUTOFF_K, _CUTOFF_C1, _CUTOFF_C0 = 1.0, 1.0, 0.0
_CUTOFF_SAMPLES = 64


@dataclass(frozen=True)
class GHData:
    """Gibbons-Hawking data: mass and the active gauge patch."""

    m: float
    patch: str = "north"

    def __post_init__(self):
        if not 0 < self.m < math.inf:    # NaN fails too
            raise ValueError("mass must be positive and finite")
        if self.patch not in ("north", "south"):
            raise ValueError("patch must be 'north' or 'south'")

    @property
    def tau_period(self) -> float:
        """4 pi m, the period that makes the metric smooth at the NUT."""
        return 4.0 * math.pi * self.m


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
        if not (np.isfinite(x).all() and math.isfinite(self.tau)):
            raise ValueError("point coordinates must be finite")
        if self.r <= 0:
            raise ValueError("the NUT at the origin is excluded")

    @cached_property
    def r(self) -> float:
        # read by every per-point formula; a point's x is not written after init
        return float(np.linalg.norm(self.x))


def potential(p: GHPoint, d: GHData) -> float:
    """V = 1 + m/r."""
    return 1.0 + d.m / p.r


def _alpha(x1: float, x2: float, x3: float, r: float, d: GHData) -> tuple[float, float]:
    """(alpha_1, alpha_2) of the Dirac-gauge connection 1-form; alpha_3 = 0."""
    rho_sq = x1 * x1 + x2 * x2
    if rho_sq <= _AXIS_TOL * r * r:
        if d.patch == "north" and x3 < 0:
            raise ValueError("point on the excluded -z axis of the north patch")
        if d.patch == "south" and x3 > 0:
            raise ValueError("point on the excluded +z axis of the south patch")
        return 0.0, 0.0  # on the regular axis of the patch
    sign = -1.0 if d.patch == "north" else 1.0
    factor = d.m * (x3 / r + sign) / rho_sq
    return factor * -x2, factor * x1


def _metric(x: list[float], r: float, d: GHData) -> np.ndarray:
    """`metric_at` on the floats of x and r = |x|, with no GHPoint built."""
    x1, x2, x3 = x
    a1, a2 = _alpha(x1, x2, x3, r, d)
    V = 1.0 + d.m / r
    t1, t2 = a1 / V, a2 / V
    c12 = a1 * a2 / V
    return np.array([[V + a1 * a1 / V, c12, 0.0, t1],
                     [c12, V + a2 * a2 / V, 0.0, t2],
                     [0.0, 0.0, V, 0.0],
                     [t1, t2, 0.0, 1.0 / V]])


def metric_at(p: GHPoint, d: GHData) -> np.ndarray:
    """GH metric V dx^2 + V^{-1}(dtau + alpha)^2 in coordinates (x, tau).

    Its last row is theta = V^{-1}(dtau + alpha), the metric dual of d/dtau.
    Straight-line arithmetic on the Python floats of x and r, one 4 x 4
    array per call.
    """
    return _metric(p.x.tolist(), p.r, d)


def _dtheta(x: list[float], r: float, d: GHData) -> np.ndarray:
    """`dtheta` on the floats of x and r = |x|, with no GHPoint built."""
    x1, x2, x3 = x
    a1, a2 = _alpha(x1, x2, x3, r, d)
    V = 1.0 + d.m / r
    V2 = V ** 2
    r3 = r ** 3
    g1, g2, g3 = -d.m * x1 / r3, -d.m * x2 / r3, -d.m * x3 / r3  # grad V
    b01 = -(g1 * a2 - g2 * a1) / V2 + g3 / V
    b02 = g3 * a1 / V2 - g2 / V
    b12 = g3 * a2 / V2 + g1 / V
    b03, b13, b23 = -g1 / V2, -g2 / V2, -g3 / V2
    return np.array([[0.0, b01, b02, b03],
                     [-b01, 0.0, b12, b13],
                     [-b02, -b12, 0.0, b23],
                     [-b03, -b13, -b23, 0.0]])


def dtheta(p: GHPoint, d: GHData) -> np.ndarray:
    """Closed-form d(theta) as an antisymmetric matrix on (x, tau).

    dtheta = -V^{-2} dV ^ (dtau + alpha) + V^{-1} * dV.  Straight-line
    arithmetic on the Python floats of x and r, one 4 x 4 array per call.
    """
    return _dtheta(p.x.tolist(), p.r, d)


def two_form_norm_sq(B: np.ndarray, g: np.ndarray) -> float | np.ndarray:
    """|beta|^2_g = 1/2 B_{mn} B^{mn} for an antisymmetric coefficient matrix.

    B and g may also be stacks of shape (n, 4, 4); the result is then the
    n norms as an array, from one batched inverse.
    """
    ginv = np.linalg.inv(g)
    sq = 0.5 * np.sum(B * (ginv @ B @ ginv), axis=(-2, -1))
    return float(sq) if sq.ndim == 0 else sq


def ddtheta_residual(p: GHPoint, d: GHData) -> float:
    """Max finite-difference coefficient of d(dtheta); zero for a closed form, NaN if any is."""
    # the stencil's points go straight to the float kernel, with GHPoint's r
    x = np.append(p.x, p.tau)
    rows = [_dtheta(c[:3].tolist(), float(np.linalg.norm(c[:3])), d) for c in richardson_stencil(x)]
    return np.abs(list(exterior_derivative_on_stencil(rows, x).values())).max()


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


def l2_norm(d: GHData) -> float:
    """L^2 norm of dtheta: quadrature over r = m u / (1 - u) in (0, inf), times tau_period."""
    radial = integrate_to_infinity(lambda r: _radial_density(r, d), 0.0, scale=d.m, tol=1e-9)
    return d.tau_period * radial


def closed_form_l2_norm(d: GHData) -> float:
    """The exact value 4 pi m tau_period."""
    return 4.0 * math.pi * d.m * d.tau_period


def shell_integral(d: GHData, r: float) -> float:
    """Integral of |dtheta|^2 over the shell r <= |x| <= 2r (times tau-period)."""
    if not 0 < r < math.inf:    # NaN fails too
        raise ValueError("shell radius must be positive and finite")
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


def cutoff_cross_term(d: GHData, r: float, seed: int) -> float:
    """Numeric surrogate for the annulus cross-term in the cutoff argument.

    sup over _CUTOFF_SAMPLES random shell points of (K/|x|) (c1 |x| + c0)
    |dtheta|_g, times the square root of the shell volume; tends to zero as r
    grows because |dtheta| decays two powers faster than the linear growth of
    the cutoff estimate.  Each sample draws a direction and then a radius
    s in [r, 2r) from the seeded generator; dtheta and g of all samples are
    stacked and normed by one `two_form_norm_sq` call.
    """
    if not 0 < r < math.inf:    # NaN fails too
        raise ValueError("shell radius must be positive and finite")
    K, c1, c0 = _CUTOFF_K, _CUTOFF_C1, _CUTOFF_C0
    rng = np.random.default_rng(seed)
    radii, forms, metrics = [], [], []
    for _ in range(_CUTOFF_SAMPLES):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        s = r * (1.0 + rng.random())
        x = s * u
        xs, rx = x.tolist(), float(np.linalg.norm(x))
        radii.append(s)
        forms.append(_dtheta(xs, rx, d))
        metrics.append(_metric(xs, rx, d))
    s = np.array(radii)
    norms = np.sqrt(two_form_norm_sq(np.array(forms), np.array(metrics)))
    return float(((K / s) * (c1 * s + c0) * norms).max()) * math.sqrt(shell_volume(d, r))
