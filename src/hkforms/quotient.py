"""Finite-dimensional hyperkahler quotients of the flat space T*C^n.

Real coordinates are packed as [x_1, y_1, ..., x_n, y_n, u_1, v_1, ..., u_n, v_n]
for z_j = x_j + i y_j and w_j = u_j + i v_j: the float view of the complex
vector (z, w), written by `to_real` and read back by `to_complex`.  The flat
structure `flat_structure(n)` is an exterior.QuaternionicStructure on
R^{4n}: I is multiplication by i, J sends dz-directions to conjugate
dw-directions, K = IJ, and omega^c = omega_2 + i omega_3 equals the
canonical pairing sum dz_j ^ dw_j.

Moment-map conventions: d(mu) = iota(Y) omega throughout.  The displayed
complex moment maps (i z_1 w_1 + w_2 for the translation-rotation action,
i sum z_j w_j for the diagonal circle) satisfy this exactly.  The real
moment maps are the genuine omega_1 moment maps

    taubnut:  mu_1 = (|w_1|^2 - |z_1|^2)/2 + Im z_2 + shift
    calabi:   mu_1 = (sum |w_j|^2 - |z_j|^2)/2 + shift   (shift 1/2 fixes
              the level |z|^2 - |w|^2 = 1)

since the quotient 2-forms only descend -- and stay closed -- on a genuine
moment-map level set.  The rotating circle acts by w -> e^{-i t} w, which
gives the Lie-derivative relations L_X omega_1 = 0, L_X omega_2 = omega_3,
L_X omega_3 = -omega_2 with these signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .exterior import QuaternionicStructure
from .numerics import (SU2_BASIS, exterior_derivative_at, once_per_point,
                       partial_derivative, richardson_stencil)

# d(u_0 + i u_1) and d(u_2 + i u_3) along the four chart directions
_DU01 = np.array([1.0, 1.0j, 0.0, 0.0])
_DU23 = np.array([0.0, 0.0, 1.0, 1.0j])

# frames a QuotientChart keeps before its memo is cleared
_FRAME_MEMO_SIZE = 256

# moment residual a solve_level_set representative must meet
_LEVEL_SET_TOL = 1e-12


def _chart_point(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (4,):
        raise ValueError("chart parameters are 4 real numbers")
    return u


def to_real(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pack (z, w) in C^n x C^n as the float view of the complex vector (z, w).

    Stacks of points, (..., n) each, pack along the last axis.
    """
    return np.ascontiguousarray(np.concatenate((z, w), axis=-1, dtype=complex)).view(float)


def to_complex(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, w) as views of p, one point or a stack of them; callers only read them."""
    c = np.ascontiguousarray(p, dtype=float).view(complex)
    n = c.shape[-1] // 2
    return c[..., :n], c[..., n:]


@lru_cache(maxsize=None)
def flat_structure(n: int) -> QuaternionicStructure:
    """T*C^n = C^n x C^n with its flat hyperkahler structure, in the packed layout.

    I is multiplication by i, J sends (z, w) to (-conj(w), conj(z)), and
    K = IJ.
    """
    I, J = np.zeros((4 * n, 4 * n)), np.zeros((4 * n, 4 * n))
    re = np.arange(0, 4 * n, 2)              # every Re slot; its Im slot follows
    I[re + 1, re], I[re, re + 1] = 1.0, -1.0
    x, u = np.arange(0, 2 * n, 2), np.arange(2 * n, 4 * n, 2)   # Re z_j, Re w_j
    J[u, x], J[u + 1, x + 1], J[x, u], J[x + 1, u + 1] = 1.0, -1.0, -1.0, 1.0
    return QuaternionicStructure(4 * n, I=I, J=J, K=I @ J)


@dataclass(frozen=True)
class GroupActionSpec:
    """One-parameter isometry group of T*C^2 with its hyperkahler moment maps."""

    model: str
    level_shift: float = 0.0
    structure = flat_structure(2)    # not a field: every spec acts on the one T*C^2

    def __post_init__(self):
        if self.model not in ("taubnut_R", "calabi_circle"):
            raise ValueError(f"unknown model {self.model!r}")
        if not math.isfinite(self.level_shift):
            raise ValueError("level shift must be finite")

    # -- the infinitesimal action ---------------------------------------------

    def generator(self, z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Y at (z, w), or at each of a stack of points, (..., 2) each."""
        z, w = np.asarray(z, complex), np.asarray(w, complex)
        if self.model == "taubnut_R":
            dz, dw = np.zeros_like(z), np.zeros_like(w)
            dz[..., 0], dz[..., 1] = 1j * z[..., 0], 1.0
            dw[..., 0] = -1j * w[..., 0]
            return dz, dw
        return 1j * z, -1j * w

    def generator_real(self, p: np.ndarray) -> np.ndarray:
        return to_real(*self.generator(*to_complex(p)))

    # -- moment maps ------------------------------------------------------------

    def moment_maps(self, z: np.ndarray, w: np.ndarray) -> tuple[float, complex]:
        z, w = np.asarray(z, complex), np.asarray(w, complex)
        if self.model == "taubnut_R":
            mu1 = 0.5 * (abs(w[0]) ** 2 - abs(z[0]) ** 2) + z[1].imag + self.level_shift
            muc = 1j * z[0] * w[0] + w[1]
        else:
            mu1 = 0.5 * float(np.sum(np.abs(w) ** 2 - np.abs(z) ** 2)) + self.level_shift
            muc = 1j * complex(np.sum(z * w))
        return float(mu1), complex(muc)

    def moment_residual(self, p: np.ndarray) -> float:
        mu1, muc = self.moment_maps(*to_complex(p))
        return max(abs(mu1), abs(muc))

    def moment_gradient_rows(self, p: np.ndarray) -> np.ndarray:
        """Real gradients of (mu_1, Re mu^c, Im mu^c) as rows: d mu_a = iota(Y) omega_a.

        A stack of points, (n, 8), gives a stack of row triples, (n, 3, 8).
        """
        Y = self.generator_real(p)
        return np.stack([Y @ self.structure.omega_matrix(axis) for axis in (1, 2, 3)], axis=-2)


# ---------------------------------------------------------------------------
# charts on the quotient
# ---------------------------------------------------------------------------

class QuotientChart:
    """Local parametrization of mu^{-1}(0)/G with horizontal-lift geometry.

    Both models use a 4-real-dimensional chart u:

    * taubnut_R: u = (Re z_1, Im z_1, Re w_1, Im w_1); the R-orbit slice is
      Re z_2 = 0 and the moment equations give z_2, w_2 in closed form.
    * calabi_circle: u = (Re zeta, Im zeta, Re eta, Im eta) with
      z = mu (1, zeta), w = eta (-zeta, 1); the phase gauge makes z . conj(v0)
      real-positive for the fiducial vector v0 = (1, 0).

    The horizontal frame at a chart point -- the representative p, the
    tangent columns T = P J and their left inverse T+ = (T^T T)^{-1} T^T --
    is exact: `_chart_map` returns p with its Jacobian J, differentiated
    by hand from the same intermediates, and the projector P is written out
    from the orthogonal frame (Y, IY, JY, KY) of the vertical space.  P
    itself is not kept: T+ P = T+, so a pushed-down field is T+ applied to
    the ambient one.  Frames are kept in a memo on the instance, keyed by
    the exact bytes of u, and the memo is filled one stencil at a time: a
    miss at u builds, in one stacked pass, the frames of all 17 points that
    the checks' finite differences visit about u (u, u +- h e_k,
    u +- h/2 e_k; numerics.richardson_stencil).  `chart_tangents`,
    `pushdown_field` and `kahler_form` read from it.  The memo lives as long
    as the chart, is cleared before a stencil would take it past
    _FRAME_MEMO_SIZE frames, and its arrays are read-only.  Every finite
    difference on the chart uses the step numerics.FD_STEP.
    """

    def __init__(self, spec: GroupActionSpec):
        self.spec = spec
        self._frames: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- the chart map --------------------------------------------------------------

    def _chart_map(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Representatives, (n, 8), and real 8 x 4 Jacobians, (n, 8, 4), at chart points U, (n, 4).

        The Jacobians are differentiated by hand.  Along the four chart
        directions Re(conj(x) dx) is (u_0, u_1, 0, 0) for x = u_0 + i u_1 and
        (0, 0, u_2, u_3) for x = u_2 + i u_3.  U[0] is the point asked for: if
        it lies outside the Calabi level-set domain this raises ValueError,
        while any later row outside it (a stencil neighbour past the edge)
        comes back as NaN.  Every row is rounded, bit for bit, as numpy's
        scalar arithmetic rounds the same formulas at that one point: |x|^2
        is libm's pow(|x|, 2) (an array `**` squares instead), and
        w_2 = -i z_1 w_1 is written out in reals (numpy's array complex
        product rounds otherwise).
        """
        spec = self.spec
        u0, u1, u2, u3 = U.T
        sq = lambda a, b: np.float_power(np.hypot(a, b), 2)
        if spec.model == "taubnut_R":
            z1 = u0 + 1j * u1
            w1 = u2 + 1j * u3
            z2 = 1j * (0.5 * (sq(u0, u1) - sq(u2, u3)) - spec.level_shift)
            t = -1j * z1    # w2 = t w1 = -i z1 w1
            w2 = np.empty_like(z1)
            w2.real = t.real * w1.real - t.imag * w1.imag
            w2.imag = t.real * w1.imag + t.imag * w1.real
            z, w = np.array([z1, z2]).T, np.array([w1, w2]).T
            dz1, dw1 = _DU01, _DU23
            dz2 = 1j * U * np.array([1.0, 1.0, -1.0, -1.0])   # i (Re(z1* dz1) - Re(w1* dw1))
            rows = (dz1, dz2, dw1, -1j * (dz1 * w1[:, None] + z1[:, None] * dw1))
        else:
            zeta = u0 + 1j * u1
            eta = u2 + 1j * u3
            dzeta, deta = _DU01, _DU23
            level = 2.0 * spec.level_shift  # mu_1 = 0 <=> |z|^2 - |w|^2 = 2 shift
            denom = 1.0 + sq(u0, u1)
            mu_sq = sq(u2, u3) + level / denom
            if mu_sq[0] <= 0:
                raise ValueError("chart parameter outside the level-set domain")
            mu = np.sqrt(np.where(mu_sq > 0, mu_sq, np.nan))
            one = np.ones(len(U))
            z = mu[:, None] * np.array([one, zeta]).T
            w = eta[:, None] * np.array([-zeta, one]).T
            # mu dmu = Re(eta* deta) - level Re(zeta* dzeta) / denom^2
            c = -level / np.float_power(denom, 2)
            dmu = U * np.array([c, c, one, one]).T / mu[:, None]
            zeta, eta, mu = zeta[:, None], eta[:, None], mu[:, None]
            rows = (dmu, dmu * zeta + mu * dzeta, -(deta * zeta + eta * dzeta), deta)
        # complex rows (dz_1, dz_2, dw_1, dw_2), one column per chart direction,
        # split into (Re, Im) row pairs as to_real packs them
        C = np.empty((len(U), 4, 4), dtype=complex)
        for k, row in enumerate(rows):
            C[:, k] = row
        J = np.empty((len(U), 8, 4))
        J[:, 0::2] = C.real
        J[:, 1::2] = C.imag
        return to_real(z, w), J

    def representative(self, u: np.ndarray) -> np.ndarray:
        return self._chart_map(_chart_point(u)[None])[0][0]

    def solve_level_set(self, u: np.ndarray) -> np.ndarray:
        """Representative with a Newton polish; residual must meet _LEVEL_SET_TOL."""
        p = self.representative(u)
        res = self.spec.moment_residual(p)
        if res > _LEVEL_SET_TOL:
            # one Gauss-Newton step on the three moment equations
            rows = self.spec.moment_gradient_rows(p)
            mu1, muc = self.spec.moment_maps(*to_complex(p))
            rhs = np.array([mu1, muc.real, muc.imag])
            p = p - rows.T @ np.linalg.solve(rows @ rows.T, rhs)
            res = self.spec.moment_residual(p)
        if res > _LEVEL_SET_TOL:
            raise ArithmeticError(f"level-set residual {res:.3e} above {_LEVEL_SET_TOL:.1e}")
        return p

    # -- horizontal geometry ------------------------------------------------------

    def projector(self, p: np.ndarray) -> np.ndarray:
        """Orthogonal projector onto the horizontal space at p in mu^{-1}(0).

        The moment-gradient rows IY, JY, KY and the generator Y span the
        vertical space; on flat space the four are mutually orthogonal with
        norm |Y|, so the projector is I - R^T R / |Y|^2 for R stacking them.
        A stack of points, (n, 8), gives a stack of projectors, (n, 8, 8).
        """
        Y = self.spec.generator_real(p)
        R = np.concatenate([self.spec.moment_gradient_rows(p), Y[..., None, :]], axis=-2)
        return np.eye(Y.shape[-1]) - np.swapaxes(R, -1, -2) @ R / (Y[..., None, :] @ Y[..., None])

    def _frame(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p, T, T+) at u: representative, tangent columns T = P J and the
        left inverse T+ = (T^T T)^{-1} T^T.

        A miss builds the frames of u's whole Richardson stencil in one stacked
        pass and keeps every one of them except a neighbour's NaN frame.
        """
        u = _chart_point(u)
        key = u.tobytes()
        frame = self._frames.get(key)
        if frame is not None:
            return frame
        stencil = richardson_stencil(u)
        p, J = self._chart_map(stencil)
        T = self.projector(p) @ J
        Tt = np.swapaxes(T, -1, -2)
        T_pinv = np.linalg.solve(Tt @ T, Tt)
        for arr in (p, T, T_pinv):
            arr.flags.writeable = False
        if len(self._frames) + len(stencil) > _FRAME_MEMO_SIZE:
            self._frames.clear()
        keep = ~np.isnan(p).any(axis=1)
        keep[0] = True    # u itself, whatever its frame
        for i in np.flatnonzero(keep):
            self._frames[stencil[i].tobytes()] = (p[i], T[i], T_pinv[i])
        return self._frames[key]

    def chart_tangents(self, u: np.ndarray) -> np.ndarray:
        """Horizontal lifts of the chart-coordinate directions (as columns)."""
        return self._frame(u)[1]

    def kahler_form(self, axis: int, u: np.ndarray) -> np.ndarray:
        """Pushed-down omega_axis as an antisymmetric chart matrix."""
        T = self.chart_tangents(u)
        return T.T @ self.spec.structure.omega_matrix(axis) @ T

    def closedness_residual(self, axis: int, u: np.ndarray) -> float:
        """Finite-difference d(omega_axis) on the chart."""
        u = np.asarray(u, float)
        omega = once_per_point(lambda v: self.kahler_form(axis, v))
        out = exterior_derivative_at(omega, u)
        scale = max(np.abs(omega(u)).max(), 1e-300)
        return max(abs(v) for v in out.values()) / scale

    # -- distinguished vector fields -----------------------------------------------

    def pushdown_field(self, ambient_field: Callable[[np.ndarray], np.ndarray],
                       u: np.ndarray) -> np.ndarray:
        """Chart components of the projection of an ambient field.

        The least-squares coefficients of P X in the columns of T, read as
        T+ X: T = P J with P symmetric and idempotent gives T+ P = T+.
        """
        p, _, T_pinv = self._frame(u)
        return T_pinv @ ambient_field(p)

    def rotation_ambient(self, p: np.ndarray) -> np.ndarray:
        """Generator of w -> e^{-i t} w, the circle rotating omega_2 into omega_3."""
        z, w = to_complex(p)
        return to_real(np.zeros_like(z), -1j * w)

    def triholomorphic_ambient(self, p: np.ndarray) -> np.ndarray:
        """Generator of (e^{i t} z_1, e^{-i t} w_1), defined for the taubnut model."""
        z, w = to_complex(p)
        dz = np.zeros_like(z)
        dw = np.zeros_like(w)
        dz[0] = 1j * z[0]
        dw[0] = -1j * w[0]
        return to_real(dz, dw)

    def lie_derivatives(self, ambient_field, u: np.ndarray) -> np.ndarray:
        """(L_X omega_a) on the chart for a = 1, 2, 3, stacked, by finite differences.

        The pushed-down field and the three forms are each differenced once;
        every entry is the sum X . dB_iab + dX_a . B_i[:, b] + B_ia . dX_b.
        """
        u = np.asarray(u, dtype=float)
        omegas_fn = lambda v: np.array([self.kahler_form(axis, v) for axis in (1, 2, 3)])
        X_fn = lambda v: self.pushdown_field(ambient_field, v)
        X, B = X_fn(u), omegas_fn(u)
        dB = np.array([partial_derivative(omegas_fn, u, g) for g in range(4)])
        dX = np.array([partial_derivative(X_fn, u, g) for g in range(4)])
        out = np.zeros((3, 4, 4))
        for i, a, b in np.ndindex(out.shape):
            out[i, a, b] = X @ dB[:, i, a, b] + dX[a] @ B[i, :, b] + B[i, a] @ dX[b]
        return out

    def omegas_relation_residuals(self, u: np.ndarray) -> dict:
        """Residuals of L_X omega_1 = 0, L_X omega_2 = omega_3, L_X omega_3 = -omega_2."""
        B2 = self.kahler_form(2, u)
        scale = max(np.abs(B2).max(), 1e-300)
        L1, L2, L3 = self.lie_derivatives(self.rotation_ambient, u)
        return {
            "L_X omega1": float(np.abs(L1).max()) / scale,
            "L_X omega2 - omega3": float(np.abs(L2 - self.kahler_form(3, u)).max()) / scale,
            "L_X omega3 + omega2": float(np.abs(L3 + B2).max()) / scale,
        }

    def beta_exactness_residual(self, u: np.ndarray) -> float:
        """d(iota(X) omega_2) = omega_3, checked by finite differences."""
        def beta_fn(v: np.ndarray) -> np.ndarray:
            X = self.pushdown_field(self.rotation_ambient, v)
            return X @ self.kahler_form(2, v)     # beta_a = omega_2(X, e_a)

        dbeta = exterior_derivative_at(once_per_point(beta_fn), np.asarray(u, float))
        target = self.kahler_form(3, u)
        scale = max(np.abs(target).max(), 1e-300)
        worst = 0.0
        for (a, b), val in dbeta.items():
            worst = max(worst, abs(val - target[a, b]))
        return worst / scale


# ---------------------------------------------------------------------------
# growth estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthReport:
    c1_pushed: float
    c1_ambient: float
    c0: float
    violations: int
    linear_part_norm: float


def ambient_linear_part(field: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Linear part of an affine vector field, column by column."""
    origin = field(np.zeros(dim))
    cols = []
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        cols.append(field(e) - origin)
    return np.column_stack(cols)


def growth_check(chart: QuotientChart,
                 ambient_field: Callable[[np.ndarray], np.ndarray],
                 chart_points: np.ndarray) -> GrowthReport:
    """Linear-growth fit for a pushed-down Killing field, from the chart origin.

    Uses the ambient distance |p - p0| as a stand-in for the quotient
    distance (which it bounds from below), so |X_pushed| <= c1 dist + c0
    is the inequality chain projection <= ambient <= affine growth.
    """
    spec = chart.spec
    dim = spec.structure.dim
    p0 = chart.representative(np.zeros(4))
    c0 = float(np.linalg.norm(ambient_field(p0)))
    A = ambient_linear_part(ambient_field, dim)
    a_norm = float(np.linalg.norm(A, 2))
    c1_pushed = 0.0
    c1_ambient = 0.0
    violations = 0
    for u in np.atleast_2d(chart_points):
        p = chart.representative(u)
        dist = float(np.linalg.norm(p - p0))
        if dist < 1e-12:
            continue
        X = ambient_field(p)
        Xh = chart.projector(p) @ X
        nX, nXh = float(np.linalg.norm(X)), float(np.linalg.norm(Xh))
        if nXh > nX * (1.0 + 1e-12):
            violations += 1
        if nXh > a_norm * dist + c0 + 1e-9:
            violations += 1
        c1_pushed = max(c1_pushed, (nXh - c0) / dist)
        c1_ambient = max(c1_ambient, (nX - c0) / dist)
    return GrowthReport(c1_pushed, c1_ambient, c0, violations, a_norm)


# ---------------------------------------------------------------------------
# su(2)-orbit extraction for the Calabi model
# ---------------------------------------------------------------------------

def calabi_orbit_data(chart: QuotientChart, t: float) -> dict:
    """Biaxial metric data along the ray z = (sqrt(1+t^2), 0), w = (0, t).

    Returns the squared coefficients of the quotient metric against
    (d/dt, E_1, E_2, E_3), E = SU2_BASIS dual to a coframe with ds_1 = s_2 ^ s_3
    as in the cohomogeneity-one profiles: the radial factor f_sq and the three orbit
    coefficients A_sq, B_sq, C_sq, with the largest off-diagonal entries
    among the orbit directions (cross_max) and against d/dt (radial_cross).
    """
    if chart.spec.model != "calabi_circle" or chart.spec.level_shift != 0.5:
        raise ValueError("the ray lies on the level |z|^2 - |w|^2 = 1 of the circle model")
    root = math.sqrt(1.0 + t * t)
    z, w = np.array([root, 0.0]), np.array([0.0, t])
    P = chart.projector(to_real(z, w))
    X = [P @ to_real(E @ z, np.conj(E) @ w) for E in SU2_BASIS]
    gd = P @ to_real(np.array([t / root, 0.0]), np.array([0.0, 1.0]))
    return {"A_sq": float(X[0] @ X[0]), "B_sq": float(X[1] @ X[1]),
            "C_sq": float(X[2] @ X[2]), "f_sq": float(gd @ gd),
            "cross_max": max(abs(float(X[i] @ X[j]))
                             for i in range(3) for j in range(3) if i != j),
            "radial_cross": max(abs(float(gd @ X[i])) for i in range(3))}
