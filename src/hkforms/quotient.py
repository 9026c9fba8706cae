"""Finite-dimensional hyperkahler quotients of the flat space T*C^n.

Real coordinates are packed as [x_1, y_1, ..., x_n, y_n, u_1, v_1, ..., u_n, v_n]
for z_j = x_j + i y_j and w_j = u_j + i v_j.  The complex structure I is
multiplication by i, J sends dz-directions to conjugate dw-directions, and
omega^c = omega_2 + i omega_3 equals the canonical pairing sum dz_j ^ dw_j.

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .numerics import PAULI, exterior_derivative_at, orthonormal_projector, partial_derivative

_ROT2 = np.array([[0.0, -1.0], [1.0, 0.0]])

# frames a QuotientChart keeps before its memo is cleared
_FRAME_MEMO_SIZE = 256


def _chart_point(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (4,):
        raise ValueError("chart parameters are 4 real numbers")
    return u


@dataclass(frozen=True)
class FlatCotangentSpace:
    """T*C^n = C^n x C^n with its flat hyperkahler structure."""

    n: int

    @property
    def real_dim(self) -> int:
        return 4 * self.n

    # -- packing -------------------------------------------------------------

    def to_real(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        out = np.empty(self.real_dim)
        out[0:2 * self.n:2] = np.real(z)
        out[1:2 * self.n:2] = np.imag(z)
        out[2 * self.n::2] = np.real(w)
        out[2 * self.n + 1::2] = np.imag(w)
        return out

    def to_complex(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = p[0:2 * self.n:2] + 1j * p[1:2 * self.n:2]
        w = p[2 * self.n::2] + 1j * p[2 * self.n + 1::2]
        return z, w

    # -- structure matrices ----------------------------------------------------

    def I_matrix(self) -> np.ndarray:
        M = np.zeros((self.real_dim, self.real_dim))
        for j in range(2 * self.n):
            M[2 * j:2 * j + 2, 2 * j:2 * j + 2] = _ROT2
        return M

    def J_matrix(self) -> np.ndarray:
        M = np.zeros((self.real_dim, self.real_dim))
        off = 2 * self.n
        for j in range(self.n):
            x, y = 2 * j, 2 * j + 1
            u, v = off + 2 * j, off + 2 * j + 1
            M[u, x] = 1.0
            M[v, y] = -1.0
            M[x, u] = -1.0
            M[y, v] = 1.0
        return M

    def K_matrix(self) -> np.ndarray:
        return self.I_matrix() @ self.J_matrix()

    @cached_property
    def _omegas(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # built once per space: omega_matrix is read on every kahler_form call
        omegas = tuple(M.T for M in (self.I_matrix(), self.J_matrix(), self.K_matrix()))
        for M in omegas:
            M.flags.writeable = False
        return omegas

    def omega_matrix(self, axis: int) -> np.ndarray:
        """Antisymmetric coefficient matrix of omega_axis (flat metric), read-only."""
        return self._omegas[axis - 1]

    def canonical_pairing(self, X: np.ndarray, Y: np.ndarray) -> complex:
        """sum_j dz_j ^ dw_j evaluated on two real tangents."""
        zX, wX = self.to_complex(X)
        zY, wY = self.to_complex(Y)
        return complex(np.sum(zX * wY - zY * wX))


def cotangent_moment(Y_base: Callable[[np.ndarray], np.ndarray],
                     z: np.ndarray, w: np.ndarray) -> complex:
    """Canonical cotangent-lift moment: the tautological form on the lift.

    For a holomorphic-affine base field this reproduces the displayed complex
    moment maps of both models.
    """
    return complex(np.sum(np.asarray(w) * np.asarray(Y_base(np.asarray(z)))))


@dataclass(frozen=True)
class GroupActionSpec:
    """One-parameter isometry group with its hyperkahler moment maps."""

    model: str
    level_shift: float = 0.0
    n: int = 2
    space: FlatCotangentSpace = field(init=False)

    def __post_init__(self):
        if self.model not in ("taubnut_R", "calabi_circle"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "taubnut_R" and self.n != 2:
            raise ValueError("the translation-rotation model lives on T*C^2")
        object.__setattr__(self, "space", FlatCotangentSpace(self.n))

    # -- the action -----------------------------------------------------------

    def act(self, t: float, z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z, w = np.array(z, dtype=complex), np.array(w, dtype=complex)
        if self.model == "taubnut_R":
            return (np.array([np.exp(1j * t) * z[0], z[1] + t]),
                    np.array([np.exp(-1j * t) * w[0], w[1]]))
        return np.exp(1j * t) * z, np.exp(-1j * t) * w

    def generator(self, z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.model == "taubnut_R":
            return np.array([1j * z[0], 1.0 + 0j]), np.array([-1j * w[0], 0.0 + 0j])
        return 1j * np.asarray(z, complex), -1j * np.asarray(w, complex)

    def generator_real(self, p: np.ndarray) -> np.ndarray:
        z, w = self.space.to_complex(p)
        dz, dw = self.generator(z, w)
        return self.space.to_real(dz, dw)

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
        mu1, muc = self.moment_maps(*self.space.to_complex(p))
        return max(abs(mu1), abs(muc))

    def moment_gradient_rows(self, p: np.ndarray) -> np.ndarray:
        """Real gradients of (mu_1, Re mu^c, Im mu^c) as rows: d mu_a = iota(Y) omega_a."""
        Y = self.generator_real(p)
        return np.vstack([Y @ self.space.omega_matrix(axis) for axis in (1, 2, 3)])


# ---------------------------------------------------------------------------
# charts on the quotient
# ---------------------------------------------------------------------------

class QuotientChart:
    """Local parametrization of mu^{-1}(0)/G with horizontal-lift geometry.

    Both models use a 4-real-dimensional chart u:

    * taubnut_R: u = (Re z_1, Im z_1, Re w_1, Im w_1); the R-orbit slice is
      Re z_2 = 0 and the moment equations give z_2, w_2 in closed form.
    * calabi_circle (n = 2): u = (Re zeta, Im zeta, Re eta, Im eta) with
      z = mu (1, zeta), w = eta (-zeta, 1); the phase gauge makes z . conj(v0)
      real-positive for the fiducial vector v0 = (1, 0).

    The horizontal frame at a chart point -- the representative p, the
    projector P and the tangent columns T -- is built once and kept in a
    memo on the instance, keyed by the exact bytes of u, because every
    finite-difference stencil on the chart revisits the same 17 points
    (u, u +- h e_k, u +- h/2 e_k).  `chart_tangents`, `pushdown_field` and
    `kahler_form` read from it.  The memo lives as long as the chart, is
    cleared once it holds _FRAME_MEMO_SIZE frames, and its arrays are
    read-only.
    """

    fd_step = 1e-4   # finite-difference step of every chart derivative

    def __init__(self, spec: GroupActionSpec):
        if spec.n != 2:
            raise ValueError("charts are implemented for the 4-dimensional quotients (n = 2)")
        self.spec = spec
        self._frames: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- representatives --------------------------------------------------------

    def representative(self, u: np.ndarray) -> np.ndarray:
        u = _chart_point(u)
        spec = self.spec
        if spec.model == "taubnut_R":
            z1 = u[0] + 1j * u[1]
            w1 = u[2] + 1j * u[3]
            w2 = -1j * z1 * w1
            z2 = 1j * (0.5 * (abs(z1) ** 2 - abs(w1) ** 2) - spec.level_shift)
            return spec.space.to_real(np.array([z1, z2]), np.array([w1, w2]))
        zeta = u[0] + 1j * u[1]
        eta = u[2] + 1j * u[3]
        level = 2.0 * spec.level_shift  # mu_1 = 0 <=> |z|^2 - |w|^2 = 2 shift
        denom = 1.0 + abs(zeta) ** 2
        mu_sq = abs(eta) ** 2 + level / denom
        if mu_sq <= 0:
            raise ValueError("chart parameter outside the level-set domain")
        mu = math.sqrt(mu_sq)
        z = mu * np.array([1.0, zeta])
        w = eta * np.array([-zeta, 1.0])
        return spec.space.to_real(z, w)

    def solve_level_set(self, u: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Representative with a Newton polish; residual must meet tol."""
        p = self.representative(u)
        res = self.spec.moment_residual(p)
        if res > tol:
            # one Gauss-Newton step on the three moment equations
            rows = self.spec.moment_gradient_rows(p)
            mu1, muc = self.spec.moment_maps(*self.spec.space.to_complex(p))
            rhs = np.array([mu1, muc.real, muc.imag])
            p = p - rows.T @ np.linalg.solve(rows @ rows.T, rhs)
            res = self.spec.moment_residual(p)
        if res > tol:
            raise ArithmeticError(f"level-set residual {res:.3e} above {tol:.1e}")
        return p

    # -- horizontal geometry ------------------------------------------------------

    def projector(self, p: np.ndarray) -> np.ndarray:
        """Orthogonal projector onto the horizontal space at p in mu^{-1}(0)."""
        rows = np.vstack([self.spec.moment_gradient_rows(p),
                          self.spec.generator_real(p)])
        return orthonormal_projector(rows)

    def _frame(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p, P, T) at u: representative, horizontal projector, tangent columns."""
        u = _chart_point(u)
        key = u.tobytes()
        frame = self._frames.get(key)
        if frame is not None:
            return frame
        p = self.representative(u)
        P = self.projector(p)
        T = np.column_stack([P @ partial_derivative(self.representative, u, k, self.fd_step)
                             for k in range(4)])
        frame = (p, P, T)
        for arr in frame:
            arr.flags.writeable = False
        if len(self._frames) >= _FRAME_MEMO_SIZE:
            self._frames.clear()
        self._frames[key] = frame
        return frame

    def chart_tangents(self, u: np.ndarray) -> np.ndarray:
        """Horizontal lifts of the chart-coordinate directions (as columns)."""
        return self._frame(u)[2]

    def metric(self, u: np.ndarray) -> np.ndarray:
        """Gram matrix of the quotient metric on chart-coordinate directions."""
        T = self.chart_tangents(u)
        return T.T @ T

    def kahler_form(self, axis: int, u: np.ndarray) -> np.ndarray:
        """Pushed-down omega_axis as an antisymmetric chart matrix."""
        T = self.chart_tangents(u)
        return T.T @ self.spec.space.omega_matrix(axis) @ T

    def closedness_residual(self, axis: int, u: np.ndarray) -> float:
        """Finite-difference d(omega_axis) on the chart."""
        out = exterior_derivative_at(lambda v: self.kahler_form(axis, v),
                                     np.asarray(u, float), self.fd_step)
        scale = max(np.abs(self.kahler_form(axis, u)).max(), 1e-300)
        return max(abs(v) for v in out.values()) / scale

    # -- distinguished vector fields -----------------------------------------------

    def pushdown_field(self, ambient_field: Callable[[np.ndarray], np.ndarray],
                       u: np.ndarray) -> np.ndarray:
        """Chart components of the projection of an ambient field."""
        p, P, T = self._frame(u)
        X = P @ ambient_field(p)
        coeffs, *_ = np.linalg.lstsq(T, X, rcond=None)
        return coeffs

    def rotation_ambient(self, p: np.ndarray) -> np.ndarray:
        """Generator of w -> e^{-i t} w, the circle rotating omega_2 into omega_3."""
        z, w = self.spec.space.to_complex(p)
        return self.spec.space.to_real(np.zeros_like(z), -1j * w)

    def triholomorphic_ambient(self, p: np.ndarray) -> np.ndarray:
        """Generator of (e^{i t} z_1, e^{-i t} w_1), defined for the taubnut model."""
        z, w = self.spec.space.to_complex(p)
        dz = np.zeros_like(z)
        dw = np.zeros_like(w)
        dz[0] = 1j * z[0]
        dw[0] = -1j * w[0]
        return self.spec.space.to_real(dz, dw)

    def lie_derivative(self, ambient_field, axis: int, u: np.ndarray) -> np.ndarray:
        """(L_X omega_axis) on the chart by finite differences."""
        u = np.asarray(u, dtype=float)
        h = self.fd_step
        omega_fn = lambda v: self.kahler_form(axis, v)
        X_fn = lambda v: self.pushdown_field(ambient_field, v)
        X = X_fn(u)
        B = omega_fn(u)
        out = np.zeros((4, 4))
        dB = np.array([partial_derivative(omega_fn, u, g, h) for g in range(4)])
        dX = np.array([partial_derivative(X_fn, u, g, h) for g in range(4)])
        for a in range(4):
            for b in range(4):
                out[a, b] = (X @ dB[:, a, b]
                             + dX[a, :] @ B[:, b]
                             + B[a, :] @ dX[b, :])
        return out

    def omegas_relation_residuals(self, u: np.ndarray) -> dict:
        """Residuals of L_X omega_1 = 0, L_X omega_2 = omega_3, L_X omega_3 = -omega_2."""
        scale = max(np.abs(self.kahler_form(2, u)).max(), 1e-300)
        L1 = self.lie_derivative(self.rotation_ambient, 1, u)
        L2 = self.lie_derivative(self.rotation_ambient, 2, u)
        L3 = self.lie_derivative(self.rotation_ambient, 3, u)
        return {
            "L_X omega1": float(np.abs(L1).max()) / scale,
            "L_X omega2 - omega3": float(np.abs(L2 - self.kahler_form(3, u)).max()) / scale,
            "L_X omega3 + omega2": float(np.abs(L3 + self.kahler_form(2, u)).max()) / scale,
        }

    def beta_exactness_residual(self, u: np.ndarray) -> float:
        """d(iota(X) omega_2) = omega_3, checked by finite differences."""
        def beta_fn(v: np.ndarray) -> np.ndarray:
            X = self.pushdown_field(self.rotation_ambient, v)
            return X @ self.kahler_form(2, v)     # beta_a = omega_2(X, e_a)

        dbeta = exterior_derivative_at(beta_fn, np.asarray(u, float), self.fd_step)
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
    dim = spec.space.real_dim
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

def su2_generators() -> list[np.ndarray]:
    """Basis E_k = (i/2) Pauli_k with [E_1, E_2] = -E_3 cyclic.

    This is the basis dual to a coframe with ds_1 = s_2 ^ s_3, so orbit
    metric coefficients extracted against it compare directly with the
    cohomogeneity-one profiles.
    """
    return [0.5j * s for s in PAULI]


def calabi_orbit_data(chart: QuotientChart, t: float) -> dict:
    """Biaxial metric data along the ray z = (sqrt(1+t^2), 0), w = (0, t).

    Returns the squared coefficients of the quotient metric against
    (d/dt, E_1, E_2, E_3): the radial factor and the three orbit coefficients.
    """
    if chart.spec.model != "calabi_circle" or chart.spec.n != 2:
        raise ValueError("orbit extraction is implemented for the n=2 circle model")
    space = chart.spec.space

    root = math.sqrt(1.0 + t * t)
    p = space.to_real(np.array([root, 0.0]), np.array([0.0, t]))
    P = chart.projector(p)
    fields = []
    for E in su2_generators():
        z, w = space.to_complex(p)
        fields.append(space.to_real(E @ z, np.conj(E) @ w))
    gamma_dot = space.to_real(np.array([t / root, 0.0]), np.array([0.0, 1.0]))
    out = {"t": t}
    X = [P @ v for v in fields]
    out["A_sq"] = float(X[0] @ X[0])
    out["B_sq"] = float(X[1] @ X[1])
    out["C_sq"] = float(X[2] @ X[2])
    gd = P @ gamma_dot
    out["f_sq"] = float(gd @ gd)
    out["cross_max"] = max(abs(float(X[i] @ X[j])) for i in range(3) for j in range(3) if i != j)
    out["radial_cross"] = max(abs(float(gd @ X[i])) for i in range(3))
    return out
