"""Shared numerical machinery: finite differences, quadrature, linear algebra.

Everything here is dimension-agnostic plumbing used by the geometry modules:
high-order finite-difference stencils (Fornberg weights), Richardson-extrapolated
partial derivatives, the exterior derivative of a form field given by its
coefficient arrays, adaptive Simpson quadrature with endpoint substitutions for
improper integrals, SVD nullspaces and subspace distances, pointwise Hodge
duality for 2-forms on 4-dimensional coordinate patches, and the Pauli matrices.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

# (i/2) PAULI_k are the su(2) residues of the Nahm pole and the orbit generators
# of the Calabi quotient
PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def fd_weights(x0: float, xs: Sequence[float], m: int) -> np.ndarray:
    """Fornberg weights for the m-th derivative at x0 from nodes xs."""
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    if m >= n:
        raise ValueError("need more nodes than derivative order")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def grid_derivative(values: np.ndarray, h: float, order: int = 6) -> np.ndarray:
    """First derivative along axis 0 of uniformly gridded values.

    Uses centered stencils of accuracy `order` in the interior and skewed
    stencils of the same width near the edges, so the error is O(h^order)
    uniformly.  Works on arrays of matrices (derivative taken entrywise).
    """
    npts = values.shape[0]
    width = order + 1
    if npts < width:
        raise ValueError(f"grid too coarse: need at least {width} nodes")
    half = order // 2
    out = np.zeros_like(values)
    # interior: centered stencil applied by shifted slices
    w = fd_weights(0.0, np.arange(-half, half + 1) * h, 1)
    acc = np.zeros_like(values[half:npts - half])
    for j, wj in enumerate(w):
        acc = acc + wj * values[j:npts - 2 * half + j]
    out[half:npts - half] = acc
    # edges: skewed stencils of the same width
    for i in range(half):
        w = fd_weights(i * h, np.arange(width) * h, 1)
        out[i] = np.tensordot(w, values[:width], axes=(0, 0))
        w = fd_weights((npts - 1 - i) * h, (npts - width + np.arange(width)) * h, 1)
        out[npts - 1 - i] = np.tensordot(w, values[npts - width:], axes=(0, 0))
    return out


def partial_derivative(f: Callable[[np.ndarray], float | np.ndarray], x: np.ndarray,
                       axis: int, h: float = 1e-4) -> float | np.ndarray:
    """Richardson-extrapolated central difference (4 D(h/2) - D(h)) / 3.

    `f` may return a scalar or an array; arrays are differenced entrywise.
    """
    e = np.zeros_like(x, dtype=float)
    e[axis] = 1.0

    def central(step):
        return (f(x + step * e) - f(x - step * e)) / (2.0 * step)

    d1 = central(h)
    d2 = central(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def exterior_derivative_at(components: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                           h: float = 1e-4) -> dict:
    """Finite-difference exterior derivative of a form field on R^(x.size).

    `components` maps a point to the form's coefficient array: a vector for a
    1-form, an antisymmetric matrix for a 2-form; the degree is its `ndim`.
    Returns the (p+1)-form components at x as {sorted index tuple: value},
    each partial Richardson-extrapolated.
    """
    x = np.asarray(x, dtype=float)
    degree = np.ndim(components(x))
    out: dict = {}
    for key in itertools.combinations(range(x.size), degree):
        for mu in range(x.size):
            if mu in key:
                continue
            dmu = partial_derivative(lambda p, k=key: components(p)[k], x, mu, h)
            pos = sum(1 for idx in key if idx < mu)
            merged = tuple(sorted(key + (mu,)))
            out[merged] = out.get(merged, 0.0) + (-1.0) ** pos * dmu
    return out


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, depth):
    # module level, not nested: a self-referencing closure would form a
    # reference cycle holding f (and all f closes over) until a full collection
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0:
        return left + right
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_simpson_recurse(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _simpson_recurse(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-10, rel: float = 0.0) -> float:
    """Adaptive Simpson quadrature with the usual Richardson correction.

    `tol` is absolute; when `rel` is nonzero the effective tolerance is
    floored at rel * |initial estimate| so that large integrals do not force
    full-depth recursion.  Bisection stops at depth 48.
    """
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    if rel > 0.0:
        tol = max(tol, rel * abs(whole))
    return _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, 48)


def integrate_to_infinity(f: Callable[[float], float], a: float, scale: float = 1.0,
                          tol: float = 1e-10) -> float:
    """Integrate f over (a, inf) via the rational substitution x = a + s*u/(1-u)."""
    def g(u):
        if u >= 1.0:
            return 0.0
        x = a + scale * u / (1.0 - u)
        return f(x) * scale / (1.0 - u) ** 2

    return adaptive_simpson(g, 0.0, 1.0 - 1e-14, tol)


def composite_simpson(values: np.ndarray, h: float) -> complex:
    """Composite Simpson rule on a uniform grid (odd node count required)."""
    n = values.shape[0]
    if n < 3 or n % 2 == 0:
        raise ValueError("composite Simpson needs an odd number of nodes")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (h / 3.0) * np.tensordot(w, values, axes=(0, 0))


# ---------------------------------------------------------------------------
# fits and linear algebra
# ---------------------------------------------------------------------------

def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log|y| against log x."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.abs(np.asarray(ys, dtype=float)))
    A = np.vstack([lx, np.ones_like(lx)]).T
    slope, _ = np.linalg.lstsq(A, ly, rcond=None)[0]
    return float(slope)


def nullspace(A: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace of A, by SVD."""
    A = np.atleast_2d(A)
    _, s, vt = np.linalg.svd(A)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > rtol * max(smax, 1.0)))
    return vt[rank:].conj().T


def subspace_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Operator-norm distance between the orthogonal projectors onto col(U), col(V)."""
    qu, _ = np.linalg.qr(U)
    qv, _ = np.linalg.qr(V)
    pu = qu @ qu.conj().T
    pv = qv @ qv.conj().T
    return float(np.linalg.norm(pu - pv, 2))


def orthonormal_projector(rows: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the nullspace of the given row constraints."""
    N = nullspace(rows, 1e-12)
    return N @ N.conj().T


# ---------------------------------------------------------------------------
# pointwise Hodge duality on 4-dimensional patches
# ---------------------------------------------------------------------------

# Levi-Civita symbol: the sign of each permutation is (-1)^(number of inversions).
_EPS4 = np.zeros((4, 4, 4, 4))
for _perm in itertools.permutations(range(4)):
    _EPS4[_perm] = (-1.0) ** sum(a > b for a, b in itertools.combinations(_perm, 2))


def hodge_star_2form(beta: np.ndarray, g: np.ndarray, orientation: float = 1.0) -> np.ndarray:
    """Hodge dual of a 2-form (antisymmetric 4x4 coefficient matrix).

    `g` is the metric in the same coordinates; `orientation` is the sign of
    the coordinate frame against the chosen volume orientation.
    """
    ginv = np.linalg.inv(g)
    beta_up = ginv @ beta @ ginv.T
    vol = orientation * math.sqrt(abs(np.linalg.det(g)))
    return 0.5 * vol * np.einsum("mnab,ab->mn", _EPS4, beta_up)


def _clip_unit(t: np.ndarray | float) -> np.ndarray | float:
    if isinstance(t, float):
        return 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return np.clip(t, 0.0, 1.0)


def smoothstep_c2(t: np.ndarray | float) -> np.ndarray | float:
    """Quintic smoothstep: 0 to 1 on [0,1] with vanishing first two derivatives."""
    t = _clip_unit(t)
    return t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)


def smoothstep_c3(t: np.ndarray | float) -> np.ndarray | float:
    """Septic smoothstep: 0 to 1 on [0,1], C^3 at the ends."""
    t = _clip_unit(t)
    return t ** 4 * (35.0 - 84.0 * t + 70.0 * t * t - 20.0 * t ** 3)
