"""Shared numerical machinery: finite differences, quadrature, linear algebra.

Everything here is dimension-agnostic plumbing used by the geometry modules:
high-order finite-difference stencils (Fornberg weights), Richardson-extrapolated
partial derivatives, the exterior derivative of a form field given by its
coefficient arrays (every point from one Richardson stencil, on which a field
is built once as a (17, ...) stack on R^4), adaptive Simpson quadrature with
endpoint substitutions for improper integrals, adaptive Gauss-Kronrod 7-15
quadrature, SVD nullspaces and subspace distances, pointwise Hodge duality for
2-forms on 4-dimensional coordinate patches, the su(2) basis and the cyclic
triples of axes 1, 2, 3.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

# E_k = (i/2) Pauli_k with [E_1, E_2] = -E_3 cyclic, read-only: the su(2)
# residues of the Nahm pole and the orbit generators of the Calabi quotient
_SU2 = 0.5j * np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]],
                        [[1.0, 0.0], [0.0, -1.0]]], dtype=complex)
_SU2.flags.writeable = False
SU2_BASIS = tuple(_SU2)

# (i, j, k) cyclic from axis i: ds_i = s_j ^ s_k (Bianchi IX), [L_i, Lambda_j] = -sigma_k
CYCLIC_AXES = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def cyclic_axes(axis: int) -> tuple[int, int, int]:
    """The cyclic triple (axis, j, k); an axis other than 1, 2 or 3 raises ValueError."""
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    return CYCLIC_AXES[axis - 1]


# step of every Richardson-extrapolated finite difference
FD_STEP = 1e-4


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def fd_weights(x0: float, xs: Sequence[float], m: int) -> np.ndarray:
    """Fornberg weights for the m-th derivative at x0 from nodes xs.

    The recurrence runs on Python floats and lists: numpy scalars would round
    the same way, at twice the cost per call.
    """
    xs = np.asarray(xs, dtype=float).tolist()
    x0 = float(x0)
    n = len(xs)
    if m >= n:
        raise ValueError("need more nodes than derivative order")
    c = [[0.0] * (m + 1) for _ in range(n)]
    c[0][0] = 1.0
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
                    c[i][k] = c1 * (k * c[i - 1][k - 1] - c5 * c[i - 1][k]) / c2
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            for k in range(mn, 0, -1):
                c[j][k] = (c4 * c[j][k] - k * c[j][k - 1]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    # a column view, as the weights always were: grid_derivative's edge
    # tensordot rounds a strided vector otherwise than a contiguous one
    return np.array(c)[:, m]


def grid_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative along axis 0 of uniformly gridded values.

    Uses centered order-6 stencils in the interior and skewed stencils of the
    same width near the edges, so the error is O(h^6) uniformly.  Works on
    arrays of matrices (derivative taken entrywise), so several fields on one
    grid can be stacked along axis 1 and share the seven weight vectors.
    """
    npts = values.shape[0]
    width = 7
    if npts < width:
        raise ValueError(f"grid too coarse: need at least {width} nodes")
    half = 3
    out = np.zeros_like(values)
    # interior: centered stencil applied by shifted slices, summed in place
    # into out, so a stack of fields needs one term buffer beside it
    w = fd_weights(0.0, np.arange(-half, half + 1) * h, 1)
    acc = out[half:npts - half]
    term = np.empty_like(acc)
    for j, wj in enumerate(w):
        acc += np.multiply(wj, values[j:npts - 2 * half + j], out=term)
    # edges: skewed stencils of the same width
    for i in range(half):
        w = fd_weights(i * h, np.arange(width) * h, 1)
        out[i] = np.tensordot(w, values[:width], axes=(0, 0))
        w = fd_weights((npts - 1 - i) * h, (npts - width + np.arange(width)) * h, 1)
        out[npts - 1 - i] = np.tensordot(w, values[npts - width:], axes=(0, 0))
    return out


# the signed steps of one Richardson difference, in the order it takes them
_RICHARDSON_STEPS = np.array([[FD_STEP], [-FD_STEP], [FD_STEP / 2.0], [-FD_STEP / 2.0]])


def richardson_stencil(x: np.ndarray) -> np.ndarray:
    """Every point the Richardson differences about x query, bit for bit, as rows.

    Row 0 is x; rows 1 + 4k to 4 + 4k are x + h e, x - h e, x + h/2 e and
    x - h/2 e for e the unit vector along axis k, so an (n,) point gives a
    (1 + 4n, n) stencil: 17 rows on a 4-dimensional chart.
    """
    x = np.asarray(x, dtype=float)
    offsets = _RICHARDSON_STEPS * np.eye(x.size)[:, None, :]
    return np.vstack([x, (x + offsets).reshape(-1, x.size)])


def _richardson(f_plus, f_minus, f_plus_half, f_minus_half):
    """(4 D(h/2) - D(h)) / 3 from f at x + h e, x - h e, x + h/2 e, x - h/2 e, h = FD_STEP."""
    d1 = (f_plus - f_minus) / (2.0 * FD_STEP)
    d2 = (f_plus_half - f_minus_half) / (2.0 * (FD_STEP / 2.0))
    return (4.0 * d2 - d1) / 3.0


def partial_derivative(f: Callable[[np.ndarray], float | np.ndarray], x: np.ndarray,
                       axis: int) -> float | np.ndarray:
    """Richardson-extrapolated central difference (4 D(h/2) - D(h)) / 3, h = FD_STEP.

    `f` may return a scalar or an array; arrays are differenced entrywise.
    """
    return _richardson(*(f(p) for p in richardson_stencil(x)[1 + 4 * axis:5 + 4 * axis]))


def exterior_derivative_at(components: Callable[[np.ndarray], np.ndarray],
                           x: np.ndarray) -> dict:
    """Finite-difference exterior derivative of a form field on R^(x.size).

    `components` maps a point to the form's coefficient array: a vector for a
    1-form, an antisymmetric matrix for a 2-form; the degree is its `ndim`.
    Returns the (p+1)-form components at x as {sorted index tuple: value},
    each partial Richardson-extrapolated.  Every point comes from the one
    `richardson_stencil(x)`, but `components` is called once at x and four
    times per partial, each call read for one coefficient: 49 calls at 17
    distinct points for a 2-form on R^4.  A field that is costly to build is
    built once on the stencil and read back through
    `exterior_derivative_on_stencil`.
    """
    x = np.asarray(x, dtype=float)
    stencil = richardson_stencil(x)
    degree = np.ndim(components(x))
    out: dict = {}
    for key in itertools.combinations(range(x.size), degree):
        for mu in range(x.size):
            if mu in key:
                continue
            dmu = _richardson(*(components(p)[key] for p in stencil[1 + 4 * mu:5 + 4 * mu]))
            pos = sum(1 for idx in key if idx < mu)
            merged = tuple(sorted(key + (mu,)))
            out[merged] = out.get(merged, 0.0) + (-1.0) ** pos * dmu
    return out


def exterior_derivative_on_stencil(values: Sequence[np.ndarray], x: np.ndarray) -> dict:
    """`exterior_derivative_at` of a field already evaluated on `richardson_stencil(x)`.

    values[i] is the field's coefficient array at stencil row i: a stacked
    field is called once on the stencil, and `components` is a lookup into
    those rows by each point's bytes, still read 49 times on R^4.
    """
    x = np.asarray(x, dtype=float)
    rows = {p.tobytes(): v for p, v in zip(richardson_stencil(x), values, strict=True)}
    return exterior_derivative_at(lambda p: rows[p.tobytes()], x)


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
    # a NaN or inf estimate fails every tolerance test; bisecting it would
    # run to full depth, so it is returned as it is
    if depth <= 0 or not math.isfinite(left + right):
        return left + right
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_simpson_recurse(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _simpson_recurse(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float, rel: float = 0.0) -> float:
    """Adaptive Simpson quadrature with the usual Richardson correction.

    `tol` is absolute; when `rel` is nonzero the effective tolerance is
    floored at rel * |initial estimate| so that large integrals do not force
    full-depth recursion.  Bisection stops at depth 48, and at a panel whose
    estimate is NaN or infinite, which is returned as it is.
    """
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    if rel > 0.0:
        tol = max(tol, rel * abs(whole))
    return _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, 48)


# Gauss-Kronrod 7-15 on [-1, 1] (QUADPACK qk15): the Kronrod abscissae from the
# outermost to the centre, their weights, and the 7-point Gauss weights of the
# odd-positioned abscissae 1, 3, 5 and the centre
_GK_X = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
         0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
         0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
         0.207784955007898467600689403773245)
_GK_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
          0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
          0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
          0.204432940075298892414161999234649)
_GK_WK_CENTRE = 0.209482141084727828012999174891714
_GK_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
          0.381830050505118944950369775488975)
_GK_WG_CENTRE = 0.417959183673469387755102040816327


def _kronrod_panel(f, a, b):
    """(Kronrod 15-point, Gauss 7-point) estimates of the integral of f over [a, b]."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(c)
    kronrod, gauss = _GK_WK_CENTRE * fc, _GK_WG_CENTRE * fc
    for k, x in enumerate(_GK_X):
        pair = f(c - h * x) + f(c + h * x)
        kronrod += _GK_WK[k] * pair
        if k % 2:
            gauss += _GK_WG[k // 2] * pair
    return h * kronrod, h * gauss


def _kronrod_recurse(f, a, b, tol, depth):
    kronrod, gauss = _kronrod_panel(f, a, b)
    if depth <= 0 or not math.isfinite(kronrod) or abs(kronrod - gauss) <= tol:
        return kronrod
    m = 0.5 * (a + b)
    return (_kronrod_recurse(f, a, m, tol / 2.0, depth - 1)
            + _kronrod_recurse(f, m, b, tol / 2.0, depth - 1))


def gauss_kronrod(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Adaptive Gauss-Kronrod 7-15 quadrature to absolute tolerance `tol`.

    A panel is accepted when its 15-point Kronrod and 7-point Gauss estimates
    differ by at most its share of `tol` (halved at each bisection), and its
    Kronrod value is returned; the Kronrod rule is exact for polynomials of
    degree 22.  Bisection stops at depth 48 and at a non-finite panel, as in
    `adaptive_simpson`.  One panel costs 15 evaluations, none shared with its
    neighbours, so the rule pays off on long smooth intervals, where Simpson
    would bisect many times.
    """
    return _kronrod_recurse(f, a, b, tol, 48)


def integrate_to_infinity(f: Callable[[float], float], a: float, scale: float,
                          tol: float) -> float:
    """Integrate f over (a, inf) via the rational substitution x = a + s*u/(1-u)."""
    # adaptive_simpson samples g on [0, 1 - 1e-14] only, so 1 - u never vanishes
    def g(u):
        x = a + scale * u / (1.0 - u)
        return f(x) * scale / (1.0 - u) ** 2

    return adaptive_simpson(g, 0.0, 1.0 - 1e-14, tol)


def composite_simpson(values: np.ndarray, h: float) -> complex:
    """Composite Simpson rule on a uniform grid (odd node count required).

    The odd and even nodes are summed by numpy, not weighted by a BLAS dot:
    OpenBLAS threads a dot past 10,000 entries, which makes the last bits of
    the sum depend on the thread count and leaves its worker spinning.
    """
    n = values.shape[0]
    if n < 3 or n % 2 == 0:
        raise ValueError("composite Simpson needs an odd number of nodes")
    return (h / 3.0) * (values[0] + values[-1] + 4.0 * values[1:-1:2].sum(axis=0)
                        + 2.0 * values[2:-1:2].sum(axis=0))


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


def nullspace(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace of A, by SVD.

    Singular values up to 1e-10 times max(largest, 1) count as zero.
    """
    A = np.atleast_2d(A)
    _, s, vt = np.linalg.svd(A)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > 1e-10 * max(smax, 1.0)))
    return vt[rank:].conj().T


def subspace_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Operator-norm distance between the orthogonal projectors onto col(U), col(V)."""
    qu, _ = np.linalg.qr(U)
    qv, _ = np.linalg.qr(V)
    pu = qu @ qu.conj().T
    pv = qv @ qv.conj().T
    return float(np.linalg.norm(pu - pv, 2))


# ---------------------------------------------------------------------------
# pointwise Hodge duality on 4-dimensional patches
# ---------------------------------------------------------------------------

# Levi-Civita symbol: the sign of each permutation is (-1)^(number of inversions).
_EPS4 = np.zeros((4, 4, 4, 4))
for _perm in itertools.permutations(range(4)):
    _EPS4[_perm] = (-1.0) ** sum(a > b for a, b in itertools.combinations(_perm, 2))


def hodge_star_2form(beta: np.ndarray, g: np.ndarray, orientation: float) -> np.ndarray:
    """Hodge dual of a 2-form (antisymmetric 4x4 coefficient matrix).

    `g` is the metric in the same coordinates; `orientation` is the sign of
    the coordinate frame against the chosen volume orientation.
    """
    ginv = np.linalg.inv(g)
    beta_up = ginv @ beta @ ginv.T
    vol = orientation * math.sqrt(abs(np.linalg.det(g)))
    return 0.5 * vol * np.einsum("mnab,ab->mn", _EPS4, beta_up)


def _clip_unit(t: float) -> float:
    return 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)


def smoothstep_c2(t: float) -> float:
    """Quintic smoothstep: 0 to 1 on [0,1] with vanishing first two derivatives."""
    t = _clip_unit(t)
    return t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)


def smoothstep_c3(t: float) -> float:
    """Septic smoothstep: 0 to 1 on [0,1], C^3 at the ends."""
    t = _clip_unit(t)
    return t ** 4 * (35.0 - 84.0 * t + 70.0 * t * t - 20.0 * t ** 3)
