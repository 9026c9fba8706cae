"""Nahm flows on an interval: residues, residuals, rotation identities.

Every Nahm matrix is anti-hermitian 2 x 2, an element of u(2) = iR + su(2),
stored as four real coefficients: x = (x_0, x_1, x_2, x_3) stands for
X = x_0 i Id + sum_a x_a E_a with E = SU2_BASIS.  A state holds four
(nodes, 4) arrays B_0..B_3 on a uniform truncated grid [eps, L].  Then
[X, Y] = (0, -x x y) with x x y the cross product of the su(2) parts, and
tr(X Y) = -2 x_0 y_0 - (x . y) / 2.  A gauge path g = exp(phi xi) fixes x_0,
rotates the su(2) part by R = exp(-phi [xi]_x) and has g' g* = phi' xi.
Matrices appear only at the edges: a residue or direction given as a matrix
is converted and refused unless anti-hermitian 2 x 2, and `to_matrix` writes
the state profile.

Derivatives use order-6 stencils so that the exact one-pole solution
B_i = rho_i / s meets tight residual targets on moderate grids; integrals use
the composite Simpson rule.  Pole behavior is handled by explicit boundary-term
bookkeeping rather than singular solves.

Tangents of the one-pole solution come in closed form: around B_i = rho_i / s
the linearized flow (gauge A_0 = 0) is the Euler system s A' = M A with a
real symmetric 12 x 12 operator M built from the residues, of exponents
-2, -1 (x3), 0 (x3), 1 (x5).  So A(s) = V diag((s/eps)^lambda) V^T A(eps) is
exact on every node and the pole-end boundary term of an admissible tangent
vanishes linearly in eps.

Sign conventions: the flow equations are B_i' + [B_0, B_i] = [B_j, B_k] for
(i, j, k) cyclic, and the residue triple satisfies [rho_j, rho_k] = -rho_i.
The symplectic pairing is

    omega(A, B) = integral of -tr(A0 B1) + tr(A1 B0) + tr(A2 B3) - tr(A3 B2),

and the rotation identity reads omega(X, A) + rhs + boundary = 0 with
rhs = -integral of tr(A2 B2 + A3 B3) and boundary = [tr(A1 psi)] between the
grid ends (contraction into the other symplectic slot flips all three signs
together, so the residual is convention-independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import SU2_BASIS, composite_simpson, grid_derivative

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

# tr(X Y) = sum_a _TRACE_WEIGHTS[a] x_a y_a
_TRACE_WEIGHTS = np.array([-2.0, -0.5, -0.5, -0.5])

# amplitude of the polynomial bump behind the gauge path and the gauge tangent
_BUMP_AMPLITUDE = 0.3


def _coefficients(X) -> np.ndarray:
    """(x_0, x_1, x_2, x_3) of anti-hermitian 2 x 2 matrices X; refuses anything else."""
    X = np.asarray(X, dtype=complex)
    if X.shape[-2:] != (2, 2):
        raise ValueError("Nahm matrices are 2 x 2")
    if np.abs(X + np.conj(np.swapaxes(X, -1, -2))).max() > 1e-12 * max(1.0, np.abs(X).max()):
        raise ValueError("Nahm matrices must be anti-hermitian")
    a, b, c, d = X[..., 0, 0], X[..., 0, 1], X[..., 1, 0], X[..., 1, 1]
    return np.stack([0.5 * (a + d).imag, (b + c).imag, (b - c).real, (a - d).imag], axis=-1)


def to_matrix(x: np.ndarray) -> np.ndarray:
    """The anti-hermitian 2 x 2 matrices of coefficient arrays x of shape (..., 4)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = 1j * x[..., 0] + 0.5j * x[..., 3]
    out[..., 0, 1] = 0.5 * x[..., 2] + 0.5j * x[..., 1]
    out[..., 1, 0] = -0.5 * x[..., 2] + 0.5j * x[..., 1]
    out[..., 1, 1] = 1j * x[..., 0] - 0.5j * x[..., 3]
    return out


def _bracket(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[X, Y] in coefficients: the scalar parts commute and [E_a, E_b] = -eps_abc E_c."""
    out = np.zeros(np.broadcast_shapes(X.shape, Y.shape))
    out[..., 1:] = -np.cross(X[..., 1:], Y[..., 1:])
    return out


def _trace(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """tr(X Y) in coefficients, real for anti-hermitian X and Y."""
    return np.einsum("...a,a,...a->...", X, _TRACE_WEIGHTS, Y)


@dataclass(frozen=True)
class ResidueTriple:
    """Trace-free residues forming an su(2) representation, as a read-only (3, 4) array."""

    rho: np.ndarray

    def __post_init__(self):
        rho = _coefficients(self.rho)
        if rho.shape != (3, 4):
            raise ValueError("need three residues")
        if np.abs(rho[:, 0]).max() > 1e-12:
            raise ValueError("residues must be trace-free")
        for i, j, k in _CYCLIC:
            if np.abs(np.cross(rho[j, 1:], rho[k, 1:]) - rho[i, 1:]).max() > 1e-12:
                raise ValueError("[rho_j, rho_k] != -rho_i")
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)


def _on_grid(arrays: tuple, s: np.ndarray) -> tuple:
    """The four coefficient arrays of a state or tangent, refused unless real (nodes, 4)."""
    arrays = tuple(np.asarray(a) for a in arrays)
    if len(arrays) != 4 or any(a.shape != (s.size, 4) or np.iscomplexobj(a) for a in arrays):
        raise ValueError("need four real (nodes, 4) coefficient arrays on the grid")
    return tuple(a.astype(float, copy=False) for a in arrays)


@dataclass(frozen=True)
class NahmState:
    """Coefficients of B_0..B_3 on a uniform grid over a truncated interval."""

    s: np.ndarray
    B: tuple   # four real arrays of shape (nodes, 4)
    residues: ResidueTriple | None = None

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.ndim != 1 or s.size < 7:
            raise ValueError("grid too coarse")
        steps = np.diff(s)
        if np.abs(steps - steps[0]).max() > 1e-12 * max(np.abs(s).max(), 1.0):
            raise ValueError("grid must be uniform")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "B", _on_grid(self.B, s))

    @property
    def h(self) -> float:
        return float(self.s[1] - self.s[0])

    @property
    def eps(self) -> float:
        return float(self.s[0])


@dataclass(frozen=True)
class TangentState:
    """Linearized direction (A_0..A_3), coefficients on the grid of its base state."""

    s: np.ndarray
    A: tuple

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "A", _on_grid(self.A, s))


def one_pole_state(s_min: float, s_max: float, nodes: int) -> NahmState:
    """The exact solution B_i = rho_i / s, B_0 = 0 on [s_min, s_max], rho = SU2_BASIS."""
    if s_min <= 0:
        raise ValueError("the pole at s = 0 must be excluded")
    res = ResidueTriple(SU2_BASIS)
    s = np.linspace(s_min, s_max, nodes)
    B = np.zeros((4, nodes, 4))
    B[1:] = (1.0 / s)[:, None] * res.rho[:, None]
    return NahmState(s, tuple(B), res)


def _max_norm(X: np.ndarray) -> float:
    """Max over the grid of the Frobenius norm sqrt(-tr(X X))."""
    return float(np.sqrt(-_trace(X, X)).max())


def nahm_residual(state: NahmState) -> float:
    """Max over the grid and the three equations of |B_i' + [B_0,B_i] - [B_j,B_k]|."""
    B0 = state.B[0]
    dB = grid_derivative(np.stack(state.B[1:], axis=1), state.h)   # (nodes, 3, 4)
    worst = 0.0
    for i, j, k in _CYCLIC:
        Bi, Bj, Bk = state.B[i + 1], state.B[j + 1], state.B[k + 1]
        worst = max(worst, _max_norm(dB[:, i] + _bracket(B0, Bi) - _bracket(Bj, Bk)))
    return worst


def gauge_transform(state: NahmState, R: np.ndarray, c: np.ndarray) -> NahmState:
    """Act by a gauge path given as its rotations R and c = g' g*.

    g B g* fixes the scalar coefficient and rotates the su(2) part by R, so
    B_0 -> g B_0 g* - g' g* and B_i -> g B_i g*.  R must be a rotation
    (orthogonal, det +1) on every node.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (state.s.size, 3, 3) or np.shape(c) != (state.s.size, 4):
        raise ValueError("gauge path must match the grid")
    det = np.einsum("ni,ni->n", R[:, 0], np.cross(R[:, 1], R[:, 2]))
    if np.abs(np.einsum("nji,njk->nik", R, R) - np.eye(3)).max() > 1e-10 or (det <= 0).any():
        raise ValueError("gauge path must be a rotation on every node")
    B = np.stack(state.B)
    B[..., 1:] = np.einsum("nij,bnj->bni", R, B[..., 1:])
    B[0] -= c
    return NahmState(state.s, tuple(B), state.residues)


def _gauge_bump(state: NahmState,
                direction: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xi, phi, phi') for the coefficients xi of an anti-hermitian direction and
    phi = _BUMP_AMPLITUDE (t(1-t))^3, t in [0, 1]."""
    xi = _coefficients(direction)
    if xi.shape != (4,):
        raise ValueError("gauge direction must be one 2 x 2 matrix")
    s = state.s
    t = (s - s[0]) / (s[-1] - s[0])
    phi = _BUMP_AMPLITUDE * (t * (1.0 - t)) ** 3
    phi_prime = _BUMP_AMPLITUDE * 3.0 * (t * (1.0 - t)) ** 2 * (1.0 - 2.0 * t) / (s[-1] - s[0])
    return xi, phi, phi_prime


def bump_gauge_path(state: NahmState, direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, g' g*) of g = exp(phi(s) xi), the identity at both grid ends.

    xi is an anti-hermitian direction and phi a polynomial bump.  Ad_g rotates
    the su(2) coefficients by R = exp(-phi [xi]_x), written by Rodrigues'
    formula, and g' g* = phi' xi exactly.
    """
    xi, phi, phi_prime = _gauge_bump(state, direction)
    norm = float(np.sqrt(np.sum(xi[1:] ** 2)))
    K = np.cross(np.eye(3), -xi[1:] / norm if norm else xi[1:])   # [-axis]_x
    theta = phi * norm
    R = np.eye(3) + np.sin(theta)[:, None, None] * K \
        + (1.0 - np.cos(theta))[:, None, None] * (K @ K)
    return R, phi_prime[:, None] * xi


def translation_action(state: NahmState, x: np.ndarray) -> NahmState:
    """B_i -> B_i + i x_i Id for i >= 1; an exact symmetry of the flow."""
    B = np.stack(state.B)
    B[1:, :, 0] += np.asarray(x, dtype=float)[:, None]
    return NahmState(state.s, tuple(B), state.residues)


def linearized_residual(tangent: TangentState, state: NahmState) -> float:
    """Residual of A_i' + [A_0,B_i] + [B_0,A_i] = [A_j,B_k] + [B_j,A_k]."""
    if tangent.s.shape != state.s.shape or np.abs(tangent.s - state.s).max() > 1e-12:
        raise ValueError("tangent and state must share a grid")
    A0, B0 = tangent.A[0], state.B[0]
    dA = grid_derivative(np.stack(tangent.A[1:], axis=1), state.h)   # (nodes, 3, 4)
    worst = 0.0
    for i, j, k in _CYCLIC:
        Ai, Aj, Ak = tangent.A[i + 1], tangent.A[j + 1], tangent.A[k + 1]
        Bi, Bj, Bk = state.B[i + 1], state.B[j + 1], state.B[k + 1]
        worst = max(worst, _max_norm(dA[:, i] + _bracket(A0, Bi)
                                     + _bracket(B0, Ai) - _bracket(Aj, Bk) - _bracket(Bj, Ak)))
    return worst


# ---------------------------------------------------------------------------
# tangent constructions
# ---------------------------------------------------------------------------

def translation_tangent(state: NahmState, x: np.ndarray) -> TangentState:
    """Constant direction (0, i x_1 Id, i x_2 Id, i x_3 Id)."""
    A = np.zeros((4,) + state.B[0].shape)
    A[1:, :, 0] = np.asarray(x, dtype=float)[:, None]
    return TangentState(state.s, tuple(A))


def gauge_tangent(state: NahmState, direction: np.ndarray) -> TangentState:
    """Gauge-orbit direction (X' + [B_0, X], [B_1, X], [B_2, X], [B_3, X]).

    X = phi(s) xi is the generator of `bump_gauge_path` along the same
    direction: the tangent at the identity of the paths exp(lambda X).
    """
    xi, phi, phi_prime = _gauge_bump(state, direction)
    X = phi[:, None] * xi
    A0 = phi_prime[:, None] * xi + _bracket(state.B[0], X)
    rest = tuple(_bracket(state.B[i], X) for i in (1, 2, 3))
    return TangentState(state.s, (A0,) + rest)


def pole_shift_tangent(state: NahmState) -> TangentState:
    """d/d(s0) of the shifted pole rho_i/(s - s0): A_i = rho_i / s^2.

    An exact linearized solution on the one-pole background, singular at the
    pole, so only meaningful on grids truncated well away from s = 0.
    """
    if state.residues is None:
        raise ValueError("state carries no residue data")
    A = np.zeros((4,) + state.B[0].shape)
    A[1:] = (1.0 / state.s ** 2)[:, None] * state.residues.rho[:, None]
    return TangentState(state.s, tuple(A))


EULER_EXPONENTS = (-2.0, -1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def _euler_operator(rho: np.ndarray) -> np.ndarray:
    """The matrix M of s A' = M A on the coefficients of (A_1, A_2, A_3), A_0 = 0.

    Around B_i = rho_i / s the linearized flow reads
    s A_i' = [A_j, rho_k] + [rho_j, A_k], whose su(2) part is
    rho_k x a_j - rho_j x a_k and whose scalar part vanishes.  Block (i, j)
    of M is [rho_k]_x and block (j, i) is -[rho_k]_x = [rho_k]_x^T, so M is
    symmetric for every triple.
    """
    cross = np.cross(np.eye(3), np.asarray(rho, dtype=float)[:, None, 1:])   # [rho_i]_x
    M = np.zeros((3, 4, 3, 4))
    for i, j, k in _CYCLIC:
        M[i, 1:, j, 1:] = cross[k]
        M[i, 1:, k, 1:] = -cross[j]
    return M.reshape(12, 12)


def euler_exponents(rho: np.ndarray) -> np.ndarray:
    """Ascending spectrum of the symmetric Euler operator M for residue coefficients rho.

    For an irreducible triple with [rho_j, rho_k] = -rho_i it is
    EULER_EXPONENTS: the scalar directions give 0 three times, and the
    su(2) ones split as spin 0 + 1 + 2 into -2, -1 (x3) and 1 (x5).
    """
    return np.linalg.eigvalsh(_euler_operator(rho))


def ivp_tangent(state: NahmState, scalars: np.ndarray, seed: int) -> TangentState:
    """Linearized solution from the left end of a one-pole state, in closed form.

    Initial data A_i(eps) = scalars_i * i * Id + eps * eta_i with random
    anti-hermitian eta_i drawn from `seed`, which is the admissible near-pole
    shape (scalar plus a vanishing correction).  The gauge slice is A_0 = 0
    and the state must be the exact one-pole background, around which the
    flow is the Euler system s A' = M A (see `euler_exponents`).  M is
    symmetric, M = V diag(lambda) V^T with V orthogonal, and the solution
    A(s) = V diag((s/eps)^lambda) V^T A(eps) is evaluated on every node.
    The tests keep an RK4 integration of the same system as an oracle.
    """
    res = state.residues
    if res is None:
        raise ValueError("state carries no residue data")
    if np.abs(state.B[0]).max() > 0:
        raise ValueError("IVP integration assumes the B_0 = 0 one-pole gauge")
    rng = np.random.default_rng(seed)
    M = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    eps = state.eps
    start = eps * _coefficients([0.5 * (m - m.conj().T) for m in M])
    start[:, 0] += scalars
    start = start.ravel()
    lam, V = np.linalg.eigh(_euler_operator(res.rho))
    modes = start @ V
    # in place, so that at most two (nodes x 12) arrays are alive at once:
    # larger transients raise the process's peak RSS
    growth = np.outer(np.log(state.s / eps), lam)
    np.exp(growth, out=growth)
    growth *= modes
    # einsum keeps the (nodes x 12)(12 x 12) product off threaded BLAS
    A = np.einsum("nm,im->ni", growth, V)
    del growth
    A[0] = start   # the initial data, without the roundoff of V V^T
    A = A.reshape(-1, 3, 4)
    return TangentState(state.s, (np.zeros_like(A[:, 0]), A[:, 0], A[:, 1], A[:, 2]))


# ---------------------------------------------------------------------------
# symplectic pairing and the rotation identity
# ---------------------------------------------------------------------------

def symplectic_form(A: TangentState, B: TangentState) -> float:
    """Flat pairing: Simpson integral of the displayed four-trace combination."""
    if A.s.shape != B.s.shape or np.abs(A.s - B.s).max() > 1e-12:
        raise ValueError("tangents must share a grid")
    integrand = -_trace(A.A[0], B.A[1]) + _trace(A.A[1], B.A[0]) \
        + _trace(A.A[2], B.A[3]) - _trace(A.A[3], B.A[2])
    h = float(A.s[1] - A.s[0])
    return float(composite_simpson(integrand, h))


def constant_psi(state: NahmState) -> np.ndarray:
    """psi identically -rho_1, the minimal admissible compensator path."""
    res = state.residues
    if res is None:
        raise ValueError("state carries no residue data")
    return np.broadcast_to(-res.rho[0], state.B[0].shape).copy()


def bumped_psi(state: NahmState, direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psi, psi') for psi = -rho_1 + sin^2(pi t) eta / 2, t in [0, 1], pinned at the ends.

    eta is an anti-hermitian 2 x 2 direction.
    """
    eta = _coefficients(direction)
    s = state.s
    t = (s - s[0]) / (s[-1] - s[0])
    bump = 0.5 * np.sin(math.pi * t) ** 2
    bump_prime = 0.5 * math.pi * np.sin(2.0 * math.pi * t) / (s[-1] - s[0])
    return constant_psi(state) + bump[:, None] * eta, bump_prime[:, None] * eta


def rotation_field(state: NahmState, psi: np.ndarray, psi_prime: np.ndarray) -> TangentState:
    """X = (psi' + [B_0,psi], [B_1,psi], B_3 + [B_2,psi], -B_2 + [B_3,psi]).

    psi must equal -rho_1 at both grid ends so the residues stay fixed; psi' is analytic.
    """
    res = state.residues
    if res is None:
        raise ValueError("state carries no residue data")
    for end in (0, -1):
        if np.abs(psi[end] + res.rho[0]).max() > 1e-10:
            raise ValueError("psi must equal -rho_1 at the grid ends")
    X0 = psi_prime + _bracket(state.B[0], psi)
    X1 = _bracket(state.B[1], psi)
    X2 = state.B[3] + _bracket(state.B[2], psi)
    X3 = -state.B[2] + _bracket(state.B[3], psi)
    return TangentState(state.s, (X0, X1, X2, X3))


@dataclass(frozen=True)
class ContractionReport:
    lhs: float
    rhs: float
    boundary: float
    boundary_left: float
    rel_err: float
    scale: float


def contraction_identity(state: NahmState, tangent: TangentState,
                         psi: np.ndarray, psi_prime: np.ndarray) -> ContractionReport:
    """Verify omega(X, A) + rhs + boundary = 0 for the rotation field X.

    rhs is -integral of tr(A_2 B_2 + A_3 B_3); boundary is tr(A_1 psi)
    evaluated between the grid ends.  The relative error is measured against
    the natural magnitude of the ingredients, so exact cancellations of large
    terms are still meaningful checks.
    """
    X = rotation_field(state, psi, psi_prime)
    lhs = symplectic_form(X, tangent)
    integrand = _trace(tangent.A[2], state.B[2]) + _trace(tangent.A[3], state.B[3])
    rhs = -float(composite_simpson(integrand, state.h))
    boundary_left = float(_trace(tangent.A[1][0], psi[0]))
    boundary = float(_trace(tangent.A[1][-1], psi[-1])) - boundary_left
    # the natural magnitude of both sides before cancellation
    lhs_integrand = sum(np.abs(_trace(X.A[a], tangent.A[b]))
                        for a, b in ((0, 1), (1, 0), (2, 3), (3, 2)))
    magnitude = float(np.abs(composite_simpson(np.abs(integrand), state.h))) \
        + float(np.abs(composite_simpson(lhs_integrand, state.h)))
    scale = max(abs(lhs), abs(rhs), abs(boundary), magnitude, 1e-30)
    rel_err = abs(lhs + rhs + boundary) / scale
    return ContractionReport(lhs, rhs, boundary, boundary_left, rel_err, scale)
