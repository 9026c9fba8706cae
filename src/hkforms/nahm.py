"""Nahm matrix flows on an interval: residues, residuals, rotation identities.

States live on a uniform truncated grid [eps, L] with anti-hermitian k x k
matrices B_0, ..., B_3 per node.  Derivatives use order-6 stencils so that
the exact one-pole solution B_i = rho_i / s meets tight residual targets on
moderate grids; integrals use the composite Simpson rule.  Pole behavior is
handled by explicit boundary-term bookkeeping rather than singular solves.

Tangents of the one-pole solution come in closed form: around B_i = rho_i / s
the linearized flow (gauge A_0 = 0) is the Euler system s A' = M A with a
fixed 3k^2 x 3k^2 operator M built from the residues.  For k = 2 its
exponents are the integers -2, -1 (x3), 0 (x3), 1 (x5), so
A(s) = V diag((s/eps)^lambda) V^-1 A(eps) is exact on every node and the
pole-end boundary term of an admissible tangent vanishes linearly in eps.
An RK4 integration of the same system is kept only as a test oracle.

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
from dataclasses import dataclass, field

import numpy as np

from .numerics import PAULI, composite_simpson, grid_derivative

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@dataclass(frozen=True)
class ResidueTriple:
    """Anti-hermitian residues forming an su(2) representation."""

    rho: tuple

    def __post_init__(self):
        rho = tuple(np.asarray(r, dtype=complex) for r in self.rho)
        if len(rho) != 3:
            raise ValueError("need three residues")
        object.__setattr__(self, "rho", rho)
        for i, j, k in _CYCLIC:
            if np.abs(rho[j] @ rho[k] - rho[k] @ rho[j] + rho[i]).max() > 1e-12:
                raise ValueError("[rho_j, rho_k] != -rho_i")
        for r in rho:
            if abs(np.trace(r)) > 1e-12:
                raise ValueError("residues must be trace-free")
            if np.abs(r + r.conj().T).max() > 1e-12:
                raise ValueError("residues must be anti-hermitian")

    @property
    def k(self) -> int:
        return self.rho[0].shape[0]

    def spans_su2(self) -> bool:
        """Irreducibility for k = 2: the triple spans trace-free anti-hermitians."""
        flat = np.array([r.ravel() for r in self.rho])
        return np.linalg.matrix_rank(flat, tol=1e-10) == 3


def standard_residues(k: int = 2) -> ResidueTriple:
    """rho_i = (i/2) Pauli_i, the irreducible su(2) residues for k = 2."""
    if k != 2:
        raise ValueError("only the k = 2 representation is built in")
    return ResidueTriple(tuple(0.5j * s for s in PAULI))


def _anti_hermitian_ok(M: np.ndarray, tol: float) -> bool:
    return np.abs(M + np.conj(np.swapaxes(M, -1, -2))).max() <= tol


@dataclass(frozen=True)
class NahmState:
    """Matrices B_0..B_3 on a uniform grid over a truncated interval."""

    s: np.ndarray
    B: tuple   # four arrays of shape (nodes, k, k)
    residues: ResidueTriple | None = None

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        B = tuple(np.asarray(b, dtype=complex) for b in self.B)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "B", B)
        if len(B) != 4:
            raise ValueError("need B_0, B_1, B_2, B_3")
        if s.ndim != 1 or s.size < 7:
            raise ValueError("grid too coarse")
        steps = np.diff(s)
        if np.abs(steps - steps[0]).max() > 1e-12 * max(np.abs(s).max(), 1.0):
            raise ValueError("grid must be uniform")
        for b in B:
            if b.shape[0] != s.size:
                raise ValueError("matrix arrays must match the grid")
            if not _anti_hermitian_ok(b, 1e-10 * max(1.0, np.abs(b).max())):
                raise ValueError("matrices must be anti-hermitian on every node")

    @property
    def h(self) -> float:
        return float(self.s[1] - self.s[0])

    @property
    def eps(self) -> float:
        return float(self.s[0])

    @property
    def k(self) -> int:
        return self.B[0].shape[1]


@dataclass(frozen=True)
class TangentState:
    """Linearized direction (A_0..A_3) on the same grid as its base state."""

    s: np.ndarray
    A: tuple

    def __post_init__(self):
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float))
        object.__setattr__(self, "A", tuple(np.asarray(a, dtype=complex) for a in self.A))


def one_pole_state(s_min: float, s_max: float, nodes: int) -> NahmState:
    """The exact solution B_i = rho_i / s, B_0 = 0 on [s_min, s_max], standard residues."""
    if s_min <= 0:
        raise ValueError("the pole at s = 0 must be excluded")
    res = standard_residues()
    s = np.linspace(s_min, s_max, nodes)
    inv = 1.0 / s
    B0 = np.zeros((nodes, res.k, res.k), dtype=complex)
    Bi = [inv[:, None, None] * res.rho[i] for i in range(3)]
    return NahmState(s, (B0, Bi[0], Bi[1], Bi[2]), res)


def _comm(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


def nahm_residual(state: NahmState) -> float:
    """Max over the grid and the three equations of |B_i' + [B_0,B_i] - [B_j,B_k]|."""
    h = state.h
    B0 = state.B[0]
    worst = 0.0
    for i, j, k in _CYCLIC:
        Bi, Bj, Bk = state.B[i + 1], state.B[j + 1], state.B[k + 1]
        res = grid_derivative(Bi, h) + _comm(B0, Bi) - _comm(Bj, Bk)
        worst = max(worst, float(np.sqrt(np.sum(np.abs(res) ** 2, axis=(1, 2))).max()))
    return worst


def gauge_transform(state: NahmState, g: np.ndarray,
                    g_prime: np.ndarray | None = None) -> NahmState:
    """Act by a unitary path: B_0 -> g B_0 g* - g' g*, B_i -> g B_i g*."""
    g = np.asarray(g, dtype=complex)
    if g.shape != state.B[0].shape:
        raise ValueError("gauge path must match the grid")
    gh = np.conj(np.swapaxes(g, -1, -2))
    eye = np.eye(state.k)
    if np.abs(g @ gh - eye).max() > 1e-10:
        raise ValueError("gauge path must be unitary")
    if g_prime is None:
        g_prime = grid_derivative(g, state.h, 6)
    B0 = g @ state.B[0] @ gh - g_prime @ gh
    # drift the anti-hermitian part: g' g* is exactly anti-hermitian for
    # unitary paths, so symmetrize only to absorb FD roundoff
    B0 = 0.5 * (B0 - np.conj(np.swapaxes(B0, -1, -2)))
    rest = tuple(g @ state.B[i] @ gh for i in (1, 2, 3))
    return NahmState(state.s, (B0,) + rest, state.residues)


def bump_gauge_path(state: NahmState, direction: np.ndarray,
                    amplitude: float = 0.3) -> tuple[np.ndarray, np.ndarray]:
    """Smooth unitary path equal to the identity at both grid ends.

    Returns (g, g') with the derivative analytic, g = exp(phi(s) xi) for an
    anti-hermitian direction xi and a polynomial bump phi.
    """
    xi = np.asarray(direction, dtype=complex)
    if np.abs(xi + xi.conj().T).max() > 1e-12:
        raise ValueError("gauge direction must be anti-hermitian")
    s = state.s
    t = (s - s[0]) / (s[-1] - s[0])
    phi = amplitude * (t * (1.0 - t)) ** 3
    phi_prime = amplitude * 3.0 * (t * (1.0 - t)) ** 2 * (1.0 - 2.0 * t) / (s[-1] - s[0])
    evals, evecs = np.linalg.eig(xi)
    g = (evecs * np.exp(np.outer(phi, evals))[:, None, :]) @ np.linalg.inv(evecs)
    g_prime = phi_prime[:, None, None] * (g @ xi)
    return g, g_prime


def translation_action(state: NahmState, x: np.ndarray) -> NahmState:
    """B_i -> B_i + i x_i Id for i >= 1; an exact symmetry of the flow."""
    x = np.asarray(x, dtype=float)
    eye = np.eye(state.k)
    new = [state.B[0]]
    for i in range(3):
        new.append(state.B[i + 1] + 1j * x[i] * eye)
    return NahmState(state.s, tuple(new), state.residues)


def linearized_residual(tangent: TangentState, state: NahmState) -> float:
    """Residual of A_i' + [A_0,B_i] + [B_0,A_i] = [A_j,B_k] + [B_j,A_k]."""
    if tangent.s.shape != state.s.shape or np.abs(tangent.s - state.s).max() > 1e-12:
        raise ValueError("tangent and state must share a grid")
    h = state.h
    A0, B0 = tangent.A[0], state.B[0]
    worst = 0.0
    for i, j, k in _CYCLIC:
        Ai, Aj, Ak = tangent.A[i + 1], tangent.A[j + 1], tangent.A[k + 1]
        Bi, Bj, Bk = state.B[i + 1], state.B[j + 1], state.B[k + 1]
        res = (grid_derivative(Ai, h) + _comm(A0, Bi) + _comm(B0, Ai)
               - _comm(Aj, Bk) - _comm(Bj, Ak))
        worst = max(worst, float(np.sqrt(np.sum(np.abs(res) ** 2, axis=(1, 2))).max()))
    return worst


# ---------------------------------------------------------------------------
# tangent constructions
# ---------------------------------------------------------------------------

def translation_tangent(state: NahmState, x: np.ndarray) -> TangentState:
    """Constant direction (0, i x_1 Id, i x_2 Id, i x_3 Id)."""
    x = np.asarray(x, dtype=float)
    eye = np.eye(state.k)
    zero = np.zeros_like(state.B[0])
    comps = [zero] + [np.broadcast_to(1j * x[i] * eye, state.B[0].shape).copy()
                      for i in range(3)]
    return TangentState(state.s, tuple(comps))


def gauge_tangent(state: NahmState, xi: np.ndarray,
                  xi_prime: np.ndarray | None = None) -> TangentState:
    """Gauge-orbit direction (xi' + [B_0, xi], [B_1, xi], [B_2, xi], [B_3, xi])."""
    xi = np.asarray(xi, dtype=complex)
    if xi_prime is None:
        xi_prime = grid_derivative(xi, state.h, 6)
    A0 = xi_prime + _comm(state.B[0], xi)
    rest = tuple(_comm(state.B[i], xi) for i in (1, 2, 3))
    return TangentState(state.s, (A0,) + rest)


def pole_shift_tangent(state: NahmState) -> TangentState:
    """d/d(s0) of the shifted pole rho_i/(s - s0): A_i = rho_i / s^2.

    An exact linearized solution on the one-pole background, singular at the
    pole, so only meaningful on grids truncated well away from s = 0.
    """
    if state.residues is None:
        raise ValueError("state carries no residue data")
    inv2 = 1.0 / state.s ** 2
    zero = np.zeros_like(state.B[0])
    comps = [zero] + [inv2[:, None, None] * state.residues.rho[i] for i in range(3)]
    return TangentState(state.s, tuple(comps))


EULER_EXPONENTS = (-2.0, -1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def _euler_operator(rho: tuple) -> np.ndarray:
    """The matrix M of s A' = M A on (A_1, A_2, A_3) flattened, A_0 = 0.

    Around B_i = rho_i / s the linearized flow reads
    s A_i' = [A_j, rho_k] + [rho_j, A_k]; M is that right-hand side applied
    to the 3 k^2 unit matrices, one column each.
    """
    rho = tuple(np.asarray(r, dtype=complex) for r in rho)
    k = rho[0].shape[0]
    n = 3 * k * k
    units = np.eye(n, dtype=complex).reshape(n, 3, k, k)
    images = np.empty_like(units)
    for i, j, k_ in _CYCLIC:
        images[:, i] = _comm(units[:, j], rho[k_]) + _comm(rho[j], units[:, k_])
    return images.reshape(n, n).T


def euler_exponents(rho: tuple) -> np.ndarray:
    """Spectrum of the Euler operator M for residues rho, sorted.

    For an irreducible k = 2 triple with [rho_j, rho_k] = -rho_i it is
    EULER_EXPONENTS: the scalar directions give 0 three times, and the
    trace-free ones split as spin 0 + 1 + 2 into -2, -1 (x3) and 1 (x5).
    """
    return np.sort_complex(np.linalg.eigvals(_euler_operator(rho)))


def ivp_tangent(state: NahmState, scalars: np.ndarray,
                directions: tuple | None = None,
                seed: int = 0) -> TangentState:
    """Linearized solution from the left end of a one-pole state, in closed form.

    Initial data A_i(eps) = scalars_i * i * Id + eps * eta_i with anti-hermitian
    eta_i, which is the admissible near-pole shape (scalar plus a vanishing
    correction).  The gauge slice is A_0 = 0 and the state must be the exact
    one-pole background, around which the flow is the Euler system
    s A' = M A (see `euler_exponents`).  Its solution
    A(s) = V diag((s/eps)^lambda) V^-1 A(eps), with M = V diag(lambda) V^-1,
    is evaluated on every node and projected onto anti-hermitian matrices to
    absorb roundoff.  The tests keep an RK4 integration of the same system
    as an oracle.
    """
    res = state.residues
    if res is None:
        raise ValueError("state carries no residue data")
    if np.abs(state.B[0]).max() > 0:
        raise ValueError("IVP integration assumes the B_0 = 0 one-pole gauge")
    k = state.k
    if directions is None:
        rng = np.random.default_rng(seed)
        directions = []
        for _ in range(3):
            M = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            directions.append(0.5 * (M - M.conj().T))
        directions = tuple(directions)
    eps = state.eps
    start = np.concatenate([(1j * scalars[i] * np.eye(k) + eps * directions[i]).ravel()
                            for i in range(3)])
    lam, V = np.linalg.eig(_euler_operator(res.rho))
    modes = np.linalg.solve(V, start)
    # in place, so that at most two (nodes x 12) arrays are alive at once:
    # larger transients raise the process's peak RSS
    growth = np.outer(np.log(state.s / eps), lam)
    np.exp(growth, out=growth)
    growth *= modes
    # einsum keeps the (nodes x 12)(12 x 12) product off threaded BLAS
    A = np.einsum("nm,im->ni", growth, V)
    del growth
    A[0] = start   # the initial data, without the roundoff of V V^-1
    A = A.reshape(-1, 3, k, k)
    A -= np.conj(np.swapaxes(A, -1, -2))
    A *= 0.5
    zero = np.zeros_like(A[:, 0])
    return TangentState(state.s, (zero, A[:, 0], A[:, 1], A[:, 2]))


# ---------------------------------------------------------------------------
# symplectic pairing and the rotation identity
# ---------------------------------------------------------------------------

def symplectic_form(A: TangentState, B: TangentState) -> float:
    """Flat pairing: Simpson integral of the displayed four-trace combination."""
    if A.s.shape != B.s.shape or np.abs(A.s - B.s).max() > 1e-12:
        raise ValueError("tangents must share a grid")
    integrand = np.einsum("nab,nba->n", -A.A[0], B.A[1]) \
        + np.einsum("nab,nba->n", A.A[1], B.A[0]) \
        + np.einsum("nab,nba->n", A.A[2], B.A[3]) \
        - np.einsum("nab,nba->n", A.A[3], B.A[2])
    h = float(A.s[1] - A.s[0])
    return float(np.real(composite_simpson(integrand, h)))


def constant_psi(state: NahmState) -> np.ndarray:
    """psi identically -rho_1, the minimal admissible compensator path."""
    res = state.residues
    if res is None:
        raise ValueError("state carries no residue data")
    return np.broadcast_to(-res.rho[0], state.B[0].shape).copy()


def bumped_psi(state: NahmState, direction: np.ndarray,
               amplitude: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """psi = -rho_1 + bump(s) * eta with the endpoint values pinned at -rho_1."""
    eta = np.asarray(direction, dtype=complex)
    s = state.s
    t = (s - s[0]) / (s[-1] - s[0])
    bump = amplitude * np.sin(math.pi * t) ** 2
    bump_prime = amplitude * math.pi * np.sin(2.0 * math.pi * t) / (s[-1] - s[0])
    psi = constant_psi(state) + bump[:, None, None] * eta
    psi_prime = bump_prime[:, None, None] * eta
    return psi, psi_prime


def rotation_field(state: NahmState, psi: np.ndarray,
                   psi_prime: np.ndarray | None = None) -> TangentState:
    """X = (psi' + [B_0,psi], [B_1,psi], B_3 + [B_2,psi], -B_2 + [B_3,psi]).

    psi must equal -rho_1 at both grid ends so the residues stay fixed.
    """
    res = state.residues
    if res is None:
        raise ValueError("state carries no residue data")
    psi = np.asarray(psi, dtype=complex)
    for end in (0, -1):
        if np.abs(psi[end] + res.rho[0]).max() > 1e-10:
            raise ValueError("psi must equal -rho_1 at the grid ends")
    if psi_prime is None:
        psi_prime = grid_derivative(psi, state.h, 6)
    X0 = psi_prime + _comm(state.B[0], psi)
    X1 = _comm(state.B[1], psi)
    X2 = state.B[3] + _comm(state.B[2], psi)
    X3 = -state.B[2] + _comm(state.B[3], psi)
    return TangentState(state.s, (X0, X1, X2, X3))


@dataclass(frozen=True)
class ContractionReport:
    lhs: float
    rhs: float
    boundary: float
    boundary_left: float
    boundary_right: float
    rel_err: float
    scale: float
    eps: float
    h: float


def contraction_identity(state: NahmState, tangent: TangentState,
                         psi: np.ndarray,
                         psi_prime: np.ndarray | None = None) -> ContractionReport:
    """Verify omega(X, A) + rhs + boundary = 0 for the rotation field X.

    rhs is -integral of tr(A_2 B_2 + A_3 B_3); boundary is tr(A_1 psi)
    evaluated between the grid ends.  The relative error is measured against
    the natural magnitude of the ingredients, so exact cancellations of large
    terms are still meaningful checks.
    """
    X = rotation_field(state, psi, psi_prime)
    lhs = symplectic_form(X, tangent)
    integrand = np.einsum("nab,nba->n", tangent.A[2], state.B[2]) \
        + np.einsum("nab,nba->n", tangent.A[3], state.B[3])
    rhs = -float(np.real(composite_simpson(integrand, state.h)))
    tr_a1psi = np.real(np.einsum("nab,nba->n", tangent.A[1], np.asarray(psi, complex)))
    boundary_left = float(tr_a1psi[0])
    boundary_right = float(tr_a1psi[-1])
    boundary = boundary_right - boundary_left
    # the natural magnitude of both sides before cancellation
    lhs_integrand = sum(np.abs(np.einsum("nab,nba->n", X.A[a], tangent.A[b]))
                        for a, b in ((0, 1), (1, 0), (2, 3), (3, 2)))
    magnitude = float(np.abs(composite_simpson(np.abs(integrand), state.h))) \
        + float(np.abs(composite_simpson(lhs_integrand, state.h)))
    scale = max(abs(lhs), abs(rhs), abs(boundary), magnitude, 1e-30)
    rel_err = abs(lhs + rhs + boundary) / scale
    return ContractionReport(lhs, rhs, boundary, boundary_left, boundary_right,
                             rel_err, scale, state.eps, state.h)
