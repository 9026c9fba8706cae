"""Lefschetz triple, su(2) action and brute-force middle-kernel computations.

Conventions, fixed once and verified by the commutator suite:

* L_i is wedging with omega_i; Lambda_i is its metric adjoint.
* sigma_i is the derivation extension of -I_i^T, the action on 1-forms dual
  to I_i on vectors (-I_i^T = I_i in an orthonormal frame), i.e. the generator
  of the unit-quaternion action on forms.  This normalization satisfies
  [sigma_1, sigma_2] = 2 sigma_3 and the commutator identities
  [L_1, Lambda_2] = [Lambda_1, L_2] = -sigma_3 (plus cyclic) exactly.  On
  (p, q)-forms for the matching complex structure, sigma_i acts with
  eigenvalue i(q - p), so omega_2 + i omega_3 is of type (2, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import nullspace, subspace_distance
from .forms import FormVector, basis_indices, form_gram, hodge_star, merge_sign
from .quaternionic import QuaternionicStructure


def wedge_operator_matrix(two_form: FormVector, degree: int) -> np.ndarray:
    """Matrix of (two_form ^ .) from degree p to p + 2."""
    n = two_form.dim
    src = basis_indices(n, degree)
    tgt = basis_indices(n, degree + 2)
    tgt_idx = {t: r for r, t in enumerate(tgt)}
    M = np.zeros((len(tgt), len(src)))
    for col, B in enumerate(src):
        for key, c in two_form.coeffs.items():
            s, merged = merge_sign(key, B)
            if s != 0:
                M[tgt_idx[merged], col] += s * c.real
    return M


def derivation_matrix(A: np.ndarray, degree: int) -> np.ndarray:
    """Derivation extension to Lambda^degree of a matrix acting on coefficients."""
    n = A.shape[0]
    src = basis_indices(n, degree)
    idx = {t: r for r, t in enumerate(src)}
    M = np.zeros((len(src), len(src)))
    for col, B in enumerate(src):
        for pos, b in enumerate(B):
            rest = B[:pos] + B[pos + 1:]
            for m in range(n):
                if A[m, b] == 0.0:
                    continue
                s, merged = merge_sign((m,), rest)
                if s != 0:
                    # the new factor sits at slot pos; hopping to the front costs (-1)^pos
                    M[idx[merged], col] += s * (-1) ** pos * A[m, b]
    return M


class LefschetzAlgebra:
    """Degree-indexed matrices of L_i, Lambda_i, sigma_i for one structure.

    Matrices are built lazily and cached; k <= 2 keeps everything dense and
    exact in double precision (integer entries for the default structures).
    """

    def __init__(self, structure: QuaternionicStructure):
        self.structure = structure
        self.dim = structure.dim
        self._L: dict = {}
        self._Lam: dict = {}
        self._sigma: dict = {}
        self._grams: dict = {}
        self._flat_metric = np.abs(structure.metric - np.eye(self.dim)).max() < 1e-15

    # -- matrix access -------------------------------------------------------

    def L_matrix(self, axis: int, degree: int) -> np.ndarray:
        key = (axis, degree)
        if key not in self._L:
            self._L[key] = wedge_operator_matrix(self.structure.omega(axis), degree)
        return self._L[key]

    def gram(self, degree: int) -> np.ndarray:
        if degree not in self._grams:
            self._grams[degree] = form_gram(self.structure.metric, degree)
        return self._grams[degree]

    def Lambda_matrix(self, axis: int, degree: int) -> np.ndarray:
        """Adjoint of L_i as a map from degree to degree - 2."""
        key = (axis, degree)
        if key not in self._Lam:
            L = self.L_matrix(axis, degree - 2)
            if self._flat_metric:
                self._Lam[key] = L.T
            else:
                Gp = self.gram(degree)
                Gq = self.gram(degree - 2)
                self._Lam[key] = np.linalg.solve(Gq, L.T @ Gp)
        return self._Lam[key]

    def sigma_matrix(self, axis: int, degree: int) -> np.ndarray:
        key = (axis, degree)
        if key not in self._sigma:
            I = self.structure.complex_structure(axis)
            self._sigma[key] = derivation_matrix(-I.T, degree)
        return self._sigma[key]

    # -- operator application -------------------------------------------------

    def _apply(self, matrix, axis: int, shift: int, a: FormVector) -> FormVector:
        """Apply the degree-block operator matrix(axis, p), of degree shift, to a."""
        out = FormVector.zero(self.dim)
        for p in a.degrees():
            if 0 <= p + shift <= self.dim:
                v = matrix(axis, p) @ a.to_vector(p)
                out = out + FormVector.from_vector(self.dim, p + shift, v)
        return out

    def lefschetz(self, axis: int, a: FormVector) -> FormVector:
        """omega_i ^ a, degree by degree."""
        return self._apply(self.L_matrix, axis, +2, a)

    def lefschetz_adjoint(self, axis: int, a: FormVector) -> FormVector:
        """Metric adjoint of lefschetz: <L_i a, b> = <a, Lambda_i b>."""
        return self._apply(self.Lambda_matrix, axis, -2, a)

    def su2_action(self, axis: int, a: FormVector) -> FormVector:
        return self._apply(self.sigma_matrix, axis, 0, a)


# ---------------------------------------------------------------------------
# brackets on degree blocks: commutator residuals and the Lie closure
# ---------------------------------------------------------------------------

_CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
_CLOSURE_RTOL = 1e-8


def _bracket(X: tuple, Y: tuple) -> tuple:
    """[X, Y] of operators given as (shift, {source degree: block}).

    The block at degree p is X[p + sy] @ Y[p] - Y[p + sx] @ X[p]; a product
    whose blocks are absent is zero, so no full-width matrix is formed.
    """
    (sx, xb), (sy, yb) = X, Y
    xy = {p: xb[p + sy] @ yb[p] for p in yb if p + sy in xb}
    yx = {p: yb[p + sx] @ xb[p] for p in xb if p + sx in yb}
    return sx + sy, {p: xy.get(p, 0.0) - yx.get(p, 0.0) for p in xy.keys() | yx.keys()}


def _generators(alg: LefschetzAlgebra) -> tuple[list, list]:
    """L_i and Lambda_i (axes 1, 2, 3) as degree-block operators."""
    n = alg.dim
    L = [(+2, {p: alg.L_matrix(i, p) for p in range(n - 1)}) for i in (1, 2, 3)]
    Lam = [(-2, {p: alg.Lambda_matrix(i, p) for p in range(2, n + 1)}) for i in (1, 2, 3)]
    return L, Lam


def verify_so5(structure: QuaternionicStructure) -> dict:
    """Residuals of [L_a, Lambda_b] + sigma_c and [Lambda_a, L_b] + sigma_c.

    Returns per-identity, per-degree operator-norm residuals, for degrees
    2 .. dim - 2, together with the residuals of the grading identity
    [L_i, Lambda_i] = (p - 2k) Id.  "so5" names the complexification of the
    real algebra so(4,1) that these operators generate.
    """
    alg = LefschetzAlgebra(structure)
    n = structure.dim
    L, Lam = _generators(alg)
    degrees = range(2, n - 1)

    def residuals(X, Y, targets):
        blocks = _bracket(X, Y)[1]
        return [float(np.linalg.norm(blocks[p] - t, 2)) for p, t in zip(degrees, targets)]

    report: dict = {"per_identity": {}, "grading": {}}
    identities = report["per_identity"]
    for (a, b, c) in _CYCLIC:
        minus_sigma = [-alg.sigma_matrix(c, p) for p in degrees]
        identities[f"[L{a},Lam{b}]+sigma{c}"] = residuals(L[a - 1], Lam[b - 1], minus_sigma)
        identities[f"[Lam{a},L{b}]+sigma{c}"] = residuals(Lam[a - 1], L[b - 1], minus_sigma)
    grading = [(p - 2 * structure.k) * np.eye(len(basis_indices(n, p))) for p in degrees]
    for i in (1, 2, 3):
        report["grading"][f"[L{i},Lam{i}]-(p-2k)"] = residuals(L[i - 1], Lam[i - 1], grading)
    report["max_residual"] = max(max(r) for part in report.values() for r in part.values())
    return report


@dataclass(frozen=True)
class LieClosure:
    """Rank, bracket closure and Killing signature of the generated algebra."""

    dimension: int
    closure_residual: float
    smallest_singular_value: float
    killing_signature: tuple[int, int]


def _flat(blocks: dict) -> np.ndarray:
    return np.concatenate([blocks[p].ravel() for p in sorted(blocks)])


def lie_closure_dimension(structure: QuaternionicStructure) -> LieClosure:
    """The Lie algebra generated by {L_i, Lambda_i}, by its structure constants.

    L_i, Lambda_i, sigma_c = -[L_a, Lambda_b] (cyclic) and H = [L_1, Lambda_1]
    lie in it.  If their span has rank 10 and holds all 100 brackets among
    them (those of shift +-4 vanish), the algebra is that span: no iteration.
    Ranks and least-squares coefficients are taken per degree shift.  so(4,1)
    has Killing form tr(ad_i ad_j) of signature (4 positive, 6 negative).
    """
    L, Lam = _generators(LefschetzAlgebra(structure))
    ops = L + Lam + [_bracket(Lam[b - 1], L[a - 1]) for a, b, _ in _CYCLIC] \
        + [_bracket(L[0], Lam[0])]
    groups = {s: [i for i, op in enumerate(ops) if op[0] == s] for s in (-2, 0, 2)}
    bases = {s: np.column_stack([_flat(ops[i][1]) for i in m]) for s, m in groups.items()}
    singular = [np.linalg.svd(B, compute_uv=False) for B in bases.values()]
    pinvs = {s: np.linalg.pinv(B, _CLOSURE_RTOL) for s, B in bases.items()}
    constants = np.zeros((len(ops),) * 3)
    residual = 0.0
    for i, X in enumerate(ops):
        for j, Y in enumerate(ops):
            shift, blocks = _bracket(X, Y)
            v = miss = _flat(blocks)
            if shift in bases:
                constants[i, j, groups[shift]] = pinvs[shift] @ v
                miss = v - bases[shift] @ constants[i, j, groups[shift]]
            residual = max(residual, np.linalg.norm(miss) / max(np.linalg.norm(v), 1.0))
    eigs = np.linalg.eigvalsh(np.einsum("ijk,lkj->il", constants, constants))
    cut = _CLOSURE_RTOL * np.abs(eigs).max()
    return LieClosure(sum(int((sv > _CLOSURE_RTOL * sv[0]).sum()) for sv in singular),
                      float(residual), float(min(sv[-1] for sv in singular)),
                      (int((eigs > cut).sum()), int((eigs < -cut).sum())))


# ---------------------------------------------------------------------------
# type decomposition and the middle kernel
# ---------------------------------------------------------------------------

def type_components(a: FormVector, axis: int,
                    structure: QuaternionicStructure) -> list[tuple[int, int, FormVector]]:
    """Decompose a pure-degree form into (p, q)-types for one complex structure.

    Components are sigma_axis eigenspace projections computed by Lagrange
    interpolation on the exact spectrum {i(q - p) : p + q = degree}.  A
    component is dropped, and an eigen-residual refused, at 1e-10 relative.
    """
    alg = LefschetzAlgebra(structure)
    d = a.degree()
    sigma = alg.sigma_matrix(axis, d)
    v = a.to_vector(d)
    eigs = [1j * m for m in range(-d, d + 1, 2)]
    out = []
    for lam in eigs:
        proj = v.astype(complex)
        for mu in eigs:
            if mu == lam:
                continue
            proj = (sigma @ proj - mu * proj) / (lam - mu)
        comp = FormVector.from_vector(a.dim, d, proj)
        if comp.norm() <= 1e-10 * max(a.norm(), 1.0):
            continue
        residual = np.abs(sigma @ proj - lam * proj).max()
        if residual > 1e-10 * max(a.norm(), 1.0):
            raise ArithmeticError(f"eigenspace projection residual {residual:.3e}")
        m = int(lam.imag)
        p, q = (d - m) // 2, (d + m) // 2
        out.append((p, q, comp))
    return out


def middle_kernel(structure: QuaternionicStructure) -> list[FormVector]:
    """Orthonormal basis of the joint kernel of all L_i, Lambda_i in degree 2k.

    Computed as the nullspace of the six operators stacked into one matrix.
    For k = 1 this is the 3-dimensional space of anti-self-dual 2-forms; the
    elements are self-dual for k = 2.
    """
    alg = LefschetzAlgebra(structure)
    p = 2 * structure.k
    stacked = np.vstack([alg.L_matrix(i, p) for i in (1, 2, 3)]
                        + [alg.Lambda_matrix(i, p) for i in (1, 2, 3)])
    basis = nullspace(stacked)
    return [FormVector.from_vector(structure.dim, p, basis[:, j])
            for j in range(basis.shape[1])]


def middle_kernel_oracle_dimension(structure: QuaternionicStructure) -> int:
    """Independent route to the middle-kernel dimension.

    Intersects the six kernels one at a time by projector composition instead
    of stacking, so rank decisions are made on different matrices than the
    ones middle_kernel uses.
    """
    alg = LefschetzAlgebra(structure)
    p = 2 * structure.k
    size = len(basis_indices(structure.dim, p))
    basis = np.eye(size)
    for op in [alg.L_matrix(i, p) for i in (1, 2, 3)] \
            + [alg.Lambda_matrix(i, p) for i in (1, 2, 3)]:
        restricted = op @ basis
        inner_null = nullspace(restricted)
        if inner_null.shape[1] == 0:
            return 0
        basis = basis @ inner_null
    return basis.shape[1]


def asd_two_form_basis(structure: QuaternionicStructure) -> list[FormVector]:
    """Anti-self-dual 2-forms of R^4 (the k = 1 cross-check target)."""
    if structure.dim != 4:
        raise ValueError("anti-self-dual basis is a 4-dimensional construction")
    out = []
    for key, partner, sign in (((0, 1), (2, 3), -1), ((0, 2), (1, 3), +1), ((0, 3), (1, 2), -1)):
        form = FormVector(4, {key: 1.0, partner: sign})
        out.append(form * (1.0 / form.norm()))
    return out


def duality_sign(forms: list[FormVector], structure: QuaternionicStructure) -> int:
    """+1 if every form is self-dual, -1 if anti-self-dual; raises otherwise."""
    signs = set()
    for f in forms:
        s = hodge_star(f, orientation=structure.orientation)
        if (s - f).norm() <= 1e-10 * f.norm():
            signs.add(+1)
        elif (s + f).norm() <= 1e-10 * f.norm():
            signs.add(-1)
        else:
            raise ArithmeticError("form is neither self-dual nor anti-self-dual")
    if len(signs) != 1:
        raise ArithmeticError("mixed duality signs in basis")
    return signs.pop()


def kernel_subspace_distance(kernel: list[FormVector], reference: list[FormVector]) -> float:
    """Projector distance between two spans of same-degree forms."""
    degree = kernel[0].degree()
    A = np.column_stack([f.to_vector(degree) for f in kernel])
    B = np.column_stack([f.to_vector(degree) for f in reference])
    return subspace_distance(A, B)
