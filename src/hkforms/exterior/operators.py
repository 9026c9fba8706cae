"""Lefschetz triple, su(2) action and brute-force middle-kernel computations.

Conventions, fixed once and verified by the commutator suite:

* L_i is wedging with omega_i; Lambda_i is its metric adjoint.
* sigma_i is the derivation extension of the matrix I_i acting on coefficient
  vectors, i.e. the generator of the unit-quaternion action on forms.  This
  normalization satisfies [sigma_1, sigma_2] = 2 sigma_3 and the commutator
  identities [L_1, Lambda_2] = [Lambda_1, L_2] = -sigma_3 (plus cyclic)
  exactly.  On (p, q)-forms for the matching complex structure, sigma_i acts
  with eigenvalue i(q - p), so omega_2 + i omega_3 is of type (2, 0).
"""

from __future__ import annotations

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
            self._sigma[key] = derivation_matrix(self.structure.complex_structure(axis), degree)
        return self._sigma[key]

    # -- operator application -------------------------------------------------

    def lefschetz(self, axis: int, a: FormVector) -> FormVector:
        """omega_i ^ a, degree by degree."""
        out = FormVector.zero(self.dim)
        for p in a.degrees():
            if p + 2 > self.dim:
                continue
            v = self.L_matrix(axis, p) @ a.to_vector(p)
            out = out + FormVector.from_vector(self.dim, p + 2, v)
        return out

    def lefschetz_adjoint(self, axis: int, a: FormVector) -> FormVector:
        """Metric adjoint of lefschetz: <L_i a, b> = <a, Lambda_i b>."""
        out = FormVector.zero(self.dim)
        for p in a.degrees():
            if p - 2 < 0:
                continue
            v = self.Lambda_matrix(axis, p) @ a.to_vector(p)
            out = out + FormVector.from_vector(self.dim, p - 2, v)
        return out

    def su2_action(self, axis: int, a: FormVector) -> FormVector:
        out = FormVector.zero(self.dim)
        for p in a.degrees():
            v = self.sigma_matrix(axis, p) @ a.to_vector(p)
            out = out + FormVector.from_vector(self.dim, p, v)
        return out


# ---------------------------------------------------------------------------
# commutator residual suite
# ---------------------------------------------------------------------------

_CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def verify_so5(structure: QuaternionicStructure) -> dict:
    """Residuals of [L_a, Lambda_b] + sigma_c and [Lambda_a, L_b] + sigma_c.

    Returns per-identity, per-degree operator-norm residuals together with
    the residuals of the grading identity [L_i, Lambda_i] = (p - 2k) Id.
    """
    alg = LefschetzAlgebra(structure)
    n = structure.dim
    k = structure.k
    report: dict = {"per_identity": {}, "grading": {}, "max_residual": 0.0}
    for (a, b, c) in _CYCLIC:
        res1 = []
        res2 = []
        for p in range(2, n - 1):
            LaLb = alg.L_matrix(a, p - 2) @ alg.Lambda_matrix(b, p) \
                - alg.Lambda_matrix(b, p + 2) @ alg.L_matrix(a, p)
            LbLa = alg.Lambda_matrix(a, p + 2) @ alg.L_matrix(b, p) \
                - alg.L_matrix(b, p - 2) @ alg.Lambda_matrix(a, p)
            sig = alg.sigma_matrix(c, p)
            res1.append(float(np.linalg.norm(LaLb + sig, 2)))
            res2.append(float(np.linalg.norm(LbLa + sig, 2)))
        report["per_identity"][f"[L{a},Lam{b}]+sigma{c}"] = res1
        report["per_identity"][f"[Lam{a},L{b}]+sigma{c}"] = res2
        report["max_residual"] = max(report["max_residual"], max(res1), max(res2))
    for i in (1, 2, 3):
        res = []
        for p in range(2, n - 1):
            H = alg.L_matrix(i, p - 2) @ alg.Lambda_matrix(i, p) \
                - alg.Lambda_matrix(i, p + 2) @ alg.L_matrix(i, p)
            res.append(float(np.linalg.norm(H - (p - 2 * k) * np.eye(H.shape[0]), 2)))
        report["grading"][f"[L{i},Lam{i}]-(p-2k)"] = res
        report["max_residual"] = max(report["max_residual"], max(res))
    return report


# ---------------------------------------------------------------------------
# Lie closure
# ---------------------------------------------------------------------------

def _full_operator(alg: LefschetzAlgebra, matrices: dict, shift: int) -> np.ndarray:
    n = alg.dim
    sizes = [len(basis_indices(n, p)) for p in range(n + 1)]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    N = offsets[-1]
    out = np.zeros((N, N))
    for p, M in matrices.items():
        q = p + shift
        if 0 <= q <= n and M.size:
            out[offsets[q]:offsets[q] + M.shape[0], offsets[p]:offsets[p] + M.shape[1]] = M
    return out


def _row_space(A: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of A and an orthonormal basis of its numerical row space.

    The SVD runs only on the columns where some row is nonzero.  An all-zero
    column carries no singular value: deleting it leaves A A^T, hence the
    spectrum and the rank decision, unchanged, and the right singular vectors
    vanish on it.  The kept vectors are scattered back to full width.
    """
    support = np.flatnonzero(A.any(axis=0))
    _, s, vt = np.linalg.svd(A[:, support], full_matrices=False)
    keep = s > rtol * s[0]
    basis = np.zeros((int(keep.sum()), A.shape[1]))
    basis[:, support] = vt[keep]
    return s, basis


def lie_closure_dimension(structure: QuaternionicStructure, max_iter: int = 50,
                          rtol: float = 1e-8) -> int:
    """Dimension of the Lie algebra generated by {L_i, Lambda_i} under brackets.

    Works on the whole 2^dim-dimensional exterior algebra: operators are
    flattened and the span rank tracked through repeated bracketing with the
    generators until it stabilizes.  The operators touch only a few thousand
    of the 4^dim matrix entries, so each rank is taken by an SVD over their
    joint support (see `_row_space`); columns outside it are all zero and
    carry no singular value, so the rank is the one the full-width SVD gives.
    """
    alg = LefschetzAlgebra(structure)
    n = structure.dim
    gens = []
    for i in (1, 2, 3):
        gens.append(_full_operator(alg, {p: alg.L_matrix(i, p) for p in range(n - 1)}, +2))
        gens.append(_full_operator(alg, {p: alg.Lambda_matrix(i, p) for p in range(2, n + 1)}, -2))

    def basis_of(mats):
        _, rows = _row_space(np.array([m.ravel() for m in mats]), rtol)
        return list(rows.reshape(-1, *gens[0].shape)), len(rows)

    span, rank = basis_of(gens)
    for _ in range(max_iter):
        brackets = [m @ g - g @ m for m in span for g in gens]
        span, new_rank = basis_of(span + brackets)
        if new_rank == rank:
            return rank
        rank = new_rank
    raise RuntimeError(f"Lie closure did not stabilize within {max_iter} iterations")


# ---------------------------------------------------------------------------
# type decomposition and the middle kernel
# ---------------------------------------------------------------------------

def type_components(a: FormVector, axis: int,
                    structure: QuaternionicStructure,
                    tol: float = 1e-10) -> list[tuple[int, int, FormVector]]:
    """Decompose a pure-degree form into (p, q)-types for one complex structure.

    Components are sigma_axis eigenspace projections computed by Lagrange
    interpolation on the exact spectrum {i(q - p) : p + q = degree}.
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
        if comp.norm() <= tol * max(a.norm(), 1.0):
            continue
        residual = np.abs(sigma @ proj - lam * proj).max()
        if residual > tol * max(a.norm(), 1.0):
            raise ArithmeticError(f"eigenspace projection residual {residual:.3e}")
        m = int(lam.imag)
        p, q = (d - m) // 2, (d + m) // 2
        out.append((p, q, comp))
    return out


def middle_kernel(structure: QuaternionicStructure, rtol: float = 1e-10) -> list[FormVector]:
    """Orthonormal basis of the joint kernel of all L_i, Lambda_i in degree 2k.

    Computed as the nullspace of the six operators stacked into one matrix.
    For k = 1 this is the 3-dimensional space of anti-self-dual 2-forms; the
    elements are self-dual for k = 2.
    """
    alg = LefschetzAlgebra(structure)
    p = 2 * structure.k
    stacked = np.vstack([alg.L_matrix(i, p) for i in (1, 2, 3)]
                        + [alg.Lambda_matrix(i, p) for i in (1, 2, 3)])
    basis = nullspace(stacked, rtol)
    return [FormVector.from_vector(structure.dim, p, basis[:, j])
            for j in range(basis.shape[1])]


def middle_kernel_oracle_dimension(structure: QuaternionicStructure,
                                   rtol: float = 1e-10) -> int:
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
        inner_null = nullspace(restricted, rtol)
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
