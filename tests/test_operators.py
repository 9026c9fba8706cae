"""Lefschetz triple, su(2) action, commutator identities and middle kernels."""

import numpy as np
import pytest

from hkforms.exterior import (
    FormVector,
    LefschetzAlgebra,
    QuaternionicStructure,
    asd_two_form_basis,
    basis_indices,
    duality_sign,
    hodge_star,
    inner,
    kernel_subspace_distance,
    lie_closure_dimension,
    middle_kernel,
    middle_kernel_oracle_dimension,
    type_components,
    verify_so5,
)
from hkforms.numerics import subspace_distance

Q4 = QuaternionicStructure(4)
Q8 = QuaternionicStructure(8)
ALG4 = LefschetzAlgebra(Q4)
ALG8 = LefschetzAlgebra(Q8)


def random_form(rng, dim, degree):
    coeffs = {b: complex(rng.standard_normal(), rng.standard_normal())
              for b in basis_indices(dim, degree)}
    return FormVector(dim, coeffs)


def test_structure_invariants():
    for Q in (Q4, Q8):
        n = Q.dim
        eye = np.eye(n)
        assert np.abs(Q.I @ Q.I + eye).max() == 0
        assert np.abs(Q.I @ Q.J @ Q.K + eye).max() == 0
        for axis in (1, 2, 3):
            W = Q.omega_matrix(axis)
            assert np.abs(W + W.T).max() == 0


def test_omega_coefficients():
    assert Q4.omega(1).coeffs == {(0, 1): 1.0 + 0j, (2, 3): 1.0 + 0j}
    assert Q4.omega(2).coeffs == {(0, 2): 1.0 + 0j, (1, 3): -1.0 + 0j}
    assert Q4.omega(3).coeffs == {(0, 3): 1.0 + 0j, (1, 2): 1.0 + 0j}


def test_omegas_self_dual():
    for axis in (1, 2, 3):
        w = Q4.omega(axis)
        assert hodge_star(w).isclose(w, 1e-14)


def test_lefschetz_on_scalars():
    one = FormVector.scalar(4)
    assert ALG4.lefschetz(1, one).isclose(Q4.omega(1), 1e-15)


def test_lefschetz_operators_commute():
    rng = np.random.default_rng(11)
    a = random_form(rng, 4, 1)
    lhs = ALG4.lefschetz(1, ALG4.lefschetz(2, a))
    rhs = ALG4.lefschetz(2, ALG4.lefschetz(1, a))
    assert lhs.isclose(rhs, 1e-12)


def test_lefschetz_of_basis_one_form():
    # omega_1 ^ e0 = (e01 + e23) ^ e0 = e023: a single canonical coefficient
    out = ALG4.lefschetz(1, FormVector.basis(4, (0,)))
    assert out.coeffs == {(0, 2, 3): 1.0 + 0j}


def test_adjoint_on_omega():
    # Lambda_1 omega_1 = <omega_1, omega_1> = 2 on scalars
    out = ALG4.lefschetz_adjoint(1, Q4.omega(1))
    assert out.coeffs == {(): 2.0 + 0j}


def test_adjoint_kills_asd_forms():
    for eta in asd_two_form_basis(Q4):
        for axis in (1, 2, 3):
            assert ALG4.lefschetz_adjoint(axis, eta).norm() <= 1e-14


def test_adjointness_random_pairs():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(0, 3))
        a = random_form(rng, 4, p)
        b = random_form(rng, 4, p + 2)
        for axis in (1, 2, 3):
            lhs = inner(ALG4.lefschetz(axis, a), b)
            rhs = inner(a, ALG4.lefschetz_adjoint(axis, b))
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


def test_adjointness_with_scaled_metric():
    # g = c * Id keeps I, J, K metric-orthogonal but exercises the
    # Gram-weighted adjoint path instead of the plain transpose.
    Qs = QuaternionicStructure(4, metric=2.0 * np.eye(4))
    algs = LefschetzAlgebra(Qs)
    rng = np.random.default_rng(13)
    for p in (0, 1, 2):
        a = random_form(rng, 4, p)
        b = random_form(rng, 4, p + 2)
        lhs = inner(algs.lefschetz(1, a), b, metric=Qs.metric)
        rhs = inner(a, algs.lefschetz_adjoint(1, b), metric=Qs.metric)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_su2_bracket():
    rng = np.random.default_rng(14)
    a = random_form(rng, 4, 2) + random_form(rng, 4, 1)
    for (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        lhs = ALG4.su2_action(i, ALG4.su2_action(j, a)) \
            - ALG4.su2_action(j, ALG4.su2_action(i, a))
        assert lhs.isclose(2.0 * ALG4.su2_action(k, a), 1e-10)


def test_su2_eigenvalue_on_holomorphic_symplectic():
    # omega^c = omega_2 + i omega_3 is the (2,0)-form for I; the quaternion
    # action normalization gives sigma_1 eigenvalue i(q - p) = -2i on it.
    wc = Q4.holomorphic_symplectic()
    out = ALG4.su2_action(1, wc)
    assert out.isclose(-2.0j * wc, 1e-12)


def test_su2_annihilates_one_one_forms():
    assert ALG4.su2_action(1, Q4.omega(1)).norm() <= 1e-14


def test_type_components_holomorphic_symplectic():
    comps = type_components(Q4.holomorphic_symplectic(), 1, Q4)
    assert len(comps) == 1
    p, q, comp = comps[0]
    assert (p, q) == (2, 0)


def test_type_components_omega1_is_11():
    comps = type_components(Q4.omega(1), 1, Q4)
    assert [(p, q) for p, q, _ in comps] == [(1, 1)]


def test_sigma_spectrum_per_degree():
    # eigenvalues on degree-d forms are exactly {i(q-p) : p+q=d}, with the
    # multiplicity of the (p, q)-space equal to binom(2k,p) binom(2k,q)
    import math as m
    for Q, alg in ((Q4, ALG4), (Q8, ALG8)):
        n = Q.dim
        for d in (1, 2, 2 * Q.k):
            eigs = np.linalg.eigvals(alg.sigma_matrix(1, d))
            expected = []
            for p in range(d + 1):
                q = d - p
                if p <= n // 2 and q <= n // 2:
                    expected += [1j * (q - p)] * (m.comb(n // 2, p) * m.comb(n // 2, q))
            assert len(eigs) == len(expected)
            assert np.abs(eigs.real).max() <= 1e-8
            assert np.abs(np.sort(eigs.imag)
                          - np.sort(np.array(expected).imag)).max() <= 1e-8


def test_type_components_complete():
    rng = np.random.default_rng(15)
    a = random_form(rng, 4, 2)
    comps = type_components(a, 1, Q4)
    assert {(p, q) for p, q, _ in comps} <= {(2, 0), (1, 1), (0, 2)}
    total = FormVector.zero(4)
    for _, _, c in comps:
        total = total + c
    assert total.isclose(a, 1e-12)


@pytest.mark.parametrize("Q", [Q4, Q8], ids=["k1", "k2"])
def test_so5_relations(Q):
    report = verify_so5(Q)
    assert report["max_residual"] <= 1e-12


def test_grading_operator_value():
    # [L_i, Lambda_i] = (p - 2k) Id appears inside the so5 report
    report = verify_so5(Q4)
    for vals in report["grading"].values():
        assert max(vals) <= 1e-12


def k1_generators(alg):
    """L_i and Lambda_i of a k = 1 structure as 16 x 16 operators on all degrees."""
    from hkforms.exterior.operators import _full_operator
    mats = []
    for i in (1, 2, 3):
        mats.append(_full_operator(alg, {p: alg.L_matrix(i, p) for p in range(3)}, +2))
        mats.append(_full_operator(alg, {p: alg.Lambda_matrix(i, p) for p in range(2, 5)}, -2))
    return mats


def test_generators_alone_span_six():
    A = np.array([m.ravel() for m in k1_generators(ALG4)])
    assert np.linalg.matrix_rank(A, tol=1e-10) == 6


def test_lie_closure_dimension_k1():
    assert lie_closure_dimension(Q4) == 10


def test_lie_closure_dimension_matches_k2():
    # so(5) at both k, not merely equal ranks: one wrong rank at both would pass
    assert [lie_closure_dimension(Q) for Q in (Q4, Q8)] == [10, 10]


def test_lie_closure_dimension_k2_scaled_metric():
    # g = 2 Id takes Lambda through the Gram-weighted solve, not the transpose
    assert lie_closure_dimension(QuaternionicStructure(8, metric=2.0 * np.eye(8))) == 10


def random_frame_structure(seed):
    """Q4 pulled back by a random constant frame P with det P > 0: a non-flat metric."""
    rng = np.random.default_rng(seed)
    P = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    if np.linalg.det(P) < 0:
        P[:, 0] *= -1.0
    Pinv = np.linalg.inv(P)
    return QuaternionicStructure(4, metric=P.T @ Q4.metric @ P, I=Pinv @ Q4.I @ P,
                                 J=Pinv @ Q4.J @ P, K=Pinv @ Q4.K @ P)


def test_lie_closure_dimension_k1_random_frame():
    Q = random_frame_structure(21)
    assert np.abs(Q.metric - np.eye(4)).max() > 0.1
    assert lie_closure_dimension(Q) == 10


def test_lie_closure_support_svd_matches_dense_svd():
    # oracle: the full-width SVD over all 4^dim entries, which the closure avoids
    from hkforms.exterior.operators import _row_space
    for Q in (Q4, random_frame_structure(21)):
        gens = k1_generators(LefschetzAlgebra(Q))
        brackets = [m @ g - g @ m for m in gens for g in gens]
        for mats in (gens, gens + brackets):
            A = np.array([m.ravel() for m in mats])
            assert A.any(axis=0).sum() < A.shape[1]
            s, basis = _row_space(A, 1e-8)
            _, s_dense, vt_dense = np.linalg.svd(A, full_matrices=False)
            assert np.abs(s - s_dense).max() <= 1e-12 * s_dense[0]
            kept = vt_dense[s_dense > 1e-8 * s_dense[0]]
            assert len(basis) == len(kept)
            assert subspace_distance(basis.T, kept.T) <= 1e-10


def test_middle_kernel_k1():
    kernel = middle_kernel(Q4)
    assert len(kernel) == 3
    assert duality_sign(kernel, Q4) == -1
    assert kernel_subspace_distance(kernel, asd_two_form_basis(Q4)) <= 1e-10


def test_middle_kernel_k1_primitive_type_11():
    for eta in middle_kernel(Q4):
        for axis in (1, 2, 3):
            assert ALG4.su2_action(axis, eta).norm() <= 1e-12
            assert ALG4.lefschetz_adjoint(axis, eta).norm() <= 1e-12
            comps = type_components(eta, axis, Q4)
            assert [(p, q) for p, q, _ in comps] == [(1, 1)]


def test_middle_kernel_k2():
    kernel = middle_kernel(Q8)
    assert len(kernel) == middle_kernel_oracle_dimension(Q8)
    assert duality_sign(kernel, Q8) == +1
    for eta in kernel:
        for axis in (1, 2, 3):
            assert ALG8.su2_action(axis, eta).norm() <= 1e-10
            comps = type_components(eta, axis, Q8)
            assert [(p, q) for p, q, _ in comps] == [(2, 2)]


def test_middle_kernel_oracle_k1():
    assert middle_kernel_oracle_dimension(Q4) == 3


def test_operator_matrix_wrapper():
    from hkforms.exterior import OperatorMatrix
    op = ALG4.operator("L", 1, 0)
    assert (op.source_degree, op.target_degree) == (0, 2)
    assert op(FormVector.scalar(4)).isclose(Q4.omega(1), 1e-14)
    sig = ALG4.operator("sigma", 1, 2)
    assert sig(Q4.omega(1)).norm() <= 1e-14
    with pytest.raises(ValueError):
        ALG4.operator("H", 1, 0)
    with pytest.raises(ValueError):
        OperatorMatrix(4, 0, 2, np.zeros((3, 1)))


def test_operator_csv_export(tmp_path):
    from hkforms.exterior import export_operator_csv
    path = tmp_path / "L1_deg0.csv"
    export_operator_csv(ALG4.L_matrix(1, 0), str(path))
    loaded = np.loadtxt(path, delimiter=",").reshape(6, 1)
    assert np.abs(loaded - ALG4.L_matrix(1, 0)).max() == 0.0
