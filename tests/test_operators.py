"""Lefschetz triple, su(2) action, commutator identities and middle kernels."""

import gc
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from hkforms.exterior import operators
from hkforms.exterior.forms import merge_sign
from hkforms.exterior.operators import derivation_matrix
from hkforms.numerics import CYCLIC_AXES, nullspace, subspace_distance

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
        assert (hodge_star(w) - w).norm() <= 1e-14


def test_lefschetz_on_scalars():
    one = FormVector(4, {(): 1.0})
    assert (ALG4.lefschetz(1, one) - Q4.omega(1)).norm() <= 1e-15


def test_lefschetz_operators_commute():
    rng = np.random.default_rng(11)
    a = random_form(rng, 4, 1)
    lhs = ALG4.lefschetz(1, ALG4.lefschetz(2, a))
    rhs = ALG4.lefschetz(2, ALG4.lefschetz(1, a))
    assert (lhs - rhs).norm() <= 1e-12


def test_lefschetz_of_basis_one_form():
    # omega_1 ^ e0 = (e01 + e23) ^ e0 = e023: a single canonical coefficient
    out = ALG4.lefschetz(1, FormVector(4, {(0,): 1.0}))
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


def derivation_matrix_oracle(A, degree):
    """Reference loop: reads every A[m, b] as a numpy scalar and skips zeros."""
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
                    M[idx[merged], col] += s * (-1) ** pos * A[m, b]
    return M


@pytest.mark.parametrize("dim", [4, 8])
def test_derivation_matrix_matches_dense_loop(dim):
    # same accumulation order, so equal bits: sparse random matrices with
    # signed zeros, and the -I^T the sigma blocks are built from
    rng = np.random.default_rng(40 + dim)
    Q = Q4 if dim == 4 else Q8
    matrices = [-Q.complex_structure(axis).T for axis in (1, 2, 3)]
    for _ in range(4):
        A = rng.standard_normal((dim, dim)) * (rng.random((dim, dim)) < 0.4)
        matrices.append(np.where(rng.random((dim, dim)) < 0.2, -0.0, A))
    for A in matrices:
        for degree in range(dim + 1):
            got, expected = derivation_matrix(A, degree), derivation_matrix_oracle(A, degree)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), degree


def test_su2_bracket():
    rng = np.random.default_rng(14)
    a = random_form(rng, 4, 2) + random_form(rng, 4, 1)
    for (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        lhs = ALG4.su2_action(i, ALG4.su2_action(j, a)) \
            - ALG4.su2_action(j, ALG4.su2_action(i, a))
        assert (lhs - 2.0 * ALG4.su2_action(k, a)).norm() <= 1e-10


def test_su2_eigenvalue_on_holomorphic_symplectic():
    # omega^c = omega_2 + i omega_3 is the (2,0)-form for I; the quaternion
    # action normalization gives sigma_1 eigenvalue i(q - p) = -2i on it.
    wc = Q4.omega(2) + 1j * Q4.omega(3)
    out = ALG4.su2_action(1, wc)
    assert (out + 2.0j * wc).norm() <= 1e-12


def test_su2_annihilates_one_one_forms():
    assert ALG4.su2_action(1, Q4.omega(1)).norm() <= 1e-14


def test_type_components_holomorphic_symplectic():
    comps = type_components(Q4.omega(2) + 1j * Q4.omega(3), 1, Q4)
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
    assert (total - a).norm() <= 1e-12


def random_frame_structure(seed):
    """Q4 pulled back by a random constant frame P with det P > 0: a non-flat metric."""
    rng = np.random.default_rng(seed)
    P = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    if np.linalg.det(P) < 0:
        P[:, 0] *= -1.0
    Pinv = np.linalg.inv(P)
    return QuaternionicStructure(4, metric=P.T @ Q4.metric @ P, I=Pinv @ Q4.I @ P,
                                 J=Pinv @ Q4.J @ P, K=Pinv @ Q4.K @ P)


@dataclass(frozen=True)
class FaultyOmega2(QuaternionicStructure):
    """A valid structure whose omega_2 (hence L_2 and Lambda_2) is replaced by fault(omega_2)."""

    fault: Callable = None

    def omega(self, axis):
        w = super().omega(axis)
        return self.fault(w) if axis == 2 else w


def bent(dim):
    return FaultyOmega2(dim, fault=lambda w: w + FormVector(dim, {(0, 1): 1.0}) * 0.1)


def flipped(dim):
    return FaultyOmega2(dim, fault=lambda w: -w)


@pytest.mark.parametrize("Q", [Q4, Q8, random_frame_structure(21)],
                         ids=["k1", "k2", "k1-random-frame"])
def test_so5_relations(Q):
    report = verify_so5(Q)
    assert report["max_residual"] <= 1e-12


def test_grading_operator_value():
    # [L_i, Lambda_i] = (p - 2k) Id appears inside the so5 report
    report = verify_so5(Q4)
    for vals in report["grading"].values():
        assert max(vals) <= 1e-12


def dense_generators(alg):
    """L_i and Lambda_i of a k = 1 structure as 16 x 16 operators on all degrees."""
    offsets = np.cumsum([0] + [len(basis_indices(4, p)) for p in range(5)])

    def full(blocks, shift):
        M = np.zeros((16, 16))
        for p, B in blocks.items():
            M[offsets[p + shift]:offsets[p + shift + 1], offsets[p]:offsets[p + 1]] = B
        return M

    return [full({p: alg.L_matrix(i, p) for p in range(3)}, +2) for i in (1, 2, 3)] \
        + [full({p: alg.Lambda_matrix(i, p) for p in range(2, 5)}, -2) for i in (1, 2, 3)]


def dense_closure_dimension(Q):
    """Oracle: bracket the span with the generators until its rank stops growing.

    The rank rises at each step it does not stop and is at most 256, so this ends.
    """
    gens = dense_generators(LefschetzAlgebra(Q))
    span = gens
    while True:
        A = np.array([m.ravel() for m in span + [x @ g - g @ x for x in span for g in gens]])
        _, s, vt = np.linalg.svd(A, full_matrices=False)
        rank = int((s > 1e-8 * s[0]).sum())
        if rank == len(span):
            return rank
        span = list(vt[:rank].reshape(rank, 16, 16))


def assert_so41(closure, bound=1e-12):
    assert closure.dimension == 10
    assert closure.closure_residual <= bound
    assert closure.killing_signature == (4, 6)


def test_generators_alone_span_six():
    A = np.array([m.ravel() for m in dense_generators(ALG4)])
    assert np.linalg.matrix_rank(A, tol=1e-10) == 6


def test_lie_closure_dimension_k1():
    closure = lie_closure_dimension(Q4)
    assert_so41(closure)
    assert closure.smallest_singular_value > 1.0


def test_lie_closure_dimension_matches_k2():
    # so(4,1) at both k, not merely equal ranks: one wrong rank at both would pass
    for Q in (Q4, Q8):
        assert_so41(lie_closure_dimension(Q))


def test_lie_closure_dimension_k2_scaled_metric():
    # g = 2 Id takes Lambda through the Gram-weighted solve, not the transpose
    assert_so41(lie_closure_dimension(QuaternionicStructure(8, metric=2.0 * np.eye(8))))


def test_lie_closure_dimension_k1_random_frame():
    Q = random_frame_structure(21)
    assert np.abs(Q.metric - np.eye(4)).max() > 0.1
    assert_so41(lie_closure_dimension(Q))


def test_lie_closure_matches_dense_oracle():
    for Q in (Q4, random_frame_structure(21)):
        assert dense_closure_dimension(Q) == lie_closure_dimension(Q).dimension == 10
    # a bent omega_2 generates a larger algebra; the ten operators then fail to close
    assert dense_closure_dimension(bent(4)) == 15
    assert lie_closure_dimension(bent(4)).closure_residual > 1e-2


def all_ordered_brackets(structure):
    """Oracle: the structure constants and closure residual from all 100 ordered
    brackets of the ten operators, each fitted on its own."""
    L, Lam = operators._generators(structure.algebra)
    ops = L + Lam + [operators._bracket(Lam[b - 1], L[a - 1]) for a, b, _ in CYCLIC_AXES] \
        + [operators._bracket(L[0], Lam[0])]
    groups = {s: [i for i, op in enumerate(ops) if op[0] == s] for s in (-2, 0, 2)}
    bases = {s: np.column_stack([operators._flat(ops[i][1]) for i in m])
             for s, m in groups.items()}
    pinvs = {s: np.linalg.pinv(B, operators._CLOSURE_RTOL) for s, B in bases.items()}
    constants = np.zeros((len(ops),) * 3)
    residual = 0.0
    for i, X in enumerate(ops):
        for j, Y in enumerate(ops):
            shift, blocks = operators._bracket(X, Y)
            v = miss = operators._flat(blocks)
            if shift in bases:
                constants[i, j, groups[shift]] = pinvs[shift] @ v
                miss = v - bases[shift] @ constants[i, j, groups[shift]]
            residual = max(residual, operators._norm(miss) / max(operators._norm(v), 1.0))
    return constants, residual


@pytest.mark.parametrize("Q", [Q4, Q8, bent(4)], ids=["k1", "k2", "k1-bent"])
def test_one_bracket_per_pair_matches_all_ordered_brackets(Q):
    constants, residual, _ = operators._structure_constants(Q)
    oracle_constants, oracle_residual = all_ordered_brackets(Q)
    assert np.array_equal(constants, oracle_constants)
    assert residual == oracle_residual


@pytest.mark.parametrize("dim", [4, 8], ids=["k1", "k2"])
def test_faulty_omega2_is_seen(dim):
    # bending omega_2 breaks the closure; flipping its sign keeps the generated
    # algebra (the same span) and is seen only by the commutator identities
    assert lie_closure_dimension(bent(dim)).closure_residual > 1e-2
    assert verify_so5(flipped(dim))["max_residual"] == pytest.approx(dim, rel=1e-12)
    assert_so41(lie_closure_dimension(flipped(dim)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_frames_generate_so41(seed):
    Q = random_frame_structure(seed)
    bound = 1e-13 * np.linalg.cond(Q.metric) ** 2
    assert verify_so5(Q)["max_residual"] <= bound
    assert_so41(lie_closure_dimension(Q), bound)


def test_middle_kernel_k1():
    kernel = middle_kernel(Q4)
    assert len(kernel) == 3
    assert duality_sign(kernel, Q4) == -1
    assert kernel_subspace_distance(kernel, asd_two_form_basis(Q4)) <= 1e-10


def test_duality_sign_stars_with_the_structure_metric():
    # Q4 pulled back by a random frame: its kernel is anti-self-dual for the
    # pulled-back metric, not for the flat one
    Q = random_frame_structure(0)
    kernel = middle_kernel(Q)
    assert len(kernel) == 3
    assert max((hodge_star(f, Q.metric) + f).norm() for f in kernel) <= 1e-12
    assert min((hodge_star(f) + f).norm() for f in kernel) > 1e-3
    assert duality_sign(kernel, Q) == -1


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


def stacked_middle_kernel(Q):
    """The stacked route: one SVD of the six operators stacked (168 x 70 at k = 2)."""
    alg = Q.algebra
    p = 2 * Q.k
    return nullspace(np.vstack([alg.L_matrix(i, p) for i in (1, 2, 3)]
                               + [alg.Lambda_matrix(i, p) for i in (1, 2, 3)]))


@pytest.mark.parametrize("Q", [Q4, Q8, QuaternionicStructure(8, metric=2.0 * np.eye(8)),
                               random_frame_structure(21), random_frame_structure(22)],
                         ids=["k1", "k2", "k2-scaled-metric", "k1-random-frame-21",
                              "k1-random-frame-22"])
def test_middle_kernel_matches_the_stacked_svd(Q):
    p = 2 * Q.k
    kernel = np.column_stack([eta.to_vector(p) for eta in middle_kernel(Q)])
    expected = stacked_middle_kernel(Q)
    assert kernel.shape == expected.shape == (expected.shape[0], 3 if Q.k == 1 else 14)
    assert np.abs(kernel.conj().T @ kernel - np.eye(kernel.shape[1])).max() <= 1e-12
    assert subspace_distance(kernel, expected) <= 1e-12
    assert middle_kernel_oracle_dimension(Q) == kernel.shape[1]


@pytest.mark.parametrize("Q, dim", [(Q4, 3), (Q8, 14)], ids=["k1", "k2"])
def test_middle_kernel_gram_margin(Q, dim):
    spectrum = operators._middle_gram_spectrum(Q)
    kept, dropped = spectrum[:-dim], spectrum[-dim:]
    assert kept.min() >= 3.9
    assert dropped.max() <= 1e-13


EPS = np.finfo(float).eps


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from((4, 8)), st.data())
def test_real_matvec_matches_the_complex_product(dim, data):
    Q = Q4 if dim == 4 else Q8
    degree = data.draw(st.integers(0, dim))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    v = random_form(rng, dim, degree).to_vector(degree)
    alg = Q.algebra
    blocks = [alg.sigma_matrix(axis, degree) for axis in (1, 2, 3)]
    if degree <= dim - 2:
        blocks += [alg.L_matrix(axis, degree) for axis in (1, 2, 3)]
    if degree >= 2:
        blocks += [alg.Lambda_matrix(axis, degree) for axis in (1, 2, 3)]
    for M in blocks:
        got = operators._real_matvec(M, v)
        assert np.all(np.abs(got - M @ v) <= 4 * EPS * (np.abs(M) @ np.abs(v)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from((4, 8)), st.data())
def test_type_components_types_match_the_complex_product(dim, data):
    # a sum of some of a random form's (p, q)-components has exactly those
    # types, whether sigma is applied by two real products or one complex one
    Q = Q4 if dim == 4 else Q8
    degree = data.draw(st.integers(0, dim))
    axis = data.draw(st.sampled_from((1, 2, 3)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    comps = type_components(random_form(rng, dim, degree), axis, Q)
    kept = sorted(data.draw(st.sets(st.integers(0, len(comps) - 1), min_size=1)))
    form = FormVector.zero(dim)
    for j in kept:
        form = form + comps[j][2]
    types = [(p, q) for p, q, _ in type_components(form, axis, Q)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "_real_matvec", lambda M, v: M @ v)
        complex_types = [(p, q) for p, q, _ in type_components(form, axis, Q)]
    assert types == complex_types == [comps[j][:2] for j in kept]


def test_operator_matrix_wrapper():
    # the degree blocks themselves: L_1 sends 1 to omega_1, and sigma_1 omega_1 = 0
    one = FormVector(4, {(): 1.0}).to_vector(0)
    L1_one = FormVector.from_vector(4, 2, ALG4.L_matrix(1, 0) @ one)
    assert (L1_one - Q4.omega(1)).norm() <= 1e-14
    omega1 = Q4.omega(1).to_vector(2)
    assert np.abs(ALG4.sigma_matrix(1, 2) @ omega1).max() <= 1e-14


# -- one algebra per structure ------------------------------------------------

def test_structure_arrays_are_read_only_copies():
    g = 2.0 * np.eye(4)
    Q = QuaternionicStructure(4, metric=g)
    g[0, 0] = 3.0                       # the caller's array is not the structure's
    assert Q.metric[0, 0] == 2.0
    for M in (Q.metric, Q.I, Q.J, Q.K):
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
    for axis in (1, 2, 3):
        W = Q.omega_matrix(axis)
        assert W is Q.omega_matrix(axis) and not W.flags.writeable


@pytest.mark.parametrize("axis", (0, -1, 4))
def test_axes_other_than_1_2_3_are_refused(axis):
    # 0 and -1 would otherwise index K and J from the end of (I, J, K)
    alg = LefschetzAlgebra(Q4)
    a = random_form(np.random.default_rng(0), 4, 2)
    calls = (lambda: Q4.complex_structure(axis), lambda: Q4.omega_matrix(axis),
             lambda: Q4.omega(axis), lambda: alg.L_matrix(axis, 2),
             lambda: alg.Lambda_matrix(axis, 2), lambda: alg.sigma_matrix(axis, 2),
             lambda: alg.lefschetz(axis, a), lambda: alg.su2_action(axis, a),
             lambda: type_components(a, axis, Q4))
    for call in calls:
        with pytest.raises(ValueError):
            call()


def counting(monkeypatch, name):
    """Count the calls of operators.<name> made from now on."""
    calls = []
    original = getattr(operators, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(operators, name, counted)
    return calls


def test_type_components_builds_sigma_once_per_axis(monkeypatch):
    Q = QuaternionicStructure(8)
    kernel = middle_kernel(Q)
    assert len(kernel) == 14
    builds = counting(monkeypatch, "derivation_matrix")
    for eta in kernel:
        for axis in (1, 2, 3):
            assert [(p, q) for p, q, _ in type_components(eta, axis, Q)] == [(2, 2)]
    assert len(builds) <= 3


def test_lie_closure_reuses_the_blocks_of_verify_so5(monkeypatch):
    Q = QuaternionicStructure(8)
    verify_so5(Q)
    builds = counting(monkeypatch, "wedge_operator_matrix")
    assert_so41(lie_closure_dimension(Q))
    assert middle_kernel_oracle_dimension(Q) == len(middle_kernel(Q)) == 14
    assert builds == []


def test_structure_with_a_used_algebra_is_freed_without_gc():
    gc.disable()
    try:
        Q = QuaternionicStructure(4)
        verify_so5(Q)
        type_components(Q.omega(2), 1, Q)
        assert vars(Q)["algebra"] is Q.algebra
        ref = weakref.ref(Q)
        del Q
        assert ref() is None
    finally:
        gc.enable()


def sp2_sp1_element(seed):
    """A random g in Sp(2).Sp(1) on R^8: left multiplication by a unit quaternion
    q after the Cayley transform of a random X in sp(2), the antisymmetric
    matrices that commute with I, J and K."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((8, 8))
    X = X - X.T
    for M in (Q8.I, Q8.J):
        X = 0.5 * (X - M @ X @ M)       # the part that commutes with M
    A = np.linalg.solve(np.eye(8) - X, np.eye(8) + X)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    Lq = q[0] * np.eye(8) + q[1] * Q8.I + q[2] * Q8.J + q[3] * Q8.K
    return Lq @ A


@settings(derandomize=True, max_examples=4, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sp2_sp1_conjugations_keep_so41(seed):
    g = sp2_sp1_element(seed)
    assert np.abs(g.T @ g - np.eye(8)).max() <= 1e-12
    I, J, K = (g @ M @ g.T for M in (Q8.I, Q8.J, Q8.K))
    # g normalizes span{I, J, K}: the new triple is a rotation of the old one
    R = np.array([[np.sum(N * M) / 8 for M in (Q8.I, Q8.J, Q8.K)] for N in (I, J, K)])
    assert np.abs(R @ R.T - np.eye(3)).max() <= 1e-12
    assert np.abs(I - sum(R[0, j] * M for j, M in enumerate((Q8.I, Q8.J, Q8.K)))).max() <= 1e-12
    Q = QuaternionicStructure(8, I=I, J=J, K=K)
    assert verify_so5(Q)["max_residual"] <= 1e-12
    assert_so41(lie_closure_dimension(Q))
